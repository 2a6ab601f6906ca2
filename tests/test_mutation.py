"""Seeded mutation test: every subcommand, run on a damaged copy of one of its
inputs, exits 0 with nothing on stderr, or exits 1 with exactly one `error:`
line. No exception may escape `cli.main`, and every warning is an error.

One tiny pipeline (300 products) is built once. Each input kind is damaged by
seeded edits: the text files (library, labels, oracle, query) by a flipped
bit, a swapped digit, a huge number, or a deleted, duplicated or swapped line;
the blobs (table, surrogate, factorizer) by a flipped bit in the header or in
the payload, where a payload flip first picks one of the blob's arrays, so
that the small index arrays are hit as often as the large value arrays.
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from apexcsl import cli

MUTATIONS = 24  # per input kind, each run by every subcommand that reads the kind
TEXT_EDITS = ("bit_flip", "digit_swap", "huge_number", "delete_line", "duplicate_line", "swap_lines")
BLOB_EDITS = ("header_flip", "payload_flip")
HUGE = ("9" * 30, "9" * 400, "1e308", "-1e308", "1e999")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
READERS = {
    "library": ("generate", "label", "train-surrogate", "train-factorizer", "precompute", "search", "evaluate",
                "compare-ts", "cost"),
    "labels": ("train-surrogate",),
    "oracle": ("label", "evaluate", "compare-ts"),
    "query": ("search", "search-batched", "evaluate"),
    "table": ("search", "evaluate", "compare-ts"),
    "surrogate": ("train-factorizer", "precompute"),
    "factorizer": ("precompute",),
}


def argv(command, f, out):
    """One subcommand's arguments over the input files `f`, by kind, with fast settings."""
    lib = ["--library", f["library"]]
    return {
        "generate": ["generate", "--from-library", f["library"], "--downsample", "0.5", "--out", out],
        "label": ["label", *lib, "--oracle-in", f["oracle"], "--out", out],
        "train-surrogate": ["train-surrogate", *lib, "--labels", f["labels"], "--out", out, "--epochs", "1",
                            "--embedding-dim", "8"],
        "train-factorizer": ["train-factorizer", *lib, "--surrogate", f["surrogate"], "--out", out, "--steps", "2",
                             "--gap-sample", "8"],
        "precompute": ["precompute", *lib, "--surrogate", f["surrogate"], "--factorizer", f["factorizer"],
                       "--out", out],
        "search": ["search", *lib, "--table", f["table"], "--query", f["query"], "--out", out],
        "search-batched": ["search", *lib, "--table", f["table"], "--query", f["query"], "--out", out,
                           "--variant", "batched"],
        "evaluate": ["evaluate", *lib, "--table", f["table"], "--oracle", f["oracle"], "--query", f["query"],
                     "--out", out, "--j", "1,5"],
        "compare-ts": ["compare-ts", *lib, "--table", f["table"], "--oracle", f["oracle"], "--objective", "dock_a",
                       "--budgets", "5", "--n-seeds", "1", "--out", out],
        "cost": ["cost", *lib],
    }[command]


def outcome(args):
    """(exit code, stderr) of one in-process run with warnings as errors, or
    the exception that escaped `cli.main`."""
    err = io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            return cli.main(args), err.getvalue()
    except Exception as exc:
        return "raised", f"{type(exc).__name__}: {exc}"


def mutate(data: bytes, edit: str, rng: np.random.Generator) -> bytes:
    """One seeded edit of a file's bytes."""
    out = bytearray(data)
    if edit in ("bit_flip", "header_flip", "payload_flip"):
        header = data.index(b"\n") + 1 if edit != "bit_flip" else 0
        if edit == "header_flip":
            lo, hi = 0, header - 1
        elif edit == "payload_flip":
            meta = json.loads(data[:header])
            sizes = [np.dtype(a["dtype"]).itemsize * int(np.prod(a["shape"])) for a in meta["arrays"]]
            ends = np.cumsum(sizes) + header
            j = int(rng.choice(np.flatnonzero(np.asarray(sizes) > 0)))
            lo, hi = int(ends[j] - sizes[j]), int(ends[j])
        else:
            lo, hi = 0, len(data)
        out[int(rng.integers(lo, hi))] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if edit in ("digit_swap", "huge_number"):
        spans = [m.span() for m in (re.finditer(rb"\d", data) if edit == "digit_swap" else NUMBER.finditer(data))]
        a, b = spans[int(rng.integers(len(spans)))]
        if edit == "digit_swap":
            new = str((int(data[a:b]) + int(rng.integers(1, 10))) % 10).encode()
        else:
            new = HUGE[int(rng.integers(len(HUGE)))].encode()
        return data[:a] + new + data[b:]
    lines = data.splitlines(keepends=True)
    i = int(rng.integers(len(lines)))
    if edit == "delete_line":
        del lines[i]
    elif edit == "duplicate_line":
        lines.insert(i, lines[i])
    else:
        j = int(rng.integers(len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every input kind of one 300-product pipeline, built with fast settings."""
    d = tmp_path_factory.mktemp("mutation")
    f = {kind: str(d / name) for kind, name in (
        ("library", "library.csl"), ("labels", "labels.tsv"), ("oracle", "oracle.json"), ("query", "query.json"),
        ("table", "table.blob"), ("surrogate", "surrogate.blob"), ("factorizer", "factorizer.blob"))}
    assert outcome(["generate", "--out", f["library"], "--reactions", "4", "--synthons", "5", "--seed", "3"])[0] == 0
    assert outcome(["label", "--library", f["library"], "--out", f["labels"], "--oracle-out", f["oracle"],
                    "--seed", "3"])[0] == 0
    for command, made in (("train-surrogate", "surrogate"), ("train-factorizer", "factorizer"),
                          ("precompute", "table")):
        assert outcome(argv(command, f, f[made])) == (0, "")
    with open(f["query"], "w") as fh:
        json.dump({"objective": {"task": "dock_a", "direction": "maximize"},
                   "constraints": [{"task": "mw", "upper": 0.0}, {"task": "dock_b", "lower": -1.0}], "k": 5},
                  fh, indent=1)
    for command in READERS["table"]:
        assert outcome(argv(command, f, str(d / "out"))) == (0, "")
    return d, f


@pytest.mark.parametrize("kind", list(READERS))
def test_damaged_input_fails_with_one_error_line(inputs, kind):
    d, f = inputs
    with open(f[kind], "rb") as fh:
        data = fh.read()
    edits = BLOB_EDITS if kind in ("table", "surrogate", "factorizer") else TEXT_EDITS
    bad, out, failures = str(d / f"mutated_{kind}"), str(d / "out"), []
    for seed in range(MUTATIONS):
        edit = edits[seed % len(edits)]
        with open(bad, "wb") as fh:
            fh.write(mutate(data, edit, np.random.default_rng(seed)))
        for command in READERS[kind]:
            code, err = outcome(argv(command, {**f, kind: bad}, out))
            lines = err.splitlines()
            if not ((code == 0 and err == "") or (code == 1 and len(lines) == 1 and lines[0].startswith("error: "))):
                failures.append(f"{edit} seed {seed}, {command}: exit {code}, stderr {err!r}")
    assert failures == [], "\n".join(failures)
