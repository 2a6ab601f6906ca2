"""The benchmark's own tests: its output checks accept the program's real
output and reject corrupted hit files and reports.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from apexcsl import cli, csl, engine  # noqa: E402

import inputs  # noqa: E402
from checks import (  # noqa: E402
    LibraryText, Query, TableArrays, compare_hits, recount_evaluation, reference_hits,
)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A small library and an integer-valued table, so objective ties are common."""
    work = tmp_path_factory.mktemp("checks")
    library = csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=2, components=(2, 3), synthons_per_rgroup=6), seed=3)
    csl.save_library(library, work / "lib.csl")
    rng = np.random.default_rng(0)
    member_ids, rg_offsets, rg_ids = [], [0], []
    for rg in library.iter_rgroups():
        rg_ids.append(rg.rgroup_id)
        member_ids.extend(rg.synthon_ids)
        rg_offsets.append(len(member_ids))
    table = engine.ContributionTable(
        values=rng.integers(-2, 3, size=(2, len(member_ids))).astype(np.float32),
        biases=np.zeros(2), task_names=["obj", "prop"], member_ids=np.asarray(member_ids),
        rg_offsets=np.asarray(rg_offsets), rg_ids=np.asarray(rg_ids),
        fingerprint=csl.library_fingerprint(library))
    engine.save_table(table, work / "table.blob")
    doc = inputs.query_doc("obj", "maximize", [{"task": "prop", "upper": 0.0}], 40)
    inputs.write_json(work / "query.json", doc)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["search", "--library", str(work / "lib.csl"), "--table", str(work / "table.blob"),
                         "--query", str(work / "query.json"), "--out", str(work / "hits.tsv"),
                         "--assemble"]) == 0
    lib, arrays = LibraryText(work / "lib.csl"), TableArrays(work / "table.blob")
    query = Query.from_doc(doc)
    ref = reference_hits(lib, arrays, [query])[0]
    lines = (work / "hits.tsv").read_text().splitlines()
    return work, lib, arrays, query, ref, lines


def check(case, lines):
    work, lib, _, query, ref, _ = case
    path = work / "corrupt.tsv"
    path.write_text("\n".join(lines) + "\n")
    return compare_hits(path, lib, query, ref, assembled=True)


def with_rank(row: str, rank: int) -> str:
    return "\t".join([str(rank)] + row.split("\t")[1:])


def test_program_output_passes(case):
    assert check(case, case[5]) == []


def test_swapped_rows_rejected(case):
    lines = list(case[5])
    lines[1], lines[5] = with_rank(lines[5], 0), with_rank(lines[1], 4)
    assert check(case, lines)


def test_wrong_tie_break_rejected(case):
    lines = list(case[5])
    objective = [row.split("\t")[4] for row in lines[1:]]
    tied = next(i for i in range(len(objective) - 1) if objective[i] == objective[i + 1])
    a, b = tied + 1, tied + 2
    lines[a], lines[b] = with_rank(lines[b], tied), with_rank(lines[a], tied + 1)
    assert check(case, lines)


def test_kept_violator_rejected(case):
    work, lib, arrays, query, ref, lines = case
    prop = np.concatenate([arrays.reaction_values(lib, t, "prop") for t in range(len(lib.reactions))])
    obj = np.concatenate([arrays.reaction_values(lib, t, "obj") for t in range(len(lib.reactions))])
    g = int(np.flatnonzero(prop > 0.0)[np.argmax(obj[prop > 0.0])])  # best-scoring violator
    t, sids = lib.decode(np.array([g]))
    row = "\t".join([str(len(lines) - 2), str(g), str(int(t[0])), ",".join(map(str, sids[0])),
                     repr(float(obj[g])), repr(-float(prop[g])), repr(float(prop[g])),
                     lib.assembled(int(t[0]), sids[0])])
    assert check(case, lines[:-1] + [row])


def test_wrong_assembled_token_rejected(case):
    lines = list(case[5])
    lines[3] = lines[3][:-1] + ("x" if lines[3][-1] != "x" else "y")
    assert check(case, lines)


def test_recall_recount_rejects_a_wrong_report(case):
    work, lib, arrays, query, ref, _ = case
    values = {t: np.concatenate([arrays.reaction_values(lib, r, t) for r in range(len(lib.reactions))])
              for t in ("obj", "prop")}
    good = work / "eval_good.tsv"
    good.write_text("j\trecall\tsatisfaction_rate\tbase_rate\n5\t1.000000\t1.000000\t0.500000\n")
    problems, recalls = recount_evaluation(good, ref.g, query, values)
    assert problems == [] and recalls == [1.0]
    bad = work / "eval_bad.tsv"
    bad.write_text("j\trecall\tsatisfaction_rate\tbase_rate\n5\t0.800000\t1.000000\t0.500000\n")
    assert recount_evaluation(bad, ref.g, query, values)[0]
