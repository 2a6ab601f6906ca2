"""The three workloads: what each sets up, runs per round, and checks.

Every operation is one in-process `apexcsl.cli.main` call, issued one at a
time (a closed loop with a single client). Only those calls are timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apexcsl import cli, csl, props

import inputs
from speed import SpeedProbe, timed
from checks import LibraryText, Query, TableArrays, compare_hits, read_hit_indices
from checks import oracle_library_values, recount_evaluation, reference_hits


@dataclass
class Call:
    kind: str          # CLI subcommand
    key: str           # identifies the operation; equal keys must write equal bytes
    round: int
    seconds: float     # wall time normalized to the reference machine speed (see speed.py)
    wall: float        # raw wall time
    ok: bool
    out: Path | None
    digest: str = ""
    stdout: str = ""


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _main(argv: list[str]):
    try:
        return cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
        return f"{type(exc).__name__}: {exc}"


class Session:
    """Issues CLI calls in-process and keeps one record per call."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.calls: list[Call] = []
        self.round = 0

    def call(self, key: str, argv: list[str], out: Path | None) -> Call:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc, wall, seconds = timed(self.probe, _main, argv)
        ok = rc == 0 and (out is None or out.is_file())
        rec = Call(argv[0], key, self.round, seconds, wall, ok, out, stdout=buf.getvalue())
        if ok and out is not None:
            rec.digest = digest(out)
        self.calls.append(rec)
        return rec


class Workload:
    name = ""
    n_products = 0

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, session: Session) -> None:
        raise NotImplementedError

    def check_outputs(self) -> dict[str, list[str]]:
        """Problems per operation key, from the files the last round left."""
        raise NotImplementedError

    def extra_report(self, session: Session) -> dict[str, float]:
        return {}

    def failures(self, session: Session) -> list[str]:
        """Mark failed calls: an error, bytes that differ from the key's final
        output, or a final output that fails its check."""
        final = {c.key: c.digest for c in session.calls}
        problems = self.check_outputs()
        failed = []
        for c in session.calls:
            if not c.ok:
                failed.append(f"{c.key} round {c.round}: call failed: {c.stdout.strip()[-300:]}")
            elif c.digest != final[c.key]:
                failed.append(f"{c.key} round {c.round}: output differs from the last round's")
            elif problems.get(c.key):
                failed.append(f"{c.key} round {c.round}: " + "; ".join(problems[c.key][:3]))
        return failed


def _search_argv(lib: Path, table: Path, query: Path, out: Path, *extra: str) -> list[str]:
    return ["search", "--library", str(lib), "--table", str(table), "--query", str(query),
            "--out", str(out), *extra]


class Screen(Workload):
    """Stream searches over a 3M-product mixed library at k from 10 to 1000."""

    name = "screen"
    # (reactions, components, synthons per R-group)
    SHAPE = [(2, 2, 1000), (1, 3, 100)]
    K_LADDER = (10, 30, 100, 300, 1000)
    MAX_CONSTRAINTS = 6

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.lib_path, self.table_path = work / "library.csl", work / "table.blob"
        library = inputs.mixed_library(self.SHAPE, seed)
        csl.save_library(library, self.lib_path)
        inputs.write_oracle_table(library, seed, self.table_path)
        lib, table = LibraryText(self.lib_path), TableArrays(self.table_path)
        self.n_products = lib.n_products
        rng = np.random.default_rng([seed, 1])
        sample = inputs.sampled_predictions(lib, table, inputs.PROPERTIES, rng)
        # every (objective, constraint count) pair once; directions alternate;
        # k cycles through the ladder
        self.queries: list[tuple[str, Path, Query]] = []
        for i in range(len(inputs.DOCK) * (self.MAX_CONSTRAINTS + 1)):
            n_con = i // len(inputs.DOCK)
            cons = []
            for p in rng.choice(len(inputs.PROPERTIES), size=n_con, replace=False):
                task = inputs.PROPERTIES[p]
                side = ("lower", "upper")[int(rng.integers(2))]
                cons.append({"task": task, **inputs.bound(sample[task], side, float(rng.uniform(0.03, 0.3)))})
            doc = inputs.query_doc(inputs.DOCK[i % 5], ("maximize", "minimize")[i % 2], cons,
                                   self.K_LADDER[(3 * i) % len(self.K_LADDER)])
            self._add_query(f"q{i:02d}", doc)
        # fewer feasible products than k: the scan keeps violators that
        # selection must drop (discarded_for_violation > 0)
        cons = [{"task": inputs.PROPERTIES[p], **inputs.bound(sample[inputs.PROPERTIES[p]], "lower", 0.98)}
                for p in rng.choice(len(inputs.PROPERTIES), size=3, replace=False)]
        self._add_query("tight", inputs.query_doc(inputs.DOCK[0], "maximize", cons, 1000))

    def _add_query(self, key: str, doc: dict) -> None:
        path = self.work / f"query_{key}.json"
        inputs.write_json(path, doc)
        self.queries.append((key, path, Query.from_doc(doc)))

    def run_round(self, session: Session) -> None:
        for key, qpath, _ in self.queries:
            session.call(key, _search_argv(self.lib_path, self.table_path, qpath,
                                           self.work / f"hits_{key}.tsv"), self.work / f"hits_{key}.tsv")

    def check_outputs(self) -> dict[str, list[str]]:
        lib, table = LibraryText(self.lib_path), TableArrays(self.table_path)
        refs = reference_hits(lib, table, [q for _, _, q in self.queries])
        return {key: compare_hits(self.work / f"hits_{key}.tsv", lib, q, ref, assembled=False)
                for (key, _, q), ref in zip(self.queries, refs)}

    def extra_report(self, session: Session) -> dict[str, float]:
        times = [c.seconds for c in session.calls if c.kind == "search"]
        if len(times) >= 100:  # at least ten samples beyond the 90th percentile
            return {"query_p90_s": statistics.quantiles(times, n=10)[8], "query_samples": len(times)}
        return {"query_samples": len(times)}


class Export(Workload):
    """`search --assemble` at k from 1e4 to 1e5 on a 1M-product 3-component
    library, each query under both scan variants."""

    name = "export"
    SYNTHONS = 100
    K_LADDER = (10_000, 30_000, 100_000)
    CUTS = ((0.5,), (0.4, 0.4), (0.5,))  # binding: share of the library each bound excludes
    VARIANTS = ("stream", "batched")

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.lib_path, self.table_path = work / "library.csl", work / "table.blob"
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=self.SYNTHONS), seed)
        csl.save_library(library, self.lib_path)
        inputs.write_oracle_table(library, seed, self.table_path)
        lib, table = LibraryText(self.lib_path), TableArrays(self.table_path)
        self.n_products = lib.n_products
        rng = np.random.default_rng([seed, 2])
        sample = inputs.sampled_predictions(lib, table, inputs.PROPERTIES, rng)
        self.queries = []
        for i, (k, cuts) in enumerate(zip(self.K_LADDER, self.CUTS)):
            cons = []
            for p, cut in zip(rng.choice(len(inputs.PROPERTIES), size=len(cuts), replace=False), cuts):
                task = inputs.PROPERTIES[p]
                side = ("lower", "upper")[int(rng.integers(2))]
                cons.append({"task": task, **inputs.bound(sample[task], side, cut)})
            doc = inputs.query_doc(inputs.DOCK[int(rng.integers(5))], ("maximize", "minimize")[i % 2], cons, k)
            path = work / f"query{i}.json"
            inputs.write_json(path, doc)
            self.queries.append((f"q{i}", path, Query.from_doc(doc)))

    def _out(self, key: str, variant: str) -> Path:
        return self.work / f"hits_{key}_{variant}.tsv"

    def run_round(self, session: Session) -> None:
        for key, qpath, _ in self.queries:
            for variant in self.VARIANTS:
                out = self._out(key, variant)
                session.call(f"{key}/{variant}", _search_argv(self.lib_path, self.table_path, qpath, out,
                                                              "--variant", variant, "--assemble"), out)

    def check_outputs(self) -> dict[str, list[str]]:
        lib, table = LibraryText(self.lib_path), TableArrays(self.table_path)
        refs = reference_hits(lib, table, [q for _, _, q in self.queries])
        problems = {}
        for (key, _, q), ref in zip(self.queries, refs):
            files = [self._out(key, v) for v in self.VARIANTS]
            same = len({f.read_bytes() for f in files if f.is_file()}) == 1
            for v, f in zip(self.VARIANTS, files):
                found = compare_hits(f, lib, q, ref, assembled=True) if f.is_file() else [f"{f}: missing"]
                if not same:
                    found.append("hit files differ between the scan variants")
                problems[f"{key}/{v}"] = found
        return problems


class BuildEval(Workload):
    """The paper's experiment through the CLI on the 1M-product shape: train
    the surrogate and the factorizer, precompute, then search and evaluate."""

    name = "build_eval"
    SYNTHONS = 100
    SAMPLE = 3000
    TASKS = ("dock_a", "dock_b", "mw", "logp")
    EPOCHS = 20
    STEPS = 200

    def setup(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.lib_path = work / "library.csl"
        self.oracle_path = work / "oracle.json"
        self.labels_path = work / "labels.tsv"
        for argv in (
            ["generate", "--out", str(self.lib_path), "--reactions", "1", "--components", "3",
             "--synthons", str(self.SYNTHONS), "--seed", str(seed)],
            ["label", "--library", str(self.lib_path), "--out", str(self.labels_path),
             "--oracle-out", str(self.oracle_path), "--seed", str(seed),
             "--sample-size", str(self.SAMPLE), "--tasks", ",".join(self.TASKS)],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"set-up call failed: apexcsl {' '.join(argv)}")
        self.n_products = LibraryText(self.lib_path).n_products
        labels: dict[str, list[float]] = {t: [] for t in self.TASKS}
        with open(self.labels_path) as fh:
            fh.readline()
            for line in fh:
                parts = line.rstrip("\n").split("\t")
                labels[parts[2]].append(float(parts[3]))
        # bounds at label quantiles; about half the library is feasible
        mw = {"task": "mw", **inputs.bound(np.array(labels["mw"]), "upper", 0.3)}
        logp = {"task": "logp", **inputs.bound(np.array(labels["logp"]), "lower", 0.3)}
        self.queries = []  # (key, path, query, j list for `evaluate` or None)
        for key, doc, js in (
            ("qa", inputs.query_doc("dock_a", "maximize", [mw, logp], 10_000), "100,1000,10000"),
            ("qb", inputs.query_doc("dock_b", "minimize", [], 1000), "10,100,1000"),
        ) + tuple(
            # searches that only serve retrieval: both objectives, both
            # directions, each constraint subset
            (f"q{i}", inputs.query_doc(obj, direction, cons, 1000), None)
            for i, (obj, direction, cons) in enumerate(
                (obj, direction, cons)
                for obj in ("dock_a", "dock_b")
                for direction in ("maximize", "minimize")
                for cons in ([], [mw], [logp], [mw, logp])
            )
        ):
            path = work / f"query_{key}.json"
            inputs.write_json(path, doc)
            self.queries.append((key, path, Query.from_doc(doc), js))

    def run_round(self, session: Session) -> None:
        w, seed, lib = self.work, str(self.seed), str(self.lib_path)
        sur, fz, table = w / "surrogate.blob", w / "factorizer.blob", w / "table.blob"
        session.call("train-surrogate", ["train-surrogate", "--library", lib, "--labels",
                                         str(self.labels_path), "--out", str(sur),
                                         "--epochs", str(self.EPOCHS), "--seed", seed], sur)
        session.call("train-factorizer", ["train-factorizer", "--library", lib, "--surrogate", str(sur),
                                          "--out", str(fz), "--steps", str(self.STEPS),
                                          "--lr", "3e-3", "--seed", seed], fz)
        session.call("precompute", ["precompute", "--library", lib, "--surrogate", str(sur),
                                    "--factorizer", str(fz), "--out", str(table)], table)
        for key, qpath, _, _ in self.queries:
            out = w / f"hits_{key}.tsv"
            session.call(f"search/{key}", _search_argv(self.lib_path, table, qpath, out), out)
        for key, qpath, _, js in self.queries:
            if js is None:
                continue
            out = w / f"eval_{key}.tsv"
            session.call(f"evaluate/{key}", ["evaluate", "--library", lib, "--table", str(table),
                                             "--oracle", str(self.oracle_path), "--query", str(qpath),
                                             "--out", str(out), "--j", js, "--seed", seed], out)

    def check_outputs(self) -> dict[str, list[str]]:
        w = self.work
        lib = LibraryText(self.lib_path)
        problems: dict[str, list[str]] = {}
        try:
            table = TableArrays(w / "table.blob")
        except (OSError, KeyError, ValueError) as exc:
            return {"precompute": [f"table unreadable: {exc}"]}
        if sorted(table.task_names) != sorted(self.TASKS):
            problems["precompute"] = [f"table tasks {table.task_names}"]
        refs = reference_hits(lib, table, [q for _, _, q, _ in self.queries])
        library = csl.load_library(self.lib_path)
        oracle = props.load_oracle(self.oracle_path)
        values = {t: oracle_library_values(oracle, library, t) for t in self.TASKS}
        self.recalls = []
        for (key, _, q, js), ref in zip(self.queries, refs):
            hits_path = w / f"hits_{key}.tsv"
            problems[f"search/{key}"] = compare_hits(hits_path, lib, q, ref, assembled=False)
            if js is None:
                continue
            hits = read_hit_indices(hits_path) if hits_path.is_file() else ref.g[:0]
            found, recalls = recount_evaluation(w / f"eval_{key}.tsv", hits, q, values)
            problems[f"evaluate/{key}"] = found
            self.recalls.extend(recalls)
        return problems

    def extra_report(self, session: Session) -> dict[str, float]:
        rounds = sorted({c.round for c in session.calls})
        build = [sum(c.seconds for c in session.calls if c.round == r and
                     c.kind in ("train-surrogate", "train-factorizer", "precompute")) for r in rounds]
        ev = [sum(c.seconds for c in session.calls if c.round == r and c.kind == "evaluate") for r in rounds]
        out = {"build_s": float(np.median(build)), "eval_s": float(np.median(ev))}
        if getattr(self, "recalls", None):
            out["recall"] = float(np.mean(self.recalls))
        return out


WORKLOADS = {w.name: w for w in (Screen, Export, BuildEval)}
