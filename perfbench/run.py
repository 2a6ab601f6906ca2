#!/usr/bin/env python3
"""apexcsl benchmark: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0

Workloads: screen, export, build_eval (see perfbench/README.md). The program
is imported from ./src of the checkout. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Exits non-zero, without a result, when the sources are missing.
"""

import os

BLAS_THREADS = 1  # fixed before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
LAYERS = ("cli", "csl", "props", "surrogate", "factorizer", "nn", "engine", "evalkit", "blobio")
ADD_ELEMENTS = 1 << 25  # two float64 arrays of 256 MiB each for the reference add rate


def import_program():
    if not (SRC / "apexcsl" / "__init__.py").is_file():
        sys.exit(f"error: no apexcsl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import apexcsl

    if pathlib.Path(apexcsl.__file__).resolve().parent != SRC / "apexcsl":
        sys.exit(f"error: apexcsl was imported from {apexcsl.__file__}, not from {SRC}")


def run_rounds(workload, session, seconds: float, rounds: int | None = None) -> list:
    """Whole rounds, at least MIN_ROUNDS, until `seconds` have passed (or exactly
    `rounds`); returns the calls made."""
    before = len(session.calls)
    t0 = time.perf_counter()
    done = 0
    while (done < rounds) if rounds is not None else (done < MIN_ROUNDS or time.perf_counter() - t0 < seconds):
        workload.run_round(session)
        session.round += 1
        done += 1
    return session.calls[before:]


def end_to_end(workload, session, setup_times, attr="seconds") -> dict:
    searches = [getattr(c, attr) for c in session.calls if c.kind == "search"]
    rounds = sorted({c.round for c in session.calls})
    per_round = [sum(getattr(c, attr) for c in session.calls if c.round == r) for r in rounds]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_s": (statistics.median(searches), "s"),
        "products_per_s": (workload.n_products * len(searches) / sum(searches), "1/s"),
        "round_s": (statistics.median(per_round), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def machine_add_rate() -> float:
    """Adds per second of a plain in-place numpy add on arrays far beyond the caches."""
    import numpy as np

    a = np.ones(ADD_ELEMENTS)
    b = np.ones(ADD_ELEMENTS)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.add(a, b, out=a)
        times.append(time.perf_counter() - t0)
    return ADD_ELEMENTS / statistics.median(times)


def search_probe(variant: str):
    def probe(tracer, idx, args, kwargs, result):
        library, query = args[0], args[2]
        lo, hi = kwargs.get("index_range") or (0, library.reaction_offset(len(library.reactions) - 1)
                                               + library.reaction_size(len(library.reactions) - 1))
        adds = 0
        for t, rx in enumerate(library.reactions):
            start = library.reaction_offset(t)
            overlap = max(0, min(hi, start + library.reaction_size(t)) - max(lo, start))
            adds += overlap * len(rx.rgroups) * (1 + len(query.constraints))
        c = tracer.counts
        c[f"{variant}.scan_seconds"] += result.timing["scan_seconds"]
        c[f"{variant}.scanned"] += result.scanned
        c["adds"] += adds
        c["retained"] += result.retained
        c["discarded"] += result.discarded_for_violation
    return probe


def file_size_probe(counter: str):
    def probe(tracer, idx, args, kwargs, result):
        tracer.counts[counter] += os.path.getsize(args[0])
    return probe


def config_probe(counter: str, attr: str):
    def probe(tracer, idx, args, kwargs, result):
        tracer.counts[counter] += getattr(args[2], attr)
    return probe


PROBES = {
    "engine.search_topk_stream": search_probe("stream"),
    "engine.search_topk_batched": search_probe("batched"),
    "blobio.save_blob": file_size_probe("bytes_written"),
    "blobio.load_blob": file_size_probe("bytes_read"),
    "surrogate.train_surrogate": config_probe("epochs", "epochs"),
    "factorizer.train_factorizer": config_probe("steps", "steps"),
}


def per_layer(tracer, n_rounds: int, traced: list, untraced: list) -> dict:
    from spans import SpanTable

    t = SpanTable(tracer)
    c = tracer.counts
    r = float(n_rounds)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    searches = ("engine.search_topk_stream", "engine.search_topk_batched")
    scan_s = c["stream.scan_seconds"] + c["batched.scan_seconds"]
    search_wall = sum(t.total(n) for n in searches)
    search_fingerprint = sum(t.under("csl.library_fingerprint", n) for n in searches)
    sur_features = t.under("props.product_feature_matrix", "surrogate.train_surrogate")
    m = {
        "cli.parse_query_s": (t.total("cli.parse_query_file") / r, "s"),
        "cli.search_s": (t.total("cli.cmd_search") / r, "s"),
        "cli.train_surrogate_s": (t.total("cli.cmd_train_surrogate") / r, "s"),
        "cli.train_factorizer_s": (t.total("cli.cmd_train_factorizer") / r, "s"),
        "cli.precompute_s": (t.total("cli.cmd_precompute") / r, "s"),
        "cli.evaluate_s": (t.total("cli.cmd_evaluate") / r, "s"),
        "csl.load_library_s": (t.total("csl.load_library") / r, "s"),
        "csl.fingerprint_s": (t.total("csl.library_fingerprint") / r, "s"),
        "csl.fingerprint_calls": (t.count("csl.library_fingerprint") / r, "count"),
        "csl.decode_index_s": (t.total("csl.decode_index") / r, "s"),
        "csl.decode_index_calls": (t.count("csl.decode_index") / r, "count"),
        "csl.assemble_s": (t.total("csl.assemble") / r, "s"),
        "csl.assemble_calls": (t.count("csl.assemble") / r, "count"),
        "props.synthon_features_s": (t.total("props.library_synthon_features") / r, "s"),
        "props.product_features_s": (t.total("props.product_features") / r, "s"),
        "props.product_features_calls": (t.count("props.product_features") / r, "count"),
        "props.ground_truth_s": (t.total("props.ground_truth") / r, "s"),
        "props.ground_truth_calls": (t.count("props.ground_truth") / r, "count"),
        "props.oracle_block_values_s": (t.total("props.oracle_block_values") / r, "s"),
        "surrogate.train_s": (t.total("surrogate.train_surrogate") / r, "s"),
        "surrogate.epoch_s": (rate(t.total("surrogate.train_surrogate") - sur_features, c["epochs"]), "s"),
        "surrogate.evaluate_r2_s": (t.total("surrogate.evaluate_r2") / r, "s"),
        "factorizer.train_s": (t.total("factorizer.train_factorizer") / r, "s"),
        "factorizer.step_s": (rate(t.total("factorizer.reconstruction_loss_and_grads"),
                                   t.count("factorizer.reconstruction_loss_and_grads")), "s"),
        "factorizer.gap_s": (t.total("factorizer.factorization_gap") / r, "s"),
        "factorizer.encode_hierarchy_s": (t.total("factorizer.encode_hierarchy") / r, "s"),
        "nn.adam_steps": (t.count("nn.Adam.step") / r, "count"),
        "nn.adam_step_s": (t.total("nn.Adam.step") / r, "s"),
        "engine.scan_s": (scan_s / r, "s"),
        "engine.stream_products_per_s": (rate(c["stream.scanned"], c["stream.scan_seconds"]), "1/s"),
        "engine.batched_products_per_s": (rate(c["batched.scanned"], c["batched.scan_seconds"]), "1/s"),
        "engine.blocks_visited": ((c["engine.iter_blocks@engine.search_topk_stream"]
                                   + c["engine.iter_blocks@engine.make_batches"]) / r, "count"),
        "engine.scan_adds_per_s": (rate(c["adds"], scan_s), "1/s"),
        "machine.add_per_s": (machine_add_rate(), "1/s"),
        "engine.select_decode_s": ((search_wall - scan_s - search_fingerprint) / r, "s"),
        "engine.save_result_s": (t.total("engine.save_result") / r, "s"),
        "engine.retained": (c["retained"] / r, "count"),
        "engine.discarded_for_violation": (c["discarded"] / r, "count"),
        "engine.load_table_s": (t.total("engine.load_table") / r, "s"),
        "engine.precompute_s": (t.total("engine.precompute_contributions") / r, "s"),
        "evalkit.oracle_topk_s": (t.total("evalkit.oracle_topk") / r, "s"),
        "evalkit.oracle_topk_calls": (t.count("evalkit.oracle_topk") / r, "count"),
        "evalkit.satisfaction_s": (t.total("evalkit.satisfaction_rate") / r, "s"),
        "evalkit.satisfaction_calls": (t.count("evalkit.satisfaction_rate") / r, "count"),
        "blobio.save_s": (t.total("blobio.save_blob") / r, "s"),
        "blobio.bytes_written": (c["bytes_written"] / r, "B"),
        "blobio.load_s": (t.total("blobio.load_blob") / r, "s"),
        "blobio.bytes_read": (c["bytes_read"] / r, "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self(layer) / r, "s")
    # speed-normalized, so that host drift between the two passes cancels
    m["trace.overhead_s"] = ((sum(c.seconds for c in traced) - sum(c.seconds for c in untraced)) / r, "s")
    m["trace.unaccounted_s"] = ((sum(c.wall for c in traced) - t.roots()) / r, "s")
    return m


def as_number(value: float):
    return int(value) if float(value).is_integer() and abs(value) < 2**53 else float(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("screen", "export", "build_eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_program()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    from workloads import WORKLOADS, Session

    from speed import SpeedProbe, timed

    workload = WORKLOADS[args.workload]()
    work = WORK / args.workload
    probe = SpeedProbe()
    setup_wall, setup_times = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        _, wall, seconds = timed(probe, workload.setup, work, args.seed)
        setup_wall.append(wall)
        setup_times.append(seconds)

    session = Session(probe)
    untraced = run_rounds(workload, session, args.seconds)
    if args.trace:
        from spans import Tracer

        n_rounds = session.round
        tracer = Tracer()
        tracer.install(PROBES)
        try:
            traced = run_rounds(workload, session, args.seconds, rounds=n_rounds)
        finally:
            tracer.uninstall()
        tracer.save(work / "spans.npz")
        metrics = per_layer(tracer, n_rounds, traced, untraced)
    else:
        metrics = end_to_end(workload, session, setup_times)

    failed = workload.failures(session)
    for line in failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    extra = {}
    if not args.trace:  # figures that are not gated metrics: raw wall times and workload extras
        extra = workload.extra_report(session)
        raw = end_to_end(workload, session, setup_wall, attr="wall")
        extra.update({f"wall_{k}": v for k, (v, unit) in raw.items() if unit in ("s", "1/s")})
    print(f"workload={args.workload} seed={args.seed} rounds={session.round} calls={len(session.calls)} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} numpy={np.__version__}")
    if extra:
        print("extra: " + " ".join(f"{k}={as_number(v):.6g}" for k, v in extra.items()))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(session.calls),
        "failed": len(failed),
        "metrics": {name: {"value": as_number(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
