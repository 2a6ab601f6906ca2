"""Command-line pipeline: generate -> label -> train -> factorize -> precompute
-> search -> evaluate, plus cost accounting and the Thompson sampling baseline.

Every subcommand is seeded and writes deterministic bytes, so repeated runs
with identical inputs produce identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import blobio, csl, engine, evalkit, factorizer as fz, props, surrogate as sg
from .presets import PRESET_CONSTRAINTS


class CliError(RuntimeError):
    pass


def parse_query_file(path, table: engine.ContributionTable) -> engine.QuerySpec:
    """Read a declarative query config; preset names expand to their bound lists.

    Unknown task names are rejected here against the table header, and unknown
    keys at every level.
    """
    with blobio.utf8_text(path, CliError) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: query file must hold a JSON object")

    def number(item: dict, key: str, kind, default):
        """A JSON number (not a boolean or a string); for kind int, an integral one."""
        value = item.get(key, default)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())
        ):
            what = "an integer" if kind is int else "a number"
            raise CliError(f"{path}: {key} must be {what}, got {value!r}")
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            raise CliError(f"{path}: {key} is too large for a 64-bit float") from None

    def known_keys(item: dict, allowed: tuple[str, ...], what: str) -> None:
        """Reject keys outside `allowed`: a misspelled key would otherwise drop its setting silently."""
        unknown = sorted(set(item) - set(allowed))
        if unknown:
            raise CliError(f"{path}: {what} has unknown keys {unknown} (allowed: {', '.join(allowed)})")

    known_keys(doc, ("objective", "constraints", "k"), "the query")
    obj = doc.get("objective")
    if not isinstance(obj, dict) or "task" not in obj:
        raise CliError(f"{path}: query file needs an objective.task")
    known_keys(obj, ("task", "direction"), "the objective")
    items = doc.get("constraints", [])
    if not isinstance(items, list):
        raise CliError(f"{path}: constraints must be a JSON list")
    constraints: list[engine.Constraint] = []
    for item in items:
        if not isinstance(item, dict):
            raise CliError(f"{path}: each constraint must be a JSON object, got {item!r}")
        if "preset" in item:
            known_keys(item, ("preset",), "a preset constraint")
            name = item["preset"]
            if not isinstance(name, str) or name not in PRESET_CONSTRAINTS:
                raise CliError(f"{path}: unknown preset {name!r} (have {sorted(PRESET_CONSTRAINTS)})")
            constraints.extend(PRESET_CONSTRAINTS[name])
        elif "task" not in item:
            raise CliError(f"{path}: constraint {item!r} needs a task or a preset")
        else:
            known_keys(item, ("task", "lower", "upper"), "a task constraint")
            constraints.append(
                engine.Constraint(
                    task=item["task"],
                    lower=number(item, "lower", float, float("-inf")),
                    upper=number(item, "upper", float, float("inf")),
                )
            )
    query = engine.QuerySpec(
        objective=obj["task"],
        direction=obj.get("direction", "maximize"),
        constraints=tuple(constraints),
        k=number(doc, "k", int, 10),
    )
    try:
        query.validate_tasks(table)
    except engine.EngineError as exc:
        raise CliError(f"{path}: {exc}") from None
    return query


def _int_list(flag: str, text: str) -> list[int]:
    """Comma-separated integers, each >= 1."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise CliError(f"{flag} values must be >= 1, got {text!r}")
    return values


def _feature_config(args) -> props.FeatureConfig:
    return props.FeatureConfig(p=args.feature_p, q=args.feature_q, seed=args.feature_seed)


def _add_feature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feature-p", type=int, default=props.DEFAULT_FEATURE_DIM)
    p.add_argument("--feature-q", type=int, default=props.DEFAULT_CROSS_TERMS)
    p.add_argument("--feature-seed", type=int, default=0)


def cmd_generate(args) -> int:
    if args.from_library:
        library = csl.load_library(args.from_library)
        if args.downsample is None:
            raise CliError("--from-library requires --downsample")
        library = csl.downsample(library, args.downsample, args.seed)
    else:
        components = tuple(_int_list("--components", args.components))
        config = csl.SyntheticConfig(
            n_reactions=args.reactions,
            components=components,
            synthons_per_rgroup=args.synthons,
            share_rate=args.share_rate,
        )
        library = csl.generate_synthetic(config, args.seed)
        if args.downsample is not None:
            library = csl.downsample(library, args.downsample, args.seed)
    csl.save_library(library, args.out)
    print(f"wrote {args.out}: {len(library.reactions)} reactions, "
          f"{len(library.synthons)} synthons, {csl.product_count(library)} products")
    return 0


def cmd_label(args) -> int:
    library = csl.load_library(args.library)
    if args.oracle_in:
        oracle = props.load_oracle(args.oracle_in, library)
    else:
        oracle = props.make_default_oracle(
            library, args.seed, _feature_config(args),
            latent_kind=args.latent_kind, hardness=args.hardness,
        ) if args.oracle_kind == "default" else props.make_additive_oracle(
            library, args.seed, feature_config=_feature_config(args)
        )
    tasks = args.tasks.split(",") if args.tasks else oracle.task_names
    sample = props.SampleSpec(size=args.sample_size, seed=args.seed)
    dataset = props.label_library(oracle, library, tasks, sample)
    if args.oracle_out:
        props.save_oracle(oracle, args.oracle_out)
    props.save_labels(dataset, args.out, library)
    print(f"wrote {args.out}: {len(dataset)} rows over {len(tasks)} tasks")
    return 0


def cmd_train_surrogate(args) -> int:
    library = csl.load_library(args.library)
    dataset = props.load_labels(args.labels, library)
    config = sg.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        sigma=args.sigma,
        encoder=args.encoder,
        embedding_dim=args.embedding_dim,
    )
    examples = sg.build_examples(dataset, library, _feature_config(args))
    model = sg.train_surrogate(dataset, examples, config)
    sg.save_surrogate(model, args.out)
    r2 = sg.evaluate_r2(model, dataset, examples)
    summary = ", ".join(f"{k}={v:.4f}" if v is not None else f"{k}=NA" for k, v in r2.items())
    print(f"wrote {args.out}; train R2: {summary}")
    return 0


def cmd_train_factorizer(args) -> int:
    if args.gap_sample < 1:
        raise CliError(f"--gap-sample must be >= 1, got {args.gap_sample}")
    library = csl.load_library(args.library)
    model = sg.load_surrogate(args.surrogate)
    config = fz.FactorizerTrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        mode=args.mode,
        dims=fz.FactorizerDims(d_u=args.d_u),
    )
    # huge but finite weights overflow quietly here; training refuses a loss that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        trained = fz.train_factorizer(library, model, config)
    gap = fz.factorization_gap(trained, model, library, sample_size=args.gap_sample, seed=args.seed)
    fz.save_factorizer(trained, args.out)
    print(f"wrote {args.out}; reconstruction gap mean={gap['mean']:.6f} "
          f"p95={gap['p95']:.6f} embedding_rms={gap['embedding_rms']:.6f}")
    return 0


def cmd_precompute(args) -> int:
    library = csl.load_library(args.library)
    model = sg.load_surrogate(args.surrogate)
    trained = fz.load_factorizer(args.factorizer)
    # huge but finite weights overflow quietly here; the table refuses what is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        cache = fz.encode_hierarchy(trained, library)
        table = engine.precompute_contributions(cache, model)
    if args.cache_out:
        fz.save_cache(cache, args.cache_out)
    engine.save_table(table, args.out)
    print(f"wrote {args.out}: {table.n_tasks} tasks x {table.n_pairs} pair rows")
    return 0


def cmd_search(args) -> int:
    # the table first: the library it was built from is read by its R and T lines alone
    blob = engine.read_table(args.table)
    library = csl.load_library(args.library, fingerprint=blob[0]["fingerprint"])
    table = engine.load_table(args.table, library, blob)
    query = parse_query_file(args.query, table)
    search = engine.search_topk_stream if args.variant == "stream" else engine.search_topk_batched
    result = search(library, table, query)
    engine.save_result(result, query, args.out, library, args.assemble)
    wall = result.timing.get("scan_seconds", 0.0)
    print(
        f"k={query.k} retained={result.retained} "
        f"discarded_for_violation={result.discarded_for_violation} "
        f"scanned={result.scanned} scored={result.scored} wall={wall:.3f}s"
    )
    return 0


def _write_report(path, lines: list[str]) -> int:
    """Write a tab-separated report as UTF-8 and print it."""
    report = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(report, end="")
    return 0


def cmd_evaluate(args) -> int:
    js = _int_list("--j", args.j)
    library = csl.load_library(args.library)
    table = engine.load_table(args.table, library)
    oracle = props.load_oracle(args.oracle, library)
    query = parse_query_file(args.query, table)
    retrieved = engine.search_topk_stream(library, table, query)
    # the oracle order is total, so every top-j is a prefix of the largest one
    truth = evalkit.oracle_topk(library, oracle, query, max(js))
    sat = evalkit.satisfaction_rate(retrieved, oracle, library, query.constraints, seed=args.seed)
    lines = ["j\trecall\tsatisfaction_rate\tbase_rate"]
    for j in js:
        recall = evalkit.recall_j_at_k(truth.top(j), retrieved)
        recall_s = "NA" if recall is None else f"{recall:.6f}"
        lines.append(f"{j}\t{recall_s}\t{sat['rate']:.6f}\t{sat['base_rate']:.6f}")
    return _write_report(args.out, lines)


def cmd_compare_ts(args) -> int:
    budgets = tuple(_int_list("--budgets", args.budgets))
    library = csl.load_library(args.library)
    table = engine.load_table(args.table, library)
    oracle = props.load_oracle(args.oracle, library)
    seeds = tuple(range(args.seed, args.seed + args.n_seeds))
    rows = evalkit.compare_apex_vs_ts(
        library, oracle, table, args.objective, args.direction,
        budgets=budgets, seeds=seeds,
    )
    lines = ["reaction_id\titerations\ttotal_evals\tj\tapex_recall\tts_recall_median\tseeds"]
    for row in rows:
        lines.append(
            f"{row['reaction_id']}\t{row['iterations']}\t{row['total_evals']}\t{row['j']}\t"
            f"{row['apex_recall']:.6f}\t{row['ts_recall_median']:.6f}\t"
            + ",".join(map(str, row["seeds"]))
        )
    return _write_report(args.out, lines)


def cmd_cost(args) -> int:
    library = csl.load_library(args.library)
    estimate = engine.cost_estimate(library.layout, len(library.synthons), args.d, args.k)
    print(json.dumps(estimate, indent=1, sort_keys=True))
    return 0


@functools.cache  # once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apexcsl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic library (or downsample an existing one)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reactions", type=int, default=4)
    p.add_argument("--components", default="2,3", help="cycled per reaction, e.g. 2,3")
    p.add_argument("--synthons", type=int, default=8, help="synthons per R-group")
    p.add_argument("--share-rate", type=float, default=0.0)
    p.add_argument("--downsample", type=float, default=None, help="per-reaction product fraction")
    p.add_argument("--from-library", default=None, help="downsample this library instead of generating")

    p = sub.add_parser("label", help="build or load an oracle and write a labeled dataset")
    p.add_argument("--library", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-kind", choices=["default", "additive"], default="default")
    p.add_argument("--oracle-in", default=None)
    p.add_argument("--oracle-out", default=None)
    p.add_argument("--latent-kind", choices=["feature_linear", "random"], default="feature_linear")
    p.add_argument("--hardness", type=float, default=1.0)
    p.add_argument("--tasks", default=None, help="comma-separated; default: all oracle tasks")
    p.add_argument("--sample-size", type=int, default=None, help="default: full enumeration")
    _add_feature_args(p)

    p = sub.add_parser("train-surrogate")
    p.add_argument("--library", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=256,
                   help="products per batch, each with all of its training labels")
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--sigma", type=float, default=None, help="embedding noise std; default 0.1*RMS")
    p.add_argument("--encoder", choices=["mlp", "linear"], default="mlp")
    p.add_argument("--embedding-dim", type=int, default=sg.DEFAULT_EMBEDDING_DIM)
    _add_feature_args(p)

    p = sub.add_parser("train-factorizer")
    p.add_argument("--library", required=True)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--mode", choices=fz.MODES, default="mlp")
    p.add_argument("--d-u", type=int, default=32)
    p.add_argument("--gap-sample", type=int, default=1000)

    p = sub.add_parser("precompute")
    p.add_argument("--library", required=True)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--factorizer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-out", default=None, help="also export the hierarchy cache")

    p = sub.add_parser("search")
    p.add_argument("--library", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=["stream", "batched"], default="stream")
    p.add_argument("--assemble", action="store_true", help="add assembled token strings")

    p = sub.add_parser("evaluate")
    p.add_argument("--library", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--j", default="10,100,1000")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("compare-ts")
    p.add_argument("--library", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--objective", required=True)
    p.add_argument("--direction", choices=["maximize", "minimize"], default="maximize")
    p.add_argument("--budgets", default="100,1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-seeds", type=int, default=20)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cost")
    p.add_argument("--library", required=True)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--k", type=int, default=10000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # built per call, not bound into the cached parser, so a cmd_* rebound since is the one run
    command = {
        "generate": cmd_generate, "label": cmd_label, "train-surrogate": cmd_train_surrogate,
        "train-factorizer": cmd_train_factorizer, "precompute": cmd_precompute, "search": cmd_search,
        "evaluate": cmd_evaluate, "compare-ts": cmd_compare_ts, "cost": cmd_cost,
    }[args.command]
    try:
        return command(args)
    except (CliError, OSError, json.JSONDecodeError, blobio.BlobError,
            csl.LibraryError, props.OracleError, sg.SurrogateError,
            fz.FactorizerError, engine.EngineError, evalkit.EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
