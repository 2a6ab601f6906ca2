"""Ground-truth evaluation: exhaustive oracle top-k, recall and satisfaction
metrics, and a Thompson sampling baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csl import CslLibrary, product_count
from .engine import (
    Constraint,
    ContributionTable,
    QuerySpec,
    TopKResult,
    index_span,
    scan_topk,
    search_topk_stream,
    violation,
)
from .props import GroundTruthOracle, ground_truth, oracle_block_values, oracle_values

ORACLE_ENUMERATION_GUARD = 10**8
BASE_RATE_SAMPLE = 10000  # products sampled for a constraint set's base rate
COMPARE_J_VALUES = (10, 100)  # the true top-j sets compare_apex_vs_ts scores recall on
COMPARE_REACTIONS = 5  # compare_apex_vs_ts runs on this many of the largest reactions


class EvalError(RuntimeError):
    pass


@dataclass
class OracleTopK:
    """True top-j feasible set under exhaustive oracle evaluation, best first,
    one array per column."""

    global_index: np.ndarray  # int64
    objective: np.ndarray     # oracle objective value
    query: QuerySpec
    j: int

    def global_indices(self) -> set[int]:
        return set(self.global_index.tolist())

    def top(self, j: int) -> OracleTopK:
        """The true top-j for j <= self.j: a prefix, because the order is total."""
        return OracleTopK(self.global_index[:j], self.objective[:j], self.query, j)


class _OracleView:
    """One reaction's oracle values for the query's tasks, the objective first,
    read the way `engine.scan_topk` reads a view."""

    def __init__(self, oracle: GroundTruthOracle, library: CslLibrary, reaction_pos: int, tasks: list[str]):
        self.oracle, self.library, self.reaction_pos, self.tasks = oracle, library, reaction_pos, tasks

    def block_values(self, task_pos: int, first_digits: np.ndarray) -> np.ndarray:
        return oracle_block_values(self.oracle, self.library, self.tasks[task_pos], self.reaction_pos, first_digits)

    def values_at(self, task_pos: int, first_digits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        blocks, row = np.unique(first_digits, return_inverse=True)
        return self.block_values(task_pos, blocks)[row, offsets]


def oracle_topk(
    library: CslLibrary,
    oracle: GroundTruthOracle,
    query: QuerySpec,
    j: int,
    index_range: tuple[int, int] | None = None,
) -> OracleTopK:
    """Exhaustive scan of oracle values with the engine's tie-break (lower
    global index wins); only oracle-feasible compounds are eligible.

    The engine's scan scores every block's oracle keys (violation, signed
    objective) into a top-j buffer. Every feasible key ranks above every
    violating one, so the feasible keys are a prefix of the kept ones, ordered
    by signed objective descending, then lower global index.
    """
    start, end = index_span(library.layout, index_range)
    if end - start > ORACLE_ENUMERATION_GUARD:
        raise EvalError(
            f"range of {end - start} products exceeds the exhaustive-evaluation guard "
            f"({ORACLE_ENUMERATION_GUARD}); downsample the library first"
        )
    c, s, g, _, _ = scan_topk(library.layout, lambda t: _OracleView(oracle, library, t, query.tasks), query, j,
                              (start, end))
    n = np.count_nonzero(c >= 0.0)
    return OracleTopK(g[:n], s[:n] if query.direction == "maximize" else -s[:n], query, j)


def recall_j_at_k(truth: OracleTopK, retrieved: TopKResult) -> float | None:
    """|truth ∩ retrieved| / |truth| over multi-index identity; None if truth is empty."""
    if not len(truth.global_index):
        return None
    truth_idx = truth.global_indices()
    got = set(retrieved.global_index.tolist())
    return len(truth_idx & got) / len(truth_idx)


def satisfaction_rate(
    retrieved: TopKResult,
    oracle: GroundTruthOracle,
    library: CslLibrary,
    constraints: tuple[Constraint, ...],
    seed: int = 0,
) -> dict[str, float]:
    """Fraction of retrieved compounds whose *oracle* values satisfy all bounds,
    plus the library base rate estimated on a seeded uniform sample of
    BASE_RATE_SAMPLE products."""
    def satisfied(gidx: np.ndarray) -> np.ndarray:
        vals = [oracle_values(oracle, library, con.task, gidx) for con in constraints]
        return np.asarray(violation(vals, constraints)) == 0.0

    if not constraints or not retrieved.retained:
        rate = 1.0  # no constraints to violate (or nothing retrieved)
    else:
        rate = int(satisfied(retrieved.global_index).sum()) / retrieved.retained

    total = product_count(library)
    rng = np.random.default_rng(seed)
    n = min(BASE_RATE_SAMPLE, total)
    if constraints and n > 0:
        gidxs = rng.choice(total, size=n, replace=False) if total <= 10**7 else rng.integers(0, total, size=n)
        base = int(satisfied(gidxs).sum()) / n
    else:
        base = 1.0
    return {"rate": rate, "base_rate": base}


# ---------------------------------------------------------------------------
# Thompson sampling baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TsConfig:
    warmup: int = 3              # warmup evaluations per synthon
    iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 1 or self.iterations < 1:
            raise EvalError(f"warmup and iterations must be >= 1, got {self.warmup} and {self.iterations}")


def default_warmup(n_components: int) -> int:
    """3 warmup steps for two-component reactions, 10 for three-component ones."""
    return 3 if n_components == 2 else 10


@dataclass
class TsResult:
    evaluated: list[tuple[int, float]]      # (global index, oracle objective value)
    best_trajectory: list[float]            # running best objective after each evaluation
    oracle_calls: int

    def evaluated_indices(self) -> set[int]:
        return {g for g, _ in self.evaluated}


def thompson_sampling(
    library: CslLibrary,
    oracle: GroundTruthOracle,
    objective: str,
    direction: str,
    config: TsConfig,
    reaction_id: int,
) -> TsResult:
    """Gaussian-arm Thompson sampling over one reaction's synthons.

    Independent normal arms per synthon, each with an N(0, 1) prior and unit
    observation variance, with additive reward decomposition:
    every evaluated compound's (sign-adjusted) value updates the posteriors of
    all its constituent synthons. Warmup evaluates each synthon `warmup` times
    in uniformly random completions, all in one `oracle_values` call, then
    updates the posteriors a product at a time; each iteration assembles the
    per-R-group argmax of posterior samples. Total evaluations are exactly
    |S_reaction| * warmup + iterations.
    """
    members = [rg.synthon_ids for rg in library.reaction(reaction_id).rgroups]  # per R-group, synthon id per digit
    rng = np.random.default_rng(config.seed)
    sign = 1.0 if direction == "maximize" else -1.0

    arms = {s: (0.0, 1.0) for ids in members for s in ids}  # synthon -> (posterior mean, precision)
    chosen: list[list[int]] = []  # the digits of each evaluated product
    values: list[float] = []
    best_traj: list[float] = []
    best = -np.inf

    def encode(digits: list[list[int]]) -> np.ndarray:
        return library.layout.encode(np.full(len(digits), reaction_id), np.asarray(digits, dtype=np.int64))

    def update(digits: list[int], value: float) -> None:
        nonlocal best
        reward = sign * value
        chosen.append(digits)
        values.append(value)
        best = max(best, reward)
        best_traj.append(sign * best)
        for ids, d in zip(members, digits):
            mean, prec = arms[ids[d]]
            arms[ids[d]] = ((mean * prec + reward) / (prec + 1.0), prec + 1.0)

    # warmup: each synthon of each R-group, `warmup` times, random completions;
    # no draw depends on a value, so the products are evaluated in one call
    warm = [[d if j == focus else int(rng.integers(0, len(ids))) for j, ids in enumerate(members)]
            for focus, focus_ids in enumerate(members) for d in range(len(focus_ids)) for _ in range(config.warmup)]
    for digits, value in zip(warm, oracle_values(oracle, library, objective, encode(warm)).tolist()):
        update(digits, value)

    for _ in range(config.iterations):
        digits = [
            int(np.argmax([arms[s][0] + rng.standard_normal() / np.sqrt(arms[s][1]) for s in ids]))
            for ids in members
        ]
        update(digits, ground_truth(oracle, objective, [ids[d] for ids, d in zip(members, digits)]))

    gidx = encode(chosen)
    return TsResult(evaluated=list(zip(gidx.tolist(), values)), best_trajectory=best_traj, oracle_calls=len(values))


def reaction_synthon_count(library: CslLibrary, reaction_id: int) -> int:
    return sum(len(rg.synthon_ids) for rg in library.reaction(reaction_id).rgroups)


def compare_apex_vs_ts(
    library: CslLibrary,
    oracle: GroundTruthOracle,
    table: ContributionTable,
    objective: str,
    direction: str,
    budgets: tuple[int, ...] = (100, 1000, 10000),
    seeds: tuple[int, ...] = tuple(range(20)),
) -> list[dict]:
    """Per (reaction, TS iteration budget, j): APEX recall at k = total TS
    evaluations vs the TS recall over its evaluated set, within the reaction;
    over the COMPARE_REACTIONS largest reactions and j in COMPARE_J_VALUES."""
    if not seeds:
        raise EvalError("compare_apex_vs_ts needs at least one seed")
    order = sorted(
        range(len(library.reactions)),
        key=lambda t: (-library.reaction_size(t), t),
    )[:COMPARE_REACTIONS]
    rows: list[dict] = []
    for t in order:
        rx = library.reaction(t)
        start = library.reaction_offset(t)
        end = start + library.reaction_size(t)
        w = default_warmup(len(rx.rgroups))
        n_syn = reaction_synthon_count(library, t)
        # the oracle order is total, so every top-j is a prefix of the largest one
        j_max = max(COMPARE_J_VALUES)
        truth_max = oracle_topk(library, oracle, QuerySpec(objective=objective, direction=direction, k=j_max),
                                j_max, index_range=(start, end))
        for iters in budgets:
            total_evals = n_syn * w + iters
            query = QuerySpec(objective=objective, direction=direction, k=total_evals)
            apex = search_topk_stream(library, table, query, index_range=(start, end))
            apex_idx = set(apex.global_index.tolist())
            ts_runs = [
                thompson_sampling(
                    library, oracle, objective, direction,
                    TsConfig(warmup=w, iterations=iters, seed=seed),
                    reaction_id=t,
                )
                for seed in seeds
            ]
            for j in COMPARE_J_VALUES:
                truth_idx = truth_max.top(j).global_indices()
                if not truth_idx:
                    continue
                apex_recall = len(truth_idx & apex_idx) / len(truth_idx)
                ts_recalls = [
                    len(truth_idx & run.evaluated_indices()) / len(truth_idx) for run in ts_runs
                ]
                rows.append(
                    {
                        "reaction_id": t,
                        "iterations": iters,
                        "total_evals": total_evals,
                        "j": j,
                        "apex_recall": apex_recall,
                        "ts_recalls": ts_recalls,
                        "ts_recall_median": float(np.median(ts_recalls)),
                        "seeds": list(seeds),
                    }
                )
    return rows
