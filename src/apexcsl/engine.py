"""Precomputed per-pair score contributions and exact constrained top-k.

Every task prediction is a bias plus one scalar contribution per (R-group,
synthon) pair, so scoring a product is a handful of adds. The library is
scanned in blocks: a block is one (reaction, first-R-group digit) slab of
contiguous global indices; a scan covers whole reactions, so no block is cut
by the range it scans. One loop, `_scan`, walks the blocks; the two scan
variants differ only in the bounds they give it, and are required (and tested)
to produce identical results.

`search_topk_batched` gives no bounds, so every block is scored, in index
order, and nothing is sorted; it is the exhaustive reference.
`search_topk_stream` scores only the blocks that can still contribute,
following the threshold algorithm of Fagin, Lotem & Naor (PODS 2001):

* Bound. For every block it computes an upper bound on the selection key
  (violation, signed objective). Each task's value is bounded below and above
  by adding the later R-groups' float64 minimum or maximum to the first
  digit's contribution, then the bias, in the same order `block_values` adds
  them. The violation bound applies `violation`'s hinge steps to each
  constraint's [lower, upper] value range: the lower-bound hinge at the
  largest value, the upper-bound hinge at the smallest.
* Soundness. IEEE addition and subtraction round monotonically, and
  `max(0, .)` is monotone, so every product's computed key is at most its
  block's bound, bit for bit. Tables with a non-finite value or bias are
  rejected, so no NaN can void the comparisons.
* Order and early stop. Blocks are visited best bound first (ties by
  reaction, then digit). The visit stops at the first block whose bound is
  strictly below the current k-th key; every later block's bound is no
  better, and no product in it can enter the top-k. A block whose bound
  equals the k-th key is still scored, because a tied key can win on a lower
  global index.
* Groups. Blocks are scored a group at a time, one numpy pass per reaction
  in the group, and one rule sizes every group: take the next `width` blocks
  in visit order whose bound is not below the k-th key (one at first). Once
  the buffer holds k keys, the stream gathers row ranges (see Ranges): it
  first cuts those blocks to GROUP_PRODUCTS block rows, and a block costs
  the products its ranges hold; before that a block costs its products. A
  reaction's part of the group whose ranges hold more than half its products
  is scored whole, and costs its products: gathering most of a block costs
  more than scoring it. The group keeps the leading blocks whose costs sum to
  at most GROUP_PRODUCTS, and at least one (a larger block is scored whole),
  so that few products are scored past the stop point; the next `width` is
  twice the blocks it kept.
* Ranges. A block row fixes the digits of every R-group but the last; its
  products' values of a task are v = fl(fl(h + x) + b), h the row's sum of
  the earlier R-groups, x the last R-group's contribution, b the bias. IEEE
  rounding is monotone, so v never falls as x rises, and the products of a
  row whose v can lie in [lower + tc, upper - tc] are a range of the last
  R-group sorted ascending. A product's key reaches the k-th key (tc, ts)
  only inside such bounds. While tc < 0 each constraint gives one:
  `violation` subtracts non-negative hinge terms d from 0.0, so its running
  value c never rises, and fl(c - d) <= -d while c <= 0; a computed
  violation of at least tc needs every term d <= -tc, so
  lower - v <= -tc + 2u|tc| at a lower bound and v - upper <= -tc + 2u|tc|
  at an upper one, u = 2^-53. Once tc = 0 the objective gives one: a product
  can enter only with sv >= ts (s = -1 to minimize), so v >= ts, or
  v <= -ts, with slack tc = 0. `_ReactionView.row_ranges` sorts each
  bound's task once per search, and finds every row's ends
  x >= lower + tc - b - h - m and x <= upper - tc - b - h + m with one
  `searchsorted` each (an infinite end is the row's end; the roundings are
  monotone, so the ends never cross). Each rounding moves a sum by at most u
  of its magnitude: v lies within 3u(|h| + |x| + |b|) of h + x + b, and the
  threshold's four roundings move it by at most
  4u(|h| + |b| + |tc| + |bound|). The margin
  m = 2^-48 (A + |b| + |tc| + |bound|) + 2^-1022, A the sum of the R-groups'
  largest contributions in magnitude (so |h| + |x| <= A, to within a few
  u), is more than these and 2u|tc| together (2^-1022 covers a margin that
  underflows), so every product that can reach the k-th key is in its row's
  range. Each row gathers the narrowest range of the candidate bounds: each
  constraint's while tc < 0, the objective's alone once tc = 0. The sums are
  Python floats, so one that overflows gives an infinite end;
  `validate_tasks` keeps |bound| + |b| finite, so an infinite end only
  widens a range.
* Gathers. `_range_keys` is the one gather: each row's range starts
  anywhere in one task's sorted order, and it sums each task at every
  product there: the row sum (`row_sums`, from which `h` and `block_values`
  are built too), plus the last R-group's contribution, then the bias, the
  additions `block_values` makes. The batched scan, `evalkit.oracle_topk`
  (whose values are not separable), every group scored before the buffer
  holds k keys and every part scored whole score every product of their
  blocks (`_group_keys`).
* Selection. `_TopKBuffer` is the one filter: the keys the scorers give are
  offered to it, it drops those that do not beat the k-th key (a tie on
  violation and signed objective wins on a lower global index), keeps the
  rest pending, and compacts to the best k once k are pending. The k-th key
  decides only which blocks are visited and which products of a row are
  gathered.

Both variants and `evalkit.oracle_topk` get their top k from `scan_topk`,
which runs that loop into that one buffer. The buffer finds the best-k set by
partition in linear time (violation, then signed objective among its ties,
then the lowest global indices), and sorts only the survivors, once, to hand
them over in key order.
The result is columnar: predicted violators are dropped with a mask, every hit
is decoded in one pass (`PairLayout.decode`), and each constraint's value is
gathered from the table by pair row and summed from 0.0, R-groups in
declaration order, then the bias. A kept hit's violation is +0.0 (`violation`
subtracts non-negative hinge terms from 0.0, and only c >= 0.0 is kept), so the
result has no violation column and the hit file writes the constant `0.0`.

Reproducibility contract: contributions are stored as 4-byte floats and
accumulated in 8-byte floats in R-group declaration order, and ties are broken
by lower global index, so retrievals are total-ordered and bit-stable across
variants.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .blobio import check_arrays, load_meta_blob, save_blob
from .csl import CslLibrary, PairLayout, assembled_text, format_rows, gather_sum, id_text
from .factorizer import HierarchyCache
from .props import repeated_name
from .surrogate import SurrogateModel

TABLE_VERSION = 1
GROUP_PRODUCTS = 1 << 15  # a group's cost: products scored or gathered, and block rows searched


class EngineError(RuntimeError):
    pass


@dataclass
class ContributionTable:
    values: np.ndarray        # float32, (n_tasks, n_pairs), pair-row order
    biases: np.ndarray        # float64, (n_tasks,)
    task_names: list[str]
    # the pair-row layout the table was built with, as csl.PairLayout holds it
    member_ids: np.ndarray
    rg_offsets: np.ndarray
    rg_ids: np.ndarray
    fingerprint: str          # library the table was built from

    def __post_init__(self):
        n_pairs = self.rg_offsets[-1] if len(self.rg_offsets) else 0
        if (
            np.shape(self.values) != (len(self.task_names), n_pairs)
            or np.shape(self.biases) != (len(self.task_names),)
            or len(self.member_ids) != n_pairs
            or len(self.rg_offsets) != len(self.rg_ids) + 1
        ):
            raise EngineError(
                f"contribution table shapes do not agree: values {np.shape(self.values)}, biases "
                f"{np.shape(self.biases)}, {len(self.task_names)} tasks, {len(self.member_ids)} "
                f"member ids, {len(self.rg_offsets)} offsets for {len(self.rg_ids)} R-groups"
            )
        if not (np.isfinite(self.values).all() and np.isfinite(self.biases).all()):
            raise EngineError("contribution table has a non-finite value or bias")
        repeated = repeated_name(self.task_names)
        if repeated is not None:
            raise EngineError(f"contribution table lists task {repeated!r} more than once")

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_pairs(self) -> int:
        return self.values.shape[1]

    def task_index(self, name: str) -> int:
        try:
            return self.task_names.index(name)
        except ValueError:
            raise EngineError(f"unknown task {name!r}") from None

    def check_library(self, library: CslLibrary) -> None:
        """The table must come from this library and share its pair-row layout."""
        if library.fingerprint != self.fingerprint:
            raise EngineError("library fingerprint does not match the contribution table")
        if not library.layout.matches(self.member_ids, self.rg_offsets, self.rg_ids):
            raise EngineError("contribution table's pair rows are not laid out as the library's")


def precompute_flops_per_task(n_pairs: int, d: int) -> int:
    # one dot product per pair: d multiplies + d-1 adds
    return 2 * n_pairs * d - n_pairs


def precompute_contributions(cache: HierarchyCache, surrogate: SurrogateModel) -> ContributionTable:
    """Dot each task head with every cached associative embedding."""
    if surrogate.feature_config != cache.feature_config:
        raise EngineError("the surrogate and the factorizer use different feature configs")
    if surrogate.head_w.shape[1] != cache.u.shape[1]:
        raise EngineError(f"the surrogate's embeddings are {surrogate.head_w.shape[1]} wide, "
                          f"the factorizer's {cache.u.shape[1]}")
    values = (surrogate.head_w @ cache.u.T).astype(np.float32)
    return ContributionTable(
        values=values,
        biases=surrogate.head_b.astype(np.float64).copy(),
        task_names=list(surrogate.task_names),
        member_ids=cache.layout.member_ids,
        rg_offsets=cache.layout.rg_offsets,
        rg_ids=cache.layout.rg_ids,
        fingerprint=cache.fingerprint,
    )


@dataclass(frozen=True)
class Constraint:
    task: str
    lower: float = float("-inf")
    upper: float = float("inf")

    def __post_init__(self):
        if not self.lower < self.upper:
            raise EngineError(f"constraint bounds must satisfy lower < upper: {self}")


@dataclass(frozen=True)
class QuerySpec:
    objective: str
    direction: str  # "maximize" or "minimize"
    constraints: tuple[Constraint, ...] = ()
    k: int = 10

    def __post_init__(self):
        if self.direction not in ("maximize", "minimize"):
            raise EngineError(f"direction must be maximize or minimize, got {self.direction!r}")
        if self.k < 0:
            raise EngineError("k must be >= 0")

    @property
    def tasks(self) -> list[str]:
        """The objective's task, then each constraint's, in constraint order."""
        return [self.objective] + [c.task for c in self.constraints]

    def validate_tasks(self, table: ContributionTable) -> None:
        """Every task must be in the table, and no violation may overflow: the
        sum, over the finite bounds in `violation`'s order, of |bound| plus the
        largest |value| of the bound's task must be finite. That largest value
        is the R-groups' largest |contribution| summed from 0.0 in R-group
        order, then |bias|: the scan adds terms no larger in that order, and
        rounding is monotone. The table does not say which R-groups share a
        reaction, so every R-group is summed, which no reaction's sum exceeds."""
        for name in self.tasks:
            table.task_index(name)
        total = 0.0
        with np.errstate(over="ignore"):
            for con in self.constraints:
                t = table.task_index(con.task)
                largest = np.maximum.reduceat(np.abs(table.values[t].astype(np.float64)), table.rg_offsets[:-1])
                worst = np.cumsum(np.append(0.0, largest))[-1] + abs(table.biases[t])
                for bound in (con.lower, con.upper):
                    if math.isfinite(bound):
                        total = total + (abs(bound) + worst)
        if not np.isfinite(total):
            raise EngineError("constraint bounds are so large that a violation can overflow")


def violation(values, constraints: tuple[Constraint, ...]):
    """Non-positive hinge penalty; zero iff every value is inside its closed interval.

    `values` holds one predicted value per constraint, in constraint order:
    scalars, or aligned arrays, of which it gives one value per product (0.0
    with no constraints). The hinge step of an infinite bound is skipped: on a
    finite value it subtracts max(0.0, -inf) = +0.0, and c - 0.0 == c. Table
    values are finite (float32 contributions summed with a finite bias, far
    below the float64 range), and so are oracle values
    (`GroundTruthOracle.check_library`).
    """
    c = np.zeros(np.shape(values[0])) if constraints else 0.0
    for v, con in zip(values, constraints):
        if con.lower > -math.inf:
            c -= np.maximum(0.0, con.lower - v)
        if con.upper < math.inf:
            c -= np.maximum(0.0, v - con.upper)
    return c


@dataclass
class TopKResult:
    """The retained hits, best first, one array per column."""

    global_index: np.ndarray       # int64
    objective: np.ndarray          # raw value in the user's direction convention
    constraint_values: np.ndarray  # (n constraints, n hits), in constraint order
    reaction_pos: np.ndarray       # positional reaction index
    pair_rows: np.ndarray          # (n hits, R-group positions), as PairLayout.pair_rows gives them
    scanned: int                   # products covered by the index range
    discarded_for_violation: int
    timing: dict[str, float]
    scored: int = 0                # products of the blocks the scan reached

    @property
    def retained(self) -> int:
        return len(self.global_index)


# ---------------------------------------------------------------------------
# vectorized block scoring and the scan
# ---------------------------------------------------------------------------

def _margin(*terms: float) -> float:
    """A range threshold's rounding margin over the magnitudes of its terms
    (see the module notes); it is +inf where their sum overflows."""
    return 2.0 ** -48 * sum(map(abs, terms)) + 2.0 ** -1022


class _ReactionView:
    """Per-reaction float64 digit-contribution arrays for the needed tasks."""

    def __init__(self, table: ContributionTable, layout: PairLayout, reaction_pos: int, tasks: list[str]):
        rows = layout.reaction_rows(reaction_pos)
        self.per_task = [
            [table.values[table.task_index(name), r].astype(np.float64) for r in rows] for name in tasks
        ]
        self.biases = [float(table.biases[table.task_index(name)]) for name in tasks]
        # each task's last R-group sorted ascending, at its first `row_ranges`: the digits, one row
        # per task, and by task position the sorted contributions and the R-groups' largest sum
        self.last_order = np.empty((len(tasks), len(self.per_task[0][-1])), dtype=np.int64)
        self.sorted_last = {}

    def row_sums(self, task_pos: int, first_digits: np.ndarray) -> np.ndarray:
        """Over blocks, one row per first digit: each block row's task sum of
        every R-group but the last, added in R-group order."""
        arrs = self.per_task[task_pos]
        h = arrs[0][first_digits][:, None]
        for a in arrs[1:-1]:
            h = (h[..., None] + a).reshape(len(first_digits), -1)
        return h

    def block_values(self, task_pos: int, first_digits: np.ndarray) -> np.ndarray:
        """Float64 task values over blocks, one row per first digit: each row
        sum plus the last R-group's contribution, then the bias."""
        val = (self.row_sums(task_pos, first_digits)[..., None] + self.per_task[task_pos][-1])
        val = val.reshape(len(first_digits), -1)
        val += self.biases[task_pos]
        return val

    def row_ranges(self, first_digits: np.ndarray, query: QuerySpec, kth: tuple[float, float, int]):
        """Over blocks, one row per first digit: the row sums of the tasks
        searched (by task position), where each row's range starts in
        `last_order`'s rows laid end to end, and its length. The range holds
        every product of the row whose key can reach `kth`: the narrowest range
        of the candidate bounds, each constraint's while `kth` is infeasible,
        else the objective's (see the module notes)."""
        tc, ts, _ = kth
        if tc < 0.0:
            bounds = [(i, float(con.lower), float(con.upper)) for i, con in enumerate(query.constraints, 1)]
        else:  # sv >= ts: v >= ts to maximize, v <= -ts to minimize, with slack 0
            bounds = [(0, ts, math.inf) if query.direction == "maximize" else (0, -math.inf, -ts)]
        n, h, counts = len(self.per_task[0][-1]), {}, None
        for i, lower, upper in bounds:
            if i not in self.sorted_last:  # a range never splits equal contributions, so any sort will do
                last = self.per_task[i][-1]
                self.last_order[i] = o = last.argsort()
                self.sorted_last[i] = last[o], sum(float(np.abs(a).max()) for a in self.per_task[i])
            keys, magnitude = self.sorted_last[i]
            b, h[i] = self.biases[i], self.row_sums(i, first_digits)
            # Python floats: a sum that overflows becomes an infinite threshold, which widens the range
            lo = (np.searchsorted(keys, lower - b + tc - _margin(magnitude, b, tc, lower) - h[i])
                  if lower > -math.inf else np.zeros(h[i].shape, dtype=np.int64))
            hi = (np.searchsorted(keys, upper - b - tc + _margin(magnitude, b, tc, upper) - h[i], side="right")
                  if upper < math.inf else n)
            # lower < upper and rounding is monotone, so lo <= hi
            count, start = hi - lo, i * n + lo
            if counts is not None:
                narrower = count < counts
                count, start = np.where(narrower, count, counts), np.where(narrower, start, starts)
            counts, starts = count, start
        return h, starts, counts

    def value_bounds(self, task_pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Per first digit, the least and the greatest value `block_values` can
        return: the later R-groups' extremes added in the same order."""
        arrs = self.per_task[task_pos]
        lo = hi = arrs[0]
        for a in arrs[1:]:
            lo = lo + a.min()
            hi = hi + a.max()
        return lo + self.biases[task_pos], hi + self.biases[task_pos]


def _group_keys(view, query: QuerySpec, digit: np.ndarray, g0: np.ndarray):
    """(violation, signed objective, global index) keys of every product of
    one reaction's blocks."""
    s = view.block_values(0, digit)
    if query.direction == "minimize":
        np.negative(s, out=s)
    g = (g0[:, None] + np.arange(s.shape[1])).reshape(-1)
    cons_vals = [view.block_values(1 + i, digit).reshape(-1) for i in range(len(query.constraints))]
    return np.broadcast_to(violation(cons_vals, query.constraints), len(g)), s.reshape(-1), g


def _range_keys(view: _ReactionView, query: QuerySpec, digit: np.ndarray, g0: np.ndarray,
                h: dict[int, np.ndarray], starts: np.ndarray, counts: np.ndarray):
    """(violation, signed objective, global index) keys of the products of one
    reaction's blocks in the ranges `row_ranges` found for them, or for them
    and the blocks after (`starts`, `counts`): each task's row sum (`h`,
    where it was searched) plus the last R-group's contribution, then the
    bias, as `block_values` adds them."""
    m, order, n_last = len(digit), view.last_order.reshape(-1), len(view.per_task[0][-1])
    n_rows, flat = counts.shape[1], counts[:m].reshape(-1)
    ends = np.cumsum(flat)
    row = np.repeat(np.arange(len(flat)), flat)
    last = order[np.arange(ends[-1]) - (ends - flat - starts[:m].reshape(-1))[row]]
    vals = []
    for i, arrs in enumerate(view.per_task):
        v = (h[i][:m] if i in h else view.row_sums(i, digit)).reshape(-1)[row] + arrs[-1][last]
        v += view.biases[i]
        vals.append(v)
    s, *cons_vals = vals
    if query.direction == "minimize":
        np.negative(s, out=s)
    g = g0[row // n_rows] + row % n_rows * n_last + last
    return np.broadcast_to(violation(cons_vals, query.constraints), len(g)), s, g


def _block_key_bounds(view: _ReactionView, query: QuerySpec) -> tuple[np.ndarray, np.ndarray]:
    """Per first digit, upper bounds on the block's (violation, signed objective) keys."""
    lo, hi = view.value_bounds(0)
    s_ub = hi if query.direction == "maximize" else -lo
    c_ub = np.zeros_like(s_ub)
    for i, con in enumerate(query.constraints):
        v_lo, v_hi = view.value_bounds(1 + i)
        # violation()'s steps, each hinge taken at the value that makes it smallest
        c_ub = c_ub - np.maximum(0.0, con.lower - v_hi)
        c_ub = c_ub - np.maximum(0.0, v_lo - con.upper)
    return c_ub, s_ub


class _TopKBuffer:
    """Exact top-k under the key (violation, signed objective, lower global index).

    Offered keys are filtered against the current k-th key and kept pending;
    once k are pending, the buffer is compacted back to the best k by
    partition, and the k-th key is raised. Only `kept` sorts, and only the
    survivors.
    """

    def __init__(self, k: int):
        self.k = k
        self.c, self.s, self.g = np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
        self.pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.n_pending = 0
        self.kth: tuple[float, float, int] | None = None

    def unbeaten(self, neg_c: list[float], neg_s: list[float]) -> int:
        """The number of leading bounds that are not strictly below the k-th
        key, of (violation, signed objective) bounds given negated and in
        ascending order."""
        if self.kth is None:
            return len(neg_c)
        tc, ts, _ = self.kth
        # the bounds above the k-th violation, then those equal to it whose objective bound is not below
        return bisect_right(neg_s, -ts, bisect_left(neg_c, -tc), bisect_right(neg_c, -tc))

    def offer(self, c: np.ndarray, s: np.ndarray, g: np.ndarray) -> None:
        """Add keys of products with global indices g, all new to the buffer."""
        if self.kth is not None:
            tc, ts, tg = self.kth
            # a key equal to the k-th on (c, s) wins only with a lower index
            keep = np.flatnonzero((c > tc) | ((c == tc) & ((s > ts) | ((s == ts) & (g < tg)))))
            c, s, g = c[keep], s[keep], g[keep]
        if len(g):
            self.pending.append((c, s, g))
            self.n_pending += len(g)
            if self.n_pending >= self.k:
                self.compact()

    def compact(self) -> None:
        """Keep the best k of the kept and pending keys, in no particular order;
        once k are kept, the worst of them is the k-th key."""
        if not self.pending:
            return
        c = np.concatenate([self.c] + [p[0] for p in self.pending])
        s = np.concatenate([self.s] + [p[1] for p in self.pending])
        g = np.concatenate([self.g] + [p[2] for p in self.pending])
        self.pending, self.n_pending = [], 0
        if 0 < self.k <= len(g):
            cand, parts, need = np.arange(len(g)), [], self.k
            # key by key: keep what beats the need-th largest (-0.0 equals 0.0), pass its ties on
            for key in (c, s, -g):
                x = key[cand]
                t = np.partition(x, len(x) - need)[len(x) - need]
                parts.append(cand[x > t])
                need -= len(parts[-1])
                cand = cand[x == t]
            # global indices are unique, so the one tie left is the k-th key
            (w,) = cand
            self.kth = (float(c[w]), float(s[w]), int(g[w]))
            keep = np.concatenate(parts + [cand])
            c, s, g = c[keep], s[keep], g[keep]
        self.c, self.s, self.g = c[: self.k], s[: self.k], g[: self.k]

    def kept(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The best k (violation, signed objective, global index) keys, in key order."""
        self.compact()
        order = np.lexsort((self.g, -self.s, -self.c))
        self.c, self.s, self.g = self.c[order], self.s[order], self.g[order]
        return self.c, self.s, self.g


def _constraint_values(table: ContributionTable, query: QuerySpec, rows: np.ndarray) -> np.ndarray:
    """Each constraint's value at every hit, from the hits' pair rows: the
    hit's contributions summed from 0.0, R-groups in declaration order, then
    the task bias."""
    tasks = [table.task_index(con.task) for con in query.constraints]
    return gather_sum(table.values[tasks].T, rows).T + table.biases[tasks, None]


def _scan(buf: _TopKBuffer, views, query: QuerySpec, blocks, bounds=None) -> int:
    """Score `PairLayout.blocks` rows into `buf`; return the products of the blocks it reached.

    Blocks are visited best (violation, signed objective) bound first, ties in
    index order, and scored in groups (see the module notes); the visit stops
    at the first block whose bound is strictly below the k-th key. `bounds`
    holds the two bounds per block; without them every block is scored, in
    index order. With them, once `buf` holds k keys, groups gather row
    ranges. `views` maps each reaction position to a view that gives the
    reaction's `block_values`, over many first digits at once, for the
    objective, then each constraint; those values are finite.
    """
    if buf.k == 0:
        return 0
    visit = np.stack(blocks)
    if bounds is None:
        neg_c = neg_s = [-np.inf] * visit.shape[1]
    else:  # blocks come in index order, and the sort is stable
        order = np.lexsort((-bounds[1], -bounds[0]))
        visit = visit[:, order]
        neg_c, neg_s = (-bounds[0][order]).tolist(), (-bounds[1][order]).tolist()
    i, width, scored, stop = 0, 1, 0, buf.unbeaten(neg_c, neg_s)
    while i < stop:
        group = visit[:, i:min(stop, i + width)]
        parts = [(t, group[0] == t) for t in np.unique(group[0]).tolist()]
        cost, ranges = group[3], {}
        if bounds is not None and buf.kth is not None:
            # at most GROUP_PRODUCTS block rows: a block's products over its last R-group's synthons
            rows = group[3].copy()
            for t, mine in parts:
                rows[mine] //= len(views[t].per_task[0][-1])
            group = group[:, : max(1, bisect_right(np.cumsum(rows).tolist(), GROUP_PRODUCTS))]
            cost = group[3].copy()
            for t, mine in parts:
                mine = mine[: len(cost)]
                if np.count_nonzero(mine):
                    found = views[t].row_ranges(group[1, mine], query, buf.kth)
                    gathered = found[2].sum(axis=1)
                    # ranges that hold more than half the reaction's products: score them whole
                    if 2 * int(gathered.sum()) <= int(cost[mine].sum()):
                        ranges[t], cost[mine] = found, gathered
        n = max(1, bisect_right(np.cumsum(cost).tolist(), GROUP_PRODUCTS))
        kept = group[:, :n]
        for t, mine in parts:
            if np.count_nonzero(mine[:n]):
                digit, g0 = kept[1:3, mine[:n]]
                if t in ranges:
                    buf.offer(*_range_keys(views[t], query, digit, g0, *ranges[t]))
                else:
                    buf.offer(*_group_keys(views[t], query, digit, g0))
        scored += int(kept[3].sum())
        i, width, stop = i + n, 2 * n, buf.unbeaten(neg_c, neg_s)
    return scored


def index_span(layout: PairLayout, index_range: tuple[int, int] | None) -> tuple[int, int]:
    """The reaction positions [first, stop) whose products are the [start, end)
    global indices a top-k covers: the whole library by default. EngineError
    unless the range starts and ends at reaction boundaries, in order."""
    offsets = layout.product_offsets.tolist()
    start, end = index_range if index_range is not None else (0, offsets[-1])
    first, stop = bisect_left(offsets, start), bisect_left(offsets, end)
    if not (start <= end and offsets[first : first + 1] == [start] and offsets[stop : stop + 1] == [end]):
        raise EngineError(f"index range [{start}, {end}) does not start and end at reaction boundaries")
    return first, stop


def scan_topk(layout: PairLayout, view_of, query: QuerySpec, k: int,
              index_range: tuple[int, int] | None = None, bounded: bool = False):
    """The best k (violation, signed objective, global index) keys over the
    index range, in key order, then the products scored and those in the range.
    `view_of(reaction position)` builds the view `_scan` reads, once for each
    reaction in the range; `bounded` needs `_ReactionView`s."""
    first, stop = index_span(layout, index_range)
    blocks = layout.blocks(first, stop)
    views = {t: view_of(t) for t in range(first, stop)}
    bounds = None
    if bounded and views:
        # the reactions' per-first-digit bounds laid end to end, as the blocks are
        bounds = [np.concatenate(b) for b in zip(*(_block_key_bounds(view, query) for view in views.values()))]
    buf = _TopKBuffer(k)
    scored = _scan(buf, views, query, blocks, bounds)
    c, s, g = buf.kept()
    return c, s, g, scored, int(layout.product_offsets[stop] - layout.product_offsets[first])


def _search(library: CslLibrary, table: ContributionTable, query: QuerySpec,
            index_range: tuple[int, int] | None, bounded: bool) -> TopKResult:
    """Check the table against the library and the query; scan the index
    range, with block bounds or without, and return the feasible best k. The
    scan's time ends once they are selected, before they are decoded."""
    table.check_library(library)
    query.validate_tasks(table)
    layout = library.layout
    t0 = time.perf_counter()
    c, s, g, scored, scanned = scan_topk(layout, lambda t: _ReactionView(table, layout, t, query.tasks), query,
                                         query.k, index_range, bounded)
    scan_time = time.perf_counter() - t0
    timing = {"scan_seconds": scan_time}
    if scan_time > 0:
        timing["products_per_second"] = scanned / scan_time
    feasible = c >= 0.0
    g = g[feasible]
    pos, digits = layout.decode(g)
    rows = layout.pair_rows(pos, digits)
    return TopKResult(
        global_index=g,
        objective=s[feasible] if query.direction == "maximize" else -s[feasible],
        constraint_values=_constraint_values(table, query, rows),
        reaction_pos=pos,
        pair_rows=rows,
        scanned=scanned,
        discarded_for_violation=len(c) - len(g),
        timing=timing,
        scored=scored,
    )


def search_topk_stream(
    library: CslLibrary,
    table: ContributionTable,
    query: QuerySpec,
    index_range: tuple[int, int] | None = None,
) -> TopKResult:
    """Best-first pass over the blocks of the index range, stopping at the first
    block whose key bound is strictly below the current k-th key.

    Selection is lexicographic on (violation, signed objective, lower global
    index); predicted violators are kept during the scan and filtered at the
    end, so fewer than k entries may be returned. `scanned` counts the
    products in the range, `scored` those of the blocks the scan reached.
    """
    return _search(library, table, query, index_range, bounded=True)


def search_topk_batched(
    library: CslLibrary,
    table: ContributionTable,
    query: QuerySpec,
    index_range: tuple[int, int] | None = None,
) -> TopKResult:
    """Exhaustive top-k: the same scan with no bounds, so every block of the
    index range is scored, in index order, and none is skipped."""
    return _search(library, table, query, index_range, bounded=False)


def cost_estimate(layout: PairLayout, n_synthons: int, d: int, k: int) -> dict[str, int]:
    """Closed-form accounting, reported under both the no-sharing assumption
    (one pair row per synthon) and the actual per-(R-group, synthon) row count."""
    if d < 1 or k < 0:
        raise EngineError(f"cost needs d >= 1 and k >= 0, got d={d}, k={k}")
    pairs_actual = layout.n_pairs
    # c contributions summed plus the bias: c adds per product, counted in Python ints
    sizes, n_rgroups = np.diff(layout.product_offsets).tolist(), layout.n_rgroups.tolist()
    return {
        "synthon_encoder_evals": n_synthons,
        "pair_rows_no_sharing": n_synthons,
        "pair_rows_actual": pairs_actual,
        "cache_bytes_no_sharing": n_synthons * d * 4,
        "cache_bytes_actual": pairs_actual * d * 4,
        "precompute_flops_per_task_no_sharing": precompute_flops_per_task(n_synthons, d),
        "precompute_flops_per_task_actual": precompute_flops_per_task(pairs_actual, d),
        "scoring_flops_total": sum(size * c for size, c in zip(sizes, n_rgroups)),
        "k": k,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _table_arrays(table: ContributionTable) -> dict[str, np.ndarray]:
    """A contribution table blob's arrays: the values and biases, then the pair-row layout."""
    return {"values": table.values, "biases": table.biases, "member_ids": table.member_ids,
            "rg_offsets": table.rg_offsets, "rg_ids": table.rg_ids}


def save_table(table: ContributionTable, path) -> None:
    meta = {
        "kind": "contribution_table",
        "version": TABLE_VERSION,
        "task_names": table.task_names,
        "fingerprint": table.fingerprint,
    }
    save_blob(path, meta, _table_arrays(table))


def read_table(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A table blob's meta and arrays, its kind, version and meta fields
    checked; `load_table` checks the arrays against a library."""
    return load_meta_blob(path, "contribution_table", TABLE_VERSION, EngineError, task_names=[str], fingerprint=str)


def load_table(path, library: CslLibrary, blob: tuple[dict, dict] | None = None) -> ContributionTable:
    """A table whose arrays have the dtypes and shapes of this library's pair
    rows, and whose fingerprint and layout are the library's
    (`check_library`), before any caller reads them. `blob` is the file's
    `read_table`, when it was read before the library."""
    meta, arrays = blob or read_table(path)
    n_tasks, layout = len(meta["task_names"]), library.layout
    empty = ContributionTable(np.zeros((n_tasks, layout.n_pairs), np.float32), np.zeros(n_tasks),
                              list(meta["task_names"]), layout.member_ids, layout.rg_offsets, layout.rg_ids,
                              meta["fingerprint"])
    check_arrays(path, arrays, _table_arrays(empty), EngineError)
    table = replace(empty, **arrays)
    table.check_library(library)
    return table


RESULT_HEADER_PREFIX = "rank\tglobal_index\treaction_id\tsynthon_ids\tobjective\tviolation"
RESULT_CHUNK_ROWS = 1 << 14


def save_result(result: TopKResult, query: QuerySpec, path, library: CslLibrary, assemble: bool = False) -> None:
    """UTF-8 text export, one hit per row; `assemble` adds an assembled token
    column. Each RESULT_CHUNK_ROWS rows, so that the strings held do not grow
    with k, are one `%` operation (`csl.format_rows`) over ints, floats and the
    id and token texts of `csl.id_text` and `csl.assembled_text`."""
    width = result.pair_rows.shape[1]
    fmt = "%d\t%d\t" + "%s" * width + "\t%r\t0.0" + "\t%r" * len(query.constraints)
    cols = RESULT_HEADER_PREFIX + "".join(f"\t{con.task}" for con in query.constraints)
    if assemble:
        fmt += "\t" + "%s" * (width + 1)
        cols += "\tassembled"
    fmt += "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cols + "\n")
        for lo in range(0, result.retained, RESULT_CHUNK_ROWS):
            hi = min(lo + RESULT_CHUNK_ROWS, result.retained)
            rows = result.pair_rows[lo:hi]
            columns = [range(lo, hi), result.global_index[lo:hi].tolist(), *id_text(library, rows).T.tolist(),
                       result.objective[lo:hi].tolist(), *(v[lo:hi].tolist() for v in result.constraint_values)]
            if assemble:
                columns += assembled_text(library, result.reaction_pos[lo:hi], rows).T.tolist()
            fh.write(format_rows(fmt, columns))
