"""Precomputed per-pair score contributions and exact constrained top-k.

Every task prediction is a bias plus one scalar contribution per (R-group,
synthon) pair, so scoring a product is a handful of adds. The library is
scanned in blocks: a block is one (reaction, first-R-group digit) slab of
contiguous global indices. One loop, `_scan`, walks the blocks; the two scan
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
  in the group: the next blocks in visit order whose bound is not below the
  k-th key, one at first, then up to twice the last group's count. Until the
  k-th key is feasible, a group holds at most GROUP_PRODUCTS products (a
  larger block is scored whole), so that few products are scored past the
  stop point. Once it is feasible, the stream's group cost follows the
  products it gathers (see Prefixes): a group holds at most GROUP_PRODUCTS
  block rows, and ends before the block at which the prefixes it gathers
  would pass GROUP_PRODUCTS products (its first block is gathered whole).
* Prefixes. A block row fixes the digits of every R-group but the last; its
  products' objective values are v = fl(fl(h + x) + b), h the row's sum of
  the earlier R-groups, x the last R-group's contribution, b the bias. IEEE
  rounding is monotone, so the signed value sv (s = -1 to minimize) never
  falls as sx rises, and the products of a row with sv >= ts, ts the k-th
  key's signed objective, are a prefix of the last R-group sorted by sx
  descending. `_ReactionView.row_prefixes` sorts it once per search and finds
  every row's prefix with one `searchsorted`: it counts the x with
  sx >= ts - s(h + b) - m. Each rounding moves a sum by at most u = 2^-53 of
  its magnitude: v lies within 3u(|h| + |x| + |b|) of h + x + b, and the
  threshold's own three roundings move it by at most 3u(|h| + |b| + |ts| + m).
  The margin m = 2^-48 (A + |b| + |ts|) + 2^-1022, A the sum of the
  R-groups' largest contributions in magnitude (so |h| + |x| <= A, to within
  a few u), is more than both together (2^-1022 covers a margin that
  underflows), so every product with sv >= ts is counted. `_prefix_keys`
  sums each counted product in `block_values`'s order, keeps it iff sv >= ts
  (a tie with the k-th key is kept: it wins on a lower global index), and
  then drops the offsets outside its block's [lo, hi) clip. The batched
  scan, `evalkit.oracle_topk` (whose values are not separable) and every
  group scored before the k-th key is feasible score every product of their
  blocks.
* Selection. A group is filtered against the k-th key as it began (once
  that key is feasible, constraints are evaluated only where the objective
  reaches it); the survivors are kept pending in `_TopKBuffer`, which
  compacts to the best k once k are pending.

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
from .csl import CslLibrary, PairLayout, assembled_text, fingerprint_matches, format_rows, gather_sum, id_text
from .factorizer import HierarchyCache
from .surrogate import SurrogateModel

TABLE_VERSION = 1
GROUP_PRODUCTS = 1 << 15  # products (or, gathering prefixes, rows and gathered products) of one group


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
        if not fingerprint_matches(library, self.fingerprint):
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
        for name in self.tasks:
            table.task_index(name)


def violation(values, constraints: tuple[Constraint, ...]):
    """Non-positive hinge penalty; zero iff every value is inside its closed interval.

    `values` holds one predicted value per constraint, in constraint order.
    Accepts scalars or aligned arrays (for vectorized block scans).
    """
    c = 0.0
    for v, con in zip(values, constraints):
        c = c - np.maximum(0.0, con.lower - v)
        c = c - np.maximum(0.0, v - con.upper)
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
    scored: int = 0                # products whose keys were computed

    @property
    def retained(self) -> int:
        return len(self.global_index)


# ---------------------------------------------------------------------------
# vectorized block scoring and the scan
# ---------------------------------------------------------------------------

class _ReactionView:
    """Per-reaction float64 digit-contribution arrays for the needed tasks."""

    def __init__(self, table: ContributionTable, layout: PairLayout, reaction_pos: int, tasks: list[str]):
        rows = layout.reaction_rows(reaction_pos)
        self.per_task = [
            [table.values[table.task_index(name), r].astype(np.float64) for r in rows] for name in tasks
        ]
        self.biases = [float(table.biases[table.task_index(name)]) for name in tasks]
        self._decoded = (None, [])  # the last offsets `values_at` read, and their later digits
        # the objective's last R-group in the search's signed order, sorted at the first `row_prefixes`
        self.last_order = None

    def block_values(self, task_pos: int, first_digits: np.ndarray) -> np.ndarray:
        """Float64 task values over blocks, one row per first digit, summed in R-group order."""
        arrs = self.per_task[task_pos]
        val = arrs[0][first_digits]
        for a in arrs[1:]:
            val = val[..., None] + a
        val = val.reshape(len(first_digits), -1)
        val += self.biases[task_pos]
        return val

    def values_at(self, task_pos: int, first_digits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """`block_values(task_pos, first_digits)[i, offsets[i]]` for every i,
        summed only at those offsets. The offsets are decoded into later digits
        once for the calls that pass the same offsets array, one per constraint."""
        arrs = self.per_task[task_pos]
        if self._decoded[0] is not offsets:
            digits, rem = [], offsets
            for a in reversed(arrs[1:]):
                rem, d = np.divmod(rem, len(a))
                digits.append(d)
            self._decoded = (offsets, digits[::-1])
        val = arrs[0][first_digits]
        for a, d in zip(arrs[1:], self._decoded[1]):
            val = val + a[d]
        return val + self.biases[task_pos]

    def row_prefixes(self, first_digits: np.ndarray, sign: float, ts: float) -> tuple[np.ndarray, np.ndarray]:
        """Over blocks, one row per first digit: each block row's objective sum
        `h` of every R-group but the last, and the length of the prefix of the
        last R-group's signed order that holds every product of the row whose
        signed objective is at least `ts` (see the module notes)."""
        arrs = self.per_task[0]
        if self.last_order is None:
            # the digits, the values and the ascending search keys of the signed
            # order; a prefix never splits equal keys, so any sort will do
            keys = arrs[-1] * -sign
            order = keys.argsort()
            self.last_order = (order, arrs[-1][order], keys[order], sum(float(np.abs(a).max()) for a in arrs))
        _, _, keys, magnitude = self.last_order
        h = arrs[0][first_digits][:, None]
        for a in arrs[1:-1]:
            h = (h[..., None] + a).reshape(len(first_digits), -1)
        bias = self.biases[0]
        c = sign * bias - ts + (2.0 ** -48 * (magnitude + abs(bias) + abs(ts)) + 2.0 ** -1022)
        return h, np.searchsorted(keys, h + c if sign > 0 else c - h, side="right")

    def value_bounds(self, task_pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Per first digit, the least and the greatest value `block_values` can
        return: the later R-groups' extremes added in the same order."""
        arrs = self.per_task[task_pos]
        lo = hi = arrs[0]
        for a in arrs[1:]:
            lo = lo + a.min()
            hi = hi + a.max()
        return lo + self.biases[task_pos], hi + self.biases[task_pos]


def _group_keys(view, query: QuerySpec, digit: np.ndarray, g0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                kth: tuple[float, float, int] | None = None):
    """(violation, signed objective, global index) keys of one reaction's
    blocks, each clipped to its [lo, hi) offsets: every product, or with `kth`,
    a subset that holds every product whose key may beat it.

    Once the k-th key is feasible, a winner must be feasible with a signed
    objective no lower than the k-th's, so constraints are evaluated only at the
    products that pass the objective test.
    """
    s = view.block_values(0, digit)
    if query.direction == "minimize":
        np.negative(s, out=s)
    cols = np.arange(s.shape[1])
    keep = (cols >= lo[:, None]) & (cols < hi[:, None]) if lo.any() or (hi < len(cols)).any() else None
    if kth is not None and kth[0] == 0.0:
        keep = s >= kth[1] if keep is None else keep & (s >= kth[1])
    n_cons = len(query.constraints)
    if keep is None:
        g, s = (g0[:, None] + cols).reshape(-1), s.reshape(-1)
        cons_vals = [view.block_values(1 + i, digit).reshape(-1) for i in range(n_cons)]
    else:
        at = np.flatnonzero(keep)
        row, offset = np.divmod(at, len(cols))
        g, s = g0[row] + offset, s.reshape(-1)[at]
        cons_vals = [view.values_at(1 + i, digit[row], offset) for i in range(n_cons)]
    c = violation(cons_vals, query.constraints)
    return np.broadcast_to(c, s.shape) if np.ndim(c) == 0 else c, s, g


def _prefix_keys(view: _ReactionView, query: QuerySpec, digit: np.ndarray, g0: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, h: np.ndarray, counts: np.ndarray, ts: float):
    """(violation, signed objective, global index) keys of the products of one
    reaction's blocks, each clipped to its [lo, hi) offsets, whose signed
    objective is at least `ts`: only the prefix of each block row that
    `row_prefixes` gave (`h`, `counts`) is summed, in `block_values`'s order."""
    order, values, _, _ = view.last_order
    n_rows, flat = h.shape[1], counts.reshape(-1)
    ends = np.cumsum(flat)
    row = np.repeat(np.arange(len(flat)), flat)
    rank = np.arange(ends[-1]) - (ends - flat)[row]
    val = h.reshape(-1)[row] + values[rank]
    val += view.biases[0]
    if query.direction == "minimize":
        np.negative(val, out=val)
    block, r = np.divmod(row, n_rows)
    offset = r * len(order) + order[rank]
    keep = val >= ts
    if lo.any() or (hi < n_rows * len(order)).any():
        keep &= (offset >= lo[block]) & (offset < hi[block])
    if not keep.all():  # most gathered products are kept
        at = np.flatnonzero(keep)
        block, offset, val = block[at], offset[at], val[at]
    cons_vals = [view.values_at(1 + i, digit[block], offset) for i in range(len(query.constraints))]
    c = violation(cons_vals, query.constraints)
    return np.broadcast_to(c, val.shape) if np.ndim(c) == 0 else c, val, g0[block] + offset


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


def _gather_group(buf: _TopKBuffer, views, query: QuerySpec, blocks: np.ndarray, rows: np.ndarray) -> int:
    """Offer the products of the first of these visit-order blocks that can
    reach the feasible k-th key, gathered by row prefix; return how many
    blocks that was. The group takes at most GROUP_PRODUCTS block rows
    (`rows` per reaction position), and ends before the block at which the
    prefixes it gathers would pass GROUP_PRODUCTS products."""
    blocks = blocks[:, : max(1, bisect_right(np.cumsum(rows[blocks[0]]).tolist(), GROUP_PRODUCTS))]
    sign, ts = (1.0 if query.direction == "maximize" else -1.0), buf.kth[1]
    gathered, parts = np.empty(len(blocks[0]), dtype=np.int64), []
    for t in np.unique(blocks[0]).tolist():
        mine = blocks[0] == t
        h, counts = views[t].row_prefixes(blocks[1, mine], sign, ts)
        gathered[mine] = counts.sum(axis=1)
        parts.append((t, mine, h, counts))
    n = max(1, bisect_right(np.cumsum(gathered).tolist(), GROUP_PRODUCTS))
    for t, mine, h, counts in parts:
        m = np.count_nonzero(mine[:n])
        if m:
            digit, g0, lo, hi = blocks[1:, :n][:, mine[:n]]
            buf.offer(*_prefix_keys(views[t], query, digit, g0, lo, hi, h[:m], counts[:m], buf.kth[1]))
    return n


def _scan(buf: _TopKBuffer, views, query: QuerySpec, blocks, bounds=None) -> int:
    """Score `PairLayout.blocks` rows into `buf`; return the number of products scored.

    Blocks are visited best (violation, signed objective) bound first, ties in
    index order, and scored in groups (see the module notes); the visit stops
    at the first block whose bound is strictly below the k-th key. `bounds`
    holds the two bounds per block; without them every block is scored, in
    index order. With them, once the k-th key is feasible, groups gather row
    prefixes (`_gather_group`). `views` maps each reaction position to a
    view that gives the reaction's `block_values` and `values_at`, over many
    first digits at once, for the objective, then each constraint.
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
    # products in the visit's first i blocks, clipped, at position i
    done = [0] + np.cumsum(visit[4] - visit[3]).tolist()
    if bounds is not None:
        # per reaction position, a block's rows (digits of every R-group but the last)
        rows = np.zeros(max(views) + 1, dtype=np.int64)
        for t, view in views.items():
            rows[t] = math.prod(len(a) for a in view.per_task[0][1:-1])
    i, width, stop = 0, 1, buf.unbeaten(neg_c, neg_s)
    while i < stop:
        if bounds is None or buf.kth is None or buf.kth[0] != 0.0:
            j = min(stop, i + width, max(i + 1, bisect_right(done, done[i] + GROUP_PRODUCTS) - 1))
            group = visit[:, i:j]
            for t in np.unique(group[0]).tolist():
                digit, g0, lo, hi = group[1:, group[0] == t]
                buf.offer(*_group_keys(views[t], query, digit, g0, lo, hi, buf.kth))
        else:
            j = i + _gather_group(buf, views, query, visit[:, i:min(stop, i + width)], rows)
        i, width, stop = j, 2 * width, buf.unbeaten(neg_c, neg_s)
    return done[i]


def index_span(layout: PairLayout, index_range: tuple[int, int] | None) -> tuple[int, int]:
    """The [start, end) global indices a top-k covers: the whole library by default."""
    total = int(layout.product_offsets[-1])
    start, end = index_range if index_range is not None else (0, total)
    if not 0 <= start <= end <= total:
        raise EngineError(f"index range [{start}, {end}) invalid")
    return start, end


def scan_topk(layout: PairLayout, view_of, query: QuerySpec, k: int,
              index_range: tuple[int, int] | None = None, bounded: bool = False):
    """The best k (violation, signed objective, global index) keys over the
    index range, in key order, then the products scored and those in the range.
    `view_of(reaction position)` builds the view `_scan` reads, once for each
    reaction that has a block in the range; `bounded` needs `_ReactionView`s."""
    start, end = index_span(layout, index_range)
    blocks = layout.blocks(start, end)
    used, which = np.unique(blocks[0], return_inverse=True)
    views = {t: view_of(t) for t in used.tolist()}
    bounds = None
    if bounded and views:
        per_reaction = [_block_key_bounds(view, query) for view in views.values()]
        # each block's row in those reactions' bounds laid end to end
        row = np.cumsum([0] + [len(c) for c, _ in per_reaction])[which] + blocks[1]
        bounds = [np.concatenate(b)[row] for b in zip(*per_reaction)]
    buf = _TopKBuffer(k)
    scored = _scan(buf, views, query, blocks, bounds)
    c, s, g = buf.kept()
    return c, s, g, scored, end - start


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
    timing = {"scan_seconds": scan_time, "scanned": float(scanned)}
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
    products in the range, `scored` those whose keys were computed.
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
    rows; `check_library` compares its fingerprint and layout. `blob` is the
    file's `read_table`, when it was read before the library."""
    meta, arrays = blob or read_table(path)
    n_tasks, layout = len(meta["task_names"]), library.layout
    empty = ContributionTable(np.zeros((n_tasks, layout.n_pairs), np.float32), np.zeros(n_tasks),
                              list(meta["task_names"]), layout.member_ids, layout.rg_offsets, layout.rg_ids,
                              meta["fingerprint"])
    check_arrays(path, arrays, _table_arrays(empty), EngineError)
    return replace(empty, **arrays)


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
