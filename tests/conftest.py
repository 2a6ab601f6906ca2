import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from apexcsl import csl, props


@pytest.fixture(scope="session")
def small_library():
    # 2 reactions (2- and 3-component), 150 products
    return csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=2, components=(2, 3), synthons_per_rgroup=5), seed=11
    )


@pytest.fixture(scope="session")
def medium_library():
    # mixed 2-/3-component, ~20k products
    return csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=4, components=(2, 3), synthons_per_rgroup=12), seed=7
    )


@pytest.fixture(scope="session")
def small_oracle(small_library):
    return props.make_default_oracle(small_library, seed=3)


def f32_round_latents(oracle):
    """Make oracle latents exactly float32-representable so a perfect
    contribution table reproduces oracle sums bit-for-bit."""
    for task in oracle.tasks:
        task.latent = task.latent.astype(np.float32).astype(np.float64)
    return oracle


def pair_count(library):
    """Number of (R-group, synthon) pair rows of the library."""
    return sum(len(rg.synthon_ids) for rg in library.iter_rgroups())


def table_from_values(library, task_names, values, biases):
    """Contribution table over the library's pair rows (R-groups in
    declaration order) with the given (tasks, pair rows) values and biases."""
    from apexcsl import engine

    member_ids, rg_offsets, rg_ids = [], [0], []
    for rg in library.iter_rgroups():
        rg_ids.append(rg.rgroup_id)
        member_ids.extend(rg.synthon_ids)
        rg_offsets.append(len(member_ids))
    return engine.ContributionTable(
        values=np.asarray(values, dtype=np.float32),
        biases=np.asarray(biases, dtype=np.float64),
        task_names=list(task_names),
        member_ids=np.asarray(member_ids),
        rg_offsets=np.asarray(rg_offsets),
        rg_ids=np.asarray(rg_ids),
        fingerprint=csl.library_fingerprint(library),
    )


def numpy_topk_keys(library, table, query, index_range=None, feasible_only=True):
    """Brute-force materialize-and-sort reference: every product's task values
    summed with numpy in R-group order, then the bias, as the scan sums them;
    violation penalties worked out here; every key sorted; the feasible ones
    of the top k (all of them without `feasible_only`), as (violation, signed
    objective, global index)."""
    def all_values(task):
        i = table.task_index(task)
        per_reaction = []
        for rx in library.reactions:
            val = None
            for rg in rx.rgroups:
                row = table.rg_ids.tolist().index(rg.rgroup_id)
                a = table.values[i, table.rg_offsets[row]:table.rg_offsets[row + 1]].astype(np.float64)
                val = a if val is None else (val[:, None] + a).reshape(-1)
            per_reaction.append(val + table.biases[i])
        return np.concatenate(per_reaction)[start:end]

    start, end = index_range if index_range is not None else (0, csl.product_count(library))
    obj = all_values(query.objective)
    s = obj if query.direction == "maximize" else -obj
    c = np.zeros_like(s)
    for con in query.constraints:
        v = all_values(con.task)
        c = c - np.maximum(0.0, con.lower - v)
        c = c - np.maximum(0.0, v - con.upper)
    g = np.arange(start, end)
    top = np.lexsort((g, -s, -c))[: query.k]
    return [(float(c[i]), float(s[i]), int(g[i])) for i in top if c[i] >= 0.0 or not feasible_only]


def random_table(library, task_names, rng):
    """Standard-normal float32 values and float64 biases, drawn in that order."""
    values = rng.standard_normal((len(task_names), pair_count(library))).astype(np.float32)
    return table_from_values(library, task_names, values, rng.standard_normal(len(task_names)))


def perfect_additive_table(oracle, library, task_names):
    """Contribution table whose rows are the oracle's per-synthon latents;
    exact for additive tasks (latents must be f32-representable)."""
    member_ids = np.asarray([s for rg in library.iter_rgroups() for s in rg.synthon_ids])
    values = np.stack([oracle.task(t).latent[member_ids] for t in task_names])
    return table_from_values(library, task_names, values, np.zeros(len(task_names)))


# ---------------------------------------------------------------------------
# per-product definitions: the references that the batch code is tested against
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """One product: a reaction plus an (rgroup_id, synthon_id) pair per R-group."""

    reaction_id: int
    assignment: tuple[tuple[int, int], ...]

    def synthon_ids(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.assignment)


def reference_decode(library, gidx):
    """The product at one global index, one mixed-radix digit at a time, last
    R-group first: the scalar decoder that `PairLayout.decode`, `encode` and
    `digits_of` are checked against."""
    total = csl.product_count(library)
    if not 0 <= gidx < total:
        raise csl.LibraryError(f"global index {gidx} out of range [0, {total})")
    t = bisect_right(library.layout.product_offsets, gidx) - 1
    rx = library.reactions[t]
    rem = gidx - library.reaction_offset(t)
    digits = [0] * len(rx.rgroups)
    for j in range(len(rx.rgroups) - 1, -1, -1):
        rem, digits[j] = divmod(rem, len(rx.rgroups[j].synthon_ids))
    return MultiIndex(rx.reaction_id, tuple((rg.rgroup_id, rg.synthon_ids[d]) for rg, d in zip(rx.rgroups, digits)))


def reference_pair_row(library, rgroup_id, synthon_id):
    """The pair row of an (R-group, synthon) pair: R-groups in declaration
    order, each one's synthons in digit order."""
    row = 0
    for rg in library.iter_rgroups():
        if rg.rgroup_id == rgroup_id:
            return row + rg.synthon_ids.index(synthon_id)
        row += len(rg.synthon_ids)
    raise ValueError(f"no R-group {rgroup_id}")


ENUMERATE_CHUNK = 1 << 14


def enumerate_products(library, start, end):
    """Yield reference_decode(g) for g in [start, end), ascending, a chunk of indices at a time."""
    total = csl.product_count(library)
    if not 0 <= start <= end <= total:
        raise csl.LibraryError(f"range [{start}, {end}) invalid for product count {total}")
    for lo in range(start, end, ENUMERATE_CHUNK):
        pos, digits = library.layout.decode(np.arange(lo, min(lo + ENUMERATE_CHUNK, end)))
        for t, sids in zip(pos.tolist(), library.layout.synthon_ids(pos, digits).tolist()):
            rx = library.reactions[t]
            yield MultiIndex(rx.reaction_id, tuple((rg.rgroup_id, s) for rg, s in zip(rx.rgroups, sids)))


def reference_ground_truth(oracle, library, chi, task_name):
    """One product's oracle value, one Python float at a time: 0.0 plus the
    latents in R-group order, then the tanh term, then the pairwise terms in
    lexicographic R-group-pair order. `ground_truth`, `oracle_values` and
    `oracle_block_values` must match it bit for bit."""
    task = oracle.task(task_name)
    base = 0.0
    for _, s in chi.assignment:
        base = base + float(task.latent[s])
    value = base
    if "nonlinear" in task.terms:
        value = value + task.nonlinear_scale * np.tanh(task.nonlinear_alpha * base)
    if "pairwise" in task.terms:
        salt = props._task_salt(oracle, task)
        sids = chi.synthon_ids()
        for a in range(len(sids)):
            for b in range(a + 1, len(sids)):
                value = value + float(props.pair_coefficient(task, salt, sids[a], sids[b]))
    return float(value)


def product_features(library, chi, config=props.FeatureConfig(), synthon_matrix=None):
    """Summed synthon features plus q cross terms, total dimension p + q.

    The cross terms are fixed random projections of the elementwise product of
    the two largest-norm constituent synthon vectors (ties broken by position;
    a single-component assignment crosses its vector with itself).
    """
    if synthon_matrix is None:
        synthon_matrix = props.library_synthon_features(library, config)
    vecs = [synthon_matrix[s] for _, s in chi.assignment]
    summed = np.zeros(config.p)
    for v in vecs:
        summed = summed + v
    norms = [float(np.linalg.norm(v)) for v in vecs]
    order = sorted(range(len(vecs)), key=lambda i: (-norms[i], i))
    a = vecs[order[0]]
    b = vecs[order[1]] if len(vecs) > 1 else a
    cross = props._cross_projection(config.p, config.q, config.seed) @ (a * b)
    return np.concatenate([summed, cross])


def apex_score(table, library, chi, task):
    """Sum of the assignment's contributions plus the task bias (c adds for c
    components); the table's pair rows are the library's."""
    i = table.task_index(task)
    acc = 0.0
    for rgroup_id, synthon_id in chi.assignment:
        acc += float(table.values[i, reference_pair_row(library, rgroup_id, synthon_id)])
    return acc + float(table.biases[i])


def assemble(library, chi):
    """Canonical product token string.

    Attachment markers are resolved positionally by dropping the '*' markers at
    join time; fragments are joined in sorted order so any two assignments with
    the same synthon multiset under the same reaction assemble identically.
    """
    fragments = sorted(library.synthons[s].token.replace("*", "") for _, s in chi.assignment)
    return f"t{chi.reaction_id}|" + ".".join(fragments)


@st.composite
def mixed_libraries(draw):
    """Small 2- and 3-component libraries; short tokens over a 2-3 letter
    alphabet repeat feature vectors, and shared synthons can appear twice in
    one product."""
    return csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 4)),
            components=draw(st.sampled_from([(2,), (3,), (2, 3), (3, 2)])),
            synthons_per_rgroup=draw(st.integers(1, 5)),
            alphabet_size=draw(st.integers(2, 3)),
            token_length=draw(st.integers(2, 4)),
            share_rate=draw(st.sampled_from([0.0, 0.3, 0.7])),
        ),
        seed=draw(st.integers(0, 50)),
    )


def reference_iter_blocks(library, first, stop):
    """(reaction position, first digit, block start, block size, block rows)
    for every block of the reaction positions [first, stop), in index order:
    the per-reaction walk that the engine's block table replaced, kept as its
    reference. A block's rows are the product of the synthon counts of the
    R-groups between its reaction's first and last."""
    for ti in range(first, stop):
        counts = [len(rg.synthon_ids) for rg in library.reactions[ti].rgroups]
        inner = library.reaction_size(ti) // counts[0]
        for j in range(counts[0]):
            yield ti, j, library.reaction_offset(ti) + j * inner, inner, math.prod(counts[1:-1])


@st.composite
def reaction_spans(draw, library):
    """A [start, end) range of global indices that starts and ends at reaction
    boundaries: empty, one reaction, a run of reactions, or the whole library."""
    offsets = library.layout.product_offsets.tolist()
    n = len(offsets) - 1
    first = draw(st.one_of(st.just(0), st.integers(0, n)))
    stop = draw(st.one_of(st.just(n), st.just(first), st.just(min(first + 1, n)), st.integers(first, n)))
    return offsets[first], offsets[stop]


def reference_violation(values, constraints):
    """`engine.violation` with every hinge step taken, an infinite bound's too."""
    c = 0.0
    for v, con in zip(values, constraints):
        c = c - np.maximum(0.0, con.lower - v)
        c = c - np.maximum(0.0, v - con.upper)
    return c


def reference_thompson_sampling(library, oracle, objective, direction, config, reaction_id):
    """`evalkit.thompson_sampling` one product at a time: each warm-up and
    iteration product is drawn, evaluated with `ground_truth` and applied to
    the posteriors before the next is drawn. The batched warm-up must give the
    same `TsResult`."""
    from apexcsl import evalkit

    members = [rg.synthon_ids for rg in library.reaction(reaction_id).rgroups]
    rng = np.random.default_rng(config.seed)
    sign = 1.0 if direction == "maximize" else -1.0
    arms = {s: (0.0, 1.0) for ids in members for s in ids}
    chosen, values, best_traj, best = [], [], [], -np.inf

    def evaluate(digits):
        nonlocal best
        sids = [ids[d] for ids, d in zip(members, digits)]
        value = props.ground_truth(oracle, objective, sids)
        reward = sign * value
        chosen.append(digits)
        values.append(value)
        best = max(best, reward)
        best_traj.append(sign * best)
        for s in sids:
            mean, prec = arms[s]
            arms[s] = ((mean * prec + reward) / (prec + 1.0), prec + 1.0)

    for focus, focus_ids in enumerate(members):
        for d in range(len(focus_ids)):
            for _ in range(config.warmup):
                evaluate([d if j == focus else int(rng.integers(0, len(ids))) for j, ids in enumerate(members)])
    for _ in range(config.iterations):
        evaluate([
            int(np.argmax([arms[s][0] + rng.standard_normal() / np.sqrt(arms[s][1]) for s in ids]))
            for ids in members
        ])
    gidx = library.layout.encode(np.full(len(chosen), reaction_id), np.asarray(chosen, dtype=np.int64))
    return evalkit.TsResult(evaluated=list(zip(gidx.tolist(), values)), best_trajectory=best_traj,
                            oracle_calls=len(values))
