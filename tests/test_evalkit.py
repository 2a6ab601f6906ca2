import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apexcsl import csl, engine, evalkit, props
from conftest import (f32_round_latents, mixed_libraries, perfect_additive_table, reaction_spans, reference_decode,
                      reference_ground_truth, reference_iter_blocks, reference_thompson_sampling)


@pytest.fixture(scope="module")
def exact_setup(small_library):
    oracle = f32_round_latents(
        props.make_additive_oracle(small_library, seed=13, task_names=["obj", "con"])
    )
    table = perfect_additive_table(oracle, small_library, ["obj", "con"])
    return small_library, oracle, table


class TestOracleTopK:
    def test_matches_python_brute_force(self, exact_setup):
        library, oracle, _ = exact_setup
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("con", upper=0.5),), k=8)
        total = csl.product_count(library)
        rows = []
        for g in range(total):
            chi = reference_decode(library, g)
            if reference_ground_truth(oracle, library, chi, "con") > 0.5:
                continue
            rows.append((-reference_ground_truth(oracle, library, chi, "obj"), g))
        rows.sort()
        expected = [g for _, g in rows[:8]]
        truth = evalkit.oracle_topk(library, oracle, q, 8)
        assert truth.global_index.tolist() == expected

    def test_minimize_direction(self, exact_setup):
        library, oracle, _ = exact_setup
        q = engine.QuerySpec("obj", "minimize", (), k=3)
        truth = evalkit.oracle_topk(library, oracle, q, 3)
        objs = truth.objective.tolist()
        assert objs == sorted(objs)

    def test_index_range(self, exact_setup):
        library, oracle, _ = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=4)
        off = library.reaction_offset(1)
        size = library.reaction_size(1)
        truth = evalkit.oracle_topk(library, oracle, q, 4, index_range=(off, off + size))
        assert all(off <= g < off + size for g in truth.global_index.tolist())

    def test_enumeration_guard(self, exact_setup):
        library, oracle, _ = exact_setup
        big = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=500), seed=0
        )
        q = engine.QuerySpec("obj", "maximize", (), k=1)
        with pytest.raises(evalkit.EvalError, match="guard"):
            evalkit.oracle_topk(big, oracle, q, 1)


def test_oracle_values_that_can_overflow_are_refused(exact_setup):
    # constraint latents of 1e308 sum to inf, inf - inf gave a NaN key at the
    # infinite bound, and oracle_topk ended in an IndexError in compact
    library, _, table = exact_setup
    n = len(library.synthons)
    oracle = props.GroundTruthOracle([props.TaskDef("obj", "additive", np.arange(n, dtype=np.float64)),
                                      props.TaskDef("con", "additive", np.full(n, 1e308))], seed=0)
    cons = (engine.Constraint("con", lower=0.0),)
    q = engine.QuerySpec("obj", "maximize", cons, k=5)
    with pytest.raises(props.OracleError, match="^task 'con' .*overflow"):
        evalkit.oracle_topk(library, oracle, q, 5)
    retrieved = engine.search_topk_stream(library, table, q)
    with pytest.raises(props.OracleError, match="^task 'con' .*overflow"):
        evalkit.satisfaction_rate(retrieved, oracle, library, cons)


def reference_oracle_topk(library, oracle, query, j, index_range=None):
    """The per-product heap loop `oracle_topk` replaced: (global index,
    objective) pairs, signed objective descending, then lower index."""
    first, stop = engine.index_span(library.layout, index_range)
    heap = []  # (signed objective, -g); root is the worst kept
    for ti, fd, g0, *_ in reference_iter_blocks(library, first, stop):
        obj = props.oracle_block_values(oracle, library, query.objective, ti, fd)
        s = obj if query.direction == "maximize" else -obj
        if query.constraints:
            cons = [props.oracle_block_values(oracle, library, con.task, ti, fd) for con in query.constraints]
            feasible = np.asarray(engine.violation(cons, query.constraints)) == 0.0
        else:
            feasible = np.ones(len(obj), dtype=bool)
        for i in np.nonzero(feasible)[0]:
            item = (float(s[i]), -(g0 + int(i)))
            if len(heap) < j:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    ordered = sorted(heap, key=lambda e: (-e[0], -e[1]))
    return [(-ng, s if query.direction == "maximize" else -s) for s, ng in ordered]


@st.composite
def oracle_topk_cases(draw):
    library = draw(mixed_libraries())
    n = len(library.synthons)
    n_cons = draw(st.integers(0, 2))
    levels = [-1.0, -0.0, 0.0, 1.0]  # few values, so objectives tie
    tasks = [
        props.TaskDef(
            name, draw(st.sampled_from(["additive", "additive+nonlinear+pairwise"])),
            np.asarray(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))),
            nonlinear_scale=0.5, pair_scale=0.25, pair_density=0.3,
        )
        for name in ["obj"] + [f"c{i}" for i in range(n_cons)]
    ]
    oracle = props.GroundTruthOracle(tasks, seed=draw(st.integers(0, 3)))
    bounds = [(float("-inf"), 0.0), (0.0, float("inf")), (-1.0, 1.0), (1.5, 2.5), (9.0, float("inf"))]
    constraints = tuple(engine.Constraint(f"c{i}", *draw(st.sampled_from(bounds))) for i in range(n_cons))
    query = engine.QuerySpec("obj", draw(st.sampled_from(["maximize", "minimize"])), constraints)
    total = csl.product_count(library)
    return library, oracle, query, draw(st.integers(1, total + 3)), draw(reaction_spans(library))


class TestOracleTopKReference:
    @given(case=oracle_topk_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_heap_loop(self, case):
        library, oracle, query, j, index_range = case
        truth = evalkit.oracle_topk(library, oracle, query, j, index_range=index_range)
        expected = reference_oracle_topk(library, oracle, query, j, index_range)
        assert truth.global_index.tolist() == [g for g, _ in expected]
        assert truth.objective.tobytes() == np.asarray([o for _, o in expected], dtype=np.float64).tobytes()
        for jj in (1, j // 2):
            assert truth.top(jj).global_index.tolist() == [g for g, _ in expected[:jj]]

    @given(library=mixed_libraries(), data=st.data(),
           mode=st.sampled_from(["additive+nonlinear", "additive+pairwise", "additive+nonlinear+pairwise"]))
    @settings(max_examples=200, deadline=None)
    def test_grouped_values_match_per_block(self, library, mode, data):
        # one kernel call over a group's blocks gives each block's values bit
        # for bit, and the view reads that call
        latent = np.random.default_rng(data.draw(st.integers(0, 9))).standard_normal(len(library.synthons))
        task = props.TaskDef("t", mode, latent, nonlinear_scale=0.7, nonlinear_alpha=0.9, pair_scale=0.3,
                             pair_density=data.draw(st.sampled_from([0.05, 0.5, 1.0])))
        oracle = props.GroundTruthOracle([task], seed=data.draw(st.integers(0, 5)))
        for t, rx in enumerate(library.reactions):
            n_first = len(rx.rgroups[0].synthon_ids)
            digits = np.asarray(data.draw(st.lists(st.integers(0, n_first - 1), min_size=1, max_size=6)))
            per_block = np.asarray([props.oracle_block_values(oracle, library, "t", t, d) for d in digits.tolist()])
            grouped = props.oracle_block_values(oracle, library, "t", t, digits)
            assert grouped.shape == (len(digits), library.reaction_size(t) // n_first)
            assert grouped.tobytes() == per_block.tobytes()
            view = evalkit._OracleView(oracle, library, t, ["t"])
            assert view.block_values(0, digits).tobytes() == grouped.tobytes()


class TestRecall:
    def test_perfect_table_perfect_recall(self, exact_setup):
        library, oracle, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=20)
        truth = evalkit.oracle_topk(library, oracle, q, 10)
        retrieved = engine.search_topk_stream(library, table, q)
        assert evalkit.recall_j_at_k(truth, retrieved) == 1.0

    def test_partial_overlap(self, exact_setup):
        library, oracle, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=10)
        truth = evalkit.oracle_topk(library, oracle, q, 10)
        retrieved = engine.search_topk_stream(library, table, q)
        half = dataclasses.replace(
            retrieved,
            global_index=retrieved.global_index[:5],
            objective=retrieved.objective[:5],
            constraint_values=retrieved.constraint_values[:, :5],
            reaction_pos=retrieved.reaction_pos[:5],
            pair_rows=retrieved.pair_rows[:5],
        )
        assert evalkit.recall_j_at_k(truth, half) == 0.5

    def test_empty_truth_is_none(self, exact_setup):
        library, _, table = exact_setup
        empty = evalkit.OracleTopK(
            np.zeros(0, dtype=np.int64), np.zeros(0), engine.QuerySpec("obj", "maximize", k=5), 5
        )
        retrieved = engine.search_topk_stream(
            library, table, engine.QuerySpec("obj", "maximize", (), k=5)
        )
        assert evalkit.recall_j_at_k(empty, retrieved) is None


class TestSatisfaction:
    def test_perfect_table_full_satisfaction(self, exact_setup):
        library, oracle, table = exact_setup
        cons = (engine.Constraint("con", upper=0.5),)
        q = engine.QuerySpec("obj", "maximize", cons, k=10)
        retrieved = engine.search_topk_stream(library, table, q)
        out = evalkit.satisfaction_rate(retrieved, oracle, library, cons)
        assert out["rate"] == 1.0
        assert 0.0 <= out["base_rate"] <= 1.0

    def test_unconstrained_rate_is_one(self, exact_setup):
        library, oracle, table = exact_setup
        retrieved = engine.search_topk_stream(
            library, table, engine.QuerySpec("obj", "maximize", (), k=5)
        )
        out = evalkit.satisfaction_rate(retrieved, oracle, library, ())
        assert out == {"rate": 1.0, "base_rate": 1.0}

    @pytest.mark.parametrize("con", [engine.Constraint("con"), engine.Constraint("con", -np.inf, np.inf)])
    def test_boundless_constraint_rate_is_one(self, exact_setup, con):
        # a constraint with no finite bound holds for every product, so each
        # retrieved and each sampled product counts, not one of them
        library, oracle, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (con,), k=10)
        retrieved = engine.search_topk_stream(library, table, q)
        assert retrieved.retained == 10
        out = evalkit.satisfaction_rate(retrieved, oracle, library, (con,))
        assert out == {"rate": 1.0, "base_rate": 1.0}


class TestThompsonSampling:
    @pytest.mark.parametrize("warmup", [3, 10])
    def test_budget_is_exact(self, exact_setup, warmup, monkeypatch):
        library, oracle, _ = exact_setup
        # the warm-up is one oracle_values call over all its products, each
        # iteration one ground_truth call: evaluations are counted, not calls
        iters = 17
        batches, calls = [], []
        ground_truth, oracle_values = evalkit.ground_truth, evalkit.oracle_values
        monkeypatch.setattr(evalkit, "ground_truth", lambda *a: calls.append(a) or ground_truth(*a))
        monkeypatch.setattr(evalkit, "oracle_values", lambda *a: batches.append(len(a[3])) or oracle_values(*a))
        res = evalkit.thompson_sampling(
            library, oracle, "obj", "maximize",
            evalkit.TsConfig(warmup=warmup, iterations=iters, seed=0), reaction_id=0,
        )
        n_syn = evalkit.reaction_synthon_count(library, 0)
        assert batches == [n_syn * warmup] and len(calls) == iters
        assert res.oracle_calls == sum(batches) + len(calls) == n_syn * warmup + iters
        assert len(res.evaluated) == res.oracle_calls

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("reaction_id", [0, 1], ids=["two_components", "three_components"])
    def test_matches_per_product_loop(self, small_library, small_oracle, direction, reaction_id):
        # the default oracle has tanh and pairwise terms, so the batched
        # warm-up values must equal ground_truth's bit for bit
        for seed, warmup, iters in [(0, 1, 5), (3, 3, 20), (7, 10, 12)]:
            cfg = evalkit.TsConfig(warmup=warmup, iterations=iters, seed=seed)
            got = evalkit.thompson_sampling(small_library, small_oracle, "dock_b", direction, cfg, reaction_id)
            want = reference_thompson_sampling(small_library, small_oracle, "dock_b", direction, cfg, reaction_id)
            assert repr(got) == repr(want)

    def test_trajectory_monotone(self, exact_setup):
        library, oracle, _ = exact_setup
        res = evalkit.thompson_sampling(
            library, oracle, "obj", "maximize",
            evalkit.TsConfig(warmup=3, iterations=20, seed=1), reaction_id=1,
        )
        assert all(a <= b for a, b in zip(res.best_trajectory, res.best_trajectory[1:]))

    def test_minimize_trajectory_decreases(self, exact_setup):
        library, oracle, _ = exact_setup
        res = evalkit.thompson_sampling(
            library, oracle, "obj", "minimize",
            evalkit.TsConfig(warmup=3, iterations=20, seed=1), reaction_id=1,
        )
        assert all(a >= b for a, b in zip(res.best_trajectory, res.best_trajectory[1:]))

    def test_deterministic_per_seed(self, exact_setup):
        library, oracle, _ = exact_setup
        cfg = evalkit.TsConfig(warmup=3, iterations=10, seed=4)
        a = evalkit.thompson_sampling(library, oracle, "obj", "maximize", cfg, reaction_id=0)
        b = evalkit.thompson_sampling(library, oracle, "obj", "maximize", cfg, reaction_id=0)
        assert a.evaluated == b.evaluated

    def test_evaluations_stay_in_reaction(self, exact_setup):
        library, oracle, _ = exact_setup
        res = evalkit.thompson_sampling(
            library, oracle, "obj", "maximize",
            evalkit.TsConfig(warmup=3, iterations=10, seed=0), reaction_id=1,
        )
        off = library.reaction_offset(1)
        size = library.reaction_size(1)
        assert all(off <= g < off + size for g in res.evaluated_indices())

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_values_match_reference_oracle(self, direction):
        # synthons 1 and 2 sit in both R-groups of reaction 0, so a product can hold one twice
        synthons = tuple(csl.SynthonRecord(i, f"{'ab'[i % 2]}*{'abc'[i % 3]}{i}") for i in range(6))
        library = csl.CslLibrary(
            (csl.ReactionSpec(0, (csl.RgroupSpec(0, (0, 1, 2)), csl.RgroupSpec(1, (1, 2, 3)))),
             csl.ReactionSpec(1, (csl.RgroupSpec(2, (3, 4, 5)), csl.RgroupSpec(3, (0, 5)), csl.RgroupSpec(4, (2, 4))))),
            synthons)
        csl.check_library(library)
        oracle = props.make_default_oracle(library, seed=2, hardness=3.0)
        for t in (0, 1):
            res = evalkit.thompson_sampling(library, oracle, "dock_a", direction,
                                            evalkit.TsConfig(warmup=2, iterations=15, seed=t), reaction_id=t)
            chis = [reference_decode(library, g) for g, _ in res.evaluated]
            assert [chi.reaction_id for chi in chis] == [t] * res.oracle_calls
            expected = [reference_ground_truth(oracle, library, chi, "dock_a") for chi in chis]
            assert np.asarray([v for _, v in res.evaluated]).tobytes() == np.asarray(expected).tobytes()
            if t == 0:
                assert any(chi.synthon_ids() in ((1, 1), (2, 2)) for chi in chis)

    def test_default_warmup(self):
        assert evalkit.default_warmup(2) == 3
        assert evalkit.default_warmup(3) == 10

    @pytest.mark.parametrize("reaction_id", [-1, 2])
    def test_reaction_id_out_of_range(self, exact_setup, reaction_id):
        # -1 once sampled the last reaction's synthons under the wrong global offset
        library, oracle, _ = exact_setup
        with pytest.raises(csl.LibraryError, match="out of range"):
            evalkit.thompson_sampling(
                library, oracle, "obj", "maximize", evalkit.TsConfig(warmup=1, iterations=1),
                reaction_id=reaction_id,
            )


class TestCompare:
    def test_comparison_rows(self, exact_setup, monkeypatch):
        library, oracle, table = exact_setup
        monkeypatch.setattr(evalkit, "COMPARE_J_VALUES", (5,))
        rows = evalkit.compare_apex_vs_ts(library, oracle, table, "obj", "maximize", budgets=(10,), seeds=(0, 1, 2))
        assert len(rows) == 2
        for row in rows:
            n_syn = evalkit.reaction_synthon_count(library, row["reaction_id"])
            rx = library.reaction(row["reaction_id"])
            w = evalkit.default_warmup(len(rx.rgroups))
            assert row["total_evals"] == n_syn * w + row["iterations"]
            assert len(row["ts_recalls"]) == 3
            # the perfect table retrieves the exact feasible top set
            assert row["apex_recall"] == 1.0
            assert 0.0 <= row["ts_recall_median"] <= 1.0
