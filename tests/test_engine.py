import dataclasses
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apexcsl import cli, csl, engine, props
from apexcsl.blobio import BlobError
from conftest import (apex_score, assemble, enumerate_products, f32_round_latents, mixed_libraries, numpy_topk_keys,
                      pair_count, perfect_additive_table, random_table, reaction_spans, reference_decode,
                      reference_ground_truth, reference_iter_blocks, reference_violation, table_from_values)


@pytest.fixture(scope="module")
def exact_setup(small_library):
    oracle = f32_round_latents(props.make_additive_oracle(small_library, seed=9, task_names=["obj", "c1", "c2"]))
    table = perfect_additive_table(oracle, small_library, ["obj", "c1", "c2"])
    return small_library, oracle, table


def brute_force_topk(library, table, query):
    rows = []
    total = csl.product_count(library)
    for g, chi in enumerate(enumerate_products(library, 0, total)):
        obj = apex_score(table, library, chi, query.objective)
        s = obj if query.direction == "maximize" else -obj
        cons = [apex_score(table, library, chi, c.task) for c in query.constraints]
        c = float(engine.violation(cons, query.constraints))
        rows.append((c, s, g))
    rows.sort(key=lambda e: (-e[0], -e[1], e[2]))
    top = rows[: query.k]
    return [(c, s, g) for c, s, g in top if c >= 0.0]


def result_keys(result, direction):
    # every retained hit is feasible, so its violation is 0.0
    sign = 1.0 if direction == "maximize" else -1.0
    return [(0.0, s, g) for s, g in zip((sign * result.objective).tolist(), result.global_index.tolist())]


class TestApexScore:
    def test_matches_oracle_on_additive_tasks(self, exact_setup):
        library, oracle, table = exact_setup
        for g in range(0, csl.product_count(library), 3):
            chi = reference_decode(library, g)
            for task in ("obj", "c1"):
                assert apex_score(table, library, chi, task) == reference_ground_truth(oracle, library, chi, task)

    def test_unknown_task(self, exact_setup):
        library, _, table = exact_setup
        with pytest.raises(engine.EngineError, match="unknown task"):
            apex_score(table, library, reference_decode(library, 0), "nope")

    def test_fingerprint_mismatch(self, exact_setup, medium_library):
        _, _, table = exact_setup
        with pytest.raises(engine.EngineError, match="fingerprint"):
            table.check_library(medium_library)

    @pytest.mark.parametrize("parsed", [False, True], ids=["generated", "parsed"])
    def test_fingerprint_worked_out_once_per_library(self, monkeypatch, parsed):
        # a generated library serializes once over two searches; a parsed canonical file never
        library = csl.generate_synthetic(csl.SyntheticConfig(n_reactions=2, synthons_per_rgroup=4), seed=5)
        if parsed:
            library = csl.deserialize_library(csl.serialize_library(library))
        table = random_table(library, ["a"], np.random.default_rng(0))
        calls = []
        serialize = csl.serialize_library
        monkeypatch.setattr(csl, "serialize_library", lambda lib: calls.append(lib) or serialize(lib))
        for _ in range(2):
            engine.search_topk_stream(library, table, engine.QuerySpec("a", "maximize", (), k=3))
        assert len(calls) == (0 if parsed else 1)


class TestViolation:
    def test_inside_is_zero(self):
        cons = (engine.Constraint("a", 0.0, 10.0),)
        assert engine.violation([5.0], cons) == 0.0

    def test_boundary_is_zero(self):
        cons = (engine.Constraint("a", 0.0, 10.0),)
        assert engine.violation([0.0], cons) == 0.0
        assert engine.violation([10.0], cons) == 0.0

    def test_excess_is_negative_distance(self):
        cons = (engine.Constraint("a", 0.0, 10.0),)
        assert engine.violation([12.5], cons) == -2.5
        assert engine.violation([-4.0], cons) == -4.0

    def test_multiple_constraints_add(self):
        cons = (engine.Constraint("a", 0.0, 1.0), engine.Constraint("b", upper=0.0))
        assert engine.violation([2.0, 3.0], cons) == -4.0

    def test_boundless_constraints_give_one_value_per_product(self):
        cons = (engine.Constraint("a"), engine.Constraint("b", -np.inf, np.inf))
        vec = engine.violation([np.array([-3.0, 0.0, 7.0]), np.array([1.0, 2.0, 3.0])], cons)
        assert vec.tolist() == [0.0, 0.0, 0.0]

    def test_vectorized_matches_scalar(self):
        cons = (engine.Constraint("a", -1.0, 1.0), engine.Constraint("b", 0.0, 2.0))
        a = np.array([-2.0, 0.0, 3.0])
        b = np.array([1.0, -1.0, 1.0])
        vec = engine.violation([a, b], cons)
        for i in range(3):
            assert vec[i] == engine.violation([a[i], b[i]], cons)

    @given(
        v=st.floats(-100, 100),
        lo=st.floats(-50, 49),
        width=st.floats(0.5, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonpositive_and_zero_iff_feasible(self, v, lo, width):
        cons = (engine.Constraint("a", lo, lo + width),)
        c = engine.violation([v], cons)
        assert c <= 0.0
        assert (c == 0.0) == (lo <= v <= lo + width)

    def test_bad_bounds_rejected(self):
        with pytest.raises(engine.EngineError, match="lower < upper"):
            engine.Constraint("a", 1.0, 1.0)

    @given(bounds=st.lists(st.sampled_from([(-np.inf, 0.0), (0.0, np.inf), (-1.0, 1.0), (-np.inf, np.inf)]),
                           max_size=4),
           values=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_key_violation_is_violation_per_product(self, bounds, values):
        # on finite values the hinges of infinite bounds are skipped with the
        # same bits, one value per product (a scalar with no constraints)
        cons = tuple(engine.Constraint(f"c{i}", lo, hi) for i, (lo, hi) in enumerate(bounds))
        vals = [np.asarray(values[i:] + values[:i]) for i in range(len(cons))]
        expected = np.broadcast_to(reference_violation(vals, cons), (4,))
        got = engine.violation(vals, cons)
        assert np.shape(got) == ((4,) if cons else ())
        assert np.broadcast_to(got, (4,)).tobytes() == expected.tobytes()


class TestQuerySpec:
    def test_bad_direction(self):
        with pytest.raises(engine.EngineError, match="direction"):
            engine.QuerySpec("obj", "up")

    def test_negative_k(self):
        with pytest.raises(engine.EngineError, match="k"):
            engine.QuerySpec("obj", "maximize", k=-1)

    def test_validate_unknown_constraint_task(self, exact_setup):
        _, _, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("nope"),))
        with pytest.raises(engine.EngineError, match="unknown task"):
            q.validate_tasks(table)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bounds, bias, refused", [
        ([(0.75, math.inf)], 0.0, False), ([(0.75, math.inf)], 0.3, True), ([(-math.inf, math.inf)], 0.9, False),
        ([(-1.0, 1.0)], 0.0, True), ([(0.6, math.inf), (-math.inf, -0.6)], 0.0, True),
    ])
    def test_bounds_that_can_overflow_the_violation_are_refused(self, bounds, bias, refused):
        # bounds and the constraint task's bias as fractions of the float64
        # range: |bound| plus the task's largest |value|, summed over the
        # finite bounds, must be finite; an accepted query scans with no warning
        top = np.finfo(np.float64).max
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=2, components=(2, 3), synthons_per_rgroup=3), seed=0
        )
        n_pairs = pair_count(library)
        table = table_from_values(library, ["obj", "c"], [np.arange(n_pairs), np.ones(n_pairs)], [0.0, bias * top])
        cons = tuple(engine.Constraint("c", lo * top, hi * top) for lo, hi in bounds)
        q = engine.QuerySpec("obj", "maximize", cons, k=5)
        if refused:
            with pytest.raises(engine.EngineError, match="overflow"):
                q.validate_tasks(table)
        else:
            q.validate_tasks(table)
            assert result_keys(engine.search_topk_stream(library, table, q), "maximize") == \
                result_keys(engine.search_topk_batched(library, table, q), "maximize")


QUERIES = [
    engine.QuerySpec("obj", "maximize", (), k=10),
    engine.QuerySpec("obj", "minimize", (), k=7),
    engine.QuerySpec("obj", "maximize", (engine.Constraint("c1", upper=0.5),), k=10),
    engine.QuerySpec(
        "obj",
        "minimize",
        (engine.Constraint("c1", -0.5, 0.5), engine.Constraint("c2", lower=-1.0)),
        k=25,
    ),
]


class TestSearchAgreement:
    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    def test_stream_matches_brute_force(self, exact_setup, qi):
        library, _, table = exact_setup
        q = QUERIES[qi]
        expected = brute_force_topk(library, table, q)
        got = engine.search_topk_stream(library, table, q)
        assert result_keys(got, q.direction) == expected

    @pytest.mark.parametrize("qi", range(len(QUERIES)))
    @pytest.mark.parametrize("k", [1, 7, 64, 10**6])
    def test_batched_matches_stream(self, exact_setup, qi, k):
        # k sets when the buffer compacts: after every block at k=1, never before the end at a k past the library size
        library, _, table = exact_setup
        q = dataclasses.replace(QUERIES[qi], k=k)
        a = engine.search_topk_stream(library, table, q)
        b = engine.search_topk_batched(library, table, q)
        assert result_keys(a, q.direction) == result_keys(b, q.direction)

    def test_tied_scores_break_on_index(self, small_library):
        # all-zero table: every product ties; top-k must be the smallest indices
        table = table_from_values(small_library, ["obj"], np.zeros((1, pair_count(small_library))), [0.0])
        q = engine.QuerySpec("obj", "maximize", (), k=5)
        for res in (
            engine.search_topk_stream(small_library, table, q),
            engine.search_topk_batched(small_library, table, q),
        ):
            assert res.global_index.tolist() == [0, 1, 2, 3, 4]

    def test_index_range_restriction(self, exact_setup):
        library, _, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=5)
        lo, hi = library.reaction_offset(1), csl.product_count(library)
        got = engine.search_topk_stream(library, table, q, index_range=(lo, hi))
        rows = []
        for g in range(lo, hi):
            chi = reference_decode(library, g)
            rows.append((apex_score(table, library, chi, "obj"), -g))
        rows.sort(reverse=True)
        assert [-g for _, g in rows[:5]] == got.global_index.tolist()
        assert got.scanned == hi - lo

    @pytest.mark.parametrize("search", [engine.search_topk_stream, engine.search_topk_batched])
    @pytest.mark.parametrize("span_of, reactions", [
        (lambda lib: (lib.reaction_offset(2), lib.reaction_offset(3)), [2]),
        (lambda lib: (lib.reaction_offset(1), lib.reaction_offset(3)), [1, 2]),
        (lambda lib: (lib.reaction_offset(2), lib.reaction_offset(2)), []),
    ], ids=["one_reaction", "two_reactions", "empty"])
    def test_views_only_for_reactions_in_range(self, medium_library, monkeypatch, search, span_of, reactions):
        table = random_table(medium_library, ["obj", "c"], np.random.default_rng(4))
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("c", upper=0.5),), k=20)
        built, view = [], engine._ReactionView
        monkeypatch.setattr(engine, "_ReactionView", lambda *a: built.append(a[2]) or view(*a))
        span = span_of(medium_library)
        got = search(medium_library, table, q, index_range=span)
        assert len(medium_library.reactions) == 4 and built == reactions
        assert result_keys(got, q.direction) == numpy_topk_keys(medium_library, table, q, span)

    def test_bad_index_range(self, exact_setup):
        # a range must start and end at reaction boundaries (0, 25 and 150), in order
        library, _, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=1)
        for start, end in [(10, 5), (25, 0), (4, 17), (0, 10), (10, 25), (30, 30), (-25, 25), (25, 151)]:
            for search in (engine.search_topk_stream, engine.search_topk_batched):
                with pytest.raises(engine.EngineError, match=rf"^index range \[{start}, {end}\) does not start"):
                    search(library, table, q, index_range=(start, end))


class TestSearchEdges:
    def test_k_zero(self, exact_setup):
        library, _, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (), k=0)
        res = engine.search_topk_stream(library, table, q)
        assert res.retained == 0
        res_b = engine.search_topk_batched(library, table, q)
        assert res_b.retained == 0

    def test_k_exceeds_library(self, exact_setup):
        library, _, table = exact_setup
        total = csl.product_count(library)
        q = engine.QuerySpec("obj", "maximize", (), k=total + 50)
        res = engine.search_topk_stream(library, table, q)
        assert res.retained == total
        assert sorted(res.global_index.tolist()) == list(range(total))

    def test_infeasible_entries_filtered_and_counted(self, exact_setup):
        library, _, table = exact_setup
        # impossible band: nothing satisfies c1 in [1e6, 1e6+1]
        q = engine.QuerySpec(
            "obj", "maximize", (engine.Constraint("c1", 1e6, 1e6 + 1),), k=8
        )
        res = engine.search_topk_stream(library, table, q)
        assert res.retained == 0
        assert res.discarded_for_violation == 8

    def test_entries_report_constraint_values(self, exact_setup):
        library, oracle, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("c1", upper=10.0),), k=3)
        res = engine.search_topk_stream(library, table, q)
        assert res.constraint_values.shape == (1, res.retained) == (1, 3)
        for g, v in zip(res.global_index.tolist(), res.constraint_values[0].tolist()):
            assert v == reference_ground_truth(oracle, library, reference_decode(library, g), "c1")


class TestBlockTable:
    @given(library=mixed_libraries(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_walk(self, library, data):
        # whole blocks that tile the reactions of an empty, one-reaction, run or whole span
        start, end = data.draw(reaction_spans(library))
        first, stop = engine.index_span(library.layout, (start, end))
        sizes = [math.prod(len(rg.synthon_ids) for rg in rx.rgroups) for rx in library.reactions]
        for t, size in enumerate(sizes):
            assert library.reaction_size(t) == size
            assert library.reaction_offset(t) == sum(sizes[:t])
        assert csl.product_count(library) == sum(sizes)
        got = library.layout.blocks(first, stop)
        assert all(a.dtype == np.int64 for a in got)
        assert list(zip(*(a.tolist() for a in got))) == list(reference_iter_blocks(library, first, stop))
        _, _, g0, size, _ = got
        assert np.concatenate(([start], g0 + size)).tolist() == np.concatenate((g0, [end])).tolist()

    def test_library_without_reactions(self):
        # a valid library with no products: every scan finds nothing
        library = csl.deserialize_library("cslv1 0 0 0\n")
        table = table_from_values(library, ["obj"], np.zeros((1, 0)), [0.0])
        q = engine.QuerySpec("obj", "maximize", (), k=5)
        for res in (engine.search_topk_stream(library, table, q), engine.search_topk_batched(library, table, q)):
            assert (res.retained, res.scanned, res.scored, res.discarded_for_violation) == (0, 0, 0, 0)
        assert all(len(a) == 0 for a in library.layout.blocks(0, 0))


class TestCost:
    def test_flops_formula(self):
        assert engine.precompute_flops_per_task(10, 4) == 2 * 10 * 4 - 10

    def test_small_library_accounting(self):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=4), seed=0
        )
        out = engine.cost_estimate(lib.layout, len(lib.synthons), d=8, k=5)
        assert out["synthon_encoder_evals"] == 12
        assert out["pair_rows_no_sharing"] == 12
        assert out["cache_bytes_no_sharing"] == 12 * 8 * 4
        assert out["precompute_flops_per_task_no_sharing"] == 2 * 12 * 8 - 12
        assert out["scoring_flops_total"] == 64 * 3
        assert out["k"] == 5


class TestTableIO:
    def test_roundtrip(self, exact_setup, tmp_path):
        library, _, table = exact_setup
        path = tmp_path / "table.blob"
        engine.save_table(table, path)
        loaded = engine.load_table(path, library)
        np.testing.assert_array_equal(loaded.values, table.values)
        np.testing.assert_array_equal(loaded.biases, table.biases)
        assert loaded.task_names == table.task_names
        assert loaded.fingerprint == table.fingerprint
        loaded.check_library(library)

    @pytest.mark.parametrize("change", [
        "values_1d", "values_short", "values_extra_task", "biases_short", "member_ids_short",
        "rg_offsets_long",
    ])
    def test_rejects_disagreeing_shapes(self, exact_setup, change):
        _, _, table = exact_setup
        fields = {
            "values_1d": {"values": table.values[0]},
            "values_short": {"values": table.values[:, :-3]},
            "values_extra_task": {"values": np.vstack([table.values, table.values[:1]])},
            "biases_short": {"biases": table.biases[:-1]},
            "member_ids_short": {"member_ids": table.member_ids[:-1]},
            "rg_offsets_long": {"rg_offsets": np.append(table.rg_offsets, table.rg_offsets[-1])},
        }[change]
        with pytest.raises(engine.EngineError, match="shapes"):
            dataclasses.replace(table, **fields)

    def test_load_rejects_every_truncation_and_trailing_bytes(self, exact_setup, tmp_path):
        library, _, table = exact_setup
        path = tmp_path / "table.blob"
        engine.save_table(table, path)
        data = path.read_bytes()
        damaged = [data[:n] for n in range(len(data))] + [data + b"\0" * 4]
        for blob in damaged:
            path.write_bytes(blob)
            with pytest.raises(BlobError):
                engine.load_table(path, library)

    def test_save_is_byte_deterministic(self, exact_setup, tmp_path):
        _, _, table = exact_setup
        p1, p2 = tmp_path / "a.blob", tmp_path / "b.blob"
        engine.save_table(table, p1)
        engine.save_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_result_tsv(self, exact_setup, tmp_path):
        library, _, table = exact_setup
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("c1", upper=10.0),), k=4)
        res = engine.search_topk_stream(library, table, q)
        path = tmp_path / "hits.tsv"
        engine.save_result(res, q, path, library, assemble=True)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + res.retained
        header = lines[0].split("\t")
        assert "rank" in header and "global_index" in header and "objective" in header
        first = lines[1].split("\t")
        assert int(first[header.index("global_index")]) == res.global_index[0]


# ---------------------------------------------------------------------------
# block skipping: the stream scan against the batched scan and a numpy brute force
# (conftest.numpy_topk_keys)
# ---------------------------------------------------------------------------

BOUND_CHOICES = [
    (float("-inf"), 0.0), (0.0, float("inf")), (-1.0, 1.0), (-0.5, 0.5),
    (1.0, 2.5), (float("-inf"), -1.0),
    (10.0, float("inf")),  # no product can satisfy it
]


@st.composite
def tied_search_cases(draw):
    library = csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 3)),
            components=draw(st.sampled_from([(2,), (3,), (2, 3), (3, 2)])),
            synthons_per_rgroup=draw(st.integers(1, 4)),
        ),
        seed=draw(st.integers(0, 3)),
    )
    n_cons = draw(st.integers(0, 3))
    tasks = ["obj"] + [f"c{i}" for i in range(n_cons)]
    n_pairs = pair_count(library)
    # three values only, so that keys tie on block bounds and on the k-th key
    levels = [-1.0, 0.0, 1.0]
    values = draw(st.lists(st.lists(st.sampled_from(levels), min_size=n_pairs, max_size=n_pairs),
                           min_size=len(tasks), max_size=len(tasks)))
    biases = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=len(tasks), max_size=len(tasks)))
    table = table_from_values(library, tasks, values, biases)
    constraints = tuple(
        engine.Constraint(f"c{i}", *draw(st.sampled_from(BOUND_CHOICES))) for i in range(n_cons)
    )
    total = csl.product_count(library)
    query = engine.QuerySpec(
        "obj", draw(st.sampled_from(["maximize", "minimize"])), constraints,
        k=draw(st.integers(0, total + 3)),
    )
    return library, table, query, draw(reaction_spans(library))


def _result_bytes(result, query, library):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "hits.tsv"
        engine.save_result(result, query, path, library, assemble=True)
        return path.read_bytes()


class TestBlockSkipping:
    @given(case=tied_search_cases(), cap=st.one_of(st.just(engine.GROUP_PRODUCTS), st.integers(1, 8)))
    @settings(max_examples=300, deadline=None)
    def test_stream_matches_batched_and_brute_force(self, case, cap):
        # a cap of a few products ends groups within reactions, and later
        # blocks of a group are filtered against a k-th key older than the
        # one the blocks before them raised
        library, table, query, (start, end) = case
        with mock.patch.object(engine, "GROUP_PRODUCTS", cap):
            stream = engine.search_topk_stream(library, table, query, index_range=(start, end))
            batched = engine.search_topk_batched(library, table, query, index_range=(start, end))
        expected = numpy_topk_keys(library, table, query, (start, end))
        assert result_keys(stream, query.direction) == expected
        assert result_keys(batched, query.direction) == expected
        assert stream.discarded_for_violation == batched.discarded_for_violation
        assert _result_bytes(stream, query, library) == _result_bytes(batched, query, library)
        assert stream.scanned == batched.scanned == end - start
        assert batched.scored == (end - start if query.k else 0)
        assert 0 <= stream.scored <= stream.scanned

    def test_group_spans_two_reactions_and_a_rising_kth(self):
        # three reactions of two 2-product blocks, objective rising with the index
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=3, components=(2,), synthons_per_rgroup=2), seed=0
        )
        table = table_from_values(library, ["obj", "c"], [np.arange(12.0), np.zeros(12)], [0.0, 0.0])
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("c", upper=0.5),), k=2)
        calls, group_keys, offer, unbeaten = [], engine._group_keys, engine._TopKBuffer.offer, \
            engine._TopKBuffer.unbeaten

        def record_keys(view, query, digit, g0):
            calls.append((g0.tolist(),))
            return group_keys(view, query, digit, g0)

        def record_offer(buf, *keys):
            # the k-th key the scored blocks' keys are offered against
            calls[-1] += (buf.kth,)
            return offer(buf, *keys)

        def record_stop(buf, *args):
            calls.append("|")
            return unbeaten(buf, *args)

        with mock.patch.object(engine, "GROUP_PRODUCTS", 5), mock.patch.object(engine, "_group_keys", record_keys), \
                mock.patch.object(engine._TopKBuffer, "offer", record_offer), \
                mock.patch.object(engine._TopKBuffer, "unbeaten", record_stop):
            got = engine.search_topk_batched(library, table, q)
        # groups of one block, then two of two blocks, one per reaction, the
        # k-th key rising between them (the width allows four, the 5-product
        # cap two), then one block
        assert calls == [
            "|", ([0], None),
            "|", ([2], (0.0, 2.0, 0)), ([4], (0.0, 3.0, 1)),
            "|", ([6], (0.0, 10.0, 4)), ([8], (0.0, 11.0, 5)),
            "|", ([10], (0.0, 18.0, 8)),
            "|",
        ]
        expected = numpy_topk_keys(library, table, q)
        assert result_keys(got, "maximize") == expected == [(0.0, 20.0, 11), (0.0, 19.0, 9)]
        assert got.scored == 12
        assert result_keys(engine.search_topk_stream(library, table, q), "maximize") == expected

    def test_infeasible_block_does_not_end_the_scan(self):
        # blocks (first digit 0, 1, 2) have objective bounds 15, 14, 13, but
        # block 1 violates the constraint throughout: visiting by objective
        # bound alone would stop there and miss the 13 of block 2
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(2,), synthons_per_rgroup=3), seed=0
        )
        values = [[10, 9, 8, 5, 0, 0], [0, 1, 0, 0, 0, 0]]
        table = table_from_values(library, ["obj", "c0"], values, [0.0, 0.0])
        q = engine.QuerySpec("obj", "maximize", (engine.Constraint("c0", upper=0.5),), k=2)
        res = engine.search_topk_stream(library, table, q)
        assert list(zip(res.global_index.tolist(), res.objective.tolist())) == [(0, 15.0), (6, 13.0)]
        assert res.scored == 6

    def test_block_tied_with_the_kth_key_is_scored(self):
        # block 1 (values 1, 1, 2) sets the k-th key to (0.0, 1.0, 3); block 0's
        # bound is 1.0 too, and its 1.0 at index 2 wins on the lower index
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(2,), synthons_per_rgroup=3), seed=0
        )
        table = table_from_values(library, ["obj"], [[0, 1, 0, 0, 0, 1]], [0.0])
        q = engine.QuerySpec("obj", "maximize", (), k=2)
        res = engine.search_topk_stream(library, table, q)
        assert list(zip(res.global_index.tolist(), res.objective.tolist())) == [(5, 2.0), (2, 1.0)]

    def test_dominant_block_skips_the_rest(self, medium_library):
        # every contribution is 0 except one first-digit row, so a single
        # block holds the top k and every other block's bound is below it
        values = np.zeros((1, pair_count(medium_library)))
        values[0, 3] = 5.0  # reaction 0, first R-group, digit 3
        table = table_from_values(medium_library, ["obj"], values, [0.0])
        block = medium_library.reaction_size(0) // len(medium_library.reactions[0].rgroups[0].synthon_ids)
        q = engine.QuerySpec("obj", "maximize", (), k=block // 2)
        stream = engine.search_topk_stream(medium_library, table, q)
        batched = engine.search_topk_batched(medium_library, table, q)
        assert stream.scored == block < stream.scanned == csl.product_count(medium_library)
        assert result_keys(stream, "maximize") == result_keys(batched, "maximize")
        assert stream.global_index.tolist() == list(range(3 * block, 3 * block + q.k))


# ---------------------------------------------------------------------------
# row prefixes: once the k-th key is feasible, the stream gathers only the
# prefix of each block row's last R-group that can reach it
# ---------------------------------------------------------------------------

# float32 values whose float64 sums land within an ulp of each other near 1.0
# and 0.5, with signed zeros, so keys tie with the k-th key, sit one ulp
# either side of it, or reach it only through rounding
ULP_LEVELS = [1.0, -1.0, 0.5, 0.0, -0.0, 2.0 ** -52, -2.0 ** -52, 2.0 ** -53, -2.0 ** -53, 2.0 ** -54, -2.0 ** -54]


@st.composite
def prefix_search_cases(draw):
    library = csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 3)),
            components=draw(st.sampled_from([(2,), (3,), (4,), (2, 3), (3, 4), (4, 2)])),
            synthons_per_rgroup=draw(st.integers(2, 5)),
        ),
        seed=draw(st.integers(0, 3)),
    )
    n_cons = draw(st.integers(0, 2))
    tasks = ["obj"] + [f"c{i}" for i in range(n_cons)]
    n_pairs = pair_count(library)
    values = draw(st.lists(st.lists(st.sampled_from(ULP_LEVELS), min_size=n_pairs, max_size=n_pairs),
                           min_size=len(tasks), max_size=len(tasks)))
    biases = draw(st.lists(st.sampled_from([0.0, -0.0, 2.0 ** -53, 0.1, -1.0]), min_size=len(tasks),
                           max_size=len(tasks)))
    table = table_from_values(library, tasks, values, biases)
    constraints = tuple(
        engine.Constraint(f"c{i}", *draw(st.sampled_from(BOUND_CHOICES))) for i in range(n_cons)
    )
    total = csl.product_count(library)
    # mostly a k well below the range's size, so that the k-th key becomes
    # feasible while blocks are left to visit
    k = draw(st.integers(1, max(1, total // 4)))
    query = engine.QuerySpec("obj", draw(st.sampled_from(["maximize", "minimize"])), constraints, k=k)
    return library, table, query, draw(reaction_spans(library))


def _two_rgroup_library(first, last):
    """One reaction of two R-groups with `first` and `last` synthons."""
    synthons = tuple(csl.SynthonRecord(i, f"a*{i}") for i in range(first + last))
    library = csl.CslLibrary((csl.ReactionSpec(0, (csl.RgroupSpec(0, tuple(range(first))),
                                                   csl.RgroupSpec(1, tuple(range(first, first + last))))),),
                             synthons)
    csl.check_library(library)
    return library


def _record_range_parts():
    """A patch of `engine._range_keys` and the list it records each call's
    (first digits, range lengths) in."""
    calls, range_keys = [], engine._range_keys

    def record(view, query, digit, g0, h, starts, counts):
        calls.append((digit.tolist(), counts.tolist()))
        return range_keys(view, query, digit, g0, h, starts, counts)

    return calls, mock.patch.object(engine, "_range_keys", record)


class TestRowPrefixes:
    @given(case=prefix_search_cases())
    @settings(max_examples=200, deadline=None)
    def test_whole_prefixes_key_as_the_blocks_do(self, case):
        # with no k-th key to reach, feasible (objective -inf) or not (violation
        # -inf), every row's range is the whole row, and the gathered products'
        # keys are those of scoring the blocks: one summation routine (row
        # sums, then the last R-group, then the bias)
        library, table, query, span = case
        blocks = np.stack(library.layout.blocks(*engine.index_span(library.layout, span)))
        for t in np.unique(blocks[0]).tolist():
            digit, g0 = blocks[1:3, blocks[0] == t]
            view = engine._ReactionView(table, library.layout, t, query.tasks)
            for kth in [(0.0, -np.inf, 0)] + [(-np.inf, 0.0, 0)] * bool(query.constraints):
                h, starts, counts = view.row_ranges(digit, query, kth)
                assert (counts == len(view.per_task[0][-1])).all()
                # the row sums of the tasks searched: the objective's, or every constraint's
                assert list(h) == ([0] if kth[0] == 0.0 else list(range(1, len(query.tasks))))
                assert [a.tobytes() for a in h.values()] == [view.row_sums(i, digit).tobytes() for i in h]
                gathered = engine._range_keys(view, query, digit, g0, h, starts, counts)
                scored = engine._group_keys(view, query, digit, g0)
                assert [np.asarray(x)[np.argsort(gathered[2])].tobytes() for x in gathered] == \
                    [np.asarray(x)[np.argsort(scored[2])].tobytes() for x in scored]

    @given(case=prefix_search_cases(), cap=st.one_of(st.just(engine.GROUP_PRODUCTS), st.integers(1, 8)))
    @settings(max_examples=300, deadline=None)
    def test_stream_matches_batched_and_brute_force(self, case, cap):
        library, table, query, span = case
        with mock.patch.object(engine, "GROUP_PRODUCTS", cap):
            stream = engine.search_topk_stream(library, table, query, index_range=span)
            batched = engine.search_topk_batched(library, table, query, index_range=span)
        expected = numpy_topk_keys(library, table, query, span)
        assert result_keys(stream, query.direction) == expected
        assert result_keys(batched, query.direction) == expected
        assert stream.discarded_for_violation == batched.discarded_for_violation
        assert _result_bytes(stream, query, library) == _result_bytes(batched, query, library)

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_margin_keeps_a_value_that_reaches_the_kth_only_by_rounding(self, direction):
        # block 1 (first contribution 1 + 2^-23) is visited first and sets the
        # k-th key to 1.0 at index 3; in block 0, 1.0 + -2^-54 rounds to 1.0,
        # which ties it and wins on index 0, though -2^-54 < ts - h - b = 0
        sign = 1.0 if direction == "maximize" else -1.0
        library = _two_rgroup_library(2, 2)
        values = sign * np.array([1.0, 1.0 + 2.0 ** -23, -2.0 ** -54, -2.0 ** -23])
        table = table_from_values(library, ["obj"], [values], [0.0])
        q = engine.QuerySpec("obj", direction, (), k=2)
        calls, record = _record_range_parts()
        with record:
            got = engine.search_topk_stream(library, table, q)
        assert calls == [([0], [[1]])]
        assert result_keys(got, direction) == numpy_topk_keys(library, table, q) == [
            (0.0, 1.0 + 2.0 ** -23, 2), (0.0, 1.0, 0)]

    def test_empty_and_full_row_prefixes(self):
        # block 0 sets the k-th key to 5.5; block 1 (bound 6.5) has rows of
        # h = 4, -96 and 6 against last contributions 0, 0.5, 0.25
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(3,), synthons_per_rgroup=3), seed=0
        )
        values = [5.0, 4.0, -10.0, 0.0, -100.0, 2.0, 0.0, 0.5, 0.25]
        table = table_from_values(library, ["obj"], [values], [0.0])
        q = engine.QuerySpec("obj", "maximize", (), k=4)
        calls, record = _record_range_parts()
        with record:
            got = engine.search_topk_stream(library, table, q)
        assert calls == [([1], [[0, 0, 3]])]
        assert result_keys(got, "maximize") == numpy_topk_keys(library, table, q) == [
            (0.0, 7.5, 7), (0.0, 7.25, 8), (0.0, 7.0, 6), (0.0, 6.5, 16)]

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_last_rgroup_of_one_synthon(self, direction):
        # every row is one product, whose value is its block's bound: blocks 2,
        # 3 and 5 tie with the k-th key (0.7 at index 1), and each one's range
        # is its whole one-product row, which loses on its index; a range
        # that holds the whole block is scored whole, not gathered
        sign = 1.0 if direction == "maximize" else -1.0
        library = _two_rgroup_library(7, 1)
        values = sign * np.array([0.9, 0.7, 0.7, 0.7, 0.3, 0.7, 0.2, 0.0])
        table = table_from_values(library, ["obj"], [values], [0.0])
        q = engine.QuerySpec("obj", direction, (), k=2)
        calls, record = _record_range_parts()
        searched, scored, row_ranges, group_keys = [], [], engine._ReactionView.row_ranges, engine._group_keys

        def record_search(view, first_digits, query, kth):
            found = row_ranges(view, first_digits, query, kth)
            searched.append((first_digits.tolist(), found[2].tolist()))
            return found

        def record_keys(view, query, digit, g0):
            scored.append(digit.tolist())
            return group_keys(view, query, digit, g0)

        with record, mock.patch.object(engine, "GROUP_PRODUCTS", 1), \
                mock.patch.object(engine._ReactionView, "row_ranges", record_search), \
                mock.patch.object(engine, "_group_keys", record_keys):
            got = engine.search_topk_stream(library, table, q)
        assert calls == []
        assert searched == [([d], [[1]]) for d in (2, 3, 5)]
        # blocks 0 and 1 fill the buffer, then each tied block is scored whole
        assert scored == [[0], [1], [2], [3], [5]]
        assert result_keys(got, direction) == numpy_topk_keys(library, table, q) == [
            (0.0, float(np.float32(0.9)), 0), (0.0, float(np.float32(0.7)), 1)]

    @pytest.mark.parametrize("cap", [3, 8, 50])
    @pytest.mark.parametrize("k", [5, 10])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("components, synthons", [((2,), 12), ((2, 3), 6)], ids=["rows_of_12", "rows_of_6"])
    def test_group_rule(self, cap, k, direction, components, synthons, upper=0.0):
        # blocks of one 12-product row, where the gathered products end
        # groups, or of one and six 6-product rows, where the rows do; a
        # constraint keeps the k-th key infeasible for the first groups
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=4, components=components, synthons_per_rgroup=synthons), seed=2
        )
        table = random_table(library, ["obj", "c"], np.random.default_rng(5))
        q = engine.QuerySpec("obj", direction, (engine.Constraint("c", upper=upper),), k=k)
        groups, group_keys, range_keys, row_ranges, unbeaten = [], engine._group_keys, engine._range_keys, \
            engine._ReactionView.row_ranges, engine._TopKBuffer.unbeaten

        def products(view, digit):
            return len(digit) * math.prod(len(a) for a in view.per_task[0][1:])

        def record_keys(view, query, digit, g0):
            groups[-1]["parts"].append(("score", view, len(digit), products(view, digit)))
            return group_keys(view, query, digit, g0)

        def record_ranges(view, query, digit, g0, h, starts, counts):
            groups[-1]["parts"].append(("gather", view, len(digit), products(view, digit)))
            return range_keys(view, query, digit, g0, h, starts, counts)

        def record_search(view, first_digits, query, kth):
            found = row_ranges(view, first_digits, query, kth)
            groups[-1]["searched"][view] = (kth[0], found[2], products(view, first_digits))
            return found

        def record_stop(buf, *args):
            groups.append({"parts": [], "searched": {}})
            return unbeaten(buf, *args)

        with mock.patch.object(engine, "GROUP_PRODUCTS", cap), mock.patch.object(engine, "_group_keys", record_keys), \
                mock.patch.object(engine, "_range_keys", record_ranges), \
                mock.patch.object(engine._ReactionView, "row_ranges", record_search), \
                mock.patch.object(engine._TopKBuffer, "unbeaten", record_stop):
            got = engine.search_topk_stream(library, table, q)
        groups = [g for g in groups if g["parts"]]
        # a group takes at most twice the blocks the group before it kept,
        # and hands row_ranges no more than that
        for before, g in zip(groups, groups[1:]):
            kept = sum(part[2] for part in before["parts"])
            assert sum(part[2] for part in g["parts"]) <= 2 * kept
            assert sum(len(counts) for _, counts, _ in g["searched"].values()) <= 2 * kept
        # the groups before the buffer holds k keys score whole blocks; every
        # group after it searches ranges
        first = next(i for i, g in enumerate(groups) if g["searched"])
        assert all(g["searched"] for g in groups[first:]) and not any(g["searched"] for g in groups[:first])
        for g in groups:
            blocks = sum(part[2] for part in g["parts"])
            if not g["searched"]:
                assert {part[0] for part in g["parts"]} == {"score"}
                assert sum(part[3] for part in g["parts"]) <= cap or blocks == 1
                continue
            cost = rows = 0
            for kind, view, n, size in g["parts"]:
                _, counts, searched = g["searched"][view]
                # a reaction's part is scored whole when its ranges hold more
                # than half the products searched, feasible k-th key or not
                whole = 2 * int(counts.sum()) > searched
                assert kind == ("score" if whole else "gather")
                # a block costs the products its ranges hold, or all of them when scored whole
                cost, rows = cost + (size if whole else int(counts[:n].sum())), rows + counts[:n].size
            assert (cost <= cap and rows <= cap) or blocks == 1
        if upper == 0.0 and components == (2,) and cap < synthons:
            # groups grow by what they gather: some hold blocks whose products pass the cap
            assert any(g["searched"] and sum(part[2] for part in g["parts"]) > 1
                       and sum(part[3] for part in g["parts"]) > cap for g in groups)
        assert result_keys(got, direction) == numpy_topk_keys(library, table, q)

    @pytest.mark.parametrize("cap", [3, 8, 20, 50])
    @pytest.mark.parametrize("k", [5, 10])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("components, synthons", [((2,), 12), ((2, 3), 6)], ids=["rows_of_12", "rows_of_6"])
    def test_group_rule_under_a_tight_bound(self, cap, k, direction, components, synthons):
        # a tighter bound keeps the k-th key infeasible for longer, so that
        # its ranges narrow: some parts are gathered and some scored whole
        # before it is feasible (a cap of 20 holds several such blocks)
        self.test_group_rule(cap, k, direction, components, synthons, upper=-2.0)


# ---------------------------------------------------------------------------
# constraint ranges: while the k-th key is infeasible, the stream gathers each
# block row's narrowest constraint range
# ---------------------------------------------------------------------------

# bounds on and between the sums of ULP_LEVELS, so that values sit on a bound
# or an ulp either side of it; one side, both, or none finite
RANGE_BOUNDS = [
    (float("-inf"), 1.0), (1.0, float("inf")), (0.5, 1.0), (-1.0, 0.5), (0.0, float("inf")),
    (float("-inf"), -2.0 ** -53), (1.5, 2.0), (2.0, float("inf")), (float("-inf"), float("inf")),
]


@st.composite
def range_search_cases(draw):
    library = csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 3)),
            components=draw(st.sampled_from([(2,), (3,), (4,), (2, 3), (3, 4), (4, 2)])),
            synthons_per_rgroup=draw(st.integers(2, 4)),
        ),
        seed=draw(st.integers(0, 3)),
    )
    n_cons = draw(st.integers(1, 3))
    tasks = ["obj"] + [f"c{i}" for i in range(n_cons)]
    n_pairs = pair_count(library)
    values = draw(st.lists(st.lists(st.sampled_from(ULP_LEVELS), min_size=n_pairs, max_size=n_pairs),
                           min_size=len(tasks), max_size=len(tasks)))
    biases = draw(st.lists(st.sampled_from([0.0, -0.0, 2.0 ** -53, 0.1, -1.0]), min_size=len(tasks),
                           max_size=len(tasks)))
    table = table_from_values(library, tasks, values, biases)
    constraints = tuple(
        engine.Constraint(f"c{i}", *draw(st.sampled_from(RANGE_BOUNDS))) for i in range(n_cons)
    )
    direction = draw(st.sampled_from(["maximize", "minimize"]))
    start, end = span = draw(reaction_spans(library))
    # k above the span's feasible count, so that the k-th key, once held, stays infeasible
    feasible = len(numpy_topk_keys(library, table, engine.QuerySpec("obj", direction, constraints, k=end - start),
                                   span))
    k = draw(st.integers(feasible + 1, max(feasible + 1, end - start)))
    return library, table, engine.QuerySpec("obj", direction, constraints, k=k), span


def _scan_keys(library, table, query, span=None, bounded=True):
    """The scan's whole top k, infeasible keys too, as numpy_topk_keys lists them."""
    layout = library.layout
    c, s, g, *_ = engine.scan_topk(layout, lambda t: engine._ReactionView(table, layout, t, query.tasks), query,
                                   query.k, span, bounded)
    return list(zip(c.tolist(), s.tolist(), g.tolist()))


class TestConstraintRanges:
    @given(case=range_search_cases(), cap=st.one_of(st.just(engine.GROUP_PRODUCTS), st.integers(1, 8)))
    @settings(max_examples=300, deadline=None)
    def test_stream_matches_batched_and_brute_force(self, case, cap):
        library, table, query, span = case
        with mock.patch.object(engine, "GROUP_PRODUCTS", cap):
            stream = engine.search_topk_stream(library, table, query, index_range=span)
            batched = engine.search_topk_batched(library, table, query, index_range=span)
            kept = [_scan_keys(library, table, query, span, bounded) for bounded in (True, False)]
        expected = numpy_topk_keys(library, table, query, span, feasible_only=False)
        assert kept == [expected, expected]
        assert result_keys(stream, query.direction) == result_keys(batched, query.direction) == \
            [key for key in expected if key[0] >= 0.0]
        assert stream.discarded_for_violation == batched.discarded_for_violation
        assert _result_bytes(stream, query, library) == _result_bytes(batched, query, library)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_margin_keeps_a_violation_that_reaches_the_kth_only_by_rounding(self, side):
        # every product violates the bound; block 1 (first contribution
        # 1 + 2^-23) is visited first and sets the k-th violation to -1.0 at
        # index 3; in block 0, 1.0 + -2^-54 rounds to 1.0, whose violation
        # ties it and wins on index 0, though -2^-54 is below the range's
        # exact threshold, lower + tc - h - b = 0 (the upper side mirrors it)
        sign = 1.0 if side == "lower" else -1.0
        library = _two_rgroup_library(2, 2)
        values = sign * np.array([1.0, 1.0 + 2.0 ** -23, -2.0 ** -54, -2.0 ** -23])
        table = table_from_values(library, ["obj", "c"], [np.zeros(4), values], [0.0, 0.0])
        con = engine.Constraint("c", lower=2.0) if side == "lower" else engine.Constraint("c", upper=-2.0)
        q = engine.QuerySpec("obj", "maximize", (con,), k=2)
        calls, record = _record_range_parts()
        with record:
            got = engine.search_topk_stream(library, table, q)
            kept = _scan_keys(library, table, q)
        # both scans gather one product of block 0's one row
        assert calls == [([0], [[1]])] * 2
        assert kept == numpy_topk_keys(library, table, q, feasible_only=False) == [
            (-(1.0 - 2.0 ** -23), 0.0, 2), (-1.0, 0.0, 0)]
        assert got.retained == 0 and got.discarded_for_violation == 2

    def test_infeasible_kth_offers_fewer_keys(self):
        # a tight query: three lower bounds at their tasks' 95th percentile,
        # which few products meet, and k above their count; the buffer is
        # offered the keys of each block row's narrowest range, far fewer than
        # the products of the blocks the scan reaches
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=3, components=(2, 3), synthons_per_rgroup=30), seed=1
        )
        total = csl.product_count(library)
        table = random_table(library, ["obj", "a", "b", "c"], np.random.default_rng(7))
        cons = tuple(engine.Constraint(t, lower=float(np.quantile(engine.search_topk_batched(
            library, table, engine.QuerySpec(t, "maximize", (), k=total)).objective, 0.95))) for t in "abc")
        q = engine.QuerySpec("obj", "maximize", cons, k=50)
        offered, offer = [], engine._TopKBuffer.offer
        calls, record = _record_range_parts()

        def record_offer(buf, c, s, g):
            offered.append(len(g))
            return offer(buf, c, s, g)

        with record, mock.patch.object(engine._TopKBuffer, "offer", record_offer):
            stream = engine.search_topk_stream(library, table, q)
        feasible = numpy_topk_keys(library, table, q)
        assert result_keys(stream, "maximize") == feasible and 0 < len(feasible) < q.k
        assert _scan_keys(library, table, q) == _scan_keys(library, table, q, bounded=False)
        # scoring whole blocks offers every product of the blocks the scan reaches
        assert calls and sum(offered) < stream.scored // 4

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_candidate_bounds(self, direction):
        # two constraints keep the k-th key infeasible for the first groups;
        # while it is, `row_ranges` sums and sorts every constraint's task and
        # not the objective's, and once it is feasible the objective's alone
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=4, components=(2, 3), synthons_per_rgroup=6), seed=2
        )
        table = random_table(library, ["obj", "a", "b"], np.random.default_rng(5))
        q = engine.QuerySpec("obj", direction, (engine.Constraint("a", upper=0.0), engine.Constraint("b", lower=0.0)),
                             k=30)
        searches, summed, row_ranges, row_sums = [], [], engine._ReactionView.row_ranges, engine._ReactionView.row_sums

        def record_sums(view, task_pos, first_digits):
            summed.append(task_pos)
            return row_sums(view, task_pos, first_digits)

        def record_search(view, first_digits, query, kth):
            before = set(view.sorted_last)
            summed.clear()
            found = row_ranges(view, first_digits, query, kth)
            searches.append((kth[0] < 0.0, view, list(summed), set(view.sorted_last) - before))
            return found

        with mock.patch.object(engine, "GROUP_PRODUCTS", 8), \
                mock.patch.object(engine._ReactionView, "row_ranges", record_search), \
                mock.patch.object(engine._ReactionView, "row_sums", record_sums):
            got = engine.search_topk_stream(library, table, q)
        assert {infeasible for infeasible, *_ in searches} == {True, False}
        seen = set()
        for infeasible, view, sums, sorts in searches:
            assert sums == ([1, 2] if infeasible else [0])
            # each view sorts a task at its first search under that task's bound
            assert sorts == ({1, 2} if infeasible else {0}) - {t for v, t in seen if v is view}
            seen |= {(view, t) for t in sorts}
        assert result_keys(got, direction) == numpy_topk_keys(library, table, q)


# ---------------------------------------------------------------------------
# the partition-compacting buffer against the lexsort buffer it replaced
# ---------------------------------------------------------------------------

class ReferenceTopKBuffer:
    """The buffer that the partition compaction replaced: every compaction
    lexsorts the kept and pending keys and keeps the first k."""

    def __init__(self, k):
        self.k = k
        self.c = np.empty(0)
        self.s = np.empty(0)
        self.g = np.empty(0, dtype=np.int64)
        self.pending = []
        self.n_pending = 0
        self.kth = None

    def offer(self, c, s, g):
        if self.kth is not None:
            tc, ts, tg = self.kth
            keep = np.flatnonzero((c > tc) | ((c == tc) & ((s > ts) | ((s == ts) & (g < tg)))))
            c, s, g = c[keep], s[keep], g[keep]
        if len(g):
            self.pending.append((c, s, g))
            self.n_pending += len(g)
            if self.n_pending >= self.k:
                self._compact()

    def _compact(self):
        c = np.concatenate([self.c] + [p[0] for p in self.pending])
        s = np.concatenate([self.s] + [p[1] for p in self.pending])
        g = np.concatenate([self.g] + [p[2] for p in self.pending])
        best = np.lexsort((g, -s, -c))[: self.k]
        self.c, self.s, self.g = c[best], s[best], g[best]
        self.pending, self.n_pending = [], 0
        if 0 < len(best) == self.k:
            self.kth = (float(self.c[-1]), float(self.s[-1]), int(self.g[-1]))

    def kept(self):
        self._compact()
        return self.c, self.s, self.g


@st.composite
def offer_sequences(draw):
    """Blocks of heavily tied keys over a shuffled set of global indices, each
    block sorted by index as a scan offers it, with signed zeros on both keys;
    k from 0 to past the number of keys, and optional compactions between."""
    n = draw(st.integers(0, 60))
    violations = draw(st.lists(st.sampled_from([0.0, -0.0, -1.0, -2.5]), min_size=2, max_size=3))
    objectives = draw(st.lists(st.sampled_from([1.0, 0.0, -0.0, -3.0, 2.0]), min_size=2, max_size=3))
    c = np.asarray(draw(st.lists(st.sampled_from(violations), min_size=n, max_size=n)), dtype=np.float64)
    s = np.asarray(draw(st.lists(st.sampled_from(objectives), min_size=n, max_size=n)), dtype=np.float64)
    g = np.asarray(draw(st.permutations(range(n))), dtype=np.int64) + draw(st.integers(0, 5))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        order = np.argsort(g[lo:hi]) + lo
        blocks.append((c[order], s[order], g[order], draw(st.booleans())))
    return draw(st.integers(0, n + 2)), blocks


class TestPartitionBuffer:
    @given(case=offer_sequences())
    @settings(max_examples=500, deadline=None)
    def test_matches_lexsort_buffer(self, case):
        k, blocks = case
        new, ref = engine._TopKBuffer(k), ReferenceTopKBuffer(k)
        for c, s, g, compact in blocks:
            new.offer(c, s, g)
            ref.offer(c, s, g)
            if compact:
                new.compact()
                ref._compact()
            assert repr(new.kth) == repr(ref.kth)
        for got, want in zip(new.kept(), ref.kept()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert repr(new.kth) == repr(ref.kth)


def reference_save_result(keys, query, path, library, table, with_assembled):
    """The per-hit writer that the columnar save_result replaced: the scalar decode,
    apex_score and assemble once per hit, one f-string per row. `keys` are the
    feasible (violation, signed objective, global index) keys, best first."""
    cols = engine.RESULT_HEADER_PREFIX
    for con in query.constraints:
        cols += f"\t{con.task}"
    if with_assembled:
        cols += "\tassembled"
    with open(path, "w") as fh:
        fh.write(cols + "\n")
        for rank, (c, s, g) in enumerate(keys):
            chi = reference_decode(library, g)
            obj = s if query.direction == "maximize" else -s
            sids = ",".join(map(str, chi.synthon_ids()))
            row = f"{rank}\t{g}\t{chi.reaction_id}\t{sids}\t{obj!r}\t{c!r}"
            for con in query.constraints:
                row += f"\t{apex_score(table, library, chi, con.task)!r}"
            if with_assembled:
                row += f"\t{assemble(library, chi)}"
            fh.write(row + "\n")


@st.composite
def export_cases(draw):
    library = csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 4)),
            components=draw(st.sampled_from([(2, 3), (3, 2), (3,), (2,)])),
            synthons_per_rgroup=draw(st.integers(1, 5)),
            alphabet_size=2,
            token_length=draw(st.integers(1, 3)),
            share_rate=draw(st.sampled_from([0.3, 0.8])),
        ),
        seed=draw(st.integers(0, 50)),
    )
    n_cons = draw(st.integers(0, 3))
    tasks = ["obj"] + [f"c{i}" for i in range(n_cons)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.standard_normal((len(tasks), pair_count(library))).astype(np.float32)
    # signed zeros, common enough that whole products sum to -0.0 before the bias
    u = rng.random(values.shape)
    values[u < 0.5] = -0.0
    values[u < 0.15] = 0.0
    biases = [draw(st.sampled_from([0.0, -0.0, 0.25, -1.5])) for _ in tasks]
    table = table_from_values(library, tasks, values, biases)
    constraints = tuple(
        engine.Constraint(f"c{i}", *draw(st.sampled_from(BOUND_CHOICES))) for i in range(n_cons)
    )
    total = csl.product_count(library)
    query = engine.QuerySpec(
        "obj", draw(st.sampled_from(["maximize", "minimize"])), constraints,
        k=draw(st.integers(0, total + 3)),
    )
    return library, table, query


class TestColumnarExport:
    @given(
        case=export_cases(),
        variant=st.sampled_from(["stream", "batched"]),
        assemble=st.booleans(),
        chunk_rows=st.integers(1, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_save_result_matches_per_hit_writer(self, case, variant, assemble, chunk_rows):
        library, table, query = case
        total = csl.product_count(library)
        if variant == "stream":
            result = engine.search_topk_stream(library, table, query)
        else:
            result = engine.search_topk_batched(library, table, query)
        keys = numpy_topk_keys(library, table, query)
        with tempfile.TemporaryDirectory() as d:
            got, want = Path(d) / "got.tsv", Path(d) / "want.tsv"
            with mock.patch.object(engine, "RESULT_CHUNK_ROWS", chunk_rows):
                engine.save_result(result, query, got, library, assemble)
            reference_save_result(keys, query, want, library, table, assemble)
            assert got.read_bytes() == want.read_bytes()


class TestNonFiniteTables:
    @pytest.mark.parametrize("bad", ["nan_value", "inf_value", "inf_bias"])
    def test_constructor_rejects(self, small_library, bad):
        values, biases = np.zeros((1, pair_count(small_library))), np.zeros(1)
        if bad == "nan_value":
            values[0, 2] = np.nan
        elif bad == "inf_value":
            values[0, 2] = -np.inf
        else:
            biases[0] = np.inf
        with pytest.raises(engine.EngineError, match="non-finite"):
            table_from_values(small_library, ["obj"], values, biases)

    def test_precompute_rejects(self, exact_setup):
        library, _, table = exact_setup
        fc = props.FeatureConfig()
        cache = SimpleNamespace(u=np.ones((table.n_pairs, 2)), layout=library.layout, fingerprint=table.fingerprint,
                                feature_config=fc)
        surrogate = SimpleNamespace(head_w=np.array([[1.0, np.nan]]), head_b=np.zeros(1), task_names=["obj"],
                                    feature_config=fc)
        with pytest.raises(engine.EngineError, match="non-finite"):
            engine.precompute_contributions(cache, surrogate)

    def test_load_and_cli_reject(self, exact_setup, tmp_path, capsys):
        library, _, table = exact_setup
        bad = engine.ContributionTable(
            values=table.values.copy(), biases=table.biases, task_names=table.task_names,
            member_ids=table.member_ids, rg_offsets=table.rg_offsets, rg_ids=table.rg_ids,
            fingerprint=table.fingerprint,
        )
        bad.values[0, 0] = np.nan  # written behind the constructor's back
        engine.save_table(bad, tmp_path / "table.blob")
        with pytest.raises(engine.EngineError, match="non-finite"):
            engine.load_table(tmp_path / "table.blob", library)

        csl.save_library(library, tmp_path / "lib.csl")
        (tmp_path / "query.json").write_text('{"objective": {"task": "obj"}, "k": 3}')
        code = cli.main([
            "search", "--library", str(tmp_path / "lib.csl"), "--table", str(tmp_path / "table.blob"),
            "--query", str(tmp_path / "query.json"), "--out", str(tmp_path / "hits.tsv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "non-finite" in err and len(err.strip().splitlines()) == 1
