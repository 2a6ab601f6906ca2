import dataclasses
import json
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apexcsl import csl, props, surrogate
from conftest import (MultiIndex, enumerate_products, mixed_libraries, product_features, reference_decode,
                      reference_ground_truth)

# few distinct values, signed zeros included: synthon vectors and latents tie
LEVELS = [-1.0, -0.5, -0.0, 0.0, 0.25, 1.0]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _columns(ds):
    """A label set's columns, dtypes and value bits, for equality checks."""
    cols = (ds.global_index, ds.task, ds.value)
    return [c.dtype.str for c in cols], ds.global_index.tolist(), ds.task.tolist(), _bits(ds.value), ds.task_names


def reference_save_labels(dataset, path, library):
    """The per-row label writer `save_labels` replaced: one scalar decode per label."""
    with open(path, "w") as fh:
        fh.write(props.LABEL_HEADER + "\n")
        for g, t, v in zip(dataset.global_index.tolist(), dataset.task.tolist(), dataset.value.tolist()):
            chi = reference_decode(library, g)
            sids = ",".join(map(str, chi.synthon_ids()))
            fh.write(f"{chi.reaction_id}\t{sids}\t{dataset.task_names[t]}\t{v!r}\n")


MODES = ["additive", "additive+nonlinear", "additive+pairwise", "additive+nonlinear+pairwise"]


def _all_block_values(oracle, library, task):
    """oracle_block_values over every block of the library, in index order."""
    return np.concatenate([props.oracle_block_values(oracle, library, task, t, d)
                           for t, rx in enumerate(library.reactions) for d in range(len(rx.rgroups[0].synthon_ids))])


class TestSynthonFeatures:
    def test_identical_tokens_identical_vectors(self):
        a = props.synthon_features("abc*de")
        b = props.synthon_features("abc*de")
        assert np.array_equal(a, b)

    def test_length_one_token_single_bucket(self):
        v = props.synthon_features("a")
        assert np.count_nonzero(v) == 1

    def test_disjoint_ngrams_orthogonal(self):
        # distinct alphabets share no n-grams; cosine is 0 unless buckets collide
        cfg = props.FeatureConfig(p=4096)
        a = props.synthon_features("aaa", cfg)
        b = props.synthon_features("bbb", cfg)
        assert float(a @ b) == 0.0

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            props.synthon_features("")


class TestProductFeatures:
    def test_dimension(self, small_library):
        chi = reference_decode(small_library, 0)
        cfg = props.FeatureConfig(p=32, q=8)
        assert product_features(small_library, chi, cfg).shape == (40,)

    def test_first_p_coords_additive(self, small_library):
        cfg = props.FeatureConfig()
        mat = props.library_synthon_features(small_library, cfg)
        chi = reference_decode(small_library, 17)
        full = product_features(small_library, chi, cfg, mat)
        manual = np.zeros(cfg.p)
        for _, s in chi.assignment:
            manual += mat[s]
        np.testing.assert_allclose(full[: cfg.p], manual, rtol=0, atol=1e-12)

    def test_summed_part_permutation_invariant(self, small_library):
        cfg = props.FeatureConfig()
        chi = reference_decode(small_library, 60)  # 3-component reaction
        flipped = MultiIndex(chi.reaction_id, chi.assignment[::-1])
        a = product_features(small_library, chi, cfg)
        b = product_features(small_library, flipped, cfg)
        np.testing.assert_allclose(a[: cfg.p], b[: cfg.p], atol=1e-12)

    def test_single_component_crosses_with_itself(self):
        # degenerate one-R-group assignment: cross terms computed against itself
        synthons = (csl.SynthonRecord(0, "abc*"),)
        lib = csl.CslLibrary(
            reactions=(csl.ReactionSpec(0, (csl.RgroupSpec(0, (0,)),)),), synthons=synthons
        )
        chi = MultiIndex(0, ((0, 0),))
        cfg = props.FeatureConfig(p=16, q=4)
        v = props.synthon_features("abc*", cfg)
        out = product_features(lib, chi, cfg)
        np.testing.assert_allclose(out[:16], v)
        expected = props._cross_projection(16, 4, cfg.seed) @ (v * v)
        np.testing.assert_allclose(out[16:], expected)
        batch = props.product_feature_matrix(lib, np.array([[0]]), cfg)
        assert _bits(batch[0]) == _bits(out)


class TestBatchFeatures:
    """`product_feature_matrix` against the stacked per-product reference."""

    @given(library=mixed_libraries(), p=st.sampled_from([3, 8, 64]), q=st.sampled_from([0, 1, 16]),
           coarse=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_stacked_product_features(self, library, p, q, coarse, data):
        cfg = props.FeatureConfig(p=p, q=q, seed=data.draw(st.integers(0, 3)))
        if coarse:  # many synthons share a norm, and whole vectors repeat
            mat = np.asarray(data.draw(st.lists(
                st.sampled_from(LEVELS), min_size=len(library.synthons) * p,
                max_size=len(library.synthons) * p,
            ))).reshape(len(library.synthons), p)
        else:
            mat = props.library_synthon_features(library, cfg)
        total = csl.product_count(library)
        gidx = data.draw(st.lists(st.integers(0, total - 1), max_size=30))
        sids = library.layout.synthon_ids(*library.layout.decode(gidx))
        # the library's synthon features are built once, by library_synthon_features
        with mock.patch.object(props, "library_synthon_features", return_value=mat):
            batch = props.product_feature_matrix(library, sids, cfg)
        expected = [product_features(library, reference_decode(library, g), cfg, mat) for g in gidx]
        assert batch.shape == (len(gidx), p + q)
        assert _bits(batch) == _bits(np.reshape(expected, (len(gidx), p + q)))

    def test_synthon_features_built_once_per_config(self):
        library = csl.generate_synthetic(csl.SyntheticConfig(n_reactions=1, synthons_per_rgroup=3), seed=2)
        cfg, other = props.FeatureConfig(p=8, q=2), props.FeatureConfig(p=8, q=2, seed=1)
        with mock.patch.object(props, "library_synthon_features", wraps=props.library_synthon_features) as build:
            features, norms = props.synthon_features_of(library, cfg)
            again = props.synthon_features_of(library, cfg)
            assert build.call_count == 1
            assert again[0] is features and again[1] is norms
            other_features, _ = props.synthon_features_of(library, other)
            assert build.call_count == 2
        assert not features.flags.writeable and not norms.flags.writeable
        assert _bits(features) == _bits(props.library_synthon_features(library, cfg))
        assert _bits(norms) == _bits([np.linalg.norm(v) for v in features])
        assert _bits(other_features) == _bits(props.library_synthon_features(library, other))
        assert not np.array_equal(other_features, features)


class TestGroundTruth:
    def test_zero_latents_zero_everywhere(self, small_library):
        task = props.TaskDef("z", "additive", np.zeros(len(small_library.synthons)))
        oracle = props.GroundTruthOracle([task], seed=0)
        for g in range(0, csl.product_count(small_library), 7):
            chi = reference_decode(small_library, g)
            assert props.ground_truth(oracle, "z", chi.synthon_ids()) == 0.0

    def test_additive_equals_latent_sum(self, small_library):
        rng = np.random.default_rng(1)
        task = props.TaskDef("a", "additive", rng.standard_normal(len(small_library.synthons)))
        oracle = props.GroundTruthOracle([task], seed=0)
        chi = reference_decode(small_library, 42)
        expected = sum(task.latent[s] for _, s in chi.assignment)
        assert props.ground_truth(oracle, "a", chi.synthon_ids()) == pytest.approx(expected, rel=1e-12)

    def test_top_k_matches_brute_force(self, small_library, small_oracle):
        total = csl.product_count(small_library)
        vals = [
            reference_ground_truth(small_oracle, small_library, reference_decode(small_library, g), "dock_a")
            for g in range(total)
        ]
        top = sorted(range(total), key=lambda g: (-vals[g], g))[:10]
        # vectorized evaluation agrees with the brute-force scan
        blocks = []
        for rx in small_library.reactions:
            for j in range(len(rx.rgroups[0].synthon_ids)):
                blocks.append(
                    props.oracle_block_values(small_oracle, small_library, "dock_a", rx.reaction_id, j)
                )
        vec = np.concatenate(blocks)
        top_vec = sorted(range(total), key=lambda g: (-vec[g], g))[:10]
        assert top == top_vec

    def test_determinism(self, small_library, small_oracle):
        chi = reference_decode(small_library, 5)
        a = props.ground_truth(small_oracle, "dock_b", chi.synthon_ids())
        b = props.ground_truth(small_oracle, "dock_b", chi.synthon_ids())
        assert a == b

    def test_block_values_match_scalar(self, small_library, small_oracle):
        for task in ("dock_a", "mw"):
            blocks = []
            for rx in small_library.reactions:
                for j in range(len(rx.rgroups[0].synthon_ids)):
                    blocks.append(
                        props.oracle_block_values(small_oracle, small_library, task, rx.reaction_id, j)
                    )
            vec = np.concatenate(blocks)
            total = csl.product_count(small_library)
            scalar = np.asarray(
                [
                    reference_ground_truth(small_oracle, small_library, chi, task)
                    for chi in enumerate_products(small_library, 0, total)
                ]
            )
            assert np.array_equal(vec, scalar)

    def test_block_values_of_negative_zero_latents(self):
        # the additive base starts from 0.0, as in ground_truth: -0.0 + -0.0 stays -0.0
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(2,), synthons_per_rgroup=2), seed=0
        )
        task = props.TaskDef("z", "additive", np.full(len(library.synthons), -0.0))
        oracle = props.GroundTruthOracle([task], seed=0)
        vec = np.concatenate([props.oracle_block_values(oracle, library, "z", 0, j) for j in range(2)])
        total = csl.product_count(library)
        expected = [reference_ground_truth(oracle, library, chi, "z")
                    for chi in enumerate_products(library, 0, total)]
        assert total == 4
        assert _bits(vec) == _bits(expected) == _bits(np.zeros(4))
        assert _bits(vec) == _bits(props.oracle_values(oracle, library, "z", np.arange(total)))

    def test_unknown_task(self, small_library, small_oracle):
        with pytest.raises(props.OracleError, match="unknown task"):
            props.ground_truth(small_oracle, "nope", reference_decode(small_library, 0).synthon_ids())

    def test_nonlinear_is_bounded_shift(self, small_library):
        rng = np.random.default_rng(2)
        latent = rng.standard_normal(len(small_library.synthons))
        add = props.GroundTruthOracle([props.TaskDef("t", "additive", latent)], seed=0)
        nl = props.GroundTruthOracle(
            [props.TaskDef("t", "additive+nonlinear", latent, nonlinear_scale=0.7)], seed=0
        )
        chi = reference_decode(small_library, 33)
        delta = props.ground_truth(nl, "t", chi.synthon_ids()) - props.ground_truth(add, "t", chi.synthon_ids())
        assert abs(delta) <= 0.7

    @given(library=mixed_libraries(), mode=st.sampled_from(MODES), coarse=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_oracle_values_match_ground_truth(self, library, mode, coarse, data):
        n = len(library.synthons)
        if coarse:
            latent = np.asarray(data.draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n)))
        else:
            latent = np.random.default_rng(data.draw(st.integers(0, 9))).standard_normal(n)
        other = props.TaskDef("other", "additive", np.zeros(n))
        task = props.TaskDef("t", mode, latent, nonlinear_scale=0.7, nonlinear_alpha=0.9,
                             pair_scale=0.3, pair_density=data.draw(st.sampled_from([0.05, 0.5, 1.0])))
        oracle = props.GroundTruthOracle([other, task], seed=data.draw(st.integers(0, 5)))
        total = csl.product_count(library)
        gidx = data.draw(st.lists(st.integers(0, total - 1), max_size=40))
        values = props.oracle_values(oracle, library, "t", np.asarray(gidx, dtype=np.int64))
        expected = [reference_ground_truth(oracle, library, reference_decode(library, g), "t") for g in gidx]
        assert _bits(values) == _bits(expected)
        scalar = [props.ground_truth(oracle, "t", reference_decode(library, g).synthon_ids()) for g in gidx]
        assert _bits(scalar) == _bits(expected)
        # every block of the library, against every product in index order
        assert _bits(_all_block_values(oracle, library, "t")) == _bits(
            [reference_ground_truth(oracle, library, chi, "t") for chi in enumerate_products(library, 0, total)])

    @pytest.mark.parametrize("mode", MODES)
    def test_four_component_reaction(self, mode):
        # a 4-component reaction beside a 2-component one, with signed-zero latents: each R-group's
        # first synthon is -0.0, so each reaction's first product sums -0.0s from 0.0
        library = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=2, components=(4, 2), synthons_per_rgroup=3, share_rate=0.3), seed=4
        )
        n, total = len(library.synthons), csl.product_count(library)
        latent = np.random.default_rng(8).standard_normal(n)
        latent[::4] = 0.0
        latent[[rg.synthon_ids[0] for rg in library.iter_rgroups()]] = -0.0
        task = props.TaskDef("t", mode, latent, nonlinear_scale=0.7, nonlinear_alpha=0.9,
                             pair_scale=0.3, pair_density=0.5)
        oracle = props.GroundTruthOracle([task], seed=1)
        chis = list(enumerate_products(library, 0, total))
        expected = _bits([reference_ground_truth(oracle, library, chi, "t") for chi in chis])
        assert [len(rx.rgroups) for rx in library.reactions] == [4, 2] and total == 81 + 9
        if mode == "additive":
            assert expected[: 8] == expected[81 * 8 : 82 * 8] == _bits(0.0)
        assert _bits([props.ground_truth(oracle, "t", chi.synthon_ids()) for chi in chis]) == expected
        assert _bits(props.oracle_values(oracle, library, "t", np.arange(total)[::-1])[::-1]) == expected
        assert _bits(_all_block_values(oracle, library, "t")) == expected

    def test_oracle_roundtrip(self, small_oracle, tmp_path):
        path = tmp_path / "oracle.json"
        props.save_oracle(small_oracle, path)
        loaded = props.load_oracle(path)
        assert loaded.seed == small_oracle.seed
        assert loaded.task_names == small_oracle.task_names
        for a, b in zip(loaded.tasks, small_oracle.tasks):
            assert np.array_equal(a.latent, b.latent)
            assert a.mode == b.mode

    @pytest.mark.parametrize("field", ["latent", "nonlinear_scale", "pair_density"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_task_rejected(self, field, value):
        kw = {"latent": np.zeros(4), field: np.full(4, value) if field == "latent" else value}
        with pytest.raises(props.OracleError, match="non-finite"):
            props.TaskDef(name="t", mode="additive+nonlinear+pairwise", **kw)

    @pytest.mark.parametrize("hardness", [np.nan, np.inf])
    def test_non_finite_hardness_rejected(self, small_library, hardness):
        # a nan hardness once gave every docking label the value nan
        with pytest.raises(props.OracleError, match="non-finite"):
            props.make_default_oracle(small_library, seed=0, hardness=hardness)

    @pytest.mark.parametrize("case", ["no_tasks", "top_level_list", "task_without_latent", "extra_field",
                                      "string_scale", "float_seed"])
    def test_malformed_oracle_file_rejected(self, small_oracle, tmp_path, case):
        path = tmp_path / "oracle.json"
        props.save_oracle(small_oracle, path)
        doc = json.loads(path.read_text())
        tasks = doc["tasks"]
        doc = {
            "no_tasks": {k: v for k, v in doc.items() if k != "tasks"},
            "top_level_list": [doc],
            "task_without_latent": {**doc, "tasks": [{k: v for k, v in t.items() if k != "latent"} for t in tasks]},
            "extra_field": {**doc, "tasks": [{**t, "weight": 1.0} for t in tasks]},
            "string_scale": {**doc, "tasks": [{**t, "pair_scale": "0.2"} for t in tasks]},
            "float_seed": {**doc, "seed": 3.5},
        }[case]
        path.write_text(json.dumps(doc))
        with pytest.raises(props.OracleError, match="not an oracle file"):
            props.load_oracle(path)

    @pytest.mark.parametrize("n", [-1, 1])
    def test_latent_length_checked_against_library(self, small_library, small_oracle, n):
        small_oracle.check_library(small_library)
        task = small_oracle.tasks[0]
        other = props.GroundTruthOracle(
            [dataclasses.replace(task, latent=np.zeros(len(small_library.synthons) + n))], seed=0
        )
        with pytest.raises(props.OracleError, match="one latent per synthon"):
            other.check_library(small_library)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("latent, nonlinear, pair, refused", [
        (0.3, 0.0, 0.0, False), (0.5, 0.0, 0.0, True), (0.3, 0.05, 0.0, False), (0.3, 0.15, 0.0, True),
        (0.0, 0.0, 0.3, False), (0.0, 0.0, 0.5, True), (0.2, 0.1, 0.05, False), (0.2, 0.1, 0.2, True),
    ])
    def test_values_that_can_overflow_are_refused(self, small_library, latent, nonlinear, pair, refused):
        # per reaction, each R-group's largest |latent|, then |nonlinear_scale|,
        # then |pair_scale| once per R-group pair, as fractions of the float64
        # range; the library's 3-component reaction has 3 R-groups and 3 pairs
        top = np.finfo(np.float64).max
        task = props.TaskDef("t", "additive+nonlinear+pairwise", np.full(len(small_library.synthons), -latent * top),
                             nonlinear_scale=nonlinear * top, pair_scale=-pair * top, pair_density=1.0)
        oracle = props.GroundTruthOracle([task], seed=0)
        if refused:
            with pytest.raises(props.OracleError, match="^task 't' .*overflow"):
                oracle.check_library(small_library)
        else:
            oracle.check_library(small_library)
            values = props.oracle_values(oracle, small_library, "t", np.arange(csl.product_count(small_library)))
            assert np.isfinite(values).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tanh_argument_that_overflows_is_accepted(self, small_library):
        # the latents and the tanh term are far inside the bound, but alpha
        # times a latent sum passes the float64 range: tanh of +-inf is +-1.0
        latent = np.where(np.arange(len(small_library.synthons)) % 2, 1e10, -1e10)
        task = props.TaskDef("t", "additive+nonlinear", latent, nonlinear_scale=0.5, nonlinear_alpha=1e300)
        oracle = props.GroundTruthOracle([task], seed=0)
        oracle.check_library(small_library)
        gidx = np.arange(csl.product_count(small_library))
        sids = small_library.layout.synthon_ids(*small_library.layout.decode(gidx))
        base = np.where(sids >= 0, latent[sids], 0.0).sum(axis=1)  # whole multiples of 1e10, so exact
        values = props.oracle_values(oracle, small_library, "t", gidx)
        assert values.tobytes() == (base + 0.5 * np.sign(base)).tobytes()
        assert props.ground_truth(oracle, "t", sids[0][sids[0] >= 0].tolist()) == values[0]


class TestLabelLibrary:
    def test_full_enumeration_row_count(self, small_library, small_oracle):
        lib = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=1, components=(2,), synthons_per_rgroup=2), seed=0
        )
        oracle = props.make_additive_oracle(lib, seed=0, task_names=["a", "b"])
        ds = props.label_library(oracle, lib, ["a", "b"])
        assert len(ds) == 4 * 2

    def test_empty_sample(self, small_library, small_oracle):
        ds = props.label_library(small_oracle, small_library, ["mw"], props.SampleSpec(size=0))
        assert len(ds) == 0

    def test_sample_subset_of_full(self, small_library, small_oracle):
        full = props.label_library(small_oracle, small_library, ["mw"])
        sample = props.label_library(
            small_oracle, small_library, ["mw"], props.SampleSpec(size=20, seed=4)
        )

        def triples(ds):
            return list(zip(ds.global_index.tolist(), [ds.task_names[t] for t in ds.task], ds.value.tolist()))

        full_set = set(triples(full))
        assert len(sample) == 20 and all(row in full_set for row in triples(sample))

    def test_matches_per_product_ground_truth(self, small_library, small_oracle):
        tasks = ["dock_a", "mw"]
        ds = props.label_library(small_oracle, small_library, tasks, props.SampleSpec(size=60, seed=3))
        rng = np.random.default_rng(3)
        gidxs = np.sort(rng.choice(csl.product_count(small_library), size=60, replace=False))
        expected = []
        for g in gidxs.tolist():
            chi = reference_decode(small_library, g)
            for task in tasks:
                expected.append((g, task, reference_ground_truth(small_oracle, small_library, chi, task)))
        assert ds.task_names == tasks
        assert ds.global_index.tolist() == [g for g, _, _ in expected]
        assert [ds.task_names[t] for t in ds.task] == [t for _, t, _ in expected]
        assert _bits(ds.value) == _bits([v for _, _, v in expected])

    def test_deterministic(self, small_library, small_oracle):
        a = props.label_library(small_oracle, small_library, ["mw"], props.SampleSpec(size=30, seed=1))
        b = props.label_library(small_oracle, small_library, ["mw"], props.SampleSpec(size=30, seed=1))
        assert _columns(a) == _columns(b)

    def test_repeated_task_rejected(self, small_library, small_oracle):
        with pytest.raises(props.OracleError, match="distinct"):
            props.label_library(small_oracle, small_library, ["mw", "dock_a", "mw"])

    def test_negative_sample_size_rejected(self):
        with pytest.raises(props.OracleError, match="sample size"):
            props.SampleSpec(size=-1)


class TestLabelFiles:
    def test_roundtrip(self, small_library, small_oracle, tmp_path):
        ds = props.label_library(
            small_oracle, small_library, ["mw", "dock_a"], props.SampleSpec(size=25, seed=2)
        )
        path = tmp_path / "labels.tsv"
        props.save_labels(ds, path, small_library)
        assert _columns(props.load_labels(path, small_library)) == _columns(ds)

    def test_empty_file_with_header(self, small_library, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + "\n")
        ds = props.load_labels(path, small_library)
        assert len(ds) == 0 and ds.task_names == []

    def test_malformed_numeric_names_line(self, small_library, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + "\n0\t0,5\tmw\tnot_a_number\n")
        with pytest.raises(props.OracleError, match="line 2"):
            props.load_labels(path, small_library)

    def test_unknown_reaction_rejected(self, small_library, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + "\n99\t0,5\tmw\t1.0\n")
        with pytest.raises(props.OracleError, match="unknown reaction"):
            props.load_labels(path, small_library)

    def test_negative_reaction_rejected(self, small_library, small_oracle, tmp_path):
        # -1 once read as the last reaction, and its labels were trained on
        ds = props.label_library(small_oracle, small_library, ["mw"], props.SampleSpec(size=40, seed=0))
        path = tmp_path / "labels.tsv"
        props.save_labels(ds, path, small_library)
        lines = path.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("1\t"))
        path.write_text("\n".join(ln.replace("1\t", "-1\t", 1) if ln.startswith("1\t") else ln
                                  for ln in lines) + "\n")
        with pytest.raises(props.OracleError, match=f"line {first + 1}: unknown reaction -1"):
            props.load_labels(path, small_library)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, small_library, tmp_path, value):
        # once accepted, so training failed only at its first epoch
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + f"\n0\t0,5\tmw\t1.0\n0\t0,5\tlogp\t{value}\n")
        with pytest.raises(props.OracleError, match="line 3: non-finite value"):
            props.load_labels(path, small_library)

    def test_ineligible_synthon_rejected(self, small_library, tmp_path):
        # the second label names reaction 1's first R-group with a synthon of its second one
        rx = small_library.reactions[1]
        good = ",".join(str(rg.synthon_ids[0]) for rg in rx.rgroups)
        bad = ",".join(str(rg.synthon_ids[0]) for rg in (rx.rgroups[1],) + rx.rgroups[1:])
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + f"\n1\t{good}\tmw\t1.0\n\n1\t{bad}\tmw\t1.0\n0\t999,999\tmw\t1.0\n")
        foreign, rgroup = rx.rgroups[1].synthon_ids[0], rx.rgroups[0].rgroup_id
        with pytest.raises(props.OracleError, match=f"^line 4: synthon {foreign} is not eligible for R-group {rgroup}$"):
            props.load_labels(path, small_library)

    @pytest.mark.parametrize("sid", [str(2**63), str(-2**63 - 1)])
    def test_synthon_id_past_int64_rejected(self, small_library, tmp_path, sid):
        path = tmp_path / "labels.tsv"
        path.write_text(props.LABEL_HEADER + f"\n0\t0,{sid}\tmw\t1.0\n")
        with pytest.raises(props.OracleError, match="^line 2: malformed field: a synthon id exceeds the signed 64-bit"):
            props.load_labels(path, small_library)


class TestLabelColumns:
    """Columnar labels against the per-row reference writer and per-product features."""

    @given(library=mixed_libraries(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_reference(self, library, data):
        oracle = props.make_default_oracle(library, seed=data.draw(st.integers(0, 3)))
        # any subset of the tasks, in --tasks order; every product repeats them
        tasks = data.draw(st.lists(st.sampled_from(oracle.task_names), min_size=1, max_size=4, unique=True))
        size = data.draw(st.one_of(st.none(), st.integers(0, 40)))
        ds = props.label_library(oracle, library, tasks, props.SampleSpec(size, data.draw(st.integers(0, 9))))
        if data.draw(st.booleans()):  # signed zeros and values whose repr is long
            ds.value = np.asarray(data.draw(st.lists(st.sampled_from(LEVELS + [1e-300, 1 / 3, -2.5e17]),
                                                     min_size=len(ds), max_size=len(ds))), dtype=np.float64)
        chunk_rows = data.draw(st.sampled_from([1, 7, props.LABEL_CHUNK_ROWS]))
        with tempfile.TemporaryDirectory() as tmp:
            ref, got = pathlib.Path(tmp, "ref.tsv"), pathlib.Path(tmp, "got.tsv")
            reference_save_labels(ds, ref, library)
            with mock.patch.object(props, "LABEL_CHUNK_ROWS", chunk_rows):
                props.save_labels(ds, got, library)
            assert got.read_bytes() == ref.read_bytes()
            loaded = props.load_labels(got, library)
        expected = _columns(ds)
        if not len(ds):  # an empty file names no tasks
            expected = expected[:4] + ([],)
        assert _columns(loaded) == expected
        cfg = props.FeatureConfig(p=8, q=4)
        X, rows, _ = surrogate.build_examples(loaded, library, cfg)
        expected = [product_features(library, reference_decode(library, g), cfg)
                    for g in ds.global_index.tolist()]
        assert _bits(X[rows]) == _bits(np.reshape(expected, (len(ds), cfg.p + cfg.q)))
