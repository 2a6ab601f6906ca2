import dataclasses

import numpy as np
import pytest

from apexcsl import csl, factorizer as fz, props, surrogate
from apexcsl.blobio import load_blob, save_blob
from apexcsl.nn import MLP
from conftest import product_features, reference_decode, reference_pair_row


@pytest.fixture(scope="module")
def tiny_surrogate(small_library, small_oracle):
    ds = props.label_library(
        small_oracle, small_library, ["dock_a", "mw"], props.SampleSpec(size=80, seed=0)
    )
    cfg = surrogate.TrainConfig(epochs=2, batch_size=32, seed=0, embedding_dim=16)
    return surrogate.train_surrogate(ds, surrogate.build_examples(ds, small_library), cfg)


def reconstruct(cache, library, chi):
    """Reference reconstruction: the assignment's associative embeddings
    summed from zero, in R-group order."""
    out = np.zeros(cache.u.shape[1])
    for rgroup_id, synthon_id in chi.assignment:
        out = out + cache.u[reference_pair_row(library, rgroup_id, synthon_id)]
    return out


def _fast_train_config(**kw):
    base = dict(steps=5, batch_size=16, seed=0, dims=fz.FactorizerDims(d_s=16, d_r=16, d_t=16, d_u=8, d=16))
    base.update(kw)
    return fz.FactorizerTrainConfig(**base)


class TestDeepSet:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        ds = fz.DeepSet(MLP([6, 64, 5], rng), MLP([5, 64, 5], rng))
        rows = rng.standard_normal((7, 6))
        offsets = np.array([0, 3, 7])
        out, _ = ds.forward_cache(rows, offsets)
        shuffled = np.concatenate([rows[[2, 0, 1]], rows[[5, 6, 3, 4]]])
        out2, _ = ds.forward_cache(shuffled, offsets)
        np.testing.assert_allclose(out, out2, atol=1e-6)

    def test_singleton_set_equals_pointwise(self):
        rng = np.random.default_rng(1)
        ds = fz.DeepSet(MLP([4, 64, 3], rng), MLP([3, 64, 3], rng))
        rows = rng.standard_normal((1, 4))
        out, _ = ds.forward_cache(rows, np.array([0, 1]))
        phi = ds.phi.forward(rows)
        np.testing.assert_allclose(out, ds.rho.forward(phi), atol=1e-12)


class TestHierarchy:
    def test_cache_shapes(self, small_library, tiny_surrogate):
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        cache = fz.encode_hierarchy(f, small_library)
        n_rg = sum(len(rx.rgroups) for rx in small_library.reactions)
        n_pairs = sum(len(rg.synthon_ids) for rx in small_library.reactions for rg in rx.rgroups)
        assert cache.h_s.shape[0] == len(small_library.synthons)
        assert cache.h_r.shape[0] == n_rg
        assert cache.h_t.shape[0] == len(small_library.reactions)
        assert cache.u.shape == (n_pairs, tiny_surrogate.d)

    def test_synthon_encoder_eval_budget(self, small_library, tiny_surrogate):
        # hierarchy encoding touches the synthon encoder once per synthon,
        # not once per (R-group, synthon) pair
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        cache = fz.encode_hierarchy(f, small_library)
        assert cache.synthon_encoder_evals == len(small_library.synthons)

    def test_reconstruct_is_pair_row_sum(self, small_library, tiny_surrogate):
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        cache = fz.encode_hierarchy(f, small_library)
        assert cache.layout is small_library.layout
        chi = reference_decode(small_library, 77)
        rows = small_library.layout.pair_rows(*small_library.layout.decode([77]))[0]
        manual = np.zeros(cache.u.shape[1])
        for row in rows[rows >= 0]:
            manual = manual + cache.u[row]
        np.testing.assert_array_equal(reconstruct(cache, small_library, chi), manual)

    def test_dims_follow_surrogate(self, small_library, tiny_surrogate):
        cfg = _fast_train_config(dims=fz.FactorizerDims(d=64))
        f = fz.train_factorizer(small_library, tiny_surrogate, cfg)
        assert f.dims.d == tiny_surrogate.d


class TestTraining:
    def test_deterministic(self, small_library, tiny_surrogate):
        a = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        b = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        np.testing.assert_array_equal(a.buffer.flat, b.buffer.flat)

    def test_loss_decreases(self, small_library, tiny_surrogate):
        gap0 = fz.factorization_gap(
            fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config(steps=1)),
            tiny_surrogate, small_library, 64, seed=2,
        )
        gap1 = fz.factorization_gap(
            fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config(steps=300)),
            tiny_surrogate, small_library, 64, seed=2,
        )
        assert gap1["mean"] < gap0["mean"]

    def test_mixed_component_batch(self, small_library, tiny_surrogate):
        # one 2-component and one 3-component multi-index in the same batch
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        pos, digits = small_library.layout.decode([0, 149])
        assert (digits[0] >= 0).sum() != (digits[1] >= 0).sum()
        sids = small_library.layout.synthon_ids(pos, digits)
        feats = props.product_feature_matrix(small_library, sids, tiny_surrogate.feature_config)
        targets = tiny_surrogate.encoder.forward(feats)
        rows = small_library.layout.pair_rows(pos, digits)
        loss, grads = fz.reconstruction_loss_and_grads(f, small_library, rows, targets)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_gap_and_loss_match_per_product_reference(self, small_library, tiny_surrogate):
        # mixed 2- and 3-component products; sums as the per-product code made them
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        fc = tiny_surrogate.feature_config
        gap = fz.factorization_gap(f, tiny_surrogate, small_library, 64, seed=5)
        gidx = np.random.default_rng(5).integers(0, csl.product_count(small_library), size=64)
        chis = [reference_decode(small_library, int(g)) for g in gidx]
        cache = fz.encode_hierarchy(f, small_library)
        target = tiny_surrogate.encoder.forward(
            np.stack([product_features(small_library, chi, fc) for chi in chis])
        )
        recon = np.stack([reconstruct(cache, small_library, chi) for chi in chis])
        rows = small_library.layout.pair_rows(*small_library.layout.decode(gidx))
        assert csl.gather_sum(cache.u, rows).tobytes() == recon.tobytes()
        dist = np.linalg.norm(target - recon, axis=1)
        assert gap == {
            "mean": float(dist.mean()),
            "p95": float(np.quantile(dist, 0.95)),
            "embedding_rms": float(np.sqrt(np.mean(target * target))),
        }
        loss, _ = fz.reconstruction_loss_and_grads(f, small_library, rows, target)
        assert loss == float(np.sum((recon - target) ** 2)) / len(gidx)

    def test_gap_featurizes_synthons_once(self, small_library, tiny_surrogate, monkeypatch):
        # training and then the gap on one library build its synthon features once
        library = dataclasses.replace(small_library)  # no features built yet
        calls = []
        featurize = props.library_synthon_features
        monkeypatch.setattr(props, "library_synthon_features", lambda *a: calls.append(a) or featurize(*a))
        f = fz.train_factorizer(library, tiny_surrogate, _fast_train_config())
        fz.factorization_gap(f, tiny_surrogate, library, 16, seed=0)
        assert calls == [(library, tiny_surrogate.feature_config)]

    @pytest.mark.parametrize("kw", [{"lr": -1.0}, {"lr": 0.0}, {"lr": float("nan")}, {"lr": float("inf")},
                                    {"lr_decay": 0.0}, {"lr_decay": -0.5}, {"lr_decay": float("nan")}])
    def test_step_size_must_be_finite_and_positive(self, kw):
        with pytest.raises(fz.FactorizerError, match="finite and > 0"):
            _fast_train_config(**kw)

    def test_gap_rejects_feature_config_mismatch(self, small_library, tiny_surrogate):
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        f.feature_config = props.FeatureConfig(seed=f.feature_config.seed + 1)
        with pytest.raises(fz.FactorizerError, match="feature configs"):
            fz.factorization_gap(f, tiny_surrogate, small_library, 16, seed=0)

    def test_linear_mode_exact_on_linear_surrogate(self, small_library):
        # a linear surrogate over additive features is exactly factorizable
        # when the associative bottleneck is at least as wide as the embedding
        oracle = props.make_additive_oracle(small_library, seed=5, task_names=["a"])
        fc = props.FeatureConfig(q=0)
        ds = props.label_library(oracle, small_library, ["a"])
        scfg = surrogate.TrainConfig(
            epochs=60, batch_size=64, lr=3e-2, seed=0, encoder="linear",
            embedding_dim=16, sigma=0.0,
        )
        model = surrogate.train_surrogate(ds, surrogate.build_examples(ds, small_library, fc), scfg)
        fcfg = fz.FactorizerTrainConfig(
            steps=1500, batch_size=64, lr=1e-2, lr_decay=0.1, seed=0, mode="linear",
            dims=fz.FactorizerDims(d_s=32, d_r=16, d_t=16, d_u=16, d=16),
        )
        f = fz.train_factorizer(small_library, model, fcfg)
        gap = fz.factorization_gap(f, model, small_library, 100, seed=1)
        assert gap["mean"] < 1e-3 * max(gap["embedding_rms"], 1e-12)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            fz.Factorizer(8, fz.FactorizerDims(), np.random.default_rng(0), mode="conv")


class TestGradients:
    def test_finite_difference_spot_check(self, small_library, tiny_surrogate):
        rng = np.random.default_rng(3)
        dims = fz.FactorizerDims(d_s=8, d_r=8, d_t=8, d_u=4, d=6)
        f = fz.Factorizer(
            tiny_surrogate.feature_config.p, dims, rng, mode="mlp",
            feature_config=tiny_surrogate.feature_config,
        )
        rows = small_library.layout.pair_rows(*small_library.layout.decode([3, 60, 140]))
        targets = rng.standard_normal((3, dims.d))

        fz.reconstruction_loss_and_grads(f, small_library, rows, targets)
        flat_grads = f.buffer.grad.copy()
        flat = f.buffer.flat.copy()

        def loss_at(x):
            f.buffer.flat[...] = x
            l, _ = fz.reconstruction_loss_and_grads(f, small_library, rows, targets)
            return l

        h = 1e-6
        idx = rng.choice(flat.size, size=40, replace=False)
        try:
            for i in idx:
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                fd = (loss_at(up) - loss_at(dn)) / (2 * h)
                denom = max(abs(fd), abs(flat_grads[i]), 1e-8)
                assert abs(fd - flat_grads[i]) / denom < 1e-4
        finally:
            f.buffer.flat[...] = flat


class TestCheckpoint:
    def test_factorizer_roundtrip(self, small_library, tiny_surrogate, tmp_path):
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        path = tmp_path / "factorizer.blob"
        fz.save_factorizer(f, path)
        loaded = fz.load_factorizer(path)
        np.testing.assert_array_equal(loaded.buffer.flat, f.buffer.flat)
        assert loaded.mode == f.mode
        assert loaded.dims == f.dims

    def test_cache_roundtrip(self, small_library, tiny_surrogate, tmp_path):
        # what save_cache writes, read back as a plain blob: the meta, then
        # each array's name, dtype, shape and bytes
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        cache = fz.encode_hierarchy(f, small_library)
        path = tmp_path / "cache.blob"
        fz.save_cache(cache, path)
        meta, arrays = load_blob(path)
        assert meta == {"kind": "hierarchy_cache", "version": fz.CHECKPOINT_VERSION,
                        "fingerprint": cache.fingerprint, "synthon_encoder_evals": cache.synthon_encoder_evals}
        layout = cache.layout
        expected = {"u": cache.u, "h_s": cache.h_s, "h_r": cache.h_r, "h_t": cache.h_t,
                    "member_ids": layout.member_ids, "rg_offsets": layout.rg_offsets, "rg_ids": layout.rg_ids}
        assert list(arrays) == list(expected)
        for name, want in expected.items():
            got = arrays[name]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name

    @pytest.mark.parametrize("width", ["d_s", "d_r", "d_t", "d_u", "d"])
    def test_zero_width_rejected(self, width):
        with pytest.raises(fz.FactorizerError, match="widths"):
            fz.FactorizerDims(**{width: 0})

    def test_save_is_byte_deterministic(self, small_library, tiny_surrogate, tmp_path):
        f = fz.train_factorizer(small_library, tiny_surrogate, _fast_train_config())
        p1, p2 = tmp_path / "a.blob", tmp_path / "b.blob"
        fz.save_factorizer(f, p1)
        fz.save_factorizer(f, p2)
        assert p1.read_bytes() == p2.read_bytes()
