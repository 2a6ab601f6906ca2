import dataclasses

import numpy as np
import pytest

from apexcsl import props, surrogate
from apexcsl.nn import MLP, ParamBuffer


def _tiny_dataset(library, oracle, tasks=("mw", "logp"), size=80, seed=0):
    return props.label_library(oracle, library, list(tasks), props.SampleSpec(size=size, seed=seed))


def _fast_config(**kw):
    base = dict(epochs=3, batch_size=32, seed=0, embedding_dim=16)
    base.update(kw)
    return surrogate.TrainConfig(**base)


def _train(ds, library, config, feature_config=props.FeatureConfig()):
    return surrogate.train_surrogate(ds, surrogate.build_examples(ds, library, feature_config), config)


def _r2(model, ds, library):
    return surrogate.evaluate_r2(model, ds, surrogate.build_examples(ds, library, model.feature_config))


class TestTraining:
    def test_deterministic_checksum(self, small_library, small_oracle):
        ds = _tiny_dataset(small_library, small_oracle)
        a = _train(ds, small_library, _fast_config())
        b = _train(ds, small_library, _fast_config())
        assert a.checksum() == b.checksum()

    def test_seed_changes_model(self, small_library, small_oracle):
        ds = _tiny_dataset(small_library, small_oracle)
        a = _train(ds, small_library, _fast_config(seed=0))
        b = _train(ds, small_library, _fast_config(seed=1))
        assert a.checksum() != b.checksum()

    def test_linear_fits_additive_targets(self, small_library):
        # additive targets with feature-linear latents are exactly realizable
        # by a linear encoder over the summed feature block
        oracle = props.make_additive_oracle(small_library, seed=5, task_names=["a", "b"])
        fc = props.FeatureConfig(q=0)
        ds = props.label_library(oracle, small_library, ["a", "b"])
        cfg = surrogate.TrainConfig(
            epochs=200, batch_size=64, lr=3e-2, seed=0, encoder="linear",
            embedding_dim=32, sigma=0.0,
        )
        model = _train(ds, small_library, cfg, fc)
        r2 = _r2(model, ds, small_library)
        assert all(v > 0.99 for v in r2.values())

    def test_empty_dataset_rejected(self, small_library):
        with pytest.raises(surrogate.SurrogateError, match="empty"):
            _train(
                props.LabeledDataset(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), []),
                small_library, _fast_config(),
            )

    def test_nan_targets_abort(self, small_library, small_oracle):
        ds = _tiny_dataset(small_library, small_oracle, size=40)
        nan = dataclasses.replace(ds, value=np.full(len(ds), np.nan))
        with pytest.raises(surrogate.SurrogateError, match="non-finite"):
            _train(nan, small_library, _fast_config())

    def test_bad_config_rejected(self):
        with pytest.raises(surrogate.SurrogateError):
            surrogate.TrainConfig(epochs=0)

    @pytest.mark.parametrize("kw", [{"embedding_dim": 0}])
    def test_zero_width_rejected(self, kw):
        # a 0-wide embedding once trained to R2 -0.0000 on every task
        with pytest.raises(surrogate.SurrogateError, match="widths"):
            surrogate.TrainConfig(**kw)


class TestEvaluate:
    def test_zero_variance_target_is_none(self, small_library, small_oracle):
        ds = _tiny_dataset(small_library, small_oracle, tasks=("mw",), size=30)
        model = _train(ds, small_library, _fast_config())
        const = dataclasses.replace(ds, value=np.ones(len(ds)))
        assert _r2(model, const, small_library)["mw"] is None

    def test_unknown_task(self, small_library, small_oracle):
        model = _train(_tiny_dataset(small_library, small_oracle), small_library, _fast_config())
        other = _tiny_dataset(small_library, small_oracle, tasks=("mw", "dock_a"), size=20)
        with pytest.raises(surrogate.SurrogateError, match="unknown task 'dock_a'"):
            _r2(model, other, small_library)

    def test_examples_of_another_dataset_or_config_rejected(self, small_library, small_oracle):
        ds = _tiny_dataset(small_library, small_oracle, size=40)
        model = _train(ds, small_library, _fast_config())
        fewer = _tiny_dataset(small_library, small_oracle, size=20)
        with pytest.raises(surrogate.SurrogateError, match=f"examples of {len(fewer)} labels for a dataset of {len(ds)}"):
            surrogate.evaluate_r2(model, ds, surrogate.build_examples(fewer, small_library))
        with pytest.raises(surrogate.SurrogateError, match=f"examples of {len(fewer)} labels for a dataset of {len(ds)}"):
            surrogate.train_surrogate(ds, surrogate.build_examples(fewer, small_library), _fast_config())
        other = surrogate.build_examples(ds, small_library, props.FeatureConfig(q=0))
        with pytest.raises(surrogate.SurrogateError, match="examples built with"):
            surrogate.evaluate_r2(model, ds, other)

    @pytest.mark.parametrize("size", [1, 2])
    def test_one_or_two_labels(self, small_library, small_oracle, size):
        # one label: nothing is held out, and the first epoch is kept;
        # two labels: one is held out, one trains
        ds = _tiny_dataset(small_library, small_oracle, tasks=("mw",), size=size)
        assert len(ds) == size
        a = _train(ds, small_library, _fast_config())
        b = _train(ds, small_library, _fast_config())
        assert a.checksum() == b.checksum()
        assert np.all(np.isfinite(a.buffer.flat))
        r2 = _r2(a, ds, small_library)
        assert (r2["mw"] is None) == (size == 1)


class TestGradients:
    def test_finite_difference_spot_check(self):
        rng = np.random.default_rng(0)
        enc = MLP([6, 8, 4], rng)
        head_w = rng.standard_normal((2, 4)) * 0.3
        head_b = rng.standard_normal(2) * 0.1
        X = rng.standard_normal((12, 6))
        ti = rng.integers(0, 2, size=12)
        y = rng.standard_normal(12)
        eps = 0.05 * rng.standard_normal((12, 4))

        _, eg, dW, db = surrogate.surrogate_loss_and_grads(enc, head_w, head_b, X, ti, y, eps)
        flat_grads = np.concatenate([g.ravel() for g in eg] + [dW.ravel(), db.ravel()])

        def loss_at(flat):
            enc2 = MLP([6, 8, 4], np.random.default_rng(0))
            buf = ParamBuffer([enc2], [head_w, head_b])
            buf.flat[...] = flat
            l, *_ = surrogate.surrogate_loss_and_grads(enc2, *buf.extra, X, ti, y, eps)
            return l

        flat = ParamBuffer([enc], [head_w, head_b]).flat.copy()
        h = 1e-6
        idx = rng.choice(flat.size, size=40, replace=False)
        for i in idx:
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            fd = (loss_at(up) - loss_at(dn)) / (2 * h)
            denom = max(abs(fd), abs(flat_grads[i]), 1e-8)
            assert abs(fd - flat_grads[i]) / denom < 1e-4


class TestCheckpoint:
    def test_roundtrip_checksum(self, small_library, small_oracle, tmp_path):
        model = _train(
            _tiny_dataset(small_library, small_oracle), small_library, _fast_config()
        )
        path = tmp_path / "model.blob"
        surrogate.save_surrogate(model, path)
        loaded = surrogate.load_surrogate(path)
        assert loaded.checksum() == model.checksum()
        assert loaded.task_names == model.task_names
        assert loaded.feature_config == model.feature_config

    def test_save_is_byte_deterministic(self, small_library, small_oracle, tmp_path):
        model = _train(
            _tiny_dataset(small_library, small_oracle), small_library, _fast_config()
        )
        p1, p2 = tmp_path / "a.blob", tmp_path / "b.blob"
        surrogate.save_surrogate(model, p1)
        surrogate.save_surrogate(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        from apexcsl.blobio import save_blob

        path = tmp_path / "junk.blob"
        save_blob(path, {"kind": "other", "version": 1}, {"x": np.zeros(3)})
        with pytest.raises(surrogate.SurrogateError):
            surrogate.load_surrogate(path)
