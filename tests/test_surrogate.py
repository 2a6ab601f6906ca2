import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apexcsl import nn, props, surrogate
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

    def test_each_step_encodes_its_products_once(self, small_library, small_oracle, monkeypatch):
        # a sample with repeats: labels of one product on one task, and
        # products that lack a task's label
        ds = _tiny_dataset(small_library, small_oracle, tasks=("mw", "logp", "dock_a"), size=60)
        keep = np.random.default_rng(4).random(len(ds)) < 0.7
        ds = props.LabeledDataset(np.concatenate([ds.global_index[keep], ds.global_index[:9]]),
                                  np.concatenate([ds.task[keep], ds.task[:9]]),
                                  np.concatenate([ds.value[keep], ds.value[:9]]), ds.task_names)
        examples = surrogate.build_examples(ds, small_library)
        product_of = {row.tobytes(): i for i, row in enumerate(examples.X)}
        assert len(product_of) == len(examples.X)  # a product is known by its features
        steps, recording = [], []  # steps: each training step's label rows and encoder passes
        original_step, original_forward = surrogate.surrogate_loss_and_grads, nn.MLP.forward_cache

        def step(encoder, head_w, head_b, X, rows, *rest):
            passes = []
            steps.append((rows, passes))
            recording.append(passes)
            result = original_step(encoder, head_w, head_b, X, rows, *rest)
            recording.pop()
            return result

        def forward_cache(self, x):
            for passes in recording:  # the warmup and validation passes run outside a step
                passes.append([product_of[row.tobytes()] for row in x])
            return original_forward(self, x)

        monkeypatch.setattr(surrogate, "surrogate_loss_and_grads", step)
        monkeypatch.setattr(nn.MLP, "forward_cache", forward_cache)
        config = _fast_config(epochs=2, batch_size=7)
        surrogate.train_surrogate(ds, examples, config)
        assert len(steps) > 2 and all(len(passes) == 1 for _, passes in steps)
        n_val = int(round(0.1 * len(ds)))
        per_epoch = len(steps) // config.epochs
        for first in range(0, len(steps), per_epoch):
            products, labels = [], 0
            for rows, [encoded] in steps[first : first + per_epoch]:
                assert len(set(encoded)) == len(encoded) <= config.batch_size
                assert sorted(set(rows.tolist())) == list(range(len(encoded)))  # each read by a label
                products += encoded
                labels += len(rows)
            assert len(set(products)) == len(products) and labels == len(ds) - n_val


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
        # twelve labels on five products: product 0 holds five labels, and
        # product 3 two of one task
        rng = np.random.default_rng(0)
        enc = MLP([6, 8, 4], rng)
        head_w = rng.standard_normal((2, 4)) * 0.3
        head_b = rng.standard_normal(2) * 0.1
        X = rng.standard_normal((5, 6))
        rows = np.array([0, 0, 1, 0, 2, 3, 3, 0, 4, 1, 0, 2])
        ti = np.array([0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0])
        y = rng.standard_normal(12)
        eps = 0.05 * rng.standard_normal((12, 4))

        _, eg, dW, db = surrogate.surrogate_loss_and_grads(enc, head_w, head_b, X, rows, ti, y, eps)
        flat_grads = np.concatenate([g.ravel() for g in eg] + [dW.ravel(), db.ravel()])

        def loss_at(flat):
            enc2 = MLP([6, 8, 4], np.random.default_rng(0))
            buf = ParamBuffer([enc2], [head_w, head_b])
            buf.flat[...] = flat
            l, *_ = surrogate.surrogate_loss_and_grads(enc2, *buf.extra, X, rows, ti, y, eps)
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

    @given(n_products=st.integers(1, 6), n_tasks=st.integers(1, 3),
           labels=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), min_size=1, max_size=24),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_product_major_step_is_the_per_label_formula(self, n_products, n_tasks, labels, seed):
        # repeated products, repeated (product, task) labels and tasks missing
        # for some products: one encoder pass per product gives the loss and
        # gradients of one pass per label
        rows = np.array([p % n_products for p, _ in labels])
        ti = np.array([t % n_tasks for _, t in labels])
        rng = np.random.default_rng(seed)
        enc = MLP([5, 7, 4], rng)
        head_w = rng.standard_normal((n_tasks, 4))
        head_b = rng.standard_normal(n_tasks)
        X = rng.standard_normal((n_products, 5))
        y = rng.standard_normal(len(rows))
        eps = 0.1 * rng.standard_normal((len(rows), 4))

        def step(X, rows):
            loss, eg, dW, db = surrogate.surrogate_loss_and_grads(enc, head_w, head_b, X, rows, ti, y, eps)
            return [np.array([loss]), *[g.copy() for g in eg], dW, db]

        for got, want in zip(step(X, rows), step(X[rows], np.arange(len(rows)))):
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


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
