"""Multi-task surrogate: a feedforward encoder with per-task linear heads.

A training batch is a set of products with all of their labels: each step
encodes each product once, and each label perturbs its product's embedding
with its own fresh isotropic noise before the linear head, so the learned
embedding space tolerates the reconstruction error later introduced when the
factorizer replaces the encoder. Adam steps at a constant rate, and the
epoch with the lowest loss on a held-out 10% of the labels is kept.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .blobio import ArraySpec, check_arrays, load_meta_blob, save_blob
from .csl import CslLibrary
from .nn import MLP, Adam, ParamBuffer, add_rows, mlp_shapes, params_checksum
from .props import FEATURE_CONFIG_SPEC, FeatureConfig, LabeledDataset, product_feature_matrix, repeated_name

DEFAULT_EMBEDDING_DIM = 64
HIDDEN_WIDTHS = (128, 128)  # the MLP encoder's hidden layers


class SurrogateError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 256  # products per batch, each with all of its training labels
    lr: float = 3e-3
    seed: int = 0
    # embedding noise scale; None resolves to 0.1 * embedding RMS, measured on a warmup pass
    sigma: float | None = None
    encoder: str = "mlp"  # "mlp" or "linear" (single affine map, no bias)
    embedding_dim: int = DEFAULT_EMBEDDING_DIM

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise SurrogateError(f"epochs and batch_size must be >= 1, got {self.epochs} and {self.batch_size}")
        if self.embedding_dim < 1:
            raise SurrogateError(f"layer widths must be >= 1, got embedding_dim {self.embedding_dim}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise SurrogateError(f"lr must be finite and > 0, got {self.lr}")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise SurrogateError(f"sigma must be finite and >= 0, got {self.sigma}")


@dataclass
class SurrogateModel:
    encoder: MLP
    head_w: np.ndarray  # (n_tasks, d)
    head_b: np.ndarray  # (n_tasks,)
    task_names: list[str]
    feature_config: FeatureConfig = FeatureConfig()
    # the encoder's parameters, then head_w and head_b, in one buffer
    buffer: ParamBuffer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.buffer = ParamBuffer([self.encoder], [self.head_w, self.head_b])
        self.head_w, self.head_b = self.buffer.extra

    @property
    def d(self) -> int:
        return self.encoder.dims[-1]

    def task_index(self, name: str) -> int:
        try:
            return self.task_names.index(name)
        except ValueError:
            raise SurrogateError(f"unknown task {name!r}") from None

    def checksum(self) -> str:
        return params_checksum(self.buffer.flat)


def surrogate_loss_and_grads(
    encoder: MLP,
    head_w: np.ndarray,
    head_b: np.ndarray,
    X: np.ndarray,
    rows: np.ndarray,
    task_idx: np.ndarray,
    y: np.ndarray,
    eps: np.ndarray,
) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Mean squared error of the noisy-embedding objective for one fixed noise draw.

    `X` holds the features of the batch's products, each encoded once; label
    i reads row `rows[i]` of their embeddings and adds its own noise `eps[i]`.
    Returns (loss, encoder grads, head weight grads, head bias grads). Shared
    by the trainer and the finite-difference gradient check.
    """
    n = len(rows)
    emb, cache = encoder.forward_cache(X)
    noisy = emb[rows] + eps
    w = head_w[task_idx]
    pred = np.einsum("nd,nd->n", noisy, w) + head_b[task_idx]
    err = pred - y
    loss = float(err @ err) / n

    dpred = 2.0 * err / n
    dW = add_rows(task_idx, dpred[:, None] * noisy, len(head_w))
    db = add_rows(task_idx, dpred, len(head_b))
    demb = add_rows(rows, dpred[:, None] * w, len(X))  # a product's labels add up in label order
    enc_grads, _ = encoder.backward(cache, demb, input_grad=False)
    return loss, enc_grads, dW, db


class Examples(NamedTuple):
    """What training and `evaluate_r2` read of a labeled dataset's products:
    the features of each distinct labeled product, per label the row of its
    product, and the feature config they were built with."""

    X: np.ndarray
    rows: np.ndarray
    feature_config: FeatureConfig


def build_examples(dataset: LabeledDataset, library: CslLibrary,
                   feature_config: FeatureConfig = FeatureConfig()) -> Examples:
    products, feat_rows = np.unique(dataset.global_index, return_inverse=True)
    sids = library.layout.synthon_ids(*library.layout.decode(products))
    return Examples(product_feature_matrix(library, sids, feature_config), feat_rows, feature_config)


def _check_examples(dataset: LabeledDataset, examples: Examples) -> None:
    if not len(dataset):
        raise SurrogateError("empty dataset")
    if len(examples.rows) != len(dataset):
        raise SurrogateError(f"examples of {len(examples.rows)} labels for a dataset of {len(dataset)}")


def _make_encoder(config: TrainConfig, feature_dim: int, rng: np.random.Generator) -> MLP:
    if config.encoder == "linear":
        return MLP([feature_dim, config.embedding_dim], rng, bias=False)
    if config.encoder == "mlp":
        dims = [feature_dim, *HIDDEN_WIDTHS, config.embedding_dim]
        return MLP(dims, rng, bias=True)
    raise ValueError(f"unknown encoder kind {config.encoder!r}")


def train_surrogate(dataset: LabeledDataset, examples: Examples, config: TrainConfig) -> SurrogateModel:
    """A surrogate over `examples.feature_config`, trained on `dataset`;
    `examples` is `build_examples` of that dataset. SurrogateError if a task's
    label mean or standard deviation is not finite."""
    _check_examples(dataset, examples)
    X, feat_rows, feature_config = examples
    task_idx, y, task_names = dataset.task, dataset.value, dataset.task_names
    n_tasks = len(task_names)
    n = len(task_idx)
    for t in range(n_tasks):
        if not np.any(task_idx == t):
            raise SurrogateError(f"no examples for task {task_names[t]!r}")

    rng = np.random.default_rng(config.seed)
    encoder = _make_encoder(config, X.shape[1], rng)
    model = SurrogateModel(encoder, rng.standard_normal((n_tasks, config.embedding_dim)) * 0.01,
                           np.zeros(n_tasks), list(task_names), feature_config)
    buf = model.buffer
    head_w, head_b = model.head_w, model.head_b
    grad_w, grad_b = buf.extra_grads

    # standardize targets per task; heads are unstandardized on export
    mean = np.zeros(n_tasks)
    std = np.ones(n_tasks)
    for t in range(n_tasks):
        sel = task_idx == t
        with np.errstate(over="ignore", invalid="ignore"):
            mean[t] = y[sel].mean()
            s = y[sel].std()
        if not np.isfinite([mean[t], s]).all():
            raise SurrogateError(f"labels of task {task_names[t]!r} have a non-finite mean or standard deviation")
        std[t] = s if s > 0 else 1.0
    y_std = (y - mean[task_idx]) / std[task_idx]

    perm = rng.permutation(n)
    n_val = max(1, int(round(0.1 * n))) if n > 1 else 0  # a 10% validation split, < n for every n
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    sigma = config.sigma
    if sigma is None:
        warm = encoder.forward(X[feat_rows[train_idx[: min(len(train_idx), 1024)]]])
        sigma = 0.1 * float(np.sqrt(np.mean(warm * warm)))

    opt = Adam(buf.flat.size, lr=config.lr)
    best_val = np.inf
    best = buf.flat.copy()

    # product-major batches: each epoch orders the distinct training products,
    # and a batch is batch_size of them with all of their training labels
    train_rows = feat_rows[train_idx]
    products = np.unique(train_rows)
    rank = np.empty(len(X), dtype=np.int64)  # each product's place in the epoch's order
    starts = np.arange(0, len(products), config.batch_size)
    for epoch in range(config.epochs):
        order = products[rng.permutation(len(products))]
        rank[order] = np.arange(len(products))
        ranks = rank[train_rows]
        by_rank = np.argsort(ranks, kind="stable")  # a product's labels keep their split order
        labels, ranks = train_idx[by_rank], ranks[by_rank]
        cuts = np.searchsorted(ranks, [*starts, len(products)])
        for start, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
            batch = labels[lo:hi]
            shape = (len(batch), config.embedding_dim)
            eps = sigma * rng.standard_normal(shape) if sigma > 0 else np.zeros(shape)
            loss, _, dW, db = surrogate_loss_and_grads(
                encoder, head_w, head_b, X[order[start : start + config.batch_size]], ranks[lo:hi] - start,
                task_idx[batch], y_std[batch], eps)
            grad_w[...], grad_b[...] = dW, db  # the encoder's land in buf.grad directly
            if not np.isfinite(loss):
                raise SurrogateError(f"non-finite training loss at epoch {epoch}: {loss}")
            opt.step(buf.flat, buf.grad)

        vx = X[feat_rows[val_idx]]
        vemb = encoder.forward(vx)
        vpred = np.einsum("nd,nd->n", vemb, head_w[task_idx[val_idx]]) + head_b[task_idx[val_idx]]
        verr = vpred - y_std[val_idx]
        val_loss = float(verr @ verr) / max(1, len(val_idx))
        if val_loss < best_val:
            best_val = val_loss
            best = buf.flat.copy()

    buf.flat[...] = best

    # fold per-task standardization back into the heads
    head_w *= std[:, None]
    head_b *= std
    head_b += mean
    return model


def evaluate_r2(model: SurrogateModel, dataset: LabeledDataset, examples: Examples) -> dict[str, float | None]:
    """Coefficient of determination per task on `dataset`, whose
    `build_examples` are `examples`; None when the target has zero variance."""
    _check_examples(dataset, examples)
    if examples.feature_config != model.feature_config:
        raise SurrogateError(f"examples built with {examples.feature_config}, model trained on {model.feature_config}")
    X, feat_rows, _ = examples
    task_idx, y = dataset.task, dataset.value
    emb = model.encoder.forward(X)
    out: dict[str, float | None] = {}
    for t, name in enumerate(dataset.task_names):
        i = model.task_index(name)
        sel = task_idx == t
        pred = emb[feat_rows[sel]] @ model.head_w[i] + model.head_b[i]
        truth = y[sel]
        ss_tot = float(np.sum((truth - truth.mean()) ** 2))
        if ss_tot == 0.0:
            out[name] = None
            continue
        ss_res = float(np.sum((truth - pred) ** 2))
        out[name] = 1.0 - ss_res / ss_tot
    return out


CHECKPOINT_VERSION = 1


def _surrogate_shapes(dims: list[int], bias: bool, n_tasks: int) -> dict[str, tuple[int, ...]]:
    """A surrogate blob's array names and shapes, in `SurrogateModel.buffer` order."""
    shapes = {f"enc_{i}": shape for i, shape in enumerate(mlp_shapes(dims, bias))}
    return {**shapes, "head_w": (n_tasks, dims[-1]), "head_b": (n_tasks,)}


def save_surrogate(model: SurrogateModel, path) -> None:
    meta = {
        "kind": "surrogate",
        "version": CHECKPOINT_VERSION,
        "dims": model.encoder.dims,
        "bias": model.encoder.bias,
        "task_names": model.task_names,
        "feature_config": asdict(model.feature_config),
    }
    shapes = _surrogate_shapes(model.encoder.dims, model.encoder.bias, len(model.task_names))
    save_blob(path, meta, dict(zip(shapes, model.buffer.params)))


def load_surrogate(path) -> SurrogateModel:
    meta, arrays = load_meta_blob(path, "surrogate", CHECKPOINT_VERSION, SurrogateError, dims=[int], bias=bool,
                                  task_names=[str], feature_config=FEATURE_CONFIG_SPEC)
    if len(meta["dims"]) < 2 or min(meta["dims"]) < 1:
        raise SurrogateError(f"{path}: surrogate meta field 'dims' needs two or more widths >= 1, got {meta['dims']}")
    repeated = repeated_name(meta["task_names"])
    if repeated is not None:
        raise SurrogateError(f"{path}: surrogate lists task {repeated!r} more than once")
    feature_config = FeatureConfig(**meta["feature_config"])
    if meta["dims"][0] != feature_config.p + feature_config.q:
        raise SurrogateError(f"{path}: surrogate meta field 'dims' starts at {meta['dims'][0]}, "
                             "not at its feature config's p + q")
    n_tasks = len(meta["task_names"])
    # the arrays against the widths first: a model is built only at the size the blob holds
    shapes = _surrogate_shapes(meta["dims"], meta["bias"], n_tasks)
    check_arrays(path, arrays, {name: ArraySpec(shape) for name, shape in shapes.items()}, SurrogateError)
    encoder = MLP(meta["dims"], np.random.default_rng(0), bias=meta["bias"])
    model = SurrogateModel(encoder, np.zeros((n_tasks, encoder.dims[-1])), np.zeros(n_tasks),
                           list(meta["task_names"]), feature_config)
    model.buffer.flat[...] = np.concatenate([arrays[name].reshape(-1) for name in shapes])
    return model
