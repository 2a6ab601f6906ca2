"""Hierarchy encoders that reconstruct surrogate embeddings from multi-indices.

Synthons are encoded once each; deep-set encoders summarize R-groups and
reactions; a per-R-group key matrix times a per-synthon value vector yields
one associative embedding per eligible (R-group, synthon) pair. A product's
reconstructed embedding is just the sum of its pairs' associative embeddings,
which is what makes exhaustive scoring cheap downstream.

Deep-set pooling is a sequential mean over members, so permutation invariance
holds to ~1e-6 relative tolerance (float summation order), not bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from .blobio import check_arrays, load_meta_blob, save_blob
from .csl import CslLibrary, PairLayout, gather_sum, product_count
from .nn import MLP, Adam, ParamBuffer, add_rows
from .props import FEATURE_CONFIG_SPEC, FeatureConfig, product_feature_matrix, synthon_features_of
from .surrogate import SurrogateModel


class FactorizerError(RuntimeError):
    pass


MODES = ("mlp", "linear")


@dataclass(frozen=True)
class FactorizerDims:
    d_s: int = 64
    d_r: int = 64
    d_t: int = 64
    d_u: int = 32
    d: int = 64

    def __post_init__(self):
        if min(astuple(self)) < 1:
            raise FactorizerError(f"factorizer widths must be >= 1, got {self}")


class DeepSet:
    """Elementwise feature map, mean pooling, post-pooling network."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, mode: str):
        if mode == "linear":
            self.phi = MLP([d_in, d_out], rng)
            self.rho = MLP([d_out, d_out], rng)
        else:
            self.phi = MLP([d_in, 64, d_out], rng)
            self.rho = MLP([d_out, 64, d_out], rng)

    def forward_cache(self, rows: np.ndarray, offsets: np.ndarray):
        """rows: concatenated member features; offsets: (n_groups+1,) slice bounds."""
        sizes = np.diff(offsets).astype(np.float64)
        phi_out, phi_cache = self.phi.forward_cache(rows)
        pooled = np.add.reduceat(phi_out, offsets[:-1], axis=0) / sizes[:, None]
        out, rho_cache = self.rho.forward_cache(pooled)
        return out, (phi_cache, rho_cache, sizes)

    def backward(self, cache, dout: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        phi_cache, rho_cache, sizes = cache
        rho_grads, dpool = self.rho.backward(rho_cache, dout)
        drows = np.repeat(dpool / sizes[:, None], sizes.astype(int), axis=0)
        phi_grads, din = self.phi.backward(phi_cache, drows)
        return phi_grads + rho_grads, din


class Factorizer:
    def __init__(
        self,
        feature_dim: int,
        dims: FactorizerDims,
        rng: np.random.Generator,
        mode: str = "mlp",
        feature_config: FeatureConfig = FeatureConfig(),
    ):
        if mode not in MODES:
            raise ValueError(f"unknown factorizer mode {mode!r}")
        self.dims = dims
        self.mode = mode
        self.feature_config = feature_config
        if mode == "linear":
            self.synthon_encoder = MLP([feature_dim, dims.d_s], rng)
            self.value_encoder = MLP([dims.d_s, dims.d_u], rng)
            self.key_encoder = MLP([dims.d_r + dims.d_t, dims.d * dims.d_u], rng)
        else:
            self.synthon_encoder = MLP([feature_dim, 128, dims.d_s], rng)
            self.value_encoder = MLP([dims.d_s, 64, dims.d_u], rng)
            self.key_encoder = MLP([dims.d_r + dims.d_t, 64, dims.d * dims.d_u], rng)
        self.rgroup_encoder = DeepSet(dims.d_s, dims.d_r, rng, mode)
        self.reaction_encoder = DeepSet(dims.d_r, dims.d_t, rng, mode)
        # parameter order: synthon, R-group, reaction, value, key encoders
        self.buffer = ParamBuffer([
            self.synthon_encoder,
            self.rgroup_encoder.phi, self.rgroup_encoder.rho,
            self.reaction_encoder.phi, self.reaction_encoder.rho,
            self.value_encoder,
            self.key_encoder,
        ])

    @property
    def params(self) -> list[np.ndarray]:
        return self.buffer.params

    def forward_cache(self, library: CslLibrary):
        """Full-hierarchy forward; returns the pair-row matrix u and all caches."""
        layout = library.layout
        h_s, c_syn = self.synthon_encoder.forward_cache(synthon_features_of(library, self.feature_config)[0])
        h_r, c_rg = self.rgroup_encoder.forward_cache(h_s[layout.member_ids], layout.rg_offsets)
        h_t, c_rx = self.reaction_encoder.forward_cache(h_r, layout.rx_offsets)
        v, c_val = self.value_encoder.forward_cache(h_s)
        key_in = np.concatenate([h_r, h_t[layout.rg_parent]], axis=1)
        k_flat, c_key = self.key_encoder.forward_cache(key_in)
        K = k_flat.reshape(len(h_r), self.dims.d, self.dims.d_u)
        u = np.empty((layout.n_pairs, self.dims.d))
        for j in range(len(h_r)):
            lo, hi = layout.rg_offsets[j], layout.rg_offsets[j + 1]
            u[lo:hi] = v[layout.member_ids[lo:hi]] @ K[j].T
        cache = (h_s, h_r, h_t, v, K, c_syn, c_rg, c_rx, c_val, c_key)
        return u, cache

    def backward(self, library: CslLibrary, cache, du: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss given its cotangent on the pair rows u,
        written to `self.buffer.grad`; returns its per-parameter views."""
        h_s, h_r, h_t, v, K, c_syn, c_rg, c_rx, c_val, c_key = cache
        layout = library.layout
        n_rg = len(h_r)
        dK = np.zeros_like(K)
        dv = np.zeros_like(v)
        for j in range(n_rg):
            lo, hi = layout.rg_offsets[j], layout.rg_offsets[j + 1]
            members = layout.member_ids[lo:hi]
            du_block = du[lo:hi]
            dK[j] = du_block.T @ v[members]
            dv[members] += du_block @ K[j]  # an R-group lists each synthon once
        _, dkey_in = self.key_encoder.backward(c_key, dK.reshape(n_rg, -1))
        dh_r = dkey_in[:, : self.dims.d_r].copy()
        dh_t = add_rows(layout.rg_parent, dkey_in[:, self.dims.d_r :], len(h_t))
        _, dh_s_val = self.value_encoder.backward(c_val, dv)
        _, dh_r_from_rx = self.reaction_encoder.backward(c_rx, dh_t)
        dh_r += dh_r_from_rx
        _, dmember = self.rgroup_encoder.backward(c_rg, dh_r)
        dh_s = dh_s_val
        # R-group by R-group: a synthon's rows add up in pair-row order
        for j in range(n_rg):
            lo, hi = layout.rg_offsets[j], layout.rg_offsets[j + 1]
            dh_s[layout.member_ids[lo:hi]] += dmember[lo:hi]
        self.synthon_encoder.backward(c_syn, dh_s)
        return self.buffer.grads


@dataclass
class HierarchyCache:
    h_s: np.ndarray               # (|S|, d_s)
    h_r: np.ndarray               # (n_rg, d_r)
    h_t: np.ndarray               # (n_rx, d_t)
    u: np.ndarray                 # (n_pairs, d) associative embeddings, pair-row order
    layout: PairLayout
    fingerprint: str
    synthon_encoder_evals: int
    feature_config: FeatureConfig  # the factorizer's; a cache blob does not store it


def encode_hierarchy(factorizer: Factorizer, library: CslLibrary) -> HierarchyCache:
    """One synthon-encoder pass per synthon, then R-group, reaction, and pair stages."""
    u, cache = factorizer.forward_cache(library)
    h_s, h_r, h_t = cache[0], cache[1], cache[2]
    return HierarchyCache(
        h_s=h_s,
        h_r=h_r,
        h_t=h_t,
        u=u,
        layout=library.layout,
        fingerprint=library.fingerprint,
        synthon_encoder_evals=len(library.synthons),
        feature_config=factorizer.feature_config,
    )


@dataclass(frozen=True)
class FactorizerTrainConfig:
    steps: int = 2000
    batch_size: int = 256
    lr: float = 1e-3
    lr_decay: float = 1.0
    seed: int = 0
    dims: FactorizerDims = FactorizerDims()
    mode: str = "mlp"

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise FactorizerError(f"steps and batch_size must be >= 1, got {self.steps} and {self.batch_size}")
        if not all(np.isfinite(x) and x > 0 for x in (self.lr, self.lr_decay)):
            raise FactorizerError(f"lr and lr_decay must be finite and > 0, got {self.lr} and {self.lr_decay}")


def _sample_chis(library: CslLibrary, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n products drawn uniformly over the library, as PairLayout.decode gives
    them: (reaction positions, digits)."""
    return library.layout.decode(rng.integers(0, product_count(library), size=n))


def reconstruction_loss_and_grads(
    factorizer: Factorizer,
    library: CslLibrary,
    rows: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean squared embedding reconstruction error over a fixed batch.

    `rows` holds each product's pair rows, one column per R-group position and
    -1 past its reaction's R-groups, as `PairLayout.pair_rows` gives them.
    """
    u, cache = factorizer.forward_cache(library)
    pred = gather_sum(u, rows)
    resid = pred - targets
    n = len(rows)
    loss = float(np.sum(resid * resid)) / n
    present = rows >= 0
    flat_chi = np.nonzero(present)[0]
    # product-major, R-groups in order: a pair row's terms add up product by product
    du = add_rows(rows[present], (2.0 / n) * resid[flat_chi], len(u))
    grads = factorizer.backward(library, cache, du)
    return loss, grads


def train_factorizer(
    library: CslLibrary,
    surrogate: SurrogateModel,
    config: FactorizerTrainConfig,
) -> Factorizer:
    """Distill the frozen surrogate's embedding map into the hierarchy encoders."""
    checksum_before = surrogate.checksum()
    rng = np.random.default_rng(config.seed)
    fc = surrogate.feature_config
    dims = config.dims
    if dims.d != surrogate.d:
        dims = FactorizerDims(dims.d_s, dims.d_r, dims.d_t, dims.d_u, surrogate.d)
    factorizer = Factorizer(fc.p, dims, rng, mode=config.mode, feature_config=fc)
    buf = factorizer.buffer
    opt = Adam(buf.flat.size, lr=config.lr)

    for step in range(config.steps):
        opt.lr = config.lr * (config.lr_decay ** (step / max(1, config.steps)))
        pos, digits = _sample_chis(library, config.batch_size, rng)
        sids = library.layout.synthon_ids(pos, digits)
        targets = surrogate.encoder.forward(product_feature_matrix(library, sids, fc))
        loss, _ = reconstruction_loss_and_grads(factorizer, library, library.layout.pair_rows(pos, digits), targets)
        if not np.isfinite(loss):
            raise FactorizerError(f"non-finite reconstruction loss at step {step}: {loss}")
        opt.step(buf.flat, buf.grad)

    if surrogate.checksum() != checksum_before:
        raise FactorizerError("surrogate parameters changed during factorizer training")
    return factorizer


def factorization_gap(
    factorizer: Factorizer,
    surrogate: SurrogateModel,
    library: CslLibrary,
    sample_size: int,
    seed: int,
) -> dict[str, float]:
    """Mean and p95 of the embedding reconstruction distance on a uniform sample."""
    fc = surrogate.feature_config
    if sample_size < 1:
        raise FactorizerError(f"gap sample size must be >= 1, got {sample_size}")
    if factorizer.feature_config != fc:
        raise FactorizerError("factorizer and surrogate use different feature configs")
    rng = np.random.default_rng(seed)
    pos, digits = _sample_chis(library, sample_size, rng)
    u, _ = factorizer.forward_cache(library)
    sids = library.layout.synthon_ids(pos, digits)
    target = surrogate.encoder.forward(product_feature_matrix(library, sids, fc))
    recon = gather_sum(u, library.layout.pair_rows(pos, digits))
    dist = np.linalg.norm(target - recon, axis=1)
    emb_rms = float(np.sqrt(np.mean(target * target)))
    return {
        "mean": float(dist.mean()),
        "p95": float(np.quantile(dist, 0.95)),
        "embedding_rms": emb_rms,
    }


CHECKPOINT_VERSION = 1


def _factorizer_arrays(factorizer: Factorizer) -> dict[str, np.ndarray]:
    """A factorizer blob's arrays: views of `factorizer.buffer`, in its order."""
    return {f"p_{i}": p for i, p in enumerate(factorizer.params)}


def save_factorizer(factorizer: Factorizer, path) -> None:
    meta = {
        "kind": "factorizer",
        "version": CHECKPOINT_VERSION,
        "mode": factorizer.mode,
        "dims": list(astuple(factorizer.dims)),
        "feature_dim": factorizer.synthon_encoder.dims[0],
        "feature_config": asdict(factorizer.feature_config),
    }
    save_blob(path, meta, _factorizer_arrays(factorizer))


def load_factorizer(path) -> Factorizer:
    meta, arrays = load_meta_blob(path, "factorizer", CHECKPOINT_VERSION, FactorizerError, mode=frozenset(MODES),
                                  dims=[int] * 5, feature_dim=int, feature_config=FEATURE_CONFIG_SPEC)
    feature_config = FeatureConfig(**meta["feature_config"])
    if meta["feature_dim"] != feature_config.p:
        raise FactorizerError(f"{path}: factorizer meta field 'feature_dim' is {meta['feature_dim']}, "
                              "not its feature config's p")
    factorizer = Factorizer(
        meta["feature_dim"],
        FactorizerDims(*meta["dims"]),
        np.random.default_rng(0),
        mode=meta["mode"],
        feature_config=feature_config,
    )
    expected = _factorizer_arrays(factorizer)
    check_arrays(path, arrays, expected, FactorizerError)
    factorizer.buffer.flat[...] = np.concatenate([arrays[name].reshape(-1) for name in expected])
    return factorizer


def _cache_arrays(cache: HierarchyCache) -> dict[str, np.ndarray]:
    """A hierarchy cache blob's arrays: the embeddings, then the pair-row layout."""
    layout = cache.layout
    return {"u": cache.u, "h_s": cache.h_s, "h_r": cache.h_r, "h_t": cache.h_t,
            "member_ids": layout.member_ids, "rg_offsets": layout.rg_offsets, "rg_ids": layout.rg_ids}


def save_cache(cache: HierarchyCache, path) -> None:
    """Dense export of the associative embeddings with a pair-row index header."""
    meta = {
        "kind": "hierarchy_cache",
        "version": CHECKPOINT_VERSION,
        "fingerprint": cache.fingerprint,
        "synthon_encoder_evals": cache.synthon_encoder_evals,
    }
    save_blob(path, meta, _cache_arrays(cache))

