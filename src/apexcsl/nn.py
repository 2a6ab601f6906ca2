"""Small feedforward networks with explicit backward passes, plus Adam.

Everything is plain numpy float64. Backward passes return parameter gradients
and input cotangents so encoder stacks can be chained by hand; this keeps
training single-threaded and bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import numpy as np


def init_mlp_params(dims: list[int], rng: np.random.Generator, bias: bool = True) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...]; Xavier-scaled weights."""
    params: list[np.ndarray] = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        params.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        if bias:
            params.append(np.zeros(fan_out))
    return params


class MLP:
    """Dense layers with tanh between them (none after the last layer).

    With len(dims) == 2 this is a single affine map; bias=False drops the bias
    terms entirely, which the linear benchmark mode uses.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator, bias: bool = True):
        self.dims = list(dims)
        self.bias = bias
        self.params = init_mlp_params(self.dims, rng, bias)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def layer(self, i: int) -> tuple[np.ndarray, np.ndarray | None]:
        if self.bias:
            return self.params[2 * i], self.params[2 * i + 1]
        return self.params[i], None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        cache = []
        h = x
        for i in range(self.n_layers):
            W, b = self.layer(i)
            pre = h @ W
            if b is not None:
                pre = pre + b
            if i < self.n_layers - 1:
                post = np.tanh(pre)
            else:
                post = pre
            cache.append((h, post if i < self.n_layers - 1 else None))
            h = post
        return h, cache

    def backward(self, cache: list, dout: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Returns (grads aligned with self.params, d_input)."""
        grads: list[np.ndarray | None] = [None] * len(self.params)
        d = dout
        for i in range(self.n_layers - 1, -1, -1):
            h, post = cache[i]
            if post is not None:  # tanh was applied
                d = d * (1.0 - post * post)
            W, b = self.layer(i)
            dW = h.T @ d
            if self.bias:
                grads[2 * i] = dW
                grads[2 * i + 1] = d.sum(axis=0)
            else:
                grads[i] = dW
            d = d @ W.T
        return grads, d  # type: ignore[return-value]

    # flat views for finite-difference checks and checksums
    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in self.params])

    def set_flat(self, flat: np.ndarray) -> None:
        pos = 0
        for p in self.params:
            p[...] = flat[pos : pos + p.size].reshape(p.shape)
            pos += p.size


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def params_checksum(param_groups: list[list[np.ndarray]]) -> str:
    import hashlib

    h = hashlib.sha256()
    for group in param_groups:
        for p in group:
            h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()
