"""Small feedforward networks with explicit backward passes, plus Adam.

Everything is plain numpy float64. Backward passes write parameter gradients
in place and return input cotangents, so encoder stacks can be chained by
hand; this keeps training single-threaded and bit-reproducible under a fixed
seed. A model's parameters are views of one contiguous buffer and its
gradients views of a second (`ParamBuffer`), so the optimizer updates the
whole model with a few array operations.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def mlp_shapes(dims: list[int], bias: bool = True) -> list[tuple[int, ...]]:
    """The shapes of an MLP's parameters [W0, b0, W1, b1, ...], read off its
    widths alone, so a checkpoint can be checked before any array is made."""
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes.append((fan_in, fan_out))
        if bias:
            shapes.append((fan_out,))
    return shapes


def init_mlp_params(dims: list[int], rng: np.random.Generator, bias: bool = True) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...]; Xavier-scaled weights, zero biases."""
    return [rng.standard_normal(s) / np.sqrt(s[0]) if len(s) == 2 else np.zeros(s) for s in mlp_shapes(dims, bias)]


class MLP:
    """Dense layers with tanh between them (none after the last layer).

    With len(dims) == 2 this is a single affine map; bias=False drops the bias
    terms entirely, which the linear benchmark mode uses. `grads` holds one
    gradient array per parameter, filled by `backward`.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator, bias: bool = True):
        self.dims = list(dims)
        self.bias = bias
        self.params = init_mlp_params(self.dims, rng, bias)
        self.grads = [np.zeros_like(p) for p in self.params]

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
        """The output, and per layer its input and (for a tanh layer) its output."""
        cache = []
        h = x
        for i in range(self.n_layers):
            W, b = self.layer(i)
            pre = h @ W
            if b is not None:
                pre += b
            tanh = i < self.n_layers - 1
            if tanh:
                np.tanh(pre, out=pre)
            cache.append((h, pre if tanh else None))
            h = pre
        return h, cache

    def backward(self, cache: list, dout: np.ndarray,
                 input_grad: bool = True) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Overwrites `self.grads`; returns (self.grads, d_input), with d_input
        None when `input_grad` is false and layer 0's `d @ W.T` is skipped."""
        d = dout
        per_layer = 2 if self.bias else 1
        for i in range(self.n_layers - 1, -1, -1):
            h, post = cache[i]
            if post is not None:  # tanh was applied: d * (1 - post * post), in one scratch array
                t = np.multiply(post, post)
                np.subtract(1.0, t, out=t)
                d = np.multiply(d, t, out=t)
            W, _ = self.layer(i)
            np.matmul(h.T, d, out=self.grads[per_layer * i])
            if self.bias:
                np.sum(d, axis=0, out=self.grads[2 * i + 1])
            if i == 0 and not input_grad:
                return self.grads, None
            d = d @ W.T
        return self.grads, d


class ParamBuffer:
    """The parameters of some MLPs, then of any extra arrays, as views of one
    contiguous buffer `flat`; their gradients are views of `grad` at the same
    offsets. Each MLP's `params` and `grads` are rebound to these views.
    """

    def __init__(self, mlps: list[MLP], extra: list[np.ndarray] = ()):
        arrays = [p for m in mlps for p in m.params] + list(extra)
        self.flat = np.concatenate([a.reshape(-1) for a in arrays])
        self.grad = np.zeros_like(self.flat)
        self.params = _views(self.flat, arrays)
        self.grads = _views(self.grad, arrays)
        pos = 0
        for m in mlps:
            n = len(m.params)
            m.params, m.grads = self.params[pos : pos + n], self.grads[pos : pos + n]
            pos += n
        self.extra = self.params[pos:]
        self.extra_grads = self.grads[pos:]


def _views(buffer: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    views, pos = [], 0
    for a in arrays:
        views.append(buffer[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    return views


class Adam:
    """Adam over one flat parameter buffer; `m`, `v` and the scratch are flat too."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), one operation at a time."""
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=num)
        m += num
        v *= self.beta2
        np.multiply(grad, grad, out=den)
        den *= 1.0 - self.beta2
        v += den
        np.divide(m, b1t, out=num)
        num *= self.lr
        np.divide(v, b2t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        flat -= num


def add_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The n rows that `np.add.at(np.zeros((n, ...)), index, values)` gives,
    by one `np.bincount`: each entry sums its values from 0.0 in index order."""
    width = math.prod(values.shape[1:])
    flat = (np.asarray(index)[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=n * width).reshape((n,) + values.shape[1:])


def params_checksum(flat: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(flat).tobytes()).hexdigest()
