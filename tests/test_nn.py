import numpy as np
from hypothesis import given, settings, strategies as st

from apexcsl import nn


class ReferenceAdam:
    """The per-array Adam that the flat one replaced."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def reference_backward(mlp, cache, dout):
    """MLP.backward as it was before gradients were written in place."""
    grads = [None] * len(mlp.params)
    d = dout
    for i in range(mlp.n_layers - 1, -1, -1):
        h, post = cache[i]
        if post is not None:
            d = d * (1.0 - post * post)
        W, _ = mlp.layer(i)
        if mlp.bias:
            grads[2 * i], grads[2 * i + 1] = h.T @ d, d.sum(axis=0)
        else:
            grads[i] = h.T @ d
        d = d @ W.T
    return grads, d


def _bits(arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestAdam:
    @given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=5),
           steps=st.integers(1, 40), seed=st.integers(0, 100), sparse=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_flat_matches_per_array(self, shapes, steps, seed, sparse):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) for s in shapes]
        ref_params = [a.copy() for a in arrays]
        buf = nn.ParamBuffer([], arrays)
        ref = ReferenceAdam(ref_params, lr=3e-3)
        opt = nn.Adam(buf.flat.size, lr=3e-3)
        for step in range(steps):
            grads = [rng.standard_normal(s) for s in shapes]
            if sparse:  # exact zeros of both signs, as unused pair rows give
                grads = [np.where(rng.random(s) < 0.5, np.copysign(0.0, g), g) for g, s in zip(grads, shapes)]
            ref.lr = opt.lr = 3e-3 * 0.9**step  # the trainers decay the step size
            ref.step(ref_params, grads)
            for view, g in zip(buf.grads, grads):
                view[...] = g
            opt.step(buf.flat, buf.grad)
        assert buf.flat.tobytes() == _bits(ref_params)
        assert opt.m.tobytes() == _bits(ref.m) and opt.v.tobytes() == _bits(ref.v)


class TestParamBuffer:
    def test_views_share_one_buffer(self):
        rng = np.random.default_rng(0)
        a, b = nn.MLP([3, 4, 2], rng), nn.MLP([2, 5], rng, bias=False)
        before = [p.copy() for p in a.params + b.params]
        buf = nn.ParamBuffer([a, b], [np.ones(3)])
        assert _bits(a.params + b.params) == _bits(before)
        buf.flat[:] = np.arange(buf.flat.size)
        assert a.params[0][0, 0] == 0.0 and b.params[0][0, 0] == sum(p.size for p in before[:4])
        assert buf.extra[0].tolist() == [buf.flat.size - 3.0, buf.flat.size - 2.0, buf.flat.size - 1.0]

    @given(dims=st.lists(st.integers(1, 40), min_size=2, max_size=4), n=st.integers(1, 70),
           offset=st.integers(1, 9), bias=st.booleans(), seed=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_views_at_unaligned_offsets_compute_the_same_bits(self, dims, n, offset, bias, seed):
        rng = np.random.default_rng(seed)
        mlp = nn.MLP(dims, rng, bias=bias)
        params = [p.copy() for p in mlp.params]
        x = rng.standard_normal((n, dims[0]))
        dout = rng.standard_normal((n, dims[-1]))
        y0, cache0 = mlp.forward_cache(x)
        grads0, d0 = reference_backward(mlp, cache0, dout)
        # the MLP's parameters now start `offset` floats into a shared buffer
        nn.ParamBuffer([nn.MLP([offset, 1], rng, bias=False), mlp])
        assert _bits(mlp.params) == _bits(params)
        y1, cache1 = mlp.forward_cache(x)
        grads1, d1 = mlp.backward(cache1, dout)
        assert y1.tobytes() == y0.tobytes()
        assert _bits(grads1) == _bits(grads0) and d1.tobytes() == d0.tobytes()


class TestAddRows:
    @given(n=st.integers(1, 6), width=st.sampled_from([None, 1, 3]), size=st.integers(0, 40),
           seed=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_add_at(self, n, width, size, seed):
        # repeated indices, exact zeros of both signs and values of mixed
        # magnitude, so that the order of the adds shows in the bits
        rng = np.random.default_rng(seed)
        shape = (size,) if width is None else (size, width)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        values = np.where(rng.random(shape) < 0.3, np.copysign(0.0, rng.standard_normal(shape)), values)
        index = rng.integers(0, n, size)
        expected = np.zeros((n,) + shape[1:])
        np.add.at(expected, index, values)
        got = nn.add_rows(index, values, n)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_negative_zeros_and_empty_rows(self):
        # a row of -0.0 only sums to +0.0 from 0.0, as np.add.at into zeros does
        got = nn.add_rows(np.array([1, 1]), np.array([[-0.0, 2.0], [-0.0, -2.0]]), 3)
        assert got.tobytes() == np.zeros((3, 2)).tobytes()
        assert nn.add_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 2).tobytes() == np.zeros((2, 4)).tobytes()
