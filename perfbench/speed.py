"""Machine-speed reference for normalizing wall times.

The host's speed drifts by 10-30% over tens of seconds (measured with a
fixed numpy loop on a 2-vCPU KVM guest, Intel Xeon family 6 model 207), so raw
wall times of identical work differ between runs by more than any useful
regression bound. The benchmark therefore times a fixed reference kernel
right before and right after every program call and reports each call's wall
time scaled to a nominal kernel time:

    normalized = wall * NOMINAL_KERNEL_S / mean(kernel before, kernel after)

A slower program raises normalized times one for one; a slower host raises
the kernel time too and cancels out. Raw wall times are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_KERNEL_S = 0.0018  # the kernel's typical time on the reference host (see README.md)

_rng = np.random.default_rng(12345)
_ROWS = _rng.random((256, 1024))
_VEC = _rng.random(1024)
_MAT = _rng.random((512, 64))
_SQ = _rng.random((64, 64))
_SORT = _rng.random(32768)


def _kernel() -> int:
    """Interpreter work, small numpy calls, a small matmul and a sort: the
    program's own mix of work, in miniature."""
    acc = 0
    for i in range(256):
        hits = np.flatnonzero(_ROWS[i] + _VEC > 1.5)
        d = {}
        for j in range(16):
            d[j] = (i * j) % 7
        acc += len(hits) + sum(d.values())
    acc += int((_MAT @ _SQ).sum() > 0)
    acc += int(np.sort(_SORT)[0] >= 0)
    return acc


class SpeedProbe:
    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        self.samples: list[float] = []

    def sample(self) -> float:
        """Fastest of a few kernel runs: spikes lengthen single runs, drift moves all."""
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def last(self) -> float:
        return self.samples[-1] if self.samples else self.sample()


def timed(probe: SpeedProbe, fn, *args):
    """Run fn(*args) between two kernel samples; returns (result, wall s, normalized s)."""
    before = probe.last()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    after = probe.sample()
    return result, wall, wall * NOMINAL_KERNEL_S / ((before + after) / 2.0)
