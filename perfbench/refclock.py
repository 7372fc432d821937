"""A reference clock, so that times stay comparable while the machine's
speed drifts.

The 2-core VM the bounds were set on switches between speeds up to about
1.9x apart, for seconds to minutes at a time. The slow state hits
interpreter-bound code (small-array numpy calls inside Python recursion)
harder than array code. So the benchmark times two fixed kernels,
interleaved with the measured work:

- ``walk``: a recursive walk of small trees with small numpy index
  operations, in the style of tree Shapley. It is the reference for
  requests, which are mostly ``shap_tree``.
- ``split``: a sorted split search over 900 rows, in the style of boosted
  trees and the other array code of a report.

Their duration at a moment gives the machine's speed then, and every
end-to-end time is reported at the reference speed, at which the kernels
of the phase take their ``NOMINAL_S``:

    time at reference speed = wall time * nominal kernel time / kernel time

Requests use ``walk`` alone; a report and a set-up use ``walk`` + ``split``,
because they mix both kinds of code. The kernels and their inputs are fixed
in this file (its own seed, never the workload's), so a change to the
program cannot move them. ``walk`` is sampled before every request and
after the last, so a request's speed comes from the samples on either side
of it; during a long operation (a report, a set-up) both kernels are
sampled by a ``SIGALRM`` interval timer in the main thread, whose handler
time is taken out of the operation's wall time.
No thread or process is started.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = {"walk": 0.002, "split": 0.002}   # kernel times at reference speed
REQUEST_KERNELS = ("walk",)
BATCH_KERNELS = ("walk", "split")
TIMER_S = 0.25            # sampling interval inside a long operation
WINDOW = 2                # samples around a request that set its speed
TRIM = 0.1                # share cut from each tail before averaging speeds

_rng = np.random.default_rng(20240601)
_D = 20
_Z = _rng.random((128, _D))
_X = _rng.random((2, _D))


def _tree(depth):
    n = 2 ** (depth + 1) - 1
    feat = np.where(np.arange(n) < 2 ** depth - 1, _rng.integers(0, _D, n), -1)
    return feat, _rng.random(n), _rng.standard_normal(n)


_TREES = [_tree(3) for _ in range(12)]
_S = _rng.random((900, _D))
_G = _rng.standard_normal(900)
_N = np.arange(1, 900)


def _walk():
    acc = {}
    for x in _X:
        for feat, thr, val in _TREES:
            def walk(node, zidx, forced, k):
                f = feat[node]
                if f < 0:
                    for g in forced:
                        acc[g] = acc.get(g, 0.0) + val[node] * zidx.size / (k + 1)
                    return
                zl = _Z[zidx, f] < thr[node]
                xl = x[f] < thr[node]
                agree = zl == xl
                if agree.any():
                    walk(2 * node + 1 + (not xl), zidx[agree], forced, k)
                dis = zidx[~agree]
                if dis.size:
                    walk(2 * node + 1 + xl, dis, {**forced, int(f): True}, k + 1)
            walk(0, np.arange(_Z.shape[0]), {}, 0)
    return acc


def _split():
    best = 0.0
    for j in range(_D):
        c = np.cumsum(_G[np.argsort(_S[:, j], kind="stable")])
        gain = c[:-1] ** 2 / _N + (c[-1] - c[:-1]) ** 2 / (900 - _N)
        best = max(best, float(gain.max()))
    return best


KERNELS = {"walk": _walk, "split": _split}


def _trimmed_mean(values) -> float:
    v = np.sort(np.asarray(values, dtype=float))
    cut = int(len(v) * TRIM)
    return float(v[cut:len(v) - cut].mean())


class Interval:
    """One long operation: its wall time without the sampling, and that
    time at reference speed."""
    wall_s = 0.0
    seconds = 0.0


class RefClock:
    def __init__(self):
        self.t = []                           # start time of each sample
        self.d = {k: [] for k in KERNELS}     # each kernel's duration in it
        self._paused = 0.0                    # handler time inside an interval
        self._busy = False
        for kernel in KERNELS.values():       # warm up: the first call is not typical
            kernel()

    def sample(self, kernels=tuple(KERNELS)) -> float:
        """Time each of `kernels` once (the others read NaN in this sample);
        return how long the sample took."""
        if self._busy:
            return 0.0
        self._busy = True
        try:
            t0 = time.perf_counter()
            for name, kernel in KERNELS.items():
                k0 = time.perf_counter()
                if name in kernels:
                    kernel()
                self.d[name].append(time.perf_counter() - k0 if name in kernels
                                    else np.nan)
            self.t.append(t0)
            return time.perf_counter() - t0
        finally:
            self._busy = False

    def _speeds(self, kernels, first=0) -> np.ndarray:
        """Speed in each sample from `first` on, judged by `kernels`."""
        took = sum(np.asarray(self.d[k][first:]) for k in kernels)
        return sum(NOMINAL_S[k] for k in kernels) / took

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.sample()
        self._paused += time.perf_counter() - t0

    @contextmanager
    def measure(self):
        """Time the body, sampling the kernels before, every ``TIMER_S``
        during, and after it. The interval timer is stopped and the previous
        handler restored on every way out."""
        iv = Interval()
        first = len(self.t)
        self.sample()
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        t0 = time.perf_counter()
        try:
            yield iv
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            iv.wall_s = t1 - t0 - self._paused
            self.sample()
            iv.seconds = iv.wall_s * _trimmed_mean(self._speeds(BATCH_KERNELS, first))

    def speeds_at(self, times) -> np.ndarray:
        """Speed at each of `times`: the trimmed mean over the ``WINDOW``
        samples nearest in order of time."""
        t = np.asarray(self.t)
        speed = self._speeds(REQUEST_KERNELS)
        half = WINDOW // 2
        out = np.empty(len(times))
        for i, at in enumerate(np.searchsorted(t, times)):
            lo = max(0, min(at - half, len(t) - WINDOW))
            out[i] = _trimmed_mean(speed[lo:lo + WINDOW])
        return out

    def kernel_ms(self) -> dict:
        """Median duration of each kernel, for the run summary."""
        return {k: float(np.nanmedian(d)) * 1e3 for k, d in self.d.items() if d}
