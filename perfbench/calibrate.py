"""Machine-speed calibration for timings taken on a shared host.

The benchmark's host changes speed by up to 3x within seconds, as other
tenants load it, so raw wall times of the same call differ far more than
any change worth detecting. A fixed kernel, owned by the benchmark and
independent of the package, runs right before and after each timed call,
and every SAMPLE_INTERVAL_S during it, so that many short samples
average the host's speed over the call. Each timing is scaled by
KERNEL_NOMINAL_S / (the mean kernel time), which expresses it in seconds on
a host where the kernel takes KERNEL_NOMINAL_S. A faster program still reads
faster; a slower host does not. Raw timings are recorded next to the
scaled ones.

The kernel mixes the kinds of work the package does: interpreted loops,
allocation of many small Python objects, dict and sort operations, and
small and medium numpy calls.
"""

from __future__ import annotations

import gc
import signal
import time

KERNEL_NOMINAL_S = 0.009
SAMPLE_INTERVAL_S = 0.5


def _kernel_work(np) -> int:
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for batch in range(5):
        keys = [str(i * 7919 % 100_003) for i in range(batch, 10_000, 5)]
        keys.sort()
        index = {key: k for k, key in enumerate(keys)}
        acc += len(index)
        del keys, index
    a = np.arange(50_000, dtype=np.float64)
    np.random.default_rng(acc).shuffle(a)
    a.sort()
    v = a[:64]
    for _ in range(500):
        acc += int(v @ v > 0)
    return acc


def kernel_seconds() -> float:
    """Wall time of one fixed unit of mixed interpreter and numpy work.

    The work runs twice and the second run is timed, so that the sample
    measures the host rather than how much of the kernel the program under
    test evicted from the caches. It is done in small pieces, so it adds
    almost nothing to the process's peak RSS, which the benchmark also
    reports. It makes no objects the cyclic garbage collector tracks, and
    the collector is off while it runs: a collection would traverse the
    program's objects and time the program's heap instead of the host.
    """
    # numpy is imported here, not at module level, so that a worker that
    # imports this module still pays numpy's import inside the timed
    # `import bipartite_ab`
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel_work(np)
        start = time.perf_counter()
        _kernel_work(np)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_times) -> float:
    """`seconds` expressed at nominal host speed, from the kernel times
    measured around it."""
    return seconds * KERNEL_NOMINAL_S * len(kernel_times) / sum(kernel_times)


class InCallSampler:
    """Runs the kernel every SAMPLE_INTERVAL_S while a call is in progress.

    A SIGALRM handler runs the kernel between two bytecodes of the call, on
    the same CPU, so the samples see the speed the call sees. The handler's
    own time is summed in `paused_s`, for the caller to subtract from the
    call's elapsed time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.paused_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
