"""Host-speed reference for the benchmark's timings.

On the reference machine (2 vCPUs in a Firecracker VM) each vCPU runs
at one of two speeds about 1.9x apart, switching within milliseconds,
and how much of its time it spends slow drifts over tens of seconds
with contention from outside the VM. The two vCPUs drift
independently. A fixed pure Python loop run on the same vCPU as the
measured work slows in step with it, so `run.py` binds itself and its
single-threaded measurements to one vCPU, times this loop on each vCPU
between measurements, and scales every time by REF_S / (the loop's
mean time): the figures it reports are those of the quiet reference
machine.
"""
from __future__ import annotations

import time

# chunk() on the quiet reference machine (Xeon at 2.1 GHz, Python 3.11)
REF_S = 0.0013
# chunks per sample(): about 50 ms
CHUNKS = 25


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def chunk() -> float:
    """Time one fixed loop of the kind chipcost runs: small objects,
    tuples, dict stores and float arithmetic."""
    t0 = time.perf_counter()
    table = {}
    total = 0.0
    for k in range(2000):
        x = _Obj(k * 0.5, k, (k, k + 1))
        y = _Obj(x.a + 1.0, x.b, x.c)
        table[(y.b & 511, "x")] = y
        total += y.a + y.c[0] ** 0.5
    return time.perf_counter() - t0


def sample() -> float:
    """Mean time of CHUNKS chunks."""
    return sum(chunk() for _ in range(CHUNKS)) / CHUNKS
