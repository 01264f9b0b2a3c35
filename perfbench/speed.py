"""The machine's current speed, from a fixed reference probe run between operations.

The machines this benchmark runs on are shared: other tenants slow a whole
run down by 30% or more for minutes at a time, which no amount of work in
one run averages out.  A reference probe, which never touches the program,
is timed every so often between operations.  Each operation's latency is
then scaled to the reference speed, at which the probe takes exactly its
reference time, by the median of the last few probe times.  A change to the
program moves the scaled figures as it moves the raw ones, while a slower
machine moves probe and operations alike.  The raw figures stay in the run
record.

Library workloads use a pure-Python kernel.  Cold command-line invocations
spend their time in process start-up, loading and compiling rather than in
the interpreter loop, and the kernel does not follow their slowdowns, so
they use a cold start of a bare interpreter instead.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import time
from collections import deque


def reference_kernel(n: int = 2500) -> int:
    """Interpreter-bound work of the kind infgon does: tuple keys, dict updates, integer tests."""
    table: dict = {}
    acc = 0
    for i in range(n):
        k = (i % 89, i & 7)
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13 < 6
    return acc


def _kernel_ms() -> float:
    gc.disable()  # the program's garbage must not be collected on the kernel's clock
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()


class Gauge:
    """Rolling measurement of a reference probe's duration."""

    def __init__(self, probe, ref_ms: float, every_s: float, window: int) -> None:
        self.probe = probe
        self.ref_ms = ref_ms  # probe time at the reference speed
        self.every_s = every_s  # seconds of operations between two probes
        self.window = window  # the scale is the median of this many most recent probes
        self.recent: deque = deque(maxlen=window)
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            ms = self.probe()
            self.recent.append(ms)
            self.samples.append(ms)

    def scale(self) -> float:
        """Factor taking a duration measured now to the reference speed."""
        return self.ref_ms / statistics.median(self.recent)

    def summary(self) -> dict:
        s = self.samples
        return {"samples": len(s), "median_ms": statistics.median(s), "min_ms": min(s), "max_ms": max(s)}


def kernel_gauge() -> Gauge:
    """The pure-Python kernel: 1 ms is about its median on a 2.1 GHz Xeon vCPU."""
    return Gauge(_kernel_ms, ref_ms=1.0, every_s=0.025, window=15)


def start_gauge(python: str, env: dict) -> Gauge:
    """A cold ``python -c pass``: 50 ms is about its median on a 2.1 GHz Xeon vCPU."""

    def start_ms() -> float:
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (time.perf_counter() - t0) * 1e3

    return Gauge(start_ms, ref_ms=50.0, every_s=0.5, window=5)
