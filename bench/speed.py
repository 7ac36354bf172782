"""CPU speed probes: how fast the benchmark's CPUs run while it measures.

On a shared host a vCPU's speed changes under the benchmark.  On the
2-vCPU sandbox that produced ``baseline.json`` each vCPU flipped between
two speeds about 1.7x apart, independently and several times a second,
and the share of time spent slow drifted over minutes.  A pass's wall time
follows that share, so the same code read up to 2x apart between runs.

A ``SpeedProbe`` pins one thread to each CPU the workload runs on.  At a
fixed period the thread runs a short fixed kernel and records the
kernel's thread CPU time, so time the thread spends waiting for the CPU
or the interpreter lock does not count.  ``adjusted(start, end)`` divides
the wall time of an interval by the mean kernel cost measured during it,
relative to the kernel's cost at the reference speed: the result is the
time the interval would have taken at that speed.  The kernels are kept
apart from gspp, so a change to gspp cannot move them.

Each workload uses the kernel closest to its own code, because a
neighbour on the host slows different code by different factors: a
channel step on a trajectory-ensemble-shaped array for the QEC workloads,
and a ``scipy.integrate.quad`` of a Python integrand for the classical
one and for interpreter start-up.  On that sandbox, over ten runs per
workload, dividing by the probe cut the run-to-run spread of a pass's
time from 16-39% to 2-6% (README.md, CPU speed).
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
from scipy.integrate import quad


def quad_kernel():
    """``scipy.integrate.quad`` of Python integrands, as the classical
    configs and interpreter start-up run: Python calls between native code."""
    def run() -> float:
        return sum(quad(lambda x: math.exp(-x) * math.cos(k * x) / (1.0 + x * x),
                        0.0, 40.0, limit=200)[0] for k in range(1, 6))
    return run


def ensemble_kernel():
    """One jump-free channel micro-step on a (10000, 45) complex ensemble,
    the shape of the dense QEC workload's (7 MB, more than a core's L2)."""
    rng = np.random.default_rng(0)
    states = rng.standard_normal((10000, 45)) + 1j * rng.standard_normal((10000, 45))
    n = np.arange(45.0)
    decay = np.exp(-1e-3 * n)

    def run() -> float:
        nbar = (np.abs(states) ** 2) @ n
        np.multiply(states, decay, out=states)
        np.divide(states, np.linalg.norm(states, axis=1, keepdims=True), out=states)
        return float(nbar[0])
    return run


# name: (kernel factory, thread CPU seconds per call at the reference
# speed, seconds between calls).  The references are the kernels' costs
# on a fast vCPU of the sandbox above (Intel Xeon, 2.0 GHz); they only
# set the scale of the adjusted times.  Each period keeps a probe near 2%
# of its CPU.
KERNELS = {
    "quad": (quad_kernel, 0.47e-3, 0.025),
    "ensemble": (ensemble_kernel, 7.0e-3, 0.35),
}


class SpeedProbe:
    """Samples the speed of each CPU in `cpus` until the block ends."""

    def __init__(self, cpus, kernel: str):
        self.make_kernel, self.reference, self.period = KERNELS[kernel]
        self.samples: list[tuple[float, float]] = []  # (perf_counter, cost / reference)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._ready = [threading.Event() for _ in cpus]
        self._threads = [threading.Thread(target=self._run, args=(cpu, ready), daemon=True,
                                          name=f"speed-probe-{cpu}")
                         for cpu, ready in zip(cpus, self._ready)]

    def __enter__(self) -> SpeedProbe:
        for thread in self._threads:
            thread.start()
        for ready in self._ready:  # every CPU has a first sample
            ready.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int, ready: threading.Event) -> None:
        try:
            os.sched_setaffinity(0, {cpu})  # pid 0 pins this thread only
            kernel = self.make_kernel()
            while True:
                start = time.thread_time()
                kernel()
                cost = time.thread_time() - start
                with self._lock:
                    self.samples.append((time.perf_counter(), cost / self.reference))
                ready.set()
                if self._stop.wait(self.period):
                    return
        finally:
            ready.set()  # __enter__ must not wait on a thread that failed

    def slowdown(self, start: float, end: float) -> float:
        """Mean relative kernel cost over [start, end]; an interval too short
        to hold a sample takes the samples nearest to it."""
        with self._lock:
            samples = list(self.samples)
        if not samples:
            raise RuntimeError("the speed probe recorded no samples")
        inside = [s for t, s in samples if start <= t <= end]
        if not inside:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _, s in nearest[:len(self._threads)]]
        return sum(inside) / len(inside)

    def adjusted(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the reference speed."""
        return (end - start) / self.slowdown(start, end)
