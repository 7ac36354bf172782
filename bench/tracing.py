"""Out-of-program tracing for the benchmark.

The traced pass replaces gspp's public layer functions with timing
wrappers at every module binding (``gspp.dispersion.conductivity`` and
``gspp.cli.conductivity`` are separate bindings of one function), records
one span per call and a few counts, and restores the originals afterwards.
Nothing under ``src/`` is changed.

A span is ``(id, parent, thread, name, start, end)``.  Each thread keeps
its own stack of open spans; a span opened on a pool thread whose stack is
empty takes the innermost open span of the main thread as its parent, so
``qec.run_ensemble`` spans hang under ``qec.average_fidelity``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (module under gspp, function, span name).  The cli command functions are
# bound by build_parser() on every main() call, so patching the module
# global is enough for them too.
TARGETS = (
    ("material", "conductivity_full", "material.conductivity_full"),
    ("material", "conductivity_lowT", "material.conductivity_lowT"),
    ("dispersion", "solve_mode", "dispersion.solve_mode"),
    ("dispersion", "group_velocity", "dispersion.group_velocity"),
    ("quantize", "mode_normalization", "quantize.mode_normalization"),
    ("prism", "atr_solve_sigma", "prism.atr_solve_sigma"),
    ("prism", "matching_frequency", "prism.matching_frequency"),
    ("prism", "reflectance_map", "prism.reflectance_map"),
    ("prism", "overlap_beta", "prism.overlap_beta"),
    ("channel", "fidelity_vs_distance", "channel.fidelity_vs_distance"),
    ("qec", "average_fidelity", "qec.average_fidelity"),
    ("qec", "run_ensemble", "qec.run_ensemble"),
    ("qec", "trajectory_rng", "qec.trajectory_rng"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "cmd_sigma", "cli.sigma"),
    ("cli", "cmd_dispersion", "cli.dispersion"),
    ("cli", "cmd_prism", "cli.prism"),
    ("cli", "cmd_propagate", "cli.propagate"),
    ("cli", "cmd_qec", "cli.qec"),
)
CLI_COMMANDS = ("sigma", "dispersion", "prism", "propagate", "qec")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        try:
            return (stack or self._main_stack)[-1]
        except IndexError:  # the main stack emptied concurrently
            return 0

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, threading.get_ident(), name, start, end))
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced


def _count_ensemble(tracer: Tracer, args, result) -> None:
    config = args[0]
    nt = config.n_trajectories
    checks = int(config.check_schedule().sum()) + int(config.initial_check)
    tracer.add("qec.jumps", int(result[1].sum()))
    tracer.add("qec.parity_checks", checks * nt)
    tracer.add("qec.traj_steps", (config.n_excitation_steps + config.n_steps) * nt)


def _count_csv_bytes(tracer: Tracer, args, result) -> None:
    tracer.add("cli.write_csv.bytes", os.path.getsize(args[0]))


HOOKS = {"qec.run_ensemble": _count_ensemble, "cli.write_csv": _count_csv_bytes}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every gspp binding of each target for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "gspp" or name.startswith("gspp."))]
    patched = []
    try:
        for module, func, span in TARGETS:
            original = getattr(sys.modules[f"gspp.{module}"], func)
            wrapper = tracer.wrap(span, original, HOOKS.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the benchmark's per_layer set,
    except trace.overhead_frac, which needs the untraced runs)."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    children = defaultdict(list)
    for sid, parent, _thread, name, start, end in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        children[parent].append((start, end))

    def per_call_us(name):
        return busy[name] / calls[name] * 1e6 if calls[name] else 0.0

    out: dict[str, float] = {}
    for name in ("material.conductivity_full", "material.conductivity_lowT",
                 "dispersion.solve_mode", "dispersion.group_velocity",
                 "quantize.mode_normalization", "prism.atr_solve_sigma",
                 "prism.matching_frequency", "prism.overlap_beta",
                 "channel.fidelity_vs_distance", "qec.run_ensemble",
                 "qec.trajectory_rng", "cli.write_csv"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    out["material.conductivity_full.us_per_call"] = per_call_us("material.conductivity_full")
    out["prism.atr_solve_sigma.us_per_call"] = per_call_us("prism.atr_solve_sigma")
    out["prism.reflectance_map.busy_s"] = busy["prism.reflectance_map"]
    out["prism.validity_warnings"] = tracer.counts["prism.validity_warnings"]
    out["qec.average_fidelity.busy_s"] = busy["qec.average_fidelity"]
    steps = tracer.counts["qec.traj_steps"]
    out["qec.us_per_traj_step"] = busy["qec.run_ensemble"] / steps * 1e6 if steps else 0.0
    pool_busy = workers * busy["qec.average_fidelity"]
    out["qec.parallel_efficiency"] = busy["qec.run_ensemble"] / pool_busy if pool_busy else 0.0
    out["qec.jumps"] = tracer.counts["qec.jumps"]
    out["qec.parity_checks"] = tracer.counts["qec.parity_checks"]
    out["cli.write_csv.bytes"] = tracer.counts["cli.write_csv.bytes"]
    self_s = defaultdict(float)
    for sid, _parent, _thread, name, start, end in tracer.spans:
        if name.startswith("cli.") and name != "cli.write_csv":
            self_s[name] += (end - start) - _covered(children[sid])
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", "validity_warnings", ".jumps", ".parity_checks")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("us_per_call", "us_per_traj_step")):
        return "us"
    if name.endswith(("parallel_efficiency", "overhead_frac")):
        return "frac"
    return "s"


def exact_counts(metrics: dict[str, float]) -> dict[str, int]:
    """The counts that must repeat exactly at a fixed seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".bytes")) or k in (
                "qec.jumps", "qec.parity_checks", "prism.validity_warnings")}


def write_spans(tracer: Tracer, path, pass_index: int, mode: str) -> None:
    with open(path, mode, encoding="utf-8") as fh:
        if mode == "w":
            fh.write("pass\tid\tparent\tthread\tname\tstart_s\tend_s\n")
        for sid, parent, thread, name, start, end in tracer.spans:
            fh.write(f"{pass_index}\t{sid}\t{parent}\t{thread}\t{name}\t{start:.9f}\t{end:.9f}\n")
