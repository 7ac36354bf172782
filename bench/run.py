"""gspp benchmark: three figure workloads driven in-process through
``gspp.cli.main``, measured from outside the program.

    python3 bench/run.py --workload figures-classical --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload qec-dense-parity --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes (see ``tracing.py``).  ``--smoke`` runs every
workload at a tiny size, checks included, in seconds.  The last line of
standard output is the JSON result; the lines above it are a readable
report.  Scratch files, reports and spans go to ``.bench_out/`` in the
checkout.  See README.md for the workloads and metrics.
"""

import os

# BLAS gets one thread per worker; this must happen before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"

WORKLOADS = ("figures-classical", "qec-dense-parity", "qec-lossy-coupler")
CLASSICAL = ("fig2a", "fig2b", "fig4b-tm", "fig4b-te", "fig4-fid", "fig6a", "fig6b", "fig6c")
# Extra `gspp qec --config configs/fig5.cfg` flags and the worker count.
QEC = {
    # p = 1: a parity projection after every micro-step; 10k trajectories
    # on two workers; the line is cut to 108 micro-steps.
    "qec-dense-parity": (["--p-list", "1", "--k0kappa2x-max", "0.06"], 2),
    # weakest-coupling panel: 91 excitation micro-steps and 294 line steps
    # with only the initial parity check, on one worker.
    "qec-lossy-coupler": (["--beta", "0.9511", "--p-list", "0", "--trajectories", "3000"], 1),
}
# The speed-probe kernel of each workload and of set-up (see speed.py):
# the one whose slowdown on a loaded host follows theirs.
PROBE_KERNEL = {"figures-classical": "quad", "qec-dense-parity": "ensemble",
                "qec-lossy-coupler": "ensemble", "setup": "quad"}
REF_SEED = 7  # seed of the stored --workers 1 QEC references
WORKER_CHECK_TRAJECTORIES = 200  # size of the per-run workers 1 vs 2 check
SMOKE_CONFIG = "fig4b-tm"
SMOKE_TRAJECTORIES = 40
SETUP_RUNS = 5
MIN_TIMED = 2  # timed passes (pairs with --trace 1) per run, at least


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import gspp from this checkout's src/ and nowhere else."""
    if not (SRC / "gspp" / "cli.py").is_file() or not CONFIGS.is_dir():
        fail(f"no gspp sources or configs under {ROOT}")
    sys.path.insert(0, str(SRC))
    import gspp.cli
    if Path(gspp.cli.__file__).resolve().parent != SRC / "gspp":
        fail(f"gspp imported from {gspp.cli.__file__}, not from {SRC}")
    return gspp.cli


# ---------------------------------------------------------------------------
# workloads

def operations(workload: str, seed: int, smoke: bool) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pass, as (output name, argv without --out)."""
    if workload == "figures-classical":
        names = [SMOKE_CONFIG] if smoke else list(CLASSICAL)
        random.Random(seed).shuffle(names)  # the seed sets the run order
        return [(n, config_command(n) + ["--config", str(CONFIGS / f"{n}.cfg")])
                for n in names]
    extra, workers = QEC[workload]
    argv = ["qec", "--config", str(CONFIGS / "fig5.cfg"), "--seed", str(seed),
            *extra, "--workers", str(workers)]
    if smoke:
        argv += ["--trajectories", str(SMOKE_TRAJECTORIES)]
    return [(workload, argv)]


def config_command(name: str) -> list[str]:
    from gspp.cli import load_config
    return load_config(str(CONFIGS / f"{name}.cfg"))["command"].split()


def run_op(cli, argv: list[str], out: Path):
    try:
        return cli.main(argv + ["--out", str(out)])
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return None


def run_pass(cli, ops, work: Path):
    """Run every operation once; returns ({name: (start, end)}, {name: (rc, text)})
    with perf_counter start and end times."""
    windows, outputs = {}, {}
    for name, argv in ops:
        path = work / f"{name}.csv"
        start = time.perf_counter()
        rc = run_op(cli, argv, path)
        windows[name] = (start, time.perf_counter())
        outputs[name] = (rc, path.read_text(encoding="utf-8") if rc == 0 else "")
        path.unlink(missing_ok=True)
    return windows, outputs


def elapsed(start: float, end: float) -> float:
    return end - start


def pass_seconds(passes: list[dict], duration=elapsed) -> float:
    """One pass's time: the sum over its operations of the median of each
    one's duration(start, end)."""
    return sum(statistics.median(duration(*p[name]) for p in passes) for name in passes[0])


def pass_totals(passes: list[dict]) -> list[float]:
    """The wall time of each pass."""
    return [sum(elapsed(*w) for w in p.values()) for p in passes]


class Checker:
    """Checks every operation's output and keeps the tally."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.at_ref_seed = seed == REF_SEED and not smoke
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first: dict[tuple, str] = {}
        names = [SMOKE_CONFIG] if smoke else CLASSICAL
        self.golden = {n: checks.golden_text(n) for n in
                       (names if workload == "figures-classical" else [workload])}

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, name: str, rc, text: str, warmup: bool = False) -> None:
        if rc != 0:
            self.record(name, [f"{name}: exit code {rc}"])
            return
        problems = checks.invariants(name, text)
        if self.workload == "figures-classical":
            problems += checks.compare_golden(name, text, self.golden[name])
        else:
            exact = self.at_ref_seed and not warmup
            problems += checks.qec_against_reference(name, text, self.golden[name], exact)
            first = self.first.setdefault((name, warmup), text)
            if text != first:
                problems.append(f"{name}: output differs between passes at one seed")
        self.record(name, problems)

    def check_pass(self, outputs, warmup: bool = False) -> None:
        for name, (rc, text) in outputs.items():
            self.check(name, rc, text, warmup)


def worker_count_check(cli, checker: Checker, ops, work: Path) -> None:
    """The dense workload's table at --workers 2 must equal the one at
    --workers 1 (run small and untimed)."""
    name, argv = ops[0]
    small = argv + ["--trajectories", str(WORKER_CHECK_TRAJECTORIES)]
    tables = []
    for workers in (1, 2):
        out = work / f"workers{workers}.csv"
        rc = run_op(cli, small + ["--workers", str(workers)], out)
        text = out.read_text(encoding="utf-8") if rc == 0 else ""
        problems = [] if rc == 0 else [f"{name} --workers {workers}: exit code {rc}"]
        tables.append(checks.table(text))
        if workers == 2 and tables[0] != tables[1]:
            problems.append(f"{name}: --workers 1 and --workers 2 tables differ")
        checker.record(name, problems + checks.invariants(name, text))


# ---------------------------------------------------------------------------
# measurements

def pin(workload: str) -> list[int]:
    """Keep this thread, and the threads and processes it starts, on as many
    CPUs as the workload has workers, so the speed probes watch those."""
    workers = QEC[workload][1] if workload in QEC else 1
    cpus = sorted(os.sched_getaffinity(0))[:workers]
    os.sched_setaffinity(0, cpus)
    return cpus


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """Fresh-interpreter (start, end) times of importing gspp.cli and
    building its parser; the first run (which may compile bytecode) is not
    kept."""
    cmd = [sys.executable, "-c", "import gspp.cli; gspp.cli.build_parser()"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    windows = []
    for i in range(runs + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            windows.append((start, time.perf_counter()))
    return windows


def work_per_pass(workload: str, outputs) -> tuple[str, float]:
    """Rows written (classical) or trajectory-steps (QEC) by one pass."""
    if workload == "figures-classical":
        return "rows_per_s", sum(len(checks.table(t)[1]) for _, t in outputs.values())
    from gspp.qec import QecRunConfig
    (_, text), = outputs.values()
    echo = dict(ln[2:].split(": ", 1) for ln in text.splitlines()
                if ln.startswith("# ") and ": " in ln)
    k2 = float(echo["k0_kappa2_per_m"])
    cfg = QecRunConfig(alpha=float(echo["alpha"]), g=float(echo["g"]), k0_kappa2=k2,
                       x_total=float(echo["k0kappa2x_max"]) / k2, parity_p=0.0,
                       n_trajectories=int(echo["trajectories"]),
                       input_set=echo["input_set"])
    steps = cfg.n_excitation_steps + cfg.n_steps
    return "traj_steps_per_s", len(cfg.input_states()) * cfg.n_trajectories * steps


def traced_pass(cli, ops, work: Path):
    from gspp.prism import ValidityWarning
    tracer = tracing.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracing.installed(tracer):
            times, outputs = run_pass(cli, ops, work)
    tracer.counts["prism.validity_warnings"] = sum(
        issubclass(w.category, ValidityWarning) for w in caught)
    return times, outputs, tracer


def timed_loop(step, seconds: float, minimum: int) -> list:
    """Call step() at least `minimum` times, and again while another call
    is expected to finish within `seconds` of the first."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + statistics.median(durations) > seconds:
            return results


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *CONFIGS.glob("*.cfg")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (SRC / "gspp").rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "GSPP_WORKERS")},
        "seed": seed,
    }


def check_counts_repeat(workload: str, seed: int, smoke: bool, counts: list[dict]) -> list[str]:
    """Counts of every traced pass in this run, and of earlier runs of the
    same sources at this seed (kept under .bench_out/counts), must agree."""
    problems = [f"counts differ between traced passes: {diff(counts[0], c)}"
                for c in counts[1:] if c != counts[0]]
    tag = f"{workload}{'-smoke' if smoke else ''}-seed{seed}-{source_digest()[:16]}"
    store = OUT / "counts" / f"{tag}.json"
    if store.exists():
        before = json.loads(store.read_text(encoding="utf-8"))
        if before != counts[0]:
            problems.append(f"counts differ from an earlier run at this seed: "
                            f"{diff(before, counts[0])}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts[0], indent=1, sort_keys=True), encoding="utf-8")
    return problems


def diff(a: dict, b: dict) -> dict:
    return {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}


# ---------------------------------------------------------------------------

def end_to_end(cli, ops, checker: Checker, work: Path, workload: str, cpus: list[int],
               seconds: float, smoke: bool):
    """Returns (metrics, samples, report-only extras).  Times are converted
    to the reference CPU speed by a speed probe on the run's CPUs."""
    def step():
        windows, outputs = run_pass(cli, ops, work)
        checker.check_pass(outputs)
        return windows, outputs

    with speed.SpeedProbe(cpus, PROBE_KERNEL["setup"]) as setup_probe:
        setup = measure_setup(1 if smoke else SETUP_RUNS)
    with speed.SpeedProbe(cpus, PROBE_KERNEL[workload]) as probe:
        results = timed_loop(step, seconds, MIN_TIMED)
    passes = [windows for windows, _ in results]
    setup_ref = [setup_probe.adjusted(*w) for w in setup]
    wall = pass_seconds(passes)
    work_name, work_units = work_per_pass(workload, results[0][1])
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "wall_ref_s": (pass_seconds(passes, probe.adjusted), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    samples = {"setup_s": setup_ref, "setup_wall_s": [elapsed(*w) for w in setup],
               "pass_s": pass_totals(passes),
               "pass_slowdown": [probe.slowdown(min(w[0] for w in p.values()),
                                                max(w[1] for w in p.values()))
                                 for p in passes]}
    extra = {"wall_s": wall, "setup_wall_s": statistics.median(elapsed(*w) for w in setup),
             work_name: work_units / wall, "failed_frac": checker.failed / checker.attempted}
    return metrics, samples, extra


def per_layer(cli, ops, checker: Checker, work: Path, workload: str, seed: int,
              seconds: float, smoke: bool):
    """Alternating untraced and traced passes; returns (metrics, samples)."""
    def step():
        index = len(layers)
        if index % 2:  # alternate which side runs first
            traced, outputs, tracer = traced_pass(cli, ops, work)
            checker.check_pass(outputs)
        plain, outputs = run_pass(cli, ops, work)
        checker.check_pass(outputs)
        if not index % 2:
            traced, outputs, tracer = traced_pass(cli, ops, work)
            checker.check_pass(outputs)
        tracing.write_spans(tracer, spans_path, index, "w" if index == 0 else "a")
        layers.append(tracing.layer_metrics(tracer, QEC[workload][1] if workload in QEC else 0))
        return plain, traced

    spans_path = OUT / "trace" / f"{workload}{'-smoke' if smoke else ''}-seed{seed}.tsv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    layers: list[dict] = []
    pairs = timed_loop(step, seconds, MIN_TIMED)
    counts = [tracing.exact_counts(m) for m in layers]
    checker.problems += check_counts_repeat(workload, seed, smoke, counts)
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        value = values[0] if name in counts[0] else statistics.median(values)
        metrics[name] = (value, tracing.unit(name))
    plain = pass_seconds([p for p, _ in pairs])
    traced = pass_seconds([t for _, t in pairs])
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    samples = {"untraced_pass_s": pass_totals([p for p, _ in pairs]),
               "traced_pass_s": pass_totals([t for _, t in pairs]),
               "spans": str(spans_path.relative_to(ROOT))}
    return metrics, samples


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cli = load_program()
    ops = operations(workload, seed, smoke)
    checker = Checker(workload, seed, smoke)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = {"workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke}
    allowed = os.sched_getaffinity(0)
    report["cpus"] = cpus = pin(workload)
    try:
        # A small pass first, so lazy imports and first-call costs are paid
        # before timing.
        _, warm = run_pass(cli, operations(workload, seed, smoke=True), work)
        checker.check_pass(warm, warmup=True)
        if workload == "qec-dense-parity":
            worker_count_check(cli, checker, ops, work)
        if trace:
            metrics, report["samples"] = per_layer(cli, ops, checker, work, workload, seed,
                                                   seconds, smoke)
        else:
            metrics, report["samples"], report["extra"] = end_to_end(
                cli, ops, checker, work, workload, cpus, seconds, smoke)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)

    report.update(provenance=provenance(seed), problems=checker.problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    report["result"] = {"correct": not checker.problems, "attempted": checker.attempted,
                        "failed": checker.failed, "metrics": report["metrics"]}
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    samples = report.get("samples", {})
    counts = {k: len(v) for k, v in samples.items() if isinstance(v, list)}
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}"
          f"  samples {json.dumps(counts)}")
    for name, m in report["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in report.get("extra", {}).items():
        unit = {"rows_per_s": "rows/s", "traj_steps_per_s": "steps/s", "wall_s": "s",
                "setup_wall_s": "s"}.get(name, "frac")
        print(f"  {name:44s} {value:14.6g} {unit}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"provenance {json.dumps(report['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, traced and untraced")
    args = parser.parse_args(argv)
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                report = run(workload, args.seed, 0.0, trace, smoke=True)
                print_report(report)
                ok &= report["result"]["correct"]
        print("smoke", "passed" if ok else "FAILED")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print_report(report)
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
