"""Repeat the benchmark over several seeds, report the run-to-run spread
of every end-to-end metric, and optionally write baseline.json.

    python3 bench/baseline.py --runs 10                # spread only
    python3 bench/baseline.py --runs 10 --write        # also baseline.json

Each workload runs once per seed (seeds first-seed .. first-seed+runs-1)
with --trace 0, then once with --trace 1 at the first seed.  The spread of
a metric is the distance between the first and third quartiles of its
values (statistics.quantiles, n=4) as a share of their median; the
benchmark is steady when every spread except setup_s's is below a third
of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / "reports" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return result, report, elapsed


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    baseline = {"settings": {"runs": args.runs, "first_seed": args.first_seed,
                             "seconds": seconds}, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        extra: dict[str, list[float]] = {}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, report, took = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: checks failed: {report['problems']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in report["extra"].items():
                extra.setdefault(name, []).append(value)
            elapsed.append(took)
            baseline.setdefault("provenance", report["provenance"])
        entry = {"end_to_end": {}, "extra": {k: summary(v) for k, v in extra.items()},
                 "run_elapsed_s": summary(elapsed)}
        print(f"{workload}: {args.runs} runs, {statistics.median(elapsed):.1f} s each (median)")
        for name, vals in values.items():
            s = summary(vals)
            entry["end_to_end"][name] = s
            limit = bounds[name] / 3
            ok = name == "setup_s" or s["spread"] < limit
            steady &= ok
            print(f"  {name:12s} median {s['median']:10.5g}  spread {s['spread']:7.2%}"
                  f"  (bound/3 {limit:.2%}){'' if ok else '  TOO WIDE'}")
        result, report, took = run_once(workload, args.first_seed, seconds, 1)
        if not result["correct"]:
            sys.exit(f"{workload} traced: checks failed: {report['problems']}")
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_run_elapsed_s"] = took
        print(f"  traced run {took:.1f} s, overhead"
              f" {result['metrics']['trace.overhead_frac']['value']:.2%}")
        baseline["workloads"][workload] = entry
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                             encoding="utf-8")
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
