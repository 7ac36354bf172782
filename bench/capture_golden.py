"""Write the golden outputs under golden/ from the current sources.

    python3 bench/capture_golden.py

The files in the repository were written at the commit that introduced
the benchmark; rewrite them only when a change to the program's outputs
is intended.  The QEC references are --workers 1 runs of the full
workloads at run.REF_SEED.
"""

import gzip
import tempfile
from pathlib import Path

import run

GOLDEN = Path(__file__).resolve().parent / "golden"


def main() -> None:
    cli = run.load_program()
    GOLDEN.mkdir(exist_ok=True)
    ops = run.operations("figures-classical", 0, smoke=False)
    for workload in run.QEC:
        name, argv = run.operations(workload, run.REF_SEED, smoke=False)[0]
        ops.append((name, argv + ["--workers", "1"]))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, argv in ops:
            out = Path(tmp) / f"{name}.csv"
            if run.run_op(cli, argv, out) != 0:
                raise SystemExit(f"{name} failed")
            with gzip.GzipFile(GOLDEN / f"{name}.csv.gz", "wb", mtime=0) as fh:
                fh.write(out.read_bytes())
            print(name, "written")


if __name__ == "__main__":
    main()
