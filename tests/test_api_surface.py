"""The public surface of src/gspp is what the pipeline runs.

A public top-level name (no leading underscore) of a src/gspp module must
be referenced by src/gspp code outside its own definition, or stand on
KEEP with a reason.  Re-exports in __init__.py do not count as a use, and
neither do references from a definition that is itself unused, so a chain
of helpers that only tests call fails as a whole.  Test scaffolding and
independent cross-checks belong in tests/conftest.py.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gspp"

KEEP = {
    "quantize.mode_function": "stage 3's output: the vector mode profile",
    "quantize.vector_potential_amplitude": "stage 3's output: the quantized field amplitude",
    "channel.matched_turning_point": "library physics: where the matched-reference fidelity turns",
    "prism.prism_mode_normalization": "library physics: the prism photon mode's quantization length",
    "prism.overlap_beta": "library physics: beta at one frequency; the benchmark traces it by name",
    "prism.atr_solve_sigma": "library physics: one ATR solve at a given sheet conductivity; the benchmark traces it by name",
    "qec.trajectory_rng": "defines the streams _ensemble_uniforms builds; the benchmark traces it by name",
}


def defined_names(node) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def referenced_names(node) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unused_public_names(keep) -> list[str]:
    """Qualified public names that no live src/gspp definition references."""
    bodies = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    public = {f"{module}.{name}" for module, body in bodies.items() for node in body
              for name in defined_names(node) if not name.startswith("_")}
    dead: set[str] = set()
    while True:
        used = set()
        for module, body in bodies.items():
            for node in body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                owner = {f"{module}.{name}" for name in defined_names(node)}
                if owner and owner <= dead:
                    continue
                refs = referenced_names(node)
                used |= {q for q in public - owner if q.split(".", 1)[1] in refs}
        now_dead = public - used - set(keep)
        if now_dead == dead:
            return sorted(dead)
        dead = now_dead


def test_every_public_name_is_used():
    unused = unused_public_names(KEEP)
    assert not unused, f"public names that nothing in src/gspp uses: {unused}"


def test_keep_entries_are_needed():
    # each entry names a public top-level definition that nothing else uses
    for name, reason in KEEP.items():
        assert reason.strip()
        assert name in unused_public_names(KEEP.keys() - {name})


def test_readme_library_sketch_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", sketch], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # the sketch prints the TM effective wavelength at 1550 nm, "~36 nm"
    assert abs(float(run.stdout) - 36e-9) < 2e-9


def test_traced_names_resolve():
    # the benchmark's tracer patches these gspp functions by name
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{func}" for module, func, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"gspp.{module}"), func, None))]
    assert not missing, f"bench/tracing.py traces names gspp no longer defines: {missing}"
