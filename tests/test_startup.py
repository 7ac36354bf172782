"""What a gspp process imports: scipy only where it integrates.

Only the finite-temperature interband conductivity integral needs scipy
(its QUADPACK quadrature; the slope kernel has its own rule), so the CLI, and the figure configs that never integrate, run
without importing it.  Each check starts a fresh interpreter, since this
test process has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# scipy modules loaded at exit, whether numpy.polynomial is, and the CLI's
# exit code, as one JSON line
REPORT = ("import json, sys; print(json.dumps({'rc': rc, 'scipy': sorted("
          "m for m in sys.modules if m.split('.')[0] == 'scipy'),"
          " 'polynomial': 'numpy.polynomial' in sys.modules}))")


def run_fresh(code: str, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_cli_import_and_parser_load_no_scipy(tmp_path):
    report = run_fresh("import gspp.cli; gspp.cli.build_parser(); rc = 0", tmp_path)
    assert report["scipy"] == []
    # the slope kernel's Gauss-Legendre nodes are built at its first call
    assert not report["polynomial"]


@pytest.mark.parametrize("name", ["fig4b-te", "fig4-fid", "fig6a"])
def test_configs_without_quadrature_load_no_scipy(tmp_path, name):
    # zero-temperature prism studies and the fidelity curves never integrate
    cfg = CONFIG_DIR / f"{name}.cfg"
    code = ("import gspp.cli\n"
            f"words = gspp.cli.load_config({str(cfg)!r})['command'].split()\n"
            f"rc = gspp.cli.main(words + ['--config', {str(cfg)!r}, '--out', 'out.csv'])")
    report = run_fresh(code, tmp_path)
    assert report["rc"] == 0
    assert report["scipy"] == []


def test_room_temperature_sigma_imports_quadpack_at_first_quadrature(tmp_path):
    code = ("import gspp.cli\n"
            "rc = gspp.cli.main(['sigma', '--points', '3', '--fmin-thz', '1',"
            " '--fmax-thz', '100', '--out', 'sigma.csv'])")
    report = run_fresh(code, tmp_path)
    assert report["rc"] == 0
    assert "scipy.integrate" in report["scipy"]
    # 300 K, 0.5 eV: every point takes the finite-temperature integral; the
    # rows are those gspp wrote when it imported scipy at start-up, but for
    # the 100 THz sigma_im, which moved by 3.9e-16 when the sweep began to
    # pass each frequency as a Python float, as every one-point call does
    rows = [ln for ln in (tmp_path / "sigma.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows == [
        "freq_hz,sigma_re_S,sigma_im_S,sigma_re_over_min,sigma_im_over_min",
        "1000000000000.0,0.0035301403007431367,0.007762162309119801,"
        "58.01059649365484,127.55517550897734",
        "10000000000000.0,4.290010261934516e-05,0.0009331895094488633,"
        "0.7049749671601789,15.33505058520016",
        "100000000000000.0,9.044489453466439e-07,7.641134911638101e-05,"
        "0.014862758516020105,1.2556633911102735",
    ]
