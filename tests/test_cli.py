import gzip
import importlib.util
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_rows_oracle
from gspp.cli import build_parser, config_defaults, frequency_grid, load_config, main, write_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CLASSICAL_CONFIGS = [cfg.stem for cfg in sorted(CONFIG_DIR.glob("*.cfg"))
                     if load_config(str(cfg))["command"] != "qec"]
QEC_SMALL = ["qec", "--seed", "1", "--mu-c-ev", "1.4", "--k0kappa2x-max", "0.02",
             "--p-list", "1", "--workers", "1"]


def read_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


MATERIAL_ECHO = ["eps_r", "gamma_inter_rad_s", "gamma_intra_rad_s", "mu_c_ev", "n_layers",
                 "sigma_model", "temperature_k"]
QEC_ECHO = MATERIAL_ECHO + ["alpha", "checkpoints", "f0", "g", "input_set", "k0_kappa2_per_m",
                            "k0kappa2x_max", "lambda0_nm", "lambda_eff_m", "p_list", "pol", "seed",
                            "trajectories", "workers"]


def assert_manifest_echoes_header(path: Path, command: str, keys: list[str]):
    """The manifest is the CSV's comment header without '# ', under tool
    and command lines; the header echoes keys and the runtime versions."""
    header = [ln[2:] for ln in path.read_text().splitlines() if ln.startswith("# ")]
    manifest = Path(f"{path}.manifest").read_text().splitlines()
    assert manifest[:2] == ["tool: " + header[0], f"command: {command}"]
    assert manifest[2:] == header[1:]
    versions = ["numpy_version", "python_version", "scipy_version"]
    assert [ln.split(":")[0] for ln in header[1:]] == sorted(keys + versions)


class TestSigmaCommand:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sigma.csv"
        rc = main(["sigma", "--out", str(out), "--points", "25",
                   "--fmin-thz", "1", "--fmax-thz", "100"])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["freq_hz", "sigma_re_S", "sigma_im_S",
                          "sigma_re_over_min", "sigma_im_over_min"]
        assert len(rows) == 25
        assert (out.parent / "sigma.csv.manifest").exists()

    def test_parameter_echo_in_header(self, tmp_path):
        out = tmp_path / "sigma.csv"
        main(["sigma", "--out", str(out), "--points", "3", "--mu-c-ev", "0.7",
              "--fmin-thz", "1", "--fmax-thz", "10"])
        text = out.read_text()
        assert "# mu_c_ev: 0.7" in text

    def test_empty_range_usage_error(self, tmp_path):
        out = tmp_path / "sigma.csv"
        rc = main(["sigma", "--out", str(out), "--points", "0"])
        assert rc == 2

    def test_missing_out_is_usage_error(self):
        assert main(["sigma", "--points", "3"]) == 2

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sigma", "--points", "10", "--fmin-thz", "1", "--fmax-thz", "50"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDispersionCommand:
    def test_paper_wavelength_in_rows(self, tmp_path):
        out = tmp_path / "disp.csv"
        f0 = 2.99792458e8 / 1550e-9
        rc = main(["dispersion", "--out", str(out), "--mu-c-ev", "1.4",
                   "--temperature-k", "300", "--points", "1",
                   "--fmin-thz", str(f0 / 1e12), "--fmax-thz", str(f0 / 1e12)])
        assert rc == 0
        header, rows = read_rows(out)
        tm_row = next(r for r in rows if r[1] == "TM")
        assert int(tm_row[2]) == 1
        lam_eff = float(tm_row[7])
        assert lam_eff == pytest.approx(36.42e-9, rel=0.01)
        te_row = next(r for r in rows if r[1] == "TE")
        assert int(te_row[2]) == 0  # flagged unsupported at this frequency
        assert math.isnan(float(te_row[6]))


@pytest.mark.parametrize("command", ["sigma", "dispersion"])
def test_one_full_conductivity_per_frequency(tmp_path, full_calls, command):
    # the sweep is one conductivity call, which runs the full form once per
    # frequency, in sweep order; dispersion's two polarizations and its
    # group velocities add none
    assert main([command, "--points", "7", "--out", str(tmp_path / "t.csv")]) == 0
    assert full_calls == (2.0 * math.pi * frequency_grid(0.1, 1000.0, 7, True)).tolist()


class TestPrismCommand:
    def test_map_grid_point_matches_direct(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["prism", "reflectance-map", "--out", str(out),
                   "--mu-c-ev", "0.5", "--temperature-k", "300", "--pol", "TM",
                   "--eps1", "1.5", "--d-um", "200",
                   "--theta-min-deg", "64", "--theta-max-deg", "64",
                   "--theta-points", "1", "--fmin-thz", "0.81",
                   "--fmax-thz", "0.81", "--freq-points", "1"])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        from conftest import atr_of
        from gspp.material import GrapheneParams
        from gspp.prism import PrismGeometry
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        geom = PrismGeometry(eps1=1.5, d=200e-6, theta_i=math.radians(64.0),
                             polarization="TM")
        direct = atr_of(geom, params, 2.0 * math.pi * 0.81e12).reflectance
        assert float(rows[0][2]) == pytest.approx(direct, rel=1e-12)

    def test_beta_sweep_csv(self, tmp_path):
        out = tmp_path / "beta.csv"
        rc = main(["prism", "beta-sweep", "--out", str(out),
                   "--mu-c-ev", "0.5", "--temperature-k", "300", "--pol", "TM",
                   "--eps1", "1.5", "--theta-deg", "64", "--f-thz", "0.81",
                   "--d-min-um", "30", "--d-max-um", "70", "--d-points", "3"])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["d_m", "beta_abs", "beta_arg", "g_abs"]
        assert len(rows) == 3
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_below_critical_angle_exit_code(self, tmp_path):
        out = tmp_path / "beta.csv"
        rc = main(["prism", "beta-sweep", "--out", str(out),
                   "--mu-c-ev", "0.5", "--temperature-k", "300", "--pol", "TM",
                   "--eps1", "1.5", "--theta-deg", "30", "--f-thz", "0.81",
                   "--d-min-um", "30", "--d-max-um", "70", "--d-points", "2"])
        assert rc == 3

    def test_matched_sweep_below_critical_angle_exit_code(self, tmp_path):
        # with no dip at any spacing this used to write beta_abs = 0 rows and exit 0
        out = tmp_path / "beta.csv"
        rc = main(["prism", "beta-sweep", "--out", str(out), "--theta-deg", "30",
                   "--match-fmin-thz", "0.5", "--match-fmax-thz", "1", "--d-points", "3"])
        assert rc == 3
        assert not list(tmp_path.iterdir())

    TE_SWEEP = ["prism", "beta-sweep", "--mu-c-ev", "1.24", "--temperature-k", "0",
                "--pol", "TE", "--eps1", "1.5", "--theta-deg", "54.74",
                "--d-min-um", "20", "--d-max-um", "30", "--d-points", "2"]

    @pytest.mark.parametrize("window", [
        ["--match-fmin-thz", "590.5"],
        ["--match-fmax-thz", "591.1"],
        ["--match-fmin-thz", "591.1", "--match-fmax-thz", "590.5"],
        ["--match-fmin-thz", "590.5", "--match-fmax-thz", "590.5"],
    ])
    def test_bad_match_window_rejected(self, tmp_path, capsys, window):
        # a lone bound used to fall back to the fixed-frequency sweep
        out = tmp_path / "beta.csv"
        assert main(self.TE_SWEEP + window + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "match" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["2", "0"])
    def test_too_few_match_scan_points_rejected(self, tmp_path, capsys, points):
        # two scan points cannot bracket a dip; they used to write beta = 0
        out = tmp_path / "beta.csv"
        argv = self.TE_SWEEP + ["--match-fmin-thz", "590.5", "--match-fmax-thz", "591.1",
                                "--match-scan-points", points, "--out", str(out)]
        assert main(argv) == 2
        assert not list(tmp_path.iterdir())
        assert f"scan points to bracket a dip, got {points}" in capsys.readouterr().err

    def test_match_window_echoed(self, tmp_path):
        out = tmp_path / "beta.csv"
        rc = main(self.TE_SWEEP + ["--match-fmin-thz", "590.5", "--match-fmax-thz", "591.1",
                                   "--match-scan-points", "300", "--out", str(out)])
        assert rc == 0
        manifest = (tmp_path / "beta.csv.manifest").read_text()
        for text, prefix in ((out.read_text(), "# "), (manifest, "")):
            for line in ("match_fmin_thz: 590.5", "match_fmax_thz: 591.1",
                         "match_scan_points: 300", "dip_refined: True"):
                assert prefix + line in text.splitlines()


class TestPropagateCommand:
    def test_curve_family(self, tmp_path):
        out = tmp_path / "fid.csv"
        rc = main(["propagate", "--out", str(out), "--alpha", "3",
                   "--beta-list", "1,0.9", "--xi-max", "2", "--points", "20"])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["beta", "k0kappa2_x", "F_initial", "F_matched"]
        assert len(rows) == 40
        first = rows[0]
        assert float(first[0]) == 1.0 and float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)

    def test_values_match_module(self, tmp_path):
        from gspp.channel import fidelity_vs_distance
        out = tmp_path / "fid.csv"
        main(["propagate", "--out", str(out), "--alpha", "3",
              "--beta-list", "0.9", "--xi-max", "1", "--points", "5"])
        _, rows = read_rows(out)
        x = np.array([float(r[1]) for r in rows])
        f_init = np.array([float(r[2]) for r in rows])
        module = fidelity_vs_distance(3.0, math.asin(0.9), x, 1.0, reference="initial")
        assert np.array_equal(f_init, module)


class TestQecCommand:
    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["qec", "--out", str(tmp_path / "q.csv")])
        assert exc.value.code == 2

    def test_csv_and_determinism(self, tmp_path):
        argv = ["qec", "--seed", "7", "--alpha", "3", "--beta", "1",
                "--mu-c-ev", "1.4", "--temperature-k", "300",
                "--lambda0-nm", "1550", "--pol", "TM",
                "--k0kappa2x-max", "0.1", "--p-list", "0,1",
                "--trajectories", "60", "--checkpoints", "3", "--workers", "1"]
        a, b = tmp_path / "qa.csv", tmp_path / "qb.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_rows(a)
        assert header == ["x_over_leff", "p", "F_bar", "std_err", "F0"]
        assert len(rows) == 2 * 3
        manifest = (tmp_path / "qa.csv.manifest").read_text()
        assert "seed: 7" in manifest
        assert "trajectories: 60" in manifest
        assert "gspp" in manifest

    def test_g_flag_gone(self, tmp_path):
        # --beta is the only coupling option
        with pytest.raises(SystemExit) as exc:
            main(QEC_SMALL + ["--g", "1.5707963267948966", "--out", str(tmp_path / "q.csv")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, flags", [
        ("qec-dense-parity", ["--p-list", "1", "--k0kappa2x-max", "0.06", "--workers", "2"]),
        ("qec-lossy-coupler", ["--beta", "0.9511", "--p-list", "0", "--trajectories", "3000",
                               "--workers", "1"]),
    ])
    def test_seed7_tables_match_bench_references(self, tmp_path, name, flags):
        # the benchmark's stored seed-7 tables, byte for byte: the F_bar and
        # std_err digits move with any change to the order of the arithmetic
        out = tmp_path / "q.csv"
        argv = ["qec", "--config", str(CONFIG_DIR / "fig5.cfg"), "--seed", "7", *flags]
        assert main(argv + ["--out", str(out)]) == 0
        with gzip.open(ROOT / "bench" / "golden" / f"{name}.csv.gz", "rt", encoding="utf-8") as fh:
            reference = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        assert [ln for ln in out.read_text().splitlines() if not ln.startswith("#")] == reference

    def test_seed7_fractional_parity_table_matches_reference(self, tmp_path):
        # checks between only some steps at p = 0.6, where two jumps leave
        # a class's flips unchanged, with more live classes than one sweep
        # block; the data rows stored in tests/data, byte for byte
        out = tmp_path / "q.csv"
        argv = ["qec", "--config", str(CONFIG_DIR / "fig5.cfg"), "--p-list", "0.6",
                "--k0kappa2x-max", "0.06", "--trajectories", "3000", "--seed", "7",
                "--workers", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        reference = (ROOT / "tests" / "data" / "qec-fractional-parity.csv").read_text()
        assert [ln for ln in out.read_text().splitlines() if not ln.startswith("#")] == \
            reference.splitlines()

    def test_f_bar_held_to_one(self, tmp_path):
        # at alpha = 38.5 the scores at x = 0 round to just above 1, and the
        # mean read 1.0000000000000002
        out = tmp_path / "q.csv"
        argv = QEC_SMALL + ["--trajectories", "2", "--checkpoints", "2", "--alpha", "38.5"]
        assert main(argv + ["--out", str(out)]) == 0
        f_bar = [float(row[2]) for row in read_rows(out)[1]]
        assert f_bar[0] == 1.0 and all(0.0 <= f <= 1.0 for f in f_bar)

    def test_worker_count_does_not_change_rows(self, tmp_path):
        argv = QEC_SMALL + ["--trajectories", "200", "--checkpoints", "3"]
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
            tables.append(read_rows(out))
        assert len(tables[0][1]) == 3
        assert tables[0] == tables[1]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        argv = QEC_SMALL[:2] + ["-1"] + QEC_SMALL[3:]  # QEC_SMALL with --seed -1
        assert main(argv + ["--trajectories", "4", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "seed" in err and "-1" in err

    def test_ortho_export(self, tmp_path):
        out = tmp_path / "q.csv"
        ortho = tmp_path / "ortho.csv"
        rc = main(["qec", "--seed", "3", "--out", str(out),
                   "--ortho-out", str(ortho), "--alpha", "3",
                   "--mu-c-ev", "1.4", "--temperature-k", "300",
                   "--lambda0-nm", "1550", "--pol", "TM",
                   "--k0kappa2x-max", "0.1", "--p-list", "1",
                   "--trajectories", "8", "--checkpoints", "2", "--workers", "1"])
        assert rc == 0
        header, rows = read_rows(ortho)
        assert header == ["x_over_leff", "overlap_abs"]
        assert all(float(r[1]) <= 1e-2 for r in rows)
        manifest = (tmp_path / "ortho.csv.manifest").read_text().splitlines()
        max_overlap = max(float(r[1]) for r in rows)
        assert f"max_overlap: {max_overlap!r}" in manifest
        assert "violated: False" in manifest

    def test_input_set_flag_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(QEC_SMALL + ["--input-set", "six", "--trajectories", "4",
                              "--out", str(tmp_path / "q.csv")])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, command, keys", [
    (["sigma", "--points", "3"], "sigma",
     MATERIAL_ECHO + ["fmax_thz", "fmin_thz", "log_spacing", "points"]),
    (["dispersion", "--points", "2"], "dispersion",
     MATERIAL_ECHO + ["fmax_thz", "fmin_thz", "log_spacing", "points"]),
    (["prism", "reflectance-map", "--theta-points", "2", "--freq-points", "2"],
     "prism reflectance-map",
     MATERIAL_ECHO + ["d_um", "eps1", "fmax_thz", "fmin_thz", "freq_points", "pol",
                      "theta_max_deg", "theta_min_deg", "theta_points"]),
    (["prism", "beta-sweep", "--d-min-um", "40", "--d-max-um", "70", "--d-points", "2"],
     "prism beta-sweep",
     MATERIAL_ECHO + ["d_max_um", "d_min_um", "d_points", "dip_refined", "eps1", "f_thz",
                      "match_fmax_thz", "match_fmin_thz", "match_scan_points", "max_beta_abs",
                      "max_prism_energy_ratio", "pol", "theta_deg", "validity_warnings"]),
    (["propagate", "--beta-list", "1", "--points", "3"], "propagate",
     ["alpha", "beta_list", "points", "xi_max"]),
    (QEC_SMALL + ["--trajectories", "4", "--checkpoints", "2"], "qec", QEC_ECHO),
])
def test_manifest_is_the_header_echo(tmp_path, argv, command, keys):
    # the keys are pinned, so a new option changes a header only on purpose
    out, ortho = tmp_path / "t.csv", tmp_path / "ortho.csv"
    if command == "qec":
        argv = argv + ["--ortho-out", str(ortho)]
    assert main(argv + ["--out", str(out)]) == 0
    assert_manifest_echoes_header(out, command, keys)
    if command == "qec":
        assert_manifest_echoes_header(ortho, "qec orthogonality",
                                      keys + ["max_overlap", "violated"])


def test_header_echoes_runtime_versions(tmp_path):
    import platform
    import scipy
    out = tmp_path / "p.csv"
    assert main(["propagate", "--beta-list", "1", "--points", "2", "--out", str(out)]) == 0
    echo = [ln[2:] for ln in out.read_text().splitlines() if ln.startswith("# ")]
    for line in (f"python_version: {platform.python_version()}",
                 f"numpy_version: {np.__version__}", f"scipy_version: {scipy.__version__}"):
        assert line in echo


def test_write_csv_matches_per_cell_rendering(tmp_path):
    # the writer formats a column of floats in one conversion; every line
    # must still be the row rendered cell by cell, and an int among floats
    # must not print as a float
    table = {
        "floats": [0.1, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 1e16, 1.0],
        "numpy": np.array([1e-4, 9.99e-5, 1e15, 1.5e16, -2.5, 0.0, math.nan, -math.inf, 7e-300]),
        "mixed_floats": [np.float64(0.1), 2.0, np.float32(0.1), np.float64(-0.0), 1e-5,
                         np.float64(math.inf), 1e16, 3.0, np.float64(5e-324)],
        "ints": [0, 1, -3, np.int64(7), 10**17, 2, 0, 1, np.int32(5)],
        "int_and_floats": [0, 0.5, 0, 1.0, 2.5, 0, -0.0, 1e16, 3],
        "other": [True, np.bool_(False), "TM", "TE", "", "x y", False, "nan", True],
    }
    out = tmp_path / "t.csv"
    write_csv(str(out), "test", {"echoed": 1.0}, table)
    lines = [ln for ln in out.read_text(encoding="utf-8").split("\n") if not ln.startswith("#")]
    assert lines == [",".join(table), *csv_rows_oracle(table), ""]
    assert [line.split(",")[4] for line in lines[1:-1]] == [
        "0", "0.5", "0", "1.0", "2.5", "0", "-0.0", "1e+16", "3"]
    assert lines[1].split(",")[:2] == ["0.1", "0.0001"]
    assert lines[6].split(",")[0] == "5e-324" and lines[7].split(",")[0] == "1e-05"
    assert Path(f"{out}.manifest").is_file()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(str(out), "test", {}, {"a": [1.0, 2.0], "b": [1]})
    assert list(tmp_path.iterdir()) == []


class TestConfigFiles:
    def test_all_checked_in_configs_parse(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            values = load_config(str(cfg))
            assert values, cfg

    @pytest.mark.parametrize("cfg", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda c: c.stem)
    def test_checked_in_config_fits_its_command(self, cfg):
        # every key must be an option of the command the config names, and
        # every value must pass that option's type
        words = load_config(str(cfg))["command"].split()
        argv = words + ["--seed", "0"] * (words[0] == "qec")
        parser = build_parser()
        first = parser.parse_args(argv)
        first.parser.set_defaults(**config_defaults(str(cfg), first))
        assert parser.parse_args(argv).command == " ".join(words)

    @pytest.mark.parametrize("argv, invoked, config, named", [
        (["dispersion"], "dispersion", "fig2a", "sigma"),
        (["prism", "reflectance-map"], "prism reflectance-map", "fig4b-tm", "prism beta-sweep"),
        (["prism", "beta-sweep"], "prism beta-sweep", "fig6a", "prism reflectance-map"),
        (["qec", "--seed", "1"], "qec", "fig4-fid", "propagate"),
    ])
    def test_config_for_another_command_rejected(self, tmp_path, capsys, argv, invoked,
                                                 config, named):
        # these used to run, the prism map from its own defaults
        cfg = CONFIG_DIR / f"{config}.cfg"
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not list(tmp_path.iterdir())
        assert f"{cfg} is a config for {named!r}, not {invoked!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, key", [
        ("points = 3\nfmin_thz = 1\npoints = 5\n", 3, "points"),
        ("mu_c_ev = 0.5\nmu-c-ev = 0.7\n", 2, "mu_c_ev"),
        ("command = sigma\ncommand = sigma\n", 2, "command"),
    ])
    def test_repeated_config_key_rejected(self, tmp_path, capsys, text, line, key):
        # the last value used to win without notice
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        assert main(["sigma", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert list(tmp_path.iterdir()) == [cfg]
        assert f"{cfg}:{line}: config key {key!r} given twice" in capsys.readouterr().err

    def test_config_drives_run_and_flags_override(self, tmp_path):
        out = tmp_path / "sigma.csv"
        rc = main(["sigma", "--config", str(CONFIG_DIR / "fig2a.cfg"),
                   "--out", str(out), "--points", "7"])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 7  # flag overrides the config's 400
        assert "# mu_c_ev: 0.5" in out.read_text()

    def test_explicit_switch_beats_config(self, tmp_path):
        cfg = tmp_path / "log.cfg"
        cfg.write_text("log_spacing = true\nfmin_thz = 1\nfmax_thz = 100\npoints = 3\n")
        out = tmp_path / "sigma.csv"
        rc = main(["sigma", "--config", str(cfg), "--linear-spacing", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert float(rows[1][0]) == pytest.approx(50.5e12)  # linear, not 10 THz
        assert "# log_spacing: False" in out.read_text()

    def test_bad_switch_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("log_spacing = maybe\n")
        rc = main(["sigma", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        rc = main(["sigma", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestFileErrors:
    # each used to end in a traceback with exit code 1

    @pytest.fixture
    def no_ensemble(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr("gspp.cli.average_fidelity", no_run)

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        assert main(["sigma", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not list(tmp_path.iterdir())
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sigma", "--points", "3"],
                                      QEC_SMALL + ["--trajectories", "4"]])
    def test_empty_out_is_usage_error(self, tmp_path, capsys, monkeypatch, no_ensemble, argv):
        # --out "" used to run the whole command and then exit 2 with
        # "No such file or directory: ''"
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", ""]) == 2
        assert "--out is required" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.csv"
        assert main(["sigma", "--points", "3", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_unwritable_ortho_out(self, tmp_path, capsys, no_ensemble):
        # both paths are checked before any ensemble runs
        ortho = tmp_path / "absent" / "ortho.csv"
        argv = QEC_SMALL + ["--trajectories", "4", "--checkpoints", "2",
                            "--out", str(tmp_path / "q.csv"), "--ortho-out", str(ortho)]
        assert main(argv) == 2
        assert str(ortho) in capsys.readouterr().err
        assert not (tmp_path / "q.csv").exists()
        assert not (tmp_path / "q.csv.manifest").exists()

    @pytest.mark.parametrize("argv, blocked", [
        (["sigma", "--points", "3"], "t.csv.manifest"),
        (["propagate", "--beta-list", "1", "--points", "3"], "t.csv.manifest"),
        (QEC_SMALL + ["--trajectories", "4"], "t.csv.manifest"),
        (QEC_SMALL + ["--trajectories", "4", "--ortho-out", "o.csv"], "o.csv.manifest"),
    ])
    def test_unwritable_manifest(self, tmp_path, capsys, monkeypatch, no_ensemble, argv,
                                 blocked):
        # the table used to be written before its manifest failed; qec
        # checked only the tables before it ran every ensemble
        monkeypatch.chdir(tmp_path)
        (tmp_path / blocked).mkdir()
        assert main(argv + ["--out", "t.csv"]) == 2
        assert [path.name for path in tmp_path.iterdir()] == [blocked]
        assert blocked in capsys.readouterr().err

    @pytest.mark.parametrize("ortho", ["q.csv", "./q.csv", "sub/../q.csv", "q.csv.manifest"])
    def test_ortho_out_on_out_rejected(self, tmp_path, capsys, monkeypatch, no_ensemble, ortho):
        # --ortho-out q.csv used to exit 0 with q.csv holding only the
        # orthogonality table
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = QEC_SMALL + ["--trajectories", "4", "--out", str(tmp_path / "q.csv"),
                            "--ortho-out", ortho]
        assert main(argv) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["sub"]
        assert "would write the same file" in capsys.readouterr().err


class TestUsageErrors:
    def test_workers_only_on_qec(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "--workers", "7", "--points", "3",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["prism", "beta-sweep", "--d-points", "0"],
        ["prism", "reflectance-map", "--theta-points", "0"],
        ["propagate", "--points", "0"],
        QEC_SMALL + ["--trajectories", "4", "--checkpoints", "0"],
    ])
    def test_empty_table_rejected(self, tmp_path, argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_more_checkpoints_than_snapshot_steps_rejected(self, tmp_path, capsys):
        # fig5's line has 324 micro-steps: snapshots at steps 0..324
        argv = ["qec", "--config", str(CONFIG_DIR / "fig5.cfg"), "--seed", "1", "--p-list", "0",
                "--trajectories", "3", "--workers", "1"]
        out = tmp_path / "t.csv"
        assert main(argv + ["--checkpoints", "500", "--out", str(out)]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "invalid input" in err and "500 checkpoints" in err and "325 snapshot steps" in err
        assert main(argv + ["--checkpoints", "325", "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == 325

    @pytest.mark.parametrize("argv, flag", [
        (["sigma", "--points", "3", "--tau-intra-ps", "0"], "--tau-intra-ps"),
        (["sigma", "--points", "3", "--tau-inter-ps", "0"], "--tau-inter-ps"),
        (["dispersion", "--points", "3", "--tau-intra-ps", "0"], "--tau-intra-ps"),
        (["dispersion", "--points", "3", "--tau-inter-ps", "0"], "--tau-inter-ps"),
        (["prism", "beta-sweep", "--d-points", "2", "--tau-intra-ps", "0"], "--tau-intra-ps"),
        (["prism", "beta-sweep", "--d-points", "2", "--tau-inter-ps", "0"], "--tau-inter-ps"),
        (QEC_SMALL + ["--trajectories", "4", "--tau-intra-ps", "0"], "--tau-intra-ps"),
        (QEC_SMALL + ["--trajectories", "4", "--tau-inter-ps", "0"], "--tau-inter-ps"),
        (QEC_SMALL + ["--trajectories", "4", "--alpha", "0"], "alpha"),
        (QEC_SMALL + ["--trajectories", "4", "--lambda0-nm", "0"], "--lambda0-nm"),
    ])
    def test_zero_physical_value_rejected(self, tmp_path, capsys, argv, flag):
        # these used to exit 3 on a float division by zero
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "invalid input" in err and flag in err and "got 0" in err

    @pytest.mark.parametrize("argv", [
        ["propagate", "--beta-list", "1", "--alpha", "nan"],
        ["propagate", "--beta-list", "1", "--alpha", "inf"],
        ["sigma", "--points", "3", "--fmin-thz", "nan"],
        ["sigma", "--points", "3", "--temperature-k", "nan"],
        ["sigma", "--points", "3", "--mu-c-ev", "nan"],
        ["dispersion", "--points", "3", "--eps-r", "nan"],
        ["prism", "reflectance-map", "--theta-points", "2", "--freq-points", "2", "--d-um", "nan"],
        QEC_SMALL + ["--trajectories", "4", "--alpha", "inf"],
        QEC_SMALL + ["--trajectories", "4", "--alpha", "nan"],
        QEC_SMALL + ["--trajectories", "4", "--beta", "nan"],
        QEC_SMALL + ["--trajectories", "4", "--k0kappa2x-max", "nan"],
        QEC_SMALL + ["--trajectories", "4", "--beta", "1.5"],
        QEC_SMALL + ["--trajectories", "4", "--beta", "-1.5"],
        ["prism", "reflectance-map", "--theta-max-deg", "60", "--theta-min-deg", "70"],
        ["prism", "beta-sweep", "--d-points", "2", "--d-max-um", "5", "--d-min-um", "10"],
        ["prism", "beta-sweep", "--d-points", "4", "--d-max-um", "10", "--d-min-um", "-5"],
        ["prism", "beta-sweep", "--d-points", "4", "--match-fmin-thz", "0.3",
         "--match-fmax-thz", "1.5", "--d-max-um", "10", "--d-min-um", "-5"],
    ])
    def test_non_finite_or_out_of_range_rejected(self, tmp_path, capsys, argv):
        # these used to exit 0 with nan rows or a descending table, or exit
        # 2 or 3 without naming the flag
        flag, value = argv[-2:]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "invalid input" in err and flag in err and f"got {value}" in err

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("alpha = nan\nbeta_list = 1\n")
        out = tmp_path / "t.csv"
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == [cfg]
        assert "--alpha must be finite, got nan" in capsys.readouterr().err

    def test_negative_beta_accepted(self, tmp_path):
        # a transmission amplitude with phase pi
        out = tmp_path / "q.csv"
        argv = QEC_SMALL + ["--trajectories", "4", "--checkpoints", "2", "--beta", "-0.9"]
        assert main(argv + ["--out", str(out)]) == 0
        assert f"# g: {math.asin(-0.9)!r}" in out.read_text()

    @pytest.mark.parametrize("flags, message", [
        (["--workers=-3"], "--workers must be a positive integer, got -3"),
        (["--workers", "0"], "--workers must be a positive integer, got 0"),
        (["--workers", "-1"], "--workers must be a positive integer, got -1"),
    ])
    def test_bad_worker_count_rejected(self, tmp_path, capsys, flags, message):
        # a count below 1 used to run serially and print itself into the header
        argv = QEC_SMALL[:-2] + flags + ["--trajectories", "4", "--out", str(tmp_path / "q.csv")]
        assert main(argv) == 2
        assert not list(tmp_path.iterdir())
        assert message in capsys.readouterr().err

    def test_unset_workers_means_cpu_count(self, tmp_path, monkeypatch):
        # the CPUs this process may run on, not every CPU of the machine
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out = tmp_path / "q.csv"
        argv = QEC_SMALL[:-2] + ["--trajectories", "4", "--checkpoints", "2", "--out", str(out)]
        assert main(argv) == 0
        assert "# workers: 1\n" in out.read_text()

    def test_workers_environment_variable_ignored(self, tmp_path, monkeypatch):
        # --workers is the only worker setting; GSPP_WORKERS once set it too
        monkeypatch.setenv("GSPP_WORKERS", "abc")
        out = tmp_path / "q.csv"
        argv = QEC_SMALL[:-2] + ["--trajectories", "4", "--checkpoints", "2", "--out", str(out)]
        assert main(argv) == 0
        assert f"# workers: {len(os.sched_getaffinity(0))}\n" in out.read_text()

    @pytest.mark.parametrize("alpha", ["38.7", "1e200"])
    def test_alpha_past_vacuum_underflow_rejected(self, tmp_path, capsys, monkeypatch, alpha):
        # e^{-|alpha|^2/2} underflows to 0 past |alpha| of about 38.6: 38.7
        # used to warn of an invalid division and exit 2 blaming an odd
        # start amplitude, 1e200 to warn of an overflow and exit 3 on an
        # infinite step count
        def no_run(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr("gspp.cli.average_fidelity", no_run)
        out = tmp_path / "q.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(QEC_SMALL + ["--trajectories", "4", "--alpha", alpha, "--out", str(out)]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "invalid input" in err and "alpha is too large" in err

    @pytest.mark.parametrize("argv, flag, entry", [
        (QEC_SMALL + ["--p-list", "1,,0"], "--p-list", "''"),
        (QEC_SMALL + ["--p-list", "abc"], "--p-list", "'abc'"),
        (QEC_SMALL + ["--p-list", "0,inf"], "--p-list", "'inf'"),
        (["propagate", "--beta-list", "1,x"], "--beta-list", "'x'"),
        (["propagate", "--beta-list", "nan"], "--beta-list", "'nan'"),
    ])
    def test_bad_list_entry_rejected(self, tmp_path, capsys, argv, flag, entry):
        # these used to exit 2 with only "could not convert string to float"
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
        assert not list(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "invalid input" in err and flag in err and f"got {entry}" in err

    def test_single_trajectory_rejected(self, tmp_path):
        out = tmp_path / "q.csv"
        argv = QEC_SMALL + ["--trajectories", "1", "--checkpoints", "2", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()


class TestOptionsOfEachCommandLine:
    # each command line takes only the options its table uses; these used to
    # run, writing the table without the option or echoing an eps_r it ignored
    MAP = ["prism", "reflectance-map", "--theta-points", "2", "--freq-points", "2"]
    SWEEP = ["prism", "beta-sweep", "--d-min-um", "40", "--d-max-um", "70", "--d-points", "2"]

    @pytest.mark.parametrize("argv", [
        ["prism", "reflectance-map", "--config", str(CONFIG_DIR / "fig6a.cfg"),
         "--theta-deg", "10"],
        MAP + ["--d-points", "0"],
        MAP + ["--f-thz", "1"],
        MAP + ["--match-fmin-thz", "0.5", "--match-fmax-thz", "1"],
        SWEEP + ["--d-um", "200"],
        SWEEP + ["--theta-min-deg", "50"],
        SWEEP + ["--freq-points", "3"],
        ["sigma", "--points", "3", "--eps-r", "4"],
        MAP + ["--eps-r", "1"],
        SWEEP + ["--eps-r", "1"],
    ])
    def test_option_of_another_command_line_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "t.csv")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, key", [
        (["prism", "reflectance-map"], "fig6a", "d_points"),
        (["prism", "reflectance-map"], "fig6a", "theta_deg"),
        (["prism", "beta-sweep"], "fig4b-tm", "d_um"),
        (["prism", "beta-sweep"], "fig4b-tm", "freq_points"),
        (["prism", "beta-sweep"], "fig4b-tm", "eps_r"),
        (["sigma"], "fig2a", "eps_r"),
    ])
    def test_config_key_of_another_command_line_rejected(self, tmp_path, capsys, argv, config,
                                                         key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text((CONFIG_DIR / f"{config}.cfg").read_text() + f"{key} = 4\n")
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert list(tmp_path.iterdir()) == [cfg]
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def noncanonical_cells(text: str) -> list[str]:
    """Data cells of a table not written as the CSV writer writes them: a
    float as its shortest round-trip repr, supported as 0 or 1 and pol as
    TM or TE."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    allowed = {"supported": ("0", "1"), "pol": ("TM", "TE")}
    bad = []
    for line in lines[1:]:
        for column, cell in zip(header, line.split(","), strict=True):
            if column in allowed:
                ok = cell in allowed[column]
            else:
                try:
                    ok = cell == repr(float(cell))
                except ValueError:
                    ok = False
            if not ok:
                bad.append(f"{column}: {cell!r}")
    return bad


@pytest.mark.parametrize("name", CLASSICAL_CONFIGS)
def test_classical_tables_match_bench_goldens(tmp_path, name):
    # the benchmark's checks: the physical invariants, and every cell within
    # relative 1e-8, floored at 1e-3 of the column's largest magnitude, of
    # the table the seed commit wrote; that tolerance cannot see 1.0
    # printed for 1, so every data cell is also checked for its text
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    cfg = CONFIG_DIR / f"{name}.cfg"
    out = tmp_path / f"{name}.csv"
    argv = load_config(str(cfg))["command"].split() + ["--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert checks.invariants(name, text) + checks.compare_golden(
        name, text, checks.golden_text(name)) == []
    assert noncanonical_cells(text) == []
