"""Batch front end: one subcommand per study, CSV emission, config files,
deterministic seeds and run manifests.

Output CSVs carry a comment header (lines starting with '#') echoing every
physical parameter, followed by an RFC-4180-style table (UTF-8).  A float
cell is Python's shortest round-trip repr ('.' decimal; positional from
1e-4 up to 1e16, scientific outside, and nan, inf, -inf); an integer cell
prints as an integer and a string bare.  A plain-text manifest is written
next to each output: the same parameter echo under the tool and command
lines.
Exit codes: 0 success, 2 validation or file error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .channel import AMPLITUDE_MATCHED, INITIAL, fidelity_vs_distance
from .dispersion import (
    TE,
    TM,
    UnsupportedModeError,
    effective_wavelength,
    propagation_length,
    solve_mode,
)
from .material import (
    CONSTANTS,
    GrapheneParams,
    LogSingularityError,
    QuadratureError,
    conductivity,
    default_tau_intra,
    sigma_min,
)
from .prism import (
    NotResonant,
    PrismGeometry,
    coupling_from_beta,
    matching_frequency,
    overlap_sweep,
    reflectance_map,
)
from .qec import QecRunConfig, average_fidelity, orthogonality_monitor

# what each command line's set_defaults stores besides its options
ROUTING = ("func", "parser", "command")
# parse values the parameter echo leaves out: the routing, the files, and
# options it echoes as what they set (the scattering times as rates, qec's
# --beta as the coupling angle g)
NOT_ECHOED = ROUTING + ("config", "out", "ortho_out", "tau_intra_ps", "tau_inter_ps", "beta")


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines, '#' comments; CLI flags override

def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice")
            values[key] = val.strip()
    return values


def config_defaults(path: str, args) -> dict:
    """Config values keyed by option destination, for args.parser.set_defaults().

    args is a first parse of the command line: its options are the valid
    keys, and those holding a bool are switches, which take true/false
    words.  argparse runs each other string through its option's type when
    it parses, and a flag given on the command line beats its default, so
    explicit flags win over the config file.  A config's command key, when
    present, must name the invoked command.
    """
    options = {key: value for key, value in vars(args).items()
               if key not in ROUTING + ("config",)}
    defaults = {}
    for key, raw in load_config(path).items():
        if key == "command":
            if raw.split() != args.command.split():
                raise ValueError(f"{path} is a config for {raw!r}, not {args.command!r}")
            continue
        if key not in options:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(options[key], bool):
            word = raw.lower()
            if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                raise ValueError(f"config key {key!r} needs true or false, not {raw!r}")
            defaults[key] = word in ("1", "true", "yes", "on")
        else:
            defaults[key] = raw
    return defaults


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@functools.cache
def _versions() -> dict[str, str]:
    """Python, numpy and scipy versions for the parameter echo; scipy's is
    read from its package metadata, so echoing it does not import scipy."""
    import platform
    from importlib.metadata import version
    return {"python_version": platform.python_version(),
            "numpy_version": np.__version__, "scipy_version": version("scipy")}


def _column_text(column) -> list[str]:
    """The cells of one column as _fmt writes them: a column of floats
    (Python or numpy) in one conversion, any other cell by cell, so no int
    is printed as a float."""
    if ((isinstance(column, np.ndarray) and column.dtype.kind == "f")
            or all(isinstance(v, (float, np.floating)) for v in column)):
        return list(map(repr, np.asarray(column, dtype=float).tolist()))
    return [_fmt(v) for v in column]


def write_csv(path: str, command: str, params: dict, table: dict) -> None:
    """The table, {column name: column} in column order with columns of
    one length, at path under a '# ' parameter echo (params and the
    versions of python, numpy and scipy), and the same echo under tool and
    command lines at path + '.manifest'; neither file is written unless
    both can be."""
    require_writable(path)
    params = params | _versions()
    echo = [f"{key}: {_fmt(params[key])}\n" for key in sorted(params)]
    texts = [_column_text(column) for column in table.values()]
    lines = [",".join(table), *map(",".join, zip(*texts, strict=True))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# gspp {__version__}\n")
        fh.writelines("# " + line for line in echo)
        fh.write("\n".join(lines) + "\n")
    with open(path + ".manifest", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"tool: gspp {__version__}\ncommand: {command}\n")
        fh.writelines(echo)


def require_writable(path: str) -> None:
    """Raise an OSError naming path or its manifest when either cannot be
    written, without creating them."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such directory", path)
    for target in (path, path + ".manifest"):
        if os.path.isdir(target) or not os.access(
                target if os.path.exists(target) else folder, os.W_OK):
            raise PermissionError(errno.EACCES, "cannot write", target)


def float_list(flag: str, text: str) -> list[float]:
    """The finite numbers of a comma-separated list option."""
    values = []
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{flag} needs comma-separated finite numbers, got {entry!r} in {text!r}")
        values.append(value)
    return values


def worker_count(flag: int | None) -> int:
    """--workers, else the count of CPUs this process may run on; at least 1."""
    if flag is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if flag < 1:
        raise ValueError(f"--workers must be a positive integer, got {flag}")
    return flag


# ---------------------------------------------------------------------------
# shared option groups and the parameter echo

def add_material_options(sub: argparse.ArgumentParser, background: bool) -> None:
    """The sheet's options, and --eps-r where the command uses a background
    permittivity (sigma is the sheet's alone; prism needs vacuum)."""
    sub.add_argument("--mu-c-ev", type=float, default=0.5,
                     help="chemical potential (eV)")
    sub.add_argument("--temperature-k", type=float, default=300.0)
    sub.add_argument("--tau-intra-ps", type=float, default=None,
                     help="intraband scattering time (ps); default 0.35 at"
                          " room temperature, 5 below 150 K")
    sub.add_argument("--tau-inter-ps", type=float, default=0.0658)
    if background:
        sub.add_argument("--eps-r", type=float, default=1.0)
    sub.add_argument("--n-layers", type=int, default=1)
    sub.add_argument("--sigma-model", choices=("auto", "full", "low"), default="auto",
                     help="conductivity form at every frequency: auto takes the full form"
                          " at T > 0 and the closed form at T = 0; full or low pins one")


def material_from_args(args) -> GrapheneParams:
    for flag, tau in (("--tau-intra-ps", args.tau_intra_ps), ("--tau-inter-ps", args.tau_inter_ps)):
        if tau is not None and not tau > 0.0:
            raise ValueError(f"{flag} must be > 0, got {tau}")
    if args.tau_intra_ps is None:
        tau_intra = default_tau_intra(args.temperature_k)
    else:
        tau_intra = args.tau_intra_ps * 1e-12
    return GrapheneParams(
        mu_c=args.mu_c_ev,
        temperature=args.temperature_k,
        gamma_intra=1.0 / tau_intra,
        gamma_inter=1.0 / (args.tau_inter_ps * 1e-12),
        eps_r=getattr(args, "eps_r", 1.0),
        n_layers=args.n_layers,
        conductivity_model=args.sigma_model,
    )


def parameter_echo(args, params: GrapheneParams | None = None, **derived) -> dict:
    """The parsed options of args but NOT_ECHOED, then the material
    parameters params sets, then the command's derived values."""
    echo = {key: value for key, value in vars(args).items() if key not in NOT_ECHOED}
    if params is not None:
        echo |= {
            "mu_c_ev": params.mu_c,
            "temperature_k": params.temperature,
            "gamma_intra_rad_s": params.gamma_intra,
            "gamma_inter_rad_s": params.gamma_inter,
            "eps_r": params.eps_r,
            "n_layers": params.n_layers,
            "sigma_model": params.conductivity_model,
        }
    return echo | derived


def frequency_grid(fmin_thz: float, fmax_thz: float, points: int,
                   log_spacing: bool) -> np.ndarray:
    if points < 1:
        raise ValueError("need at least one frequency point")
    if fmin_thz <= 0.0 or fmax_thz < fmin_thz:
        raise ValueError("need 0 < fmin <= fmax")
    if points == 1:
        return np.array([fmin_thz * 1e12])
    if log_spacing:
        return np.logspace(math.log10(fmin_thz), math.log10(fmax_thz), points) * 1e12
    return np.linspace(fmin_thz, fmax_thz, points) * 1e12


# ---------------------------------------------------------------------------
# subcommands

def cmd_sigma(args) -> int:
    params = material_from_args(args)
    freqs = frequency_grid(args.fmin_thz, args.fmax_thz, args.points, args.log_spacing)
    smin = sigma_min()
    sig = conductivity(params, 2.0 * math.pi * freqs).value
    write_csv(args.out, args.command, parameter_echo(args, params),
              {"freq_hz": freqs, "sigma_re_S": sig.real, "sigma_im_S": sig.imag,
               "sigma_re_over_min": sig.real / smin, "sigma_im_over_min": sig.imag / smin})
    return 0


def cmd_dispersion(args) -> int:
    params = material_from_args(args)
    freqs = frequency_grid(args.fmin_thz, args.fmax_thz, args.points, args.log_spacing)
    sig = conductivity(params, 2.0 * math.pi * freqs)
    modes = [solve_mode(params, sig, pol) for pol in (TM, TE)]
    with np.errstate(divide="ignore"):  # the lengths of unsupported rows are dropped
        columns = {
            "supported": [mode.supported.astype(int) for mode in modes],
            "kappa_re": [mode.kappa.real for mode in modes],
            "kappa_im": [mode.kappa.imag for mode in modes],
            "q0_re_per_m": [mode.q0.real for mode in modes],
            "vg_m_s": [mode.v_g for mode in modes],
            "lambda_eff_m": [np.where(mode.supported, effective_wavelength(mode), math.nan)
                             for mode in modes],
            "L_prop_m": [np.where(mode.supported, propagation_length(mode), math.nan)
                         for mode in modes]}
    # each frequency's TM row, then its TE row
    table = {"freq_hz": np.repeat(freqs, 2), "pol": [TM, TE] * len(freqs)}
    table |= {name: np.stack(pair, axis=1).ravel() for name, pair in columns.items()}
    write_csv(args.out, args.command, parameter_echo(args, params), table)
    return 0


def cmd_prism(args) -> int:
    params = material_from_args(args)
    if args.command == "prism reflectance-map":
        if args.theta_points < 1:
            raise ValueError("need at least one angle point")
        if args.theta_min_deg > args.theta_max_deg:
            raise ValueError(f"need --theta-min-deg <= --theta-max-deg, got "
                             f"{args.theta_min_deg} > {args.theta_max_deg}")
        thetas = np.radians(np.linspace(args.theta_min_deg, args.theta_max_deg,
                                        args.theta_points))
        geom = PrismGeometry(eps1=args.eps1, d=args.d_um * 1e-6, theta_i=thetas,
                             polarization=args.pol)
        omegas = 2.0 * math.pi * frequency_grid(args.fmin_thz, args.fmax_thz,
                                                args.freq_points, False)
        grid = reflectance_map(geom, params, omegas)
        # row (i, j) is omegas[i], thetas[j]: grid's C order
        write_csv(args.out, args.command, parameter_echo(args, params),
                  {"freq_hz": np.repeat(omegas / (2.0 * math.pi), len(thetas)),
                   "theta_deg": np.tile(np.degrees(thetas), len(omegas)), "R": grid.ravel()})
        return 0

    # beta-sweep
    if args.d_points < 1:
        raise ValueError("need at least one spacing point")
    if not 0.0 < args.d_min_um <= args.d_max_um:
        raise ValueError(f"need 0 < --d-min-um <= --d-max-um, got {args.d_min_um} and {args.d_max_um}")
    matched = args.match_fmin_thz is not None
    if matched != (args.match_fmax_thz is not None):
        raise ValueError("--match-fmin-thz and --match-fmax-thz must be given together")
    if matched and not 0.0 < args.match_fmin_thz < args.match_fmax_thz:
        raise ValueError("need 0 < match fmin < match fmax")
    geom = PrismGeometry(eps1=args.eps1,
                         d=np.linspace(args.d_min_um, args.d_max_um, args.d_points) * 1e-6,
                         theta_i=math.radians(args.theta_deg), polarization=args.pol)
    if matched:
        omegas = matching_frequency(geom, params, 2.0 * math.pi * args.match_fmin_thz * 1e12,
                                    2.0 * math.pi * args.match_fmax_thz * 1e12,
                                    n_scan=args.match_scan_points)
    else:
        omegas = 2.0 * math.pi * args.f_thz * 1e12
    betas, ratios = overlap_sweep(geom, params, omegas)
    echo = parameter_echo(args, params, dip_refined=matched,
                          max_beta_abs=float(np.abs(betas).max()),
                          validity_warnings=int(np.sum(ratios > 1.0)),
                          max_prism_energy_ratio=float(np.nanmax(ratios)))
    write_csv(args.out, args.command, echo,
              {"d_m": geom.d, "beta_abs": [abs(b) for b in betas],
               "beta_arg": [math.atan2(b.imag, b.real) for b in betas],
               "g_abs": [abs(coupling_from_beta(b)) for b in betas]})
    return 0


def cmd_propagate(args) -> int:
    betas = float_list("--beta-list", args.beta_list)
    if args.points < 1:
        raise ValueError("need at least one distance point")
    x = np.linspace(0.0, args.xi_max, args.points)
    f_init, f_match = [], []
    for beta in betas:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta values must lie in (0, 1]")
        g = math.asin(beta)
        f_init.append(fidelity_vs_distance(args.alpha, g, x, 1.0, reference=INITIAL))
        f_match.append(fidelity_vs_distance(args.alpha, g, x, 1.0, reference=AMPLITUDE_MATCHED))
    write_csv(args.out, args.command, parameter_echo(args),
              {"beta": np.repeat(betas, len(x)), "k0kappa2_x": np.tile(x, len(betas)),
               "F_initial": np.concatenate(f_init), "F_matched": np.concatenate(f_match)})
    return 0


def cmd_qec(args) -> int:
    params = material_from_args(args)
    workers = worker_count(args.workers)
    p_values = float_list("--p-list", args.p_list)
    if not args.lambda0_nm > 0.0:
        raise ValueError(f"--lambda0-nm must be > 0, got {args.lambda0_nm}")
    if not abs(args.beta) <= 1.0:
        raise ValueError(f"--beta must lie in [-1, 1], got {args.beta}")
    outputs = [path for path in (args.out, args.ortho_out) if path]
    for path in outputs:
        require_writable(path)
    files = {os.path.realpath(path + ext) for path in outputs for ext in ("", ".manifest")}
    if len(files) < 2 * len(outputs):
        raise ValueError(f"--ortho-out {args.ortho_out!r} and --out {args.out!r}"
                         " would write the same file")
    g = math.asin(args.beta)
    omega = 2.0 * math.pi * CONSTANTS.c0 / (args.lambda0_nm * 1e-9)
    mode = solve_mode(params, conductivity(params, omega), args.pol)
    if not mode.supported:
        raise UnsupportedModeError(f"{args.pol} not supported at this frequency")
    k0_kappa2 = mode.k.imag
    lam_eff = effective_wavelength(mode)
    x_total = args.k0kappa2x_max / k0_kappa2

    curves = []
    for p in p_values:
        cfg = QecRunConfig(alpha=args.alpha, g=g, k0_kappa2=k0_kappa2,
                           x_total=x_total, parity_p=p,
                           n_trajectories=args.trajectories, seed=args.seed,
                           n_checkpoints=args.checkpoints)
        curves.append(average_fidelity(cfg, workers=workers))
    counts = [len(curve.x) for curve in curves]
    echo = parameter_echo(args, params, g=g, k0_kappa2_per_m=k0_kappa2, lambda_eff_m=lam_eff,
                          input_set=cfg.input_set, f0=curves[-1].f0, workers=workers)
    write_csv(args.out, args.command, echo,
              {"x_over_leff": np.concatenate([curve.x for curve in curves]) / lam_eff,
               "p": np.repeat(p_values, counts),
               "F_bar": np.concatenate([curve.f_bar for curve in curves]),
               "std_err": np.concatenate([curve.std_err for curve in curves]),
               "F0": np.repeat([curve.f0 for curve in curves], counts)})

    if args.ortho_out:
        # the report reads only alpha, g, k0*kappa'' and x_total, which every p shares
        report = orthogonality_monitor(cfg)
        write_csv(args.ortho_out, "qec orthogonality",
                  echo | {"max_overlap": report.max_overlap, "violated": report.violated},
                  {"x_over_leff": report.x / lam_eff, "overlap_abs": report.overlap})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspp",
        description="Graphene surface-plasmon quantum transfer simulator")
    parser.add_argument("--version", action="version", version=f"gspp {__version__}")
    subs = parser.add_subparsers(required=True)

    def command(group, name: str, func, text: str, line: str = "") -> argparse.ArgumentParser:
        """A command line's parser; it and its line (name unless given)
        are stored in the parse, for --config and the manifest."""
        sub = group.add_parser(name, help=text)
        sub.add_argument("--config", type=str, default=None,
                         help="key = value config file; flags override")
        sub.add_argument("--out", type=str, required=False, default=None)
        sub.set_defaults(func=func, parser=sub, command=line or name)
        return sub

    for name, func, text in (("sigma", cmd_sigma, "sheet conductivity sweep"),
                             ("dispersion", cmd_dispersion, "surface-wave dispersion sweep")):
        sweep = command(subs, name, func, text)
        add_material_options(sweep, background=name == "dispersion")
        sweep.add_argument("--fmin-thz", type=float, default=0.1)
        sweep.add_argument("--fmax-thz", type=float, default=1000.0)
        sweep.add_argument("--points", type=int, default=400)
        sweep.add_argument("--log-spacing", action="store_true", default=True)
        sweep.add_argument("--linear-spacing", dest="log_spacing", action="store_false")

    modes = subs.add_parser("prism", help="prism-coupling studies").add_subparsers(required=True)
    rmap = command(modes, "reflectance-map", cmd_prism,
                   "reflectance over incidence angle and frequency", "prism reflectance-map")
    bsweep = command(modes, "beta-sweep", cmd_prism,
                     "transmission amplitude over prism-graphene spacing", "prism beta-sweep")
    for sub in (rmap, bsweep):
        add_material_options(sub, background=False)
        sub.add_argument("--eps1", type=float, default=1.5)
        sub.add_argument("--pol", choices=(TM, TE), default=TM)
    rmap.add_argument("--d-um", type=float, default=0.62, help="prism-graphene spacing (um)")
    rmap.add_argument("--theta-min-deg", type=float, default=50.0)
    rmap.add_argument("--theta-max-deg", type=float, default=80.0)
    rmap.add_argument("--theta-points", type=int, default=60)
    rmap.add_argument("--fmin-thz", type=float, default=500.0)
    rmap.add_argument("--fmax-thz", type=float, default=700.0)
    rmap.add_argument("--freq-points", type=int, default=60)
    bsweep.add_argument("--theta-deg", type=float, default=64.0, help="incidence angle (deg)")
    bsweep.add_argument("--f-thz", type=float, default=0.81)
    bsweep.add_argument("--d-min-um", type=float, default=5.0)
    bsweep.add_argument("--d-max-um", type=float, default=200.0)
    bsweep.add_argument("--d-points", type=int, default=40)
    bsweep.add_argument("--match-fmin-thz", type=float, default=None,
                        help="refine the evaluation frequency to the "
                             "reflectance dip inside this window")
    bsweep.add_argument("--match-fmax-thz", type=float, default=None)
    bsweep.add_argument("--match-scan-points", type=int, default=900)

    prop = command(subs, "propagate", cmd_propagate, "lossy-propagation fidelity curves")
    prop.add_argument("--alpha", type=float, default=3.0)
    prop.add_argument("--beta-list", type=str, default="1,0.98,0.95,0.9,0.8")
    prop.add_argument("--xi-max", type=float, default=3.0,
                      help="maximum k0*kappa''*x")
    prop.add_argument("--points", type=int, default=200)

    qec = command(subs, "qec", cmd_qec, "error-corrected propagation ensembles")
    add_material_options(qec, background=True)
    qec.add_argument("--alpha", type=float, default=3.0)
    qec.add_argument("--beta", type=float, default=1.0,
                     help="transmission amplitude; the coupling angle is g = asin(beta)")
    qec.add_argument("--lambda0-nm", type=float, default=1550.0)
    qec.add_argument("--pol", choices=(TM, TE), default=TM)
    qec.add_argument("--k0kappa2x-max", type=float, default=0.18)
    qec.add_argument("--p-list", type=str, default="0,0.2,0.4,0.6,0.8,1")
    qec.add_argument("--trajectories", type=int, default=10_000)
    qec.add_argument("--checkpoints", type=int, default=7)
    qec.add_argument("--seed", type=int, required=True)
    qec.add_argument("--ortho-out", type=str, default=None)
    qec.add_argument("--workers", type=int, default=None,
                     help="parallel workers (default: the CPUs this process may use)")

    return parser


def require_finite(args) -> None:
    """Reject a float option that is nan or infinite, from a flag or a config."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{dest.replace('_', '-')} must be finite, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**config_defaults(args.config, args))
            args = parser.parse_args(argv)
        require_finite(args)
        if not args.out:
            raise ValueError("--out is required")
        return args.func(args)
    except (ValueError, UnsupportedModeError, LogSingularityError) as exc:
        print(f"gspp: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gspp: file error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, NotResonant, ArithmeticError) as exc:
        print(f"gspp: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
