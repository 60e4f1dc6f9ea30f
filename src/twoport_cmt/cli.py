"""Command-line front end.

Subcommands compute plot-ready CSV/JSON tables: single-beam spectra, phase
sweeps, joint-absorbance curves, rate-space phase diagrams, CPA reports,
time-domain cross-checks, and synthetic-data generation / fitting.  Output is
deterministic for a fixed config and seed; provenance goes to a sidecar
metadata file, never into the data.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import fitting, regimes, timedomain
from .model import (Background, DegenerateResponseError, ModelParams,
                    _defined_elements, _det_s_grid, single_beam_spectrum)
from .timedomain import DriveSpec, SteadyStateNotConvergedError
from .twoport import (_joint, _port_intensities, dephasing_defined,
                      dets_from_observables, observables, output_dephasing,
                      two_beam_outputs)

SCHEMA_VERSION = 1
OUTDIR_ENV = "TWOPORT_CMT_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

HEADERS = {
    "spectrum": ["omega_meV", "R1", "R2", "T", "A1", "A2", "B", "abs_detS"],
    "sweep-phase": ["phi_rad", "out1", "out2", "a_joint"],
    "joint": ["omega_meV", "a_min", "a_max", "a_avg", "delta_psi_rad",
              "abs_detS", "abs_detS_reconstructed"],
    "phase-diagram": ["x", "y", "n_peaks", "scc_residual", "wcc_residual",
                      "min_abs_detS"],
    "cpa": ["omega_meV", "abs_detS_min", "phi_star_rad"],
    "oracle-check": ["omega_meV", "phi_rad", "a_joint_closed",
                     "a_joint_oracle", "abs_diff"],
    "synth": ["omega_meV", "kind", "value", "sigma"],
}

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "model": {"omega0": 124.5, "gamma_r": 3.0, "gamma_nr": 0.0,
              "gamma_m": 5.0, "omega_rabi": 8.0, "delta_m": 0.0},
    "background": {"r_b": 1.0, "theta_b": 0.0},
    "grid": {"min": 105.0, "max": 145.0, "n": 801},
    "output": {"path": "out.csv", "format": "csv"},
    "seed": 0,
    "sweep_phase": {"omega": 124.5, "n_phi": 64},
    "joint": {"n_phi": 64},
    "phase_diagram": {"x_param": "gamma_m", "x_min": 0.0, "x_max": 10.0,
                      "x_n": 21, "y_param": "gamma_r", "y_min": 0.0,
                      "y_max": 10.0, "y_n": 21},
    "cpa": {"tol": 1e-10},
    "oracle_check": {"n_samples": 4},
    "synth": {"kinds": ["A1"], "noise_sigma": 0.005},
    "fit": {"data": "", "free": ["omega0", "gamma_r", "gamma_m", "omega_rabi"]},
}
LEAST_VALUE = {  # the least value of each integer key but schema_version
    "seed": 0, "grid.n": 2, "sweep_phase.n_phi": 1, "phase_diagram.x_n": 1,
    "phase_diagram.y_n": 1, "oracle_check.n_samples": 1,
    "joint.n_phi": 3}  # a sinusoid A + B sin(phi + c) needs three samples


# flag -> config path; the argparse dest is the flag name with dashes turned
# into underscores, and the type that of the path's default (see build_parser)
COMMON_FLAGS = {
    "--output": "output.path",
    "--format": "output.format",
    "--seed": "seed",
    **{f"--{name.replace('_', '-')}": f"model.{name}"
       for name in DEFAULT_CONFIG["model"]},
    "--r-b": "background.r_b",
    "--theta-b": "background.theta_b",
    "--grid-min": "grid.min",
    "--grid-max": "grid.max",
    "--grid-n": "grid.n",
}
COMMAND_FLAGS = {
    "sweep-phase": {"--omega": "sweep_phase.omega",
                    "--n-phi": "sweep_phase.n_phi"},
    "joint": {"--n-phi": "joint.n_phi"},
    "cpa": {"--tol": "cpa.tol"},
    "oracle-check": {"--n-samples": "oracle_check.n_samples"},
    "synth": {"--kinds": "synth.kinds", "--noise-sigma": "synth.noise_sigma"},
    "fit": {"--data": "fit.data", "--free": "fit.free"},
}


def _command_flags(command: str) -> dict:
    """Every flag the subcommand takes besides --config, in --help order."""
    return {**COMMON_FLAGS, **COMMAND_FLAGS.get(command, {})}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """base updated from override, whose every value must have the JSON type
    of the default it replaces (a float key also takes an integer); a float
    must be finite, an integer at least its LEAST_VALUE."""
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        kind = type(base[key])
        if not (type(val) is kind or (kind, type(val)) == (float, int)) or (
                kind is list and not all(type(v) is str for v in val)):
            name = {dict: "an object", int: "an integer", float: "a number",
                    str: "a string", list: "a list of strings"}[kind]
            raise ConfigError(f"config key {where} must be {name}, got {val!r}")
        if kind is float and not abs(val) < math.inf:  # NaN fails too
            raise ConfigError(f"config key {where} must be finite, got {val!r}")
        if kind is int and val < LEAST_VALUE.get(where, val):
            raise ConfigError(
                f"config key {where} must be >= {LEAST_VALUE[where]}, got {val}")
        out[key] = _merge(base[key], val, where) if kind is dict else val
    return out


def load_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {args.config} must be a JSON object, "
                              f"got {type(user).__name__}")
        if user.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError("unsupported schema_version")
        cfg = _merge(cfg, user)
    # the flags that were given, as an override nested like the config
    flags: dict = {}
    for flag, path in _command_flags(args.command).items():
        v = getattr(args, flag[2:].replace("-", "_"))
        if v is not None:
            *parents, key = path.split(".")
            functools.reduce(lambda d, k: d.setdefault(k, {}), parents,
                             flags)[key] = v
    return _merge(cfg, flags)


def _build_grid(cfg: dict) -> np.ndarray:
    g = cfg["grid"]
    if not g["max"] > g["min"]:
        raise ConfigError(f"grid.max must be > grid.min, got {g}")
    return np.linspace(g["min"], g["max"], g["n"])


def _resolve_output(cfg: dict) -> str:
    """The output path, checked with the output format (which `fit` ignores,
    as it always writes JSON)."""
    path, fmt = cfg["output"]["path"], cfg["output"]["format"]
    if not path:
        raise ConfigError("output.path must be a non-empty string, got ''")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _meta(cfg: dict, command: str, **extra) -> dict:
    """Provenance: the `.meta.json` sidecar, or the `meta` of a JSON output."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": cfg, **extra}


def _open_output(path: str):
    """path opened for writing; a path that cannot be is a ConfigError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}")


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with _open_output(path) as fh:
        fh.write(text)


def write_output(cfg: dict, command: str, *columns, **extra_meta) -> int:
    """Write the command's table, its columns in HEADERS order, with its
    provenance; returns EXIT_OK.  A CSV column is written %d, %s or %.17g by
    its dtype kind; a float64 column whose cells all have one bit pattern
    (not merely compare equal: 0.0 and -0.0 differ) is formatted once and
    that text repeated.  A JSON cell is a float unless it is a string."""
    header = HEADERS[command]
    path = _resolve_output(cfg)
    meta = _meta(cfg, command, **extra_meta)
    cols = [np.asarray(c) for c in columns]
    if cfg["output"]["format"] == "csv":
        fields, cells = [], []
        for c in cols:
            col = c.tolist()
            if c.dtype.char == "d" and col and _one_bit_pattern(c, col):
                fields.append("%.17g" % col[0])  # no "%" in a float's text
            else:
                fields.append({"i": "%d", "u": "%d", "U": "%s"}.get(
                    c.dtype.kind, "%.17g"))
                cells.append(col)
        line = ",".join(fields) + "\n"
        with _open_output(path) as fh:
            fh.write(",".join(header) + "\n")
            if cells:
                fh.writelines(line % r for r in zip(*cells))
            else:  # every column constant
                fh.write(line * len(cols[0]))
        try:
            _write_json(path + ".meta.json", meta)
        except ConfigError:
            os.remove(path)  # a config error leaves no file of this run
            raise
    else:
        rows = zip(*((c if c.dtype.kind == "U" else c.astype(float)).tolist()
                     for c in cols))
        _write_json(path, {"meta": meta, "columns": header, "rows": list(rows)})
    return EXIT_OK


def _one_bit_pattern(c: np.ndarray, cells: list) -> bool:
    """Whether the cells of the non-empty float64 column c, given also as
    the floats of c.tolist(), all share one bit pattern."""
    # first and last cells differ and the first is not NaN (NaN != NaN):
    # the common case, told without a numpy call
    if cells[0] != cells[-1] and cells[0] == cells[0]:
        return False
    bits = c.view(np.uint64)
    return bool((bits == bits[0]).all())


def cmd_spectrum(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)
    t = single_beam_spectrum(p, bg, grid)
    return write_output(cfg, "spectrum", t.omega, t.R1, t.R2, t.T, t.A1, t.A2,
                        t.B, t.abs_dets)


def cmd_sweep_phase(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["sweep_phase"]
    phis = np.linspace(0.0, 2 * math.pi, block["n_phi"], endpoint=False)
    a, out1, out2 = two_beam_outputs(
        *_defined_elements(p, bg, block["omega"]), phis)
    return write_output(cfg, "sweep-phase", phis, out1, out2, a)


def cmd_joint(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)
    s11, s12, s22 = _defined_elements(p, bg, grid)
    t, r1, r2, a1, a2 = observables(s11, s12, s22,
                                    ("T", "R1", "R2", "A1", "A2"))[0]
    a_avg, z = _joint(a1, a2, s11, s12, s22)
    a_mod = np.abs(z)  # the extrema over phi are a_avg -+ |z|
    defined = dephasing_defined(s11, s12, s22)
    # the same dephasing measured instead: the phase offset of the two output
    # intensities A + B sin(phi + c) over the input dephasing phi, fitted for
    # every omega of each port's table at once; on n_phi >= 3 phases
    # equispaced over a period, 1, sin and cos are orthogonal, so the
    # least-squares c is the angle of the projections onto cos and sin
    phis = np.linspace(0.0, 2 * math.pi, cfg["joint"]["n_phi"], endpoint=False)
    cos, sin = np.cos(phis)[:, None], np.sin(phis)[:, None]
    c1, c2 = (np.arctan2(np.sum(cos * out, axis=0), np.sum(sin * out, axis=0))
              for out in _port_intensities(s11, s12, s22, phis[:, None]))
    recon = dets_from_observables(t, r1, r2, c2 - c1)
    return write_output(
        cfg, "joint", grid, a_avg - a_mod, a_avg + a_mod, a_avg,
        np.where(defined, output_dephasing(s11, s12, s22), math.nan),
        np.abs(_det_s_grid(p, grid)[0]), np.where(defined, recon, math.nan))


def cmd_phase_diagram(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["phase_diagram"]
    xs, ys = (np.linspace(block[f"{a}_min"], block[f"{a}_max"], block[f"{a}_n"])
              for a in "xy")
    loci = regimes.critical_loci(p, block["x_param"], xs, block["y_param"], ys)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return write_output(cfg, "phase-diagram", xx.ravel(), yy.ravel(),
                        loci.n_peaks.ravel(), loci.scc_residual.ravel(),
                        loci.wcc_residual.ravel(), loci.min_abs_dets.ravel())


def cmd_cpa(cfg: dict, p: ModelParams, bg: Background) -> int:
    pts = regimes.find_cpa(p, tol=cfg["cpa"]["tol"])
    return write_output(cfg, "cpa", [pt.omega for pt in pts],
                        [pt.dets_min for pt in pts],
                        [pt.phi_star for pt in pts], empty_result=not pts)


def cmd_oracle_check(cfg: dict, p: ModelParams, bg: Background) -> int:
    grid = _build_grid(cfg)  # drives are drawn over its range
    n = cfg["oracle_check"]["n_samples"]
    # one (omega, phi) pair per drive, omega drawn first
    ws, phis = np.random.default_rng(cfg["seed"]).uniform(
        [grid[0], -math.pi], [grid[-1], math.pi], (n, 2)).T
    closed = two_beam_outputs(*_defined_elements(p, bg, ws), phis)[0]
    oracle = np.array([
        timedomain.oracle_scattering(p, bg, DriveSpec(omega=w, phi=phi)).a_joint
        for w, phi in zip(ws.tolist(), phis.tolist())])
    return write_output(cfg, "oracle-check", ws, phis, closed, oracle,
                        np.abs(closed - oracle))


def cmd_synth(cfg: dict, p: ModelParams, bg: Background) -> int:
    block = cfg["synth"]
    ds = fitting.synth_dataset(p, bg, _build_grid(cfg), block["kinds"],
                               block["noise_sigma"], cfg["seed"])
    return write_output(cfg, "synth", ds.omega, ds.kind, ds.value, ds.sigma)


def cmd_fit(cfg: dict, p: ModelParams, bg: Background) -> int:
    path = _resolve_output(cfg)
    block = cfg["fit"]
    try:
        data = fitting.SpectrumDataset.from_csv(block["data"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"fit.data: {exc}")
    result = fitting.fit_params(data, p, free=tuple(block["free"]),
                                background=bg)
    _write_json(path, {
        "meta": _meta(cfg, "fit"),
        "params": asdict(result.params),
        "background": asdict(result.background),
        "residual": result.residual,
        "chi2_dof": result.chi2_dof,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "param_sigma": result.param_sigma,
    })
    if not (result.converged and math.isfinite(result.residual)):
        print(f"numerical error: fit not converged after {result.n_iter} "
              f"evaluations (residual {result.residual}); {path} written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep-phase": cmd_sweep_phase,
    "joint": cmd_joint,
    "phase-diagram": cmd_phase_diagram,
    "cpa": cmd_cpa,
    "oracle-check": cmd_oracle_check,
    "synth": cmd_synth,
    "fit": cmd_fit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (do not modify it)."""
    parser = argparse.ArgumentParser(
        prog="twoport-cmt",
        description="Two-port coupled-oscillator scattering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        for flag, path in _command_flags(name).items():
            default = functools.reduce(dict.__getitem__, path.split("."),
                                       DEFAULT_CONFIG)
            sp.add_argument(flag, **({"nargs": "+"} if isinstance(default, list)
                                     else {"type": type(default)}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        # every subcommand validates the model and the background
        return COMMANDS[args.command](cfg, ModelParams(**cfg["model"]),
                                      Background(**cfg["background"]))
    except (DegenerateResponseError, SteadyStateNotConvergedError) as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a ConfigError, or a range the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # Python float arithmetic on huge rates
        print(f"config error: rates too large: arithmetic overflow ({exc})",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
