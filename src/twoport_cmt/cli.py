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
                    _defined_elements, single_beam_spectrum)
from .regimes import WindowTooNarrowError
from .timedomain import DriveSpec, SteadyStateNotConvergedError
from .twoport import (dephasing_defined, dets_from_observables, observable,
                      output_dephasing, two_beam_extrema, two_beam_outputs)

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


_FLOAT = {"type": float}
_INT = {"type": int}
_WORDS = {"nargs": "+"}
# flag -> (config path, argparse keywords); the argparse dest is the flag
# name with dashes turned into underscores
COMMON_FLAGS = {
    "--output": ("output.path", {"help": "output file path"}),
    "--format": ("output.format", {"choices": ["csv", "json"]}),
    "--seed": ("seed", _INT),
    **{f"--{name.replace('_', '-')}": (f"model.{name}", _FLOAT)
       for name in DEFAULT_CONFIG["model"]},
    "--r-b": ("background.r_b", _FLOAT),
    "--theta-b": ("background.theta_b", _FLOAT),
    "--grid-min": ("grid.min", _FLOAT),
    "--grid-max": ("grid.max", _FLOAT),
    "--grid-n": ("grid.n", _INT),
}
COMMAND_FLAGS = {
    "sweep-phase": {"--omega": ("sweep_phase.omega", _FLOAT),
                    "--n-phi": ("sweep_phase.n_phi", _INT)},
    "joint": {"--n-phi": ("joint.n_phi", _INT)},
    "cpa": {"--tol": ("cpa.tol", _FLOAT)},
    "oracle-check": {"--n-samples": ("oracle_check.n_samples", _INT)},
    "synth": {"--kinds": ("synth.kinds", _WORDS),
              "--noise-sigma": ("synth.noise_sigma", _FLOAT)},
    "fit": {"--data": ("fit.data", {}), "--free": ("fit.free", _WORDS)},
}


def _command_flags(command: str) -> dict:
    """Every flag the subcommand takes besides --config, in --help order."""
    return {**COMMON_FLAGS, **COMMAND_FLAGS.get(command, {})}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where} must be an object")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def load_config(args) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if user.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError("unsupported schema_version")
        cfg = _merge(cfg, user)
    overrides: dict = {}
    for flag, (path, _) in _command_flags(args.command).items():
        v = getattr(args, flag[2:].replace("-", "_"))
        if v is not None:
            *parents, key = path.split(".")
            node = overrides
            for part in parents:
                node = node.setdefault(part, {})
            node[key] = v
    return _merge(cfg, overrides)


def _build_model(cfg: dict) -> ModelParams:
    try:
        return ModelParams(**cfg["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}")


def _build_background(cfg: dict) -> Background:
    try:
        return Background(**cfg["background"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"background: {exc}")


def _build_grid(cfg: dict) -> np.ndarray:
    lo = _number(cfg, "grid.min")
    return np.linspace(lo, _number(cfg, "grid.max", lo, strict=True),
                       int(_number(cfg, "grid.n", 2)))


def _number(cfg: dict, path: str, low: float = -math.inf, *,
            strict: bool = False):
    """The finite number at the dotted config path, at least low (above it
    when strict); comparisons with NaN are False, so NaN fails."""
    v = functools.reduce(dict.__getitem__, path.split("."), cfg)
    if not (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (low < v if strict else low <= v) and abs(v) < math.inf):
        bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""
        raise ConfigError(f"{path} must be a finite number{bound}, got {v!r}")
    return v


def _resolve_output(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _meta(cfg: dict, command: str, **extra) -> dict:
    """Provenance: the `.meta.json` sidecar, or the `meta` of a JSON output."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": cfg, **extra}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_output(cfg: dict, command: str, header: list[str], rows,
                 **extra_meta) -> str:
    path = _resolve_output(cfg["output"]["path"])
    fmt = cfg["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    meta = _meta(cfg, command, **extra_meta)
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        _write_json(path + ".meta.json", meta)
    else:
        _write_json(path, {
            "meta": meta, "columns": header,
            "rows": [[v if isinstance(v, str) else float(v) for v in row]
                     for row in rows]})
    return path


def cmd_spectrum(cfg: dict) -> int:
    p = _build_model(cfg)
    bg = _build_background(cfg)
    grid = _build_grid(cfg)
    t = single_beam_spectrum(p, bg, grid)
    rows = list(zip(t.omega, t.R1, t.R2, t.T, t.A1, t.A2, t.B, t.abs_dets))
    write_output(cfg, "spectrum", HEADERS["spectrum"], rows)
    return EXIT_OK


def cmd_sweep_phase(cfg: dict) -> int:
    p = _build_model(cfg)
    bg = _build_background(cfg)
    omega = float(_number(cfg, "sweep_phase.omega"))
    n_phi = int(_number(cfg, "sweep_phase.n_phi", 1))
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    a, out1, out2 = two_beam_outputs(*_defined_elements(p, bg, omega), phis)
    rows = zip(phis, out1, out2, a)
    write_output(cfg, "sweep-phase", HEADERS["sweep-phase"], rows)
    return EXIT_OK


def cmd_joint(cfg: dict) -> int:
    p = _build_model(cfg)
    bg = _build_background(cfg)
    grid = _build_grid(cfg)
    # a sinusoid A + B sin(phi + c) needs three samples
    n_phi = int(_number(cfg, "joint.n_phi", 3))
    s11, s12, s22 = _defined_elements(p, bg, grid)
    ext = two_beam_extrema(s11, s12, s22)
    defined = dephasing_defined(s11, s12, s22)
    # the same dephasing measured instead: the phase offset of the two output
    # intensities A + B sin(phi + c) over the input dephasing phi, fitted for
    # every (port, omega) column at once
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    _, out1, out2 = two_beam_outputs(s11, s12, s22, phis[:, None])
    design = np.column_stack([np.ones_like(phis), np.sin(phis), np.cos(phis)])
    (_, ps, pc), *_ = np.linalg.lstsq(design, np.hstack([out1, out2]), rcond=None)
    c1, c2 = np.split(np.arctan2(pc, ps), 2)
    recon = dets_from_observables(
        *(observable(s11, s12, s22, k) for k in ("T", "R1", "R2")), c2 - c1)
    rows = zip(grid, ext.a_min, ext.a_max, ext.a_avg,
               np.where(defined, output_dephasing(s11, s12, s22), math.nan),
               np.abs(s11 * s22 - s12 * s12), np.where(defined, recon, math.nan))
    write_output(cfg, "joint", HEADERS["joint"], rows)
    return EXIT_OK


def cmd_phase_diagram(cfg: dict) -> int:
    p = _build_model(cfg)
    block = cfg["phase_diagram"]
    xs, ys = (np.linspace(_number(cfg, f"phase_diagram.{a}_min"),
                          _number(cfg, f"phase_diagram.{a}_max"),
                          int(_number(cfg, f"phase_diagram.{a}_n", 1)))
              for a in "xy")
    try:
        loci = regimes.critical_loci(p, block["x_param"], xs,
                                     block["y_param"], ys)
    except ValueError as exc:
        raise ConfigError(f"phase_diagram: {exc}")
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    rows = zip(xx.ravel(), yy.ravel(), loci.n_peaks.ravel(),
               loci.scc_residual.ravel(), loci.wcc_residual.ravel(),
               loci.min_abs_dets.ravel())
    write_output(cfg, "phase-diagram", HEADERS["phase-diagram"], rows)
    return EXIT_OK


def cmd_cpa(cfg: dict) -> int:
    p = _build_model(cfg)
    pts = regimes.find_cpa(p, tol=float(_number(cfg, "cpa.tol", 0, strict=True)))
    rows = [(pt.omega, pt.dets_min, pt.phi_star) for pt in pts]
    write_output(cfg, "cpa", HEADERS["cpa"], rows, empty_result=not rows)
    return EXIT_OK


def cmd_oracle_check(cfg: dict) -> int:
    p = _build_model(cfg)
    bg = _build_background(cfg)
    grid = _build_grid(cfg)  # drives are drawn over its range
    n = int(_number(cfg, "oracle_check.n_samples", 1))
    rng = np.random.default_rng(int(_number(cfg, "seed", 0)))
    # one (omega, phi) pair per drive, omega drawn first
    ws, phis = rng.uniform([grid[0], -math.pi], [grid[-1], math.pi], (n, 2)).T
    closed = two_beam_outputs(*_defined_elements(p, bg, ws), phis)[0]
    oracle = np.array([
        timedomain.oracle_scattering(p, bg, DriveSpec(omega=w, phi=phi)).a_joint
        for w, phi in zip(ws.tolist(), phis.tolist())])
    rows = zip(ws, phis, closed, oracle, np.abs(closed - oracle))
    write_output(cfg, "oracle-check", HEADERS["oracle-check"], rows)
    return EXIT_OK


def cmd_synth(cfg: dict) -> int:
    p = _build_model(cfg)
    bg = _build_background(cfg)
    grid = _build_grid(cfg)
    block = cfg["synth"]
    for kind in block["kinds"]:
        if kind not in fitting.KINDS:
            raise ConfigError(f"synth.kinds: unknown kind {kind!r}")
    sigma = float(_number(cfg, "synth.noise_sigma", 0))
    ds = fitting.synth_dataset(p, bg, grid, block["kinds"], sigma,
                               int(_number(cfg, "seed", 0)))
    rows = list(zip(ds.omega, ds.kind, ds.value, ds.sigma))
    write_output(cfg, "synth", HEADERS["synth"], rows)
    return EXIT_OK


def cmd_fit(cfg: dict) -> int:
    init = _build_model(cfg)
    bg = _build_background(cfg)
    block = cfg["fit"]
    if not block["data"]:
        raise ConfigError("fit.data: dataset path required")
    try:
        data = fitting.SpectrumDataset.from_csv(block["data"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"fit.data: {exc}")
    try:
        result = fitting.fit_params(data, init, free=tuple(block["free"]),
                                    background=bg)
    except ValueError as exc:
        raise ConfigError(f"fit: {exc}")
    path = _resolve_output(cfg["output"]["path"])
    _write_json(path, {
        "meta": _meta(cfg, "fit"),
        "params": asdict(result.params),
        "background": asdict(result.background),
        "residual": result.residual,
        "n_iter": result.n_iter,
        "converged": result.converged,
        "param_sigma": result.param_sigma,
    })
    if not (result.converged and math.isfinite(result.residual)):
        print(f"numerical error: fit not converged after {result.n_iter} "
              f"iterations (residual {result.residual}); {path} written",
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
        for flag, (_, kwargs) in _command_flags(name).items():
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateResponseError, SteadyStateNotConvergedError,
            WindowTooNarrowError) as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
