"""Seeded workload generators and the output checks for each workload.

An op is one CLI invocation, or a fixed short sequence of them, run through
`twoport_cmt.cli.main(argv)` with the work directory as the current
directory and as TWOPORT_CMT_OUTDIR. Ops come in rounds; within a round the
model parameters are stratified (one draw from each of k equal slices of
every range, in seeded order), so that a run made of whole rounds sees the
same spread of cheap and costly ops whatever the seed.

Workloads, the layer each stresses and the layers it bypasses:

- phase_diagram: `phase-diagram` on a 6x6 sweep over [0, 10] meV of one pair
  of rates. A round holds each of the five pairs in PAIRS once. Stresses
  `regimes` (critical_loci -> min_abs_dets, count_peaks); bypasses
  timedomain, fitting and twoport. The axes start at 0, so the sweep holds
  gamma_r = 0 (|det S| = 1), lossless cells and cells with gamma_m = 0 or
  omega_rabi = 0. The (gamma_m, omega_rabi) pair is left out: its sweep
  holds the cell gamma_m = omega_rabi = 0, where the package's answer is
  wrong (KnownDefect), so each op of that pair would fail.
- oracle: `oracle-check` with 4 drives on a passive model with rates in
  0.5-6 meV and omega0 in 50-150 meV (as acceptance criterion 7), one model
  per mid-quantile of the RK4 step count, away from the exceptional point
  and from resonances too narrow for the RK4 step (see far_from_ep,
  rk4_accurate). Stresses the RK4 loop of `timedomain`; bypasses
  regimes and fitting.
- fit: `synth` (201 points, noise 0.005) then `fit` from the acceptance
  criterion 8 initial guess, through CSV. Kind sets cycle through
  {A1,R1,T}, {A_joint_max,A_joint_min,dpsi}, {R1,T,dpsi}. Stresses
  `fitting` and `model.single_beam_spectrum`; bypasses regimes, timedomain.
- two_beam: `spectrum` (801 points), `joint` (401 points x 64 phases) and
  `cpa` on a model spanning weak and strong coupling, with no flat minimum
  of |det S| (see sharp_minima). The only workload where the per-frequency
  `model.scattering_matrix`, `twoport` and the loop in `cli.cmd_joint` do
  the work.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

RATES = ("gamma_r", "gamma_nr", "gamma_m", "omega_rabi")
FLAG = {"omega0": "--omega0", "gamma_r": "--gamma-r", "gamma_nr": "--gamma-nr",
        "gamma_m": "--gamma-m", "omega_rabi": "--omega-rabi"}
HEADLINE = {"omega0": 124.5, "gamma_r": 3.0, "gamma_nr": 0.0, "gamma_m": 5.0,
            "omega_rabi": 8.0}
# acceptance criterion 8: initial guess for the fit
FIT_INIT = {"omega0": 122.0, "gamma_r": 2.0, "gamma_nr": 0.0, "gamma_m": 4.0,
            "omega_rabi": 7.0}
FIT_FREE = ("omega0", "gamma_r", "gamma_m", "omega_rabi")
KIND_SETS = (("A1", "R1", "T"), ("A_joint_max", "A_joint_min", "dpsi"),
             ("R1", "T", "dpsi"))
# every pair of rates but (gamma_m, omega_rabi), whose sweep meets KnownDefect
PAIRS = [(x, y) for i, x in enumerate(RATES) for y in RATES[i + 1:]
         if (x, y) != ("gamma_m", "omega_rabi")]
SWEEP_N = 6
NOISE = 0.005


class KnownDefect(str):
    """A failure message that shows the package's known defect and nothing
    else: in cells with gamma_m = omega_rabi = 0, regimes.min_abs_dets and
    regimes.count_peaks mask the removable 0/0 point of det S at omega0.
    The self-tests run such a cell and expect exactly these failures."""


@dataclass
class Op:
    argvs: list[list[str]]          # CLI invocations, run in order
    files: dict[str, str] = field(default_factory=dict)  # inputs to write
    ctx: dict = field(default_factory=dict)              # what the check needs


def _num(v: float) -> str:
    return repr(float(v))


def _model_flags(m: dict) -> list[str]:
    out = []
    for name, flag in FLAG.items():
        out += [flag, _num(m[name])]
    return out


def _strata(rng, k: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


# --- phase_diagram -----------------------------------------------------------

def _pd_op(base: dict, x: str, y: str) -> Op:
    cfg = {"model": base,
           "phase_diagram": {"x_param": x, "x_min": 0.0, "x_max": 10.0,
                             "x_n": SWEEP_N, "y_param": y, "y_min": 0.0,
                             "y_max": 10.0, "y_n": SWEEP_N}}
    return Op([["phase-diagram", "--config", "pd_config.json",
                "--output", "pd.csv"]],
              {"pd_config.json": json.dumps(cfg, sort_keys=True)},
              {"base": base, "x": x, "y": y})


def pd_round(rng) -> list[Op]:
    k = len(PAIRS)
    omega0 = _strata(rng, k, 100.0, 150.0)
    rates = {name: _strata(rng, k, 0.5, 6.0) for name in RATES}
    ops = []
    for i, j in enumerate(rng.permutation(k)):
        x, y = PAIRS[j]
        if rng.random() < 0.5:
            x, y = y, x
        base = {"omega0": float(omega0[i]),
                **{n: float(rates[n][i]) for n in RATES}}
        ops.append(_pd_op(base, x, y))
    return ops


def pd_check(op: Op) -> list[str]:
    header, rows = _read_csv("pd.csv")
    if header != ["x", "y", "n_peaks", "scc_residual", "wcc_residual",
                  "min_abs_detS"]:
        return [f"phase-diagram header {header}"]
    axis = np.linspace(0.0, 10.0, SWEEP_N)
    if len(rows) != SWEEP_N * SWEEP_N:
        return [f"phase-diagram has {len(rows)} rows"]
    bad = []
    for n, row in enumerate(rows):
        xv, yv, n_peaks, scc, wcc, mds = row
        j, i = divmod(n, SWEEP_N)   # y outer, x inner
        if not (ref.close(float(xv), axis[i], 1e-12)
                and ref.close(float(yv), axis[j], 1e-12)):
            bad.append(f"row {n}: axes ({xv}, {yv})")
            continue
        m = dict(op.ctx["base"], **{op.ctx["x"]: axis[i], op.ctx["y"]: axis[j]})
        want_scc = m["gamma_r"] - m["gamma_nr"] - m["gamma_m"]
        want_wcc = m["gamma_m"] * (m["gamma_r"] - m["gamma_nr"]) - m["omega_rabi"] ** 2
        want_mds = ref.min_abs_dets(m)
        cell = f"cell {op.ctx['x']}={axis[i]:g} {op.ctx['y']}={axis[j]:g}"
        known = m["gamma_m"] == 0.0 and m["omega_rabi"] == 0.0
        fewest, most = ref.peak_count_range(m)
        if not (n_peaks.isdigit() and fewest <= int(n_peaks) <= most):
            msg = f"{cell}: n_peaks {n_peaks} vs reference {fewest}..{most}"
            bad.append(KnownDefect(msg) if known else msg)
        if not ref.close(float(scc), want_scc, 1e-12 * (1 + abs(want_scc))):
            bad.append(f"{cell}: scc_residual {scc} != {want_scc!r}")
        if not ref.close(float(wcc), want_wcc, 1e-12 * (1 + abs(want_wcc))):
            bad.append(f"{cell}: wcc_residual {wcc} != {want_wcc!r}")
        if not ref.close(float(mds), want_mds, 1e-8):
            msg = f"{cell}: min_abs_detS {mds} vs reference {want_mds!r}"
            bad.append(KnownDefect(msg) if known else msg)
    return bad


def pd_count(op: Op) -> dict:
    return {"regimes.cells": len(_read_csv("pd.csv")[1])}


# --- oracle ------------------------------------------------------------------

def slowest_decay(g_c, g_m, rabi):
    """Smallest Im(pole) of a resonant model (delta_m = 0): the roots of
    (u - i g_c)(u - i g_m) = rabi^2. Works elementwise on arrays."""
    mid = 0.5j * (g_c + g_m)
    rad = np.sqrt(-0.25 * (g_c - g_m) ** 2 + rabi ** 2 + 0j)
    return np.minimum((mid + rad).imag, (mid - rad).imag)


def _oracle_rates(rng) -> dict:
    return {n: float(rng.uniform(0.5, 6.0)) for n in RATES}


# smallest pole separation, as a share of the mean decay rate, of an oracle
# model
EP_MARGIN = 0.6


def far_from_ep(g_c, g_m, rabi):
    """Whether the two poles of a resonant model lie at least EP_MARGIN times
    their mean decay rate apart. Works elementwise on arrays.

    Near the exceptional point (rabi = |g_c - g_m| / 2) the transient decays
    as t exp(-decay t), which the oracle's horizon of 20 / (slowest decay)
    does not allow for: on about 1 op in 300 of unrestricted models, its
    own drift check then fails (SteadyStateNotConvergedError). Closed-form
    transients of models with poles at least 0.6 x the mean decay apart
    leave at most 2/3 of the drift limit at the worst drive.
    """
    split = 2 * np.abs(np.sqrt(0.25 * (g_c - g_m) ** 2 - rabi ** 2 + 0j))
    return split >= EP_MARGIN * 0.5 * (g_c + g_m)


# the package's RK4 step is RK4_STEP / (largest frequency scale); the value
# it had when the benchmark was defined is fixed here, so that the inputs do
# not depend on the code under test
RK4_STEP = 0.04
# largest steady-state RK4 error in a_joint, at the worst drive, of an
# oracle model
RK4_ERR_MAX = 5e-7


def rk4_error(m: dict, w, phi) -> np.ndarray:
    """|a_joint of the oracle's fixed-step RK4 in steady state - exact| for
    the drives (w, phi), given as equal-shape 1-d arrays.

    One RK4 step of x' = M x + f exp(i w t) maps x to R x + G f with
    R = sum_{k<=4} (hM)^k / k!, so the discrete steady state is
    X = (exp(i w h) - R)^{-1} G f, against the exact -(M - i w)^{-1} f.
    Ports and coupling are those of the default background, as in
    reference.py. Near a narrow resonance the package's step leaves a_joint errors above
    the check's 1e-6 on about 1 op in 1500 of unrestricted models.
    """
    g_c = m["gamma_r"] + m["gamma_nr"]
    M = np.array([[1j * m["omega0"] - g_c, 1j * m["omega_rabi"]],
                  [1j * m["omega_rabi"], 1j * m["omega0"] - m["gamma_m"]]])
    d0 = 1j * math.sqrt(m["gamma_r"])
    h = RK4_STEP / np.maximum(np.abs(w), max(m["omega0"], g_c, m["gamma_m"],
                                             m["omega_rabi"]))
    f = np.zeros(w.shape + (2,), complex)
    f[:, 0] = d0 * (1 + np.exp(1j * phi))
    hM = h[:, None, None] * M
    eye = np.eye(2)
    R = eye + hM @ (eye + hM @ (eye / 2 + hM @ (eye / 6 + hM / 24)))
    half = np.exp(0.5j * w * h)[:, None]
    k1 = f
    k2 = 0.5 * h[:, None] * (k1 @ M.T) + f * half
    k3 = 0.5 * h[:, None] * (k2 @ M.T) + f * half
    k4 = h[:, None] * (k3 @ M.T) + f * half ** 2
    step = h[:, None] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    rot = np.exp(1j * w * h)[:, None, None] * eye
    x_rk4 = np.linalg.solve(rot - R, step[..., None])[:, 0, 0]
    x_exact = np.linalg.solve(M - 1j * w[:, None, None] * eye,
                              -f[..., None])[:, 0, 0]

    def a_joint(x):
        return 1 - 0.5 * (np.abs(1 + d0 * x) ** 2
                          + np.abs(np.exp(1j * phi) + d0 * x) ** 2)
    return np.abs(a_joint(x_rk4) - a_joint(x_exact))


def rk4_accurate(m: dict) -> bool:
    """Whether the RK4 error stays within RK4_ERR_MAX at every drive of the
    oracle's window (401 frequencies x 8 phases)."""
    w, phi = np.meshgrid(np.linspace(m["omega0"] - 10.0, m["omega0"] + 10.0, 401),
                         np.linspace(-math.pi, math.pi, 8, endpoint=False))
    return float(rk4_error(m, w.ravel(), phi.ravel()).max()) <= RK4_ERR_MAX


def _oracle_decay(m: dict) -> float:
    return float(slowest_decay(m["gamma_r"] + m["gamma_nr"], m["gamma_m"],
                               m["omega_rabi"]))


def _oracle_load_quantiles(k: int) -> np.ndarray:
    """Mid-quantiles (i + 1/2)/k of omega0 / slowest decay over criterion-7
    models (omega0 in 50-150 meV, rates in 0.5-6 meV) far from the
    exceptional point, from a fixed sample."""
    rng = np.random.default_rng(20100)
    omega0 = rng.uniform(50.0, 150.0, 20000)
    g = rng.uniform(0.5, 6.0, (4, 20000))
    keep = far_from_ep(g[0] + g[1], g[2], g[3])
    load = omega0 / slowest_decay(g[0] + g[1], g[2], g[3])
    return np.quantile(load[keep], (np.arange(k) + 0.5) / k)


# 15 strata put the median and the 90th percentile of a run made of whole
# rounds in the middle of a stratum, not on the edge between two
ORACLE_LOADS = _oracle_load_quantiles(15)


def oracle_round(rng) -> list[Op]:
    """One model per mid-quantile of the RK4 step count.

    The step count is about 500 omega0 / (slowest decay rate) per drive, so
    its spread over random models is wide and skewed; drawing models
    independently would leave each run's op times to chance. Each model
    here has random rates in 0.5-6 meV, the omega0 in 50-150 meV that puts
    omega0 / slowest decay on its target quantile, and passes far_from_ep
    and rk4_accurate.
    """
    ops = []
    for load in rng.permutation(ORACLE_LOADS):
        while True:
            m = _oracle_rates(rng)
            omega0 = load * _oracle_decay(m)
            if 50.0 <= omega0 <= 150.0 and far_from_ep(
                    m["gamma_r"] + m["gamma_nr"], m["gamma_m"], m["omega_rabi"]):
                m = {"omega0": float(omega0), **m}
                if rk4_accurate(m):
                    break
        ops.append(_oracle_op(m, _seed(rng)))
    return ops


def _oracle_op(m: dict, seed: int) -> Op:
    argv = ["oracle-check", *_model_flags(m),
            "--grid-min", _num(m["omega0"] - 10.0),
            "--grid-max", _num(m["omega0"] + 10.0),
            "--n-samples", "4", "--seed", str(seed), "--output", "oracle.csv"]
    return Op([argv], ctx={"model": m})


def oracle_check(op: Op) -> list[str]:
    header, rows = _read_csv("oracle.csv")
    if header != ["omega_meV", "phi_rad", "a_joint_closed", "a_joint_oracle",
                  "abs_diff"]:
        return [f"oracle-check header {header}"]
    if len(rows) != 4:
        return [f"oracle-check has {len(rows)} rows"]
    m = op.ctx["model"]
    bad = []
    for n, row in enumerate(rows):
        w, phi, closed, oracle, diff = map(float, row)
        if not (m["omega0"] - 10.0 <= w <= m["omega0"] + 10.0
                and -math.pi <= phi <= math.pi):
            bad.append(f"row {n}: drive ({w}, {phi}) outside its range")
            continue
        want = float(ref.joint_absorbance(m, w, phi))
        if not ref.close(closed, want, 1e-9):
            bad.append(f"row {n}: a_joint_closed {closed} vs reference {want!r}")
        if not ref.close(diff, abs(closed - oracle), 1e-12):
            bad.append(f"row {n}: abs_diff {diff} != |closed - oracle|")
        if not diff < 1e-6:
            bad.append(f"row {n}: abs_diff {diff} >= 1e-6")
    return bad


def oracle_count(op: Op) -> dict:
    """RK4 steps the oracle takes for this op's drives, by the package's own
    horizon and step-size rules: ceil(settling_time / suggested_time_step)."""
    from twoport_cmt.model import ModelParams
    from twoport_cmt.timedomain import (DriveSpec, settling_time,
                                        suggested_time_step)
    p = ModelParams(**op.ctx["model"])
    _, rows = _read_csv("oracle.csv")
    t_end = settling_time(p)
    steps = sum(math.ceil(t_end / suggested_time_step(
        p, DriveSpec(omega=float(r[0]), phi=float(r[1]))) - 1e-9) for r in rows)
    return {"timedomain.rk4_steps": steps}


# --- fit ---------------------------------------------------------------------

def fit_round(rng) -> list[Op]:
    order = rng.permutation(2 * len(KIND_SETS)) % len(KIND_SETS)
    return [_fit_op(KIND_SETS[i], _seed(rng)) for i in order]


def _fit_op(kinds, seed: int) -> Op:
    grid = ["--grid-min", "105.0", "--grid-max", "145.0", "--grid-n", "201"]
    synth = ["synth", *_model_flags(HEADLINE), *grid, "--noise-sigma",
             _num(NOISE), "--seed", str(seed), "--kinds", *kinds,
             "--output", "synth.csv"]
    fit = ["fit", "--data", "synth.csv", *_model_flags(FIT_INIT),
           "--free", *FIT_FREE, "--output", "fit.json"]
    return Op([synth, fit], ctx={"kinds": list(kinds)})


def fit_check(op: Op) -> list[str]:
    bad = []
    header, rows = _read_csv("synth.csv")
    grid = np.linspace(105.0, 145.0, 201)
    kinds = op.ctx["kinds"]
    if header != ["omega_meV", "kind", "value", "sigma"] \
            or len(rows) != grid.size * len(kinds):
        return [f"synth: header {header}, {len(rows)} rows"]
    obs = ref.observables(HEADLINE, grid)
    obs["A_joint_max"], obs["A_joint_min"] = obs["a_max"], obs["a_min"]
    for b, kind in enumerate(kinds):
        block = rows[b * grid.size:(b + 1) * grid.size]
        if any(r[1] != kind for r in block) \
                or np.max(np.abs(_floats(block, 0) - grid)) > 1e-12:
            bad.append(f"synth: block {b} is not {kind} on the grid")
            continue
        err = _floats(block, 2) - obs[kind]
        if kind == "dpsi":
            err = ref.wrap(err)
        # clipping only moves a value towards the clean one in [0, 1]
        if not np.max(np.abs(err)) < 8 * NOISE:
            bad.append(f"synth {kind}: max |value - model| = "
                       f"{np.max(np.abs(err))!r} exceeds 8 sigma")
        if np.any(_floats(block, 3) != NOISE):
            bad.append(f"synth {kind}: sigma column is not {NOISE}")
    with open("fit.json") as fh:
        doc = json.load(fh)
    if doc.get("converged") is not True:
        bad.append("fit: not converged")
    for name in FIT_FREE:
        got, want = doc["params"][name], HEADLINE[name]
        if not abs(got - want) < 0.02 * want:
            bad.append(f"fit: {name} = {got!r}, more than 2% from {want}")
    for name in ("gamma_nr", "delta_m"):   # frozen: passed through unchanged
        if doc["params"][name] != FIT_INIT.get(name, 0.0):
            bad.append(f"fit: frozen {name} changed to {doc['params'][name]!r}")
    return bad


def fit_count(op: Op) -> dict:
    with open("fit.json") as fh:
        n_iter = json.load(fh)["n_iter"]
    return {"fitting.iters": n_iter, "fitting.kinds": len(op.ctx["kinds"])}


# --- two_beam ----------------------------------------------------------------

TWO_BEAM_RANGES = {"gamma_r": (0.5, 6.0), "gamma_nr": (0.5, 6.0),
                   "gamma_m": (0.5, 6.0), "omega_rabi": (0.5, 10.0)}
# smallest relative curvature f''/(2f), in 1/meV^2, of f = |det S|^2 at a
# minimum of a two_beam model
FLAT_MIN = 3e-3


def sharp_minima(m: dict) -> bool:
    """Whether f = |det S|^2 has a relative curvature f''/(2f) of at least
    FLAT_MIN at each of its interior minima.

    The package's find_cpa keeps the bounded search's minimum, which is only
    accurate to about sqrt(eps) |omega| ~ 2e-6 meV, over its Newton-polished
    one whenever the two values of f tie to rounding. At a flat minimum they
    tie, and the reported CPA frequency misses the true one by about
    2e-8 / sqrt(curvature): 2.6e-6 meV at 2.4e-5 / meV^2, about 1 op in 800
    of unrestricted models. Above FLAT_MIN the miss stays below 3.4e-7 meV,
    a third of the 1e-6 meV check. About 0.5% of models are rejected, and
    in every box of slices at least a third of the draws pass.
    """
    h = 1e-3
    for w in ref.dets_minima(m):
        f = ref.abs_dets(m, [w - h, w, w + h]) ** 2
        if f[0] - 2 * f[1] + f[2] < 2 * FLAT_MIN * h * h * f[1]:
            return False
    return True


def two_beam_round(rng) -> list[Op]:
    """k models, one from each of k equal slices of every range; a model
    with a flat minimum is drawn again from the same slices."""
    k = 8
    slices = {name: rng.permutation(k) for name in TWO_BEAM_RANGES}
    ops = []
    for i in range(k):
        while True:
            m = {"omega0": 124.5, **{
                n: float(lo + (hi - lo) * (slices[n][i] + rng.random()) / k)
                for n, (lo, hi) in TWO_BEAM_RANGES.items()}}
            if sharp_minima(m):
                break
        ops.append(_two_beam_op(m))
    return ops


def _two_beam_op(m: dict) -> Op:
    model = _model_flags(m)
    win = ["--grid-min", "105.0", "--grid-max", "145.0"]
    return Op([["spectrum", *model, *win, "--grid-n", "801",
                "--output", "spectrum.csv"],
               ["joint", *model, *win, "--grid-n", "401", "--n-phi", "64",
                "--output", "joint.csv"],
               ["cpa", *model, "--tol", "1e-10", "--output", "cpa.csv"]],
              ctx={"model": m})


def _spectrum_check(m: dict) -> list[str]:
    header, rows = _read_csv("spectrum.csv")
    grid = np.linspace(105.0, 145.0, 801)
    if header != ["omega_meV", "R1", "R2", "T", "A1", "A2", "B", "abs_detS"] \
            or len(rows) != grid.size:
        return [f"spectrum: header {header}, {len(rows)} rows"]
    col = {name: _floats(rows, c) for c, name in enumerate(header)}
    bad = []
    if not np.all(np.isfinite(np.column_stack(list(col.values())))):
        bad.append("spectrum: non-finite values")
    obs = ref.observables(m, col["omega_meV"])
    if np.max(np.abs(col["omega_meV"] - grid)) > 1e-12:
        bad.append("spectrum: frequencies are not the grid")
    for name, key in (("R1", "R1"), ("R2", "R2"), ("T", "T"),
                      ("abs_detS", "abs_dets")):
        if not np.max(np.abs(col[name] - obs[key])) <= 1e-9:
            bad.append(f"spectrum: {name} differs from the reference")
    a1 = col["A1"]
    if not (np.max(np.abs(a1 - col["A2"])) < 1e-10
            and np.max(np.abs(a1 - col["B"] / 2)) < 1e-10
            and np.max(a1) <= 0.5 + 1e-10):
        bad.append("spectrum: A1 = A2 = B/2 <= 1/2 violated")
    return bad


def _joint_check(m: dict) -> list[str]:
    header, rows = _read_csv("joint.csv")
    if header != ["omega_meV", "a_min", "a_max", "a_avg", "delta_psi_rad",
                  "abs_detS", "abs_detS_reconstructed"] or len(rows) != 401:
        return [f"joint: header {header}, {len(rows)} rows"]
    col = {name: _floats(rows, c) for c, name in enumerate(header)}
    obs = ref.observables(m, col["omega_meV"])
    bad = []
    for name, key in (("a_min", "a_min"), ("a_max", "a_max"),
                      ("a_avg", "a_avg"), ("abs_detS", "abs_dets")):
        if not np.max(np.abs(col[name] - obs[key])) <= 1e-9:
            bad.append(f"joint: {name} differs from the reference")
    # delta_psi is undefined (NaN) only where a magnitude is below 1e-9
    undefined = np.isnan(col["delta_psi_rad"])
    if np.any(undefined & (obs["min_mag"] > 1e-8)):
        bad.append("joint: delta_psi missing where it is defined")
    ok = ~undefined
    if np.any(np.abs(ref.wrap(col["delta_psi_rad"][ok] - obs["dpsi"][ok])) > 1e-9):
        bad.append("joint: delta_psi differs from the reference")
    if not np.all(np.abs(col["abs_detS_reconstructed"][ok]
                         - col["abs_detS"][ok]) <= 1e-9):
        bad.append("joint: abs_detS_reconstructed differs from abs_detS")
    return bad


def _cpa_check(m: dict) -> list[str]:
    header, rows = _read_csv("cpa.csv")
    if header != ["omega_meV", "abs_detS_min", "phi_star_rad"]:
        return [f"cpa: header {header}"]
    want = ref.dets_minima(m)
    if len(rows) != want.size:
        return [f"cpa: {len(rows)} rows, but |det S| has {want.size} interior "
                f"minima in the window, at {want.tolist()}"]
    bad = [f"cpa row {n}: {row[0]} is not the reference minimum at {w!r}"
           for n, (row, w) in enumerate(zip(rows, want))
           if not abs(float(row[0]) - w) <= 1e-6]
    lo, hi = ref.default_window(m)
    h = 1e-4
    for n, row in enumerate(rows):
        w, dmin, phi = map(float, row)
        f = ref.abs_dets(m, [w - h, w, w + h])
        if not lo < w < hi:
            bad.append(f"cpa row {n}: {w} outside the window")
        elif not ref.close(dmin, float(f[1]), 1e-9):
            bad.append(f"cpa row {n}: abs_detS_min {dmin} vs reference {f[1]!r}")
        elif not (f[0] >= f[1] and f[2] >= f[1]):
            bad.append(f"cpa row {n}: {w} is not a local minimum of |det S|")
        elif not (ref.joint_absorbance(m, w, phi)
                  >= ref.observables(m, w)["a_max"] - 1e-9):
            bad.append(f"cpa row {n}: phi_star does not maximize the absorbance")
    return bad


def two_beam_check(op: Op) -> list[str]:
    m = op.ctx["model"]
    return _spectrum_check(m) + _joint_check(m) + _cpa_check(m)


def two_beam_count(op: Op) -> dict:
    return {"regimes.cpa_points": len(_read_csv("cpa.csv")[1])}


@dataclass(frozen=True)
class Workload:
    name: str
    index: int                 # keeps the seeded streams of workloads apart
    make_round: object         # rng -> list[Op]
    check: object              # Op -> list of failure messages (cwd = work dir)
    count: object              # Op -> per-op counts read from its outputs
    warmup: Op                 # fixed op, so set-up time does not depend on the seed


WORKLOADS = {w.name: w for w in (
    Workload("phase_diagram", 0, pd_round, pd_check, pd_count,
             _pd_op(HEADLINE, "gamma_m", "gamma_r")),
    Workload("oracle", 1, oracle_round, oracle_check, oracle_count,
             _oracle_op(HEADLINE, 0)),
    Workload("fit", 2, fit_round, fit_check, fit_count,
             _fit_op(KIND_SETS[0], 0)),
    Workload("two_beam", 3, two_beam_round, two_beam_check, two_beam_count,
             _two_beam_op(HEADLINE)),
)}


def rounds(name: str, seed: int):
    """Endless, seed-determined sequence of rounds of ops."""
    rng = np.random.default_rng([seed, WORKLOADS[name].index])
    while True:
        yield WORKLOADS[name].make_round(rng)


def write_inputs(op: Op) -> int:
    """Write the op's input files into the current directory; their size."""
    size = 0
    for name, text in op.files.items():
        with open(name, "w") as fh:
            fh.write(text)
        size += os.path.getsize(name)
    return size
