"""Synthetic spectra and least-squares parameter extraction.

Mirrors the bare-cavity-first / coupled-second workflow at desk scale: noisy
datasets are generated from the model and the rates recovered by bounded
least squares on the weighted residual vector, with positive rates.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .model import (Background, ModelParams, _defined_elements,
                    _elements_and_grad)
from .twoport import (INTENSITY_KINDS, KINDS, observable, observable_grad,
                      wrap_phase)

FITTABLE = ("omega0", "gamma_r", "gamma_nr", "gamma_m", "omega_rabi",
            "delta_m")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectrumDataset:
    """Rows of (omega, kind, value, sigma).  Intensity-like kinds live in
    [0, 1]; the `dpsi` kind is a phase in radians."""

    omega: np.ndarray
    kind: tuple[str, ...]
    value: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        n = self.omega.size
        if not (len(self.kind) == self.value.size == self.sigma.size == n):
            raise ValueError("dataset columns must have equal length")
        if n == 0:
            raise ValueError("dataset has no rows")
        for name in ("omega", "value", "sigma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"dataset {name} column must be finite")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be > 0")
        unknown = set(self.kind).difference(KINDS)
        if unknown:
            first = next(k for k in self.kind if k in unknown)
            raise ValueError(f"unknown observable kind {first!r}")
        intensity = np.isin(np.array(self.kind), INTENSITY_KINDS)
        v = self.value[intensity]
        if v.size and (np.any(v < -1e-12) or np.any(v > 1 + 1e-12)):
            raise ValueError("intensity observables must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.omega.size)

    @classmethod
    def from_csv(cls, path) -> "SpectrumDataset":
        """Read the `synth` CSV format; a row without 4 fields is named by
        its line number, a field that is not a number is a ValueError."""
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header != ["omega_meV", "kind", "value", "sigma"]:
                raise ValueError(f"unexpected dataset header {header}")
            rows = list(rd)
            if set(map(len, rows)) - {4}:
                # read again for the line number: a quoted field may span lines
                fh.seek(0)
                rd = csv.reader(fh)
                next(rd)
                for row in rd:
                    if len(row) != 4:
                        raise ValueError(f"dataset row {rd.line_num} has "
                                         f"{len(row)} fields, expected 4")
        omega, kind, value, sigma = zip(*rows) if rows else ((),) * 4
        return cls(np.array(omega, dtype=float), kind,
                   np.array(value, dtype=float), np.array(sigma, dtype=float))


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    background: Background
    residual: float
    chi2_dof: float
    n_iter: int
    converged: bool
    param_sigma: dict[str, float]


def model_values(p: ModelParams, bg: Background, omega, kind: str) -> np.ndarray:
    """Model prediction of one observable kind at the energies omega (any
    order, repeats allowed)."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return observable(*_defined_elements(p, bg, w), kind)


def synth_dataset(p: ModelParams, bg: Background, grid, kinds,
                  noise_sigma: float, seed: int) -> SpectrumDataset:
    """Model values plus independent Gaussian noise, deterministic in seed.

    Intensity kinds are clamped to [0, 1]; dpsi is wrapped instead.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if not kinds:
        raise ValueError("kinds must name at least one observable")
    rng = np.random.default_rng(seed)
    w = np.asarray(grid, dtype=float)
    sigma = noise_sigma if noise_sigma > 0 else 1e-3
    s = _defined_elements(p, bg, w)
    noise = rng.normal(0.0, noise_sigma, size=(len(kinds), w.size))
    values = []
    for kind, eps in zip(kinds, noise):
        noisy = observable(*s, kind) + eps
        values.append(np.clip(noisy, 0.0, 1.0) if kind in INTENSITY_KINDS
                      else wrap_phase(noisy))
    return SpectrumDataset(
        omega=np.tile(w, len(kinds)),
        kind=tuple(k for k in kinds for _ in range(w.size)),
        value=np.concatenate(values),
        sigma=np.full(len(kinds) * w.size, sigma, dtype=float),
    )


def _row_layout(data: SpectrumDataset):
    """The distinct frequencies of data, sorted, and for each kind its rows
    and their positions in that grid: the fit builds S on the grid alone.
    A run of consecutive indices is kept as a slice, which indexes by view
    (a `synth` dataset is one such run per kind, on the whole grid)."""
    grid, inverse = np.unique(data.omega, return_inverse=True)
    kinds = np.array(data.kind)
    rows = {k: np.flatnonzero(kinds == k) for k in dict.fromkeys(data.kind)}
    return grid, [(k, _run_as_slice(idx), _run_as_slice(inverse[idx]))
                  for k, idx in rows.items()]


def _run_as_slice(idx: np.ndarray):
    start = int(idx[0])
    if np.array_equal(idx, np.arange(start, start + idx.size)):
        return slice(start, start + idx.size)
    return idx


def _residuals_and_jacobian(p: ModelParams, bg: Background,
                            data: SpectrumDataset, layout, free):
    """Weighted residuals (value - model) / sigma in dataset row order and
    their Jacobian -d model / d theta / sigma for the names in free, one row
    per data point, from one S evaluation on the grid of `_row_layout`.
    Each kind gathers its S elements once for both; dpsi residuals are
    wrapped.  With free empty the Jacobian has no columns and no gradient
    is formed."""
    grid, kinds = layout
    s, du = _elements_and_grad(p, bg, grid, free)
    resid = np.empty(len(data))
    jac = np.empty((len(data), len(free)))
    for kind, rows, pos in kinds:
        e = [x[pos] for x in s]
        r = data.value[rows] - observable(*e, kind)
        resid[rows] = wrap_phase(r) if kind == "dpsi" else r
        if free:
            jac[rows] = observable_grad(*e, du[:, pos], kind).T
    return resid / data.sigma, -jac / data.sigma[:, None]


def fit_params(data: SpectrumDataset, init: ModelParams,
               free=("omega0", "gamma_r", "gamma_m", "omega_rabi"),
               background: Background | None = None) -> FitResult:
    """Weighted least squares by the bounded trust-region-reflective solver
    (Branch, Coleman and Li, SIAM J. Sci. Comput. 21, 1 (1999)): rates >= 0,
    omega0 > 0, delta_m free, with the analytic Jacobian of
    `_residuals_and_jacobian`, formed with the residuals at each trial point
    and kept for scipy's Jacobian call at that point.  `param_sigma` is the
    covariance sd sqrt(diag((J^T J)^-1)) at the solution, inf along a
    direction the data do not constrain; `chi2_dof` is residual / (rows -
    free parameters); `n_iter` counts residual evaluations.  Frozen
    parameters pass through bit-identical.  Logs nfev, njev, rows, distinct
    frequencies, chi2_dof and convergence at DEBUG."""
    for name in free:
        if name not in FITTABLE:
            raise ValueError(f"unknown fit parameter {name!r}")
    if len(set(free)) != len(free):
        raise ValueError(f"duplicate fit parameter in {tuple(free)}")
    bg = background if background is not None else Background()
    layout = _row_layout(data)
    if not free:
        r = _residuals_and_jacobian(init, bg, data, layout, ())[0]
        chi2 = float(r @ r)
        _log_fit(0, 0, data, layout, chi2 / len(data), True)
        return FitResult(params=init, background=bg, residual=chi2,
                         chi2_dof=chi2 / len(data), n_iter=0, converged=True,
                         param_sigma={})
    if len(data) < 3 * len(free):
        raise ValueError(
            f"need at least {3 * len(free)} data points for {len(free)} free "
            f"parameters, got {len(data)}")

    # imported here: scipy.optimize costs most of the package's import time
    from scipy.optimize import least_squares

    def unpack(x):
        return replace(init, **dict(zip(free, x.tolist())))

    def evaluate(x):
        return _residuals_and_jacobian(unpack(x), bg, data, layout, free)

    # the Jacobian at the last trial point: scipy asks for it at that point
    # once the step there is accepted
    kept = {"x": None}

    def fun(x):
        r, kept["jac"] = evaluate(x)
        kept["x"] = x.copy()
        return r

    def jac(x):
        if np.array_equal(x, kept["x"]):
            return kept["jac"]
        return evaluate(x)[1]

    lower = [-np.inf if name == "delta_m" else 0.0 for name in free]
    res = least_squares(fun, [getattr(init, name) for name in free], jac=jac,
                        bounds=(lower, np.inf), method="trf", x_scale="jac")
    sigma = _covariance_sd(res.jac).tolist()
    chi2 = float(res.fun @ res.fun)
    chi2_dof = chi2 / (len(data) - len(free))
    _log_fit(res.nfev, res.njev, data, layout, chi2_dof, res.success)
    return FitResult(params=unpack(res.x), background=bg, residual=chi2,
                     chi2_dof=chi2_dof, n_iter=int(res.nfev),
                     converged=bool(res.success),
                     param_sigma=dict(zip(free, sigma)))


def _log_fit(nfev, njev, data, layout, chi2_dof, converged):
    _log.debug("fit: nfev=%d njev=%d rows=%d frequencies=%d chi2_dof=%.6g "
               "converged=%s", nfev, njev, len(data), layout[0].size, chi2_dof,
               bool(converged))


def _covariance_sd(jac: np.ndarray) -> np.ndarray:
    """sqrt(diag((J^T J)^-1)) from the SVD J = U s V^T, inf for every
    parameter with weight in a singular direction."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    # relative cut: a singular value below it is rounding, not data
    tol = np.sqrt(np.finfo(float).eps)
    null = s <= tol * s[0]
    var = np.sum((vt[~null] / s[~null, None]) ** 2, axis=0)
    var[np.any(np.abs(vt[null]) > tol, axis=0)] = np.inf
    return np.sqrt(var)

