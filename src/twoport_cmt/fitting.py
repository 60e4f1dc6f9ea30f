"""Synthetic spectra and least-squares parameter extraction.

Mirrors the bare-cavity-first / coupled-second workflow at desk scale: noisy
datasets are generated from the model and the rates recovered by bounded
least squares on the weighted residual vector, with positive rates.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .model import (Background, ModelParams, _defined_elements,
                    _elements_and_grad)
from .twoport import (INTENSITY_KINDS, KINDS, observable, observable_grad,
                      wrap_phase)

FITTABLE = ("omega0", "gamma_r", "gamma_nr", "gamma_m", "omega_rabi",
            "delta_m")


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
        for k in self.kind:
            if k not in KINDS:
                raise ValueError(f"unknown observable kind {k!r}")
        intensity = np.array([k in INTENSITY_KINDS for k in self.kind])
        v = self.value[intensity]
        if v.size and (np.any(v < -1e-12) or np.any(v > 1 + 1e-12)):
            raise ValueError("intensity observables must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.omega.size)

    @classmethod
    def from_csv(cls, path) -> "SpectrumDataset":
        omegas, kinds, values, sigmas = [], [], [], []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header != ["omega_meV", "kind", "value", "sigma"]:
                raise ValueError(f"unexpected dataset header {header}")
            for row in rd:
                if len(row) != 4:
                    raise ValueError(f"dataset row {rd.line_num} has "
                                     f"{len(row)} fields, expected 4")
                omegas.append(float(row[0]))
                kinds.append(row[1])
                values.append(float(row[2]))
                sigmas.append(float(row[3]))
        return cls(np.array(omegas), tuple(kinds), np.array(values), np.array(sigmas))


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


def _residuals(p: ModelParams, bg: Background, data: SpectrumDataset,
               groups) -> np.ndarray:
    """Weighted residuals (value - model) / sigma in dataset row order, from
    one S evaluation; groups maps each kind to its rows.  dpsi residuals are
    wrapped."""
    s = _defined_elements(p, bg, data.omega)
    resid = np.empty(len(data))
    for kind, idx in groups.items():
        r = data.value[idx] - observable(*(e[idx] for e in s), kind)
        resid[idx] = wrap_phase(r) if kind == "dpsi" else r
    return resid / data.sigma


def _jacobian(p: ModelParams, bg: Background, data: SpectrumDataset,
              groups, free) -> np.ndarray:
    """d `_residuals` / d theta for the names in free: -d model / d theta /
    sigma in dataset row order, one row per data point, from one S
    evaluation; groups maps each kind to its rows."""
    s, du = _elements_and_grad(p, bg, data.omega, free)
    jac = np.empty((len(data), len(free)))
    for kind, idx in groups.items():
        jac[idx] = observable_grad(*(e[idx] for e in s), du[:, idx], kind).T
    return -jac / data.sigma[:, None]


def fit_params(data: SpectrumDataset, init: ModelParams,
               free=("omega0", "gamma_r", "gamma_m", "omega_rabi"),
               background: Background | None = None) -> FitResult:
    """Weighted least squares by the bounded trust-region-reflective solver
    (Branch, Coleman and Li, SIAM J. Sci. Comput. 21, 1 (1999)): rates >= 0,
    omega0 > 0, delta_m free, with the analytic Jacobian of `_jacobian`.
    `param_sigma` is the covariance sd sqrt(diag((J^T J)^-1)) at the
    solution, inf along a direction the data do not constrain; `chi2_dof`
    is residual / (rows - free parameters); `n_iter` counts residual
    evaluations.  Frozen parameters pass through bit-identical."""
    for name in free:
        if name not in FITTABLE:
            raise ValueError(f"unknown fit parameter {name!r}")
    if len(set(free)) != len(free):
        raise ValueError(f"duplicate fit parameter in {tuple(free)}")
    bg = background if background is not None else Background()
    kinds = np.array(data.kind)
    groups = {k: np.flatnonzero(kinds == k) for k in set(data.kind)}
    if not free:
        r = _residuals(init, bg, data, groups)
        chi2 = float(r @ r)
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

    lower = [-np.inf if name == "delta_m" else 0.0 for name in free]
    res = least_squares(lambda x: _residuals(unpack(x), bg, data, groups),
                        [getattr(init, name) for name in free],
                        jac=lambda x: _jacobian(unpack(x), bg, data, groups,
                                                free),
                        bounds=(lower, np.inf), method="trf", x_scale="jac")
    sigma = _covariance_sd(res.jac).tolist()
    chi2 = float(res.fun @ res.fun)
    return FitResult(params=unpack(res.x), background=bg, residual=chi2,
                     chi2_dof=chi2 / (len(data) - len(free)),
                     n_iter=int(res.nfev), converged=bool(res.success),
                     param_sigma=dict(zip(free, sigma)))


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

