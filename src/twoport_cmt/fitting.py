"""Synthetic spectra and least-squares parameter extraction.

Mirrors the bare-cavity-first / coupled-second workflow at desk scale: noisy
datasets are generated from the model and the rates recovered by a
derivative-free simplex fit with log-parametrized (positive) rates.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .model import Background, ModelParams, s_elements
from .twoport import (INTENSITY_KINDS, KINDS, dets_from_observables,
                      observable, wrap_phase)

RATE_PARAMS = ("gamma_r", "gamma_nr", "gamma_m", "omega_rabi")
FITTABLE = ("omega0",) + RATE_PARAMS + ("delta_m",)
_RATE_FLOOR = 1e-8
_MAX_ITER = 20000  # Nelder-Mead iteration and evaluation cap


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["omega_meV", "kind", "value", "sigma"])
            for w, k, v, s in zip(self.omega, self.kind, self.value, self.sigma):
                wr.writerow([f"{w:.17g}", k, f"{v:.17g}", f"{s:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "SpectrumDataset":
        omegas, kinds, values, sigmas = [], [], [], []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if header != ["omega_meV", "kind", "value", "sigma"]:
                raise ValueError(f"unexpected dataset header {header}")
            for row in rd:
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
    n_iter: int
    converged: bool
    param_sigma: dict[str, float]


@dataclass(frozen=True)
class DetsCurve:
    omega: np.ndarray
    abs_dets: np.ndarray
    skipped: tuple[float, ...]


def model_values(p: ModelParams, bg: Background, omega, kind: str) -> np.ndarray:
    """Model prediction of one observable kind at the energies omega (any
    order, repeats allowed)."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return observable(*s_elements(p, bg, w)[:3], kind)


def synth_dataset(p: ModelParams, bg: Background, grid, kinds,
                  noise_sigma: float, seed: int) -> SpectrumDataset:
    """Model values plus independent Gaussian noise, deterministic in seed.

    Intensity kinds are clamped to [0, 1]; dpsi is wrapped instead.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    w = np.asarray(grid, dtype=float)
    sigma = noise_sigma if noise_sigma > 0 else 1e-3
    omegas, names, values = [], [], []
    for kind in kinds:
        clean = model_values(p, bg, w, kind)
        noisy = clean + rng.normal(0.0, noise_sigma, size=w.size)
        if kind in INTENSITY_KINDS:
            noisy = np.clip(noisy, 0.0, 1.0)
        else:
            noisy = wrap_phase(noisy)
        omegas.append(w)
        names.extend([kind] * w.size)
        values.append(noisy)
    return SpectrumDataset(
        omega=np.concatenate(omegas),
        kind=tuple(names),
        value=np.concatenate(values),
        sigma=np.full(sum(len(v) for v in values), sigma),
    )


def _pack(p: ModelParams, free, init: ModelParams) -> np.ndarray:
    x = []
    for name in free:
        v = getattr(p, name)
        if name == "omega0" or name in RATE_PARAMS:
            x.append(math.log(max(v, _RATE_FLOOR)))
        else:  # delta_m, possibly zero or negative
            x.append(v / max(0.01 * init.omega0, abs(init.delta_m)))
    return np.array(x)


def _unpack(x: np.ndarray, free, init: ModelParams) -> ModelParams:
    updates = {}
    for name, v in zip(free, x):
        if name == "omega0" or name in RATE_PARAMS:
            updates[name] = math.exp(v)
        else:
            updates[name] = v * max(0.01 * init.omega0, abs(init.delta_m))
    return replace(init, **updates)


def _chi2(p: ModelParams, bg: Background, data: SpectrumDataset,
          groups) -> float:
    total = 0.0
    for kind, idx in groups.items():
        pred = model_values(p, bg, data.omega[idx], kind)
        resid = data.value[idx] - pred
        if kind == "dpsi":
            resid = wrap_phase(resid)
        total += float(np.sum((resid / data.sigma[idx]) ** 2))
    return total


def fit_params(data: SpectrumDataset, init: ModelParams,
               free=("omega0", "gamma_r", "gamma_m", "omega_rabi"),
               background: Background | None = None) -> FitResult:
    """Weighted least squares via Nelder-Mead simplex with positive rates
    enforced through log-parametrization.  Frozen parameters pass through
    bit-identical."""
    for name in free:
        if name not in FITTABLE:
            raise ValueError(f"unknown fit parameter {name!r}")
    bg = background if background is not None else Background()
    # kinds in first-seen order, not a set's (which follows PYTHONHASHSEED),
    # so chi^2 adds its per-kind sums in the same order in every process
    kinds = np.array(data.kind)
    groups = {k: np.flatnonzero(kinds == k) for k in dict.fromkeys(data.kind)}
    if not free:
        return FitResult(params=init, background=bg,
                         residual=_chi2(init, bg, data, groups),
                         n_iter=0, converged=True, param_sigma={})
    if len(data) < 3 * len(free):
        raise ValueError(
            f"need at least {3 * len(free)} data points for {len(free)} free "
            f"parameters, got {len(data)}")

    x0 = _pack(init, free, init)

    def objective(x):
        try:
            p = _unpack(x, free, init)
        except (OverflowError, ValueError):
            return 1e30
        return _chi2(p, bg, data, groups)

    # fatol is absolute in the simplex; scale it so noisy datasets with
    # chi^2 of order n_points can still terminate
    fatol = 1e-12 * max(1.0, float(objective(x0)))
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": fatol,
                            "maxiter": _MAX_ITER, "maxfev": _MAX_ITER})
    best = _unpack(res.x, free, init)
    sigma = _curvature_sigma(best, bg, data, groups, free)
    return FitResult(params=best, background=bg, residual=float(res.fun),
                     n_iter=int(res.nit), converged=bool(res.success),
                     param_sigma=sigma)


def _curvature_sigma(p: ModelParams, bg: Background, data: SpectrumDataset,
                     groups, free) -> dict[str, float]:
    """Per-parameter confidence proxy from the diagonal residual curvature."""
    out = {}
    f0 = _chi2(p, bg, data, groups)
    for name in free:
        v = getattr(p, name)
        h = 1e-4 * max(abs(v), 1e-4)
        fp = _chi2(replace(p, **{name: v + h}), bg, data, groups)
        try:
            fm = _chi2(replace(p, **{name: v - h}), bg, data, groups)
        except ValueError:  # rate at the positivity boundary
            fm = fp
        d2 = (fp - 2 * f0 + fm) / h**2
        out[name] = math.sqrt(2.0 / d2) if d2 > 0 else math.inf
    return out


def estimate_dets_curve(data: SpectrumDataset) -> DetsCurve:
    """Row-wise |det S| reconstruction from R1, R2, T and dpsi observables.

    Frequencies lacking any of the four observables are skipped and reported.
    """
    needed = ("R1", "R2", "T", "dpsi")
    per_omega: dict[float, dict[str, float]] = {}
    for w, k, v in zip(data.omega, data.kind, data.value):
        if k in needed:
            per_omega.setdefault(float(w), {})[k] = float(v)
    omegas = sorted(w for w, row in per_omega.items() if len(row) == len(needed))
    skipped = sorted(w for w, row in per_omega.items() if len(row) < len(needed))
    cols = [np.array([per_omega[w][k] for w in omegas]) for k in ("T", "R1", "R2", "dpsi")]
    return DetsCurve(omega=np.array(omegas), abs_dets=dets_from_observables(*cols),
                     skipped=tuple(skipped))
