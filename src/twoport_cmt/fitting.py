"""Synthetic spectra and least-squares parameter extraction.

Mirrors the bare-cavity-first / coupled-second workflow at desk scale: noisy
datasets are generated from the model and the rates recovered by bounded
least squares on the weighted residual vector, with positive rates.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (Background, ModelParams, _defined_elements,
                    _elements_and_grad)
from .twoport import (INTENSITY_KINDS, KINDS, observable, observables,
                      wrap_phase)

FITTABLE = ("omega0", "gamma_r", "gamma_nr", "gamma_m", "omega_rabi",
            "delta_m")
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_DPSI = _KIND_CODE["dpsi"]  # every other kind is an intensity

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectrumDataset:
    """Rows of (omega, kind, value, sigma).  Intensity-like kinds live in
    [0, 1]; the `dpsi` kind is a phase in radians.  `kind_code` is derived:
    each row's kind as its index in `twoport.KINDS`."""

    omega: np.ndarray
    kind: tuple[str, ...]
    value: np.ndarray
    sigma: np.ndarray
    kind_code: np.ndarray = field(init=False, repr=False, compare=False)

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
        try:
            code = np.fromiter(map(_KIND_CODE.__getitem__, self.kind),
                               dtype=np.intp, count=n)
        except KeyError as exc:
            raise ValueError(f"unknown observable kind {exc.args[0]!r}") \
                from None
        object.__setattr__(self, "kind_code", code)
        v = self.value[code != _DPSI]
        if v.size and (np.any(v < -1e-12) or np.any(v > 1 + 1e-12)):
            raise ValueError("intensity observables must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.omega.size)

    @classmethod
    def from_csv(cls, path) -> "SpectrumDataset":
        """Read the `synth` CSV format; a row without 4 fields is named by
        its line number, a field that is not a number is a ValueError.

        The file is read once.  A text with no quote, CR or NUL, the exact
        header and 3 commas on every line is split on newlines and commas;
        any other text goes to the `csv` module, which reads quoted fields
        and CR line ends and names a bad row by its line."""
        with open(path, newline="") as fh:
            text = fh.read()
        ended = text if text.endswith("\n") else text + "\n"
        if (ended.startswith(_HEADER_LINE + "\n")
                and not ('"' in text or "\r" in text or "\0" in text)
                and (seps := ended.encode().translate(None, _NOT_SEPARATORS))
                == b",,,\n" * (len(seps) // 4)):
            cells = ended[len(_HEADER_LINE) + 1:].replace("\n", ",").split(",")
            # each column leaves out the empty cell after the last newline
            omega, kind, value, sigma = (cells[i:-1:4] for i in range(4))
        else:
            omega, kind, value, sigma = _csv_columns(text)
        return cls(np.array(omega, dtype=float), tuple(kind),
                   np.array(value, dtype=float), np.array(sigma, dtype=float))


_HEADER = ["omega_meV", "kind", "value", "sigma"]
_HEADER_LINE = ",".join(_HEADER)
# every byte but comma and newline; UTF-8 codes no other character with them
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _csv_columns(text: str) -> tuple:
    """The four columns of the dataset text, read by the `csv` module."""
    rd = csv.reader(io.StringIO(text, newline=""))
    header = next(rd, None)
    if header != _HEADER:
        raise ValueError(f"unexpected dataset header {header}")
    rows = list(rd)
    if set(map(len, rows)) - {4}:
        # read again for the line number: a quoted field may span lines
        rd = csv.reader(io.StringIO(text, newline=""))
        next(rd)
        for row in rd:
            if len(row) != 4:
                raise ValueError(f"dataset row {rd.line_num} has "
                                 f"{len(row)} fields, expected 4")
    return zip(*rows) if rows else ((),) * 4


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
    clean = observables(*_defined_elements(p, bg, w), kinds)[0]
    noise = rng.normal(0.0, noise_sigma, size=(len(kinds), w.size))
    values = []
    for kind, model, eps in zip(kinds, clean, noise):
        noisy = model + eps
        values.append(np.clip(noisy, 0.0, 1.0) if kind in INTENSITY_KINDS
                      else wrap_phase(noisy))
    return SpectrumDataset(
        omega=np.tile(w, len(kinds)),
        kind=tuple(k for k in kinds for _ in range(w.size)),
        value=np.concatenate(values),
        sigma=np.full(len(kinds) * w.size, sigma, dtype=float),
    )


def _row_layout(data: SpectrumDataset):
    """The distinct frequencies of data, sorted, and its kinds grouped by
    their positions in that grid: the fit builds S on the grid alone, and
    the observables of a group in one `observables` call.  A group is
    (positions, kinds, rows), with the rows of each kind; kinds in the order
    they first appear.  A run of consecutive indices is kept as a slice,
    which indexes by view (a `synth` dataset is one group, each kind a run
    of rows, on the whole grid)."""
    grid, inverse = np.unique(data.omega, return_inverse=True)
    code = data.kind_code
    first = np.unique(code, return_index=True)[1]
    groups = {}
    for start in np.sort(first).tolist():
        idx = np.flatnonzero(code == code[start])
        pos = inverse[idx]
        group = groups.setdefault(pos.tobytes(),
                                  (_run_as_slice(pos), [], []))
        group[1].append(KINDS[code[start]])
        group[2].append(_run_as_slice(idx))
    return grid, list(groups.values())


def _run_as_slice(idx: np.ndarray):
    start = int(idx[0])
    if np.array_equal(idx, np.arange(start, start + idx.size)):
        return slice(start, start + idx.size)
    return idx


def _residuals_and_jacobian(p: ModelParams, bg: Background,
                            data: SpectrumDataset, layout, free):
    """Weighted residuals (value - model) / sigma in dataset row order and
    their Jacobian -d model / d theta / sigma for the names in free, one row
    per data point, from one S evaluation on the grid of `_row_layout` and
    one `observables` call per group of kinds.  dpsi residuals are wrapped.
    With free empty the Jacobian has no columns and no derivative is
    formed."""
    grid, groups = layout
    s, du = _elements_and_grad(p, bg, grid, free)
    resid = np.empty(len(data))
    jac = np.empty((len(data), len(free)))
    for pos, kinds, rows in groups:
        values, grads = observables(*(x[pos] for x in s), kinds,
                                    None if du is None else du[:, pos])
        for i, (kind, r) in enumerate(zip(kinds, rows)):
            res = data.value[r] - values[i]
            resid[r] = wrap_phase(res) if kind == "dpsi" else res
            if grads is not None:
                jac[r] = grads[i].T
    return resid / data.sigma, -jac / data.sigma[:, None]


def fit_params(data: SpectrumDataset, init: ModelParams,
               free=("omega0", "gamma_r", "gamma_m", "omega_rabi"),
               background: Background | None = None) -> FitResult:
    """Weighted least squares by `_levenberg_marquardt`, with rates >= 0,
    omega0 > 0 and delta_m free, on the residuals and analytic Jacobian of
    `_residuals_and_jacobian`, both formed once per trial point.
    `param_sigma` is the covariance sd sqrt(diag((J^T J)^-1)) at the
    solution, inf along a direction the data do not constrain; `chi2_dof` is
    residual / (rows - free parameters); `n_iter` counts trial points
    evaluated; `converged` is a tolerance stop, not the evaluation cap.
    Frozen parameters pass through bit-identical.  Logs nfev, njev (equal),
    rows, distinct frequencies, chi2_dof and convergence at DEBUG."""
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
        _log_fit(0, data, layout, chi2 / len(data), True)
        return FitResult(params=init, background=bg, residual=chi2,
                         chi2_dof=chi2 / len(data), n_iter=0, converged=True,
                         param_sigma={})
    if len(data) < 3 * len(free):
        raise ValueError(
            f"need at least {3 * len(free)} data points for {len(free)} free "
            f"parameters, got {len(data)}")

    def unpack(x):
        return replace(init, **dict(zip(free, x.tolist())))

    # the least positive float for omega0, as ModelParams needs omega0 > 0
    lower = np.array([-np.inf if name == "delta_m" else
                      5e-324 if name == "omega0" else 0.0 for name in free])
    x, r, jac, nfev, converged = _levenberg_marquardt(
        lambda x: _residuals_and_jacobian(unpack(x), bg, data, layout, free),
        np.array([getattr(init, name) for name in free], dtype=float), lower)
    sigma = _covariance_sd(jac).tolist()
    chi2 = float(r @ r)
    chi2_dof = chi2 / (len(data) - len(free))
    _log_fit(nfev, data, layout, chi2_dof, converged)
    return FitResult(params=unpack(x), background=bg, residual=chi2,
                     chi2_dof=chi2_dof, n_iter=nfev, converged=converged,
                     param_sigma=dict(zip(free, sigma)))


_FTOL = 1e-8  # an accepted step that lowers chi2 by less than this share stops
_XTOL = 1e-10  # a scaled step below this share of the scaled x stops
_MAX_EVALS = 200  # trial points before the fit gives up, as scipy's max_nfev
_LAMBDA_MAX = 1e16  # damping far past the point where the step is rounding


def _levenberg_marquardt(evaluate, x, lower):
    """Levenberg-Marquardt on evaluate(x) -> (r, J), minimising |r|^2 for
    x >= lower, from the start x: (x, r, J, evaluations, converged).

    Each iteration solves (J^T J + lam D^2) p = -J^T r, with D the running
    maximum of J's column norms (More, LNM 630, 105 (1978)), 1 where a
    column has been exactly 0 so far (the Omega column at Omega = 0, as S
    depends on Omega^2 only).  A variable at its bound whose gradient points
    out of the box is held there, and the trial point x + p is clipped to
    the bounds (projected LM: Kanzow, Yamashita and Fukushima, J. Comput.
    Appl. Math. 172, 375 (2004)).  The gain ratio of the actual to the
    predicted fall of |r|^2 accepts the trial point and sets lam (Nielsen,
    IMM-REP-1999-05).  Converged: an accepted step lowered |r|^2 by less
    than _FTOL of it, or the next scaled step |D p| is below _XTOL |D x|,
    which ends the fit without evaluating it."""
    r, jac = evaluate(x)
    nfev, lam, nu, d = 1, 1e-3, 2.0, np.zeros(x.size)
    while nfev < _MAX_EVALS:
        chi2, a, g = r @ r, jac.T @ jac, jac.T @ r
        d = np.maximum(d, np.sqrt(a.diagonal()))
        scale = np.where(d > 0, d, 1.0)
        m, rhs = a + np.diag(lam * scale**2), -g
        held = (x <= lower) & (g > 0)
        if held.any():
            m[held], m[:, held], m[held, held] = 0.0, 0.0, 1.0
            rhs[held] = 0.0
        trial = np.maximum(x + np.linalg.solve(m, rhs), lower)
        step = trial - x
        if np.linalg.norm(scale * step) <= _XTOL * (
                _XTOL + np.linalg.norm(scale * x)):
            return x, r, jac, nfev, True
        r_new, jac_new = evaluate(trial)
        nfev += 1
        chi2_new = r_new @ r_new
        # the fall of |r|^2 the linear model predicts, chi2 - |r + J step|^2
        predicted = -step @ (2 * g + a @ step)
        rho = (chi2 - chi2_new) / predicted if predicted > 0 else -1.0
        if rho > 1e-4:
            x, r, jac = trial, r_new, jac_new
            if chi2 - chi2_new <= _FTOL * chi2:
                return x, r, jac, nfev, True
            lam *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            nu = 2.0
        else:
            lam, nu = min(lam * nu, _LAMBDA_MAX), 2 * nu
    return x, r, jac, nfev, False


def _log_fit(nfev, data, layout, chi2_dof, converged):
    # one Jacobian per trial point: njev = nfev
    _log.debug("fit: nfev=%d njev=%d rows=%d frequencies=%d chi2_dof=%.6g "
               "converged=%s", nfev, nfev, len(data), layout[0].size, chi2_dof,
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

