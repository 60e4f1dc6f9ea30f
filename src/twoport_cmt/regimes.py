"""Parameter-space exploration: lineshape regimes, critical-coupling loci,
and coherent-perfect-absorption frequencies.

On the real axis |det S|^2 = A(u) / B(u) with u = omega - omega0, A = |N|^2
and B = |D|^2 for the zero and pole quadratics N, D, so every extremum of
|det S| is a real root of the polynomial F = A'B - AB' (degree <= 5).
N, D and the Omega = 0 rule come from `model._response`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (Background, ModelParams, _det_s_grid, _matter_rate,
                    _response, s_elements)
from .twoport import two_beam_extrema

_SWEEPABLE = ("gamma_r", "gamma_nr", "gamma_m", "omega_rabi")
_PEAK_FLOOR = 1e-9  # minimum absorbance for a countable peak
_CPA_TOL = 1e-6  # |det S| below which `classify_regime` reports a CPA frequency
_PEAK_GRID = 601  # points of the `count_peaks` grid, also in every `critical_loci` cell
_NEWTON_STEPS = 40  # a simple root needs 2-3; a near-double one halves its error per step
_SCAN_CELLS = 16  # cells per block of the peak scan: small blocks stay in cache


class WindowTooNarrowError(ValueError):
    """A spectral extremum sits on the window boundary; widen the window."""


@dataclass(frozen=True)
class RegimeReport:
    n_peaks: int
    peak_positions: tuple[float, ...]
    scc_residual: float
    wcc_residual: float
    cpa_frequencies: tuple[float, ...]


@dataclass(frozen=True)
class CpaPoint:
    omega: float
    dets_min: float
    phi_star: float


@dataclass(frozen=True)
class CriticalLociMap:
    """Row-major maps over a 2-D rate sweep (y outer, x inner)."""

    x_param: str
    y_param: str
    x_values: np.ndarray
    y_values: np.ndarray
    scc_residual: np.ndarray
    wcc_residual: np.ndarray
    min_abs_dets: np.ndarray
    n_peaks: np.ndarray


def _cells(p: ModelParams, n: int = 1, **sweep) -> SimpleNamespace:
    """The fields of p as length-n arrays, the swept ones replaced: a batch
    of models along the last axis, for `_response` and `_det_s_grid`."""
    return SimpleNamespace(**{**{k: np.full(n, float(v))
                                 for k, v in vars(p).items()}, **sweep})


def scc_residual(p: ModelParams) -> float:
    """Strong-critical-coupling residual gamma_r - gamma_nr - gamma_m."""
    return p.gamma_r - p.gamma_nr - p.gamma_m


def wcc_residual(p: ModelParams) -> float:
    """Weak-critical-coupling residual gamma_m (gamma_r - gamma_nr) - Omega^2."""
    return p.gamma_m * (p.gamma_r - p.gamma_nr) - p.omega_rabi**2


def default_window(p: ModelParams, pad: float = 1.0) -> tuple[float, float]:
    span = np.maximum(np.maximum(3 * p.omega_rabi, 3 * (p.gamma_r + p.gamma_nr)),
                      3 * p.gamma_m) + pad
    return (p.omega0 - span, p.omega0 + span)


def _stationary_poly(c) -> np.ndarray:
    """Ascending coefficients, shape (n, 6), of G = E B' - E' B in u (in
    omega instead of u the roots lose accuracy, to about 1e-5 meV).

    B = (u^2 + g_c^2)((u - delta_m)^2 + gamma_m^2)
        + 2 Omega^2 (g_c gamma_m - u (u - delta_m)) + Omega^4, and A is B with
    g_c = gamma_r + gamma_nr replaced by gamma_nr - gamma_r, so B - A =
    4 gamma_r E with E = gamma_nr ((u - delta_m)^2 + gamma_m^2) + Omega^2
    gamma_m, and F = 4 gamma_r G. G is exactly zero where gamma_r = 0
    (N = D) or the model is lossless (E = 0), of degree 3 where gamma_nr = 0.
    """
    g_m, g_c, dm = _matter_rate(c), c.gamma_r + c.gamma_nr, c.delta_m
    s, r2 = dm**2 + g_m**2, c.omega_rabi**2
    # B = u^4 + b3 u^3 + b2 u^2 + b1 u + b0, E = e2 u^2 + e1 u + e0
    b0, b1, b2, b3 = (g_c**2 * s + 2 * r2 * g_c * g_m + r2**2,
                      2 * dm * (r2 - g_c**2), s + g_c**2 - 2 * r2, -2 * dm)
    e0, e1, e2 = c.gamma_nr * s + r2 * g_m, -2 * c.gamma_nr * dm, c.gamma_nr
    g = np.stack([e0 * b1 - e1 * b0, 2 * (e0 * b2 - e2 * b0),
                  3 * e0 * b3 + e1 * b2 - e2 * b1, 4 * e0 + 2 * e1 * b3,
                  3 * e1 + e2 * b3, 2 * e2], axis=-1)
    g[c.gamma_r == 0] = 0.0
    return g


def _roots(g: np.ndarray) -> np.ndarray:
    """NaN-padded roots of each row of ascending coefficients: one eigvals
    call per trimmed degree. Real roots have an imaginary part of exactly 0."""
    n, m = g.shape
    out = np.full((n, m - 1), complex(math.nan, math.nan))
    nonzero = g != 0
    deg = np.where(nonzero.any(axis=1),
                   m - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for d in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == d)
        comp = np.zeros((rows.size, d, d))
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = -g[rows, :d] / g[rows, d:d + 1]
        out[rows, :d] = np.linalg.eigvals(comp)
    return out


def _stationary_value(p, u: np.ndarray):
    """(G, G') of one model at the points u from the factored D and E, which
    keep their accuracy where the expanded terms of G cancel (near a narrow
    matter line); G' = E B'' - E'' B, as the E' B' terms cancel."""
    matter, d, _ = _response(p, u)
    dd = 1j * (1j * u + p.gamma_r + p.gamma_nr + matter)  # D'
    e = p.gamma_nr * np.abs(matter) ** 2 + p.omega_rabi**2 * p.gamma_m
    b = np.abs(d) ** 2
    db = 2 * (dd * np.conj(d)).real
    ddb = 2 * np.abs(dd) ** 2 - 4 * d.real  # D'' = -2
    return (e * db - 2 * p.gamma_nr * (u - p.delta_m) * b,
            e * ddb - 2 * p.gamma_nr * b)


def _minima(c, lo, hi, tol: float):
    """Interior local minima of |det S| per cell (cells along the last axis):
    (omega, |det S|), shape (5, n), one unordered row per seed and NaN where
    a seed found none; and per cell the minimum of |det S| over [lo, hi],
    the smaller of the window-end values and those minima. Newton on G
    starts from the real part of every root of G (a near-multiple real root
    can come out of `_roots` as a complex pair). A seed is dropped once its
    step stops shrinking short of tol (it cycles) or it lies further than
    the window span outside the window (Newton on the degree-5 G only creeps
    back from there); a cell stops, taking zero steps, once all its seeds
    are within tol. A point in the open window is a minimum where G' > 0 or
    |det S| < 1e-12: where the zeros of det S meet, G' = 0 to rounding."""
    mid, reach = 0.5 * (lo + hi) - c.omega0, 1.5 * (hi - lo)
    u = _roots(_stationary_poly(c)).real.T
    size, dg = np.full(u.shape, np.inf), np.zeros(u.shape)
    run = np.ones(u.shape[1], dtype=bool)
    for _ in range(_NEWTON_STEPS):
        g, d = _stationary_value(c, u)
        step = np.divide(g, d, out=np.zeros_like(g), where=run & (d != 0))
        new, moved = u - step, np.abs(step)
        keep = ((moved <= tol) | (moved < size)) & (np.abs(new - mid) <= reach)
        u, size = np.where(keep, new, np.nan), np.where(keep, moved, np.nan)
        dg = np.where(run, d, dg)
        run = np.any(size > tol, axis=0)
        if not run.any():
            break
    omega = c.omega0 + u
    # a dropped seed (NaN) is evaluated at lo and then discarded
    w = np.vstack([lo, hi, np.where(np.isnan(u), lo, omega)])
    ends, dets = np.split(np.abs(_det_s_grid(c, w)[0]), [2])
    ok = (size <= tol) & ((dg > 0) | (dets < 1e-12)) & (lo < omega) & (omega < hi)
    dets = np.where(ok, dets, np.nan)
    return (np.where(ok, omega, np.nan), dets,
            np.fmin.reduce(np.vstack([ends, dets])))


def _cell_minima(p: ModelParams, window, tol: float):
    """`_minima` of one model, ascending. Of neighbours closer than tol, or
    with |det S| < 1e-12 at both and midway (one zero of det S, which Newton
    on the flat G there scatters by about 1e-7 meV), the first is kept."""
    omega, dets = (a[:, 0] for a in _minima(_cells(p), *window, tol)[:2])
    order = np.argsort(omega)[:np.count_nonzero(~np.isnan(omega))]
    omega, dets = omega[order], dets[order]
    between = np.abs(_det_s_grid(p, 0.5 * (omega[:-1] + omega[1:]))[0])
    same = ((np.diff(omega) <= tol)
            | (np.max([dets[:-1], dets[1:], between], axis=0) < 1e-12))
    keep = np.r_[True, ~same][:omega.size]
    return omega[keep], dets[keep]


def classify_regime(p: ModelParams, window=None) -> RegimeReport:
    """Count the absorbance peaks of B(omega) and report the critical residuals.

    The window must cover omega0 +/- max(3 Omega, 3 gamma_c, 3 gamma_m). If
    B, above the peak floor, falls from a window end into the window, that
    end is a maximum of B and WindowTooNarrowError is raised.
    """
    lo_req, hi_req = default_window(p, pad=0.0)
    lo, hi = window = default_window(p) if window is None else window
    if lo > lo_req or hi < hi_req:
        raise ValueError(f"window {window} must cover ({lo_req}, {hi_req})")
    # |det S|^2 rises where G > 0 (F = 4 gamma_r G): B peaks on the boundary
    # if it falls into the window at lo or rises out of it at hi
    ends = np.array([lo, hi])
    b_lo, b_hi = 1.0 - np.abs(_det_s_grid(p, ends)[0]) ** 2
    g_lo, g_hi = _stationary_value(p, ends - p.omega0)[0]
    if (b_lo > _PEAK_FLOOR and g_lo > 0) or (b_hi > _PEAK_FLOOR and g_hi < 0):
        raise WindowTooNarrowError(
            "B(omega) has a maximum on the window boundary; widen the window")
    # maxima of B are exactly the minima of |det S|; an absorbance floor
    # rejects the minima of a nearly flat (B ~ 0) spectrum
    omega, dets_min = _cell_minima(p, window, 1e-10)
    positions = tuple(omega[1.0 - dets_min**2 > _PEAK_FLOOR].tolist())
    return RegimeReport(
        n_peaks=len(positions),
        peak_positions=positions,
        scc_residual=scc_residual(p),
        wcc_residual=wcc_residual(p),
        cpa_frequencies=tuple(omega[dets_min < _CPA_TOL].tolist()),
    )


def find_cpa(p: ModelParams, window=None, tol: float = 1e-10) -> list[CpaPoint]:
    """Local minima of |det S| on the real axis, refined to tol.

    Every interior local minimum is reported together with the input
    dephasing that maximizes the joint absorbance there; an empty list is a
    valid outcome (no interior minimum, e.g. a lossless model).
    """
    window = default_window(p) if window is None else window
    omega, dets_min = _cell_minima(p, window, tol)
    phi_star = two_beam_extrema(*s_elements(p, Background(), omega)[:3]).phi_max
    return [CpaPoint(omega=float(x), dets_min=float(d), phi_star=float(f))
            for x, d, f in zip(omega, dets_min, phi_star)]


def min_abs_dets(p: ModelParams, window=None) -> float:
    """Minimum of |det S| over a real frequency window (default window)."""
    lo, hi = default_window(p) if window is None else window
    return float(_minima(_cells(p), lo, hi, 1e-10)[2][0])


def critical_loci(base: ModelParams, x_param: str, x_values, y_param: str,
                  y_values) -> CriticalLociMap:
    """Residuals, minimized |det S| and `count_peaks` over a 2-D sweep of
    two rates.

    All grid points are solved together in row-major order (y outer,
    x inner), each over its own default window.
    """
    for name in (x_param, y_param):
        if name not in _SWEEPABLE:
            raise ValueError(f"sweep parameter must be one of {_SWEEPABLE}, got {name!r}")
    if x_param == y_param:
        raise ValueError("sweep axes must differ")
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    if not np.all((0 <= np.r_[xs, ys]) & (np.r_[xs, ys] < math.inf)):
        raise ValueError("sweep axes must be finite and non-negative")
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    c = _cells(base, yy.size, **{x_param: xx.ravel(), y_param: yy.ravel()})
    lo, hi = default_window(c)
    n_peaks = np.zeros(yy.size, dtype=int)
    for i in range(0, yy.size, _SCAN_CELLS):
        s = slice(i, i + _SCAN_CELLS)
        block = SimpleNamespace(**{k: v[s] for k, v in vars(c).items()})
        n_peaks[s] = _peak_counts(block, lo[s], hi[s])
    return CriticalLociMap(
        x_param=x_param, y_param=y_param, x_values=xs, y_values=ys,
        scc_residual=scc_residual(c).reshape(yy.shape),
        wcc_residual=wcc_residual(c).reshape(yy.shape),
        min_abs_dets=_minima(c, lo, hi, 1e-10)[2].reshape(yy.shape),
        n_peaks=n_peaks.reshape(yy.shape),
    )


def _peak_counts(c, lo, hi, n_grid: int = _PEAK_GRID) -> np.ndarray:
    """Strict interior maxima above _PEAK_FLOOR of B(omega) on the n_grid-point
    grid over [lo, hi] of each model (models along the last axis)."""
    dets, bad = _det_s_grid(c, np.linspace(lo, hi, n_grid))
    b = np.where(bad, -np.inf, 1.0 - np.abs(dets) ** 2)
    interior = (b[1:-1] > b[:-2]) & (b[1:-1] > b[2:]) & (b[1:-1] > _PEAK_FLOOR)
    return np.count_nonzero(interior, axis=0)


def count_peaks(p: ModelParams, window=None, n_grid: int = _PEAK_GRID) -> int:
    """Quick strict-maxima count of B(omega) without refinement: the one-model
    case of the scan `critical_loci` runs over a sweep."""
    lo, hi = default_window(p) if window is None else window
    return int(_peak_counts(p, lo, hi, n_grid))
