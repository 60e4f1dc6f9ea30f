"""Parameter-space exploration: lineshape regimes, critical-coupling loci,
and coherent-perfect-absorption frequencies.

On the real axis |det S|^2 = A(u) / B(u) with u = omega - omega0, A = |N|^2
and B = |D|^2 for the zero and pole quadratics N, D, so every extremum of
|det S| is a real root of the polynomial F = A'B - AB' (degree <= 5).
N, D and the Omega = 0 rule come from `model._response`; |det S| at given
frequencies from `model._det_s_grid`, with the rule of where it is defined.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (Background, ModelParams, _det_s_grid, _matter_rate,
                    _rate_scale, _response, s_elements)
from .twoport import two_beam_extrema

_log = logging.getLogger(__name__)

_SWEEPABLE = ("gamma_r", "gamma_nr", "gamma_m", "omega_rabi")
_PEAK_FLOOR = 1e-9  # minimum absorbance for a countable peak
_CPA_TOL = 1e-6  # |det S| below which `classify_regime` reports a CPA frequency
_PEAK_GRID = 601  # points of the `count_peaks` grid, also in every `critical_loci` cell
_NEWTON_STEPS = 40  # a simple root needs 2-3; a near-double one halves its error per step
_RESOLVE_ULPS = 2.0**10  # least rate scale `_solve` resolves, in ulp of omega0
_SCALE_MIN = np.finfo(float).tiny ** (1 / 6)  # about 5e-52: G's s^6 terms underflow below


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


def default_window(p: ModelParams) -> tuple[float, float]:
    """The window of the `count_peaks` grid."""
    span = np.maximum(np.maximum(3 * p.omega_rabi, 3 * (p.gamma_r + p.gamma_nr)),
                      3 * p.gamma_m) + 1.0
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
    Rates so large that a coefficient of a G != 0 overflows are a ValueError.
    """
    g_m, g_c, dm = _matter_rate(c), c.gamma_r + c.gamma_nr, c.delta_m
    with np.errstate(over="ignore", invalid="ignore"):
        s, r2 = dm**2 + g_m**2, c.omega_rabi**2
        # B = u^4 + b3 u^3 + b2 u^2 + b1 u + b0, E = e2 u^2 + e1 u + e0
        b0, b1, b2, b3 = (g_c**2 * s + 2 * r2 * g_c * g_m + r2**2,
                          2 * dm * (r2 - g_c**2), s + g_c**2 - 2 * r2, -2 * dm)
        e0, e1, e2 = c.gamma_nr * s + r2 * g_m, -2 * c.gamma_nr * dm, c.gamma_nr
        g = np.stack([e0 * b1 - e1 * b0, 2 * (e0 * b2 - e2 * b0),
                      3 * e0 * b3 + e1 * b2 - e2 * b1, 4 * e0 + 2 * e1 * b3,
                      3 * e1 + e2 * b3, 2 * e2], axis=-1)
    g[c.gamma_r == 0] = 0.0
    if not np.isfinite(g).all():
        raise ValueError("rates too large: the coefficients of the polynomial "
                         "whose roots are the extrema of |det S| overflow")
    return g


def _roots(g: np.ndarray) -> np.ndarray:
    """NaN-padded roots of each row of ascending coefficients of G, shape
    (n, 5), from one eigvals call per trimmed degree. Real roots have an
    imaginary part of exactly 0. Detuned cells only: a resonant model takes
    its minima in closed form (`_resonant_minima`)."""
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


def _at_offsets(c, u: np.ndarray):
    """(omega, |det S|) at the offsets u from omega0, shape (k, n), in one
    `_det_s_grid` call; both NaN where u is."""
    omega = c.omega0 + u
    # a NaN offset is evaluated at omega0 (NaN warns in the complex division)
    # and then discarded
    dets = np.abs(_det_s_grid(c, np.where(np.isnan(u), c.omega0, omega))[0])
    return omega, np.where(np.isnan(u), np.nan, dets)


def _resonant_minima(c):
    """Local minima of |det S| on the real axis of resonant cells (delta_m =
    0, cells along the last axis) in closed form, with no root solve and no
    Newton step: (omega, |det S|), shape (2, n), NaN where a row holds none,
    as `_minima` returns them.

    G = u H(u^2) with H(v) = g5 v^2 + g3 v + g1, g5 = 2 gamma_nr >= 0 and
    g3 = 4 e0 >= 0, so H has a positive root v+ exactly where g1 = G'(0) < 0,
    and G' = 2 v+ H'(v+) > 0 there. The minima are omega0 +- sqrt(v+) (a
    doublet) if there is one, else omega0, and none where G = 0. v+ = g1 / q
    with q = -(g3 + sqrt(g3^2 - 4 g5 g1)) / 2, free of cancellation (q = -g3
    where H is linear, gamma_nr = 0; the other root of H, q / g5, is never
    positive); each minimum is exact, so none takes a Newton step."""
    g = _stationary_poly(c)
    h0, h1, h2 = g[:, 1], g[:, 3], g[:, 5]
    q = np.where(h2 != 0, -0.5 * (h1 + np.sqrt(h1 * h1 - 4 * h2 * h0 + 0j)), -h1)
    # q = 0 only where g3 = g1 = 0, and there v = 0: no doublet
    r = np.sqrt(h0 / np.where(q == 0, 1.0, q))
    split = (r.imag == 0) & (r.real != 0)
    u = np.where(split, r.real, np.nan)
    single = np.where(g.any(axis=1), 0.0, np.nan)
    return _at_offsets(c, np.stack([np.where(split, -u, single), u]))


def _minima(c, tol: float, roots: np.ndarray):
    """Local minima of |det S| on the real axis of detuned cells (cells along
    the last axis), by Newton on G from the roots of G,
    `_roots(_stationary_poly(c))`: (omega, |det S|), shape (k, n), one
    unordered row per seed and NaN where a seed found none, and the Newton
    steps taken.

    Newton runs on G from the real part of every root of G (a near-multiple
    real root can come out of `_roots` as a complex pair) and, for a root
    with 0 < |Im| < 1e-4 (1 + |Re|), also from Re + Im, so that a conjugate
    pair seeds Re +- |Im| (a maximum and a minimum of |det S| a few 1e-4 meV
    apart come out as one such pair). A seed has converged once its step is
    within t = max(min(tol, 1e-10 s), 1e-13 s), s = `_rate_scale`, so the
    rule holds in units of the model's rates. A seed is dropped once its
    step stops shrinking short of t (it cycles) or it lands further from
    omega0 than twice the largest |real part| of a root of G plus 1 meV
    (Newton on the degree-5 G only creeps back from there, and every real
    root of G is a seed of its own); a cell stops, taking zero steps, once
    all its seeds are within t. A point is a minimum where G' > 0 or
    |det S| < 1e-12: where the zeros of det S meet, G' = 0 to rounding."""
    re, im = roots.real.T, roots.imag.T
    near = (im != 0) & (np.abs(im) < 1e-4 * (1 + np.abs(re)))
    u = np.concatenate([re, np.where(near, re + im, np.nan)[near.any(axis=1)]])
    reach = 2 * np.fmax.reduce(np.abs(re), axis=0) + 1.0
    scale = _rate_scale(c)
    t = np.fmax(np.fmin(tol, 1e-10 * scale), 1e-13 * scale)
    size, dg, run, steps = np.inf, 0.0, np.full(re.shape[1], True), 0
    while run.any() and steps < _NEWTON_STEPS:
        g, d = _stationary_value(c, u)
        step = np.divide(g, d, out=np.zeros_like(g), where=run & (d != 0))
        new, moved = u - step, np.abs(step)
        keep = ((moved <= t) | (moved < size)) & (np.abs(new) <= reach)
        u, size = np.where(keep, new, np.nan), np.where(keep, moved, np.nan)
        dg = np.where(run, d, dg)
        run = np.any(size > t, axis=0)
        steps += 1
    omega, dets = _at_offsets(c, u)
    ok = (size <= t) & ~np.isnan(u) & ((dg > 0) | (dets < 1e-12))
    return np.where(ok, omega, np.nan), np.where(ok, dets, np.nan), steps


def _solve(c, tol: float):
    """The minima of |det S| of a batch of cells (along the last axis), all
    resonant or all detuned, as delta_m is no sweep axis: (omega, |det S|)
    as `_minima` returns them; per cell the minimum of |det S|, the smaller
    of 1 (its limit as |omega| -> inf) and those minima; and the
    frequencies, shape (k, n), next to which `_peak_counts` samples B.

    A resonant batch takes `_resonant_minima`, and its minima are those
    frequencies; a detuned one takes `_roots` and `_minima`, and the real
    part of every root of G. Logs one DEBUG line: the cells, how many took
    the closed form and how many `eigvals`, the Newton steps and the minima
    found.

    A minimum is reported as omega0 + u, so a cell with gamma_r > 0 whose
    rate scale s = `_rate_scale` is at most _RESOLVE_ULPS ulp of omega0, or
    so small that s^6 underflows (_SCALE_MIN), is a ValueError; at gamma_r
    = 0 (so at s = 0), |det S| = 1 and G = 0, and there is nothing to
    resolve."""
    scale = _rate_scale(c)
    least = np.fmax(_SCALE_MIN, _RESOLVE_ULPS * np.spacing(c.omega0))
    if ((c.gamma_r > 0) & (scale <= least)).any():
        if np.any((c.gamma_r > 0) & (scale <= _SCALE_MIN)):
            raise ValueError("rates too small: the coefficients of the polynomial "
                             "whose roots are the extrema of |det S| underflow")
        raise ValueError("rates too small for omega0: |delta_m| + rates must "
                         "exceed 2^10 ulp(omega0) for the minima of |det S| "
                         "to be resolved")
    if np.all(c.delta_m == 0):
        omega, dets = _resonant_minima(c)
        centres, closed, eig, steps = omega, omega.shape[1], 0, 0
    else:
        g = _stationary_poly(c)
        roots = _roots(g)
        omega, dets, steps = _minima(c, tol, roots)
        centres, closed = c.omega0 + roots.real.T, 0
        eig = np.count_nonzero(g.any(axis=1))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("regimes: cells=%d closed_form=%d eigvals=%d newton_steps=%d "
                   "minima=%d", omega.shape[1], closed, eig, steps,
                   np.count_nonzero(~np.isnan(omega)))
    return omega, dets, np.fmin.reduce(dets, axis=0, initial=1.0), centres


def _cell_minima(p: ModelParams, tol: float):
    """The minima of |det S| of one model (`_solve`), ascending. Of
    neighbours closer than max(min(tol, 1e-10 s), 4e-13 s), s =
    `_rate_scale`, or with |det S| < 1e-12 at both and midway (one zero of
    det S, where G is flat: a g1 that rounds below 0 splits it into
    +-sqrt(v+), and Newton scatters it, by about 1e-7 meV), the first is
    kept."""
    omega, dets = (a[:, 0] for a in _solve(_cells(p), tol)[:2])
    order = np.argsort(omega)[:np.count_nonzero(~np.isnan(omega))]
    omega, dets = omega[order], dets[order]
    between = np.abs(_det_s_grid(p, 0.5 * (omega[:-1] + omega[1:]))[0])
    scale = _rate_scale(p)
    gap = max(min(tol, 1e-10 * scale), 4e-13 * scale)
    same = ((np.diff(omega) <= gap)
            | (np.max([dets[:-1], dets[1:], between], axis=0) < 1e-12))
    keep = np.r_[True, ~same][:omega.size]
    return omega[keep], dets[keep]


def classify_regime(p: ModelParams) -> RegimeReport:
    """Count the absorbance peaks of B(omega) on the real axis and report the
    critical residuals."""
    # maxima of B are exactly the minima of |det S|; an absorbance floor
    # rejects the minima of a nearly flat (B ~ 0) spectrum
    omega, dets_min = _cell_minima(p, 1e-10)
    positions = tuple(omega[1.0 - dets_min**2 > _PEAK_FLOOR].tolist())
    return RegimeReport(
        n_peaks=len(positions),
        peak_positions=positions,
        scc_residual=scc_residual(p),
        wcc_residual=wcc_residual(p),
        cpa_frequencies=tuple(omega[dets_min < _CPA_TOL].tolist()),
    )


def find_cpa(p: ModelParams, tol: float = 1e-10) -> list[CpaPoint]:
    """Local minima of |det S| on the real axis, refined to tol.

    Every local minimum is reported together with the input dephasing that
    maximizes the joint absorbance there; an empty list is a valid outcome
    (no local minimum, e.g. a lossless model).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    omega, dets_min = _cell_minima(p, tol)
    phi_star = two_beam_extrema(*s_elements(p, Background(), omega)[:3]).phi_max
    return [CpaPoint(omega=float(x), dets_min=float(d), phi_star=float(f))
            for x, d, f in zip(omega, dets_min, phi_star)]


def min_abs_dets(p: ModelParams) -> float:
    """Minimum of |det S| over the real axis."""
    return float(_solve(_cells(p), 1e-10)[2][0])


def critical_loci(base: ModelParams, x_param: str, x_values, y_param: str,
                  y_values) -> CriticalLociMap:
    """Residuals, minimized |det S| and `count_peaks` over a 2-D sweep of
    two rates.

    All grid points are solved together in row-major order (y outer,
    x inner), in one `_solve` call: a resonant sweep (delta_m = 0) takes
    the minima of |det S| of every cell in closed form and samples each
    cell's `count_peaks` grid next to them only; a detuned sweep takes them
    by Newton from one set of roots of G, next to which it samples the grid.
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
    _, _, least, centres = _solve(c, 1e-10)
    return CriticalLociMap(
        x_param=x_param, y_param=y_param, x_values=xs, y_values=ys,
        scc_residual=scc_residual(c).reshape(yy.shape),
        wcc_residual=wcc_residual(c).reshape(yy.shape),
        min_abs_dets=least.reshape(yy.shape),
        n_peaks=_peak_counts(c, centres).reshape(yy.shape),
    )


def _peak_counts(c, centres) -> np.ndarray:
    """Strict interior maxima above _PEAK_FLOOR of B(omega) on the _PEAK_GRID
    points of np.linspace over `default_window` per cell (cells along the
    last axis).

    A sampled strict maximum lies within one grid step of a maximum of B,
    and the maxima of B are exactly the minima of |det S|. So B is tested
    only at the grid point nearest each of the frequencies `centres`, shape
    (k, n) and NaN where a row holds none, one point either side and their
    neighbours, each grid index once per cell. `_solve` gives the centres:
    the minima themselves for a resonant cell, and the real part of every
    root of G for a detuned one. A `default_window` is at least 2 meV wide,
    so its step (at least 1/300 meV) is far above the error of a root, about
    1e-4 meV at a near-double one.
    """
    lo, hi = default_window(c)
    last = _PEAK_GRID - 1
    step = (hi - lo) / last
    # far centres are clipped off the grid; fmax sends the NaN padding there too
    near = np.rint(np.fmin(np.fmax((centres - lo) / step, -2), last + 2))
    j = near[:, None] + np.arange(-2, 3)[:, None]
    dets, bad = _det_s_grid(c, np.where(j == last, hi, j * step + lo))
    b = np.where(bad, -np.inf, 1.0 - np.abs(dets) ** 2)
    inner = j[:, 1:-1]
    peak = ((b[:, 1:-1] > b[:, :-2]) & (b[:, 1:-1] > b[:, 2:])
            & (b[:, 1:-1] > _PEAK_FLOOR) & (0 < inner) & (inner < last))
    found = np.sort(np.where(peak, inner, -1).reshape(-1, b.shape[-1]), axis=0)
    return np.count_nonzero(np.diff(found, axis=0, prepend=-1) > 0, axis=0)


def count_peaks(p: ModelParams) -> int:
    """Strict maxima of B(omega) above _PEAK_FLOOR on the _PEAK_GRID-point grid
    over `default_window`, without refinement, sampled only next to the
    frequencies `_solve` gives: the one-model case of the count
    `critical_loci` makes over a sweep."""
    c = _cells(p)
    return int(_peak_counts(c, _solve(c, 1e-10)[3])[0])
