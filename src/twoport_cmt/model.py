"""Coupled cavity-matter oscillator and its two-port scattering response.

Conventions: energies and rates in meV with hbar = 1, time in 1/meV, and the
e^{+i omega t} harmonic convention, so decaying modes have Im(pole) > 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .twoport import SMatrix2, observables

_INF = math.inf
_TINY = np.finfo(float).tiny  # the least normal float


class DegenerateResponseError(ArithmeticError):
    """Drive frequency sits exactly on a real pole of a lossless model."""


@dataclass(frozen=True)
class ModelParams:
    """Five-rate oscillator model: cavity resonance, radiative / non-radiative
    cavity damping, matter damping and light-matter coupling, plus an optional
    matter-cavity detuning. The total cavity damping gamma_c is always derived,
    never stored."""

    omega0: float
    gamma_r: float
    gamma_nr: float
    gamma_m: float
    omega_rabi: float
    delta_m: float = 0.0

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN is rejected as well
        if not (0 < self.omega0 < _INF and 0 <= self.gamma_r < _INF
                and 0 <= self.gamma_nr < _INF and 0 <= self.gamma_m < _INF
                and 0 <= self.omega_rabi < _INF and -_INF < self.delta_m < _INF):
            raise ValueError(f"need omega0 > 0, rates >= 0 (passivity) and "
                             f"finite values, got {self}")

    @property
    def gamma_c(self) -> float:
        return self.gamma_r + self.gamma_nr

    @property
    def omega_m(self) -> float:
        return self.omega0 + self.delta_m


@dataclass(frozen=True)
class Background:
    """Direct (non-resonant) scattering pathway.

    The background matrix is C = e^{i theta_b} [[r_b, i t_b], [i t_b, r_b]]
    with t_b = sqrt(1 - r_b^2); it is unitary and symmetric.  The per-port
    coupling amplitude d0 has |d0|^2 = gamma_r and its phase is fixed so that
    C conj(|d>) = -|d> with |d> = (d0, d0).
    """

    r_b: float = 1.0
    theta_b: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.r_b <= 1.0 and -_INF < self.theta_b < _INF):
            raise ValueError(f"need r_b in [0, 1] and a finite theta_b, got {self}")

    @property
    def t_b(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.r_b**2))

    def matrix(self) -> np.ndarray:
        ph = cmath.exp(1j * self.theta_b)
        return ph * np.array(
            [[self.r_b, 1j * self.t_b], [1j * self.t_b, self.r_b]], dtype=complex
        )

    def coupling(self, gamma_r: float) -> complex:
        phase = 0.5 * (self.theta_b + math.atan2(self.t_b, self.r_b) + math.pi)
        return math.sqrt(gamma_r) * cmath.exp(1j * phase)


@dataclass(frozen=True)
class PoleZeroSet:
    """Polariton poles and determinant zeros (complex energies, meV)."""

    poles: tuple[complex, complex]
    zeros: tuple[complex, complex]


@dataclass(frozen=True)
class SpectrumTable:
    """Per-frequency single-beam observables on an increasing energy grid.

    Rows where the response is degenerate (real pole of a lossless model on
    the grid) are flagged in `degenerate` and hold NaN.
    """

    omega: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    T: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B: np.ndarray
    abs_dets: np.ndarray
    degenerate: np.ndarray


def _quadratic_pair(c1: complex, c2: complex, coupling: float) -> tuple[complex, complex]:
    # roots of (u - c1)(u - c2) = coupling^2
    mid = 0.5 * (c1 + c2)
    rad = cmath.sqrt(0.25 * (c1 - c2) ** 2 + coupling**2)
    return mid + rad, mid - rad


def poles_zeros(p: ModelParams) -> PoleZeroSet:
    """Polariton poles and the sign-skewed determinant zeros.

    Poles solve (i(w - omega0) + gamma_c)(i(w - omega_m) + gamma_m) + Omega^2 = 0;
    zeros solve the same equation with gamma_c replaced by gamma_nr - gamma_r.
    Coalescent roots are returned twice.
    """
    c_cav = p.omega0 + 1j * p.gamma_c
    c_mat = p.omega_m + 1j * p.gamma_m
    c_cav_zero = p.omega0 + 1j * (p.gamma_nr - p.gamma_r)
    return PoleZeroSet(
        poles=_quadratic_pair(c_cav, c_mat, p.omega_rabi),
        zeros=_quadratic_pair(c_cav_zero, c_mat, p.omega_rabi),
    )


def _matter_rate(p):
    """gamma_m, or 1 where Omega = 0: matter is then common to N and D, so the
    rate leaves S and |N/D| unchanged, and an undriven line is never degenerate."""
    return np.where(p.omega_rabi == 0, 1.0, p.gamma_m)


def _rate_scale(p):
    """|delta_m| + rates: the model's rate scale, the unit in which the
    minima of |det S| are found and told apart. p is a `ModelParams` or a
    batch of models."""
    return np.abs(p.delta_m) + p.gamma_r + p.gamma_nr + p.gamma_m + p.omega_rabi


def _response(p, u):
    """Matter factor, pole quadratic D = (i u + gamma_c) matter + Omega^2 and
    degenerate mask (real pole of a lossless model) at u = omega - omega0,
    with matter = i (u - delta_m) + `_matter_rate`. A point is degenerate
    where |D| <= 1e-12 (|(i u + gamma_c) matter| + Omega^2): the two terms of
    D cancel to rounding, a test free of the scale of u and the rates. The
    zero quadratic is N = D - 2 gamma_r matter. p is a `ModelParams` or a
    batch of models whose fields broadcast against u."""
    u = np.asarray(u, dtype=float)
    g_c = p.gamma_r + p.gamma_nr
    matter = 1j * (u - p.delta_m) + _matter_rate(p)
    # Omega * Omega, not Omega ** 2, which raises OverflowError on a float
    product, r2 = (1j * u + g_c) * matter, p.omega_rabi * p.omega_rabi
    den = product + r2
    return matter, den, np.abs(den) <= 1e-12 * (np.abs(product) + r2)


def _response_at(p, omega):
    """`_response` at the frequencies omega, with the one rule of where the
    response is defined that every S, steady-state and |det S| builder
    takes; p may be a batch of models, as for `_response`. Values so large
    that D overflows at a frequency that is not NaN are a ValueError that
    names the overflow, with no numpy warning. D is returned as 1 at a
    degenerate point, so that builders divide by it freely. Where gamma_r =
    Omega = 0 no point is flagged: the cavity is then a line that nothing
    drives, like the matter line `_matter_rate` drops at Omega = 0, so
    K = d0^2 = 0, N = D, and S = C and N/D = 1 also where D = 0. (With
    Omega > 0 the real poles of a lossless model stay degenerate.) A
    flagged point where both terms of D lie below the normal range is no
    pole but an underflow, a ValueError that names it."""
    u = np.asarray(omega, dtype=float) - p.omega0
    with np.errstate(over="ignore", invalid="ignore"):
        matter, den, bad = _response(p, u)
        if not (cmath.isfinite(den.sum())
                or np.all(np.isfinite(den) | np.isnan(u))):
            raise ValueError("rates too large: the pole quadratic D overflows")
    if bad.any():
        den = np.where(bad, 1.0, den)
        bad = bad & ((p.gamma_r != 0) | (p.omega_rabi != 0))
        product = np.abs((1j * u + p.gamma_r + p.gamma_nr) * matter)
        if np.any(bad & (product < _TINY) & (p.omega_rabi * p.omega_rabi < _TINY)):
            raise ValueError("rates too small: the pole quadratic D underflows")
    return matter, den, bad


def s_elements(p: ModelParams, bg: Background, omega):
    """S(omega) = C + u(omega) [[1, 1], [1, 1]] with u = d0^2 matter / den,
    broadcast over omega; returns (s11, s12 = s21, s22, degenerate).

    Every S entry gets the same rank-1 increment u on top of the background
    (temporal coupled-mode theory: Fan, Suh and Joannopoulos, JOSA A 20, 569
    (2003)). Degenerate points (`_response_at`) hold NaN.
    """
    matter, den, bad = _response_at(p, omega)
    d0 = bg.coupling(p.gamma_r)
    u = np.where(bad, np.nan, d0 * d0 * matter / den)
    C = bg.matrix()
    return C[0, 0] + u, C[0, 1] + u, C[1, 1] + u, bad


def steady_state_response(p, bg, omega, s_plus):
    """Steady-state (d/dt -> i omega) solution of the coupled equations.

    Returns (a, b, s_minus) for inputs s_plus = (s1+, s2+); the outputs are
    s_minus = C s_plus + a |d>. Eliminating b from the 2x2 system gives
    a = drive matter / den and b = i Omega drive / den (see `_response`).
    """
    matter, den, bad = _response_at(p, omega)
    _check_defined(omega, bad)
    d0 = bg.coupling(p.gamma_r)
    drive = d0 * (s_plus[0] + s_plus[1])
    a = drive * matter / den
    b = 1j * p.omega_rabi * drive / den
    s_out = bg.matrix() @ np.asarray(s_plus, dtype=complex) + a * np.array([d0, d0])
    return complex(a), complex(b), (complex(s_out[0]), complex(s_out[1]))


def _check_defined(omega, bad):
    """Raise DegenerateResponseError at the first degenerate omega."""
    if np.any(bad):
        raise DegenerateResponseError(
            f"S undefined at omega={np.asarray(omega)[bad].flat[0]} "
            f"(real pole of a lossless model)")


def _defined_elements(p: ModelParams, bg: Background, omega):
    """(s11, s12, s22) of `s_elements`, raising at a degenerate point."""
    s11, s12, s22, bad = s_elements(p, bg, omega)
    _check_defined(omega, bad)
    return s11, s12, s22


def _elements_and_grad(p: ModelParams, bg: Background, omega, free):
    """(s11, s12, s22) of `_defined_elements` and du, the rows du/dtheta of
    the rank-1 increment u = K matter / D for the names in free (None with
    free empty), from one `_response_at` call; K = d0^2 = gamma_r e^{i alpha}.
    C does not depend on the model, so du is the derivative of every S
    entry.  At Omega = 0 the gamma_m and delta_m rows are exactly 0, as
    `_matter_rate` takes matter out of S there; at gamma_r = 0 every row
    but gamma_r is, as u = 0 for every gamma_r = 0 model.  That row,
    e^{i alpha} matter / D there, has no value where D = 0, so with gamma_r
    free such a point raises a DegenerateResponseError that names dS/dgamma_r,
    also where `_response_at` defines S.
    Rates so large that u or du overflows are a ValueError that names the
    overflow, with no numpy warning."""
    w = np.asarray(omega, dtype=float)
    matter, den, bad = _response_at(p, w)
    _check_defined(w, bad)
    if "gamma_r" in free and p.gamma_r == 0:
        jump = _response(p, w - p.omega0)[2]
        if jump.any():
            raise DegenerateResponseError(
                f"dS/dgamma_r undefined at omega={w[jump].flat[0]}: S is "
                "defined there, but jumps as gamma_r leaves 0 (real pole of "
                "the lossless model)")
    e_ia = bg.coupling(1.0) ** 2
    d0 = bg.coupling(p.gamma_r)
    try:
        with np.errstate(over="raise"):
            u = d0 * d0 * matter / den
            du = _increment_rows(p, e_ia, matter, den, free) if free else None
    except FloatingPointError:
        raise ValueError("rates too large: the derivative of S overflows")
    C = bg.matrix()
    return (C[0, 0] + u, C[0, 1] + u, C[1, 1] + u), du


def _increment_rows(p, e_ia, matter, den, free):
    """The rows du/dtheta of `_elements_and_grad` for the names in free."""
    g = p.gamma_r * e_ia / den**2  # K / D^2
    rabi2, m2 = p.omega_rabi**2, matter**2
    rows = {
        "omega0": lambda: -1j * g * (rabi2 - m2),
        "gamma_r": lambda: e_ia * matter / den - g * m2,
        "gamma_nr": lambda: -g * m2,
        "gamma_m": lambda: g * rabi2,
        "delta_m": lambda: -1j * g * rabi2,
        "omega_rabi": lambda: -2 * p.omega_rabi * g * matter,
    }
    return np.array([rows[name]() for name in free])


def scattering_matrix(p: ModelParams, bg: Background, omega: float) -> SMatrix2:
    """S(omega) at one frequency, from `s_elements`."""
    s11, s12, s22 = _defined_elements(p, bg, omega)
    return SMatrix2(complex(s11), complex(s12), complex(s12), complex(s22))


def det_s(p: ModelParams, omega: float) -> complex:
    """det S(omega) as the pole-zero ratio, up to the unimodular background
    phase factor e^{2 i theta_b} (r_b + i t_b)^2 which is stripped; |det_s|
    is the contract."""
    val, bad = _det_s_grid(p, omega)
    _check_defined(omega, bad)
    return complex(val)


def _det_s_grid(p: ModelParams, omega):
    """Vectorized pole-zero ratio N/D from `_response_at`; returns (values,
    degenerate mask), NaN at degenerate points."""
    matter, den, bad = _response_at(p, omega)
    num = den - 2 * p.gamma_r * matter
    return np.where(bad, np.nan + 0j, num / den), bad


def single_beam_spectrum(p: ModelParams, bg: Background, grid) -> SpectrumTable:
    """Single-beam observables R1, R2, T, A1, A2, B = 1 - |det S|^2 on a grid.

    For this symmetric model A1 = A2 = B/2; that identity is a theorem of the
    construction, enforced by tests rather than assumed here.
    """
    w = np.asarray(grid, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("grid must be a 1-D array with at least 2 points")
    if not np.all(np.diff(w) > 0):
        raise ValueError("grid must be strictly increasing")

    s11, s12, s22, bad = s_elements(p, bg, w)
    names = ("R1", "R2", "T", "A1", "A2")
    kinds = dict(zip(names, observables(s11, s12, s22, names)[0]))
    # |det S| from the pole-zero ratio, independent of the S entries
    abs_dets = np.abs(_det_s_grid(p, w)[0])
    return SpectrumTable(omega=w, **kinds, B=1.0 - abs_dets**2,
                         abs_dets=abs_dets, degenerate=bad)
