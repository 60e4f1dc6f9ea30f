"""Coupled cavity-matter oscillator and its two-port scattering response.

Conventions: energies and rates in meV with hbar = 1, time in 1/meV, and the
e^{+i omega t} harmonic convention, so decaying modes have Im(pole) > 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .twoport import SMatrix2, observable

_INF = math.inf


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


def _response(p, u):
    """Matter factor, pole quadratic D = (i u + gamma_c) matter + Omega^2 and
    degenerate mask (real pole of a lossless model) at u = omega - omega0,
    with matter = i (u - delta_m) + `_matter_rate`. The zero quadratic is
    N = D - 2 gamma_r matter. p is a `ModelParams` or a batch of models
    whose fields broadcast against u."""
    u = np.asarray(u, dtype=float)
    g_c = p.gamma_r + p.gamma_nr
    matter = 1j * (u - p.delta_m) + _matter_rate(p)
    den = (1j * u + g_c) * matter + p.omega_rabi**2
    scale = (1.0 + np.abs(u) + g_c + p.gamma_m + p.omega_rabi) ** 2
    return matter, den, np.abs(den) < 1e-12 * scale


def s_elements(p: ModelParams, bg: Background, omega):
    """S(omega) = C + u(omega) [[1, 1], [1, 1]] with u = d0^2 matter / den,
    broadcast over omega; returns (s11, s12 = s21, s22, degenerate).

    Every S entry gets the same rank-1 increment u on top of the background
    (temporal coupled-mode theory: Fan, Suh and Joannopoulos, JOSA A 20, 569
    (2003)). Degenerate points hold NaN.
    """
    matter, den, bad = _response(p, np.asarray(omega, dtype=float) - p.omega0)
    d0 = bg.coupling(p.gamma_r)
    u = np.where(bad, np.nan, d0 * d0 * matter / np.where(bad, 1.0, den))
    C = bg.matrix()
    return C[0, 0] + u, C[0, 1] + u, C[1, 1] + u, bad


def steady_state_response(p, bg, omega, s_plus):
    """Steady-state (d/dt -> i omega) solution of the coupled equations.

    Returns (a, b, s_minus) for inputs s_plus = (s1+, s2+); the outputs are
    s_minus = C s_plus + a |d>. Eliminating b from the 2x2 system gives
    a = drive matter / den and b = i Omega drive / den (see `_response`).
    """
    matter, den, bad = _response(p, omega - p.omega0)
    if bad:
        raise DegenerateResponseError(
            f"steady-state system singular at omega={omega} (real pole of a lossless model)"
        )
    d0 = bg.coupling(p.gamma_r)
    drive = d0 * (s_plus[0] + s_plus[1])
    a = drive * matter / den
    b = 1j * p.omega_rabi * drive / den
    s_out = bg.matrix() @ np.asarray(s_plus, dtype=complex) + a * np.array([d0, d0])
    return complex(a), complex(b), (complex(s_out[0]), complex(s_out[1]))


def _defined_elements(p: ModelParams, bg: Background, omega):
    """(s11, s12, s22) of `s_elements`, raising at a degenerate point."""
    s11, s12, s22, bad = s_elements(p, bg, omega)
    if np.any(bad):
        raise DegenerateResponseError(
            f"S undefined at omega={np.asarray(omega)[bad].flat[0]} "
            f"(real pole of a lossless model)")
    return s11, s12, s22


def scattering_matrix(p: ModelParams, bg: Background, omega: float) -> SMatrix2:
    """S(omega) at one frequency, from `s_elements`."""
    s11, s12, s22 = _defined_elements(p, bg, omega)
    return SMatrix2(complex(s11), complex(s12), complex(s12), complex(s22))


def det_s(p: ModelParams, omega: float) -> complex:
    """det S(omega) as the pole-zero ratio, up to the unimodular background
    phase factor e^{2 i theta_b} (r_b + i t_b)^2 which is stripped; |det_s|
    is the contract."""
    val, bad = _det_s_grid(p, omega)
    if bad:
        raise DegenerateResponseError(
            f"omega={omega} coincides with a real pole of a lossless model"
        )
    return complex(val)


def _det_s_grid(p: ModelParams, omega):
    """Vectorized pole-zero ratio N/D from `_response`; returns (values,
    degenerate mask), NaN at degenerate points."""
    matter, den, bad = _response(p, np.asarray(omega, dtype=float) - p.omega0)
    num = den - 2 * p.gamma_r * matter
    return np.where(bad, np.nan + 0j, num / np.where(bad, 1.0, den)), bad


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
    kinds = {k: observable(s11, s12, s22, k) for k in ("R1", "R2", "T", "A1", "A2")}
    # |det S| from the pole-zero ratio, independent of the S entries
    abs_dets = np.abs(_det_s_grid(p, w)[0])
    return SpectrumTable(omega=w, **kinds, B=1.0 - abs_dets**2,
                         abs_dets=abs_dets, degenerate=bad)
