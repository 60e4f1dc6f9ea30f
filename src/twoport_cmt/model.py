"""Coupled cavity-matter oscillator and its two-port scattering response.

Conventions: energies and rates in meV with hbar = 1, time in 1/meV, and the
e^{+i omega t} harmonic convention, so decaying modes have Im(pole) > 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
class SMatrix2:
    """2x2 complex scattering matrix at one frequency."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex

    @classmethod
    def from_array(cls, arr) -> "SMatrix2":
        arr = np.asarray(arr, dtype=complex)
        return cls(arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1])

    def as_array(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s21, self.s22]], dtype=complex)

    def det(self) -> complex:
        return self.s11 * self.s22 - self.s12 * self.s21


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


def _response_matrix(p: ModelParams, omega: float) -> np.ndarray:
    return np.array(
        [
            [1j * (omega - p.omega0) + p.gamma_c, -1j * p.omega_rabi],
            [-1j * p.omega_rabi, 1j * (omega - p.omega_m) + p.gamma_m],
        ],
        dtype=complex,
    )


def _degeneracy_scale(p: ModelParams, omega) -> float:
    return (1.0 + abs(omega - p.omega0) + p.gamma_c + p.gamma_m + p.omega_rabi) ** 2


def steady_state_response(p, bg, omega, s_plus):
    """Steady-state (d/dt -> i omega) solution of the coupled equations.

    Returns (a, b, s_minus) for inputs s_plus = (s1+, s2+); the outputs are
    s_minus = C s_plus + a |d>.
    """
    m = _response_matrix(p, omega)
    decoupled = p.omega_rabi == 0  # undriven matter, b = 0: only a can be singular
    det = m[0, 0] * (1.0 if decoupled else m[1, 1]) - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12 * _degeneracy_scale(p, omega):
        raise DegenerateResponseError(
            f"steady-state system singular at omega={omega} (real pole of a lossless model)"
        )
    d0 = bg.coupling(p.gamma_r)
    drive = d0 * (s_plus[0] + s_plus[1])
    a, b = ((drive / m[0, 0], 0j) if decoupled else
            np.linalg.solve(m, np.array([drive, 0.0], dtype=complex)))
    s_out = bg.matrix() @ np.asarray(s_plus, dtype=complex) + a * np.array([d0, d0])
    return complex(a), complex(b), (complex(s_out[0]), complex(s_out[1]))


def scattering_matrix(p: ModelParams, bg: Background, omega: float) -> SMatrix2:
    """S(omega) built column-wise from the steady-state linear solve."""
    _, _, col1 = steady_state_response(p, bg, omega, (1.0, 0.0))
    _, _, col2 = steady_state_response(p, bg, omega, (0.0, 1.0))
    return SMatrix2(col1[0], col2[0], col1[1], col2[1])


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


def _det_s_grid(p: ModelParams, omega: np.ndarray):
    """Vectorized pole-zero ratio; returns (values, degenerate mask). The
    quadratics are kept as (w - c_cav)(w - c_mat) - Omega^2, the equation that
    `poles_zeros` solves; with Omega = 0 the common matter factor is cancelled."""
    w = np.asarray(omega, dtype=float)
    mat = w - (p.omega_m + 1j * p.gamma_m) if p.omega_rabi else 1.0
    num = (w - (p.omega0 + 1j * (p.gamma_nr - p.gamma_r))) * mat - p.omega_rabi**2
    den = (w - (p.omega0 + 1j * p.gamma_c)) * mat - p.omega_rabi**2
    bad = np.abs(den) < 1e-12 * _degeneracy_scale(p, w)
    safe = np.where(bad, 1.0, den)
    vals = num / safe
    vals = np.where(bad, np.nan + 0j, vals)
    return vals, bad


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

    resp_c = 1j * (w - p.omega0) + p.gamma_c
    resp_m = 1j * (w - p.omega_m) + p.gamma_m
    den = resp_c * resp_m + p.omega_rabi**2
    bad_resp = np.abs(den) < 1e-12 * _degeneracy_scale(p, w)
    safe = np.where(bad_resp, 1.0, den)
    d0 = bg.coupling(p.gamma_r)
    # cavity amplitude for unit input on either port; every S entry gets the
    # same rank-1 increment d0^2 resp_m / den on top of the background
    u = d0 * d0 * resp_m / safe
    C = bg.matrix()
    s11 = C[0, 0] + u
    s22 = C[1, 1] + u
    s12 = C[0, 1] + u

    dets, bad_pz = _det_s_grid(p, w)
    bad = bad_resp | bad_pz
    R1 = np.abs(s11) ** 2
    R2 = np.abs(s22) ** 2
    T = np.abs(s12) ** 2
    abs_dets = np.abs(dets)
    for arr in (R1, R2, T, abs_dets):
        arr[bad] = np.nan
    A1 = 1.0 - R1 - T
    A2 = 1.0 - R2 - T
    B = 1.0 - abs_dets**2
    return SpectrumTable(
        omega=w, R1=R1, R2=R2, T=T, A1=A1, A2=A2, B=B, abs_dets=abs_dets,
        degenerate=bad,
    )
