"""Model-agnostic analysis of reciprocal 2x2 scattering matrices.

Decomposition into (theta, rho1, rho2, tau, psi1, psi2), two-beam joint
absorbance and its extrema, output dephasing, and reconstruction of |det S|
from intensity observables.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import SMatrix2

_RECIPROCITY_TOL = 1e-9
_PHASE_TOL = 1e-9
_MAG_TINY = 1e-12


class NonReciprocalError(ValueError):
    """Input matrix violates s12 = s21."""


class PhaseUndefinedError(ValueError):
    """Reflection/transmission magnitude too small for a well-defined phase."""


def wrap_phase(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.atan2(math.sin(x), math.cos(x))


@dataclass(frozen=True)
class ReciprocalDecomposition:
    """S = e^{i theta} [[rho1 e^{i psi1}, i tau], [i tau, rho2 e^{i psi2}]].

    Canonicalized so the off-diagonal is exactly i tau e^{i theta} with
    tau >= 0; psi's wrapped to (-pi, pi].
    """

    theta: float
    rho1: float
    rho2: float
    tau: float
    psi1: float
    psi2: float

    def reassemble(self) -> SMatrix2:
        ph = cmath.exp(1j * self.theta)
        off = 1j * self.tau * ph
        return SMatrix2(
            ph * self.rho1 * cmath.exp(1j * self.psi1),
            off,
            off,
            ph * self.rho2 * cmath.exp(1j * self.psi2),
        )


@dataclass(frozen=True)
class JointAbsorbanceExtrema:
    a_min: float
    a_max: float
    a_avg: float
    a_mod: float
    phi_min: float
    phi_max: float


def decompose(S: SMatrix2) -> ReciprocalDecomposition:
    if abs(S.s12 - S.s21) >= _RECIPROCITY_TOL:
        raise NonReciprocalError(
            f"|s12 - s21| = {abs(S.s12 - S.s21):.3e} exceeds {_RECIPROCITY_TOL:.0e}"
        )
    tau = abs(S.s12)
    theta = wrap_phase(cmath.phase(S.s12) - 0.5 * math.pi) if tau >= _MAG_TINY else 0.0
    rho1 = abs(S.s11)
    rho2 = abs(S.s22)
    psi1 = wrap_phase(cmath.phase(S.s11) - theta) if rho1 >= _MAG_TINY else 0.0
    psi2 = wrap_phase(cmath.phase(S.s22) - theta) if rho2 >= _MAG_TINY else 0.0
    return ReciprocalDecomposition(theta, rho1, rho2, tau, psi1, psi2)


def joint_absorbance(S: SMatrix2, phi: float):
    """Joint absorbance for the equal-intensity input pair (1, e^{i phi}).

    Returns (a_joint, out1, out2) with out_k = |s_k^-|^2.
    """
    e = cmath.exp(1j * phi)
    s1m = S.s11 + S.s12 * e
    s2m = S.s21 + S.s22 * e
    out1 = abs(s1m) ** 2
    out2 = abs(s2m) ** 2
    return 1.0 - 0.5 * (out1 + out2), out1, out2


def joint_extrema(S: SMatrix2) -> JointAbsorbanceExtrema:
    """Closed-form extrema of the joint absorbance over the input dephasing.

    Total output is P0 + 2 Re(z e^{i phi}) with z = conj(s11) s12 +
    conj(s21) s22, so a_mod = |z| and the extremal phases follow from arg z.
    """
    A1 = 1.0 - abs(S.s11) ** 2 - abs(S.s21) ** 2
    A2 = 1.0 - abs(S.s22) ** 2 - abs(S.s12) ** 2
    a_avg = 0.5 * (A1 + A2)
    z = S.s11.conjugate() * S.s12 + S.s21.conjugate() * S.s22
    a_mod = abs(z)
    if a_mod < 1e-15:
        phi_min, phi_max = 0.0, math.pi
    else:
        chi = cmath.phase(z)
        phi_min = wrap_phase(-chi)
        phi_max = wrap_phase(math.pi - chi)
    return JointAbsorbanceExtrema(
        a_min=a_avg - a_mod,
        a_max=a_avg + a_mod,
        a_avg=a_avg,
        a_mod=a_mod,
        phi_min=phi_min,
        phi_max=phi_max,
    )


def delta_psi(S: SMatrix2) -> float:
    """Output-beam dephasing psi1 + psi2 - pi, wrapped to (-pi, pi].

    Equals the phase offset between the two output-intensity sinusoids
    traced while sweeping the input dephasing.
    """
    d = decompose(S)
    if min(d.rho1, d.rho2, d.tau) < _PHASE_TOL:
        raise PhaseUndefinedError(
            "rho1, rho2 and tau must all exceed 1e-9 for a defined dephasing"
        )
    return wrap_phase(d.psi1 + d.psi2 - math.pi)


def dets_from_observables(T, R1, R2, dpsi):
    """|det S| = |T - e^{i dpsi} sqrt(R1 R2)| from intensity observables;
    broadcasts over numpy arrays. T, R1 and R2 must lie in [0, 1] up to
    1e-12 of float noise, which is clamped away."""
    vals = {"T": np.asarray(T), "R1": np.asarray(R1), "R2": np.asarray(R2)}
    for name, v in vals.items():
        outside = ~((-1e-12 <= v) & (v <= 1.0 + 1e-12))  # NaN is outside too
        if outside.any():
            raise ValueError(f"{name} must lie in [0, 1], got {v[outside].flat[0]}")
    T, R1, R2 = (np.clip(v, 0.0, 1.0) for v in vals.values())
    return np.abs(T - np.exp(1j * dpsi) * np.sqrt(R1 * R2))
