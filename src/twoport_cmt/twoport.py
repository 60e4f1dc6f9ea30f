"""Model-agnostic analysis of reciprocal 2x2 scattering matrices.

Decomposition into (theta, rho1, rho2, tau, psi1, psi2), two-beam joint
absorbance and its extrema, output dephasing, and reconstruction of |det S|
from intensity observables. Each is computed from the S elements (s11, s12 =
s21, s22) of `model.s_elements`, broadcast over frequency and input phase;
the `SMatrix2` entry points are one-point calls of those array forms.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

INTENSITY_KINDS = ("R1", "R2", "T", "A1", "A2", "A_joint_max", "A_joint_min")
KINDS = INTENSITY_KINDS + ("dpsi",)
_RECIPROCITY_TOL = 1e-9
_PHASE_TOL = 1e-9
_MAG_TINY = 1e-12
_FLAT_MOD = 1e-15


class NonReciprocalError(ValueError):
    """Input matrix violates s12 = s21."""


class PhaseUndefinedError(ValueError):
    """Reflection/transmission magnitude too small for a well-defined phase."""


def wrap_phase(x):
    """Wrap angles to (-pi, pi]; broadcasts over numpy arrays."""
    return np.angle(np.exp(1j * x))


@dataclass(frozen=True)
class SMatrix2:
    """2x2 complex scattering matrix at one frequency."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s21, self.s22]], dtype=complex)

    def det(self) -> complex:
        return self.s11 * self.s22 - self.s12 * self.s21


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


def _elements(S: SMatrix2):
    """(s11, s12, s22) of a reciprocal S."""
    if abs(S.s12 - S.s21) >= _RECIPROCITY_TOL:
        raise NonReciprocalError(f"|s12 - s21| = {abs(S.s12 - S.s21):.3e} "
                                 f"exceeds {_RECIPROCITY_TOL:.0e}")
    return S.s11, S.s12, S.s22


def decompose(S: SMatrix2) -> ReciprocalDecomposition:
    s11, s12, s22 = _elements(S)
    tau, rho1, rho2 = abs(s12), abs(s11), abs(s22)
    theta = (float(wrap_phase(cmath.phase(s12) - 0.5 * math.pi))
             if tau >= _MAG_TINY else 0.0)
    psi1 = float(wrap_phase(cmath.phase(s11) - theta)) if rho1 >= _MAG_TINY else 0.0
    psi2 = float(wrap_phase(cmath.phase(s22) - theta)) if rho2 >= _MAG_TINY else 0.0
    return ReciprocalDecomposition(theta, rho1, rho2, tau, psi1, psi2)


def _port_intensities(s11, s12, s22, phi):
    """(out1, out2), the output intensities |s11 + s12 e^{i phi}|^2 and
    |s12 + s22 e^{i phi}|^2 of the equal-intensity input pair (1, e^{i phi}),
    broadcast over the S elements and phi."""
    e = np.exp(1j * phi)
    # each |.| squared in place: on a large (phi, omega) table a second
    # table per port costs freshly mapped pages, more than the arithmetic
    out1 = np.abs(s11 + s12 * e)
    out1 **= 2
    out2 = np.abs(s12 + s22 * e)
    out2 **= 2
    return out1, out2


def two_beam_outputs(s11, s12, s22, phi):
    """(a_joint, out1, out2) for the equal-intensity input pair (1, e^{i phi}),
    out_k = |s_k^-|^2 (`_port_intensities`), broadcast over the S elements
    and phi."""
    out1, out2 = _port_intensities(s11, s12, s22, phi)
    return 1.0 - 0.5 * (out1 + out2), out1, out2


def _avg_and_z(s11, s12, s22):
    """a_avg and z: the total output over the input dephasing phi is
    P0 + 2 Re(z e^{i phi}) with z = conj(s11) s12 + conj(s21) s22."""
    T = np.abs(s12) ** 2
    a_avg = 0.5 * ((1.0 - np.abs(s11) ** 2 - T) + (1.0 - np.abs(s22) ** 2 - T))
    return a_avg, np.conj(s11) * s12 + np.conj(s12) * s22


def two_beam_extrema(s11, s12, s22) -> JointAbsorbanceExtrema:
    """Closed-form extrema of the joint absorbance over the input dephasing,
    as arrays: a_mod = |z| and the extremal phases follow from arg z."""
    a_avg, z = _avg_and_z(s11, s12, s22)
    a_mod, chi = np.abs(z), np.angle(z)
    flat = a_mod < _FLAT_MOD  # no modulation: any phase is extremal
    return JointAbsorbanceExtrema(
        a_min=a_avg - a_mod, a_max=a_avg + a_mod, a_avg=a_avg, a_mod=a_mod,
        phi_min=np.where(flat, 0.0, wrap_phase(-chi)),
        phi_max=np.where(flat, math.pi, wrap_phase(math.pi - chi)))


def output_dephasing(s11, s12, s22):
    """Output-beam dephasing psi1 + psi2 - pi = arg s11 + arg s22 - 2 arg s12,
    wrapped: the phase offset between the two output-intensity sinusoids
    over the input dephasing. Meaningful only where `dephasing_defined`."""
    return wrap_phase(np.angle(s11) + np.angle(s22) - 2 * np.angle(s12))


def dephasing_defined(s11, s12, s22):
    """Where |s11|, |s22| and |s12| all reach the 1e-9 phase tolerance."""
    return np.minimum(np.minimum(np.abs(s11), np.abs(s22)), np.abs(s12)) >= _PHASE_TOL


def observable(s11, s12, s22, kind: str):
    """One observable kind from the S elements; only that kind is formed."""
    if kind not in KINDS:
        raise ValueError(f"unknown observable kind {kind!r}")
    if kind == "dpsi":
        return output_dephasing(s11, s12, s22)
    if kind in ("A_joint_max", "A_joint_min"):
        a_avg, z = _avg_and_z(s11, s12, s22)
        return a_avg + np.abs(z) if kind == "A_joint_max" else a_avg - np.abs(z)
    if kind in ("R1", "R2", "T"):
        return np.abs({"R1": s11, "R2": s22, "T": s12}[kind]) ** 2
    return 1.0 - np.abs(s11 if kind == "A1" else s22) ** 2 - np.abs(s12) ** 2


def observable_grad(s11, s12, s22, ds, kind: str):
    """Derivative of `observable` when every S entry moves by ds (the
    rank-1 increment of `model.s_elements`); ds broadcasts against the S
    elements.  |z| and dpsi have no derivative where the joint absorbance
    is flat (`two_beam_extrema`) or the dephasing is not defined
    (`dephasing_defined`); their terms are 0 there."""
    if kind not in KINDS:
        raise ValueError(f"unknown observable kind {kind!r}")
    if kind == "dpsi":
        # d arg s = Im(ds / s)
        ok = dephasing_defined(s11, s12, s22)

        def inv(s):
            return 1.0 / np.where(ok, s, 1.0)
        return np.where(ok, np.imag(ds * (inv(s11) + inv(s22) - 2 * inv(s12))),
                        0.0)

    def d_abs2(s):
        return 2 * np.real(np.conj(s) * ds)
    if kind in ("A_joint_max", "A_joint_min"):
        d_avg = -0.5 * (d_abs2(s11) + d_abs2(s22)) - d_abs2(s12)
        z = _avg_and_z(s11, s12, s22)[1]
        a_mod = np.abs(z)
        flat = a_mod < _FLAT_MOD
        dz = np.conj(ds) * (s12 + s22) + (np.conj(s11) + np.conj(s12)) * ds
        d_mod = np.where(flat, 0.0, np.real(np.conj(z) * dz)
                         / np.where(flat, 1.0, a_mod))
        return d_avg + d_mod if kind == "A_joint_max" else d_avg - d_mod
    if kind in ("R1", "R2", "T"):
        return d_abs2({"R1": s11, "R2": s22, "T": s12}[kind])
    return -d_abs2(s11 if kind == "A1" else s22) - d_abs2(s12)


def joint_absorbance(S: SMatrix2, phi: float):
    """`two_beam_outputs` of one reciprocal S: (a_joint, out1, out2)."""
    return tuple(float(v) for v in two_beam_outputs(*_elements(S), phi))


def joint_extrema(S: SMatrix2) -> JointAbsorbanceExtrema:
    """`two_beam_extrema` of one reciprocal S."""
    ext = two_beam_extrema(*_elements(S))
    return JointAbsorbanceExtrema(*(float(v) for v in vars(ext).values()))


def delta_psi(S: SMatrix2) -> float:
    """`output_dephasing` of one reciprocal S, where `dephasing_defined`."""
    s = _elements(S)
    if not dephasing_defined(*s):
        raise PhaseUndefinedError(
            "rho1, rho2 and tau must all exceed 1e-9 for a defined dephasing")
    return float(output_dephasing(*s))


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
