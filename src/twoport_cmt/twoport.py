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


def _joint(a1, a2, s11, s12, s22):
    """a_avg and z from the single-beam absorbances a1, a2: the total output
    over the input dephasing phi is P0 + 2 Re(z e^{i phi}) with
    z = conj(s11) s12 + conj(s21) s22."""
    return 0.5 * (a1 + a2), np.conj(s11) * s12 + np.conj(s12) * s22


def two_beam_extrema(s11, s12, s22) -> JointAbsorbanceExtrema:
    """Closed-form extrema of the joint absorbance over the input dephasing,
    as arrays: a_mod = |z| and the extremal phases follow from arg z."""
    a_avg, z = _joint(*observables(s11, s12, s22, ("A1", "A2"))[0],
                      s11, s12, s22)
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
    return _defined(np.abs(s11), np.abs(s12), np.abs(s22))


def _defined(m11, m12, m22):
    """`dephasing_defined` from the magnitudes |s11|, |s12|, |s22|."""
    return np.minimum(np.minimum(m11, m22), m12) >= _PHASE_TOL


def observables(s11, s12, s22, kinds, ds=None):
    """The observables of kinds from the S elements, one array per kind in
    the order of kinds, and with ds their derivatives when every S entry
    moves by ds (the rank-1 increment of `model.s_elements`; ds broadcasts
    against the S elements): (values, grads), grads None without ds.

    Each term is formed once per call, and only if a kind needs it: |s11|,
    |s12|, |s22|, their squares (R1, T, R2) and the derivatives of those,
    the single-beam absorbances, a_avg and z of the joint kinds (`_joint`),
    and dpsi's defined-mask from the same |s|.  |z| and dpsi have no
    derivative where the joint absorbance is flat (`two_beam_extrema`) or
    the dephasing is not defined (`dephasing_defined`); their terms are 0
    there."""
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown observable kind {kind!r}")
    want = set(kinds)
    joint = not want.isdisjoint(("A_joint_max", "A_joint_min"))
    # whether |s11|^2 (R1), |s22|^2 (R2) and |s12|^2 (T) enter the kinds
    need = {"R1": joint or not want.isdisjoint(("R1", "A1")),
            "R2": joint or not want.isdisjoint(("R2", "A2")),
            "T": joint or not want.isdisjoint(("T", "A1", "A2"))}
    s = {"R1": s11, "R2": s22, "T": s12}
    mask = ds is not None and "dpsi" in want
    mag = {k: np.abs(s[k]) for k in s if need[k] or mask}
    val = {k: mag[k] ** 2 for k in s if need[k]}
    for a, r in (("A1", "R1"), ("A2", "R2")):
        if joint or a in want:
            val[a] = 1.0 - val[r] - val["T"]
    if joint:
        a_avg, z = _joint(val["A1"], val["A2"], s11, s12, s22)
        a_mod = np.abs(z)
        val["A_joint_max"], val["A_joint_min"] = a_avg + a_mod, a_avg - a_mod
    if "dpsi" in want:
        val["dpsi"] = output_dephasing(s11, s12, s22)
    values = [val[k] for k in kinds]
    if ds is None:
        return values, None

    c = {k: np.conj(s[k]) for k in s if need[k]}
    der = {k: 2 * np.real(c[k] * ds) for k in s if need[k]}  # d|s|^2
    for a, r in (("A1", "R1"), ("A2", "R2")):
        if a in want:
            der[a] = -der[r] - der["T"]
    if joint:
        d_avg = -0.5 * (der["R1"] + der["R2"]) - der["T"]
        flat = a_mod < _FLAT_MOD
        dz = np.conj(ds) * (s12 + s22) + (c["R1"] + c["T"]) * ds
        d_mod = np.where(flat, 0.0, np.real(np.conj(z) * dz)
                         / np.where(flat, 1.0, a_mod))
        der["A_joint_max"], der["A_joint_min"] = d_avg + d_mod, d_avg - d_mod
    if "dpsi" in want:
        # d arg s = Im(ds / s)
        ok = _defined(mag["R1"], mag["T"], mag["R2"])

        def inv(x):
            return 1.0 / np.where(ok, x, 1.0)
        der["dpsi"] = np.where(
            ok, np.imag(ds * (inv(s11) + inv(s22) - 2 * inv(s12))), 0.0)
    return values, [der[k] for k in kinds]


def observable(s11, s12, s22, kind: str):
    """One observable kind from the S elements: `observables` of that kind."""
    return observables(s11, s12, s22, (kind,))[0][0]


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
