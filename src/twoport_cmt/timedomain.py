"""Brute-force time-domain oracle.

Integrates the coupled cavity/matter equations with a harmonic two-port
drive using classical fixed-step 4th-order Runge-Kutta, then demodulates the
tail of the trajectory to extract steady-state outputs.  Time is in 1/meV.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Background, ModelParams, poles_zeros

_SETTLING_FACTOR = 20.0  # horizon in units of the slowest decay time 1 / Im(pole)
_STEP = 0.04  # suggested step, in units of 1 / the largest frequency scale
_STEP_GUARD = 0.05  # coarsest step `integrate` accepts, in the same units
_DRIFT_TOL = 1e-6  # largest demodulated drift over the tail


class SteadyStateNotConvergedError(RuntimeError):
    """Transient not decayed within the demodulation window."""


@dataclass(frozen=True)
class DriveSpec:
    """Harmonic drive s+(t) = (amp1, amp2 e^{i phi}) e^{i omega t}."""

    omega: float
    phi: float = 0.0
    amp1: float = 1.0
    amp2: float = 1.0

    def __post_init__(self):
        if not (-math.inf < self.omega < math.inf and -math.inf < self.phi < math.inf
                and 0 <= self.amp1 < math.inf and 0 <= self.amp2 < math.inf):
            raise ValueError(f"drive needs finite values, amplitudes >= 0: {self}")


@dataclass
class Trajectory:
    times: np.ndarray
    a_t: np.ndarray
    b_t: np.ndarray


@dataclass(frozen=True)
class OracleResult:
    out1: float
    out2: float
    a_joint: float


def _frequency_scale(p: ModelParams, drive: DriveSpec) -> float:
    """Largest frequency or rate of the driven equations, in meV."""
    return max(p.omega0, abs(p.omega_m), abs(drive.omega),
               p.gamma_c, p.gamma_m, p.omega_rabi)


def suggested_time_step(p: ModelParams, drive: DriveSpec) -> float:
    return _STEP / _frequency_scale(p, drive)


def settling_time(p: ModelParams) -> float:
    """Integration horizon based on the slowest modal decay rate Im(pole)."""
    ims = [z.imag for z in poles_zeros(p).poles if z.imag > 1e-12]
    if not ims:
        raise ValueError("no positive damping rate; steady state undefined")
    return _SETTLING_FACTOR / min(ims)


def integrate(p: ModelParams, bg: Background, drive: DriveSpec,
              t_end: float, dt: float, a0: complex = 0j, b0: complex = 0j) -> Trajectory:
    """Fixed-step RK4 integration of the complex ODE pair from t = 0.

    The drive resolution guard dt <= 0.05 / max(frequency scales) is enforced;
    a fully undamped driven model triggers a non-decaying-transient warning.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    guard = _STEP_GUARD / _frequency_scale(p, drive)
    if dt > guard * (1 + 1e-9):
        raise ValueError(f"dt={dt} too coarse; need dt <= {guard:.3e}")
    if p.gamma_c == 0 and p.gamma_m == 0 and (drive.amp1 > 0 or drive.amp2 > 0):
        warnings.warn("all damping rates are zero: driven transient never decays "
                      "and the steady state is undefined", RuntimeWarning)

    n = int(math.ceil(t_end / dt - 1e-9))
    maa = 1j * p.omega0 - p.gamma_c
    mbb = 1j * p.omega_m - p.gamma_m
    mc = 1j * p.omega_rabi
    d0 = bg.coupling(p.gamma_r)
    f0 = d0 * (drive.amp1 + drive.amp2 * cmath.exp(1j * drive.phi))
    eh = cmath.exp(1j * drive.omega * dt / 2)
    ef = eh * eh

    a = complex(a0)
    b = complex(b0)
    a_arr = np.empty(n + 1, dtype=complex)
    b_arr = np.empty(n + 1, dtype=complex)
    ph = f0
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n):
        a_arr[k] = a
        b_arr[k] = b
        d1a = maa * a + mc * b + ph
        d1b = mbb * b + mc * a
        ph_h = ph * eh
        a2 = a + h2 * d1a
        b2 = b + h2 * d1b
        d2a = maa * a2 + mc * b2 + ph_h
        d2b = mbb * b2 + mc * a2
        a3 = a + h2 * d2a
        b3 = b + h2 * d2b
        d3a = maa * a3 + mc * b3 + ph_h
        d3b = mbb * b3 + mc * a3
        ph_f = ph * ef
        a4 = a + dt * d3a
        b4 = b + dt * d3b
        d4a = maa * a4 + mc * b4 + ph_f
        d4b = mbb * b4 + mc * a4
        a = a + h6 * (d1a + 2 * d2a + 2 * d3a + d4a)
        b = b + h6 * (d1b + 2 * d2b + 2 * d3b + d4b)
        ph = ph_f
    a_arr[n] = a
    b_arr[n] = b
    return Trajectory(times=dt * np.arange(n + 1), a_t=a_arr, b_t=b_arr)


def _demodulated_tail(p: ModelParams, bg: Background, drive: DriveSpec,
                      traj: Trajectory):
    """Complex steady-state outputs from the final 20% of the trajectory.

    A least-squares linear drift fit converts transient contamination into an
    explicit error instead of a bias.
    """
    n = traj.times.size
    k0 = int(0.8 * n)
    t = traj.times[k0:]
    d0 = bg.coupling(p.gamma_r)
    C = bg.matrix()
    in1 = drive.amp1
    in2 = drive.amp2 * cmath.exp(1j * drive.phi)
    demod = np.exp(-1j * drive.omega * t)
    z1 = C[0, 0] * in1 + C[0, 1] * in2 + d0 * traj.a_t[k0:] * demod
    z2 = C[1, 0] * in1 + C[1, 1] * in2 + d0 * traj.a_t[k0:] * demod
    tc = t - t.mean()
    span = t[-1] - t[0]
    results = []
    for z in (z1, z2):
        mean = z.mean()
        slope = np.dot(tc, z - mean) / np.dot(tc, tc)
        drift = abs(slope) * span
        if drift > _DRIFT_TOL:
            raise SteadyStateNotConvergedError(
                f"demodulated drift {drift:.2e} exceeds {_DRIFT_TOL:.0e}; "
                "increase t_end")
        results.append(complex(mean))
    return results[0], results[1]


def oracle_scattering(p: ModelParams, bg: Background,
                      drive: DriveSpec) -> OracleResult:
    """Steady-state port outputs and joint absorbance from the time domain,
    integrated to `settling_time` with `suggested_time_step`."""
    traj = integrate(p, bg, drive, settling_time(p), suggested_time_step(p, drive))
    s1m, s2m = _demodulated_tail(p, bg, drive, traj)
    out1 = abs(s1m) ** 2
    out2 = abs(s2m) ** 2
    total_in = drive.amp1**2 + drive.amp2**2
    return OracleResult(out1=out1, out2=out2,
                        a_joint=1.0 - (out1 + out2) / total_in)
