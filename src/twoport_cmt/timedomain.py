"""Brute-force time-domain oracle.

Integrates the coupled cavity/matter equations with a harmonic two-port
drive using classical fixed-step 4th-order Runge-Kutta, propagated as the
linear map the stage formulas define, in blocks of that map's own powers,
then demodulates the tail of the trajectory to extract steady-state outputs.
Time is in 1/meV.
"""
from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Background, ModelParams, _rate_scale, poles_zeros

_SETTLING_FACTOR = 20.0  # horizon in units of the slowest decay time 1 / Im(pole)
_STEP = 0.04  # suggested step, in units of 1 / the largest frequency scale
_STEP_GUARD = 0.05  # coarsest step `integrate` accepts, in the same units
_DRIFT_TOL = 1e-6  # largest demodulated drift over the tail, per unit rms drive
_EXTENSION = 0.25  # oracle horizon added per chunk while the tail drifts, x settling_time
_MAX_EXTENSIONS = 4  # chunks before the oracle gives up: at most 2x settling_time
_MAX_STEPS = 10_000_000  # per integrate call or oracle drive: > 30x criterion 7's most

_log = logging.getLogger(__name__)


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
                and 0 <= self.amp1 < math.inf and 0 <= self.amp2 < math.inf
                # the input power, which a_joint is a fraction of
                and self.amp1 * self.amp1 + self.amp2 * self.amp2 > 0):
            raise ValueError("drive needs finite values, amplitudes >= 0 and "
                             f"a nonzero input power: {self}")

    @property
    def rms_amplitude(self) -> float:
        """sqrt((amp1^2 + amp2^2) / 2), the scale of every output."""
        return math.hypot(self.amp1, self.amp2) / math.sqrt(2)


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
    """Integration horizon based on the slowest modal decay rate Im(pole).
    A pole is damped where Im(pole) exceeds 1e-12 of `_rate_scale`: the
    poles' imaginary parts are formed from the rates and delta_m alone
    (omega0 only shifts their real parts), so the test holds for a model
    with every rate scaled alike."""
    ims = [z.imag for z in poles_zeros(p).poles if z.imag > 1e-12 * _rate_scale(p)]
    if not ims:
        raise ValueError("no positive damping rate; steady state undefined")
    return _SETTLING_FACTOR / min(ims)


def integrate(p: ModelParams, bg: Background, drive: DriveSpec,
              t_end: float, dt: float, a0: complex = 0j, b0: complex = 0j) -> Trajectory:
    """Fixed-step RK4 integration of the complex ODE pair from t = 0.

    The drive resolution guard dt <= 0.05 / max(frequency scales) is enforced,
    and so is the oracle's step budget: t_end / dt <= `_MAX_STEPS`;
    a fully undamped driven model triggers a non-decaying-transient warning.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    # before any step count or array is formed: t_end / dt may overflow to inf
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.3g} steps, more than the "
                         f"budget of {_MAX_STEPS:.0e}")
    guard = _STEP_GUARD / _frequency_scale(p, drive)
    if dt > guard * (1 + 1e-9):
        raise ValueError(f"dt={dt} too coarse; need dt <= {guard:.3e}")
    if p.gamma_c == 0 and p.gamma_m == 0:
        warnings.warn("all damping rates are zero: driven transient never decays "
                      "and the steady state is undefined", RuntimeWarning)

    n = _step_count(t_end, dt)
    times = dt * np.arange(n + 1)  # first: a run too long for memory fails here
    start = (complex(a0), complex(b0), _drive_phasor(p, bg, drive))
    a_t, b_t, _ = _iterate(p, drive, dt, start, n, 0)
    return Trajectory(times=times, a_t=a_t, b_t=b_t)


def _step_count(t_end: float, dt: float) -> int:
    return int(math.ceil(t_end / dt - 1e-9))


def _drive_phasor(p: ModelParams, bg: Background, drive: DriveSpec) -> complex:
    """Cavity drive d0 (amp1 + amp2 e^{i phi}) e^{i omega t} at t = 0."""
    return bg.coupling(p.gamma_r) * (drive.amp1 + drive.amp2 * cmath.exp(1j * drive.phi))


def _iterate(p: ModelParams, drive: DriveSpec, dt: float, state: tuple,
             n: int, keep: int, b_states: bool = True):
    """n RK4 steps from state = (a, b, drive phasor); returns the states
    k = keep..n as arrays of a and of b (None without b_states), and the
    final state.

    The ODE is linear, so one step is the 3x3 map T of (a, b, ph):
    (a, b) <- M (a, b) + v ph, then ph <- ph e^{i omega dt}. M and v are read
    off the stage formulas, which stay the one definition of the step, at the
    unit inputs. With blk and sup from `_blocks`, the powers T^0..T^blk are
    formed in one pass over the seven entries of T^j that can be nonzero, as
    T^(j + 1) = T T^j without the products with the two exact zeros of T^j's
    last row, into one flat table, and U = (T^blk)^sup by repeated
    multiplication by T^blk. Block m = s sup + r starts at
    x_{m blk} = (T^blk)^r U^s x_0: the super-block starts follow by repeated
    multiplication by U, so no block before the super-block of keep is
    formed, and the other block starts by r steps of T^blk. Every stored
    state is x_{m blk + j} = T^j x_{m blk}, in one array product: about
    blk + 0.2 n / blk + 2 sqrt(0.8 n / blk) Python-level steps at the
    oracle's keep = 0.8 n, not n. Without b_states that product forms a for
    the stored blocks and b for the last block only, which holds x_n, so the
    values are those of the run with b_states. Each state is still T applied
    k times to the start state, grouped differently, so it differs from
    one-step-at-a-time iteration in rounding only. No eigendecomposition,
    matrix exponential or steady-state formula enters, and no BLAS call, so
    the states do not depend on the BLAS build.
    """
    maa = 1j * p.omega0 - p.gamma_c
    mbb = 1j * p.omega_m - p.gamma_m
    mc = 1j * p.omega_rabi
    eh = cmath.exp(1j * drive.omega * dt / 2)
    ef = eh * eh
    h2 = 0.5 * dt
    h6 = dt / 6.0

    def step(a, b, ph):
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
        return (a + h6 * (d1a + 2 * d2a + 2 * d3a + d4a),
                b + h6 * (d1b + 2 * d2b + 2 * d3b + d4b))

    (m_aa, m_ba), (m_ab, m_bb), (v_a, v_b) = step(1, 0, 0), step(0, 1, 0), step(0, 0, 1)
    blk, sup = _blocks(n)
    # T^j has the rows (p0 p1 p2), (p3 p4 p5), (0 0 p6); T^(j+1) = T T^j;
    # pows holds the seven entries of T^0, T^1, ... one after another
    p0, p1, p2, p3, p4, p5, p6 = 1 + 0j, 0j, 0j, 0j, 1 + 0j, 0j, 1 + 0j
    pows = [p0, p1, p2, p3, p4, p5, p6]
    for _ in range(blk):
        p0, p1, p2, p3, p4, p5, p6 = entries = (
            m_aa * p0 + m_ab * p3, m_aa * p1 + m_ab * p4,
            m_aa * p2 + m_ab * p5 + v_a * p6,
            m_ba * p0 + m_bb * p3, m_ba * p1 + m_bb * p4,
            m_ba * p2 + m_bb * p5 + v_b * p6, ef * p6)
        pows += entries
    # U = (T^blk)^sup as U_(i+1) = T^blk U_i, T^blk being the last power formed
    u0, u1, u2, u3, u4, u5, u6 = p0, p1, p2, p3, p4, p5, p6
    for _ in range(sup - 1):
        u0, u1, u2, u3, u4, u5, u6 = (
            p0 * u0 + p1 * u3, p0 * u1 + p1 * u4, p0 * u2 + p1 * u5 + p2 * u6,
            p3 * u0 + p4 * u3, p3 * u1 + p4 * u4, p3 * u2 + p4 * u5 + p5 * u6,
            p6 * u6)
    # block m = s sup + r starts at x_(m blk) = (T^blk)^r U^s x_0
    first, last = keep // blk, n // blk
    a, b, ph = state
    for _ in range(first // sup):
        a, b, ph = u0 * a + u1 * b + u2 * ph, u3 * a + u4 * b + u5 * ph, u6 * ph
    starts = []
    for s in range(first // sup, last // sup + 1):
        if starts:
            a, b, ph = u0 * a + u1 * b + u2 * ph, u3 * a + u4 * b + u5 * ph, u6 * ph
        xa, xb, xp = a, b, ph
        starts.append((xa, xb, xp))
        for _ in range(min(sup, last + 1 - s * sup) - 1):
            xa, xb, xp = (p0 * xa + p1 * xb + p2 * xp, p3 * xa + p4 * xb + p5 * xp,
                          p6 * xp)
            starts.append((xa, xb, xp))
    del starts[:first % sup]
    # x_{m blk + j} = T^j x_{m blk} for the blocks m that meet keep..n; the
    # grid starts at the call's first step, so the states do not depend on keep
    # pw[e] = entry e of T^0..T^(blk-1)
    pw = np.fromiter(pows, complex, 7 * blk).reshape(blk, 7).T
    xs = np.array(starts, dtype=complex)[:, :, None]
    lo, hi = keep - first * blk, n + 1 - first * blk

    def row(r, x):  # component r // 3 of the states of the blocks x
        return (pw[r] * x[:, 0] + pw[r + 1] * x[:, 1] + pw[r + 2] * x[:, 2]).ravel()

    a_t = row(0, xs)[lo:hi]
    # without b_states, b is formed for the last block only, by the same
    # array product, so the end state does not depend on b_states either
    b_t = row(3, xs if b_states else xs[-1:])
    ph = pows[7 * (n % blk) + 6] * starts[-1][2]  # the phasor of x_n
    end = (complex(a_t[-1]), complex(b_t[n % blk - blk]), ph)
    return a_t, (b_t[lo:hi] if b_states else None), end


def _blocks(n: int) -> tuple[int, int]:
    """Block length blk and blocks per super-block sup of an n-step
    `_iterate` run: functions of n alone, so that the states a run stores
    do not depend on how many it stores. blk = isqrt(n // 2) + 1 keeps the
    table of powers at about sqrt(n / 2) entries, and sup = isqrt(n // blk)
    balances forming U = (T^blk)^sup against stepping by it."""
    blk = math.isqrt(n // 2) + 1
    return blk, max(1, math.isqrt(n // blk))


def _tail_start(n_states: int) -> int:
    """Index of the first state of the demodulation window, the final 20%."""
    return int(0.8 * n_states)


def _demodulate(p: ModelParams, bg: Background, drive: DriveSpec,
                k: int, dt: float, a_t: np.ndarray):
    """Mean complex port outputs over the window a_t of the states at steps
    k, k + 1, ... (times dt x step), and their drift: |least-squares slope|
    x span.

    Output j is the direct term (C s+)_j plus d0 w with w = a e^{-i omega t}.
    The two differ by a constant, so they share the mean of w and one drift,
    |d0| x that of w. The linear drift fit converts transient contamination
    into an explicit error instead of a bias; it is made against the step
    index, so the span is the window's steps and dt drops out. The times
    are an arithmetic progression, so with B = isqrt(size) + 1 the phases
    e^{-i omega dt (k + m B + j)}, j < B, are the products of the phases at
    the steps k + m B and of e^{-i omega dt j}: about 2 sqrt(size)
    exponentials, their arguments formed as omega x dt x step count.
    """
    d0 = bg.coupling(p.gamma_r)
    direct = bg.matrix() @ [drive.amp1, drive.amp2 * cmath.exp(1j * drive.phi)]
    size = a_t.size
    blk = math.isqrt(size) + 1
    spaced = np.exp(-1j * drive.omega * (dt * np.arange(k, k + size, blk)))
    within = np.exp(-1j * drive.omega * (dt * np.arange(blk)))
    w = a_t * (spaced[:, None] * within).ravel()[:size]
    total = w.sum()
    # slope per step sum_j (j - jc) w_j / sum_j (j - jc)^2, jc the mean index:
    # the j - jc sum to 0, so w need not be centred, and their squares to
    # size (size^2 - 1) / 12
    jc = (size - 1) / 2
    slope = (np.dot(np.arange(size), w) - jc * total) / (size * (size * size - 1) / 12)
    drift = abs(d0) * abs(slope) * (size - 1)
    return [complex(z + d0 * total / size) for z in direct], drift


def _demodulated_tail(p: ModelParams, bg: Background, drive: DriveSpec,
                      traj: Trajectory):
    """Complex steady-state outputs from the final 20% of the trajectory; a
    window of fewer than 2 states has no drift to check and is refused as
    not converged."""
    k0 = _tail_start(traj.times.size)
    if traj.times.size - k0 < 2:
        raise SteadyStateNotConvergedError(
            f"the demodulation window holds {traj.times.size - k0} state, "
            "and a drift needs 2; increase t_end")
    # times[k] = dt k, so times[1] is the step
    dt = traj.times[1]
    (s1m, s2m), drift = _demodulate(p, bg, drive, k0, dt, traj.a_t[k0:])
    drift /= drive.rms_amplitude
    if drift > _DRIFT_TOL:
        raise SteadyStateNotConvergedError(
            f"demodulated drift {drift:.2e} exceeds {_DRIFT_TOL:.0e}; "
            "increase t_end")
    return s1m, s2m


def oracle_scattering(p: ModelParams, bg: Background,
                      drive: DriveSpec) -> OracleResult:
    """Steady-state port outputs and joint absorbance from the time domain.

    Steps with `suggested_time_step` from rest to `settling_time` and
    demodulates the final 20% of the states of a, the only ones stored
    besides the final state (a, b, drive phasor) that stepping goes on from;
    the drive phases of the window are products of two sets of about
    sqrt(window) exponentials (see `_demodulate`). Near an
    exceptional point the transient decays like t e^{-gamma t} and can
    outlast that horizon: while the window drifts by more than `_DRIFT_TOL`
    x the drive's `rms_amplitude`, stepping continues from the last state in
    chunks of `_EXTENSION` x the horizon, and the window stays the final 20%.
    After `_MAX_EXTENSIONS` chunks `SteadyStateNotConvergedError` is raised;
    it is raised before any step when the horizon and all the chunks would
    take more than `_MAX_STEPS` steps.
    """
    dt = suggested_time_step(p, drive)
    amp = drive.rms_amplitude
    n = _step_count(settling_time(p), dt)
    chunk = math.ceil(_EXTENSION * n)
    if n + _MAX_EXTENSIONS * chunk > _MAX_STEPS:
        raise SteadyStateNotConvergedError(
            f"the horizon and its extensions take {n + _MAX_EXTENSIONS * chunk:.3g} "
            f"steps, more than the budget of {_MAX_STEPS:.0e}")
    k0 = _tail_start(n + 1)
    grid = _blocks(n)
    a_t, _, state = _iterate(p, drive, dt, (0j, 0j, _drive_phasor(p, bg, drive)),
                             n, k0, b_states=False)
    extensions = 0
    while True:
        k = _tail_start(n + 1)
        (s1m, s2m), drift = _demodulate(p, bg, drive, k, dt, a_t[k - k0:])
        drift /= amp
        if drift <= _DRIFT_TOL or extensions == _MAX_EXTENSIONS:
            break
        a_more, _, state = _iterate(p, drive, dt, state, chunk, 1, b_states=False)
        a_t = np.concatenate((a_t, a_more))
        n += chunk
        extensions += 1
    _log.debug("oracle omega=%.9g phi=%.6g: dt=%.6g t_end=%.6g steps=%d "
               "block=%d super=%d extensions=%d drift=%.3g (tol %.0e)",
               drive.omega, drive.phi, dt, n * dt, n, *grid, extensions, drift,
               _DRIFT_TOL)
    if drift > _DRIFT_TOL:
        raise SteadyStateNotConvergedError(
            f"demodulated drift {drift:.2e} exceeds {_DRIFT_TOL:.0e} after "
            f"{extensions} horizon extensions")
    # x * x, not x ** 2, which raises OverflowError where this gives inf;
    # a_joint is formed from the outputs per unit rms drive amplitude, so it
    # does not overflow or underflow with the drive
    z1, z2, n1, n2 = abs(s1m), abs(s2m), abs(s1m / amp), abs(s2m / amp)
    return OracleResult(out1=z1 * z1, out2=z2 * z2,
                        a_joint=1.0 - (n1 * n1 + n2 * n2) / 2)
