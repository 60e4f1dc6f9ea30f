"""Time-domain integrator against the frequency-domain closed forms."""
import cmath
import logging
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from twoport_cmt import (
    Background,
    DriveSpec,
    ModelParams,
    SteadyStateNotConvergedError,
    integrate,
    joint_absorbance,
    oracle_scattering,
    scattering_matrix,
)
from twoport_cmt import timedomain
from twoport_cmt.timedomain import _demodulated_tail, settling_time, suggested_time_step
from conftest import random_passive_params

# at the exceptional point: the step map's 2x2 block is defective, and the
# transient decays like t e^{-gamma t}
EP_MODEL = ModelParams(130.16644050918734, 5.780390043643968, 5.197049892380149,
                       0.7789030528133366, 5.09926844160539)


def _stage_rk4(p, bg, drive, t_end, dt, a0, b0):
    """Reference: classical RK4 evaluated stage by stage at every step."""
    n = int(math.ceil(t_end / dt - 1e-9))
    maa = 1j * p.omega0 - p.gamma_c
    mbb = 1j * p.omega_m - p.gamma_m
    mc = 1j * p.omega_rabi
    eh = cmath.exp(1j * drive.omega * dt / 2)
    ef = eh * eh
    ph = bg.coupling(p.gamma_r) * (drive.amp1 + drive.amp2 * cmath.exp(1j * drive.phi))
    a, b = complex(a0), complex(b0)
    a_arr = np.empty(n + 1, dtype=complex)
    b_arr = np.empty(n + 1, dtype=complex)
    h2, h6 = 0.5 * dt, dt / 6.0
    for k in range(n):
        a_arr[k], b_arr[k] = a, b
        d1a = maa * a + mc * b + ph
        d1b = mbb * b + mc * a
        ph_h = ph * eh
        a2, b2 = a + h2 * d1a, b + h2 * d1b
        d2a = maa * a2 + mc * b2 + ph_h
        d2b = mbb * b2 + mc * a2
        a3, b3 = a + h2 * d2a, b + h2 * d2b
        d3a = maa * a3 + mc * b3 + ph_h
        d3b = mbb * b3 + mc * a3
        ph_f = ph * ef
        a4, b4 = a + dt * d3a, b + dt * d3b
        d4a = maa * a4 + mc * b4 + ph_f
        d4b = mbb * b4 + mc * a4
        a = a + h6 * (d1a + 2 * d2a + 2 * d3a + d4a)
        b = b + h6 * (d1b + 2 * d2b + 2 * d3b + d4b)
        ph = ph_f
    a_arr[n], b_arr[n] = a, b
    return a_arr, b_arr


def _oracle_log(caplog) -> dict:
    """Fields of the one oracle diagnostic line recorded by caplog."""
    (rec,) = [r for r in caplog.records if r.name == "twoport_cmt.timedomain"]
    return dict(re.findall(r"(\w+)=(\S+)", rec.getMessage()))


class TestSetupHelpers:
    def test_suggested_step_resolves_fastest_scale(self, headline_params):
        d = DriveSpec(omega=130.0)
        dt = suggested_time_step(headline_params, d)
        assert dt == pytest.approx(0.04 / 130.0)

    @pytest.mark.parametrize("p, omega, scale", [
        (ModelParams(100.0, 1.0, 0.5, 2.0, 3.0, delta_m=-10.0), 50.0, 100.0),  # omega0
        (ModelParams(10.0, 1.0, 0.5, 2.0, 3.0, delta_m=-200.0), 50.0, 190.0),  # |omega_m|
        (ModelParams(100.0, 1.0, 0.5, 2.0, 3.0), -300.0, 300.0),  # |drive omega|
        (ModelParams(100.0, 150.0, 50.0, 2.0, 3.0), 100.0, 200.0),  # gamma_c
        (ModelParams(100.0, 1.0, 0.5, 250.0, 3.0), 100.0, 250.0),  # gamma_m
        (ModelParams(100.0, 1.0, 0.5, 2.0, 400.0), 100.0, 400.0),  # omega_rabi
    ])
    def test_step_and_guard_share_scale(self, p, omega, scale, default_bg):
        # suggested step 0.04 / scale, guard 0.05 / scale = 1.25 x the step
        drive = DriveSpec(omega=omega)
        dt = suggested_time_step(p, drive)
        assert dt == pytest.approx(0.04 / scale, rel=1e-15)
        traj = integrate(p, default_bg, drive, 4 * dt, 1.25 * dt)
        assert traj.a_t.size == traj.b_t.size == traj.times.size
        with pytest.raises(ValueError, match="too coarse"):
            integrate(p, default_bg, drive, 4 * dt, 1.3 * dt)

    def test_settling_time_uses_slowest_pole(self, headline_params):
        # headline poles both decay at Im = (gamma_c + gamma_m) / 2 = 4
        assert settling_time(headline_params) == pytest.approx(20.0 / 4.0)
        # overdamped splitting: horizon follows the slower of the two rates
        p = ModelParams(124.5, 3.0, 0.0, 20.0, 8.0)
        slow = (23.0 - math.sqrt(23.0**2 - 4 * (60.0 + 64.0))) / 2.0
        assert settling_time(p) == pytest.approx(20.0 / slow)

    def test_settling_time_undamped_raises(self):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        with pytest.raises(ValueError):
            settling_time(p)


class TestDriveSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(omega=math.nan), dict(omega=math.inf), dict(phi=math.nan),
        dict(amp1=math.nan), dict(amp2=math.inf), dict(amp1=-1.0),
        dict(amp1=0.0, amp2=0.0), dict(amp1=1e-200, amp2=0.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DriveSpec(**{"omega": 120.0, **kwargs})

    def test_one_port_drive_accepted(self, headline_params, default_bg):
        # a_joint divides by amp1^2 + amp2^2, which one port alone keeps > 0
        res = oracle_scattering(headline_params, default_bg,
                                DriveSpec(omega=120.0, amp1=0.0, amp2=1.0))
        assert 0.0 <= res.a_joint <= 1.0


class TestIntegrate:
    def test_free_decay_matches_modal_solution(self, default_bg):
        # the equations are linear, so the run from (a0, b0) less the run
        # from rest is the undriven solution; compare against expm of the 2x2
        from scipy.linalg import expm
        p = ModelParams(100.0, 2.0, 1.0, 4.0, 6.0)
        drive = DriveSpec(omega=100.0)
        t_end = 1.0
        dt = suggested_time_step(p, drive)
        traj = integrate(p, default_bg, drive, t_end, dt / 5,
                         a0=1.0 + 0j, b0=0.3j)
        forced = integrate(p, default_bg, drive, t_end, dt / 5)
        m = np.array([[1j * p.omega0 - p.gamma_c, 1j * p.omega_rabi],
                      [1j * p.omega_rabi, 1j * p.omega_m - p.gamma_m]])
        v0 = np.array([1.0 + 0j, 0.3j])
        for idx in (len(traj.times) // 2, len(traj.times) - 1):
            vt = expm(m * traj.times[idx]) @ v0
            assert abs(traj.a_t[idx] - forced.a_t[idx] - vt[0]) < 1e-9
            assert abs(traj.b_t[idx] - forced.b_t[idx] - vt[1]) < 1e-9

    @pytest.mark.parametrize("p", [
        ModelParams(124.5, 3.0, 1.0, 5.0, 0.0),  # Omega = 0: decoupled matter
        ModelParams(124.5, 3.0, 1.0, 5.0, 8.0, delta_m=-6.5),
    ])
    def test_step_map_equals_stage_formulas(self, p):
        # the iterated map is the RK4 step, up to rounding
        bg = Background(0.8, 0.4)
        drive = DriveSpec(omega=121.0, phi=0.9, amp1=1.0, amp2=0.3)
        dt = suggested_time_step(p, drive)
        traj = integrate(p, bg, drive, 2000 * dt, dt, a0=0.4 - 0.2j, b0=-0.1 + 0.3j)
        ref_a, ref_b = _stage_rk4(p, bg, drive, 2000 * dt, dt, 0.4 - 0.2j, -0.1 + 0.3j)
        assert traj.a_t.size == 2001
        for got, ref in ((traj.a_t, ref_a), (traj.b_t, ref_b)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("p", [
        EP_MODEL,
        ModelParams(124.5, 3.0, 1.0, 5.0, 8.0, delta_m=-6.5),
        ModelParams(124.5, 0.05, 0.0, 0.0, 0.0),  # undamped matter line
    ])
    def test_long_horizon_equals_stage_formulas(self, p):
        # blocks of the map's powers over 100,000 steps stay within rounding
        # of stepping stage by stage; stepwise iteration of the map itself
        # is 3.2e-12 away on these models
        bg = Background(0.8, 0.4)
        drive = DriveSpec(omega=121.0, phi=0.9, amp1=1.0, amp2=0.3)
        dt = suggested_time_step(p, drive)
        n = 100_000
        traj = integrate(p, bg, drive, n * dt, dt, a0=0.4 - 0.2j, b0=-0.1 + 0.3j)
        ref_a, ref_b = _stage_rk4(p, bg, drive, n * dt, dt, 0.4 - 0.2j, -0.1 + 0.3j)
        assert traj.a_t.size == n + 1
        for got, ref in ((traj.a_t, ref_a), (traj.b_t, ref_b)):
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_step_guard(self, headline_params, default_bg):
        drive = DriveSpec(omega=124.5)
        with pytest.raises(ValueError):
            integrate(headline_params, default_bg, drive, 1.0, 0.01)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("arg", ["t_end", "dt"])
    def test_rejects_nonpositive_or_nonfinite(self, headline_params, default_bg,
                                              arg, bad):
        drive = DriveSpec(omega=124.5)
        kwargs = {"t_end": 1.0, "dt": suggested_time_step(headline_params, drive)}
        kwargs[arg] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            integrate(headline_params, default_bg, drive, **kwargs)

    # t_end / dt overflows to inf, exceeds numpy's largest array, or is
    # finite and far past the budget: refused before any array is formed
    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-320), (1.0, 1e-200),
                                           (1e300, 1e-3)])
    def test_rejects_past_step_budget(self, t_end, dt):
        with pytest.raises(ValueError, match="budget"):
            integrate(ModelParams(124.5, 3, 1, 5, 8), Background(),
                      DriveSpec(omega=124.5), t_end, dt)

    def test_undamped_drive_warns(self, default_bg):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        drive = DriveSpec(omega=100.0)
        with pytest.warns(RuntimeWarning):
            integrate(p, default_bg, drive, 0.1,
                      suggested_time_step(p, drive))

    def test_energy_conservation_outputs(self, default_bg):
        # lossless cavity: steady outputs return all the input power
        p = ModelParams(124.5, 3.0, 0.0, 0.0, 0.0)
        drive = DriveSpec(omega=124.0)
        res = oracle_scattering(p, default_bg, drive)
        assert res.a_joint == pytest.approx(0.0, abs=1e-6)

    def test_convergence_order_is_four(self, headline_params, default_bg):
        # demodulated error must shrink 16x per step halving
        drive = DriveSpec(omega=120.0, phi=0.7)
        # long horizon keeps transient residue below the finest-step error
        t_end = 20.0
        dt0 = suggested_time_step(headline_params, drive)
        vals = []
        for dt in (dt0, dt0 / 2, dt0 / 4):
            traj = integrate(headline_params, default_bg, drive, t_end, dt)
            z1, _ = _demodulated_tail(headline_params, default_bg, drive, traj)
            vals.append(z1)
        S = scattering_matrix(headline_params, default_bg, 120.0)
        exact = S.s11 + S.s12 * np.exp(1j * 0.7)
        e0, e1, e2 = (abs(v - exact) for v in vals)
        assert e0 / e1 == pytest.approx(16.0, rel=0.05)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)


class TestIterate:
    P = ModelParams(124.5, 3.0, 1.0, 5.0, 8.0, delta_m=-6.5)
    DRIVE = DriveSpec(omega=121.0, phi=0.9)
    START = (0.4 - 0.2j, -0.1 + 0.3j, 0.7 + 0.2j)

    # n = 1600 steps go in blocks of isqrt(1600) + 1 = 41: 1234 is inside
    # block 30, 1230 starts it
    @pytest.mark.parametrize("keep", [1234, 1230, 1600])
    def test_keep_is_tail(self, keep):
        dt = suggested_time_step(self.P, self.DRIVE)
        a, b, end = timedomain._iterate(self.P, self.DRIVE, dt, self.START, 1600, 0)
        a_k, b_k, end_k = timedomain._iterate(self.P, self.DRIVE, dt, self.START,
                                              1600, keep)
        assert np.array_equal(a_k, a[keep:]) and np.array_equal(b_k, b[keep:])
        assert end_k == end

    # blk = isqrt(n) + 1, so the last state x_n is the last of its block for
    # n = k^2 - 1, the second or third for k^2 and k^2 + 1, and the first for 2
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 15, 16, 17, 99, 100, 101])
    def test_block_edges(self, n):
        bg = Background(0.8, 0.4)
        dt = suggested_time_step(self.P, self.DRIVE)
        start = (0.4 - 0.2j, -0.1 + 0.3j, timedomain._drive_phasor(self.P, bg, self.DRIVE))
        ref_a, ref_b = _stage_rk4(self.P, bg, self.DRIVE, n * dt, dt, *start[:2])
        a, b, end = timedomain._iterate(self.P, self.DRIVE, dt, start, n, 0)
        for got, ref in ((a, ref_a), (b, ref_b)):
            assert got.size == n + 1
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for keep in (0, 1, n // 2, n):
            a_k, b_k, end_k = timedomain._iterate(self.P, self.DRIVE, dt, start, n, keep)
            assert np.array_equal(a_k, a[keep:]) and np.array_equal(b_k, b[keep:])
            assert end_k == end

    def test_continuation(self):
        # the oracle extends its horizon by stepping on from the final state,
        # with blocks anchored at that state: the same trajectory up to
        # rounding, the drive phasor included
        dt = suggested_time_step(self.P, self.DRIVE)
        n, chunk = 15_000, 3_750
        a, b, end = timedomain._iterate(self.P, self.DRIVE, dt, self.START,
                                        n + 2 * chunk, 0)
        parts = [timedomain._iterate(self.P, self.DRIVE, dt, self.START, n, 0)]
        for _ in range(2):
            parts.append(timedomain._iterate(self.P, self.DRIVE, dt, parts[-1][2],
                                             chunk, 1))
        for k, ref in enumerate((a, b)):
            got = np.concatenate([part[k] for part in parts])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for got, ref in zip(parts[-1][2], end):
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_a_only_run(self):
        # without b_states only a is stored, and the end state, b included,
        # is bit for bit that of the run storing both
        rng = np.random.default_rng(2303)
        for i in range(320):
            p = random_passive_params(rng)
            if i % 4 == 0:
                p = replace(p, delta_m=float(rng.uniform(-20.0, 20.0)))
            drive = DriveSpec(omega=p.omega0 + float(rng.uniform(-10.0, 10.0)))
            dt = suggested_time_step(p, drive)
            # blk = isqrt(n) + 1 = B: x_n last, first or second of its block
            root = int(rng.integers(2, 60))
            n = (1, 2, 3, root * root - 1, root * root, root * root + 1,
                 int(rng.integers(1, 5000)))[i % 7]
            keep = (0, n, int(rng.integers(0, n + 1)))[i % 3]
            start = tuple(complex(*rng.normal(size=2)) for _ in range(3))
            a, b_t, end = timedomain._iterate(p, drive, dt, start, n, keep)
            a_only, none, end_a = timedomain._iterate(p, drive, dt, start, n, keep,
                                                      b_states=False)
            assert none is None and b_t.size == n + 1 - keep
            assert end[:2] == (a[-1], b_t[-1])
            assert np.array_equal(a_only, a) and end_a == end

    @pytest.mark.parametrize("n", [1, 1600, 15_000])
    def test_integrate_is_the_b_run(self, n):
        # integrate keeps the states of a and b from the start, as stored by
        # the run with b_states; the oracle's a-only run has the same a
        dt = suggested_time_step(self.P, self.DRIVE)
        bg = Background(0.8, 0.4)
        traj = integrate(self.P, bg, self.DRIVE, n * dt, dt, *self.START[:2])
        start = (*self.START[:2], timedomain._drive_phasor(self.P, bg, self.DRIVE))
        a, b, _ = timedomain._iterate(self.P, self.DRIVE, dt, start, n, 0)
        a_only, _, _ = timedomain._iterate(self.P, self.DRIVE, dt, start, n, 0,
                                           b_states=False)
        assert np.array_equal(traj.times, dt * np.arange(n + 1))
        assert np.array_equal(traj.a_t, a) and np.array_equal(traj.b_t, b)
        assert np.array_equal(a_only, a)


class TestDemodulation:
    def test_transient_contamination_raises(self, headline_params, default_bg):
        drive = DriveSpec(omega=124.5)
        dt = suggested_time_step(headline_params, drive)
        traj = integrate(headline_params, default_bg, drive, 2.0, dt)
        with pytest.raises(SteadyStateNotConvergedError):
            _demodulated_tail(headline_params, default_bg, drive, traj)

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_one_state_window_refused(self, default_bg, steps):
        # a run of 4 steps or fewer leaves one state in the final 20%: no
        # drift can be fitted, so it is not taken as settled
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        drive = DriveSpec(omega=120.0)
        dt = suggested_time_step(p, drive)
        traj = integrate(p, default_bg, drive, steps * dt, dt)
        assert traj.times.size == steps + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SteadyStateNotConvergedError, match="holds 1 state"):
                _demodulated_tail(p, default_bg, drive, traj)

    def test_two_state_window_demodulated(self, default_bg):
        # 5 steps leave the final 2 states, the fewest with a drift
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        drive = DriveSpec(omega=120.0)
        dt = suggested_time_step(p, drive)
        traj = integrate(p, default_bg, drive, 5 * dt, dt)
        with pytest.raises(SteadyStateNotConvergedError, match="exceeds"):
            _demodulated_tail(p, default_bg, drive, traj)

    def test_known_window(self, headline_params):
        # a(t) = e^{i omega t} (c + s t): the window mean of the demodulated
        # signal is c + s mean(t), its drift |d0| |s| span
        bg = Background(r_b=0.7, theta_b=0.4)
        drive = DriveSpec(omega=120.0, phi=0.7, amp1=1.0, amp2=0.6)
        c, s = 0.3 - 0.2j, 1e-3 + 2e-3j
        k, dt = 1000, 0.01
        t = dt * np.arange(k, k + 1001)
        a_t = np.exp(1j * drive.omega * t) * (c + s * t)
        outputs, drift = timedomain._demodulate(headline_params, bg, drive, k, dt, a_t)
        d0 = bg.coupling(headline_params.gamma_r)
        direct = bg.matrix() @ [drive.amp1, drive.amp2 * cmath.exp(1j * drive.phi)]
        assert drift == pytest.approx(abs(d0) * abs(s) * (t[-1] - t[0]), abs=1e-12)
        for out, z in zip(outputs, direct):
            assert abs(out - (z + d0 * (c + s * t.mean()))) < 1e-12

    @staticmethod
    def _direct(p, bg, drive, t, a_t):
        """Reference: one exponential per time, the slope against t."""
        d0 = bg.coupling(p.gamma_r)
        direct = bg.matrix() @ [drive.amp1, drive.amp2 * cmath.exp(1j * drive.phi)]
        w = a_t * np.exp(-1j * drive.omega * t)
        mean = w.mean()
        tc = t - t.mean()
        slope = np.dot(tc, w - mean) / np.dot(tc, tc)
        drift = abs(d0) * abs(slope) * (t[-1] - t[0])
        return [complex(z + d0 * mean) for z in direct], drift

    # the phases come in blocks of B = isqrt(size) + 1: sizes B^2 - 1, B^2
    # and B^2 + 1 about two values of B, one state, two, and random sizes
    @pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 10, 2499, 2500, 2501])
    def test_block_phases_equal_direct(self, headline_params, size):
        bg = Background(r_b=0.7, theta_b=0.4)
        rng = np.random.default_rng(size)
        for n in [size] + [int(s) for s in rng.integers(1, 4000, size=4)]:
            drive = DriveSpec(omega=float(rng.uniform(-150.0, 150.0)),
                              phi=float(rng.uniform(-3.0, 3.0)), amp2=0.6)
            k = int(rng.integers(0, 20_000))
            dt = suggested_time_step(headline_params, drive)
            t = dt * np.arange(k, k + n)
            # a steady phasor with a slow drift and a decaying transient
            a_t = np.exp(1j * drive.omega * t) * (0.3 - 0.2j + 1e-4j * t) \
                + 0.1 * np.exp((2j - 0.5) * t)
            with np.errstate(invalid="ignore"):  # no drift fits one state
                got, drift = timedomain._demodulate(headline_params, bg, drive,
                                                    k, dt, a_t)
                want, ref_drift = self._direct(headline_params, bg, drive, t, a_t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12
            if n == 1:
                assert math.isnan(drift) and math.isnan(ref_drift)
            else:
                assert abs(drift - ref_drift) <= 1e-12


class TestOracleHorizon:
    def test_stored_tail_is_integrate_tail(self, headline_params, default_bg,
                                           monkeypatch, caplog):
        # the oracle keeps only the window it demodulates, bit for bit the
        # same states as integrate's full trajectory; this drive settles
        # within settling_time and takes no extension
        windows = []
        demodulate = timedomain._demodulate

        def spy(p, bg, drive, k, dt, a_t):
            windows.append((k, dt, a_t))
            return demodulate(p, bg, drive, k, dt, a_t)
        monkeypatch.setattr(timedomain, "_demodulate", spy)
        drive = DriveSpec(omega=120.0, phi=0.7, amp1=1.0, amp2=0.6)
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.timedomain"):
            res = oracle_scattering(headline_params, default_bg, drive)
        dt = suggested_time_step(headline_params, drive)
        traj = integrate(headline_params, default_bg, drive,
                         settling_time(headline_params), dt)
        k0 = int(0.8 * traj.times.size)
        ((k, step, a_t),) = windows
        assert (k, k + a_t.size) == (k0, traj.times.size) and step == dt
        assert np.array_equal(a_t, traj.a_t[k0:])
        s1m, s2m = _demodulated_tail(headline_params, default_bg, drive, traj)
        assert res.out1 == abs(s1m) ** 2 and res.out2 == abs(s2m) ** 2
        log = _oracle_log(caplog)
        assert log["extensions"] == "0"
        assert int(log["steps"]) == traj.times.size - 1
        assert float(log["dt"]) == pytest.approx(dt, rel=1e-5)
        assert float(log["t_end"]) == pytest.approx(traj.times[-1], rel=1e-5)
        assert float(log["drift"]) <= 1e-6

    def test_exceptional_point_extends_horizon(self, default_bg, caplog):
        # at the exceptional point the transient decays like t e^{-gamma t};
        # settling_time alone leaves a drift of 1.9e-6 here
        p = EP_MODEL
        drive = DriveSpec(126.93964217679171, -1.1435196331453783)
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.timedomain"):
            res = oracle_scattering(p, default_bg, drive)
        closed = joint_absorbance(scattering_matrix(p, default_bg, drive.omega),
                                  drive.phi)[0]
        assert res.a_joint == pytest.approx(closed, abs=1e-6)
        log = _oracle_log(caplog)
        assert 1 <= int(log["extensions"]) <= timedomain._MAX_EXTENSIONS
        assert float(log["t_end"]) > settling_time(p)

    def test_raises_at_extension_cap(self, headline_params, default_bg,
                                     monkeypatch, caplog):
        monkeypatch.setattr(timedomain, "_DRIFT_TOL", 0.0)
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.timedomain"), \
                pytest.raises(SteadyStateNotConvergedError, match="extensions"):
            oracle_scattering(headline_params, default_bg, DriveSpec(omega=124.5))
        log = _oracle_log(caplog)
        assert int(log["extensions"]) == timedomain._MAX_EXTENSIONS
        n = int(math.ceil(settling_time(headline_params) / suggested_time_step(
            headline_params, DriveSpec(omega=124.5)) - 1e-9))
        assert int(log["steps"]) == n + timedomain._MAX_EXTENSIONS * math.ceil(
            timedomain._EXTENSION * n)

    def test_step_budget(self, default_bg, monkeypatch):
        # settling_time 2e10 at dt 3.2e-4 is 6.2e13 steps: refused before
        # any step is taken or any state stored
        def refuse(*args):
            raise AssertionError("stepped past the budget")
        monkeypatch.setattr(timedomain, "_iterate", refuse)
        with pytest.raises(SteadyStateNotConvergedError, match="budget"):
            oracle_scattering(ModelParams(124.5, 1e-9, 0.0, 0.0, 0.0), default_bg,
                              DriveSpec(omega=124.5))


class TestOracleAmplitude:
    @pytest.mark.parametrize("amps", [
        [(1.0, 1.0), (100.0, 100.0), (1e-3, 1e-3), (1e200, 1e200)],
        [(1.0, 0.6), (100.0, 60.0)],
    ], ids=["equal", "unequal"])
    def test_a_joint_is_amplitude_free(self, headline_params, default_bg,
                                       amps):
        # the drives differ by a scale factor only, and so must not differ in
        # a_joint beyond rounding, nor in how far the horizon is extended
        a = [oracle_scattering(headline_params, default_bg,
                               DriveSpec(omega=120.0, phi=0.7, amp1=a1,
                                         amp2=a2)).a_joint
             for a1, a2 in amps]
        assert max(a) - min(a) <= 1e-14, a


class TestOracleVsClosedForm:
    def test_headline_grid(self, headline_params, default_bg):
        for w in (112.0, 117.65, 124.5, 131.5):
            for phi in (0.0, 1.3, -2.0):
                drive = DriveSpec(omega=w, phi=phi)
                res = oracle_scattering(headline_params, default_bg, drive)
                S = scattering_matrix(headline_params, default_bg, w)
                a, out1, out2 = joint_absorbance(S, phi)
                assert res.out1 == pytest.approx(out1, abs=1e-6)
                assert res.out2 == pytest.approx(out2, abs=1e-6)
                assert res.a_joint == pytest.approx(a, abs=1e-6)

    def test_random_params(self, default_bg):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = random_passive_params(rng, rate_lo=0.5, rate_hi=6.0)
            w = p.omega0 + float(rng.uniform(-10, 10))
            phi = float(rng.uniform(-math.pi, math.pi))
            drive = DriveSpec(omega=w, phi=phi)
            res = oracle_scattering(p, default_bg, drive)
            a, out1, out2 = joint_absorbance(
                scattering_matrix(p, default_bg, w), phi)
            assert res.out1 == pytest.approx(out1, abs=1e-6)
            assert res.out2 == pytest.approx(out2, abs=1e-6)

    def test_nontrivial_background(self, headline_params):
        bg = Background(0.8, 0.4)
        drive = DriveSpec(omega=121.0, phi=0.5)
        res = oracle_scattering(headline_params, bg, drive)
        a, out1, out2 = joint_absorbance(
            scattering_matrix(headline_params, bg, 121.0), 0.5)
        assert res.out1 == pytest.approx(out1, abs=1e-6)
        assert res.out2 == pytest.approx(out2, abs=1e-6)

    def test_cpa_dark_state(self, default_bg):
        # strong-critical model driven at the spectral zero absorbs everything
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        w = 124.5 + math.sqrt(39.0)
        res = oracle_scattering(p, default_bg, DriveSpec(omega=w, phi=0.0))
        assert res.out1 < 1e-10
        assert res.out2 < 1e-10
        assert res.a_joint == pytest.approx(1.0, abs=1e-10)

    def test_cpt_bright_state(self, default_bg):
        # anti-phased inputs at the same frequency are fully released
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        w = 124.5 + math.sqrt(39.0)
        res = oracle_scattering(p, default_bg, DriveSpec(omega=w, phi=math.pi))
        assert res.a_joint == pytest.approx(0.0, abs=1e-9)

    def test_unequal_amplitudes(self, headline_params, default_bg):
        drive = DriveSpec(omega=118.0, phi=0.9, amp1=1.0, amp2=0.4)
        res = oracle_scattering(headline_params, default_bg, drive)
        S = scattering_matrix(headline_params, default_bg, 118.0)
        in2 = 0.4 * np.exp(1j * 0.9)
        out1 = abs(S.s11 + S.s12 * in2) ** 2
        out2 = abs(S.s21 + S.s22 * in2) ** 2
        assert res.out1 == pytest.approx(float(out1), abs=1e-6)
        assert res.out2 == pytest.approx(float(out2), abs=1e-6)
