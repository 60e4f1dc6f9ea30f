"""Core model: parameters, background, steady state, S-matrix, poles/zeros."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoport_cmt import (
    Background,
    DegenerateResponseError,
    ModelParams,
    det_s,
    poles_zeros,
    scattering_matrix,
    single_beam_spectrum,
    steady_state_response,
)
from conftest import random_passive_params


class TestModelParams:
    def test_gamma_c_derived(self):
        p = ModelParams(100.0, 1.5, 0.5, 2.0, 3.0)
        assert p.gamma_c == 2.0
        assert p.omega_m == 100.0

    def test_detuning(self):
        p = ModelParams(100.0, 1.0, 0.0, 1.0, 1.0, delta_m=2.5)
        assert p.omega_m == 102.5

    @pytest.mark.parametrize("kwargs", [
        dict(omega0=-1.0), dict(omega0=0.0), dict(gamma_r=-0.1),
        dict(gamma_nr=-0.1), dict(gamma_m=-1e-3), dict(omega_rabi=-2.0),
        dict(omega0=math.inf), dict(omega0=math.nan), dict(gamma_r=math.nan),
        dict(gamma_nr=math.inf), dict(gamma_m=math.nan),
        dict(omega_rabi=math.inf), dict(delta_m=math.nan),
        dict(delta_m=-math.inf),
    ])
    def test_rejects_invalid(self, kwargs):
        base = dict(omega0=100.0, gamma_r=1.0, gamma_nr=1.0, gamma_m=1.0,
                    omega_rabi=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**base)


class TestBackground:
    @given(r_b=st.floats(0.0, 1.0), theta_b=st.floats(-10.0, 10.0),
           gamma_r=st.floats(0.0, 20.0))
    def test_constraints(self, r_b, theta_b, gamma_r):
        bg = Background(r_b, theta_b)
        C = bg.matrix()
        # unitary and symmetric
        assert np.abs(C @ C.conj().T - np.eye(2)).max() < 1e-14
        assert C[0, 1] == C[1, 0]
        # C conj(|d>) = -|d> to machine precision
        d0 = bg.coupling(gamma_r)
        assert abs(d0) ** 2 == pytest.approx(gamma_r, abs=1e-12)
        d = np.array([d0, d0])
        assert np.abs(C @ np.conj(d) + d).max() < 1e-12 * max(1.0, math.sqrt(gamma_r))

    def test_rejects_bad_reflectivity(self):
        with pytest.raises(ValueError):
            Background(r_b=1.2)

    @pytest.mark.parametrize("kwargs", [
        dict(r_b=math.nan), dict(r_b=math.inf), dict(theta_b=math.nan),
        dict(theta_b=-math.inf),
    ])
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            Background(**kwargs)


class TestSteadyState:
    def test_no_drive_no_response(self, default_bg):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 0.0)
        a, b, s_minus = steady_state_response(p, default_bg, 101.0, (0.0, 0.0))
        assert a == 0 and b == 0
        assert s_minus == (0.0, 0.0)

    def test_matter_cavity_ratio(self, headline_params, default_bg):
        a, b, s_minus = steady_state_response(
            headline_params, default_bg, 124.5, (1.0, 0.0))
        assert b / a == pytest.approx(1j * 8 / 5, abs=1e-12)
        assert abs(s_minus[0]) ** 2 + abs(s_minus[1]) ** 2 < 1.0

    def test_decoupled_matter_silent(self, default_bg):
        p = ModelParams(100.0, 2.0, 1.0, 5.0, 0.0)
        _, b, _ = steady_state_response(p, default_bg, 99.0, (1.0, 0.5j))
        assert b == 0

    def test_matches_hand_elimination(self, default_bg):
        # independent oracle: 2x2 Cramer elimination coded separately
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_passive_params(rng, rate_lo=0.3)
            w = p.omega0 + rng.uniform(-15, 15)
            s_plus = (complex(rng.normal(), rng.normal()),
                      complex(rng.normal(), rng.normal()))
            a, b, _ = steady_state_response(p, default_bg, w, s_plus)
            d0 = default_bg.coupling(p.gamma_r)
            drive = d0 * (s_plus[0] + s_plus[1])
            rc = 1j * (w - p.omega0) + p.gamma_c
            rm = 1j * (w - p.omega_m) + p.gamma_m
            a_ref = drive * rm / (rc * rm + p.omega_rabi**2)
            b_ref = 1j * p.omega_rabi * a_ref / rm
            assert a == pytest.approx(a_ref, rel=1e-12)
            assert b == pytest.approx(b_ref, rel=1e-12)

    def test_degenerate_lossless_pole(self, default_bg):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        with pytest.raises(DegenerateResponseError):
            steady_state_response(p, default_bg, 108.0, (1.0, 0.0))


class TestScatteringMatrix:
    def test_decoupled_cavity_is_background(self):
        p = ModelParams(100.0, 0.0, 1.0, 2.0, 3.0)
        bg = Background(0.6, 0.3)
        for w in (95.0, 100.0, 104.0):
            S = scattering_matrix(p, bg, w)
            assert np.abs(S.as_array() - bg.matrix()).max() < 1e-14

    def test_lossless_unitary(self, default_bg):
        p = ModelParams(124.5, 3.0, 0.0, 0.0, 8.0)
        for w in np.linspace(110, 140, 13):
            S = scattering_matrix(p, default_bg, w)
            smax = np.linalg.svd(S.as_array(), compute_uv=False)[0]
            assert smax == pytest.approx(1.0, abs=1e-12)

    def test_reciprocity_and_passivity(self, default_bg):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_passive_params(rng)
            w = p.omega0 + rng.uniform(-20, 20)
            S = scattering_matrix(p, default_bg, w)
            assert S.s12 == S.s21
            smax = np.linalg.svd(S.as_array(), compute_uv=False)[0]
            assert smax <= 1.0 + 1e-10

    def test_headline_determinant(self, headline_params, default_bg):
        # closed-form pole-zero ratio as independent route
        w = 124.5 + 6.9282
        S = scattering_matrix(headline_params, default_bg, w)
        assert abs(S.det()) == pytest.approx(0.2188, abs=5e-4)
        assert abs(S.det()) == pytest.approx(
            abs(det_s(headline_params, w)), abs=1e-10)


class TestPolesZeros:
    def test_lossless_rabi_doublet(self):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        pz = poles_zeros(p)
        assert sorted(z.real for z in pz.poles) == pytest.approx([92.0, 108.0])
        assert all(abs(z.imag) < 1e-12 for z in pz.poles)
        assert sorted(z.real for z in pz.zeros) == pytest.approx([92.0, 108.0])

    def test_headline_values(self, headline_params):
        pz = poles_zeros(headline_params)
        split_p = 0.5 * math.sqrt(4 * 64 - 4)
        split_z = 0.5 * math.sqrt(4 * 64 - 64)
        expect_p = {124.5 + split_p + 4j, 124.5 - split_p + 4j}
        expect_z = {124.5 + split_z + 1j, 124.5 - split_z + 1j}
        for got, want in ((pz.poles, expect_p), (pz.zeros, expect_z)):
            for g in got:
                assert min(abs(g - w) for w in want) < 1e-9

    def test_eigenvalue_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_passive_params(rng)
            m = np.array([[1j * p.omega0 - p.gamma_c, 1j * p.omega_rabi],
                          [1j * p.omega_rabi, 1j * p.omega_m - p.gamma_m]])
            expect = sorted(-1j * np.linalg.eigvals(m),
                            key=lambda z: (z.real, z.imag))
            got = sorted(poles_zeros(p).poles, key=lambda z: (z.real, z.imag))
            assert np.abs(np.array(got) - np.array(expect)).max() < 1e-9

    def test_decoupled_poles(self):
        p = ModelParams(100.0, 2.0, 1.0, 5.0, 0.0)
        pz = poles_zeros(p)
        assert {round(z.imag, 9) for z in pz.poles} == {3.0, 5.0}
        assert all(z.real == pytest.approx(100.0) for z in pz.poles)

    def test_conjugation_when_only_radiative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = ModelParams(float(rng.uniform(50, 150)),
                            float(rng.uniform(0, 8)), 0.0, 0.0,
                            float(rng.uniform(0, 8)))
            pz = poles_zeros(p)
            conj = {complex(round(z.real, 9), round(z.imag, 9))
                    for z in np.conj(pz.poles)}
            got = {complex(round(z.real, 9), round(z.imag, 9))
                   for z in pz.zeros}
            assert got == conj

    def test_pole_split_invariance(self):
        # poles depend only on gamma_r + gamma_nr; zeros see the split
        a = poles_zeros(ModelParams(100.0, 3.0, 1.0, 2.0, 5.0))
        b = poles_zeros(ModelParams(100.0, 1.0, 3.0, 2.0, 5.0))
        assert np.abs(np.array(a.poles) - np.array(b.poles)).max() < 1e-12
        assert np.abs(np.array(a.zeros) - np.array(b.zeros)).max() > 1e-3

    def test_exceptional_point_duplicated(self):
        # 4 Omega^2 = (gamma_c - gamma_m)^2 coalesces the poles
        p = ModelParams(100.0, 4.0, 0.0, 0.0, 2.0)
        pz = poles_zeros(p)
        assert pz.poles[0] == pytest.approx(pz.poles[1], abs=1e-12)


class TestDetS:
    def test_lossless_unimodular(self):
        p = ModelParams(100.0, 3.0, 0.0, 0.0, 5.0)
        for w in np.linspace(80, 120, 41):
            assert abs(det_s(p, w)) == pytest.approx(1.0, abs=1e-12)

    def test_strong_critical_zero(self):
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        assert abs(det_s(p, 124.5 + math.sqrt(39))) < 1e-12
        assert abs(det_s(p, 124.5 - math.sqrt(39))) < 1e-12

    def test_weak_critical_zero(self):
        p = ModelParams(124.5, 5.0, 1.0, 2.0, math.sqrt(8.0))
        assert abs(det_s(p, 124.5)) < 1e-12

    def test_degeneracy_error(self):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        with pytest.raises(DegenerateResponseError):
            det_s(p, 108.0)


class TestSingleBeamSpectrum:
    def test_headline_doublet(self, headline_params, default_bg):
        grid = np.linspace(105, 145, 801)
        t = single_beam_spectrum(headline_params, default_bg, grid)
        assert np.nanmax(t.A1) == pytest.approx(0.476, abs=2e-3)
        interior = (t.A1[1:-1] > t.A1[:-2]) & (t.A1[1:-1] > t.A1[2:])
        assert np.count_nonzero(interior) == 2

    def test_lorentzian_reduction(self, default_bg):
        p = ModelParams(124.5, 2.0, 2.0, 5.0, 0.0)
        grid = np.linspace(110, 139, 501)
        t = single_beam_spectrum(p, default_bg, grid)
        delta = grid - 124.5
        lorentz = 8.0 / (delta**2 + 16.0)
        assert np.abs(t.A1 - lorentz).max() < 1e-12
        i0 = np.argmin(np.abs(delta))
        assert t.A1[i0] == pytest.approx(0.5, abs=1e-12)

    def test_ranges_passive(self, default_bg):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_passive_params(rng)
            grid = np.linspace(p.omega0 - 40, p.omega0 + 40, 401)
            t = single_beam_spectrum(p, default_bg, grid)
            for arr in (t.R1, t.R2, t.T, t.A1, t.A2, t.B):
                assert np.nanmin(arr) > -1e-10
                assert np.nanmax(arr) < 1.0 + 1e-10

    def test_grid_validation(self, headline_params, default_bg):
        with pytest.raises(ValueError):
            single_beam_spectrum(headline_params, default_bg, [120.0])
        with pytest.raises(ValueError):
            single_beam_spectrum(headline_params, default_bg,
                                 [120.0, 119.0, 121.0])

    def test_degenerate_row_flagged(self, default_bg):
        p = ModelParams(100.0, 0.0, 0.0, 0.0, 8.0)
        t = single_beam_spectrum(p, default_bg, [90.0, 108.0, 110.0])
        assert bool(t.degenerate[1])
        assert np.isnan(t.B[1])
        assert not t.degenerate[0] and not t.degenerate[2]


class TestInvariantProperties:
    @given(r_b=st.floats(0.0, 1.0), theta_b=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_background_independence(self, r_b, theta_b):
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        grid = np.linspace(105, 145, 201)
        ref = single_beam_spectrum(p, Background(), grid)
        other = single_beam_spectrum(p, Background(r_b, theta_b), grid)
        for name in ("A1", "A2", "B", "abs_dets"):
            assert np.abs(getattr(ref, name) - getattr(other, name)).max() < 1e-10

    def test_closed_form_vs_direct(self, default_bg):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_passive_params(rng, rate_lo=0.1)
            grid = np.linspace(p.omega0 - 30, p.omega0 + 30, 101)
            t = single_beam_spectrum(p, default_bg, grid)
            direct = np.array([abs(scattering_matrix(p, default_bg, w).det())
                               for w in grid])
            assert np.abs(t.abs_dets - direct).max() < 1e-10

    def test_half_b_identity_and_ceiling(self, default_bg):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_passive_params(rng)
            grid = np.linspace(p.omega0 - 40, p.omega0 + 40, 401)
            t = single_beam_spectrum(p, default_bg, grid)
            assert np.nanmax(np.abs(t.A1 - t.B / 2)) < 1e-10
            assert np.nanmax(np.abs(t.A2 - t.B / 2)) < 1e-10
            assert np.nanmax(t.A1) <= 0.5 + 1e-10
