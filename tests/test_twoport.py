"""Model-agnostic 2x2 analysis: decomposition, joint absorbance, dephasing."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoport_cmt import (
    Background,
    ModelParams,
    NonReciprocalError,
    PhaseUndefinedError,
    SMatrix2,
    decompose,
    delta_psi,
    dets_from_observables,
    joint_absorbance,
    joint_extrema,
    scattering_matrix,
    wrap_phase,
)
from twoport_cmt.twoport import (KINDS, dephasing_defined, observable,
                                 output_dephasing, two_beam_extrema,
                                 two_beam_outputs)
from conftest import random_reciprocal_smatrix

angles = st.floats(-50.0, 50.0, allow_nan=False)


class TestWrapPhase:
    @pytest.mark.parametrize("x,want", [
        (0.0, 0.0), (math.pi, math.pi), (2 * math.pi, 0.0), (-0.3, -0.3),
        (0.4 + 6 * math.pi, 0.4),
    ])
    def test_examples(self, x, want):
        assert wrap_phase(x) == pytest.approx(want, abs=1e-12)

    def test_branch_cut(self):
        # both boundary representatives map to magnitude pi
        assert abs(wrap_phase(-math.pi)) == pytest.approx(math.pi)
        assert abs(wrap_phase(3 * math.pi)) == pytest.approx(math.pi)

    @given(angles)
    def test_range_and_congruence(self, x):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi
        assert math.remainder(w - x, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


class TestDecompose:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            S = random_reciprocal_smatrix(rng)
            d = decompose(S)
            assert d.tau >= 0
            assert -math.pi < d.psi1 <= math.pi
            assert -math.pi < d.psi2 <= math.pi
            back = d.reassemble()
            assert np.abs(back.as_array() - S.as_array()).max() < 1e-12

    def test_rejects_nonreciprocal(self):
        S = SMatrix2(0.1, 0.5, 0.4, 0.1)
        with pytest.raises(NonReciprocalError):
            decompose(S)

    def test_identity(self):
        d = decompose(SMatrix2(1.0, 0.0, 0.0, 1.0))
        assert d.tau == 0.0
        assert d.rho1 == d.rho2 == 1.0


class TestJointAbsorbance:
    def test_unitary_absorbs_nothing(self):
        th = 0.7
        S = SMatrix2(cmath.exp(1j * th) * 0.6, cmath.exp(1j * th) * 0.8j,
                     cmath.exp(1j * th) * 0.8j, cmath.exp(1j * th) * 0.6)
        for phi in np.linspace(-math.pi, math.pi, 9):
            a, out1, out2 = joint_absorbance(S, phi)
            assert a == pytest.approx(0.0, abs=1e-12)
            assert out1 + out2 == pytest.approx(2.0, abs=1e-12)

    def test_extrema_bracket_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            S = random_reciprocal_smatrix(rng)
            ext = joint_extrema(S)
            phis = np.linspace(-math.pi, math.pi, 181)
            samples = [joint_absorbance(S, phi)[0] for phi in phis]
            assert min(samples) >= ext.a_min - 1e-9
            assert max(samples) <= ext.a_max + 1e-9
            # closed-form extremal phases achieve the closed-form extrema
            assert joint_absorbance(S, ext.phi_min)[0] == pytest.approx(
                ext.a_min, abs=1e-12)
            assert joint_absorbance(S, ext.phi_max)[0] == pytest.approx(
                ext.a_max, abs=1e-12)

    def test_avg_mod_consistency(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            S = random_reciprocal_smatrix(rng)
            ext = joint_extrema(S)
            assert ext.a_avg == pytest.approx(
                0.5 * (ext.a_min + ext.a_max), abs=1e-12)
            assert ext.a_mod == pytest.approx(
                0.5 * (ext.a_max - ext.a_min), abs=1e-12)
            assert ext.a_max <= 1.0 + 1e-9

    def test_sinusoidal_in_phi(self):
        # a(phi) = a_avg - a_mod cos(phi - phi_min)
        rng = np.random.default_rng(37)
        S = random_reciprocal_smatrix(rng)
        ext = joint_extrema(S)
        for phi in np.linspace(-3, 3, 25):
            want = ext.a_avg - ext.a_mod * math.cos(phi - ext.phi_min)
            assert joint_absorbance(S, phi)[0] == pytest.approx(want, abs=1e-12)

    def test_headline_full_modulation(self):
        # symmetric resonant lineshape modulates between 0 and 2 A_single
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        S = scattering_matrix(p, Background(), 117.65)
        ext = joint_extrema(S)
        assert ext.a_min == pytest.approx(0.0, abs=1e-12)
        assert ext.a_max == pytest.approx(2 * ext.a_avg, abs=1e-12)
        assert ext.a_max == pytest.approx(0.952, abs=1e-3)


class TestDeltaPsi:
    def test_phase_undefined_cases(self):
        with pytest.raises(PhaseUndefinedError):
            delta_psi(SMatrix2(0.0, 0.5j, 0.5j, 0.5))
        with pytest.raises(PhaseUndefinedError):
            delta_psi(SMatrix2(0.5, 0.0, 0.0, 0.5))

    def test_matches_decomposition(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            S = random_reciprocal_smatrix(rng, mag_lo=0.1)
            d = decompose(S)
            assert delta_psi(S) == pytest.approx(
                wrap_phase(d.psi1 + d.psi2 - math.pi), abs=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(57)
        S = random_reciprocal_smatrix(rng, mag_lo=0.1)
        base = delta_psi(S)
        for th in np.linspace(-3, 3, 11):
            e = cmath.exp(1j * th)
            rotated = SMatrix2(e * S.s11, e * S.s12, e * S.s21, e * S.s22)
            assert delta_psi(rotated) == pytest.approx(base, abs=1e-10)


class TestDetsFromObservables:
    def test_matches_det_exactly(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            S = random_reciprocal_smatrix(rng, mag_lo=0.1)
            T = abs(S.s12) ** 2
            R1 = abs(S.s11) ** 2
            R2 = abs(S.s22) ** 2
            got = dets_from_observables(T, R1, R2, delta_psi(S))
            assert got == pytest.approx(abs(S.det()), abs=1e-10)

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            dets_from_observables(1.2, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            dets_from_observables(0.5, -0.2, 0.1, 0.0)

    def test_clamps_small_negatives(self):
        # values a hair outside [0, 1] from float noise are accepted
        assert dets_from_observables(-1e-14, 0.0, 0.0, 0.0) == 0.0

    def test_broadcasts_over_arrays(self):
        rng = np.random.default_rng(71)
        mats = [random_reciprocal_smatrix(rng, mag_lo=0.1) for _ in range(12)]
        T, R1, R2 = (np.array([abs(getattr(S, k)) ** 2 for S in mats]).reshape(3, 4)
                     for k in ("s12", "s11", "s22"))
        dpsi = np.array([delta_psi(S) for S in mats]).reshape(3, 4)
        got = dets_from_observables(T, R1, R2, dpsi)
        assert got.shape == (3, 4)
        want = [dets_from_observables(*args) for args in
                zip(T.flat, R1.flat, R2.flat, dpsi.flat)]
        assert np.abs(got.ravel() - want).max() < 1e-15

    @pytest.mark.parametrize("bad", [1.2, -0.2, math.nan])
    def test_validates_array_entries(self, bad):
        R1 = np.array([0.1, bad, 0.3])
        with pytest.raises(ValueError):
            dets_from_observables(np.full(3, 0.2), R1, np.full(3, 0.2), np.zeros(3))

    def test_model_round_trip(self):
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        bg = Background(0.8, 0.4)
        for w in np.linspace(108, 141, 23):
            S = scattering_matrix(p, bg, w)
            got = dets_from_observables(abs(S.s12) ** 2, abs(S.s11) ** 2,
                                        abs(S.s22) ** 2, delta_psi(S))
            assert got == pytest.approx(abs(S.det()), abs=1e-10)


def _elements(mats):
    return tuple(np.array([getattr(S, k) for S in mats])
                 for k in ("s11", "s12", "s22"))


def _same_angle(a, b, tol=1e-15):
    return abs(cmath.exp(1j * a) - cmath.exp(1j * b)) < tol


_PHIS = [2 * math.pi * k / 8 for k in range(8)]


def _outputs(S, phi):
    """|s_k^-|^2 for the input pair (1, e^{i phi}), written out in cmath."""
    e = cmath.exp(1j * phi)
    return abs(S.s11 + S.s12 * e) ** 2, abs(S.s21 + S.s22 * e) ** 2


def _first_harmonic(values):
    """Mean and first Fourier coefficient of samples on the _PHIS grid: a
    sinusoid m + 2 Re(c e^{i phi}) gives back (m, c) exactly."""
    return (sum(values) / 8,
            sum(v * cmath.exp(-1j * phi) for v, phi in zip(values, _PHIS)) / 8)


class TestArrayForms:
    """The broadcasting forms against references measured from the two
    output intensities, as an experiment sweeping the input dephasing would,
    on random reciprocal S plus the edge cases s12 = 0 (no modulation,
    undefined dephasing) and s11 = 0."""

    @pytest.fixture
    def mats(self):
        rng = np.random.default_rng(83)
        return ([random_reciprocal_smatrix(rng) for _ in range(30)]
                + [SMatrix2(0.5, 0.0, 0.0, 0.3j), SMatrix2(0.0, 0.6j, 0.6j, 0.2)])

    def test_outputs_broadcast_over_s_and_phi(self, mats):
        phis = np.linspace(-math.pi, math.pi, 9)
        got = np.array(two_beam_outputs(*_elements(mats), phis[:, None]))
        assert got.shape == (3, phis.size, len(mats))
        for i, phi in enumerate(phis):
            for j, S in enumerate(mats):
                out1, out2 = _outputs(S, phi)
                assert got[:, i, j] == pytest.approx(
                    (1 - 0.5 * (out1 + out2), out1, out2), abs=1e-15)

    def test_extrema(self, mats):
        ext = two_beam_extrema(*_elements(mats))
        for j, S in enumerate(mats):
            # A(phi) = a_avg + 2 Re(c e^{i phi}): a_mod = 2 |c|, and the
            # maximum sits at phi = -arg c
            a = [1 - 0.5 * sum(_outputs(S, phi)) for phi in _PHIS]
            a_avg, c = _first_harmonic(a)
            assert (ext.a_min[j], ext.a_max[j], ext.a_avg[j], ext.a_mod[j]) \
                == pytest.approx((a_avg - 2 * abs(c), a_avg + 2 * abs(c),
                                  a_avg, 2 * abs(c)), abs=1e-14)
            if j < 30:
                assert _same_angle(ext.phi_max[j], -cmath.phase(c), 1e-12)
                assert _same_angle(ext.phi_min[j], math.pi - cmath.phase(c),
                                   1e-12)
        # s12 = 0: no modulation, and the phases fall back to 0 and pi
        assert (ext.a_mod[-2], ext.phi_min[-2], ext.phi_max[-2]) \
            == (0.0, 0.0, math.pi)

    def test_dephasing_and_its_defined_rule(self, mats):
        s = _elements(mats)
        dpsi, defined = output_dephasing(*s), dephasing_defined(*s)
        assert defined.tolist() == [True] * 30 + [False, False]
        for j, S in enumerate(mats):
            if defined[j]:
                # the phase offset between the two output sinusoids
                c1 = _first_harmonic([_outputs(S, phi)[0] for phi in _PHIS])[1]
                c2 = _first_harmonic([_outputs(S, phi)[1] for phi in _PHIS])[1]
                assert _same_angle(dpsi[j], cmath.phase(c2 / c1), 1e-12)
            else:
                with pytest.raises(PhaseUndefinedError):
                    delta_psi(S)

    def test_observable_kinds(self, mats):
        s = _elements(mats)
        ext = two_beam_extrema(*s)
        for j, S in enumerate(mats):
            R1, R2, T = abs(S.s11) ** 2, abs(S.s22) ** 2, abs(S.s12) ** 2
            want = {"R1": R1, "R2": R2, "T": T, "A1": 1 - R1 - T,
                    "A2": 1 - R2 - T, "A_joint_max": ext.a_max[j],
                    "A_joint_min": ext.a_min[j]}
            for kind, value in want.items():
                assert observable(*s, kind)[j] == pytest.approx(value, abs=1e-15)
        assert np.array_equal(observable(*s, "dpsi"), output_dephasing(*s))
        assert set(want) | {"dpsi"} == set(KINDS)
        with pytest.raises(ValueError):
            observable(*s, "bogus")

    def test_wrap_phase_broadcasts(self):
        x = np.linspace(-50.0, 50.0, 201)
        got = wrap_phase(x)
        assert got.shape == x.shape
        assert got == pytest.approx(
            [math.atan2(math.sin(v), math.cos(v)) for v in x], abs=1e-13)

    @pytest.mark.parametrize("entry", [
        joint_extrema, delta_psi, lambda S: joint_absorbance(S, 0.3),
    ])
    def test_scalar_entry_points_need_reciprocity(self, entry):
        with pytest.raises(NonReciprocalError):
            entry(SMatrix2(0.1, 0.5, 0.4, 0.1))
