"""Regime classification, CPA frequency finding, critical loci sweeps."""
import decimal
import logging
import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from twoport_cmt import (
    ModelParams,
    classify_regime,
    critical_loci,
    find_cpa,
    min_abs_dets,
    poles_zeros,
    single_beam_spectrum,
)
from twoport_cmt.model import _det_s_grid
from twoport_cmt import regimes
from twoport_cmt.regimes import count_peaks, default_window, scc_residual, wcc_residual
from conftest import random_passive_params


def _coalescent_zeros(rng, n):
    """n models on both critical-coupling loci at zero detuning."""
    models = []
    for _ in range(n):
        g, gamma_nr = rng.uniform(0.1, 10.0), rng.uniform(0.0, 5.0)
        models.append(ModelParams(float(rng.uniform(50.0, 150.0)),
                                  gamma_nr + g, gamma_nr, g, g))
    return models


class TestResiduals:
    def test_values(self, headline_params):
        assert scc_residual(headline_params) == pytest.approx(-2.0)
        assert wcc_residual(headline_params) == pytest.approx(15.0 - 64.0)

    def test_strong_condition(self):
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        assert scc_residual(p) == 0.0

    def test_weak_condition_reduces_to_matched_rates(self):
        # at Omega = 0 the weak condition is gamma_r = gamma_nr
        p = ModelParams(124.5, 2.0, 2.0, 5.0, 0.0)
        assert wcc_residual(p) == 0.0


class TestClassifyRegime:
    def test_headline_doublet(self, headline_params):
        rep = classify_regime(headline_params)
        assert rep.n_peaks == 2
        lo, hi = sorted(rep.peak_positions)
        assert lo == pytest.approx(117.6443, abs=1e-3)
        assert hi == pytest.approx(131.3557, abs=1e-3)
        assert hi - 124.5 == pytest.approx(124.5 - lo, abs=1e-6)
        assert rep.cpa_frequencies == ()

    def test_overdamped_single_peak(self):
        p = ModelParams(124.5, 3.0, 0.0, 20.0, 8.0)
        rep = classify_regime(p)
        assert rep.n_peaks == 1
        assert rep.peak_positions[0] == pytest.approx(124.5, abs=1e-6)

    def test_strong_critical_cpa_pair(self):
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        rep = classify_regime(p)
        assert rep.n_peaks == 2
        assert len(rep.cpa_frequencies) == 2
        want = (124.5 - math.sqrt(39.0), 124.5 + math.sqrt(39.0))
        for got, w in zip(sorted(rep.cpa_frequencies), want):
            assert got == pytest.approx(w, abs=1e-8)

    def test_lossless_flat_no_peaks(self):
        p = ModelParams(124.5, 0.0, 0.0, 0.0, 8.0)
        rep = classify_regime(p)
        assert rep.n_peaks == 0
        assert rep.cpa_frequencies == ()

    def test_peak_just_inside_window(self):
        # the lower peak sits 0.016 meV inside the default window, less than
        # one step of a 1001-point boundary scan
        p = ModelParams(131.05115664719375, 2.939119266610353,
                        5.035778938360985, 7.459583643880323,
                        7.4511024713616605, delta_m=-24.919475297492674)
        lo, hi = default_window(p)
        rep = classify_regime(p)
        assert rep.n_peaks == 2
        assert lo < rep.peak_positions[0] < lo + (hi - lo) / 1000

    def test_detuned_peak_beyond_default_window(self):
        # a strongly detuned matter oscillator puts the upper peak past the
        # rate-based default window of `count_peaks`, (99.5, 149.5)
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0, delta_m=40.0)
        rep = classify_regime(p)
        lo, hi = default_window(p)
        assert rep.n_peaks == 2
        assert lo < rep.peak_positions[0] < hi < rep.peak_positions[1]
        for w in rep.peak_positions:
            f = _abs_dets(p, w + np.array([-1e-4, 0.0, 1e-4]))
            assert f[1] < min(f[0], f[2])


class TestFindCpa:
    def test_headline_minima_not_cpa(self, headline_params):
        pts = find_cpa(headline_params)
        assert len(pts) == 2
        for pt in pts:
            assert pt.dets_min == pytest.approx(0.2182, abs=1e-3)
            assert pt.dets_min > 1e-3

    def test_strong_critical_exact_zeros(self):
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        pts = find_cpa(p)
        assert len(pts) == 2
        want = sorted((124.5 - math.sqrt(39.0), 124.5 + math.sqrt(39.0)))
        for pt, w in zip(sorted(pts, key=lambda q: q.omega), want):
            assert pt.omega == pytest.approx(w, abs=1e-9)
            assert pt.dets_min < 1e-10
            # symmetric coupling: in-phase inputs absorb fully
            assert pt.phi_star == pytest.approx(0.0, abs=1e-9)

    def test_weak_critical_single_zero(self):
        p = ModelParams(124.5, 5.0, 1.0, 2.0, math.sqrt(8.0))
        pts = find_cpa(p)
        zeros = [pt for pt in pts if pt.dets_min < 1e-10]
        assert len(zeros) == 1
        assert zeros[0].omega == pytest.approx(124.5, abs=1e-9)

    @pytest.mark.parametrize("models", [
        [ModelParams(124.5, 8.0, 0.0, 8.0, 8.0)],
        [ModelParams(124.5, 5.0, 1.0, 4.0, 4.0)],
        _coalescent_zeros(np.random.default_rng(41), 200),
    ], ids=["gamma_nr=0", "gamma_nr=1", "random"])
    def test_coalescent_zeros(self, models):
        # gamma_r - gamma_nr = gamma_m = Omega, delta_m = 0: both zeros of
        # det S meet at omega0, where G has a triple root and G' = 0
        for p in models:
            pts = find_cpa(p)
            assert len(pts) == 1
            assert abs(pts[0].omega - p.omega0) < 1e-6
            w, _, idx = _grid_minima(p, n=20001)
            assert idx.size == 1 and w[idx[0] - 1] < pts[0].omega < w[idx[0] + 1]
            assert pts[0].dets_min <= 1e-12
            assert classify_regime(p).n_peaks == count_peaks(p) == 1
            assert min_abs_dets(p) <= 1e-12

    def test_empty_for_lossless(self):
        p = ModelParams(124.5, 3.0, 0.0, 0.0, 8.0)
        pts = find_cpa(p)
        # |det S| = 1 everywhere: no interior minima below 1 worth reporting
        for pt in pts:
            assert pt.dets_min == pytest.approx(1.0, abs=1e-9)


class TestMinAbsDets:
    def test_headline(self, headline_params):
        assert min_abs_dets(headline_params) == pytest.approx(0.2182, abs=1e-3)

    def test_zero_on_strong_locus(self):
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        assert min_abs_dets(p) < 1e-10

    def test_zero_on_weak_locus(self):
        p = ModelParams(124.5, 5.0, 1.0, 2.0, math.sqrt(8.0))
        assert min_abs_dets(p) < 1e-10

    def test_bounded_by_grid_minimum(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            p = random_passive_params(rng, rate_lo=0.2)
            lo, hi = default_window(p)
            grid = np.linspace(lo, hi, 2001)
            from twoport_cmt.model import _det_s_grid
            dets, bad = _det_s_grid(p, grid)
            coarse = float(np.min(np.abs(dets[~bad])))
            assert min_abs_dets(p) <= coarse + 1e-12


class TestCriticalLoci:
    def test_strong_locus_on_diagonal(self):
        base = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        # keep gamma_m < Omega so the spectral zeros stay on the real axis
        xs = np.linspace(1.0, 7.0, 5)
        ys = np.linspace(1.0, 7.0, 5)
        m = critical_loci(base, "gamma_m", xs, "gamma_r", ys)
        assert m.min_abs_dets.shape == (5, 5)
        for k in range(5):
            # gamma_r = gamma_m with gamma_nr = 0 is the strong locus
            assert m.scc_residual[k, k] == pytest.approx(0.0, abs=1e-12)
            assert m.min_abs_dets[k, k] < 1e-8
        off = m.min_abs_dets[~np.eye(5, dtype=bool)]
        assert np.min(off) > 1e-2

    def test_weak_locus_matched_rates(self):
        base = ModelParams(124.5, 3.0, 0.0, 5.0, 0.0)
        xs = np.linspace(0.5, 4.5, 5)
        m = critical_loci(base, "gamma_nr", xs, "gamma_r", xs)
        for k in range(5):
            assert m.wcc_residual[k, k] == pytest.approx(0.0, abs=1e-12)
            assert m.min_abs_dets[k, k] < 1e-8

    @pytest.mark.parametrize("x_param, y_param, base", [
        ("gamma_m", "omega_rabi", ModelParams(124.5, 3.0, 1.5, 5.0, 8.0)),
        ("gamma_r", "gamma_nr", ModelParams(124.5, 3.0, 1.5, 0.0, 8.0)),
        ("gamma_r", "gamma_m", ModelParams(124.5, 3.0, 0.0, 5.0, 8.0, delta_m=3.0)),
        ("omega_rabi", "gamma_nr", ModelParams(124.5, 2.0, 1.5, 0.5, 8.0, delta_m=-4.0)),
        ("gamma_r", "omega_rabi", ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)),
    ])
    def test_n_peaks_is_count_peaks(self, x_param, y_param, base):
        # random axes plus 0, so the sweeps hold gamma_r = 0, lossless,
        # gamma_m = Omega = 0 and gamma_r = Omega = 0 cells
        rng = np.random.default_rng(31)
        xs = np.r_[0.0, rng.uniform(0.0, 10.0, 5)]
        ys = np.r_[0.0, rng.uniform(0.0, 10.0, 4)]
        m = critical_loci(base, x_param, xs, y_param, ys)
        assert m.n_peaks.shape == (ys.size, xs.size)
        if {x_param, y_param} == {"gamma_r", "omega_rabi"}:
            # the undriven lossless cavity: |det S| = 1 on the whole axis
            assert m.n_peaks[0, 0] == 0 and m.min_abs_dets[0, 0] == 1.0
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                cell = ModelParams(**{**vars(base), x_param: x, y_param: y})
                assert m.n_peaks[j, i] == count_peaks(cell)

    @pytest.mark.parametrize("x_param, y_param, base, ep", [
        # ep: the (x, y) cell on both critical loci, where the zeros meet
        ("gamma_m", "gamma_r", ModelParams(124.5, 3.0, 0.0, 5.0, 8.0), (8.0, 8.0)),
        ("gamma_m", "gamma_r", ModelParams(124.5, 3.0, 1.0, 5.0, 8.0), (8.0, 9.0)),
        ("gamma_m", "omega_rabi", ModelParams(124.5, 5.0, 1.0, 5.0, 8.0), (4.0, 4.0)),
    ])
    def test_min_abs_dets_is_cell_value(self, x_param, y_param, base, ep):
        axis = np.linspace(0.0, 10.0, 21)
        m = critical_loci(base, x_param, axis, y_param, axis)
        for j, y in enumerate(axis):
            for i, x in enumerate(axis):
                cell = ModelParams(**{**vars(base), x_param: x, y_param: y})
                assert m.min_abs_dets[j, i] == pytest.approx(
                    min_abs_dets(cell), abs=1e-15)
        i, j = (int(np.flatnonzero(axis == v)[0]) for v in ep)
        assert m.min_abs_dets[j, i] <= 1e-12

    def test_rejects_bad_axes(self, headline_params):
        with pytest.raises(ValueError):
            critical_loci(headline_params, "omega0", [1.0], "gamma_r", [1.0])
        with pytest.raises(ValueError):
            critical_loci(headline_params, "gamma_r", [1.0], "gamma_r", [1.0])
        with pytest.raises(ValueError):
            critical_loci(headline_params, "gamma_r", [-1.0], "gamma_m", [1.0])


class TestWindowAndTol:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_rejected(self, headline_params, tol):
        with pytest.raises(ValueError, match="tol"):
            find_cpa(headline_params, tol=tol)


# A narrow minimum of |det S| next to a detuned lossless matter line: G has
# it and its neighbouring maximum, about 2e-4 meV apart, as one complex pair.
# The 601-point grid sees the peak (at 99.618 and 76.782 meV).
NARROW_PAIR_MODELS = [
    ModelParams(84.72072161822373, 8.615268340791733, 5.225459149669089, 0.0,
                0.05210296911226091, delta_m=14.89742054944854),
    ModelParams(58.52344440051208, 9.875717999482056, 1.108429580882418e-4,
                0.0, 0.05053847481757278, delta_m=18.258614894891295),
]


def _dense_peak_count(p):
    """The `count_peaks` grid scanned in full: strict interior maxima above
    1e-9 of B = 1 - |det S|^2 on all 601 points of np.linspace over
    `default_window`."""
    dets, bad = _det_s_grid(p, np.linspace(*default_window(p), 601))
    b = np.where(bad, -np.inf, 1.0 - np.abs(dets) ** 2)
    return int(np.count_nonzero((b[1:-1] > b[:-2]) & (b[1:-1] > b[2:])
                                & (b[1:-1] > 1e-9)))


class TestPeakGrid:
    """`count_peaks` and `n_peaks` sample B only next to the roots of G, and
    must count exactly what the full 601-point scan counts."""

    @pytest.mark.parametrize("p", NARROW_PAIR_MODELS)
    def test_narrow_pair_peak_counted(self, p):
        assert count_peaks(p) == _dense_peak_count(p) == 2

    @pytest.mark.parametrize("x_param, y_param, base", [
        ("gamma_r", "gamma_m", ModelParams(124.5, 3.0, 0.5, 5.0, 8.0)),
        ("gamma_nr", "omega_rabi", ModelParams(124.5, 3.0, 0.5, 1.0, 8.0, delta_m=6.0)),
        ("gamma_r", "omega_rabi", ModelParams(90.0, 3.0, 0.0, 1e-4, 2.0, delta_m=-12.0)),
        ("gamma_nr", "gamma_m", ModelParams(140.0, 4.0, 1.0, 0.05, 5.0, delta_m=17.0)),
        ("gamma_r", "gamma_nr", NARROW_PAIR_MODELS[0]),
        ("gamma_r", "gamma_nr", NARROW_PAIR_MODELS[1]),
        # resonant bases: zero rates, lossless, Omega = 0, and the
        # exceptional point of the zeros at the base's own (x, y) cell
        ("gamma_r", "gamma_nr", ModelParams(124.5, 0.0, 0.0, 0.0, 8.0)),
        ("gamma_nr", "gamma_m", ModelParams(124.5, 3.0, 0.0, 0.0, 8.0)),
        ("gamma_r", "gamma_nr", ModelParams(124.5, 3.0, 1.0, 5.0, 0.0)),
        ("gamma_m", "omega_rabi", ModelParams(124.5, 8.0, 3.0, 5.0, 5.0)),
    ])
    def test_n_peaks_is_dense_scan(self, x_param, y_param, base):
        # log-spaced and random axes from 0, each holding the base's own value
        rng = np.random.default_rng(47)
        xs = np.r_[0.0, getattr(base, x_param), np.geomspace(1e-3, 10.0, 7),
                   rng.uniform(0.0, 10.0, 7)]
        ys = np.r_[0.0, getattr(base, y_param), np.geomspace(1e-3, 10.0, 6),
                   rng.uniform(0.0, 10.0, 6)]
        m = critical_loci(base, x_param, xs, y_param, ys)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                cell = ModelParams(**{**vars(base), x_param: x, y_param: y})
                assert m.n_peaks[j, i] == _dense_peak_count(cell), (x, y)

    def test_count_peaks_off_centre_windows(self):
        # detuned matter lines put peaks off the centre of the default window
        rng = np.random.default_rng(53)
        for _ in range(300):
            p = ModelParams(**{**vars(random_passive_params(rng)),
                               "delta_m": float(rng.uniform(-20.0, 20.0))})
            rng.random(2)  # two unused draws per model keep seed 53's model list
            assert count_peaks(p) == _dense_peak_count(p), p


class TestCountPeaks:
    def test_matches_classify(self, headline_params):
        assert count_peaks(headline_params) == 2
        assert count_peaks(ModelParams(124.5, 3.0, 0.0, 20.0, 8.0)) == 1
        assert count_peaks(ModelParams(124.5, 0.0, 0.0, 0.0, 8.0)) == 0

    def test_random_agreement(self):
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(30):
            p = random_passive_params(rng, rate_lo=0.3, rate_hi=6.0)
            rep = classify_regime(p)
            lo, hi = default_window(p)
            if not all(lo < w < hi for w in rep.peak_positions):
                continue  # count_peaks scans only the default window
            assert count_peaks(p) == rep.n_peaks
            checked += 1
        assert checked > 15


def _abs_dets(p, w):
    """|det S| at the frequencies w from the poles and zeros."""
    pz = poles_zeros(p)
    return np.abs((w - pz.zeros[0]) * (w - pz.zeros[1])
                  / ((w - pz.poles[0]) * (w - pz.poles[1])))


def _grid_minima(p, n=200001):
    """Dense-grid scan of |det S| over the default window: the grid, its
    values, and the indices of strict interior local minima."""
    w = np.linspace(*default_window(p), n)
    vals = _abs_dets(p, w)
    idx = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
    return w, vals, idx


def _assert_local_minima(p):
    """Every CPA point is a minimum of |det S| at the 1e-7 meV scale."""
    for pt in find_cpa(p):
        f = _abs_dets(p, pt.omega + np.array([-1e-7, 0.0, 1e-7]))
        assert f[1] <= min(f[0], f[2])


class TestClosedFormVsGrid:
    """The closed-form stationary points against a dense grid scan."""

    def _check(self, p):
        w, vals, idx = _grid_minima(p)
        pts = find_cpa(p)
        assert len(pts) == idx.size
        for pt, i in zip(pts, idx):
            assert w[i - 1] < pt.omega < w[i + 1]
            assert pt.dets_min <= vals[i] + 1e-12
        assert min_abs_dets(p) <= vals.min() + 1e-12
        assert min_abs_dets(p) == pytest.approx(
            min([vals[0], vals[-1]] + [pt.dets_min for pt in pts]), abs=1e-12)

    def test_random_detuned(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_passive_params(rng, rate_lo=0.3)
            self._check(ModelParams(p.omega0, p.gamma_r, p.gamma_nr,
                                    p.gamma_m, p.omega_rabi,
                                    delta_m=float(rng.uniform(-5.0, 5.0))))

    def test_no_internal_cavity_loss(self):
        # gamma_nr = 0 drops the degree of the stationary polynomial to 3
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = random_passive_params(rng, rate_lo=0.3)
            self._check(ModelParams(p.omega0, p.gamma_r, 0.0, p.gamma_m,
                                    p.omega_rabi, delta_m=1.3))

    def test_exceptional_point(self):
        # Omega 0.3% above the pole exceptional point |g_c - g_m| / 2
        p = ModelParams(91.3154829449834, 4.195793913665508,
                        3.0594197833593917, 0.7642327028424322,
                        3.2570772924342926)
        self._check(p)

    @pytest.mark.parametrize("p", [
        ModelParams(124.5, 0.0, 2.0, 5.0, 8.0, delta_m=1.0),  # gamma_r = 0
        ModelParams(124.5, 3.0, 0.0, 0.0, 8.0, delta_m=1.0),  # lossless
        ModelParams(124.5, 0.0, 0.0, 0.0, 8.0),  # lossless, uncoupled ports
        ModelParams(124.5, 0.0, 2.0, 5.0, 8.0),  # resonant: gamma_r = 0
        ModelParams(124.5, 3.0, 0.0, 0.0, 8.0),  # lossless
        ModelParams(124.5, 3.0, 0.0, 5.0, 0.0),  # lossless cavity, matter uncoupled
    ])
    def test_unit_determinant(self, p):
        # |det S| = 1 on the whole real axis: no stationary points at all
        dets, bad = _det_s_grid(p, np.linspace(*default_window(p), 200001))
        assert np.abs(np.abs(dets[~bad]) - 1.0).max() < 1e-12
        assert find_cpa(p) == []
        assert min_abs_dets(p) == 1.0

    def test_flat_minimum(self):
        # |det S|^2 has a relative curvature of only 2.4e-5 / meV^2 at omega0
        p = ModelParams(124.5, 0.6226529276393951, 5.478615128253235,
                        5.571158038603096, 3.2244856975138823)
        self._check(p)
        assert any(abs(pt.omega - 124.5) < 1e-9 for pt in find_cpa(p))

    @pytest.mark.parametrize("p", [
        # a real root of G that the eigenvalue solve returns as a complex pair
        ModelParams(87.43096357283395, 7.952683685835153, 3.9415942571801383,
                    0.0, 0.006414136182677751, delta_m=-4.400025136398975),
        ModelParams(145.28380941401093, 8.893918100156652, 7.905148671348126,
                    0.0, 0.0003166090978708569, delta_m=-2.54640008938802),
        # roots of G about 1e-4 meV off near a weakly damped line, from which
        # Newton does not settle: there is no minimum there
        ModelParams(99.94093806321439, 1.3412907512792005, 5.120153820260779,
                    0.00032636436706759555, 0.00010968345472077481,
                    delta_m=-2.010214843244956),
        # a dip beside a weakly damped line, where the eigenvalue roots of G
        # lie about 1e-4 meV off and |det S| there is 7.5e-4 above the minimum
        ModelParams(90.2913762804405, 6.452567521035818, 0.22065022751065477,
                    0.0001895306466020679, 0.025974283895842276,
                    delta_m=-13.526311442142958),
    ])
    def test_newton_seeds(self, p):
        self._check(p)
        _assert_local_minima(p)

    def test_narrow_matter_line(self):
        # an undamped matter line with a weak coupling: a dip of |det S| about
        # 1e-4 meV wide, where the expanded coefficients of F lose ~1e-5 meV
        p = ModelParams(119.93695867252858, 3.8517224010315054,
                        4.650822892368995, 0.0, 0.023914756193348374,
                        delta_m=4.668101618889471)
        self._check(p)
        _assert_local_minima(p)

    def test_cycling_seed_dropped(self, monkeypatch):
        # one seed from a complex root of G cycles without converging; it is
        # dropped instead of holding the other seeds for every Newton step
        p = ModelParams(127.75224400074109, 5.09278047156697,
                        4.403369666715883, 4.36513776004366,
                        2.2932760200855773, delta_m=24.676931866948557)
        calls = []
        value = regimes._stationary_value
        monkeypatch.setattr(regimes, "_stationary_value",
                            lambda p, u: calls.append(1) or value(p, u))
        assert len(find_cpa(p)) == 1
        assert len(calls) < regimes._NEWTON_STEPS
        self._check(p)
        _assert_local_minima(p)

    def test_far_thrown_seed_dropped(self, monkeypatch):
        # two seeds jump to |u| ~ 1.5e5 meV, far beyond the window, and would
        # creep back for every Newton step; they are dropped instead
        p = ModelParams(101.23666918468, 4.650526392983738, 6.973563283752689,
                        4.564056913313566, 4.1819011939177635,
                        delta_m=-19.54093224922594)
        calls = []
        value = regimes._stationary_value
        monkeypatch.setattr(regimes, "_stationary_value",
                            lambda p, u: calls.append(1) or value(p, u))
        pts = find_cpa(p)
        assert len(calls) < regimes._NEWTON_STEPS
        assert len(pts) == 1
        assert pts[0].omega == pytest.approx(102.08743162623952, abs=1e-9)
        self._check(p)
        _assert_local_minima(p)

    def test_tiny_gamma_nr_seeds_dropped(self, monkeypatch):
        # gamma_nr = 3e-10 gives G a complex root pair of modulus about
        # Omega sqrt(2 gamma_m / gamma_nr); a reach taken from it would let
        # thrown seeds creep back for many Newton steps
        p = ModelParams(68.09028570191892, 6.747812890781496,
                        3.1802085268857503e-10, 2.6456983692218285,
                        5.649571538589734, delta_m=1.978772409401266)
        calls = []
        value = regimes._stationary_value
        monkeypatch.setattr(regimes, "_stationary_value",
                            lambda p, u: calls.append(1) or value(p, u))
        pts = find_cpa(p)
        assert len(calls) <= 5
        assert len(pts) == 1
        self._check(p)
        _assert_local_minima(p)


def _companion_roots(g):
    """np.linalg.eigvals of the companion matrix of one row of ascending
    coefficients, trimmed to its degree; no roots where the row is 0."""
    if not g.any():
        return np.array([], dtype=complex)
    d = np.flatnonzero(g)[-1]
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -g[:d] / g[d]
    return np.linalg.eigvals(comp)


def _batch(models):
    """A list of models as one batch of cells, for `regimes` internals."""
    return SimpleNamespace(**{k: np.array([float(getattr(p, k)) for p in models])
                              for k in vars(models[0])})


def _stationary_rows(models):
    """`_stationary_poly` of a list of models, one row each."""
    return regimes._stationary_poly(_batch(models))


class TestClosedFormRoots:
    """Resonant minima (`_resonant_minima`, from G = u H(u^2)) against the
    eigenvalues of the companion matrix of G: each minimum is a root of G,
    +-sqrt(v+) where g1 = G'(0) < 0, else u = 0, and none where G = 0."""

    def _check(self, models, tol=1e-9):
        g = _stationary_rows(models)
        c = _batch(models)
        omega, dets = regimes._resonant_minima(c)
        u = omega - c.omega0
        for row, got in zip(g, u.T):
            want = _companion_roots(row)
            # G = u H(u^2) is 0 or of degree 3 or 5
            assert want.size in (0, 3, 5)
            count = 0 if want.size == 0 else 2 if row[1] < 0 else 1
            assert np.count_nonzero(~np.isnan(got)) == count
            if count == 2:  # the doublet, symmetric about omega0
                assert got[0] < 0 < got[1]
                assert got[0] == pytest.approx(-got[1], abs=1e-12)
            for x in got[:count]:
                assert np.abs(want - x).min() <= tol * (1 + abs(x)), (got, want)
        assert np.array_equal(np.isnan(dets), np.isnan(omega))
        return g, u

    def test_random_resonant(self):
        rng = np.random.default_rng(59)
        models = [random_passive_params(rng) for _ in range(200)]
        models += [ModelParams(**{**vars(random_passive_params(rng)),
                                  "gamma_nr": 0.0}) for _ in range(100)]
        g, u = self._check(models)
        assert (g[:, 0::2] == 0).all()
        assert {_companion_roots(row).size for row in g} == {3, 5}
        assert {int(np.count_nonzero(~np.isnan(x))) for x in u.T} == {1, 2}

    def test_no_stationary_points(self):
        # gamma_r = 0 (N = D) and lossless models: G = 0, no minima
        g, u = self._check([ModelParams(124.5, 0.0, 2.0, 5.0, 8.0),
                            ModelParams(124.5, 3.0, 0.0, 0.0, 8.0),
                            ModelParams(124.5, 0.0, 0.0, 0.0, 0.0)])
        assert not g.any() and np.isnan(u).all()

    def test_uncoupled_matter(self):
        # Omega = 0: the matter rate is 1 (`_matter_rate`), G = 2 gamma_nr u
        # (u^2 + 1)^2 and H has a double root at v = -1, which eigvals splits
        # by about sqrt(eps); G = 0 where gamma_nr = 0 as well
        g, u = self._check([ModelParams(124.5, 3.0, 1.0, 5.0, 0.0),
                            ModelParams(124.5, 3.0, 0.0, 5.0, 0.0)], tol=1e-7)
        assert np.array_equal(u[:, 0], [0.0, np.nan], equal_nan=True)
        assert np.isnan(u[:, 1]).all()

    def test_exceptional_point(self):
        # both critical loci at once: the zeros of det S meet at omega0 and G
        # has a triple root at u = 0; g1 can round below 0 and split it
        models = _coalescent_zeros(np.random.default_rng(61), 40)
        g, u = self._check(models)
        assert (np.abs(u[0]) < 1e-6).all()
        assert np.nan_to_num(np.abs(u[1])).max() < 1e-6

    def test_mixed_batch(self):
        # resonant rows through `_resonant_minima` and detuned rows through
        # `_roots`, each in one batch: each row as in a one-row call
        rng = np.random.default_rng(67)
        models = []
        for i in range(60):
            p = random_passive_params(rng)
            dm = float(rng.uniform(-20.0, 20.0)) if i % 2 else 0.0
            models.append(ModelParams(**{**vars(p), "delta_m": dm,
                                         "gamma_nr": p.gamma_nr * (i % 3 > 0)}))
        resonant = models[0::2]
        self._check(resonant)
        omega, dets = regimes._resonant_minima(_batch(resonant))
        for k, p in enumerate(resonant):
            one = regimes._resonant_minima(_batch([p]))
            assert np.array_equal(omega[:, k], one[0][:, 0], equal_nan=True)
            assert np.array_equal(dets[:, k], one[1][:, 0], equal_nan=True)
        g = _stationary_rows(models[1::2])
        for row, got in zip(g, regimes._roots(g)):
            assert np.array_equal(got, regimes._roots(row[None])[0],
                                  equal_nan=True)


class TestWholeAxis:
    """Minima of |det S| far outside the rate-based default window, where a
    detuned matter line puts them."""

    def test_detuned_minimum(self):
        # the default window (114.5, 134.5) holds only the shallow minimum
        p = ModelParams(124.5, 3.0, 0.0, 0.5, 1.0, delta_m=40.0)
        pts = find_cpa(p)
        assert [pt.omega for pt in pts] == pytest.approx([124.7021, 164.5186],
                                                         abs=1e-4)
        assert min_abs_dets(p) == pts[1].dets_min == pytest.approx(0.99258,
                                                                   abs=1e-5)

    def test_random_detuned_against_scan(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            p = random_passive_params(rng, rate_lo=0.3)
            p = ModelParams(p.omega0, p.gamma_r, p.gamma_nr, p.gamma_m,
                            p.omega_rabi, delta_m=float(rng.uniform(-40.0, 40.0)))
            w = p.omega0 + np.linspace(-120.0, 120.0, 240001)
            vals = _abs_dets(p, w)
            idx = np.flatnonzero((vals[1:-1] < vals[:-2])
                                 & (vals[1:-1] < vals[2:])) + 1
            # shallower scan minima can be rounding noise of |det S| ~ 1
            idx = idx[1.0 - vals[idx] ** 2 > 1e-6]
            found = np.array([pt.omega for pt in find_cpa(p)])
            for i in idx:
                assert np.any((w[i - 1] < found) & (found < w[i + 1]))
            assert min_abs_dets(p) <= vals.min() + 1e-12


class TestNearRealPair:
    """A maximum and a minimum of |det S| about 2e-4 meV apart beside a
    detuned, nearly lossless matter line come out of `_roots` as one complex
    pair; Newton from Re +- |Im| finds the minimum."""

    @pytest.mark.parametrize("p", NARROW_PAIR_MODELS)
    def test_both_minima_found(self, p):
        w = p.omega0 + np.linspace(-30.0, 30.0, 1_000_001)
        vals = np.abs(_det_s_grid(p, w)[0])
        idx = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
        pts = find_cpa(p)
        assert len(pts) == idx.size == 2
        for pt, i in zip(pts, idx):
            assert w[i - 1] < pt.omega < w[i + 1]
            assert pt.dets_min <= vals[i] + 1e-12
        assert classify_regime(p).n_peaks == 2


def _resonant_g1(p):
    """G'(0) = H(0) = 2 (e0 b2 - gamma_nr b0) of a resonant model, from the
    coefficients in the `_stationary_poly` docstring at delta_m = 0."""
    g_m = p.gamma_m if p.omega_rabi else 1.0
    g_c, r2 = p.gamma_r + p.gamma_nr, p.omega_rabi**2
    e0 = p.gamma_nr * g_m**2 + r2 * g_m
    return 2 * (e0 * (g_m**2 + g_c**2 - 2 * r2) - p.gamma_nr * (g_c * g_m + r2) ** 2)


def _doublet(gamma_r, gamma_m, excess, rng):
    """A model with gamma_nr = 0 and 2 Omega^2 = (1 + excess) (gamma_r^2 +
    gamma_m^2), and the exact half-splitting sqrt(Omega^2 - (gamma_r^2 +
    gamma_m^2) / 2) of its float inputs, correctly rounded."""
    om = math.sqrt((gamma_r**2 + gamma_m**2) / 2 * (1 + excess))
    v = Fraction(om) ** 2 - (Fraction(gamma_r) ** 2 + Fraction(gamma_m) ** 2) / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        half = float((decimal.Decimal(v.numerator) / v.denominator).sqrt())
    return ModelParams(float(rng.uniform(50.0, 150.0)), gamma_r, 0.0, gamma_m, om), half


class TestResonantClosedForm:
    """Where delta_m = 0, G = u H(u^2) with H(v) = g5 v^2 + g3 v + g1 and
    g5, g3 >= 0: the minima of |det S| are +-sqrt(v+) where g1 < 0, else
    u = 0, and there are none where G = 0 (`TestClosedFormVsGrid::
    test_unit_determinant`). The closed form against a dense scan; the
    exceptional point is in `TestFindCpa::test_coalescent_zeros`."""

    @pytest.mark.parametrize("override", [{}, {"gamma_nr": 0.0}, {"omega_rabi": 0.0}],
                             ids=["random", "gamma_nr=0", "Omega=0"])
    def test_minima_against_scan(self, override):
        rng = np.random.default_rng(79)
        counts = set()
        for _ in range(30):
            p = ModelParams(**{**vars(random_passive_params(rng, rate_lo=0.3)),
                               **override})
            want = 2 if _resonant_g1(p) < 0 else 1
            counts.add(want)
            w, vals, idx = _grid_minima(p)
            pts = find_cpa(p)
            assert len(pts) == idx.size == want, p
            for pt, i in zip(pts, idx):
                assert w[i - 1] < pt.omega < w[i + 1]
                assert pt.dets_min <= vals[i] + 1e-12
            # |det S| is even in omega - omega0
            assert sum(pt.omega - p.omega0 for pt in pts) == pytest.approx(0.0, abs=1e-12)
            assert min_abs_dets(p) == min(pt.dets_min for pt in pts)
        assert counts == ({1} if "omega_rabi" in override else {1, 2})

    @pytest.mark.parametrize("excess, tol", [(1e-12, 1e-9), (1e-10, 1e-10), (1e-8, 1e-10),
                                             (1e-6, 1e-10), (1e-3, 1e-10), (0.5, 1e-10)])
    def test_doublet_threshold(self, excess, tol):
        # gamma_nr = 0: a doublet omega0 +- sqrt(Omega^2 - (gamma_r^2 +
        # gamma_m^2) / 2) for 2 Omega^2 > gamma_r^2 + gamma_m^2, here just
        # above that threshold, where sqrt(v+) magnifies the error of v+ to
        # about eps Omega^2 / sqrt(v+): 1e-9 meV at an excess of 1e-12
        rng = np.random.default_rng(71)
        for _ in range(50):
            p, half = _doublet(*(float(x) for x in rng.uniform(0.1, 10.0, 2)),
                               excess, rng)
            pts = find_cpa(p)
            assert [pt.omega for pt in pts] == pytest.approx(
                [p.omega0 - half, p.omega0 + half], abs=tol)
            assert classify_regime(p).n_peaks == 2


class TestNewtonOnlyWhenDetuned:
    """Resonant cells take their minima in closed form: no `_roots` call, no
    `_stationary_value` (Newton) and no `np.linalg.eigvals` call; detuned
    cells keep all three."""

    @pytest.mark.parametrize("delta_m", [0.0, 2.0])
    def test_calls(self, monkeypatch, delta_m):
        calls = {"roots": 0, "newton": 0, "eigvals": 0}

        def counted(key, f):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(regimes, "_roots", counted("roots", regimes._roots))
        monkeypatch.setattr(regimes, "_stationary_value",
                            counted("newton", regimes._stationary_value))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        axis = np.linspace(0.0, 10.0, 21)
        for base in (ModelParams(124.5, 3.0, 0.0, 5.0, 8.0, delta_m=delta_m),
                     ModelParams(124.5, 3.0, 1.5, 5.0, 8.0, delta_m=delta_m)):
            for run in (lambda: critical_loci(base, "gamma_m", axis, "gamma_r", axis),
                        lambda: critical_loci(base, "gamma_nr", axis, "omega_rabi", axis),
                        lambda: min_abs_dets(base), lambda: find_cpa(base),
                        lambda: classify_regime(base), lambda: count_peaks(base)):
                calls.update(roots=0, newton=0, eigvals=0)
                run()
                assert ((calls["roots"] > 0) == (calls["newton"] > 0)
                        == (calls["eigvals"] > 0) == (delta_m != 0)), calls

    def test_mixed_batch(self):
        # resonant and detuned cells, each kind in one batch through `_solve`:
        # each cell as in a one-cell call
        rng = np.random.default_rng(73)
        models = [ModelParams(**{**vars(random_passive_params(rng)),
                                 "delta_m": float(rng.uniform(-20.0, 20.0)) * (i % 2)})
                  for i in range(40)]
        models += NARROW_PAIR_MODELS
        for batch in ([p for p in models if p.delta_m == 0],
                      [p for p in models if p.delta_m != 0]):
            omega, _, least, _ = regimes._solve(_batch(batch), 1e-10)
            assert least.tolist() == [min_abs_dets(p) for p in batch]
            for k, p in enumerate(batch):
                # several seeds can reach one minimum, which `find_cpa` reports once
                got = omega[:, k][~np.isnan(omega[:, k])]
                want = np.array([pt.omega for pt in find_cpa(p)])
                assert np.abs(got[:, None] - want).min(axis=1).max() <= 1e-10
                assert np.abs(got[:, None] - want).min(axis=0).max() <= 1e-10


class TestOverflow:
    """Rates that overflow the coefficients of G are a ValueError that names
    the overflow, with no RuntimeWarning, on the resonant and detuned paths."""

    @pytest.mark.parametrize("delta_m", [0.0, 1.0])
    def test_rejected(self, delta_m):
        p = ModelParams(124.5, 1e200, 0.0, 5.0, 8.0, delta_m=delta_m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: critical_loci(p, "gamma_m", [0.0, 1e200],
                                              "gamma_r", [0.0, 1e160]),
                        lambda: critical_loci(p, "gamma_m", [0.0, 1e100],
                                              "gamma_r", [0.0, 1e80]),
                        lambda: min_abs_dets(p), lambda: find_cpa(p),
                        lambda: classify_regime(p), lambda: count_peaks(p)):
                with pytest.raises(ValueError, match="overflow"):
                    run()

    def test_unit_determinant_cells_kept(self):
        # gamma_r = 0: G = 0 whatever the other rates, so nothing overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = critical_loci(ModelParams(124.5, 0.0, 1.0, 5.0, 8.0), "gamma_m",
                              [1.0, 1e100], "omega_rabi", [1.0, 2.0])
        assert (m.min_abs_dets == 1.0).all() and (m.n_peaks == 0).all()

    def test_pole_quadratic_overflow_named(self):
        # gamma_r = 0 leaves G = 0, but D overflows on the peak grid of the
        # Omega = 1e200 cells: `_det_s_grid` names it, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="D overflows"):
                critical_loci(ModelParams(124.5, 0.0, 1.0, 5.0, 8.0),
                              "omega_rabi", [1.0, 1e200], "gamma_m", [1.0, 2.0])


class TestDebugLine:
    """One DEBUG line on the `twoport_cmt.regimes` logger per `critical_loci`
    and per `_cell_minima` call: cells, closed-form and eigvals cells,
    Newton steps and minima found."""

    def _lines(self, caplog, run):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.regimes"):
            run()
        return [dict(re.findall(r"(\w+)=(\S+)", r.getMessage()))
                for r in caplog.records if r.name == "twoport_cmt.regimes"]

    def test_resonant_sweep(self, caplog):
        axis = np.linspace(0.0, 10.0, 6)
        base = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0)
        lines = self._lines(caplog, lambda: critical_loci(
            base, "gamma_m", axis, "gamma_r", axis))
        c = regimes._cells(base, 36, gamma_m=np.tile(axis, 6),
                           gamma_r=np.repeat(axis, 6))
        minima = np.count_nonzero(~np.isnan(regimes._resonant_minima(c)[0]))
        assert lines == [{"cells": "36", "closed_form": "36", "eigvals": "0",
                          "newton_steps": "0", "minima": str(minima)}]
        assert minima > 36

    def test_detuned_sweep(self, caplog):
        axis = np.linspace(0.0, 10.0, 6)
        lines = self._lines(caplog, lambda: critical_loci(
            ModelParams(124.5, 3.0, 0.5, 5.0, 8.0, delta_m=2.0),
            "gamma_m", axis, "gamma_r", axis))
        assert len(lines) == 1
        assert lines[0]["cells"] == "36" and lines[0]["closed_form"] == "0"
        # cells with gamma_r = 0 have G = 0 and take no eigvals call
        assert lines[0]["eigvals"] == "30"
        assert 0 < int(lines[0]["newton_steps"]) <= regimes._NEWTON_STEPS

    @pytest.mark.parametrize("p, closed", [
        (ModelParams(124.5, 3.0, 0.0, 5.0, 8.0), "1"),
        (ModelParams(124.5, 3.0, 0.0, 5.0, 8.0, delta_m=2.0), "0"),
    ])
    def test_one_line_per_model(self, caplog, p, closed):
        lines = self._lines(caplog, lambda: find_cpa(p))
        assert len(lines) == 1
        assert lines[0]["cells"] == "1" and lines[0]["closed_form"] == closed
        assert int(lines[0]["minima"]) >= len(find_cpa(p)) == 2
        assert len(self._lines(caplog, lambda: classify_regime(p))) == 1


class TestScaleFreeThresholds:
    """The degeneracy mask of `model._response`, the Newton convergence of
    `_minima` and the merge of `_cell_minima` are relative: narrow lines
    (quality factors of 1e9) and large rates give finite minima, as at unit
    scale, each reported once."""

    SHAPE = np.array([3.0, 1.0, 5.0, 8.0])  # gamma_r, gamma_nr, gamma_m, Omega

    def _scaled(self, lam):
        return ModelParams(124.5, *(lam * self.SHAPE), delta_m=1.5 * lam)

    def test_narrow_lines_defined(self, default_bg):
        # |D| at omega0 is about lam^2, far below the old absolute floor
        lam = 1e-7
        p = self._scaled(lam)
        table = single_beam_spectrum(p, default_bg,
                                     124.5 + lam * np.linspace(-20, 20, 41))
        assert not table.degenerate.any()
        assert np.isfinite(table.R1).all() and np.isfinite(table.B).all()
        got, want = find_cpa(p), find_cpa(self._scaled(1.0))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert (g.omega - 124.5) / lam == pytest.approx(w.omega - 124.5,
                                                            rel=1e-7)
            assert g.dets_min == pytest.approx(w.dets_min, rel=1e-9)
            assert g.phi_star == w.phi_star
        assert min_abs_dets(p) == pytest.approx(0.2304126067672, rel=1e-9)

    def test_large_rate_defined(self):
        # gamma_r = 1e13 once made omega0 itself "degenerate"
        p = ModelParams(124.5, 1e13, 0.0, 5.0, 8.0)
        pts = find_cpa(p)
        assert [q.omega for q in pts] == [124.5]
        assert 0 < pts[0].dets_min < 1 and math.isfinite(pts[0].phi_star)
        assert min_abs_dets(p) == pts[0].dets_min

    @pytest.mark.parametrize("lam", [1e10, 1e30])
    def test_large_rates_keep_doublet(self, lam):
        # Newton steps at |u| ~ 8e9 cycle a few ulp apart, above tol: both
        # minima are found, as for the same model at delta_m = 0
        got = find_cpa(ModelParams(124.5, lam, lam, lam, lam, delta_m=1.0))
        want = find_cpa(ModelParams(124.5, lam, lam, lam, lam))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.omega == pytest.approx(w.omega, rel=1e-9)
            assert g.dets_min == pytest.approx(w.dets_min, rel=1e-9)

    def test_detuned_large_rates_one_row(self):
        # Newton leaves the points of one minimum at |u| ~ 6e9 a few
        # eps (|u| + rates) apart, far above tol: they are one row, as for
        # the same model at unit scale
        shape = np.array([2.78294616, 1.33133135, 3.84564085, 0.64253698])
        delta = 1.9222227464482984
        want = find_cpa(ModelParams(124.5, *shape, delta_m=delta))
        got = find_cpa(ModelParams(124.5, *(1e12 * shape), delta_m=1e12 * delta))
        assert len(got) == len(want) == 1
        assert (got[0].omega - 124.5) / 1e12 == pytest.approx(
            want[0].omega - 124.5, rel=1e-9)
        assert got[0].dets_min == pytest.approx(want[0].dets_min, rel=1e-12)

    @staticmethod
    def _random_models(lam, mirror=1.0):
        # 60 random detuned models with every rate and delta_m scaled by lam,
        # each with its unit-scale shape and size |delta_m| + rates
        rng = np.random.default_rng(4)
        for _ in range(60):
            shape = rng.uniform(0.0, 10.0, 4)
            delta = float(rng.uniform(-10.0, 10.0))
            yield (ModelParams(124.5, *shape, delta_m=delta),
                   ModelParams(124.5, *(lam * shape), delta_m=mirror * lam * delta),
                   abs(delta) + shape.sum())

    @pytest.mark.parametrize("lam", [1e-9, 1e-6, 1e3, 1e6, 1e12])
    def test_scaled_detuned_models_match_unit_scale(self, lam):
        # the minima of |det S| at omega0 + lam u are those at omega0 + u:
        # as many as at unit scale, their offsets / lam equal to 1e-12 of the
        # model's size. Below lam = 1 an offset is rounded to the float
        # spacing of omega0, 1.4e-14 meV or 1.4e-5 / lam = 1e9 (4.0e-7 of
        # the size measured), and |det S| near a minimum by that squared
        # (2.3e-11 measured)
        off_tol, dets_tol = (1e-12, {"rel": 1e-9}) if lam > 1 else (1e-6, {"abs": 1e-9})
        for unit, scaled, size in self._random_models(lam):
            want = [(q.omega - 124.5, q.dets_min) for q in find_cpa(unit)]
            got = find_cpa(scaled)
            assert len(got) == len(want)
            for q, (w, dets) in zip(got, want):
                assert abs((q.omega - 124.5) / lam - w) <= off_tol * (abs(w) + size)
                assert q.dets_min == pytest.approx(dets, **dets_tol)
            assert min_abs_dets(scaled) == pytest.approx(min_abs_dets(unit), **dets_tol)
            assert (classify_regime(scaled).n_peaks
                    == classify_regime(unit).n_peaks)

    @pytest.mark.parametrize("lam", [1e-9, 1.0, 1e6])
    def test_mirrored_detuning(self, lam):
        # delta_m -> -delta_m conjugates the matter factor, so it maps
        # |det S|(omega0 + u) to |det S|(omega0 - u): the same minima
        # mirrored about omega0
        for _, p, size in self._random_models(lam):
            q = ModelParams(**{**vars(p), "delta_m": -p.delta_m})
            got, mirrored = find_cpa(p), find_cpa(q)[::-1]
            assert len(got) == len(mirrored)
            for a, b in zip(got, mirrored):
                assert abs((a.omega - 124.5) + (b.omega - 124.5)) <= 1e-12 * lam * size
                assert a.dets_min == pytest.approx(b.dets_min, rel=1e-9)
            assert min_abs_dets(p) == pytest.approx(min_abs_dets(q), rel=1e-9)

    def test_narrow_model_keeps_both_minima(self):
        # rates of 1e-11 meV, 1300 ulp of omega0: both minima, each within
        # one float spacing of omega0 (1.4e-14 meV) of lam times a unit-scale
        # offset
        lam = 1e-12
        got, want = find_cpa(self._scaled(lam)), find_cpa(self._scaled(1.0))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert abs((g.omega - 124.5) - lam * (w.omega - 124.5)) <= np.spacing(124.5)
            assert g.dets_min == pytest.approx(w.dets_min, abs=1e-5)
        assert [round(g.dets_min, 4) for g in got] == [0.2304, 0.3674]

    @pytest.mark.parametrize("p", NARROW_PAIR_MODELS)
    def test_narrow_pair_scaled_down(self, p):
        # the pair of lines about 2e-4 meV wide, scaled to 2e-13 meV: still
        # two minima, as at unit scale, and no third
        lam = 1e-9
        rates = lam * np.array([p.gamma_r, p.gamma_nr, p.gamma_m, p.omega_rabi])
        scaled = ModelParams(p.omega0, *rates, delta_m=lam * p.delta_m)
        assert len(find_cpa(scaled)) == len(find_cpa(p)) == 2

    def test_scaled_model_keeps_every_minimum(self):
        # the seed of the minimum at omega0 + 0.478e6 takes Newton steps that
        # shrink slowly, a few ulp of u above the stop rule of a 1e-10 tol
        # in meV: the rule in units of the rate scale keeps it
        shape = np.array([0.27122094524571705, 9.748166908535595,
                          0.30357964641581914, 0.518069464734765])
        delta = -0.8296280257159978
        want = find_cpa(ModelParams(124.5, *shape, delta_m=delta))
        got = find_cpa(ModelParams(124.5, *(1e6 * shape), delta_m=1e6 * delta))
        assert len(want) == 2
        assert len(got) == len(want)


class TestUnresolvable:
    """Rates that `_solve` cannot resolve at omega0, and rates so small that
    the terms of G or D underflow, are a ValueError that names the cause,
    with no RuntimeWarning; rates of 0 stay valid."""

    SHAPE = TestScaleFreeThresholds.SHAPE

    def _scaled(self, lam, omega0=124.5):
        return ModelParams(omega0, *(lam * self.SHAPE), delta_m=1.5 * lam)

    def _runs(self, p):
        return (lambda: find_cpa(p), lambda: min_abs_dets(p),
                lambda: classify_regime(p), lambda: count_peaks(p),
                lambda: critical_loci(p, "gamma_m", [p.gamma_m, 1.0],
                                      "gamma_r", [p.gamma_r]))

    @pytest.mark.parametrize("p", [
        ModelParams(1e200, 3.0, 1.0, 5.0, 8.0),
        ModelParams(1e200, 3.0, 1.0, 5.0, 8.0, delta_m=1.5),
        ModelParams(124.5, 3e-16, 1e-16, 5e-16, 8e-16, delta_m=1.5e-16),
    ], ids=["resonant omega0", "detuned omega0", "narrow"])
    def test_below_float_spacing(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in self._runs(p):
                with pytest.raises(ValueError, match="rates too small for omega0"):
                    run()

    @pytest.mark.parametrize("omega0", [124.5, 1e-190])
    def test_underflow(self, omega0):
        p = self._scaled(1e-200, omega0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in self._runs(p):
                with pytest.raises(ValueError, match="underflow"):
                    run()

    def test_threshold(self):
        # 2^10 ulp(124.5) = 1.46e-11 meV: a scale of 1.85e-11 passes
        p = self._scaled(1e-12)
        assert regimes._rate_scale(p) > 2**10 * np.spacing(124.5)
        assert len(find_cpa(p)) == 2
        assert regimes._rate_scale(self._scaled(7e-13)) < 2**10 * np.spacing(124.5)
        with pytest.raises(ValueError, match="rates too small"):
            find_cpa(self._scaled(7e-13))

    @pytest.mark.parametrize("p", [
        ModelParams(124.5, 0.0, 0.0, 0.0, 0.0),
        ModelParams(124.5, 0.0, 1e-16, 1e-16, 1e-16, delta_m=1e-16)],
        ids=["zero", "gamma_r = 0, narrow"])
    def test_unit_determinant_valid(self, p):
        # gamma_r = 0: |det S| = 1 everywhere, with no minimum to resolve
        assert find_cpa(p) == [] and min_abs_dets(p) == 1.0
        assert count_peaks(p) == 0 and classify_regime(p).n_peaks == 0
