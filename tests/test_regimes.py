"""Regime classification, CPA frequency finding, critical loci sweeps."""
import math

import numpy as np
import pytest

from twoport_cmt import (
    ModelParams,
    WindowTooNarrowError,
    classify_regime,
    critical_loci,
    find_cpa,
    min_abs_dets,
    poles_zeros,
)
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

    def test_rejects_narrow_window(self, headline_params):
        with pytest.raises(ValueError):
            classify_regime(headline_params, window=(120.0, 129.0))

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

    def test_boundary_peak_raises(self):
        # strongly detuned matter oscillator pushes a peak past the window
        # the rate-based default span considers adequate
        p = ModelParams(124.5, 3.0, 0.0, 5.0, 8.0, delta_m=40.0)
        with pytest.raises(WindowTooNarrowError):
            classify_regime(p)


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

    def test_off_centre_window(self):
        # the window (128, 133) lies 3.5 to 8.5 meV above omega0; its zero at
        # omega0 + sqrt(39) is further from omega0 than the window is wide
        p = ModelParams(124.5, 5.0, 0.0, 5.0, 8.0)
        pts = find_cpa(p, window=(128.0, 133.0))
        assert len(pts) == 1
        assert pts[0].omega == pytest.approx(124.5 + math.sqrt(39.0), abs=1e-9)
        assert pts[0].dets_min < 1e-10

    def test_weak_critical_single_zero(self):
        p = ModelParams(124.5, 5.0, 1.0, 2.0, math.sqrt(8.0))
        pts = find_cpa(p, window=(104.5, 144.5))
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
        assert min_abs_dets(p, window=(104.5, 144.5)) < 1e-10

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
    ])
    def test_n_peaks_is_count_peaks(self, x_param, y_param, base):
        # random axes plus 0, so the sweeps hold gamma_r = 0, lossless and
        # gamma_m = Omega = 0 cells
        rng = np.random.default_rng(31)
        xs = np.r_[0.0, rng.uniform(0.0, 10.0, 5)]
        ys = np.r_[0.0, rng.uniform(0.0, 10.0, 4)]
        m = critical_loci(base, x_param, xs, y_param, ys)
        assert m.n_peaks.shape == (ys.size, xs.size)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                cell = ModelParams(**{**vars(base), x_param: x, y_param: y})
                assert m.n_peaks[j, i] == count_peaks(cell)

    def test_n_peaks_across_scan_blocks(self, monkeypatch):
        base = ModelParams(124.5, 3.0, 0.5, 5.0, 8.0, delta_m=1.0)
        xs, ys = np.linspace(0.0, 10.0, 6), np.linspace(0.0, 10.0, 5)
        whole = critical_loci(base, "gamma_m", xs, "omega_rabi", ys).n_peaks
        monkeypatch.setattr(regimes, "_SCAN_CELLS", 7)
        blocks = critical_loci(base, "gamma_m", xs, "omega_rabi", ys).n_peaks
        assert np.array_equal(blocks, whole)

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
            try:
                rep = classify_regime(p)
            except WindowTooNarrowError:
                continue
            assert count_peaks(p, n_grid=4001) == rep.n_peaks
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
    ])
    def test_unit_determinant(self, p):
        # |det S| = 1 on the whole real axis: no stationary points at all
        assert find_cpa(p) == []
        assert min_abs_dets(p) == pytest.approx(1.0, abs=1e-12)

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
