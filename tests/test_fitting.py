"""Synthetic datasets, parameter recovery, |det S| reconstruction."""
import math

import numpy as np
import pytest

from twoport_cmt import (
    Background,
    ModelParams,
    SpectrumDataset,
    estimate_dets_curve,
    fit_params,
    model_values,
    scattering_matrix,
    single_beam_spectrum,
    synth_dataset,
)
from twoport_cmt.twoport import delta_psi, joint_extrema

GRID = np.linspace(105.0, 145.0, 81)


class TestModelValues:
    def test_matches_spectrum_table(self, headline_params, default_bg):
        table = single_beam_spectrum(headline_params, default_bg, GRID)
        for kind in ("R1", "R2", "T", "A1", "A2"):
            got = model_values(headline_params, default_bg, GRID, kind)
            assert np.abs(got - getattr(table, kind)).max() < 1e-14

    def test_joint_kinds_match_extrema(self, headline_params, default_bg):
        amax = model_values(headline_params, default_bg, GRID, "A_joint_max")
        amin = model_values(headline_params, default_bg, GRID, "A_joint_min")
        for i, w in enumerate(GRID[::10]):
            ext = joint_extrema(scattering_matrix(headline_params, default_bg, w))
            assert amax[10 * i] == pytest.approx(ext.a_max, abs=1e-12)
            assert amin[10 * i] == pytest.approx(ext.a_min, abs=1e-12)

    def test_dpsi_matches_decomposition(self, headline_params, default_bg):
        got = model_values(headline_params, default_bg, GRID, "dpsi")
        for i, w in enumerate(GRID[::10]):
            want = delta_psi(scattering_matrix(headline_params, default_bg, w))
            assert got[10 * i] == pytest.approx(want, abs=1e-10)

    def test_unsorted_input_preserved(self, headline_params, default_bg):
        shuffled = np.array([130.0, 110.0, 120.0, 110.0])
        got = model_values(headline_params, default_bg, shuffled, "T")
        assert got[1] == got[3]
        one_by_one = [model_values(headline_params, default_bg, [w], "T")[0]
                      for w in shuffled]
        assert np.abs(got - np.array(one_by_one)).max() < 1e-14

    def test_unknown_kind(self, headline_params, default_bg):
        with pytest.raises(ValueError):
            model_values(headline_params, default_bg, GRID, "Q")


class TestSynthDataset:
    def test_deterministic_in_seed(self, headline_params, default_bg):
        a = synth_dataset(headline_params, default_bg, GRID, ("R1", "T"),
                          0.01, seed=42)
        b = synth_dataset(headline_params, default_bg, GRID, ("R1", "T"),
                          0.01, seed=42)
        c = synth_dataset(headline_params, default_bg, GRID, ("R1", "T"),
                          0.01, seed=43)
        assert np.array_equal(a.value, b.value)
        assert not np.array_equal(a.value, c.value)

    def test_zero_noise_is_clean_model(self, headline_params, default_bg):
        d = synth_dataset(headline_params, default_bg, GRID, ("A1",), 0.0,
                          seed=1)
        clean = model_values(headline_params, default_bg, GRID, "A1")
        assert np.abs(d.value - clean).max() == 0.0
        assert np.all(d.sigma == 1e-3)

    def test_clipping_keeps_intensities_valid(self, headline_params, default_bg):
        d = synth_dataset(headline_params, default_bg, GRID,
                          ("R1", "R2", "T"), 0.3, seed=7)
        assert d.value.min() >= 0.0
        assert d.value.max() <= 1.0

    def test_csv_round_trip(self, headline_params, default_bg, tmp_path):
        d = synth_dataset(headline_params, default_bg, GRID,
                          ("R1", "dpsi"), 0.01, seed=3)
        path = tmp_path / "data.csv"
        d.to_csv(path)
        back = SpectrumDataset.from_csv(path)
        assert np.array_equal(back.omega, d.omega)
        assert back.kind == d.kind
        assert np.array_equal(back.value, d.value)
        assert np.array_equal(back.sigma, d.sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumDataset(np.array([1.0]), ("R1",), np.array([2.0]),
                            np.array([0.1]))
        with pytest.raises(ValueError):
            SpectrumDataset(np.array([1.0]), ("bogus",), np.array([0.5]),
                            np.array([0.1]))
        with pytest.raises(ValueError):
            SpectrumDataset(np.array([1.0]), ("R1",), np.array([0.5]),
                            np.array([0.0]))

    @pytest.mark.parametrize("column,bad", [
        ("value", math.nan), ("value", math.inf), ("sigma", math.nan),
        ("sigma", math.inf),
    ])
    def test_rejects_non_finite(self, column, bad):
        cols = {"value": np.array([0.5, 0.5]), "sigma": np.array([0.1, 0.1])}
        cols[column][1] = bad
        with pytest.raises(ValueError):
            SpectrumDataset(np.array([1.0, 2.0]), ("R1", "dpsi"), **cols)


class TestFitParams:
    def test_noiseless_recovery(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.0, seed=0)
        init = ModelParams(120.0, 2.0, 0.0, 3.0, 6.0)
        res = fit_params(data, init)
        assert res.converged
        for name in ("omega0", "gamma_r", "gamma_m", "omega_rabi"):
            got = getattr(res.params, name)
            want = getattr(headline_params, name)
            assert got == pytest.approx(want, rel=1e-6)
        # frozen parameters pass through bit-identical
        assert res.params.gamma_nr == init.gamma_nr
        assert res.params.delta_m == init.delta_m

    def test_noisy_recovery_within_sigma_scale(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=11)
        init = ModelParams(122.0, 2.0, 0.0, 4.0, 7.0)
        res = fit_params(data, init)
        assert res.converged
        for name in ("omega0", "gamma_r", "gamma_m", "omega_rabi"):
            got = getattr(res.params, name)
            want = getattr(headline_params, name)
            assert abs(got - want) / want < 0.02
            assert res.param_sigma[name] > 0

    def test_residual_scale_matches_noise(self, headline_params, default_bg):
        # chi^2 per point should be O(1) when sigma matches the noise
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=13)
        res = fit_params(data, ModelParams(122.0, 2.0, 0.0, 4.0, 7.0))
        per_point = res.residual / len(data)
        assert 0.3 < per_point < 3.0

    def test_too_few_points(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID[:3], ("R1",),
                             0.0, seed=0)
        with pytest.raises(ValueError):
            fit_params(data, headline_params)

    def test_unknown_free_name(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID, ("R1",),
                             0.0, seed=0)
        with pytest.raises(ValueError):
            fit_params(data, headline_params, free=("r_b",))

    def test_empty_free_returns_init(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID, ("R1",),
                             0.0, seed=0)
        res = fit_params(data, headline_params, free=())
        assert res.params == headline_params
        assert res.residual == pytest.approx(0.0, abs=1e-20)


class TestDetsCurve:
    def test_round_trip_against_model(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "R2", "T", "dpsi"), 0.0, seed=0)
        curve = estimate_dets_curve(data)
        assert curve.skipped == ()
        table = single_beam_spectrum(headline_params, default_bg, GRID)
        assert np.abs(curve.abs_dets - table.abs_dets).max() < 1e-10

    def test_incomplete_rows_skipped(self, headline_params, default_bg):
        full = synth_dataset(headline_params, default_bg, GRID[:5],
                             ("R1", "R2", "T", "dpsi"), 0.0, seed=0)
        # drop the dpsi row of the middle frequency
        keep = [i for i, (w, k) in enumerate(zip(full.omega, full.kind))
                if not (k == "dpsi" and w == GRID[2])]
        data = SpectrumDataset(full.omega[keep],
                               tuple(full.kind[i] for i in keep),
                               full.value[keep], full.sigma[keep])
        curve = estimate_dets_curve(data)
        assert curve.skipped == (GRID[2],)
        assert curve.omega.size == 4
