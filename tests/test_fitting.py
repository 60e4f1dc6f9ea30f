"""Synthetic datasets and parameter recovery."""
import logging
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from twoport_cmt import (
    Background,
    ModelParams,
    SpectrumDataset,
    fit_params,
    model_values,
    scattering_matrix,
    single_beam_spectrum,
    synth_dataset,
)
from twoport_cmt import cli, fitting, model
from twoport_cmt.model import _defined_elements, _elements_and_grad
from twoport_cmt.twoport import (INTENSITY_KINDS, KINDS, delta_psi,
                                 joint_extrema, observable, observables,
                                 wrap_phase)

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

    def test_integer_noise_gives_float_sigma(self, headline_params, default_bg):
        # the same dataset as the float noise level, sigma column included
        a, b = (synth_dataset(headline_params, default_bg, GRID, ("A1",),
                              sigma, seed=1) for sigma in (1, 1.0))
        assert a.sigma.dtype == b.sigma.dtype == np.float64
        assert np.array_equal(a.value, b.value)

    def test_no_kinds_rejected(self, headline_params, default_bg):
        with pytest.raises(ValueError, match="kinds"):
            synth_dataset(headline_params, default_bg, GRID, (), 0.01, seed=0)

    def test_noise_drawn_kind_by_kind(self, headline_params, default_bg):
        # the noise stream of one draw per kind, in the order of kinds
        kinds, sigma, seed = ("R1", "dpsi"), 0.05, 8
        d = synth_dataset(headline_params, default_bg, GRID, kinds, sigma,
                          seed=seed)
        rng = np.random.default_rng(seed)
        want = []
        for kind in kinds:
            s = _defined_elements(headline_params, default_bg, GRID)
            noisy = observable(*s, kind) + rng.normal(0.0, sigma, GRID.size)
            want.append(np.clip(noisy, 0.0, 1.0) if kind in INTENSITY_KINDS
                        else wrap_phase(noisy))
        assert np.array_equal(d.value, np.concatenate(want))
        assert d.kind == ("R1",) * GRID.size + ("dpsi",) * GRID.size
        assert np.array_equal(d.omega, np.concatenate([GRID, GRID]))

    def test_clipping_keeps_intensities_valid(self, headline_params, default_bg):
        d = synth_dataset(headline_params, default_bg, GRID,
                          ("R1", "R2", "T"), 0.3, seed=7)
        assert d.value.min() >= 0.0
        assert d.value.max() <= 1.0

    def test_csv_round_trip(self, headline_params, default_bg, tmp_path,
                            monkeypatch):
        # `synth` writes the dataset format that `from_csv` reads back; its
        # default model and background are headline_params and default_bg
        d = synth_dataset(headline_params, default_bg, GRID,
                          ("R1", "dpsi"), 0.01, seed=3)
        path = tmp_path / "data.csv"
        monkeypatch.delenv("TWOPORT_CMT_OUTDIR", raising=False)
        assert cli.main(["synth", "--output", str(path), "--kinds", "R1",
                         "dpsi", "--noise-sigma", "0.01", "--seed", "3",
                         "--grid-n", str(GRID.size)]) == cli.EXIT_OK
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


class TestFromCsv:
    HEADER = "omega_meV,kind,value,sigma\n"

    # each body is written with LF, CRLF and LF without the final newline:
    # the split pass reads the first and last, the csv module CRLF and any
    # text with a quote
    LINE_ENDS = (lambda t: t, lambda t: t.replace("\n", "\r\n"),
                 lambda t: t[:-1])

    @staticmethod
    def _outcome(path):
        try:
            return SpectrumDataset.from_csv(path)
        except ValueError as exc:
            return exc

    def _read(self, tmp_path, body):
        """from_csv of the header and body, written with each of LINE_ENDS:
        every variant gives the same columns or the same error, which is
        returned or raised."""
        path = tmp_path / "data.csv"
        outcomes = []
        for end in self.LINE_ENDS:
            path.write_bytes(end(self.HEADER + body).encode())
            outcomes.append(self._outcome(path))
        first = outcomes[0]
        for other in outcomes[1:]:
            assert type(other) is type(first)
            if isinstance(first, ValueError):
                assert str(other) == str(first)
            else:
                assert_same_dataset(other, first)
        if isinstance(first, ValueError):
            raise first
        return first

    @pytest.mark.parametrize("bad,n", [("122,R1,0.4", 3),
                                       ("122,R1,0.4,0.01,7", 5),
                                       # as many commas as 4 fields a line
                                       ("122,R1,0.4\n122.5,R1,0.4,0.01,7", 3)])
    def test_field_count_names_its_row(self, tmp_path, bad, n):
        body = f"120,R1,0.5,0.01\n121,T,0.5,0.01\n{bad}\n123,R1,0.4,0.01\n"
        with pytest.raises(ValueError,
                           match=f"^dataset row 4 has {n} fields, expected 4$"):
            self._read(tmp_path, body)

    def test_row_number_counts_lines(self, tmp_path):
        # a quoted field spanning two lines: the row is named by the line
        # the reader stopped on
        body = '120,R1,0.5,0.01\n121,"T\nx",0.5\n122,R1,0.4,0.01\n'
        with pytest.raises(ValueError, match="^dataset row 4 has 3 fields"):
            self._read(tmp_path, body)

    @pytest.mark.parametrize("bad", ["120,R1,abc,0.01", "120,R1,0.5,",
                                     "1e2x,R1,0.5,0.01"])
    def test_non_numeric_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="could not convert"):
            self._read(tmp_path, f"119,R1,0.5,0.01\n{bad}\n")

    def test_unknown_kind_named(self, tmp_path):
        with pytest.raises(ValueError, match="unknown observable kind 'Q'"):
            self._read(tmp_path, "120,R1,0.5,0.01\n121,Q,0.5,0.01\n"
                                 "122,Z,0.5,0.01\n")

    def test_columns(self, tmp_path):
        d = self._read(tmp_path, "120,R1,0.5,0.01\n119.5,dpsi,-3,1\n")
        assert d.kind == ("R1", "dpsi")
        for col, want in ((d.omega, [120.0, 119.5]), (d.value, [0.5, -3.0]),
                          (d.sigma, [0.01, 1.0])):
            assert col.dtype == np.float64
            assert np.array_equal(col, want)

    @pytest.mark.parametrize("kinds", [("A1", "R1", "T"),
                                       ("A_joint_max", "A_joint_min", "dpsi"),
                                       ("R1", "T", "dpsi")])
    def test_synth_file_round_trip(self, tmp_path, monkeypatch, kinds,
                                   headline_params, default_bg):
        # the fit workload's synth files, read as written (the split pass),
        # as a CRLF copy and with every kind quoted (the csv module): each
        # gives synth_dataset's arrays bit for bit
        monkeypatch.delenv("TWOPORT_CMT_OUTDIR", raising=False)
        path = tmp_path / "synth.csv"
        assert cli.main(["synth", "--grid-min", "105.0", "--grid-max", "145.0",
                         "--grid-n", "201", "--noise-sigma", "0.005",
                         "--seed", "35", "--kinds", *kinds,
                         "--output", str(path)]) == 0
        want = synth_dataset(headline_params, default_bg,
                             np.linspace(105.0, 145.0, 201), kinds, 0.005, 35)
        text = path.read_bytes()
        crlf, quoted = tmp_path / "crlf.csv", tmp_path / "quoted.csv"
        crlf.write_bytes(text.replace(b"\n", b"\r\n"))
        quoted.write_bytes(re.sub(rb"(?m)^([^,]*),([^,]*),",
                                  rb'\1,"\2",', text))
        assert quoted.read_bytes().count(b'"') == 2 * (len(want) + 1)
        csv_columns, by_csv = fitting._csv_columns, []

        def counted(text):
            by_csv.append(text)
            return csv_columns(text)

        monkeypatch.setattr(fitting, "_csv_columns", counted)
        for p, routed in ((path, False), (crlf, True), (quoted, True)):
            assert_same_dataset(SpectrumDataset.from_csv(p), want)
            assert len(by_csv) == routed
            by_csv.clear()


def assert_same_dataset(got, want):
    """got and want hold the same kinds and the same float64 bits."""
    assert got.kind == want.kind
    for name in ("omega", "value", "sigma"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


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
        assert 0.3 < res.chi2_dof < 3.0

    def test_wrong_basin_shows_in_chi2_dof(self, headline_params, default_bg):
        # started at Omega = 0, where dS/dOmega = 0, the fit ends far from
        # the data and still reports convergence
        data = synth_dataset(headline_params, default_bg,
                             np.linspace(105.0, 145.0, 201), ("A1", "R1", "T"),
                             0.005, seed=1)
        res = fit_params(data, ModelParams(122.0, 2.0, 0.0, 4.0, 0.0))
        assert res.chi2_dof > 100
        assert res.chi2_dof == res.residual / (len(data) - 4)

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

    def test_duplicate_free_name(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID, ("R1",),
                             0.0, seed=0)
        with pytest.raises(ValueError, match="duplicate"):
            fit_params(data, headline_params,
                       free=("omega0", "omega0", "gamma_r"))

    def test_empty_free_returns_init(self, headline_params, default_bg):
        data = synth_dataset(headline_params, default_bg, GRID, ("R1",),
                             0.0, seed=0)
        res = fit_params(data, headline_params, free=())
        assert res.params == headline_params
        assert res.residual == pytest.approx(0.0, abs=1e-20)


def _evaluate(p, bg, data, free=()):
    """`_residuals_and_jacobian` on data's own layout."""
    return fitting._residuals_and_jacobian(p, bg, data,
                                           fitting._row_layout(data), free)


def _reference_residuals(p, bg, data):
    """Weighted residuals from `model_values`, one kind at a time."""
    kinds = np.array(data.kind)
    model = np.empty(len(data))
    for kind in set(data.kind):
        rows = kinds == kind
        model[rows] = model_values(p, bg, data.omega[rows], kind)
    r = data.value - model
    r[kinds == "dpsi"] = wrap_phase(r[kinds == "dpsi"])
    return r / data.sigma


class TestResiduals:
    KINDS = ("R1", "T", "dpsi")
    TRIAL = ModelParams(124.0, 2.5, 0.2, 4.5, 7.5, delta_m=0.3)

    def test_one_s_evaluation_per_call(self, headline_params, default_bg,
                                       monkeypatch):
        # one S build on the distinct frequencies for residuals and Jacobian
        data = synth_dataset(headline_params, default_bg, GRID, self.KINDS,
                             0.01, seed=5)
        calls = []

        def counted(p, bg, omega, free):
            calls.append(np.array(omega))
            return _elements_and_grad(p, bg, omega, free)
        monkeypatch.setattr(fitting, "_elements_and_grad", counted)
        _evaluate(self.TRIAL, default_bg, data, fitting.FITTABLE)
        assert len(calls) == 1
        assert np.array_equal(calls[0], GRID)

    def test_row_order_with_interleaved_kinds(self, headline_params,
                                              default_bg):
        data = synth_dataset(headline_params, default_bg, GRID, self.KINDS,
                             0.01, seed=6)
        perm = np.random.default_rng(7).permutation(len(data))
        shuffled = SpectrumDataset(data.omega[perm],
                                   tuple(data.kind[i] for i in perm),
                                   data.value[perm], data.sigma[perm])
        free = ("omega0", "gamma_m", "delta_m")
        want_r, want_j = _evaluate(self.TRIAL, default_bg, data, free)
        got_r, got_j = _evaluate(self.TRIAL, default_bg, shuffled, free)
        assert np.array_equal(got_r, want_r[perm])
        assert np.array_equal(got_j, want_j[perm])

    def test_free_empty_forms_no_gradient(self, headline_params, default_bg,
                                          monkeypatch):
        data = synth_dataset(headline_params, default_bg, GRID, self.KINDS,
                             0.01, seed=5)

        increments = []

        def recorded(s11, s12, s22, kinds, ds=None):
            increments.append(ds)
            return observables(s11, s12, s22, kinds, ds)
        monkeypatch.setattr(fitting, "observables", recorded)
        r, jac = _evaluate(self.TRIAL, default_bg, data)
        assert increments == [None]
        assert _elements_and_grad(self.TRIAL, default_bg, GRID, ())[1] is None
        assert jac.shape == (len(data), 0)
        assert np.array_equal(r, _reference_residuals(self.TRIAL, default_bg,
                                                      data))


class TestMixedLayout:
    """Interleaved kinds, repeated and unsorted frequencies, and kinds on
    different grids: every row is the row a dataset of that row alone
    gives, and its residual the one of `model_values` at that row."""

    P = ModelParams(124.5, 3.0, 0.7, 5.0, 8.0, delta_m=1.5)
    BG = Background(0.8, 0.3)

    def _data(self):
        rng = np.random.default_rng(21)
        coarse = np.linspace(105.0, 145.0, 9)
        fine = np.linspace(118.0, 131.0, 27)
        rows = ([(w, "A1") for w in coarse] + [(w, "dpsi") for w in fine]
                + [(w, "A_joint_max") for w in rng.choice(fine, 12)]
                + [(w, "T") for w in rng.uniform(105.0, 145.0, 10)]
                + [(w, "R2") for w in (130.0, 110.0, 130.0, 130.0)])
        rows = [rows[i] for i in rng.permutation(len(rows))]
        omega = np.array([w for w, _ in rows])
        kind = tuple(k for _, k in rows)
        clean = np.array([model_values(self.P, self.BG, [w], k)[0]
                          for w, k in rows])
        value = clean + rng.normal(0.0, 0.01, omega.size)
        intensity = np.isin(np.array(kind), INTENSITY_KINDS)
        value[intensity] = np.clip(value[intensity], 0.0, 1.0)
        sigma = rng.uniform(0.005, 0.02, omega.size)
        return SpectrumDataset(omega, kind, value, sigma)

    def test_layout(self):
        data = self._data()
        grid, groups = fitting._row_layout(data)
        assert np.array_equal(grid, np.unique(data.omega))
        kinds = [(k, rows, pos) for pos, ks, rs in groups
                 for k, rows in zip(ks, rs)]
        assert sorted(k for k, _, _ in kinds) == sorted(set(data.kind))
        every = np.arange(len(data))
        covered = np.concatenate([every[rows] for _, rows, _ in kinds])
        assert np.array_equal(np.sort(covered), every)
        for kind, rows, pos in kinds:
            assert all(data.kind[i] == kind for i in every[rows])
            assert np.array_equal(grid[pos], data.omega[rows])
        # one group per distinct set of positions
        at = [np.arange(grid.size)[pos].tobytes() for pos, _, _ in groups]
        assert len(set(at)) == len(at)

    def test_runs_index_by_slice(self, headline_params, default_bg):
        # a synth dataset is one group on the whole grid, one run per kind:
        # slices, with the same rows as index arrays give
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "dpsi"), 0.01, seed=4)
        layout = fitting._row_layout(data)
        n = GRID.size
        assert layout[1] == [
            (slice(0, n), ["R1", "dpsi"], [slice(0, n), slice(n, 2 * n)])]
        as_arrays = (layout[0], [(np.arange(n)[pos], kinds,
                                  [np.arange(len(data))[r] for r in rows])
                                 for pos, kinds, rows in layout[1]])
        for got, want in zip(
                fitting._residuals_and_jacobian(self.P, self.BG, data, layout,
                                                fitting.FITTABLE),
                fitting._residuals_and_jacobian(self.P, self.BG, data,
                                                as_arrays, fitting.FITTABLE)):
            assert np.array_equal(got, want)

    def test_rows_match_per_row_reference(self):
        data = self._data()
        trial = replace(self.P, omega0=124.0, omega_rabi=7.5)
        resid, jac = _evaluate(trial, self.BG, data, fitting.FITTABLE)
        for i in range(len(data)):
            w, k = data.omega[i], data.kind[i]
            r = data.value[i] - model_values(trial, self.BG, [w], k)[0]
            if k == "dpsi":
                r = wrap_phase(r)
            assert resid[i] == pytest.approx(r / data.sigma[i], rel=1e-13,
                                             abs=1e-12)
            one = SpectrumDataset(np.array([w]), (k,), data.value[i:i + 1],
                                  data.sigma[i:i + 1])
            r1, j1 = _evaluate(trial, self.BG, one, fitting.FITTABLE)
            assert r1[0] == pytest.approx(resid[i], rel=1e-13, abs=1e-12)
            assert np.abs(j1[0] - jac[i]).max() \
                <= 1e-13 * max(1.0, np.abs(jac[i]).max())


def _ref_abs2(s):
    return np.abs(s) ** 2


def _ref_observable(s11, s12, s22, kind):
    """One kind from the S elements by its own formula, kind by kind."""
    if kind == "dpsi":
        return wrap_phase(np.angle(s11) + np.angle(s22) - 2 * np.angle(s12))
    if kind in ("A_joint_max", "A_joint_min"):
        t = _ref_abs2(s12)
        a_avg = 0.5 * ((1.0 - _ref_abs2(s11) - t) + (1.0 - _ref_abs2(s22) - t))
        z = np.conj(s11) * s12 + np.conj(s12) * s22
        return a_avg + np.abs(z) if kind == "A_joint_max" \
            else a_avg - np.abs(z)
    if kind in ("R1", "R2", "T"):
        return _ref_abs2({"R1": s11, "R2": s22, "T": s12}[kind])
    return 1.0 - _ref_abs2(s11 if kind == "A1" else s22) - _ref_abs2(s12)


def _ref_observable_grad(s11, s12, s22, ds, kind):
    """The derivative of `_ref_observable` along ds, kind by kind."""
    if kind == "dpsi":
        ok = np.minimum(np.minimum(np.abs(s11), np.abs(s22)),
                        np.abs(s12)) >= 1e-9

        def inv(s):
            return 1.0 / np.where(ok, s, 1.0)
        return np.where(ok, np.imag(ds * (inv(s11) + inv(s22) - 2 * inv(s12))),
                        0.0)

    def d_abs2(s):
        return 2 * np.real(np.conj(s) * ds)
    if kind in ("A_joint_max", "A_joint_min"):
        d_avg = -0.5 * (d_abs2(s11) + d_abs2(s22)) - d_abs2(s12)
        z = np.conj(s11) * s12 + np.conj(s12) * s22
        a_mod = np.abs(z)
        flat = a_mod < 1e-15
        dz = np.conj(ds) * (s12 + s22) + (np.conj(s11) + np.conj(s12)) * ds
        d_mod = np.where(flat, 0.0, np.real(np.conj(z) * dz)
                         / np.where(flat, 1.0, a_mod))
        return d_avg + d_mod if kind == "A_joint_max" else d_avg - d_mod
    if kind in ("R1", "R2", "T"):
        return d_abs2({"R1": s11, "R2": s22, "T": s12}[kind])
    return -d_abs2(s11 if kind == "A1" else s22) - d_abs2(s12)


def _ref_elements_and_grad(p, bg, omega, free):
    """S elements and all six rows du/dtheta, then the rows of free."""
    matter, den, bad = model._response_at(p, omega)
    assert not bad.any()
    e_ia = bg.coupling(1.0) ** 2
    d0 = bg.coupling(p.gamma_r)
    u = d0 * d0 * matter / den
    g = p.gamma_r * e_ia / den**2
    rabi2, m2 = p.omega_rabi**2, matter**2
    rows = {
        "omega0": -1j * g * (rabi2 - m2),
        "gamma_r": e_ia * matter / den - g * m2,
        "gamma_nr": -g * m2,
        "gamma_m": g * rabi2,
        "delta_m": -1j * g * rabi2,
        "omega_rabi": -2 * p.omega_rabi * g * matter,
    }
    C = bg.matrix()
    return ((C[0, 0] + u, C[0, 1] + u, C[1, 1] + u),
            np.array([rows[name] for name in free]))


def _ref_residuals_and_jacobian(p, bg, data, free):
    """Residuals and Jacobian with every kind evaluated on its own, its
    rows and grid positions indexed as `_row_layout` indexes them."""
    grid, inverse = np.unique(data.omega, return_inverse=True)
    s, du = _ref_elements_and_grad(p, bg, grid, free)
    kinds = np.array(data.kind)
    resid = np.empty(len(data))
    jac = np.empty((len(data), len(free)))
    for kind in dict.fromkeys(data.kind):
        idx = np.flatnonzero(kinds == kind)
        rows = fitting._run_as_slice(idx)
        pos = fitting._run_as_slice(inverse[idx])
        e = [x[pos] for x in s]
        r = data.value[rows] - _ref_observable(*e, kind)
        resid[rows] = wrap_phase(r) if kind == "dpsi" else r
        if free:
            jac[rows] = _ref_observable_grad(*e, du[:, pos], kind).T
    return resid / data.sigma, -jac / data.sigma[:, None]


class TestBitIdenticalEvaluation:
    """`_residuals_and_jacobian`, with its shared terms and free rows only,
    is bit for bit the evaluation of each kind by its own formula."""

    FREE_SETS = [fitting.FITTABLE, ("omega0", "gamma_r", "gamma_m",
                                    "omega_rabi"),
                 ("delta_m", "gamma_nr"), ("omega_rabi",), ()]
    MODELS = {
        "detuned": (ModelParams(124.5, 3.0, 0.7, 5.0, 8.0, delta_m=1.5),
                    Background(0.8, 0.3)),
        "headline": (ModelParams(124.5, 3.0, 0.0, 5.0, 8.0), Background()),
        "no coupling": (ModelParams(124.5, 3.0, 0.7, 5.0, 0.0, delta_m=1.5),
                        Background()),
        "flat |z|": (ModelParams(124.5, 3.0, 0.0, 0.0, 8.0), Background()),
        "dpsi undefined": (ModelParams(124.5, 0.0, 0.7, 5.0, 8.0),
                           Background()),
    }

    @staticmethod
    def _assert_identical(p, bg, data, free):
        got = _evaluate(p, bg, data, free)
        want = _ref_residuals_and_jacobian(p, bg, data, free)
        assert np.array_equal(got[0], want[0])
        assert got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("free", FREE_SETS)
    @pytest.mark.parametrize("name", MODELS)
    def test_synth_layout(self, name, free):
        p, bg = self.MODELS[name]
        grid = np.linspace(105.0, 145.0, 201)
        s = _defined_elements(p, bg, grid)
        # each model reaches the branch its name says (S = C at gamma_r = 0
        # has no modulation either)
        z = np.conj(s[0]) * s[1] + np.conj(s[1]) * s[2]
        assert (np.abs(z).min() < 1e-15) \
            == (name in ("flat |z|", "dpsi undefined"))
        assert (np.min(np.abs(s), axis=0).min() < 1e-9) \
            == (name == "dpsi undefined")
        data = SpectrumDataset(np.tile(grid, len(KINDS)),
                               tuple(k for k in KINDS for _ in grid),
                               np.zeros(len(KINDS) * grid.size),
                               np.full(len(KINDS) * grid.size, 0.01))
        self._assert_identical(p, bg, data, free)
        for kinds in (("A1", "R1", "T"), ("A_joint_max", "A_joint_min", "dpsi"),
                      ("R1", "T", "dpsi"), ("A2",), ("A_joint_min",)):
            clean = synth_dataset(p, bg, grid, kinds, 0.0, seed=0)
            self._assert_identical(p, bg, clean, free)

    def test_observables_on_unequal_entries(self):
        # s11 != s22, as in no model here: each entry in its own place; the
        # dpsi mask from |s22| where only s22 is tiny, and s12 = 0 (z = 0)
        rng = np.random.default_rng(17)
        s11, s12, s22 = (rng.normal(size=50) + 1j * rng.normal(size=50)
                         for _ in range(3))
        s22[:5] *= 1e-10
        s12[5:8] = 0.0
        ds = rng.normal(size=(3, 50)) + 1j * rng.normal(size=(3, 50))
        for kinds in (KINDS, KINDS[::-1], ("A2", "dpsi"), ("R2", "R2"),
                      ("A_joint_min",), ("T", "A1")):
            values, grads = observables(s11, s12, s22, kinds, ds)
            assert observables(s11, s12, s22, kinds)[1] is None
            for kind, v, g in zip(kinds, values, grads):
                assert np.array_equal(v, _ref_observable(s11, s12, s22, kind))
                assert np.array_equal(
                    g, _ref_observable_grad(s11, s12, s22, ds, kind))

    @pytest.mark.parametrize("free", FREE_SETS)
    def test_mixed_layout(self, free):
        data = TestMixedLayout()._data()
        for p, bg in (self.MODELS["detuned"], self.MODELS["no coupling"],
                      (replace(TestMixedLayout.P, omega0=124.0),
                       TestMixedLayout.BG)):
            self._assert_identical(p, bg, data, free)


class TestJacobian:
    # detuned, with gamma_nr > 0: every term of du/dtheta is nonzero
    DETUNED = ModelParams(124.5, 3.0, 0.7, 5.0, 8.0, delta_m=1.5)
    GRID = np.linspace(105.0, 145.0, 201)

    def _all_kinds(self, p, bg):
        return synth_dataset(p, bg, self.GRID, KINDS, 0.01, seed=0)

    @pytest.mark.parametrize("bg", [Background(), Background(0.8, 0.3)])
    def test_matches_central_differences(self, bg):
        data = self._all_kinds(self.DETUNED, bg)
        jac = _evaluate(self.DETUNED, bg, data, fitting.FITTABLE)[1]
        kinds = np.array(data.kind)
        for j, name in enumerate(fitting.FITTABLE):
            x = getattr(self.DETUNED, name)
            h = 1e-6 * max(1.0, abs(x))
            fd = np.empty(len(data))
            for kind in set(data.kind):
                idx = np.flatnonzero(kinds == kind)
                up, down = (model_values(replace(self.DETUNED, **{name: v}),
                                         bg, data.omega[idx], kind)
                            for v in (x + h, x - h))
                step = wrap_phase(up - down) if kind == "dpsi" else up - down
                fd[idx] = -step / (2 * h) / data.sigma[idx]
            scale = np.abs(jac[:, j]).max()
            assert np.abs(jac[:, j] - fd).max() < 1e-6 * scale, name

    def test_matter_columns_vanish_without_coupling(self, default_bg):
        p = replace(self.DETUNED, omega_rabi=0.0)
        data = self._all_kinds(p, default_bg)
        jac = _evaluate(p, default_bg, data,
                        ("gamma_m", "delta_m", "omega_rabi"))[1]
        assert np.all(jac == 0.0)

    @pytest.mark.parametrize("p", [
        ModelParams(124.5, 3.0, 0.0, 0.0, 8.0),   # lossless: |z| = 0
        ModelParams(124.5, 0.0, 0.7, 5.0, 8.0),   # s12 = 0: dpsi undefined
    ])
    def test_finite_where_joint_or_dpsi_singular(self, default_bg, p):
        data = SpectrumDataset(np.tile(self.GRID, len(KINDS)),
                               tuple(k for k in KINDS for _ in self.GRID),
                               np.zeros(len(KINDS) * self.GRID.size),
                               np.full(len(KINDS) * self.GRID.size, 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jac = _evaluate(p, default_bg, data, fitting.FITTABLE)[1]
        assert np.all(np.isfinite(jac))


class TestSharedEvaluation:
    """A trial point is evaluated once, residuals and Jacobian together."""

    FREE = ("omega0", "gamma_r", "gamma_m", "omega_rabi")
    INIT = ModelParams(122.0, 2.0, 0.0, 4.0, 7.0)

    def _data(self, p, bg, kinds=("A_joint_max", "A_joint_min", "dpsi")):
        return synth_dataset(p, bg, np.linspace(105.0, 145.0, 201), kinds,
                             0.005, seed=2)

    def test_one_s_build_per_residual_call(self, headline_params, default_bg,
                                           monkeypatch):
        data = self._data(headline_params, default_bg)
        calls = {"grad": 0, "defined": 0}

        def grad(*args):
            calls["grad"] += 1
            return _elements_and_grad(*args)

        def defined(*args):
            calls["defined"] += 1
            return _defined_elements(*args)
        monkeypatch.setattr(fitting, "_elements_and_grad", grad)
        monkeypatch.setattr(fitting, "_defined_elements", defined)
        res = fit_params(data, self.INIT, self.FREE)
        assert res.converged
        assert calls == {"grad": res.n_iter, "defined": 0}

    def test_debug_line_per_fit(self, headline_params, default_bg, caplog):
        data = self._data(headline_params, default_bg, ("R1", "T", "dpsi"))
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.fitting"):
            res = fit_params(data, self.INIT, self.FREE)
            fit_params(data, headline_params, free=())
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "twoport_cmt.fitting"]
        assert len(lines) == 2
        fields = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in lines]
        assert fields[0] == {"nfev": str(res.n_iter), "njev": fields[0]["njev"],
                             "rows": "603", "frequencies": "201",
                             "chi2_dof": f"{res.chi2_dof:.6g}",
                             "converged": "True"}
        assert fields[0]["njev"] == fields[0]["nfev"]
        assert fields[1]["nfev"] == fields[1]["njev"] == "0"
        assert fields[1]["frequencies"] == "201"


class TestSolver:
    """The projected Levenberg-Marquardt of `fit_params`."""

    FREE = ("omega0", "gamma_r", "gamma_nr", "gamma_m", "omega_rabi")

    def _spied(self, monkeypatch):
        points = []
        evaluate = fitting._residuals_and_jacobian

        def spy(p, bg, data, layout, free):
            points.append(p)
            return evaluate(p, bg, data, layout, free)
        monkeypatch.setattr(fitting, "_residuals_and_jacobian", spy)
        return points

    @pytest.mark.parametrize("init", [
        ModelParams(122.0, 2.0, 0.5, 4.0, 7.0),
        ModelParams(122.0, 0.2, 3.0, 0.1, 7.0, delta_m=-2.0),
        ModelParams(130.0, 9.0, 0.0, 0.0, 2.0, delta_m=3.0),
    ])
    def test_trial_points_within_bounds(self, headline_params, default_bg,
                                        monkeypatch, init):
        # one evaluation per trial point, each inside the box: rates >= 0,
        # omega0 > 0 (ModelParams would raise otherwise), delta_m free
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=1)
        points = self._spied(monkeypatch)
        res = fit_params(data, init, free=(*self.FREE, "delta_m"))
        assert len(points) == res.n_iter >= 2
        assert points[0] == init
        for p in points:
            assert p.omega0 > 0
            assert min(p.gamma_r, p.gamma_nr, p.gamma_m, p.omega_rabi) >= 0

    def test_start_at_rate_bound(self, headline_params, default_bg,
                                 monkeypatch):
        # gamma_nr starts exactly at its bound, and the data (true gamma_nr
        # = 0, this noise seed) hold the minimum there: the fit converges on
        # the bound, which no trial point crosses
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=1)
        points = self._spied(monkeypatch)
        res = fit_params(data, ModelParams(122.0, 2.0, 0.0, 4.0, 7.0),
                         free=self.FREE)
        assert res.converged
        assert res.params.gamma_nr == 0.0
        assert min(p.gamma_nr for p in points) == 0.0
        for name in ("omega0", "gamma_r", "gamma_m", "omega_rabi"):
            assert getattr(res.params, name) == pytest.approx(
                getattr(headline_params, name), rel=0.02)

    def test_omega_zero_start_within_cap(self, headline_params, default_bg):
        # the Omega (and gamma_m) columns of J are exactly 0 at Omega = 0:
        # the scaling is floored there, the solve stays regular, and the fit
        # stops by tolerance within the evaluation cap, Omega still 0
        data = synth_dataset(headline_params, default_bg,
                             np.linspace(105.0, 145.0, 201), ("A1", "R1", "T"),
                             0.005, seed=1)
        init = ModelParams(122.0, 2.0, 0.0, 4.0, 0.0)
        res = fit_params(data, init)
        assert res.converged
        assert res.n_iter < fitting._MAX_EVALS
        assert res.params.omega_rabi == 0.0
        assert res.params.gamma_m == init.gamma_m
        assert res.chi2_dof > 100

    def test_cap_reported_not_converged(self, headline_params, default_bg,
                                        monkeypatch):
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=1)
        monkeypatch.setattr(fitting, "_MAX_EVALS", 3)
        res = fit_params(data, ModelParams(122.0, 2.0, 0.0, 4.0, 7.0))
        assert res.n_iter == 3
        assert not res.converged
        assert math.isfinite(res.chi2_dof)


class TestFitEquivalence:
    """The analytic Jacobian reaches the fit of scipy's finite-difference
    Jacobian, on the benchmark's three kind sets."""

    @pytest.mark.parametrize("kinds", [("A1", "R1", "T"),
                                       ("A_joint_max", "A_joint_min", "dpsi"),
                                       ("R1", "T", "dpsi")])
    def test_matches_finite_difference_fit(self, headline_params, default_bg,
                                           kinds):
        from scipy.optimize import least_squares
        init = ModelParams(122.0, 2.0, 0.0, 4.0, 7.0)
        free = ("omega0", "gamma_r", "gamma_m", "omega_rabi")
        for seed in range(5):
            data = synth_dataset(headline_params, default_bg,
                                 np.linspace(105.0, 145.0, 201), kinds, 0.005,
                                 seed=seed)
            res = fit_params(data, init, free)
            ref = least_squares(
                lambda x: _reference_residuals(
                    replace(init, **dict(zip(free, x))), default_bg, data),
                [getattr(init, name) for name in free],
                bounds=(0.0, np.inf), method="trf", x_scale="jac")
            ref_sigma = fitting._covariance_sd(ref.jac)
            for name, x, sigma in zip(free, ref.x, ref_sigma):
                assert getattr(res.params, name) == pytest.approx(x, rel=1e-6)
                assert res.param_sigma[name] == pytest.approx(sigma, rel=1e-4)


class TestParamSigma:
    def test_calibrated_on_criterion_8_data(self, headline_params, default_bg):
        # the scatter of each fitted parameter over noise seeds is what
        # param_sigma claims; a diagonal-curvature sd undershoots it up to 1.9x
        grid = np.linspace(105.0, 145.0, 801)
        init = ModelParams(122.0, 2.0, 0.0, 4.0, 7.0)
        names = ("omega0", "gamma_r", "gamma_m", "omega_rabi")
        fits = [fit_params(synth_dataset(headline_params, default_bg, grid,
                                         ("A1",), 0.005, seed=seed), init)
                for seed in range(40)]
        for name in names:
            values = [getattr(res.params, name) for res in fits]
            sigma = np.mean([res.param_sigma[name] for res in fits])
            assert 0.7 <= np.std(values, ddof=1) / sigma <= 1.35, name

    @pytest.mark.parametrize("name", ["gamma_m", "delta_m"])
    def test_unconstrained_parameter_is_inf(self, default_bg, name):
        # with Omega = 0 the matter line drops out of S
        p = ModelParams(124.5, 3.0, 1.0, 5.0, 0.0)
        data = synth_dataset(p, default_bg, GRID, ("R1", "T", "A1"), 0.005,
                             seed=1)
        res = fit_params(data, ModelParams(123.5, 2.5, 1.0, 4.0, 0.0),
                         free=("omega0", "gamma_r", name))
        assert res.converged
        assert res.param_sigma[name] == math.inf
        assert 0 < res.param_sigma["omega0"] < 0.05
        assert 0 < res.param_sigma["gamma_r"] < 0.05

    def test_rate_at_its_bound(self, headline_params, default_bg):
        # true gamma_nr = 0; this noise seed drives the fit onto the bound
        data = synth_dataset(headline_params, default_bg, GRID,
                             ("R1", "T", "A1"), 0.005, seed=1)
        res = fit_params(data, ModelParams(122.0, 2.0, 0.5, 4.0, 7.0),
                         free=("omega0", "gamma_r", "gamma_nr", "gamma_m",
                               "omega_rabi"))
        assert res.converged
        assert res.params.gamma_nr < 1e-9
        assert 0 < res.param_sigma["gamma_nr"] < math.inf

