"""CLI end-to-end: configs, outputs, determinism, exit codes."""
import argparse
import cmath
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoport_cmt
from twoport_cmt import ModelParams, critical_loci, fitting
from twoport_cmt.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, HEADERS,
                             build_parser, load_config, main)


# a detuned, lossy model behind a partly transmitting, phased background
ALT_MODEL = ["--gamma-nr", "0.5", "--delta-m", "1.5", "--r-b", "0.7",
             "--theta-b", "0.4"]
ALT_PARAMS = ModelParams(124.5, 3.0, 0.5, 5.0, 8.0, delta_m=1.5)


def run(tmp_path, monkeypatch, argv, outdir=None):
    if outdir is not None:
        monkeypatch.setenv("TWOPORT_CMT_OUTDIR", str(outdir))
    else:
        monkeypatch.delenv("TWOPORT_CMT_OUTDIR", raising=False)
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSpectrum:
    def test_csv_output(self, tmp_path, monkeypatch):
        out = tmp_path / "spec.csv"
        code = run(tmp_path, monkeypatch,
                   ["spectrum", "--output", str(out), "--grid-n", "201"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["spectrum"]
        assert len(rows) == 201
        # sidecar metadata rides along without polluting the table
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["command"] == "spectrum"
        assert meta["config"]["grid"]["n"] == 201

    def test_json_output(self, tmp_path, monkeypatch):
        out = tmp_path / "spec.json"
        code = run(tmp_path, monkeypatch,
                   ["spectrum", "--output", str(out), "--format", "json",
                    "--grid-n", "51"])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["columns"] == HEADERS["spectrum"]
        assert len(doc["rows"]) == 51

    def test_deterministic(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(tmp_path, monkeypatch, ["spectrum", "--output", str(a)])
        run(tmp_path, monkeypatch, ["spectrum", "--output", str(b)])
        assert a.read_text() == b.read_text()

    def test_full_precision_round_trip(self, tmp_path, monkeypatch):
        out = tmp_path / "spec.csv"
        run(tmp_path, monkeypatch, ["spectrum", "--output", str(out),
                                    "--grid-n", "51"])
        _, rows = read_csv(out)
        from twoport_cmt import Background, ModelParams, single_beam_spectrum
        t = single_beam_spectrum(ModelParams(124.5, 3.0, 0.0, 5.0, 8.0),
                                 Background(), np.linspace(105, 145, 51))
        got = np.array([float(r[4]) for r in rows])
        assert np.array_equal(got, t.A1)

    def test_outdir_env(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["spectrum", "--output", "rel.csv", "--grid-n", "51"],
                   outdir=tmp_path)
        assert code == EXIT_OK
        assert (tmp_path / "rel.csv").exists()


class TestConfigHandling:
    def test_config_file_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"gamma_m": 20.0},
                                   "grid": {"n": 101}}))
        out = tmp_path / "s.csv"
        code = run(tmp_path, monkeypatch,
                   ["spectrum", "--config", str(cfg), "--output", str(out)])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["config"]["model"]["gamma_m"] == 20.0

    def test_flag_beats_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"gamma_m": 20.0}}))
        out = tmp_path / "s.csv"
        run(tmp_path, monkeypatch,
            ["spectrum", "--config", str(cfg), "--gamma-m", "7.5",
             "--output", str(out)])
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["config"]["model"]["gamma_m"] == 7.5

    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modle": {"gamma_m": 20.0}}))
        code = run(tmp_path, monkeypatch,
                   ["spectrum", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "modle" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--config", str(tmp_path / "nope.json")]) \
            == EXIT_CONFIG

    def test_invalid_model_value(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--gamma-r", "-1.0"]) == EXIT_CONFIG

    def test_nan_rate_rejected(self, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--gamma-r", "nan", "--output", str(out)]) \
            == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sweep-phase", "--omega", "nan"],
        ["sweep-phase", "--n-phi", "-1"],
        ["sweep-phase", "--n-phi", "0"],
        ["oracle-check", "--n-samples", "-2"],
        ["oracle-check", "--n-samples", "0"],
        ["oracle-check", "--grid-min", "nan"],
        ["cpa", "--tol", "nan"],
        ["cpa", "--tol", "-1"],
        ["synth", "--noise-sigma", "nan"],
        ["synth", "--noise-sigma", "-1"],
        ["phase-diagram", {"phase_diagram": {"x_n": 0}}],
        ["phase-diagram", {"phase_diagram": {"y_n": -1}}],
        ["phase-diagram", {"phase_diagram": {"x_min": "0"}}],
        ["phase-diagram", {"phase_diagram": {"y_max": None}}],
        ["spectrum", {"grid": {"n": "5"}}],
        ["synth", {"grid": {"min": "105"}}],
        ["oracle-check", {"seed": "x"}],
        ["synth", "--seed", "-1"],
    ], ids=lambda argv: " ".join(map(str, argv)))
    def test_bad_command_value_rejected(self, tmp_path, monkeypatch, argv):
        # a trailing dict is written as the --config file
        if isinstance(argv[-1], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], "--config", str(cfg)]
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(tmp_path, monkeypatch,
                   [*argv, "--output", str(outdir / "out.csv")]) == EXIT_CONFIG
        assert list(outdir.iterdir()) == []

    def test_non_finite_dataset_rejected(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        data.write_text("omega_meV,kind,value,sigma\n"
                        "120,R1,0.5,0.01\n121,R1,nan,0.01\n122,R1,0.4,0.01\n")
        out = tmp_path / "fit.json"
        assert run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()


COMMON_FLAGS = [
    "--config", "--output", "--format", "--seed", "--omega0", "--gamma-r",
    "--gamma-nr", "--gamma-m", "--omega-rabi", "--delta-m", "--r-b",
    "--theta-b", "--grid-min", "--grid-max", "--grid-n",
]
EXTRA_FLAGS = {
    "spectrum": [],
    "sweep-phase": ["--omega", "--n-phi"],
    "joint": ["--n-phi"],
    "phase-diagram": [],
    "cpa": ["--tol"],
    "oracle-check": ["--n-samples"],
    "synth": ["--kinds", "--noise-sigma"],
    "fit": ["--data", "--free"],
}
# flag -> (argv values, config path, parsed value)
FLAG_TARGETS = {
    "--output": (["o.csv"], ("output", "path"), "o.csv"),
    "--format": (["json"], ("output", "format"), "json"),
    "--seed": (["7"], ("seed",), 7),
    "--omega0": (["120.5"], ("model", "omega0"), 120.5),
    "--gamma-r": (["1.5"], ("model", "gamma_r"), 1.5),
    "--gamma-nr": (["0.5"], ("model", "gamma_nr"), 0.5),
    "--gamma-m": (["2.5"], ("model", "gamma_m"), 2.5),
    "--omega-rabi": (["6.5"], ("model", "omega_rabi"), 6.5),
    "--delta-m": (["-1.5"], ("model", "delta_m"), -1.5),
    "--r-b": (["0.5"], ("background", "r_b"), 0.5),
    "--theta-b": (["0.25"], ("background", "theta_b"), 0.25),
    "--grid-min": (["100.5"], ("grid", "min"), 100.5),
    "--grid-max": (["150.5"], ("grid", "max"), 150.5),
    "--grid-n": (["11"], ("grid", "n"), 11),
    ("sweep-phase", "--omega"): (["117.5"], ("sweep_phase", "omega"), 117.5),
    ("sweep-phase", "--n-phi"): (["16"], ("sweep_phase", "n_phi"), 16),
    ("joint", "--n-phi"): (["16"], ("joint", "n_phi"), 16),
    ("cpa", "--tol"): (["1e-8"], ("cpa", "tol"), 1e-8),
    ("oracle-check", "--n-samples"): (["3"], ("oracle_check", "n_samples"), 3),
    ("synth", "--kinds"): (["R1", "T"], ("synth", "kinds"), ["R1", "T"]),
    ("synth", "--noise-sigma"): (["0.01"], ("synth", "noise_sigma"), 0.01),
    ("fit", "--data"): (["d.csv"], ("fit", "data"), "d.csv"),
    ("fit", "--free"): (["omega0", "gamma_m"], ("fit", "free"),
                        ["omega0", "gamma_m"]),
}


class TestFlagTable:
    @staticmethod
    def _subparsers():
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_accepted_flags(self):
        subs = self._subparsers()
        assert list(subs) == list(EXTRA_FLAGS)
        for command, extra in EXTRA_FLAGS.items():
            got = [opt for a in subs[command]._actions for opt in a.option_strings
                   if opt not in ("-h", "--help")]
            assert got == COMMON_FLAGS + extra, command

    def test_flag_reaches_config_path(self):
        for command, extra in EXTRA_FLAGS.items():
            base = load_config(build_parser().parse_args([command]))
            for flag in COMMON_FLAGS[1:] + extra:
                values, path, want = FLAG_TARGETS.get((command, flag),
                                                      FLAG_TARGETS.get(flag))
                cfg = load_config(build_parser().parse_args([command, flag, *values]))
                # the flag sets its own config path and nothing else
                expected = json.loads(json.dumps(base))
                node = expected
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = want
                assert cfg == expected, (command, flag)

    def test_parser_built_once(self):
        assert build_parser() is build_parser()


class TestNumericalExit:
    def test_degenerate_grid_point(self, tmp_path, monkeypatch, capsys):
        # lossless coupled model evaluated exactly on its real pole
        out = tmp_path / "s.csv"
        code = run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--gamma-r", "0",
                    "--gamma-m", "0", "--omega0", "124.5",
                    "--grid-min", "116.5", "--grid-max", "132.5",
                    "--grid-n", "3"])
        assert code == EXIT_NUMERICAL
        assert "DegenerateResponseError" in capsys.readouterr().err

    def test_non_converged_fit(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--output", str(data), "--grid-n", "21"]) == EXIT_OK
        real_fit = fitting.fit_params

        def stalled(*args, **kwargs):
            res = real_fit(*args, **kwargs)
            return fitting.FitResult(res.params, res.background, res.residual,
                                     res.n_iter, False, res.param_sigma)

        monkeypatch.setattr(fitting, "fit_params", stalled)
        result = tmp_path / "fit.json"
        code = run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(result)])
        assert code == EXIT_NUMERICAL
        assert json.loads(result.read_text())["converged"] is False
        assert "not converged" in capsys.readouterr().err


class TestSweepPhase:
    def test_sinusoid(self, tmp_path, monkeypatch):
        out = tmp_path / "ph.csv"
        code = run(tmp_path, monkeypatch,
                   ["sweep-phase", "--output", str(out), "--omega", "117.65",
                    "--n-phi", "32"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["sweep-phase"]
        assert len(rows) == 32
        a = np.array([float(r[3]) for r in rows])
        # headline at the absorbance peak: full modulation 0..~0.952
        assert a.max() == pytest.approx(0.952, abs=2e-3)
        assert a.min() == pytest.approx(0.0, abs=2e-3)

    def test_rows_match_closed_form(self, tmp_path, monkeypatch):
        from twoport_cmt import Background, scattering_matrix
        out = tmp_path / "ph.csv"
        assert run(tmp_path, monkeypatch,
                   ["sweep-phase", "--output", str(out), "--omega", "121.3",
                    "--n-phi", "24", *ALT_MODEL]) == EXIT_OK
        _, rows = read_csv(out)
        S = scattering_matrix(ALT_PARAMS, Background(0.7, 0.4), 121.3)
        for k, r in enumerate(rows):
            phi, out1, out2, a = map(float, r)
            assert phi == pytest.approx(2 * math.pi * k / 24, abs=1e-15)
            e = cmath.exp(1j * phi)
            want1 = abs(S.s11 + S.s12 * e) ** 2
            want2 = abs(S.s21 + S.s22 * e) ** 2
            assert (a, out1, out2) == pytest.approx(
                (1 - 0.5 * (want1 + want2), want1, want2), abs=1e-12)


class TestJoint:
    def test_reconstruction_column(self, tmp_path, monkeypatch):
        out = tmp_path / "joint.csv"
        code = run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--grid-n", "51"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["joint"]
        for r in rows:
            direct = float(r[5])
            recon = float(r[6])
            assert recon == pytest.approx(direct, abs=1e-9)

    def test_columns_match_scalar_reference(self, tmp_path, monkeypatch):
        # per-frequency reference: the model-agnostic 2x2 analysis of S
        from twoport_cmt import (Background, ModelParams, delta_psi,
                                 joint_extrema, scattering_matrix)
        out = tmp_path / "joint.csv"
        assert run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--grid-n", "41",
                    "--gamma-nr", "0.5", "--delta-m", "1.5", "--r-b", "0.7",
                    "--theta-b", "0.4"]) == EXIT_OK
        _, rows = read_csv(out)
        p = ModelParams(124.5, 3.0, 0.5, 5.0, 8.0, delta_m=1.5)
        bg = Background(0.7, 0.4)
        for r in rows:
            w, a_min, a_max, a_avg, dpsi, dets, _ = map(float, r)
            S = scattering_matrix(p, bg, w)
            ext = joint_extrema(S)
            assert (a_min, a_max, a_avg) == pytest.approx(
                (ext.a_min, ext.a_max, ext.a_avg), abs=1e-12)
            assert abs(cmath.exp(1j * dpsi) - cmath.exp(1j * delta_psi(S))) < 1e-12
            assert dets == pytest.approx(abs(S.det()), abs=1e-12)

    @pytest.mark.parametrize("n_phi", ["0", "2"])
    def test_too_few_phases_rejected(self, tmp_path, monkeypatch, n_phi):
        out = tmp_path / "joint.csv"
        assert run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--n-phi", n_phi]) \
            == EXIT_CONFIG
        assert not out.exists()

    def test_undefined_dephasing(self, tmp_path, monkeypatch):
        # gamma_r = 0 leaves S = C with tau = 0: no output dephasing exists
        out = tmp_path / "joint.csv"
        assert run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--gamma-r", "0",
                    "--grid-n", "5"]) == EXIT_OK
        _, rows = read_csv(out)
        for r in rows:
            assert math.isnan(float(r[4])) and math.isnan(float(r[6]))
            assert float(r[5]) == pytest.approx(1.0, abs=1e-12)

    def test_undamped_decoupled_matter(self, tmp_path, monkeypatch):
        # Omega = gamma_m = 0 puts an undriven, undamped matter line on the
        # grid point 124.5; S is defined there, |det S| = |g_nr - g_r| / g_c
        out = tmp_path / "joint.csv"
        code = run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--omega0", "124.5",
                    "--gamma-r", "3", "--gamma-nr", "1", "--gamma-m", "0",
                    "--omega-rabi", "0", "--grid-min", "120",
                    "--grid-max", "129", "--grid-n", "3"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[1][0]) == 124.5
        assert float(rows[1][5]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[1][6]) == pytest.approx(0.5, abs=1e-9)


class TestPhaseDiagram:
    def test_grid_and_locus(self, tmp_path, monkeypatch):
        out = tmp_path / "pd.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase_diagram": {
            "x_min": 1.0, "x_max": 7.0, "x_n": 4,
            "y_min": 1.0, "y_max": 7.0, "y_n": 4}}))
        code = run(tmp_path, monkeypatch,
                   ["phase-diagram", "--config", str(cfg),
                    "--output", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["phase-diagram"]
        assert len(rows) == 16
        for r in rows:
            x, y = float(r[0]), float(r[1])
            scc = float(r[3])
            mds = float(r[5])
            assert scc == pytest.approx(y - x, abs=1e-12)
            if x == y:  # strong locus: gamma_m = gamma_r, gamma_nr = 0
                assert mds < 1e-8

    def test_decoupled_cell(self, tmp_path, monkeypatch):
        # at gamma_m = Omega = 0 the matter pole and zero cancel: one
        # Lorentzian dip at omega0 of depth |gamma_nr - gamma_r| / gamma_c
        out = tmp_path / "pd.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"gamma_r": 3.0, "gamma_nr": 1.5},
            "phase_diagram": {"x_param": "gamma_m", "x_min": 0.0,
                              "x_max": 10.0, "x_n": 3,
                              "y_param": "omega_rabi", "y_min": 0.0,
                              "y_max": 10.0, "y_n": 3}}))
        code = run(tmp_path, monkeypatch,
                   ["phase-diagram", "--config", str(cfg),
                    "--output", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        x, y, n_peaks, _, _, mds = rows[0]
        assert float(x) == 0.0 and float(y) == 0.0
        assert int(n_peaks) == 1
        assert float(mds) == pytest.approx(1.5 / 4.5, abs=1e-12)

    def test_n_peaks_column_is_loci_map(self, tmp_path, monkeypatch):
        out = tmp_path / "pd.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"gamma_nr": 0.7, "delta_m": 2.5},
            "phase_diagram": {"x_param": "omega_rabi", "x_min": 0.0,
                              "x_max": 9.0, "x_n": 7, "y_param": "gamma_r",
                              "y_min": 0.0, "y_max": 6.0, "y_n": 5}}))
        code = run(tmp_path, monkeypatch,
                   ["phase-diagram", "--config", str(cfg),
                    "--output", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        m = critical_loci(ModelParams(124.5, 3.0, 0.7, 5.0, 8.0, delta_m=2.5),
                          "omega_rabi", np.linspace(0.0, 9.0, 7),
                          "gamma_r", np.linspace(0.0, 6.0, 5))
        assert [int(r[2]) for r in rows] == m.n_peaks.ravel().tolist()
        assert len(set(m.n_peaks.ravel().tolist())) > 1

    def test_bad_axis_is_config_error(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase_diagram": {"x_param": "omega0"}}))
        assert run(tmp_path, monkeypatch,
                   ["phase-diagram", "--config", str(cfg)]) == EXIT_CONFIG


class TestCpa:
    def test_critical_model(self, tmp_path, monkeypatch):
        out = tmp_path / "cpa.csv"
        code = run(tmp_path, monkeypatch,
                   ["cpa", "--output", str(out), "--gamma-r", "5"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["cpa"]
        assert len(rows) == 2
        want = sorted((124.5 - math.sqrt(39.0), 124.5 + math.sqrt(39.0)))
        got = sorted(float(r[0]) for r in rows)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-8)
        for r in rows:
            assert float(r[1]) < 1e-10
        meta = json.loads((tmp_path / "cpa.csv.meta.json").read_text())
        assert meta["empty_result"] is False

    def test_empty_result_flagged(self, tmp_path, monkeypatch):
        out = tmp_path / "cpa.csv"
        code = run(tmp_path, monkeypatch,
                   ["cpa", "--output", str(out), "--gamma-m", "0",
                    "--gamma-nr", "0"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        meta = json.loads((tmp_path / "cpa.csv.meta.json").read_text())
        assert meta["empty_result"] == (not rows)


class TestOracleCheck:
    def test_agreement_column(self, tmp_path, monkeypatch):
        out = tmp_path / "oc.csv"
        code = run(tmp_path, monkeypatch,
                   ["oracle-check", "--output", str(out), "--seed", "5"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == HEADERS["oracle-check"]
        assert len(rows) == 4
        for r in rows:
            assert float(r[4]) < 1e-6
            assert float(r[4]) == pytest.approx(
                abs(float(r[2]) - float(r[3])), abs=1e-15)

    def test_closed_column_matches_closed_form(self, tmp_path, monkeypatch):
        from twoport_cmt import Background, scattering_matrix
        out = tmp_path / "oc.csv"
        assert run(tmp_path, monkeypatch,
                   ["oracle-check", "--output", str(out), "--seed", "11",
                    "--n-samples", "3", *ALT_MODEL]) == EXIT_OK
        _, rows = read_csv(out)
        # the drives are drawn as (omega, phi) pairs, omega first
        rng = np.random.default_rng(11)
        for r in rows:
            w, phi, closed = map(float, r[:3])
            assert w == rng.uniform(105.0, 145.0)
            assert phi == rng.uniform(-math.pi, math.pi)
            S = scattering_matrix(ALT_PARAMS, Background(0.7, 0.4), w)
            e = cmath.exp(1j * phi)
            assert closed == pytest.approx(
                1 - 0.5 * (abs(S.s11 + S.s12 * e) ** 2
                           + abs(S.s21 + S.s22 * e) ** 2), abs=1e-12)


class TestSynthAndFit:
    def test_pipeline_recovers_params(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        code = run(tmp_path, monkeypatch,
                   ["synth", "--output", str(data), "--kinds", "R1", "T",
                    "A1", "--noise-sigma", "0.003", "--seed", "2",
                    "--grid-n", "81"])
        assert code == EXIT_OK
        header, _ = read_csv(data)
        assert header == HEADERS["synth"]

        result = tmp_path / "fit.json"
        code = run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(result),
                    "--omega0", "122", "--gamma-r", "2", "--gamma-m", "4",
                    "--omega-rabi", "7"])
        assert code == EXIT_OK
        doc = json.loads(result.read_text())
        assert doc["converged"] is True
        assert doc["params"]["omega0"] == pytest.approx(124.5, rel=0.01)
        assert doc["params"]["gamma_r"] == pytest.approx(3.0, rel=0.05)
        assert doc["params"]["gamma_m"] == pytest.approx(5.0, rel=0.05)
        assert doc["params"]["omega_rabi"] == pytest.approx(8.0, rel=0.05)

    def test_synth_determinism(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run(tmp_path, monkeypatch,
                ["synth", "--output", str(path), "--seed", "9",
                 "--grid-n", "21"])
        assert a.read_text() == b.read_text()

    def test_fit_json_independent_of_hash_seed(self, tmp_path):
        # the chi^2 sums over kinds must not follow the order of a set
        env = {k: v for k, v in os.environ.items() if k != "TWOPORT_CMT_OUTDIR"}
        env["PYTHONPATH"] = str(Path(twoport_cmt.__file__).resolve().parents[1])

        def cli(cwd, hash_seed, *argv):
            subprocess.run([sys.executable, "-m", "twoport_cmt.cli", *argv],
                           cwd=cwd, check=True,
                           env={**env, "PYTHONHASHSEED": str(hash_seed)})

        data = tmp_path / "data.csv"
        cli(tmp_path, 0, "synth", "--output", str(data), "--kinds", "R1",
            "T", "A1", "dpsi", "--seed", "4", "--grid-n", "61")
        docs = []
        for hash_seed in (0, 3):
            cwd = tmp_path / f"hash{hash_seed}"
            cwd.mkdir()
            cli(cwd, hash_seed, "fit", "--data", str(data), "--output",
                "fit.json", "--omega0", "123", "--gamma-r", "2.5")
            docs.append((cwd / "fit.json").read_bytes())
        assert docs[0] == docs[1]

    def test_fit_requires_data(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["fit"]) == EXIT_CONFIG

    def test_bad_kind_rejected(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["synth", "--kinds", "bogus"]) == EXIT_CONFIG
