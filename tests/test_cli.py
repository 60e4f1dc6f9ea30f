"""CLI end-to-end: configs, outputs, determinism, exit codes."""
import argparse
import cmath
import csv
import dataclasses
import itertools
import json
import logging
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoport_cmt
from twoport_cmt import ModelParams, cli, critical_loci, fitting
from twoport_cmt.cli import (COMMANDS, DEFAULT_CONFIG, EXIT_CONFIG,
                             EXIT_NUMERICAL, EXIT_OK, HEADERS, build_parser,
                             load_config, main, write_output)


# a detuned, lossy model behind a partly transmitting, phased background
ALT_MODEL = ["--gamma-nr", "0.5", "--delta-m", "1.5", "--r-b", "0.7",
             "--theta-b", "0.4"]
ALT_PARAMS = ModelParams(124.5, 3.0, 0.5, 5.0, 8.0, delta_m=1.5)


def scaled_model(lam, omega0=124.5):
    """Flags of the model (3, 1, 5, 8, delta_m 1.5) with every rate and
    delta_m scaled by lam."""
    return ["--omega0", repr(omega0), *itertools.chain.from_iterable(
        (flag, repr(lam * x)) for flag, x in (
            ("--gamma-r", 3.0), ("--gamma-nr", 1.0), ("--gamma-m", 5.0),
            ("--omega-rabi", 8.0), ("--delta-m", 1.5)))]


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

    def test_undriven_cavity_row_finite(self, tmp_path, monkeypatch):
        # gamma_r = gamma_nr = Omega = 0 leaves S = C on the whole grid, also
        # at the cavity's real pole 124.5
        out = tmp_path / "spec.csv"
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--output", str(out), "--gamma-r", "0",
                    "--gamma-nr", "0", "--omega-rabi", "0", "--grid-min", "120",
                    "--grid-max", "129", "--grid-n", "3"]) == EXIT_OK
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["120", "124.5", "129"]
        assert rows[1] == ["124.5", "1", "1", "0", "0", "0", "0", "1"]
        joint = tmp_path / "joint.csv"
        assert run(tmp_path, monkeypatch,
                   ["joint", "--output", str(joint), "--gamma-r", "0",
                    "--gamma-nr", "0", "--omega-rabi", "0", "--grid-min", "120",
                    "--grid-max", "129", "--grid-n", "3"]) == EXIT_OK
        _, rows = read_csv(joint)
        assert [r[5] for r in rows] == ["1", "1", "1"]

    def test_undriven_cavity_fit_round_trip(self, tmp_path, monkeypatch):
        # `fit` takes the rule of `synth`: the row on the cavity's real pole
        # 124.5 is S = C for both, so the fit of that file exits 0
        undriven = ["--gamma-r", "0", "--gamma-nr", "0", "--omega-rabi", "0",
                    "--grid-min", "120", "--grid-max", "129", "--grid-n", "3"]
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--output", str(data), "--kinds", "R1",
                    *undriven]) == EXIT_OK
        result = tmp_path / "fit.json"
        assert run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(result),
                    "--free", "omega0", *undriven]) == EXIT_OK
        assert json.loads(result.read_text())["converged"] is True

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
        ["cpa", "--r-b", "2"],
        ["phase-diagram", "--theta-b", "nan"],
        ["synth", {"synth": {"kinds": []}}],
        ["synth", {"synth": {"kinds": "A"}}],
        ["spectrum", [1, 2]],
        ["fit", {"fit": {"data": 5}}],
        ["spectrum", {"grid": {"n": 5.7}}],
        ["synth", {"seed": 1.9}],
        ["sweep-phase", {"sweep_phase": {"n_phi": 2.5}}],
        ["joint", {"joint": {"n_phi": 3.0}}],
        ["oracle-check", {"oracle_check": {"n_samples": 4.5}}],
        ["phase-diagram", {"phase_diagram": {"x_n": 6.5}}],
        ["synth", {"synth": {"noise_sigma": True}}],
        ["synth", {"seed": True}],
        ["spectrum", "--format", "xml"],
        ["fit", "--format", "xml"],
        ["fit", {"fit": {"free": [1]}}],
        # a key the subcommand does not read is checked too
        ["cpa", "--grid-n", "1"],
        ["spectrum", {"sweep_phase": {"omega": math.nan}}],
        ["phase-diagram", {"joint": {"n_phi": 2}}],
        # a range the library rejects: settling_time needs damping
        ["oracle-check", "--gamma-r", "0", "--gamma-nr", "0", "--gamma-m", "0"],
    ], ids=lambda argv: " ".join(map(str, argv)))
    def test_bad_command_value_rejected(self, tmp_path, monkeypatch, capsys,
                                        argv):
        # a trailing dict or list is written as the --config file
        if isinstance(argv[-1], (dict, list)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], "--config", str(cfg)]
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(tmp_path, monkeypatch,
                   [*argv, "--output", str(outdir / "out.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv, key", [
        (["cpa", "--grid-n", "1"], "grid.n"),
        (["spectrum", {"sweep_phase": {"omega": math.nan}}],
         "sweep_phase.omega"),
        (["sweep-phase", "--omega", "inf"], "sweep_phase.omega"),
        (["phase-diagram", {"joint": {"n_phi": 2}}], "joint.n_phi"),
        (["synth", "--seed", "-1"], "seed"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(map(str, v)))
    def test_config_error_names_key(self, tmp_path, monkeypatch, capsys, argv,
                                    key):
        # every config value is checked, from a flag or the file, whichever
        # subcommand runs
        if isinstance(argv[-1], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], "--config", str(cfg)]
        out = tmp_path / "out.csv"
        assert run(tmp_path, monkeypatch, [*argv, "--output", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    def test_unopenable_sidecar(self, tmp_path, monkeypatch, capsys):
        # the table is written before its sidecar, and removed again when
        # the sidecar cannot be opened
        (tmp_path / "s.csv.meta.json").mkdir()
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--grid-n", "11", "--output",
                    str(tmp_path / "s.csv")]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["s.csv.meta.json"]

    @pytest.mark.parametrize("command, key, value", [
        ("synth", "synth.noise_sigma", 1),
        ("sweep-phase", "sweep_phase.omega", 117),
        ("spectrum", "grid.min", 105),
    ])
    def test_int_at_float_key(self, tmp_path, monkeypatch, command, key,
                              value):
        # a float key takes a JSON integer and computes with it as the float
        # it equals
        block, name = key.split(".")
        tables = []
        for v in (value, float(value)):
            cfg = tmp_path / f"{v!r}.json"
            cfg.write_text(json.dumps({block: {name: v}}))
            out = tmp_path / f"{v!r}.csv"
            assert run(tmp_path, monkeypatch,
                       [command, "--grid-n", "41", "--config", str(cfg),
                        "--output", str(out)]) == EXIT_OK
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("where", ["output", "outdir"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, where):
        # a directory that does not exist, named in --output or as the
        # output directory of a relative path
        missing = tmp_path / "missing"
        argv = ["spectrum", "--grid-n", "11", "--output",
                str(missing / "s.csv") if where == "output" else "s.csv"]
        assert run(tmp_path, monkeypatch, argv,
                   outdir=missing if where == "outdir" else None) \
            == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path", [1, "", None])
    def test_output_path_must_be_string(self, tmp_path, monkeypatch, capsys,
                                        path):
        # an int would be taken by open() as a file descriptor
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"path": path}}))
        monkeypatch.chdir(tmp_path)
        assert run(tmp_path, monkeypatch, ["spectrum", "--grid-n", "11",
                                           "--config", str(cfg)]) \
            == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "output.path" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unwritable_fit_output(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch, ["synth", "--output", str(data),
                                           "--grid-n", "41"]) == EXIT_OK
        before = sorted(tmp_path.iterdir())
        assert run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output",
                    str(tmp_path / "missing" / "fit.json")]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("text", [
        "omega_meV,kind,value,sigma\n"
        "120,R1,0.5,0.01\n121,R1,nan,0.01\n122,R1,0.4,0.01\n",
        "omega_meV,kind,value,sigma\n120,R1,0.5\n",
        "",
        "omega_meV,kind,value,sigma\n",
        "omega_meV,kind,value,sigma\n"
        + "".join(f"{120 + i},R1,0.5,0.01,0.01\n" for i in range(12)),
        "omega_meV,kind,value,sigma\n120,R1,0.5,0.01\n121,R1,high,0.01\n",
        "omega_meV,kind,value,sigma\n120,R1,0.5,0.01\n121,R1,0.5,wide\n",
    ], ids=["nan value", "3 fields", "empty file", "header only", "5 fields",
            "non-numeric value", "non-numeric sigma"])
    def test_non_finite_dataset_rejected(self, tmp_path, monkeypatch, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "fit.json"
        assert run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--config", "ov.json"],
        ["phase-diagram", "--config", "ov.json", "--delta-m", "1"],
        ["cpa", "--gamma-r", "1e200"],
        ["cpa", "--gamma-r", "1e200", "--delta-m", "1"],
        *([cmd, "--omega-rabi", "1e200"] for cmd in
          ("spectrum", "sweep-phase", "joint", "oracle-check", "synth")),
        ["oracle-check", "--gamma-r", "1e200"],
        ["oracle-check", "--gamma-m", "1e200"],
        *([cmd, "--omega0", "1e200"] for cmd in
          ("spectrum", "sweep-phase", "joint", "oracle-check", "synth")),
    ], ids=["resonant sweep", "detuned sweep", "resonant cpa", "detuned cpa",
            *(f"{cmd} rabi" for cmd in ("spectrum", "sweep-phase", "joint",
                                        "oracle-check", "synth")),
            "oracle gamma_r", "oracle gamma_m",
            *(f"{cmd} omega0" for cmd in ("spectrum", "sweep-phase", "joint",
                                          "oracle-check", "synth"))])
    def test_overflowing_rates_rejected(self, tmp_path, monkeypatch, capsys,
                                        argv):
        # rates whose stationary-polynomial coefficients overflow: exit 2 with
        # one message that names the overflow, no warning and no output file
        (tmp_path / "ov.json").write_text(json.dumps({"phase_diagram": {
            "x_param": "gamma_m", "x_min": 0.0, "x_max": 1e200, "x_n": 3,
            "y_param": "gamma_r", "y_min": 0.0, "y_max": 1e160, "y_n": 3}}))
        monkeypatch.chdir(tmp_path)
        assert run(tmp_path, monkeypatch, argv + ["--output", "out.csv"]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: rates too large")
        assert "overflow" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ov.json"]


    @pytest.mark.parametrize("argv, cause", [
        (["cpa", "--omega0", "1e200"], "rates too small for omega0"),
        (["phase-diagram", "--omega0", "1e200"], "rates too small for omega0"),
        (["cpa", *scaled_model(1e-16)], "rates too small for omega0"),
        (["cpa", *scaled_model(1e-200)], "underflow"),
        (["phase-diagram", *scaled_model(1e-200)], "underflow"),
        *(([cmd, *scaled_model(1e-200)], "D underflows") for cmd in
          ("spectrum", "joint", "synth")),
        (["oracle-check", *scaled_model(1e-200, omega0=1.245e-198),
          "--grid-min", "1.145e-198", "--grid-max", "1.345e-198"], "D underflows"),
    ], ids=["cpa omega0", "phase-diagram omega0", "cpa 1e-16", "cpa 1e-200",
            "phase-diagram 1e-200", "spectrum 1e-200", "joint 1e-200",
            "synth 1e-200", "oracle-check 1e-200"])
    def test_unresolvable_rates_rejected(self, tmp_path, monkeypatch, capsys,
                                         argv, cause):
        # rates below 2^10 ulp of omega0, or so small that G or D underflows:
        # exit 2 with one message that names the cause, no warning and no
        # output file
        monkeypatch.chdir(tmp_path)
        assert run(tmp_path, monkeypatch, argv + ["--output", "out.csv"]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: rates too small")
        assert cause in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestWriter:
    """The bytes of the one table writer, on hand-built columns."""

    def write(self, tmp_path, monkeypatch, fmt, *columns):
        monkeypatch.delenv("TWOPORT_CMT_OUTDIR", raising=False)
        path = tmp_path / f"t.{fmt}"
        cfg = {**DEFAULT_CONFIG, "output": {"path": str(path), "format": fmt}}
        assert write_output(cfg, "synth", *columns) == EXIT_OK
        return path.read_text()

    COLUMNS = (np.array([3, -1, 0, 7, 10**18 + 1]),
               ("A1", "dpsi", "T", "R1", "R2"),
               np.array([0.1, -0.0, 5e-324, math.nan, math.inf]),
               [1.5, 2.0, -math.inf, 1e300, 123456789.0])

    def test_csv_cells(self, tmp_path, monkeypatch):
        assert self.write(tmp_path, monkeypatch, "csv", *self.COLUMNS) == (
            "omega_meV,kind,value,sigma\n"
            "3,A1,0.10000000000000001,1.5\n"
            "-1,dpsi,-0,2\n"
            "0,T,4.9406564584124654e-324,-inf\n"
            "7,R1,nan,1.0000000000000001e+300\n"
            "1000000000000000001,R2,inf,123456789\n")

    def test_empty_table_is_header(self, tmp_path, monkeypatch):
        assert self.write(tmp_path, monkeypatch, "csv", [], [], [], []) \
            == "omega_meV,kind,value,sigma\n"
        doc = json.loads(self.write(tmp_path, monkeypatch, "json",
                                    [], [], [], []))
        assert doc["rows"] == []

    def test_json_cells(self, tmp_path, monkeypatch):
        doc = json.loads(self.write(tmp_path, monkeypatch, "json",
                                    *self.COLUMNS))
        assert doc["columns"] == HEADERS["synth"]
        ints, kinds, _, _ = zip(*doc["rows"])
        assert all(type(v) is float for v in ints)
        assert ints == (3.0, -1.0, 0.0, 7.0, 1e18)
        assert kinds == self.COLUMNS[1]
        values = [row[2] for row in doc["rows"]]
        assert values[:3] == [0.1, -0.0, 5e-324]
        assert math.copysign(1.0, values[1]) == -1.0
        assert math.isnan(values[3]) and values[4] == math.inf

    @staticmethod
    def cell_by_cell(*columns):
        """The CSV body with every cell formatted on its own."""
        cols = [np.asarray(c) for c in columns]
        fmts = [{"i": "%d", "U": "%s"}.get(c.dtype.kind, "%.17g")
                for c in cols]
        return "".join(",".join(f % v for f, v in zip(fmts, row)) + "\n"
                       for row in zip(*(c.tolist() for c in cols)))

    @pytest.mark.parametrize("value, sigma", [
        ([0.1, 0.2, 0.3], [0.005] * 3),                     # constant
        ([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]),               # 0 == -0
        ([-0.0] * 3, [0.0] * 3),
        ([math.nan] * 3, [math.inf] * 3),
        ([-math.inf] * 3, [0.005, 0.005, 0.00500000001]),
        ([5e-324] * 3, [1e300, 1e300, 1e300]),
    ], ids=["constant", "signed zeros", "zeros", "nan and inf", "-inf",
            "extremes"])
    def test_constant_columns_match_cell_by_cell(self, tmp_path, monkeypatch,
                                                 value, sigma):
        # a float column of one bit pattern is formatted once: the bytes are
        # those of formatting every cell, and 0.0 and -0.0 stay apart
        columns = (np.array([4, 4, 4]), ("T", "T", "T"), np.array(value),
                   np.array(sigma))
        text = self.write(tmp_path, monkeypatch, "csv", *columns)
        assert text == ("omega_meV,kind,value,sigma\n"
                        + self.cell_by_cell(*columns))

    def test_signed_zeros_not_merged(self, tmp_path, monkeypatch):
        text = self.write(tmp_path, monkeypatch, "csv", np.array([1, 2, 3]),
                          ("A1", "A1", "A1"), np.array([0.0, -0.0, 0.0]),
                          np.array([-0.0, -0.0, -0.0]))
        assert text.splitlines()[1:] == ["1,A1,0,-0", "2,A1,-0,-0",
                                         "3,A1,0,-0"]

    def test_one_row_table(self, tmp_path, monkeypatch):
        # every float column is constant on one row
        for columns in ((np.array([7]), ("dpsi",), np.array([-0.5]),
                         np.array([0.005])),
                        ([124.5], ("R1",), [math.nan], [1e-3])):
            assert self.write(tmp_path, monkeypatch, "csv", *columns) == (
                "omega_meV,kind,value,sigma\n" + self.cell_by_cell(*columns))
        assert self.write(tmp_path, monkeypatch, "csv", [124.5], ("R1",),
                          [0.25], [1e-3]).splitlines()[1] == "124.5,R1,0.25,0.001"

    @staticmethod
    def text(*columns):
        """The CSV that write_output makes of the columns (a synth table)."""
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            cfg = {**DEFAULT_CONFIG, "output": {"path": path, "format": "csv"}}
            assert write_output(cfg, "synth", *columns) == EXIT_OK
            with open(path, newline="") as fh:
                return fh.read()

    def assert_cell_by_cell(self, *columns):
        # on both sides of the size rule: all rows, and the first few
        small = [np.asarray(c)[:3] for c in columns]
        for cols in (columns, small):
            assert self.text(*cols) == ("omega_meV,kind,value,sigma\n"
                                        + self.cell_by_cell(*cols))

    @staticmethod
    def float_table(values):
        """values as a table of four float columns, of at least
        _KERNEL_MIN_CELLS cells, so that the kernel writes it."""
        v = np.asarray(values, dtype=float)
        v = np.resize(v, max(v.size, -(-cli._KERNEL_MIN_CELLS // 4)))
        return v, -v[::-1], np.roll(v, 1), v * 1e-20

    @given(st.lists(st.floats(), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_floats_match_cell_by_cell(self, values):
        # any float64: subnormals, NaN, +-inf and -0 among them
        self.assert_cell_by_cell(*self.float_table(values))

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_patterns_match_cell_by_cell(self, seed):
        # raw 64-bit patterns over all exponents; 1000 rows take several
        # kernel passes
        bits = np.random.default_rng(seed).integers(
            0, 2 ** 64, (1000, 4), dtype=np.uint64, endpoint=False)
        self.assert_cell_by_cell(*bits.view(np.float64).T)

    def test_powers_of_ten_match_cell_by_cell(self):
        # every decade's 10^k and both of its neighbours, of either sign
        p = np.array([float(f"1e{k}") for k in range(-330, 310)])
        v = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        self.assert_cell_by_cell(*self.float_table(np.concatenate([v, -v])))

    def test_halfway_values_match_cell_by_cell(self):
        # (k + 1/2) 10^(E - 16), 17-digit k, and the doubles on either side:
        # round-half-even at the 17th digit
        rng = np.random.default_rng(7)
        h = np.array([float(f"{k}5e{e - 17}") for k, e in zip(
            rng.integers(10 ** 16, 10 ** 17, 400).tolist(),
            rng.integers(-35, 25, 400).tolist())])
        self.assert_cell_by_cell(*self.float_table(np.concatenate(
            [h, np.nextafter(h, 0), np.nextafter(h, np.inf)])))

    def test_near_ties_past_the_exact_product_match_cell_by_cell(self):
        # below 1e-6 the kernel's x 10^s is exact only to about 3e-15; each
        # x = m 2^q here has x 10^s = (odd / 2) -+ 2^-j exactly, s > 22
        v = []
        for s, j, sign in itertools.product(range(23, 45),
                                            (49, 50, 51, 52, 55, 60), (1, -1)):
            odd = -sign * pow(2 ** j, -1, 5 ** s) % 5 ** s
            odd += 5 ** s * (1 - odd % 2)  # odd 2^j + sign = 0 mod 5^s
            m = (odd * 2 ** j + sign) // 5 ** s
            if m < 2 ** 53:
                v.append(math.ldexp(m, -j - 1 - s))
        assert len(v) >= 10
        self.assert_cell_by_cell(*self.float_table(v + [-x for x in v]))

    def test_range_edges_match_cell_by_cell(self):
        # each side of the kernel's range and of the %g layout changes
        edges = np.array([1e-28, 1e-6, 1e-4, 1.0, 1e16, 1e17])
        below, above = np.nextafter(edges, 0), np.nextafter(edges, np.inf)
        v = np.concatenate([edges, below, np.nextafter(below, 0), above,
                            np.nextafter(above, np.inf)])
        self.assert_cell_by_cell(*self.float_table(np.concatenate([v, -v])))

    @pytest.mark.parametrize("rows", [0, 1, 7, "below", "at", 1000])
    def test_mixed_table_matches_cell_by_cell(self, rows, caplog):
        # int, str and float columns, on both sides of the size rule; the
        # DEBUG line counts the cells each way wrote
        rows = {"below": cli._KERNEL_MIN_CELLS // 4 - 1,
                "at": -(-cli._KERNEL_MIN_CELLS // 4)}.get(rows, rows)
        rng = np.random.default_rng(rows)
        ints = rng.integers(-10 ** 18, 10 ** 18, rows)
        kinds = rng.choice(["A1", "dpsi", "a,b", "100%", "\u00c4", ""], rows)
        values = rng.choice([0.5, -0.0, math.nan, 1e-300, 2.5e-7, 124.5], rows)
        sigma = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        with caplog.at_level(logging.DEBUG, logger="twoport_cmt.cli"):
            text = self.text(ints, kinds, values, sigma)
        assert text == ("omega_meV,kind,value,sigma\n"
                        + self.cell_by_cell(ints, kinds, values, sigma))
        line, = [r.getMessage() for r in caplog.records]
        counts = dict(f.split("=") for f in line.split(": ")[1].split())
        kernel = int(counts["kernel_cells"])
        assert counts["rows"] == str(rows)
        assert kernel + int(counts["percent_cells"]) == 4 * rows
        assert (kernel > 0) == (4 * rows >= cli._KERNEL_MIN_CELLS)

    def test_constant_column_json_unchanged(self, tmp_path, monkeypatch):
        doc = json.loads(self.write(tmp_path, monkeypatch, "json",
                                    np.array([3, 3]), ("A1", "A1"),
                                    np.array([-0.0, -0.0]),
                                    np.array([0.005, 0.005])))
        assert doc["rows"] == [[3.0, "A1", -0.0, 0.005]] * 2
        assert all(math.copysign(1.0, r[2]) == -1.0 for r in doc["rows"])


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

    def test_degenerate_data_frequency(self, tmp_path, monkeypatch, capsys):
        # the lossless model has a real pole at 124.5 - 8.1 = 116.4, a point
        # of the default grid
        lossless = ["--gamma-r", "0", "--gamma-nr", "0", "--gamma-m", "0",
                    "--omega-rabi", "8.1", "--grid-n", "201"]
        synth = tmp_path / "synth.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--output", str(synth), *lossless]) \
            == EXIT_NUMERICAL
        assert not synth.exists()
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--output", str(data), "--kinds", "A1",
                    "--grid-n", "201"]) == EXIT_OK
        result = tmp_path / "fit.json"
        assert run(tmp_path, monkeypatch,
                   ["fit", "--data", str(data), "--output", str(result),
                    "--free", "omega0", *lossless[:-2]]) == EXIT_NUMERICAL
        assert not result.exists()
        assert capsys.readouterr().err.count("DegenerateResponseError") == 2

    def test_oracle_step_budget(self, tmp_path, monkeypatch, capsys):
        # a cavity line of 1e-9 meV would take 6e13 RK4 steps to settle
        out = tmp_path / "oc.csv"
        code = run(tmp_path, monkeypatch,
                   ["oracle-check", "--output", str(out), "--gamma-r", "1e-9",
                    "--gamma-nr", "0", "--gamma-m", "0", "--omega-rabi", "0"])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert "SteadyStateNotConvergedError" in capsys.readouterr().err

    def test_non_converged_fit(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--output", str(data), "--grid-n", "21"]) == EXIT_OK
        real_fit = fitting.fit_params

        def stalled(*args, **kwargs):
            res = real_fit(*args, **kwargs)
            return dataclasses.replace(res, converged=False)

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

    @pytest.mark.parametrize("n_phi", [3, 64])
    def test_phase_fit_is_least_squares(self, tmp_path, monkeypatch, n_phi):
        # the projected output phases against a least-squares fit of
        # A + B sin(phi) + C cos(phi) to every output column
        from twoport_cmt import Background, cli
        from twoport_cmt.model import s_elements
        from twoport_cmt.twoport import two_beam_outputs
        seen, recon = [], cli.dets_from_observables
        monkeypatch.setattr(cli, "dets_from_observables",
                            lambda *a: seen.append(a[3]) or recon(*a))
        out = tmp_path / "joint.csv"
        assert run(tmp_path, monkeypatch,
                   ["joint", "--output", str(out), "--grid-n", "41",
                    "--n-phi", str(n_phi)] + ALT_MODEL) == EXIT_OK
        _, rows = read_csv(out)
        w = np.array([float(r[0]) for r in rows])
        s11, s12, s22, _ = s_elements(ALT_PARAMS, Background(0.7, 0.4), w)
        phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
        _, out1, out2 = two_beam_outputs(s11, s12, s22, phis[:, None])
        design = np.column_stack([np.ones_like(phis), np.sin(phis), np.cos(phis)])
        (_, ps, pc), *_ = np.linalg.lstsq(design, np.hstack([out1, out2]),
                                          rcond=None)
        c1, c2 = np.split(np.arctan2(pc, ps), 2)
        (dpsi,) = seen
        assert np.max(np.abs(np.angle(np.exp(1j * (dpsi - (c2 - c1)))))) < 1e-13

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

    @staticmethod
    def _stacked_reference(p, bg, grid, n_phi):
        """The joint columns as the stacked form computes them: the a_joint
        grid of `two_beam_outputs`, both port tables in one 2n-wide copy,
        projected and split, and the extrema of `two_beam_extrema`."""
        from twoport_cmt.model import _det_s_grid, s_elements
        from twoport_cmt.twoport import (dephasing_defined,
                                         dets_from_observables, observable,
                                         output_dephasing, two_beam_extrema,
                                         two_beam_outputs)
        s11, s12, s22, _ = s_elements(p, bg, grid)
        ext = two_beam_extrema(s11, s12, s22)
        defined = dephasing_defined(s11, s12, s22)
        phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
        _, out1, out2 = two_beam_outputs(s11, s12, s22, phis[:, None])
        out = np.hstack([out1, out2])
        c1, c2 = np.split(np.arctan2(
            np.sum(np.cos(phis)[:, None] * out, axis=0),
            np.sum(np.sin(phis)[:, None] * out, axis=0)), 2)
        recon = dets_from_observables(
            *(observable(s11, s12, s22, k) for k in ("T", "R1", "R2")),
            c2 - c1)
        return [grid, ext.a_min, ext.a_max, ext.a_avg,
                np.where(defined, output_dephasing(s11, s12, s22), math.nan),
                np.abs(_det_s_grid(p, grid)[0]),
                np.where(defined, recon, math.nan)]

    @pytest.mark.parametrize("n_phi", [3, 4, 5, 64, 257])
    def test_columns_bit_identical_to_stacked_form(self, tmp_path,
                                                   monkeypatch, n_phi):
        # one intensity table per port, projected on its own, and the
        # extrema from a_avg -+ |z|: every column equals, bit for bit and
        # NaN for NaN, the stacked form with its a_joint grid and phases
        from twoport_cmt import Background, cli
        seen = []
        monkeypatch.setattr(cli, "write_output",
                            lambda cfg, command, *cols, **meta:
                            seen.append(cols) or EXIT_OK)
        # the joint absorbance over phi is never formed
        monkeypatch.setattr(cli, "two_beam_outputs", None)
        rng = np.random.default_rng(27)
        models = [(ModelParams(124.5, 0.0, 1.0, 5.0, 8.0), Background())]
        for i in range(24):
            rates = rng.uniform(0.0, 10.0, 4)
            delta = float(rng.uniform(-10.0, 10.0)) if i % 2 else 0.0
            bg = (Background(float(rng.uniform(0.0, 1.0)),
                             float(rng.uniform(-math.pi, math.pi)))
                  if i % 3 else Background())
            models.append((ModelParams(float(rng.uniform(100.0, 150.0)),
                                       *rates.tolist(), delta_m=delta), bg))
        for p, bg in models:
            argv = ["joint", "--output", str(tmp_path / "j.csv"),
                    "--grid-n", "41", "--n-phi", str(n_phi),
                    "--r-b", repr(bg.r_b), "--theta-b", repr(bg.theta_b)]
            for name, value in dataclasses.asdict(p).items():
                argv += [f"--{name.replace('_', '-')}", repr(value)]
            assert run(tmp_path, monkeypatch, argv) == EXIT_OK
            (got,) = seen
            seen.clear()
            want = self._stacked_reference(p, bg, np.asarray(got[0]), n_phi)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w, strict=True)
            if p.gamma_r == 0:  # S = C with tau = 0: no dephasing
                assert np.isnan(got[4]).all() and np.isnan(got[6]).all()

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

    @pytest.mark.parametrize("model", [
        ["--gamma-r", "1e13"],
        # quality factors of about 1e9: rates of 1e-7 (3, 1, 5, 8, 1.5)
        ["--gamma-r", "3e-7", "--gamma-nr", "1e-7", "--gamma-m", "5e-7",
         "--omega-rabi", "8e-7", "--delta-m", "1.5e-7"],
    ])
    def test_extreme_scales_finite(self, tmp_path, monkeypatch, model):
        # no field of `cpa`, nor of `spectrum` over the lines, is NaN
        out = tmp_path / "cpa.csv"
        assert run(tmp_path, monkeypatch,
                   ["cpa", "--output", str(out), *model]) == EXIT_OK
        _, rows = read_csv(out)
        assert rows and all(math.isfinite(float(x)) for r in rows for x in r)
        spec = tmp_path / "spec.csv"
        assert run(tmp_path, monkeypatch,
                   ["spectrum", "--output", str(spec), *model, "--grid-min",
                    "124.499998", "--grid-max", "124.500002",
                    "--grid-n", "41"]) == EXIT_OK
        _, rows = read_csv(spec)
        assert all(math.isfinite(float(x)) for r in rows for x in r)

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


    def test_scaled_model_matches_headline(self, tmp_path, monkeypatch):
        # the headline model with every rate, omega0 and the grid scaled by
        # 1e-13 draws the same drives and agrees with the closed form
        rows = {}
        for lam in (1.0, 1e-13):
            out = tmp_path / f"oc{lam}.csv"
            scaled = [f"--{k}={v * lam!r}" for k, v in (
                ("omega0", 124.5), ("gamma-r", 3.0), ("gamma-nr", 0.0),
                ("gamma-m", 5.0), ("omega-rabi", 8.0), ("grid-min", 114.5),
                ("grid-max", 134.5))]
            assert run(tmp_path, monkeypatch, ["oracle-check", "--output",
                                               str(out), *scaled]) == EXIT_OK
            rows[lam] = np.array(read_csv(out)[1], dtype=float)
        assert np.all(rows[1e-13][:, 4] < 1e-6)
        np.testing.assert_allclose(rows[1e-13][:, 0], rows[1.0][:, 0] * 1e-13,
                                   rtol=1e-15)
        np.testing.assert_allclose(rows[1e-13][:, 1:4], rows[1.0][:, 1:4],
                                   rtol=0, atol=1e-13)


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
        assert 0.3 < doc["chi2_dof"] < 3.0
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

    def test_import_leaves_scipy_optimize_unloaded(self, tmp_path):
        # the package needs no scipy: not on import, and not for a fit
        env = {**os.environ, "PYTHONPATH": str(
            Path(twoport_cmt.__file__).resolve().parents[1])}
        env.pop("TWOPORT_CMT_OUTDIR", None)
        code = ("import sys, twoport_cmt.cli; "
                "assert 'scipy.optimize' not in sys.modules; "
                "from twoport_cmt.cli import main; "
                "assert main(['synth', '--grid-n', '41', '--output', "
                "'data.csv']) == 0; "
                "assert main(['fit', '--data', 'data.csv', '--omega0', '122', "
                "'--output', 'fit.json']) == 0; "
                "loaded = [m for m in sys.modules if m.split('.')[0] == "
                "'scipy']; assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       cwd=tmp_path)

    def test_fit_requires_data(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["fit"]) == EXIT_CONFIG

    def test_free_must_be_list(self, tmp_path, monkeypatch, capsys):
        # a string is not read as the list of its letters, nor a number as
        # a parameter name
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch, ["synth", "--output", str(data),
                                           "--grid-n", "41"]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "fit.json"
        for free in ("omega0", ["omega0", 1]):
            cfg.write_text(json.dumps({"fit": {"data": str(data),
                                               "free": free}}))
            assert run(tmp_path, monkeypatch, ["fit", "--config", str(cfg),
                                               "--output", str(out)]) \
                == EXIT_CONFIG
            assert "fit.free must be a list" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_kind_rejected(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["synth", "--kinds", "bogus"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--gamma-r", "--gamma-nr", "--gamma-m"])
    def test_overflowing_jacobian_rejected(self, tmp_path, monkeypatch,
                                           capsys, flag):
        # D is finite, but K / D^2 or matter^2 overflows: exit 2 with one
        # message that names the overflow, no warning and no fit.json
        data = tmp_path / "data.csv"
        assert run(tmp_path, monkeypatch,
                   ["synth", "--kinds", "A1", "R1", "T", "--grid-n", "201",
                    "--output", str(data)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "fit.json"
        assert run(tmp_path, monkeypatch, ["fit", "--data", str(data), flag,
                                           "1e200", "--output", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: rates too large: the derivative of S "
                       "overflows\n")
        assert not out.exists()


def test_readme_cli_block(tmp_path, monkeypatch):
    # each twoport-cmt line of README's CLI block runs, in order; `fit
    # --data data.csv` reads what `synth` wrote, from the current directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI")[1].split("```sh\n")[1].split("```")[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("twoport-cmt ")]
    assert {argv[0] for argv in lines} == set(COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run(tmp_path, monkeypatch, argv, outdir=tmp_path) == EXIT_OK, argv
