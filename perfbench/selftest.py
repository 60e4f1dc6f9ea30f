"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the generators are seed-determined, that every output check
passes on a real output and rejects a deliberately corrupted one, that the
package defects the workloads leave out still show, and that the tracer
leaves no wrapper behind. When a defect test fails because the package is
fixed, the workload it names can take the left-out inputs back.
"""
import csv
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from spans import Tracer, package_modules
from workloads import (HEADLINE, KIND_SETS, PAIRS, WORKLOADS, KnownDefect,
                       _fit_op, _oracle_op, _pd_op, _two_beam_op, far_from_ep,
                       rk4_accurate, rounds, sharp_minima)

cli = run.import_cli()


def _edit_csv(path, row, col, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][col] = repr(fn(float(rows[row + 1][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _drop_row(path, row):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    del rows[row + 1]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


class GeneratorTest(unittest.TestCase):
    def _ops(self, name, seed):
        gen = rounds(name, seed)
        return [(op.argvs, op.files) for _ in range(2) for op in next(gen)]

    def test_same_seed_same_argv(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self._ops(name, 7), self._ops(name, 7))
                self.assertNotEqual(self._ops(name, 7), self._ops(name, 8))


class CheckTest(unittest.TestCase):
    """Each corruption is applied to a fresh, passing output."""

    def _run(self, name, op, corruptions):
        wl = WORKLOADS[name]
        for label, corrupt in corruptions.items():
            with self.subTest(workload=name, corruption=label), run.work_dir():
                res = run.run_op(cli, wl, op, 0)
                self.assertEqual(res.failures, [])
                corrupt()
                self.assertNotEqual(wl.check(op), [])

    def test_phase_diagram(self):
        op = _pd_op(dict(HEADLINE, gamma_nr=1.5), "gamma_r", "gamma_m")
        self._run("phase_diagram", op, {
            "min_abs_detS": lambda: _edit_csv("pd.csv", 7, 5, lambda v: v + 1e-7),
            "scc_residual": lambda: _edit_csv("pd.csv", 3, 3, lambda v: v + 1e-9),
            "wcc_residual": lambda: _edit_csv("pd.csv", 20, 4, lambda v: -v - 1),
            "n_peaks": lambda: _edit_csv("pd.csv", 14, 2, lambda v: int(v) + 1),
        })

    def test_oracle(self):
        op = _oracle_op(HEADLINE, 3)
        self._run("oracle", op, {
            "abs_diff": lambda: _edit_csv("oracle.csv", 1, 4, lambda v: 2e-6),
            "a_joint_closed": lambda: _edit_csv("oracle.csv", 2, 2,
                                                lambda v: v + 1e-7),
        })

    def test_fit(self):
        def drift(doc):
            doc["params"]["omega_rabi"] *= 1.03

        def unconverged(doc):
            doc["converged"] = False
        self._run("fit", _fit_op(KIND_SETS[1], 5), {
            "param": lambda: _edit_json("fit.json", drift),
            "converged": lambda: _edit_json("fit.json", unconverged),
            "synth": lambda: _edit_csv("synth.csv", 250, 2, lambda v: v + 0.1),
        })

    def test_two_beam(self):
        op = _two_beam_op(HEADLINE)
        self._run("two_beam", op, {
            "spectrum A1": lambda: _edit_csv("spectrum.csv", 400, 4,
                                             lambda v: v + 1e-8),
            "spectrum abs_detS": lambda: _edit_csv("spectrum.csv", 10, 7,
                                                   lambda v: v * 1.001),
            "joint reconstruction": lambda: _edit_csv("joint.csv", 200, 6,
                                                      lambda v: v + 1e-6),
            "cpa position": lambda: _edit_csv("cpa.csv", 0, 0,
                                              lambda v: v + 1e-3),
            "cpa phase": lambda: _edit_csv("cpa.csv", 0, 2, lambda v: v + 0.5),
            "cpa row lost": lambda: _drop_row("cpa.csv", 0),
        })


class KnownDefectTest(unittest.TestCase):
    """The inputs the workloads leave out still fail in the package."""

    def test_decoupled_cell(self):
        self.assertNotIn(("gamma_m", "omega_rabi"), PAIRS)
        op = _pd_op(dict(HEADLINE, gamma_nr=1.5), "gamma_m", "omega_rabi")
        with run.work_dir():
            res = run.run_op(cli, WORKLOADS["phase_diagram"], op, 0)
        self.assertNotEqual(res.failures, [])
        for msg in res.failures:
            self.assertIsInstance(msg, KnownDefect)
            self.assertIn("gamma_m=0 omega_rabi=0:", msg)

    def test_exceptional_point(self):
        # rabi 0.3% above the exceptional point |g_c - g_m| / 2 = 3.2455
        m = {"omega0": 91.3154829449834, "gamma_r": 4.195793913665508,
             "gamma_nr": 3.0594197833593917, "gamma_m": 0.7642327028424322,
             "omega_rabi": 3.2570772924342926}
        self.assertFalse(far_from_ep(m["gamma_r"] + m["gamma_nr"],
                                     m["gamma_m"], m["omega_rabi"]))
        with run.work_dir():
            res = run.run_op(cli, WORKLOADS["oracle"],
                             _oracle_op(m, 1594274725), 0)
        self.assertEqual(len(res.failures), 1)
        self.assertIn("SteadyStateNotConvergedError", res.failures[0])

    def test_narrow_resonance(self):
        # the third drive, 155.83 meV, is near the upper polariton at
        # omega0 + 5.2 meV, where the RK4 error in a_joint is 1.03e-6
        m = {"omega0": 149.91183775183035, "gamma_r": 1.333242228156058,
             "gamma_nr": 0.5188585837851666, "gamma_m": 1.9734986580916685,
             "omega_rabi": 5.21931687961343}
        self.assertTrue(far_from_ep(m["gamma_r"] + m["gamma_nr"],
                                    m["gamma_m"], m["omega_rabi"]))
        self.assertFalse(rk4_accurate(m))
        with run.work_dir():
            res = run.run_op(cli, WORKLOADS["oracle"],
                             _oracle_op(m, 525081881), 0)
        self.assertEqual(len(res.failures), 1)
        self.assertRegex(res.failures[0], r"^row 2: abs_diff \S+ >= 1e-6$")

    def test_flat_cpa_minimum(self):
        # |det S|^2 has a relative curvature of 2.4e-5 / meV^2 at omega0
        m = {"omega0": 124.5, "gamma_r": 0.6226529276393951,
             "gamma_nr": 5.478615128253235, "gamma_m": 5.571158038603096,
             "omega_rabi": 3.2244856975138823}
        self.assertFalse(sharp_minima(m))
        with run.work_dir():
            res = run.run_op(cli, WORKLOADS["two_beam"], _two_beam_op(m), 0)
        self.assertEqual(len(res.failures), 1)
        self.assertIn("is not the reference minimum at", res.failures[0])


class TracerTest(unittest.TestCase):
    def _snapshot(self):
        snap = {(mod.__name__, attr): val for mod in package_modules()
                for attr, val in vars(mod).items()}
        cls = sys.modules["twoport_cmt.model"].ModelParams
        snap["post_init"] = cls.__dict__["__post_init__"]
        return snap

    def test_wrappers_removed(self):
        before = self._snapshot()
        tracer = Tracer()
        wl = WORKLOADS["two_beam"]
        with run.work_dir():
            res = run.run_op(cli, wl, wl.warmup, 0, tracer)
        self.assertEqual(res.failures, [])
        summary = tracer.summary()
        self.assertEqual(summary["cli.main"]["calls"], 3)
        self.assertEqual(summary["regimes.find_cpa"]["calls"], 1)
        self.assertGreater(summary["twoport.joint_absorbance"]["calls"], 0)
        self.assertGreater(tracer.params_built, 0)
        after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, val in before.items():
            self.assertIs(after[key], val, key)
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        emitted = {k: u for k, (_v, u, _n) in
                   run.layer_metrics(tracer, [res], [res]).items()}
        self.assertEqual(emitted, {m["name"]: m["unit"]
                                   for m in declared["per_layer"]})
        self.assertEqual(run.E2E_UNITS, {m["name"]: m["unit"]
                                         for m in declared["end_to_end"]})


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_package_source(self):
        tmp = Path(tempfile.mkdtemp(prefix="_work-", dir=run.HERE))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            (tmp / "perfbench").mkdir()
            for path in run.HERE.glob("*.py"):
                shutil.copy(path, tmp / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oracle",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
