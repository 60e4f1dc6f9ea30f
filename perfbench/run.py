#!/usr/bin/env python3
"""twoport-cmt benchmark: seeded CLI workloads run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`, and the run fails (exit 2, no result) when that is
missing. One process per run drives `twoport_cmt.cli.main(argv)` with argv
and config files generated from the seed (see workloads.py), checks every
output against references the harness computes itself (reference.py), and
runs whole rounds of ops for at most about S seconds.

Times are host-speed corrected (see hostspeed.py): the reference kernel
runs between consecutive ops and around every set-up probe, and each time
is reported as measured * REF_S / (kernel time around it). The raw seconds
are printed and kept in the run record as well.

--trace 0 reports the end-to-end metrics:
  setup_s       median over SETUP_PROBES fresh processes of the time from
                process start to after `import twoport_cmt.cli` plus one
                fixed warm-up op, corrected by the kernel runs around it
  op_s_p50/p90  wall time per op, corrected by the kernel runs around it
  cpu_per_op_s  process CPU time (user + sys) of all ops / ops, corrected
                by the kernel's CPU time
  peak_rss_mb   ru_maxrss of this process
  ok_frac       ops that passed / ops attempted; an op fails on a non-zero
                exit, an exception or a failed output check
--trace 1 runs each op twice, untraced and then with the tracer installed
(spans.py), for S seconds and reports the per-layer metrics from the traced
runs, per op unless the unit says otherwise; bench.trace_overhead is the
median over ops of traced / untraced wall time - 1.

Every metric is printed by name with its unit and sample count, together
with the machine and package description; the same record goes to
perfbench/_runs/, and the spans of a traced run beside it. The last line of
standard output is the JSON result.
"""
import os

# before numpy loads: one BLAS thread, so BLAS never exceeds nproc and the
# run stays single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from spans import Tracer
from workloads import WORKLOADS, rounds, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_PROBES = 5
REF_SAMPLES = 3
OUTDIR_ENV = "TWOPORT_CMT_OUTDIR"

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
             "cpu_per_op_s": "s", "peak_rss_mb": "MiB", "ok_frac": "1"}
TIMED = ("regimes.critical_loci", "regimes.min_abs_dets", "regimes.count_peaks",
         "regimes.find_cpa", "model.scattering_matrix",
         "model.steady_state_response", "model.single_beam_spectrum",
         "twoport.joint_extrema", "twoport.delta_psi", "twoport.decompose",
         "twoport.dets_from_observables",
         "timedomain.oracle_scattering", "timedomain.integrate",
         "fitting.fit_params", "fitting.synth_dataset", "fitting.model_values",
         "cli.main")
COUNTED = ("model.poles_zeros", "twoport.joint_absorbance",
           "twoport.wrap_phase")
MODULES = ("model", "twoport", "regimes", "timedomain", "fitting", "cli")


def import_cli():
    if not (SRC / "twoport_cmt" / "cli.py").is_file():
        raise FileNotFoundError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import twoport_cmt.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"twoport_cmt imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class OpResult:
    wall: float
    cpu: float
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    # reference kernel's wall and CPU times around the op; REF_S where the
    # op was not measured with the kernel, as in a traced run
    ref_wall: float = hostspeed.REF_S
    ref_cpu: float = hostspeed.REF_S


def run_op(cli, wl, op, index: int, tracer=None, check=True) -> OpResult:
    """Run one op in the current (work) directory, then check its outputs."""
    for name in os.listdir("."):
        os.remove(name)
    input_bytes = write_inputs(op)
    failures = []
    if tracer is not None:
        tracer.install(index)
    stderr = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            for argv in op.argvs:
                rc = cli.main(argv)
                if rc != 0:
                    failures.append(f"{argv[0]} exited with {rc}: "
                                    f"{stderr.getvalue().strip()}")
                    break
    except (Exception, SystemExit) as exc:   # argparse exits on bad argv
        failures.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.remove()
    res = OpResult(wall=t1 - t0, cpu=c1 - c0, failures=failures)
    if failures or not check:
        return res
    try:
        res.failures += wl.check(op)
        if tracer is not None:
            res.counts = wl.count(op)
            res.counts["cli.bytes_written"] = sum(
                os.path.getsize(n) for n in os.listdir(".")) - input_bytes
    except (OSError, ValueError, KeyError, IndexError) as exc:
        res.failures.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return res


def round_ops(wl, seed: int, seconds: float):
    """The seed's ops, in whole rounds; a round starts only if, lasting as
    long as the one before, it would end within `seconds`."""
    gen, t_start, last = rounds(wl.name, seed), time.perf_counter(), 0.0
    while time.perf_counter() - t_start + last <= seconds:
        t_round = time.perf_counter()
        yield from next(gen)
        last = time.perf_counter() - t_round


def measure(cli, wl, seed: int, seconds: float) -> list[OpResult]:
    """Each op of the run, with the mean of the reference kernel's times
    just before and just after it."""
    results = []
    before = hostspeed.sample()
    for i, op in enumerate(round_ops(wl, seed, seconds)):
        res = run_op(cli, wl, op, i)
        after = hostspeed.sample()
        res.ref_wall = (before[0] + after[0]) / 2
        res.ref_cpu = (before[1] + after[1]) / 2
        results.append(res)
        before = after
    return results


def trace_pairs(cli, wl, seed: int, seconds: float, tracer):
    """Each op run untraced, then traced, so the two differ only by tracing."""
    untraced, traced = [], []
    for i, op in enumerate(round_ops(wl, seed, seconds)):
        untraced.append(run_op(cli, wl, op, i))
        traced.append(run_op(cli, wl, op, i, tracer))
    return untraced, traced


def setup_probe(workload: str) -> int:
    """Child process of `setup_times`: import, one warm-up op, say ready."""
    cli = import_cli()
    wl = WORKLOADS[workload]
    with work_dir():
        run_op(cli, wl, wl.warmup, -1, check=False)
        print("ready", flush=True)
    return 0


def setup_times(workload: str) -> list[tuple[float, float]]:
    """(probe wall time, median of the reference kernel's wall times in the
    REF_SAMPLES runs just before and the REF_SAMPLES just after it)."""
    times = []
    for _ in range(SETUP_PROBES):
        refs = [hostspeed.sample()[0] for _ in range(REF_SAMPLES)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload], stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        refs += [hostspeed.sample()[0] for _ in range(REF_SAMPLES)]
        times.append((elapsed, statistics.median(refs)))
    return times


class work_dir:
    """Fresh directory inside the checkout; the cwd and the CLI's output
    directory while it is entered."""

    def __enter__(self):
        self.path = tempfile.mkdtemp(prefix="_work-", dir=HERE)
        os.chdir(self.path)
        os.environ[OUTDIR_ENV] = self.path
        return self.path

    def __exit__(self, *exc):
        os.chdir(ROOT)
        del os.environ[OUTDIR_ENV]
        shutil.rmtree(self.path, ignore_errors=True)


def e2e_metrics(results, setups) -> tuple[dict, dict]:
    """End-to-end metrics as name -> (value, unit, sample count), and the
    same time metrics in raw, uncorrected seconds."""
    scale = hostspeed.REF_S
    walls = [r.wall * scale / r.ref_wall for r in results]
    n = len(results)
    cpu = sum(r.cpu for r in results) * scale / sum(r.ref_cpu for r in results)
    values = {
        "setup_s": (statistics.median(t * scale / ref for t, ref in setups),
                    len(setups)),
        "op_s_p50": (statistics.median(walls), n),
        "op_s_p90": (float(np.percentile(walls, 90)), n),
        "cpu_per_op_s": (cpu, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
        "ok_frac": (sum(not r.failures for r in results) / n, n),
    }
    raw_walls = [r.wall for r in results]
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "op_s_p50": statistics.median(raw_walls),
        "op_s_p90": float(np.percentile(raw_walls, 90)),
        "cpu_per_op_s": sum(r.cpu for r in results) / n,
        "kernel_s_p50": statistics.median(
            [r.ref_wall for r in results] + [ref for _, ref in setups]),
    }
    return {k: (v, E2E_UNITS[k], c) for k, (v, c) in values.items()}, raw


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics as name -> (value, unit, sample count), per op of
    the traced phase unless the unit says otherwise."""
    n = len(traced)
    s = tracer.summary()
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (s[name]["calls"] / n, "count/op")
        out[f"{name}.self_s"] = (s[name]["self_s"] / n, "s/op")
    for name in COUNTED:
        out[f"{name}.calls"] = (s[name]["calls"] / n, "count/op")
    op_time = sum(r.wall for r in traced)
    for mod in MODULES:
        self_s = sum(v["self_s"] for k, v in s.items() if k.startswith(mod + "."))
        out[f"{mod}.self_share"] = (self_s / op_time, "1")

    def count(key):
        return sum(r.counts.get(key, 0) for r in traced)
    out["model.params_built"] = (tracer.params_built / n, "count/op")
    out["regimes.cells"] = (count("regimes.cells") / n, "count/op")
    out["regimes.cpa_points"] = (count("regimes.cpa_points") / n, "count/op")
    steps = count("timedomain.rk4_steps")
    out["timedomain.rk4_steps"] = (steps / n, "count/op")
    oracle_s = s["timedomain.oracle_scattering"]["incl_s"]
    out["timedomain.steps_per_s"] = (steps / oracle_s if oracle_s else 0.0, "1/s")
    out["fitting.iters"] = (count("fitting.iters") / n, "count/op")
    fits = s["fitting.fit_params"]["calls"]
    evals = tracer.calls_under("fitting.model_values", "fitting.fit_params")
    kinds = count("fitting.kinds")
    # each chi^2 evaluation predicts every kind of the dataset once
    out["fitting.evals_per_fit"] = (evals / kinds if fits else 0.0, "count/fit")
    out["cli.bytes_written"] = (count("cli.bytes_written") / n, "B/op")
    out["bench.trace_overhead"] = (statistics.median(
        t.wall / u.wall for t, u in zip(traced, untraced)) - 1.0, "1")
    return {k: (v, u, n) for k, (v, u) in out.items()}


def machine() -> dict:
    import scipy
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown", "caches": [],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "blas_thread_env": {v: os.environ.get(v) for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            info["caches"].append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return info


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twoport_cmt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload not in WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
        if args.setup_probe:
            return setup_probe(args.workload)
        wl = WORKLOADS[args.workload]
        cli = import_cli()
        hostspeed.sample()   # first call pays for lazy set-up in scipy
        setups = [] if args.trace else setup_times(args.workload)
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    import twoport_cmt
    with work_dir():
        run_op(cli, wl, wl.warmup, -1, check=False)
        if args.trace:
            tracer = Tracer()
            results, traced = trace_pairs(cli, wl, args.seed, args.seconds,
                                          tracer)
        else:
            results = measure(cli, wl, args.seed, args.seconds)

    # attempted and failed count the untraced ops; the traced phase reruns
    # the same ops and reports its failures apart
    if args.trace:
        metrics, raw = layer_metrics(tracer, traced, results), {}
    else:
        metrics, raw = e2e_metrics(results, setups)
    failures = [m for r in results for m in r.failures]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "package": {"version": twoport_cmt.__version__, "git_commit": git_commit(),
                    "source_sha256": source_digest()},
        "attempted": len(results), "failed": sum(bool(r.failures) for r in results),
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in metrics.items()},
        "failures": failures[:50],
        "raw_seconds": raw,
        "op_samples": {"columns": ["wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s"],
                       "rows": [[r.wall, r.cpu, r.ref_wall, r.ref_cpu]
                                for r in results]},
        "setup_samples": {"columns": ["wall_s", "ref_wall_s"], "rows": setups},
    }
    if args.trace:
        record["traced_failed"] = sum(bool(r.failures) for r in traced)
    else:
        p90 = metrics["op_s_p90"][0]
        record["samples_beyond_p90"] = sum(
            r.wall * hostspeed.REF_S / r.ref_wall > p90 for r in results)
    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if args.trace:
        tracer.save(f"{stem}-spans.npz")

    for key in ("workload", "seed", "seconds", "trace", "attempted", "failed"):
        print(f"# {key}: {record[key]}")
    for key, val in {**record["machine"], **record["package"]}.items():
        print(f"# {key}: {val}")
    if args.trace:
        print(f"# traced_failed: {record['traced_failed']}")
    else:
        print(f"# samples beyond op_s_p90: {record['samples_beyond_p90']}")
    for key, val in raw.items():
        print(f"# raw (uncorrected) {key}: {val!r} s")
    for msg in failures[:10]:
        print(f"# failure: {msg}")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']} (n={m['n']})")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
