"""Benchmark for polyhardy: seeded workloads, end-to-end metrics and a traced run.

Usage, from the repository root::

    python3 bench/run.py --workload compress --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --seconds 30          # every workload in turn

One run sets up a workload (import, sieve warm-up, seeded inputs, input
files), then runs its fixed task list in a closed loop, one task at a
time from a single caller with one BLAS thread, until ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json) have passed.  Every later
pass must reproduce the first pass's outputs bit for bit; after the
timed passes those outputs are checked against stated error bounds.
The program is imported from ``src/`` of the checkout that holds this
directory; without it the run exits with status 2 and prints no result.

The last line of stdout is one JSON object.  With ``--trace 0`` it holds
the end-to-end metrics:

* ``setup_s``: median over this process and eight fresh ones of the time
  from the script's first statement to a ready task list;
* ``pass_s``: one pass with every task at its fastest run over the passes;
* ``task_gmean_ms``: geometric mean over the tasks of each task's fastest
  run, so that a faster task of any length lowers it;
* ``peak_rss_mb``: peak resident memory of this process, read before
  the outputs are checked.

Fastest runs, not medians: on a shared machine interference only ever
slows a run and often comes and goes within seconds, so the fastest of
many runs moves least from run to run; slow spells of the whole host
that outlast a run still show between runs.  A geometric mean, not a
median over tasks: the median is one task's time and inherits all of
its noise.  The medians are printed too.

With ``--trace 1`` the run spends half its time untraced and half
traced and reports the per-layer metrics of ``tracing`` instead.
"""

import time

_START = time.perf_counter()  # setup_s counts from here, before any import

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads: on a shared 2-vCPU VM two
# threads made compress passes 1.6x slower and their spread 3x wider.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 8  # fresh processes that repeat set-up, so setup_s is a median of 9
PROBE_TIMEOUT_S = 60


def _import_program():
    """Import polyhardy from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "polyhardy" / "__init__.py").is_file():
        print(f"error: no program at {src / 'polyhardy'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import polyhardy

    if Path(polyhardy.__file__).resolve().parent != (src / "polyhardy").resolve():
        print(f"error: imported polyhardy from {polyhardy.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def _setup(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[workload].setup(seed, workdir)


def _probe_setup(workload: str, seed: int) -> list[float]:
    """Repeat the whole set-up in fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spread_line(label: str, samples: list[float], scale: float = 1.0) -> str:
    """Median, and the highest of p99/p90 that leaves ten samples above it."""
    ordered = sorted(samples)
    line = f"  {label}: n={len(ordered)} p50={statistics.median(ordered) * scale:.6g}"
    for q in (0.99, 0.90):
        if len(ordered) * (1 - q) >= 10:
            line += f" p{round(q * 100)}={ordered[int(q * len(ordered))] * scale:.6g}"
            break
    return line + f" min={ordered[0] * scale:.6g}"


def _end_to_end(measurement, setup_samples: list[float], peak_rss_mb: float) -> dict:
    best = measurement.best_task_times
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "pass_s": _metric(sum(best), "s"),
        "task_gmean_ms": _metric(math.exp(statistics.fmean(math.log(t) for t in best)) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _per_layer(measurement, per_pass: list[dict], untraced_passes: int) -> dict:
    from tracing import PER_LAYER_METRICS

    values = {name: statistics.median(p[name] for p in per_pass) for name, _, _ in PER_LAYER_METRICS}
    values["trace.overhead_s"] = statistics.median(measurement.pass_times[untraced_passes:]) - statistics.median(
        measurement.pass_times[:untraced_passes])
    values["checks.fail_share"] = measurement.fail_share
    return {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER_METRICS}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; print the summary and return the result."""
    from checks import KNOWN_DEFECTS
    from measure import Measurement
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        tasks = _setup(workload, seed, workdir)
        setup_samples = [time.perf_counter() - _START]
        measurement = Measurement(tasks)
        if trace:
            measurement.run(seconds / 2)
            untraced_passes = len(measurement.pass_times)
            with Tracer() as tracer:
                per_pass = measurement.run(seconds / 2, tracer)
            tracer.write_spans(OUT_DIR / f"spans-{workload}.npz", [t.name for t in tasks])
            measurement.check()
            metrics = _per_layer(measurement, per_pass, untraced_passes)
        else:
            measurement.run(seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            measurement.check()
            setup_samples += _probe_setup(workload, seed)
            metrics = _end_to_end(measurement, setup_samples, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": len(measurement.errors),
        "metrics": metrics,
    }
    failed = measurement.failed_checks
    env = environment()
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  tasks/pass {len(tasks)}  "
          f"passes {len(measurement.pass_times)}  correct {result['correct']}")
    print(_spread_line("setup_s over set-ups", setup_samples))
    print(_spread_line("pass_s over passes", measurement.pass_times))
    print(_spread_line("task_ms over task runs", [t for row in measurement.task_times for t in row], 1e3))
    print(f"  fail_share = {measurement.fail_share:.6g} ratio "
          f"({len(failed)} of {len(measurement.checks)} checks failed)")
    for check in failed:
        if check.known_defect:
            tag = "known defect"
        elif check.kind in KNOWN_DEFECTS:
            tag = "KNOWN DEFECT GREW"
        else:
            tag = "NEW FAILURE"
        print(f"    {tag}: {check.name} got={check.got:.6g} bound={check.bound:.6g}")
    for error in measurement.errors:
        print(f"    task error: {error}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  environment " + json.dumps(env))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "fail_share": measurement.fail_share,
              "checks": len(measurement.checks), "task_names": [t.name for t in tasks],
              "pass_times": measurement.pass_times, "task_times": measurement.task_times,
              "setup_samples": setup_samples, "result": result}
    (OUT_DIR / "results").mkdir(exist_ok=True)
    (OUT_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
        try:
            _setup(args.workload, args.seed, workdir)
            print(repr(time.perf_counter() - _START))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
