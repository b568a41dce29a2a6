"""Run every workload on several seeds and summarise the spread of each metric.

Usage, from the repository root::

    python3 bench/baseline.py --seeds 0-9 --seconds 20 --out bench/BASELINE.json

Each (workload, seed) pair is one ``run.py`` process with tracing off;
each workload also gets one traced run on the first seed.  For every
end-to-end metric the summary gives the median over seeds, the quartiles
from ``statistics.quantiles(values, n=4)`` and their distance as a share
of the median, next to the bound that ``BENCHMARK.json`` sets, and the
time of a fixed pure-Python loop taken just before each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _host_loop_s(repeats: int = 5) -> float:
    """Fastest of a few runs of a fixed pure-Python loop.

    Recorded beside every run so that a reader can tell a slower host
    (other tenants of a shared machine) from a slower program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return min(times)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--commit", default=None, help="commit id of the measured program, recorded as given")
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"commit": args.commit, "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        fail_shares, host_loops, correct = [], [], True
        for seed in args.seeds:
            host_loops.append(_host_loop_s())
            result, record = _run(workload, seed, args.seconds, 0)
            correct &= result["correct"]
            fail_shares.append(record["fail_share"])
            summary["environment"] = record["environment"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"correct": correct, "fail_share": statistics.median(fail_shares),
                 "host_loop_s": host_loops, "end_to_end": {}}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "values": vals,
            }
            print(f"{workload:9s} {name:12s} median={median:<10.5g} spread={spread:.4f} "
                  f"bound={bounds[name]}", flush=True)
        result, _ = _run(workload, args.seeds[0], args.seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
