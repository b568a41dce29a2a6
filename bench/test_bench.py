"""Tests of the benchmark itself: seeded inputs, counted failures, tracing."""

import json
from pathlib import Path

import numpy as np
import pytest

import polyhardy
import polyhardy.hardy
from checks import Check, at_most, run_checks, same_output
from measure import Measurement
from tracing import PER_LAYER_METRICS, Tracer
from workloads import WORKLOADS, Task

BENCH_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    generate = WORKLOADS[name].generate
    assert same_output(generate(7), generate(7))
    assert not same_output(generate(7), generate(8))


def test_compress_input_files_repeat(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    WORKLOADS["compress"].setup(3, first)
    WORKLOADS["compress"].setup(3, second)
    files = sorted(p.name for p in first.iterdir())
    assert files and files == sorted(p.name for p in second.iterdir())
    for f in files:
        assert (first / f).read_bytes() == (second / f).read_bytes()


def test_failed_check_is_counted_not_raised():
    def broken_check(_):
        raise RuntimeError("check crashed")

    def failing_task():
        raise ValueError("task crashed")

    tasks = [
        Task("ok", lambda: 1.0, lambda v: [at_most("ok", "test.ok", v, 2.0)]),
        Task("too-big", lambda: 3.0, lambda v: [at_most("too-big", "test.new", v, 2.0)]),
        Task("broken", lambda: 0.0, broken_check),
        Task("raises", failing_task, lambda v: []),
    ]
    m = Measurement(tasks)
    m.run(0.0)
    m.check()
    assert m.attempted == 4
    assert len(m.errors) == 1 and "task crashed" in m.errors[0]
    assert [c.name for c in m.failed_checks] == ["too-big", "broken.check-error:RuntimeError"]
    assert m.fail_share == pytest.approx(2 / 3)
    assert not m.correct


def test_known_defect_is_counted_but_keeps_run_correct():
    # 3x the bound: within the 1000x that the seed's one_plus_z miss is excused up to.
    tasks = [Task("d50", lambda: 3e-15, lambda v: [at_most("d50", "compress.one_plus_z", v, 1e-15)])]
    m = Measurement(tasks)
    m.run(0.0)
    m.check()
    assert m.fail_share == 1.0
    assert m.correct


@pytest.mark.parametrize("kind", ["compress.top_vs_svd", "compress.one_plus_z"])
def test_known_defect_grown_past_its_size_makes_run_incorrect(kind):
    # A norm 1e-9 off where the bound is 1e-14: what a looser stopping rule would give.
    tasks = [Task("top", lambda: 1e-9, lambda v: [at_most("top", kind, v, 1e-14)])]
    m = Measurement(tasks)
    m.run(0.0)
    m.check()
    assert m.fail_share == 1.0
    assert not m.failed_checks[0].known_defect
    assert not m.correct


def test_checks_wait_for_the_timed_passes():
    seen = []
    m = Measurement([Task("t", lambda: 1.0, lambda v: seen.append(v) or [])])
    m.run(0.0)
    assert seen == [] and m.checks == []
    m.check()
    assert seen == [1.0]


def test_changed_output_fails_repeatability():
    outputs = iter([1.0, 2.0])
    m = Measurement([Task("drift", lambda: next(outputs), lambda v: [])])
    m.run(0.0)
    m.run(0.0)
    assert [c.kind for c in m.failed_checks] == ["bench.repeatable"]
    assert not m.correct


def test_run_checks_passes_through_results():
    check = Check("x", "k", True, 0.0, 1.0)
    assert run_checks("t", lambda out: [check], None) == [check]


def test_tracer_nests_spans_and_restores_originals():
    original = polyhardy.hardy.operator_norm
    symbol = polyhardy.PowerSeries.operator(2, {polyhardy.MultiIndex([1]): np.eye(2)})
    grid = polyhardy.TorusGrid(nvars=1, points_per_var=4, radius=0.5)
    tracer = Tracer()
    with tracer:
        assert polyhardy.hardy.operator_norm is not original
        value = polyhardy.hinf_norm(symbol, [grid])
    assert polyhardy.hardy.operator_norm is original
    assert value == pytest.approx(0.5)
    metrics = tracer.pass_metrics()
    assert metrics["hardy.calls"] == 1
    assert metrics["linalg.calls.hardy"] == 4
    assert metrics["hardy.nodes"] == 4
    assert 0 <= metrics["hardy.self_s"] <= metrics["hardy.busy_s"]
    parents = set(tracer.spans["parent"])
    assert parents == {-1, min(tracer.spans["id"])}


def test_benchmark_file_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "task_gmean_ms", "peak_rss_mb"}
