"""Closed-loop passes over a task list, with output checks and failure counts."""

from __future__ import annotations

import time

from checks import Check, run_checks, same_output


def run_pass(tasks, tracer=None):
    """One pass, one task at a time: (pass seconds, task seconds, outputs, errors)."""
    task_times, outputs, errors = [], [], []
    start = time.perf_counter()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # noqa: BLE001 - a failed task is counted, the loop goes on
            out = None
            errors.append(f"{task.name}: {type(exc).__name__}: {exc}")
        task_times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, task_times, outputs, errors


class Measurement:
    """Passes of one workload, the checks on their outputs, and the failures.

    Every later pass must reproduce the first pass's outputs bit for bit,
    or a ``bench.repeatable`` check fails.  ``check`` then checks the first
    pass's outputs, after the timed passes, so that the checks' own work
    shows in neither the timings nor the peak memory read before it.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.pass_times: list[float] = []
        self.task_times: list[list[float]] = []  # one row per pass
        self.reference = None
        self.checks: list[Check] = []
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, seconds: float, tracer=None) -> list[dict]:
        """Run passes until ``seconds`` have elapsed, at least one.

        Returns the tracer's per-pass metrics when ``tracer`` is given.
        """
        per_pass = []
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None:
                tracer.new_pass()
            elapsed, task_times, outputs, errors = run_pass(self.tasks, tracer)
            if tracer is not None:
                per_pass.append(tracer.pass_metrics())
            self.pass_times.append(elapsed)
            self.task_times.append(task_times)
            self.attempted += len(self.tasks)
            self.errors.extend(errors)
            if self.reference is None:
                self.reference = outputs
            else:
                for task, ref, out in zip(self.tasks, self.reference, outputs):
                    if out is not None and ref is not None and not same_output(ref, out):
                        self.checks.append(
                            Check(f"{task.name}.repeatable", "bench.repeatable", False, 1.0, 0.0)
                        )
            if time.perf_counter() >= deadline:
                return per_pass

    def check(self) -> None:
        """Check the first pass's outputs; call once, after the last ``run``."""
        for task, out in zip(self.tasks, self.reference):
            if out is not None:
                self.checks.extend(run_checks(task.name, task.check, out))

    @property
    def best_task_times(self) -> list[float]:
        """Each task's fastest run over the passes.

        Interference from other processes only ever slows a run, and on a
        shared machine it comes and goes within seconds, so the fastest of
        many runs is the steadiest estimate of what a task costs.
        """
        return [min(column) for column in zip(*self.task_times)]

    @property
    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    @property
    def fail_share(self) -> float:
        """Failed output checks divided by checks attempted."""
        return len(self.failed_checks) / len(self.checks) if self.checks else 0.0

    @property
    def correct(self) -> bool:
        """No task raised and every failed check is an excused known defect."""
        return not self.errors and all(c.passed or c.known_defect for c in self.checks)
