"""Command-line entry points: suites and subcommands run end to end."""

import json

import numpy as np
import pytest

from polyhardy import DirichletSeries, MultiIndex, PowerSeries, save_series
from polyhardy.cli import check_at_least, main, run_verify


class TestDiagonalDistance:
    """The diagonal isometry holds to 1e-12 through both CLI routes."""

    def test_verify_diagonal_passes(self):
        report = run_verify("diagonal", seed=0)
        assert [c.name for c in report.checks] == ["diagonal-distance-identity-gap"]
        assert report.checks[0].tolerance == 1e-12
        assert report.passed, report.checks

    def test_example_sot_passes(self, capsys):
        assert main(["example-sot"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"]
        assert len(report["outputs"]["table"]) == 20

    def test_example_sot_is_the_diagonal_suite(self, capsys):
        assert main(["example-sot", "--pairs", "5", "--seed", "3"]) == 0
        table = json.loads(capsys.readouterr().out)["outputs"]["table"]
        assert table == run_verify("diagonal", pairs=5, seed=3).outputs["table"]


class TestMulnorm:
    def test_check_tolerance_does_not_change_the_schedule(self, tmp_path, capsys):
        A = np.array([[1.0, 2.0], [0.5, -1.0j]])
        F = PowerSeries.operator(2, {MultiIndex(): np.eye(2), MultiIndex([1]): A})
        path = tmp_path / "symbol.json"
        save_series(F, path)
        schedules = []
        for tol in ("1e-12", "1e-2"):
            assert main(["mulnorm", str(path), "--degree", "4", "--tol", tol]) == 0
            schedules.append(json.loads(capsys.readouterr().out)["outputs"]["schedule"])
        assert schedules[0] == schedules[1]


class TestRecover:
    @pytest.mark.parametrize(
        "flags, tolerance, status", [([], 1e-2, 0), (["--tol", "1e-12"], 1e-12, 1)]
    )
    def test_tolerance_default_and_override(self, tmp_path, capsys, flags, tolerance, status):
        path = tmp_path / "d.json"
        save_series(DirichletSeries.vector(1, {2: [3.0], 3: [5.0]}), path)
        assert main(["recover", str(path), "--frequency", "2", *flags]) == status
        report = json.loads(capsys.readouterr().out)
        assert [c["tolerance"] for c in report["checks"]] == [tolerance]


#: Every suite at sizes small enough for the unit tests.
SMALL_SUITES = {
    "bohr": {"limit": 2000, "pairs": 50, "product_pairs": 10},
    "parseval": {"count": 5},
    "cole-gamelin": {"kernel_count": 5, "ineq_count": 10},
    "dilation": {"count": 5},
    "toeplitz": {"count": 5},
    "diagonal": {"pairs": 10},
    "dirichlet": {"count": 5},
    "recover": {},
}


class TestVerify:
    @pytest.mark.parametrize("suite, params", SMALL_SUITES.items())
    def test_every_suite_passes(self, suite, params):
        report = run_verify(suite, seed=1, **params)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report.inputs["seed"] == 1
        assert params.items() <= report.inputs.items()

    def test_recover_checks_cross_term_and_envelope_at_each_window(self):
        report = run_verify("recover")
        assert [c.name for c in report.checks] == [
            f"recovery-{what}-{R}"
            for R in (100, 400, 1600, 10000)
            for what in ("cross-term-gap", "error-envelope")
        ]
        envelopes = [c.tolerance for c in report.checks[1::2]]
        assert envelopes == sorted(envelopes, reverse=True)
        assert envelopes[-1] < 1e-3

    def test_report_lists_the_parameters_used(self):
        assert run_verify("recover", seed=3).inputs == {"seed": 3, "sigma": 2.0}

    def test_unused_parameter_is_named(self):
        with pytest.raises(ValueError, match="sigma"):
            run_verify("dilation", sigma=1.0)

    def test_unused_flags_exit_2(self, capsys):
        assert main(["verify", "bohr", "--degree", "3", "--nvars", "9", "--tol", "5"]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("degree", "nvars", "tol"))


def test_check_at_least_records_its_bound_as_tolerance():
    check = check_at_least("x", 2.0, 1.5)
    assert (check.expected, check.tolerance, check.passed) == (">= 1.5", 1.5, True)
    assert not check_at_least("x", 1.0, 1.5).passed
