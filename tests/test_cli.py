"""Command-line entry points: suites and subcommands run end to end."""

import json
import math

import numpy as np
import pytest

from polyhardy import (
    DirichletSeries,
    MultiIndex,
    PowerSeries,
    TruncationParams,
    bohr,
    h2_norm,
    op_vec_product,
    operator_norm,
    save_series,
    series_from_dict,
)
from polyhardy.cli import check_at_least, main, run_verify


def run(argv, capsys):
    """Exit status and parsed JSON report of one CLI call."""
    status = main([str(a) for a in argv])
    return status, json.loads(capsys.readouterr().out)


@pytest.fixture
def files(tmp_path):
    """Series files: a vector and an operator power series, and their Bohr images."""
    F = PowerSeries.operator(
        2, {MultiIndex(): np.eye(2), MultiIndex([0, 1]): [[0.5, 1j], [0.0, -0.25]]}
    )
    G = PowerSeries.vector(
        2, {MultiIndex([1]): [1.0, 2.0j], MultiIndex([2, 1]): [-0.5, 0.75], MultiIndex(): [0.1, 0.0]}
    )
    series = {"F": F, "G": G, "DF": bohr(F), "DG": bohr(G)}
    paths = {}
    for name, value in series.items():
        paths[name] = tmp_path / f"{name}.json"
        save_series(value, paths[name])
    return series, paths


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
            report = json.loads(capsys.readouterr().out)
            assert [c["tolerance"] for c in report["checks"]] == [float(tol)]
            schedules.append(report["outputs"]["schedule"])
        assert schedules[0] == schedules[1]


class TestTransform:
    @pytest.mark.parametrize("name, other", [("G", "DG"), ("DF", "F")])
    def test_round_trip(self, files, capsys, name, other):
        series, paths = files
        status, report = run(["transform", paths[name]], capsys)
        assert status == 0
        assert [c["name"] for c in report["checks"]] == ["transform-roundtrip-identity"]
        assert series_from_dict(report["outputs"]["series"]) == series[other]


#: Product windows that cut the full product of the ``files`` series.
TRUNCATING_WINDOWS = [("F", "G", ["--degree", "1"]), ("DF", "DG", ["--max-frequency", "5"])]


class TestProduct:
    @pytest.mark.parametrize("left, right", [("F", "G"), ("DF", "DG")])
    def test_evaluation_consistency(self, files, capsys, left, right):
        _, paths = files
        status, report = run(["product", paths[left], paths[right]], capsys)
        assert status == 0
        assert [c["name"] for c in report["checks"]] == ["product-evaluation-consistency"]

    def test_power_product_is_the_full_cauchy_product(self, files, capsys):
        series, paths = files
        F, G = series["F"], series["G"]
        _, report = run(["product", paths["F"], paths["G"]], capsys)
        window = TruncationParams(nvars=2, max_degree=F.total_degree + G.total_degree, dim=2)
        assert series_from_dict(report["outputs"]["series"]) == op_vec_product(F, G, window)

    @pytest.mark.parametrize("left, right, window", TRUNCATING_WINDOWS)
    def test_truncating_window_is_checked(self, files, capsys, left, right, window):
        _, paths = files
        argv = ["product", paths[left], paths[right], *window, "--tol", "5"]
        status, report = run(argv, capsys)
        assert status == 0
        assert [(c["name"], c["tolerance"]) for c in report["checks"]] == [
            ("product-evaluation-consistency", 5.0)
        ]
        assert report["outputs"]["window_gap"] == 0.0
        assert report["outputs"]["evaluation_gap"] < 1e-14

    @pytest.mark.parametrize("left, right, window", TRUNCATING_WINDOWS)
    def test_failing_tolerance_exits_1(self, files, capsys, left, right, window):
        _, paths = files
        argv = ["product", paths[left], paths[right], *window, "--tol", "-1"]
        status, report = run(argv, capsys)
        assert status == 1
        assert not report["checks"][0]["pass"]


class TestNorm:
    def test_h2(self, files, capsys):
        series, paths = files
        for name in ("G", "DG"):
            status, report = run(["norm", "h2", paths[name]], capsys)
            assert status == 0
            assert report["outputs"]["value"] == h2_norm(series[name])

    @pytest.mark.parametrize("flags", [[], ["--grid", "9", "--radius", "1"]])
    def test_hp_at_radius_one_is_parseval(self, files, capsys, flags):
        series, paths = files
        G = series["G"]
        status, report = run(["norm", "hp", paths["G"], *flags], capsys)
        assert status == 0
        assert report["inputs"]["grid"] > 2 * G.total_degree
        assert report["inputs"]["radius"] == 1.0
        assert report["outputs"]["value"] == pytest.approx(h2_norm(G), rel=1e-12)

    def test_hinf_of_constant_symbol_is_its_spectral_norm(self, tmp_path, capsys):
        A = np.array([[1.0, 2.0 - 1j], [0.5j, -1.0]])
        path = tmp_path / "constant.json"
        save_series(PowerSeries.constant(A), path)
        status, report = run(["norm", "hinf", path, "--grid", "8,16", "--radius", "0.5,1"], capsys)
        assert status == 0
        assert report["outputs"]["value"] == pytest.approx(operator_norm(A), rel=1e-14)

    @pytest.mark.parametrize("flag", ["--grid", "--radius"])
    def test_hp_rejects_a_list(self, files, capsys, flag):
        _, paths = files
        values = {"--grid": "7,9", "--radius": "0.5,0.6"}[flag]
        assert main(["norm", "hp", str(paths["G"]), flag, values]) == 2
        assert flag in capsys.readouterr().err


class TestRecover:
    def test_grid_rejects_a_list(self, files, capsys):
        _, paths = files
        assert main(["recover", str(paths["DG"]), "--frequency", "2", "--grid", "4001,8001"]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, tolerance, status", [([], 1e-2, 0), (["--tol", "1e-12"], 1e-12, 1)]
    )
    def test_tolerance_default_and_override(self, tmp_path, capsys, flags, tolerance, status):
        path = tmp_path / "d.json"
        save_series(DirichletSeries.vector(1, {2: [3.0], 3: [5.0]}), path)
        assert main(["recover", str(path), "--frequency", "2", *flags]) == status
        report = json.loads(capsys.readouterr().out)
        assert [c["tolerance"] for c in report["checks"]] == [tolerance]


class TestUnusedFlags:
    """A flag the command does not read exits 2 and is named on stderr."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["transform", "G", "--degree", "3"], "--degree"),
            (["transform", "G", "--tol", "5"], "--tol"),
            (["transform", "G", "--grid", "7"], "--grid"),
            (["transform", "G", "--seed", "1"], "--seed"),
            (["norm", "h2", "G", "--p", "7"], "--p"),
            (["norm", "h2", "G", "--grid", "7"], "--grid"),
            (["norm", "h2", "G", "--radius", "0.5"], "--radius"),
            (["norm", "h2", "G", "--nvars", "2"], "--nvars"),
            (["norm", "hinf", "G", "--p", "3"], "--p"),
            (["product", "F", "G", "--max-frequency", "5"], "--max-frequency"),
            (["product", "DF", "DG", "--nvars", "2"], "--nvars"),
            (["product", "DF", "DG", "--degree", "2"], "--degree"),
            (["mulnorm", "F", "--degrees", "1,2", "--degree", "4"], "--degree"),
            (["mulnorm", "F", "--grid", "7"], "--grid"),
            (["recover", "DG", "--frequency", "2", "--nvars", "2"], "--nvars"),
            *[
                (["verify", "bohr", flag, "1"], flag)
                for flag in ("--p", "--grid", "--radius", "--tol")
            ],
            (["verify", "diagonal", "--degree", "3"], "--degree"),
            *[
                (["example-sot", flag, "1"], flag)
                for flag in ("--p", "--grid", "--radius", "--tol", "--nvars")
            ],
        ],
    )
    def test_exit_2_naming_the_flag(self, files, capsys, argv, flag):
        _, paths = files
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_verify_help_offers_no_unread_flags(self, capsys):
        assert main(["verify", "--help"]) == 0
        for suite in ("parseval", "diagonal", "bohr"):
            assert main(["verify", suite, "--help"]) == 0
        assert main(["example-sot", "--help"]) == 0
        text = capsys.readouterr().out
        assert not any(flag in text for flag in ("--p ", "--grid", "--radius", "--tol"))
        assert all(flag in text for flag in ("--nvars", "--degree", "--dim", "--seed", "--pairs"))


class TestZeroValuedFlags:
    """A flag set to 0 is used, not replaced by its default."""

    def test_mulnorm_degree_zero_is_one_checkpoint(self, files, capsys):
        _, paths = files
        status, report = run(["mulnorm", paths["F"], "--degree", "0"], capsys)
        assert status == 0
        assert report["inputs"]["degrees"] == [0]

    @pytest.mark.parametrize(
        "argv",
        [["mulnorm", "F"], ["norm", "hp", "G"], ["norm", "hinf", "G"], ["product", "F", "G"]],
    )
    def test_nvars_zero_is_rejected(self, files, capsys, argv):
        _, paths = files
        assert main([str(paths.get(a, a)) for a in argv] + ["--nvars", "0"]) == 2
        assert "nvars" in capsys.readouterr().err


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

    def test_toeplitz_endpoint_is_the_closed_form(self):
        report = run_verify("toeplitz", count=5)
        check = report.checks[0]
        closed = 2.0 * math.cos(math.pi / (2 * 50 + 3))
        eps = float(np.finfo(np.float64).eps)
        assert check.name == "toeplitz-endpoint-vs-closed-form"
        assert check.expected == closed
        assert check.tolerance == 51 * eps * closed + 4 * eps
        assert check.passed

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
