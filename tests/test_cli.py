"""Command-line entry points: suites and subcommands run end to end."""

import importlib
import json
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhardy
from conftest import NON_DYADIC, assert_same_bits, random_power_series, small_indices, terms
from polyhardy import (
    DirichletSeries,
    MultiIndex,
    PowerSeries,
    TruncationParams,
    bohr,
    bohr_inverse,
    dirichlet_product,
    h2_norm,
    op_vec_product,
    operator_norm,
    save_series,
    series_from_dict,
    simplex,
    truncate,
)
from polyhardy import cli
from polyhardy._linalg import _U, _operator_norm_rounding
from polyhardy.cli import (
    _coefficient_gap,
    _recovery_envelope,
    check_each,
    main,
    run_verify,
)
from polyhardy.multiplier import _schedule_error_bound
from polyhardy.series import _scaled


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


class TestCheckEach:
    def test_shows_a_value_beyond_its_own_bound(self):
        # 0.5 is below the largest bound but not below its own
        check = check_each("c", [(1.0, 2.0), (0.5, 0.1), (0.2, 0.3)])
        assert (check.got, check.tolerance, check.passed) == (0.5, 0.1, False)

    def test_shows_the_largest_value_when_every_one_passes(self):
        check = check_each("c", [(0.2, 0.3), (1.0, 2.0), (-5.0, 0.0)])
        assert (check.got, check.tolerance, check.passed) == (1.0, 2.0, True)
        assert check_each("c", []).passed

    def test_nan_fails(self):
        assert not check_each("c", [(1.0, 2.0), (math.nan, 1.0)]).passed


class TestDiagonalDistance:
    """The diagonal isometry holds within the rounding operator_norm states
    and one ulp of |w - w'|, through both CLI routes."""

    def test_verify_diagonal_passes(self):
        report = run_verify("diagonal", seed=0)
        assert [c.name for c in report.checks] == ["diagonal-distance-identity-gap"]
        check = report.checks[0]
        shown = [
            _operator_norm_rounding(16) * row["operator_distance"] + 2 * _U * row["uniform_distance"]
            for row in report.outputs["table"]
            if abs(row["operator_distance"] - row["uniform_distance"]) == check.got
        ]
        assert check.tolerance in shown
        assert report.passed, report.checks

    def test_example_sot_passes(self, capsys):
        assert main(["example-sot"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"]
        assert len(report["outputs"]["table"]) == 100

    def test_example_sot_is_the_diagonal_suite(self, capsys):
        assert main(["example-sot", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        suite = run_verify("diagonal", seed=3)
        assert (report["inputs"], report["outputs"]["table"]) == (suite.inputs, suite.outputs["table"])

    @pytest.mark.parametrize("out", ["missing/report.json", "."])
    def test_unwritable_out_exits_2_naming_it(self, tmp_path, capsys, out):
        # a missing directory, and a directory: after the report is shown
        path = tmp_path / out
        assert main(["verify", "diagonal", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"]
        assert f"error: cannot write --out {path}: " in captured.err
        assert not (tmp_path / "missing").exists()


class TestMulnorm:
    def test_large_symbol_passes(self, tmp_path, capsys):
        # A z with ||A|| = 3.15e9: every entry from degree 1 up is ||A||, and
        # they differ by 4.8e-7, one part in 1e16
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "symbol.json"
        save_series(PowerSeries.operator(3, {MultiIndex([1]): A * (3.15e9 / operator_norm(A))}), path)
        status, report = run(["mulnorm", path, "--degrees", ",".join(map(str, range(16)))], capsys)
        schedule = report["outputs"]["schedule"]
        assert max(a - b for a, b in zip(schedule[1:], schedule[2:])) > 1e-9
        assert status == 0

    def test_tolerance_is_the_bound_of_the_shown_drop(self, files, capsys):
        series, paths = files
        _, report = run(["mulnorm", paths["F"], "--degrees", "0,1,2,3,4"], capsys)
        schedule = report["outputs"]["schedule"]
        bounds = _schedule_error_bound(series["F"], 2, range(5), schedule)
        drops = [a - b for a, b in zip(schedule, schedule[1:])]
        k = drops.index(max(drops))
        assert report["checks"][0]["got"] == drops[k]
        assert report["checks"][0]["tolerance"] == bounds[k] + bounds[k + 1]

    def test_drop_beyond_its_bound_exits_1(self, files, capsys, monkeypatch):
        F = files[0]["F"]
        schedule = cli.multiplier_norm_schedule

        def dropping(symbol, degrees, base):
            values = schedule(symbol, degrees, base)
            bounds = _schedule_error_bound(F, 2, degrees, values)
            return [*values[:-1], values[-2] - 10 * (bounds[-2] + bounds[-1])]

        monkeypatch.setattr(cli, "multiplier_norm_schedule", dropping)
        status, report = run(["mulnorm", files[1]["F"], "--degrees", "0,1,2,3,4"], capsys)
        assert status == 1
        assert not report["checks"][0]["pass"]


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

    def test_empty_dirichlet_file_is_a_dirichlet_factor(self, files, capsys, tmp_path):
        path = tmp_path / "empty.json"
        save_series(DirichletSeries.operator(2), path)
        status, report = run(["product", path, files[1]["DG"]], capsys)
        assert status == 0
        assert series_from_dict(report["outputs"]["series"]) == DirichletSeries.vector(2)

    def test_power_product_is_the_full_cauchy_product(self, files, capsys):
        series, paths = files
        F, G = series["F"], series["G"]
        _, report = run(["product", paths["F"], paths["G"]], capsys)
        window = TruncationParams(nvars=2, max_degree=F.total_degree + G.total_degree, dim=2)
        assert series_from_dict(report["outputs"]["series"]) == op_vec_product(F, G, window)

    @pytest.mark.parametrize("left, right, window", TRUNCATING_WINDOWS)
    def test_truncating_window_is_checked(self, files, capsys, left, right, window):
        _, paths = files
        argv = ["product", paths[left], paths[right], *window]
        status, report = run(argv, capsys)
        assert status == 0
        assert [c["name"] for c in report["checks"]] == ["product-evaluation-consistency"]
        assert report["outputs"]["window_gap"] == 0.0
        assert report["outputs"]["evaluation_gap"] < 1e-14
        assert 0 < report["checks"][0]["tolerance"] < 1e-12

    @pytest.mark.parametrize("left, right, window", TRUNCATING_WINDOWS)
    def test_window_gap_has_tolerance_zero(self, files, capsys, monkeypatch, left, right, window):
        _, paths = files
        monkeypatch.setattr(cli, "_coefficient_gap", lambda a, b: 5e-324)
        status, report = run(["product", paths[left], paths[right], *window], capsys)
        assert status == 1
        assert [(c["got"], c["tolerance"]) for c in report["checks"]] == [(5e-324, 0.0)]

    # the windowed product equals the full one restricted to the window bit
    # for bit, so the check's window gap has tolerance 0
    @given(data=st.data(), dim=st.integers(1, 3), scale=st.sampled_from([1e-3, 1.0, 1e6]))
    @settings(max_examples=100, deadline=None)
    def test_power_window_is_the_truncated_full_product(self, data, dim, scale):
        values = NON_DYADIC.map(lambda v: scale * v)
        F = PowerSeries("operator", dim, data.draw(terms(small_indices, "operator", dim, values=values)))
        G = PowerSeries("vector", dim, data.draw(terms(small_indices, "vector", dim, values=values)))
        full = TruncationParams(4, F.total_degree + G.total_degree, dim)
        window = TruncationParams(data.draw(st.integers(1, 4)), data.draw(st.integers(0, 16)), dim)
        assert_same_bits(op_vec_product(F, G, window), truncate(op_vec_product(F, G, full), window))

    @given(data=st.data(), dim=st.integers(1, 3), scale=st.sampled_from([1e-3, 1.0, 1e6]))
    @settings(max_examples=100, deadline=None)
    def test_dirichlet_window_is_the_restricted_full_product(self, data, dim, scale):
        values, keys = NON_DYADIC.map(lambda v: scale * v), st.integers(1, 60)
        D = DirichletSeries("operator", dim, data.draw(terms(keys, "operator", dim, values=values)))
        E = DirichletSeries("vector", dim, data.draw(terms(keys, "vector", dim, values=values)))
        M = data.draw(st.integers(1, 3600))
        full = dirichlet_product(D, E, 3600)
        restricted = DirichletSeries("vector", dim, {n: c for n, c in full.terms.items() if n <= M})
        assert_same_bits(dirichlet_product(D, E, M), restricted)

    def test_exponent_100_has_no_stated_bound(self, tmp_path, capsys):
        """Factors of degree 50 give a product with z^100, beyond the
        exponents for which evaluate_power states its rounding."""
        paths = [tmp_path / "F.json", tmp_path / "G.json"]
        save_series(PowerSeries.operator(1, {MultiIndex([50]): [[1.0]]}), paths[0])
        save_series(PowerSeries.vector(1, {MultiIndex([50]): [1.0]}), paths[1])
        assert cli.main(["product", *map(str, paths)]) == 2
        assert "no rounding bound for an exponent of 100 or more" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["power", "dirichlet"])
    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_large_coefficients_pass(self, tmp_path, capsys, kind, scale):
        rng = np.random.default_rng(1)
        F = scale * random_power_series(rng, "operator", 3, 2, 4, 10)
        G = scale * random_power_series(rng, "vector", 3, 2, 4, 10)
        paths = [tmp_path / "F.json", tmp_path / "G.json"]
        for path, S in zip(paths, (F, G)):
            save_series(S if kind == "power" else bohr(S), path)
        status, report = run(["product", *paths], capsys)
        assert report["outputs"]["evaluation_gap"] > 1e-12 * scale / 1e3
        assert status == 0

    @pytest.mark.parametrize("left, right, window", TRUNCATING_WINDOWS)
    def test_gap_beyond_its_bound_exits_1(self, files, capsys, monkeypatch, left, right, window):
        # every product off by 10 times the check's bound at the constant term
        _, paths = files
        argv = ["product", paths[left], paths[right], *window]
        bound = run(argv, capsys)[1]["checks"][0]["tolerance"]
        constant = PowerSeries.constant(10 * bound * np.array([1.0, 0.0]))
        name = "op_vec_product" if left == "F" else "dirichlet_product"
        product = getattr(cli, name)

        def off(F, G, window):
            P = product(F, G, window)
            return P + constant if left == "F" else bohr(bohr_inverse(P) + constant)

        monkeypatch.setattr(cli, name, off)
        status, report = run(argv, capsys)
        assert status == 1
        assert not report["checks"][0]["pass"]
        assert report["outputs"]["window_gap"] == 0.0


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
    @pytest.mark.parametrize("R", ["nan", "inf", "-1"])
    def test_a_bad_half_length_is_named(self, files, capsys, R):
        _, paths = files
        assert main(["recover", str(paths["DG"]), "--frequency", "2", "--R", R]) == 2
        assert "R must be finite and positive" in capsys.readouterr().err

    def test_grid_rejects_a_list(self, files, capsys):
        _, paths = files
        assert main(["recover", str(paths["DG"]), "--frequency", "2", "--grid", "4001,8001"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_tolerance_is_the_envelope(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        save_series(D, path)
        status, report = run(["recover", path, "--frequency", "2"], capsys)
        assert status == 0
        assert [(c["name"], c["tolerance"]) for c in report["checks"]] == [
            ("recovery-error-envelope", _recovery_envelope(D, 2, 2.0, 1e4, 120_000))
        ]

    def test_error_beyond_the_envelope_exits_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "d.json"
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        save_series(D, path)
        envelope = _recovery_envelope(D, 2, 2.0, 1e4, 120_000)
        recover = cli.recover_coefficient
        monkeypatch.setattr(cli, "recover_coefficient", lambda *a: recover(*a) + 10 * envelope)
        status, report = run(["recover", path, "--frequency", "2"], capsys)
        assert status == 1
        assert not report["checks"][0]["pass"]

    def test_envelope_outside_the_decay_regime(self):
        # R |L| <= 1 and |h L| >= pi each bound the weight by 1, not 1 / (R |L|)
        D = DirichletSeries.vector(1, {2: [3.0], 3: [4.0]})
        rounding = _recovery_envelope(DirichletSeries.vector(1, {2: [3.0]}), 2, 0.0, 1.0, 3)
        for R, points in ((1.0, 4001), (1e4, 3)):
            envelope = _recovery_envelope(D, 2, 0.0, R, points)
            assert 4.0 < envelope < 4.0 + 1e-9
            error = np.linalg.norm(cli.recover_coefficient(D, 2, 0.0, R, points) - 3.0)
            assert error <= envelope
        assert 0 < rounding < 1e-12


class TestUnusedFlags:
    """A flag the command does not read, an empty list, a negative degree
    or a value out of range exits 2 and is named on stderr."""

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
            (["mulnorm", "F", "--degree", "4"], "--degree"),
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
            (["product", "F", "G", "--degree", "2.5"], "argument --degree:"),
            (["mulnorm", "F", "--degrees", ","], "argument --degrees:"),
            (["norm", "hinf", "G", "--grid", ","], "argument --grid:"),
            (["norm", "hinf", "G", "--radius", ","], "argument --radius:"),
            (["product", "F", "G", "--degree", "-1"], "argument --degree:"),
            (["norm", "hp", "G", "--p", "0.5"], "hp_norm requires p >= 1"),
            (["product", "DF", "DG", "--max-frequency", "-5"], "max_frequency must be at least 1"),
            (["product", "F", "G", "--tol", "5"], "--tol"),
            (["mulnorm", "F", "--tol", "5"], "--tol"),
            (["recover", "DG", "--frequency", "2", "--tol", "5"], "--tol"),
            (["norm", "hp", "G", "--nvars", "2"], "--nvars"),
            (["norm", "hinf", "G", "--nvars", "2"], "--nvars"),
        ],
    )
    def test_exit_2_naming_the_flag(self, files, capsys, argv, flag):
        _, paths = files
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_huge_exponent_in_a_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "vector", "dim": 1, "terms": [{"alpha": [1000000], "coeff": [[1.0, 0.0]]}]}')
        assert main(["transform", str(path)]) == 2
        assert "exponent 1000000" in capsys.readouterr().err

    def test_exponent_beyond_int64_in_a_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "vector", "dim": 1, "terms": [{"alpha": [1180591620717411303424], "coeff": [[1.0, 0.0]]}]}')
        assert main(["transform", str(path)]) == 2
        err = capsys.readouterr().err
        assert "exponent 1180591620717411303424 at position 0 of multi-index" in err
        assert "exceeds the 64-bit range" in err

    def test_verify_help_offers_no_unread_flags(self, capsys):
        """A suite runs at fixed sizes, so ``--seed`` is its only input."""
        assert main(["verify", "--help"]) == 0
        capsys.readouterr()
        for command in [*(["verify", suite] for suite in cli.VERIFY_SUITES), ["example-sot"]]:
            assert main([*command, "--help"]) == 0
            assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--seed", "--out", "--help"}, command
        # no subcommand offers a tolerance: each check's comes from a stated bound
        commands = [
            ["transform"], ["product"], ["mulnorm"], ["recover"], ["example-sot"],
            *(["norm", which] for which in ("h2", "hp", "hinf")),
            *(["verify", suite] for suite in cli.VERIFY_SUITES),
        ]
        for command in commands:
            assert main([*command, "--help"]) == 0
            assert "--tol" not in capsys.readouterr().out, command


class TestZeroValuedFlags:
    """A flag set to 0 is used, not replaced by its default."""

    def test_mulnorm_degree_zero_is_one_checkpoint(self, files, capsys):
        _, paths = files
        status, report = run(["mulnorm", paths["F"], "--degrees", "0"], capsys)
        assert status == 0
        assert report["inputs"]["degrees"] == [0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["mulnorm", "F"],
            ["mulnorm", "F", "--degrees", "0"],
            ["product", "F", "G", "--degree", "0"],
            ["product", "F", "G"],
        ],
    )
    def test_nvars_zero_is_rejected(self, files, capsys, argv):
        _, paths = files
        assert main([str(paths.get(a, a)) for a in argv] + ["--nvars", "0"]) == 2
        assert "nvars" in capsys.readouterr().err


#: Each suite's fixed sizes, as its report lists them after the seed.
FIXED_SIZES = {
    "bohr": {"limit": 100_000, "pairs": 1000, "product_pairs": 100},
    "parseval": {"nvars": 3, "degree": 4, "dim": 2, "count": 50},
    "cole-gamelin": {"kernel_count": 20, "ineq_count": 100, "degree": 40},
    "dilation": {"count": 20},
    "toeplitz": {"degree": 50, "count": 20},
    "diagonal": {"dim": 16, "pairs": 100},
    "dirichlet": {"count": 25},
    "recover": {"sigma": 2.0},
}


def _norm_moved_by(f, change):
    """``f`` with each vector result scaled so that its norm becomes
    ``change(first argument, norm of the result)``; operator results are
    left as they are."""

    def moved(first, *args):
        R = f(first, *args)
        return R * (change(first, h2_norm(R)) / h2_norm(R)) if R.kind == "vector" else R

    return moved


#: For each suite check with a derived bound: the check, its suite, the
#: library function the suite calls, and a mutant of that function whose
#: result is off by ten times ``tol``, the bound an unpatched run at seed
#: 0 shows.
MUTANTS = [
    # the bound is 0, so the least error: one ulp in every coefficient
    ("product-intertwining-failures", "bohr",
     "op_vec_product", lambda f, tol: lambda F, G, w: f(F, G, w) * math.nextafter(1.0, 2.0)),
    ("kernel-norm-gap", "cole-gamelin",
     "cole_gamelin_kernel", lambda f, tol: _norm_moved_by(f, lambda x, norm: norm - 10 * tol)),
    ("point-evaluation-norm", "cole-gamelin",
     "evaluate_power", lambda f, tol: lambda G, z: f(G, z) + 10 * tol / np.sqrt(G.dim)),
    ("dilation-contraction-excess", "dilation",
     "radial_dilate", lambda f, tol: _norm_moved_by(f, lambda G, norm: h2_norm(G) + 10 * tol)),
    ("dilation-tail-bound-excess", "dilation",
     "radial_dilate", lambda f, tol: lambda F, r: (
         F * (r**F.max_weighted_degree - 10 * tol / h2_norm(F)) if F.kind == "vector" else f(F, r))),
    # the product has more than four terms and its factors at most four:
    # only the dilated product moves, by 10 tol at the constant term
    ("dilation-multiplicativity-gap", "dilation",
     "radial_dilate", lambda f, tol: lambda F, r: (
         f(F, r) + PowerSeries.constant(10 * tol * np.eye(F.dim)[0]) if F.num_terms > 4 else f(F, r))),
    ("diagonal-distance-identity-gap", "diagonal",
     "operator_norm", lambda f, tol: lambda M: f(M) + 10 * tol),
    # the norms rise by 100 tol per unit of epsilon, 10 tol per step of the grid
    ("epsilon-shift-monotonicity-violation", "dirichlet",
     "epsilon_shift", lambda f, tol: lambda D, eps: _scaled(D, 1 + 100 * tol * eps / h2_norm(D))),
    # every nonzero shift 1 + 10 tol times too large: a shift twice is off once
    ("epsilon-shift-semigroup-rel-gap", "dirichlet",
     "epsilon_shift", lambda f, tol: lambda D, eps: _scaled(f(D, eps), 1 + 10 * tol) if eps else D),
    # the gap is relative to the H_2 norm, so every quadrature 1 + 10 tol times too large
    ("parseval-vs-quadrature-max-rel-gap", "parseval",
     "hp_norm", lambda f, tol: lambda G, p, grid: f(G, p, grid) * (1 + 10 * tol)),
    ("pointwise-vs-symbolic-max-residual", "parseval",
     "pointwise_vs_symbolic", lambda f, tol: lambda F, G, grid: f(F, G, grid) + 10 * tol),
]

#: Checks whose mutant above is off by less than 1e-12, so that a fixed
#: slack of 1e-12 would miss it.
FINER_THAN_1E12 = {
    "kernel-norm-gap", "dilation-contraction-excess", "diagonal-distance-identity-gap", "parseval-vs-quadrature-max-rel-gap",
}


class TestVerify:
    @pytest.mark.parametrize("suite, params", FIXED_SIZES.items())
    def test_every_suite_passes(self, suite, params):
        """The suites define the paper's identities once; each runs at its
        fixed sizes over seeds 0-4, and every failing check is named with
        its seed, value and tolerance."""
        failed = []
        for seed in range(5):
            report = run_verify(suite, seed=seed)
            assert report.inputs == {"seed": seed, **params}
            failed += [
                f"seed {seed}: {c.name} got={c.got} tolerance={c.tolerance}"
                for c in report.checks
                if not c.passed
            ]
        assert not failed, "\n".join(failed)

    @pytest.mark.parametrize(
        "suite, params, name",
        [
            ("dilation", {"seed": None}, "seed"),
            ("dilation", {"seed": -3}, "seed"),
            ("diagonal", {"seed": "2"}, "seed"),
            ("diagonal", {"seed": 1.9}, "seed"),
            ("dilation", {"seed": 2.0}, "seed"),
            ("diagonal", {"seed": -1}, "seed"),
        ],
    )
    def test_bad_integer_parameter_is_named(self, suite, params, name):
        with pytest.raises((TypeError, ValueError), match=f"^{name} must"):
            run_verify(suite, **params)

    @pytest.mark.parametrize("suite, size", [(s, k) for s, sizes in FIXED_SIZES.items() for k in sizes])
    def test_a_size_is_neither_a_parameter_nor_a_flag(self, capsys, suite, size):
        """``run_verify`` raises Python's own ``TypeError`` for a size, and
        ``verify`` (and ``example-sot``, the diagonal suite) exits 2 naming
        it as a flag."""
        with pytest.raises(TypeError, match=size):
            run_verify(suite, **{size: FIXED_SIZES[suite][size]})
        commands = [["verify", suite]] + ([["example-sot"]] if suite == "diagonal" else [])
        for command in commands:
            assert main([*command, f"--{size}", "3"]) == 2
            assert f"--{size}" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_it(self, capsys):
        assert main(["verify", "diagonal", "--seed", "-1"]) == 2
        assert "seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("check, suite, name, mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
    def test_result_off_by_ten_bounds_fails(self, monkeypatch, check, suite, name, mutant):
        """Each check with a bound catches the library function it checks
        when that function's result is off by ten times the bound."""

        def shown():
            return next(c for c in run_verify(suite).checks if c.name == check)

        tol = shown().tolerance
        assert shown().passed
        assert check not in FINER_THAN_1E12 or 10 * tol < 1e-12
        monkeypatch.setattr(cli, name, mutant(getattr(cli, name), tol))
        assert not shown().passed

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

    def test_recover_draws_its_series_from_the_seed(self):
        drawn = {
            (tuple(r.outputs["frequencies"]), r.outputs["frequency"], tuple(r.outputs["errors"]))
            for r in (run_verify("recover", seed=seed) for seed in range(5))
        }
        assert len(drawn) == 5

    def test_toeplitz_endpoint_is_the_closed_form(self):
        report = run_verify("toeplitz")
        check = report.checks[0]
        closed = 2.0 * math.cos(math.pi / (2 * 50 + 3))
        assert check.name == "toeplitz-endpoint-vs-closed-form"
        assert check.expected == closed
        assert check.tolerance == _operator_norm_rounding(51) * closed + 8 * _U
        assert check.passed

    def test_toeplitz_schedule_is_the_closed_form(self):
        report = run_verify("toeplitz")
        check = report.checks[1]
        symbol = PowerSeries.operator(1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]})
        assert check.name == "toeplitz-schedule-vs-closed-form"
        assert check.expected == 2.0 * math.cos(math.pi / (2 * 50 + 3))
        assert check.tolerance == _schedule_error_bound(symbol, 1, [50], [check.got])[0] + 8 * _U
        assert check.passed

    def test_report_lists_the_parameters_used(self):
        """The seed, then the suite's sizes, in the order its JSON report shows."""
        for suite, sizes in FIXED_SIZES.items():
            assert list(run_verify(suite, seed=3).inputs.items()) == [("seed", 3), *sizes.items()]

    def test_unused_parameter_is_named(self):
        with pytest.raises(TypeError, match="sigma"):
            run_verify("dilation", sigma=1.0)

    def test_unused_flags_exit_2(self, capsys):
        assert main(["verify", "bohr", "--degree", "3", "--nvars", "9", "--tol", "5"]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("degree", "nvars", "tol"))


def random_series_by_constructor(rng, kind, dim, nvars, degree, num_terms):
    """The verify suites' generator through the validating constructor."""
    pool = simplex(nvars, degree)
    chosen = rng.choice(len(pool), size=min(num_terms, len(pool)), replace=False)
    shape = (dim,) if kind == "vector" else (dim, dim)
    terms = {pool[i]: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for i in chosen}
    return PowerSeries(kind, dim, terms)


@pytest.mark.parametrize("kind", ["vector", "operator"])
@pytest.mark.parametrize("seed", range(8))
def test_random_series_same_bits_as_constructor(kind, seed):
    args = (kind, 1 + seed % 3, 1 + seed % 4, seed % 5, 1 + 3 * seed)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # later draws see the same stream
        assert_same_bits(random_power_series(rng, *args), random_series_by_constructor(reference, *args))
    assert rng.bit_generator.state == reference.bit_generator.state


def coefficient_gap_by_key(a, b, relative):
    """The per-key loop ``_coefficient_gap`` replaces."""
    worst = 0.0
    for k in a.terms.keys() | b.terms.keys():
        gap = float(np.linalg.norm(a.coefficient(k) - b.coefficient(k)))
        if relative:
            gap /= max(float(np.linalg.norm(a.coefficient(k))), 1e-30)
        worst = max(worst, gap)
    return worst


class TestCoefficientGap:
    @pytest.mark.parametrize("kind", ["vector", "operator"])
    @pytest.mark.parametrize("dim", [1, 3])
    @given(data=st.data(), relative=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_same_bits_as_the_per_key_norms(self, kind, dim, data, relative):
        a, b = (
            DirichletSeries(kind, dim, data.draw(terms(st.integers(1, 12), kind, dim)))
            for _ in range(2)
        )
        assert _coefficient_gap(a, b, relative) == coefficient_gap_by_key(a, b, relative)

    def test_non_finite_gap_is_returned(self):
        # 2e200 squared overflows, so the gap at frequency 1 is inf, and
        # inf / inf is NaN once it is divided by the norm of a's 1e200
        a = DirichletSeries.vector(1, {1: [1e200], 2: [1.0]})
        b = DirichletSeries.vector(1, {1: [-1e200], 2: [1.0]})
        assert _coefficient_gap(a, b) == math.inf
        assert math.isnan(_coefficient_gap(a, b, relative=True))


@pytest.mark.parametrize(
    "module", ["polyhardy", *(f"polyhardy.{m.name}" for m in pkgutil.iter_modules(polyhardy.__path__))]
)
def test_every_exported_name_exists(module):
    module = importlib.import_module(module)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
