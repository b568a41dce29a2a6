"""Command-line front door: transforms, products, norms, schedules, and
verification suites, all emitting machine-readable run reports.

Every invocation produces a JSON report on stdout (and to ``--out`` when
given) listing the command, its inputs, its outputs, and a list of
checks; each check carries an explicit tolerance, and the process exit
status is 0 exactly when every check passed.  Human-readable pass/fail
lines go to stderr so stdout stays scriptable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._linalg import operator_norm
from .dirichlet import (
    DirichletSeries,
    bohr,
    bohr_inverse,
    dirichlet_product,
    epsilon_shift,
    evaluate_dirichlet,
    recover_coefficient,
)
from .hardy import (
    TorusGrid,
    cole_gamelin_kernel,
    h2_norm,
    hinf_norm,
    hp_norm,
    point_evaluation_bound,
)
from .multiindex import (
    MultiIndex,
    index_to_multiindex,
    max_frequency_for_simplex,
    multiindex_to_index,
    simplex,
)
from .multiplier import (
    assemble_compression,
    diagonal_example,
    multiplier_norm_schedule,
    pointwise_vs_symbolic,
)
from .series import (
    PowerSeries,
    TruncationParams,
    evaluate_power,
    op_vec_product,
    radial_dilate,
    truncate,
)
from .seriesio import (
    SeriesFormatError,
    load_series,
    parse_series_file,
    series_to_dict,
)

__all__ = ["Check", "RunReport", "main", "parse_series_file", "run_verify"]

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Check:
    """One named comparison with an explicit tolerance."""

    name: str
    expected: float | str
    got: float | str
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "got": self.got,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def check_close(name: str, got: float, expected: float, tolerance: float) -> Check:
    got = float(got)
    expected = float(expected)
    return Check(name, expected, got, float(tolerance), abs(got - expected) <= tolerance)


def check_at_most(name: str, got: float, bound: float) -> Check:
    got = float(got)
    bound = float(bound)
    return Check(name, f"<= {bound}", got, bound, got <= bound)


def check_at_least(name: str, got: float, bound: float) -> Check:
    got = float(got)
    bound = float(bound)
    return Check(name, f">= {bound}", got, bound, got >= bound)


@dataclass
class RunReport:
    """Self-contained record of one command: re-runnable from its metadata."""

    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": [c.as_dict() for c in self.checks],
            "wall_time_s": self.wall_time_s,
            "pass": self.passed,
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name}: got={c.got} expected={c.expected} "
                f"tol={c.tolerance}"
            )
        verdict = "OK" if self.passed else "FAILED"
        lines.append(
            f"{verdict}  {self.command}: {sum(c.passed for c in self.checks)}/"
            f"{len(self.checks)} checks passed in {self.wall_time_s:.3f}s"
        )
        return lines


def _random_power_series(rng, kind, dim, nvars, degree, num_terms):
    """Sparse random series with standard complex normal coefficients."""
    pool = simplex(nvars, degree)
    chosen = rng.choice(len(pool), size=min(num_terms, len(pool)), replace=False)
    shape = (dim,) if kind == "vector" else (dim, dim)
    terms = {
        pool[i]: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for i in chosen
    }
    return PowerSeries(kind, dim, terms)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_bohr(p: dict) -> tuple[dict, list[Check]]:
    limit, pairs, product_pairs = p["limit"], p["pairs"], p["product_pairs"]
    rng = np.random.default_rng(p["seed"])

    bad_roundtrip = sum(
        1 for n in range(1, limit + 1) if multiindex_to_index(index_to_multiindex(n)) != n
    )
    ab = rng.integers(1, 1000, size=(pairs, 2))
    bad_mult = 0
    for a, b in ab:
        alpha = index_to_multiindex(int(a)) + index_to_multiindex(int(b))
        if multiindex_to_index(alpha) != int(a) * int(b):
            bad_mult += 1

    bad_support = 0
    worst_coeff = 0.0
    for _ in range(product_pairs):
        nvars = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        deg_f = int(rng.integers(0, 4))
        deg_g = int(rng.integers(0, 4))
        F = _random_power_series(rng, "operator", dim, nvars, deg_f, 4)
        G = _random_power_series(rng, "vector", dim, nvars, deg_g, 4)
        window = TruncationParams(nvars=nvars, max_degree=deg_f + deg_g, dim=dim)
        left = bohr(op_vec_product(F, G, window))
        right = dirichlet_product(
            bohr(F), bohr(G), max_frequency_for_simplex(nvars, deg_f + deg_g)
        )
        if left.frequencies != right.frequencies:
            bad_support += 1
            continue
        for n in left.frequencies:
            worst_coeff = max(
                worst_coeff,
                float(np.linalg.norm(left.coefficient(n) - right.coefficient(n))),
            )

    outputs = {
        "roundtrip_count": limit,
        "multiplicativity_pairs": pairs,
        "product_pairs": product_pairs,
    }
    checks = [
        check_close("bohr-roundtrip-failures", bad_roundtrip, 0, 0),
        check_close("bohr-multiplicativity-failures", bad_mult, 0, 0),
        check_close("product-intertwining-support-mismatches", bad_support, 0, 0),
        check_at_most("product-intertwining-max-coeff-gap", worst_coeff, 1e-12),
    ]
    return outputs, checks


def _suite_parseval(p: dict) -> tuple[dict, list[Check]]:
    nvars, degree, dim, count = p["nvars"], p["degree"], p["dim"], p["count"]
    rng = np.random.default_rng(p["seed"])
    grid = TorusGrid(nvars=nvars, points_per_var=2 * degree + 1, radius=1.0)

    worst_rel = 0.0
    for _ in range(count):
        G = _random_power_series(rng, "vector", dim, nvars, degree, 6)
        exact = h2_norm(G)
        quad = hp_norm(G, 2.0, grid)
        if exact > 0:
            worst_rel = max(worst_rel, abs(quad - exact) / exact)

    worst_residual = 0.0
    for _ in range(count):
        F = _random_power_series(rng, "operator", 2, 2, 2, 4)
        G = _random_power_series(rng, "vector", 2, 2, 2, 4)
        g = TorusGrid(
            nvars=2, points_per_var=F.total_degree + G.total_degree + 1, radius=1.0
        )
        worst_residual = max(worst_residual, pointwise_vs_symbolic(F, G, g))

    outputs = {
        "norm_samples": count,
        "grid_points_per_var": grid.points_per_var,
        "consistency_samples": count,
    }
    checks = [
        check_at_most("parseval-vs-quadrature-max-rel-gap", worst_rel, 1e-10),
        check_at_most("pointwise-vs-symbolic-max-residual", worst_residual, 1e-10),
    ]
    return outputs, checks


def _geometric_tail_bound(max_abs_sq: float, nvars: int, degree: int) -> float:
    """Upper bound for sum over |alpha| > degree of prod |z_j|^(2 alpha_j).

    Counts indices of total degree m (at most C(m + N - 1, N - 1) of
    them, i.e. 1 for N=1 and m+1 for N=2) against the geometric weight
    t^m with t = max |z_j|^2 < 1.
    """
    t = max_abs_sq
    K = degree
    if nvars == 1:
        return t ** (K + 1) / (1 - t)
    if nvars == 2:
        return t ** (K + 1) * ((K + 2) - (K + 1) * t) / (1 - t) ** 2
    raise ValueError("tail bound implemented for 1 or 2 variables")


def _suite_cole_gamelin(p: dict) -> tuple[dict, list[Check]]:
    kernel_count, ineq_count, degree = p["kernel_count"], p["ineq_count"], p["degree"]
    rng = np.random.default_rng(p["seed"])

    worst_excess = -np.inf  # norm gap minus its analytic tail bound
    for _ in range(kernel_count):
        nvars = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        radii = 0.7 * rng.random(nvars)
        z = radii * np.exp(2j * np.pi * rng.random(nvars))
        kernel = cole_gamelin_kernel(x, z, degree)
        gap = abs(h2_norm(kernel) - float(np.linalg.norm(x)))
        bound = float(np.linalg.norm(x)) * float(
            np.prod(1 - np.abs(z) ** 2)
        ) * _geometric_tail_bound(float(np.max(np.abs(z) ** 2)), nvars, degree)
        worst_excess = max(worst_excess, gap - (bound + 1e-12))

    worst_violation = -np.inf  # ||G(z)|| minus the point-evaluation bound
    for _ in range(ineq_count):
        nvars = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        G = _random_power_series(rng, "vector", dim, nvars, int(rng.integers(0, 5)), 6)
        radii = 0.95 * rng.random(nvars)
        z = radii * np.exp(2j * np.pi * rng.random(nvars))
        value = float(np.linalg.norm(evaluate_power(G, z)))
        ceiling = h2_norm(G) * point_evaluation_bound(z, 2.0)
        worst_violation = max(worst_violation, value - ceiling)

    outputs = {"kernel_samples": kernel_count, "inequality_samples": ineq_count}
    checks = [
        check_at_most("kernel-norm-gap-minus-tail-bound", worst_excess, 0.0),
        check_at_most("point-evaluation-excess", worst_violation, 1e-10),
    ]
    return outputs, checks


def _suite_dilation(p: dict) -> tuple[dict, list[Check]]:
    count = p["count"]
    rng = np.random.default_rng(p["seed"])
    radii = (0.3, 0.6, 0.9)

    contraction_excess = -np.inf
    bound_excess = -np.inf
    mult_gap = 0.0
    support_mismatches = 0
    for _ in range(count):
        nvars = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 3))
        F = _random_power_series(rng, "operator", dim, nvars, 2, 4)
        G = _random_power_series(rng, "vector", dim, nvars, 2, 4)
        window = TruncationParams(nvars=nvars, max_degree=4, dim=dim)
        product = op_vec_product(F, G, window)
        base = h2_norm(G)
        W = G.max_weighted_degree
        for r in radii:
            Gr = radial_dilate(G, r)
            contraction_excess = max(contraction_excess, h2_norm(Gr) - base)
            bound_excess = max(
                bound_excess, h2_norm(G - Gr) - (1 - r**W) * base
            )
            dilated_product = radial_dilate(product, r)
            product_of_dilated = op_vec_product(
                radial_dilate(F, r), Gr, window
            )
            if set(dilated_product.terms) != set(product_of_dilated.terms):
                support_mismatches += 1
                continue
            for alpha in dilated_product.support:
                a = dilated_product.coefficient(alpha)
                b = product_of_dilated.coefficient(alpha)
                scale = max(float(np.linalg.norm(a)), 1e-30)
                mult_gap = max(mult_gap, float(np.linalg.norm(a - b)) / scale)

    outputs = {"samples": count, "radii": list(radii)}
    checks = [
        check_at_most("dilation-contraction-excess", contraction_excess, 1e-12),
        check_at_most("dilation-tail-bound-excess", bound_excess, 1e-12),
        check_close("dilation-multiplicativity-support-mismatches", support_mismatches, 0, 0),
        check_at_most("dilation-multiplicativity-max-rel-gap", mult_gap, 1e-13),
    ]
    return outputs, checks


def _suite_toeplitz(p: dict) -> tuple[dict, list[Check]]:
    degree = p["degree"]
    rng = np.random.default_rng(p["seed"])

    symbol = PowerSeries.operator(
        1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]}
    )
    window = TruncationParams(nvars=1, max_degree=degree, dim=1)
    endpoint = operator_norm(assemble_compression(symbol, window).matrix)
    # The degree-D compression of 1 + z is the (D+1)-row lower bidiagonal
    # of ones, whose norm is 2 cos(pi / (2D + 3)).  Allowed: the LAPACK
    # bound (D+1) eps ||M|| plus 4 eps for rounding the closed form.
    closed = 2.0 * math.cos(math.pi / (2 * degree + 3))
    endpoint_tol = (degree + 1) * _EPS * closed + 4 * _EPS

    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    shift_symbol = PowerSeries.operator(3, {MultiIndex([1]): A})
    base = TruncationParams(nvars=1, max_degree=1, dim=3)
    schedule = multiplier_norm_schedule(shift_symbol, [1, 2, 3, 4], base)
    norm_A = operator_norm(A)
    shift_gap = max(abs(s - norm_A) for s in schedule)

    monotone_violation = -np.inf
    for _ in range(p["count"]):
        nvars = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 3))
        F = _random_power_series(rng, "operator", dim, nvars, 2, 4)
        base = TruncationParams(nvars=nvars, max_degree=0, dim=dim)
        values = multiplier_norm_schedule(F, [0, 1, 2, 3], base)
        for a, b in zip(values, values[1:]):
            monotone_violation = max(monotone_violation, a - b)

    outputs = {
        "endpoint_degree": degree,
        "endpoint_value": endpoint,
        "endpoint_closed_form": closed,
        "shift_schedule": schedule,
    }
    checks = [
        check_close("toeplitz-endpoint-vs-closed-form", endpoint, closed, endpoint_tol),
        check_at_most("shift-symbol-schedule-gap", shift_gap, 1e-8),
        check_at_most("schedule-monotonicity-violation", monotone_violation, 1e-9),
    ]
    return outputs, checks


def _suite_diagonal(p: dict) -> tuple[dict, list[Check]]:
    dim, pairs = p["dim"], p["pairs"]
    rng = np.random.default_rng(p["seed"])
    rows = []
    worst = 0.0
    for _ in range(pairs):
        w = np.exp(2j * np.pi * rng.random(dim))
        wt = np.exp(2j * np.pi * rng.random(dim))
        dist_op = operator_norm(diagonal_example(w) - diagonal_example(wt))
        dist_inf = float(np.max(np.abs(w - wt)))
        worst = max(worst, abs(dist_op - dist_inf))
        rows.append({"uniform_distance": dist_inf, "operator_distance": dist_op})
    outputs = {"dim": dim, "pairs": pairs, "table": rows}
    checks = [check_at_most("diagonal-distance-identity-gap", worst, 1e-12)]
    return outputs, checks


def _suite_dirichlet(p: dict) -> tuple[dict, list[Check]]:
    count = p["count"]
    rng = np.random.default_rng(p["seed"])

    eval_gap = 0.0
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        D = bohr(_random_power_series(rng, "operator", dim, 2, 2, 4))
        E = bohr(_random_power_series(rng, "vector", dim, 2, 2, 4))
        max_freq = max_frequency_for_simplex(2, 4)
        product = dirichlet_product(D, E, max_freq)
        s = 2.0
        direct = evaluate_dirichlet(D, s) @ evaluate_dirichlet(E, s)
        via_product = evaluate_dirichlet(product, s)
        eval_gap = max(eval_gap, float(np.linalg.norm(direct - via_product)))

    E = bohr(_random_power_series(rng, "vector", 2, 3, 3, 8))
    eps_grid = [0.1 * k for k in range(11)]
    norms = [h2_norm(epsilon_shift(E, eps)) for eps in eps_grid]
    monotone_violation = max(
        (b - a for a, b in zip(norms, norms[1:])), default=-np.inf
    )
    identity_exact = 0 if epsilon_shift(E, 0.0) == E else 1
    semigroup_gap = 0.0
    twice = epsilon_shift(epsilon_shift(E, 0.3), 0.45)
    once = epsilon_shift(E, 0.75)
    for n in set(twice.frequencies) | set(once.frequencies):
        a, b = twice.coefficient(n), once.coefficient(n)
        semigroup_gap = max(
            semigroup_gap,
            float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-30),
        )

    outputs = {"samples": count, "epsilon_grid": eps_grid, "epsilon_norms": norms}
    checks = [
        check_at_most("product-evaluation-consistency", eval_gap, 1e-12),
        check_at_most("epsilon-shift-monotonicity-violation", monotone_violation, 1e-15),
        check_close("epsilon-zero-identity-failures", identity_exact, 0, 0),
        check_at_most("epsilon-shift-semigroup-rel-gap", semigroup_gap, 1e-13),
    ]
    return outputs, checks


def _suite_recover(p: dict) -> tuple[dict, list[Check]]:
    """Recover a_2 of ``3 * 2^-s + 5 * 3^-s`` on windows of growing half-length R.

    Each other frequency m leaves the cross term
    ``a_m (n/m)^sigma sin(R L) / (R L)`` with ``L = log(n/m)``.  On a grid
    of step h the trapezoid rule's error on the window average is at most
    ``h^2/12 * sum |a_m| (n/m)^sigma L^2`` (its Peano kernel has one sign,
    and the integrand's second derivative carries the factor L^2), so the
    error must match the summed cross terms within that bound.  The rule
    integrates ``exp(i L t)`` exactly up to the factor ``x cot x`` with
    ``x = h L / 2``, which lies in (0, 1] while ``|x| < pi/2``, so the
    error also lies below the envelope ``sum |a_m| (n/m)^sigma / (R |L|)``.
    """
    sigma, n = p["sigma"], 2
    D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
    radii = [100.0, 400.0, 1600.0, 10_000.0]
    errors = []
    checks = []
    for R in radii:
        points = max(4001, int(12 * R))
        h = 2 * R / (points - 1)
        err = recover_coefficient(D, n, sigma, R, points) - D.coefficient(n)
        cross = np.zeros_like(err)
        quadrature = envelope = 0.0
        for m, a in D.terms.items():
            if m == n:
                continue
            L = math.log(n / m)
            scale = (n / m) ** sigma
            cross = cross + scale * math.sin(R * L) / (R * L) * a
            weight = float(np.linalg.norm(a)) * scale
            quadrature += weight * L**2 * h**2 / 12
            envelope += weight / (R * abs(L))
        errors.append(float(np.linalg.norm(err)))
        checks.append(
            check_at_most(f"recovery-cross-term-gap-{int(R)}", np.linalg.norm(err - cross), quadrature)
        )
        checks.append(check_at_most(f"recovery-error-envelope-{int(R)}", errors[-1], envelope))

    outputs = {
        "sigma": sigma,
        "frequency": n,
        "window_half_lengths": radii,
        "errors": errors,
    }
    return outputs, checks


#: Each suite's runner and the parameters it reads, with their defaults.
_SUITES = {
    "bohr": (_suite_bohr, {"limit": 100_000, "pairs": 1000, "product_pairs": 100}),
    "parseval": (_suite_parseval, {"nvars": 3, "degree": 4, "dim": 2, "count": 50}),
    "cole-gamelin": (_suite_cole_gamelin, {"kernel_count": 20, "ineq_count": 100, "degree": 40}),
    "dilation": (_suite_dilation, {"count": 20}),
    "toeplitz": (_suite_toeplitz, {"degree": 50, "count": 20}),
    "diagonal": (_suite_diagonal, {"dim": 16, "pairs": 100}),
    "dirichlet": (_suite_dirichlet, {"count": 25}),
    "recover": (_suite_recover, {"sigma": 2.0}),
}

VERIFY_SUITES = tuple(_SUITES)


def run_verify(suite: str, **params) -> RunReport:
    """Run a named verification suite and return its report.

    Known suites: bohr, parseval, cole-gamelin, dilation, toeplitz,
    diagonal, dirichlet, recover.  Every suite takes ``seed`` (default
    0); parameters not supplied fall back to the suite's defaults, and a
    parameter the suite does not read raises ``ValueError``.  The report
    lists every parameter the suite used.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    runner, defaults = _SUITES[suite]
    defaults = {"seed": 0, **defaults}
    unused = sorted(params.keys() - defaults.keys())
    if unused:
        raise ValueError(
            f"verify {suite} does not use {', '.join(unused)}; "
            f"it takes {', '.join(defaults)}"
        )
    used = {key: type(value)(params.get(key, value)) for key, value in defaults.items()}
    start = time.perf_counter()
    outputs, checks = runner(used)
    return RunReport(
        command=f"verify {suite}",
        inputs=used,
        outputs=outputs,
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# file-driven subcommands
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _one_value(values: list | None, flag: str, default):
    """The single value given to a comma-list flag, or ``default`` if none was."""
    if not values:
        return default
    if len(values) > 1:
        raise ValueError(f"{flag} takes one value here, got {len(values)}: {values}")
    return values[0]


def _reject_unused(args, command: str, *names: str) -> None:
    """Raise ``ValueError`` naming each option in ``names`` that was given,
    for options a subcommand reads only for some inputs."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{command} does not use {', '.join(given)}")


def _cmd_transform(args) -> RunReport:
    start = time.perf_counter()
    series = load_series(args.file)
    if isinstance(series, PowerSeries):
        result = bohr(series)
        back = bohr_inverse(result)
        direction = "power->dirichlet"
    else:
        result = bohr_inverse(series)
        back = bohr(result)
        direction = "dirichlet->power"
    roundtrip_ok = back == series
    report = RunReport(
        command="transform",
        inputs={"file": str(args.file), "direction": direction},
        outputs={"series": series_to_dict(result)},
        checks=[
            Check("transform-roundtrip-identity", "exact", "exact" if roundtrip_ok else "mismatch", 0.0, roundtrip_ok)
        ],
        wall_time_s=time.perf_counter() - start,
    )
    return report


def _coefficient_gap(a, b) -> float:
    """Largest Euclidean distance between the coefficients of two series."""
    gaps = (
        float(np.linalg.norm(a.coefficient(k) - b.coefficient(k)))
        for k in a.terms.keys() | b.terms.keys()
    )
    return max(gaps, default=0.0)


def _cmd_product(args) -> RunReport:
    """Windowed product, checked against the full product: the full product
    must match ``left(z) @ right(z)`` at one point, and the windowed one
    must equal the full one restricted to the window."""
    start = time.perf_counter()
    left = load_series(args.left)
    right = load_series(args.right)
    inputs = {"left": str(args.left), "right": str(args.right)}
    if isinstance(left, PowerSeries) and isinstance(right, PowerSeries):
        _reject_unused(args, "product of power series", "max_frequency")
        full_window = TruncationParams(
            nvars=max(left.nvars_used, right.nvars_used, 1),
            max_degree=left.total_degree + right.total_degree,
            dim=left.dim,
        )
        window = TruncationParams(
            nvars=full_window.nvars if args.nvars is None else args.nvars,
            max_degree=full_window.max_degree if args.degree is None else args.degree,
            dim=left.dim,
        )
        product = op_vec_product(left, right, window)
        full = op_vec_product(left, right, full_window)
        restricted = truncate(full, window)
        z = np.full(full_window.nvars, 0.4 + 0.1j)
        direct = evaluate_power(left, z) @ evaluate_power(right, z)
        via = evaluate_power(full, z)
        inputs.update({"nvars": window.nvars, "degree": window.max_degree})
    elif isinstance(left, DirichletSeries) and isinstance(right, DirichletSeries):
        _reject_unused(args, "product of Dirichlet series", "nvars", "degree")
        full_frequency = max(left.frequencies, default=1) * max(right.frequencies, default=1)
        max_freq = full_frequency if args.max_frequency is None else args.max_frequency
        product = dirichlet_product(left, right, max_freq)
        full = dirichlet_product(left, right, full_frequency)
        restricted = DirichletSeries(
            full.kind, full.dim, {n: c for n, c in full.terms.items() if n <= max_freq}
        )
        s = 2.0
        direct = evaluate_dirichlet(left, s) @ evaluate_dirichlet(right, s)
        via = evaluate_dirichlet(full, s)
        inputs["max_frequency"] = max_freq
    else:
        raise SeriesFormatError(
            "product needs two power series or two Dirichlet series"
        )
    evaluation_gap = float(np.linalg.norm(direct - via))
    window_gap = _coefficient_gap(product, restricted)
    checks = [
        check_at_most(
            "product-evaluation-consistency", max(evaluation_gap, window_gap), args.tol
        )
    ]
    return RunReport(
        command="product",
        inputs=inputs,
        outputs={
            "series": series_to_dict(product),
            "evaluation_gap": evaluation_gap,
            "window_gap": window_gap,
        },
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )


def _cmd_norm(args) -> RunReport:
    start = time.perf_counter()
    series = load_series(args.file)
    inputs = {"file": str(args.file), "which": args.which}
    outputs: dict = {}
    if args.which == "h2":
        outputs["value"] = h2_norm(series)
    elif args.which == "hp":
        if not isinstance(series, PowerSeries):
            raise SeriesFormatError("hp norms need a power series file")
        nvars = max(series.nvars_used, 1) if args.nvars is None else args.nvars
        M = _one_value(args.grid, "--grid", 2 * series.total_degree + 1)
        radius = _one_value(args.radius, "--radius", 1.0)
        grid = TorusGrid(nvars=nvars, points_per_var=M, radius=radius)
        outputs["value"] = hp_norm(series, args.p, grid)
        inputs.update({"p": args.p, "nvars": nvars, "grid": M, "radius": radius})
    else:  # hinf
        if not isinstance(series, PowerSeries):
            raise SeriesFormatError("hinf estimates need a power series file")
        nvars = max(series.nvars_used, 1) if args.nvars is None else args.nvars
        Ms = args.grid or [64, 128, 256]
        radii = args.radius or [0.9, 0.99, 0.999]
        schedule = [
            TorusGrid(nvars=nvars, points_per_var=M, radius=r)
            for M in Ms
            for r in radii
        ]
        outputs["value"] = hinf_norm(series, schedule)
        outputs["estimate_kind"] = "grid lower bound"
        inputs.update({"nvars": nvars, "grids": Ms, "radii": radii})
    return RunReport(
        command=f"norm {args.which}",
        inputs=inputs,
        outputs=outputs,
        checks=[],
        wall_time_s=time.perf_counter() - start,
    )


def _cmd_mulnorm(args) -> RunReport:
    start = time.perf_counter()
    series = load_series(args.file)
    if not isinstance(series, PowerSeries) or series.kind != "operator":
        raise SeriesFormatError("mulnorm needs an operator-valued power series file")
    if args.degrees:
        _reject_unused(args, "mulnorm --degrees", "degree")
    degrees = args.degrees or list(range(0, (8 if args.degree is None else args.degree) + 1))
    nvars = max(series.nvars_used, 1) if args.nvars is None else args.nvars
    base = TruncationParams(nvars=nvars, max_degree=0, dim=series.dim)
    values = multiplier_norm_schedule(series, degrees, base)
    violation = max((a - b for a, b in zip(values, values[1:])), default=0.0)
    return RunReport(
        command="mulnorm",
        inputs={"file": str(args.file), "nvars": nvars, "degrees": degrees},
        outputs={"schedule": values},
        checks=[check_at_most("schedule-monotonicity-violation", violation, args.tol)],
        wall_time_s=time.perf_counter() - start,
    )


def _cmd_recover(args) -> RunReport:
    start = time.perf_counter()
    series = load_series(args.file)
    if not isinstance(series, DirichletSeries):
        raise SeriesFormatError("recover needs a Dirichlet series file")
    points = _one_value(args.grid, "--grid", max(4001, int(12 * args.R)))
    got = recover_coefficient(series, args.frequency, args.sigma, args.R, points)
    stored = series.coefficient(args.frequency)
    err = float(np.linalg.norm(got - stored))
    return RunReport(
        command="recover",
        inputs={
            "file": str(args.file),
            "frequency": args.frequency,
            "sigma": args.sigma,
            "R": args.R,
            "grid_points": points,
        },
        outputs={
            "recovered": np.stack([got.real, got.imag], axis=-1).tolist(),
            "error_vs_stored": err,
        },
        checks=[check_at_most("recovery-error", err, args.tol)],
        wall_time_s=time.perf_counter() - start,
    )


def _suite_params(args) -> dict:
    """The shared options a suite's subparser offers, where set."""
    return {k: v for k, v in vars(args).items() if k in _SHARED_OPTIONS and v is not None}


def _cmd_example_sot(args) -> RunReport:
    """The ``verify diagonal`` suite, reported as its distance table."""
    report = run_verify("diagonal", pairs=args.pairs, **_suite_params(args))
    return replace(report, command="example-sot", outputs={"table": report.outputs["table"]})


def _cmd_verify(args) -> RunReport:
    return run_verify(args.suite, **_suite_params(args))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


#: Options several subcommands share.  Each subparser offers only those its
#: command reads, so argparse rejects the rest.
_SHARED_OPTIONS = {
    "nvars": {"type": int, "help": "number of variables"},
    "degree": {"type": int, "help": "total-degree bound"},
    "dim": {"type": int, "help": "coefficient dimension"},
    "p": {"type": float, "default": 2.0, "help": "norm exponent (default 2)"},
    "grid": {"type": _int_list, "help": "grid points per variable (comma list for schedules)"},
    "radius": {"type": _float_list, "help": "grid radius in (0, 1] (comma list for schedules)"},
    "seed": {"type": int, "default": 0, "help": "random seed (default 0)"},
    "tol": {"type": float, "help": "check tolerance (default %(default)s)"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhardy",
        description=(
            "Truncated Hardy-space computations: Bohr transforms, products, "
            "norms, multiplier schedules, coefficient recovery, and "
            "verification suites."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    def command(parent, name, handler, shared, **kwargs) -> argparse.ArgumentParser:
        """Subparser ``name`` offering ``--out`` and the ``shared`` options.
        Abbreviations are off, or ``--p`` would be taken for ``--pairs``."""
        sp = parent.add_parser(name, allow_abbrev=False, **kwargs)
        for option in shared:
            sp.add_argument(f"--{option}", **_SHARED_OPTIONS[option])
        sp.add_argument("--out", type=Path, default=None, help="write the JSON report here")
        sp.set_defaults(handler=handler)
        return sp

    sub = parser.add_subparsers(dest="command", required=True)

    sp = command(sub, "transform", _cmd_transform, (), help="power <-> Dirichlet transport")
    sp.add_argument("file", type=Path)

    sp = command(
        sub, "product", _cmd_product, ("nvars", "degree", "tol"),
        help="operator * vector product",
    )
    sp.add_argument("left", type=Path, help="operator-valued series file")
    sp.add_argument("right", type=Path, help="vector-valued series file")
    sp.add_argument("--max-frequency", type=int, default=None, dest="max_frequency")
    sp.set_defaults(tol=1e-12)

    norms = sub.add_parser("norm", help="h2 / hp / hinf norms").add_subparsers(
        dest="which", required=True
    )
    for which, shared in (
        ("h2", ()),
        ("hp", ("nvars", "p", "grid", "radius")),
        ("hinf", ("nvars", "grid", "radius")),
    ):
        command(norms, which, _cmd_norm, shared, help=f"{which} norm").add_argument(
            "file", type=Path
        )

    sp = command(
        sub, "mulnorm", _cmd_mulnorm, ("nvars", "degree", "tol"),
        help="compression-norm schedule",
    )
    sp.add_argument("file", type=Path, help="operator-valued power series file")
    sp.add_argument(
        "--degrees",
        type=_int_list,
        default=None,
        help="explicit comma list of degree checkpoints",
    )
    sp.set_defaults(tol=1e-9)

    sp = command(
        sub, "recover", _cmd_recover, ("grid", "tol"), help="vertical-line coefficient recovery"
    )
    sp.add_argument("file", type=Path, help="Dirichlet series file")
    sp.add_argument("--frequency", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=2.0)
    sp.add_argument("--R", type=float, default=1e4, help="integration half-length")
    sp.set_defaults(tol=1e-2)

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True
    )
    for suite, (_, defaults) in _SUITES.items():
        reads = {"seed", *defaults}
        command(suites, suite, _cmd_verify, [k for k in _SHARED_OPTIONS if k in reads])

    sp = command(
        sub, "example-sot", _cmd_example_sot, ("dim", "seed"),
        help="diagonal-symbol distance table",
    )
    sp.add_argument("--pairs", type=int, default=20)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a usage error
        return exc.code
    try:
        report: RunReport = args.handler(args)
    except (SeriesFormatError, ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    payload = json.dumps(report.as_dict(), indent=2)
    print(payload)
    if args.out is not None:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
