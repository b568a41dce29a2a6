"""Command-line front door: transforms, products, norms, schedules, and
verification suites, all emitting machine-readable run reports.

Every invocation produces a JSON report on stdout (and to ``--out`` when
given) listing the command, its inputs, its outputs, and a list of
checks, and the process exit status is 0 exactly when every check
passed: 1 when a check failed, 2 for bad input or an ``--out`` path
that cannot be written.  Human-readable pass/fail lines go to stderr so
stdout stays scriptable.  Each verification suite runs at fixed sizes, so its seed
is its only input.

No tolerance is set by the user.  Each check is of one of two kinds:
exact, with tolerance 0, or a value against a bound evaluated for the
data at hand from error bounds the library states (``check_each`` of
``(value, bound)`` pairs where a suite draws several samples).  Each
stated bound is evaluated in one place, beside the function that states
it: a private ``_<function>_rounding`` where it depends on the inputs,
a ``_<FUNCTION>_ROUNDING`` constant where it does not (Higham's gamma_k
and the unit roundoff are ``_linalg._gamma`` and ``_linalg._U``).  The
checks here add only the rounding of their own arithmetic, and no check
takes a literal tolerance: ``verify parseval``'s two checks, which rest
on the grid transform ``hardy._dft``, read the bounds ``hardy`` states
for ``hp_norm`` and ``pointwise_vs_symbolic``.  The three identities
that ``product``, ``mulnorm`` and ``recover`` check have one check
each, shared with the suite that checks the same thing:
``_product_gap`` (``product`` and ``verify dirichlet``), ``_schedule_drops``
(``mulnorm`` and ``verify toeplitz``) and ``_recovery_envelope``
(``recover`` and ``verify recover``).
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
from ._linalg import _U, _gamma, _operator_norm_rounding, _row_norms, operator_norm
from .dirichlet import (
    DirichletSeries,
    _EPSILON_SHIFT_ROUNDING, _epsilon_shift_sum_rounding, _evaluate_dirichlet_rounding, _recover_coefficient_rounding,
    bohr,
    bohr_inverse,
    dirichlet_product,
    epsilon_shift,
    evaluate_dirichlet,
    recover_coefficient,
)
from .hardy import (
    TorusGrid,
    _closeness, _cole_gamelin_kernel_rounding, _h2_norm_rounding, _hp_norm_rounding, _point_evaluation_bound_rounding,
    _pointwise_vs_symbolic_rounding,
    cole_gamelin_kernel,
    h2_norm,
    hinf_norm,
    hp_norm,
    point_evaluation_bound,
    pointwise_vs_symbolic,
)
from .multiindex import (
    MultiIndex,
    _index,
    _simplex_shape,
    _simplex_table,
    index_to_multiindex,
    max_frequency_for_simplex,
    multiindex_to_index,
)
from .multiplier import (
    _schedule_error_bound,
    assemble_compression,
    diagonal_example,
    multiplier_norm_schedule,
)
from .series import (
    PowerSeries,
    TruncationParams,
    _aligned,
    _monomials,
    _RADIAL_DILATE_ROUNDING, _evaluate_power_rounding, _product_rounding,
    evaluate_power,
    op_vec_product,
    radial_dilate,
    truncate,
)
from .seriesio import (
    SeriesFormatError,
    _coeff_to_json,
    load_series,
    series_to_dict,
)

__all__ = ["Check", "RunReport", "main", "run_verify"]


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


def check_each(name: str, pairs: Sequence[tuple[float, float]]) -> Check:
    """``check_at_most`` of one of the ``(value, bound)`` pairs: one whose
    value is not within its bound if there is one, else the one with the
    largest value (0 against 0 for no pairs).  So it passes exactly when
    every value is at most its own bound, and shows the bound that the
    value it shows was checked against."""
    return check_at_most(name, *max(pairs, key=lambda p: (not p[0] <= p[1], p[0]), default=(0, 0)))


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
    """Sparse random series with standard complex normal coefficients.

    The keys are distinct rows of the cached simplex table.  All
    coefficients come from one draw that yields, term by term, the real
    and then the imaginary block that one ``standard_normal(shape)`` call
    each would give, so the bytes, key order and zero-dropping are those
    of building each term through the validating constructor.
    """
    rows = _simplex_table(*_simplex_shape(nvars, degree))[1]
    chosen = rng.choice(len(rows), size=min(num_terms, len(rows)), replace=False)
    shape = (dim,) if kind == "vector" else (dim, dim)
    draws = rng.standard_normal((len(chosen), 2, *shape))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    return PowerSeries._from_stack(kind, dim, rows[chosen], coeffs, np.arange(rows.shape[1]))


def _coefficient_gap(a, b, relative: bool = False) -> float:
    """Largest Euclidean distance between the coefficients of two series
    at any key of either; ``relative`` divides each distance by the norm
    of ``a``'s coefficient, floored at 1e-30.  Both coefficient stacks are
    aligned once on the union of keys (``series._aligned``) and their row
    norms taken together (each the bits of ``np.linalg.norm``); a
    non-finite gap is returned, not passed over."""
    x, y = (s.reshape(-1, math.prod(s.shape[1:])) for s in _aligned(a, b))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gap is the result
        gaps = _row_norms(x - y)
        if relative:
            gaps /= np.maximum(_row_norms(x), 1e-30)
    return float(np.max(gaps, initial=0.0))


def _product_gap(left, right, full) -> tuple[float, float]:
    """The gap ``||left(x) @ right(x) - full(x)||`` between the product of
    two series' values and the value of their product ``full`` (every
    pair kept), at ``x = 0.4 + 0.1i`` in each variable the factors use
    (power series) or at ``s = 2`` (Dirichlet series), and its bound.

    Each value F(x) is within B_F of the exact one, the bound its
    evaluation states (``series._evaluate_power_rounding``,
    ``dirichlet._evaluate_dirichlet_rounding``) as a sum over the terms of
    the weights ``||a|| |monomial(x)|`` (Frobenius norms for operators,
    monomials from ``series._monomials``), whose plain sum S_F bounds
    ``||F(x)||``.  So the product of the two values is within
    ``B_L (S_R + B_R) + S_L B_R`` of the exact product, and forming it,
    d-term products, adds ``gamma_{3d} (S_L + B_L)(S_R + B_R)``.  Each
    coefficient of ``full`` is within gamma_q of the sum of its pairs'
    ``||a|| ||b||`` (``series._product_rounding``), and the monomial of a
    product key is the product of its pair's, so the exact value of the
    computed ``full`` is within ``gamma_q S_L S_R`` of the exact product;
    evaluating it adds B_full.  The bound is that sum, while no product
    underflows; the rounding of the gap and of the bound themselves,
    second-order terms, is left out.
    """
    power = isinstance(full, PowerSeries)
    x = np.full(max(left.nvars_used, right.nvars_used, 1), 0.4 + 0.1j) if power else 2.0
    evaluate = evaluate_power if power else evaluate_dirichlet
    gap = float(np.linalg.norm(evaluate(left, x) @ evaluate(right, x) - evaluate(full, x)))
    sums = []  # S_F and B_F of left, right and full
    for F in (left, right, full):
        weights = np.abs(_monomials(F, np.array([x]))[0]) * np.linalg.norm(F._coeffs, axis=tuple(range(1, F._coeffs.ndim)))
        rounding = _gamma(_evaluate_power_rounding(F)) if power else _evaluate_dirichlet_rounding(F, x)
        sums.append((float(weights.sum()), float(np.sum(weights * rounding))))
    (S_L, B_L), (S_R, B_R), (_, B_full) = sums
    product = _gamma(3 * full.dim) * (S_L + B_L) * (S_R + B_R) + _gamma(_product_rounding(left, right)) * S_L * S_R
    return gap, B_L * (S_R + B_R) + S_L * B_R + product + B_full


def _schedule_drops(F, nvars, degrees, values) -> list[tuple[float, float]]:
    """Each drop ``a - b`` between consecutive entries of ``values``, the
    norm schedule of ``F`` over ``degrees`` in ``nvars`` variables, with
    its bound ``bound(a) + bound(b)`` (``multiplier._schedule_error_bound``):
    the exact norms are nondecreasing, so a larger drop is a fault."""
    bounds = _schedule_error_bound(F, nvars, degrees, values)
    return [(a - b, x + y) for a, b, x, y in zip(values, values[1:], bounds, bounds[1:])]


def _recovery_envelope(D: DirichletSeries, n: int, sigma: float, R: float, points: int) -> float:
    """A bound on ``||recover_coefficient(D, n, sigma, R, points) - a_n||``.

    The trapezoid average is ``sum_m (n/m)^sigma w_m a_m`` with w_n = 1
    and, for m != n, ``w_m = sin(R L) / (R L) * y cot y`` with
    ``L = log(n/m)``, ``y = h L / 2`` and ``h = 2 R / (points - 1)``.  As
    w is a weighted average of cosines, ``|w| <= 1``, and while
    ``|y| < pi/2``, that is ``R |L| < pi (points - 1) / 2``, the factor
    y cot y lies in (0, 1], so ``|w| <= min(1, 1 / (R |L|))``.  Each
    m != n adds ``|a_m| (n/m)^sigma`` times that bound on |w|, and every
    m adds ``|a_m| (n/m)^sigma`` times the rounding factor that
    ``recover_coefficient`` states (``_recover_coefficient_rounding``).
    """
    envelope = 0.0
    for (m, a), rounding in zip(D.terms.items(), _recover_coefficient_rounding(D, n, sigma, R)):
        L = math.log(n / m)
        # the bound on |w_m|, and 0 for m = n, whose term is a_n itself
        w = 1 / (R * abs(L)) if 1 < R * abs(L) < math.pi * (points - 1) / 2 else float(m != n)
        envelope += float(np.linalg.norm(a)) * (n / m) ** sigma * (w + rounding)
    return envelope


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_bohr(rng, limit, pairs, product_pairs) -> tuple[dict, list[Check]]:
    bad_roundtrip = sum(
        1 for n in range(1, limit + 1) if multiindex_to_index(index_to_multiindex(n)) != n
    )
    ab = rng.integers(1, 1000, size=(pairs, 2))
    bad_mult = 0
    for a, b in ab:
        alpha = index_to_multiindex(int(a)) + index_to_multiindex(int(b))
        if multiindex_to_index(alpha) != int(a) * int(b):
            bad_mult += 1

    # Exact: both products keep the same pairs, ``_kept_pairs`` and the
    # stable ``_group`` list each key's pairs by ascending left term, and
    # ``bohr`` keeps the term order and the coefficient stack, so each
    # coefficient is the same sum taken in the same order.
    bad_product = 0
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
        bad_product += left != right

    checks = [
        check_close("bohr-roundtrip-failures", bad_roundtrip, 0, 0),
        check_close("bohr-multiplicativity-failures", bad_mult, 0, 0),
        check_close("product-intertwining-failures", bad_product, 0, 0),
    ]
    return {}, checks


def _suite_parseval(rng, nvars, degree, dim, count) -> tuple[dict, list[Check]]:
    """The H_2 isometry and M_F as pointwise multiplication on the torus,
    each against the rounding the library states.

    With 2 degree + 1 points per variable the grid mean of ||G(w)||^2 is
    the Parseval sum exactly (``hp_norm``), so ``hp_norm(G, 2)`` and
    ``h2_norm(G)`` differ by rounding alone: within the bound
    ``_hp_norm_rounding`` gives for the quadrature plus ``h2_norm``'s
    gamma_k times the norm, relative to which the gap is taken; the gap's
    subtraction and division, and this bound's arithmetic, add 8 to k.
    The sampled and symbolic products agree in exact arithmetic, so the
    gap of ``pointwise_vs_symbolic`` is checked against the bound it
    states (``_pointwise_vs_symbolic_rounding``).
    """
    grid = TorusGrid(nvars=nvars, points_per_var=2 * degree + 1, radius=1.0)

    gaps = []
    for _ in range(count):
        G = _random_power_series(rng, "vector", dim, nvars, degree, 6)
        exact = h2_norm(G)
        quad = hp_norm(G, 2, grid)
        if exact > 0:
            bound = _hp_norm_rounding(G, 2, grid, quad) / exact + _gamma(_h2_norm_rounding(G) + 8)
            gaps.append((abs(quad - exact) / exact, bound))

    residuals = []
    for _ in range(count):
        F = _random_power_series(rng, "operator", 2, 2, 2, 4)
        G = _random_power_series(rng, "vector", 2, 2, 2, 4)
        g = TorusGrid(
            nvars=2, points_per_var=F.total_degree + G.total_degree + 1, radius=1.0
        )
        residuals.append((pointwise_vs_symbolic(F, G, g), _pointwise_vs_symbolic_rounding(F, G, g)))

    outputs = {"grid_points_per_var": grid.points_per_var}
    checks = [
        check_each("parseval-vs-quadrature-max-rel-gap", gaps),
        check_each("pointwise-vs-symbolic-max-residual", residuals),
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


def _suite_cole_gamelin(rng, kernel_count, ineq_count, degree) -> tuple[dict, list[Check]]:
    """Cole-Gamelin kernels and point evaluation at p = 2, each against an
    exact bound plus the rounding the library states.

    The degree-D kernel's norm falls short of ||x|| by at most ``||x|| A^2
    tail`` (``_geometric_tail_bound``, with A^2 = prod (1 - |z_j|^2)).
    Computing that bound rounds it by a relative gamma_J, with c =
    1 / (1 - max |z_j|^2) (``hardy._closeness``), and the gap itself is off by at most
    ``||x|| gamma_k`` for k from the rounding that ``cole_gamelin_kernel``
    and ``h2_norm`` state and the norm of x.  A value ``||G(z)||`` is off
    by the rounding ``evaluate_power`` states, ``gamma_k S``, and the norm
    of its d entries, where by Cauchy-Schwarz ``S = sum ||a|| |z^alpha|``
    is at most ``||G||_2 point_evaluation_bound(z)``, as ``sum
    |z^alpha|^2 <= prod 1 / (1 - |z_j|^2)``.  That ceiling is off by the
    rounding ``h2_norm`` and ``point_evaluation_bound`` state and one
    product, so every value is within the ceiling times ``1 + gamma_k``.
    """
    kernel_gaps = []
    for _ in range(kernel_count):
        nvars = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 4))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        radii = 0.7 * rng.random(nvars)
        z = radii * np.exp(2j * np.pi * rng.random(nvars))
        kernel = cole_gamelin_kernel(x, z, degree)
        norm_x = float(np.linalg.norm(x))
        gap = abs(h2_norm(kernel) - norm_x)
        t = float(np.max(np.abs(z) ** 2))
        tail = norm_x * float(np.prod(1 - np.abs(z) ** 2)) * _geometric_tail_bound(t, nvars, degree)
        J = 5 * degree + 26 * _closeness(z) + dim + 21  # the tail formula, A^2 and ||x||, for N <= 2
        # the norm of x and the subtraction add d + 3
        k = _cole_gamelin_kernel_rounding(z, degree) + _h2_norm_rounding(kernel) + dim + 3
        kernel_gaps.append((gap, tail * (1 + _gamma(J)) + norm_x * _gamma(k)))

    values = []
    for _ in range(ineq_count):
        nvars = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        D = int(rng.integers(0, 5))
        G = _random_power_series(rng, "vector", dim, nvars, D, 6)
        radii = 0.95 * rng.random(nvars)
        z = radii * np.exp(2j * np.pi * rng.random(nvars))
        value = float(np.linalg.norm(evaluate_power(G, z)))
        ceiling = h2_norm(G) * point_evaluation_bound(z, 2.0)
        # the norm of the d entries, the product and 1 + gamma_k add d + 7
        k = _evaluate_power_rounding(G) + _h2_norm_rounding(G) + _point_evaluation_bound_rounding(z) + dim + 7
        values.append((value, ceiling * (1 + _gamma(k))))

    checks = [
        check_each("kernel-norm-gap", kernel_gaps),
        check_each("point-evaluation-norm", values),
    ]
    return {}, checks


def _suite_dilation(rng, count) -> tuple[dict, list[Check]]:
    """Radial dilation is a contraction with a stated tail, and multiplicative.

    ``||G_r|| <= ||G||`` and ``||G - G_r|| <= (1 - r^W) ||G||`` hold with
    W the largest weighted degree; computed, each side is off by at most
    the rounding ``h2_norm`` and ``radial_dilate`` state, with 9 more
    roundings for the subtraction and ``1 - r^W``.  ``(F G)_r = F_r G_r``
    at every key: each product coefficient is within gamma_q of the sum
    of its pairs' norms (``series._product_rounding``), and each dilation
    adds radial_dilate's gamma_3 per factor, so the two sides differ by
    at most ``gamma_K S_F(r) S_G(r)`` with ``S(r) = sum r^w(beta)
    ||a_beta||``, taken from the dilated coefficients, for ``K = 2 q + 9``,
    plus the rounding of the gap and of S.
    """
    radii = (0.3, 0.6, 0.9)

    contractions, tails, gaps = [], [], []
    for _ in range(count):
        nvars = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 3))
        F = _random_power_series(rng, "operator", dim, nvars, 2, 4)
        G = _random_power_series(rng, "vector", dim, nvars, 2, 4)
        window = TruncationParams(nvars=nvars, max_degree=4, dim=dim)
        product = op_vec_product(F, G, window)
        base = h2_norm(G)
        W = G.max_weighted_degree
        slack = base * _gamma(2 * _h2_norm_rounding(G) + _RADIAL_DILATE_ROUNDING + 9)
        # the two sides' products and three dilations; the gap's subtraction and
        # norm, d + 3; S_F S_G from the rounded dilated coefficients, d^2 + d + T_F + T_G + 13
        K = 2 * _product_rounding(F, G) + 3 * _RADIAL_DILATE_ROUNDING + dim * dim + 2 * dim + F.num_terms + G.num_terms + 16
        for r in radii:
            Fr, Gr = radial_dilate(F, r), radial_dilate(G, r)
            contractions.append((h2_norm(Gr) - base, slack))
            tails.append((h2_norm(G - Gr) - (1 - r**W) * base, slack))
            S = float(np.linalg.norm(Fr._coeffs, axis=(1, 2)).sum() * np.linalg.norm(Gr._coeffs, axis=1).sum())
            gap = _coefficient_gap(radial_dilate(product, r), op_vec_product(Fr, Gr, window))
            gaps.append((gap, _gamma(K) * S))

    outputs = {"radii": list(radii)}
    checks = [
        check_each("dilation-contraction-excess", contractions),
        check_each("dilation-tail-bound-excess", tails),
        check_each("dilation-multiplicativity-gap", gaps),
    ]
    return outputs, checks


def _suite_toeplitz(rng, degree, count) -> tuple[dict, list[Check]]:
    symbol = PowerSeries.operator(
        1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]}
    )
    window = TruncationParams(nvars=1, max_degree=degree, dim=1)
    endpoint = operator_norm(assemble_compression(symbol, window).matrix)
    # The degree-D compression of 1 + z is the (D+1)-row lower bidiagonal
    # of ones, whose norm is 2 cos(pi / (2D + 3)).  Allowed: operator_norm's
    # stated bound at order D + 1, plus 8u for rounding the closed form.
    closed = 2.0 * math.cos(math.pi / (2 * degree + 3))
    endpoint_tol = _operator_norm_rounding(degree + 1) * closed + 8 * _U
    # The schedule takes the same norm through the Gram matrix; allowed:
    # the bound its docstring states, plus the same 8u.
    gram_value = multiplier_norm_schedule(symbol, [degree], window)[0]
    gram_tol = _schedule_error_bound(symbol, 1, [degree], [gram_value])[0] + 8 * _U

    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    shift_symbol = PowerSeries.operator(3, {MultiIndex([1]): A})
    base = TruncationParams(nvars=1, max_degree=1, dim=3)
    schedule = multiplier_norm_schedule(shift_symbol, [1, 2, 3, 4], base)
    norm_A = operator_norm(A)
    # every entry is exactly ||A||: allowed, its bound plus that of the SVD of A
    shift_bounds = _schedule_error_bound(shift_symbol, 1, [1, 2, 3, 4], schedule)
    shift_gaps = [(abs(s - norm_A), b + _operator_norm_rounding(3) * norm_A) for s, b in zip(schedule, shift_bounds)]

    drops = []
    for _ in range(count):
        nvars = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 3))
        F = _random_power_series(rng, "operator", dim, nvars, 2, 4)
        base = TruncationParams(nvars=nvars, max_degree=0, dim=dim)
        values = multiplier_norm_schedule(F, [0, 1, 2, 3], base)
        drops += _schedule_drops(F, nvars, [0, 1, 2, 3], values)

    outputs = {
        "endpoint_value": endpoint,
        "endpoint_closed_form": closed,
        "shift_schedule": schedule,
    }
    checks = [
        check_close("toeplitz-endpoint-vs-closed-form", endpoint, closed, endpoint_tol),
        check_close("toeplitz-schedule-vs-closed-form", gram_value, closed, gram_tol),
        check_each("shift-symbol-schedule-gap", shift_gaps),
        check_each("schedule-monotonicity-violation", drops),
    ]
    return outputs, checks


def _suite_diagonal(rng, dim, pairs) -> tuple[dict, list[Check]]:
    """``||diag(w) - diag(w')|| = max |w_j - w'_j|``.  Both sides read the
    same rounded differences, so they differ by the rounding operator_norm
    states and the one ulp (2u) np.abs may be off by."""
    rows = []
    gaps = []
    for _ in range(pairs):
        w = np.exp(2j * np.pi * rng.random(dim))
        wt = np.exp(2j * np.pi * rng.random(dim))
        dist_op = operator_norm(diagonal_example(w) - diagonal_example(wt))
        dist_inf = float(np.max(np.abs(w - wt)))
        gaps.append((abs(dist_op - dist_inf), _operator_norm_rounding(dim) * dist_op + 2 * _U * dist_inf))
        rows.append({"uniform_distance": dist_inf, "operator_distance": dist_op})
    return {"table": rows}, [check_each("diagonal-distance-identity-gap", gaps)]


def _suite_dirichlet(rng, count) -> tuple[dict, list[Check]]:
    gaps = []
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        D = bohr(_random_power_series(rng, "operator", dim, 2, 2, 4))
        E = bohr(_random_power_series(rng, "vector", dim, 2, 2, 4))
        gaps.append(_product_gap(D, E, dirichlet_product(D, E, max_frequency_for_simplex(2, 4))))

    E = bohr(_random_power_series(rng, "vector", 2, 3, 3, 8))
    eps_grid = [0.1 * k for k in range(11)]
    norms = [h2_norm(epsilon_shift(E, eps)) for eps in eps_grid]
    # each norm within the rounding h2_norm and epsilon_shift state; one more for the rise
    k = _h2_norm_rounding(E) + _EPSILON_SHIFT_ROUNDING + 1
    rises = [(b - a, _gamma(k) * (a + b)) for a, b in zip(norms, norms[1:])]
    identity_exact = 0 if epsilon_shift(E, 0.0) == E else 1
    a, b = 0.3, 0.45
    twice = epsilon_shift(epsilon_shift(E, a), b)
    once = epsilon_shift(E, a + b)
    # relative to each coefficient: epsilon_shift's rounding of the shifts by a,
    # by b and by the double a + b, and its s for rounding that sum; then the
    # subtraction, the two norms of d entries and the division, 2 d + 10
    semigroup_bound = _gamma(2 * E.dim + 10 + 3 * _EPSILON_SHIFT_ROUNDING + _epsilon_shift_sum_rounding(E, a + b))

    outputs = {"epsilon_grid": eps_grid, "epsilon_norms": norms}
    checks = [
        check_each("product-evaluation-consistency", gaps),
        check_each("epsilon-shift-monotonicity-violation", rises),
        check_close("epsilon-zero-identity-failures", identity_exact, 0, 0),
        check_at_most(
            "epsilon-shift-semigroup-rel-gap", _coefficient_gap(once, twice, relative=True), semigroup_bound
        ),
    ]
    return outputs, checks


def _suite_recover(rng, sigma) -> tuple[dict, list[Check]]:
    """Recover one coefficient a_n of a random series on windows of growing half-length R.

    The series has 2-4 terms ``a_m m^-s`` on distinct frequencies m in
    1..30 with standard complex normal coefficients, and n is one of its
    frequencies.  Each other frequency m leaves the cross term
    ``a_m (n/m)^sigma sin(R L) / (R L)`` with ``L = log(n/m)``.  On a grid
    of step h the trapezoid rule's error on the window average is at most
    ``h^2/12 * sum |a_m| (n/m)^sigma L^2`` (its Peano kernel has one sign,
    and the integrand's second derivative carries the factor L^2), so the
    error must match the summed cross terms within that bound.  The rule
    integrates ``exp(i L t)`` exactly up to the factor ``x cot x`` with
    ``x = h L / 2``, which lies in (0, 1] while ``|x| < pi/2``, so the
    error also lies below the envelope ``sum |a_m| (n/m)^sigma / (R |L|)``.
    Both hold here: ``|L| >= log(30/29)``, so ``R |L| > 3`` on every
    window, and ``|x| < 0.3``.  The envelope, with its rounding term, is
    ``_recovery_envelope``, the one ``polyhardy recover`` checks.
    """
    frequencies = rng.choice(np.arange(1, 31), size=int(rng.integers(2, 5)), replace=False)
    draws = rng.standard_normal((len(frequencies), 2))
    D = DirichletSeries.vector(1, {int(m): [complex(*z)] for m, z in zip(frequencies, draws)})
    n = int(rng.choice(frequencies))
    radii = [100.0, 400.0, 1600.0, 10_000.0]
    errors = []
    checks = []
    for R in radii:
        points = max(4001, int(12 * R))
        h = 2 * R / (points - 1)
        err = recover_coefficient(D, n, sigma, R, points) - D.coefficient(n)
        cross = np.zeros_like(err)
        quadrature = 0.0
        for m, a in D.terms.items():
            if m == n:
                continue
            L = math.log(n / m)
            scale = (n / m) ** sigma
            cross = cross + scale * math.sin(R * L) / (R * L) * a
            quadrature += float(np.linalg.norm(a)) * scale * L**2 * h**2 / 12
        errors.append(float(np.linalg.norm(err)))
        envelope = _recovery_envelope(D, n, sigma, R, points)
        checks.append(
            check_at_most(f"recovery-cross-term-gap-{int(R)}", np.linalg.norm(err - cross), quadrature)
        )
        checks.append(check_at_most(f"recovery-error-envelope-{int(R)}", errors[-1], envelope))

    outputs = {
        "frequencies": list(D.frequencies),
        "frequency": n,
        "window_half_lengths": radii,
        "errors": errors,
    }
    return outputs, checks


#: Each suite's runner and the fixed sizes it runs at.
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


def run_verify(suite: str, seed: int = 0) -> RunReport:
    """Run a named verification suite and return its report.

    Known suites: bohr, parseval, cole-gamelin, dilation, toeplitz,
    diagonal, dirichlet, recover.  Each runs at its fixed sizes on draws
    from ``np.random.default_rng(seed)``, so ``seed`` is its only input; it
    goes through ``multiindex._index``, so a non-integer raises
    ``TypeError`` and a negative seed ``ValueError``, each naming it.  The
    report's inputs are the seed and the suite's sizes, and its wall time
    is that of the suite alone.

    No parameter sets a tolerance.  Every check is exact, with tolerance
    0, or checks a value against the error bounds the library states,
    evaluated for its sample (``check_each`` of per-sample ``(value,
    bound)`` pairs), with no exception.  Each bound is evaluated by the
    private evaluator beside the library function that states it (see the
    module docstring); a suite adds only the rounding of its own
    arithmetic.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    runner, sizes = _SUITES[suite]
    seed = _index(seed, "seed", 0)
    start = time.perf_counter()
    outputs, checks = runner(np.random.default_rng(seed), **sizes)
    return RunReport(
        command=f"verify {suite}",
        inputs={"seed": seed, **sizes},
        outputs=outputs,
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# file-driven subcommands
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return _comma_list(text, int)


def _float_list(text: str) -> list[float]:
    return _comma_list(text, float)


def _comma_list(text: str, convert) -> list:
    values = [convert(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return values


def _degree(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _reject_unused(args, command: str, *names: str) -> None:
    """Raise ``ValueError`` naming each option in ``names`` that was given,
    for options a subcommand reads only for some inputs."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{command} does not use {', '.join(given)}")


def _cmd_transform(args) -> RunReport:
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
    return RunReport(
        command="transform",
        inputs={"file": str(args.file), "direction": direction},
        outputs={"series": series_to_dict(result)},
        checks=[
            Check("transform-roundtrip-identity", "exact", "exact" if roundtrip_ok else "mismatch", 0.0, roundtrip_ok)
        ],
    )


def _cmd_product(args) -> RunReport:
    """Windowed product, checked against the full product: the full product
    must match ``left(x) @ right(x)`` at one point within the bound of
    ``_product_gap``, and the windowed one must equal the full one
    restricted to the window exactly (tolerance 0), since both sum the
    same pairs in the same order (``series._kept_pairs`` keeps a prefix of
    each left term's partners)."""
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
        inputs.update({"nvars": window.nvars, "degree": window.max_degree})
    elif isinstance(left, DirichletSeries) and isinstance(right, DirichletSeries):
        _reject_unused(args, "product of Dirichlet series", "nvars", "degree")
        full_frequency = max(left.frequencies, default=1) * max(right.frequencies, default=1)
        max_freq = full_frequency if args.max_frequency is None else args.max_frequency
        product = dirichlet_product(left, right, max_freq)
        full = dirichlet_product(left, right, full_frequency)
        keep = full._keys <= max_freq
        restricted = DirichletSeries._from_stack(
            "vector", full.dim, full._keys[keep], full._coeffs[keep]
        )
        inputs["max_frequency"] = max_freq
    else:
        raise SeriesFormatError(
            "product needs two power series or two Dirichlet series"
        )
    evaluation = _product_gap(left, right, full)
    window_gap = _coefficient_gap(product, restricted)
    return RunReport(
        command="product",
        inputs=inputs,
        outputs={
            "series": series_to_dict(product),
            "evaluation_gap": evaluation[0],
            "window_gap": window_gap,
        },
        checks=[check_each("product-evaluation-consistency", [evaluation, (window_gap, 0)])],
    )


def _cmd_norm(args) -> RunReport:
    """The norm of a series file.  The grids of ``hp`` and ``hinf`` span the
    variables the series uses (at least one): further variables change
    neither norm."""
    series = load_series(args.file)
    inputs = {"file": str(args.file), "which": args.which}
    outputs: dict = {}
    if args.which == "h2":
        outputs["value"] = h2_norm(series)
    elif args.which == "hp":
        if not isinstance(series, PowerSeries):
            raise SeriesFormatError("hp norms need a power series file")
        nvars = max(series.nvars_used, 1)
        M = 2 * series.total_degree + 1 if args.grid is None else args.grid
        grid = TorusGrid(nvars=nvars, points_per_var=M, radius=args.radius)
        outputs["value"] = hp_norm(series, args.p, grid)
        inputs.update({"p": args.p, "nvars": nvars, "grid": M, "radius": args.radius})
    else:  # hinf
        if not isinstance(series, PowerSeries):
            raise SeriesFormatError("hinf estimates need a power series file")
        nvars = max(series.nvars_used, 1)
        schedule = [
            TorusGrid(nvars=nvars, points_per_var=M, radius=r)
            for M in args.grid
            for r in args.radius
        ]
        outputs["value"] = hinf_norm(series, schedule)
        outputs["estimate_kind"] = "grid lower bound"
        inputs.update({"nvars": nvars, "grids": args.grid, "radii": args.radius})
    return RunReport(command=f"norm {args.which}", inputs=inputs, outputs=outputs)


def _cmd_mulnorm(args) -> RunReport:
    """The norm schedule, checked to be nondecreasing within the summed
    error bounds of each two consecutive entries (``_schedule_drops``)."""
    series = load_series(args.file)
    if not isinstance(series, PowerSeries) or series.kind != "operator":
        raise SeriesFormatError("mulnorm needs an operator-valued power series file")
    nvars = max(series.nvars_used, 1) if args.nvars is None else args.nvars
    base = TruncationParams(nvars=nvars, max_degree=0, dim=series.dim)
    values = multiplier_norm_schedule(series, args.degrees, base)
    drops = _schedule_drops(series, nvars, args.degrees, values)
    return RunReport(
        command="mulnorm",
        inputs={"file": str(args.file), "nvars": nvars, "degrees": args.degrees},
        outputs={"schedule": values},
        checks=[check_each("schedule-monotonicity-violation", drops)],
    )


def _cmd_recover(args) -> RunReport:
    """The recovered coefficient, checked against the stored one within
    ``_recovery_envelope``."""
    series = load_series(args.file)
    if not isinstance(series, DirichletSeries):
        raise SeriesFormatError("recover needs a Dirichlet series file")
    # the default grid needs a finite R; recover_coefficient names a bad one
    default = max(4001, int(12 * args.R)) if math.isfinite(args.R) else 4001
    points = default if args.grid is None else args.grid
    got = recover_coefficient(series, args.frequency, args.sigma, args.R, points)
    err = float(np.linalg.norm(got - series.coefficient(args.frequency)))
    envelope = _recovery_envelope(series, args.frequency, args.sigma, args.R, points)
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
            "recovered": _coeff_to_json(got),
            "error_vs_stored": err,
        },
        checks=[check_at_most("recovery-error-envelope", err, envelope)],
    )


def _cmd_example_sot(args) -> RunReport:
    """The ``verify diagonal`` run at ``--seed``, reported as its distance table."""
    report = run_verify("diagonal", seed=args.seed)
    return replace(report, command="example-sot", outputs={"table": report.outputs["table"]})


def _cmd_verify(args) -> RunReport:
    return run_verify(args.suite, seed=args.seed)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


#: Options several subcommands share, with one type.  Each subparser offers
#: only those its command reads, and declares the others it reads itself, so
#: argparse rejects the rest.
_SHARED_OPTIONS = {
    "nvars": {"type": int, "help": "window variables (default: those used); fewer drop the others' terms, as if set to 0"},
    "seed": {"type": int, "default": 0, "help": "random seed (default 0)"},
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
        Abbreviations are off, so a flag is read only as spelled: ``--s``
        is not taken for ``--seed``."""
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
        sub, "product", _cmd_product, ("nvars",),
        help="operator * vector product, checked against the full product within a stated bound",
    )
    sp.add_argument("left", type=Path, help="operator-valued series file")
    sp.add_argument("right", type=Path, help="vector-valued series file")
    sp.add_argument("--degree", type=_degree, help="total-degree bound")
    sp.add_argument("--max-frequency", type=int, default=None, dest="max_frequency")

    norms = sub.add_parser("norm", help="h2 / hp / hinf norms").add_subparsers(
        dest="which", required=True
    )
    command(norms, "h2", _cmd_norm, (), help="h2 norm").add_argument("file", type=Path)
    sp = command(norms, "hp", _cmd_norm, (), help="hp norm on one grid over the variables the series uses")
    sp.add_argument("file", type=Path)
    sp.add_argument("--p", type=float, default=2.0, help="norm exponent (default 2)")
    sp.add_argument("--grid", type=int, help="grid points per variable (default 2 * degree + 1)")
    sp.add_argument("--radius", type=float, default=1.0, help="grid radius in (0, 1] (default 1)")
    sp = command(norms, "hinf", _cmd_norm, (), help="hinf grid lower bound over the variables the series uses")
    sp.add_argument("file", type=Path)
    sp.add_argument("--grid", type=_int_list, default=[64, 128, 256], help="comma list of grid points per variable")
    sp.add_argument("--radius", type=_float_list, default=[0.9, 0.99, 0.999], help="comma list of grid radii in (0, 1]")

    sp = command(
        sub, "mulnorm", _cmd_mulnorm, ("nvars",),
        help="compression-norm schedule, checked nondecreasing within its stated error bounds",
    )
    sp.add_argument("file", type=Path, help="operator-valued power series file")
    sp.add_argument(
        "--degrees",
        type=_int_list,
        default=list(range(9)),
        help="comma list of degree checkpoints (default 0,1,...,8)",
    )

    sp = command(
        sub, "recover", _cmd_recover, (),
        help="vertical-line coefficient recovery, checked within its error envelope",
    )
    sp.add_argument("file", type=Path, help="Dirichlet series file")
    sp.add_argument("--grid", type=int, help="trapezoid grid points (default max(4001, 12 R))")
    sp.add_argument("--frequency", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=2.0)
    sp.add_argument("--R", type=float, default=1e4, help="integration half-length")

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True
    )
    for suite in _SUITES:
        command(suites, suite, _cmd_verify, ("seed",))

    command(sub, "example-sot", _cmd_example_sot, ("seed",), help="diagonal-symbol distance table")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a usage error
        return exc.code
    start = time.perf_counter()
    try:
        report: RunReport = args.handler(args)
    except (SeriesFormatError, ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - start
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    payload = json.dumps(report.as_dict(), indent=2)
    print(payload)
    if args.out is not None:
        try:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
