"""Hardy norms, grid quadrature, Fourier extraction, extremal kernels."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhardy.hardy
from conftest import (
    NON_DYADIC,
    assert_same_bits,
    distance,
    grid_box,
    grid_values_by_term,
    random_power_series,
    simplex_by_compositions,
    terms,
)
from polyhardy import (
    DirichletSeries,
    MultiIndex,
    PowerSeries,
    TorusGrid,
    bohr,
    cole_gamelin_kernel,
    cole_gamelin_kernel_value,
    evaluate_power,
    fourier_coefficient,
    h2_norm,
    hinf_norm,
    hp_norm,
    operator_norm,
    point_evaluation_bound,
    radial_dilate,
    simplex,
)
from polyhardy._linalg import _gamma, _operator_norm_rounding
from polyhardy.hardy import (
    _cells,
    _cole_gamelin_kernel_rounding,
    _dft_rounding,
    _fft_axis,
    _grid_coefficients,
    _grid_values,
    _grid_values_rounding,
    _h2_norm_rounding,
    _hp_norm_rounding,
    _modulus_sum,
    _point_evaluation_bound_rounding,
)
from polyhardy.series import _evaluate_power_rounding, _values_at


class TestTorusGrid:
    def test_node_layout(self):
        grid = TorusGrid(nvars=2, points_per_var=4, radius=0.5)
        nodes = grid.nodes()
        assert nodes.shape == (16, 2)
        np.testing.assert_allclose(np.abs(nodes), 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nvars": 0, "points_per_var": 4},
            {"nvars": 1, "points_per_var": 0},
            {"nvars": 1, "points_per_var": 4, "radius": 0.0},
            {"nvars": 1, "points_per_var": 4, "radius": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TorusGrid(**kwargs)

    @pytest.mark.parametrize(
        "args, name",
        [((1, 4.5), "points_per_var"), ((1.5, 4), "nvars"), ((2, "4"), "points_per_var")],
    )
    def test_non_integer_sizes_rejected(self, args, name):
        with pytest.raises(TypeError, match=name):
            TorusGrid(*args)

    def test_integer_like_sizes_become_ints(self):
        grid = TorusGrid(np.int64(2), np.int32(3))
        assert type(grid.nvars) is int and type(grid.points_per_var) is int
        assert grid == TorusGrid(2, 3) and grid.num_nodes == 9


class TestH2Norm:
    def test_single_term(self):
        x = np.array([3.0, 4.0])
        F = PowerSeries.vector(2, {MultiIndex([2, 1]): x})
        assert h2_norm(F) == pytest.approx(5.0)

    def test_orthogonal_monomials(self):
        F = PowerSeries.vector(
            1, {MultiIndex(): [3.0], MultiIndex([1]): [4.0]}
        )
        assert h2_norm(F) == pytest.approx(5.0)

    def test_operator_kind_rejected(self):
        with pytest.raises(ValueError, match="hinf"):
            h2_norm(PowerSeries.operator(2, {MultiIndex(): np.eye(2)}))

    def test_accepts_dirichlet_series(self):
        F = PowerSeries.vector(1, {MultiIndex([1, 1]): [2.0]})
        assert h2_norm(bohr(F)) == h2_norm(F)

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                terms(st.lists(st.integers(0, 3), max_size=3).map(MultiIndex), "vector", dim),
                terms(st.integers(min_value=1, max_value=10**6), "vector", dim),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fsum_reference(self, drawn):
        """One sum of squares over T*d entries: within gamma_{T*d+2} ||F||_2
        of the correctly rounded sum of the same squares."""
        dim, power_terms, dirichlet_terms = drawn
        for F in (PowerSeries("vector", dim, power_terms), DirichletSeries("vector", dim, dirichlet_terms)):
            entries = [v for c in F.terms.values() for v in c.tolist()]
            reference = math.sqrt(math.fsum([v.real**2 for v in entries] + [v.imag**2 for v in entries]))
            assert abs(h2_norm(F) - reference) <= _gamma(_h2_norm_rounding(F)) * reference

    def test_empty_series_has_norm_zero(self):
        assert h2_norm(PowerSeries.vector(3)) == 0.0
        assert h2_norm(DirichletSeries.vector(2)) == 0.0


class TestHpNorm:
    def test_constant(self):
        x = np.array([1.0, 2.0, 2.0])
        F = PowerSeries.vector(3, {MultiIndex(): x})
        grid = TorusGrid(nvars=1, points_per_var=5)
        for p in (1.0, 2.0, 3.5):
            assert hp_norm(F, p, grid) == pytest.approx(3.0)

    def test_unimodular_monomial_any_p(self):
        F = PowerSeries.vector(1, {MultiIndex([1]): [1.0]})
        grid = TorusGrid(nvars=1, points_per_var=8, radius=1.0)
        assert hp_norm(F, 4.0, grid) == pytest.approx(1.0)

    def test_p_below_one_rejected(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1.0]})
        grid = TorusGrid(nvars=1, points_per_var=2)
        with pytest.raises(ValueError):
            hp_norm(F, 0.9, grid)
        with pytest.raises(ValueError):
            hp_norm(F, np.inf, grid)

    def test_insufficient_variables_rejected(self):
        F = PowerSeries.vector(1, {MultiIndex([0, 1]): [1.0]})
        grid = TorusGrid(nvars=1, points_per_var=4)
        with pytest.raises(ValueError):
            hp_norm(F, 2.0, grid)


class TestH2Quadrature:
    """At radius 1 the M-point mean of ||G(w)||^2 is the Parseval sum once
    M exceeds the largest exponent D of every variable, and not before."""

    @staticmethod
    def gaps(M_of):
        """For 60 seeded vector series with D >= 1: the gap between
        ``hp_norm(G, 2)`` on the unit grid of ``M_of(D)`` points per
        variable and ``h2_norm(G)``, and its tolerance: the bound
        ``hp_norm`` states (``_hp_norm_rounding``, which ``verify parseval``
        reads) and the stated rounding of ``h2_norm``, with two more for the
        subtraction and for taking it relative to the computed norm."""
        rng = np.random.default_rng(0)
        out = []
        while len(out) < 60:
            G = random_power_series(rng, "vector", int(rng.integers(1, 4)), int(rng.integers(1, 3)), 4, 6)
            D = max((e for a in G.terms for e in a.exponents), default=0)
            if D == 0:
                continue
            grid = TorusGrid(max(G.nvars_used, 1), M_of(D))
            h2, quad = h2_norm(G), hp_norm(G, 2, grid)
            tol = _hp_norm_rounding(G, 2, grid, quad) + _gamma(_h2_norm_rounding(G) + 2) * h2
            out.append((abs(quad - h2), tol))
        return out

    def test_exact_past_the_largest_exponent(self):
        for gap, tol in self.gaps(lambda D: D + 1):
            assert gap <= tol

    def test_misses_at_the_largest_exponent(self):
        assert max(gap / tol for gap, tol in self.gaps(lambda D: D)) > 1e6


class TestHinfNorm:
    def test_constant_operator_attains_spectral_norm(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        F = PowerSeries.operator(3, {MultiIndex(): A})
        grid = TorusGrid(nvars=1, points_per_var=4, radius=0.5)
        assert hinf_norm(F, [grid]) == pytest.approx(operator_norm(A))

    def test_shift_symbol_reaches_norm_at_radius_limit(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2))
        F = PowerSeries.operator(2, {MultiIndex([1]): A})
        norm_A = operator_norm(A)
        estimate = hinf_norm(F, [TorusGrid(1, 16, 0.999)])
        assert estimate <= norm_A + 1e-12
        assert estimate == pytest.approx(0.999 * norm_A, rel=1e-12)

    def test_scalar_one_plus_z(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1.0], MultiIndex([1]): [1.0]})
        estimate = hinf_norm(F, [TorusGrid(1, 256, 0.999)])
        assert estimate <= 2.0
        assert abs(estimate - 2.0) < 5e-3

    def test_monotone_in_schedule_extension(self):
        rng = np.random.default_rng(4)
        F = random_power_series(rng, "vector", 2, 2, 3, 5)
        schedule = [TorusGrid(2, 8, 0.9), TorusGrid(2, 16, 0.99), TorusGrid(2, 32, 0.999)]
        values = [hinf_norm(F, schedule[: k + 1]) for k in range(len(schedule))]
        assert values == sorted(values)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            hinf_norm(PowerSeries.vector(1), [])

    def test_non_finite_grid_values_rejected(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1e308]], MultiIndex([1]): [[1e308]]})
        # The transform gives inf + nan*j at w = 1, whose ceiling is NaN,
        # and 0 at w = -1, whose zero ceiling alone would end the search.
        with pytest.raises(ValueError, match=r"not finite at 1 of 2 nodes; the first, node 0 "):
            hinf_norm(F, [TorusGrid(1, 2)])


class TestNonFiniteNodes:
    """F = 1e308 (1 + z) on four nodes is inf + nan*j at w = 1, where a
    running ``max(0.0, nan)`` would return 0.0 and the H_p mean NaN.  The
    finite value 1e308 (1 + i) at w = i overflows numpy's norm, and no
    warning of it escapes (warnings are errors in this suite)."""

    GRID = TorusGrid(1, 4)
    MESSAGE = r"grid values are not finite at 1 of 4 nodes; the first, node 0 of grid.nodes\(\)"

    def series(self, kind):
        if kind == "vector":
            return PowerSeries.vector(1, {MultiIndex(): [1e308], MultiIndex([1]): [1e308]})
        return PowerSeries.operator(2, {MultiIndex(): 1e308 * np.eye(2), MultiIndex([1]): 1e308 * np.eye(2)})

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    def test_hinf_norm_names_the_node(self, kind):
        schedule = [TorusGrid(1, 3, 0.5), self.GRID]  # the first grid is finite
        with pytest.raises(ValueError, match=self.MESSAGE):
            hinf_norm(self.series(kind), schedule)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_hp_norm_names_the_node(self, p):
        with pytest.raises(ValueError, match=self.MESSAGE):
            hp_norm(self.series("vector"), p, self.GRID)


class TestLargeFiniteValues:
    """Values whose squares or p-th powers leave the normal doubles, above
    or below, although their norms do not: each norm is a double near the
    exact one, not inf or 0, and no warning escapes (warnings are errors
    in this suite)."""

    BIG = [1e155, -1e155j]
    GRID = TorusGrid(1, 3)

    @pytest.mark.parametrize(
        "F", [PowerSeries.vector(2, {MultiIndex(): BIG, MultiIndex([1]): BIG}), DirichletSeries.vector(2, {1: BIG, 6: BIG})]
    )
    def test_h2_norm(self, F):
        assert abs(h2_norm(F) - 2e155) <= _gamma(_h2_norm_rounding(F)) * 2e155

    @pytest.mark.parametrize("scale, p", [(1e155, 1.0), (1e155, 2.0), (1e100, 4.0), (1e30, 12.0)])
    def test_hp_norm(self, scale, p):
        F = PowerSeries.vector(2, {MultiIndex(): [1.0, 2.0j], MultiIndex([1]): [-0.5, 1.0]})
        want = scale * hp_norm(F, p, self.GRID)
        assert hp_norm(scale * F, p, self.GRID) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("c, p", [(2.0, 1100.0), (1.2, 5000.0)])
    def test_hp_norm_of_a_constant_at_large_p(self, c, p):
        """c^p overflows and (c / 2^e)^p underflows: the retry divides by
        the largest node norm, so the largest term is 1 and the norm is c."""
        assert hp_norm(PowerSeries.vector(1, {MultiIndex(): [c]}), p, self.GRID) == c

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    def test_hinf_norm(self, kind):
        F = PowerSeries(kind, 2, {MultiIndex(): np.diag(self.BIG) if kind == "operator" else self.BIG})
        assert hinf_norm(F, [self.GRID]) == pytest.approx(1e155 * (1.0 if kind == "operator" else math.sqrt(2)), rel=1e-15)

    TINY = PowerSeries.vector(2, {MultiIndex(): [1e-170, 1e-170]})

    def test_h2_norm_of_tiny_entries(self):
        """Each square, 1e-340, is below the smallest double."""
        want = math.sqrt(2) * 1e-170
        assert abs(h2_norm(self.TINY) - want) <= _gamma(_h2_norm_rounding(self.TINY)) * want

    def test_hinf_norm_of_tiny_entries(self):
        assert math.isclose(hinf_norm(self.TINY, [self.GRID]), math.sqrt(2) * 1e-170, rel_tol=1e-15)

    @pytest.mark.parametrize("c, p", [(0.5, 1100.0), (1e-200, 3.0), (1e-170, 2.0), (1e-160, 2.0)])
    def test_hp_norm_of_a_small_constant(self, c, p):
        """c^p is 0 or subnormal, which the direct mean returns as 0 or
        with lost digits: the retry divides by the largest node norm."""
        assert math.isclose(hp_norm(PowerSeries.vector(1, {MultiIndex(): [c]}), p, self.GRID), c, rel_tol=1e-15)


#: Entries from subnormal to 1e3 in modulus, so squares and Gram products can underflow.
_entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def operator_symbols(draw):
    """Operator symbols of dim 1-4 on 1-2 variables, with a schedule.

    Besides generic coefficients: rank-one symbols, where sigma_max equals
    the Schatten-4 norm at every node (the tight case for the pruning
    allowance); one monomial times one matrix, where every node of a
    unit-radius grid ties; and the zero symbol.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    nvars = draw(st.integers(min_value=1, max_value=2))
    keys = st.lists(st.integers(0, 3), max_size=nvars).map(MultiIndex)
    matrices = st.lists(_entries, min_size=dim * dim, max_size=dim * dim).map(
        lambda v: np.reshape(v, (dim, dim))
    )
    vectors = st.lists(_entries, min_size=dim, max_size=dim).map(np.array)
    family = draw(st.sampled_from(["generic", "rank-one", "monomial", "zero"]))
    if family == "generic":
        coefficients = draw(st.dictionaries(keys, matrices, max_size=6))
    elif family == "rank-one":
        u, v = draw(vectors), draw(vectors)
        scalars = draw(st.dictionaries(keys, _entries, max_size=6))
        coefficients = {a: c * np.outer(u, v.conj()) for a, c in scalars.items()}
    elif family == "monomial":
        coefficients = {draw(keys): draw(matrices)}
    else:
        coefficients = {}
    grids = st.builds(
        TorusGrid,
        st.just(nvars),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1.0, 0.9, 0.5]),
    )
    return PowerSeries.operator(dim, coefficients), draw(st.lists(grids, min_size=1, max_size=3))


class TestPrunedOperatorSup:
    """An operator ``hinf_norm`` takes SVDs only where a node's Schatten-4
    ceiling exceeds the maximum so far, and must still equal the maximum
    over every node bit for bit."""

    @given(operator_symbols())
    @settings(max_examples=300, deadline=None)
    def test_equals_unpruned_maximum(self, drawn):
        F, schedule = drawn
        unpruned = max(
            float(np.max(np.linalg.norm(polyhardy.hardy._grid_values(F, g), 2, axis=(0, 1))))
            for g in schedule
        )
        assert hinf_norm(F, schedule) == unpruned

    def count_svds(self, monkeypatch, F, schedule):
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return operator_norm(matrix)

        monkeypatch.setattr(polyhardy.hardy, "operator_norm", counted)
        return hinf_norm(F, schedule), len(calls)

    def test_generic_symbol_needs_few_svds(self, monkeypatch):
        F = random_power_series(np.random.default_rng(0), "operator", 3, 2, 3, 8)
        grid = TorusGrid(2, 40)
        value, calls = self.count_svds(monkeypatch, F, [grid])
        assert calls < grid.num_nodes // 4
        values = polyhardy.hardy._grid_values(F, grid)
        assert value == max(operator_norm(values[..., k]) for k in range(grid.num_nodes))

    def test_generic_symbol_needs_at_most_ten_svds(self, monkeypatch):
        # a Frobenius ceiling would leave 165 of the 1 600 nodes to LAPACK
        F = random_power_series(np.random.default_rng(0), "operator", 3, 2, 3, 8)
        assert self.count_svds(monkeypatch, F, [TorusGrid(2, 40)])[1] <= 10

    def test_zero_symbol_needs_no_svd(self, monkeypatch):
        schedule = [TorusGrid(2, 8), TorusGrid(2, 5, 0.5)]
        assert self.count_svds(monkeypatch, PowerSeries.operator(3), schedule) == (0.0, 0)


#: Entries from subnormal to 1e300 in modulus: the unscaled Gram overflows.
_wide_entries = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def node_stacks(draw):
    """A ``(N, d, d)`` stack of node matrices, d 1-4, N 1-5: generic, rank
    one (sigma_max equals the Schatten-4 and Frobenius norms), a scalar
    times the unitary DFT matrix (d equal singular values) and zero."""
    dim = draw(st.integers(min_value=1, max_value=4))
    half = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
    dft = np.exp(-2j * np.pi * np.outer(range(dim), range(dim)) / dim) / math.sqrt(dim)
    nodes = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        family = draw(st.sampled_from(["generic", "rank-one", "unitary", "zero"]))
        if family == "generic":
            entries = draw(st.lists(_wide_entries, min_size=dim * dim, max_size=dim * dim))
            nodes.append(np.reshape(entries, (dim, dim)))
        elif family == "rank-one":
            u = draw(st.lists(half, min_size=dim, max_size=dim))
            v = draw(st.lists(half, min_size=dim, max_size=dim))
            nodes.append(np.outer(u, np.conj(v)))
        elif family == "unitary":
            nodes.append(draw(_wide_entries) * dft)
        else:
            nodes.append(np.zeros((dim, dim)))
    return np.array(nodes, dtype=np.complex128)


class TestSigmaCeilings:
    """``_sigma_ceilings`` bounds every node's ``operator_norm`` from above,
    which is what lets ``hinf_norm`` skip nodes and stay exact."""

    @given(node_stacks())
    @settings(max_examples=500, deadline=None)
    def test_bounds_every_node(self, values):
        ceilings = polyhardy.hardy._sigma_ceilings(np.moveaxis(values, 0, -1))
        assert ceilings.shape == (len(values),)
        for ceiling, matrix in zip(ceilings, values):
            assert ceiling >= operator_norm(matrix)

    def test_rank_one_ceiling_is_tight(self):
        # sigma_max = ||M^H M||_F^(1/2) for rank one: only the allowance is left
        u, v = np.array([1.0, 2j, -0.5]), np.array([0.25, 1.0, 1j])
        values = np.outer(u, v.conj())[None] * np.array([1.0, 1e-300, 1e300])[:, None, None]
        sigmas = np.array([operator_norm(m) for m in values])
        ceilings = polyhardy.hardy._sigma_ceilings(np.moveaxis(values, 0, -1))
        assert np.all(sigmas <= ceilings) and np.all(ceilings <= sigmas * (1 + 1e-13))

    def test_entry_beyond_the_modulus_range_has_a_finite_ceiling(self):
        # the square of |1e308 + 1e308j| = 1.4e308, in a Frobenius norm or an
        # unscaled Gram, overflows; scaled by its largest part the node is
        # finite.  |1.5e308 (1 + i)| overflows np.abs itself, and a Gram
        # scaled by that inf modulus would be inf - inf = NaN, a ceiling no
        # node can exceed; scaled by the largest part the ceiling is inf
        big, huge = 1e308 + 1e308j, 1.5e308 * (1 + 1j)
        nodes = [[[big, 0], [0, 1]], [[0.5, 0], [0, 0]], np.zeros((2, 2)), [[huge, huge], [huge, huge.conjugate()]]]
        values = np.stack(np.array(nodes, dtype=np.complex128), axis=-1)
        ceilings = polyhardy.hardy._sigma_ceilings(values)
        assert np.isfinite(ceilings[:3]).all() and ceilings[2] == 0.0 and ceilings[3] == np.inf
        for k in range(3):
            assert ceilings[k] >= operator_norm(values[..., k])

    def test_hinf_norm_of_an_entry_beyond_the_modulus_range(self):
        F = PowerSeries.operator(2, {MultiIndex(): [[1e308 + 1e308j, 0.0], [0.0, 1.0]]})
        values = polyhardy.hardy._grid_values(F, TorusGrid(1, 3))
        want = max(operator_norm(values[..., k]) for k in range(3))
        assert math.isfinite(want) and hinf_norm(F, [TorusGrid(1, 3)]) == want

    def test_hinf_norm_beyond_the_double_range_is_inf(self):
        """Both node values are finite, but the norm of each is beyond the
        doubles: each ceiling is inf, and so is each node's operator_norm,
        where LAPACK's SVD alone gives NaN."""
        F = PowerSeries.operator(2, {MultiIndex(): [[1.5e308 + 1.5e308j, 0], [0, 1]], MultiIndex([1]): np.diag([0, 0.5])})
        assert hinf_norm(F, [TorusGrid(1, 2)]) == math.inf


def grid_value_error(F, grid, count=None):
    """Bound on the gap between ``_grid_values``' value of F at a grid node
    and the direct sum ``_values_at`` (``evaluate_power``) there, and ``S =
    sum ||c_alpha|| r^|alpha|`` (``_modulus_sum``).

    Grid route: ``_grid_values_rounding``, or ``count`` in its place.
    Direct route: ``evaluate_power``'s stated rounding, and the node
    itself, each coordinate ``r exp(2 pi i k / M)`` within 22 u (the angle
    within gamma_3 2 pi, exp and the radius), which moves a monomial of
    degree |alpha| by gamma_{22 |alpha|}.  Both bounds hold componentwise
    against the sums of |c_alpha| r^|alpha|, hence in norm against S.
    """
    count = _grid_values_rounding(F, grid) if count is None else count
    S = _modulus_sum(F, grid.radius)
    return _gamma(count + _evaluate_power_rounding(F) + 22 * F.total_degree) * S, S


class TestCoarseGrid:
    """Grids with no more points per variable than the degree: exponents
    fold modulo M, and the values must still be the plain node values."""

    GRID = TorusGrid(nvars=2, points_per_var=4, radius=0.9)

    def random_series(self, kind, seed):
        F = random_power_series(np.random.default_rng(seed), kind, 2, 2, 6, 12)
        assert any(e >= self.GRID.points_per_var for a in F.terms for e in a.exponents)
        return F

    def test_hp_norm_equals_direct_mean(self):
        """Within the bound ``hp_norm`` states of the mean over the exact
        nodes, taken in 40-digit mpmath."""
        F = self.random_series("vector", 10)
        M = self.GRID.points_per_var
        with mpmath.workdps(40):
            roots = [mpmath.mpf(self.GRID.radius) * mpmath.expjpi(mpmath.mpf(2 * k) / M) for k in range(M)]
            norms = [
                mpmath.norm([
                    mpmath.fsum(mpmath.mpc(complex(c[i])) * mpmath.fprod(w**e for w, e in zip(node, a.exponents)) for a, c in F.terms.items())
                    for i in range(F.dim)
                ])
                for node in itertools.product(roots, repeat=self.GRID.nvars)
            ]
        for p in (1.0, 2.0, 4.0):
            got = hp_norm(F, p, self.GRID)
            with mpmath.workdps(40):
                want = (mpmath.fsum(n**p for n in norms) / len(norms)) ** (1 / mpmath.mpf(p))
                assert abs(got - want) <= _hp_norm_rounding(F, p, self.GRID, got)

    def test_hinf_norm_equals_direct_max(self):
        F = self.random_series("operator", 11)
        direct = max(operator_norm(evaluate_power(F, w)) for w in self.GRID.nodes())
        error, S = grid_value_error(F, self.GRID)
        # operator_norm's stated rounding on each side
        tol = error + 2 * _operator_norm_rounding(F.dim) * S
        assert abs(hinf_norm(F, [self.GRID]) - direct) <= tol


class TestFourierCoefficient:
    def test_recovers_stored_coefficients(self):
        rng = np.random.default_rng(5)
        F = random_power_series(rng, "vector", 2, 2, 3, 6)
        grid = TorusGrid(nvars=2, points_per_var=F.total_degree + 1, radius=1.0)

        def sampler(w):
            return evaluate_power_on_torus(F, w)

        for alpha in F.support:
            got = fourier_coefficient(sampler, alpha, grid)
            np.testing.assert_allclose(got, F.coefficient(alpha), atol=1e-12)

    def test_vanishes_off_support(self):
        F = PowerSeries.vector(1, {MultiIndex([1]): [2.0]})
        grid = TorusGrid(nvars=1, points_per_var=4, radius=1.0)

        def sampler(w):
            return evaluate_power_on_torus(F, w)

        got = fourier_coefficient(sampler, MultiIndex([3]), grid)
        np.testing.assert_allclose(got, [0.0], atol=1e-12)

    def test_constant_sampler(self):
        grid = TorusGrid(nvars=1, points_per_var=3, radius=1.0)
        got = fourier_coefficient(lambda w: np.array([2.5 - 1j]), MultiIndex(), grid)
        np.testing.assert_allclose(got, [2.5 - 1j])

    def test_unit_radius_required(self):
        grid = TorusGrid(nvars=1, points_per_var=4, radius=0.9)
        with pytest.raises(ValueError):
            fourier_coefficient(lambda w: np.array([1.0]), MultiIndex(), grid)

    def test_scalar_and_operator_samplers(self):
        grid = TorusGrid(nvars=2, points_per_var=5, radius=1.0)
        assert fourier_coefficient(lambda w: 3 * w[0] ** 2, [2], grid) == pytest.approx(3.0, abs=1e-15)
        got = fourier_coefficient(lambda w: [[w[1], 1.0], [0.0, 2 * w[0]]], [0, 1], grid)
        np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_sampler_called_once_per_node_in_order(self):
        grid = TorusGrid(nvars=2, points_per_var=3, radius=1.0)
        seen = []
        fourier_coefficient(lambda w: seen.append(w) or 1.0, MultiIndex(), grid)
        assert np.array_equal(seen, list(grid.nodes()))

    def test_ragged_sampler_outputs_raise(self):
        grid = TorusGrid(nvars=1, points_per_var=4, radius=1.0)
        with pytest.raises(ValueError):
            fourier_coefficient(lambda w: np.ones(1 + int(w[0].real > 0)), MultiIndex(), grid)


def evaluate_power_on_torus(F, w):
    """Plain monomial sum at a torus node (independent of the library's
    vectorized grid path)."""
    out = np.zeros(F.dim, dtype=complex)
    for alpha, coeff in F.terms.items():
        mono = 1.0
        for pos, e in alpha.items():
            mono = mono * w[pos] ** e
        out = out + coeff * mono
    return out


def polydisk_points(max_nvars: int, max_radius: float):
    """Strategy: points of the polydisk with 1 to ``max_nvars`` coordinates,
    each 0 or of modulus from 1e-3 (so that no monomial underflows) to
    ``max_radius``."""
    modulus = st.one_of(st.just(0.0), st.floats(1e-3, max_radius))
    coordinate = st.tuples(modulus, st.floats(0.0, 2 * math.pi))
    return st.lists(coordinate, min_size=1, max_size=max_nvars).map(
        lambda polar: np.array([r * np.exp(1j * t) for r, t in polar])
    )


class TestStatedRounding:
    """The rounding bounds the docstrings state, against 40-digit values."""

    @given(polydisk_points(3, 0.99), st.sampled_from([1.0, 2.0, 3.7]))
    @settings(max_examples=40, deadline=None)
    def test_point_evaluation_bound(self, z, p):
        with mpmath.workdps(40):
            want = mpmath.fprod((1 - abs(mpmath.mpc(w)) ** 2) ** (-1 / mpmath.mpf(p)) for w in z)
            error = float(abs(point_evaluation_bound(z, p) - want) / want)
        assert error <= _gamma(_point_evaluation_bound_rounding(z))

    @given(polydisk_points(2, 0.95), st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_cole_gamelin_kernel_coefficients(self, z, degree):
        x = np.array([1.5 - 0.25j, -0.75j])
        k = _cole_gamelin_kernel_rounding(z, degree)
        with mpmath.workdps(40):
            amplitude = mpmath.fprod(mpmath.sqrt(1 - abs(mpmath.mpc(w)) ** 2) for w in z)
            for alpha, got in cole_gamelin_kernel(x, z, degree).terms.items():
                monomial = mpmath.fprod(mpmath.conj(mpmath.mpc(w)) ** e for w, e in zip(z, alpha.exponents))
                want = [amplitude * monomial * mpmath.mpc(xi) for xi in x]
                scale = float(amplitude * abs(monomial)) * np.linalg.norm(x)
                assert distance(got, want) <= _gamma(k) * scale


class TestColeGamelinKernel:
    def test_center_gives_constant(self):
        x = np.array([1.0, 2.0])
        kernel = cole_gamelin_kernel(x, [0.0, 0.0], degree=10)
        assert kernel.support == (MultiIndex(),)
        np.testing.assert_allclose(kernel.coefficient(MultiIndex()), x)
        assert h2_norm(kernel) == pytest.approx(np.linalg.norm(x))

    def test_one_variable_coefficients(self):
        x = np.array([2.0])
        kernel = cole_gamelin_kernel(x, [0.5], degree=6)
        amp = math.sqrt(0.75)
        for k in range(7):
            np.testing.assert_allclose(
                kernel.coefficient(MultiIndex([k])), [2.0 * amp * 0.5**k]
            )

    def test_value_at_base_point(self):
        x = np.array([1.0 + 0j])
        z = np.array([0.5, 0.3])
        kernel = cole_gamelin_kernel(x, z, degree=60)
        expected = np.linalg.norm(x) * point_evaluation_bound(z, 2.0)
        got = np.linalg.norm(evaluate_power(kernel, z))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_closed_form_value_matches_expansion(self):
        x = np.array([1.0, -1.0j])
        z = np.array([0.4 * np.exp(0.3j)])
        zeta = np.array([0.2 * np.exp(-1.1j)])
        kernel = cole_gamelin_kernel(x, z, degree=80)
        np.testing.assert_allclose(
            evaluate_power(kernel, zeta),
            cole_gamelin_kernel_value(x, z, zeta, p=2.0),
            rtol=1e-12,
        )

    def test_boundary_base_point_rejected(self):
        with pytest.raises(ValueError):
            cole_gamelin_kernel([1.0], [1.0], degree=3)

    def test_non_vector_base_point_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            cole_gamelin_kernel([1.0], [[0.5]], 2)

    @pytest.mark.parametrize(
        "function, args",
        [
            (point_evaluation_bound, ([[0.5], [0.5]],)),  # used to flatten to 1.333
            (cole_gamelin_kernel_value, ([1.0], [[0.5], [0.1]], [[0.2], [0.1]])),  # to [0.967]
        ],
        ids=["point_evaluation_bound", "cole_gamelin_kernel_value"],
    )
    def test_two_dimensional_points_rejected(self, function, args):
        with pytest.raises(ValueError, match="one-dimensional"):
            function(*args)

    def test_non_integer_degree_is_named(self):
        with pytest.raises(TypeError, match="degree"):
            cole_gamelin_kernel([1.0], [0.5], 2.5)

    @pytest.mark.parametrize(
        "x, z",
        [
            ([np.nan], [0.5]),
            ([1.0, np.inf], [0.5]),
            ([1.0], [np.nan]),
            ([1.0], [0.2, complex(0.1, np.inf)]),
        ],
    )
    def test_non_finite_inputs_rejected(self, x, z):
        # Warnings are errors in this suite, so this also shows that the
        # check comes before any arithmetic on the inputs.
        with pytest.raises(ValueError, match="finite"):
            cole_gamelin_kernel(x, z, degree=3)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 7, 40])
    def test_coefficients_match_python_reference(self, nvars, degree):
        """Each coefficient against ``amplitude * prod conj(z_j)**alpha_j * x``
        in Python complex arithmetic.

        With |z_j| <= 0.7, one side's amplitude is within 4n u relative
        (hypot, square, 1 - a amplified by at most 0.49/0.51, sqrt, n
        products); a power of degree k by binary powering and the product
        over n variables take at most D + n complex products of sqrt(2)
        gamma_2 < 3u each; scaling and the product with x add 4u.  So each
        side is within (7n + 3D + 4)u, and the two differ by at most
        gamma_{2(7n + 3D + 5)} |reference|.
        """
        rng = np.random.default_rng([nvars, degree])
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = 0.7 * rng.random(nvars) * np.exp(2j * np.pi * rng.random(nvars))
        z[-1] = 0.7 * np.exp(1j)  # one coordinate at the largest modulus
        kernel = cole_gamelin_kernel(x, z, degree)
        amplitude = math.prod(math.sqrt(1.0 - abs(complex(zj)) ** 2) for zj in z)
        tol = _gamma(2 * (7 * nvars + 3 * degree + 5))
        keys = simplex(nvars, degree)
        assert set(kernel.terms) == set(keys)
        for alpha in keys:
            mono = math.prod(complex(z[j]).conjugate() ** alpha[j] for j in range(nvars))
            got = kernel.coefficient(alpha)
            for i, xi in enumerate(x.tolist()):
                expected = amplitude * mono * xi
                assert abs(complex(got[i]) - expected) <= tol * abs(expected)

    def test_coefficients_are_read_only_and_zero_rows_dropped(self):
        kernel = cole_gamelin_kernel([0.0, 0.0], [0.5], degree=4)
        assert kernel.is_zero
        kernel = cole_gamelin_kernel([1.0, 2.0], [0.5, 0.0], degree=3)
        assert kernel.support == tuple(MultiIndex([k]) for k in range(4))
        for c in kernel.terms.values():
            assert not c.flags.writeable

    @pytest.mark.parametrize("point", [[np.nan], [0.5, complex(np.nan, 0.1)], [0.1, complex(0, np.nan)]])
    def test_non_finite_points_rejected(self, point):
        # Warnings are errors in this suite, so the checks come before any
        # arithmetic on the point.
        with pytest.raises(ValueError, match=r"finite .*got \[.*nan"):
            point_evaluation_bound(point)
        origin = [0.0] * len(point)
        with pytest.raises(ValueError, match=r"^z must be finite .*got \[.*nan"):
            cole_gamelin_kernel_value([1.0], point, origin)
        with pytest.raises(ValueError, match=r"^zeta must be finite .*got \[.*nan"):
            cole_gamelin_kernel_value([1.0], origin, point)

    @pytest.mark.parametrize("x", [[[1.0], [2.0]], []])
    def test_value_x_must_be_a_nonempty_vector(self, x):
        with pytest.raises(ValueError, match="x must be a nonempty vector"):
            cole_gamelin_kernel_value(x, [0.5], [0.1])

    def test_non_finite_x_rejected_by_value(self):
        with pytest.raises(ValueError, match="x must be finite"):
            cole_gamelin_kernel_value([1.0, np.inf], [0.5], [0.1])

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_same_bits_as_enumerated_exponent_rows(self, nvars):
        """Against the kernel built from the recursive simplex enumeration
        and the exponent rows a series holds for its keys, for every degree
        0-40; one base point has a zero and a negative-zero coordinate."""
        rng = np.random.default_rng(nvars)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        generic = 0.9 * rng.random(nvars) * np.exp(2j * np.pi * rng.random(nvars))
        with_zeros = generic.copy()
        with_zeros[0] = 0.0
        if nvars > 1:
            with_zeros[-1] = complex(-0.0, -0.0)
        for z in (generic, with_zeros):
            amplitude = float(np.prod(np.sqrt(1.0 - np.abs(z) ** 2)))
            for degree in range(41):
                keys = [MultiIndex(t) for t in simplex_by_compositions(nvars, degree)]
                held = PowerSeries("vector", 1, dict.fromkeys(keys, [1.0]))
                columns, exponents = held._columns, held._keys
                coeffs = (amplitude * np.prod(np.conj(z)[columns] ** exponents, axis=1))[:, None] * x
                expected = PowerSeries(
                    "vector", x.size, {a: c for a, c in zip(keys, coeffs) if c.any()}
                )
                assert_same_bits(cole_gamelin_kernel(x, z, degree), expected)


class TestDilationConvergence:
    def test_contraction_and_explicit_bound(self):
        rng = np.random.default_rng(8)
        F = random_power_series(rng, "vector", 2, 3, 4, 10)
        W = F.max_weighted_degree
        base = h2_norm(F)
        for r in (0.5, 0.9, 0.99, 0.999):
            Fr = radial_dilate(F, r)
            assert h2_norm(Fr) <= base + 1e-12
            assert h2_norm(F - Fr) <= (1 - r**W) * base + 1e-12

    def test_convergence_to_identity(self):
        rng = np.random.default_rng(9)
        F = random_power_series(rng, "vector", 1, 2, 3, 6)
        gaps = [h2_norm(F - radial_dilate(F, r)) for r in (0.9, 0.99, 0.999, 0.9999)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3 * max(h2_norm(F), 1.0)


#: Finite parts from signed zeros and subnormals up to 1e300: a cell's sum
#: and the DFT of at most 216 nodes stay finite.
_PARTS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def folded_series(draw, values=_PARTS, least_points=1):
    """A vector or operator series on 1-3 variables with exponents up to 9
    and coefficient parts from ``values``, and a grid of
    ``least_points``-24 points per variable (cells often collide below 10
    points, and above the largest exponent the fold fills only a box of
    the grid) at a radius in (0, 1]."""
    kind = draw(st.sampled_from(["vector", "operator"]))
    dim = draw(st.integers(min_value=1, max_value=3))
    nvars = draw(st.integers(min_value=1, max_value=3))
    keys = st.lists(st.integers(0, 9), max_size=nvars).map(MultiIndex)
    F = PowerSeries(kind, dim, draw(terms(keys, kind, dim, max_size=8, values=values)))
    radius = draw(st.sampled_from([1.0, 0.9, 0.5, 1e-3]) | st.floats(min_value=1e-3, max_value=1.0))
    return F, TorusGrid(nvars, draw(st.integers(min_value=least_points, max_value=24)), radius)


class TestGridFoldBits:
    """Folding by one cell index array must give the bytes of the per-term fold."""

    @given(folded_series())
    @settings(max_examples=400, deadline=None)
    def test_grid_values_equal_per_term_fold(self, drawn):
        F, grid = drawn
        got = polyhardy.hardy._grid_values(F, grid)
        want = grid_values_by_term(F, grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_aliased_cells_sum_in_term_order(self):
        # 1 + 2^-53 + (-1) differs from 1 + (-1) + 2^-53: the order is kept
        F = PowerSeries.vector(
            1, {MultiIndex([0]): [1.0], MultiIndex([3]): [2.0**-53], MultiIndex([6]): [-1.0]}
        )
        grid = TorusGrid(1, 3)
        got = polyhardy.hardy._grid_values(F, grid)
        assert got.tobytes() == grid_values_by_term(F, grid).tobytes()

    def test_values_view_the_node_last_tensor(self):
        F = random_power_series(np.random.default_rng(1), "operator", 3, 2, 3, 8)
        values = polyhardy.hardy._grid_values(F, TorusGrid(2, 5))
        assert values.shape == (3, 3, 25) and values.flags.c_contiguous

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_vector_norms_equal_node_first_rows(self, dim):
        # each node's squares are summed in coefficient order, also from 8
        # on, where numpy would sum a contiguous row of them pairwise
        F = random_power_series(np.random.default_rng(dim), "vector", dim, 2, 4, 10)
        grid = TorusGrid(2, 9, 0.9)
        values = grid_values_by_term(F, grid)
        squares = (values.conj() * values).real
        total = squares[0]
        for j in range(1, dim):
            total = total + squares[j]
        want = np.sqrt(total)
        got = np.linalg.norm(polyhardy.hardy._grid_values(F, grid), axis=0)
        assert got.tobytes() == want.tobytes()
        assert hp_norm(F, 3.0, grid) == float(np.mean(want**3.0) ** (1.0 / 3.0))
        assert hinf_norm(F, [grid]) == float(np.max(want))


class TestGridTransform:
    """The matrix products of ``_dft`` against direct evaluation, on both
    sides of the matrix bounds, and the cap on the cached matrices."""

    def assert_values_match_direct_sums(self, F, grid, count=None):
        bound, _ = grid_value_error(F, grid, count)
        got = _grid_values(F, grid)
        want = np.moveaxis(_values_at(F, grid.nodes()), 0, -1)
        gaps = np.sqrt((abs(got - want) ** 2).reshape(-1, grid.num_nodes).sum(axis=0))
        assert gaps.max(initial=0.0) <= bound

    @given(folded_series(values=NON_DYADIC))
    @settings(max_examples=200, deadline=None)
    def test_values_equal_direct_sums(self, drawn):
        self.assert_values_match_direct_sums(*drawn)

    @pytest.mark.parametrize("M, degree", [(257, 99), (200, 79), (2**14 + 1, 1), (40, 39)])
    def test_values_past_the_matrix_bounds_equal_direct_sums(self, M, degree):
        """Past the cap (257 x 100, 16385 x 2 entries) and past the width
        (80 columns) the axis goes through ``np.fft``, for which ``_dft``
        states no bound.  There the grid route's bound is this test's own
        allowance, not a stated one: the fold and the radius as
        ``_grid_values_rounding`` counts them, at most T + 2, and the axis
        counted as a direct sum of its M terms, gamma_{M + 15}.  Inside both
        bounds (40 x 40) it is the stated bound."""
        F = random_power_series(np.random.default_rng(M), "vector", 2, 1, degree, 60)
        grid = TorusGrid(1, M, 0.99)
        allowance = None
        if _fft_axis(M, grid_box(F, grid)[0]):
            with pytest.raises(ValueError, match="np.fft"):
                _grid_values_rounding(F, grid)
            allowance = F.num_terms + 2 + M + 15
        self.assert_values_match_direct_sums(F, grid, allowance)

    @given(folded_series(values=NON_DYADIC, least_points=10))
    @settings(max_examples=200, deadline=None)
    def test_coefficients_of_values_recover_the_series(self, drawn):
        # with more points than any exponent no cell aliases, so the means
        # are r^|alpha| c_alpha at alpha's cell and 0 elsewhere; the forward
        # transform runs over the full M^N tensor and the division adds one
        # rounding
        F, grid = drawn
        M = grid.points_per_var
        count = _grid_values_rounding(F, grid) + _dft_rounding((M,) * grid.nvars, M) + 1
        got = _grid_coefficients(_grid_values(F, grid), grid)
        want = np.zeros_like(got)
        cells = _cells(F._columns, F._keys, grid)[0].tolist()
        for cell, (alpha, c) in zip(cells, F.terms.items()):
            want[..., cell] = grid.radius**alpha.degree * c
        gaps = np.sqrt((abs(got - want) ** 2).reshape(-1, grid.num_nodes).sum(axis=0))
        assert gaps.max(initial=0.0) <= _gamma(count) * _modulus_sum(F, grid.radius)

    def test_no_cached_matrix_passes_the_cap(self, monkeypatch):
        sizes = []
        cached = polyhardy.hardy._dft_matrix

        def recorded(M, b, sign):
            matrix = cached(M, b, sign)
            sizes.append(matrix.shape)
            return matrix

        monkeypatch.setattr(polyhardy.hardy, "_dft_matrix", recorded)
        rng = np.random.default_rng(3)
        one = PowerSeries.vector(1, {MultiIndex(): [1.0], MultiIndex([10**4]): [1.0]})
        for F, grid in [
            (one, TorusGrid(1, 2 * 10**4 + 1)),  # norm hp's default grid for degree 10^4
            (random_power_series(rng, "vector", 2, 1, 300, 20), TorusGrid(1, 1024)),
            (random_power_series(rng, "operator", 2, 2, 60, 20), TorusGrid(2, 121)),
            (random_power_series(rng, "vector", 3, 3, 5, 20), TorusGrid(3, 11)),
        ]:
            _grid_coefficients(_grid_values(F, grid), grid)
        assert sizes and all(M * b <= 2**14 and b <= 64 for M, b in sizes)
