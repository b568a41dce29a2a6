"""The per-call paths take numpy's formulas, not its wrappers, bit for bit.

Each function that once called ``np.linalg.norm``, ``np.mean``,
``np.clip``, ``np.cumprod``, ``np.tensordot`` or ``np.sinc`` now makes the
ufunc, dot or matmul call that numpy makes inside that wrapper (see the
``_linalg`` module docstring).  Each test here writes the function as it
was, through the wrapper, and compares the two outcomes byte for byte,
on hypothesis draws and on the edges: empty stacks, coefficients that
take the ``_in_range`` retake, non-finite grid nodes, ``x = 0`` in the
recovery kernel, exponents at the ends of the double range, and factors
of every type ``_scaled`` is given.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FINITE, NON_DYADIC, series, small_indices
from polyhardy import DirichletSeries, MultiIndex, PowerSeries, TorusGrid, hardy
from polyhardy._linalg import _U, _axis_norms, _in_range, _mean, _reduce_scaled, _scale_down, _vector_norm
from polyhardy.dirichlet import recover_coefficient
from polyhardy.series import _nonzero, _scaled

#: Moduli on both sides of the range rule's thresholds, and far beyond them.
EXTREMES = [1e200, 1e-200, 1e300, 1e-300, 1e154, 1e-154]


def outcome(function, *args):
    """The bytes, dtype and shape of ``function(*args)`` (each part of a
    tuple), or the type and message of what it raised."""
    try:
        result = function(*args)
    except (ArithmeticError, ValueError, RuntimeWarning) as error:
        return type(error), str(error)
    parts = result if isinstance(result, tuple) else (result,)
    return [(type(p), np.asarray(p).dtype, np.shape(p), np.asarray(p).tobytes()) for p in parts]


def complex_array(parts, shape) -> np.ndarray:
    """The complex array of ``shape`` whose real parts are the first half
    of ``parts`` and imaginary parts the second, each as it is."""
    z = np.empty(math.prod(shape), dtype=np.complex128)
    z.real, z.imag = np.split(np.array(parts, dtype=np.float64), 2)
    return z.reshape(shape)


def complex_arrays(shape, values=FINITE):
    """Strategy: complex arrays of ``shape`` with parts drawn from ``values``."""
    size = 2 * math.prod(shape)
    return st.lists(values, min_size=size, max_size=size).map(lambda parts: complex_array(parts, shape))


stack_shapes = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.sampled_from([(1,), (2,), (3,), (2, 2), (3, 3)]),
).map(lambda t: (t[0], *t[1]))


@st.composite
def extreme_series(draw, cls=PowerSeries, keys=small_indices):
    """Strategy: a series of either kind whose coefficients are all near
    one of ``EXTREMES``, so that its norms take the retake."""
    scale = draw(st.sampled_from(EXTREMES))
    S = draw(series(cls, keys, values=NON_DYADIC))
    return cls(S.kind, S.dim, {k: scale * c for k, c in S.terms.items()})


def any_series(cls=PowerSeries, keys=small_indices):
    """Strategy: a series with any finite, non-dyadic or extreme coefficients."""
    return st.one_of(series(cls, keys), series(cls, keys, values=NON_DYADIC), extreme_series(cls, keys))


class TestNorms:
    @settings(max_examples=200, deadline=None)
    @given(stack_shapes.flatmap(complex_arrays), st.booleans())
    def test_vector_norm_is_np_linalg_norm(self, values, transposed):
        values = values.T if transposed else values  # memory order, not C order
        with np.errstate(over="ignore", under="ignore"):
            assert outcome(_vector_norm, values) == outcome(np.linalg.norm, values)

    @settings(max_examples=200, deadline=None)
    @given(stack_shapes.filter(lambda s: s[0] > 0).flatmap(complex_arrays))
    def test_axis_norms_are_np_linalg_norm(self, values):
        nodes_last = np.ascontiguousarray(np.moveaxis(values, 0, -1))
        with np.errstate(over="ignore", under="ignore"):
            assert outcome(_axis_norms, nodes_last, 0) == outcome(np.linalg.norm, nodes_last, None, 0)
            if nodes_last.ndim == 3:
                assert outcome(_axis_norms, nodes_last, (0, 1)) == outcome(np.linalg.norm, nodes_last, None, (0, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=50))
    def test_mean_is_np_mean(self, values):
        values = np.array(values)
        with np.errstate(over="ignore"):
            assert outcome(_mean, values) == outcome(np.mean, values)


def h2_norm_by_wrappers(F) -> float:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F._coeffs))
    return norm if _in_range(norm) else float(_reduce_scaled(np.linalg.norm, F._coeffs))


def check_finite_by_wrappers(what, values, grid):
    finite = np.isfinite(values).all(axis=tuple(range(values.ndim - 1)))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(
            f"{what} are not finite at {bad.size} of {grid.num_nodes} "
            f"nodes; the first, node {bad[0]} of grid.nodes(), is {values[..., bad[0]]}"
        )


def hp_norm_by_wrappers(F, p, grid) -> float:
    values = hardy._grid_values(F, grid)
    with np.errstate(over="ignore"):
        mean = np.mean(np.linalg.norm(values, axis=0) ** p)
        result = float(mean ** (1.0 / p))
    if not _in_range(result, mean):
        check_finite_by_wrappers("grid values", values, grid)

        def power_mean(scaled):
            norms = np.linalg.norm(scaled, axis=0)
            m = float(np.max(norms)) or 1.0
            return float(np.mean((norms / m) ** p) ** (1.0 / p)) * m

        result = float(_reduce_scaled(power_mean, values))
    return result


def sigma_ceilings_by_wrappers(values):
    d = values.shape[0]
    delta = 16 * (d * d + 2) * (2 * _U)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, e = _scale_down(values, axis=(0, 1))
        gram = (scaled.conj()[:, :, None, :] * scaled[:, None, :, :]).sum(axis=0)
        ceilings = np.ldexp(np.sqrt(np.linalg.norm(gram, axis=(0, 1))) * (1 + delta), e)
    return np.where(ceilings == 0, 0.0, ceilings + 2.0**-1073)


def hinf_norm_by_wrappers(F, grids) -> float:
    best = 0.0
    for grid in grids:
        values = hardy._grid_values(F, grid)
        if F.kind == "vector":
            with np.errstate(over="ignore"):
                top = float(np.max(np.linalg.norm(values, axis=0)))
            if not _in_range(top):
                check_finite_by_wrappers("grid values", values, grid)
                top = float(_reduce_scaled(lambda v: np.max(np.linalg.norm(v, axis=0)), values))
            best = max(best, top)
            continue
        ceilings = sigma_ceilings_by_wrappers(values)
        if not math.isfinite(float(np.max(ceilings))):
            check_finite_by_wrappers("grid values", values, grid)
        best = max([best, *(hardy.operator_norm(values[..., k]) for k in np.flatnonzero(ceilings > best))])
    return best


grids = st.builds(
    TorusGrid,
    nvars=st.just(4),
    points_per_var=st.integers(min_value=1, max_value=5),
    radius=st.sampled_from([1.0, 0.9, 0.5]),
)


class TestHardy:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(series(PowerSeries, small_indices), extreme_series()).filter(lambda F: F.kind == "vector"))
    def test_h2_norm(self, F):
        assert outcome(hardy.h2_norm, F) == outcome(h2_norm_by_wrappers, F)

    @pytest.mark.parametrize("scale", [1.0, *EXTREMES])
    def test_h2_norm_edges(self, scale):
        empty = PowerSeries.vector(2)
        zero = [(float, np.float64, (), np.float64(0.0).tobytes())]
        assert outcome(hardy.h2_norm, empty) == outcome(h2_norm_by_wrappers, empty) == zero
        F = PowerSeries.vector(2, {MultiIndex(): [scale, 0.5j * scale], MultiIndex([1, 2]): [-scale / 3, 0.0]})
        D = DirichletSeries.vector(2, {1: [scale, 0.5j * scale], 6: [-scale / 3, 0.0]})
        for S in (F, D):
            assert outcome(hardy.h2_norm, S) == outcome(h2_norm_by_wrappers, S)

    @settings(max_examples=150, deadline=None)
    @given(any_series().filter(lambda F: F.kind == "vector"), st.sampled_from([1.0, 2.0, 3.0, 2.5, 4.0]), grids)
    def test_hp_norm(self, F, p, grid):
        assert outcome(hardy.hp_norm, F, p, grid) == outcome(hp_norm_by_wrappers, F, p, grid)

    @settings(max_examples=150, deadline=None)
    @given(any_series(), grids, grids)
    def test_hinf_norm(self, F, first, second):
        assert outcome(hardy.hinf_norm, F, [first, second]) == outcome(hinf_norm_by_wrappers, F, [first, second])

    @settings(max_examples=100, deadline=None)
    @given(any_series().filter(lambda F: F.kind == "operator"), grids)
    def test_sigma_ceilings(self, F, grid):
        with np.errstate(over="ignore", invalid="ignore"):
            values = hardy._grid_values(F, grid)
        assert outcome(hardy._sigma_ceilings, values) == outcome(sigma_ceilings_by_wrappers, values)

    @pytest.mark.parametrize("scale", EXTREMES)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
    def test_the_retake_edges(self, scale, p):
        grid = TorusGrid(2, 5, 0.9)
        F = PowerSeries.vector(2, {MultiIndex(): [scale, 0.5j * scale], MultiIndex([1, 1]): [0.25 * scale, -scale]})
        A = PowerSeries.operator(
            2, {MultiIndex(): [[scale, 0.5 * scale], [0, scale]], MultiIndex([0, 1]): [[0, 1j * scale], [0.5 * scale, 0]]}
        )
        assert outcome(hardy.hp_norm, F, p, grid) == outcome(hp_norm_by_wrappers, F, p, grid)
        for S in (F, A):
            assert outcome(hardy.hinf_norm, S, [grid]) == outcome(hinf_norm_by_wrappers, S, [grid])

    def test_a_non_finite_node_is_named(self):
        # 1e308 - 1e308 w is 0 at w = 1, finite at +-i and 2e308 = inf at w = -1: node 2
        grid = TorusGrid(1, 4)
        F = PowerSeries.vector(1, {MultiIndex(): [1e308], MultiIndex([1]): [-1e308]})
        A = PowerSeries.operator(1, {MultiIndex(): [[1e308]], MultiIndex([1]): [[-1e308]]})
        calls = ((hardy.hp_norm, F, (2.0, grid)), (hardy.hinf_norm, F, ([grid],)), (hardy.hinf_norm, A, ([grid],)))
        for function, S, args in calls:
            with pytest.raises(ValueError, match=r"not finite at 1 of 4 nodes; the first, node 2 of grid.nodes\(\)"):
                function(S, *args)
        assert outcome(hardy.hp_norm, F, 2.0, grid) == outcome(hp_norm_by_wrappers, F, 2.0, grid)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([(2,), (3,), (2, 2), (1, 1)]),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=40), max_size=4),
        st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)]),
    )
    def test_check_finite(self, shape, nodes, bad_entries, bad):
        grid = TorusGrid(1, nodes)
        values = np.arange(math.prod(shape) * nodes, dtype=np.complex128).reshape(*shape, nodes)
        values.reshape(-1)[[k % values.size for k in bad_entries]] = bad
        got = outcome(hardy._check_finite, "grid values", values, grid)
        assert got == outcome(check_finite_by_wrappers, "grid values", values, grid)
        assert isinstance(got, tuple) == bool(bad_entries)  # raised

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 5])
    def test_cells_strides(self, nvars, M):
        rng = np.random.default_rng([nvars, M])
        for _ in range(10):
            box = tuple(int(b) for b in rng.integers(1, M + 1, size=nvars))  # sides of 1 included
            columns = np.flatnonzero(rng.random(nvars) < 0.7)
            rows = rng.integers(0, 3 * M + 1, size=(7, columns.size))
            grid = TorusGrid(nvars, M)
            for given_box in (box, None):
                full = given_box or (M,) * nvars
                strides = np.cumprod((1, *full[:0:-1]))[::-1]
                want = ((rows % M) @ strides[columns], rows.sum(axis=1))
                assert outcome(hardy._cells, columns, rows, grid, given_box) == outcome(lambda: want)


def exponent(x: float) -> int:
    """The exponent e of ``x = f 2^e`` with f in [1/2, 1), exactly; 0 for
    zero and for values that are not finite."""
    if x == 0 or not math.isfinite(x):
        return 0
    ratio = Fraction(abs(x))
    return ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1


class TestScaleDown:
    @pytest.mark.parametrize("largest", [0.0, 5e-324, 2.0**-1022, 2.0**-1030, 0.75, 2.0**1023, math.inf])
    def test_edges_clip_as_np_clip(self, largest):
        values = np.array([complex(-largest, 0.0), complex(0.0, largest / 4), 0j])
        e = np.clip(np.array(exponent(largest), dtype=np.intc), -1022, 1023)
        with np.errstate(invalid="ignore"):
            want = (values * np.ldexp(1.0, -e), int(e))
            assert outcome(_scale_down, values) == outcome(lambda: want)

    @settings(max_examples=200, deadline=None)
    @given(stack_shapes.filter(lambda s: s[0] > 0 and len(s) == 3).flatmap(complex_arrays))
    def test_per_node_exponents(self, values):
        nodes_last = np.ascontiguousarray(np.moveaxis(values, 0, -1))
        largest = np.maximum(np.abs(nodes_last.real), np.abs(nodes_last.imag)).max(axis=(0, 1))
        e = np.clip(np.array([exponent(float(x)) for x in largest], dtype=np.intc), -1022, 1023)
        with np.errstate(under="ignore"):
            want = (nodes_last * np.ldexp(1.0, -e), e)
            assert outcome(_scale_down, nodes_last, (0, 1)) == outcome(lambda: want)


def nonzero_by_wrappers(keys, stack):
    if not np.isfinite(stack).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    nonzero = stack.any(axis=tuple(range(1, stack.ndim)))
    if not nonzero.all():
        keys, stack = keys[nonzero], stack[nonzero]
    stack.setflags(write=False)
    return keys, stack


def scaled_by_casting(F, factors):
    factors = np.asarray(factors, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = factors.reshape(-1, *(1,) * (F._coeffs.ndim - 1)) * F._coeffs
    return F._from_stack(F._kind, F._dim, F._keys, stack, F._columns)


def series_outcome(function, *args):
    """``outcome`` of a function that returns a series: its keys, its
    coefficient stack and whether that stack is writeable."""

    def parts():
        S = function(*args)
        return S._keys, S._coeffs, S._coeffs.flags.writeable

    return outcome(parts)


class TestSeries:
    @settings(max_examples=200, deadline=None)
    @given(stack_shapes.flatmap(lambda s: complex_arrays(s, st.sampled_from([0.0, -0.0, 1.5, 1e-320, np.nan, np.inf]))))
    def test_nonzero(self, stack):
        keys = np.arange(len(stack), dtype=np.int64)
        assert outcome(_nonzero, keys, stack.copy()) == outcome(nonzero_by_wrappers, keys, stack.copy())

    @pytest.mark.parametrize("shape", [(0, 2), (0, 3, 3)])
    def test_nonzero_of_no_terms(self, shape):
        keys, stack = _nonzero(np.zeros(0, dtype=np.int64), np.zeros(shape, dtype=np.complex128))
        assert keys.shape == (0,) and stack.shape == shape and not stack.flags.writeable

    @pytest.mark.parametrize(
        "factor",
        [3, 10**30, -1.0, 2.5, True, 1 + 2j, np.float64(0.1), np.float32(0.1), np.int64(7)],
        ids=repr,
    )
    @pytest.mark.parametrize("cls", [PowerSeries, DirichletSeries])
    def test_scaled_by_one_number(self, factor, cls):
        keys = [MultiIndex([1]), MultiIndex([0, 2]), MultiIndex()] if cls is PowerSeries else [2, 3, 1]
        for S in (cls.vector(2, {k: [1 / 3 + 1j, -2.0 + 0.1j * i] for i, k in enumerate(keys)}), cls.operator(2)):
            assert series_outcome(_scaled, S, factor) == series_outcome(scaled_by_casting, S, factor)

    @settings(max_examples=200, deadline=None)
    @given(any_series(), st.data())
    def test_scaled_by_one_factor_per_term(self, F, data):
        T = F.num_terms
        factors = data.draw(
            st.one_of(
                st.lists(FINITE, min_size=T, max_size=T),  # a float list
                st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=T, max_size=T),
                st.lists(st.one_of(FINITE, st.integers(min_value=-(10**30), max_value=10**30)), min_size=T, max_size=T),
                st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=T, max_size=T).map(np.array),
                st.lists(NON_DYADIC, min_size=T, max_size=T).map(np.array),
            )
        )
        assert series_outcome(_scaled, F, factors) == series_outcome(scaled_by_casting, F, factors)

    @pytest.mark.parametrize("cls", [PowerSeries, DirichletSeries])
    def test_scaled_keeps_the_sign_of_a_zero_that_underflows(self, cls):
        # the real part of 1e-24 (-1e-300 - 1e-200j) underflows; left real for
        # numpy's product to cast, the factor gave it the other sign of zero
        key = MultiIndex([3]) if cls is PowerSeries else 8
        S = cls.vector(1, {key: [complex(-1e-300, -1e-200)]})
        for factors in (1e-24, [1e-24], np.array([1e-24])):
            assert series_outcome(_scaled, S, factors) == series_outcome(scaled_by_casting, S, factors)

    def test_scaled_of_no_terms(self):
        for S in (PowerSeries.vector(3), DirichletSeries.operator(2)):
            for factors in ([], np.zeros(0), np.zeros(0, dtype=np.complex128), 2.0, 10**30):
                assert series_outcome(_scaled, S, factors) == series_outcome(scaled_by_casting, S, factors)


def recover_by_wrappers(D, n, sigma, R, P):
    """``recover_coefficient`` as it was, through ``np.sinc`` and
    ``np.tensordot``, without the checks of its arguments."""
    logs = np.array([math.log(n / m) for m in D._keys.tolist()])
    scales = np.exp(sigma * logs)
    turns = logs * (R / (math.pi * (P - 1)))
    j = np.rint(turns)
    x = turns - j
    weights = (P * np.sinc(P * x) / np.sinc(x) - np.cos(math.pi * (P - 1) * x)) / (P - 1)
    if P % 2 == 0:
        weights[np.fmod(j, 2) != 0] *= -1.0
    weights *= scales
    return np.tensordot(weights, D._coeffs, axes=1)


frequencies = st.integers(min_value=1, max_value=1000)


class TestRecover:
    @settings(max_examples=200, deadline=None)
    @given(
        series(DirichletSeries, frequencies, values=NON_DYADIC),
        frequencies,
        st.floats(min_value=-2.0, max_value=3.0),
        st.floats(min_value=0.5, max_value=1e4),
        st.integers(min_value=2, max_value=5000),
    )
    def test_recover_coefficient(self, D, n, sigma, R, P):
        assert outcome(recover_coefficient, D, n, sigma, R, P) == outcome(recover_by_wrappers, D, n, sigma, R, P)

    @pytest.mark.parametrize("P", [2, 3, 4000, 4001])
    @pytest.mark.parametrize("kind", ["vector", "operator"])
    def test_at_m_equal_to_n(self, P, kind):
        # the term m = n has x = 0 and weight exactly 1 times the scale 1
        shape = (2,) if kind == "vector" else (2, 2)
        D = DirichletSeries(kind, 2, {1: np.full(shape, 1.0), 6: np.full(shape, 0.5 + 0.25j), 10: np.full(shape, -1j)})
        got = outcome(recover_coefficient, D, 6, 2.0, 100.0, P)
        assert got == outcome(recover_by_wrappers, D, 6, 2.0, 100.0, P)
        single = DirichletSeries(kind, 2, {6: np.full(shape, 0.5 + 0.25j)})
        assert np.array_equal(recover_coefficient(single, 6, 2.0, 100.0, P), single.coefficient(6))

    @pytest.mark.parametrize("R", [1.0, 5.0, 50.0])
    @pytest.mark.parametrize("P", [2, 3, 10])
    def test_keeps_the_sign_of_a_zero_part(self, P, R):
        # one term of dim 1: a negative weight (P = 2, R = 5) times 1j has real
        # part -0 in np.tensordot's dot; the weight vector @ the stack read +0
        D = DirichletSeries.vector(1, {2: [1j]})
        assert outcome(recover_coefficient, D, 1, 0.0, R, P) == outcome(recover_by_wrappers, D, 1, 0.0, R, P)

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    def test_of_no_terms(self, kind):
        D = DirichletSeries(kind, 3)
        got = outcome(recover_coefficient, D, 5, 2.0, 10.0, 101)
        assert got == outcome(recover_by_wrappers, D, 5, 2.0, 10.0, 101)
        assert got[0][2] == ((3,) if kind == "vector" else (3, 3))
