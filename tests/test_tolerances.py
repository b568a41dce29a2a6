"""No check in ``cli.py`` takes a literal tolerance, and each stated
rounding bound is evaluated in one place.

Every check's tolerance is 0 or a bound evaluated from the error bounds
the library states, so a nonzero float literal in the tolerance of a
``check_close``, the bound of a ``check_at_most`` or the bound of a
``check_each`` pair is a fixed slack that nothing derives.  An argument
that is a name is followed to the values the function assigns, adds or
appends to it; of a ``check_each`` pair written out as a tuple, only its
second element is the bound.  No check is exempt.

Higham's gamma_k, the unit roundoff and the range rule (the power of two
by which a norm's values are scaled, and when a norm is taken again) are
defined once, in ``_linalg``, and each function that states a rounding
bound has one evaluator beside it, whose value on fixed inputs is pinned
here to its docstring's formula.  The library modules take norms, means,
clips, contractions and sincs by numpy's own formulas, not through its
Python-level wrappers (the ``_linalg`` module docstring); ``cli.py``,
whose suite checks are not per-call paths, may use the wrappers.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polyhardy import DirichletSeries, MultiIndex, PowerSeries, TorusGrid
from polyhardy._linalg import _U, _gamma, _operator_norm_rounding
from polyhardy.dirichlet import (
    _EPSILON_SHIFT_ROUNDING,
    _epsilon_shift_sum_rounding,
    _evaluate_dirichlet_rounding,
    _recover_coefficient_rounding,
)
from polyhardy.hardy import (
    _cole_gamelin_kernel_rounding,
    _dft_rounding,
    _grid_values_rounding,
    _h2_norm_rounding,
    _hp_norm_rounding,
    _point_evaluation_bound_rounding,
    _pointwise_vs_symbolic_rounding,
)
from polyhardy.series import _RADIAL_DILATE_ROUNDING, _evaluate_power_rounding, _product_rounding

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "polyhardy" / "cli.py"

#: the position and keyword of the tolerance argument of each check maker
TOLERANCE = {"check_close": (3, "tolerance"), "check_at_most": (2, "bound"), "check_each": (1, "pairs")}


def written(expr: ast.expr, func: ast.FunctionDef) -> list[ast.expr]:
    """``expr``, or for a name every value ``func`` assigns, adds or appends to it."""
    if not isinstance(expr, ast.Name):
        return [expr]
    values = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == expr.id for t in node.targets
        ):
            values.append(node.value)
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == expr.id:
            values.append(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and getattr(node.func.value, "id", None) == expr.id
        ):
            values.extend(node.args)
    return values


def pair_bounds(expr: ast.expr) -> list[ast.expr]:
    """The bound of each pair ``expr`` writes out, or ``expr`` itself."""
    if isinstance(expr, ast.Tuple) and len(expr.elts) == 2:
        return [expr.elts[1]]
    if isinstance(expr, ast.List):
        return [b for e in expr.elts for b in pair_bounds(e)]
    if isinstance(expr, ast.ListComp):
        return pair_bounds(expr.elt)
    return [expr]


def literal_tolerances() -> list[tuple[int, str, float]]:
    """Line, check name and value of each nonzero float literal in a tolerance."""
    tree = ast.parse(CLI.read_text(), filename=str(CLI))
    found = []
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        for call in (n for n in ast.walk(func) if isinstance(n, ast.Call)):
            maker = getattr(call.func, "id", None)
            if maker not in TOLERANCE or not call.args:
                continue
            position, keyword = TOLERANCE[maker]
            args = call.args[position:position + 1] + [k.value for k in call.keywords if k.arg == keyword]
            name = call.args[0].value if isinstance(call.args[0], ast.Constant) else "?"
            for arg in args:
                for value in written(arg, func):
                    for bound in pair_bounds(value) if maker == "check_each" else [value]:
                        for part in (b for v in written(bound, func) for b in ast.walk(v)):
                            if isinstance(part, ast.Constant) and isinstance(part.value, float) and part.value:
                                found.append((part.lineno, name, part.value))
    return found


def test_the_cli_makes_checks():
    tree = ast.parse(CLI.read_text())
    makers = {getattr(n.func, "id", None) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert makers >= set(TOLERANCE)


def test_no_literal_tolerance():
    literals = literal_tolerances()
    assert not literals, f"cli.py checks with literal tolerances (line, check, value): {literals}"


def roundoff_definitions() -> list[tuple[str, str]]:
    """File and name of each definition of gamma_k or of the unit roundoff
    in ``src/polyhardy/`` and ``tests/``: a function named gamma, or an
    assignment of a power of two with exponent -52 or -53, or of a value
    that reads ``finfo(...).eps`` or ``float_info.epsilon``."""

    def roundoff(value) -> bool:
        power = isinstance(value, ast.BinOp) and isinstance(value.op, ast.Pow)
        if power and getattr(value.left, "value", None) == 2 and ast.unparse(value.right) in ("-52", "-53"):
            return True
        return any(
            isinstance(part, ast.Attribute)
            and (part.attr == "eps" and "finfo" in ast.unparse(part.value) or part.attr == "epsilon")
            for part in ast.walk(value)
        )

    found = []
    for path in sorted([*(ROOT / "src" / "polyhardy").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.strip("_") == "gamma":
                found.append((where, node.name))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
                if roundoff(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.append((where, ", ".join(ast.unparse(t) for t in targets)))
    return sorted(found)


def test_gamma_and_the_unit_roundoff_are_defined_once():
    assert roundoff_definitions() == [("src/polyhardy/_linalg.py", "_U"), ("src/polyhardy/_linalg.py", "_gamma")]


def power_of_two_rule() -> list[tuple[str, str]]:
    """File and name of each use of ``frexp`` and each definition of
    ``_in_range`` in ``src/polyhardy/`` and ``tests/``: the exponent of the
    power of two by which a norm's values are scaled, and the test of when
    a norm is taken again on them."""
    found = []
    for path in sorted([*(ROOT / "src" / "polyhardy").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_in_range":
                found.append((where, node.name))
            elif "frexp" in (getattr(node, "attr", None), getattr(node, "id", None)):
                found.append((where, "frexp"))
    return sorted(found)


def test_the_power_of_two_rule_is_defined_once():
    assert power_of_two_rule() == [("src/polyhardy/_linalg.py", "_in_range"), ("src/polyhardy/_linalg.py", "frexp")]


#: numpy's Python-level wrappers, whose formulas the library takes instead
WRAPPERS = {"np.linalg.norm", "np.mean", "np.clip", "np.tensordot", "np.sinc"}
#: the modules whose functions are per-call paths
LIBRARY = ("hardy.py", "series.py", "dirichlet.py", "_linalg.py", "multiindex.py", "multiplier.py")


def wrapper_uses(source: str) -> list[tuple[int, str]]:
    """Line and name of each use of a function of ``WRAPPERS`` in the code
    of ``source``, called or passed on; a docstring or comment naming one
    is not code."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and ast.unparse(node) in WRAPPERS
    ]


def test_wrapper_uses_reads_code_only():
    source = '''def f(x):
    """Like np.mean(x), through np.linalg.norm."""
    y = np.clip(x, 0, 1)  # np.sinc
    return g(np.linalg.norm, y)
'''
    assert wrapper_uses(source) == [(3, "np.clip"), (4, "np.linalg.norm")]


@pytest.mark.parametrize("module", LIBRARY)
def test_the_library_calls_no_numpy_wrapper(module):
    path = ROOT / "src" / "polyhardy" / module
    assert not wrapper_uses(path.read_text()), f"{module} (line, wrapper)"


def test_gamma_is_highams():
    assert _U == math.ulp(1.0) / 2
    for k in (1, 3, 5, 57, 10**6, 2.5):  # 1 - k u is a double for integer k: one rounding
        k_u = Fraction(k) * Fraction(_U)
        assert _gamma(k) == pytest.approx(float(k_u / (1 - k_u)), rel=0 if k == int(k) else 2**-52)


#: Fixed inputs: T = 3 terms of total degree up to 4 in d = 2; a 2-term
#: operator symbol; frequencies 1, 6 and 10; a point with max |z_j|^2 = 0.36;
#: a grid of 2 x 2 nodes at radius 1/2, on which POWER folds into the box
#: 2 x 2, whose sides reach M, and the unit grid of 7 x 7 nodes, on which
#: SYMBOL folds into 2 x 1 and POWER into 2 x 5, below M.
POWER = PowerSeries.vector(2, {MultiIndex([1, 2]): [1.0, 2.0], MultiIndex([0, 4]): [1.0, 0.0], MultiIndex(): [0.0, 1.0]})
SYMBOL = PowerSeries.operator(2, {MultiIndex([1]): np.eye(2), MultiIndex(): np.eye(2)})
DIRICHLET = DirichletSeries.vector(2, {1: [1.0, 0.0], 6: [0.0, 1.0], 10: [1.0, 1.0]})
POINT = np.array([0.6, 0.4j])
C = 1 / (1 - 0.36)
COARSE = TorusGrid(2, 2, 0.5)
UNIT = TorusGrid(2, 7)
#: POWER's S = sum ||c_alpha|| r^|alpha| at radius 1/2 and 1, and the H_2 norms
S_COARSE, S_UNIT = math.sqrt(5) / 8 + 1 / 16 + 1, math.sqrt(5) + 2
H_POWER, H_SYMBOL = math.sqrt(7), 2.0

#: Each evaluator on those inputs, and the value of its docstring's formula.
EVALUATORS = {
    "operator_norm": (lambda: _operator_norm_rounding(7), 7 * math.ulp(1.0)),
    "evaluate_power": (lambda: _evaluate_power_rounding(POWER), 3 * (4 + 3)),
    "op_vec_product": (lambda: _product_rounding(SYMBOL, POWER), 2 * 3 * 2 + 2),
    "radial_dilate": (lambda: _RADIAL_DILATE_ROUNDING, 3),
    "evaluate_dirichlet": (
        lambda: list(_evaluate_dirichlet_rounding(DIRICHLET, 2 + 1j)),
        [_gamma(3 * 3 + 4) + 2 * _gamma(3) * math.sqrt(5) * math.log(n) for n in (1, 6, 10)],
    ),
    "epsilon_shift": (lambda: _EPSILON_SHIFT_ROUNDING, 3),
    "epsilon_shift of a sum": (lambda: _epsilon_shift_sum_rounding(DIRICHLET, 0.75), 0.75 * math.log(10)),
    "recover_coefficient": (
        lambda: _recover_coefficient_rounding(DIRICHLET, 6, -2.0, 100.0),
        [_gamma(8) * (100 + 2) * (1 + abs(math.log(6 / m))) + _gamma(3 + 53) for m in (1, 6, 10)],
    ),
    "h2_norm": (lambda: _h2_norm_rounding(POWER), 3 * 2 + 2),
    "point_evaluation_bound": (lambda: _point_evaluation_bound_rounding(POINT), 2 * (6 * C + 11)),
    "cole_gamelin_kernel": (lambda: _cole_gamelin_kernel_rounding(POINT, 5), 3 * 5 + 4 + 2 * (5 * C + 3)),
    "_dft": (lambda: _dft_rounding((3, 1, 5), 7), (3 + 15) + (1 + 15) + (5 + 15)),
    # the fold box reaches M, and the radius is not 1
    "_grid_values": (lambda: _grid_values_rounding(POWER, COARSE), (3 - 1) + 3 + (2 + 15) + (2 + 15)),
    "_grid_values at radius 1": (lambda: _grid_values_rounding(POWER, UNIT), (2 + 15) + (5 + 15)),
    "hp_norm": (
        lambda: _hp_norm_rounding(POWER, 4, COARSE, 2.0),
        _gamma((2 + 3) / 2 + (4 + 2) / 4 + 8) * 2.0 + _gamma(39 + 1) * S_COARSE,
    ),
    "pointwise_vs_symbolic": (
        lambda: _pointwise_vs_symbolic_rounding(SYMBOL, POWER, UNIT),
        (
            _gamma(33 + 1) * 2 * math.sqrt(2) * H_POWER
            + _gamma(37 + 1) * H_SYMBOL * S_UNIT
            + _gamma(2 + 4 + 2 * (7 + 15) + (2 * 3 * 2 + 2)) * H_SYMBOL * H_POWER
        ) * (1 + _gamma(2 + 3)),
    ),
}


@pytest.mark.parametrize("function", EVALUATORS)
def test_each_evaluator_is_its_docstring_formula(function):
    evaluate, formula = EVALUATORS[function]
    assert evaluate() == pytest.approx(formula, rel=1e-14, abs=0)


def test_dft_states_no_bound_past_the_matrix_bounds():
    """An axis past 64 columns or 2^14 entries goes through np.fft, for
    which no bound is stated, so the evaluators refuse it."""
    assert _dft_rounding((64, 64), 256) == 2 * (64 + 15)
    for box, M in [((65,), 65), ((2, 33), 512)]:
        with pytest.raises(ValueError, match="no rounding bound for an axis through np.fft"):
            _dft_rounding(box, M)
    one = PowerSeries.vector(1, {MultiIndex([256]): [1.0]})
    with pytest.raises(ValueError, match="np.fft"):
        _grid_values_rounding(one, TorusGrid(1, 300))


def test_hp_norm_states_no_bound_unless_p_is_a_power_of_two():
    """At any other p the exponent 1/p is rounded."""
    assert _hp_norm_rounding(POWER, 1, COARSE, 1.0) > _hp_norm_rounding(POWER, 8, COARSE, 1.0)
    for p in (3, 1.5, 6):
        with pytest.raises(ValueError, match=f"power of two, got {float(p)}"):
            _hp_norm_rounding(POWER, p, COARSE, 1.0)


def test_evaluate_power_states_no_bound_from_exponent_100():
    """numpy takes z^e as exp(e log z) from e = 100 up, where the stated
    bound does not hold, so the evaluator refuses such a series."""
    assert _evaluate_power_rounding(PowerSeries.vector(1, {MultiIndex([3, 99]): [1.0]})) == 3 * (102 + 1)
    with pytest.raises(ValueError, match="exponent of 100 or more, got 100"):
        _evaluate_power_rounding(PowerSeries.vector(1, {MultiIndex([1]): [1.0], MultiIndex([0, 100]): [1.0]}))
