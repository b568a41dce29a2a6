"""No check in ``cli.py`` takes a literal tolerance.

Every check's tolerance is 0 or a bound evaluated from the error bounds
the library states, so a nonzero float literal in the tolerance of a
``check_close``, the bound of a ``check_at_most`` or the bound of a
``check_each`` pair is a fixed slack that nothing derives.  An argument
that is a name is followed to the values the function assigns, adds or
appends to it; of a ``check_each`` pair written out as a tuple, only its
second element is the bound.  Parseval's two checks keep their 1e-10:
they rest on numpy's FFT, for which no bound is stated.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "polyhardy" / "cli.py"

#: check name -> why its literal stays
ALLOWED = {
    "parseval-vs-quadrature-max-rel-gap": "numpy's FFT states no bound",
    "pointwise-vs-symbolic-max-residual": "numpy's FFT states no bound",
}

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
    literals = [f for f in literal_tolerances() if f[1] not in ALLOWED]
    assert not literals, f"cli.py checks with literal tolerances (line, check, value): {literals}"


def test_the_allowed_literals_are_still_there():
    assert {name for _, name, _ in literal_tolerances()} == set(ALLOWED)
