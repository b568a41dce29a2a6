"""Output checks for the benchmark, each with a tolerance from a stated bound.

A check never raises and is never skipped: a failing comparison, or a
check function that itself raises, is recorded as a failed ``Check``
and counted in ``fail_share``.  A failure makes the run incorrect unless
it is one of the ``KNOWN_DEFECTS`` present at the commit that defined the
benchmark and no larger than that defect was; those stay counted and
printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Unit roundoff of IEEE double precision, 2**-53.
U = 2.0**-53
EPS = float(np.finfo(np.float64).eps)

@dataclass(frozen=True)
class KnownDefect:
    """A failure present when the benchmark was defined, and how far it is excused.

    ``excused`` accepts a failed check of this kind only while it is no
    worse than the program missed by at that commit, with headroom for
    seed-to-seed variation; a larger miss makes the run incorrect.
    """

    cause: str
    excused: Callable[["Check"], bool]


#: Check kinds that failed when the benchmark was defined.
KNOWN_DEFECTS = {
    "compress.top_vs_svd": KnownDefect(
        "operator_norm is a power iteration that stops on an Aitken estimate "
        "of 1e-12 relative; over seeds 0-9 it missed the backward-stable SVD "
        "bound by 5x to 39x, so a miss of up to 100x is excused",
        lambda c: c.got <= 100.0 * c.bound,
    ),
    "compress.one_plus_z": KnownDefect(
        "the same stopping rule lands 2e-12 to 8e-12 off 2cos(pi/(2D+3)) for "
        "D = 10 to 50, 200x to 390x the bound over seeds 0-9, so a miss of up "
        "to 1000x is excused",
        lambda c: c.got <= 1000.0 * c.bound,
    ),
    "verify.recover.recovery-decay-ratio": KnownDefect(
        "the recover suite's decay-ratio checks assume the error falls 1.8x "
        "per 4x of R, but it oscillates like |sin(R log(n/m))|/R and falls "
        "only 1.26x from R = 100 to 400 on the suite's fixed input; the error "
        "must still fall",
        lambda c: c.got > 1.0,
    ),
}


@dataclass(frozen=True)
class Check:
    """One comparison: ``got`` against ``bound`` under the named rule."""

    name: str
    kind: str
    passed: bool
    got: float
    bound: float

    @property
    def known_defect(self) -> bool:
        """A failure of a known kind, within the size that kind is excused up to."""
        defect = KNOWN_DEFECTS.get(self.kind)
        return not self.passed and defect is not None and defect.excused(self)


def gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u): relative error bound of n roundings."""
    return n * U / (1.0 - n * U)


def at_most(name: str, kind: str, got: float, bound: float) -> Check:
    got, bound = float(got), float(bound)
    return Check(name, kind, bool(got <= bound), got, bound)


def exact(name: str, kind: str, ok: bool) -> Check:
    return Check(name, kind, bool(ok), 0.0 if ok else 1.0, 0.0)


def svd_bound(rows: int, sigma: float) -> float:
    """Backward-stable SVD bound |sigma_hat - sigma| <= p(n) eps ||M|| with p(n) = n.

    This is the LAPACK Users' Guide error bound for singular values with
    the modestly growing factor p(n) taken as the matrix order.
    """
    return rows * EPS * abs(sigma)


def run_checks(task_name: str, check_fn, output) -> list[Check]:
    """Evaluate ``check_fn(output)``; an exception becomes one failed check."""
    try:
        return list(check_fn(output))
    except Exception as exc:  # noqa: BLE001 - a broken check is counted, not raised
        return [Check(f"{task_name}.check-error:{type(exc).__name__}", "bench.error", False, math.nan, 0.0)]


def same_output(a, b) -> bool:
    """Bitwise equality of two task outputs (the program is deterministic)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same_output(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(same_output(a[k], b[k]) for k in a)
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return bool(a == b)
