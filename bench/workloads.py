"""Seeded workloads: input generators, the fixed task list, and output checks.

Each workload has a pure generator ``generate_<name>(seed)`` that turns
the seed into inputs, and a ``setup_<name>(seed, workdir)`` that warms
the sieve, generates, writes any input files and returns the task list.
Every task calls public ``polyhardy`` functions through module
attributes, so the tracer sees each call; checks run outside the timed
region and never raise.

Each workload also runs the ``polyhardy verify`` suites whose work it
shares, which is how the ``cli`` layer is measured.  Two suites are left
out: ``diagonal``, whose power iterations on clustered 16x16 spectra
take 8 ms to 11 s per pair, and ``bohr``, which repeats the bohr
workload's round trips as one long task.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import polyhardy as ph
import polyhardy.cli  # noqa: F401 - loaded so that the tracer patches its namespace

from checks import EPS, U, Check, at_most, exact, gamma, svd_bound


@dataclass(frozen=True)
class Task:
    """One closed-loop call into the program and the checks on its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[Check]]


def _salted_rng(seed: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), *salt.encode()])


def _random_series(rng, kind, dim, nvars, degree, num_terms) -> ph.PowerSeries:
    pool = ph.simplex(nvars, degree)
    chosen = rng.choice(len(pool), size=min(num_terms, len(pool)), replace=False)
    shape = (dim,) if kind == "vector" else (dim, dim)
    terms = {
        pool[i]: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for i in sorted(chosen)
    }
    return ph.PowerSeries(kind, dim, terms)


def _coeff_norm_sum(F: ph.PowerSeries) -> float:
    """Sum of coefficient norms (spectral for operators): bounds sup ||F|| on the polydisk."""
    return sum(float(np.linalg.norm(c, 2 if c.ndim == 2 else None)) for c in F.terms.values())


def _warm_sieve(max_frequency: int) -> None:
    """Grow the lazy prime tables so that no timed pass pays for it."""
    ph.index_to_multiindex(max_frequency)


def _suite_checks(suite: str, outcome) -> list[Check]:
    """The suite's own checks; the kind drops a numeric suffix such as ``-100``."""
    _, checks = outcome
    return [
        Check(
            f"verify.{suite}.{c['name']}", f"verify.{suite}.{re.sub(r'-[0-9]+$', '', c['name'])}",
            bool(c["pass"]),
            float(c["got"]) if isinstance(c["got"], (int, float)) else math.nan,
            float(c["tolerance"]),
        )
        for c in checks
    ]


def _suite_task(suite: str, seed: int) -> Task:
    """``polyhardy verify <suite>`` through cli.run_verify at its default sizes."""

    def run():
        report = ph.cli.run_verify(suite, seed=int(seed))
        return report.outputs, [c.as_dict() for c in report.checks]

    return Task(f"suite.{suite}", run, lambda outcome: _suite_checks(suite, outcome))


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------

COMPRESS_WHY = (
    "Multiplier-norm schedules of sparse operator symbols loaded from series "
    "files, and the verify toeplitz suite: the work is _linalg.operator_norm on "
    "a few large compressions (51 to 406 rows) plus assemble_compression and "
    "simplex, with no grid evaluation, so LAPACK norms and "
    "assemble-once-then-slice show here."
)

#: (nvars, dim, max degree); the top compression has C(nvars + D, nvars) * dim rows.
COMPRESS_SPECS = (
    (1, 3, 29),
    (1, 4, 39),
    (2, 2, 12),
    (3, 2, 6),
    (2, 4, 8),
    (2, 3, 10),
    (3, 1, 11),
    (2, 1, 27),
)
ONE_PLUS_Z_DEGREES = (10, 20, 30, 40, 50)


def _schedule_degrees(max_degree: int) -> list[int]:
    return sorted({round(max_degree * k / 5) for k in range(6)})


def _haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitary_twin(F: ph.PowerSeries, rng, theta: np.ndarray) -> ph.PowerSeries:
    """``U F(e^{i theta} z) V`` with seeded Haar unitaries U and V.

    Every coefficient changes, but each compression of the twin is
    unitarily equivalent to that of F, and at grid angles theta each grid
    value is equivalent to another grid value of F.  Power-iteration time
    follows the top singular-value gap, which a fresh random symbol moves
    by up to 10x, so the workloads keep the singular values fixed and let
    the seed draw the rest.
    """
    U, V = _haar_unitary(rng, F.dim), _haar_unitary(rng, F.dim)
    return ph.PowerSeries("operator", F.dim, {
        alpha: np.exp(1j * sum(theta[pos] * e for pos, e in alpha.items())) * (U @ c @ V)
        for alpha, c in F.terms.items()
    })


def generate_compress(seed: int) -> list[tuple[str, ph.PowerSeries, int, list[int]]]:
    """Seeded unitary twins of one fixed base symbol per spec, then ``1 + z``.

    The last symbol is ``e^{i phi} (1 + e^{i theta} z)``, whose degree-D
    compression norm is exactly 2 cos(pi / (2D + 3)).
    """
    rng = _salted_rng(seed, "compress")
    symbols = []
    for i, (nvars, dim, max_degree) in enumerate(COMPRESS_SPECS):
        base = _random_series(np.random.default_rng([0xC0, i]), "operator", dim, nvars, 2, 5)
        twin = _unitary_twin(base, rng, rng.uniform(0.0, 2.0 * np.pi, nvars))
        rows = math.comb(nvars + max_degree, nvars) * dim
        symbols.append((f"schedule.{rows}r", twin, nvars, _schedule_degrees(max_degree)))
    phi, theta = rng.uniform(0.0, 2.0 * np.pi, 2)
    one_plus_z = ph.PowerSeries.operator(
        1,
        {ph.MultiIndex(): [[np.exp(1j * phi)]], ph.MultiIndex([1]): [[np.exp(1j * (phi + theta))]]},
    )
    symbols.append(("one_plus_z", one_plus_z, 1, list(ONE_PLUS_Z_DEGREES)))
    return symbols


def _schedule_checks(name, path, nvars, degrees, values) -> list[Check]:
    F = ph.load_series(path)
    rows = [math.comb(nvars + D, nvars) * F.dim for D in degrees]
    slack = [svd_bound(r, v) for r, v in zip(rows, values)]
    violation = max(
        (a - b - sa - sb for a, b, sa, sb in zip(values, values[1:], slack, slack[1:])),
        default=-math.inf,
    )
    checks = [at_most(f"{name}.nondecreasing", "compress.nondecreasing", violation, 0.0)]
    if name == "one_plus_z":
        for D, value, r in zip(degrees, values, rows):
            closed = 2.0 * math.cos(math.pi / (2 * D + 3))
            checks.append(at_most(
                f"{name}.D{D}", "compress.one_plus_z",
                abs(value - closed), svd_bound(r, closed) + 4 * EPS,
            ))
    else:
        window = ph.TruncationParams(nvars=nvars, max_degree=degrees[-1], dim=F.dim)
        reference = float(np.linalg.norm(ph.assemble_compression(F, window).matrix, 2))
        checks.append(at_most(
            f"{name}.top_vs_svd", "compress.top_vs_svd",
            abs(values[-1] - reference), 2 * svd_bound(rows[-1], reference),
        ))
    return checks


def setup_compress(seed: int, workdir: Path) -> list[Task]:
    _warm_sieve(2)
    tasks = []
    for name, symbol, nvars, degrees in generate_compress(seed):
        path = workdir / f"{name}.json"
        ph.save_series(symbol, path)

        def run(path=path, nvars=nvars, degrees=degrees):
            F = ph.load_series(path)
            base = ph.TruncationParams(nvars=nvars, max_degree=0, dim=F.dim)
            return ph.multiplier_norm_schedule(F, degrees, base)

        def check(values, name=name, path=path, nvars=nvars, degrees=degrees):
            return _schedule_checks(name, path, nvars, degrees, values)

        tasks.append(Task(name, run, check))
    return tasks + [_suite_task("toeplitz", seed)]


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

TORUS_WHY = (
    "Torus-grid norms: hp_norm for p in {1, 2, 4} at radius 1 and 0.9, hinf_norm "
    "schedules on a vector and an operator symbol, fourier_coefficient and "
    "pointwise_vs_symbolic, and the verify parseval and cole-gamelin suites.  "
    "The work is direct grid evaluation plus about 6.5e3 "
    "operator_norm calls on 3x3 matrices: the same _linalg layer as compress on "
    "many tiny matrices, so FFT evaluation and batched norms show here."
)

HP_GRID = 11  # > 2 * degree 5, so the p = 2 quadrature is exact at radius 1
HP_EXPONENTS = (1.0, 2.0, 4.0)
FOURIER_GRID = 9  # > degree 4
HINF_VECTOR_GRIDS = tuple((M, r) for M in (16, 20, 24) for r in (0.95, 1.0))
HINF_OPERATOR_GRIDS = ((24, 0.99), (40, 0.99))
HINF_OPERATOR_TURNS = 8  # divides every grid size above, so rotations permute nodes
HINF_OPERATOR_SYMBOLS = 3


def generate_torus(seed: int) -> dict:
    rng = _salted_rng(seed, "torus")
    fourier = _random_series(rng, "vector", 2, 3, 4, 20)
    support = fourier.support
    picks = [support[i] for i in sorted(rng.choice(len(support), 2, replace=False))]
    pool = ph.simplex(3, 4)
    picks.append(pool[int(rng.integers(len(pool)))])
    return {
        "hp": [_random_series(rng, "vector", 2, 3, 5, 30) for _ in range(3)],
        "hinf_vector": _random_series(rng, "vector", 2, 3, 5, 30),
        "hinf_operator": [
            _unitary_twin(
                _random_series(np.random.default_rng([0x70, k]), "operator", 3, 2, 3, 8),
                rng, 2 * np.pi * rng.integers(0, HINF_OPERATOR_TURNS, 2) / HINF_OPERATOR_TURNS,
            )
            for k in range(HINF_OPERATOR_SYMBOLS)
        ],
        "fourier": fourier,
        "fourier_alphas": picks,
        "pointwise": [
            (_random_series(rng, "operator", 3, 2, 3, 6), _random_series(rng, "vector", 3, 2, 3, 8)),
            (_random_series(rng, "operator", 2, 3, 2, 5), _random_series(rng, "vector", 2, 3, 2, 6)),
        ],
    }


def _node_error(F: ph.PowerSeries) -> float:
    """Bound on the error of one evaluated node value: each is a sum of T
    monomial terms of at most ``deg`` factors, so gamma_{T + deg + dim} S
    with S the sum of coefficient norms."""
    return gamma(F.num_terms + F.total_degree + F.dim) * _coeff_norm_sum(F)


def _hp_checks(name, G, grid, values) -> list[Check]:
    # A grid power mean moves by at most the largest node error (Minkowski),
    # and the mean and root add gamma_{N + 4} relative.
    tol = [_node_error(G) + gamma(grid.num_nodes + 4) * v for v in values]
    checks = [
        at_most(f"{name}.monotone_p{a:g}_p{b:g}", "torus.hp_monotone", va - vb, ta + tb)
        for a, b, va, vb, ta, tb in zip(HP_EXPONENTS, HP_EXPONENTS[1:], values, values[1:], tol, tol[1:])
    ]
    if grid.radius == 1.0:
        exact_norm = ph.h2_norm(G)
        bound = tol[1] + gamma(G.num_terms * G.dim + 2) * exact_norm
        checks.append(at_most(f"{name}.parseval", "torus.parseval", abs(values[1] - exact_norm), bound))
    return checks


def _hinf_checks(name, F, value) -> list[Check]:
    """Sandwich ||F(0)|| <= grid max <= sum ||c_alpha||.

    The lower side holds because every grid has more points per variable
    than the degree, so the grid mean of F is exactly c_0.
    """
    centre = F.coefficient(ph.MultiIndex())
    centre_norm = float(np.linalg.norm(centre, 2 if centre.ndim == 2 else None))
    ceiling = _coeff_norm_sum(F)
    tol = _node_error(F) + svd_bound(F.dim, ceiling)
    return [
        at_most(f"{name}.above_centre", "torus.hinf_sandwich", centre_norm - value, tol),
        at_most(f"{name}.below_coeff_sum", "torus.hinf_sandwich", value - ceiling, tol),
    ]


def _trig_sampler(G: ph.PowerSeries, nvars: int) -> Callable[[np.ndarray], np.ndarray]:
    alphas = list(G.terms)
    exps = np.array([[a[pos] for pos in range(nvars)] for a in alphas], dtype=np.int64)
    coeffs = np.stack([G.terms[a] for a in alphas])
    return lambda w: coeffs.T @ np.prod(w**exps, axis=1)


def setup_torus(seed: int, workdir: Path) -> list[Task]:
    _warm_sieve(2)
    inputs = generate_torus(seed)
    tasks = []
    for k, G in enumerate(inputs["hp"]):
        for radius in (1.0, 0.9):
            grid = ph.TorusGrid(nvars=3, points_per_var=HP_GRID, radius=radius)
            name = f"hp.{k}.r{radius:g}"
            tasks.append(Task(
                name,
                lambda G=G, grid=grid: [ph.hp_norm(G, p, grid) for p in HP_EXPONENTS],
                lambda values, name=name, G=G, grid=grid: _hp_checks(name, G, grid, values),
            ))
    for name, F, nvars, grids in (
        ("hinf.vector", inputs["hinf_vector"], 3, HINF_VECTOR_GRIDS),
        *((f"hinf.operator.{k}", F, 2, HINF_OPERATOR_GRIDS) for k, F in enumerate(inputs["hinf_operator"])),
    ):
        schedule = [ph.TorusGrid(nvars=nvars, points_per_var=M, radius=r) for M, r in grids]
        tasks.append(Task(
            name,
            lambda F=F, schedule=schedule: ph.hinf_norm(F, schedule),
            lambda value, name=name, F=F: _hinf_checks(name, F, value),
        ))
    G = inputs["fourier"]
    sampler = _trig_sampler(G, 3)
    grid = ph.TorusGrid(nvars=3, points_per_var=FOURIER_GRID, radius=1.0)
    # Sampler sums, node powers and the grid mean: gamma_{T + 2 deg + N + 4} S.
    fourier_tol = gamma(G.num_terms + 2 * G.total_degree + grid.num_nodes + 4) * _coeff_norm_sum(G)
    for k, alpha in enumerate(inputs["fourier_alphas"]):
        name = f"fourier.{k}"
        tasks.append(Task(
            name,
            lambda alpha=alpha: ph.fourier_coefficient(sampler, alpha, grid),
            lambda got, name=name, alpha=alpha: [at_most(
                name, "torus.fourier", float(np.linalg.norm(got - G.coefficient(alpha))), fourier_tol
            )],
        ))
    for k, (F, H) in enumerate(inputs["pointwise"]):
        grid_k = ph.TorusGrid(
            nvars=max(F.nvars_used, H.nvars_used),
            points_per_var=F.total_degree + H.total_degree + 1,
        )
        name = f"pointwise.{k}"
        tasks.append(Task(
            name,
            lambda F=F, H=H, grid_k=grid_k: ph.pointwise_vs_symbolic(F, H, grid_k),
            # The function's documented contract for exact-resolution grids.
            lambda gap, name=name: [at_most(name, "torus.pointwise", gap, 1e-10)],
        ))
    return tasks + [_suite_task(suite, seed) for suite in ("parseval", "cole-gamelin")]


# ---------------------------------------------------------------------------
# bohr
# ---------------------------------------------------------------------------

BOHR_WHY = (
    "Frequency arithmetic: Bohr round trips over contiguous frequency blocks, "
    "bohr/bohr_inverse on 200-term series, op_vec_product against "
    "dirichlet_product, epsilon_shift, recover_coefficient, and the verify "
    "dilation, dirichlet and recover suites.  The work is "
    "multiindex factorisation and the dict-based series cores, with no grids "
    "and no dense linear algebra, so a vectorised Bohr map shows here."
)

ROUNDTRIP_BLOCKS = 8
ROUNDTRIP_LENGTH = 10_000
ROUNDTRIP_MAX_START = 1_500_000
PRODUCT_NVARS = 4
PRODUCT_WINDOW = 7  # below the full product degree 10, so the window discards pairs
SHIFT_GRID = tuple(0.1 * k for k in range(1, 11))
RECOVER_SIGMA = 2.0
RECOVER_R = 200.0
RECOVER_POINTS = 8001


def generate_bohr(seed: int) -> dict:
    rng = _salted_rng(seed, "bohr")
    series = [
        _random_series(rng, kind, 2, 5, 6, 200)
        for kind in ("vector", "operator") * 3
    ]
    recover = ph.bohr(_random_series(rng, "vector", 2, 3, 4, 30))
    return {
        "block_starts": [int(s) for s in rng.integers(2, ROUNDTRIP_MAX_START, ROUNDTRIP_BLOCKS)],
        "series": series,
        "products": [
            (_random_series(rng, "operator", 2, PRODUCT_NVARS, 5, 100),
             _random_series(rng, "vector", 2, PRODUCT_NVARS, 5, 120))
            for _ in range(3)
        ],
        "shift": [ph.bohr(series[0]), ph.bohr(series[2])],
        "recover": recover,
        "recover_targets": [int(n) for n in rng.choice(recover.frequencies, 4, replace=False)],
    }


def _bohr_image(F: ph.PowerSeries, primes) -> dict[int, np.ndarray]:
    """Frequency map computed independently of the program: prod p_i ** alpha_i."""
    return {math.prod(primes[pos] ** e for pos, e in alpha.items()): c for alpha, c in F.terms.items()}


def _roundtrip(start: int) -> int:
    return sum(
        1 for n in range(start, start + ROUNDTRIP_LENGTH)
        if ph.multiindex_to_index(ph.index_to_multiindex(n)) != n
    )


def _product_gap(got: dict, want: dict, tol: float) -> tuple[bool, float]:
    if got.keys() != want.keys():
        return False, math.inf
    gap = max((float(np.linalg.norm(got[n] - want[n])) for n in want), default=0.0)
    return gap <= tol, gap


def _recover_envelope(D: ph.DirichletSeries, n: int) -> float:
    """Cross terms a_m (n/m)^s sin(R log(n/m)) / (R log(n/m)), the trapezoid
    error 2 h^2/12 sum |a_m| (n/m)^s log^2(n/m), and gamma_{P + 4} rounding."""
    h = 2 * RECOVER_R / (RECOVER_POINTS - 1)
    cross = trapezoid = scale = 0.0
    for m, c in D.terms.items():
        weight = float(np.linalg.norm(c)) * (n / m) ** RECOVER_SIGMA
        scale += weight
        if m != n:
            omega = abs(math.log(n / m))
            cross += weight / (RECOVER_R * omega)
            trapezoid += 2 * h * h / 12 * weight * omega * omega
    return cross + trapezoid + gamma(RECOVER_POINTS + 4) * scale


def setup_bohr(seed: int, workdir: Path) -> list[Task]:
    inputs = generate_bohr(seed)
    _warm_sieve(max(
        ROUNDTRIP_MAX_START + ROUNDTRIP_LENGTH,
        ph.max_frequency_for_simplex(5, 6),
        ph.max_frequency_for_simplex(PRODUCT_NVARS, PRODUCT_WINDOW),
    ))
    primes = ph.primes(5)
    tasks = []
    for k, start in enumerate(inputs["block_starts"]):
        name = f"roundtrip.{k}"
        tasks.append(Task(
            name,
            lambda start=start: _roundtrip(start),
            lambda bad, name=name: [exact(name, "bohr.roundtrip", bad == 0)],
        ))
    for k, F in enumerate(inputs["series"]):
        D = ph.bohr(F)
        tasks.append(Task(
            f"bohr.{k}",
            lambda F=F: ph.bohr(F),
            lambda got, k=k, F=F: [exact(
                f"bohr.{k}", "bohr.transform",
                got == ph.DirichletSeries(F.kind, F.dim, _bohr_image(F, primes)),
            )],
        ))
        tasks.append(Task(
            f"bohr_inverse.{k}",
            lambda D=D: ph.bohr_inverse(D),
            lambda got, k=k, F=F: [exact(f"bohr_inverse.{k}", "bohr.roundtrip", got == F)],
        ))
    window_freq = ph.max_frequency_for_simplex(PRODUCT_NVARS, PRODUCT_WINDOW)
    for k, (F, G) in enumerate(inputs["products"]):
        window = ph.TruncationParams(nvars=PRODUCT_NVARS, max_degree=PRODUCT_WINDOW, dim=F.dim)
        bF, bG = ph.bohr(F), ph.bohr(G)
        # Each coefficient sums at most |F||G| products of d-term dot
        # products, in possibly different orders on the two sides.
        tol = 2 * gamma((F.num_terms * G.num_terms + 1) * F.dim) * _coeff_norm_sum(F) * _coeff_norm_sum(G)

        def check_series(got, k=k, F=F, G=G):
            reachable = {
                a + b for a in F.terms for b in G.terms
                if (a + b).degree <= PRODUCT_WINDOW and len(a + b) <= PRODUCT_NVARS
            }
            return [exact(f"product.{k}.window", "bohr.product_window", set(got.terms) <= reachable)]

        def check_dirichlet(got, k=k, F=F, G=G, window=window, tol=tol):
            want = _bohr_image(ph.op_vec_product(F, G, window), primes)
            inside = {
                n: c for n, c in got.terms.items()
                if ph.index_to_multiindex(n).degree <= PRODUCT_WINDOW
            }
            ok, gap = _product_gap(inside, want, tol)
            return [Check(f"dproduct.{k}.intertwines", "bohr.intertwining", ok, gap, tol)]

        tasks.append(Task(f"product.{k}", lambda F=F, G=G, w=window: ph.op_vec_product(F, G, w), check_series))
        tasks.append(Task(
            f"dproduct.{k}",
            lambda bF=bF, bG=bG: ph.dirichlet_product(bF, bG, window_freq),
            check_dirichlet,
        ))
    for k, D in enumerate(inputs["shift"]):
        def check_shift(shifted, k=k, D=D):
            a, b = SHIFT_GRID[1], SHIFT_GRID[2]
            twice = ph.epsilon_shift(ph.epsilon_shift(D, a), b)
            once = ph.epsilon_shift(D, a + b)
            # Three roundings per side plus the exponent sum a + b, amplified by log n.
            gap = max(
                float(np.linalg.norm(twice.coefficient(n) - once.coefficient(n)))
                / ((8 * U + math.log(n) * EPS * (a + b)) * float(np.linalg.norm(once.coefficient(n))))
                for n in once.frequencies
            )
            norms = [ph.h2_norm(s) for s in shifted]
            rise = max(y - x - gamma(D.num_terms * D.dim + 2) * x for x, y in zip(norms, norms[1:]))
            return [
                at_most(f"shift.{k}.semigroup", "bohr.shift_semigroup", gap, 1.0),
                at_most(f"shift.{k}.nonincreasing", "bohr.shift_monotone", rise, 0.0),
            ]

        tasks.append(Task(
            f"shift.{k}",
            lambda D=D: [ph.epsilon_shift(D, e) for e in SHIFT_GRID],
            check_shift,
        ))
    D = inputs["recover"]
    for k, n in enumerate(inputs["recover_targets"]):
        def check_recover(got, k=k, n=n):
            err = float(np.linalg.norm(got - D.coefficient(n)))
            return [at_most(f"recover.{k}", "bohr.recover_envelope", err, _recover_envelope(D, n))]

        tasks.append(Task(
            f"recover.{k}",
            lambda n=n: ph.recover_coefficient(D, n, RECOVER_SIGMA, RECOVER_R, RECOVER_POINTS),
            check_recover,
        ))
    return tasks + [_suite_task(suite, seed) for suite in ("dilation", "dirichlet", "recover")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], Any]
    setup: Callable[[int, Path], list[Task]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compress", COMPRESS_WHY, generate_compress, setup_compress),
        Workload("torus", TORUS_WHY, generate_torus, setup_torus),
        Workload("bohr", BOHR_WHY, generate_bohr, setup_bohr),
    )
}
