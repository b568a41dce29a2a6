"""Hardy-space objects on the polytorus/polydisk at finite truncation.

The package realizes, at desk scale (finitely many variables, bounded
degree, finite coefficient dimension), the interlocking coordinate
systems of multiplier theory for vector-valued Hardy spaces:

* sparse power series with vector or operator coefficients
  (:mod:`polyhardy.series`) indexed by finitely supported multi-indices
  (:mod:`polyhardy.multiindex`);
* Dirichlet series (:mod:`polyhardy.dirichlet`), which share that
  sparse core (keys held as one int64 array, coefficients as one
  stack) with frequency keys in place of multi-indices, so that the
  prime-power Bohr bijection maps one key array to another and shares
  the coefficients;
* Hardy norms, Fourier extraction on torus grids, and extremal kernels
  (:mod:`polyhardy.hardy`);
* multiplication operators compressed to truncated coefficient space,
  whose norms climb to the symbol's sup norm (:mod:`polyhardy.multiplier`).

Everything is numerically checkable: norm identities that are exact
theorems for the full spaces become quadrature-exact or
oracle-tolerance identities here.  The ``polyhardy verify`` suites
(:mod:`polyhardy.cli`) define each one once, as an exact check or one
within error bounds the library states, and the test suite runs every
suite over several seeds.
"""

from .multiindex import (
    MultiIndex,
    index_to_multiindex,
    max_frequency_for_simplex,
    multiindex_to_index,
    primes,
    simplex,
    weighted_degree,
)
from .series import (
    PowerSeries,
    TruncationParams,
    evaluate_power,
    op_vec_product,
    radial_dilate,
    truncate,
)
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
    cole_gamelin_kernel_value,
    fourier_coefficient,
    h2_norm,
    hinf_norm,
    hp_norm,
    point_evaluation_bound,
    pointwise_vs_symbolic,
)
from .multiplier import (
    CompressionMatrix,
    assemble_compression,
    diagonal_example,
    multiplier_norm_schedule,
    operator_norm,
)
from .seriesio import (
    SeriesFormatError,
    load_series,
    save_series,
    series_from_dict,
    series_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "CompressionMatrix",
    "DirichletSeries",
    "MultiIndex",
    "PowerSeries",
    "SeriesFormatError",
    "TorusGrid",
    "TruncationParams",
    "assemble_compression",
    "bohr",
    "bohr_inverse",
    "cole_gamelin_kernel",
    "cole_gamelin_kernel_value",
    "diagonal_example",
    "dirichlet_product",
    "epsilon_shift",
    "evaluate_dirichlet",
    "evaluate_power",
    "fourier_coefficient",
    "h2_norm",
    "hinf_norm",
    "hp_norm",
    "index_to_multiindex",
    "load_series",
    "max_frequency_for_simplex",
    "multiindex_to_index",
    "multiplier_norm_schedule",
    "op_vec_product",
    "operator_norm",
    "point_evaluation_bound",
    "pointwise_vs_symbolic",
    "primes",
    "radial_dilate",
    "recover_coefficient",
    "save_series",
    "series_from_dict",
    "series_to_dict",
    "simplex",
    "truncate",
    "weighted_degree",
]
