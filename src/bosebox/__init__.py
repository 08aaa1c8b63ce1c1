"""Finite-volume Bose gas numerics in anisotropically scaled boxes.

Spectra and counting measures, grand-canonical and canonical ensembles,
number-mixture weights, and the condensation/fluctuation limit laws, with
every truncation carrying an explicit error bound.
"""

import os as _os
import sys as _sys
import types as _types

# OpenBLAS sizes its thread pool once, when numpy loads it. The largest
# product here is a 256 x 256 matrix-vector one, which a worker thread only
# slows, so numpy is loaded with one BLAS thread unless it is loaded
# already or a thread count is set. The variable is removed again, so the
# environment that child processes see is unchanged.
if "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    ConfigError,
    CutoffInsufficient,
    CutoffTooLarge,
    DomainError,
    NoConvergence,
    NumericsError,
    PoleProximity,
)
from .spectrum import (
    BoxGeometry,
    RegimeLabel,
    SpectrumTable,
    classify,
    count_modes_at_most,
    eigenvalue,
    enumerate_below,
    ground_energy,
    ids,
    ids_bounds,
    ids_limit,
    suggest_energy_cutoff,
)
from .grandcanonical import (
    CriticalDensity,
    GcSolution,
    LadderCoefficient,
    critical_density,
    gc_laplace_finite,
    gc_laplace_limit,
    gc_occupation_limit,
    grand_partition_log,
    limiting_mu_bar,
    mean_occupation,
    solve_ladder_coefficient,
    solve_mu,
)
from .canonical import (
    CanonicalTable,
    DiscreteDistribution,
    build_canonical,
    generalized_condensate,
    occupation_laplace,
    occupation_moment,
    occupation_pmf,
)
from .kac import (
    KacWeights,
    decomposition_check,
    kac_weights,
    limiting_kac_transform,
)
from .limits import (
    axis_curvature_at_zero,
    canonical_laplace_typeII,
    canonical_limit_typeI,
    fluctuation_convergence_check,
    fluctuation_law,
    g_function,
    g_with_budget,
    occupation_limit_typeII,
    rho_c_finite,
)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
