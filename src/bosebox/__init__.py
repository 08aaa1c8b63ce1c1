"""Finite-volume Bose gas numerics in anisotropically scaled boxes.

Spectra and counting measures, grand-canonical and canonical ensembles,
number-mixture weights, and the condensation/fluctuation limit laws, with
every truncation carrying an explicit error bound.
"""

import types as _types

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
    Mode,
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
    unit_box_gap_values,
    unit_box_ids,
)
from .grandcanonical import (
    CriticalDensity,
    GcSolution,
    LadderCoefficient,
    critical_density,
    gc_density,
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
    ModeMeasure,
    build_canonical,
    generalized_condensate,
    mode_measure,
    mode_measure_laplace,
    mode_measure_reconstruct,
    occupation_laplace,
    occupation_moment,
    occupation_pmf,
    shifted_pressure,
)
from .kac import (
    KacWeights,
    PointMass,
    decomposition_check,
    empirical_kac_convergence,
    kac_weights,
    limiting_kac_density,
    limiting_kac_transform,
)
from .limits import (
    FluctuationCase,
    GapCoefficients,
    axis_curvature_at_zero,
    canonical_laplace_typeII,
    canonical_laplace_typeIII,
    canonical_limit_typeI,
    fluctuation_case,
    fluctuation_convergence_check,
    fluctuation_law,
    g_function,
    g_with_budget,
    gap_coefficients,
    mode_distribution_limit,
    occupation_limit_typeII,
    rho_c_finite,
)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
