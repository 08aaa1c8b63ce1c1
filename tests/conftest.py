"""Shared fixtures.

One canonical build on the box geometry and one moderately deep listing of
its spectrum (for oracles that sum over listed modes) are reused by several
test files; both are session scoped because the canonical recursion is the
only genuinely expensive setup in the suite. ``tail_cutoff`` picks a
listing cutoff at any tail tolerance; ``index_of`` and ``gaps`` look
a mode's row and the gaps up in such a listing for those oracles,
``low_modes`` lists the few modes of a small box that the brute-force
oracles sum over, and ``unit_box_gap_values`` lists the unit-box lattice gaps that the
fluctuation sums g_d run over. ``reference_refined_panels`` is the
np.unique form of the end-refined quadrature rule.
"""

import math

import numpy as np
import pytest

from bosebox import (
    BoxGeometry,
    DomainError,
    build_canonical,
    critical_density,
    enumerate_below,
    numerics,
    spectrum,
)
from bosebox.spectrum import _as_mode_tuple, ground_energy, log_power_sums, mode_gaps

ALPHAS = (0.4, 0.35, 0.25)
VOLUME = 1000.0
BETA = 1.0
# Listing cutoff of the shared spectrum table (13 254 modes), deeper than
# the density-based suggestion (about 27 at this volume).
EMAX = 45.0
# Number-mixture runs in the suite go up to rho = 2 * rho_c at V = 1000;
# the mixture weights need roughly this much headroom past the mean.
N_MAX = 6727


@pytest.fixture(scope="session")
def geom_aniso():
    return BoxGeometry(ALPHAS, VOLUME)


@pytest.fixture(scope="session")
def table_aniso(geom_aniso):
    return enumerate_below(geom_aniso, EMAX)


@pytest.fixture(scope="session")
def mixture_ct(geom_aniso):
    return build_canonical(geom_aniso, BETA, N_MAX)


@pytest.fixture(scope="session")
def rho_c_value():
    return critical_density(BETA).value


def tail_cutoff(geometry, beta, tail_tol):
    """suggest_energy_cutoff with its tail tolerance set to ``tail_tol``:
    a cutoff whose exponential tail, bisected on exponential_tail_integral,
    is below tail_tol per volume."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "CUTOFF_TAIL_TOL", tail_tol)
        return spectrum.suggest_energy_cutoff(geometry, beta)


def index_of(table, mode) -> int:
    """Row of a mode in a spectrum table, given as a row index or as quantum
    numbers; DomainError if the index is out of range or the mode lies
    beyond the cutoff."""
    if isinstance(mode, (int, np.integer)):
        idx = int(mode)
        if idx < 0 or idx >= len(table):
            raise DomainError(f"mode index {idx} outside table of size {len(table)}")
        return idx
    n = _as_mode_tuple(mode)
    hits = np.nonzero(np.all(table.modes == np.asarray(n), axis=1))[0]
    if len(hits) == 0:
        raise DomainError(f"mode {n} lies above the table cutoff {table.cutoff!r}")
    return int(hits[0])


def gaps(table) -> np.ndarray:
    """Energies of a spectrum table above its ground level."""
    return table.energies - table.ground_energy


def low_modes(geometry, beta, x_max=40.0):
    """Quantum numbers and gaps of the modes with beta gap <= x_max, sorted
    by energy, and a bound on the sum of exp(-beta gap) over the modes left
    out: their terms up to 2 x_max, listed, plus exp(-x_max) S'_1 at beta/2,
    which bounds the terms past 2 x_max (each is exp(-x/2) exp(-x/2) <=
    exp(-x_max) exp(-x/2))."""
    listed = enumerate_below(geometry, ground_energy(geometry) + (2.0 * x_max + 1.0) / beta)
    x = beta * mode_gaps(geometry, listed.modes)
    kept = x <= x_max
    beyond = math.exp(-x_max + float(log_power_sums(geometry, 0.5 * beta, 1)[0]))
    dropped = math.fsum(np.exp(-x[~kept & (x <= 2.0 * x_max)])) + beyond
    return listed.modes[kept], x[kept] / beta, dropped


def _unit_gap_shift(d: int, convention: str):
    if d not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {d!r}")
    if convention == "relative":
        # gap = (pi^2/2) (sum n_j^2 - d)
        return lambda n: n.astype(float) ** 2 - 1.0
    if convention == "printed":
        # gap = (pi^2/2) sum (n_j - 1)^2
        return lambda n: (n.astype(float) - 1.0) ** 2
    raise DomainError(f"unknown gap convention {convention!r}")


def unit_box_gap_values(d, gap_max, *, min_index=1, convention="relative") -> np.ndarray:
    """All gap values <= gap_max of the d-dimensional unit box (with
    multiplicity), sorted.

    ``min_index`` restricts every quantum number to n_j >= min_index; the
    fluctuation sums g_d run over min_index=2.
    """
    if gap_max < 0.0:
        raise DomainError(f"gap must be nonnegative, got {gap_max!r}")
    per_axis = _unit_gap_shift(d, convention)
    budget_u = gap_max / (0.5 * math.pi**2)
    n_hi = int(math.floor(math.sqrt(budget_u + float(min_index) ** 2))) + 2
    u = per_axis(np.arange(min_index, n_hi + 1, dtype=np.int64))
    u = u[u <= budget_u + 1e-15]
    vals = u
    for _ in range(d - 1):
        # sums of integers: exact, so the order of the axes does not matter
        vals = (vals[:, None] + u[None, :]).ravel()
        vals = vals[vals <= budget_u + 1e-15]
    return np.sort(vals) * (0.5 * math.pi**2)


def reference_refined_panels(a, b, n_nodes=24, n_refine=18):
    """numerics.refined_panels as it deduplicated its edges before, through
    np.unique (whose first call imports numpy.ma): the oracle of the
    sorted-mask form."""
    length = b - a
    fracs = 0.5 ** np.arange(1, n_refine + 1)
    left = a + length * 0.5 * fracs[::-1]
    right = b - length * 0.5 * fracs[::-1]
    edges = np.unique(np.concatenate(([a], left, right[::-1], [b])))
    return numerics._panel_rule(edges, n_nodes)
