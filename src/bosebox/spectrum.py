"""Single-particle spectrum of a box with anisotropically scaled edges.

A box of volume V has edge lengths V**a_j where the exponents a_j are sorted
decreasingly and sum to 1. With Dirichlet walls the single-particle levels are

    E(n) = (pi**2 / 2) * sum_j  n_j**2 / V**(2 a_j),   n_j = 1, 2, ...

The largest exponent controls how fast the lowest excitation gaps close and
splits the model into three condensation regimes (a_1 < 1/2, = 1/2, > 1/2).
This module owns geometry/spectrum data types, exact lattice counting of the
integrated density of states, its closed-form limit and two-sided bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammaincc

from .errors import CutoffTooLarge, DomainError

__all__ = [
    "ALPHA_TOL",
    "IDS_PREFACTOR",
    "SANDWICH_CONSTANT",
    "BoxGeometry",
    "Mode",
    "RegimeLabel",
    "SpectrumTable",
    "classify",
    "eigenvalue",
    "ground_energy",
    "count_modes_at_most",
    "enumerate_below",
    "ids",
    "ids_limit",
    "ids_bounds",
    "unit_box_ids",
    "unit_box_gap_values",
    "suggest_energy_cutoff",
    "exponential_tail_integral",
    "log_power_sums",
]

ALPHA_TOL = 1e-12
EDGE_TOL = 1e-9
# Prefactor of the limiting integrated density of states sqrt(2)/(3 pi^2).
IDS_PREFACTOR = math.sqrt(2.0) / (3.0 * math.pi**2)
# Constant 3 pi / sqrt(2) entering the finite-volume lower bound.
SANDWICH_CONSTANT = 3.0 * math.pi / math.sqrt(2.0)

DEFAULT_MODE_BUDGET = 20_000_000

_EXP_FLOOR = 745.0  # exp(-745) is the smallest normal double scale
# log_power_sums evaluates an axis with t = k beta c_j below this through
# the Jacobi dual of its theta series, and at or above it directly.
_THETA_DUAL_BELOW = 1.0


def _as_mode_tuple(mode) -> tuple[int, int, int]:
    if isinstance(mode, Mode):
        return mode.n
    t = tuple(int(v) for v in mode)
    if len(t) != 3 or any(v < 1 for v in t):
        raise DomainError(f"mode must be three integers >= 1, got {mode!r}")
    return t


@dataclass(frozen=True)
class Mode:
    """Quantum numbers (n_1, n_2, n_3) of one box level, each >= 1."""

    n: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_mode_tuple(self.n))


@dataclass(frozen=True)
class BoxGeometry:
    """Box of volume ``volume`` with edges volume**alpha_j.

    alpha must be sorted decreasingly, strictly positive, and sum to 1
    within 1e-12. The edge product is validated against the volume.
    """

    alpha: tuple[float, float, float]
    volume: float

    def __post_init__(self):
        a = tuple(float(x) for x in self.alpha)
        if len(a) != 3:
            raise DomainError("alpha must have exactly three components")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "volume", float(self.volume))
        if not (a[0] >= a[1] >= a[2] > 0.0):
            raise DomainError(
                f"alpha must be sorted decreasingly with a_3 > 0, got {a}"
            )
        if abs(sum(a) - 1.0) > ALPHA_TOL:
            raise DomainError(f"alpha must sum to 1 within {ALPHA_TOL}, got {a}")
        if not (self.volume > 0.0 and math.isfinite(self.volume)):
            raise DomainError(f"volume must be positive and finite, got {self.volume}")
        prod = self.edges[0] * self.edges[1] * self.edges[2]
        if abs(prod - self.volume) > EDGE_TOL * self.volume:
            raise DomainError(
                f"edge product {prod!r} deviates from volume {self.volume!r}"
            )
        try:
            self.level_coefficients
        except (OverflowError, ZeroDivisionError):
            raise DomainError(
                f"volume {self.volume!r} is out of range for double-precision levels"
            ) from None

    @cached_property
    def edges(self) -> tuple[float, float, float]:
        v = self.volume
        return (v ** self.alpha[0], v ** self.alpha[1], v ** self.alpha[2])

    @cached_property
    def level_coefficients(self) -> tuple[float, float, float]:
        """c_j = (pi^2/2) / V**(2 a_j), so E(n) = sum_j c_j n_j^2."""
        half_pi2 = 0.5 * math.pi**2
        return tuple(half_pi2 / e**2 for e in self.edges)


@dataclass(frozen=True)
class RegimeLabel:
    """Condensation regime and symmetry sub-case of a geometry.

    ``condensation`` is "I" (a_1 < 1/2), "II" (a_1 = 1/2) or "III"
    (a_1 > 1/2); ``symmetry`` counts how many exponents share the largest
    value: "distinct", "two_equal" or "isotropic". ``gamma`` = 1 - 2 a_1
    is the scale exponent of ground-state fluctuations (positive exactly
    in regime I).
    """

    condensation: str
    symmetry: str
    gamma: float


def classify(geometry_or_alpha, tol: float = ALPHA_TOL) -> RegimeLabel:
    """Classify a geometry (or alpha triple) into regime and symmetry case."""
    if isinstance(geometry_or_alpha, BoxGeometry):
        a = geometry_or_alpha.alpha
    else:
        a = tuple(float(x) for x in geometry_or_alpha)
        if len(a) != 3 or not (a[0] >= a[1] >= a[2] > 0.0):
            raise DomainError(f"alpha must be three sorted positive reals, got {a}")
    if abs(a[0] - 0.5) <= tol:
        condensation = "II"
    elif a[0] < 0.5:
        condensation = "I"
    else:
        condensation = "III"
    multiplicity = sum(1 for x in a if abs(x - a[0]) <= tol)
    symmetry = {1: "distinct", 2: "two_equal", 3: "isotropic"}[multiplicity]
    return RegimeLabel(condensation=condensation, symmetry=symmetry, gamma=1.0 - 2.0 * a[0])


def eigenvalue(geometry: BoxGeometry, mode) -> float:
    """Energy of one mode: (pi^2/2) sum_j n_j^2 / V**(2 a_j)."""
    n = _as_mode_tuple(mode)
    c = geometry.level_coefficients
    return c[0] * n[0] ** 2 + c[1] * n[1] ** 2 + c[2] * n[2] ** 2


def ground_energy(geometry: BoxGeometry) -> float:
    """Energy of the (1, 1, 1) mode."""
    return eigenvalue(geometry, (1, 1, 1))


def _lattice_rows(geometry: BoxGeometry, e_max: float, mode_budget: int):
    """Walk the modes with energy <= e_max one n1 at a time.

    Yields n1 and the largest n3 of each n2 = 1, 2, ... in that row.
    Raises CutoffTooLarge once the rows hold more than ``mode_budget``
    modes, and before allocating a row that would take the count past it.
    """
    c1, c2, c3 = geometry.level_coefficients
    if e_max < c1 + c2 + c3:
        return
    over = CutoffTooLarge(f"more than {mode_budget} modes lie below e_max={e_max!r}")
    # Rows n1 <= n1_top - 1 hold a mode each, as do n2 <= n2_top - 1 of a
    # row, so a walk that long is refused before it starts.
    n1_top = math.sqrt((e_max - c2 - c3) / c1)
    if n1_top - 2.0 > mode_budget:
        raise over
    total = 0
    for n1 in range(1, math.floor(n1_top) + 1):
        rest = e_max - c1 * n1 * n1
        if rest < c2 + c3:
            break
        n2_top = math.sqrt((rest - c3) / c2)
        if total + n2_top - 2.0 > mode_budget:
            raise over
        n2 = np.arange(1, math.floor(n2_top) + 1, dtype=float)
        n3_max = np.floor(np.sqrt(np.maximum((rest - c2 * n2 * n2) / c3, 0.0)))
        total += int(n3_max.sum())
        if total > mode_budget:
            raise over
        yield n1, n3_max.astype(np.int64)


def count_modes_at_most(
    geometry: BoxGeometry, e_max: float, *, mode_budget: int = DEFAULT_MODE_BUDGET
) -> int:
    """Exact number of modes with energy <= e_max (no enumeration storage).

    Raises CutoffTooLarge if it exceeds ``mode_budget``.
    """
    return sum(
        int(n3_max.sum()) for _, n3_max in _lattice_rows(geometry, e_max, mode_budget)
    )


@dataclass(frozen=True)
class SpectrumTable:
    """All modes with energy <= cutoff, sorted by energy then quantum numbers."""

    geometry: BoxGeometry
    cutoff: float
    modes: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    ground_energy: float

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.energies.setflags(write=False)

    def __len__(self) -> int:
        return len(self.energies)

    @cached_property
    def gaps(self) -> np.ndarray:
        g = self.energies - self.ground_energy
        g.setflags(write=False)
        return g

    def index_of(self, mode) -> int:
        """Row index of a mode given as a row index or as quantum numbers.

        DomainError if the index is out of range or the mode lies beyond
        the cutoff.
        """
        if isinstance(mode, (int, np.integer)):
            idx = int(mode)
            if idx < 0 or idx >= len(self):
                raise DomainError(f"mode index {idx} outside table of size {len(self)}")
            return idx
        n = _as_mode_tuple(mode)
        hits = np.nonzero(
            (self.modes[:, 0] == n[0])
            & (self.modes[:, 1] == n[1])
            & (self.modes[:, 2] == n[2])
        )[0]
        if len(hits) == 0:
            raise DomainError(f"mode {n} lies above the table cutoff {self.cutoff!r}")
        return int(hits[0])


def enumerate_below(
    geometry: BoxGeometry,
    e_max: float,
    *,
    mode_budget: int = DEFAULT_MODE_BUDGET,
) -> SpectrumTable:
    """Build the spectrum table of all modes with energy <= e_max.

    The exact mode count is computed first; CutoffTooLarge is raised before
    any large allocation when it exceeds ``mode_budget``.
    """
    count = count_modes_at_most(geometry, e_max, mode_budget=mode_budget)
    c1, c2, c3 = geometry.level_coefficients
    mode_chunks = []
    energy_chunks = []
    if count > 0:
        for n1, n3_max in _lattice_rows(geometry, e_max, mode_budget):
            # all (n2, n3) pairs with n3 = 1..n3_max(n2), in lexicographic order
            n2 = np.repeat(np.arange(1, len(n3_max) + 1, dtype=np.int64), n3_max)
            starts = np.repeat(np.cumsum(n3_max) - n3_max, n3_max)
            n3 = np.arange(1, len(n2) + 1, dtype=np.int64) - starts
            block = np.empty((len(n2), 3), dtype=np.int64)
            block[:, 0] = n1
            block[:, 1] = n2
            block[:, 2] = n3
            mode_chunks.append(block)
            n2f = n2.astype(float)
            energy_chunks.append(
                (c1 * n1 * n1 + c2 * n2f * n2f) + c3 * n3.astype(float) ** 2
            )
    if mode_chunks:
        modes = np.concatenate(mode_chunks, axis=0)
        energies = np.concatenate(energy_chunks)
        # the rows are in lexicographic mode order already, so a stable sort
        # by energy breaks ties by quantum numbers
        order = np.argsort(energies, kind="stable")
        modes = np.ascontiguousarray(modes[order])
        energies = np.ascontiguousarray(energies[order])
    else:
        modes = np.empty((0, 3), dtype=np.int64)
        energies = np.empty(0, dtype=float)
    return SpectrumTable(
        geometry=geometry,
        cutoff=float(e_max),
        modes=modes,
        energies=energies,
        ground_energy=ground_energy(geometry),
    )


def ids(geometry: BoxGeometry, eta: float) -> float:
    """Integrated density of states: (1/V) #{modes with gap <= eta}.

    Gaps are measured from the ground level, so ids(geometry, 0) = 1/V.
    Returns 0 for eta < 0.
    """
    if eta < 0.0:
        return 0.0
    threshold = eta + ground_energy(geometry)
    # a few ulps of slack so levels sitting exactly on the threshold (the
    # ground level at eta = 0 in particular) are not lost to rounding
    threshold += 8.0 * math.ulp(threshold)
    count = count_modes_at_most(geometry, threshold)
    return count / geometry.volume


def ids_limit(eta: float) -> float:
    """Infinite-volume integrated density of states sqrt(2)/(3 pi^2) eta^(3/2)."""
    if eta < 0.0:
        raise DomainError(f"gap must be nonnegative, got {eta!r}")
    return IDS_PREFACTOR * eta**1.5


def ids_bounds(geometry: BoxGeometry, eta: float) -> tuple[float, float]:
    """Two-sided finite-volume bounds on ids(geometry, eta).

    lower = IDS_PREFACTOR * max(sqrt(eta) - C V**(-a_3), 0)^3 with
    C = 3 pi / sqrt(2); upper = IDS_PREFACTOR * (eta + E_1)^(3/2). The lower
    bound is informative only once eta exceeds C^2 V**(-2 a_3).
    """
    if eta < 0.0:
        return (0.0, 0.0)
    e1 = ground_energy(geometry)
    shrink = SANDWICH_CONSTANT * geometry.volume ** (-geometry.alpha[2])
    lower = IDS_PREFACTOR * max(math.sqrt(eta) - shrink, 0.0) ** 3
    upper = IDS_PREFACTOR * (eta + e1) ** 1.5
    return (lower, upper)


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


def unit_box_ids(d: int, eta: float, convention: str = "relative") -> int:
    """Count modes of the d-dimensional unit box with gap <= eta.

    The gap of n is (pi^2/2)(sum_j n_j^2 - d) by default ("relative"), or
    (pi^2/2) sum_j (n_j - 1)^2 under the "printed" convention. The count
    includes the all-ones mode, so unit_box_ids(d, 0) >= 1.
    """
    return len(unit_box_gap_values(d, eta, min_index=1, convention=convention))


def unit_box_gap_values(
    d: int,
    gap_max: float,
    *,
    min_index: int = 1,
    convention: str = "relative",
    budget: int = DEFAULT_MODE_BUDGET,
) -> np.ndarray:
    """All unit-box gap values <= gap_max (with multiplicity), sorted.

    ``min_index`` restricts every quantum number to n_j >= min_index; the
    fluctuation-sum oracle of the tests uses min_index=2. CutoffTooLarge
    before a grid of more than ``budget`` values is formed.
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
        if len(vals) * len(u) > budget:
            raise CutoffTooLarge(
                f"unit-box enumeration grid {len(vals)} x {len(u)} exceeds budget {budget}"
            )
        # sums of integers: exact, so the order of the axes does not matter
        vals = (vals[:, None] + u[None, :]).ravel()
        vals = vals[vals <= budget_u + 1e-15]
    return np.sort(vals) * (0.5 * math.pi**2)


def exponential_tail_integral(geometry: BoxGeometry, beta: float, eta_max: float) -> float:
    """Per-volume bound on integral of exp(-beta eta) above eta_max.

    Integrates the weight against the upper envelope of the counting measure,
    IDS_PREFACTOR (eta + E_1)^(3/2); closed form through the incomplete gamma
    function. Multiply by V for bounds on absolute mode sums.
    """
    e1 = ground_energy(geometry)
    scale = 1.5 * IDS_PREFACTOR * math.exp(beta * e1)
    gamma_front = math.gamma(1.5) * beta ** -1.5
    return scale * gamma_front * float(gammaincc(1.5, beta * (eta_max + e1)))


def suggest_energy_cutoff(
    geometry: BoxGeometry,
    beta: float,
    *,
    tail_tol: float = 1e-12,
    eta_start: float = 1.0,
) -> float:
    """Smallest convenient E_max whose exponential-weight tail is below tail_tol.

    The tail is measured per volume against the counting upper envelope with
    weight exp(-beta eta); monotone weights bounded by it inherit the bound.
    Doubles the gap cutoff until the target is met.
    """
    eta = float(eta_start)
    for _ in range(200):
        if exponential_tail_integral(geometry, beta, eta) < tail_tol:
            # refine downward a little so cutoffs do not balloon
            lo, hi = eta / 2.0, eta
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if exponential_tail_integral(geometry, beta, mid) < tail_tol:
                    hi = mid
                else:
                    lo = mid
            return ground_energy(geometry) + hi
        eta *= 2.0
    raise CutoffTooLarge(
        f"no gap cutoff below {eta!r} meets tail tolerance {tail_tol!r}"
    )


def log_power_sums(geometry: BoxGeometry, beta: float, k_max: int) -> np.ndarray:
    """log S'_k, S'_k = sum_modes exp(-k beta eta), for k = 1..k_max (entry k-1).

    eta is the gap above the ground level. S'_k factors over the axes into
    theta sums prod_j theta(k beta c_j), theta(t) = sum_{n>=1} exp(-t (n^2-1)),
    so no spectral cutoff enters. For t >= 1 the series is summed directly
    down to terms of exp(-745); for t < 1 through its Jacobi dual

        sum_{n>=1} exp(-t n^2) = (sqrt(pi/t) (1 + 2 sum_{m>=1} exp(-pi^2 m^2/t)) - 1)/2,

    whose terms fall off as fast there. Either way each S'_k costs O(1).
    """
    k = np.arange(1, k_max + 1, dtype=float)
    return sum(_log_theta_shifted(k * (beta * c)) for c in geometry.level_coefficients)


def _log_theta_shifted(t: np.ndarray) -> np.ndarray:
    """log sum_{n>=1} exp(-t (n^2 - 1)) for increasing t > 0."""
    split = int(np.searchsorted(t, _THETA_DUAL_BELOW))
    # direct: log1p of sum_{n>=2} exp(-t (n^2 - 1)), dropping exp(< -745)
    inner = np.zeros(len(t) - split)
    for n in itertools.count(2):
        top = int(np.searchsorted(t, _EXP_FLOOR / (n * n - 1.0)))
        if top <= split:
            break
        inner[: top - split] += np.exp(t[split:top] * -(n * n - 1.0))
    # dual, in the log domain: t + log(sqrt(pi/t)/2) + log1p(2 sum - sqrt(t/pi))
    small = t[:split]
    dual = np.zeros(split)
    for m in itertools.count(1):
        lo = int(np.searchsorted(small, math.pi**2 * m * m / _EXP_FLOOR))
        if lo >= split:
            break
        dual[lo:] += np.exp(-math.pi**2 * m * m / small[lo:])
    head = small + 0.5 * np.log(math.pi / (4.0 * small))
    return np.concatenate((head + np.log1p(2.0 * dual - np.sqrt(small / math.pi)),
                           np.log1p(inner)))
