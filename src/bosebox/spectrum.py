"""Single-particle spectrum of a box with anisotropically scaled edges.

A box of volume V has edge lengths V**a_j where the exponents a_j are sorted
decreasingly and sum to 1. With Dirichlet walls the single-particle levels are

    E(n) = (pi**2 / 2) * sum_j  n_j**2 / V**(2 a_j),   n_j = 1, 2, ...

The largest exponent controls how fast the lowest excitation gaps close and
splits the model into three condensation regimes (a_1 < 1/2, = 1/2, > 1/2).
This module owns geometry/spectrum data types, exact lattice counting of the
integrated density of states, its closed-form limit and two-sided bounds,
and the spectral primitive both ensembles read: the power sums S'_k
(near_log_power_sums) for k < 512 and, beyond, the far rule (far_rule)
and the level measure it compresses (_level_measure).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CutoffTooLarge, DomainError

__all__ = [
    "ALPHA_TOL",
    "IDS_PREFACTOR",
    "SANDWICH_CONSTANT",
    "BoxGeometry",
    "RegimeLabel",
    "SpectrumTable",
    "classify",
    "eigenvalue",
    "ground_energy",
    "mode_gap",
    "mode_gaps",
    "count_modes_at_most",
    "enumerate_below",
    "ids",
    "ids_limit",
    "ids_bounds",
    "suggest_energy_cutoff",
    "exponential_tail_integral",
    "log_power_sums",
    "near_log_power_sums",
]

ALPHA_TOL = 1e-12
EDGE_TOL = 1e-9
# Prefactor of the limiting integrated density of states sqrt(2)/(3 pi^2).
IDS_PREFACTOR = math.sqrt(2.0) / (3.0 * math.pi**2)
# Constant 3 pi / sqrt(2) entering the finite-volume lower bound.
SANDWICH_CONSTANT = 3.0 * math.pi / math.sqrt(2.0)

# The most modes a lattice walk (_lattice_rows) may hold: count_modes_at_most,
# enumerate_below and ids refuse a longer one before any large allocation.
MODE_BUDGET = 20_000_000
# suggest_energy_cutoff's bound on the tail of exp(-beta eta) per volume.
CUTOFF_TAIL_TOL = 1e-12

_EXP_FLOOR = 745.0  # exp(-745) is the smallest normal double scale
# Both ensembles read S'_k exactly for k = 1.._NEAR (near_log_power_sums)
# and through the far rule beyond.
_NEAR = 511
# log_power_sums evaluates an axis with t = k beta c_j below this through
# the Jacobi dual of its theta series, and at or above it directly.
_THETA_DUAL_BELOW = 1.0
# Far rule (see far_rule): Gauss nodes per dyadic bin, more only where a
# measure's mass would take the Gauss error past _GAUSS_TOL; the share
# e^-_TAIL of S'_k, k > 256, that the atoms it drops may hold at most; the
# entries a measure may list before it is compressed; the levels an axis
# may list.
_NODES = 20
_GAUSS_TOL = 2.0**-64
_TAIL = 50.0
_ATOMS = 1 << 16
_AXIS_ATOMS = 1 << 22
# n1 rows, and (n1, n2) pairs, per block of the lattice walk (_lattice_rows):
# its 64 KB arrays are reused from the heap, where larger ones would be
# mapped and faulted in afresh for every block.
_PAIRS = 1 << 13


def _as_mode_tuple(mode) -> tuple[int, int, int]:
    try:
        t = tuple(int(v) for v in mode)
    except TypeError:  # not a sequence
        t = ()
    if len(t) != 3 or any(v < 1 for v in t):
        raise DomainError(f"mode must be three integers >= 1, got {mode!r}")
    return t


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


def classify(geometry_or_alpha) -> RegimeLabel:
    """Classify a geometry (or alpha triple) into regime and symmetry case."""
    if isinstance(geometry_or_alpha, BoxGeometry):
        a = geometry_or_alpha.alpha
    else:
        a = tuple(float(x) for x in geometry_or_alpha)
        if len(a) != 3 or not (a[0] >= a[1] >= a[2] > 0.0):
            raise DomainError(f"alpha must be three sorted positive reals, got {a}")
    if abs(a[0] - 0.5) <= ALPHA_TOL:
        condensation = "II"
    elif a[0] < 0.5:
        condensation = "I"
    else:
        condensation = "III"
    multiplicity = sum(1 for x in a if abs(x - a[0]) <= ALPHA_TOL)
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


def mode_gaps(geometry: BoxGeometry, modes) -> np.ndarray:
    """Gaps E(n) - E_1 of the rows of an (M, 3) array of quantum numbers.

    Summed per axis as sum_j c_j (n_j^2 - 1), so a small gap does not
    cancel against the ground energy.
    """
    u = np.asarray(modes, dtype=float) ** 2 - 1.0
    c1, c2, c3 = geometry.level_coefficients
    return c1 * u[:, 0] + c2 * u[:, 1] + c3 * u[:, 2]


def mode_gap(geometry: BoxGeometry, mode) -> float:
    """Gap E(n) - E_1 of one mode, as mode_gaps sums it; DomainError if it
    leaves the double range."""
    n = _as_mode_tuple(mode)
    with np.errstate(over="ignore"):
        gap = float(mode_gaps(geometry, [n])[0])
    if not math.isfinite(gap):
        raise DomainError(f"mode {n} is out of range for double-precision levels")
    return gap


def _lattice_rows(geometry: BoxGeometry, e_max: float):
    """Walk the modes with energy <= e_max in blocks of at most _PAIRS
    consecutive (n1, n2) pairs, in lexicographic order.

    Yields per block the arrays n1 and n2 (as floats) and the largest n3
    of each pair. Raises CutoffTooLarge once the blocks hold more than
    MODE_BUDGET modes, and before listing the pairs of _PAIRS rows whose
    widest row would take the count past it.
    """
    c1, c2, c3 = geometry.level_coefficients
    if e_max < c1 + c2 + c3:
        return
    over = CutoffTooLarge(f"more than {MODE_BUDGET} modes lie below e_max={e_max!r}")
    # Rows n1 <= n1_top - 1 hold a mode each, as do n2 <= n2_top - 1 of a
    # row, so a walk that long is refused before it starts.
    n1_top = math.sqrt((e_max - c2 - c3) / c1)
    if n1_top - 2.0 > MODE_BUDGET:
        raise over
    n1_end = math.floor(n1_top) + 1
    total = 0
    for first in range(1, n1_end, _PAIRS):
        n1 = np.arange(first, min(first + _PAIRS, n1_end), dtype=float)
        rest = e_max - c1 * n1 * n1
        live = rest >= c2 + c3  # a prefix, as rest falls with n1
        n1, rest = n1[live], rest[live]
        if len(n1) == 0:
            return
        n2_top = np.sqrt((rest - c3) / c2)
        if total + n2_top[0] - 2.0 > MODE_BUDGET:  # the widest row comes first
            raise over
        widths = np.floor(n2_top).astype(np.int64)
        ends = np.cumsum(widths)
        starts = ends - widths
        for lo in range(0, int(ends[-1]), _PAIRS):
            # the pairs lo..hi-1 of these rows, which span rows r0..r1
            hi = min(lo + _PAIRS, int(ends[-1]))
            r0, r1 = np.searchsorted(ends, (lo, hi - 1), side="right")
            rows = slice(r0, r1 + 1)
            span = np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo)
            n2 = np.arange(lo + 1, hi + 1, dtype=float) - np.repeat(starts[rows], span)
            n3_max = np.floor(np.sqrt(np.maximum(
                (np.repeat(rest[rows], span) - c2 * n2 * n2) / c3, 0.0)))
            total += int(n3_max.sum())
            if total > MODE_BUDGET:
                raise over
            yield np.repeat(n1[rows], span), n2, n3_max.astype(np.int64)


def count_modes_at_most(geometry: BoxGeometry, e_max: float) -> int:
    """Exact number of modes with energy <= e_max (no enumeration storage:
    the walk's blocks of at most 8192 rows and 8192 pairs take about 1 MB
    at any e_max).

    Raises CutoffTooLarge if it exceeds MODE_BUDGET.
    """
    return sum(int(n3_max.sum()) for *_, n3_max in _lattice_rows(geometry, e_max))


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


def enumerate_below(geometry: BoxGeometry, e_max: float) -> SpectrumTable:
    """Build the spectrum table of all modes with energy <= e_max.

    The exact mode count is computed first; CutoffTooLarge is raised before
    any large allocation when it exceeds MODE_BUDGET.
    """
    count = count_modes_at_most(geometry, e_max)
    c1, c2, c3 = geometry.level_coefficients
    mode_chunks = []
    energy_chunks = []
    if count > 0:
        for n1, n2, n3_max in _lattice_rows(geometry, e_max):
            # all modes n3 = 1..n3_max of each pair, in lexicographic order
            starts = np.repeat(np.cumsum(n3_max) - n3_max, n3_max)
            n3 = np.arange(1, len(starts) + 1, dtype=np.int64) - starts
            block = np.empty((len(n3), 3), dtype=np.int64)
            block[:, 0] = np.repeat(n1, n3_max)
            block[:, 1] = np.repeat(n2, n3_max)
            block[:, 2] = n3
            mode_chunks.append(block)
            energy_chunks.append(
                np.repeat(c1 * n1 * n1 + c2 * n2 * n2, n3_max) + c3 * n3.astype(float) ** 2
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


def exponential_tail_integral(geometry: BoxGeometry, beta: float, eta_max: float) -> float:
    """Per-volume bound on integral of exp(-beta eta) above eta_max.

    Integrates the weight against the upper envelope of the counting measure,
    IDS_PREFACTOR (eta + E_1)^(3/2); closed form through the incomplete gamma
    function. Multiply by V for bounds on absolute mode sums.
    """
    e1 = ground_energy(geometry)
    scale = 1.5 * IDS_PREFACTOR * math.exp(beta * e1)
    gamma_front = math.gamma(1.5) * beta ** -1.5
    return scale * gamma_front * _gamma_upper_32(beta * (eta_max + e1))


def _gamma_upper_32(x: float) -> float:
    """Regularized upper incomplete gamma Q(3/2, x) for x >= 0, in closed
    form: erfc(sqrt x) + 2 sqrt(x / pi) exp(-x)."""
    return math.erfc(math.sqrt(x)) + 2.0 * math.sqrt(x / math.pi) * math.exp(-x)


def suggest_energy_cutoff(geometry: BoxGeometry, beta: float) -> float:
    """Smallest convenient E_max whose exponential-weight tail is below
    CUTOFF_TAIL_TOL.

    The tail is measured per volume against the counting upper envelope with
    weight exp(-beta eta); monotone weights bounded by it inherit the bound.
    Doubles the gap cutoff, from 1, until the target is met.
    """
    eta = 1.0
    for _ in range(200):
        if exponential_tail_integral(geometry, beta, eta) < CUTOFF_TAIL_TOL:
            # refine downward a little so cutoffs do not balloon
            lo, hi = eta / 2.0, eta
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if exponential_tail_integral(geometry, beta, mid) < CUTOFF_TAIL_TOL:
                    hi = mid
                else:
                    lo = mid
            return ground_energy(geometry) + hi
        eta *= 2.0
    raise CutoffTooLarge(
        f"no gap cutoff below {eta!r} meets tail tolerance {CUTOFF_TAIL_TOL!r}"
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


@functools.lru_cache(maxsize=32)
def near_log_power_sums(geometry: BoxGeometry, beta: float) -> np.ndarray:
    """Read-only log_power_sums(geometry, beta, 511), built once per box and
    beta: the log S'_k, k = 1..511, that both ensembles read exactly.
    CutoffTooLarge if some S'_k - 1 overflows a double."""
    ls = log_power_sums(geometry, beta, _NEAR)
    # the largest S'_k - 1 overflows iff some does; the max is nan if any
    # entry is
    with np.errstate(over="ignore"):
        if not math.isfinite(np.expm1(ls.max())):
            raise CutoffTooLarge("power sums overflow a double at this volume and beta")
    ls.setflags(write=False)
    return ls


def _log_theta_shifted(t: np.ndarray) -> np.ndarray:
    """log sum_{n>=1} exp(-t (n^2 - 1)) for increasing t > 0.

    Each branch is one masked array of its terms, a row per n or m up to
    the last row that holds a term (at least one row), summed over the rows
    in order (_row_sums), so it rounds as a loop over n or m does."""
    split = int(np.searchsorted(t, _THETA_DUAL_BELOW))
    big, small = t[split:], t[:split]
    # direct: log1p of sum_{n>=2} exp(-t (n^2 - 1)), dropping exp(< -745);
    # t >= 1 there, so n <= 27
    u = np.arange(2.0, 28.0) ** 2 - 1.0  # n^2 - 1
    top = _EXP_FLOOR / u  # row n holds the t < top
    rows = max(1, np.count_nonzero(top > (big[0] if len(big) else math.inf)))
    inner = _row_sums(np.multiply.outer(-u[:rows], big), big < top[:rows, None])
    # dual, in the log domain: t + log(sqrt(pi/t)/2) + log1p(2 sum - sqrt(t/pi));
    # t < 1 there, so the terms exp(-pi^2 m^2/t) past exp(-745) have m <= 8
    m = np.arange(1.0, 9.0)
    low = math.pi**2 * m * m / _EXP_FLOOR  # row m holds the t >= low
    rows = max(1, np.count_nonzero(low <= (small[-1] if len(small) else -math.inf)))
    with np.errstate(divide="ignore"):  # t = 0, where the mask drops the term
        power = np.divide.outer(-math.pi**2 * m[:rows] * m[:rows], small)
    dual = _row_sums(power, small >= low[:rows, None])
    head = small + 0.5 * np.log(math.pi / (4.0 * small))
    return np.concatenate((head + np.log1p(2.0 * dual - np.sqrt(small / math.pi)),
                           np.log1p(inner)))


def _row_sums(power: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """sum_r exp(power[r]), each term 0 where ``keep`` is not set, with the
    rows added one after another, as a loop over r rounds (a reduction
    over r may pair the rows up, which rounds otherwise)."""
    return functools.reduce(np.add, np.exp(power, out=np.zeros_like(power), where=keep))


@functools.lru_cache(maxsize=32)
def far_rule(geometry: BoxGeometry, beta: float):
    """The far rule S'_k ~ sum_r w_r exp(-k s_r), k > 256, of a box at
    beta: read-only (weights, nodes) and its cut x_c, built once.
    CutoffTooLarge if the power sums overflow (near_log_power_sums), or if
    an axis holds more than 2^22 levels below x_c.

    S'_k - 1 is completely monotone in k, the Laplace transform of the
    measure of x = beta gap over the excited levels (Braess & Hackbusch,
    IMA J. Numer. Anal. 25 (2005) 685; Beylkin & Monzon, ACHA 28 (2010)
    131). Node 0 is the ground, s_0 = 0, w_0 = 1. The atoms are per-axis
    outer sums (_box_measure), their factors compressed first where more
    than 65536 sums would be listed; a dyadic bin [X, 2X) of more than 20
    atoms becomes its 20-node Gauss rule (_gauss_rules).
    - Truncation: only atoms x <= x_c = min(745/257, (log S'_1 + 50)/256)
      count; the rest sum to at most e^{-(k-1) x_c} S'_1, for k >= 257 at
      most e^-50 of S'_k >= 1 (for S'_1 < e^692; past 745/257 each term
      underflows).
    - Gauss error: f = e^{-kx} has f^(2q) > 0, so a q-node Gauss rule of a
      positive measure is below the exact sum, by at most
      f^(2q)(X)/(2q)! int pi_q^2 <= 4 mu (kX/4)^{2q} e^{-kX}/(2q)! on a bin
      of mass mu (2 (X/4)^q bounds the monic Chebyshev polynomial of
      [X, 2X), hence pi_q), that is by 4 mu/(16^q sqrt(4 pi q)) = 2.1e-25 mu
      for every k at q = 20; more nodes where the mass would take that past
      2^-64 of S'_k >= 1 (_compress).
    So the rule is below every S'_k, k > 256, by at most delta S'_k,
    delta < 1e-18 (2^-64 per compression, a handful at most, plus e^-50).
    Lanczos rounds a term e^{-k s_r} by a few k s_r u, as the atoms do (at
    V = 5e6 within 6e-17 of long-double theta sums for all k >= 1e5).

    The canonical recursion reads the rule, and so does log Xi
    (grandcanonical._far_rest with the 1/k weight), whose rest costs about
    41/y terms per node: on the R nodes, not on the thousands of levels of
    the measure. The 1/k-free grand sums, a root solve's ~20 evaluations,
    read the measure itself (_level_measure), which costs less than the
    compression.
    """
    w, x, low, cut = _level_measure(geometry, beta)
    weights, nodes, _ = _compress(w, x, low)
    weights.setflags(write=False)
    nodes.setflags(write=False)
    return weights, nodes, cut


@functools.lru_cache(maxsize=32)
def _level_measure(geometry: BoxGeometry, beta: float):
    """Read-only (weights, atoms x, lower bounds) of _box_measure up to the
    far rule's cut x_c, and x_c, built once per box and beta: the measure
    far_rule compresses. Entry 0 is the ground, x = 0, weight 1. The
    entries are plain levels, up to 2^16 of them, or Gauss nodes where more
    would be listed and _box_measure compressed its factors first."""
    ls1 = float(near_log_power_sums(geometry, beta)[0])
    cut = min(_EXP_FLOOR / 257.0, (ls1 + _TAIL) / 256.0)
    measure = _box_measure(geometry, beta, cut)
    for a in measure:
        a.setflags(write=False)
    return (*measure, cut)


def _compress(w, s, low, q=None):
    """The measure sum_i w_i delta(s_i), w_i > 0 and s_i >= 0, with every
    dyadic bin [X, 2X) of more than q atoms replaced by its q-node Gauss
    rule; atoms at 0 and smaller bins are kept. ``low`` bounds below the
    atoms each entry stands for: X for a Gauss node. q, by default the
    least that keeps the Gauss error of this mass below _GAUSS_TOL (see
    far_rule), is also used for the parts of a measure of more than
    _ATOMS entries, which are compressed first."""
    # 4 mass / (16^q sqrt(4 pi q)) <= _GAUSS_TOL, with sqrt(4 pi q) >= sqrt(80 pi)
    q = q or max(_NODES, math.ceil(math.log(
        4.0 * float(w.sum()) / (_GAUSS_TOL * math.sqrt(80.0 * math.pi)), 16.0)))
    order = np.argsort(s)
    w, s, low = w[order], s[order], low[order]
    if len(s) > _ATOMS:
        parts = [_compress(w[i : i + _ATOMS], s[i : i + _ATOMS], low[i : i + _ATOMS], q)
                 for i in range(0, len(s), _ATOMS)]
        fewer = [np.concatenate(p) for p in zip(*parts)]
        if len(fewer[1]) < len(s):
            return _compress(*fewer, q)
    zeros = int(np.searchsorted(s, 0.0, side="right"))
    e = np.frexp(s[zeros:])[1]  # s in [2^(e-1), 2^e)
    starts = zeros + np.flatnonzero(np.diff(e, prepend=e[:1] - 1))
    counts = np.diff(starts, append=len(s))
    gauss = counts > q
    kept = np.ones(len(s), dtype=bool)
    kept[zeros:] = np.repeat(~gauss, counts)
    if not gauss.any():
        return w, s, low
    rule = _gauss_rules(w[~kept], s[~kept], counts[gauss], q)
    w, s, low = (np.concatenate((a[kept], g)) for a, g in zip((w, s, low), rule))
    return w[w > 0.0], s[w > 0.0], low[w > 0.0]


def _gauss_rules(w, s, counts, q):
    """Weights, nodes and bin edges X of the q-node Gauss rule of each run
    of ``counts`` atoms of sum w_i delta(s_i) (s sorted, each run one
    dyadic bin [X, 2X)): Lanczos with full reorthogonalization on
    t = 2 s/X - 3 in [-1, 1), one bin at a time against its q x m basis,
    then the eigenvalues and first eigenvector components of all Jacobi
    matrices at once (Golub & Welsch, Math. Comp. 23 (1969) 221)."""
    starts = np.cumsum(counts) - counts
    low = np.ldexp(1.0, np.frexp(s[starts])[1] - 1)
    mass = np.add.reduceat(w, starts)
    jacobi = np.zeros((len(counts), q, q))
    for i, m, x, mu, jac in zip(starts, counts, low, mass, jacobi):
        t = 2.0 * (s[i : i + m] / x) - 3.0
        vec = np.sqrt(w[i : i + m] / mu)
        basis = np.empty((q, m))
        for j in range(q):
            basis[j] = vec
            v = t * vec
            jac[j, j] = vec @ v
            if j + 1 == q:
                break
            done = basis[: j + 1]
            for _ in range(2):  # classical Gram-Schmidt, twice
                v -= done.T @ (done @ v)
            norm = math.sqrt(v @ v)
            jac[j, j + 1] = jac[j + 1, j] = norm
            vec = v / norm if norm > 0.0 else v
    theta, vecs = np.linalg.eigh(jacobi)
    return ((mass[:, None] * vecs[:, 0] ** 2).ravel(),
            (low[:, None] * ((theta + 3.0) / 2.0)).ravel(),
            np.repeat(low, q))


def _box_measure(geometry: BoxGeometry, beta: float, cap: float):
    """(weights, atoms x = beta gap, lower bounds) of the box modes with
    x <= cap, as outer sums of the axes' atoms beta c_j (n^2 - 1), n >= 1,
    that drop every sum whose lower bound passes cap. Where a sum would list
    more than _ATOMS entries, its two parts are compressed first.
    CutoffTooLarge if an axis holds more than _AXIS_ATOMS atoms up to cap."""
    m = None
    for c in geometry.level_coefficients:
        top = math.sqrt(cap / (beta * c) + 1.0)  # n with beta c (n^2 - 1) <= cap
        if top > _AXIS_ATOMS:
            raise CutoffTooLarge(
                f"an axis holds more than {_AXIS_ATOMS} levels with beta gap <= {cap:.3g}"
            )
        n = np.arange(1.0, math.floor(top) + 1.0)
        a = beta * (c * (n * n - 1.0))  # 0 at n = 1 even if beta c overflows
        axis = np.ones(len(a)), a, a
        if m is None:
            m = axis
            continue
        counts = np.searchsorted(a, cap - m[2], side="right")
        if counts.sum() > _ATOMS:
            m, axis = _compress(*m), _compress(*axis)
            order = np.argsort(axis[2])
            axis = tuple(v[order] for v in axis)
            counts = np.searchsorted(axis[2], cap - m[2], side="right")
        i = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        (w, x, low), (v, y, lo) = m, axis
        m = w[i] * v[j], x[i] + y[j], low[i] + lo[j]
    return m
