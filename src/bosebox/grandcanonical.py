"""Grand-canonical quantities at fixed chemical potential or fixed density.

Covers finite-volume mode occupations and their Laplace transforms, the
saturation density, the chemical-potential solver at fixed density, the
leading small-gap asymptotics of the shifted chemical potential in the three
condensation regimes, and the self-consistent ladder coefficient that governs
the anisotropy-critical case.

Sums over all modes read what the canonical recursion reads, so no mode
is listed: the power sums S'_k of spectrum.log_power_sums for k < 512 and,
beyond, the level measure spectrum.far_rule compresses (the density) or
the rule itself (log Xi). With mu_bar = mu - E_1 < 0, ground mode apart,

    rho V = 1/(exp(-beta mu_bar) - 1) + sum_{k>=1} (S'_k - 1) exp(k beta mu_bar),

and log Xi is the same with -log(1 - exp(beta mu_bar)) and a 1/k weight.
The terms k >= 512, summed per node (_far_rest), are added only
where their geometric bound is not below 2^-53 of the sum (_excited_sum).
The limiting densities are closed forms in zeta(3/2) and Li_{3/2}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooLarge, DomainError, NoConvergence, NumericsError
from .numerics import solve_bracketed
from .spectrum import (
    _NEAR,
    _NODES,
    BoxGeometry,
    RegimeLabel,
    eigenvalue,
    far_rule,
    ground_energy,
    mode_gap,
    near_log_power_sums,
    _as_mode_tuple,
    _level_measure,
)

__all__ = [
    "CriticalDensity",
    "GcSolution",
    "LadderCoefficient",
    "mean_occupation",
    "grand_partition_log",
    "solve_mu",
    "critical_density",
    "limiting_mu_bar",
    "solve_ladder_coefficient",
    "gc_occupation_limit",
    "gc_laplace_finite",
    "gc_laplace_limit",
]

# zeta(3/2 - j) for j = 0..29 in double precision (the tests check each
# value against an independent evaluation).
_ZETA = (
    2.612375348685488, -1.4603545088095866, -0.2078862249773546,
    -0.025485201889833053, 0.00851692877785033, 0.004441011335479434,
    -0.0030916692472158364, -0.002671458019899229, 0.0027467679395368704,
    0.0032690395726002216, -0.004416032873004892, -0.00667217229646665,
    0.011146122473942834, 0.020396978715942822, -0.040574967481194636,
    -0.08717525590621737, 0.20117404938422698, 0.4962712199120593,
    -1.3032292507051177, -3.6297592997745847, 10.68732706902202,
    33.16832578569471, -108.21747505877623, -370.3018783754793,
    1326.0458117490175, 4959.598315043067, -19338.9419883747,
    -78486.148569218, 331023.6487454514, 1448811.370582732,
)
_ZETA_32 = _ZETA[0]
# Robinson's expansion Li_{3/2}(e^x) = -2 sqrt(pi) sqrt(-x) + sum_j zeta(3/2 - j) x^j / j!
# (Phys. Rev. 83, 678 (1951)), used for -1 <= x <= 0; its terms fall off
# like (x / 2 pi)^j, so 30 of them reach roundoff.
_ROBINSON = [z / math.factorial(j) for j, z in enumerate(_ZETA)]
# A grand sum takes its first _NEAR terms exactly; past _SERIES_RTOL its
# rest is the level measure's or the far rule's, whose nodes' mass went
# through at most _GAUSS_LAYERS compressions (three _compress calls in a
# row, each two deep at most for boxes up to V = 1e10).
_SERIES_RTOL = 2.0**-53
_GAUSS_LAYERS = 6
_SOLVE_TOL = 1e-12  # largest residual accepted: by rho in solve_mu, absolute for the ladder


@dataclass(frozen=True)
class CriticalDensity:
    """Saturation density at inverse temperature beta."""

    value: float
    roundoff: float


@dataclass(frozen=True)
class GcSolution:
    """Chemical potential solving the density equation at one volume."""

    mu: float
    residual: float
    mu_bar: float
    tail_bound: float


@dataclass(frozen=True)
class LadderCoefficient:
    """Root of the self-consistent ladder equation in the critical regime."""

    value: float
    residual: float


def _check_mu(ground: float, mu: float) -> None:
    if not mu < ground:
        raise DomainError(f"mu must lie strictly below the ground level {ground!r}")


def _bose(x: float) -> float:
    """1/(e^x - 1) for x > 0, as e^-x/(1 - e^-x) so that large x gives 0."""
    return math.exp(-x) / -math.expm1(-x)


def _geometric_laplace(x: float, lam: float) -> float:
    """(1 - q)/(1 - q e^-lam) with q = e^-x, kept stable for tiny exponents."""
    return -math.expm1(-x) / -math.expm1(-(x + lam))


def mean_occupation(geometry: BoxGeometry, mu_bar: float, mode, beta: float) -> float:
    """Expected occupation 1/(exp(beta (eta_n - mu_bar)) - 1) of the mode n.

    Takes mu_bar = mu - E_1, as mu itself can round to E_1, and the gap
    eta_n of mode_gap, which does not cancel against E_1 either."""
    _check_mu(0.0, mu_bar)
    return _bose(beta * (mode_gap(geometry, mode) - mu_bar))


@functools.lru_cache(maxsize=32)
def _near_excess(geometry: BoxGeometry, beta: float) -> np.ndarray:
    """Read-only S'_k - 1, k = 1.._NEAR, of spectrum.near_log_power_sums."""
    excess = np.expm1(near_log_power_sums(geometry, beta))
    excess.setflags(write=False)
    return excess


def _excited_sum(geometry, beta, mu_bar, *, over_k=False, far=True):
    """sum_k (S'_k - 1) exp(k beta mu_bar), divided by k if ``over_k``, and
    a bound on what it leaves out.

    Sums the terms k <= _NEAR. S'_k - 1 shrinks at least by exp(-beta
    eta_1) per step, so the rest is at most term_K r/(1 - r), r = e^-rate,
    rate = beta (eta_1 - mu_bar) (with the 1/k weight it shrinks at least
    as fast), raised by 1e-9 of itself to cover rounding where one level
    dominates and the bound is exact. If ``far`` is set and that bound is
    not below _SERIES_RTOL of the sum, _far_rest adds the rest, and its
    bound: over the cached level measure, or with the 1/k weight over the
    far rule.
    """
    excess = _near_excess(geometry, beta)
    rate = beta * (3.0 * min(geometry.level_coefficients) - mu_bar)
    k = np.arange(1.0, _NEAR + 1.0)
    terms = excess * np.exp(k * (beta * mu_bar)) / (k if over_k else 1.0)
    head = float(np.sum(terms))
    tail = float(terms[-1]) * _bose(rate) * (1.0 + 1e-9) if rate > 0.0 else math.inf
    if not far or tail <= _SERIES_RTOL * head:
        return head, tail
    rest, bound = _far_rest(geometry, beta, beta * mu_bar, 1.0 + float(excess[0]), over_k)
    return head + rest, bound


def _log_rest(y):
    """sum_{k >= K} e^{-k y}/k, K = _NEAR + 1, for each y > 0, to a few ulp;
    unlike -log(1 - e^-y) less its first _NEAR terms, neither form cancels.

    Up to x = K y = 1: E_1(x) by its power series, plus e^{-K t} (1/(1 -
    e^-t) - 1/t) over t > y with 1/2 + t/12 - t^3/720 for the bracket (the
    next term is below 1e-18 of the sum). Beyond: e^{-K y} sum_{j<J}
    e^{-j y}/(K + j), whose exponents round by j y u where the terms have
    fallen by e^{-j y}, to J = (60 log 2 - log(1 - e^-y))/y, past which
    the terms sum to below 2^-60 of it."""
    first = _NEAR + 1.0
    rest = np.empty(y.shape)
    near = first * y <= 1.0
    if near.any():
        x = first * y[near]
        series = np.polyval([(-1.0) ** (k + 1) / (k * math.factorial(k))
                             for k in range(19, 0, -1)] + [0.0], x)
        bracket = (0.5 + (1.0 + x) / (12.0 * first)
                   - (6.0 + x * (6.0 + x * (3.0 + x))) / (720.0 * first**3))
        rest[near] = series - np.euler_gamma - np.log(x) + np.exp(-x) / first * bracket
    far = y[~near]
    count = np.ceil((60.0 * math.log(2.0) - np.log(-np.expm1(-far))) / far).astype(int)
    start = np.cumsum(count) - count
    j = np.arange(count.sum()) - np.repeat(start, count)
    terms = np.exp(-np.repeat(far, count) * j) / (first + j)
    rest[~near] = np.exp(-first * far) * np.add.reduceat(terms, start)
    return rest


def _far_rest(geometry, beta, beta_mu_bar, s1, over_k):
    """sum_{k > _NEAR} (S'_k - 1) z^k, z = exp(beta mu_bar), divided by k
    if ``over_k``, and a bound on what it leaves out. Without the 1/k weight
    it sums the level measure far_rule compresses (spectrum._level_measure),
    cheaper for a root solve's ~20 calls than building the rule; with it,
    the rule (spectrum.far_rule), whose few nodes keep _log_rest's ~41/y
    terms per node few. Node 0, the ground, is summed apart, exactly.

    Per excited node, z_r = exp(beta mu_bar - s_r), the rest is
    w_r z_r^512/(1 - z_r), and with the 1/k weight that of _log_rest. The
    sum is below the exact rest by at most (on the measure the Gauss term
    bounds only the nodes of factors _box_measure compressed, and more, as
    a plain atom has no Gauss error):
    - S'_1 e^{x_c} (z e^{-x_c})^512/(1 - z e^{-x_c}) from the atoms above
      its cut x_c, since sum_{x > x_c} e^{-kx} <= e^{-(k-1) x_c} S'_1;
    - 4 mu 16^-q (1 + 1/(X + a)), a = -beta mu_bar, from a bin [X, 2X) of
      mass mu: the Gauss error (far_rule) of f = sum_{k>=512} z^k e^{-kx},
      with sum_k (k (X + a))^{2q} e^{-k (X + a)} at most its integral
      (2q)!/(X + a) plus its peak. Nodes lie below 2 X, and each
      compression a node's mass went through at most halves the X it
      stands for: node r adds 4 w_r 16^-20 (L + 2^(L+1)/(s_r + a)),
      L = _GAUSS_LAYERS.
    With the 1/k weight both are divided by 512. CutoffTooLarge if an
    excited node rounds to z_r = 1.
    """
    if over_k:
        weights, nodes, cut = far_rule(geometry, beta)
    else:
        weights, nodes, _, cut = _level_measure(geometry, beta)
    w, y = weights[1:], nodes[1:] - beta_mu_bar
    if not np.all(y > 0.0):
        raise CutoffTooLarge("excited levels round to the ground level at this beta")
    first, gap = _NEAR + 1.0, cut - beta_mu_bar
    gauss = float(np.sum(w * (_GAUSS_LAYERS + 2.0 ** (_GAUSS_LAYERS + 1) / y)))
    bound = math.exp(math.log(s1) + cut - first * gap) / -math.expm1(-gap)
    bound += 4.0 * 16.0**-_NODES * gauss
    if not over_k:
        return float(np.sum(w * np.exp(-first * y) / -np.expm1(-y))), bound
    return float(np.sum(w * _log_rest(y))), bound / first


def grand_partition_log(geometry: BoxGeometry, mu: float, beta: float) -> tuple[float, float]:
    """log of the grand partition function and a bound on its series tail."""
    ground = ground_energy(geometry)
    _check_mu(ground, mu)
    excited, tail = _excited_sum(geometry, beta, mu - ground, over_k=True)
    return -math.log(-math.expm1(beta * (mu - ground))) + excited, tail


def solve_mu(geometry: BoxGeometry, rho: float, beta: float) -> GcSolution:
    """Solve for the mu < E_1 at which the grand-canonical density
    (1/V) sum_n 1/(exp(beta (E_n - mu)) - 1) is rho, at fixed volume.

    The unknown is the ground occupation N_0 = 1/(exp(-beta mu_bar) - 1),
    in which the density is nearly linear however many decades mu_bar
    spans. N_0 = rho V holds the density at or above rho, and
    N_0 = rho V / (2 S'_1) below it (each excited occupation is at most
    S'_1 - 1 times the ground one), so the bracket needs no search.

    The first pass sums the _NEAR exact terms only, lower bounds, so its
    root lies at or above the true one, where the rest is largest. Only if
    the rest's bound there is not negligible is the solve repeated below
    that root with the rest over the level measure (_far_rest); a
    deep-subcritical solve never builds the measure, nor any Gauss rule.
    """
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    volume = geometry.volume
    rho_v = rho * volume
    if not 0.0 < rho_v < math.inf:
        raise DomainError(f"rho V = {rho_v!r} is out of range for double precision")

    def mu_bar_of(n0: float) -> float:
        return -math.log1p(1.0 / n0) / beta

    s1 = 1.0 + float(_near_excess(geometry, beta)[0])
    lo, hi = max(rho_v / (2.0 * s1), math.ulp(0.0)), rho_v
    for far in (False, True):

        def excess_density(n0: float) -> float:
            excited, _ = _excited_sum(geometry, beta, mu_bar_of(n0), far=far)
            return (n0 - rho_v + excited) / volume

        root, _ = solve_bracketed(excess_density, lo, hi, what="chemical potential")
        mu_bar = mu_bar_of(root)
        excited, tail = _excited_sum(geometry, beta, mu_bar, far=far)
        if far or tail <= _SERIES_RTOL * excited:
            break
        hi = root
    if not mu_bar < 0.0:
        raise NumericsError(
            f"mu - E_1 = -log1p(1/N_0)/beta underflows a double at N_0 = {root!r}, beta = {beta!r}"
        )
    residual = abs((_bose(-beta * mu_bar) + excited) / volume - rho)
    if residual > _SOLVE_TOL * rho:
        bracket = (mu_bar_of(lo), mu_bar_of(hi))
        raise NoConvergence(f"density residual {residual!r} exceeds "
                            f"{_SOLVE_TOL * rho!r} on bracket {bracket!r}")
    return GcSolution(
        mu=ground_energy(geometry) + mu_bar,
        residual=residual,
        mu_bar=mu_bar,
        tail_bound=tail / volume,
    )


def _polylog_32(x: float) -> float:
    """Li_{3/2}(e^x) for x <= 0."""
    if x >= -1.0:
        total = 0.0
        for c in reversed(_ROBINSON):
            total = total * x + c
        return total - 2.0 * math.sqrt(-math.pi * x)
    k = np.arange(1.0, math.ceil(40.0 / -x) + 2.0)
    return float(np.sum(np.exp(k * x) / k**1.5))


def critical_density(beta: float) -> CriticalDensity:
    """Saturation density zeta(3/2) (2 pi beta)^(-3/2), with its roundoff."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    value = _ZETA_32 * (2.0 * math.pi * beta) ** -1.5
    return CriticalDensity(value=value, roundoff=8.0 * math.ulp(value))


def limiting_mu_bar(rho: float, beta: float) -> float:
    """Infinite-volume shifted chemical potential for a subcritical density.

    Solves (2 pi beta)^(-3/2) Li_{3/2}(exp(beta mu_bar)) = rho; returns 0 at
    saturation and raises DomainError above it.
    """
    rc = critical_density(beta).value
    if rho > rc:
        raise DomainError(
            f"density {rho!r} exceeds the saturation density {rc!r}"
        )
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    if rho == rc:
        return 0.0
    front = (2.0 * math.pi * beta) ** -1.5

    def fn(mu_bar: float) -> float:
        return front * _polylog_32(beta * mu_bar) - rho

    root, _ = solve_bracketed(
        fn, -1.0 / beta, 0.0, expand="down", what="limiting chemical potential"
    )
    return float(root)


def solve_ladder_coefficient(rho: float, rho_c: float, beta: float = 1.0) -> LadderCoefficient:
    """Solve the self-consistent equation of the critical-anisotropy ladder.

    The condensate excess rho - rho_c is distributed over the ladder modes:

        rho - rho_c = sum_{j >= 1} [ beta pi^2 (j^2 - 1)/2 + 1/A ]^(-1)

    (the j = 1 term is exactly A). With c = beta pi^2 / 2 and
    z = 1 - 1/(c A) < 1 the rest is (1/c) sum_{j>=2} 1/(j^2 - z), taken in
    closed form (_ladder_sum), so no series is truncated. ``residual`` is
    |f(A)| of the equation at the root plus the rounding bound of f there:
    4 eps of the closed form and 2 eps of rho - rho_c for the sums.

    Results are cached, since the limit laws solve for the same root on
    every call.
    """
    return _ladder_coefficient(rho, rho_c, beta)


# zeta(2k + 2, 4) = sum_{j>=4} j^-(2k+2), k = 0..29, rounded to double (the
# tests check each value against mpmath)
_HURWITZ_4 = (
    0.2838229557371153, 0.0074775546987925125, 0.0003463198719662865,
    1.86904076684668e-05, 1.0775400096550504e-06, 6.425188488937789e-08,
    3.903650576060287e-09, 2.397730264529579e-10, 1.482458312665928e-11,
    9.202674668690208e-13, 5.727071724065572e-14, 3.5697073824626706e-15,
    2.227216658569063e-16, 1.3904796422568963e-17, 8.684400483856269e-19,
    5.425318486488028e-20, 3.3898532848726575e-21, 2.1182705362215143e-22,
    1.3237641280762792e-23, 8.272906386819633e-25, 5.170318841230186e-26,
    3.2313502474337896e-27, 2.0195543021573694e-28, 1.262205600307914e-29,
    7.888721654578301e-31, 4.930425697065381e-32, 3.081505926372943e-33,
    1.9259371504118605e-34, 1.2037090976194528e-35, 7.523175374682315e-37,
)


def _ladder_sum(z: float) -> float:
    """sum_{j>=2} 1/(j^2 - z) for z <= 1, within 4 eps of itself.

    On [-4, 1] the terms j = 2, 3 are summed apart and the rest is its
    power series sum_k zeta(2k + 2, 4) z^k, whose terms fall off at least
    4-fold; it has no pole at z = 1. Below, with y = sqrt(-z), the
    Mittag-Leffler form (pi y coth(pi y) - 1)/(2 y^2) - 1/(1 + y^2)
    (Abramowitz & Stegun 4.3.91), which is 0 at z = -inf. Against mpmath
    at 40 digits, over 23 000 points from z = -1e30 to 1, the relative
    error stays below 2.6 eps.
    """
    if z >= -4.0:
        acc = 0.0
        for h in reversed(_HURWITZ_4):
            acc = acc * z + h
        return 1.0 / (4.0 - z) + 1.0 / (9.0 - z) + acc
    y = math.sqrt(-z)
    return 0.5 * (math.pi / (y * math.tanh(math.pi * y)) - 1.0 / (y * y)) - 1.0 / (1.0 + y * y)


# Cached behind the public function, so that keyword and positional calls
# share one entry and solve_ladder_coefficient stays a plain function.
@functools.lru_cache(maxsize=64)
def _ladder_coefficient(rho, rho_c, beta) -> LadderCoefficient:
    excess = rho - rho_c
    if not excess > 0.0:
        raise DomainError(f"density {rho!r} does not exceed saturation {rho_c!r}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    c = 0.5 * beta * math.pi**2

    def rest(a: float) -> float:
        # 1/a/c overflows to inf, z = -inf, where the sum is 0
        return _ladder_sum(1.0 - 1.0 / a / c) / c

    def fn(a: float) -> float:
        return a + rest(a) - excess

    root, _ = solve_bracketed(
        fn, 1e-300, excess * (1.0 + 1e-12), what="ladder coefficient"
    )
    rounding = 2.0**-52 * (4.0 * rest(root) + 2.0 * excess)
    residual = abs(fn(root)) + rounding
    if residual > _SOLVE_TOL:
        raise NoConvergence(f"ladder equation residual {residual!r} exceeds {_SOLVE_TOL!r}")
    return LadderCoefficient(value=float(root), residual=residual)


def _is_ladder(mode: tuple[int, int, int]) -> bool:
    return mode[1] == 1 and mode[2] == 1


def _condensate_case(rho: float, mode, beta: float):
    """Quantum numbers of ``mode`` and rho_c; DomainError unless rho > rho_c."""
    rc = critical_density(beta).value
    if rho <= rc:
        raise DomainError(
            f"density {rho!r} is subcritical (saturation {rc!r}); no condensate"
        )
    return _as_mode_tuple(mode), rc


def gc_occupation_limit(regime: RegimeLabel, rho: float, mode, beta: float) -> float:
    """Infinite-volume scaled occupation of one mode above saturation.

    Regime I: condensate density rho - rho_c on (1,1,1), 0 elsewhere.
    Regime II: the ladder value [beta pi^2 (n^2-1)/2 + 1/A]^(-1) on (n,1,1).
    Regime III: occupations grow slower than V; at the natural scale
    V**(2(1-a_1)) every ladder mode carries 2 beta (rho - rho_c)^2.
    """
    n, rc = _condensate_case(rho, mode, beta)
    if regime.condensation == "I":
        return rho - rc if n == (1, 1, 1) else 0.0
    if regime.condensation == "II":
        if not _is_ladder(n):
            return 0.0
        a = solve_ladder_coefficient(rho, rc, beta=beta).value
        return 1.0 / (0.5 * beta * math.pi**2 * (n[0] ** 2 - 1.0) + 1.0 / a)
    if regime.condensation == "III":
        return 2.0 * beta * (rho - rc) ** 2 if _is_ladder(n) else 0.0
    raise DomainError(f"unknown condensation regime {regime.condensation!r}")


def gc_laplace_finite(geometry: BoxGeometry, mu: float, mode, lam: float, beta: float) -> float:
    """Laplace transform of one mode's occupation at finite volume.

    The occupation is geometric with ratio q = exp(-beta (E_n - mu)), so
    the transform is (1 - q) / (1 - q exp(-lam)); defined for
    lam > -beta (E_n - mu).
    """
    _check_mu(ground_energy(geometry), mu)
    x = beta * (eigenvalue(geometry, mode) - mu)
    if lam <= -x:
        raise DomainError(
            f"lam must exceed {-x!r} for a convergent transform, got {lam!r}"
        )
    return _geometric_laplace(x, lam)


def gc_laplace_limit(
    regime: RegimeLabel, rho: float, mode, lam: float, beta: float
) -> float:
    """Infinite-volume Laplace transform of a scaled mode occupation.

    Regime I at scale V: 1/(1 + lam (rho - rho_c)) on (1,1,1). Regime II at
    scale V: c_n/(c_n + lam) on the ladder with c_n the inverse limiting
    occupation. Regime III: 1/(1 + 2 lam beta (rho - rho_c)^2) on the
    ladder at scale V**(2(1-a_1)). Off the relevant modes the scaled
    occupation vanishes in the limit, so the transform is 1. Outside regime
    II's ladder it is 1/(1 + lam m), m the gc_occupation_limit.
    """
    n, rc = _condensate_case(rho, mode, beta)
    if regime.condensation == "II" and _is_ladder(n):
        a = solve_ladder_coefficient(rho, rc, beta=beta).value
        c_n = 0.5 * beta * math.pi**2 * (n[0] ** 2 - 1.0) + 1.0 / a
        if lam <= -c_n:
            raise DomainError(f"lam must exceed {-c_n!r}, got {lam!r}")
        return c_n / (c_n + lam)
    scale = gc_occupation_limit(regime, rho, n, beta)
    if lam * scale <= -1.0:  # not lam <= -1/scale: scale may underflow to 0
        raise DomainError(f"lam must exceed {-1.0 / scale!r}, got {lam!r}")
    return 1.0 / (1.0 + lam * scale)
