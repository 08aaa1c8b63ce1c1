"""Grand-canonical quantities at fixed chemical potential or fixed density.

Covers finite-volume mode occupations and their Laplace transforms, the
saturation density, the chemical-potential solver at fixed density, the
leading small-gap asymptotics of the shifted chemical potential in the three
condensation regimes, and the self-consistent ladder coefficient that governs
the anisotropy-critical case.

Sums over all modes come from the shifted power sums S'_k of
spectrum.log_power_sums, which the canonical recursion reads too, so no
mode is listed. With mu_bar = mu - E_1 < 0 and the ground mode split off,

    rho V = 1/(exp(-beta mu_bar) - 1) + sum_{k>=1} (S'_k - 1) exp(k beta mu_bar),

and log Xi is the same with -log(1 - exp(beta mu_bar)) and a 1/k weight.
S'_k - 1 shrinks at least by exp(-beta eta_1) per step (eta_1 = 3 c_1, the
first gap), so the terms after K sum to at most the geometric series
(S'_K - 1) exp(K beta mu_bar) r/(1 - r), r = exp(-beta (eta_1 - mu_bar)):
a rigorous tail bound, taken below 2^-53 of the sum. The limiting densities
are closed forms in zeta(3/2) and Li_{3/2}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooLarge, DomainError, NoConvergence
from .numerics import solve_bracketed
from .spectrum import (
    DEFAULT_MODE_BUDGET,
    BoxGeometry,
    RegimeLabel,
    classify,
    eigenvalue,
    ground_energy,
    log_power_sums,
    mode_gap,
    _as_mode_tuple,
)

__all__ = [
    "CriticalDensity",
    "GcSolution",
    "LadderCoefficient",
    "mean_occupation",
    "gc_density",
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
# Power-sum series are summed until their tail bound is below this share of
# their first term, a lower bound on the whole sum.
_SERIES_RTOL = 2.0**-53
# solve_mu's first set of power sums is at most this long; partial sums are
# lower bounds, so it grows only if the root needs more.
_FIRST_SERIES = 1 << 17


@dataclass(frozen=True)
class CriticalDensity:
    """Saturation density at inverse temperature beta."""

    beta: float
    value: float
    roundoff: float


@dataclass(frozen=True)
class GcSolution:
    """Chemical potential solving the density equation at one volume."""

    mu: float
    rho: float
    residual: float
    regime: RegimeLabel
    mu_bar: float
    tail_bound: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class LadderCoefficient:
    """Root of the self-consistent ladder equation in the critical regime."""

    rho: float
    value: float
    truncation: int
    residual: float
    excess: float


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


def _series_rate(geometry: BoxGeometry, beta: float, mu_bar: float) -> float:
    """beta (eta_1 - mu_bar): each excited term shrinks by exp(-rate) per k."""
    return beta * (3.0 * min(geometry.level_coefficients) - mu_bar)


def _series_length(rate: float) -> float:
    """Terms K after which the tail bound is below _SERIES_RTOL times term 1.

    Since S'_K - 1 <= (S'_1 - 1) exp(-(K - 1) beta eta_1), that bound is at
    most term 1 times exp(-(K - 1) rate)/(exp(rate) - 1). A float, possibly
    huge or infinite: compare it with a budget before taking int().
    """
    target = -math.log(_SERIES_RTOL)
    if rate >= target:
        return 1.0
    if not rate > 0.0:
        return math.inf
    steps = (target - math.log(math.expm1(rate))) / rate
    return 1.0 + math.ceil(steps) if steps < 2.0**62 else math.inf


def _excess_power_sums(geometry, beta, length, mode_budget) -> np.ndarray:
    """S'_k - 1 for k = 1..length; CutoffTooLarge, before any allocation,
    if ``length`` exceeds ``mode_budget``, and if the sums overflow."""
    if not 1 <= length <= mode_budget:
        raise CutoffTooLarge(
            f"a power-sum series of {length!r} terms does not fit the budget {mode_budget}"
        )
    with np.errstate(over="ignore"):
        excess = np.expm1(log_power_sums(geometry, beta, int(length)))
    if not math.isfinite(excess[0]):
        raise CutoffTooLarge("power sums overflow a double at this volume and beta")
    return excess


def _excited_sum(geometry, beta, mu_bar, excess=None, *, over_k=False, rate=None):
    """sum_k (S'_k - 1) exp(k beta mu_bar), divided by k if ``over_k``.

    Sums the given S'_k - 1, by default as many as _series_length asks.
    Returns the partial sum and the geometric bound term_K r/(1 - r),
    r = exp(-rate), on the rest (with the 1/k weight the rest shrinks at
    least as fast); ``rate`` defaults to _series_rate, and a caller that
    passes other terms than S'_k - 1 passes the rate at which they shrink.
    Where one excited level dominates the bound is exact, so it is raised
    by 1e-9 of itself to cover the rounding of the terms.
    """
    if rate is None:
        rate = _series_rate(geometry, beta, mu_bar)
    if excess is None:
        length = _series_length(rate)
        excess = _excess_power_sums(geometry, beta, length, DEFAULT_MODE_BUDGET)
    k = np.arange(1, len(excess) + 1, dtype=float)
    terms = excess * np.exp(k * (beta * mu_bar))
    if over_k:
        terms /= k
    return float(np.sum(terms)), float(terms[-1]) * _bose(rate) * (1.0 + 1e-9)


def gc_density(geometry: BoxGeometry, mu: float, beta: float) -> float:
    """Grand-canonical particle density (1/V) sum_n 1/(exp(beta(E_n - mu)) - 1)."""
    ground = ground_energy(geometry)
    _check_mu(ground, mu)
    excited, _ = _excited_sum(geometry, beta, mu - ground)
    return (_bose(beta * (ground - mu)) + excited) / geometry.volume


def grand_partition_log(geometry: BoxGeometry, mu: float, beta: float) -> tuple[float, float]:
    """log of the grand partition function and a bound on its series tail."""
    ground = ground_energy(geometry)
    _check_mu(ground, mu)
    excited, tail = _excited_sum(geometry, beta, mu - ground, over_k=True)
    return -math.log(-math.expm1(beta * (mu - ground))) + excited, tail


def solve_mu(
    geometry: BoxGeometry,
    rho: float,
    beta: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
    mode_budget: int = DEFAULT_MODE_BUDGET,
) -> GcSolution:
    """Solve gc_density(mu) = rho for mu < E_1 at fixed volume.

    The unknown is the ground occupation N_0 = 1/(exp(-beta mu_bar) - 1),
    in which the density is nearly linear however many decades mu_bar
    spans. N_0 = rho V holds the density at or above rho, and
    N_0 = rho V / (2 S'_1) below it (each excited occupation is at most
    S'_1 - 1 times the ground one), so the bracket needs no search.

    The density is summed over K power sums at a time. Partial sums are
    lower bounds, so the root found lies at or above the true one, where
    the series needs the most terms: if that is more than K, K grows to it
    and the solve is repeated below that root, which then needs no more.
    CutoffTooLarge if K would exceed ``mode_budget``.
    """
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    volume = geometry.volume
    rho_v = rho * volume
    if not 0.0 < rho_v < math.inf:
        raise DomainError(f"rho V = {rho_v!r} is out of range for double precision")

    def mu_bar_of(n0: float) -> float:
        return -math.log1p(1.0 / n0) / beta

    s1 = math.exp(log_power_sums(geometry, beta, 1)[0])
    lo, hi = max(rho_v / (2.0 * s1), math.ulp(0.0)), rho_v
    length = min(
        _series_length(_series_rate(geometry, beta, mu_bar_of(hi))),
        _FIRST_SERIES,
        mode_budget,
    )
    while True:
        excess = _excess_power_sums(geometry, beta, length, mode_budget)

        def excess_density(n0: float) -> float:
            excited, _ = _excited_sum(geometry, beta, mu_bar_of(n0), excess)
            return (n0 - rho_v + excited) / volume

        root, _ = solve_bracketed(
            excess_density, lo, hi, max_iter=max_iter, what="chemical potential"
        )
        mu_bar = mu_bar_of(root)
        length = _series_length(_series_rate(geometry, beta, mu_bar))
        if length <= len(excess):
            break
        hi = root
    excited, tail = _excited_sum(geometry, beta, mu_bar, excess)
    residual = abs((_bose(-beta * mu_bar) + excited) / volume - rho)
    bracket = (mu_bar_of(lo), mu_bar_of(hi))
    if residual > tol * rho:
        raise NoConvergence(
            f"density residual {residual!r} exceeds {tol * rho!r} on bracket {bracket!r}"
        )
    return GcSolution(
        mu=ground_energy(geometry) + mu_bar,
        rho=rho,
        residual=residual,
        regime=classify(geometry),
        mu_bar=mu_bar,
        tail_bound=tail / volume,
        bracket=bracket,
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
    return CriticalDensity(beta=beta, value=value, roundoff=8.0 * math.ulp(value))


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


def solve_ladder_coefficient(
    rho: float,
    rho_c: float,
    truncation: int = 100_000,
    tol: float = 1e-12,
    beta: float = 1.0,
) -> LadderCoefficient:
    """Solve the self-consistent equation of the critical-anisotropy ladder.

    The condensate excess rho - rho_c is distributed over the ladder modes:

        rho - rho_c = sum_{j >= 1} [ beta pi^2 (j^2 - 1)/2 + 1/A ]^(-1)

    (the j = 1 term is exactly A). The series is truncated at ``truncation``
    and completed with the telescoping tail sum_{j>M} 2/(beta pi^2 (j^2-1)) =
    (1/(beta pi^2))(1/M + 1/(M+1)); only the second-order remainder, bounded
    by (1/A)(4/(beta pi^2)^2)/(3 (M-1)^3), is left unaccounted and reported.

    Results are cached, since the limit laws solve for the same root on
    every call.
    """
    return _ladder_coefficient(rho, rho_c, truncation, tol, beta)


# Cached behind the public function, so that keyword and positional calls
# share one entry and solve_ladder_coefficient stays a plain function.
@functools.lru_cache(maxsize=64)
def _ladder_coefficient(rho, rho_c, truncation, tol, beta) -> LadderCoefficient:
    excess = rho - rho_c
    if not excess > 0.0:
        raise DomainError(f"density {rho!r} does not exceed saturation {rho_c!r}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    m = int(truncation)
    if m < 2:
        raise DomainError(f"truncation must be at least 2, got {truncation!r}")
    j = np.arange(2, m + 1, dtype=float)
    scale = beta * math.pi**2
    # at a huge beta the top terms overflow to inf and add 1/inf = 0, their limit
    with np.errstate(over="ignore"):
        base = 0.5 * scale * (j * j - 1.0)
    tail_sum = (1.0 / m + 1.0 / (m + 1)) / scale

    def fn(a: float) -> float:
        return a + float(np.sum(1.0 / (base + 1.0 / a))) + tail_sum - excess

    root, _ = solve_bracketed(
        fn, 1e-300, excess * (1.0 + 1e-12), what="ladder coefficient"
    )
    remainder = (4.0 / 3.0) / scale / scale / (root * (m - 1.0) ** 3)
    residual = abs(fn(root)) + remainder
    if residual > tol:
        raise NoConvergence(
            f"ladder equation residual {residual!r} exceeds {tol!r} at M={m}"
        )
    return LadderCoefficient(
        rho=rho, value=float(root), truncation=m, residual=residual, excess=excess
    )


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
    regime: RegimeLabel,
    rho: float,
    mode,
    lam: float,
    beta: float,
    *,
    scaled: bool = True,
) -> float:
    """Infinite-volume Laplace transform of a scaled mode occupation.

    Regime I at scale V: 1/(1 + lam (rho - rho_c)) on (1,1,1). Regime II at
    scale V: c_n/(c_n + lam) on the ladder with c_n the inverse limiting
    occupation. Regime III: 1 at scale V (``scaled=False``), and
    1/(1 + 2 lam beta (rho - rho_c)^2) on the ladder at scale V**(2(1-a_1))
    (``scaled=True``). Off the relevant modes the scaled occupation vanishes
    in the limit, so the transform is 1.
    """
    n, rc = _condensate_case(rho, mode, beta)
    if regime.condensation == "I":
        if n != (1, 1, 1):
            return 1.0
        scale = rho - rc
        if lam <= -1.0 / scale:
            raise DomainError(f"lam must exceed {-1.0 / scale!r}, got {lam!r}")
        return 1.0 / (1.0 + lam * scale)
    if regime.condensation == "II":
        if not _is_ladder(n):
            return 1.0
        a = solve_ladder_coefficient(rho, rc, beta=beta).value
        c_n = 0.5 * beta * math.pi**2 * (n[0] ** 2 - 1.0) + 1.0 / a
        if lam <= -c_n:
            raise DomainError(f"lam must exceed {-c_n!r}, got {lam!r}")
        return c_n / (c_n + lam)
    if regime.condensation == "III":
        if not scaled or not _is_ladder(n):
            return 1.0
        scale = 2.0 * beta * (rho - rc) ** 2
        if lam <= -1.0 / scale:
            raise DomainError(f"lam must exceed {-1.0 / scale!r}, got {lam!r}")
        return 1.0 / (1.0 + lam * scale)
    raise DomainError(f"unknown condensation regime {regime.condensation!r}")
