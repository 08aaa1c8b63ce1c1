"""Grand-canonical quantities at fixed chemical potential or fixed density.

Covers finite-volume mode occupations and their Laplace transforms, the
saturation density, the chemical-potential solver at fixed density, the
leading small-gap asymptotics of the shifted chemical potential in the three
condensation regimes, and the self-consistent ladder coefficient that governs
the anisotropy-critical case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NoConvergence
from .numerics import solve_bracketed
from .spectrum import (
    IDS_PREFACTOR,
    BoxGeometry,
    RegimeLabel,
    SpectrumTable,
    classify,
    exponential_tail_integral,
    _as_mode_tuple,
)

__all__ = [
    "CriticalDensity",
    "GcSolution",
    "LadderCoefficient",
    "mean_occupation",
    "gc_density",
    "gc_density_tail",
    "grand_partition_log",
    "solve_mu",
    "critical_density",
    "limiting_mu_bar",
    "solve_ladder_coefficient",
    "gc_occupation_limit",
    "gc_laplace_finite",
    "gc_laplace_limit",
]

@dataclass(frozen=True)
class CriticalDensity:
    """Saturation density at inverse temperature beta."""

    beta: float
    value: float
    quadrature_error: float


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


def _check_mu(table: SpectrumTable, mu: float) -> None:
    if not mu < table.ground_energy:
        raise DomainError(
            f"mu must lie strictly below the ground level {table.ground_energy!r}"
        )


def mean_occupation(table: SpectrumTable, mu: float, k, beta: float) -> float:
    """Expected occupation 1/(exp(beta (E_k - mu)) - 1) of one mode."""
    idx = table.index_of(k)
    _check_mu(table, mu)
    x = beta * (table.energies[idx] - mu)
    return float(1.0 / np.expm1(x))


def _exponential_mode_tail(table: SpectrumTable, beta: float, mu_bar: float) -> float:
    """Bound on the sum of 1/(exp(beta (eta - mu_bar)) - 1), and so of
    -log(1 - exp(-beta (eta - mu_bar))), over the modes above the cutoff."""
    geom = table.geometry
    eta_max = table.cutoff - table.ground_energy
    gap = beta * (eta_max - mu_bar)
    if gap <= 0.0:
        raise DomainError("table cutoff does not exceed the chemical potential")
    decay = math.exp(-gap)
    integral = exponential_tail_integral(geom, beta, eta_max, mu_bar)
    upper_at_cut = IDS_PREFACTOR * (eta_max + table.ground_energy) ** 1.5
    excess_count = max(geom.volume * upper_at_cut - len(table), 0.0)
    correction = 1.0 / (1.0 - decay)
    return correction * (geom.volume * integral + decay * excess_count)


def gc_density_tail(table: SpectrumTable, mu: float, beta: float) -> float:
    """Per-volume bound on the occupation sum omitted above the table cutoff."""
    mu_bar = mu - table.ground_energy
    return _exponential_mode_tail(table, beta, mu_bar) / table.geometry.volume


def gc_density(table: SpectrumTable, mu: float, beta: float) -> float:
    """Grand-canonical particle density (1/V) sum_k 1/(exp(beta(E_k - mu)) - 1)."""
    _check_mu(table, mu)
    x = beta * (table.energies - mu)
    return float(np.sum(1.0 / np.expm1(x)) / table.geometry.volume)


def grand_partition_log(table: SpectrumTable, mu: float, beta: float) -> tuple[float, float]:
    """log of the grand partition function and a bound on its cutoff tail."""
    _check_mu(table, mu)
    x = beta * (table.energies - mu)
    value = float(-np.sum(np.log(-np.expm1(-x))))
    return value, _exponential_mode_tail(table, beta, mu - table.ground_energy)


def solve_mu(
    table: SpectrumTable,
    rho: float,
    beta: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> GcSolution:
    """Solve gc_density(mu) = rho for mu < E_1 at fixed volume.

    The upper bracket end pins the ground term alone at rho (the density
    there already exceeds rho); the lower end is pushed down geometrically
    until the density falls below rho.
    """
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    e1 = table.ground_energy
    volume = table.geometry.volume

    def fn(mu_bar: float) -> float:
        return gc_density(table, e1 + mu_bar, beta) - rho

    hi = -math.log1p(1.0 / (rho * volume)) / beta
    # strictly below hi even when hi is already past -1/beta
    lo = hi - max(1.0, -hi * beta) / beta
    root, bracket = solve_bracketed(
        fn, lo, hi, expand="down", max_iter=max_iter, what="chemical potential"
    )
    mu = e1 + root
    residual = abs(gc_density(table, mu, beta) - rho)
    if residual > tol * rho:
        raise NoConvergence(
            f"density residual {residual!r} exceeds {tol * rho!r} on bracket {bracket!r}"
        )
    return GcSolution(
        mu=mu,
        rho=rho,
        residual=residual,
        regime=classify(table.geometry),
        mu_bar=root,
        tail_bound=gc_density_tail(table, mu, beta),
        bracket=bracket,
    )


def _density_integral(beta: float, mu_bar: float) -> tuple[float, float]:
    """Integral of the Bose weight against the limiting level density.

    Substituting eta = t^2 smooths the square-root edge: the integrand
    becomes (sqrt(2)/pi^2) t^2 / (exp(beta (t^2 - mu_bar)) - 1).
    """
    front = math.sqrt(2.0) / math.pi**2

    def integrand(t: float) -> float:
        x = beta * (t * t - mu_bar)
        if x > 700.0:
            return front * t * t * math.exp(-x)
        return front * t * t / math.expm1(x)

    value, err = quad(integrand, 0.0, math.inf, limit=200)
    return value, err


def critical_density(beta: float) -> CriticalDensity:
    """Saturation density: the density integral at vanishing chemical potential."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    value, err = _density_integral(beta, 0.0)
    return CriticalDensity(beta=beta, value=value, quadrature_error=err)


def limiting_mu_bar(rho: float, beta: float) -> float:
    """Infinite-volume shifted chemical potential for a subcritical density.

    Solves the limiting density equation; returns 0 at saturation and raises
    DomainError above it.
    """
    rc = critical_density(beta)
    if rho > rc.value:
        raise DomainError(
            f"density {rho!r} exceeds the saturation density {rc.value!r}"
        )
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")

    def fn(mu_bar: float) -> float:
        return _density_integral(beta, mu_bar)[0] - rho

    if fn(0.0) <= 0.0:
        return 0.0
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
    base = 0.5 * beta * math.pi**2 * (j * j - 1.0)
    tail_sum = (1.0 / m + 1.0 / (m + 1)) / (beta * math.pi**2)

    def fn(a: float) -> float:
        return a + float(np.sum(1.0 / (base + 1.0 / a))) + tail_sum - excess

    root, _ = solve_bracketed(
        fn, 1e-300, excess * (1.0 + 1e-12), what="ladder coefficient"
    )
    remainder = (4.0 / (3.0 * (beta * math.pi**2) ** 2)) / (root * (m - 1.0) ** 3)
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


def gc_occupation_limit(regime: RegimeLabel, rho: float, mode, beta: float) -> float:
    """Infinite-volume scaled occupation of one mode above saturation.

    Regime I: condensate density rho - rho_c on (1,1,1), 0 elsewhere.
    Regime II: the ladder value [beta pi^2 (n^2-1)/2 + 1/A]^(-1) on (n,1,1).
    Regime III: occupations grow slower than V; at the natural scale
    V**(2(1-a_1)) every ladder mode carries 2 beta (rho - rho_c)^2.
    """
    n = _as_mode_tuple(mode)
    rc = critical_density(beta).value
    if rho <= rc:
        raise DomainError(
            f"density {rho!r} is subcritical (saturation {rc!r}); no condensate"
        )
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


def gc_laplace_finite(table: SpectrumTable, mu: float, k, lam: float, beta: float) -> float:
    """Laplace transform of one mode's occupation at finite volume.

    The occupation is geometric with ratio q = exp(-beta (E_k - mu)), so
    the transform is (1 - q) / (1 - q exp(-lam)); defined for
    lam > -beta (E_k - mu).
    """
    idx = table.index_of(k)
    _check_mu(table, mu)
    x = beta * (table.energies[idx] - mu)
    if lam <= -x:
        raise DomainError(
            f"lam must exceed {-x!r} for a convergent transform, got {lam!r}"
        )
    # (1-q)/(1-q e^-lam) with q = e^-x, kept stable for tiny exponents
    num = -math.expm1(-x)
    den = -math.expm1(-(x + lam))
    return num / den


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
    n = _as_mode_tuple(mode)
    rc = critical_density(beta).value
    if rho <= rc:
        raise DomainError(
            f"density {rho!r} is subcritical (saturation {rc!r}); no condensate"
        )
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
