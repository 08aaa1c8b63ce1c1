"""Mixing weights tying the two ensembles together, and their limit laws.

At chemical potential mu the grand-canonical state is a mixture of canonical
states with weights w_n = Z(n) exp(beta mu n) / Xi(mu). The weights are
computed in the log domain from the partition table; their limiting law as
the volume grows is a point mass below saturation, an exponential density in
the fast-gap regime, an explicit alternating series in the critical regime,
and a point mass again in the slow-gap regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffInsufficient, DomainError
from .canonical import CanonicalTable
from .grandcanonical import (
    _check_mu,
    _geometric_laplace,
    critical_density,
    grand_partition_log,
    solve_ladder_coefficient,
)
from .numerics import sum_exp
from .spectrum import RegimeLabel

__all__ = [
    "KacWeights",
    "PointMass",
    "kac_weights",
    "decomposition_check",
    "limiting_kac_density",
    "limiting_kac_transform",
    "empirical_kac_convergence",
    "ConvergenceRow",
]


@dataclass(frozen=True)
class KacWeights:
    """Mixture weights over particle number at one chemical potential."""

    mu: float
    weights: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    tail_bound: float
    n_cut: int

    def __post_init__(self):
        self.weights.setflags(write=False)
        self.log_weights.setflags(write=False)


@dataclass(frozen=True)
class PointMass:
    """Descriptor of a degenerate limit law concentrated at one density."""

    location: float


def _log_partition_grand(ct: CanonicalTable, mu: float) -> tuple[float, float]:
    """log Xi and its tail bound: over the whole box, or over a level list."""
    if ct.spectrum is not None:
        return grand_partition_log(ct.spectrum.geometry, mu, ct.beta)
    x = ct.beta * (ct.gaps - (mu - ct.ground_energy))
    return float(-np.sum(np.log(-np.expm1(-x)))), 0.0


def kac_weights(
    ct: CanonicalTable, mu: float, *, tail_target: float = 1e-12
) -> KacWeights:
    """Mixture weights w_n for n = 0..n_cut with a geometric tail bound.

    n_cut is the first index past the weight peak where the step ratio has
    dropped below 1 and the geometric remainder w_n r/(1-r) is below
    ``tail_target``; CutoffInsufficient reports the best achievable bound
    when the table is too short. The reported tail_bound also carries the
    truncation error of the grand partition log.
    """
    _check_mu(ct.ground_energy, mu)
    beta_mu_bar = ct.beta * (mu - ct.ground_energy)
    log_xi, xi_tail = _log_partition_grand(ct, mu)
    n = np.arange(ct.n_max + 1, dtype=float)
    log_w = ct.log_z_shifted + n * beta_mu_bar - log_xi
    # step ratios are e^{beta mu_bar} times the (nonincreasing) Z ratios
    log_ratio = np.diff(ct.log_z_shifted) + beta_mu_bar
    peak = int(np.argmax(log_w))
    n_cut = None
    tail = math.inf
    for m in range(peak, ct.n_max):
        lr = log_ratio[m]  # ratio w_{m+1}/w_m
        if lr >= 0.0:
            continue
        r = math.exp(lr)
        tail = math.exp(log_w[m]) * r / (1.0 - r)
        if tail < tail_target:
            n_cut = m
            break
    if n_cut is None:
        raise CutoffInsufficient(
            f"weights reach tail bound {tail!r} at n_max={ct.n_max}, "
            f"target {tail_target!r}"
        )
    log_w = log_w[: n_cut + 1]
    return KacWeights(
        mu=mu,
        weights=np.exp(log_w),
        log_weights=log_w,
        tail_bound=tail + abs(math.expm1(xi_tail)),
        n_cut=n_cut,
    )


def decomposition_check(
    ct: CanonicalTable, mu: float, k, lam: float, *, tail_target: float = 1e-12
) -> tuple[float, float, float]:
    """Both sides of the mixture identity for one mode's transform.

    Returns (grand-canonical value, mixture sum, error budget). The budget
    is the weight tail bound, valid for lam >= 0 where each canonical
    transform lies in (0, 1].

    The mixture sum is sum_{n <= N} w_n E_n[exp(-lam N_k)], N = n_cut, with
    the canonical transform of occupation_laplace. Since
    w_n Z'(n-j)/Z'(n) = w_{n-j} exp(j beta mu_bar), regrouping its double
    sum over (n, j) by m = n - j leaves

        sum_{n <= N} w_n - (e^lam - 1) sum_{m < N} w_m r (1 - r^{N-m})/(1 - r),

    r = exp(-(beta (eta_k - mu_bar) + lam)) < 1: one O(N) dot product
    instead of one O(n) transform per n.
    """
    if lam < 0.0:
        raise DomainError(f"the mixture budget requires lam >= 0, got {lam!r}")
    kw = kac_weights(ct, mu, tail_target=tail_target)
    eta = ct.gap_of(k)
    x = ct.beta * (eta - (mu - ct.ground_energy))
    lhs = _geometric_laplace(x, lam)
    rate = x + lam  # r = exp(-rate)
    lengths = np.arange(kw.n_cut, 0, -1, dtype=float)  # N - m, m = 0..N-1
    geometric = math.exp(-rate) * -np.expm1(-lengths * rate) / -math.expm1(-rate)
    w = kw.weights
    rhs = float(w.sum()) - math.expm1(lam) * float(np.sum(w[:-1] * geometric))
    return lhs, rhs, kw.tail_bound


def _entire_sinc_ratio(z: float) -> float:
    """sinh(sqrt(z))/sqrt(z), continued through 0 (entire in z)."""
    if abs(z) < 1e-8:
        return 1.0 + z / 6.0 + z * z / 120.0
    if z > 0.0:
        r = math.sqrt(z)
        return math.sinh(r) / r
    r = math.sqrt(-z)
    return math.sin(r) / r


def _ladder_prefactor(a: float, beta: float, convention: str) -> float:
    if convention == "printed":
        return beta * math.pi**2 * _entire_sinc_ratio(2.0 / (beta * a) - math.pi)
    if convention == "normalized":
        return beta * math.pi**2 * _entire_sinc_ratio(2.0 / (beta * a) - math.pi**2)
    raise DomainError(f"unknown prefactor convention {convention!r}")


def limiting_kac_density(
    regime: RegimeLabel,
    rho: float,
    x: float,
    beta: float = 1.0,
    *,
    convention: str = "printed",
    series_tol: float = 1e-16,
):
    """Density of the limiting particle-number law at the point x.

    Below saturation, and in the slow-gap regime III, the law is degenerate
    and a PointMass descriptor is returned instead of a float. Regime I has
    the exponential density on (rho_c, inf); regime II the alternating
    ladder series with prefactor chosen by ``convention`` ("printed" keeps
    the sinh argument 2/(beta A) - pi; "normalized" uses 2/(beta A) - pi^2,
    which makes the total mass exactly 1).
    """
    rc = critical_density(beta).value
    if rho <= rc or regime.condensation == "III":
        return PointMass(location=rho)
    if regime.condensation == "I":
        scale = rho - rc
        if x <= rc:
            return 0.0
        return math.exp(-(x - rc) / scale) / scale
    if regime.condensation != "II":
        raise DomainError(f"unknown condensation regime {regime.condensation!r}")
    if x <= rc:
        return 0.0
    a = solve_ladder_coefficient(rho, rc, beta=beta).value
    front = _ladder_prefactor(a, beta, convention)
    s = x - rc
    total = 0.0
    n = 1
    while True:
        decay = 0.5 * beta * math.pi**2 * (n * n - 1.0) + 1.0 / a
        term = (-1.0) ** (n - 1) * n * n * math.exp(-s * decay)
        total += term
        if abs(term) < series_tol * max(abs(total), 1e-300) and n > 2:
            break
        if s * decay > 750.0:
            break
        n += 1
    return front * total


def limiting_kac_transform(
    regime: RegimeLabel,
    rho: float,
    lam: float,
    beta: float = 1.0,
    *,
    convention: str = "printed",
) -> float:
    """Laplace transform of the limiting particle-number law.

    Point-mass regimes give exp(-lam rho); regime I gives
    exp(-lam rho_c)/(1 + lam (rho - rho_c)); regime II has the closed form
    obtained by summing the ladder series through the partial-fraction
    identity (exact for both prefactor conventions).
    """
    rc = critical_density(beta).value
    if rho <= rc or regime.condensation == "III":
        return math.exp(-lam * rho)
    if regime.condensation == "I":
        scale = rho - rc
        if lam <= -1.0 / scale:
            raise DomainError(f"lam must exceed {-1.0 / scale!r}, got {lam!r}")
        return math.exp(-lam * rc) / (1.0 + lam * scale)
    if regime.condensation != "II":
        raise DomainError(f"unknown condensation regime {regime.condensation!r}")
    a = solve_ladder_coefficient(rho, rc, beta=beta).value
    if lam <= -1.0 / a:
        raise DomainError(f"lam must exceed {-1.0 / a!r}, got {lam!r}")
    front = _ladder_prefactor(a, beta, convention)
    denominator = (
        beta
        * math.pi**2
        * _entire_sinc_ratio(2.0 / (beta * a) - math.pi**2 + 2.0 * lam / beta)
    )
    return math.exp(-lam * rc) * front / denominator


@dataclass(frozen=True)
class ConvergenceRow:
    """One volume of an empirical-versus-limit transform comparison."""

    volume: float
    empirical: float
    limit: float
    gap: float
    tail_bound: float


def empirical_transform(kw: KacWeights, volume: float, lam: float) -> float:
    """sum_n w_n exp(-lam n / V) over the tabulated weights."""
    n = np.arange(kw.n_cut + 1, dtype=float)
    return sum_exp(kw.log_weights - lam * n / volume)


def empirical_kac_convergence(
    solutions,
    tables,
    rho: float,
    lam: float,
    beta: float = 1.0,
    *,
    convention: str = "printed",
) -> list[ConvergenceRow]:
    """Finite-volume transforms of the mixing weights against the limit law.

    ``solutions`` are chemical-potential solutions (one per volume) and
    ``tables`` the matching canonical tables; rows come back sorted by
    volume with the absolute transform gap and the weight tail bound.
    """
    rows = []
    for sol, ct in zip(solutions, tables):
        regime = sol.regime
        kw = kac_weights(ct, sol.mu)
        emp = empirical_transform(kw, ct.volume, lam)
        lim = limiting_kac_transform(regime, rho, lam, beta, convention=convention)
        rows.append(
            ConvergenceRow(
                volume=ct.volume,
                empirical=emp,
                limit=lim,
                gap=abs(emp - lim),
                tail_bound=kw.tail_bound,
            )
        )
    rows.sort(key=lambda r: r.volume)
    return rows
