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
    _geometric_laplace,
    critical_density,
    grand_partition_log,
    solve_ladder_coefficient,
)
from .spectrum import RegimeLabel

__all__ = [
    "KacWeights",
    "kac_weights",
    "decomposition_check",
    "limiting_kac_transform",
]

# kac_weights stops where the geometric bound on the weights left out is
# below this
_TAIL_TARGET = 1e-12


@dataclass(frozen=True)
class KacWeights:
    """Mixture weights over particle number at one chemical potential."""

    weights: np.ndarray = field(repr=False)
    tail_bound: float
    n_cut: int

    def __post_init__(self):
        self.weights.setflags(write=False)


def kac_weights(ct: CanonicalTable, mu: float) -> KacWeights:
    """Mixture weights w_n for n = 0..n_cut with a geometric tail bound.

    n_cut is the first index past the weight peak where the step ratio r
    has dropped below 1 and the geometric remainder w_n r/(1-r) is below
    _TAIL_TARGET, found in one numpy pass over the table. Only the tail
    that is reported is evaluated again with math.exp: at n_cut, or, when
    the table is too short (CutoffInsufficient), at the last index past the
    peak where r < 1. The reported tail_bound also carries the truncation
    error of the grand partition log, which also refuses a mu at or above
    the ground energy.
    """
    log_xi, xi_tail = grand_partition_log(ct.geometry, mu, ct.beta)
    beta_mu_bar = ct.beta * (mu - ct.ground_energy)
    n = np.arange(ct.n_max + 1, dtype=float)
    log_w = ct.log_z_shifted + n * beta_mu_bar - log_xi
    # step ratios are e^{beta mu_bar} times the (nonincreasing) Z ratios
    log_ratio = np.diff(ct.log_z_shifted) + beta_mu_bar
    peak = int(np.argmax(log_w))
    tail_ratios = log_ratio[peak:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(tail_ratios)
        screened = np.exp(log_w[peak:-1]) * r / (1.0 - r)
    below = (tail_ratios < 0.0) & (screened < _TAIL_TARGET)
    if below.any():
        n_cut = peak + int(np.argmax(below))
        return KacWeights(
            weights=np.exp(log_w[: n_cut + 1]),
            tail_bound=_geometric_tail(log_w, log_ratio, n_cut) + abs(math.expm1(xi_tail)),
            n_cut=n_cut,
        )
    falling = np.flatnonzero(tail_ratios < 0.0)
    tail = _geometric_tail(log_w, log_ratio, peak + int(falling[-1])) if len(falling) else math.inf
    raise CutoffInsufficient(
        f"weights reach tail bound {tail!r} at n_max={ct.n_max}, "
        f"target {_TAIL_TARGET!r}"
    )


def _geometric_tail(log_w: np.ndarray, log_ratio: np.ndarray, m: int) -> float:
    """w_m r/(1-r), r = exp(log_ratio[m]) < 1: the geometric bound on the
    weights past m."""
    r = math.exp(log_ratio[m])
    return math.exp(log_w[m]) * r / (1.0 - r)


def decomposition_check(
    ct: CanonicalTable, mu: float, kw: KacWeights, k, lam: float
) -> tuple[float, float, float]:
    """Both sides of the mixture identity for one mode's transform.

    Returns (grand-canonical value, mixture sum, error budget). ``kw`` holds
    the weights of ``kac_weights(ct, mu)``; they depend on neither the mode
    nor lam, so a caller checking several computes them once and passes
    them to every check. The budget is their tail bound, valid for lam >= 0
    where each canonical transform lies in (0, 1].

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


def _ladder_argument(a: float, beta: float, convention: str) -> float:
    """The argument z of the regime-II prefactor's sinh(sqrt z)/sqrt z."""
    if convention == "printed":
        return 2.0 / (beta * a) - math.pi
    if convention == "normalized":
        return 2.0 / (beta * a) - math.pi**2
    raise DomainError(f"unknown prefactor convention {convention!r}")


def _ladder_prefactor(a: float, beta: float, convention: str) -> float:
    return beta * math.pi**2 * _entire_sinc_ratio(_ladder_argument(a, beta, convention))


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
    z_front = _ladder_argument(a, beta, convention)
    z = 2.0 / (beta * a) - math.pi**2 + 2.0 * lam / beta
    if min(z_front, z) > 700.0**2:
        # Near saturation 1/A is large, and sinh(sqrt z) may leave the
        # double range though the quotient does not. Past sqrt z = 700,
        # sinh(r)/r is e^r/(2r) to the last bit.
        r_front, r = math.sqrt(z_front), math.sqrt(z)
        return math.exp(-lam * rc + (r_front - r) - math.log(r_front / r))
    front = _ladder_prefactor(a, beta, convention)
    denominator = beta * math.pi**2 * _entire_sinc_ratio(z)
    return math.exp(-lam * rc) * front / denominator
