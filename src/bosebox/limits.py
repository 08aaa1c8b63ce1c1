"""Limit laws of single-mode occupations and ground-state fluctuations.

Critical-anisotropy ladder (largest exponent exactly 1/2): the canonical
occupation of ladder mode (n,1,1) has an explicit limit built from the
one-dimensional gaps eta_{m,n} and interpolation coefficients b_{m,n}. The
coefficient series is only Abel-summable, so it is resummed here in closed
form: with q = exp(-c s), c = beta pi^2 / 2,

    1 - T_n(s) = (-1)^n exp(c s n^2) Theta(q) / n^2,
    Theta(q) = sum_{m>=1} (-1)^m m^2 q^(m^2)  < 0,

where T_n is the limit of the renormalized distribution tail. Theta is
evaluated by its alternating series for cs >= 1 and by its modular dual
(all terms of one sign) for cs < 1, so no cancellation is ever hit.

Fast-gap regime (largest exponent below 1/2): the scaled ground occupation
fluctuates with Laplace transform exp of combinations of the lattice sums

    g_d(lam) = sum over n in {2,3,...}^d of omega(lam / (beta eta(n))),

with omega(x) = x - log(1+x); the combination is picked by how many axes
share the largest exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import CutoffInsufficient, DomainError, PoleProximity
from .canonical import CanonicalTable, occupation_laplace, occupation_moment
from .numerics import omega, refined_panels
from .spectrum import BoxGeometry, SpectrumTable, classify, unit_box_gap_values
from .grandcanonical import _exponential_mode_tail

__all__ = [
    "GapCoefficients",
    "FluctuationCase",
    "fluctuation_case",
    "gap_coefficients",
    "mode_distribution_limit",
    "occupation_limit_typeII",
    "canonical_laplace_typeII",
    "canonical_limit_typeI",
    "canonical_laplace_typeIII",
    "g_function",
    "g_tail_bound",
    "axis_curvature_at_zero",
    "fluctuation_law",
    "rho_c_finite",
    "fluctuation_convergence_check",
    "FluctuationRow",
]


@dataclass(frozen=True)
class GapCoefficients:
    """One-dimensional ladder gaps and interpolation coefficients.

    ``etas[m-1]`` = beta (eps_m - eps_n) with eps_m = pi^2 m^2 / 2;
    ``bs[m-1]`` the coefficient with the interpolation product truncated at
    ``truncation`` (closed form through factorial telescoping, evaluated
    with log-gamma); ``bs_infinite`` its exact infinite-product limit
    (-1)^(m+n+1) m^2 / (n^2 eta_{m,n}); ``product_tail`` the exact relative
    drift between the two. Entries at m = n are NaN placeholders.
    """

    n: int
    truncation: int
    beta: float
    epsilons: np.ndarray = field(repr=False)
    etas: np.ndarray = field(repr=False)
    bs: np.ndarray = field(repr=False)
    bs_infinite: np.ndarray = field(repr=False)
    product_tail: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("epsilons", "etas", "bs", "bs_infinite", "product_tail"):
            getattr(self, name).setflags(write=False)


def gap_coefficients(n: int, truncation: int, beta: float) -> GapCoefficients:
    """Build ladder gaps and coefficients for mode n with product cutoff M."""
    n = int(n)
    m_top = int(truncation)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if n < 1 or m_top < max(2, n):
        raise DomainError(
            f"need 1 <= n <= truncation and truncation >= 2, got n={n}, M={m_top}"
        )
    m = np.arange(1, m_top + 1, dtype=float)
    eps = 0.5 * math.pi**2 * m * m
    etas = beta * (eps - 0.5 * math.pi**2 * n * n)
    # truncated product in closed form:
    # b eta = (-1)^(n+m+1) (m^2/n^2) (M-n)!(M+n)!/((M-m)!(M+m)!)
    log_f = (
        gammaln(m_top - n + 1.0)
        + gammaln(m_top + n + 1.0)
        - gammaln(m_top - m + 1.0)
        - gammaln(m_top + m + 1.0)
    )
    signs = np.where((np.arange(1, m_top + 1) + n) % 2 == 0, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_eta = signs * np.exp(log_f + 2.0 * (np.log(m) - math.log(n)))
        bs = b_eta / etas
        b_eta_inf = signs * (m / n) ** 2
        bs_inf = b_eta_inf / etas
        drift = np.abs(np.expm1(log_f))
    idx = n - 1
    bs[idx] = np.nan
    bs_inf[idx] = np.nan
    drift[idx] = np.nan
    return GapCoefficients(
        n=n,
        truncation=m_top,
        beta=beta,
        epsilons=eps,
        etas=etas,
        bs=bs,
        bs_infinite=bs_inf,
        product_tail=drift,
    )


def _log_theta(x: float) -> float:
    """log |Theta(exp(-x))| for x > 0; Theta is negative throughout.

    Direct alternating series for x >= 1, factored as -e^(-x) (1 + inner)
    so the leading exponential never underflows the log. For x < 1 the
    modular dual Theta(e^-x) = (sqrt(pi)/x^(3/2)) sum_k (1/2 - a_k/x)
    e^(-a_k/x), a_k = pi^2 (k+1/2)^2, whose terms all share one sign
    there; summed in the log domain for the same reason.
    """
    if x <= 0.0:
        raise DomainError(f"theta argument must be positive, got {x!r}")
    if x >= 1.0:
        inner = 0.0
        m = 2
        while True:
            e = x * (m * m - 1.0)
            if e > 745.0:
                break
            inner += (-1.0) ** (m + 1) * m * m * math.exp(-e)
            m += 1
        return -x + math.log1p(inner)
    lead = math.pi**2 * 0.25 / x
    log_lead = math.log(lead - 0.5) - lead
    rest = 0.0
    for k in range(1, 13):
        a_over = math.pi**2 * (k + 0.5) ** 2 / x
        step = math.log(a_over - 0.5) - a_over - log_lead
        if step < -745.0:
            break
        rest += math.exp(step)
    return 0.5 * math.log(math.pi) - 1.5 * math.log(x) + log_lead + math.log1p(rest)


def _log_one_minus_tn(n: int, s, beta: float):
    """log |1 - T_n(s)| for s > 0 (vectorized); the sign is (-1)^(n+1)."""
    c = 0.5 * beta * math.pi**2
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s_arr)
    for i, si in enumerate(s_arr):
        out[i] = c * si * n * n + _log_theta(c * si) - 2.0 * math.log(n)
    return out if np.ndim(s) else float(out[0])


def mode_distribution_limit(n: int, x: float, rho_c: float, coeffs: GapCoefficients) -> float:
    """Limiting renormalized distribution value of ladder mode n at point x.

    Vanishes for x <= rho_c; above it equals |1 - T_n(x - rho_c)|, which for
    n = 1 climbs from 0 to 1 (a distribution function) and for n >= 2 grows
    without bound (the renormalization overshoots).
    """
    if n != coeffs.n:
        raise DomainError(f"coefficients were built for n={coeffs.n}, got {n}")
    if x <= rho_c:
        return 0.0
    return math.exp(_log_one_minus_tn(n, x - rho_c, coeffs.beta))


def _log_integral_one_minus_tn(
    n: int, beta: float, delta: float, lam: float = 0.0
) -> float:
    """log of integral_0^delta |1 - T_n(s)| exp(-lam (delta - s)) ds."""
    nodes, weights = refined_panels(0.0, delta, n_nodes=24, n_refine=20)
    logs = _log_one_minus_tn(n, nodes, beta) - lam * (delta - nodes) + np.log(weights)
    peak = float(logs.max())
    return peak + math.log(float(np.exp(logs - peak).sum()))


def occupation_limit_typeII(
    n: int, rho: float, rho_c: float, coeffs: GapCoefficients
) -> float:
    """Limiting canonical occupation density of ladder mode (n,1,1).

    Equals integral_0^(rho-rho_c) (1 - T_n) ds normalized by (1 - T_n) at
    the excess itself; 0 at or below saturation. Integrand and normalizer
    share one sign, so the ratio is evaluated in the log domain.
    """
    if n != coeffs.n:
        raise DomainError(f"coefficients were built for n={coeffs.n}, got {n}")
    delta = rho - rho_c
    if delta <= 0.0:
        return 0.0
    log_num = _log_integral_one_minus_tn(n, coeffs.beta, delta)
    log_den = _log_one_minus_tn(n, delta, coeffs.beta)
    return math.exp(log_num - log_den)


def canonical_laplace_typeII(
    n: int, lam: float, rho: float, rho_c: float, coeffs: GapCoefficients
) -> float:
    """Limiting canonical transform of ladder mode n's occupation density.

    1 - lam * integral_0^delta (1-T_n(s)) e^{-lam (delta-s)} ds / (1-T_n(delta))
    with delta = rho - rho_c > 0. The alternating-series representation has
    apparent poles at the gaps eta_{m,n}; they are removable, but requests
    within 1e-9 of a tabulated gap raise PoleProximity to honor the series
    form's domain.
    """
    if n != coeffs.n:
        raise DomainError(f"coefficients were built for n={coeffs.n}, got {n}")
    delta = rho - rho_c
    if delta <= 0.0:
        raise DomainError(f"density {rho!r} does not exceed saturation {rho_c!r}")
    gaps = coeffs.etas[~np.isnan(coeffs.bs)]
    if np.any(np.abs(gaps - lam) < 1e-9):
        raise PoleProximity(
            f"lam={lam!r} sits within 1e-9 of a ladder gap; the series "
            "representation is singular there"
        )
    if lam == 0.0:
        return 1.0
    log_g = _log_integral_one_minus_tn(n, coeffs.beta, delta, lam)
    log_den = _log_one_minus_tn(n, delta, coeffs.beta)
    return 1.0 - lam * math.exp(log_g - log_den)


def canonical_limit_typeI(
    mode, lam: float, rho: float, rho_c: float, *, quantity: str = "transform"
) -> float:
    """Limiting canonical transform (or mean) in the fast-gap regime.

    Above saturation the ground mode carries the whole condensate: the
    occupation-density transform is exp(-lam (rho - rho_c)) on (1,1,1) and
    1 on every other mode; at or below saturation it is 1 (the scaled
    occupation vanishes). ``quantity="mean"`` returns the density itself.
    """
    m = tuple(int(v) for v in mode)
    ground = m == (1, 1, 1)
    excess = max(rho - rho_c, 0.0)
    if quantity == "mean":
        return excess if ground else 0.0
    if quantity != "transform":
        raise DomainError(f"quantity must be 'transform' or 'mean', got {quantity!r}")
    return math.exp(-lam * excess) if ground else 1.0


def canonical_laplace_typeIII(
    mode, lam: float, rho: float, rho_c: float, beta: float = 1.0
) -> float:
    """Limiting canonical transform in the slow-gap regime.

    At the scale V**(2(1-a_1)) every ladder mode (n,1,1) has transform
    1/(1 + 2 lam beta (rho - rho_c)^2); other modes vanish at that scale, so
    their transform is 1. Requires rho > rho_c.
    """
    m = tuple(int(v) for v in mode)
    delta = rho - rho_c
    if delta <= 0.0:
        raise DomainError(f"density {rho!r} does not exceed saturation {rho_c!r}")
    if not (m[1] == 1 and m[2] == 1):
        return 1.0
    scale = 2.0 * beta * delta * delta
    if lam <= -1.0 / scale:
        raise DomainError(f"lam must exceed {-1.0 / scale!r}, got {lam!r}")
    return 1.0 / (1.0 + lam * scale)


@dataclass(frozen=True)
class FluctuationCase:
    """Symmetry case of the fast-gap fluctuation law.

    ``label`` counts the axes sharing the largest anisotropy exponent
    ("distinct", "two_equal", "isotropic"); ``gamma`` = 1 - 2 a_1 is the
    fluctuation scale exponent, positive exactly in the fast-gap regime.
    """

    label: str
    gamma: float


def fluctuation_case(geometry: BoxGeometry) -> FluctuationCase:
    reg = classify(geometry)
    return FluctuationCase(label=reg.symmetry, gamma=reg.gamma)


_DEFAULT_GAP_CUTOFF = {1: 4.0e8, 2: 4.0e6, 3: 2.5e5}
_gap_cache: dict = {}


def _interior_gaps(d: int, cutoff: float, convention: str) -> np.ndarray:
    key = (d, float(cutoff), convention)
    if key not in _gap_cache:
        _gap_cache[key] = unit_box_gap_values(
            d, cutoff, min_index=2, convention=convention
        )
    return _gap_cache[key]


def g_function(
    d: int,
    lam: float,
    beta: float,
    *,
    gap_cutoff: float | None = None,
    convention: str = "relative",
) -> float:
    """Lattice fluctuation sum g_d(lam) = sum omega(lam/(beta eta)).

    The sum runs over n in {2,3,...}^d with eta(n) the unit-box gap;
    omega(x) = x - log(1+x). Defined for lam > -beta * (smallest gap);
    g_d(0) = 0 exactly. Truncated at ``gap_cutoff`` (see g_tail_bound for
    the quadratic remainder estimate).
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    cutoff = _DEFAULT_GAP_CUTOFF[d] if gap_cutoff is None else float(gap_cutoff)
    gaps = _interior_gaps(d, cutoff, convention)
    if len(gaps) == 0:
        raise DomainError(f"no lattice gaps below cutoff {cutoff!r}")
    x_min = lam / (beta * gaps[0])
    if x_min <= -1.0:
        raise DomainError(
            f"lam={lam!r} leaves the transform domain (needs lam > {-beta * gaps[0]!r})"
        )
    if lam == 0.0:
        return 0.0
    return float(np.sum(omega(lam / (beta * gaps))))


def g_tail_bound(
    d: int, lam: float, beta: float, *, gap_cutoff: float | None = None
) -> float:
    """Bound on the part of g_d omitted above the gap cutoff.

    omega(x) <= x^2/(2(1+min(x,0))) and the counting envelopes give
    sum_{eta > H} eta^(-2) <= 3 C'/sqrt(H) (d=3, C' = sqrt(2)/(3 pi^2)),
    1/(2 pi H) (d=2), and (sqrt(2)/(3 pi)) H^(-3/2) (d=1).
    """
    cutoff = _DEFAULT_GAP_CUTOFF[d] if gap_cutoff is None else float(gap_cutoff)
    x_at_cut = lam / (beta * cutoff)
    curvature = 0.5 / (1.0 + min(x_at_cut, 0.0))
    if d == 3:
        weight = 3.0 * (math.sqrt(2.0) / (3.0 * math.pi**2)) / math.sqrt(cutoff)
    elif d == 2:
        weight = 1.0 / (2.0 * math.pi * cutoff)
    else:
        weight = (math.sqrt(2.0) / (3.0 * math.pi)) * cutoff**-1.5
    return curvature * (lam / beta) ** 2 * weight


def axis_curvature_at_zero(beta: float) -> float:
    """Closed form of g_1''(0): (4/(beta^2 pi^4)) (pi^2/12 - 11/16)."""
    return 4.0 / (beta**2 * math.pi**4) * (math.pi**2 / 12.0 - 11.0 / 16.0)


def fluctuation_law(case, lam: float, beta: float, *, convention: str = "relative") -> float:
    """Laplace transform of the scaled ground-occupation fluctuation.

    exp(g_1), exp(2 g_1 + g_2) or exp(3 g_1 + 3 g_2 + g_3) according to how
    many axes share the largest anisotropy exponent.
    """
    label = case.label if isinstance(case, FluctuationCase) else str(case)
    g = lambda d: g_function(d, lam, beta, convention=convention)
    if label == "distinct":
        return math.exp(g(1))
    if label == "two_equal":
        return math.exp(2.0 * g(1) + g(2))
    if label == "isotropic":
        return math.exp(3.0 * g(1) + 3.0 * g(2) + g(3))
    raise DomainError(f"unknown fluctuation case {label!r}")


def rho_c_finite(table: SpectrumTable, beta: float, *, tail_tol: float = 1e-10) -> float:
    """Finite-volume excited-mode density at vanishing shifted potential.

    (1/V) sum_{k >= 2} 1/(exp(beta eta_k) - 1) over the table, with the
    above-cutoff remainder bounded through the counting envelope;
    CutoffInsufficient if that bound exceeds tail_tol.
    """
    gaps = table.gaps[1:]
    if len(gaps) == 0:
        raise CutoffInsufficient("table holds no excited modes")
    value = float(np.sum(1.0 / np.expm1(beta * gaps))) / table.geometry.volume
    eta_max = table.cutoff - table.ground_energy
    correction = 1.0 / -math.expm1(-beta * eta_max)
    tail = correction * _exponential_mode_tail(table, beta, 0.0) / table.geometry.volume
    if tail > tail_tol:
        raise CutoffInsufficient(
            f"excited-density tail bound {tail!r} exceeds {tail_tol!r}"
        )
    return value


@dataclass(frozen=True)
class FluctuationRow:
    """One volume of a fluctuation-transform convergence comparison."""

    volume: float
    value: float
    limit: float
    gap: float
    centered_mean: float


def fluctuation_convergence_check(
    tables,
    rho: float,
    lam: float,
    case: FluctuationCase,
    *,
    convention: str = "relative",
    center: str = "mean",
) -> list[FluctuationRow]:
    """Finite-volume fluctuation transforms against the limit law.

    For each canonical table: n = round(rho V), the centered transform
    <exp{lam V^gamma (N_1/V - c_V)}> evaluated through the occupation
    transform at argument -lam V^(gamma-1). The centering c_V is the exact
    canonical mean <N_1>/V (``center="mean"``, pure shape convergence) or
    rho - rho_c^V with the finite-volume excited density at zero shifted
    potential (``center="saturation"``). ``centered_mean`` reports
    V^gamma (<N_1>/V - (rho - rho_c^V)), which must drift to 0 either way.
    """
    if center not in ("mean", "saturation"):
        raise DomainError(f"center must be 'mean' or 'saturation', got {center!r}")
    rows = []
    for ct in tables:
        if ct.spectrum is None:
            raise DomainError("fluctuation rows need box spectrum tables")
        v = ct.volume
        gamma = case.gamma
        n = int(round(rho * v))
        rc_v = rho_c_finite(ct.spectrum, ct.beta)
        sat_center = rho - rc_v
        mean = occupation_moment(ct, 0, n, 1)
        offset = mean / v if center == "mean" else sat_center
        transform = occupation_laplace(ct, 0, n, -lam * v ** (gamma - 1.0))
        value = math.exp(-lam * v**gamma * offset) * transform
        limit = fluctuation_law(case, lam, ct.beta, convention=convention)
        centered = v**gamma * (mean / v - sat_center)
        rows.append(
            FluctuationRow(
                volume=v,
                value=value,
                limit=limit,
                gap=abs(value - limit),
                centered_mean=centered,
            )
        )
    rows.sort(key=lambda r: r.volume)
    return rows
