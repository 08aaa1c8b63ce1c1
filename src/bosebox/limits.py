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
share the largest exponent. Each g_d is one quadrature over the per-axis
theta sum that the power sums read, not a listing of lattice gaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleProximity
from .canonical import CanonicalTable, occupation_laplace, occupation_moment
from .numerics import exp_remainder, gauss_panels, refined_panels, sum_exp
from .spectrum import BoxGeometry, _log_theta_shifted, _unit_gap_shift, classify
from .grandcanonical import _excited_sum

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
    "g_with_budget",
    "axis_curvature_at_zero",
    "fluctuation_law",
    "law_weights",
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
    with log-factorials); ``bs_infinite`` its exact infinite-product limit
    (-1)^(m+n+1) m^2 / (n^2 eta_{m,n}); ``product_tail`` the exact relative
    drift between the two. Entries at m = n are NaN placeholders. For n near
    a truncation M of a few hundred (n = M >= 515) the truncated product
    leaves the double range, and those entries of ``bs`` and
    ``product_tail`` are inf.
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
    m_int = np.arange(1, m_top + 1)
    m = m_int.astype(float)
    eps = 0.5 * math.pi**2 * m * m
    # at a huge beta the top gaps overflow to inf, as the ladder's do
    with np.errstate(over="ignore"):
        etas = beta * (eps - 0.5 * math.pi**2 * n * n)
    # truncated product in closed form:
    # b eta = (-1)^(n+m+1) (m^2/n^2) (M-n)!(M+n)!/((M-m)!(M+m)!)
    log_fact = _log_factorials(m_top)
    log_f = (
        log_fact[m_top - n]
        + log_fact[m_top + n]
        - log_fact[m_top - m_int]
        - log_fact[m_top + m_int]
    )
    signs = np.where((m_int + n) % 2 == 0, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


@functools.lru_cache(maxsize=4)
def _log_factorials(m_top: int) -> np.ndarray:
    """log k! for k = 0..2 m_top (read-only), shared by every ladder mode of
    one truncation."""
    out = np.fromiter(map(math.lgamma, range(1, 2 * m_top + 2)), float, 2 * m_top + 1)
    out.setflags(write=False)
    return out


def _log_theta(x):
    """log |Theta(exp(-x))| for x > 0 (vectorized); Theta is negative throughout.

    Direct alternating series for x >= 1, factored as -e^(-x) (1 + inner)
    so the leading exponential never underflows the log. For x < 1 the
    modular dual Theta(e^-x) = (sqrt(pi)/x^(3/2)) sum_k (1/2 - a_k/x)
    e^(-a_k/x), a_k = pi^2 (k+1/2)^2, whose terms all share one sign
    there; summed in the log domain for the same reason. Each point sums
    its terms in the order of the scalar series, up to the first one past
    exp(-745).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x_arr > 0.0):
        raise DomainError(f"theta argument must be positive, got {x!r}")
    out = np.empty_like(x_arr)
    direct = x_arr >= 1.0
    xd = x_arr[direct]
    inner = np.zeros_like(xd)
    m = 2
    while len(xd) and xd.min() * (m * m - 1.0) <= 745.0:
        e = xd * (m * m - 1.0)
        inner += np.where(e > 745.0, 0.0, (-1.0) ** (m + 1) * m * m * np.exp(-e))
        m += 1
    out[direct] = -xd + np.log1p(inner)
    xs = x_arr[~direct]
    lead = math.pi**2 * 0.25 / xs
    log_lead = np.log(lead - 0.5) - lead
    rest = np.zeros_like(xs)
    live = np.ones(len(xs), dtype=bool)
    for k in range(1, 13):
        a_over = math.pi**2 * (k + 0.5) ** 2 / xs
        step = np.log(a_over - 0.5) - a_over - log_lead
        live &= step >= -745.0
        rest += np.where(live, np.exp(step), 0.0)
    out[~direct] = 0.5 * math.log(math.pi) - 1.5 * np.log(xs) + log_lead + np.log1p(rest)
    return out if np.ndim(x) else float(out[0])


def _log_one_minus_tn(n: int, s, beta: float):
    """log |1 - T_n(s)| for s > 0 (vectorized); the sign is (-1)^(n+1)."""
    c = 0.5 * beta * math.pi**2
    return c * s * n * n + _log_theta(c * s) - 2.0 * math.log(n)


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
    return sum_exp(logs, log=True)


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


_G_TAIL_RTOL = 2.0**-60  # each tail of g_d, relative to a lower bound of g_d
_G_PANEL_WIDTH = 1.0  # in s = log t; 16 Gauss nodes per panel


def _g_quadrature(d, x, convention, s_lo, s_hi, n_panels) -> tuple[float, float]:
    """int k(x t) theta_2(t)^d ds over [s_lo, s_hi], t = e^s, on Gauss panels,
    and a rounding bound: a few ulp per node plus the error of its logs."""
    s, w = gauss_panels(s_lo, s_hi, n_panels, 16)
    t = np.exp(s)
    big_t = 0.5 * math.pi**2 * t
    log_theta = _log_theta_shifted(big_t)  # log sum_{n>=1} e^{-T (n^2 - 1)}
    if convention == "printed":
        log_th = d * (log_theta - big_t)
    else:  # theta_2 = expm1(log_theta), which is e^{-3T} to the last bit past T = 200
        far = big_t > 200.0
        log_th = d * np.where(far, -3.0 * big_t, np.log(np.expm1(np.where(far, 1.0, log_theta))))
    y = x * t
    steep = y < -30.0  # e^-y may overflow there; exp(log_th - y) does not
    th = np.exp(log_th)
    f = w * np.where(steep, np.exp(np.where(steep, log_th - y, -np.inf)) - (1.0 - y) * th,
                     exp_remainder(np.where(steep, 0.0, y)) * th)
    ulps = 16.0 + 2.0 * (np.abs(log_th) + np.abs(np.where(steep, y, 0.0)))
    return float(f.sum()), 2.0**-52 * float(np.sum(np.abs(f) * ulps))


def g_with_budget(
    d: int, lam: float, beta: float, *, convention: str = "relative"
) -> tuple[float, float]:
    """Fluctuation sum g_d(lam) and its error budget.

    g_d(lam) = sum over n in {2,3,...}^d of omega(lam/(beta eta(n))), the
    infinite sum over the unit-box gaps eta (``unit_box_gap_values``), with
    omega(x) = x - log(1+x). As omega(lam/a) = int_0^inf (e^{-lam u} - 1 +
    lam u) e^{-a u} du/u, it is int_0^inf k(x t) theta_2(t)^d dt/t with
    x = lam/beta, k(y) = e^-y - 1 + y, theta_2(t) = sum_{n>=2} e^{-T u(n)},
    T = pi^2 t/2 and u(n) = n^2 - 1 ("relative") or (n - 1)^2 ("printed").
    The budget is both truncation tails (closed-form bounds), the change
    from halving the panel count and the rounding bound. Defined for
    lam > -beta * (smallest gap); g_d(0) = 0 exactly.
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    u2, u3 = (float(u) for u in _unit_gap_shift(d, convention)(np.arange(2, 4)))
    a_min = d * 0.5 * math.pi**2 * u2  # the smallest gap
    x = lam / beta
    if not x > -a_min:
        raise DomainError(
            f"lam={lam!r} leaves the transform domain (needs lam > {-beta * a_min!r})"
        )
    if x == 0.0:
        return 0.0, 0.0
    # tails are taken over x^2; g_d/x^2 >= omega(x/a_min)/x^2 >= this/_G_TAIL_RTOL
    target = _G_TAIL_RTOL * 0.5 / (a_min * (a_min + max(x, 0.0)))
    # below t_lo: k(y) <= (y^2/2) max(1, e^-y), theta_2(t) <= e^T/sqrt(2 pi t)
    # (e^T for "relative" only)
    p = 2.0 - 0.5 * d
    t_lo = (target * 2.0 * p * (2.0 * math.pi) ** (0.5 * d)) ** (1.0 / p)
    if not (t_lo > 0.0 and math.isfinite(x * x)):
        raise OverflowError(f"lam/beta={x!r} is too large for the fluctuation sum")
    lead = d * 0.5 * math.pi**2 * t_lo if convention == "relative" else 0.0
    tail_lo = (0.5 * math.exp(max(-x, 0.0) * t_lo + lead)
               * (2.0 * math.pi) ** (-0.5 * d) * t_lo**p / p)
    # above t_hi: e^{u(2) T} theta_2(t) <= 1 + e^{-(u(3) - u(2)) T}/(1 - e^-T)
    rate = a_min + min(x, 0.0)

    def tail_hi(t):
        big_t = 0.5 * math.pi**2 * t
        spread = (1.0 + math.exp(-(u3 - u2) * big_t) / -math.expm1(-big_t)) ** d
        return spread * 0.5 * math.exp(-rate * t) * (rate * t + 1.0) / rate**2

    t_hi = -math.log(target * rate**2) / rate
    while tail_hi(t_hi) > target:
        t_hi *= 1.25
    s_lo, s_hi = math.log(t_lo), math.log(t_hi)
    n = max(2, math.ceil((s_hi - s_lo) / _G_PANEL_WIDTH))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coarse, _ = _g_quadrature(d, x, convention, s_lo, s_hi, n)
        value, rounding = _g_quadrature(d, x, convention, s_lo, s_hi, 2 * n)
    budget = x * x * (tail_lo + tail_hi(t_hi)) + abs(value - coarse) + rounding
    if not math.isfinite(budget):
        raise OverflowError(f"lam/beta={x!r} is too large for the fluctuation sum")
    return value, budget


def g_function(d: int, lam: float, beta: float, *, convention: str = "relative") -> float:
    """Lattice fluctuation sum g_d(lam); see g_with_budget."""
    return g_with_budget(d, lam, beta, convention=convention)[0]


def axis_curvature_at_zero(beta: float) -> float:
    """Closed form of g_1''(0): (4/(beta^2 pi^4)) (pi^2/12 - 11/16)."""
    return 4.0 / (beta**2 * math.pi**4) * (math.pi**2 / 12.0 - 11.0 / 16.0)


_LAW_WEIGHTS = {"distinct": (1.0, 0.0, 0.0), "two_equal": (2.0, 1.0, 0.0),
                "isotropic": (3.0, 3.0, 1.0)}


def law_weights(case) -> tuple[float, float, float]:
    """Weights of g_1, g_2, g_3 in the exponent of the fluctuation law."""
    label = case.label if isinstance(case, FluctuationCase) else str(case)
    if label not in _LAW_WEIGHTS:
        raise DomainError(f"unknown fluctuation case {label!r}")
    return _LAW_WEIGHTS[label]


def fluctuation_law(
    case, lam: float, beta: float, *, convention: str = "relative", sums=None
) -> float:
    """Laplace transform of the scaled ground-occupation fluctuation.

    exp(g_1), exp(2 g_1 + g_2) or exp(3 g_1 + 3 g_2 + g_3) according to how
    many axes share the largest anisotropy exponent. ``sums`` passes
    (g_1, g_2, g_3) at this lam when they are known already.
    """
    weights = law_weights(case)
    if sums is None:
        sums = [g_function(d, lam, beta, convention=convention) if w else 0.0
                for d, w in enumerate(weights, start=1)]
    return math.exp(sum(w * g for w, g in zip(weights, sums) if w))


def rho_c_finite(geometry: BoxGeometry, beta: float) -> float:
    """Finite-volume excited-mode density at vanishing shifted potential.

    (1/V) sum over the excited modes of 1/(exp(beta eta) - 1), the
    grand-canonical power-sum series at mu_bar = 0 without its ground term.
    """
    return _excited_sum(geometry, beta, 0.0)[0] / geometry.volume


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
        if ct.geometry is None:
            raise DomainError("fluctuation rows need box tables")
        v = ct.volume
        gamma = case.gamma
        n = int(round(rho * v))
        rc_v = rho_c_finite(ct.geometry, ct.beta)
        sat_center = rho - rc_v
        mean = occupation_moment(ct, (1, 1, 1), n, 1)
        offset = mean / v if center == "mean" else sat_center
        transform = occupation_laplace(ct, (1, 1, 1), n, -lam * v ** (gamma - 1.0))
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
