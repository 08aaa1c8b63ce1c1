"""Canonical limit laws of single-mode occupations, and ground-state fluctuations.

Each infinite-volume law has one implementation. The grand-canonical ones
(gc_occupation_limit, gc_laplace_limit in grandcanonical) serve the
canonical ensemble too where the two agree: the fast-gap condensate density
and the whole slow-gap regime. Only the canonical laws that differ are
here: the sharp fast-gap ground occupation (canonical_limit_typeI) and the
critical ladder (occupation_limit_typeII, canonical_laplace_typeII).

Critical-anisotropy ladder (largest exponent exactly 1/2): the canonical
occupation of ladder mode (n,1,1) has an explicit limit, a series over the
one-dimensional gaps eta_{m,n} that is only Abel-summable, so it is
resummed here in closed form: with q = exp(-c s), c = beta pi^2 / 2,

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
from dataclasses import dataclass

import numpy as np

from .errors import CutoffInsufficient, DomainError, PoleProximity
from .canonical import occupation_laplace, occupation_moment
from .numerics import exp_remainder, gauss_panels, refined_panels, sum_exp
from .spectrum import BoxGeometry, _log_theta_shifted, classify
from .grandcanonical import _excited_sum

__all__ = [
    "occupation_limit_typeII",
    "canonical_laplace_typeII",
    "canonical_limit_typeI",
    "g_function",
    "g_with_budget",
    "axis_curvature_at_zero",
    "fluctuation_law",
    "law_weights",
    "rho_c_finite",
    "fluctuation_convergence_check",
    "FluctuationRow",
]


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


# refined_panels halves the ladder grid's end panels this many times, so its
# smallest panel is delta 2^-(_LADDER_REFINE + 1)
_LADDER_REFINE = 20


@functools.lru_cache(maxsize=8)
def _ladder_grid(beta: float, delta: float):
    """The ladder integrals' quadrature on [0, delta], shared by every ladder
    mode n and every lam: read-only nodes, log |Theta(exp(-c s))| on them
    and the log weights, and log |Theta(exp(-c delta))|, c = beta pi^2 / 2."""
    c = 0.5 * beta * math.pi**2
    nodes, weights = refined_panels(0.0, delta, n_nodes=24, n_refine=_LADDER_REFINE)
    log_theta = _log_theta(c * nodes)
    log_weights = np.log(weights)
    for a in (nodes, log_theta, log_weights):
        a.setflags(write=False)
    return nodes, log_theta, log_weights, _log_theta(c * delta)


def _log_ladder_ratio(n: int, beta: float, delta: float, lam: float = 0.0) -> float:
    """log of integral_0^delta |1 - T_n(s)| exp(-lam (delta - s)) ds over
    |1 - T_n(delta)|, with log |1 - T_n(s)| = c s n^2 + log |Theta| - 2 log n.

    The integrand grows like exp(K s), K = c (n^2 - 1), toward s = delta,
    and the grid's smallest panel is delta 2^-21. Against an mpmath
    quadrature (n = 2 and 5 at delta = 0.134) the ratio, 1/K at large K,
    is within 7e-10 relative up to K delta 2^-21 = 1.7 (the rounding of
    exponents of size K delta) and 1.2e-5 off at 169. Past 1
    CutoffInsufficient is raised.
    """
    c = 0.5 * beta * math.pi**2
    rate = c * (n * n - 1.0)
    if rate * delta * 2.0 ** -(_LADDER_REFINE + 1) > 1.0:
        raise CutoffInsufficient(
            f"ladder mode n={n} at beta={beta!r}: the integrand grows at rate "
            f"{rate!r} over [0, {delta!r}], faster than the quadrature's smallest "
            "panel resolves"
        )
    nodes, log_theta, log_weights, log_theta_delta = _ladder_grid(beta, delta)
    logs = (c * nodes * n * n + log_theta - 2.0 * math.log(n)
            - lam * (delta - nodes) + log_weights)
    log_den = c * delta * n * n + log_theta_delta - 2.0 * math.log(n)
    return sum_exp(logs, log=True) - log_den


def _check_ladder_mode(n: int, beta: float) -> None:
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if n < 1:
        raise DomainError(f"ladder mode n must be at least 1, got n={n}")


def occupation_limit_typeII(n: int, rho: float, rho_c: float, beta: float) -> float:
    """Limiting canonical occupation density of ladder mode (n,1,1).

    Equals integral_0^(rho-rho_c) (1 - T_n) ds normalized by (1 - T_n) at
    the excess itself; 0 at or below saturation. Integrand and normalizer
    share one sign, so the ratio is evaluated in the log domain.
    """
    _check_ladder_mode(n, beta)
    delta = rho - rho_c
    if delta <= 0.0:
        return 0.0
    return math.exp(_log_ladder_ratio(n, beta, delta))


def _on_ladder_gap(n: int, lam: float, beta: float) -> bool:
    """Whether lam is within 1e-9 of a gap eta_{m,n} = beta (eps_m - eps_n),
    m >= 1, m != n. As c (m^2 - n^2), c = beta pi^2 / 2, rises with m, the
    nearest gaps below and above lam are at the integers next to
    sqrt(n^2 + lam/c), one further out where that is n (m = 1 below 1)."""
    root = math.sqrt(max(n * n + lam / (0.5 * beta * math.pi**2), 1.0))
    if not math.isfinite(root):  # the gaps of such m overflow to inf
        return False
    below, above = math.floor(root), math.ceil(root)
    eps_n = 0.5 * math.pi**2 * n * n
    return any(m >= 1 and abs(beta * (0.5 * math.pi**2 * m * m - eps_n) - lam) < 1e-9
               for m in (below - (below == n), above + (above == n)))


def canonical_laplace_typeII(n: int, lam: float, rho: float, rho_c: float, beta: float) -> float:
    """Limiting canonical transform of ladder mode n's occupation density.

    1 - lam * integral_0^delta (1-T_n(s)) e^{-lam (delta-s)} ds / (1-T_n(delta))
    with delta = rho - rho_c > 0. The alternating-series representation has
    apparent poles at the one-dimensional gaps eta_{m,n} = beta (eps_m -
    eps_n), eps_m = pi^2 m^2 / 2, m >= 1, m != n; they are removable, but a
    lam within 1e-9 of one raises PoleProximity to honor the series form's
    domain.
    """
    _check_ladder_mode(n, beta)
    delta = rho - rho_c
    if delta <= 0.0:
        raise DomainError(f"density {rho!r} does not exceed saturation {rho_c!r}")
    if _on_ladder_gap(n, lam, beta):
        raise PoleProximity(
            f"lam={lam!r} sits within 1e-9 of a ladder gap; the series "
            "representation is singular there"
        )
    if lam == 0.0:
        return 1.0
    return 1.0 - lam * math.exp(_log_ladder_ratio(n, beta, delta, lam))


def canonical_limit_typeI(mode, lam: float, rho: float, rho_c: float) -> float:
    """Limiting canonical transform in the fast-gap regime.

    Above saturation the ground mode carries the whole condensate: the
    occupation-density transform is exp(-lam (rho - rho_c)) on (1,1,1) and
    1 on every other mode; at or below saturation it is 1 (the scaled
    occupation vanishes). The mean of that law, rho - rho_c on (1,1,1) and
    0 elsewhere, is the grand-canonical one of gc_occupation_limit; the
    transforms differ, since the grand-canonical ground occupation is
    exponentially distributed rather than sharp.
    """
    ground = tuple(int(v) for v in mode) == (1, 1, 1)
    return math.exp(-lam * max(rho - rho_c, 0.0)) if ground else 1.0


_G_TAIL_RTOL = 2.0**-60  # each tail of g_d, relative to a lower bound of g_d
_G_PANEL_WIDTH = 1.0  # in s = log t; 16 Gauss nodes per panel


@functools.lru_cache(maxsize=16)
def _theta_grid(k_lo, k_hi, per_unit, width):
    """Read-only Gauss panels on [k_lo width, k_hi width] in s = log t,
    per_unit panels per width, 16 nodes each: the weights, t = e^s and
    log theta_2(t), shared by every d and lam whose range snaps to it."""
    s, w = gauss_panels(k_lo * width, k_hi * width, per_unit * (k_hi - k_lo), 16)
    t = np.exp(s)
    big_t = 0.5 * math.pi**2 * t
    log_theta = _log_theta_shifted(big_t)  # log sum_{n>=1} e^{-T (n^2 - 1)}
    # theta_2 = expm1(log_theta), which is e^{-3T} to the last bit past T = 200
    far = big_t > 200.0
    log_th2 = np.where(far, -3.0 * big_t, np.log(np.expm1(np.where(far, 1.0, log_theta))))
    for arr in (w, t, log_th2):
        arr.setflags(write=False)
    return w, t, log_th2


def _g_quadrature(d, x, grid) -> tuple[float, float]:
    """int k(x t) theta_2(t)^d ds on the panels of a _theta_grid, t = e^s,
    and a rounding bound: a few ulp per node plus the error of its logs."""
    w, t, log_th2 = grid
    log_th = d * log_th2
    y = x * t
    steep = y < -30.0  # e^-y may overflow there; exp(log_th - y) does not
    th = np.exp(log_th)
    f = w * np.where(steep, np.exp(np.where(steep, log_th - y, -np.inf)) - (1.0 - y) * th,
                     exp_remainder(np.where(steep, 0.0, y)) * th)
    ulps = 16.0 + 2.0 * (np.abs(log_th) + np.abs(np.where(steep, y, 0.0)))
    return float(f.sum()), 2.0**-52 * float(np.sum(np.abs(f) * ulps))


@functools.lru_cache(maxsize=64)
def g_with_budget(d: int, lam: float, beta: float) -> tuple[float, float]:
    """Fluctuation sum g_d(lam) and its error budget.

    g_d(lam) = sum over n in {2,3,...}^d of omega(lam/(beta eta(n))), the
    infinite sum over the unit-box gaps eta(n) = (pi^2/2) sum_j u(n_j),
    u(n) = n^2 - 1, with omega(x) = x - log(1+x). As omega(lam/a) =
    int_0^inf (e^{-lam u} - 1 + lam u) e^{-a u} du/u, it is
    int_0^inf k(x t) theta_2(t)^d dt/t with x = lam/beta,
    k(y) = e^-y - 1 + y, theta_2(t) = sum_{n>=2} e^{-T u(n)} and
    T = pi^2 t/2.
    The range in s = log t snaps outward to multiples of _G_PANEL_WIDTH,
    so the Gauss panels sit on a fixed lattice and every d and lam whose
    range snaps alike reads the same cached theta grid (_theta_grid).
    The budget is both truncation tails (closed-form bounds, at the
    snapped ends), the change from halving the panel width and the
    rounding bound. Defined for lam > -beta * (smallest gap); g_d(0) = 0
    exactly.
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if d not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {d!r}")
    u2, u3 = 3.0, 8.0  # u(2), u(3)
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
    p = 2.0 - 0.5 * d
    t_lo = (target * 2.0 * p * (2.0 * math.pi) ** (0.5 * d)) ** (1.0 / p)
    if not (t_lo > 0.0 and math.isfinite(x * x)):
        raise OverflowError(f"lam/beta={x!r} is too large for the fluctuation sum")
    # above t_hi: e^{u(2) T} theta_2(t) <= 1 + e^{-(u(3) - u(2)) T}/(1 - e^-T)
    rate = a_min + min(x, 0.0)

    def tail_hi(t):
        big_t = 0.5 * math.pi**2 * t
        spread = (1.0 + math.exp(-(u3 - u2) * big_t) / -math.expm1(-big_t)) ** d
        return spread * 0.5 * math.exp(-rate * t) * (rate * t + 1.0) / rate**2

    t_hi = -math.log(target * rate**2) / rate
    while tail_hi(t_hi) > target:
        t_hi *= 1.25
    # both tails only shrink as the range widens, so its ends snap outward
    # to the panel lattice, where the grids are shared
    width = _G_PANEL_WIDTH
    k_lo = math.floor(math.log(t_lo) / width)
    k_hi = max(math.ceil(math.log(t_hi) / width), k_lo + 2)
    t_lo, t_hi = math.exp(k_lo * width), math.exp(k_hi * width)
    lead = d * 0.5 * math.pi**2 * t_lo
    tail_lo = (0.5 * math.exp(max(-x, 0.0) * t_lo + lead)
               * (2.0 * math.pi) ** (-0.5 * d) * t_lo**p / p)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coarse, _ = _g_quadrature(d, x, _theta_grid(k_lo, k_hi, 1, width))
        value, rounding = _g_quadrature(d, x, _theta_grid(k_lo, k_hi, 2, width))
    budget = x * x * (tail_lo + tail_hi(t_hi)) + abs(value - coarse) + rounding
    if not math.isfinite(budget):
        raise OverflowError(f"lam/beta={x!r} is too large for the fluctuation sum")
    return value, budget


def g_function(d: int, lam: float, beta: float) -> float:
    """Lattice fluctuation sum g_d(lam); see g_with_budget."""
    return g_with_budget(d, lam, beta)[0]


def axis_curvature_at_zero(beta: float) -> float:
    """Closed form of g_1''(0): (4/(beta^2 pi^4)) (pi^2/12 - 11/16)."""
    return 4.0 / (beta**2 * math.pi**4) * (math.pi**2 / 12.0 - 11.0 / 16.0)


_LAW_WEIGHTS = {"distinct": (1.0, 0.0, 0.0), "two_equal": (2.0, 1.0, 0.0),
                "isotropic": (3.0, 3.0, 1.0)}


def law_weights(symmetry: str) -> tuple[float, float, float]:
    """Weights of g_1, g_2, g_3 in the exponent of the fluctuation law of a
    symmetry case (RegimeLabel.symmetry)."""
    if symmetry not in _LAW_WEIGHTS:
        raise DomainError(f"unknown fluctuation case {symmetry!r}")
    return _LAW_WEIGHTS[symmetry]


def fluctuation_law(symmetry: str, lam: float, beta: float) -> float:
    """Laplace transform of the scaled ground-occupation fluctuation.

    exp(g_1), exp(2 g_1 + g_2) or exp(3 g_1 + 3 g_2 + g_3) according to how
    many axes share the largest anisotropy exponent (``symmetry``, as
    classify labels it).
    """
    weights = law_weights(symmetry)
    return math.exp(sum(w * g_function(d, lam, beta)
                        for d, w in enumerate(weights, start=1) if w))


@functools.lru_cache(maxsize=64)
def rho_c_finite(geometry: BoxGeometry, beta: float) -> float:
    """Finite-volume excited-mode density at vanishing shifted potential.

    (1/V) sum over the excited modes of 1/(exp(beta eta) - 1), the
    grand-canonical excited sum at mu_bar = 0, without its ground term.
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


def fluctuation_convergence_check(tables, rho: float, lam: float) -> list[FluctuationRow]:
    """Finite-volume fluctuation transforms against the limit law.

    For each canonical table: n = round(rho V), the centered transform
    <exp{lam V^gamma (N_1/V - <N_1>/V)}> evaluated through the occupation
    transform at argument -lam V^(gamma-1), centered on the exact canonical
    mean (pure shape convergence), against the law of the box's symmetry
    case; classify reads both from the box, gamma = 1 - 2 a_1.
    ``centered_mean`` reports V^gamma (<N_1>/V - (rho - rho_c^V)), with
    rho_c^V the finite-volume excited density at zero shifted potential;
    it must drift to 0.
    """
    rows = []
    for ct in tables:
        regime = classify(ct.geometry)
        v = ct.volume
        gamma = regime.gamma
        n = int(round(rho * v))
        sat_center = rho - rho_c_finite(ct.geometry, ct.beta)
        mean = occupation_moment(ct, (1, 1, 1), n, 1)
        transform = occupation_laplace(ct, (1, 1, 1), n, -lam * v ** (gamma - 1.0))
        value = math.exp(-lam * v**gamma * (mean / v)) * transform
        limit = fluctuation_law(regime.symmetry, lam, ct.beta)
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
