"""Tests for the limiting occupation laws and fluctuation transforms.

Oracles used here:
  * the ladder gap table eta_{m,n}, m = 1..M, built as the ladder transform
    once took it, which marks the poles the transform must refuse (its
    closed-form pole test reads no table);
  * a high-precision (mpmath) partial sum of the alternating theta series,
    with working precision scaled to survive the small-argument cancellation;
  * the reciprocal-gap product representation of the occupation transform
    integral, against direct quadrature of the integrand;
  * the limiting distribution |1 - T_n| of a ladder mode
    (mode_distribution_limit), whose survival-function quadrature gives the
    limiting occupation transform and mean;
  * the ladder quadrature as it ran once per mode and lam, before the modes
    shared one grid (bit for bit), and its 1/K asymptote at large beta;
  * a brute-force triple-lattice sum for the isotropic fluctuation exponent;
  * the fluctuation sums g_d truncated at a gap cutoff (listed lattice gaps)
    with the counting-envelope bound on what the cutoff drops, and a math.fsum
    of the axis sum;
  * closed forms for the curvature of the axis fluctuation sum.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from bosebox import limits
from bosebox.canonical import build_canonical
from bosebox.errors import CutoffInsufficient, DomainError, PoleProximity
from bosebox.grandcanonical import critical_density, gc_laplace_limit, gc_occupation_limit
from bosebox.limits import (
    _log_theta,
    axis_curvature_at_zero,
    canonical_laplace_typeII,
    canonical_limit_typeI,
    fluctuation_convergence_check,
    fluctuation_law,
    g_function,
    g_with_budget,
    occupation_limit_typeII,
    rho_c_finite,
)
from bosebox.numerics import gauss_panels, sum_exp
from bosebox.spectrum import BoxGeometry, classify, enumerate_below
from conftest import gaps, reference_refined_panels, tail_cutoff, unit_box_gap_values

RC = 0.1658692093130223


# ---------------------------------------------------------------------------
# ladder gaps: the poles of the ladder transform

# the gap table's length: past every gap the tests put lam on
TABLE_M = 200_000


def gap_table(n, truncation, beta):
    """eta_{m,n} = beta (eps_m - eps_n), eps_m = pi^2 m^2 / 2, for
    m = 1..truncation; the entry at m = n is the zero gap of the mode itself,
    which is no pole. At a huge beta the top gaps overflow to inf."""
    m = np.arange(1, truncation + 1, dtype=float)
    eps = 0.5 * math.pi**2 * m * m
    with np.errstate(over="ignore"):
        return beta * (eps - 0.5 * math.pi**2 * n * n)


def ladder_rate(n, beta):
    """K = beta pi^2 (n^2 - 1) / 2, the rate at which mode n's ladder
    integrand grows toward the excess density."""
    return 0.5 * beta * math.pi**2 * (n * n - 1.0)


def on_tabulated_pole(n, lam, truncation, beta):
    gaps = np.delete(gap_table(n, truncation, beta), n - 1)
    return bool(np.any(np.abs(gaps - lam) < 1e-9))


@pytest.mark.parametrize("beta", [1.0, 1.3, 1e300])
@pytest.mark.parametrize("n, m_top", [(1, 2), (1, 8), (2, 2), (2, 8), (5, 5), (5, 8)])
def test_pole_check_matches_the_gap_table(n, m_top, beta):
    """canonical_laplace_typeII refuses lam exactly where the gap table
    holds a gap within 1e-9, at m = 1, n - 1, n + 1, m_top and m_top + 1,
    and at lam nudged off each gap."""
    table = gap_table(n, TABLE_M, beta)
    # past beta ~ 1e5 the quadrature cannot resolve an excited mode's integral
    unresolved = ladder_rate(n, beta) * RC * 2.0**-21 > 1.0
    checked = 0
    for m in sorted({1, n - 1, n + 1, m_top, m_top + 1} - {0}):
        for nudge in (0.0, 5e-10, -2e-9):
            lam = float(table[m - 1]) + nudge
            expect_pole = on_tabulated_pole(n, lam, TABLE_M, beta)
            if expect_pole:
                checked += 1
                with pytest.raises(PoleProximity):
                    canonical_laplace_typeII(n, lam, 2.0 * RC, RC, beta)
            elif unresolved and lam != 0.0:  # lam = 0 needs no quadrature
                with pytest.raises(CutoffInsufficient):
                    canonical_laplace_typeII(n, lam, 2.0 * RC, RC, beta)
            else:
                assert math.isfinite(canonical_laplace_typeII(n, lam, 2.0 * RC, RC, beta))
    assert checked >= 2  # on a tabulated gap m != n, and 5e-10 off it


def test_closed_form_pole_test_matches_the_gap_table_on_a_random_grid():
    """The pole test looks only at the integers next to sqrt(n^2 + lam/c);
    on random modes n <= 600, beta from 1e-3 to 1e3 and lam on a gap with
    m up to TABLE_M - 1, or 5e-10 or 2e-9 off it, it refuses lam exactly
    where the gap table of TABLE_M entries holds a gap within 1e-9. The
    table rises with m by more than 2e-9 a step here, so only the entries
    next to lam can lie that close."""
    rng = np.random.default_rng(25)
    poles = 0
    for _ in range(400):
        n = int(rng.integers(1, 601))
        beta = float(10.0 ** rng.uniform(-3.0, 3.0))
        gaps = np.delete(gap_table(n, TABLE_M, beta), n - 1)
        assert np.diff(gaps).min() > 2e-9
        # indices into the table without m = n: n - 1 and n are the gaps
        # next to the mode's own, below and above
        ms = {1, n - 1, n, n + 1, *rng.integers(1, TABLE_M - 1, 6).tolist(),
              *np.geomspace(1, TABLE_M - 1, 8).astype(int).tolist()} - {0}
        lams = (gaps[np.array(sorted(ms)) - 1][:, None]
                + np.array([0.0, 5e-10, -5e-10, 2e-9, -2e-9])).ravel()
        at = np.searchsorted(gaps, lams)
        nearest = np.minimum(np.abs(gaps[np.maximum(at - 1, 0)] - lams),
                             np.abs(gaps[np.minimum(at, len(gaps) - 1)] - lams))
        for lam, expect in zip(lams.tolist(), (nearest < 1e-9).tolist()):
            poles += expect
            assert limits._on_ladder_gap(n, lam, beta) == expect, (n, beta, lam)
    assert poles > 10_000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 5])
def test_pole_test_at_a_huge_beta_warns_of_nothing(n):
    """At beta = 1e306 every gap but the lowest few overflows to inf; the
    pole test forms them as Python floats, which do not warn, and agrees
    with the table."""
    beta = 1e306
    gaps = np.delete(gap_table(n, 16, beta), n - 1)
    for lam in [*gaps[np.isfinite(gaps)].tolist(), 0.5, -0.5, 1e308, -1e308]:
        with np.errstate(over="ignore"):  # the oracle's own overflow
            expect = bool(np.any(np.abs(gaps - lam) < 1e-9))
        assert limits._on_ladder_gap(n, lam, beta) == expect, lam
    assert math.isfinite(canonical_laplace_typeII(1, 0.5, 2.0 * RC, RC, beta))


def test_ladder_limits_reject_bad_arguments():
    with pytest.raises(DomainError):
        canonical_laplace_typeII(0, 0.5, 2.0 * RC, RC, 1.0)
    with pytest.raises(DomainError):
        canonical_laplace_typeII(1, 0.5, 2.0 * RC, RC, 0.0)
    with pytest.raises(DomainError):
        occupation_limit_typeII(0, 2.0 * RC, RC, 1.0)
    with pytest.raises(DomainError):
        occupation_limit_typeII(1, 2.0 * RC, RC, 0.0)


# ---------------------------------------------------------------------------
# alternating theta series


def log_theta_high_precision(x):
    """log |sum_{m>=1} (-1)^m m^2 e^{-x m^2}| with enough digits to survive
    the cancellation of O(1) terms against an exp(-pi^2/(4x)) result."""
    dps = int(math.pi**2 / (4.0 * x) / math.log(10.0)) + 40
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        m = 1
        while True:
            total += (-1) ** m * m * m * mp.e ** (-xm * m * m)
            if m > 3 and x * m * m > (dps + 10) * math.log(10.0):
                break
            m += 1
        assert total < 0
        return float(mp.log(-total))


@pytest.mark.parametrize(
    "x", [0.005, 0.02, 0.05, 0.15, 0.4, 0.9, 0.999, 1.0, 1.001, 1.3, 3.0, 8.0]
)
def test_theta_log_matches_high_precision_series(x):
    assert _log_theta(x) == pytest.approx(log_theta_high_precision(x), rel=1e-13)


def scalar_log_theta(x):
    """The per-point loop _log_theta ran before it was vectorized over the
    quadrature nodes, kept as the oracle: the same series, split at x = 1."""
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


def test_vectorized_theta_log_matches_scalar_loop():
    x = np.concatenate((
        np.logspace(-4.0, 3.0, 2001),
        [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 744.9, 745.0, 745.1],
    ))
    got = _log_theta(x)
    want = np.array([scalar_log_theta(float(v)) for v in x])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert all(_log_theta(float(v)) == g for v, g in zip(x[::50], got[::50]))
    for bad in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(DomainError):
            _log_theta(bad)


# ---------------------------------------------------------------------------
# limiting mode distribution


def _log_one_minus_tn(n: int, s, beta: float):
    """log |1 - T_n(s)| for s > 0 (vectorized), as the library once computed
    it at every node: the oracle of the ladder grid's cached factors."""
    c = 0.5 * beta * math.pi**2
    return c * s * n * n + _log_theta(c * s) - 2.0 * math.log(n)


def mode_distribution_limit(n: int, x: float, rho_c: float, beta: float) -> float:
    """Limiting renormalized distribution value of ladder mode n at point x.

    Vanishes for x <= rho_c; above it equals |1 - T_n(x - rho_c)|, which for
    n = 1 climbs from 0 to 1 (a distribution function) and for n >= 2 grows
    without bound (the renormalization overshoots).
    """
    if x <= rho_c:
        return 0.0
    return math.exp(_log_one_minus_tn(n, x - rho_c, beta))


def test_mode_distribution_vanishes_at_and_below_saturation():
    assert mode_distribution_limit(1, RC, RC, 1.0) == 0.0
    assert mode_distribution_limit(1, 0.5 * RC, RC, 1.0) == 0.0


def test_ground_ladder_distribution_climbs_to_one():
    grid = [RC + s for s in np.linspace(0.02, 5.0, 120)]
    vals = [mode_distribution_limit(1, x, RC, 1.0) for x in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] < 1.0
    assert abs(vals[-1] - 1.0) < 1e-12


def test_excited_ladder_renormalization_overshoots():
    assert mode_distribution_limit(2, RC + 2.0, RC, 1.0) > 1.0


# ---------------------------------------------------------------------------
# occupation transform: reciprocal-gap product oracle

PRODUCT_TRUNCATION = 400_000


def reciprocal_gap_product(n, lam, beta):
    """prod_{m != n, m <= M} |1 + lam / (beta (eps_m - eps_n))|^{-1}."""
    m = np.arange(1, PRODUCT_TRUNCATION + 1, dtype=float)
    m = m[m != n]
    etas = beta * 0.5 * math.pi**2 * (m * m - n * n)
    return math.exp(-float(np.sum(np.log(np.abs(1.0 + lam / etas)))))


def weighted_integral_quadrature(n, lam, beta, s_max):
    """lam * integral_0^s_max e^{-lam s} |1 - T_n(s)| ds by direct panels."""
    nodes, weights = gauss_panels(0.0, s_max, 80, 20)
    vals = np.exp(_log_one_minus_tn(n, nodes, beta) - lam * nodes)
    return lam * float(np.dot(weights, vals))


@pytest.mark.parametrize(
    "n, lam, beta, s_max",
    [(1, 1.0, 1.0, 45.0), (1, 5.0, 1.0, 10.0), (2, 20.0, 1.0, 12.0), (1, 2.0, 2.0, 24.0)],
)
def test_transform_integral_equals_reciprocal_gap_product(n, lam, beta, s_max):
    # the product truncation dominates the error budget
    tol = 3.0 * (2.0 * lam / (beta * math.pi**2)) / (PRODUCT_TRUNCATION - n)
    quad = weighted_integral_quadrature(n, lam, beta, s_max)
    prod = reciprocal_gap_product(n, lam, beta)
    assert quad == pytest.approx(prod, rel=tol)


# ---------------------------------------------------------------------------
# limiting canonical occupation and its transform


def survival_quadrature(n, lam, beta, rho):
    """Transform and mean of the ladder occupation from its survival function."""
    delta = rho - RC
    den = mode_distribution_limit(n, rho, RC, beta)
    nodes, weights = gauss_panels(0.0, delta, 40, 20)
    surv = (
        np.array(
            [mode_distribution_limit(n, RC + (delta - x), RC, beta) for x in nodes]
        )
        / den
    )
    transform = 1.0 - lam * float(np.dot(weights, np.exp(-lam * nodes) * surv))
    mean = float(np.dot(weights, surv))
    return transform, mean


@pytest.mark.parametrize(
    "n, lam, beta", [(1, 0.7, 1.0), (1, 3.0, 1.0), (2, 1.0, 1.0), (1, 0.9, 2.0)]
)
def test_occupation_transform_consistent_with_survival_function(n, lam, beta):
    rho = 2.0 * RC
    t_quad, m_quad = survival_quadrature(n, lam, beta, rho)
    assert canonical_laplace_typeII(n, lam, rho, RC, beta) == pytest.approx(
        t_quad, rel=1e-12
    )
    assert occupation_limit_typeII(n, rho, RC, beta) == pytest.approx(
        m_quad, rel=1e-12
    )


def test_ground_occupation_limit_frozen_value():
    # independently reproduced through the survival quadrature above and the
    # finite-volume canonical sweeps in the acceptance tests
    assert occupation_limit_typeII(1, 2.0 * RC, RC, 1.0) == pytest.approx(
        0.05488202601107707, rel=1e-10
    )


def test_occupation_transform_derivative_recovers_mean():
    rho = 2.0 * RC
    h = 1e-4
    slope = (
        canonical_laplace_typeII(1, -h, rho, RC, 1.0)
        - canonical_laplace_typeII(1, h, rho, RC, 1.0)
    ) / (2.0 * h)
    assert slope == pytest.approx(occupation_limit_typeII(1, rho, RC, 1.0), rel=1e-9)


def test_occupation_transform_edges():
    assert canonical_laplace_typeII(1, 0.0, 2 * RC, RC, 1.0) == 1.0
    assert canonical_laplace_typeII(2, 0.0, 2 * RC, RC, 1.5) == 1.0
    assert occupation_limit_typeII(1, RC, RC, 1.0) == 0.0
    assert occupation_limit_typeII(1, 0.5 * RC, RC, 1.0) == 0.0
    with pytest.raises(DomainError):
        canonical_laplace_typeII(1, 0.5, RC, RC, 1.0)
    with pytest.raises(PoleProximity):  # eta_{2,1}
        canonical_laplace_typeII(1, 1.5 * math.pi**2, 2 * RC, RC, 1.0)


def reference_log_ladder_ratio(n, beta, delta, lam=0.0):
    """log of integral_0^delta |1 - T_n(s)| e^{-lam (delta - s)} ds over
    |1 - T_n(delta)|, as the ladder laws computed it for every mode and lam
    before they shared one grid: fresh panels, log Theta at every node and
    at the excess, in the same order of operations."""
    nodes, weights = reference_refined_panels(0.0, delta, n_nodes=24, n_refine=20)
    logs = _log_one_minus_tn(n, nodes, beta) - lam * (delta - nodes) + np.log(weights)
    return sum_exp(logs, log=True) - _log_one_minus_tn(n, delta, beta)


@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_ladder_laws_match_per_mode_quadrature(beta):
    rho = 0.3317384186260446
    rc = critical_density(beta).value
    lams = (-0.9, 0.05, 0.3, 1.0, 2.7, 7.5, 13.0, 20.0)
    for n in range(1, 41):
        want = reference_log_ladder_ratio(n, beta, rho - rc)
        assert occupation_limit_typeII(n, rho, rc, beta) == math.exp(want)
        for lam in lams:
            want = reference_log_ladder_ratio(n, beta, rho - rc, lam)
            got = canonical_laplace_typeII(n, lam, rho, rc, beta)
            assert got == 1.0 - lam * math.exp(want)


def test_ladder_grid_is_shared_and_read_only():
    grid = limits._ladder_grid(1.0, RC)
    assert limits._ladder_grid(1.0, RC) is grid
    for array in grid[:3]:
        assert array.shape == grid[0].shape
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert grid[3] == _log_theta(0.5 * math.pi**2 * RC)


@pytest.mark.parametrize("n", [2, 5, 40])
def test_ladder_quadrature_refuses_rates_it_cannot_resolve(n):
    """Mode n's integrand rises like exp(K s) toward s = delta. While
    K delta 2^-21 <= 1 the occupation is the asymptote 1/K (exact here to
    far below an ulp) to the rounding of exponents of size K delta; past 1
    the smallest panel, delta 2^-21, no longer resolves the rise, and both
    ladder laws raise instead of returning a wrong value."""
    delta = RC  # rho = 2 RC
    for product in (0.999, 1.001):
        beta = product * 2.0**21 / (delta * ladder_rate(n, 1.0))
        rate = ladder_rate(n, beta)
        if product < 1.0:
            got = occupation_limit_typeII(n, 2.0 * RC, RC, beta)
            assert got == pytest.approx(1.0 / rate, rel=4.0 * 2.0**-52 * rate * delta)
            continue
        with pytest.raises(CutoffInsufficient):
            occupation_limit_typeII(n, 2.0 * RC, RC, beta)
        with pytest.raises(CutoffInsufficient):
            canonical_laplace_typeII(n, 0.5, 2.0 * RC, RC, beta)


def test_fast_gap_limit_closed_forms():
    rho = 2.0 * RC
    excess = rho - RC
    assert canonical_limit_typeI((1, 1, 1), 0.8, rho, RC) == pytest.approx(
        math.exp(-0.8 * excess), rel=1e-15
    )
    assert canonical_limit_typeI((2, 1, 1), 0.8, rho, RC) == 1.0
    assert canonical_limit_typeI((1, 1, 1), 0.8, 0.5 * RC, RC) == 1.0
    # the canonical mean, -d/dlam of the transform at 0, is the
    # grand-canonical condensate density: excess on (1,1,1), 0 elsewhere
    regime = classify((0.4, 0.35, 0.25))
    h = 1e-5
    slope = (canonical_limit_typeI((1, 1, 1), -h, rho, RC)
             - canonical_limit_typeI((1, 1, 1), h, rho, RC)) / (2.0 * h)
    assert slope == pytest.approx(gc_occupation_limit(regime, rho, (1, 1, 1), 1.0), rel=1e-9)
    assert gc_occupation_limit(regime, rho, (1, 1, 1), 1.0) == pytest.approx(excess, rel=1e-15)
    assert gc_occupation_limit(regime, rho, (3, 2, 1), 1.0) == 0.0


def test_slow_gap_limit_closed_forms():
    """Both ensembles share the slow-gap law, which gc_laplace_limit holds."""
    regime = classify((0.6, 0.25, 0.15))
    lam, beta = 0.6, 1.3
    rc = critical_density(beta).value
    rho = 2.0 * rc
    delta = rho - rc
    expected = 1.0 / (1.0 + 2.0 * lam * beta * delta * delta)
    assert gc_laplace_limit(regime, rho, (1, 1, 1), lam, beta) == pytest.approx(
        expected, rel=1e-15
    )
    # every ladder mode shares the limit; off-ladder modes vanish at scale
    assert gc_laplace_limit(regime, rho, (7, 1, 1), lam, beta) == (
        gc_laplace_limit(regime, rho, (1, 1, 1), lam, beta)
    )
    assert gc_laplace_limit(regime, rho, (1, 2, 1), lam, beta) == 1.0
    assert gc_occupation_limit(regime, rho, (7, 1, 1), beta) == pytest.approx(
        2.0 * beta * delta * delta, rel=1e-15
    )
    assert gc_occupation_limit(regime, rho, (1, 2, 1), beta) == 0.0
    # beta enters only through the product lam * beta at a fixed excess
    at_excess = [critical_density(b).value + 0.25 for b in (2.0, 1.0)]
    assert gc_laplace_limit(regime, at_excess[0], (1, 1, 1), lam, 2.0) == pytest.approx(
        gc_laplace_limit(regime, at_excess[1], (1, 1, 1), 2.0 * lam, 1.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        gc_laplace_limit(regime, rc, (1, 1, 1), lam, beta)
    with pytest.raises(DomainError):
        gc_laplace_limit(regime, rho, (1, 1, 1), -1.0 / (2.0 * beta * delta**2), beta)


# ---------------------------------------------------------------------------
# fluctuation sums


def test_fluctuation_sum_is_zero_at_origin():
    for d in (1, 2, 3):
        assert g_function(d, 0.0, 1.0) == 0.0


def test_fluctuation_sum_rejects_arguments_past_first_gap():
    # smallest axis gap is 3 pi^2 / 2
    with pytest.raises(DomainError):
        g_function(1, -1.5 * math.pi**2, 1.0)
    with pytest.raises(DomainError):
        g_function(1, 0.5, 0.0)


def accurate_omega(x):
    """x - log(1+x) to a few ulp. The direct difference loses 2 ulp / |x|
    to cancellation, so |x| < 1e-4 takes its Taylor series and
    1e-4 <= |x| <= 1/2 the series

        omega = x z - 2 z^3 (1/3 + z^2/5 + z^4/7 + ...),  z = x/(2+x),

    from log(1+x) = 2 atanh(z) and x - 2z = x z (|z| <= 1/3 there).
    """
    x = np.asarray(x, dtype=float)
    out = x - np.log1p(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    # x^2 (1/2 - x/3 + x^2/4 - x^3/5 + x^4/6): next term ~ x^5/7 < 1e-21
    out[small] = xs * xs * (0.5 + xs * (-1.0 / 3.0 + xs * (0.25 + xs * (-0.2 + xs / 6.0))))
    mid = (np.abs(x) >= 1e-4) & (np.abs(x) <= 0.5)
    xm = x[mid]
    z = xm / (2.0 + xm)
    series = np.zeros_like(z)
    for k in range(20, -1, -1):
        series = series * (z * z) + 1.0 / (2 * k + 3)
    out[mid] = xm * z - 2.0 * z**3 * series
    return out


def lattice_g(d, lam, beta, cutoff, convention="relative"):
    """g_d summed over the listed lattice gaps up to ``cutoff``."""
    gaps = unit_box_gap_values(d, cutoff, min_index=2, convention=convention)
    return math.fsum(accurate_omega(lam / (beta * gaps)))


def envelope_tail(d, lam, beta, cutoff):
    """Bound on the part of g_d above the gap cutoff.

    omega(x) <= x^2/(2(1+min(x,0))) and the counting envelopes give
    sum_{eta > H} eta^(-2) <= 3 C'/sqrt(H) (d=3, C' = sqrt(2)/(3 pi^2)),
    1/(2 pi H) (d=2), and (sqrt(2)/(3 pi)) H^(-3/2) (d=1).
    """
    curvature = 0.5 / (1.0 + min(lam / (beta * cutoff), 0.0))
    if d == 3:
        weight = 3.0 * (math.sqrt(2.0) / (3.0 * math.pi**2)) / math.sqrt(cutoff)
    elif d == 2:
        weight = 1.0 / (2.0 * math.pi * cutoff)
    else:
        weight = (math.sqrt(2.0) / (3.0 * math.pi)) * cutoff**-1.5
    return curvature * (lam / beta) ** 2 * weight


def test_isotropic_exponent_matches_brute_lattice_sum():
    # sum over the full lattice {1..K}^3 minus the ground corner splits by
    # how many coordinates sit at 1: 3 axis sums, 3 plane sums, 1 interior sum
    k_top = 200
    lam, beta = 0.8, 1.0
    cutoff = 0.5 * math.pi**2 * (k_top * k_top - 1.0) + 1.0
    u = np.arange(1, k_top + 1, dtype=float) ** 2 - 1.0
    eta = 0.5 * math.pi**2 * (u[:, None, None] + u[None, :, None] + u[None, None, :])
    direct = math.fsum(accurate_omega(lam / (beta * eta[(eta > 0.0) & (eta <= cutoff)])))
    weights = (3.0, 3.0, 1.0)
    composed = sum(w * lattice_g(d, lam, beta, cutoff) for d, w in zip((1, 2, 3), weights))
    assert composed == pytest.approx(direct, rel=1e-12)
    # the infinite sums add what lies above the cutoff, within its envelope
    infinite = sum(w * g_function(d, lam, beta) for d, w in zip((1, 2, 3), weights))
    dropped = sum(w * envelope_tail(d, lam, beta, cutoff) for d, w in zip((1, 2, 3), weights))
    assert 0.0 < infinite - direct <= dropped


# the gap convention of the lattice oracle that g_d sums over
@pytest.mark.parametrize("convention", ["relative"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 11.7524])
def test_fluctuation_sum_lies_between_lattice_sum_and_envelope(d, lam, convention):
    value, budget = g_with_budget(d, lam, 1.0)
    for cutoff in (1.0e4, {1: 4.0e8, 2: 4.0e6, 3: 1.0e5}[d]):
        listed = lattice_g(d, lam, 1.0, cutoff, convention)
        assert listed - budget <= value <= listed + envelope_tail(d, lam, 1.0, cutoff) + budget


# the ids name the gap convention u(n) = n^2 - 1 that g_d sums over
@pytest.mark.parametrize("lam", [-0.5, 0.062], ids=["-0.5-relative", "0.062-relative"])
def test_axis_sum_matches_fsum(lam):
    # n <= 2e7 leaves a tail below 1e-23 lam^2
    parts = []
    for start in range(2, 20_000_001, 1_000_000):
        n = np.arange(start, min(start + 1_000_000, 20_000_001), dtype=float)
        u = n * n - 1.0
        parts.append(math.fsum(accurate_omega(lam / (0.5 * math.pi**2 * u))))
    assert g_function(1, lam, 1.0) == pytest.approx(
        math.fsum(parts), rel=1e-13
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [-0.5, 1e-4, 1.8, 11.7524])
def test_budget_covers_doubled_panel_evaluation(monkeypatch, d, lam):
    value, budget = g_with_budget(d, lam, 1.0)
    assert budget <= 1e-10
    monkeypatch.setattr(limits, "_G_PANEL_WIDTH", 0.5 * limits._G_PANEL_WIDTH)
    finer, _ = g_with_budget.__wrapped__(d, lam, 1.0)  # past the cache
    assert abs(finer - value) <= budget


def test_theta_grid_cache_is_keyed_by_panel_width(monkeypatch):
    """The check above sees finer theta grids at half the panel width, not
    the grids cached at the full width."""
    nodes = {}
    theta_grid = limits._theta_grid

    def spy(k_lo, k_hi, per_unit, width):
        grid = theta_grid(k_lo, k_hi, per_unit, width)
        nodes.setdefault(limits._G_PANEL_WIDTH, []).append(len(grid[1]))
        return grid

    monkeypatch.setattr(limits, "_theta_grid", spy)
    width = limits._G_PANEL_WIDTH
    g_with_budget.__wrapped__(2, 1.8, 1.0)
    monkeypatch.setattr(limits, "_G_PANEL_WIDTH", 0.5 * width)
    g_with_budget.__wrapped__(2, 1.8, 1.0)
    coarse, fine = nodes[width], nodes[0.5 * width]
    assert len(coarse) == len(fine) == 2
    assert all(f >= 1.9 * c for c, f in zip(coarse, fine))


def test_axis_curvature_closed_form_and_series():
    # sum_{n>=2} (n^2-1)^{-2} has the closed form pi^2/12 - 11/16
    n = np.arange(2, 2_000_001, dtype=float)
    partial = float(np.sum(1.0 / (n * n - 1.0) ** 2))
    assert partial == pytest.approx(math.pi**2 / 12.0 - 11.0 / 16.0, rel=1e-12)
    for beta in (1.0, 2.0):
        expected = (2.0 / (beta * math.pi**2)) ** 2 * partial
        assert axis_curvature_at_zero(beta) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_axis_sum_second_difference_matches_curvature(beta):
    h = 1e-4
    fd2 = (g_function(1, h, beta) + g_function(1, -h, beta)) / (h * h)
    assert fd2 == pytest.approx(axis_curvature_at_zero(beta), rel=1e-9)


def test_fluctuation_sums_have_flat_slope_at_origin():
    h = 1e-2
    for d in (1, 2, 3):
        slope = abs(g_function(d, h, 1.0) - g_function(d, -h, 1.0)) / (2.0 * h)
        assert slope < 1e-6


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_tail_bound_covers_cutoff_extension(d, lam):
    low, high = 1.0e4, 1.6e5
    g_low = lattice_g(d, lam, 1.0, low)
    g_high = lattice_g(d, lam, 1.0, high)
    assert abs(g_high - g_low) <= envelope_tail(d, lam, 1.0, low)


def test_fluctuation_law_composes_symmetry_cases():
    lam, beta = 0.7, 1.0
    g1 = g_function(1, lam, beta)
    g2 = g_function(2, lam, beta)
    g3 = g_function(3, lam, beta)
    assert fluctuation_law("distinct", lam, beta) == pytest.approx(
        math.exp(g1), rel=1e-14
    )
    assert fluctuation_law("two_equal", lam, beta) == pytest.approx(
        math.exp(2.0 * g1 + g2), rel=1e-14
    )
    assert fluctuation_law("isotropic", lam, beta) == pytest.approx(
        math.exp(3.0 * g1 + 3.0 * g2 + g3), rel=1e-14
    )
    assert fluctuation_law("isotropic", 0.0, beta) == 1.0
    with pytest.raises(DomainError):
        fluctuation_law("cubic", lam, beta)


def test_fluctuation_case_from_geometry(cubic_tables):
    """Each table is compared with the law of its own box's symmetry case."""
    cases = {(0.40, 0.35, 0.25): "distinct", (0.40, 0.40, 0.20): "two_equal"}
    tables = [build_canonical(BoxGeometry(a, 400.0), 1.0, 150) for a in cases]
    rows = fluctuation_convergence_check(tables + cubic_tables[:1], RHO_SUPER, 0.4)
    assert [r.volume for r in rows] == [400.0] * 3
    for row, symmetry in zip(rows, [*cases.values(), "isotropic"]):
        assert row.limit == fluctuation_law(symmetry, 0.4, 1.0)


# ---------------------------------------------------------------------------
# finite-volume fluctuation comparison

RHO_SUPER = 2.0 * RC


@pytest.fixture(scope="module")
def cubic_tables():
    tables = []
    for v in (400.0, 1600.0):
        geom = BoxGeometry((1 / 3, 1 / 3, 1 / 3), v)
        n_max = int(RHO_SUPER * v) + int(25.0 * math.sqrt(RHO_SUPER * v)) + 200
        tables.append(build_canonical(geom, 1.0, n_max))
    return tables


def test_saturation_density_sits_below_infinite_volume_value(cubic_tables, geom_aniso):
    small, large = (rho_c_finite(ct.geometry, 1.0) for ct in cubic_tables)
    assert 0.0 < small < large < RC
    assert 0.0 < rho_c_finite(geom_aniso, 1.0) < RC


@pytest.mark.parametrize(
    "alphas", [(0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)]
)
def test_saturation_density_matches_table_sum(alphas):
    """The power-sum series at mu_bar = 0 against the excited modes of a
    table whose own cutoff tail is below 1e-17 per volume."""
    geom = BoxGeometry(alphas, 2000.0)
    table = enumerate_below(geom, tail_cutoff(geom, 1.0, 1e-17))
    brute = float(np.sum(1.0 / np.expm1(gaps(table)[1:]))) / geom.volume
    assert rho_c_finite(geom, 1.0) == pytest.approx(brute, rel=1e-13)


def test_fluctuation_transforms_drift_toward_the_law(cubic_tables):
    rows = fluctuation_convergence_check(list(reversed(cubic_tables)), RHO_SUPER, 0.4)
    assert [r.volume for r in rows] == sorted(r.volume for r in rows)
    assert all(r.gap == abs(r.value - r.limit) for r in rows)
    assert rows[-1].gap < rows[0].gap
    assert abs(rows[-1].centered_mean) < abs(rows[0].centered_mean)
    # centered on rho - rho_c^V instead of the mean, the transform gains the
    # factor exp(lam centered_mean); it too meets the law at the larger volume
    saturation = rows[-1].value * math.exp(0.4 * rows[-1].centered_mean)
    assert abs(saturation - rows[-1].limit) < 2e-4


def test_fluctuation_comparison_rejects_bad_inputs(cubic_tables):
    """A table too short for n = round(rho V) particles is refused."""
    with pytest.raises(DomainError, match="outside table range"):
        fluctuation_convergence_check(cubic_tables, 10.0 * RHO_SUPER, 0.4)
