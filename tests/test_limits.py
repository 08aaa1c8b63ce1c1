"""Tests for the limiting occupation laws and fluctuation transforms.

Oracles used here:
  * the defining interpolation product for the ladder gap coefficients,
    evaluated literally at small truncation;
  * a high-precision (mpmath) partial sum of the alternating theta series,
    with working precision scaled to survive the small-argument cancellation;
  * the reciprocal-gap product representation of the occupation transform
    integral, against direct quadrature of the integrand;
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
from bosebox.errors import DomainError, PoleProximity
from bosebox.limits import (
    FluctuationCase,
    _log_one_minus_tn,
    _log_theta,
    axis_curvature_at_zero,
    canonical_laplace_typeII,
    canonical_laplace_typeIII,
    canonical_limit_typeI,
    fluctuation_case,
    fluctuation_convergence_check,
    fluctuation_law,
    g_function,
    g_with_budget,
    gap_coefficients,
    mode_distribution_limit,
    occupation_limit_typeII,
    rho_c_finite,
)
from bosebox.numerics import gauss_panels, omega
from bosebox.spectrum import (
    BoxGeometry,
    enumerate_below,
    suggest_energy_cutoff,
    unit_box_gap_values,
)

RC = 0.1658692093130223


# ---------------------------------------------------------------------------
# ladder gap coefficients


def literal_interpolation_product(n, m, m_top):
    """Product over j <= m_top, j not in {n, m}, of (j^2-n^2)/(j^2-m^2)."""
    p = 1.0
    for j in range(1, m_top + 1):
        if j == n or j == m:
            continue
        p *= (j * j - n * n) / (j * j - m * m)
    return p


@pytest.mark.parametrize("n", [1, 2])
def test_gap_coefficients_match_literal_interpolation_product(n):
    m_top = 30
    coeffs = gap_coefficients(n, m_top, 1.0)
    for m in range(1, m_top + 1):
        if m == n:
            continue
        expected = literal_interpolation_product(n, m, m_top)
        got = coeffs.bs[m - 1] * coeffs.etas[m - 1]
        assert got == pytest.approx(expected, rel=1e-12)


def test_gap_values_and_nan_placeholders():
    coeffs = gap_coefficients(2, 12, 1.5)
    m = np.arange(1, 13, dtype=float)
    assert np.allclose(coeffs.epsilons, 0.5 * math.pi**2 * m * m, rtol=1e-15)
    assert np.allclose(
        coeffs.etas, 1.5 * 0.5 * math.pi**2 * (m * m - 4.0), rtol=1e-15
    )
    for arr in (coeffs.bs, coeffs.bs_infinite, coeffs.product_tail):
        assert math.isnan(arr[1])
        assert np.all(np.isfinite(np.delete(arr, 1)))
    with pytest.raises(ValueError):
        coeffs.bs[0] = 0.0  # arrays are frozen


def test_truncated_coefficients_approach_infinite_product_limit():
    near = gap_coefficients(1, 100, 1.0)
    far = gap_coefficients(1, 1000, 1.0)
    m = 3
    expected_inf = (-1.0) ** (m + 1 + 1) * m * m / near.etas[m - 1]
    assert near.bs_infinite[m - 1] == pytest.approx(expected_inf, rel=1e-14)
    assert far.bs_infinite[m - 1] == near.bs_infinite[m - 1]
    d_near = abs(near.bs[m - 1] - expected_inf)
    d_far = abs(far.bs[m - 1] - expected_inf)
    assert d_far < 0.2 * d_near
    assert far.product_tail[m - 1] < 0.2 * near.product_tail[m - 1]


def test_gap_coefficients_scale_with_inverse_temperature():
    base = gap_coefficients(1, 40, 1.0)
    double = gap_coefficients(1, 40, 2.0)
    assert np.allclose(double.etas, 2.0 * base.etas, rtol=1e-15)
    keep = ~np.isnan(base.bs)
    assert np.allclose(double.bs[keep], 0.5 * base.bs[keep], rtol=1e-14)
    assert np.allclose(
        double.bs_infinite[keep], 0.5 * base.bs_infinite[keep], rtol=1e-14
    )


def test_gap_coefficients_reject_bad_arguments():
    with pytest.raises(DomainError):
        gap_coefficients(0, 10, 1.0)
    with pytest.raises(DomainError):
        gap_coefficients(3, 2, 1.0)
    with pytest.raises(DomainError):
        gap_coefficients(1, 10, 0.0)


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


# ---------------------------------------------------------------------------
# limiting mode distribution


def test_mode_distribution_vanishes_at_and_below_saturation():
    coeffs = gap_coefficients(1, 1000, 1.0)
    assert mode_distribution_limit(1, RC, RC, coeffs) == 0.0
    assert mode_distribution_limit(1, 0.5 * RC, RC, coeffs) == 0.0


def test_ground_ladder_distribution_climbs_to_one():
    coeffs = gap_coefficients(1, 1000, 1.0)
    grid = [RC + s for s in np.linspace(0.02, 5.0, 120)]
    vals = [mode_distribution_limit(1, x, RC, coeffs) for x in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] < 1.0
    assert abs(vals[-1] - 1.0) < 1e-12


def test_excited_ladder_renormalization_overshoots():
    coeffs = gap_coefficients(2, 1000, 1.0)
    assert mode_distribution_limit(2, RC + 2.0, RC, coeffs) > 1.0


def test_mode_distribution_rejects_mismatched_coefficients():
    coeffs = gap_coefficients(1, 1000, 1.0)
    with pytest.raises(DomainError):
        mode_distribution_limit(2, 2 * RC, RC, coeffs)


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


def survival_quadrature(n, lam, coeffs, rho):
    """Transform and mean of the ladder occupation from its survival function."""
    delta = rho - RC
    den = mode_distribution_limit(n, rho, RC, coeffs)
    nodes, weights = gauss_panels(0.0, delta, 40, 20)
    surv = (
        np.array(
            [mode_distribution_limit(n, RC + (delta - x), RC, coeffs) for x in nodes]
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
    coeffs = gap_coefficients(n, 200_000, beta)
    rho = 2.0 * RC
    t_quad, m_quad = survival_quadrature(n, lam, coeffs, rho)
    assert canonical_laplace_typeII(n, lam, rho, RC, coeffs) == pytest.approx(
        t_quad, rel=1e-12
    )
    assert occupation_limit_typeII(n, rho, RC, coeffs) == pytest.approx(
        m_quad, rel=1e-12
    )


def test_ground_occupation_limit_frozen_value():
    # independently reproduced through the survival quadrature above and the
    # finite-volume canonical sweeps in the acceptance tests
    coeffs = gap_coefficients(1, 200_000, 1.0)
    assert occupation_limit_typeII(1, 2.0 * RC, RC, coeffs) == pytest.approx(
        0.05488202601107707, rel=1e-10
    )


def test_occupation_transform_derivative_recovers_mean():
    coeffs = gap_coefficients(1, 200_000, 1.0)
    rho = 2.0 * RC
    h = 1e-4
    slope = (
        canonical_laplace_typeII(1, -h, rho, RC, coeffs)
        - canonical_laplace_typeII(1, h, rho, RC, coeffs)
    ) / (2.0 * h)
    assert slope == pytest.approx(occupation_limit_typeII(1, rho, RC, coeffs), rel=1e-9)


def test_occupation_transform_edges():
    coeffs = gap_coefficients(1, 1000, 1.0)
    assert canonical_laplace_typeII(1, 0.0, 2 * RC, RC, coeffs) == 1.0
    assert occupation_limit_typeII(1, RC, RC, coeffs) == 0.0
    assert occupation_limit_typeII(1, 0.5 * RC, RC, coeffs) == 0.0
    with pytest.raises(DomainError):
        canonical_laplace_typeII(1, 0.5, RC, RC, coeffs)
    with pytest.raises(DomainError):
        canonical_laplace_typeII(2, 0.5, 2 * RC, RC, coeffs)
    with pytest.raises(PoleProximity):
        canonical_laplace_typeII(1, float(coeffs.etas[1]), 2 * RC, RC, coeffs)


def test_fast_gap_limit_closed_forms():
    rho = 2.0 * RC
    excess = rho - RC
    assert canonical_limit_typeI((1, 1, 1), 0.8, rho, RC) == pytest.approx(
        math.exp(-0.8 * excess), rel=1e-15
    )
    assert canonical_limit_typeI((2, 1, 1), 0.8, rho, RC) == 1.0
    assert canonical_limit_typeI((1, 1, 1), 0.8, 0.5 * RC, RC) == 1.0
    assert canonical_limit_typeI((1, 1, 1), 0.0, rho, RC, quantity="mean") == excess
    assert canonical_limit_typeI((3, 2, 1), 0.0, rho, RC, quantity="mean") == 0.0
    with pytest.raises(DomainError):
        canonical_limit_typeI((1, 1, 1), 0.8, rho, RC, quantity="variance")


def test_slow_gap_limit_closed_forms():
    rho = 2.0 * RC
    delta = rho - RC
    lam, beta = 0.6, 1.3
    expected = 1.0 / (1.0 + 2.0 * lam * beta * delta * delta)
    assert canonical_laplace_typeIII((1, 1, 1), lam, rho, RC, beta) == pytest.approx(
        expected, rel=1e-15
    )
    # every ladder mode shares the limit; off-ladder modes vanish at scale
    assert canonical_laplace_typeIII((7, 1, 1), lam, rho, RC, beta) == (
        canonical_laplace_typeIII((1, 1, 1), lam, rho, RC, beta)
    )
    assert canonical_laplace_typeIII((1, 2, 1), lam, rho, RC, beta) == 1.0
    # beta enters only through the product lam * beta
    assert canonical_laplace_typeIII((1, 1, 1), lam, rho, RC, 2.0) == pytest.approx(
        canonical_laplace_typeIII((1, 1, 1), 2.0 * lam, rho, RC, 1.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        canonical_laplace_typeIII((1, 1, 1), lam, RC, RC, beta)
    with pytest.raises(DomainError):
        canonical_laplace_typeIII(
            (1, 1, 1), -1.0 / (2.0 * beta * delta * delta), rho, RC, beta
        )


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
    """x - log(1+x) to a few ulp; numerics.omega loses 2 ulp / |x| to
    cancellation for 1e-4 <= |x| <= 1/2, where this sums instead

        omega = x z - 2 z^3 (1/3 + z^2/5 + z^4/7 + ...),  z = x/(2+x),

    from log(1+x) = 2 atanh(z) and x - 2z = x z (|z| <= 1/3 there).
    """
    x = np.asarray(x, dtype=float)
    out = omega(x)
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


@pytest.mark.parametrize("convention", ["relative", "printed"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 11.7524])
def test_fluctuation_sum_lies_between_lattice_sum_and_envelope(d, lam, convention):
    value, budget = g_with_budget(d, lam, 1.0, convention=convention)
    for cutoff in (1.0e4, {1: 4.0e8, 2: 4.0e6, 3: 1.0e5}[d]):
        listed = lattice_g(d, lam, 1.0, cutoff, convention)
        assert listed - budget <= value <= listed + envelope_tail(d, lam, 1.0, cutoff) + budget


@pytest.mark.parametrize(
    "lam, convention", [(-0.5, "relative"), (0.062, "relative"), (11.7524, "printed")]
)
def test_axis_sum_matches_fsum(lam, convention):
    # n <= 2e7 leaves a tail below 1e-23 lam^2
    parts = []
    for start in range(2, 20_000_001, 1_000_000):
        n = np.arange(start, min(start + 1_000_000, 20_000_001), dtype=float)
        u = n * n - 1.0 if convention == "relative" else (n - 1.0) ** 2
        parts.append(math.fsum(accurate_omega(lam / (0.5 * math.pi**2 * u))))
    assert g_function(1, lam, 1.0, convention=convention) == pytest.approx(
        math.fsum(parts), rel=1e-13
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [-0.5, 1e-4, 1.8, 11.7524])
def test_budget_covers_doubled_panel_evaluation(monkeypatch, d, lam):
    value, budget = g_with_budget(d, lam, 1.0)
    assert budget <= 1e-10
    monkeypatch.setattr(limits, "_G_PANEL_WIDTH", 0.5 * limits._G_PANEL_WIDTH)
    finer, _ = g_with_budget(d, lam, 1.0)
    assert abs(finer - value) <= budget


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
    case = FluctuationCase(label="distinct", gamma=0.2)
    assert fluctuation_law(case, lam, beta) == fluctuation_law("distinct", lam, beta)
    assert fluctuation_law("isotropic", 0.0, beta) == 1.0
    with pytest.raises(DomainError):
        fluctuation_law("cubic", lam, beta)


def test_fluctuation_case_from_geometry():
    distinct = fluctuation_case(BoxGeometry((0.40, 0.35, 0.25), 100.0))
    assert distinct.label == "distinct"
    assert distinct.gamma == pytest.approx(0.2, abs=1e-12)
    paired = fluctuation_case(BoxGeometry((0.40, 0.40, 0.20), 100.0))
    assert paired.label == "two_equal"
    cubic = fluctuation_case(BoxGeometry((1 / 3, 1 / 3, 1 / 3), 100.0))
    assert cubic.label == "isotropic"
    assert cubic.gamma == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# finite-volume fluctuation comparison

RHO_SUPER = 2.0 * RC


@pytest.fixture(scope="module")
def cubic_tables():
    tables = []
    for v in (400.0, 1600.0):
        geom = BoxGeometry((1 / 3, 1 / 3, 1 / 3), v)
        emax = max(suggest_energy_cutoff(geom, 1.0), 40.0 * (1000.0 / v) ** (2 / 3))
        tab = enumerate_below(geom, emax)
        n_max = int(RHO_SUPER * v) + int(25.0 * math.sqrt(RHO_SUPER * v)) + 200
        tables.append(build_canonical(tab, 1.0, n_max))
    return tables


def test_saturation_density_sits_below_infinite_volume_value(cubic_tables, table_aniso):
    small, large = (rho_c_finite(ct.spectrum.geometry, 1.0) for ct in cubic_tables)
    assert 0.0 < small < large < RC
    assert 0.0 < rho_c_finite(table_aniso.geometry, 1.0) < RC


@pytest.mark.parametrize(
    "alphas", [(0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)]
)
def test_saturation_density_matches_table_sum(alphas):
    """The power-sum series at mu_bar = 0 against the excited modes of a
    table whose own cutoff tail is below 1e-17 per volume."""
    geom = BoxGeometry(alphas, 2000.0)
    table = enumerate_below(geom, suggest_energy_cutoff(geom, 1.0, tail_tol=1e-17))
    brute = float(np.sum(1.0 / np.expm1(table.gaps[1:]))) / geom.volume
    assert rho_c_finite(geom, 1.0) == pytest.approx(brute, rel=1e-13)


def test_fluctuation_transforms_drift_toward_the_law(cubic_tables):
    case = fluctuation_case(cubic_tables[0].spectrum.geometry)
    rows = fluctuation_convergence_check(
        list(reversed(cubic_tables)), RHO_SUPER, 0.4, case
    )
    assert [r.volume for r in rows] == sorted(r.volume for r in rows)
    assert all(r.gap == abs(r.value - r.limit) for r in rows)
    assert rows[-1].gap < rows[0].gap
    assert abs(rows[-1].centered_mean) < abs(rows[0].centered_mean)
    sat = fluctuation_convergence_check(
        cubic_tables, RHO_SUPER, 0.4, case, center="saturation"
    )
    assert sat[-1].gap < 2e-4
    assert sat[0].limit == rows[0].limit


def test_fluctuation_comparison_rejects_bad_inputs(cubic_tables):
    case = fluctuation_case(cubic_tables[0].spectrum.geometry)
    with pytest.raises(DomainError):
        fluctuation_convergence_check(cubic_tables, RHO_SUPER, 0.4, case, center="mode")
    raw = build_canonical([0.0, 0.5, 0.9], 1.0, 20)
    with pytest.raises(DomainError):
        fluctuation_convergence_check([raw], RHO_SUPER, 0.4, case)
