"""Grand-canonical solver, saturation density and condensation limit laws."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from bosebox import (
    BoxGeometry,
    CutoffTooLarge,
    DomainError,
    Mode,
    classify,
    critical_density,
    enumerate_below,
    gc_density,
    gc_laplace_finite,
    gc_laplace_limit,
    gc_occupation_limit,
    grand_partition_log,
    limiting_mu_bar,
    mean_occupation,
    solve_ladder_coefficient,
    solve_mu,
    suggest_energy_cutoff,
)
from bosebox import grandcanonical

REGIME_ALPHAS = {
    "I": (0.4, 0.35, 0.25),
    "II": (0.5, 0.3, 0.2),
    "III": (0.6, 0.25, 0.15),
}


@pytest.fixture(scope="module")
def small_table():
    # Deep enough that the modes above the cutoff carry less than 1e-16 of
    # any sum below, so brute-force sums over the table are exact oracles.
    g = BoxGeometry((0.4, 0.35, 0.25), 200.0)
    return enumerate_below(g, 50.0)


def table_density(table, mu, beta):
    """Brute-force density: the Bose weights of every listed mode, per volume."""
    return float(np.sum(1.0 / np.expm1(beta * (table.energies - mu)))) / table.geometry.volume


def table_log_xi(table, mu, beta):
    """Brute-force log of the grand partition function over the listed modes."""
    return float(-np.sum(np.log(-np.expm1(-beta * (table.energies - mu)))))


@pytest.fixture(scope="module", params=sorted(REGIME_ALPHAS))
def deep_table(request):
    """A regime's table whose own cutoff tail is below 1e-17 per volume."""
    g = BoxGeometry(REGIME_ALPHAS[request.param], 2000.0)
    return enumerate_below(g, suggest_energy_cutoff(g, 1.0, tail_tol=1e-17))


# ------------------------------------------------------- saturation density


def test_critical_density_zeta_oracle():
    # independent closed form: zeta(3/2) / (2 pi beta)^(3/2)
    for beta in (0.7, 1.0, 2.5):
        want = float(zeta(1.5)) / (2.0 * math.pi * beta) ** 1.5
        got = critical_density(beta)
        assert got.value == pytest.approx(want, rel=1e-11)
        assert 0.0 < got.roundoff < 1e-14
    with pytest.raises(DomainError):
        critical_density(0.0)


def test_critical_density_beta_scaling():
    base = critical_density(1.0).value
    assert critical_density(4.0).value == pytest.approx(base / 8.0, rel=1e-11)


# ----------------------------------------------------------- finite volume


def test_mean_occupation_hand_formula(small_table):
    t = small_table
    mu_bar = -0.05
    for k in (0, 1, 7):
        x = 1.3 * (t.energies[k] - t.ground_energy - mu_bar)
        assert mean_occupation(t.geometry, mu_bar, t.modes[k], 1.3) == pytest.approx(
            1.0 / math.expm1(x), rel=1e-14
        )
    # Mode objects are accepted too
    assert mean_occupation(t.geometry, mu_bar, Mode((1, 1, 1)), 1.3) == mean_occupation(
        t.geometry, mu_bar, (1, 1, 1), 1.3
    )
    with pytest.raises(DomainError):
        mean_occupation(t.geometry, 0.0, (1, 1, 1), 1.3)


def test_gc_density_is_mode_sum_per_volume(small_table):
    t = small_table
    mu = t.ground_energy - 0.2
    want = sum(mean_occupation(t.geometry, -0.2, m, 1.0) for m in t.modes) / 200.0
    assert gc_density(t.geometry, mu, 1.0) == pytest.approx(want, rel=1e-13)


def test_gc_density_rejects_mu_at_ground(small_table):
    with pytest.raises(DomainError):
        gc_density(small_table.geometry, small_table.ground_energy, 1.0)


def test_grand_partition_log_direct_sum(small_table):
    t = small_table
    mu = t.ground_energy - 0.1
    want = -sum(
        math.log(-math.expm1(-1.0 * (e - mu))) for e in t.energies
    )
    value, tail = grand_partition_log(t.geometry, mu, 1.0)
    assert value == pytest.approx(want, rel=1e-13)
    assert 0.0 < tail < 1e-15 * value


@pytest.mark.parametrize("mu_bar", [-1e-3, -0.05, -1.0])
def test_power_sums_match_table_sums(deep_table, mu_bar):
    """The power-sum series equal the brute-force sums over a deep table."""
    g = deep_table.geometry
    mu = deep_table.ground_energy + mu_bar
    assert gc_density(g, mu, 1.0) == pytest.approx(
        table_density(deep_table, mu, 1.0), rel=1e-13
    )
    value, tail = grand_partition_log(g, mu, 1.0)
    assert value == pytest.approx(table_log_xi(deep_table, mu, 1.0), rel=1e-13)
    assert 0.0 <= tail < 1e-15 * value


def test_solve_mu_matches_table_density(deep_table, rho_c_value):
    for rho in (0.5 * rho_c_value, 2.0 * rho_c_value):
        sol = solve_mu(deep_table.geometry, rho, 1.0)
        assert table_density(deep_table, sol.mu, 1.0) == pytest.approx(rho, rel=1e-12)
        assert 0.0 <= sol.tail_bound < 1e-15 * rho


@pytest.mark.parametrize("regime", sorted(REGIME_ALPHAS))
@pytest.mark.parametrize("mu_bar", [0.0, -1e-4, -0.05])
def test_series_tail_bound_covers_remainder(regime, mu_bar):
    """The geometric bound after K terms covers the terms K+1..4K."""
    g = BoxGeometry(REGIME_ALPHAS[regime], 5000.0)
    rate = grandcanonical._series_rate(g, 1.0, mu_bar)
    full = int(grandcanonical._series_length(rate))
    excess = grandcanonical._excess_power_sums(g, 1.0, 4 * full, 10**8)
    k = np.arange(1, 4 * full + 1, dtype=float)
    for over_k in (False, True):
        terms = excess * np.exp(k * mu_bar) / (k if over_k else 1.0)
        for k_max in (full // 16, full // 4, full):
            _, tail = grandcanonical._excited_sum(
                g, 1.0, mu_bar, excess[:k_max], over_k=over_k
            )
            assert 0.0 < float(np.sum(terms[k_max:])) <= tail
    # the length the sums use meets their target: tail below 2^-53 of the sum
    head, tail = grandcanonical._excited_sum(g, 1.0, mu_bar)
    assert tail <= 2.0**-53 * head


def test_solve_mu_refuses_a_series_past_the_budget():
    g = BoxGeometry(REGIME_ALPHAS["III"], 5.12e5)
    with pytest.raises(CutoffTooLarge):
        solve_mu(g, 0.3, 1.0, mode_budget=10_000)


def test_solve_mu_roundtrip(small_table):
    t = small_table
    for rho in (0.05, 0.4):
        sol = solve_mu(t.geometry, rho, 1.0)
        assert sol.mu < t.ground_energy
        assert sol.mu_bar == pytest.approx(sol.mu - t.ground_energy, abs=1e-15)
        assert gc_density(t.geometry, sol.mu, 1.0) == pytest.approx(rho, rel=1e-11)
        assert sol.residual <= 1e-12 * rho
        assert sol.regime.condensation == "I"


@settings(max_examples=20, deadline=None)
@given(rho=st.floats(min_value=1e-3, max_value=2.0))
def test_solve_mu_density_is_monotone_in_mu(small_table, rho):
    """Whatever the target density, the solved mu reproduces it."""
    g = small_table.geometry
    sol = solve_mu(g, rho, 1.0)
    assert gc_density(g, sol.mu, 1.0) == pytest.approx(rho, rel=1e-10)


# ------------------------------------------------- limiting chemical potential


def test_limiting_mu_bar_subcritical_solves_density_equation():
    rc = critical_density(1.0).value
    rho = 0.5 * rc
    mb = limiting_mu_bar(rho, 1.0)
    assert mb < 0.0
    # plug back in through an independent polylogarithm: at mu_bar the
    # limiting density equals rho, and at 0 it equals rho_c > rho
    got = float(mpmath.polylog(1.5, mpmath.exp(mb))) / (2.0 * math.pi) ** 1.5
    assert got == pytest.approx(rho, rel=1e-9)


def test_limiting_mu_bar_saturates_at_critical():
    rc = critical_density(1.0).value
    assert limiting_mu_bar(rc, 1.0) == 0.0
    with pytest.raises(DomainError):
        limiting_mu_bar(1.5 * rc, 1.0)


def test_polylog_matches_mpmath():
    """Li_{3/2}(e^x) from Robinson's series (x >= -1) and the direct sum."""
    mpmath.mp.dps = 30
    xs = np.concatenate((-np.logspace(-12, math.log10(40.0), 400), [-1.0, -1.0 - 1e-12]))
    worst = 0.0
    for x in xs:
        want = mpmath.polylog(1.5, mpmath.exp(mpmath.mpf(float(x))))
        got = grandcanonical._polylog_32(float(x))
        worst = max(worst, float(abs((got - want) / want)))
    mpmath.mp.dps = 15
    assert worst <= 1e-14


# ------------------------------------------------------- ladder coefficient


def test_ladder_equation_balances_excess():
    """The solved coefficient redistributes exactly the condensate excess."""
    rc = critical_density(1.0).value
    for rho in (1.2 * rc, 2.0 * rc, 5.0 * rc):
        lad = solve_ladder_coefficient(rho, rc)
        a = lad.value
        js = np.arange(2, 400_000, dtype=float)
        direct = a + float(np.sum(1.0 / (0.5 * math.pi**2 * (js**2 - 1.0) + 1.0 / a)))
        # telescoped remainder of the direct sum above its own cutoff
        m = js[-1]
        direct += (1.0 / m + 1.0 / (m + 1.0)) / math.pi**2
        assert direct == pytest.approx(lad.excess, rel=1e-9)
        assert lad.residual < 1e-12
        assert 0.0 < a < rho - rc


def test_ladder_coefficient_beta_aware():
    # at beta != 1 the gap term carries beta; the identity must still close
    beta = 2.0
    rc = critical_density(beta).value
    lad = solve_ladder_coefficient(2.0 * rc, rc, beta=beta)
    a = lad.value
    js = np.arange(2, 200_000, dtype=float)
    direct = a + float(
        np.sum(1.0 / (0.5 * beta * math.pi**2 * (js**2 - 1.0) + 1.0 / a))
    )
    direct += (1.0 / js[-1] + 1.0 / (js[-1] + 1.0)) / (beta * math.pi**2)
    assert direct == pytest.approx(lad.excess, rel=1e-8)


def test_ladder_coefficient_increases_with_density():
    rc = critical_density(1.0).value
    values = [
        solve_ladder_coefficient(rho, rc).value
        for rho in (1.1 * rc, 1.5 * rc, 2.0 * rc, 4.0 * rc)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ladder_coefficient_rejects_subcritical():
    rc = critical_density(1.0).value
    with pytest.raises(DomainError):
        solve_ladder_coefficient(rc, rc)


# -------------------------------------------------------- occupation limits


def test_gc_occupation_limit_fast_gap_regime():
    rc = critical_density(1.0).value
    regime = classify((0.4, 0.35, 0.25))
    rho = 2.0 * rc
    assert gc_occupation_limit(regime, rho, (1, 1, 1), 1.0) == pytest.approx(rho - rc)
    assert gc_occupation_limit(regime, rho, (2, 1, 1), 1.0) == 0.0
    with pytest.raises(DomainError):
        gc_occupation_limit(regime, 0.5 * rc, (1, 1, 1), 1.0)


def test_gc_occupation_limit_critical_ladder_sums_to_excess():
    rc = critical_density(1.0).value
    regime = classify((0.5, 0.3, 0.2))
    rho = 2.0 * rc
    vals = [gc_occupation_limit(regime, rho, (n, 1, 1), 1.0) for n in range(1, 4000)]
    assert vals[0] == pytest.approx(solve_ladder_coefficient(rho, rc).value, rel=1e-12)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert sum(vals) == pytest.approx(rho - rc, rel=1e-3)  # tail falls off as 1/n^2
    assert gc_occupation_limit(regime, rho, (2, 2, 1), 1.0) == 0.0


def test_gc_occupation_limit_slow_gap_scale():
    rc = critical_density(1.0).value
    regime = classify((0.6, 0.25, 0.15))
    rho = 2.0 * rc
    want = 2.0 * (rho - rc) ** 2
    for n in (1, 2, 5):
        assert gc_occupation_limit(regime, rho, (n, 1, 1), 1.0) == pytest.approx(want)
    assert gc_occupation_limit(regime, rho, (1, 2, 1), 1.0) == 0.0


# ------------------------------------------------------- Laplace transforms


def test_gc_laplace_finite_is_geometric_series(small_table):
    """Brute geometric sum sum_j q^j (1-q) e^(-lam j) against the closed form."""
    t = small_table
    mu = t.ground_energy - 0.08
    for k, lam in ((0, 0.7), (3, 2.0)):
        q = math.exp(-1.0 * (t.energies[k] - mu))
        brute = sum(q**j * (1.0 - q) * math.exp(-lam * j) for j in range(4000))
        assert gc_laplace_finite(t.geometry, mu, t.modes[k], lam, 1.0) == pytest.approx(
            brute, rel=1e-12
        )


def test_gc_laplace_finite_domain(small_table):
    t = small_table
    mu = t.ground_energy - 0.08
    x = t.energies[0] - mu
    assert gc_laplace_finite(t.geometry, mu, (1, 1, 1), 0.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        gc_laplace_finite(t.geometry, mu, (1, 1, 1), -x, 1.0)


def test_gc_laplace_limit_fast_gap_closed_form():
    rc = critical_density(1.0).value
    regime = classify((0.4, 0.35, 0.25))
    rho = 2.0 * rc
    delta = rho - rc
    for lam in (0.0, 0.5, 3.0):
        want = 1.0 / (1.0 + lam * delta)
        assert gc_laplace_limit(regime, rho, (1, 1, 1), lam, 1.0) == pytest.approx(want)
    assert gc_laplace_limit(regime, rho, (2, 1, 1), 5.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        gc_laplace_limit(regime, rho, (1, 1, 1), -1.0 / delta, 1.0)


def test_gc_laplace_limit_matches_occupation_derivative():
    """-d/dlam log transform at 0 recovers the limiting occupation."""
    rc = critical_density(1.0).value
    rho = 2.0 * rc
    h = 1e-6
    for alphas, mode in (
        ((0.4, 0.35, 0.25), (1, 1, 1)),
        ((0.5, 0.3, 0.2), (1, 1, 1)),
        ((0.5, 0.3, 0.2), (3, 1, 1)),
        ((0.6, 0.25, 0.15), (2, 1, 1)),
    ):
        regime = classify(alphas)
        up = gc_laplace_limit(regime, rho, mode, h, 1.0)
        dn = gc_laplace_limit(regime, rho, mode, -h, 1.0)
        fd = -(math.log(up) - math.log(dn)) / (2.0 * h)
        occ = gc_occupation_limit(regime, rho, mode, 1.0)
        assert fd == pytest.approx(occ, rel=1e-7)
