"""Grand-canonical solver, saturation density and condensation limit laws."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from bosebox import (
    BoxGeometry,
    DomainError,
    NumericsError,
    classify,
    critical_density,
    enumerate_below,
    gc_laplace_finite,
    gc_laplace_limit,
    gc_occupation_limit,
    grand_partition_log,
    ground_energy,
    limiting_mu_bar,
    mean_occupation,
    solve_ladder_coefficient,
    solve_mu,
)
from bosebox import grandcanonical, spectrum
from bosebox.spectrum import log_power_sums
from conftest import tail_cutoff

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


def gc_density(geometry, mu, beta):
    """Grand-canonical particle density (1/V) sum_n 1/(exp(beta(E_n - mu)) - 1)
    from the power-sum series: the function whose root solve_mu finds."""
    ground = ground_energy(geometry)
    grandcanonical._check_mu(ground, mu)
    excited, _ = grandcanonical._excited_sum(geometry, beta, mu - ground)
    return (grandcanonical._bose(beta * (ground - mu)) + excited) / geometry.volume


def table_log_xi(table, mu, beta):
    """Brute-force log of the grand partition function over the listed modes."""
    return float(-np.sum(np.log(-np.expm1(-beta * (table.energies - mu)))))


@pytest.fixture(scope="module", params=sorted(REGIME_ALPHAS))
def deep_table(request):
    """A regime's table whose own cutoff tail is below 1e-17 per volume."""
    g = BoxGeometry(REGIME_ALPHAS[request.param], 2000.0)
    return enumerate_below(g, tail_cutoff(g, 1.0, 1e-17))


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


def test_zeta_table_matches_scipy_to_the_bit():
    want = [float(zeta(1.5 - j)) for j in range(30)]
    assert list(grandcanonical._ZETA) == want
    assert grandcanonical._ZETA_32 == float(zeta(1.5))


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


def series_length(rate):
    """Terms K after which the geometric bound on the rest of a power-sum
    series is below 2^-53 of its first term: since S'_K - 1 <= (S'_1 - 1)
    exp(-(K - 1) beta eta_1), that bound is at most term 1 times
    exp(-(K - 1) rate)/(exp(rate) - 1)."""
    target = 53.0 * math.log(2.0)
    if rate >= target:
        return 1
    return 1 + math.ceil((target - math.log(math.expm1(rate))) / rate)


def series_oracle(geometry, beta, mu_bar, over_k):
    """The excited sum of _excited_sum as a long power-sum series: every
    term up to four times series_length, so that its own geometric rest is
    below 2^-53 of term 1, and the terms themselves."""
    rate = beta * (3.0 * min(geometry.level_coefficients) - mu_bar)
    length = 4 * series_length(rate)
    k = np.arange(1.0, length + 1.0)
    terms = np.expm1(log_power_sums(geometry, beta, length))
    terms *= np.exp(k * (beta * mu_bar)) / (k if over_k else 1.0)
    return math.fsum(terms), terms


@pytest.mark.parametrize("regime", sorted(REGIME_ALPHAS))
@pytest.mark.parametrize("mu_bar", [0.0, -1e-4, -0.05])
def test_series_tail_bound_covers_remainder(regime, mu_bar):
    """The geometric bound after the 511 exact terms covers the long
    series' terms k >= 512; the far sum that replaces them (over the level
    measure, or with the 1/k weight over the far rule) is within its own
    bound, under 1e-18 of it, of the long series, and below it up to a few
    ulp of rounding."""
    g = BoxGeometry(REGIME_ALPHAS[regime], 5000.0)
    s1 = math.exp(log_power_sums(g, 1.0, 1)[0])
    for over_k in (False, True):
        oracle, terms = series_oracle(g, 1.0, mu_bar, over_k)
        assert len(terms) > grandcanonical._NEAR
        head, tail = grandcanonical._excited_sum(g, 1.0, mu_bar, over_k=over_k, far=False)
        assert 0.0 < math.fsum(terms[grandcanonical._NEAR :]) <= tail
        rest, bound = grandcanonical._far_rest(g, 1.0, mu_bar, s1, over_k)
        value = head + rest
        assert 0.0 < bound < 1e-18 * value
        rounding = 4.0 * 2.0**-52 * oracle
        assert oracle - bound - rounding <= value <= oracle + rounding
        # the full sum reads the far sum exactly where the 511-term bound is not negligible
        far = tail > 2.0**-53 * head
        assert grandcanonical._excited_sum(g, 1.0, mu_bar, over_k=over_k) == (
            (value, bound) if far else (head, tail))


def log_rest_oracle(y):
    """sum_{k >= 512} e^{-k y}/k at 30 digits: z^512 Phi(z, 1, 512), z = e^-y."""
    with mpmath.workdps(30):
        z = mpmath.exp(-mpmath.mpf(y))
        return z**512 * mpmath.lerchphi(z, 1, 512)


# the rest with the 1/k weight rounds by a few ulp of itself: 4 of them,
# or a few subnormal steps where it underflows
def rest_rounding(value):
    return 2.0**-50 * abs(value) + 2.0**-1070


@pytest.mark.parametrize("y", [1e-7, 1e-3, 1.0 / 512.0, 1.0 / 511.0, 0.0109, 0.05, 0.1,
                               1.0, 10.0, 700.0])
def test_log_rest_matches_lerchphi_at_single_nodes(y):
    """Each node's rest with the 1/k weight is the sum itself, not
    -log(1 - e^-y) less its first 511 terms, which at y = 1 left 5.6e-17
    for a true 1.4e-225: up to 512 y = 1 by the exponential integral, past
    it by its own terms, each within a few ulp."""
    got = float(grandcanonical._log_rest(np.array([y]))[0])
    want = log_rest_oracle(y)
    assert abs(got - want) <= rest_rounding(want)


def test_far_rest_of_a_regime_two_box_is_within_its_bound():
    """The far rule's rest at alphas (0.5, 0.3, 0.2), V = 2000, rho = 2
    rho_c, where `bosebox kac` reads it: against lerchphi on the rule's own
    nodes it is within the returned bound, which covers what the rule
    leaves out, and the rounding of a few ulp of the rest. Before, the rest
    was 4.9e-15 off against a bound of 1.9e-22."""
    g = BoxGeometry(REGIME_ALPHAS["II"], 2000.0)
    mu_bar = solve_mu(g, 2.0 * critical_density(1.0).value, 1.0).mu_bar
    s1 = math.exp(log_power_sums(g, 1.0, 1)[0])
    rest, bound = grandcanonical._far_rest(g, 1.0, mu_bar, s1, True)
    weights, nodes, _ = grandcanonical.far_rule(g, 1.0)
    want = mpmath.fsum(mpmath.mpf(float(w)) * log_rest_oracle(float(y))
                       for w, y in zip(weights[1:], nodes[1:] - mu_bar))
    assert abs(rest - want) <= bound + rest_rounding(rest)


def density_rest_oracle(weights, nodes, beta_mu_bar):
    """sum_r w_r z_r^512/(1 - z_r), z_r = e^{beta mu_bar - s_r}, over the
    excited nodes at 30 digits, and the rounding of the same sum in double:
    u (512 y + 4) per term, as e^{-512 y} rounds by 512 y u where y = s -
    beta mu_bar rounds by u."""
    y = nodes[1:] - beta_mu_bar
    terms = weights[1:] * np.exp(-512.0 * y) / -np.expm1(-y)
    with mpmath.workdps(30):
        total = mpmath.fsum(
            mpmath.mpf(float(w)) * mpmath.exp(-512 * t) / -mpmath.expm1(-t)
            for w, t in ((w, mpmath.mpf(float(s)) - mpmath.mpf(beta_mu_bar))
                         for w, s in zip(weights[1:], nodes[1:])))
    return total, 2.0**-52 * float(np.sum(terms * (512.0 * y + 4.0)))


@pytest.mark.parametrize("regime, volume", [
    ("I", 5e3), ("II", 5e3), ("III", 5e3), ("I", 5e5), ("II", 5e5), ("III", 5e5),
    ("II", 3e7),
])
@pytest.mark.parametrize("mu_bar", [0.0, -1e-4, -0.05])
def test_density_rest_on_the_level_measure_is_within_its_bound(regime, volume, mu_bar):
    """The 1/k-free rest that solve_mu reads sums the level measure: it is
    the 30-digit sum over the measure's own entries, and the same sum over
    the far rule's nodes, within the returned bound and their rounding.
    At regime II, V = 3e7, _box_measure compressed its factors, so most
    entries are Gauss nodes themselves."""
    g = BoxGeometry(REGIME_ALPHAS[regime], volume)
    s1 = math.exp(log_power_sums(g, 1.0, 1)[0])
    weights, x, low, _ = grandcanonical._level_measure(g, 1.0)
    assert (np.count_nonzero(x != low) > len(x) // 2) == (volume == 3e7)
    rest, bound = grandcanonical._far_rest(g, 1.0, mu_bar, s1, False)
    exact, rounding = density_rest_oracle(weights, x, mu_bar)
    assert abs(rest - exact) <= bound + rounding
    rule, rule_rounding = density_rest_oracle(*grandcanonical.far_rule(g, 1.0)[:2], mu_bar)
    assert rest - bound - rounding - rule_rounding <= rule <= rest + rounding + rule_rounding


def test_solve_mu_reaches_large_volumes(rho_c_value):
    """Regime II at rho = 2 rho_c and V up to 3e8: each solve meets its
    residual within a second, beta V A |mu_bar| (AC8) rises toward 1, and
    the scaled ladder occupations close in on gc_occupation_limit."""
    regime = classify(REGIME_ALPHAS["II"])
    rho = 2.0 * rho_c_value
    a = solve_ladder_coefficient(rho, rho_c_value).value
    products, gaps = [], []
    for volume in (5e6, 5e7, 3e8):
        g = BoxGeometry(REGIME_ALPHAS["II"], volume)
        start = time.perf_counter()
        sol = solve_mu(g, rho, 1.0)
        assert time.perf_counter() - start < 1.0
        assert sol.residual <= 1e-12 * rho
        products.append(volume * a * abs(sol.mu_bar))
        gaps.append([
            abs(mean_occupation(g, sol.mu_bar, (n, 1, 1), 1.0) / volume
                / gc_occupation_limit(regime, rho, (n, 1, 1), 1.0) - 1.0)
            for n in (1, 2, 3)
        ])
    assert products[0] < products[1] < products[2] < 1.0
    for n in range(3):
        assert gaps[0][n] > gaps[1][n] > gaps[2][n]


def test_solve_mu_builds_no_far_rule_deep_below_saturation(monkeypatch):
    """At beta = 1e-12 the level measure would list millions of levels, but
    the 511 exact terms already pin the root, so solve_mu asks neither for
    the measure nor for the far rule that compresses it."""

    def refuse(*args):
        raise AssertionError("level measure or far rule built")

    monkeypatch.setattr(grandcanonical, "far_rule", refuse)
    monkeypatch.setattr(grandcanonical, "_level_measure", refuse)
    monkeypatch.setattr(spectrum, "_box_measure", refuse)
    sol = solve_mu(BoxGeometry(REGIME_ALPHAS["I"], 1000.0), 0.3, 1e-12)
    assert sol.residual <= 1e-12 * 0.3


def test_solve_mu_reports_a_gap_that_underflows():
    """At V = beta = 1e300, N_0 ~ 1e299 and mu - E_1 ~ -1e-599 is not a
    double: a numerical failure, not a division by zero."""
    g = BoxGeometry(REGIME_ALPHAS["I"], 1e300)
    with pytest.raises(NumericsError, match="underflows"):
        solve_mu(g, 0.33, 1e300)


def test_solve_mu_roundtrip(small_table):
    t = small_table
    for rho in (0.05, 0.4):
        sol = solve_mu(t.geometry, rho, 1.0)
        assert sol.mu < t.ground_energy
        assert sol.mu_bar == pytest.approx(sol.mu - t.ground_energy, abs=1e-15)
        assert gc_density(t.geometry, sol.mu, 1.0) == pytest.approx(rho, rel=1e-11)
        assert sol.residual <= 1e-12 * rho
        assert classify(t.geometry).condensation == "I"


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
        assert direct == pytest.approx(rho - rc, rel=1e-9)
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
    assert direct == pytest.approx(2.0 * rc - rc, rel=1e-8)


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


def test_hurwitz_table_matches_mpmath_to_the_bit():
    with mpmath.workdps(40):
        want = [float(mpmath.zeta(2 * k + 2, 4)) for k in range(30)]
    assert list(grandcanonical._HURWITZ_4) == want


@pytest.mark.parametrize("z", [
    -1e2, -4.5, -4.0, -3.7, -1.0 - 2.0**-52, -1.0 + 2.0**-53, -0.3, 0.0, 0.5,
    0.999, 1.0,
])
def test_ladder_sum_matches_mpmath_nsum(z):
    """Both forms of sum_{j>=2} 1/(j^2 - z), the power series on [-4, 1]
    and the Mittag-Leffler sum below, within 4 ulp of a 40-digit sum."""
    with mpmath.workdps(40):
        want = mpmath.nsum(lambda j: 1 / (j * j - mpmath.mpf(z)), [2, mpmath.inf])
        err = abs(grandcanonical._ladder_sum(z) - want)
    assert err <= 4.0 * math.ulp(float(want))


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("ratio", [1.001, 1.01, 2.0, 5.0, 50.0])
def test_ladder_residual_bounds_the_exact_equation(beta, ratio):
    """The residual is at most 1e-12 from just above saturation up, and it
    bounds the equation's exact imbalance at the root (40 digits)."""
    rc = critical_density(beta).value
    lad = solve_ladder_coefficient(ratio * rc, rc, beta=beta)
    assert lad.residual <= 1e-12
    with mpmath.workdps(40):
        c = mpmath.mpf(beta) * mpmath.pi**2 / 2
        a = mpmath.mpf(lad.value)
        y = mpmath.sqrt(1 / (c * a) - 1)
        rest = (mpmath.pi * y * mpmath.coth(mpmath.pi * y) - 1) / (2 * y * y) - 1 / (1 + y * y)
        imbalance = a + rest / c - (mpmath.mpf(ratio * rc) - mpmath.mpf(rc))
    assert abs(imbalance) <= lad.residual


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
