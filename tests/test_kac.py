"""Number-mixture weights and the limiting occupation laws they converge to."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bosebox import (
    BoxGeometry,
    CutoffInsufficient,
    DomainError,
    RegimeLabel,
    build_canonical,
    classify,
    critical_density,
    decomposition_check,
    grand_partition_log,
    kac_weights,
    limiting_kac_transform,
    occupation_laplace,
    solve_ladder_coefficient,
    solve_mu,
)
from bosebox.kac import _TAIL_TARGET, _ladder_prefactor

BETA = 1.0


@pytest.fixture(scope="module")
def rc():
    return critical_density(BETA).value


# ------------------------------------------------------------ finite volume


def test_kac_weights_normalize_subcritical(geom_aniso, mixture_ct):
    sol = solve_mu(geom_aniso, 0.1, BETA)
    kw = kac_weights(mixture_ct, sol.mu)
    assert np.all(kw.weights >= 0.0)
    assert kw.n_cut <= mixture_ct.n_max
    mass = float(kw.weights.sum())
    assert abs(mass - 1.0) <= kw.tail_bound + 1e-11


def test_kac_weights_normalize_supercritical(geom_aniso, mixture_ct, rc):
    sol = solve_mu(geom_aniso, 2.0 * rc, BETA)
    kw = kac_weights(mixture_ct, sol.mu)
    mass = float(kw.weights.sum())
    assert abs(mass - 1.0) <= kw.tail_bound + 1e-11
    assert kw.tail_bound < 1e-12
    # first moment of the mixture is the solved particle number rho V
    n = np.arange(kw.n_cut + 1, dtype=float)
    mean = float((n * kw.weights).sum())
    assert mean == pytest.approx(2.0 * rc * 1000.0, rel=1e-9)
    # heavily skewed above saturation: the peak sits well below the mean
    assert int(np.argmax(kw.weights)) < mean


def reference_kac_weights(ct, mu):
    """kac_weights with its tail scanned one index at a time from the weight
    peak, as before the numpy screen picked the scan's start: the oracle of
    n_cut, the tail bound and the CutoffInsufficient message."""
    beta_mu_bar = ct.beta * (mu - ct.ground_energy)
    log_xi, xi_tail = grand_partition_log(ct.geometry, mu, ct.beta)
    n = np.arange(ct.n_max + 1, dtype=float)
    log_w = ct.log_z_shifted + n * beta_mu_bar - log_xi
    log_ratio = np.diff(ct.log_z_shifted) + beta_mu_bar
    tail = math.inf
    for m in range(int(np.argmax(log_w)), ct.n_max):
        if log_ratio[m] >= 0.0:
            continue
        r = math.exp(log_ratio[m])
        tail = math.exp(log_w[m]) * r / (1.0 - r)
        if tail < _TAIL_TARGET:
            return np.exp(log_w[: m + 1]), tail + abs(math.expm1(xi_tail)), m
    raise CutoffInsufficient(
        f"weights reach tail bound {tail!r} at n_max={ct.n_max}, "
        f"target {_TAIL_TARGET!r}"
    )


@pytest.mark.parametrize("alphas", [(0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)],
                         ids=["I", "II", "III"])
@pytest.mark.parametrize("rho_factor", [0.5, 2.0], ids=["sub", "super"])
def test_screened_scan_matches_scalar_scan(rc, alphas, rho_factor):
    g = BoxGeometry(alphas, 1000.0)
    rho = rho_factor * rc
    n_max = int(1000.0 * (min(rho, rc) + 35.0 * max(rho - rc, 0.0))
                + 25.0 * math.sqrt(rho * 1000.0) + 300.0)
    ct = build_canonical(g, BETA, n_max)
    mu = solve_mu(g, rho, BETA).mu
    kw = kac_weights(ct, mu)
    weights, tail_bound, n_cut = reference_kac_weights(ct, mu)
    assert kw.n_cut == n_cut
    assert kw.tail_bound == tail_bound
    assert np.array_equal(kw.weights, weights)
    # tables that end before the tail is small enough: the same refusal
    for short_max in (n_cut, n_cut - 7, n_cut // 2):
        short = build_canonical(g, BETA, short_max)
        with pytest.raises(CutoffInsufficient) as want:
            reference_kac_weights(short, mu)
        with pytest.raises(CutoffInsufficient) as got:
            kac_weights(short, mu)
        assert str(got.value) == str(want.value)


def test_kac_weights_need_headroom(geom_aniso, rc):
    ct = build_canonical(geom_aniso, BETA, 400)
    sol = solve_mu(geom_aniso, 2.0 * rc, BETA)
    with pytest.raises(CutoffInsufficient):
        kac_weights(ct, sol.mu)


def test_kac_weights_reject_mu_at_ground(mixture_ct):
    with pytest.raises(DomainError):
        kac_weights(mixture_ct, mixture_ct.ground_energy)


def test_decomposition_identity(geom_aniso, mixture_ct, rc):
    """Grand-canonical transforms decompose exactly over the number mixture."""
    sol = solve_mu(geom_aniso, 2.0 * rc, BETA)
    kw = kac_weights(mixture_ct, sol.mu)
    for k, lam in (((1, 1, 1), 0.5), ((2, 1, 1), 2.0)):
        lhs, rhs, tail = decomposition_check(mixture_ct, sol.mu, kw, k, lam)
        budget = tail + 4e-16 * mixture_ct.n_max
        assert abs(lhs - rhs) <= budget


def reference_mixture_sum(ct, mu, k, lam):
    """sum_n w_n E_n[exp(-lam N_k)], one canonical transform per n.

    The O(n_cut^2) loop decomposition_check ran before its sum was regrouped
    into one O(n_cut) dot product; kept as the oracle.
    """
    kw = kac_weights(ct, mu)
    rhs = 0.0
    for n in range(kw.n_cut + 1):
        rhs += float(kw.weights[n]) * occupation_laplace(ct, k, n, lam)
    return rhs


@pytest.mark.parametrize("rho_factor, k", [(2.0, 0), (2.0, 3), (0.6, 0), (0.6, 3)])
def test_decomposition_sum_matches_per_n_oracle(
    geom_aniso, table_aniso, mixture_ct, rc, rho_factor, k
):
    k = tuple(int(v) for v in table_aniso.modes[k])  # the k-th lowest mode
    sol = solve_mu(geom_aniso, rho_factor * rc, BETA)
    kw = kac_weights(mixture_ct, sol.mu)
    for lam in (0.0, 0.05, 1.0, 20.0):
        _, rhs, _ = decomposition_check(mixture_ct, sol.mu, kw, k, lam)
        assert abs(rhs - reference_mixture_sum(mixture_ct, sol.mu, k, lam)) <= 1e-13


def test_decomposition_rejects_negative_lam(geom_aniso, mixture_ct):
    sol = solve_mu(geom_aniso, 0.1, BETA)
    with pytest.raises(DomainError):
        decomposition_check(mixture_ct, sol.mu, kac_weights(mixture_ct, sol.mu),
                            (1, 1, 1), -0.5)


# ------------------------------------------------------------- limit laws

# The limiting density is the oracle for limiting_kac_transform: its
# quadrature against exp(-lam x) must give the closed-form transform.


@dataclass(frozen=True)
class PointMass:
    """Descriptor of a degenerate limit law concentrated at one density."""

    location: float


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



def test_subcritical_law_is_point_mass(rc):
    regime = classify((0.4, 0.35, 0.25))
    out = limiting_kac_density(regime, 0.5 * rc, 1.0, BETA)
    assert isinstance(out, PointMass)
    assert out.location == pytest.approx(0.5 * rc)
    lam = 0.7
    want = math.exp(-lam * 0.5 * rc)
    assert limiting_kac_transform(regime, 0.5 * rc, lam, BETA) == pytest.approx(want)


def test_slow_gap_law_is_point_mass(rc):
    regime = classify((0.6, 0.25, 0.15))
    rho = 2.0 * rc
    assert isinstance(limiting_kac_density(regime, rho, rho, BETA), PointMass)
    assert limiting_kac_transform(regime, rho, 2.0, BETA) == pytest.approx(
        math.exp(-2.0 * rho)
    )


def test_fast_gap_density_closed_form(rc):
    regime = classify((0.4, 0.35, 0.25))
    rho = 2.0 * rc
    delta = rho - rc
    assert limiting_kac_density(regime, rho, rc, BETA) == 0.0
    assert limiting_kac_density(regime, rho, 0.9 * rc, BETA) == 0.0
    x = rc + 0.31
    want = math.exp(-0.31 / delta) / delta
    assert limiting_kac_density(regime, rho, x, BETA) == pytest.approx(want, rel=1e-13)
    mass = quad(lambda s: limiting_kac_density(regime, rho, s, BETA), rc, rc + 50.0)[0]
    assert mass == pytest.approx(1.0, rel=1e-9)


def test_fast_gap_transform_closed_form(rc):
    regime = classify((0.4, 0.35, 0.25))
    rho = 2.0 * rc
    delta = rho - rc
    for lam in (0.4, 3.0):
        direct = quad(
            lambda s: limiting_kac_density(regime, rho, s, BETA) * math.exp(-lam * s),
            rc,
            rc + 80.0,
            limit=200,
        )[0]
        closed = limiting_kac_transform(regime, rho, lam, BETA)
        assert closed == pytest.approx(math.exp(-lam * rc) / (1.0 + lam * delta))
        assert direct == pytest.approx(closed, rel=1e-9)
    with pytest.raises(DomainError):
        limiting_kac_transform(regime, rho, -1.0 / delta, BETA)


def test_critical_ladder_density_mass(rc):
    """Normalized convention integrates to 1; the printed one does not."""
    regime = classify((0.5, 0.3, 0.2))
    rho = 2.0 * rc

    def mass(conv):
        return quad(
            lambda s: limiting_kac_density(regime, rho, s, BETA, convention=conv),
            rc,
            rc + 60.0,
            limit=300,
        )[0]

    assert mass("normalized") == pytest.approx(1.0, rel=1e-9)
    printed = mass("printed")
    assert printed == pytest.approx(1.6999191217693423, rel=1e-9)
    assert printed > 1.5  # clearly not a probability density


def test_critical_ladder_transform_matches_density(rc):
    regime = classify((0.5, 0.3, 0.2))
    rho = 2.0 * rc
    for conv in ("normalized", "printed"):
        for lam in (0.5, 2.5):
            direct = quad(
                lambda s: limiting_kac_density(regime, rho, s, BETA, convention=conv)
                * math.exp(-lam * s),
                rc,
                rc + 80.0,
                limit=300,
            )[0]
            closed = limiting_kac_transform(regime, rho, lam, BETA, convention=conv)
            assert direct == pytest.approx(closed, rel=1e-9)


def test_convention_ratio_is_the_printed_mass(rc):
    # the two conventions differ by a lam-independent prefactor, which is
    # exactly the mass of the printed density
    regime = classify((0.5, 0.3, 0.2))
    rho = 2.0 * rc
    for lam in (0.3, 1.0, 4.0):
        ratio = limiting_kac_transform(
            regime, rho, lam, BETA, convention="printed"
        ) / limiting_kac_transform(regime, rho, lam, BETA, convention="normalized")
        assert ratio == pytest.approx(1.6999191217693423, rel=1e-11)


def test_unknown_convention_rejected(rc):
    regime = classify((0.5, 0.3, 0.2))
    with pytest.raises(DomainError):
        limiting_kac_transform(regime, 2.0 * rc, 1.0, BETA, convention="nope")


@pytest.mark.parametrize("excess", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("convention", ["printed", "normalized"])
def test_ladder_transform_near_saturation_matches_mpmath(rc, excess, convention):
    """Near saturation 1/A is large, and sinh(sqrt z) of the prefactor and
    of the denominator leave the double range (sqrt z = 6028 at 1e-3)
    while their quotient does not: the closed form at 40 digits."""
    regime = classify((0.5, 0.3, 0.2))
    rho = (1.0 + excess) * rc
    a = mpmath.mpf(solve_ladder_coefficient(rho, rc, beta=BETA).value)
    with mpmath.workdps(40):
        def sinc(z):
            return mpmath.sinh(mpmath.sqrt(z)) / mpmath.sqrt(z)

        shift = mpmath.pi if convention == "printed" else mpmath.pi**2
        for lam in (0.1, 1.0, 10.0):
            want = (mpmath.exp(-lam * mpmath.mpf(rc)) * sinc(2 / (BETA * a) - shift)
                    / sinc(2 / (BETA * a) - mpmath.pi**2 + 2 * mpmath.mpf(lam) / BETA))
            got = limiting_kac_transform(regime, rho, lam, BETA, convention=convention)
            assert got == pytest.approx(float(want), rel=1e-11)


# ------------------------------------------------------ empirical convergence


def _mixture(alphas, volume, rho):
    g = BoxGeometry(alphas, volume)
    n_max = int(36.0 * 0.17 * volume + 25.0 * math.sqrt(rho * volume) + 300.0)
    ct = build_canonical(g, BETA, n_max)
    return solve_mu(g, rho, BETA), ct


def empirical_gap(sol, ct, rho, lam, convention):
    """|sum_n w_n exp(-lam n/V) - limiting transform| at one volume (lam > 0),
    and the weights' tail bound."""
    kw = kac_weights(ct, sol.mu)
    n = np.arange(kw.n_cut + 1, dtype=float)
    empirical = float(np.sum(kw.weights * np.exp(-lam * n / ct.volume)))
    regime = classify(ct.geometry)
    limit = limiting_kac_transform(regime, rho, lam, BETA, convention=convention)
    return abs(empirical - limit), kw.tail_bound


@pytest.mark.parametrize(
    "alphas,rho_factor,convention",
    [
        ((0.4, 0.35, 0.25), 0.6, "printed"),
        ((0.4, 0.35, 0.25), 2.0, "printed"),
        ((0.5, 0.3, 0.2), 2.0, "normalized"),
    ],
)
def test_empirical_transform_approaches_limit(rc, alphas, rho_factor, convention):
    rho = rho_factor * rc
    rows = [empirical_gap(*_mixture(alphas, v, rho), rho, 1.0, convention)
            for v in (250.0, 1000.0)]
    assert rows[-1][0] < rows[0][0]
    assert rows[-1][0] < 0.02
    for _, tail_bound in rows:
        assert tail_bound < 1e-11


def test_empirical_transform_misses_printed_limit(rc):
    """At the critical anisotropy the printed convention is not the target."""
    rho = 2.0 * rc
    rows = [empirical_gap(*_mixture((0.5, 0.3, 0.2), v, rho), rho, 1.0, "printed")
            for v in (250.0, 1000.0)]
    assert all(gap > 0.4 for gap, _ in rows)
