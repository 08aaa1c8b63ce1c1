"""Number-mixture weights and the limiting occupation laws they converge to."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bosebox import (
    BoxGeometry,
    CutoffInsufficient,
    DomainError,
    PointMass,
    build_canonical,
    classify,
    critical_density,
    decomposition_check,
    empirical_kac_convergence,
    kac_weights,
    limiting_kac_density,
    limiting_kac_transform,
    occupation_laplace,
    solve_mu,
)

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
    for k, lam in (((1, 1, 1), 0.5), ((2, 1, 1), 2.0)):
        lhs, rhs, tail = decomposition_check(mixture_ct, sol.mu, k, lam)
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
    for lam in (0.0, 0.05, 1.0, 20.0):
        _, rhs, _ = decomposition_check(mixture_ct, sol.mu, k, lam)
        assert abs(rhs - reference_mixture_sum(mixture_ct, sol.mu, k, lam)) <= 1e-13


def test_decomposition_rejects_negative_lam(geom_aniso, mixture_ct):
    sol = solve_mu(geom_aniso, 0.1, BETA)
    with pytest.raises(DomainError):
        decomposition_check(mixture_ct, sol.mu, (1, 1, 1), -0.5)


# ------------------------------------------------------------- limit laws


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


# ------------------------------------------------------ empirical convergence


def _mixture(alphas, volume, rho):
    g = BoxGeometry(alphas, volume)
    n_max = int(36.0 * 0.17 * volume + 25.0 * math.sqrt(rho * volume) + 300.0)
    ct = build_canonical(g, BETA, n_max)
    return solve_mu(g, rho, BETA), ct


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
    volumes = (250.0, 1000.0)
    sols, cts = zip(*[_mixture(alphas, v, rho) for v in volumes])
    rows = empirical_kac_convergence(sols, cts, rho, 1.0, BETA, convention=convention)
    assert [r.volume for r in rows] == sorted(r.volume for r in rows)
    assert rows[-1].gap < rows[0].gap
    assert rows[-1].gap < 0.02
    for r in rows:
        assert r.tail_bound < 1e-11


def test_empirical_transform_misses_printed_limit(rc):
    """At the critical anisotropy the printed convention is not the target."""
    rho = 2.0 * rc
    sols, cts = zip(*[_mixture((0.5, 0.3, 0.2), v, rho) for v in (250.0, 1000.0)])
    rows = empirical_kac_convergence(sols, cts, rho, 1.0, BETA, convention="printed")
    assert all(r.gap > 0.4 for r in rows)
