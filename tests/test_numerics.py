"""Low-level helper routines: log-domain shims, series switches, quadrature."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bosebox import BoxGeometry, DomainError, NoConvergence, grandcanonical, numerics
from bosebox.numerics import (
    exp_remainder,
    gauss_panels,
    log1mexp,
    refined_panels,
    solve_bracketed,
    sum_exp,
)
from conftest import reference_refined_panels


def test_log1mexp_matches_naive_in_safe_range():
    # straddle the branch switch at log(2)
    for x in (1e-3, 0.1, 0.5, math.log(2.0), 1.0, 5.0, 40.0):
        naive = math.log(1.0 - math.exp(-x))
        assert log1mexp(x) == pytest.approx(naive, rel=1e-14)


def test_log1mexp_tiny_argument():
    # 1 - exp(-x) ~ x, so the log must track log(x) instead of blowing up
    assert log1mexp(1e-300) == pytest.approx(math.log(1e-300), rel=1e-12)


def test_log1mexp_vectorized():
    x = np.array([0.1, 1.0, 10.0])
    out = log1mexp(x)
    assert out.shape == (3,)
    for xi, oi in zip(x, out):
        assert oi == pytest.approx(log1mexp(float(xi)), rel=1e-15)


def test_exp_remainder_matches_mpmath_on_both_branches():
    # the series branch ends at |x| = 1; x - expm1(x) style cancellation
    # would lose 2 ulp / |x| below it
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    xs = np.concatenate([-np.logspace(-12, 2, 120), np.logspace(-12, 2.5, 120), [0.999999, 1.0]])
    got = exp_remainder(xs)
    for x, g in zip(xs, got):
        want = mp.exp(-mp.mpf(float(x))) - 1 + mp.mpf(float(x))
        assert abs(g - float(want)) <= 1e-15 * float(want)
    assert exp_remainder(0.0) == 0.0


def test_sum_exp_shifts_by_the_largest_term():
    terms = np.array([1000.0, 1000.0, -1000.0])
    assert sum_exp(terms, log=True) == pytest.approx(1000.0 + math.log(2.0), rel=1e-15)
    assert sum_exp(terms - 1000.0) == pytest.approx(2.0, rel=1e-15)


def test_solve_bracketed_finds_cosine_root():
    root, bracket = solve_bracketed(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert bracket == (1.0, 2.0)


def test_solve_bracketed_expands_down():
    # root at x = 5 sits left of the initial bracket
    fn = lambda x: x - 5.0
    root, bracket = solve_bracketed(fn, 9.0, 10.0, expand="down")
    assert root == pytest.approx(5.0, rel=1e-13)
    assert bracket[0] <= 5.0


def test_solve_bracketed_no_sign_change_raises():
    with pytest.raises(NoConvergence):
        solve_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_solve_bracketed_compares_signs_of_tiny_values():
    """1e-200 * 1e-200 underflows to 0, which must not pass for a sign
    change: the bracket has none, of either sign."""
    for value in (1e-200, -1e-200, 5e-324):
        with pytest.raises(NoConvergence, match="no sign change"):
            solve_bracketed(lambda x: value, 0.0, 1.0)


def _scipy_root(fn, lo, hi):
    return brentq(fn, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def test_brent_matches_scipy_brentq_on_cosine():
    root, _ = solve_bracketed(math.cos, 1.0, 2.0)
    assert root == _scipy_root(math.cos, 1.0, 2.0)


def test_brent_matches_scipy_brentq_on_the_solver_closures(monkeypatch):
    """Every root grandcanonical finds (solve_mu, limiting_mu_bar and the
    ladder equation) is the root scipy's brentq finds on the same bracket."""
    seen = []

    def checked(fn, lo, hi, **kwargs):
        root, bracket = solve_bracketed(fn, lo, hi, **kwargs)
        seen.append((kwargs.get("what"), root, _scipy_root(fn, *bracket)))
        return root, bracket

    monkeypatch.setattr(grandcanonical, "solve_bracketed", checked)
    for alphas in ((0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)):
        for rho in (0.08, 0.3317384186260446):
            grandcanonical.solve_mu(BoxGeometry(alphas, 64000.0), rho, 1.0)
    for rho in (1e-6, 0.01, 0.08, 0.1658):
        grandcanonical.limiting_mu_bar(rho, 1.0)
    rho_c = grandcanonical.critical_density(1.0).value
    for rho in (1.1 * rho_c, 2.0 * rho_c, 10.0 * rho_c):
        # the uncached solve, so that every call runs the root finder
        grandcanonical._ladder_coefficient.__wrapped__(rho, rho_c, 1.0)
    assert {what for what, _, _ in seen} == {
        "chemical potential", "limiting chemical potential", "ladder coefficient"
    }
    for what, got, want in seen:
        assert got == want, what


def test_brent_out_of_iterations_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ITER", 3)
    with pytest.raises(NoConvergence, match="not found in 3 iterations"):
        solve_bracketed(lambda x: x**3 - 2.0, 0.0, 2.0)


def test_brent_nan_raises():
    with pytest.raises(NoConvergence, match="nan"):
        solve_bracketed(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0)


def test_gauss_panels_integrates_polynomial_exactly():
    nodes, weights = gauss_panels(0.0, 2.0, 4, 8)
    # degree-7 polynomial is exact for 8-node Gauss-Legendre
    approx = float(np.sum(weights * nodes**7))
    assert approx == pytest.approx(2.0**8 / 8.0, rel=1e-14)


def test_refined_panels_weights_cover_interval():
    nodes, weights = refined_panels(0.0, 1.0)
    assert float(weights.sum()) == pytest.approx(1.0, rel=1e-14)
    assert nodes.min() > 0.0 and nodes.max() < 1.0


def test_refined_panels_handles_huge_dynamic_range():
    # integrand spans hundreds of orders of magnitude toward 0, which is the
    # shape the geometric end refinement exists for
    nodes, weights = refined_panels(0.0, 1.0)
    approx = float(np.sum(weights * np.exp(-1.0 / nodes) / nodes**2))
    assert approx == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_panel_rules_share_one_read_only_legendre_rule():
    first = numerics._legendre_rule(24)
    assert numerics._legendre_rule(24) is first
    assert not first[0].flags.writeable and not first[1].flags.writeable
    x, w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(first[0], x) and np.array_equal(first[1], w)


@pytest.mark.parametrize("a, b, n_refine", [
    (0.0, 1.0, 18),
    (0.0, 0.1341307906869777, 20),
    (0.0, 1e-300, 20),
    (0.0, 5e-324, 20),  # the edges collapse onto a and b
    (-3.0, 7.5, 30),
    (1.0, 1.0, 18),  # empty interval, one edge
    (1.0, math.nextafter(1.0, 2.0), 18),  # one ulp wide
    (1e300, math.nextafter(1e300, math.inf), 20),
    (1e300, 3e300, 60),  # past 2^-53 of the length the halvings repeat
    (0.0, 1e300, 1100),  # the halvings underflow to a
])
def test_refined_panels_match_the_unique_form(a, b, n_refine):
    got = refined_panels(a, b, n_nodes=24, n_refine=n_refine)
    want = reference_refined_panels(a, b, n_nodes=24, n_refine=n_refine)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_refined_panels_log_singularity():
    nodes, weights = refined_panels(0.0, 1.0)
    approx = float(np.sum(weights * np.log(nodes)))
    assert approx == pytest.approx(-1.0, abs=1e-7)
