"""Low-level helper routines: log-domain shims, series switches, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bosebox import DomainError, NoConvergence
from bosebox.numerics import (
    exp_remainder,
    gauss_panels,
    log1mexp,
    log_expm1,
    omega,
    refined_panels,
    solve_bracketed,
    sum_exp,
)


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


@given(st.floats(min_value=1e-9, max_value=700.0))
def test_log_expm1_inverts_expm1(x):
    assert log_expm1(x) == pytest.approx(math.log(math.expm1(x)), rel=1e-13)


def test_log_expm1_huge_argument_no_overflow():
    assert log_expm1(5000.0) == pytest.approx(5000.0)


def test_omega_series_and_direct_branches_agree():
    """The series branch takes over below |x| = 1e-4; both sides must match."""
    for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        direct = x - math.log1p(x)
        assert omega(x) == pytest.approx(direct, rel=1e-9, abs=1e-25)


def test_omega_zero_is_exact():
    assert omega(0.0) == 0.0


def test_omega_is_nonnegative_and_quadratic_at_origin():
    for x in (-0.5, -1e-3, 1e-3, 0.5, 10.0):
        assert omega(x) >= 0.0
    assert omega(1e-6) == pytest.approx(0.5e-12, rel=1e-5)


@given(st.floats(min_value=-0.99, max_value=50.0))
def test_omega_nonnegative_property(x):
    assert omega(x) >= 0.0


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


def test_refined_panels_log_singularity():
    nodes, weights = refined_panels(0.0, 1.0)
    approx = float(np.sum(weights * np.log(nodes)))
    assert approx == pytest.approx(-1.0, abs=1e-7)
