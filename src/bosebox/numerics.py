"""Shared low-level numerical helpers.

Everything here is elementary: stable special-function shims, bracketed
root finding and composite Gauss-Legendre rules. Model-specific formulas
live in the topical modules.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .errors import NoConvergence

__all__ = [
    "log1mexp",
    "log_expm1",
    "omega",
    "exp_remainder",
    "sum_exp",
    "solve_bracketed",
    "gauss_panels",
    "refined_panels",
]


def log1mexp(x):
    """log(1 - exp(-x)) for x > 0, stable for both tiny and large x."""
    x = np.asarray(x, dtype=float)
    small = x < math.log(2.0)
    out = np.where(
        small,
        np.log(-np.expm1(-np.where(small, x, 1.0))),
        np.log1p(-np.exp(-np.where(small, 1.0, x))),
    )
    return out if out.ndim else float(out)


def log_expm1(x):
    """log(exp(x) - 1) for x > 0 without overflow."""
    x = np.asarray(x, dtype=float)
    big = x > 30.0
    out = np.where(
        big,
        x + np.log1p(-np.exp(-np.where(big, x, 1.0))),
        np.log(np.expm1(np.where(big, 1.0, x))),
    )
    return out if out.ndim else float(out)


def omega(x):
    """x - log(1 + x), with a series branch protecting small |x|.

    Defined for x > -1; quadratic at the origin, omega(0) = 0 exactly.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, x, 0.0)
    # x^2 (1/2 - x/3 + x^2/4 - x^3/5 + x^4/6): next term ~ x^5/7 < 1e-21
    series = xs * xs * (0.5 + xs * (-1.0 / 3.0 + xs * (0.25 + xs * (-0.2 + xs / 6.0))))
    direct = np.where(small, 0.0, x) - np.log1p(np.where(small, 0.0, x))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def exp_remainder(x):
    """exp(-x) - 1 + x to a few ulp. expm1(-x) + x loses 2 ulp / |x|, so for
    |x| < 1 this sums x^2 sum_{k=2..18} (-x)^(k-2)/k!; the rest is < 2^-55."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1.0
    xs, xd = np.where(small, x, 0.0), np.where(small, 1.0, x)
    acc = np.zeros_like(xs)
    for k in range(18, 1, -1):
        acc = acc * -xs + 1.0 / math.factorial(k)
    out = np.where(small, xs * xs * acc, np.expm1(-xd) + xd)
    return out if out.ndim else float(out)


def sum_exp(terms, *, log=False) -> float:
    """sum(exp(terms)) as exp(peak) s, or its log as peak + log(s), where
    s = sum(exp(terms - peak)) and peak is the largest term: neither overflows."""
    peak = float(terms.max())
    scaled = float(np.exp(terms - peak).sum())
    return peak + math.log(scaled) if log else math.exp(peak) * scaled


def solve_bracketed(
    fn,
    lo,
    hi,
    *,
    expand="none",
    factor=2.0,
    max_expand=200,
    max_iter=200,
    what="root",
):
    """Find a sign change of ``fn`` on [lo, hi], expanding the bracket if asked.

    ``expand`` is "none", "down" (move lo away geometrically) or "up".
    Raises NoConvergence reporting the bracket when no sign change is found
    or the root is not pinned within ``max_iter`` iterations.
    """
    flo, fhi = fn(lo), fn(hi)
    n_expand = 0
    while flo * fhi > 0.0:
        if expand == "down":
            lo = hi - factor * (hi - lo)
            flo = fn(lo)
        elif expand == "up":
            hi = lo + factor * (hi - lo)
            fhi = fn(hi)
        else:
            raise NoConvergence(
                f"no sign change for {what} on bracket [{lo!r}, {hi!r}]"
            )
        n_expand += 1
        if n_expand > max_expand:
            raise NoConvergence(
                f"bracket expansion for {what} exhausted after {max_expand} "
                f"steps; last bracket [{lo!r}, {hi!r}]"
            )
    if flo == 0.0:
        return lo, (lo, hi)
    if fhi == 0.0:
        return hi, (lo, hi)
    root, info = brentq(
        fn, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=max_iter,
        full_output=True, disp=False,
    )
    if not info.converged:
        raise NoConvergence(
            f"{what} not found in {max_iter} iterations on bracket [{lo!r}, {hi!r}]"
        )
    return float(root), (lo, hi)


def gauss_panels(a, b, n_panels, n_nodes):
    """Composite Gauss-Legendre nodes/weights on [a, b] with uniform panels."""
    return _panel_rule(np.linspace(a, b, n_panels + 1), n_nodes)


def refined_panels(a, b, n_nodes=24, n_refine=18):
    """Gauss-Legendre rule on [a, b] with panels shrinking toward both ends.

    Handles integrands that vary over many orders of magnitude near either
    endpoint: panel widths halve geometrically toward a and b.
    """
    length = b - a
    fracs = 0.5 ** np.arange(1, n_refine + 1)
    left = a + length * 0.5 * fracs[::-1]
    right = b - length * 0.5 * fracs[::-1]
    return _panel_rule(np.unique(np.concatenate(([a], left, right[::-1], [b]))), n_nodes)


def _panel_rule(edges, n_nodes):
    """Gauss-Legendre nodes and weights of n_nodes points on every panel."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
