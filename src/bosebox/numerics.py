"""Shared low-level numerical helpers.

Everything here is elementary: stable special-function shims, bracketed
root finding and composite Gauss-Legendre rules. Model-specific formulas
live in the topical modules.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NoConvergence

__all__ = [
    "log1mexp",
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


# solve_bracketed doubles the bracket, and takes Brent steps, at most this often
_MAX_EXPAND = _MAX_ITER = 200


def solve_bracketed(fn, lo, hi, *, expand="none", what="root"):
    """Find a sign change of ``fn`` on [lo, hi], expanding the bracket if asked.

    ``expand`` is "none" or "down" (double the bracket's length by moving
    lo). Raises NoConvergence reporting the bracket when no sign change is
    found or the root is not pinned within _MAX_ITER iterations.
    """
    flo, fhi = fn(lo), fn(hi)
    n_expand = 0
    # signs, not the product, which underflows to 0 for tiny values
    while (flo > 0.0 and fhi > 0.0) or (flo < 0.0 and fhi < 0.0):
        if expand != "down":
            raise NoConvergence(
                f"no sign change for {what} on bracket [{lo!r}, {hi!r}]"
            )
        lo = hi - 2.0 * (hi - lo)
        flo = fn(lo)
        n_expand += 1
        if n_expand > _MAX_EXPAND:
            raise NoConvergence(
                f"bracket expansion for {what} exhausted after {_MAX_EXPAND} "
                f"steps; last bracket [{lo!r}, {hi!r}]"
            )
    if flo == 0.0:
        return lo, (lo, hi)
    if fhi == 0.0:
        return hi, (lo, hi)
    return _brent(fn, lo, hi, float(flo), float(fhi), what), (lo, hi)


# Brent's tolerance on the root is xtol + rtol |x|; rtol is 4 eps rounded up.
_XTOL = 1e-300
_RTOL = 8.9e-16


def _brent(fn, xpre, xcur, fpre, fcur, what):
    """Root of fn on [xpre, xcur], where fpre = fn(xpre) and fcur = fn(xcur)
    are nonzero and of opposite sign: Brent's method (R. P. Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 4), step
    for step as in the widely used C routine brentq.c, so that both return
    the same root to the bit. Where C divides by zero in a trial step it
    gets inf or nan and bisects; here the ZeroDivisionError bisects."""
    bracket = f"[{xpre!r}, {xcur!r}]"
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if math.isnan(fpre) or math.isnan(fcur):
            raise NoConvergence(f"{what}: function value is nan on bracket {bracket}")
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short interpolation step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(fn(xcur))
    raise NoConvergence(f"{what} not found in {_MAX_ITER} iterations on bracket {bracket}")


def gauss_panels(a, b, n_panels, n_nodes):
    """Composite Gauss-Legendre nodes/weights on [a, b] with uniform panels."""
    return _panel_rule(np.linspace(a, b, n_panels + 1), n_nodes)


def refined_panels(a, b, n_nodes=24, n_refine=18):
    """Gauss-Legendre rule on [a, b] with panels shrinking toward both ends.

    Handles integrands that vary over many orders of magnitude near either
    endpoint: panel widths halve geometrically toward a and b (a <= b).
    """
    length = b - a
    fracs = 0.5 ** np.arange(1, n_refine + 1)
    left = a + length * 0.5 * fracs[::-1]
    right = b - length * 0.5 * fracs[::-1]
    # the edges come out sorted; drop the ones that round onto their neighbour
    edges = np.concatenate(([a], left, right[::-1], [b]))
    return _panel_rule(edges[np.concatenate(([True], np.diff(edges) > 0.0))], n_nodes)


def _panel_rule(edges, n_nodes):
    """Gauss-Legendre nodes and weights of n_nodes points on every panel."""
    x, w = _legendre_rule(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _legendre_series(x, c):
    """sum_k c_k P_k(x) by Clenshaw's recurrence, step for step as numpy's
    legval, for len(c) >= 2."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd -= 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=8)
def _legendre_rule(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; the limit laws
    ask for the same rule once per ladder mode.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre polynomials (Golub & Welsch, Math. Comp. 23 (1969) 221),
    polished by one Newton step on P_n; the weights are 1/(P_{n-1} P_n')
    at the nodes, symmetrised and scaled to sum to 2. The arithmetic is
    numpy's leggauss, so the rule is the same to the bit, without
    importing numpy.polynomial.
    """
    n = n_nodes
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[: n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = np.zeros(n + 1)
    p_n[n] = 1.0
    # P_n' = sum of (2k + 1) P_k over k = n-1, n-3, ...
    dp_n = np.where(np.arange(n) % 2 == (n - 1) % 2, 2.0 * np.arange(n) + 1.0, 0.0)
    dy = _legendre_series(x, p_n)
    df = _legendre_series(x, dp_n)
    x -= dy / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
