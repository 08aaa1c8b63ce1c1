"""Canonical (fixed particle number) ensemble on a box spectrum.

A canonical table is built on a BoxGeometry and nothing else. The
n-particle partition function obeys the power-sum recursion

    Z(n) = (1/n) sum_{k=1}^{n} S_k Z(n-k),      S_k = sum_j exp(-k beta E_j),

run after shifting every level by the ground energy (the shift multiplies
Z(n) by a known factor and cancels in all ratios) and stored as log Z'(n).
The shifted power sums S'_k of a box factor exactly over the axes into
one-dimensional theta sums, each O(1) through its Jacobi dual where it
converges slowly (spectrum.log_power_sums), so the recursion needs no
spectral cutoff; the far rule (spectrum.far_rule) drops only levels whose
share of every S'_k it stands for is under e^-50. The grand-canonical sums
read the same two: the exact S'_k for k < 512 and the same far rule.

The recursion is evaluated semi-relaxed (van der Hoeven, J. Symb. Comput.
34 (2002) 479): the power sums are known in advance and only the rows
arrive one at a time, in chunks of 256. The terms k < 256, the near
field, are solved 16 rows at a time: one product with the rows before the
block, then one with the inverse of the block's own triangular system,
whose entries are all nonnegative. The terms k in [256, 512) are one
lower-triangular product with the previous chunk's rows. For every k
beyond, S'_k is replaced by a positive exponential sum
sum_r w_r exp(-k s_r), a Gauss rule of the measure of beta x gap over
the levels, so those terms are a running state per node, advanced once
per chunk. That costs O(n_max (768 + 2R)) flops with R of order 100-300
nodes, one Python-level step per 16 rows and no FFT, needs S'_k only for
k < 512, and stays exact to roundoff: the rule is below every S'_k by a
closed-form relative bound under 1e-18 (see spectrum.far_rule).

Per-mode occupation laws follow from the stripping identity
P(N_k >= j) = exp(-j beta eta_k) Z'(n-j)/Z'(n) with eta_k the gap of mode k;
everything downstream (probabilities, moments, Laplace transforms and the
condensate below a gap window) is built on it. The moments, transforms and
the condensate are folds over its log in chunks of j that stop once a
bound on the terms left is below 2^-53 of their sum, so they cost what
their terms do, often a few hundred of n. A table reads a mode's gap
from its quantum numbers, so the only modes it ever lists are the few
below a condensate window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import DomainError, NumericsError
from .numerics import log1mexp, sum_exp
from .spectrum import (
    BoxGeometry,
    enumerate_below,
    far_rule,
    ground_energy,
    mode_gap,
    mode_gaps,
    near_log_power_sums,
)

__all__ = [
    "CanonicalTable",
    "DiscreteDistribution",
    "build_canonical",
    "occupation_laplace",
    "occupation_pmf",
    "occupation_moment",
    "generalized_condensate",
]

# Semi-relaxed recursion (see build_canonical): the terms k < _P0 of a row
# are solved 16 rows at a time, k in [_P0, 2 _P0) summed against the rows
# of the previous chunk, and k > _P0 past those through the far rule.
_P0 = 256
_RESCALE = 300.0  # rescale the near field's window after growth by e^300
# ln 2 = _LN2_HI + _LN2_LO (fdlibm's split): _LN2_HI has 32 significant
# bits, so k _LN2_HI is exact for |k| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_BLOCK = 16  # rows the near field solves at once, fewer only for huge S'_1
_GROUP = 4 * _P0  # rows whose near-field inverses are built together
# Readers (_survival_chunks): chunks of j grow from _CHUNK_MIN to
# _CHUNK_MAX; a fold stops once a bound on its rest is below _STOP of it.
_CHUNK_MIN = 1 << 10
_CHUNK_MAX = 1 << 20
_STOP = 2.0**-53
_CONDENSATE_BLOCK = 256  # j per block of the condensate's product


@dataclass(frozen=True)
class CanonicalTable:
    """Partition-function table of a box for 0..n_max particles at one
    temperature.

    It holds the whole box spectrum through its power sums and names modes
    by quantum numbers; no mode is listed to build it. ``log_z_shifted[n]``
    is log Z'(n), the log partition function with the ground energy
    subtracted from every level, as the recursion computes it; the true
    log Z(n) is log Z'(n) - n beta E_1.
    """

    geometry: BoxGeometry
    beta: float
    n_max: int
    log_z_shifted: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.log_z_shifted.setflags(write=False)

    @property
    def volume(self) -> float:
        return self.geometry.volume

    @property
    def ground_energy(self) -> float:
        return ground_energy(self.geometry)

    def gap_of(self, k) -> float:
        """Gap above the ground level of the mode with quantum numbers k."""
        return mode_gap(self.geometry, k)

    def gaps_up_to(self, eta: float) -> np.ndarray:
        """Sorted gaps of all modes with gap <= eta, listed from the box."""
        e_max = self.ground_energy + eta
        # a few ulps of slack keep modes whose energy rounds past e_max
        listed = enumerate_below(self.geometry, e_max + 8.0 * math.ulp(e_max))
        gaps = np.sort(mode_gaps(self.geometry, listed.modes))
        return gaps[: int(np.searchsorted(gaps, eta, side="right"))]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function on 0..n."""

    support: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if np.any(m < -1e-15):
            raise NumericsError(f"negative probability mass {m.min()!r}")
        m = np.where(m < 0.0, 0.0, m)
        total = float(m.sum())
        if abs(total - 1.0) > 1e-12:
            raise NumericsError(f"mass sums to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "support", np.asarray(self.support))
        self.mass.setflags(write=False)
        self.support.setflags(write=False)


def _log_partition_shifted(ls, n_max, weights, nodes) -> np.ndarray:
    """log Z'(n), n = 0..n_max, from log S'_k for k <= min(n_max, 2 _P0 - 1)
    (index 0 unused) and the far rule S'_k ~ sum_r weights_r exp(-k nodes_r).

    Rows are computed in chunks [c, c + _P0), in the linear domain against
    the window W(m) = Z'(m)/2^shift. When a chunk starts, the far part of
    its row c + i, the terms k >= _P0, is final: one lower-triangular
    product (``far``) of S'_k/S'_1 with the rows [c - _P0, c), and one
    (``tail``) of w_r e^{-(_P0 + i) s_r}/S'_1 with the states
    H_r = sum_{m < c - _P0} W(m) e^{-(c - _P0 - m) s_r}, which each chunk
    advances by the rows [c - 2 _P0, c - _P0) (``lead``). The near field,
    k < _P0, is solved b rows at a time: with t_k = S'_k/S'_1 the rows y
    of block n0..n0+b-1 satisfy (diag(n/S'_1) - T) y = band W + part, where
    T[i, l] = t_{i-l} couples the rows inside the block, the b x (_P0 - 1)
    Toeplitz part of ``band`` applies t_k to the rows before n0, and
    ``part`` is the far part. The chunk's start writes the far parts into
    the window slots of its rows, and ``band`` ends in b identity columns,
    so one product with the window sums both; a second, with the inverse
    that _near_inverses builds _GROUP rows at a time, writes the block's
    rows over their far parts.

    Whenever a block starts with the last row past e^_RESCALE, the window,
    far parts in it included, and the states are scaled by a power of two,
    which rounds nothing. With Z'(n)/Z'(n-1) <= S'_1 the rows of a block
    stay below e^(_RESCALE + b log S'_1), so b is _BLOCK unless
    b log S'_1 would pass 400, and nothing overflows while S'_1 < e^400. A row never comes back
    from its log: rounding log Z' at its own magnitude would feed an
    absolute error of |log Z'| eps into every later row. lz is written
    once per chunk and before each rescale, as shift ln 2 + log W with
    ln 2 split in two.
    """
    ls1 = float(ls[1])
    s1 = math.exp(ls1)
    grow = math.exp(_RESCALE)
    b = _BLOCK if _BLOCK * ls1 <= 400.0 else max(int(400.0 / ls1), 1)
    # ratio[k] = S'_k / S'_1 for 0 < k < 2 _P0 (0 past n_max); t keeps the
    # near field's k < _P0, far the rest
    ratio = np.zeros(2 * _P0 + b)
    ratio[1 : len(ls)] = np.exp(ls[1:] - ls1)
    t = np.where(np.arange(len(ratio)) < _P0, ratio, 0.0)
    # band[i, j] = t_k for row n0 + i against row n0 - _P0 + 1 + j, then
    # the identity on the block's own slots, which hold its far parts
    band = np.hstack([_toeplitz(t, _P0 - 1, b, _P0 - 1), np.eye(b)])
    # far[i, j] = S'_k / S'_1 for row c + i against row c - _P0 + j, k >= _P0
    far = _toeplitz(ratio - t, _P0, _P0, _P0)
    rows = np.arange(_P0)
    tail = np.exp(np.log(weights) - ls1 - np.multiply.outer(_P0 + rows, nodes))
    lead = np.exp(-np.multiply.outer(nodes, _P0 - rows))
    # e^{-_P0 s} - 1: as a product, e^{-_P0 s} would round to an error of
    # u/(_P0 s) relative in the node, compounded over every chunk
    decay = np.expm1(-_P0 * nodes)
    state = np.zeros(len(nodes))
    lz = np.empty(n_max + 1)
    # W(m) for the rows m in [c - _P0, c + _P0), at m + off; rows m < 0 are
    # 0, and a row not yet solved holds its far part
    window = np.zeros(2 * _P0)
    window[_P0] = 1.0
    shift = 0  # the window holds W(m) = Z'(m) / 2^shift
    log_hi = log_lo = 0.0  # shift ln 2 = log_hi + log_lo
    for c in range(0, n_max + 1, _P0):
        c1 = min(c + _P0, n_max + 1)
        off = _P0 - c
        if c % _GROUP == 0:
            starts = np.concatenate([
                np.arange(max(q, 1), min(q + _P0, n_max + 1), b)
                for q in range(c, min(c + _GROUP, n_max + 1), _P0)
            ])
            inverses = iter(_near_inverses(t, s1, starts, b))
        if c > 0:
            # add the rows [c - 2 _P0, c - _P0)
            state += decay * state + lead.dot(window[:_P0])
            window[:_P0] = window[_P0:]  # the previous chunk's rows
            window[_P0 : _P0 + c1 - c] = far[: c1 - c].dot(window[:_P0])
            window[_P0 : _P0 + c1 - c] += tail[: c1 - c].dot(state)
        done = c
        last = window[_P0 - 1] if c > 0 else 1.0
        for n in range(max(c, 1), c1, b):
            w = n + off
            if last > grow:
                lz[done:n] = log_hi + (log_lo + np.log(window[done + off : w]))
                done = n
                k = math.frexp(last)[1]
                shift += k
                log_hi, log_lo = shift * _LN2_HI, shift * _LN2_LO
                scale = math.ldexp(1.0, -k)
                window[: c1 + off] *= scale
                state *= scale
            inverse = next(inverses)
            if n + b <= c1:
                rhs = band.dot(window[w - _P0 + 1 : w + b])
                np.dot(inverse, rhs, out=window[w : w + b])
                last = window[w + b - 1]
            else:
                r = c1 - n
                rhs = band[:r, : _P0 - 1 + r].dot(window[w - _P0 + 1 : w + r])
                window[w : w + r] = inverse[:r, :r].dot(rhs)
                last = window[w + r - 1]
        lz[done:c1] = log_hi + (log_lo + np.log(window[done + off : c1 + off]))
    return lz


def _toeplitz(v, o, rows, cols) -> np.ndarray:
    """The rows x cols matrix M[i, j] = v[o + i - j], o >= cols - 1."""
    windows = np.lib.stride_tricks.sliding_window_view(v[o - cols + 1 : o + rows], cols)
    return windows[:, ::-1].copy()


def _near_inverses(t, s1, starts, b) -> np.ndarray:
    """(diag(n/S'_1) - T)^-1 for the block of rows n = n0..n0+b-1 of every
    n0 in ``starts``, T[i, l] = t[i - l] for l < i, by forward substitution
    across the blocks: out[i, l, g], column l of row i of block g, so that
    the diagonal and the row scale of every block are one contiguous
    pass each. Every entry is a sum of nonnegative terms. Returned as
    blocks [g, i, l], each a contiguous b x b matrix."""
    out = np.empty((b, b, len(starts)))
    rows = out.reshape(b, -1)
    scale = s1 / (np.arange(b, dtype=float)[:, None] + starts)
    for i in range(b):
        np.dot(t[i:0:-1], rows[:i], out=rows[i])
        out[i, i] += 1.0
        out[i] *= scale[i]
    return out.transpose(2, 0, 1).copy()


def build_canonical(geometry: BoxGeometry, beta: float, n_max: int) -> CanonicalTable:
    """Run the power-sum recursion of a box up to n_max particles.

    The power sums come from the exact theta factorization over the whole
    spectrum, so no spectral cutoff enters; only S'_k with k < 512 are
    read, from the table spectrum.near_log_power_sums builds once per box
    and beta. DomainError if ``geometry`` is not a
    BoxGeometry; CutoffTooLarge if the power sums overflow a double, or if
    an axis holds more than 2^22 levels below the far rule's cut x_c.

    The recursion n Z'(n) = sum_{m<n} S'_{n-m} Z'(m) runs in chunks of
    P0 = 256 rows (_log_partition_shifted). The near field, k < P0, is
    solved in blocks of b = 16 rows (fewer only if 16 log S'_1 > 400, so
    that a block's growth cannot overflow): with t_k = S'_k/S'_1 a block's
    rows y solve (diag(n/S'_1) - T) y = rhs, T[i, l] = t_{i-l}, where rhs
    is one product of the b x 255 band of t_k, widened by b identity
    columns, with the rows before the block and the block's own window
    slots, which hold its far part; y is one product with the inverse of
    that M-matrix, whose entries are sums of nonnegative terms. The far
    part of a chunk's rows is known when it starts: the exact S'_k, k in
    [P0, 2 P0), against the previous chunk, and for the rows before that
    the far rule S'_k ~ sum_r w_r e^{-k s_r} of spectrum.far_rule, below
    every S'_k by at most delta S'_k, delta < 1e-18, one running state per
    node. Cost:
    O(n_max (3 P0 + 2 R)) flops, one Python-level step per block, no FFT.
    On a 2-core x86-64 VM shared with other tenants, with one BLAS
    thread, the first build in a fresh process takes 28-49 ms at
    n_max = 48 102 (regime III, V = 1.45e5; 15 runs) and 0.9-1.5 s at
    n_max = 1 658 692 (regime II, V = 5e6, R = 191, 0.014-0.016 s of it
    the rule; 7 runs).

    Error budget: Z'(n) is a polynomial in the S'_k with nonnegative
    coefficients and at most n factors per term (the cycle index), so S'_k
    low by at most delta S'_k lowers Z'(n) by at most about n delta, and
    moves a ratio Z'(n-j)/Z'(n) by at most about 2 n delta < 2e-18 n. The
    states, like the near field, add nonnegative terms only, and each row
    is rounded relative to itself by O((b + 511 + R) u), u = eps/2. So a
    ratio Z'(n-j)/Z'(n) stays within 4e-16 n, the roundoff budget the CLI
    reports for canonical rows: at V = 5e6, regime II, every ratio is
    within 0.83 of it against a long-double run of the same recursion on
    the same S'_k. The states are held in the linear domain, as the window
    is: sums held as logs would round at |log Z'| (a tile recursion that
    did drifted to 7 times the budget there). The window and the states
    are rescaled by powers of two, which round nothing.
    """
    if not isinstance(geometry, BoxGeometry):
        raise DomainError(f"a canonical table needs a BoxGeometry, got {geometry!r}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max!r}")
    k_near = min(n_max, 2 * _P0 - 1)
    ls = np.concatenate(([np.nan], near_log_power_sums(geometry, beta)[:k_near]))
    rule = far_rule(geometry, beta)[:2] if n_max >= 2 * _P0 else (np.ones(0), np.zeros(0))
    return CanonicalTable(
        geometry=geometry,
        beta=beta,
        n_max=n_max,
        log_z_shifted=_log_partition_shifted(ls, n_max, *rule),
    )


def _check_n(ct: CanonicalTable, n: int) -> int:
    n = int(n)
    if n < 0 or n > ct.n_max:
        raise DomainError(f"particle number {n} outside table range 0..{ct.n_max}")
    return n


def _survival_chunks(ct: CanonicalTable, s: float, n: int):
    """Yield (j0, a), a[i] = a_{j0+i} for j0 <= j0 + i <= j1, where
    a_j = -j s + log Z'(n-j) - log Z'(n) is the log survival of a mode with
    scaled gap s >= 0, made nonincreasing by a running minimum, and
    a_{n+1} = -inf. Each chunk's last entry is the next one's first, so a
    fold sees every pair (a_j, a_{j+1}) in one chunk. Chunks grow from
    _CHUNK_MIN to _CHUNK_MAX values of j by doubling, so a fold that stops
    early has done work in proportion to its terms, and none holds an
    n-length array. With s = 0, e^{a_j} is the ratio Z'(n-j)/Z'(n).

    Where Z' is flat to rounding (a macroscopic ground mode), neighbouring
    log Z' rows can differ by an ulp either way, and a survival log that
    rises by one gives a negative mass. The running minimum, carried from
    chunk to chunk, moves each entry by at most one such rise, without
    adding them up, and leaves a decreasing survival log as it is."""
    rev = ct.log_z_shifted[n::-1]  # rev[j] = log Z'(n - j)
    low = math.inf
    j0, size = 0, _CHUNK_MIN
    while j0 <= n:
        j1 = min(j0 + size, n + 1)
        m = min(j1, n) + 1 - j0  # entries with j <= n
        a = np.empty(j1 + 1 - j0)
        np.multiply(np.arange(j0, j0 + m, dtype=float), -s, out=a[:m])
        a[:m] += rev[j0 : j0 + m]
        a[:m] -= rev[0]
        a[m:] = -math.inf
        # a compare pass costs a quarter of the accumulate
        if a[0] > low or np.any(a[1:] > a[:-1]):
            a[0] = min(a[0], low)
            np.minimum.accumulate(a, out=a)
        low = a[-1]
        yield j0, a
        del a  # a fold may free it before the next chunk is made
        j0, size = j1, min(2 * size, _CHUNK_MAX)


def _fold(ct: CanonicalTable, s: float, n: int, term, rest) -> float:
    """sum of term(j0, a) over the chunks of _survival_chunks, stopping at
    the first chunk after which rest(j1, a_{j1}), a bound on the terms
    still to come, is at most 2^-53 of the sum. term may overwrite a."""
    total = 0.0
    for j0, a in _survival_chunks(ct, s, n):
        j1, last = j0 + len(a) - 1, float(a[-1])
        total += term(j0, a)
        del a
        if rest(j1, last) <= _STOP * total:
            break
    return total


def _decreasing_survival_log(ct: CanonicalTable, k, n: int) -> np.ndarray:
    """a_j of _survival_chunks for j = 0..n + 1, all in one array."""
    a = np.empty(n + 2)
    for j0, chunk in _survival_chunks(ct, ct.beta * ct.gap_of(k), n):
        a[j0 : j0 + len(chunk)] = chunk
    return a


def occupation_laplace(ct: CanonicalTable, k, n: int, lam: float) -> float:
    """Canonical expectation of exp(-lam N_k) at n particles; any real lam.

    For lam > 0 it is the positive-term sum sum_j e^{-lam j} P(N_k = j),
    with P(N_k = j) = e^{a_j} (1 - e^{a_{j+1} - a_j}) from the log
    survival probabilities a_j (_survival_chunks) as in occupation_pmf, so
    a transform that underflows comes out 0, never negative. The terms
    from j = J on sum to at most e^{-lam J} P(N_k >= J) = e^{a_J - lam J},
    so the sum stops at the first chunk after which that is at most 2^-53
    of it. For lam <= 0 it is
    1 - (e^lam - 1) sum_{j=1..n} e^{-j(beta eta_k + lam)} Z'(n-j)/Z'(n),
    two nonnegative terms, with the sum taken in the log domain.
    """
    n = _check_n(ct, n)
    if n == 0:
        return 1.0
    s = ct.beta * ct.gap_of(k)
    if lam > 0.0:

        def term(j0, a):
            drop = np.subtract(a[1:], a[:-1])
            e = np.arange(j0, j0 + len(drop), dtype=float)
            e *= -lam
            a[:-1] += e
            return -float(np.exp(a[:-1], out=a[:-1]).dot(np.expm1(drop, out=drop)))

        return _fold(ct, s, n, term, lambda j, a: math.exp(a - lam * j))
    j = np.arange(1, n + 1, dtype=float)
    lz = ct.log_z_shifted
    terms = -j * (s + lam) + lz[n - 1 :: -1] - lz[n]
    return 1.0 - math.expm1(lam) * sum_exp(terms)


def occupation_pmf(ct: CanonicalTable, k, n: int) -> DiscreteDistribution:
    """Distribution of one mode's occupation at n particles."""
    n = _check_n(ct, n)
    a = _decreasing_survival_log(ct, k, n)
    # a_{j+1} - a_j <= 0: survival probabilities decrease; a_{n+1} = -inf
    mass = np.exp(a[:-1]) * -np.expm1(a[1:] - a[:-1])
    return DiscreteDistribution(support=np.arange(n + 1), mass=mass)


def occupation_moment(ct: CanonicalTable, k, n: int, r: int) -> float:
    """r-th moment of one mode's occupation, r in 1..4.

    Summation by parts over survival probabilities: sum_j (j^r - (j-1)^r)
    P(N_k >= j), all terms positive. With x = j - 1/2 the weights are
    (x + 1/2)^r - (x - 1/2)^r = 1, 2x, 3x^2 + 1/4, x (4x^2 + 1), taken in
    float, exact while below 2^53: integer powers j^r would wrap an int64
    at r = 4 from j = 1.33e6 on. The survival probabilities do not
    increase, so the terms past j = J sum to at most P(N_k >= J)
    (n^r - J^r), and the sum stops at the first chunk after which that is
    at most 2^-53 of it.
    """
    if r not in (1, 2, 3, 4):
        raise DomainError(f"moment order must be 1..4, got {r!r}")
    n = _check_n(ct, n)
    if n == 0:
        return 0.0

    def term(j0, a):
        # j = j0 + 1..j1: a_{j0} is j = 0 or closed the previous chunk
        p = np.exp(a[1:], out=a[1:])
        if r == 1:
            return float(p.sum())
        x = np.arange(j0 + 0.5, j0 + len(a) - 0.5)
        if r == 2:
            return 2.0 * float(x.dot(p))
        if r == 4:
            p *= x
        x *= x
        x *= 4.0 if r == 4 else 3.0
        x += 1.0 if r == 4 else 0.25
        return float(x.dot(p))

    top = float(n) ** r
    s = ct.beta * ct.gap_of(k)
    return _fold(ct, s, n, term, lambda j, a: math.exp(a) * (top - float(j) ** r))


def generalized_condensate(ct: CanonicalTable, n: int, epsilon: float) -> float:
    """Density held by all modes with gap below epsilon at n particles: the
    mean occupations sum_{j=1..n} exp(-j s_i) Z'(n-j)/Z'(n) of
    occupation_moment, s_i = beta eta_i, summed over the modes (a box lists
    only those).

    The ratios Z'(n-j)/Z'(n) fall with j (a particle added to the ground
    mode maps the states of n-j-1 particles into those of n-j), so the terms
    of a mode with s_i > 0 past j = J sum to at most
    exp(-J s_i)/(1 - exp(-s_i)) of its first term: a mode drops out of the
    sum at the first chunk (_survival_chunks, s = 0) that starts past the
    J where that is below 2^-53; the ground mode stays. All modes together
    past J hold at most (n - J) Z'(n-J)/Z'(n) sum_i exp(-J s_i), and the
    sum stops at the first chunk after which that is at most 2^-53 of it.
    Within a chunk, with j = j0 + q B + m + 1, B = _CONDENSATE_BLOCK, and
    m < B, the terms are one product: E[i, m] = exp(-(m + 1) s_i) against
    the ratios R[q, m], weighted by exp(-(j0 + q B) s_i), so a chunk of
    length L costs modes x L / B exponentials, not modes x L.
    """
    n = _check_n(ct, n)
    if epsilon <= 0.0:
        raise DomainError(f"gap window must be positive, got {epsilon!r}")
    gaps = ct.gaps_up_to(epsilon)
    scaled = ct.beta * gaps[gaps < epsilon]  # ascending
    with np.errstate(divide="ignore"):
        reach = (53.0 * math.log(2.0) - log1mexp(scaled)) / scaled
    # minus each mode's cut, ascending as the gaps are
    cuts = -np.where(scaled > 0.0, np.floor(reach) + 1.0, n)
    powers = np.multiply.outer(scaled, -np.arange(1.0, _CONDENSATE_BLOCK + 1.0))
    np.exp(powers, out=powers)

    def term(j0, a):
        live = int(np.searchsorted(cuts, -j0))  # the modes with cut > j0
        ratios = np.zeros(-((1 - len(a)) // _CONDENSATE_BLOCK) * _CONDENSATE_BLOCK)
        np.exp(a[1:], out=ratios[: len(a) - 1])
        inner = powers[:live].dot(ratios.reshape(-1, _CONDENSATE_BLOCK).T)
        starts = np.arange(j0, j0 + len(ratios), _CONDENSATE_BLOCK, dtype=float)
        outer = np.multiply.outer(scaled[:live], -starts)
        return float(np.vdot(np.exp(outer, out=outer), inner))

    def rest(j, a):
        return (n - j) * math.exp(a) * float(np.exp(-j * scaled).sum())

    return _fold(ct, 0.0, n, term, rest) / ct.volume
