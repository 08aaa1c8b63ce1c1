"""Canonical (fixed particle number) ensemble on a box spectrum.

The n-particle partition function obeys the power-sum recursion

    Z(n) = (1/n) sum_{k=1}^{n} S_k Z(n-k),      S_k = sum_j exp(-k beta E_j),

run after shifting every level by the ground energy (the shift multiplies
Z(n) by a known factor and cancels in all ratios) and stored as log Z'(n).
For a box the shifted power sums S'_k factor exactly over the axes into
one-dimensional theta sums, each O(1) through its Jacobi dual where it
converges slowly (spectrum.log_power_sums, the primitive the
grand-canonical sums read too), so no spectral cutoff enters the recursion
at all.

The recursion is evaluated semi-relaxed (van der Hoeven, J. Symb. Comput.
34 (2002) 479): the power sums are known in advance and only the rows
arrive one at a time. The terms S'_k Z'(n-k) with k >= 256 are split into
dyadic tiles, rows [e - P, e) against S'_k, k in [P, 2P), each one FFT of
length 2P run as soon as its rows are final. The terms k < 256, the near
field, are solved 16 rows at a time: one product with the rows before the
block, then one with the inverse of the block's own triangular system,
whose entries are all nonnegative. That costs O(n_max log^2 n_max) for
the tiles plus O(256 n_max) for the near field, with one Python-level step
per 16 rows, against O(n_max^2) for the plain row-by-row sum, and stays
exact to roundoff: every tile's FFT error has a rigorous bound, and a tile
whose bound is too large is convolved directly instead (see
build_canonical).

Per-mode occupation laws follow from the stripping identity
P(N_k >= j) = exp(-j beta eta_k) Z'(n-j)/Z'(n) with eta_k the gap of mode k;
everything downstream (probabilities, moments, Laplace transforms and the
condensate below a gap window) is built on it. A box table reads a mode's
gap from its quantum numbers, so the only modes it ever lists are the few
below a condensate window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import CutoffInsufficient, CutoffTooLarge, DomainError, NumericsError
from .numerics import log1mexp, sum_exp
from .spectrum import (
    _EXP_FLOOR,
    BoxGeometry,
    enumerate_below,
    ground_energy,
    log_power_sums,
    mode_gap,
    mode_gaps,
)

__all__ = [
    "CanonicalTable",
    "DiscreteDistribution",
    "build_canonical",
    "occupation_survival_log",
    "occupation_laplace",
    "occupation_pmf",
    "occupation_moment",
    "generalized_condensate",
]

# Semi-relaxed recursion (see build_canonical): the terms k < _P0 of a row
# are summed directly, every k >= _P0 by one FFT tile.
_P0 = 256
# FFT convolution error bound |error|_inf <= _FFT_ERR log2(L) |x|_2 |s|_2
# for length L = 2^p: Percival's (12.7 p + 2.3) u, u = eps/2 the unit
# roundoff, is below 16 p eps with a factor 2 to spare for numpy's
# real-input transform.
_FFT_ERR = 16.0 * float(np.finfo(float).eps)
_TILE_TOL = 2e-16  # FFT error a tile may add per row it spans
_RESCALE = 300.0  # rescale the near field's window after growth by e^300
# ln 2 = _LN2_HI + _LN2_LO (fdlibm's split): _LN2_HI has 32 significant
# bits, so k _LN2_HI is exact for |k| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_BLOCK = 16  # rows the near field solves at once, fewer only for huge S'_1
_GROUP = 4 * _P0  # rows whose near-field inverses are built together


@dataclass(frozen=True)
class CanonicalTable:
    """Partition-function table for 0..n_max particles at one temperature.

    A box table (``geometry`` set, ``gaps`` None) holds the whole box
    spectrum through its power sums and names modes by quantum numbers; no
    mode is listed to build it. A level-list table (``geometry`` None)
    holds the sorted gaps of its levels above the lowest one and names
    modes by row index. ``log_z_shifted[n]`` is log Z'(n), the log
    partition function with the ground energy subtracted from every level,
    as the recursion computes it; ``log_z`` is the true log Z(n), derived
    from it on each read.
    """

    geometry: BoxGeometry | None
    gaps: np.ndarray | None = field(repr=False)
    ground_energy: float
    beta: float
    n_max: int
    volume: float
    log_z_shifted: np.ndarray = field(repr=False)

    def __post_init__(self):
        for values in (self.gaps, self.log_z_shifted):
            if values is not None:
                values.setflags(write=False)

    @property
    def log_z(self) -> np.ndarray:
        n = np.arange(self.n_max + 1, dtype=float)
        return self.log_z_shifted - n * self.beta * self.ground_energy

    def index_of(self, k) -> int:
        """Row of a level-list mode given as its row index."""
        if self.gaps is None:
            raise DomainError("a box table names modes by quantum numbers, not rows")
        if not isinstance(k, (int, np.integer)):
            raise DomainError(f"a level-list table names modes by row index, got {k!r}")
        idx = int(k)
        if idx < 0 or idx >= len(self.gaps):
            raise DomainError(f"mode index {idx} outside table of {len(self.gaps)}")
        return idx

    def gap_of(self, k) -> float:
        """Gap above the ground level of a mode: quantum numbers on a box
        table (mode_gap), a row index on a level list."""
        if self.geometry is not None:
            return mode_gap(self.geometry, k)
        return float(self.gaps[self.index_of(k)])

    def gaps_up_to(self, eta: float) -> np.ndarray:
        """Sorted gaps of all modes with gap <= eta; a box lists only those."""
        if self.geometry is None:
            gaps = self.gaps
        else:
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

    def moment(self, r: int) -> float:
        return float(np.sum(self.support.astype(float) ** r * self.mass))


def _direct_log_power_sums(gaps: np.ndarray, beta: float, n_max: int) -> np.ndarray:
    """log of shifted power sums summed directly over a finite level list."""
    out = np.full(n_max + 1, np.nan)
    scaled = beta * gaps
    for k in range(1, n_max + 1):
        x = k * scaled
        mask = x < _EXP_FLOOR
        out[k] = math.log(float(np.exp(-x[mask]).sum())) if mask.any() else -math.inf
    return out


def _log_partition_shifted(ls: np.ndarray, n_max: int) -> np.ndarray:
    """log Z'(n), n = 0..n_max, from log S'_k (index 0 unused), semi-relaxed.

    Rows are computed in chunks [c, c + _P0). When a chunk starts, rows
    0..c-1 are final, so every tile ending at c runs (_run_tiles) and the
    far part of each row in the chunk, the ground share plus the tiles'
    sums, is known. What is left is the near field, the terms k < _P0, in
    the linear domain against the window W(m) = Z'(m)/2^shift. It is
    solved b rows at a time: with t_k = S'_k/S'_1, the rows y of a block
    n0..n0+b-1 satisfy (diag(n/S'_1) - T) y = band W + part, where
    T[i, l] = t_{i-l} couples the rows inside the block, the fixed
    b x (_P0 - 1) Toeplitz ``band`` applies t_k to the rows before n0,
    and ``part`` is the far part over S'_1. So a block costs two small
    matrix-vector products against the inverses of its triangular matrix,
    which _near_inverses builds _GROUP rows at a time.

    Whenever a block starts with the last row past e^_RESCALE, the window
    and the ground share are scaled by a power of two, which rounds
    nothing. With Z'(n)/Z'(n-1) <= S'_1 the rows of a block stay below
    e^(_RESCALE + b log S'_1), so b is _BLOCK unless b log S'_1 would pass
    400, and nothing overflows while S'_1 < e^400. A row enters the window
    rounded relative to itself, and never comes back from its log:
    rounding log Z' at its own magnitude would feed an absolute error of
    |log Z'| eps into every later row. lz is written once per chunk and
    before each rescale, as shift ln 2 + log W with ln 2 split in two.

    CutoffTooLarge if some S'_k overflows a double.
    """
    # the largest S'_k - 1 overflows iff some does; the max is nan if any
    # entry is, and needs no temporary array
    with np.errstate(over="ignore"):
        if not math.isfinite(np.expm1(ls[1:].max())):
            raise CutoffTooLarge("power sums overflow a double at this volume and beta")
    ls1 = float(ls[1])
    s1 = math.exp(ls1)
    grow = math.exp(_RESCALE)
    b = _BLOCK if _BLOCK * ls1 <= 400.0 else max(int(400.0 / ls1), 1)
    # t[k] = S'_k / S'_1 for 0 < k < _P0 (0 past n_max), and 0 elsewhere
    t = np.zeros(_P0 + b)
    top = min(_P0 - 1, n_max)
    t[1 : top + 1] = np.exp(ls[1 : top + 1] - ls1)
    # band[i, j] = t_k for row n0 + i against row n0 - _P0 + 1 + j
    band = t[_P0 - 1 + np.arange(b)[:, None] - np.arange(_P0 - 1)]
    # until row n is final, lz[n] holds the log of its tile sums so far
    lz = np.full(n_max + 1, -np.inf)
    lz[0] = 0.0
    # W(m) for the rows m in [c - _P0, c + _P0), at m + off; rows m < 0 are 0
    window = np.zeros(2 * _P0)
    window[_P0] = 1.0
    shift = 0  # the window holds W(m) = Z'(m) / 2^shift
    log_hi = log_lo = 0.0  # shift ln 2 = log_hi + log_lo
    head = 0.0  # sum of W(m) over the rows m < c - _P0
    kernels = {}
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
            window[:_P0] = window[_P0:]  # the previous chunk's rows
            # ground share sum_{m <= n - _P0} Z'(m) of each row n of the chunk
            cum = head + np.cumsum(window[:_P0])
            head = float(cum[-1])
            ground = cum[: c1 - c]
            _run_tiles(lz, ls, kernels, c, s1 - 1.0 + head / window[_P0 - 1])
        else:
            ground = np.zeros(c1)
        tiles = lz[c:c1] - ls1
        with np.errstate(over="ignore"):
            part = ground / s1 + np.exp(tiles - (log_hi + log_lo))
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
                window[:w] *= scale
                head *= scale
                ground *= scale
                with np.errstate(over="ignore"):
                    part = ground / s1 + np.exp(tiles - (log_hi + log_lo))
            r = min(b, c1 - n)
            rhs = band[:r].dot(window[w - _P0 + 1 : w])
            rhs += part[n - c : n - c + r]
            window[w : w + r] = next(inverses)[:r, :r].dot(rhs)
            last = window[w + r - 1]
        lz[done:c1] = log_hi + (log_lo + np.log(window[done + off : c1 + off]))
    return lz


def _near_inverses(t, s1, starts, b) -> np.ndarray:
    """(diag(n/S'_1) - T)^-1 for the block of rows n = n0..n0+b-1 of every
    n0 in ``starts``, T[i, l] = t[i - l] for l < i, by forward substitution
    across the blocks. Every entry is a sum of nonnegative terms."""
    out = np.empty((b, len(starts), b))  # out[i, g] is row i of block g
    rows = out.reshape(b, -1)
    scale = s1 / (np.arange(b, dtype=float)[:, None] + starts)
    for i in range(b):
        np.dot(t[i:0:-1], rows[:i], out=rows[i])
        out[i, :, i] += 1.0
        out[i] *= scale[i][:, None]
    return out.transpose(1, 0, 2).copy()


def _run_tiles(lz, ls, kernels, e, bound) -> None:
    """Every tile that ends at row e, added to the log tile sums that the
    rows n >= e hold in ``lz`` until they are final.

    For each P = _P0 2^i dividing e, the tile convolves x_m = Z'(m)/Z'(e-1)
    <= 1 (Z' does not decrease), m in [e - P, e), with the excess kernel
    S'_k - 1, k in [P, 2P), by one real FFT of length 2P; row n in
    [e, e + 2P - 1) gets Z'(e-1) sum_{m + k = n} x_m (S'_k - 1). A level's
    kernel (_kernel) is the same for all its tiles, so ``kernels`` keeps it
    from the level's first tile to its last.

    ``bound`` = S'_1 + sum_{m < e-1} x_m is at most n Z'(n)/Z'(e-1) for
    every row n >= e (the terms m < e-1 and m = n-1 of its sum). A tile
    whose FFT error bound exceeds _TILE_TOL P bound is convolved directly.
    """
    n_max = len(lz) - 1
    low = e & -e  # the largest power of two dividing e
    p = _P0
    while p <= low:
        seg, norm, spectrum = kernels.pop(p, None) or _kernel(ls, p)
        if norm > 0.0:  # else S'_k = 1 over the segment: nothing to add
            rows = min(2 * p - 1, n_max + 1 - e)
            x = np.exp(lz[e - p : e] - lz[e - 1])
            err = _FFT_ERR * math.log2(2 * p) * math.sqrt(float(np.sum(x * x))) * norm
            if err <= _TILE_TOL * p * bound:
                product = np.fft.rfft(x, 2 * p)
                product *= spectrum
                conv = np.fft.irfft(product, 2 * p)[:rows]
            else:
                conv = np.convolve(x, seg)[:rows]
            np.maximum(conv, 0.0, out=conv)
            with np.errstate(divide="ignore"):
                np.log(conv, out=conv)
            conv += lz[e - 1]
            np.logaddexp(lz[e : e + rows], conv, out=lz[e : e + rows])
        if e + p <= n_max:  # the level has another tile
            kernels[p] = (seg, norm, spectrum)
        p *= 2


def _kernel(ls: np.ndarray, p: int):
    """The excess kernel S'_k - 1, k in [p, 2p), its 2-norm and its real
    spectrum of length 2p (None if the kernel is 0)."""
    seg = np.expm1(ls[p : 2 * p])
    # squared norm by np.sum: a threaded BLAS dot of this length leaves its
    # threads spinning, for more CPU time than wall time
    norm = math.sqrt(float(np.sum(seg * seg)))
    return seg, norm, np.fft.rfft(seg, 2 * p) if norm > 0.0 else None


def build_canonical(
    geometry,
    beta: float,
    n_max: int,
    *,
    volume: float | None = None,
) -> CanonicalTable:
    """Run the power-sum recursion up to n_max particles.

    ``geometry`` is either a BoxGeometry or a plain sequence of level
    energies. A box gets its power sums from the exact theta factorization
    over the whole spectrum (spectrum.log_power_sums), so no mode is
    listed and no spectral cutoff enters; its volume is the box's. A level
    list is summed directly, with volume ``volume`` (default 1), and
    CutoffInsufficient is raised if it is empty.

    The recursion n Z'(n) = sum_{m<n} S'_{n-m} Z'(m) is split by k = n - m.
    Since Z' does not decrease, each tile normalizes its rows to
    x_m = Z'(m)/Z'(e-1) <= 1. Writing S'_k = 1 + (S'_k - 1), the terms
    k >= P0 = 256 fall into the ground mode's share sum_{m <= n-P0} Z'(m),
    a running prefix sum, and the excess part, which the tiles compute:
    for every P = P0 2^i dividing e, once rows 0..e-1 are final, the rows
    m in [e - P, e) against S'_k - 1, k in [P, 2P), by one real FFT of
    length 2P, feeding rows [e, e + 2P - 1). Each level's kernel spectrum
    is computed once. The terms k < P0, the near field, are solved in
    chunks of P0 rows, whose far part is known when the chunk starts, and
    within a chunk in blocks of b = 16 rows (fewer only if 16 log S'_1
    > 400, so that a block's growth cannot overflow). With t_k =
    S'_k/S'_1, a block's rows y solve (diag(n/S'_1) - T) y = rhs,
    T[i, l] = t_{i-l}: rhs is one product of the fixed b x 255 band of
    t_k with the 255 rows before the block, plus the far part, and y is
    one product with the inverse of the lower-triangular matrix, built by
    forward substitution for 1024 rows of blocks at a time. That inverse
    is an M-matrix inverse: every entry is a sum of nonnegative terms, so
    nothing cancels, and each row is rounded relative to itself by
    O((b + 255) u), u = eps/2, as the row-by-row dot of 255 terms was by
    O(255 u). Cost: O(n_max log^2 n_max) for the tiles plus O(n_max P0)
    for the near field, with one Python-level step per block; on a 2-core
    x86-64 VM the recursion takes about 0.1 s at n_max = 48 102 and the
    whole build 3.5-5.1 s at n_max = 1 658 692 (V = 5e6, regime II),
    against 5.4-6.9 s with one step per row and about 160 s for fixed
    blocks of 2048 rows with one FFT each.

    FFT error bound: for transform length L the computed convolution is
    off by at most 16 eps log2(L) |x|_2 |S' - 1|_2 in every entry (Percival,
    Math. Comp. 72 (2003) 387, with a factor 2 to spare). A row n >= e
    has n Z'(n) >= Z'(e-1) (S'_1 + sum_{m < e-1} x_m), so each tile checks
    its bound against 2e-16 P times that, and is convolved directly
    (np.convolve) if it fails. A tile's terms reach across at least
    P rows (k >= P), so along any chain of dependencies the tiles add at
    most 2e-16 per row spanned, as the fixed blocks did; with the near
    field's rounding a ratio Z'(n-j)/Z'(n) stays within 4e-16 n, the
    roundoff budget the CLI reports for canonical rows. The window of the
    near field is rescaled by powers of two, which round nothing, so the
    budget holds however often it rescales (every 11 rows or so at
    log S'_1 = 28).
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max!r}")
    if isinstance(geometry, BoxGeometry):
        box, gaps = geometry, None
        ground = ground_energy(geometry)
        vol = geometry.volume
        log_s_shifted = np.concatenate(([np.nan], log_power_sums(geometry, beta, n_max)))
    else:
        energies = np.sort(np.asarray(list(geometry), dtype=float))
        if len(energies) == 0:
            raise CutoffInsufficient("level list is empty")
        box = None
        ground = float(energies[0])
        gaps = energies - ground
        vol = 1.0 if volume is None else float(volume)
        log_s_shifted = _direct_log_power_sums(gaps, beta, n_max)
    return CanonicalTable(
        geometry=box,
        gaps=gaps,
        ground_energy=ground,
        beta=beta,
        n_max=n_max,
        volume=vol,
        log_z_shifted=_log_partition_shifted(log_s_shifted, n_max),
    )


def _check_n(ct: CanonicalTable, n: int) -> int:
    n = int(n)
    if n < 0 or n > ct.n_max:
        raise DomainError(f"particle number {n} outside table range 0..{ct.n_max}")
    return n


def occupation_survival_log(ct: CanonicalTable, k, n: int) -> np.ndarray:
    """log P(N_k >= j) for j = 0..n via the stripping identity."""
    n = _check_n(ct, n)
    eta = ct.gap_of(k)
    j = np.arange(n + 1, dtype=float)
    lz = ct.log_z_shifted
    return -j * (ct.beta * eta) + lz[n::-1] - lz[n]


def _decreasing_survival_log(ct: CanonicalTable, k, n: int) -> np.ndarray:
    """occupation_survival_log made nonincreasing by a running minimum.

    Where Z' is flat to rounding (a macroscopic ground mode), neighbouring
    log Z' rows can differ by an ulp either way, and a survival log that
    rises by one gives a negative mass. The running minimum moves each
    entry by at most one such rise, without adding them up, and leaves a
    decreasing survival log as it is."""
    a = occupation_survival_log(ct, k, n)
    return np.minimum.accumulate(a) if np.any(a[1:] > a[:-1]) else a


def occupation_laplace(ct: CanonicalTable, k, n: int, lam: float) -> float:
    """Canonical expectation of exp(-lam N_k) at n particles; any real lam.

    For lam > 0 it is the positive-term sum sum_j e^{-lam j} P(N_k = j),
    with P(N_k = j) = e^{a_j} (1 - e^{a_{j+1} - a_j}) from the log
    survival probabilities a_j (_decreasing_survival_log) as in
    occupation_pmf, so a transform that underflows comes out 0, never
    negative. For lam <= 0 it is
    1 - (e^lam - 1) sum_{j=1..n} e^{-j(beta eta_k + lam)} Z'(n-j)/Z'(n),
    two nonnegative terms, with the sum taken in the log domain.
    """
    n = _check_n(ct, n)
    if n == 0:
        return 1.0
    if lam > 0.0:
        a = np.append(_decreasing_survival_log(ct, k, n), -math.inf)
        exponents = a[:-1] - lam * np.arange(n + 1, dtype=float)
        # the exponents decrease, and the terms from e^-745 on round to 0
        top = int(np.searchsorted(-exponents, _EXP_FLOOR))
        terms = np.exp(exponents[:top]) * -np.expm1(a[1 : top + 1] - a[:top])
        return float(terms.sum())
    eta = ct.gap_of(k)
    j = np.arange(1, n + 1, dtype=float)
    lz = ct.log_z_shifted
    terms = -j * (ct.beta * eta + lam) + lz[n - 1 :: -1] - lz[n]
    return 1.0 - math.expm1(lam) * sum_exp(terms)


def occupation_pmf(ct: CanonicalTable, k, n: int) -> DiscreteDistribution:
    """Distribution of one mode's occupation at n particles."""
    n = _check_n(ct, n)
    a = _decreasing_survival_log(ct, k, n)
    mass = np.empty(n + 1, dtype=float)
    if n >= 1:
        drop = a[:-1] - a[1:]  # >= 0: survival probabilities decrease
        mass[:-1] = np.exp(a[:-1]) * (-np.expm1(-drop))
    mass[-1] = math.exp(a[-1])
    return DiscreteDistribution(support=np.arange(n + 1), mass=mass)


def occupation_moment(ct: CanonicalTable, k, n: int, r: int) -> float:
    """r-th moment of one mode's occupation, r in 1..4.

    Summation by parts over survival probabilities: sum_j (j^r - (j-1)^r)
    P(N_k >= j); the integer weights are exact, and all terms are positive.
    """
    if r not in (1, 2, 3, 4):
        raise DomainError(f"moment order must be 1..4, got {r!r}")
    n = _check_n(ct, n)
    if n == 0:
        return 0.0
    a = occupation_survival_log(ct, k, n)
    j = np.arange(1, n + 1, dtype=np.int64)
    weights = (j**r - (j - 1) ** r).astype(float)
    return float(np.sum(weights * np.exp(a[1:])))


def generalized_condensate(ct: CanonicalTable, n: int, epsilon: float) -> float:
    """Density held by all modes with gap below epsilon at n particles: the
    mean occupations sum_{j=1..n} exp(-j beta eta_i) Z'(n-j)/Z'(n) of
    occupation_moment, summed over the modes (a box lists only those).

    The ratios Z'(n-j)/Z'(n) fall with j (a particle added to the ground
    mode maps the states of n-j-1 particles into those of n-j), so the terms
    of a mode with s = beta eta_i > 0 past j = J sum to at most
    exp(-J s)/(1 - exp(-s)) of its first term. Each mode stops at the
    first J where that is below 2^-53; the ground mode keeps all n."""
    n = _check_n(ct, n)
    if epsilon <= 0.0:
        raise DomainError(f"gap window must be positive, got {epsilon!r}")
    gaps = ct.gaps_up_to(epsilon)
    scaled = ct.beta * gaps[gaps < epsilon]
    lz = ct.log_z_shifted
    ratios = np.exp(lz[n - 1 :: -1] - lz[n])  # j = 1..n
    with np.errstate(divide="ignore"):
        reach = (53.0 * math.log(2.0) - log1mexp(scaled)) / scaled
    cuts = np.where(scaled > 0.0, np.minimum(np.floor(reach) + 1.0, n), n).astype(np.int64)
    j = np.arange(1.0, n + 1.0)
    per_mode = (np.sum(ratios[:c] * np.exp(-s * j[:c])) for s, c in zip(scaled, cuts))
    return math.fsum(per_mode) / ct.volume
