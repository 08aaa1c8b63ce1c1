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

The recursion is evaluated in blocks of rows, a simple case of relaxed
(online) multiplication (van der Hoeven, J. Symb. Comput. 34 (2002)). The
terms a block needs from rows well before it are one convolution of
positive numbers, done by one FFT per block; only the terms from the block
and the rows just before it are summed directly. That costs
O(n_max^2 log(n_max) / B + n_max B) for block length B, against O(n_max^2)
for the plain row-by-row sum, and stays exact to roundoff: every block's
FFT error has a rigorous bound, and a block whose bound is too large is
summed directly instead (see build_canonical).

Per-mode occupation laws follow from the stripping identity
P(N_k >= j) = exp(-j beta eta_k) Z'(n-j)/Z'(n) with eta_k the gap of mode k;
everything downstream (probabilities, moments, Laplace transforms, the
per-mode step measures and their pressure-like normalizers) is built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CutoffInsufficient, DomainError, NumericsError
from .numerics import log1mexp, log_expm1, sum_exp
from .spectrum import _EXP_FLOOR, SpectrumTable, log_power_sums

__all__ = [
    "CanonicalTable",
    "DiscreteDistribution",
    "ModeMeasure",
    "build_canonical",
    "occupation_survival_log",
    "occupation_laplace",
    "occupation_pmf",
    "occupation_moment",
    "generalized_condensate",
    "shifted_pressure",
    "mode_measure",
    "mode_measure_laplace",
    "mode_measure_reconstruct",
]

# Blocked recursion (see build_canonical). The _NEAR rows just before a
# block stay in its direct sum: they meet the largest power sums, which
# would dominate the FFT error bound.
_BLOCK = 2048
_NEAR = 256
# FFT convolution error bound |error|_inf <= _FFT_ERR log2(L) |x|_2 |s|_2
# for length L = 2^p: Percival's (12.7 p + 2.3) u, u = eps/2 the unit
# roundoff, is below 16 p eps with a factor 2 to spare for numpy's
# real-input transform.
_FFT_ERR = 16.0 * float(np.finfo(float).eps)
_FFT_REL_TOL = 2e-16 * _BLOCK  # 2e-16 per row of a block
_RESCALE = 300.0  # rebuild the direct sum's window after growth by e^300


@dataclass(frozen=True)
class CanonicalTable:
    """Partition-function table for 0..n_max particles at one temperature.

    ``log_z[n]`` is the true log Z(n); ``log_power_sums[k]`` the true
    log S_k for k = 1..n_max (index 0 is NaN). Shifted variants (ground
    energy subtracted from every level) are exposed as cached properties.
    """

    spectrum: SpectrumTable | None
    gaps: np.ndarray = field(repr=False)
    ground_energy: float
    beta: float
    n_max: int
    volume: float
    log_z: np.ndarray = field(repr=False)
    log_power_sums: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.gaps.setflags(write=False)
        self.log_z.setflags(write=False)
        self.log_power_sums.setflags(write=False)

    @cached_property
    def log_z_shifted(self) -> np.ndarray:
        n = np.arange(self.n_max + 1, dtype=float)
        out = self.log_z + n * self.beta * self.ground_energy
        out.setflags(write=False)
        return out

    @cached_property
    def log_power_sums_shifted(self) -> np.ndarray:
        k = np.arange(self.n_max + 1, dtype=float)
        out = self.log_power_sums + k * self.beta * self.ground_energy
        out.setflags(write=False)
        return out

    def index_of(self, k) -> int:
        """Row of a mode given as table index or quantum numbers."""
        if self.spectrum is not None:
            return self.spectrum.index_of(k)
        if not isinstance(k, (int, np.integer)):
            raise DomainError("mode tuples need a box spectrum table")
        idx = int(k)
        if idx < 0 or idx >= len(self.gaps):
            raise DomainError(f"mode index {idx} outside table of {len(self.gaps)}")
        return idx

    def gap_of(self, k) -> float:
        """Gap of a mode given as table index or quantum numbers."""
        return float(self.gaps[self.index_of(k)])


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
    """log Z'(n), n = 0..n_max, from log S'_k (index 0 unused), in blocks."""
    lz = np.empty(n_max + 1)
    lz[0] = 0.0
    excess = np.expm1(ls[1:])  # excess[k - 1] = S'_k - 1 >= 0
    s_rev = np.exp(ls[:0:-1] - ls[1])  # s_rev[n_max - k] = S'_k / S'_1 <= 1
    window = np.empty(n_max + 1)
    for n0 in range(0, n_max + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, n_max + 1)
        if n0 > 0:
            log_far, err, rel = _far_sums(lz, excess, n0, n1)
            f = n0 - _NEAR
            _fill_rows(lz, window, s_rev, ls[1], n0, n1, f, log_far)
            # Failing the bound on the far sums, bound the error on the
            # rows n Z'(n) themselves, summed over the block as it
            # propagates to later rows.
            if rel <= _FFT_REL_TOL or err * float(
                np.sum(np.exp(lz[f - 1] - lz[n0:n1]) / np.arange(n0, n1))
            ) <= _FFT_REL_TOL:
                continue
        _fill_rows(lz, window, s_rev, ls[1], n0, n1, 0, None)
    return lz


def _far_sums(lz: np.ndarray, excess: np.ndarray, n0: int, n1: int):
    """Terms m < f = n0 - _NEAR of the rows n0..n1-1, by one real FFT.

    With x_m = Z'(m)/Z'(f-1) <= 1 (Z' does not decrease), row n gets
    Z'(f-1) [sum_m x_m + sum_m (S'_{n-m} - 1) x_m]: the ground mode's
    share is one plain sum for the whole block, and only the rest is a
    convolution. Returns the log of each row's far sum, the FFT's absolute
    error bound on the bracket, and that bound relative to the smallest
    bracket of the block.
    """
    f = n0 - _NEAR
    x = np.exp(lz[:f] - lz[f - 1])
    s = excess[: n1 - 1].copy()
    s[:_NEAR] = 0.0  # k = n - m > _NEAR for every m < f
    size = 1 << (n1 - 2).bit_length()  # >= n1 - 1, so the rows do not wrap
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(s, size), size)
    conv = conv[n0 - 1 : n1 - 1]
    # squared norms by np.sum: a threaded BLAS dot of this length leaves its
    # threads spinning, which took a third more CPU time than wall time
    norms = float(np.sum(x * x)) * float(np.sum(s * s))
    err = _FFT_ERR * math.log2(size) * math.sqrt(norms)
    ground = float(x.sum())  # >= x_{f-1} = 1
    rel = err / (ground + max(float(conv.min()) - err, 0.0))
    return lz[f - 1] + np.log(ground + conv), err, rel


def _fill_rows(lz, window, s_rev, ls1, n0, n1, lo, log_far) -> None:
    """Rows n0..n1-1 from the terms m in [lo, n) plus the far sums, if any.

    The terms are summed in the linear domain against the window
    Z'(m)/Z'(ref), m in [lo, n). ref moves up, and the window is rebuilt,
    whenever a row has grown e^_RESCALE past it; with Z'(n)/Z'(n-1) <= S'_1
    nothing overflows while S'_1 < e^400. A new row enters the window as
    S'_1 total / n, rounded relative to itself, and not through its log:
    rounding log Z' at its own magnitude (once per row) would feed an
    absolute error of |log Z'| eps into every later row.
    """
    n_max = len(lz) - 1
    s1 = math.exp(ls1)
    start = max(n0, 1)
    ref = start - 1
    window[lo:start] = np.exp(lz[lo:start] - lz[ref])
    for n in range(start, n1):
        if lz[n - 1] - lz[ref] > _RESCALE:
            ref = n - 1
            window[lo:n] = np.exp(lz[lo:n] - lz[ref])
        total = float(s_rev[n_max - n + lo : n_max] @ window[lo:n])
        if log_far is not None:
            total += math.exp(log_far[n - n0] - lz[ref] - ls1)
        window[n] = total / n * s1
        lz[n] = lz[ref] + math.log(window[n])


def build_canonical(
    spectrum,
    beta: float,
    n_max: int,
    *,
    volume: float | None = None,
) -> CanonicalTable:
    """Run the power-sum recursion up to n_max particles.

    ``spectrum`` is either a SpectrumTable (power sums then use the exact
    theta factorization over the full box spectrum) or a plain sequence of
    level energies (summed exactly). Raises CutoffInsufficient if a level
    list is empty.

    Rows are computed in blocks [n0, n0 + B), B = 2048. Since Z' does not
    decrease, the terms m < f = n0 - 256 of every row in a block are
    Z'(f-1) times sum_m S'_{n-m} x_m with all x_m = Z'(m)/Z'(f-1) <= 1.
    Writing S'_k = 1 + (S'_k - 1), the ground mode's part is the plain sum
    of the x_m, the same for the whole block, and the rest is one real FFT
    convolution. The terms m >= f are summed directly, in the linear domain
    against a rescaled window of Z' values. With n_max < B the table is a
    single block and is summed directly. Cost: O(n_max^2 log(n_max) / B) for
    the FFTs plus O(n_max B) for the direct sums; about 0.4 s at
    n_max = 48 102 and 2 s at n_max = 169 850 on a 2-core x86-64 VM, against
    12 s and about 2 min for the O(n_max^2) row-by-row sum.

    FFT error bound: for transform length L the computed convolution is
    off by at most 16 eps log2(L) |x|_2 |S' - 1|_2 in every entry (Percival,
    Math. Comp. 72 (2003) 387, with a factor 2 to spare). Each block checks
    this bound relative to its smallest far sum, and, failing that,
    relative to the rows it feeds (summed over the block, as the error
    propagates to later rows). If both exceed 2e-16 per row of the block,
    the block is summed directly over all m < n. So all blocks together
    move a ratio Z'(n-j)/Z'(n) by at most 4e-16 n, the roundoff budget the
    CLI reports for canonical rows.
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta!r}")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max!r}")
    if isinstance(spectrum, SpectrumTable):
        if len(spectrum) == 0:
            raise CutoffInsufficient("spectrum table holds no modes")
        gaps = np.array(spectrum.gaps, dtype=float)
        ground = spectrum.ground_energy
        vol = spectrum.geometry.volume
        log_s_shifted = np.concatenate(
            ([np.nan], log_power_sums(spectrum.geometry, beta, n_max))
        )
        table = spectrum
    else:
        energies = np.sort(np.asarray(list(spectrum), dtype=float))
        if len(energies) == 0:
            raise CutoffInsufficient("level list is empty")
        ground = float(energies[0])
        gaps = energies - ground
        vol = 1.0 if volume is None else float(volume)
        log_s_shifted = _direct_log_power_sums(gaps, beta, n_max)
        table = None
    log_z_shifted = _log_partition_shifted(log_s_shifted, n_max)
    n_idx = np.arange(n_max + 1, dtype=float)
    log_z = log_z_shifted - n_idx * beta * ground
    return CanonicalTable(
        spectrum=table,
        gaps=gaps,
        ground_energy=ground,
        beta=beta,
        n_max=n_max,
        volume=vol,
        log_z=log_z,
        log_power_sums=log_s_shifted - n_idx * beta * ground,
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


def occupation_laplace(ct: CanonicalTable, k, n: int, lam: float) -> float:
    """Canonical expectation of exp(-lam N_k) at n particles.

    Evaluates 1 - (e^lam - 1) sum_{j=1..n} e^{-j(beta eta_k + lam)}
    Z'(n-j)/Z'(n) in the log domain; any real lam is allowed (the sum is
    finite).
    """
    n = _check_n(ct, n)
    if n == 0:
        return 1.0
    eta = ct.gap_of(k)
    j = np.arange(1, n + 1, dtype=float)
    lz = ct.log_z_shifted
    terms = -j * (ct.beta * eta + lam) + lz[n - 1 :: -1] - lz[n]
    return 1.0 - math.expm1(lam) * sum_exp(terms)


def occupation_pmf(ct: CanonicalTable, k, n: int) -> DiscreteDistribution:
    """Distribution of one mode's occupation at n particles."""
    n = _check_n(ct, n)
    a = occupation_survival_log(ct, k, n)
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
    """Density held by all modes with gap below epsilon at n particles."""
    n = _check_n(ct, n)
    if epsilon <= 0.0:
        raise DomainError(f"gap window must be positive, got {epsilon!r}")
    hits = np.nonzero(ct.gaps < epsilon)[0]
    total = 0.0
    for idx in hits:
        total += occupation_moment(ct, int(idx), n, 1)
    return total / ct.volume


def _log_gap_factors(ct: CanonicalTable, k) -> tuple[np.ndarray, float]:
    """log |1 - exp(-beta (eta_j - eta_k))| over table modes j != k."""
    idx = ct.index_of(k)
    eta_k = float(ct.gaps[idx])
    delta = ct.beta * (np.delete(ct.gaps, idx) - eta_k)
    if np.any(delta == 0.0):
        raise DomainError(f"mode {k!r} shares its level with another mode")
    out = np.where(delta > 0.0, log1mexp(np.abs(delta)), log_expm1(np.abs(delta)))
    return out, eta_k


def shifted_pressure(ct: CanonicalTable, k, *, tail_tol: float = 1e-10) -> float:
    """Pressure-like normalizer of the per-mode step measure.

    p_k = -(1/(beta V)) sum_{j != k} log|1 - exp(-beta (E_j - E_k))|, with
    the sum over the whole spectrum; the part above the table cutoff is
    bounded through the exact power-sum tail and must stay below tail_tol
    (on the beta V p_k scale) or CutoffInsufficient is raised.
    """
    factors, eta_k = _log_gap_factors(ct, k)
    core = -float(np.sum(factors))
    tail = _pressure_tail(ct, eta_k)
    if tail > tail_tol:
        raise CutoffInsufficient(
            f"pressure tail bound {tail!r} exceeds {tail_tol!r}; raise the spectrum cutoff"
        )
    return core / (ct.beta * ct.volume)


def _pressure_tail(ct: CanonicalTable, eta_k: float) -> float:
    """Bound on the above-cutoff part of the log-factor sum for one mode."""
    if ct.spectrum is None:
        return 0.0
    eta_max = ct.spectrum.cutoff - ct.ground_energy
    # exact S'_1 minus the table part = the omitted sum of exp(-beta eta)
    s1_exact = math.exp(ct.log_power_sums_shifted[1])
    s1_table = float(np.exp(-ct.beta * ct.gaps).sum())
    missing = max(s1_exact - s1_table, 0.0)
    gap = ct.beta * (eta_max - eta_k)
    if gap <= 0.0:
        raise CutoffInsufficient("table cutoff does not exceed the requested mode")
    correction = 1.0 / (1.0 - math.exp(-gap))
    return correction * math.exp(ct.beta * eta_k) * missing


@dataclass(frozen=True)
class ModeMeasure:
    """Step-function measure of one mode's occupation per volume.

    The value on the half-open cell (r/V, (r+1)/V] is
    Z(r) exp(-beta (V p_k - r E_k)); it vanishes for x <= 0. Values are
    stored as logs (they overflow linearly in r for every excited mode).
    """

    k: int
    mode: tuple[int, int, int] | None
    gap: float
    pressure: float
    beta: float
    volume: float
    log_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.log_values.setflags(write=False)

    def value_at(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        r = math.ceil(x * self.volume) - 1
        if r >= len(self.log_values):
            raise DomainError(f"point {x!r} lies beyond the tabulated range")
        return math.exp(self.log_values[r])

    @cached_property
    def log_atoms(self) -> np.ndarray:
        """log of the jumps m_r = value(r) - value(r-1); all jumps are >= 0."""
        lv = self.log_values
        out = np.empty_like(lv)
        out[0] = lv[0]
        rise = lv[1:] - lv[:-1]  # >= 0 by the ratio monotonicity
        with np.errstate(divide="ignore"):
            out[1:] = lv[1:] + log1mexp(np.maximum(rise, 0.0))
        out.setflags(write=False)
        return out


def mode_measure(ct: CanonicalTable, k, *, tail_tol: float = 1e-10) -> ModeMeasure:
    """Build the per-mode step measure on the grid r/V, r = 0..n_max."""
    idx = ct.index_of(k)
    mode = None if ct.spectrum is None else tuple(int(v) for v in ct.spectrum.modes[idx])
    pressure = shifted_pressure(ct, idx, tail_tol=tail_tol)
    eta = float(ct.gaps[idx])
    r = np.arange(ct.n_max + 1, dtype=float)
    log_values = ct.log_z_shifted + r * (ct.beta * eta) - ct.beta * ct.volume * pressure
    return ModeMeasure(
        k=idx,
        mode=mode,
        gap=eta,
        pressure=pressure,
        beta=ct.beta,
        volume=ct.volume,
        log_values=log_values,
    )


def mode_measure_laplace(measure: ModeMeasure, lam: float) -> tuple[float, float]:
    """Transform sum_r exp(-lam r/V) m_r over the tabulated atoms.

    Converges (as the table grows) only for lam above beta V times the mode
    gap. Returns the partial sum plus a tail figure: for the ground mode the
    omitted mass is exactly 1 - a(r_max) and the bound is rigorous; for
    excited modes it is a geometric estimate from the last observed step
    ratio (inf when that ratio has not yet dropped below one).
    """
    la = measure.log_atoms
    v = measure.volume
    r = np.arange(len(la), dtype=float)
    terms = la - lam * r / v
    finite = np.isfinite(terms)
    if not bool(finite.any()):
        return 0.0, 0.0
    value = sum_exp(terms[finite])
    if measure.gap == 0.0:
        remaining = max(-math.expm1(float(measure.log_values[-1])), 0.0)
        return value, math.exp(-lam * len(la) / v) * remaining
    idx = np.nonzero(finite)[0]
    if len(idx) < 2:
        return value, math.inf
    ratio = math.exp(float(terms[idx[-1]] - terms[idx[-2]]))
    if ratio >= 1.0:
        return value, math.inf
    return value, math.exp(float(terms[idx[-1]])) * ratio / (1.0 - ratio)


def mode_measure_reconstruct(
    measure: ModeMeasure, ct: CanonicalTable, n: int, lam: float
) -> float:
    """Recover the canonical transform at n particles from the step measure.

    exp(-lam n/V) sum_{r=0..n} exp(lam r/V) m_r, normalized by the step
    value at r = n; equals occupation_laplace(ct, k, n, lam/V) identically.
    """
    n = _check_n(ct, n)
    la = measure.log_atoms[: n + 1]
    r = np.arange(n + 1, dtype=float)
    terms = la + (lam / measure.volume) * (r - n) - measure.log_values[n]
    return sum_exp(terms)
