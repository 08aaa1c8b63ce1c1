"""Canonical recursion and per-mode occupation statistics.

The reference here is a brute-force enumeration of occupation vectors for
tiny spectra: every identity the recursion provides must agree with the
direct Boltzmann sum to near machine precision.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosebox import (
    BoxGeometry,
    DomainError,
    build_canonical,
    enumerate_below,
    generalized_condensate,
    mode_measure,
    mode_measure_laplace,
    mode_measure_reconstruct,
    occupation_laplace,
    occupation_moment,
    occupation_pmf,
    shifted_pressure,
)
import bosebox.canonical as canonical
from bosebox.canonical import occupation_survival_log
from bosebox.spectrum import log_power_sums as box_log_power_sums
from conftest import gaps, index_of


def compositions(total, parts):
    """All occupation vectors of ``parts`` modes summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


class BruteCanonical:
    """Direct Boltzmann sum over occupation vectors of a tiny spectrum."""

    def __init__(self, energies, beta):
        self.energies = list(energies)
        self.beta = beta

    def partition(self, n):
        return sum(
            math.exp(-self.beta * sum(j * e for j, e in zip(occ, self.energies)))
            for occ in compositions(n, len(self.energies))
        )

    def expectation(self, n, fn, k):
        z = self.partition(n)
        total = 0.0
        for occ in compositions(n, len(self.energies)):
            w = math.exp(-self.beta * sum(j * e for j, e in zip(occ, self.energies)))
            total += fn(occ[k]) * w
        return total / z


SPECTRA = [
    [0.0],
    [0.0, 0.5],
    [0.1, 0.4, 0.9],
    [0.2, 0.3, 0.31, 1.2],
    [0.5, 0.5, 0.7],  # exact degeneracy must be handled by the recursion
]


@pytest.mark.parametrize("energies", SPECTRA)
@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_recursion_partition_matches_brute_force(energies, beta):
    brute = BruteCanonical(energies, beta)
    ct = build_canonical(energies, beta, 6, volume=1.0)
    assert ct.log_z[0] == 0.0
    for n in range(7):
        assert ct.log_z[n] == pytest.approx(
            math.log(brute.partition(n)), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("energies", [SPECTRA[2], SPECTRA[3]])
def test_occupation_statistics_match_brute_force(energies):
    beta = 1.0
    n = 5
    brute = BruteCanonical(energies, beta)
    ct = build_canonical(energies, beta, n, volume=1.0)
    for k in range(len(energies)):
        pmf = occupation_pmf(ct, k, n)
        assert float(pmf.mass.sum()) == pytest.approx(1.0, rel=1e-12)
        for j in range(n + 1):
            want = brute.expectation(n, lambda occ: 1.0 if occ == j else 0.0, k)
            assert pmf.mass[j] == pytest.approx(want, rel=1e-11, abs=1e-14)
        for r in (1, 2):
            want = brute.expectation(n, lambda occ: float(occ) ** r, k)
            assert occupation_moment(ct, k, n, r) == pytest.approx(want, rel=1e-11)
        for lam in (0.3, 1.7):
            want = brute.expectation(n, lambda occ: math.exp(-lam * occ), k)
            assert occupation_laplace(ct, k, n, lam) == pytest.approx(want, rel=1e-11)


def test_survival_probabilities_match_brute_force():
    energies = SPECTRA[3]
    brute = BruteCanonical(energies, 1.0)
    ct = build_canonical(energies, 1.0, 4, volume=1.0)
    a = occupation_survival_log(ct, 1, 4)
    for j in range(5):
        want = brute.expectation(4, lambda occ: 1.0 if occ >= j else 0.0, 1)
        assert math.exp(a[j]) == pytest.approx(want, rel=1e-11)
    assert a[0] == pytest.approx(0.0, abs=1e-14)


def test_energy_shift_invariance():
    """Shifting all levels by c multiplies Z_n by exp(-beta c n) and nothing else."""
    energies = [0.1, 0.4, 0.9]
    shift = 2.5
    beta = 1.0
    ct0 = build_canonical(energies, beta, 6, volume=1.0)
    ct1 = build_canonical([e + shift for e in energies], beta, 6, volume=1.0)
    for n in range(7):
        assert ct1.log_z[n] == pytest.approx(
            ct0.log_z[n] - beta * shift * n, rel=1e-12, abs=1e-12
        )
        if n > 0:
            assert occupation_moment(ct1, 0, n, 1) == pytest.approx(
                occupation_moment(ct0, 0, n, 1), rel=1e-12
            )


def test_table_route_equals_raw_energy_route(geom_aniso, table_aniso):
    """Theta-function power sums against direct sums over listed levels."""
    ct_table = build_canonical(geom_aniso, 1.0, 40)
    ct_raw = build_canonical(
        [float(e) for e in table_aniso.energies],
        1.0,
        40,
        volume=geom_aniso.volume,
    )
    # the box route sums the *full* spectrum; at this cutoff the difference
    # is bounded by the exp(-beta eta_max) tail, far below the tolerance
    np.testing.assert_allclose(ct_raw.log_z, ct_table.log_z, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=4.0),
    n=st.integers(min_value=1, max_value=6),
)
def test_laplace_transform_bounds(lam, n):
    ct = build_canonical([0.1, 0.4, 0.9], 1.0, 6, volume=1.0)
    val = occupation_laplace(ct, 0, n, lam)
    assert 0.0 < val < 1.0
    assert occupation_laplace(ct, 0, n, 0.0) == pytest.approx(1.0)


def test_ground_occupation_grows_with_n():
    ct = build_canonical([0.0, 0.3, 0.8], 1.0, 30, volume=1.0)
    means = [occupation_moment(ct, 0, n, 1) for n in range(1, 31)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_moment_and_pmf_agree(mixture_ct):
    n = 500
    for k in ((1, 1, 1), (2, 1, 1), (3, 2, 1)):
        pmf = occupation_pmf(mixture_ct, k, n)
        direct = float(np.sum(pmf.support * pmf.mass))
        assert direct == pytest.approx(occupation_moment(mixture_ct, k, n, 1), rel=1e-10)
        assert float(pmf.mass.sum()) == pytest.approx(1.0, rel=1e-12)


def test_index_of_box_table(mixture_ct, table_aniso):
    """A box table names modes by quantum numbers only; its gaps agree with
    the listed table's energy differences, and are exact at the ground."""
    for idx in (0, 5, 100, len(table_aniso) - 1):
        n = tuple(int(v) for v in table_aniso.modes[idx])
        assert mixture_ct.gap_of(n) == pytest.approx(
            gaps(table_aniso)[idx], rel=1e-14, abs=4 * np.spacing(table_aniso.ground_energy)
        )
    assert mixture_ct.gap_of((1, 1, 1)) == 0.0
    for bad in (0, -1, (0, 1, 1), (1, 1)):
        with pytest.raises(DomainError):
            mixture_ct.gap_of(bad)
    with pytest.raises(DomainError):
        mixture_ct.index_of(0)


def test_index_of_level_list_table():
    ct = build_canonical([0.0, 0.5, 1.3], 1.0, 5)
    assert ct.index_of(2) == 2
    assert ct.gap_of(np.int64(1)) == 0.5
    for bad in (-1, 3, (1, 1, 1)):
        with pytest.raises(DomainError):
            ct.index_of(bad)
    with pytest.raises(DomainError):
        mode_measure(ct, (1, 1, 1))


def test_n_out_of_range_rejected(mixture_ct):
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), mixture_ct.n_max + 1, 1)
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), -1, 1)
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), 10, 5)


# ------------------------------------------------------- condensate window


def test_generalized_condensate_counts_low_gap_modes():
    energies = [0.0, 0.02, 0.6, 1.1]
    ct = build_canonical(energies, 1.0, 8, volume=2.0)
    n = 8
    # epsilon below the first excited gap: ground mode only
    want0 = occupation_moment(ct, 0, n, 1) / 2.0
    assert generalized_condensate(ct, n, 0.01) == pytest.approx(want0, rel=1e-12)
    # epsilon catching the near-degenerate pair
    want1 = (
        occupation_moment(ct, 0, n, 1) + occupation_moment(ct, 1, n, 1)
    ) / 2.0
    assert generalized_condensate(ct, n, 0.05) == pytest.approx(want1, rel=1e-12)
    with pytest.raises(DomainError):
        generalized_condensate(ct, n, 0.0)


def reference_condensate(ct, modes, n, epsilon):
    """generalized_condensate as the per-mode loop of occupation moments."""
    hits = [m for m in modes if ct.gap_of(m) < epsilon]
    return sum(occupation_moment(ct, m, n, 1) for m in hits) / ct.volume, len(hits)


@pytest.mark.parametrize("epsilon, n", [(0.06, 6000), (0.3, 400), (1.0, 2500)])
def test_box_condensate_matches_per_mode_loop(mixture_ct, table_aniso, epsilon, n):
    modes = [tuple(int(v) for v in m) for m in table_aniso.modes]
    want, count = reference_condensate(mixture_ct, modes, n, epsilon)
    assert count >= 2
    got = generalized_condensate(mixture_ct, n, epsilon)
    assert abs(got - want) <= 1e-13 * want


def full_condensate(ct, n, epsilon):
    """generalized_condensate with all n x M terms: the power sums of the
    modes below epsilon at every j = 1..n, weighted by Z'(n-j)/Z'(n)."""
    gaps = ct.gaps_up_to(epsilon)
    j = np.arange(1, n + 1)
    lz = ct.log_z_shifted
    sums = canonical._listed_power_sums(ct.beta * gaps[gaps < epsilon], j)
    return float(np.sum(np.exp(lz[n - j] - lz[n]) * sums)) / ct.volume


@pytest.mark.parametrize("volume", [8000.0, 64000.0, 145000.0])
def test_cut_condensate_matches_full_sum(rho_c_value, volume):
    """The per-mode cut drops only terms below 2^-53 of each mode's sum, at
    the sizes of the canonical benchmark sweep (n = 2654, 21231, 48102)."""
    geometry = BoxGeometry((0.6, 0.25, 0.15), volume)
    n = round(2.0 * rho_c_value * volume)
    ct = build_canonical(geometry, 1.0, n)
    want = full_condensate(ct, n, 0.05)
    assert abs(generalized_condensate(ct, n, 0.05) - want) <= 1e-15 * want


# --------------------------------------------------------- shifted pressure


def listed_pressure(table, beta, mode):
    """beta V p_k summed over a listed table, and a bound on the part above
    its cutoff: the exact S'_1 minus the listed part, times
    exp(beta eta_k)/(1 - exp(-beta (eta_max - eta_k)))."""
    idx = index_of(table, mode)
    table_gaps = gaps(table)
    eta_k = float(table_gaps[idx])
    delta = beta * (np.delete(table_gaps, idx) - eta_k)
    factors = np.where(
        delta > 0.0, np.log(-np.expm1(-np.abs(delta))), np.log(np.expm1(np.abs(delta)))
    )
    s1_exact = math.exp(box_log_power_sums(table.geometry, beta, 1)[0])
    missing = max(s1_exact - float(np.exp(-beta * table_gaps).sum()), 0.0)
    gap = beta * (table.cutoff - table.ground_energy - eta_k)
    tail = math.exp(beta * eta_k) * missing / -math.expm1(-gap)
    return -math.fsum(factors), tail


@pytest.mark.parametrize("mode", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (3, 2, 1), (1, 1, 2)])
def test_box_pressure_matches_listed_sum(mixture_ct, table_aniso, mode):
    listed, tail = listed_pressure(table_aniso, 1.0, mode)
    assert tail < 1e-10
    got = shifted_pressure(mixture_ct, mode) * mixture_ct.volume
    assert abs(got - listed) <= tail + 1e-13 * abs(listed)


def test_box_pressure_lists_few_modes(monkeypatch, mixture_ct, table_aniso):
    """The ground mode's pressure lists the modes up to the first excited
    gap and nothing more; an excited mode's lists those up to a few times
    its own gap."""
    listed_sizes = []
    enumerate_below = canonical.enumerate_below

    def spy(geometry, e_max, **kwargs):
        table = enumerate_below(geometry, e_max, **kwargs)
        listed_sizes.append(len(table))
        return table

    monkeypatch.setattr(canonical, "enumerate_below", spy)
    shifted_pressure(mixture_ct, (1, 1, 1))
    assert listed_sizes == [2]
    shifted_pressure(mixture_ct, (1, 2, 1))
    assert listed_sizes[1] < 50 < len(table_aniso)


def test_box_pressure_rejects_shared_levels():
    ct = build_canonical(BoxGeometry((1 / 3, 1 / 3, 1 / 3), 1000.0), 1.0, 50)
    assert shifted_pressure(ct, (1, 1, 1)) > 0.0
    with pytest.raises(DomainError):
        shifted_pressure(ct, (2, 1, 1))


def test_shifted_pressure_two_mode_hand_formula():
    beta, volume = 1.7, 3.0
    energies = [0.3, 0.9]
    ct = build_canonical(energies, beta, 4, volume=volume)
    p0 = -math.log(1.0 - math.exp(-beta * 0.6)) / (beta * volume)
    p1 = -math.log(abs(1.0 - math.exp(beta * 0.6))) / (beta * volume)
    assert shifted_pressure(ct, 0) == pytest.approx(p0, rel=1e-13)
    assert shifted_pressure(ct, 1) == pytest.approx(p1, rel=1e-13)


# ------------------------------------------------------------ mode measure


def test_mode_measure_reconstructs_laplace(mixture_ct):
    """The measure route and the recursion route give the same transform."""
    n = 400
    for k, lam in (((1, 1, 1), 0.8), ((1, 1, 1), 5.0), ((1, 2, 1), 2.0)):
        m = mode_measure(mixture_ct, k)
        direct = occupation_laplace(mixture_ct, k, n, lam / mixture_ct.volume)
        assert mode_measure_reconstruct(m, mixture_ct, n, lam) == pytest.approx(
            direct, rel=1e-11
        )


def test_mode_measure_ground_saturates_at_one(mixture_ct):
    m = mode_measure(mixture_ct, (1, 1, 1))
    vals = np.exp(m.log_values)
    # the saturated plateau carries ~1e-13 recursion jitter around 1
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] <= 1.0 + 1e-12
    # atoms add back up to the step values (same jitter, accumulated)
    atoms = np.exp(m.log_atoms)
    assert np.cumsum(atoms)[-1] == pytest.approx(vals[-1], abs=1e-9)


def test_mode_measure_value_at_cell_convention(mixture_ct):
    m = mode_measure(mixture_ct, (1, 1, 1))
    v = mixture_ct.volume
    assert m.value_at(0.0) == 0.0
    assert m.value_at(0.5 / v) == pytest.approx(math.exp(m.log_values[0]))
    assert m.value_at(1.0 / v) == pytest.approx(math.exp(m.log_values[0]))
    assert m.value_at(1.5 / v) == pytest.approx(math.exp(m.log_values[1]))
    with pytest.raises(DomainError):
        m.value_at(10.0)


def test_mode_measure_laplace_against_closed_form(mixture_ct):
    """Independent identity: the full transform of the ground measure equals
    (1 - e^(-lam/V)) e^(-beta V p) Xi(E_1 - lam/(beta V))."""
    from bosebox import grand_partition_log

    m = mode_measure(mixture_ct, (1, 1, 1))
    lam = 60.0
    v = mixture_ct.volume
    value, tail = mode_measure_laplace(m, lam)
    mu = mixture_ct.ground_energy - lam / (1.0 * v)
    log_xi, _ = grand_partition_log(mixture_ct.geometry, mu, 1.0)
    closed = -math.expm1(-lam / v) * math.exp(log_xi - 1.0 * v * m.pressure)
    assert value + tail >= closed - 1e-12
    assert value <= closed + 1e-12
    assert value + tail == pytest.approx(closed, rel=1e-6)


# ------------------------------------------------- semi-relaxed recursion


def reference_log_z_shifted(log_power_sums, n_max, dtype=float):
    """The row-by-row log-domain recursion, in extended precision.

    This is the loop build_canonical ran before the blocked recursion, kept
    as the oracle. It runs in numpy's long double (64-bit mantissa on
    x86-64) because in double precision the loop itself drifts by about
    0.1 eps per row: 2e-9 on log Z' = 9.4e3 at n = 8 000 (rho = 2 rho_c,
    V = 1.45e5, regime III), where the FFT recursions are within 2.4e-11.
    Where long double is plain double it is the double-precision loop.
    The rows are returned as ``dtype``.
    """
    ls = np.asarray(log_power_sums, dtype=np.longdouble)
    lz = np.empty(n_max + 1, dtype=np.longdouble)
    lz[0] = 0.0
    for n in range(1, n_max + 1):
        terms = ls[1 : n + 1] + lz[n - 1 :: -1]
        peak = terms.max()
        lz[n] = peak + np.log(np.exp(terms - peak).sum()) - np.log(np.longdouble(n))
    return lz.astype(dtype)


# The blocked recursion build_canonical ran before the semi-relaxed one,
# kept as the oracle at sizes the O(n^2) loop cannot reach. Rows come in
# blocks of _BLOCK; one FFT per block gives the terms m < n0 - _NEAR of
# all its rows, and the rest is summed directly.
_BLOCK = 2048
_NEAR = 256
_BLOCK_REL_TOL = 2e-16 * _BLOCK


def blocked_log_z_shifted(ls, n_max):
    """log Z'(n), n = 0..n_max, by the fixed-block recursion."""
    excess = np.expm1(ls[1:])
    lz = np.empty(n_max + 1)
    lz[0] = 0.0
    s_rev = np.exp(ls[:0:-1] - ls[1])
    window = np.empty(n_max + 1)
    for n0 in range(0, n_max + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, n_max + 1)
        if n0 > 0:
            log_far, err, rel = _blocked_far_sums(lz, excess, n0, n1)
            f = n0 - _NEAR
            _blocked_fill_rows(lz, window, s_rev, ls[1], n0, n1, f, log_far)
            if rel <= _BLOCK_REL_TOL or err * float(
                np.sum(np.exp(lz[f - 1] - lz[n0:n1]) / np.arange(n0, n1))
            ) <= _BLOCK_REL_TOL:
                continue
        _blocked_fill_rows(lz, window, s_rev, ls[1], n0, n1, 0, None)
    return lz


def _blocked_far_sums(lz, excess, n0, n1):
    f = n0 - _NEAR
    x = np.exp(lz[:f] - lz[f - 1])
    s = excess[: n1 - 1].copy()
    s[:_NEAR] = 0.0
    size = 1 << (n1 - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(s, size), size)
    conv = conv[n0 - 1 : n1 - 1]
    norms = float(np.sum(x * x)) * float(np.sum(s * s))
    err = canonical._FFT_ERR * math.log2(size) * math.sqrt(norms)
    ground = float(x.sum())
    rel = err / (ground + max(float(conv.min()) - err, 0.0))
    return lz[f - 1] + np.log(ground + conv), err, rel


def _blocked_fill_rows(lz, window, s_rev, ls1, n0, n1, lo, log_far):
    n_max = len(lz) - 1
    s1 = math.exp(ls1)
    start = max(n0, 1)
    ref = start - 1
    window[lo:start] = np.exp(lz[lo:start] - lz[ref])
    for n in range(start, n1):
        if lz[n - 1] - lz[ref] > canonical._RESCALE:
            ref = n - 1
            window[lo:n] = np.exp(lz[lo:n] - lz[ref])
        total = float(s_rev[n_max - n + lo : n_max] @ window[lo:n])
        if log_far is not None:
            total += math.exp(log_far[n - n0] - lz[ref] - ls1)
        window[n] = total / n * s1
        lz[n] = lz[ref] + math.log(window[n])


# rho = 2 rho_c at V = 2e4: n = 6 634 runs tiles of five levels, P = 256
# to 4096, several of them more than once.
ORACLE_VOLUME = 2.0e4
REGIME_ALPHAS = {
    "I": (0.4, 0.35, 0.25),
    "II": (0.5, 0.3, 0.2),
    "III": (0.6, 0.25, 0.15),
}


@functools.lru_cache(maxsize=None)
def _oracle_case(case, rho_c_value):
    """(spectrum argument, volume, n, log S'_k) for one oracle case."""
    if case == "levels":
        table = enumerate_below(BoxGeometry(REGIME_ALPHAS["I"], 1000.0), 12.0)
        levels = [float(e) for e in table.energies]
        gaps = np.sort(np.array(levels)) - min(levels)
        n = 6444
        return levels, 1000.0, n, canonical._direct_log_power_sums(gaps, 1.0, n)
    geom = BoxGeometry(REGIME_ALPHAS[case], ORACLE_VOLUME)
    n = int(round(2.0 * rho_c_value * ORACLE_VOLUME))
    return geom, None, n, np.concatenate(([np.nan], box_log_power_sums(geom, 1.0, n)))


@functools.lru_cache(maxsize=None)
def _oracle_rows(case, rho_c_value):
    """The long-double loop's rows for one oracle case, in long double."""
    _, _, n, ls = _oracle_case(case, rho_c_value)
    return reference_log_z_shifted(ls, n, dtype=np.longdouble)


def _assert_close(got, want):
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-13


def _assert_matches_oracle(ct, case, rho_c_value):
    _, _, n, ls = _oracle_case(case, rho_c_value)
    assert n >= 16 * canonical._P0
    got = np.asarray(ct.log_z_shifted)
    _assert_close(got, _oracle_rows(case, rho_c_value).astype(float))
    _assert_close(got, blocked_log_z_shifted(ls, n))


@pytest.mark.parametrize("case", ["I", "II", "III", "levels"])
def test_blocked_recursion_matches_row_by_row_oracle(case, rho_c_value):
    spectrum, volume, n, ls = _oracle_case(case, rho_c_value)
    ct = build_canonical(spectrum, 1.0, n, volume=volume)
    _assert_matches_oracle(ct, case, rho_c_value)


@pytest.mark.parametrize("volume", [8000.0, 64000.0, 145000.0])
def test_recursion_matches_blocked_oracle_at_benchmark_sizes(rho_c_value, volume):
    """The canonical benchmark sweep: regime III, n = 2654, 21231, 48102."""
    geom = BoxGeometry(REGIME_ALPHAS["III"], volume)
    n = int(round(2.0 * rho_c_value * volume))
    ls = np.concatenate(([np.nan], box_log_power_sums(geom, 1.0, n)))
    _assert_close(canonical._log_partition_shifted(ls, n), blocked_log_z_shifted(ls, n))


@pytest.mark.parametrize("case", ["I", "III", "levels"])
def test_recursion_ratios_within_roundoff_budget(case, rho_c_value):
    """Every ratio log Z'(n) - log Z'(n-j) is within the CLI's budget
    4e-16 n of the long-double loop, plus the rounding of the two logs
    as doubles (half an ulp each, already more than 4e-16 n on the first
    few hundred rows, where log Z'(n) grows fastest)."""
    _, _, n, ls = _oracle_case(case, rho_c_value)
    want = _oracle_rows(case, rho_c_value)
    got = canonical._log_partition_shifted(ls, n).astype(np.longdouble)
    for j in (1, 10, 100, 1000):
        rows = np.arange(j, n + 1)
        drift = np.abs((got[j:] - got[:-j]) - (want[j:] - want[:-j]))
        rounding = 2.0**-53 * (np.abs(want[j:]) + np.abs(want[:-j]))
        assert np.all(drift <= 4e-16 * rows + rounding)


def test_blocked_recursion_fallback_matches_oracle(monkeypatch, rho_c_value):
    """A tile whose FFT error bound is too large is convolved directly."""
    calls = {"fft": 0, "direct": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(np.fft, "irfft", counted("fft", np.fft.irfft))
    monkeypatch.setattr(np, "convolve", counted("direct", np.convolve))
    spectrum, volume, n, ls = _oracle_case("III", rho_c_value)
    canonical._log_partition_shifted(ls, n)
    tiles = calls["fft"]
    assert tiles > 0 and calls["direct"] == 0
    calls["fft"] = 0
    monkeypatch.setattr(canonical, "_TILE_TOL", 0.0)
    ct = build_canonical(spectrum, 1.0, n, volume=volume)
    assert calls == {"fft": 0, "direct": tiles}
    monkeypatch.undo()
    _assert_matches_oracle(ct, "III", rho_c_value)
