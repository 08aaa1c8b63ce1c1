"""Canonical recursion and per-mode occupation statistics.

The reference here is a brute-force enumeration of occupation vectors over
the lowest modes of small boxes, and over tiny level lists run through the
recursion kernel: every identity the recursion provides must agree with the
direct Boltzmann sum to near machine precision.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosebox import (
    BoxGeometry,
    CutoffTooLarge,
    DomainError,
    build_canonical,
    enumerate_below,
    generalized_condensate,
    occupation_laplace,
    occupation_moment,
    occupation_pmf,
)
import bosebox.canonical as canonical
from bosebox.cli import N_MAX_DEFAULT, main
from bosebox.grandcanonical import critical_density
from bosebox.numerics import log1mexp, sum_exp
from bosebox.spectrum import _EXP_FLOOR, eigenvalue, ground_energy, mode_gaps
from bosebox.spectrum import _NODES, _TAIL, _compress
from bosebox.spectrum import log_power_sums as box_log_power_sums
from conftest import gaps, low_modes


def compositions(total, parts):
    """All occupation vectors of ``parts`` modes summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


class BruteCanonical:
    """Direct Boltzmann sum over the occupation vectors of a few levels, at
    their true energies, in the log domain."""

    def __init__(self, energies, beta):
        self.energies = np.asarray(energies, dtype=float)
        self.beta = beta
        self._states = {}

    def states(self, n):
        """The occupation vectors of n particles, their weights relative to
        the largest, and the log of the largest."""
        if n not in self._states:
            occ = np.array(list(compositions(n, len(self.energies))), dtype=float)
            log_w = -self.beta * (occ @ self.energies)
            top = float(log_w.max())
            self._states[n] = occ, np.exp(log_w - top), top
        return self._states[n]

    def log_partition(self, n):
        _, w, top = self.states(n)
        return top + math.log(math.fsum(w))

    def expectation(self, n, fn, k):
        """Mean of fn(N_k), fn taking an array of occupations."""
        occ, w, _ = self.states(n)
        return math.fsum(fn(occ[:, k]) * w) / math.fsum(w)


# The box of the brute-force oracles. At beta = 150 its lowest beta gaps are
# 0.56, 1.49 and 2.79, the order of a level list of energies 0.05 to 1.2 at
# beta = 1; it has 14 modes with beta gap <= 40 (10 at beta = 300), all on
# its longest axis.
BRUTE_BOX = BoxGeometry((0.6, 0.25, 0.15), 1000.0)


@functools.lru_cache(maxsize=None)
def brute_box(beta):
    """The modes of BRUTE_BOX with beta gap <= 40, the brute-force sum over
    them, and the bound on what the modes left out hold."""
    modes, _, dropped = low_modes(BRUTE_BOX, beta)
    modes = [tuple(int(v) for v in m) for m in modes]
    energies = [eigenvalue(BRUTE_BOX, m) for m in modes]
    return modes, BruteCanonical(energies, beta), dropped


@pytest.mark.parametrize("beta", [150.0, 300.0])
def test_box_partition_matches_brute_force(beta):
    """log Z(n) of a box table against the sum over the occupation vectors
    of its modes with beta gap <= 40, at their true energies E_n: the table's
    log Z'(n) less n beta E_1."""
    modes, brute, dropped = brute_box(beta)
    assert dropped < 1e-15
    ct = build_canonical(BRUTE_BOX, beta, 6)
    log_z = ct.log_z_shifted - np.arange(7.0) * ct.beta * ct.ground_energy
    assert log_z[0] == 0.0
    for n in range(7):
        assert log_z[n] == pytest.approx(brute.log_partition(n), rel=1e-12, abs=1e-12)


SPECTRA = [
    [0.0],
    [0.0, 0.5],
    [0.1, 0.4, 0.9],
    [0.2, 0.3, 0.31, 1.2],
    [0.5, 0.5, 0.7],  # exact degeneracy must be handled by the recursion
]


def direct_log_power_sums(gaps, beta, k_max):
    """log S'_k, k = 0..k_max (entry 0 unused), summed directly over a
    finite level list."""
    out = np.full(k_max + 1, np.nan)
    scaled = beta * gaps
    for k in range(1, k_max + 1):
        x = k * scaled
        mask = x < _EXP_FLOOR
        out[k] = math.log(float(np.exp(-x[mask]).sum())) if mask.any() else -math.inf
    return out


def level_list_table(levels, beta, n_max):
    """log Z'(n), n = 0..n_max, of a level list and the far rule (weights,
    nodes) it runs with, through the recursion kernel as build_canonical
    runs a box: its power sums for k < 512 summed directly and, from
    n_max = 512 on, the far rule of its atoms x = beta gap <= x_c."""
    gaps = np.sort(np.asarray(levels, dtype=float)) - min(levels)
    p0 = canonical._P0
    ls = direct_log_power_sums(gaps, beta, min(n_max, 2 * p0 - 1))
    rule = np.ones(0), np.zeros(0)
    if n_max >= 2 * p0:
        cap = min(_EXP_FLOOR / (p0 + 1), (ls[1] + _TAIL) / p0)
        x = beta * gaps
        x = x[x <= cap]
        rule = _compress(np.ones(len(x)), x, x)[:2]
    return canonical._log_partition_shifted(ls, n_max, *rule), *rule


@pytest.mark.parametrize("energies", SPECTRA)
@pytest.mark.parametrize("beta", [0.6, 1.0])
def test_recursion_partition_matches_brute_force(energies, beta):
    """The recursion kernel on a level list: log Z'(n) less n beta E_1."""
    brute = BruteCanonical(energies, beta)
    lz = level_list_table(energies, beta, 6)[0]
    assert lz[0] == 0.0
    for n in range(7):
        assert lz[n] - n * beta * min(energies) == pytest.approx(
            brute.log_partition(n), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("beta", [150.0, 300.0])
def test_occupation_statistics_match_brute_force(beta):
    n = 5
    modes, brute, _ = brute_box(beta)
    ct = build_canonical(BRUTE_BOX, beta, n)
    for k, mode in enumerate(modes):
        pmf = occupation_pmf(ct, mode, n)
        assert float(pmf.mass.sum()) == pytest.approx(1.0, rel=1e-12)
        for j in range(n + 1):
            want = brute.expectation(n, lambda occ: occ == j, k)
            assert pmf.mass[j] == pytest.approx(want, rel=1e-11, abs=1e-14)
        for r in (1, 2):
            want = brute.expectation(n, lambda occ: occ**r, k)
            assert occupation_moment(ct, mode, n, r) == pytest.approx(want, rel=1e-11)
        for lam in (0.3, 1.7):
            want = brute.expectation(n, lambda occ: np.exp(-lam * occ), k)
            assert occupation_laplace(ct, mode, n, lam) == pytest.approx(want, rel=1e-11)


def test_survival_probabilities_match_brute_force():
    modes, brute, _ = brute_box(150.0)
    ct = build_canonical(BRUTE_BOX, 150.0, 4)
    a = canonical._decreasing_survival_log(ct, modes[1], 4)
    assert a[5] == -math.inf
    for j in range(5):
        want = brute.expectation(4, lambda occ: occ >= j, 1)
        assert math.exp(a[j]) == pytest.approx(want, rel=1e-11)
    assert a[0] == pytest.approx(0.0, abs=1e-14)


def test_build_canonical_takes_only_a_box():
    with pytest.raises(DomainError, match="BoxGeometry"):
        build_canonical([0.0, 0.5, 1.3], 1.0, 5)


def test_table_route_equals_raw_energy_route(geom_aniso, table_aniso):
    """Theta-function power sums against direct sums over listed levels."""
    ct_table = build_canonical(geom_aniso, 1.0, 40)
    raw = level_list_table(table_aniso.energies, 1.0, 40)[0]
    # the box route sums the *full* spectrum; at this cutoff the difference
    # is bounded by the exp(-beta eta_max) tail, far below the tolerance
    np.testing.assert_allclose(raw, ct_table.log_z_shifted, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=4.0),
    n=st.integers(min_value=1, max_value=6),
)
def test_laplace_transform_bounds(lam, n):
    ct = build_canonical(BRUTE_BOX, 150.0, 6)
    val = occupation_laplace(ct, (1, 1, 1), n, lam)
    assert 0.0 < val < 1.0
    assert occupation_laplace(ct, (1, 1, 1), n, 0.0) == pytest.approx(1.0)


def test_laplace_transform_of_macroscopic_mode_stays_in_unit_interval(rho_c_value):
    """Regime I at rho = 2 rho_c holds about 16 600 particles in the ground
    mode, so its transform drops to P(N = 0) ~ 2e-21 at large lam, far
    below the rounding of 1 - (e^lam - 1) sum_j ...; it must still lie in
    [0, 1], not increase with lam, and stay at least P(N = 0)."""
    geom = BoxGeometry(REGIME_ALPHAS["I"], 1.0e5)
    n = int(round(2.0 * rho_c_value * geom.volume))
    ct = build_canonical(geom, 1.0, n)
    lams = (0.0, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0)
    values = [occupation_laplace(ct, (1, 1, 1), n, lam) for lam in lams]
    assert values[0] == 1.0
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert values[-1] >= occupation_pmf(ct, (1, 1, 1), n).mass[0] * (1.0 - 1e-12)


def test_ground_occupation_grows_with_n():
    ct = build_canonical(BRUTE_BOX, 150.0, 30)
    means = [occupation_moment(ct, (1, 1, 1), n, 1) for n in range(1, 31)]
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


def test_n_out_of_range_rejected(mixture_ct):
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), mixture_ct.n_max + 1, 1)
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), -1, 1)
    with pytest.raises(DomainError):
        occupation_moment(mixture_ct, (1, 1, 1), 10, 5)


# ------------------------------------------------------- condensate window


def test_generalized_condensate_counts_low_gap_modes():
    """A box with two equal exponents, whose first excited gap belongs to
    the degenerate pair (2,1,1), (1,2,1) and the next to (2,2,1)."""
    geom = BoxGeometry((0.4, 0.4, 0.2), 1.0e4)
    ct = build_canonical(geom, 150.0, 8)
    n = 8
    pair = ct.gap_of((2, 1, 1))
    assert ct.gap_of((1, 2, 1)) == pair and ct.gap_of((2, 2, 1)) == 2.0 * pair
    # epsilon below the first excited gap: ground mode only
    want0 = occupation_moment(ct, (1, 1, 1), n, 1) / 1.0e4
    assert generalized_condensate(ct, n, 0.5 * pair) == pytest.approx(want0, rel=1e-12)
    # epsilon catching the degenerate pair
    want1 = sum(occupation_moment(ct, m, n, 1) for m in ((1, 1, 1), (2, 1, 1), (1, 2, 1)))
    assert generalized_condensate(ct, n, 1.5 * pair) == pytest.approx(
        want1 / 1.0e4, rel=1e-12
    )
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


# Terms per numpy pass of the per-mode sums (8 MB of doubles).
_CHUNK = 1 << 20


def _listed_power_sums(scaled: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i exp(-m scaled_i) for each m, _CHUNK terms at a time, so that
    no len(m) x len(scaled) array is held."""
    out = np.empty(len(m))
    step = max(1, _CHUNK // max(len(scaled), 1))
    for i in range(0, len(m), step):
        out[i : i + step] = np.exp(-m[i : i + step, None] * scaled).sum(axis=1)
    return out


def full_condensate(ct, n, epsilon):
    """generalized_condensate with all n x M terms: the power sums of the
    modes below epsilon at every j = 1..n, weighted by Z'(n-j)/Z'(n)."""
    gaps = ct.gaps_up_to(epsilon)
    j = np.arange(1, n + 1)
    lz = ct.log_z_shifted
    sums = _listed_power_sums(ct.beta * gaps[gaps < epsilon], j)
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


# ----------------------------------------- readers against full-length oracles


def oracle_survival_log(ct, k, n):
    """log P(N_k >= j) for j = 0..n via the stripping identity, every j at
    once and with no running minimum."""
    j = np.arange(n + 1, dtype=float)
    lz = ct.log_z_shifted
    return -j * (ct.beta * ct.gap_of(k)) + lz[n::-1] - lz[n]


def oracle_decreasing_survival_log(ct, k, n):
    """log P(N_k >= j) for every j = 0..n at once, made nonincreasing by one
    running minimum where it rises."""
    a = oracle_survival_log(ct, k, n)
    return np.minimum.accumulate(a) if np.any(a[1:] > a[:-1]) else a


def oracle_moment(ct, k, n, r):
    """occupation_moment over all n terms, with integer weights, exact while
    they fit an int64 (j < 1.3e6 at r = 4)."""
    a = oracle_survival_log(ct, k, n)
    j = np.arange(1, n + 1, dtype=np.int64)
    weights = (j**r - (j - 1) ** r).astype(float)
    return float(np.sum(weights * np.exp(a[1:])))


def oracle_laplace(ct, k, n, lam):
    """occupation_laplace over all n terms: the masses' sum for lam > 0,
    cut only where its terms round to 0, and the log-domain sum else."""
    if lam > 0.0:
        a = np.append(oracle_decreasing_survival_log(ct, k, n), -math.inf)
        exponents = a[:-1] - lam * np.arange(n + 1, dtype=float)
        top = int(np.searchsorted(-exponents, _EXP_FLOOR))
        terms = np.exp(exponents[:top]) * -np.expm1(a[1 : top + 1] - a[:top])
        return float(terms.sum())
    j = np.arange(1, n + 1, dtype=float)
    lz = ct.log_z_shifted
    terms = -j * (ct.beta * ct.gap_of(k) + lam) + lz[n - 1 :: -1] - lz[n]
    return 1.0 - math.expm1(lam) * sum_exp(terms)


def oracle_condensate(ct, n, epsilon):
    """generalized_condensate as one sum per mode, each over all j up to
    the mode's cut, the ratios Z'(n-j)/Z'(n) taken for all n."""
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


# n on both sides of the first chunk boundaries of the readers (2^10, 3 2^10)
_CHUNK_EDGES = (1023, 1024, 1025, 3071, 3072, 3073)


@functools.lru_cache(maxsize=None)
def _reader_table(case):
    """(table, particle numbers): regimes I-III at rho = 2 rho_c with
    n_max = 3073; III at the benchmark's largest volume, n = 48 102; and a
    flat ground mode, BRUTE_BOX at beta = 500, whose log Z' rows are equal
    to rounding, so its survival log rises within and across chunks."""
    rho = 2.0 * critical_density(1.0).value
    if case == "flat":
        return build_canonical(BRUTE_BOX, 500.0, 3073), _CHUNK_EDGES
    if case == "III-48102":
        geom = BoxGeometry(REGIME_ALPHAS["III"], 1.45e5)
        n = round(rho * geom.volume)
        return build_canonical(geom, 1.0, n), (n,)
    geom = BoxGeometry(REGIME_ALPHAS[case], 3073 / rho)
    return build_canonical(geom, 1.0, 3073), _CHUNK_EDGES


def _assert_rel(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want)


@pytest.mark.parametrize("case", ["I", "II", "III", "III-48102", "flat"])
def test_readers_match_full_length_oracles(case):
    """The chunked folds against the full-length readers they replace, on
    ladder modes (n, 1, 1) and off it, for every reader and lam in {0, < 0,
    small, large}. The survival logs and masses are the same numbers; a
    fold may differ by its order of summation and by the rest it leaves
    out, at most 2^-53 of it."""
    ct, ns = _reader_table(case)
    if case == "flat":  # the running minimum must carry over j = 1024
        a = oracle_survival_log(ct, (1, 1, 1), 3073)
        assert np.any(np.minimum.accumulate(a)[1024:] != np.minimum.accumulate(a[1024:]))
    for n in ns:
        for k in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)):
            want = oracle_decreasing_survival_log(ct, k, n)
            got = canonical._decreasing_survival_log(ct, k, n)
            assert np.array_equal(got[:-1], want) and got[-1] == -math.inf
            np.testing.assert_array_equal(
                occupation_pmf(ct, k, n).mass,
                np.exp(want) * -np.expm1(np.append(want[1:], -math.inf) - want),
            )
            for r in (1, 2, 3, 4):
                _assert_rel(occupation_moment(ct, k, n, r), oracle_moment(ct, k, n, r), 4e-15)
            for lam in (0.0, -0.01, 1e-4, 0.3, 10.0):
                _assert_rel(occupation_laplace(ct, k, n, lam), oracle_laplace(ct, k, n, lam),
                            4e-15)
        for epsilon in (0.05, 1.0):
            _assert_rel(generalized_condensate(ct, n, epsilon), oracle_condensate(ct, n, epsilon),
                        4e-15)


@pytest.mark.parametrize(
    "case, volume", [("II", 1000.0), ("II", 1.0e4), ("III", 1.0e4)]
)
def test_canonical_rows_are_within_their_budgets_of_the_oracles(
    capsys, rho_c_value, case, volume
):
    """`bosebox canonical`'s moment, density, condensate and transform rows
    against the full-length oracles at rho = 2 rho_c, each within its
    printed error_budget, 4e-16 n max(1, |value|) for a transform and
    4e-16 n |value| else. The budget is relative: the second moment of the
    ground mode is near (n/2)^2, and here the two sums differ by 11 to 175
    times 4e-16 n; at lam < 0 the transform exceeds 1."""
    rho = 2.0 * rho_c_value
    lams = [-0.01, 0.1, 1.0, 10.0]
    code = main(["canonical", "--override", f"geometry.alphas={list(REGIME_ALPHAS[case])}",
                 "--override", f"geometry.volume={volume!r}", "--override", f"rho={rho!r}",
                 "--override", f"lambda_grid={lams}"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    header = lines[0].split(",")
    parsed = [dict(zip(header, line.split(","))) for line in lines[1:]]
    rows = {row["quantity"]: row for row in parsed}
    ct = build_canonical(BoxGeometry(REGIME_ALPHAS[case], volume), 1.0, round(rho * volume))
    n = ct.n_max
    mean = oracle_moment(ct, (1, 1, 1), n, 1)
    want = {
        "occupation_mean": mean,
        "occupation_second_moment": oracle_moment(ct, (1, 1, 1), n, 2),
        "occupation_density": mean / volume,
        "condensate_share": oracle_condensate(ct, n, 0.05),
    }
    printed = {q: (float(rows[q]["value"]), float(rows[q]["error_budget"])) for q in want}
    for quantity, (got, budget) in printed.items():
        assert abs(got - want[quantity]) <= budget, (quantity, got, want[quantity], budget)
    assert all(budget == 4e-16 * n * abs(got) for got, budget in printed.values())
    transforms = [row for row in parsed if row["quantity"] == "occupation_laplace"]
    assert [float(row["lam"]) for row in transforms] == lams
    for row in transforms:
        lam, got, budget = (float(row[c]) for c in ("lam", "value", "error_budget"))
        assert abs(got - oracle_laplace(ct, (1, 1, 1), n, lam)) <= budget, (lam, got, budget)
        assert budget == 4e-16 * n * (got if lam < 0.0 else 1.0)
        assert (got > 1.0) == (lam < 0.0)


def test_moment_weights_do_not_wrap():
    """A table whose Z' is 1 at every n, the law of a ground mode that holds
    every particle: P(N >= j) = 1, so the r-th moment is n^r. At
    n = 2e6 = N_MAX_DEFAULT, j^r - (j-1)^r passes an int64 for r = 4 from
    j = 1.33e6 on, where integer weights would come out near -9e18."""
    n = 2_000_000
    assert n == N_MAX_DEFAULT
    ct = canonical.CanonicalTable(BRUTE_BOX, 1.0, n, np.zeros(n + 1))
    for r in (1, 2, 3, 4):
        _assert_rel(occupation_moment(ct, (1, 1, 1), n, r), float(n) ** r, 1e-13)


def test_readers_peak_memory_is_a_few_chunks(rho_c_value):
    """At n = 1 658 692 (regime II, V = 5e6) no reader but occupation_pmf
    holds an n-length array: on the ground
    mode, whose folds run far (lam = 1e-6 to the end), the moments, the
    transform and the condensate each peak within three chunk arrays of
    _CHUNK_MAX doubles (25 MB) above the table. The full-length readers
    peaked at 66 MB."""
    geom = BoxGeometry(REGIME_ALPHAS["II"], 5.0e6)
    n = int(round(2.0 * rho_c_value * geom.volume))
    ct = build_canonical(geom, 1.0, n)
    readers = (
        lambda: occupation_moment(ct, (1, 1, 1), n, 1),
        lambda: occupation_moment(ct, (1, 1, 1), n, 4),
        lambda: occupation_laplace(ct, (1, 1, 1), n, 1e-6),
        lambda: generalized_condensate(ct, n, 0.05),
    )
    tracemalloc.start()
    try:
        for reader in readers:
            tracemalloc.reset_peak()
            reader()
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= 3 * 8 * canonical._CHUNK_MAX
    finally:
        tracemalloc.stop()


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
# FFT convolution error bound |error|_inf <= _FFT_ERR log2(L) |x|_2 |s|_2
# for length L = 2^p: Percival's (12.7 p + 2.3) u, u = eps/2 the unit
# roundoff (Math. Comp. 72 (2003) 387), is below 16 p eps with a factor 2
# to spare for numpy's real-input transform.
_FFT_ERR = 16.0 * float(np.finfo(float).eps)


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
    err = _FFT_ERR * math.log2(size) * math.sqrt(norms)
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


# The semi-relaxed recursion build_canonical ran before the far rule, kept
# as the oracle of the far field: the same near field, and the terms
# k >= 256 as the ground share sum_{m <= n - 256} Z'(m), a running prefix
# sum, plus dyadic tiles, rows [e - P, e) against S'_k - 1, k in [P, 2P),
# each one real FFT of length 2P run as soon as its rows are final.
_TILE_TOL = 2e-16  # FFT error a tile may add per row it spans


def tiled_log_z_shifted(ls, n_max):
    """log Z'(n), n = 0..n_max, from log S'_k for every k <= n_max."""
    p0, b = canonical._P0, canonical._BLOCK
    ls1 = float(ls[1])
    s1 = math.exp(ls1)
    grow = math.exp(canonical._RESCALE)
    if b * ls1 > 400.0:
        b = max(int(400.0 / ls1), 1)
    t = np.zeros(p0 + b)
    top = min(p0 - 1, n_max)
    t[1 : top + 1] = np.exp(ls[1 : top + 1] - ls1)
    band = t[p0 - 1 + np.arange(b)[:, None] - np.arange(p0 - 1)]
    lz = np.full(n_max + 1, -np.inf)  # until row n is final, its tile sums
    lz[0] = 0.0
    window = np.zeros(2 * p0)
    window[p0] = 1.0
    shift, head, kernels = 0, 0.0, {}
    log_hi = log_lo = 0.0  # shift ln 2, split as in build_canonical
    for c in range(0, n_max + 1, p0):
        c1 = min(c + p0, n_max + 1)
        off = p0 - c
        if c % canonical._GROUP == 0:
            starts = np.concatenate([
                np.arange(max(q, 1), min(q + p0, n_max + 1), b)
                for q in range(c, min(c + canonical._GROUP, n_max + 1), p0)
            ])
            inverses = iter(canonical._near_inverses(t, s1, starts, b))
        if c > 0:
            window[:p0] = window[p0:]
            cum = head + np.cumsum(window[:p0])
            head = float(cum[-1])
            ground = cum[: c1 - c]
            _run_tiles(lz, ls, kernels, c, s1 - 1.0 + head / window[p0 - 1])
        else:
            ground = np.zeros(c1)
        tiles = lz[c:c1] - ls1
        with np.errstate(over="ignore"):
            part = ground / s1 + np.exp(tiles - (log_hi + log_lo))
        done = c
        last = window[p0 - 1] if c > 0 else 1.0
        for n in range(max(c, 1), c1, b):
            w = n + off
            if last > grow:
                lz[done:n] = log_hi + (log_lo + np.log(window[done + off : w]))
                done = n
                k = math.frexp(last)[1]
                shift += k
                log_hi, log_lo = shift * canonical._LN2_HI, shift * canonical._LN2_LO
                scale = math.ldexp(1.0, -k)
                window[:w] *= scale
                head *= scale
                ground *= scale
                with np.errstate(over="ignore"):
                    part = ground / s1 + np.exp(tiles - (log_hi + log_lo))
            r = min(b, c1 - n)
            rhs = band[:r].dot(window[w - p0 + 1 : w]) + part[n - c : n - c + r]
            window[w : w + r] = next(inverses)[:r, :r].dot(rhs)
            last = window[w + r - 1]
        lz[done:c1] = log_hi + (log_lo + np.log(window[done + off : c1 + off]))
    return lz


def _run_tiles(lz, ls, kernels, e, bound):
    """Every tile that ends at row e, added to the log tile sums of the
    rows n >= e. A tile whose FFT error bound exceeds _TILE_TOL P bound,
    bound <= n Z'(n)/Z'(e-1) for every row n >= e, is convolved directly."""
    n_max = len(lz) - 1
    low = e & -e
    p = canonical._P0
    while p <= low:
        if p not in kernels:
            seg = np.expm1(ls[p : 2 * p])
            norm = math.sqrt(float(np.sum(seg * seg)))
            kernels[p] = seg, norm, np.fft.rfft(seg, 2 * p) if norm > 0.0 else None
        seg, norm, spectrum = kernels[p]
        if norm > 0.0:
            rows = min(2 * p - 1, n_max + 1 - e)
            x = np.exp(lz[e - p : e] - lz[e - 1])
            err = _FFT_ERR * math.log2(2 * p) * math.sqrt(float(np.sum(x * x))) * norm
            if err <= _TILE_TOL * p * bound:
                conv = np.fft.irfft(np.fft.rfft(x, 2 * p) * spectrum, 2 * p)[:rows]
            else:
                conv = np.convolve(x, seg)[:rows]
            np.maximum(conv, 0.0, out=conv)
            with np.errstate(divide="ignore"):
                np.log(conv, out=conv)
            np.logaddexp(lz[e : e + rows], conv + lz[e - 1], out=lz[e : e + rows])
        p *= 2


# rho = 2 rho_c at V = 2e4: n = 6 634 runs 26 chunks, 24 of them against
# the far rule's states, and the tile oracle runs tiles of five levels,
# P = 256 to 4096, several of them more than once.
ORACLE_VOLUME = 2.0e4
REGIME_ALPHAS = {
    "I": (0.4, 0.35, 0.25),
    "II": (0.5, 0.3, 0.2),
    "III": (0.6, 0.25, 0.15),
}


@functools.lru_cache(maxsize=None)
def _oracle_levels():
    """The level list of the "levels" oracle case: a box's levels up to 12."""
    table = enumerate_below(BoxGeometry(REGIME_ALPHAS["I"], 1000.0), 12.0)
    return tuple(float(e) for e in table.energies)


@functools.lru_cache(maxsize=None)
def _oracle_case(case, rho_c_value):
    """(box or level list, n, log S'_k) for one oracle case."""
    if case == "levels":
        levels = list(_oracle_levels())
        gaps = np.sort(np.array(levels)) - min(levels)
        n = 6444
        return levels, n, direct_log_power_sums(gaps, 1.0, n)
    geom = BoxGeometry(REGIME_ALPHAS[case], ORACLE_VOLUME)
    n = int(round(2.0 * rho_c_value * ORACLE_VOLUME))
    return geom, n, np.concatenate(([np.nan], box_log_power_sums(geom, 1.0, n)))


def _log_z_shifted(spectrum, beta, n):
    """log Z'(n) of a box table, or of a level list through the kernel."""
    if isinstance(spectrum, BoxGeometry):
        return build_canonical(spectrum, beta, n).log_z_shifted
    return level_list_table(spectrum, beta, n)[0]


@functools.lru_cache(maxsize=None)
def _oracle_rows(case, rho_c_value):
    """The long-double loop's rows for one oracle case, in long double."""
    _, n, ls = _oracle_case(case, rho_c_value)
    return reference_log_z_shifted(ls, n, dtype=np.longdouble)


def _assert_close(got, want):
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-13


def _assert_matches_oracle(log_z_shifted, case, rho_c_value):
    _, n, ls = _oracle_case(case, rho_c_value)
    assert n >= 16 * canonical._P0
    got = np.asarray(log_z_shifted)
    _assert_close(got, _oracle_rows(case, rho_c_value).astype(float))
    _assert_close(got, blocked_log_z_shifted(ls, n))
    _assert_close(got, tiled_log_z_shifted(ls, n))


@pytest.mark.parametrize("case", ["I", "II", "III", "levels"])
def test_blocked_recursion_matches_row_by_row_oracle(case, rho_c_value):
    spectrum, n, _ = _oracle_case(case, rho_c_value)
    _assert_matches_oracle(_log_z_shifted(spectrum, 1.0, n), case, rho_c_value)


@pytest.mark.parametrize("volume", [8000.0, 64000.0, 145000.0])
def test_recursion_matches_blocked_oracle_at_benchmark_sizes(rho_c_value, volume):
    """The canonical benchmark sweep: regime III, n = 2654, 21231, 48102."""
    geom = BoxGeometry(REGIME_ALPHAS["III"], volume)
    n = int(round(2.0 * rho_c_value * volume))
    ls = np.concatenate(([np.nan], box_log_power_sums(geom, 1.0, n)))
    got = np.asarray(build_canonical(geom, 1.0, n).log_z_shifted)
    _assert_close(got, blocked_log_z_shifted(ls, n))
    _assert_close(got, tiled_log_z_shifted(ls, n))


def _assert_ratios_within_budget(got, want):
    """Every ratio log Z'(n) - log Z'(n-j) within the CLI's budget 4e-16 n
    of the long-double loop, plus the rounding of the two logs as doubles
    (half an ulp each, already more than 4e-16 n on the first few hundred
    rows, where log Z'(n) grows fastest)."""
    got = np.asarray(got).astype(np.longdouble)
    n = len(got) - 1
    for j in (1, 10, 100, 1000):
        if j > n:
            break
        rows = np.arange(j, n + 1)
        drift = np.abs((got[j:] - got[:-j]) - (want[j:] - want[:-j]))
        rounding = 2.0**-53 * (np.abs(want[j:]) + np.abs(want[:-j]))
        assert np.all(drift <= 4e-16 * rows + rounding)


@pytest.mark.parametrize("case", ["I", "III", "levels"])
def test_recursion_ratios_within_roundoff_budget(case, rho_c_value):
    spectrum, n, _ = _oracle_case(case, rho_c_value)
    got = _log_z_shifted(spectrum, 1.0, n)
    _assert_ratios_within_budget(got, _oracle_rows(case, rho_c_value))


def test_blocked_recursion_fallback_matches_oracle(monkeypatch, rho_c_value):
    """The tile oracle convolves a tile directly when its FFT error bound
    is too large, and both of its routes match the long-double loop; the
    library runs neither an FFT nor a direct convolution."""
    calls = {"fft": 0, "direct": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(np.fft, "irfft", counted("fft", np.fft.irfft))
    monkeypatch.setattr(np, "convolve", counted("direct", np.convolve))
    spectrum, n, ls = _oracle_case("III", rho_c_value)
    ct = build_canonical(spectrum, 1.0, n)
    assert calls == {"fft": 0, "direct": 0}
    by_fft = tiled_log_z_shifted(ls, n)
    tiles = calls["fft"]
    assert tiles > 0 and calls["direct"] == 0
    calls["fft"] = 0
    monkeypatch.setitem(globals(), "_TILE_TOL", 0.0)
    direct = tiled_log_z_shifted(ls, n)
    assert calls == {"fft": 0, "direct": tiles}
    monkeypatch.undo()
    want = _oracle_rows("III", rho_c_value).astype(float)
    _assert_close(by_fft, want)
    _assert_close(direct, want)
    _assert_matches_oracle(ct.log_z_shifted, "III", rho_c_value)


# (alphas, volume, beta, n): a box with log S'_1 = 28.3, where the near
# field solves 14-row blocks and rescales its window inside every chunk,
# and whose far rule lists more atoms than fit at once; tables shorter
# than one chunk; a single row past n = 0; tables around the end of the
# band k < 512 and of the first state update; beta c_j past the double
# range, where the rule is the ground alone. alphas None is the level
# list of "levels" with its ground level doubled, run through the kernel,
# so the rule's ground node has weight 2.
EDGE_CASES = {
    "large-S1": (REGIME_ALPHAS["I"], 1.0e9, 1.0e-3, 700),
    "n-255": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 255),
    "n-100": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 100),
    "n-1": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 1),
    "n-511": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 511),
    "n-512": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 512),
    "n-767": (REGIME_ALPHAS["III"], ORACLE_VOLUME, 1.0, 767),
    "double-ground": (None, None, 1.0, 767),
    "huge-beta": (REGIME_ALPHAS["I"], 1.0, 1.0e308, 600),
}


def _far_rule_of(monkeypatch, spectrum, beta, n):
    """log Z'(n) and the far rule (weights, nodes) of a box table, as
    build_canonical hands it to the recursion, or of a level list."""
    if not isinstance(spectrum, BoxGeometry):
        return level_list_table(spectrum, beta, n)
    seen = {}
    recursion = canonical._log_partition_shifted

    def spy(ls, n_max, weights, nodes):
        seen.update(weights=weights, nodes=nodes)
        return recursion(ls, n_max, weights, nodes)

    monkeypatch.setattr(canonical, "_log_partition_shifted", spy)
    ct = build_canonical(spectrum, beta, n)
    monkeypatch.undo()
    return ct.log_z_shifted, seen["weights"], seen["nodes"]


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_recursion_edge_cases_match_long_double_oracle(case, monkeypatch):
    alphas, volume, beta, n = EDGE_CASES[case]
    if alphas is None:
        levels = list(_oracle_levels())
        levels.append(min(levels))
        gaps = np.sort(np.array(levels)) - min(levels)
        spectrum, ls = levels, direct_log_power_sums(gaps, beta, n)
    else:
        spectrum = BoxGeometry(alphas, volume)
        ls = np.concatenate(([np.nan], box_log_power_sums(spectrum, beta, n)))
    want = reference_log_z_shifted(ls, n, dtype=np.longdouble)
    lz, weights, nodes = _far_rule_of(monkeypatch, spectrum, beta, n)
    got = np.asarray(lz)
    if case == "large-S1":  # blocks of fewer than 16 rows, many rescales per chunk
        assert canonical._BLOCK * ls[1] > 400.0
        assert got[canonical._P0 - 1] > 10.0 * canonical._RESCALE
    assert (len(weights) > 0) == (n >= 2 * canonical._P0)
    if alphas is None:
        assert np.sum(weights[nodes == 0.0]) == 2.0
    _assert_close(got, want.astype(float))
    _assert_ratios_within_budget(got, want)


def test_recursion_peak_memory_per_row(rho_c_value):
    """No buffer of build_canonical beyond the table grows with n: regime
    II at V = 6e5 (n = 199 043), power sums, far rule and recursion
    together, peaks at 16.2 bytes per row (8 for the table itself)."""
    geom = BoxGeometry(REGIME_ALPHAS["II"], 6.0e5)
    n = int(round(2.0 * rho_c_value * geom.volume))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        build_canonical(geom, 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24.0 * n


# ------------------------------------------------------------- far rule


def _listed_atoms(spectrum, x_max):
    """x = gap (beta = 1) of every level with x <= x_max, ground included,
    listed one by one."""
    if isinstance(spectrum, BoxGeometry):
        e_max = ground_energy(spectrum) + x_max
        table = enumerate_below(spectrum, e_max + 8.0 * math.ulp(e_max))
        x = mode_gaps(spectrum, table.modes)
    else:
        x = np.sort(np.array(spectrum)) - min(spectrum)
    return x[x <= x_max]


@pytest.mark.parametrize("case", ["I", "II", "III", "levels"])
def test_far_rule_is_a_positive_gauss_compression(case, rho_c_value, monkeypatch):
    """The far rule has positive weights and at most 400 terms; at 200
    log-spaced k in [257, n] it is within build_canonical's bound of the
    direct long-double sum over every atom x <= 745/257: below it by at
    most delta < 1e-18 of S'_k, and off by the nodes' rounding of at most
    8 u sum_x k x e^{-kx}. A bin of at most 20 atoms is its atoms."""
    spectrum, n, ls = _oracle_case(case, rho_c_value)
    _, weights, nodes = _far_rule_of(monkeypatch, spectrum, 1.0, n)
    assert np.all(weights > 0.0) and len(weights) <= 400
    x = _listed_atoms(spectrum, _EXP_FLOOR / (canonical._P0 + 1))
    atoms = x.astype(np.longdouble)
    w, s = weights.astype(np.longdouble), nodes.astype(np.longdouble)
    ulp = np.finfo(np.longdouble).eps
    for k in np.unique(np.geomspace(257, n, 200).round()):
        terms = np.exp(-k * atoms)
        direct = terms.sum()
        # the nodes' rounding, and the long-double sums' own
        rounding = 8.0 * 2.0**-53 * np.sum(k * atoms * terms) + 8.0 * ulp * direct
        rule = np.sum(w * np.exp(-k * s))
        assert direct - 1e-18 * direct - rounding <= rule <= direct + rounding
    p0 = canonical._P0
    cap = min(_EXP_FLOOR / (p0 + 1), (ls[1] + _TAIL) / p0)
    kept = x[(x > 0.0) & (x <= cap)]
    bins, node_bins = np.frexp(kept)[1], np.frexp(nodes)[1]
    small = [e for e in np.unique(bins) if np.count_nonzero(bins == e) <= _NODES]
    # at V = 2e4 the top bins are compressed; the level list's are all small
    assert small and (case == "levels" or len(small) < len(np.unique(bins)))
    for e in small:
        assert np.array_equal(np.sort(nodes[node_bins == e]), np.sort(kept[bins == e]))
        assert np.all(weights[node_bins == e] == 1.0)
    assert np.sum(weights[nodes == 0.0]) == 1.0


def test_far_rule_refuses_an_axis_it_cannot_list():
    """An axis of 10^8 levels below the rule's cut is refused before it is
    listed; a table too short to need the rule is still built."""
    geom = BoxGeometry((0.98, 0.01, 0.01), 1.0e9)
    with pytest.raises(CutoffTooLarge, match="an axis holds more than"):
        build_canonical(geom, 1.0, 2 * canonical._P0)
    assert build_canonical(geom, 1.0, 2 * canonical._P0 - 1).n_max == 2 * canonical._P0 - 1
