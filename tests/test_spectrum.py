"""Box geometry, level enumeration and integrated density of states."""

import itertools
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
    SpectrumTable,
    classify,
    count_modes_at_most,
    eigenvalue,
    enumerate_below,
    ground_energy,
    ids,
    ids_bounds,
    ids_limit,
    suggest_energy_cutoff,
)
from bosebox import canonical, grandcanonical, solve_mu, spectrum
from bosebox.cli import main
from bosebox.spectrum import (
    IDS_PREFACTOR,
    _gamma_upper_32,
    exponential_tail_integral,
    log_power_sums,
    mode_gaps,
)
from conftest import gaps, index_of, tail_cutoff, unit_box_gap_values


# ---------------------------------------------------------------- geometry


def test_geometry_edges_multiply_to_volume():
    g = BoxGeometry((0.4, 0.35, 0.25), 1234.5)
    assert g.edges[0] * g.edges[1] * g.edges[2] == pytest.approx(1234.5, rel=1e-12)
    assert g.edges == (1234.5**0.4, 1234.5**0.35, 1234.5**0.25)


def test_geometry_rejects_bad_exponents():
    with pytest.raises(DomainError):
        BoxGeometry((0.25, 0.35, 0.4), 10.0)  # not sorted decreasingly
    with pytest.raises(DomainError):
        BoxGeometry((0.5, 0.5, 0.1), 10.0)  # sum is 1.1
    with pytest.raises(DomainError):
        BoxGeometry((0.5, 0.5, 0.0), 10.0)  # a_3 must be positive
    with pytest.raises(DomainError):
        BoxGeometry((0.4, 0.35, 0.25), -2.0)
    with pytest.raises(DomainError):
        BoxGeometry((0.4, 0.35, 0.25), math.inf)


def test_eigenvalue_matches_hand_formula():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    for n in ((1, 1, 1), (2, 1, 1), (1, 2, 3)):
        expect = 0.5 * math.pi**2 * sum(
            nj**2 / g.edges[j] ** 2 for j, nj in enumerate(n)
        )
        assert eigenvalue(g, n) == pytest.approx(expect, rel=1e-14)
    assert ground_energy(g) == eigenvalue(g, (1, 1, 1))
    for bad in ((0, 1, 1), (1, 1)):
        with pytest.raises(DomainError):
            eigenvalue(g, bad)


def test_eigenvalue_is_anisotropic():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    assert eigenvalue(g, (2, 1, 1)) < eigenvalue(g, (1, 2, 1)) < eigenvalue(g, (1, 1, 2))


# ---------------------------------------------------------------- regimes


def test_classify_condensation_types():
    assert classify((0.4, 0.35, 0.25)).condensation == "I"
    assert classify((0.5, 0.3, 0.2)).condensation == "II"
    assert classify((0.6, 0.25, 0.15)).condensation == "III"


def test_classify_gamma_and_symmetry():
    r = classify((0.4, 0.35, 0.25))
    assert r.gamma == pytest.approx(1.0 - 2 * 0.4)
    assert r.symmetry == "distinct"
    assert classify((0.4, 0.4, 0.2)).symmetry == "two_equal"
    third = 1.0 / 3.0
    iso = classify((third, third, third))
    assert iso.symmetry == "isotropic"
    assert iso.gamma == pytest.approx(third)


def test_classify_tolerance_snaps_to_boundary():
    r = classify((0.5 + 1e-13, 0.3 - 1e-13, 0.2))
    assert r.condensation == "II"


# ------------------------------------------------------------- enumeration


def brute_count(geometry, e_max):
    """Plain triple loop; the reference for all counting routines."""
    c = geometry.level_coefficients
    total = 0
    n1 = 1
    while c[0] * n1**2 + c[1] + c[2] <= e_max:
        n2 = 1
        while c[0] * n1**2 + c[1] * n2**2 + c[2] <= e_max:
            n3 = 1
            while c[0] * n1**2 + c[1] * n2**2 + c[2] * n3**2 <= e_max:
                total += 1
                n3 += 1
            n2 += 1
        n1 += 1
    return total


@pytest.mark.parametrize("e_max", [5.0, 12.0, 30.0])
def test_count_modes_matches_brute_loop(e_max):
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    assert count_modes_at_most(g, e_max) == brute_count(g, e_max)


def test_enumerate_below_table_invariants():
    g = BoxGeometry((0.45, 0.30, 0.25), 120.0)
    t = enumerate_below(g, 25.0)
    assert isinstance(t, SpectrumTable)
    assert len(t.energies) == count_modes_at_most(g, 25.0)
    assert np.all(np.diff(t.energies) >= 0.0)
    assert t.energies[0] == pytest.approx(ground_energy(g), rel=1e-14)
    assert t.energies[-1] <= 25.0
    # modes are unique and consistent with their stored energies
    seen = {tuple(m) for m in t.modes}
    assert len(seen) == len(t.energies)
    for idx in (0, 1, len(t.energies) // 2, len(t.energies) - 1):
        n = tuple(int(v) for v in t.modes[idx])
        assert t.energies[idx] == pytest.approx(eigenvalue(g, n), rel=1e-13)
        assert index_of(t, n) == idx


def reference_enumeration(geometry, e_max):
    """One chunk per (n1, n2) and a four-key lexsort: the enumeration loop
    enumerate_below ran before it built all (n2, n3) pairs of an n1 at once
    and sorted stably by energy. Kept as the oracle."""
    c1, c2, c3 = geometry.level_coefficients
    modes, energies = [], []
    n1 = 1
    while e_max - c1 * n1 * n1 >= c2 + c3:
        rest = e_max - c1 * n1 * n1
        for n2 in range(1, int(math.floor(math.sqrt((rest - c3) / c2))) + 1):
            slack = rest - c2 * n2 * n2
            n3 = np.arange(1, int(math.floor(math.sqrt(slack / c3))) + 1)
            modes += [(n1, n2, int(v)) for v in n3]
            energies.append(c1 * n1 * n1 + c2 * n2 * n2 + c3 * n3.astype(float) ** 2)
        n1 += 1
    modes = np.array(modes, dtype=np.int64).reshape(-1, 3)
    energies = np.concatenate(energies) if energies else np.empty(0)
    order = np.lexsort((modes[:, 2], modes[:, 1], modes[:, 0], energies))
    return modes[order], energies[order]


@pytest.mark.parametrize(
    "alphas, volume, e_max",
    [
        ((0.45, 0.30, 0.25), 120.0, 25.0),
        ((0.6, 0.25, 0.15), 8000.0, 2.0),
        ((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), 500.0, 40.0),  # degenerate levels
        ((0.5, 0.25, 0.25), 300.0, 35.0),  # two equal axes
    ],
)
def test_enumerate_below_matches_reference_loop(alphas, volume, e_max):
    g = BoxGeometry(alphas, volume)
    modes, energies = reference_enumeration(g, e_max)
    t = enumerate_below(g, e_max)
    assert np.array_equal(t.modes, modes)
    assert t.energies.tobytes() == energies.tobytes()


def test_enumerate_below_budget_guard(monkeypatch):
    monkeypatch.setattr(spectrum, "MODE_BUDGET", 100)
    g = BoxGeometry((0.4, 0.35, 0.25), 1000.0)
    with pytest.raises(CutoffTooLarge):
        enumerate_below(g, 45.0)


def test_index_of_unknown_mode_raises():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    t = enumerate_below(g, 10.0)
    with pytest.raises(DomainError):
        index_of(t, (40, 40, 40))


def test_index_of_takes_row_index_or_quantum_numbers():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    t = enumerate_below(g, 10.0)
    for idx in (0, 3, len(t) - 1):
        n = tuple(int(v) for v in t.modes[idx])
        assert index_of(t, idx) == idx
        assert index_of(t, np.int64(idx)) == idx
        assert index_of(t, n) == idx
    for bad in (-1, len(t)):
        with pytest.raises(DomainError):
            index_of(t, bad)


def test_count_modes_at_most_respects_budget(monkeypatch):
    g = BoxGeometry((0.4, 0.35, 0.25), 1000.0)
    count = count_modes_at_most(g, 45.0)
    monkeypatch.setattr(spectrum, "MODE_BUDGET", count)
    assert count_modes_at_most(g, 45.0) == count
    monkeypatch.setattr(spectrum, "MODE_BUDGET", count - 1)
    with pytest.raises(CutoffTooLarge):
        count_modes_at_most(g, 45.0)


def test_huge_volume_is_refused_before_allocation():
    # levels so dense that a single row would not fit in memory
    g = BoxGeometry((0.4, 0.35, 0.25), 1e308)
    with pytest.raises(CutoffTooLarge):
        count_modes_at_most(g, 30.0)
    g = BoxGeometry((0.5, 0.3, 0.2), 1e308)  # e_max / c_1 overflows to inf
    with pytest.raises(CutoffTooLarge):
        count_modes_at_most(g, 30.0)
    with pytest.raises(DomainError):
        BoxGeometry((0.6, 0.25, 0.15), 1e308)  # V**1.2 overflows a double


def per_row_walk(geometry, e_max):
    """The lattice walk as it ran before it took blocks of (n1, n2) pairs:
    one n1 row per step, yielding n1 and the largest n3 of each n2 = 1, 2,
    ... in that row. Kept as the oracle."""
    c1, c2, c3 = geometry.level_coefficients
    if e_max < c1 + c2 + c3:
        return
    for n1 in range(1, math.floor(math.sqrt((e_max - c2 - c3) / c1)) + 1):
        rest = e_max - c1 * n1 * n1
        if rest < c2 + c3:
            break
        n2 = np.arange(1, math.floor(math.sqrt((rest - c3) / c2)) + 1, dtype=float)
        n3_max = np.floor(np.sqrt(np.maximum((rest - c2 * n2 * n2) / c3, 0.0)))
        yield n1, n3_max.astype(np.int64)


def per_row_enumeration(geometry, e_max):
    """Count, modes and energies as enumerate_below built them from the
    per-row walk: each row's (n2, n3) pairs at once, then a stable sort by
    energy."""
    c1, c2, c3 = geometry.level_coefficients
    modes, energies = [np.empty((0, 3), dtype=np.int64)], [np.empty(0)]
    for n1, n3_max in per_row_walk(geometry, e_max):
        n2 = np.repeat(np.arange(1, len(n3_max) + 1, dtype=np.int64), n3_max)
        starts = np.repeat(np.cumsum(n3_max) - n3_max, n3_max)
        n3 = np.arange(1, len(n2) + 1, dtype=np.int64) - starts
        modes.append(np.column_stack((np.full(len(n2), n1), n2, n3)))
        n2f = n2.astype(float)
        energies.append((c1 * n1 * n1 + c2 * n2f * n2f) + c3 * n3.astype(float) ** 2)
    modes, energies = np.concatenate(modes), np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    return len(energies), modes[order], energies[order]


@pytest.fixture(scope="module")
def walk_cases():
    """(geometry, thresholds by kind) of 12 fixed-seed random boxes: a
    random cutoff, a listed mode's energy, the thresholds ids and
    gaps_up_to pad by 8 ulp at two listed gaps, and listed energies at
    which a row's n2_top = sqrt((rest - c3)/c2) is an integer or its rest
    = e_max - c1 n1^2 is exactly c2 + c3 (the last row the walk keeps)."""
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(12):
        a1 = rng.uniform(1.0 / 3.0, 0.7)
        a2 = rng.uniform((1.0 - a1) / 2.0, min(a1, 0.97 - a1))
        g = BoxGeometry((a1, a2, 1.0 - a1 - a2), 10.0 ** rng.uniform(1.0, 4.5))
        e1 = ground_energy(g)
        e_max = e1 + rng.uniform(2.0, 30.0)
        _, modes, energies = per_row_enumeration(g, e_max)
        if len(energies) > 20_000:
            e_max = float(energies[20_000])
            modes, energies = modes[:20_000], energies[:20_000]
        pick, ids_pick, gaps_pick = rng.integers(len(energies), size=3)
        ids_threshold, gaps_threshold = (mode_gaps(g, modes[[ids_pick, gaps_pick]]) + e1).tolist()
        c1, c2, c3 = g.level_coefficients
        row_edge, row_start = [], []
        for (n1, n2, n3), e in zip(modes.tolist(), energies.tolist()):
            rest = e - c1 * n1 * n1
            if n3 == 1 and n2 > 1 and math.sqrt((rest - c3) / c2) == n2:
                row_edge.append(e)
            if n3 == 1 and n2 == 1 and rest == c2 + c3:
                row_start.append(e)
        cases.append((g, {
            "cutoff": [e_max, float(energies[pick])],
            "padded": [ids_threshold + 8.0 * math.ulp(ids_threshold),
                       gaps_threshold + 8.0 * math.ulp(gaps_threshold)],
            "n2_top integer": row_edge[:: max(1, len(row_edge) // 3)],
            "rest = c2 + c3": row_start[:3],
        }))
    return cases


@pytest.mark.parametrize("pairs", [None, 7], ids=["default-block", "block-7"])
def test_blocked_walk_matches_per_row_oracle(pairs, walk_cases, monkeypatch):
    """count_modes_at_most and enumerate_below list the same modes, byte
    for byte, as the per-row walk did; with 7 pairs per block the rows
    and their n2 ranges are cut at block seams."""
    for kind in ("n2_top integer", "rest = c2 + c3"):
        assert sum(len(t[kind]) for _, t in walk_cases) >= 10
    if pairs is not None:
        monkeypatch.setattr(spectrum, "_PAIRS", pairs)
    for g, thresholds in walk_cases:
        for e_max in itertools.chain(*thresholds.values()):
            count, modes, energies = per_row_enumeration(g, e_max)
            assert count_modes_at_most(g, e_max) == count
            t = enumerate_below(g, e_max)
            assert t.modes.tobytes() == modes.tobytes()
            assert t.energies.tobytes() == energies.tobytes()


def test_mode_budget_is_checked_in_every_block(monkeypatch):
    """A count that passes the budget only in a later block is refused,
    by count_modes_at_most and enumerate_below alike; a count equal to
    the budget is not."""
    monkeypatch.setattr(spectrum, "_PAIRS", 7)
    g = BoxGeometry((0.4, 0.35, 0.25), 1000.0)
    count = count_modes_at_most(g, 45.0)
    monkeypatch.setattr(spectrum, "MODE_BUDGET", count)
    blocks = [int(n3.sum()) for *_, n3 in spectrum._lattice_rows(g, 45.0)]
    assert len(blocks) > 10 and sum(blocks) == count
    assert blocks[0] + blocks[1] < count - 1
    assert len(enumerate_below(g, 45.0)) == count
    for budget in (count - 1, blocks[0] + blocks[1]):
        monkeypatch.setattr(spectrum, "MODE_BUDGET", budget)
        with pytest.raises(CutoffTooLarge):
            count_modes_at_most(g, 45.0)
        with pytest.raises(CutoffTooLarge):
            enumerate_below(g, 45.0)


def test_count_modes_holds_no_per_mode_array():
    """Regime II at V = 64000 holds 402 118 modes, over 29 375 (n1, n2)
    pairs, up to the cutoff `bosebox spectrum` picks at beta = 1. Counting
    them allocates the walk's blocks only: its tracemalloc peak stays
    under 2 MB, where one array of a float per mode takes 3.2 MB."""
    g = BoxGeometry((0.5, 0.3, 0.2), 64000.0)
    e_max = suggest_energy_cutoff(g, 1.0)
    assert e_max == pytest.approx(26.72, abs=0.01)
    pairs = sum(len(n2) for _, n2, _ in spectrum._lattice_rows(g, e_max))
    assert pairs == 29_375
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        count = count_modes_at_most(g, e_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 402_118
    assert peak < 2 << 20


# ---------------------------------------------------- density of states


def test_ids_counts_gaps_from_ground_level():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    e1 = ground_energy(g)
    for eta in (0.0, 1.0, 4.0, 9.0):
        expect = brute_count(g, eta + e1) / g.volume
        assert ids(g, eta) == pytest.approx(expect, rel=1e-14)
    assert ids(g, -1.0) == 0.0
    assert ids(g, 0.0) == pytest.approx(1.0 / g.volume)


def test_ids_limit_closed_form():
    assert IDS_PREFACTOR == pytest.approx(math.sqrt(2.0) / (3.0 * math.pi**2))
    for eta in (0.5, 1.0, 7.0):
        assert ids_limit(eta) == pytest.approx(IDS_PREFACTOR * eta**1.5, rel=1e-15)
    with pytest.raises(DomainError):
        ids_limit(-0.1)


def test_ids_bounds_sandwich_smoke():
    g = BoxGeometry((0.4, 0.35, 0.25), 500.0)
    threshold = (3.0 * math.pi / math.sqrt(2.0)) ** 2 * g.volume ** (-2 * g.alpha[2])
    for mult in (1.5, 3.0, 10.0, 40.0):
        eta = mult * threshold
        lower, upper = ids_bounds(g, eta)
        value = ids(g, eta)
        assert lower <= value <= upper
        assert lower < upper


def test_ids_bounds_bracket_the_limit_too():
    # the sandwich holds for the limit law as well once eta is large
    g = BoxGeometry((0.4, 0.35, 0.25), 2000.0)
    threshold = (3.0 * math.pi / math.sqrt(2.0)) ** 2 * g.volume ** (-2 * g.alpha[2])
    for mult in (2.0, 8.0, 50.0):
        eta = mult * threshold
        lower, upper = ids_bounds(g, eta)
        assert lower <= ids_limit(eta) <= upper


# ------------------------------------------------------ unit box counting


def brute_unit_gaps(d, gap_max, min_index, convention):
    budget = gap_max / (0.5 * math.pi**2)
    shift = (lambda k: k * k - 1.0) if convention == "relative" else (
        lambda k: (k - 1.0) ** 2
    )
    out = []
    top = int(math.sqrt(budget + min_index**2)) + 2
    rng = range(min_index, top + 1)
    if d == 1:
        grids = ((a,) for a in rng)
    elif d == 2:
        grids = ((a, b) for a in rng for b in rng)
    else:
        grids = ((a, b, c) for a in rng for b in rng for c in rng)
    for tup in grids:
        val = sum(shift(k) for k in tup)
        if val <= budget + 1e-15:
            out.append(val * 0.5 * math.pi**2)
    return np.sort(np.array(out))


def unit_box_ids(d, eta, convention="relative"):
    """Count modes of the d-dimensional unit box with gap <= eta.

    The gap of n is (pi^2/2)(sum_j n_j^2 - d) by default ("relative"), or
    (pi^2/2) sum_j (n_j - 1)^2 under the "printed" convention. The count
    includes the all-ones mode, so unit_box_ids(d, 0) >= 1.
    """
    return len(unit_box_gap_values(d, eta, min_index=1, convention=convention))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("convention", ["relative", "printed"])
def test_unit_box_gap_values_match_brute_loop(d, convention):
    got = unit_box_gap_values(d, 90.0, min_index=2, convention=convention)
    want = brute_unit_gaps(d, 90.0, 2, convention)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_box_ids_counts_all_modes(d):
    for eta in (0.0, 30.0, 77.7):
        want = len(brute_unit_gaps(d, eta, 1, "relative"))
        assert unit_box_ids(d, eta) == want


def test_unit_box_ids_printed_convention():
    # printed convention has gap 0 for the all-ones mode too
    assert unit_box_ids(1, 0.0, "printed") == 1
    want = len(brute_unit_gaps(2, 40.0, 1, "printed"))
    assert unit_box_ids(2, 40.0, "printed") == want


def test_unit_box_ids_counts_lattice_point_on_the_boundary():
    # a^2 + b^2 <= 13 has 15 solutions in a, b >= 0; 2^2 + 3^2 = 13 sits on
    # the boundary and must be counted although eta is rounded
    assert unit_box_ids(2, 13 * (0.5 * math.pi**2), "printed") == 15


def test_unit_box_rejects_bad_inputs():
    with pytest.raises(DomainError):
        unit_box_ids(4, 1.0)
    with pytest.raises(DomainError):
        unit_box_ids(2, -1.0)
    with pytest.raises(DomainError):
        unit_box_gap_values(2, 5.0, convention="typo")


# ------------------------------------------------------------ tail bounds


def test_exponential_tail_integral_decreases_in_cutoff():
    g = BoxGeometry((0.4, 0.35, 0.25), 300.0)
    vals = [exponential_tail_integral(g, 1.0, eta) for eta in (2.0, 5.0, 10.0, 20.0)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_upper_incomplete_gamma_closed_form_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for x in np.logspace(-8.0, math.log10(700.0), 400):
        with mp.workdps(40):
            want = float(mp.gammainc(1.5, a=mp.mpf(float(x)), regularized=True))
        assert abs(_gamma_upper_32(float(x)) - want) <= 1e-15 * want
    assert _gamma_upper_32(0.0) == 1.0


@settings(max_examples=25, deadline=None)
@given(
    vol=st.floats(min_value=50.0, max_value=5000.0),
    log_tol=st.floats(min_value=-14.0, max_value=-6.0),
)
def test_suggested_cutoff_meets_tail_tolerance(vol, log_tol):
    g = BoxGeometry((0.4, 0.35, 0.25), vol)
    tol = 10.0**log_tol
    e_max = tail_cutoff(g, 1.0, tol)
    eta = e_max - ground_energy(g)
    assert exponential_tail_integral(g, 1.0, eta) < tol
    # not wastefully deep either: half the gap cutoff must violate the target
    assert exponential_tail_integral(g, 1.0, eta / 2.0) >= tol * 0.5


# ------------------------------------------------------------ power sums


def reference_theta_log_power_sums(geometry, beta, k_max):
    """log S'_k, k = 1..k_max, by the direct per-axis theta loop.

    The loop the canonical recursion ran before the Jacobi dual was added,
    kept as the oracle: theta_j(k) = 1 + sum_{n>=2} exp(-k beta c_j (n^2-1))
    over every term above exp(-745), so about sqrt(745/(beta c_j)) passes.
    """
    k = np.arange(1, k_max + 1, dtype=float)
    log_total = np.zeros(k_max)
    for c in geometry.level_coefficients:
        theta = np.ones(k_max)
        n = 2
        while True:
            scale = beta * c * (n * n - 1.0)
            k_hi = min(k_max, int(745.0 / scale))
            if k_hi < 1:
                break
            theta[:k_hi] += np.exp(k[:k_hi] * (-scale))
            n += 1
        log_total += np.log(theta)
    return log_total


@pytest.mark.parametrize(
    "alphas", [(0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15), (1 / 3,) * 3]
)
@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_log_power_sums_match_direct_theta_loop(alphas, beta):
    """The Jacobi dual (k beta c_j < 1) and the direct series agree with
    the old loop on both sides of every axis's switch point."""
    g = BoxGeometry(alphas, 2.0e4)
    switches = [1.0 / (beta * c) for c in g.level_coefficients]
    k_max = int(4 * max(switches)) + 10
    assert all(1.0 < k < k_max for k in switches)
    want = reference_theta_log_power_sums(g, beta, k_max)
    got = log_power_sums(g, beta, k_max)
    # |d log S'| is the relative error of S'
    assert np.max(np.abs(got - want)) <= 1e-14


def test_log_power_sums_is_the_box_sum():
    """exp(log S'_k) against the mode sum over a table holding every mode
    with weight above 1e-17."""
    g = BoxGeometry((0.5, 0.3, 0.2), 300.0)
    table = enumerate_below(g, ground_energy(g) + 40.0)
    s = log_power_sums(g, 1.0, 8)
    for k in range(1, 9):
        brute = float(np.sum(np.exp(-k * gaps(table))))
        assert math.exp(s[k - 1]) == pytest.approx(brute, rel=1e-14)


def looped_log_theta_shifted(t):
    """_log_theta_shifted as it ran before each branch became one masked
    array: a loop over n (direct) or m (Jacobi dual) that adds each term to
    the entries past its threshold. Kept as the oracle."""
    split = int(np.searchsorted(t, 1.0))
    inner = np.zeros(len(t) - split)
    for n in itertools.count(2):
        top = int(np.searchsorted(t, 745.0 / (n * n - 1.0)))
        if top <= split:
            break
        inner[: top - split] += np.exp(t[split:top] * -(n * n - 1.0))
    small = t[:split]
    dual = np.zeros(split)
    for m in itertools.count(1):
        lo = int(np.searchsorted(small, math.pi**2 * m * m / 745.0))
        if lo >= split:
            break
        dual[lo:] += np.exp(-math.pi**2 * m * m / small[lo:])
    head = small + 0.5 * np.log(math.pi / (4.0 * small))
    return np.concatenate((head + np.log1p(2.0 * dual - np.sqrt(small / math.pi)),
                           np.log1p(inner)))


@pytest.mark.parametrize(
    "alphas", [(0.4, 0.35, 0.25), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15), (1 / 3,) * 3]
)
@pytest.mark.parametrize("volume", [10.0, 2.0e3, 5.12e5, 5.0e6])
def test_log_theta_shifted_is_the_loop_bit_for_bit(alphas, volume):
    g = BoxGeometry(alphas, volume)
    for beta in (1e-4, 1e-2, 1.0, 30.0):
        for length in (1, 7, 511):
            k = np.arange(1, length + 1, dtype=float)
            for c in g.level_coefficients:
                t = k * (beta * c)
                assert np.array_equal(spectrum._log_theta_shifted(t),
                                      looped_log_theta_shifted(t))


@pytest.mark.parametrize("t", [
    np.empty(0), np.array([1.0]), np.array([0.5, 1.0, 2.0]), np.array([1e-300, 1e300]),
    np.geomspace(1e-20, 1e3, 997), np.geomspace(300.0, 1e4, 5), np.geomspace(1e-3, 0.013, 9),
    np.geomspace(248.0, 1e4, 5), np.geomspace(0.01, 0.0135, 9),
], ids=["empty", "one", "both", "extremes", "wide", "direct-none", "dual-none",
        "direct-edge", "dual-edge"])
def test_log_theta_shifted_is_the_loop_at_the_edges(t):
    """Empty branches, and branches none of whose terms pass exp(-745)."""
    assert np.array_equal(spectrum._log_theta_shifted(t), looped_log_theta_shifted(t))


SPECTRAL_CACHES = (spectrum.near_log_power_sums, spectrum._level_measure, spectrum.far_rule,
                   grandcanonical._near_excess)


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call of module.name from now on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_both_ensembles_read_one_near_table(monkeypatch):
    """build_canonical, the grand sums and far_rule read log S'_k for
    k <= 511 from one table, log_power_sums(geometry, beta, 511), computed
    once per box and beta, and the levels beyond from one level measure,
    built once, whose cut is the far rule's."""
    g, beta = BoxGeometry((0.5, 0.3, 0.2), 3000.0), 0.75
    want = log_power_sums(g, beta, 511)
    for cached in SPECTRAL_CACHES:
        cached.cache_clear()
    lengths = count_calls(monkeypatch, spectrum, "log_power_sums")
    measures = count_calls(monkeypatch, spectrum, "_box_measure")
    read = []
    recursion = canonical._log_partition_shifted
    monkeypatch.setattr(canonical, "_log_partition_shifted",
                        lambda ls, *args: read.append(ls.copy()) or recursion(ls, *args))
    canonical.build_canonical(g, beta, 600)
    canonical.build_canonical(g, beta, 100)
    assert np.array_equal(read[0][1:], want)
    assert np.array_equal(read[1][1:], want[:100])
    assert np.array_equal(grandcanonical._near_excess(g, beta), np.expm1(want))
    assert spectrum.far_rule(g, beta)[2] == min(745.0 / 257.0, (want[0] + 50.0) / 256.0)
    grandcanonical.solve_mu(g, 0.3, beta)
    assert [args[2] for args in lengths] == [511]
    cut = spectrum.far_rule(g, beta)[2]
    assert [args[2] for args in measures] == [cut] and spectrum._level_measure(g, beta)[3] == cut


# the gc-spectrum benchmark's boxes: regime III at V = 6.4e4 and 5.12e5,
# regime I at V = 5.12e5, all at rho = 2 rho_c
GC_BOXES = [((0.6, 0.25, 0.15), 64000.0), ((0.6, 0.25, 0.15), 512000.0),
            ((0.4, 0.35, 0.25), 512000.0)]


@pytest.mark.parametrize("alphas, volume", GC_BOXES)
def test_density_solve_builds_no_gauss_rule(alphas, volume, rho_c_value, tmp_path,
                                            monkeypatch):
    """Above saturation solve_mu, and `bosebox gc`, sum the rest k >= 512
    over the cached level measure: it is built once and never compressed.
    build_canonical then compresses the same measure into its far rule,
    once."""
    for cached in SPECTRAL_CACHES:
        cached.cache_clear()
    rules = count_calls(monkeypatch, spectrum, "_gauss_rules")
    measures = count_calls(monkeypatch, spectrum, "_box_measure")
    g, rho = BoxGeometry(alphas, volume), 2.0 * rho_c_value
    assert solve_mu(g, rho, 1.0).tail_bound > 0.0
    argv = ["gc", "--out", str(tmp_path / "gc.csv"),
            "--override", f"geometry.alphas={list(alphas)}",
            "--override", f"geometry.volume={volume}", "--override", f"rho={rho!r}"]
    assert main(argv) == 0
    assert len(measures) == 1 and rules == []
    assert spectrum.far_rule.cache_info().misses == 0
    canonical.build_canonical(g, 1.0, 2 * canonical._P0)
    canonical.build_canonical(g, 1.0, 3 * canonical._P0)
    assert len(measures) == 1 and rules
    assert spectrum.far_rule.cache_info().misses == 1


def test_gc_canonical_and_kac_share_one_level_measure(tmp_path, monkeypatch):
    """One box and beta: `bosebox gc`, `canonical` and `kac` together build
    its level measure once."""
    for cached in SPECTRAL_CACHES:
        cached.cache_clear()
    measures = count_calls(monkeypatch, spectrum, "_box_measure")
    box = ["--override", "geometry.alphas=[0.5, 0.3, 0.2]",
           "--override", "geometry.volume=2000", "--override", "rho=0.3317384186260446"]
    for command in ("gc", "canonical", "kac"):
        assert main([command, "--out", str(tmp_path / f"{command}.csv"), *box]) == 0
    assert len(measures) == 1


def test_power_sum_overflow_raises_wherever_the_table_is_read():
    g, beta = BoxGeometry((0.4, 0.35, 0.25), 1000.0), 1e-250
    for read in (spectrum.near_log_power_sums, spectrum.far_rule,
                 grandcanonical._near_excess,
                 lambda g, beta: canonical.build_canonical(g, beta, 10)):
        with pytest.raises(CutoffTooLarge, match="power sums overflow a double"):
            read(g, beta)


# ------------------------------------------------------------- far rule


def batched_gauss_rules(w, s, counts, q):
    """_gauss_rules as it ran before it took one bin at a time: Lanczos
    with full reorthogonalization on all bins at once, through reduceat
    over the bins and a gather of the projections. Kept as the oracle."""
    starts = np.cumsum(counts) - counts
    run = np.repeat(np.arange(len(counts)), counts)
    low = np.ldexp(1.0, np.frexp(s[starts])[1] - 1)
    t = 2.0 * (s / low[run]) - 3.0
    mass = np.add.reduceat(w, starts)
    vec = np.sqrt(w / mass[run])
    basis = np.empty((q, len(s)))
    jacobi = np.zeros((len(counts), q, q))
    for j in range(q):
        basis[j] = vec
        v = t * vec
        jacobi[:, j, j] = np.add.reduceat(vec * v, starts)
        if j + 1 == q:
            break
        for _ in range(2):  # classical Gram-Schmidt, twice
            proj = np.add.reduceat(basis[: j + 1] * v, starts, axis=1)
            v -= np.einsum("jn,jn->n", proj[:, run], basis[: j + 1])
        norm = np.sqrt(np.add.reduceat(v * v, starts))
        jacobi[:, j, j + 1] = jacobi[:, j + 1, j] = norm
        vec = v / np.where(norm > 0.0, norm, 1.0)[run]
    theta, vecs = np.linalg.eigh(jacobi)
    return ((mass[:, None] * vecs[:, 0] ** 2).ravel(),
            (low[:, None] * ((theta + 3.0) / 2.0)).ravel(),
            np.repeat(low, q))


@pytest.mark.parametrize("regime, volume", [
    ("I", 1.45e5), ("I", 5.12e5), ("II", 1.45e5), ("II", 5.12e5),
    ("III", 8.0e3), ("III", 1.45e5), ("III", 5.12e5), ("II", 5.0e6),
])
def test_gauss_rules_match_batched_oracle(regime, volume, rho_c_value, monkeypatch):
    """Every compression far_rule makes at beta = 1 (regimes I and II at
    V = 8e3 have no bin of more than 20 atoms): the per-bin Lanczos keeps
    the oracle's node count, with every weight positive, and its moments
    sum w e^{-ks} at 200 log-spaced k in [257, n], n = 2 rho_c V, are the
    oracle's within the nodes' rounding 8 u sum_x k x e^{-kx} over the
    bins' atoms x (the far-rule test's rounding term)."""
    alphas = {"I": (0.4, 0.35, 0.25), "II": (0.5, 0.3, 0.2), "III": (0.6, 0.25, 0.15)}
    calls = []
    per_bin = spectrum._gauss_rules

    def spy(*args):
        calls.append(args)
        return per_bin(*args)

    monkeypatch.setattr(spectrum, "_gauss_rules", spy)
    spectrum.far_rule.__wrapped__(BoxGeometry(alphas[regime], volume), 1.0)
    assert calls
    n = round(2.0 * rho_c_value * volume)
    ks = np.unique(np.geomspace(257, n, 200).round())
    ulp = np.finfo(np.longdouble).eps
    for w, s, counts, q in calls:
        weights, nodes, _ = per_bin(w, s, counts, q)
        want_w, want_s, _ = batched_gauss_rules(w, s, counts, q)
        assert np.all(weights > 0.0)
        assert len(weights) == np.count_nonzero(want_w > 0.0)
        x, mass = s.astype(np.longdouble), w.astype(np.longdouble)
        got_w, got_s = weights.astype(np.longdouble), nodes.astype(np.longdouble)
        want_w, want_s = want_w.astype(np.longdouble), want_s.astype(np.longdouble)
        for k in ks:
            terms = mass * np.exp(-k * x)
            rounding = 8.0 * 2.0**-53 * np.sum(k * x * terms) + 8.0 * ulp * terms.sum()
            got_k = np.sum(got_w * np.exp(-k * got_s))
            want_k = np.sum(want_w * np.exp(-k * want_s))
            assert abs(got_k - want_k) <= rounding
