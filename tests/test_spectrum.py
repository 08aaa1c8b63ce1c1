"""Box geometry, level enumeration and integrated density of states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosebox import (
    BoxGeometry,
    CutoffTooLarge,
    DomainError,
    Mode,
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
    unit_box_ids,
)
from bosebox.spectrum import (
    IDS_PREFACTOR,
    exponential_tail_integral,
    unit_box_gap_values,
)


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


def test_mode_validation():
    assert Mode((2, 1, 1)).n == (2, 1, 1)
    with pytest.raises(DomainError):
        Mode((0, 1, 1))
    with pytest.raises(DomainError):
        Mode((1, 1))


def test_eigenvalue_matches_hand_formula():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    for n in ((1, 1, 1), (2, 1, 1), (1, 2, 3)):
        expect = 0.5 * math.pi**2 * sum(
            nj**2 / g.edges[j] ** 2 for j, nj in enumerate(n)
        )
        assert eigenvalue(g, n) == pytest.approx(expect, rel=1e-14)
    assert ground_energy(g) == eigenvalue(g, (1, 1, 1))


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
        assert t.index_of(n) == idx


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


def test_enumerate_below_budget_guard():
    g = BoxGeometry((0.4, 0.35, 0.25), 1000.0)
    with pytest.raises(CutoffTooLarge):
        enumerate_below(g, 45.0, mode_budget=100)


def test_index_of_unknown_mode_raises():
    g = BoxGeometry((0.4, 0.35, 0.25), 64.0)
    t = enumerate_below(g, 10.0)
    with pytest.raises(DomainError):
        t.index_of((40, 40, 40))


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


@settings(max_examples=25, deadline=None)
@given(
    vol=st.floats(min_value=50.0, max_value=5000.0),
    log_tol=st.floats(min_value=-14.0, max_value=-6.0),
)
def test_suggested_cutoff_meets_tail_tolerance(vol, log_tol):
    g = BoxGeometry((0.4, 0.35, 0.25), vol)
    tol = 10.0**log_tol
    e_max = suggest_energy_cutoff(g, 1.0, tail_tol=tol)
    eta = e_max - ground_energy(g)
    assert exponential_tail_integral(g, 1.0, eta) < tol
    # not wastefully deep either: half the gap cutoff must violate the target
    assert exponential_tail_integral(g, 1.0, eta / 2.0) >= tol * 0.5
