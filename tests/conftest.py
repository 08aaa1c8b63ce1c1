"""Shared fixtures.

One canonical build on the box geometry and one moderately deep listing of
its spectrum (for oracles that sum over listed modes) are reused by several
test files; both are session scoped because the canonical recursion is the
only genuinely expensive setup in the suite.
"""

import pytest

from bosebox import BoxGeometry, build_canonical, critical_density, enumerate_below

ALPHAS = (0.4, 0.35, 0.25)
VOLUME = 1000.0
BETA = 1.0
# Deep cutoff: the listed-mode pressure sum of the oracles drops less than
# 1e-10 of beta V p_k above it (the density-based suggestion, about 27 at
# this volume, would not).
EMAX = 45.0
# Number-mixture runs in the suite go up to rho = 2 * rho_c at V = 1000;
# the mixture weights need roughly this much headroom past the mean.
N_MAX = 6727


@pytest.fixture(scope="session")
def geom_aniso():
    return BoxGeometry(ALPHAS, VOLUME)


@pytest.fixture(scope="session")
def table_aniso(geom_aniso):
    return enumerate_below(geom_aniso, EMAX)


@pytest.fixture(scope="session")
def mixture_ct(geom_aniso):
    return build_canonical(geom_aniso, BETA, N_MAX)


@pytest.fixture(scope="session")
def rho_c_value():
    return critical_density(BETA).value
