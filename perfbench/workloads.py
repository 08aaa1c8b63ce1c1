"""Workload definitions: each workload is a fixed list of ``bosebox`` CLI
invocations whose lambda grids and probed modes are drawn from the seed.

Volumes, densities and geometries are fixed, so the amount of work in a
run does not depend on the seed. The program sees only the generated
``--override`` values.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# rho_c = zeta(3/2) (2 pi beta)^(-3/2) at beta = 1; rho = 2 rho_c is the
# supercritical density of the acceptance tests.
RHO_SUPER = "0.3317384186260446"
RHO_SUB = "0.08"

ALPHAS = {
    "I": "[0.4, 0.35, 0.25]",
    "II": "[0.5, 0.3, 0.2]",
    "III": "[0.6, 0.25, 0.15]",
}

# Fixed ranges the seed draws from.
LAMBDA_RANGE = (0.05, 20.0)  # log-uniform, stratified
MODE_RANGE = ((1, 3), (1, 2), (1, 2))  # inclusive, per axis


class Invocation:
    """One CLI operation: a name (also the output file stem) and its argv."""

    def __init__(self, name: str, command: str, overrides: list[str]):
        self.name = name
        self.command = command
        self.overrides = overrides

    def argv(self, out_path: str) -> list[str]:
        argv = [self.command, "--out", out_path]
        for entry in self.overrides:
            argv += ["--override", entry]
        return argv


def _lambdas(rng: random.Random, count: int) -> str:
    # One draw per equal slice of the log range: the cost of a canonical
    # transform depends on lambda, so every seed's grid spans the range
    # alike and the run length stays nearly seed-independent.
    lo, hi = LAMBDA_RANGE
    values = [lo * (hi / lo) ** ((i + rng.random()) / count) for i in range(count)]
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _mode(rng: random.Random) -> str:
    return "[" + ", ".join(str(rng.randint(a, b)) for a, b in MODE_RANGE) + "]"


def _common(rng: random.Random, regime: str, rho: str, n_lambda: int) -> list[str]:
    return [
        f"geometry.alphas={ALPHAS[regime]}",
        f"rho={rho}",
        f"lambda_grid={_lambdas(rng, n_lambda)}",
        f"mode={_mode(rng)}",
    ]


def _canonical_build(rng: random.Random) -> list[Invocation]:
    """The O(n^2) recursion at n = 2 654 / 21 231 / 48 102 (below the CLI's
    50 000 cap), so a change shows how it scales with n."""
    return [
        Invocation(
            "sweep-canonical-III",
            "sweep",
            _common(rng, "III", RHO_SUPER, 4)
            + [
                "sweep_target=canonical",
                "geometry.volume_sweep=[8000, 64000, 145000]",
            ],
        )
    ]


def _gc_spectrum(rng: random.Random) -> list[Invocation]:
    """Mode enumeration and the mu solve at up to 3.19 M modes, plus the
    spectrum listing; never runs the canonical recursion."""
    return [
        Invocation(
            "sweep-gc-III",
            "sweep",
            _common(rng, "III", RHO_SUPER, 4)
            + ["sweep_target=gc", "geometry.volume_sweep=[64000, 512000]"],
        ),
        Invocation(
            "gc-I",
            "gc",
            _common(rng, "I", RHO_SUPER, 4) + ["geometry.volume=512000"],
        ),
        Invocation(
            "spectrum-II",
            "spectrum",
            [f"geometry.alphas={ALPHAS['II']}", "geometry.volume=64000"],
        ),
    ]


def _mixture_limits(rng: random.Random) -> list[Invocation]:
    """Many canonical queries over small tables, and the mixture (kac) and
    limit-law layers the other workloads skip."""
    return [
        Invocation(
            "kac-II-super",
            "kac",
            _common(rng, "II", RHO_SUPER, 5) + ["geometry.volume=2000"],
        ),
        Invocation(
            "kac-I-sub",
            "kac",
            _common(rng, "I", RHO_SUB, 3) + ["geometry.volume=2000"],
        ),
        Invocation(
            "limits-II",
            "limits",
            _common(rng, "II", RHO_SUPER, 8) + ["ladder_count=40"],
        ),
        Invocation(
            "gc-II",
            "gc",
            _common(rng, "II", RHO_SUPER, 8) + ["geometry.volume=1000"],
        ),
        Invocation(
            "fluct-I",
            "fluct",
            _common(rng, "I", RHO_SUPER, 6)
            + ["geometry.volume_sweep=[1000, 4000, 16000]"],
        ),
    ]


WORKLOADS = {
    "canonical-build": _canonical_build,
    "gc-spectrum": _gc_spectrum,
    "mixture-limits": _mixture_limits,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of ``workload`` for ``seed`` (same seed, same list)."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)
