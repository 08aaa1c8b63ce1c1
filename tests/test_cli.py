"""Command line interface tests: config handling, exit codes, output formats."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bosebox
import bosebox.canonical
import bosebox.cli
import bosebox.kac
import bosebox.limits
import bosebox.spectrum
from bosebox import BoxGeometry, enumerate_below, suggest_energy_cutoff
from bosebox.cli import (
    DEFAULT_CONFIG,
    _apply_override,
    _cell_format,
    _format_column,
    load_config,
    main,
    render_csv,
    write_output,
)
from bosebox.errors import ConfigError

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration


def test_default_config_is_copied():
    cfg = load_config(None, None)
    cfg["geometry"]["volume"] = -1.0
    assert DEFAULT_CONFIG["geometry"]["volume"] == 1000.0


def test_config_file_merges_nested_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"geometry": {"volume": 500.0}, "rho": 0.2}))
    cfg = load_config(str(path), None)
    assert cfg["geometry"]["volume"] == 500.0
    assert cfg["geometry"]["alphas"] == [0.4, 0.35, 0.25]
    assert cfg["rho"] == 0.2
    assert cfg["beta"] == 1.0


def test_overrides_parse_json_values():
    cfg = load_config(None, [
        "cutoffs.n_max=1234",
        "geometry.alphas=[0.5, 0.3, 0.2]",
        "output.format=json",
    ])
    assert cfg["cutoffs"]["n_max"] == 1234
    assert cfg["geometry"]["alphas"] == [0.5, 0.3, 0.2]
    assert cfg["output"]["format"] == "json"


def test_override_rejects_malformed_entries():
    cfg = load_config(None, None)
    with pytest.raises(ConfigError):
        _apply_override(cfg, "beta")
    with pytest.raises(ConfigError):
        _apply_override(cfg, "nosuch.key=1")
    with pytest.raises(ConfigError):
        _apply_override(cfg, "geometry.nosuch=1")


def test_missing_or_invalid_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"), None)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad), None)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(arr), None)


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "override",
    [
        "geometry.alphas=[0.2, 0.3, 0.5]",  # not sorted decreasing
        "geometry.alphas=[0.5, 0.4, 0.2]",  # does not sum to one
        "beta=-1.0",
        "rho=0.0",
        "mode=[0, 1, 1]",
        "output.format=\"xml\"",
        "rho=",  # empty value falls back to the empty string
        "lambda_grid=5",  # scalar where a list is required
        "lambda_grid=\"123\"",  # a string is not a list of numbers
        "mode=\"abc\"",
        # settings that are gone: an unknown override path
        "solver.tol=0",
        "solver.max_iter=0",
        "cutoffs.series_M=1",
        "cutoffs.mode_budget=1000",
        "cutoffs.energy_tail_tol=1e-9",
        "cutoffs.allow_large_n=true",
        "ladder_count=1001",  # above 1000
        "ladder_count=-1",
        "sweep_target=\"fluct\"",  # fluct sweeps geometry.volume_sweep itself
        "sweep_target=[1]",  # unhashable: `sweep` exited 1 with a TypeError traceback
        "output.path=5",
    ],
)
def test_bad_configuration_exits_two(capsys, override):
    code, _, err = run_cli(capsys, "gc", "--override", override)
    assert code == 2
    assert "error:" in err
    if override.startswith(("solver.", "cutoffs.series_M=", "cutoffs.mode_budget=",
                            "cutoffs.energy_tail_tol=", "cutoffs.allow_large_n=")):
        assert "does not exist" in err


@pytest.mark.parametrize(
    "override",
    [
        "beta=NaN",  # used to exit 3 with a misleading CutoffTooLarge
        "rho=Infinity",  # used to exit 1 with an OverflowError traceback
        "lambda_grid=[NaN]",  # used to exit 0 with nan rows
        "cutoffs.n_max=Infinity",  # used to exit 1 with an OverflowError traceback
        "mode=[Infinity, 1, 1]",  # used to exit 1 with an OverflowError traceback
    ],
)
def test_non_finite_configuration_exits_two(capsys, override):
    code, out, err = run_cli(capsys, "canonical", "--override", override)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert out == ""


def test_oversized_particle_number_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "canonical", "--override", "rho=3000.0"  # n = 3e6, past n_max
    )
    assert code == 2
    assert "n_max" in err


def test_sweep_without_volumes_exits_two(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep",
        "--override", "geometry.volume_sweep=[250.0]",
        "--override", "sweep_target=\"nope\"",
    )
    assert code == 2


def test_limits_at_the_smallest_density_exits_zero(capsys):
    """rho/rho_c underflows to 0 at rho = 5e-324, beta = 1e-8; the limiting
    mu_bar is still solved."""
    code, out, _ = run_cli(capsys, "limits", "--override", "rho=5e-324",
                           "--override", "beta=1e-8")
    assert code == 0
    assert ",mu_bar_limit," in out


def test_transform_pole_exits_three(capsys):
    pole = 0.5 * math.pi**2 * 3.0
    code, _, err = run_cli(
        capsys, "limits",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", f"lambda_grid=[{pole!r}]",
    )
    assert code == 3
    assert "PoleProximity" in err


def test_lambda_on_any_ladder_gap_exits_three(capsys):
    """The regime-II transforms refuse a lambda within 1e-9 of any ladder
    gap eta_{m,1}, however large m: eta_{3,1} and eta_{1001,1} alike."""
    base = ("limits", "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
            "--override", "ladder_count=2")
    for m in (3, 1001):
        gap = 1.0 * (0.5 * math.pi**2 * m * m - 0.5 * math.pi**2 * 1 * 1)
        code, _, err = run_cli(capsys, *base, "--override", f"lambda_grid=[{gap!r}]")
        assert code == 3, (m, err)
        assert "PoleProximity" in err


def test_fluct_needs_fast_gap_regime(capsys):
    code, _, err = run_cli(
        capsys, "fluct", "--override", "geometry.alphas=[0.5, 0.3, 0.2]"
    )
    assert code == 2
    assert "fast-gap" in err


# why `gc` at V = 1e308 fails, by exit code
_HUGE_VOLUME_ERRORS = {
    # the far rule's cut takes in more levels than an axis may list
    3: "CutoffTooLarge: an axis holds more than 4194304 levels",
    # V**(2 a_1) overflows a double
    2: "out of range for double-precision levels",
}


@pytest.mark.parametrize(
    "alphas, expected", [("[0.4, 0.35, 0.25]", 3), ("[0.6, 0.25, 0.15]", 2)]
)
def test_huge_volume_exits_cleanly(capsys, alphas, expected):
    code, out, err = run_cli(
        capsys, "gc",
        "--override", "geometry.volume=1e308",
        "--override", f"geometry.alphas={alphas}",
    )
    assert code == expected
    assert _HUGE_VOLUME_ERRORS[expected] in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("command", ["gc", "limits"])
@pytest.mark.parametrize("alphas, expected", [("[0.5, 0.3, 0.2]", 3), ("[0.6, 0.25, 0.15]", 0)])
def test_underflowing_saturation_density_exits_cleanly(capsys, command, alphas, expected):
    """At beta = 1e300, rho = 1e-300 rho_c underflows to 0: the ladder
    equation of regime II has no root in double precision (it used to
    divide by a root of a same-sign bracket), and regime III's limits are
    finite (its pole test used to divide by a scale that underflows)."""
    code, out, err = run_cli(
        capsys, command,
        "--override", f"geometry.alphas={alphas}",
        "--override", "beta=1e300",
        "--override", "rho=1e-300",
    )
    assert code == expected, err
    assert "Traceback" not in err
    cells = [c for line in out.splitlines()[1:] for c in line.split(",")[6:]]
    assert all(math.isfinite(float(c)) for c in cells if FLOAT_CELL.match(c))
    assert bool(cells) == (expected == 0)


@pytest.mark.parametrize(
    "command, override",
    [
        ("spectrum", "eta_grid=[1e300]"),  # ids_bounds used to overflow
        ("gc", "beta=1e-300"),
        ("fluct", "lambda_grid=[1e300]"),
        ("limits", "lambda_grid=[-1e300]"),
        ("canonical", "lambda_grid=[-1e300]"),  # used to print inf
    ],
)
def test_overflowing_inputs_exit_three(capsys, command, override):
    code, out, err = run_cli(capsys, command, "--override", override)
    assert code == 3
    assert "numerical failure" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "alphas", ["[0.4, 0.35, 0.25]", "[0.5, 0.3, 0.2]", "[0.6, 0.25, 0.15]"]
)
def test_gc_builds_no_spectrum_table(capsys, monkeypatch, alphas):
    def refuse(*args, **kwargs):
        raise AssertionError("gc listed the spectrum")

    monkeypatch.setattr(bosebox.spectrum, "enumerate_below", refuse)
    monkeypatch.setattr(bosebox.cli, "enumerate_below", refuse)
    code, out, err = run_cli(
        capsys, "gc",
        "--override", f"geometry.alphas={alphas}",
        "--override", "geometry.volume=64000",
        "--override", "rho=0.3317384186260446",
    )
    assert code == 0, err
    assert "mode_occupation" in out


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("canonical", []),
        ("kac", []),
        ("fluct", ["geometry.volume_sweep=[1000, 4000]"]),
    ],
)
def test_canonical_tables_list_only_the_condensate_window(
    capsys, monkeypatch, command, overrides
):
    """Canonical, mixture and fluctuation rows ask for no spectral cutoff and
    list no mode above ground + 0.05, the condensate window of `canonical`."""
    def no_cutoff(*args, **kwargs):
        raise AssertionError(f"{command} asked for a spectral cutoff")

    listed = []
    enumerate_below = bosebox.spectrum.enumerate_below

    def window_only(geometry, e_max, **kwargs):
        ground = bosebox.spectrum.ground_energy(geometry)
        assert e_max <= (ground + 0.05) * (1.0 + 1e-12), f"{command} listed up to {e_max!r}"
        table = enumerate_below(geometry, e_max, **kwargs)
        listed.append(len(table))
        return table

    for module in (bosebox.spectrum, bosebox.cli):
        monkeypatch.setattr(module, "suggest_energy_cutoff", no_cutoff)
    for module in (bosebox.spectrum, bosebox.cli, bosebox.canonical):
        monkeypatch.setattr(module, "enumerate_below", window_only)
    argv = [command, "--override", "rho=0.3317384186260446"]
    for entry in overrides:
        argv += ["--override", entry]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(out.splitlines()) > 1
    # at V = 1000 only the ground mode lies below ground + 0.05
    assert listed == ([1] if command == "canonical" else [])


def test_canonical_runs_beyond_the_old_mode_budget(capsys):
    # more than 1000 modes lie below the suggested cutoff at V = 5e4; the
    # table reads the power sums and lists only the few modes below
    # ground + 0.05
    code, out, err = run_cli(
        capsys, "canonical",
        "--override", "geometry.volume=50000",
        "--override", "rho=0.3317384186260446",
    )
    assert code == 0, err
    rows = {line.split(",")[6]: line.split(",") for line in out.splitlines()[1:]}
    assert float(rows["particle_number"][8]) == 16587.0
    ground, share = (float(rows[q][8]) for q in ("occupation_density", "condensate_share"))
    assert 0.0 < ground < share < 0.3317384186260446


def test_fluct_lists_no_lattice_gaps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fluct listed lattice gaps")

    monkeypatch.setattr(bosebox.spectrum, "unit_box_gap_values", refuse, raising=False)
    monkeypatch.setattr(bosebox.limits, "unit_box_gap_values", refuse, raising=False)
    code, out, err = run_cli(
        capsys, "fluct",
        "--override", "geometry.alphas=[0.3333333333333333, 0.3333333333333333, 0.3333333333333333]",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {r[6] for r in rows} == {"g1", "g2", "g3", "law"}
    assert all(0.0 <= float(r[-1]) <= 1e-10 for r in rows)


def test_gc_at_huge_beta_reports_the_ground_occupation(capsys):
    # mu rounds to E_1 here; the occupation reads mu_bar, which does not
    code, out, err = run_cli(capsys, "gc", "--format", "json", "--override", "beta=1e300")
    assert code == 0, err
    rows = {r["quantity"]: r for r in json.loads(out)}
    assert rows["mu"]["value"] == rows["mu"]["value"] + rows["mu_bar"]["value"]
    assert rows["mode_occupation"]["value"] == pytest.approx(300.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, beta, exit_code", [
    pytest.param("gc", "1e300", 0, id="gc-1e300"),
    pytest.param("limits", "1e306", 3, id="limits-1e306"),
])
def test_ladder_at_huge_beta_prints_no_warnings(capsys, command, beta, exit_code):
    # the ladder terms overflow here: gc used to warn from numpy and then exit
    # 3 on an OverflowError in the ladder remainder, and limits warned from
    # the table of ladder gaps. limits then printed 0 for every excited ladder
    # mode, whose integrand its quadrature cannot resolve there; it exits 3.
    code, out, err = run_cli(
        capsys, command,
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", f"beta={beta}",
    )
    assert code == exit_code, err
    if exit_code:
        assert out == ""
        assert err.startswith("numerical failure: CutoffInsufficient: ladder mode n=2 ")
    else:
        assert err == ""
        assert out


@pytest.mark.parametrize("command", ["gc", "limits"])
@pytest.mark.parametrize("rho", ["0.1675279014061524", "0.16603507852233518"],
                         ids=["1.01rho_c", "1.001rho_c"])
def test_ladder_just_above_saturation_exits_zero(capsys, command, rho):
    # the truncated ladder series used to leave a residual above 1e-12 here
    code, out, err = run_cli(
        capsys, command, "--format", "json",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", f"rho={rho}",
    )
    assert code == 0, err
    rows = json.loads(out)
    ladder = "ladder_coefficient" if command == "gc" else "ladder_occupation"
    budgets = [r["error_budget"] for r in rows if r["quantity"] == ladder]
    assert budgets and all(0.0 < b <= 1e-12 for b in budgets)


@pytest.mark.filterwarnings("error")
def test_ladder_mode_at_the_truncation_prints_no_warnings(capsys):
    # a mode far up the ladder: its pole test and quadrature warn of nothing
    code, out, err = run_cli(
        capsys, "limits",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", "mode=[600, 1, 1]",
        "--override", "ladder_count=1",
    )
    assert code == 0
    assert err == ""
    assert all(math.isfinite(float(c)) for line in out.splitlines()[1:]
               for c in line.split(",")[7:] if c)


def test_recursion_power_sum_overflow_exits_three(capsys):
    # S'_1 leaves the double range at this beta; the recursion used to warn
    # from np.expm1 and then fail in math.exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "canonical",
            "--override", "beta=1e-250",
            "--override", "geometry.volume=1000",
        )
    assert code == 3
    assert "CutoffTooLarge: power sums overflow a double at this volume and beta" in err
    assert "Traceback" not in err
    assert out == ""


def test_grand_sum_power_sum_overflow_exits_three(capsys):
    # kac meets the overflow first in the grand sums of its mu solve
    code, out, err = run_cli(
        capsys, "kac", "--override", "beta=1e-250", "--override", "geometry.volume=1000",
    )
    assert code == 3
    assert "CutoffTooLarge: power sums overflow a double at this volume and beta" in err
    assert out == ""


def test_empty_spectrum_warns_but_succeeds(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--emax", "0.1")
    assert code == 0
    assert "warning:" in err
    assert "regime" in out


# ---------------------------------------------------------------------------
# output formats


def test_csv_output_format(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--emax", "1.0", "--out", str(out_path))
    assert code == 0
    assert out == ""
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["alpha1", "alpha2", "alpha3", "volume"]
    assert "quantity" in header and "error_budget" in header
    value_col = header.index("value")
    eig = [l for l in lines[1:] if l.split(",")[header.index("quantity")] == "eigenvalue"]
    assert eig, "expected at least one eigenvalue row below the cutoff"
    for line in eig:
        assert FLOAT_CELL.match(line.split(",")[value_col])
    assert not list(tmp_path.glob(".bosebox-*"))  # temp file was renamed away


@pytest.mark.parametrize(
    "alphas, volume, emax, tie_at_row_1000",
    [
        ((0.4, 0.35, 0.25), 4000.0, None, False),
        ((0.4, 0.3, 0.3), 2000.0, None, True),
        ((0.35, 0.35, 0.3), 4000.0, None, True),
        ((0.4, 0.35, 0.25), 64000.0, 2.0, False),
    ],
    ids=["regime-I", "two-equal-small", "two-equal-large", "emax-2"],
)
def test_spectrum_lists_the_first_thousand_modes(
    capsys, tmp_path, alphas, volume, emax, tie_at_row_1000
):
    """The printed rows are the first 1000 of the full table up to e_max,
    also where equal energies straddle the last printed row."""
    geom = BoxGeometry(alphas, volume)
    e_max = emax if emax is not None else suggest_energy_cutoff(geom, 1.0)
    table = enumerate_below(geom, e_max)
    assert len(table) > 1000
    assert (table.energies[999] == table.energies[1000]) == tie_at_row_1000
    out_path = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--out", str(out_path),
            "--override", f"geometry.alphas={list(alphas)}",
            "--override", f"geometry.volume={volume}"]
    if emax is not None:
        argv += ["--emax", str(emax)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    eig = [r for r in rows if r["quantity"] == "eigenvalue"]
    assert len(eig) == 1000
    for row, mode, energy in zip(eig, table.modes, table.energies):
        assert (row["n1"], row["n2"], row["n3"]) == tuple(str(int(v)) for v in mode)
        assert row["value"] == f"{float(energy):.16e}"


def test_spectrum_lists_only_the_printed_window(capsys, monkeypatch):
    """Regime II at V = 6.4e4 holds 402 118 modes below the suggested
    cutoff; only a window around the 1000 printed ones is listed."""
    listed = []
    enumerate_below = bosebox.cli.enumerate_below

    def counting(geometry, e_max, **kwargs):
        table = enumerate_below(geometry, e_max, **kwargs)
        listed.append(len(table))
        return table

    monkeypatch.setattr(bosebox.cli, "enumerate_below", counting)
    code, out, err = run_cli(
        capsys, "spectrum",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", "geometry.volume=64000",
    )
    assert code == 0, err
    assert sum(",eigenvalue," in line for line in out.splitlines()) == 1000
    assert len(listed) == 1 and 1000 <= listed[0] < 5000


def test_spectrum_counts_no_mode_above_the_printed_window(capsys):
    """More than 20 M modes lie below e_max = 1e6 at V = 1000; the listing
    window stops below e_max, so the run prints the same first 1000 modes
    as at the default cutoff."""
    rows = {}
    for argv in ((), ("--emax", "1e6")):
        code, out, err = run_cli(capsys, "spectrum", *argv)
        assert code == 0, err
        rows[argv] = [line for line in out.splitlines() if ",eigenvalue," in line]
    assert len(rows[()]) == 1000
    assert rows[("--emax", "1e6")] == rows[()]


def test_json_output_parses(capsys):
    code, out, _ = run_cli(
        capsys, "gc", "--format", "json",
        "--override", "geometry.volume=250.0", "--override", "rho=0.1",
    )
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and rows
    quantities = {r["quantity"] for r in rows}
    assert {"rho_c", "mu", "mu_bar", "mu_bar_limit"} <= quantities
    for r in rows:
        assert r["volume"] == 250.0


# ---------------------------------------------------------------------------
# the argv grammar

_COMMAND_NAMES = ("spectrum", "gc", "canonical", "kac", "limits", "fluct", "sweep")
_OPTION_NAMES = ("--config", "--out", "--format", "--override", "--emax", "--help")
_SMALL = ("--override", "geometry.volume=250")


@pytest.mark.parametrize("argv, code, text", [
    # accepted: --name value and --name=value, the last one given wins
    (["gc", *_SMALL], 0, "alpha1,"),
    (["gc", "--override=geometry.volume=250"], 0, "alpha1,"),
    (["gc", "--format=json", *_SMALL], 0, "[\n"),
    (["gc", "--format", "json", "--format", "csv", *_SMALL], 0, "alpha1,"),
    (["gc", "--format", "csv", "--format=json", *_SMALL], 0, "[\n"),
    (["spectrum", "--emax", "1.0"], 0, "alpha1,"),
    (["spectrum", "--emax=1.0", "--emax", "2.0"], 0, "alpha1,"),
    (["spectrum", "--emax", "-1"], 0, "alpha1,"),  # a negative number is a value
    # -h or --help anywhere
    (["--help"], 0, "usage: bosebox COMMAND"),
    (["-h"], 0, "usage: bosebox COMMAND"),
    (["gc", "--help"], 0, "usage: bosebox COMMAND"),
    (["nosuch", *_SMALL, "-h"], 0, "usage: bosebox COMMAND"),
    # refused: no command, or an unknown one
    ([], 2, "expected a command"),
    (["nosuch"], 2, "expected a command"),
    (["--override", "rho=0.1", "gc"], 2, "expected a command"),
    # an unknown option, abbreviations included
    (["gc", "--over", "rho=0.1"], 2, "unrecognized argument '--over'"),
    (["gc", "--conf=run.json"], 2, "unrecognized argument '--conf=run.json'"),
    (["spectrum", "--em", "1.0"], 2, "unrecognized argument '--em'"),
    (["gc", "--emax", "1"], 2, "unrecognized argument '--emax'"),
    (["gc", "-x"], 2, "unrecognized argument '-x'"),
    (["gc", "--", "x"], 2, "unrecognized argument '--'"),
    # a missing value, or a value that is another option's name
    (["gc", "--override"], 2, "--override expects a value"),
    (["gc", "--out", "--format", "json"], 2, "--out expects a value"),
    (["gc", "--config", "--override=rho=0.1"], 2, "--config expects a value"),
    (["spectrum", "--format", "--emax", "1"], 2, "--format expects a value"),
    # an extra positional argument
    (["gc", "extra"], 2, "unrecognized argument 'extra'"),
    (["gc", *_SMALL, "rho=0.1"], 2, "unrecognized argument 'rho=0.1'"),
    # a bad --format or --emax
    (["gc", "--format", "xml"], 2, "output.format must be csv or json, got 'xml'"),
    (["gc", "--format="], 2, "output.format must be csv or json, got ''"),
    (["spectrum", "--emax", "abc"], 2, "cutoffs.e_max must be a finite number, got 'abc'"),
    (["spectrum", "--emax=nan"], 2, "cutoffs.e_max must be a finite number"),
])
def test_argv_grammar(capsys, argv, code, text):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "Traceback" not in out + err
    if code == 0:
        assert out.startswith(text)
        if text.startswith("usage:"):
            assert err == ""
            assert all(f"\n  {name} " in out for name in _COMMAND_NAMES)
            assert all(name in out for name in _OPTION_NAMES)
    else:
        assert out == ""
        assert err.startswith("error: ")
        assert text in err
        assert err.endswith("\n" + bosebox.cli._USAGE + "\n")


def test_out_with_equals_writes_the_same_bytes(capsys, tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli(capsys, "gc", *_SMALL, "--out", str(spaced))[:2] == (0, "")
    assert run_cli(capsys, "gc", *_SMALL, f"--out={joined}")[:2] == (0, "")
    assert joined.read_bytes() == spaced.read_bytes()
    assert spaced.read_bytes().startswith(b"alpha1,")


def test_repeated_override_keeps_the_last_value(capsys):
    code, out, _ = run_cli(capsys, "gc", "--format", "json", *_SMALL,
                           "--override", "rho=0.5", "--override=rho=0.1")
    assert code == 0
    assert {row["rho"] for row in json.loads(out)} == {0.1}


# ---------------------------------------------------------------------------
# rendering


def test_render_csv_empty():
    assert render_csv([]) == "\n"


def format_cell_oracle(value) -> str:
    """The format render_csv applied to each cell before it took a column
    at a time, kept as its oracle."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    if value is None:
        return ""
    return str(value)


def render_csv_oracle(rows: list[dict]) -> str:
    """render_csv one cell at a time, as it ran before."""
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell_oracle(row.get(col, "")) for col in header))
    return "\n".join(lines) + "\n"


def _distinct_copy(value):
    """An equal float that is not the same object (float(x) returns x)."""
    return float(repr(value)) if type(value) is float else value


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, -2.5e300]
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(alphabet="ab_- 0.e", max_size=4),
)


@st.composite
def _csv_rows(draw):
    """Rows over a few column names whose cells are shared objects from a
    small pool, equal but distinct copies of them, or fresh values; a row
    may lack a name or carry one more."""
    names = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6, unique=True))
    pool = draw(st.lists(_CELLS, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = {}
        for name in names + ["extra"]:
            kind = draw(st.sampled_from(["shared", "copy", "fresh", "missing"]))
            if kind == "missing" or (name == "extra" and rows == []):
                continue
            if kind == "fresh":
                row[name] = draw(_CELLS)
            else:
                value = pool[draw(st.integers(0, len(pool) - 1))]
                row[name] = value if kind == "shared" else _distinct_copy(value)
        if row:
            rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=_csv_rows())
def test_render_csv_matches_the_per_cell_oracle(rows):
    assert render_csv(rows) == render_csv_oracle(rows)


@pytest.mark.parametrize("rows", [
    [],
    [{"x": v} for v in _SPECIAL_FLOATS],
    [{"x": True, "y": None, "z": 7}, {"x": False, "y": None, "z": -10**30}],
    # columns that mix types, in each order
    [{"x": 1.5, "y": "", "z": 3}, {"x": "", "y": 2.0, "z": None}, {"x": True, "y": 4, "z": 0.0}],
    # one shared 0.0 beside an equal -0.0, and shared nan beside copies
    [{"x": _SPECIAL_FLOATS[0], "y": _SPECIAL_FLOATS[2]} for _ in range(3)]
    + [{"x": -0.0, "y": _distinct_copy(math.nan)}],
    [{"x": 0.1, "y": 0.1}, {"x": _distinct_copy(0.1), "y": 0.1}],
    # a row without a header key, one with an extra key, one in another order
    [{"a": 1.0, "b": "s"}, {"a": 2.0}, {"b": "t", "a": 3.0, "c": 9.0}, {"c": 1}],
])
def test_render_csv_matches_the_oracle_on_edge_cases(rows):
    assert render_csv(rows) == render_csv_oracle(rows)


def test_render_csv_matches_the_oracle_on_a_listing(monkeypatch):
    captured = []
    monkeypatch.setattr(bosebox.cli, "render_csv",
                        lambda rows: captured.append(rows) or render_csv(rows))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["spectrum", "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
                     "--override", "geometry.volume=64000"]) == 0
    (rows,) = captured
    assert len(rows) > 1000
    assert out.getvalue() == render_csv_oracle(rows)


def format_column_oracle(cells: list) -> list[str]:
    """_format_column one cell at a time, each by its type's format."""
    return [_cell_format(type(cell))(cell) for cell in cells]


_COLUMN_KINDS = {
    "str": st.text(alphabet="ab_- 0.e", max_size=4),
    "int": st.integers(),
    "bool": st.booleans(),
    "float": st.floats(),
    "np.float64": st.floats().map(np.float64),
    "None": st.none(),
}


@st.composite
def _columns(draw):
    """A column of cells of one to three kinds: one object shared by many
    rows, equal but distinct copies of it, and fresh values."""
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=3,
                          unique=True))
    cell = st.one_of(*(_COLUMN_KINDS[kind] for kind in kinds))
    shared = draw(cell)
    cells = []
    for _ in range(draw(st.integers(1, 30))):
        how = draw(st.sampled_from(["shared", "copy", "fresh"]))
        cells.append(shared if how == "shared" else
                     _distinct_copy(shared) if how == "copy" else draw(cell))
    return cells


@settings(max_examples=300, deadline=None)
@given(cells=_columns())
@example(cells=["a", "b", "a"])
@example(cells=[0.1, _distinct_copy(0.1), 0.1])
@example(cells=[np.float64(0.5), np.float64(0.5), np.float64(-0.0)])
@example(cells=[True, 1, 0, False])
@example(cells=["", 1.5, "", None, 3])
def test_format_column_matches_the_per_cell_oracle(cells):
    assert _format_column(cells) == format_column_oracle(cells)


def test_repeated_runs_are_byte_identical(capsys):
    args = ("gc", "--override", "geometry.volume=250.0")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# subcommand behavior


def test_gc_supercritical_reports_condensate_rows(capsys):
    code, out, _ = run_cli(
        capsys, "gc", "--format", "json",
        "--override", "geometry.volume=250.0",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
    )
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)}
    assert "ladder_coefficient" in rows  # critical-ladder regime
    assert "condensate_limit" in rows
    assert rows["mu_bar"]["value"] < 0.0
    assert rows["density_residual"]["value"] <= 1e-12 * 0.3


def test_canonical_rows_scale_with_volume(capsys):
    code, out, _ = run_cli(
        capsys, "canonical", "--format", "json",
        "--override", "geometry.volume=250.0",
    )
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)}
    assert rows["particle_number"]["value"] == 75.0
    mean = rows["occupation_mean"]["value"]
    assert 0.0 < mean < 75.0
    assert rows["occupation_density"]["value"] == pytest.approx(mean / 250.0)
    assert 0.0 <= rows["condensate_share"]["value"] <= 1.0
    for lam in (0.1, 1.0, 10.0):
        row = [
            r for r in json.loads(out)
            if r["quantity"] == "occupation_laplace" and r["lam"] == lam
        ]
        assert len(row) == 1 and 0.0 < row[0]["value"] <= 1.0


def test_kac_decomposition_rows_within_budget(capsys):
    code, out, _ = run_cli(
        capsys, "kac", "--format", "json",
        "--override", "geometry.volume=250.0",
        "--override", "lambda_grid=[0.5]",
    )
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)}
    assert rows["weight_mass"]["value"] == pytest.approx(1.0, abs=1e-9)
    dec = rows["decomposition"]
    assert dec["value"] <= dec["error_budget"]
    assert rows["limit_transform"]["value"] > 0.0


def test_limits_subcritical_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--format", "json", "--override", "rho=0.1"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["quantity"] == "mu_bar_limit"
    assert rows[0]["grand_value"] < 0.0
    # gc prints the same row with the same budget, 16 eps |mu_bar| / (1 - rho/rho_c)
    code, out, _ = run_cli(capsys, "gc", "--format", "json", "--override", "rho=0.1")
    assert code == 0
    (gc_row,) = [r for r in json.loads(out) if r["quantity"] == "mu_bar_limit"]
    assert gc_row["value"] == rows[0]["grand_value"]
    assert gc_row["error_budget"] == rows[0]["error_budget"] > 0.0
    rc = bosebox.critical_density(1.0).value
    assert rows[0]["error_budget"] == 16 * 2.0**-53 * abs(gc_row["value"]) / (1 - 0.1 / rc)


@pytest.mark.parametrize(
    "alphas, quantity",
    [
        ("[0.4, 0.35, 0.25]", "laplace"),
        ("[0.5, 0.3, 0.2]", "ladder_occupation"),
        ("[0.6, 0.25, 0.15]", "laplace_scaled"),
    ],
)
def test_limits_rows_per_regime(capsys, alphas, quantity):
    """Each row's difference is |canonical - grand|, and every ladder and
    scaled-mean grand value is the condensate limit `bosebox gc` prints for
    that mode, at beta = 1 and 2, on and off the ladder."""

    def run(command, beta, mode):
        code, out, err = run_cli(
            capsys, command, "--format", "json",
            "--override", f"geometry.alphas={alphas}",
            "--override", f"beta={beta}", "--override", f"mode={list(mode)}",
        )
        assert code == 0, err
        return json.loads(out)

    def gc_condensate(beta, mode):
        rows = [r for r in run("gc", beta, mode) if r["quantity"] == "condensate_limit"]
        return rows[0]["value"]

    for beta in (1.0, 2.0):
        for mode in ((1, 1, 1), (2, 1, 1), (1, 2, 1)):
            rows = run("limits", beta, mode)
            assert any(r["quantity"] == quantity for r in rows)
            for r in rows:
                # the two ensembles' limits genuinely differ above saturation;
                # the difference column has to report that gap faithfully
                assert r["difference"] == abs(r["canonical_value"] - r["grand_value"])
                if r["quantity"] == "ladder_occupation":
                    assert r["canonical_value"] > 0.0 and r["grand_value"] > 0.0
                    assert r["grand_value"] == gc_condensate(beta, (r["n"], 1, 1))
                elif r["quantity"] == "scaled_mean":
                    assert r["grand_value"] == gc_condensate(beta, mode)


def test_fluct_law_rows_and_convergence_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "fluct", "--format", "json",
        "--override", "lambda_grid=[0.4]",
        "--override", "geometry.volume_sweep=[200.0, 400.0]",
    )
    assert code == 0
    rows = json.loads(out)
    law = [r for r in rows if r["quantity"] == "law"]
    g1 = [r for r in rows if r["quantity"] == "g1"]
    assert len(law) == 1 and len(g1) == 1
    assert law[0]["value"] == pytest.approx(math.exp(g1[0]["value"]), rel=1e-12)
    conv = [r for r in rows if r["quantity"] == "convergence"]
    assert [r["volume"] for r in conv] == [200.0, 400.0]
    for r in conv:
        assert r["gap"] == pytest.approx(abs(r["value"] - r["limit"]), abs=1e-15)


@pytest.mark.parametrize("target", bosebox.cli._SWEEPABLE)
def test_sweep_matches_direct_runs(capsys, target):
    """A sweep prints the direct run at its first volume, then the data
    rows of the direct run at each further one."""
    outs = []
    for volume in (250.0, 500.0):
        code, out, _ = run_cli(capsys, target, "--override", f"geometry.volume={volume}")
        assert code == 0
        outs.append(out)
    code, swept, _ = run_cli(
        capsys, "sweep",
        "--override", "geometry.volume_sweep=[250.0, 500.0]",
        "--override", f"sweep_target={target}",
    )
    assert code == 0
    assert swept == outs[0] + outs[1].split("\n", 1)[1]


def _child_env(**extra):
    """``os.environ`` with the imported ``bosebox`` package's directory first on
    ``PYTHONPATH``, so a child runs the same code from any working directory."""
    src = str(Path(bosebox.__file__).resolve().parents[1])
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    return env


def test_console_entry_point_runs():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["bosebox"] == "bosebox.cli:main"
    module, func = scripts["bosebox"].split(":")
    # What the generated console script does: import the target, exit with it.
    commands = [[
        sys.executable, "-c",
        f"import sys; from {module} import {func}; sys.exit({func}())",
    ]]
    installed = shutil.which("bosebox")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["spectrum", "--emax", "1.0"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("alpha1,")


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from bosebox.cli import main
runs = [
    ["canonical"],
    ["gc"],
    ["gc", "--override", "rho=0.08"],
    ["kac"],
    ["limits", "--override", "geometry.alphas=[0.5, 0.3, 0.2]", "--override", "ladder_count=3"],
    ["fluct"],
    ["spectrum", "--emax", "1.0"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_run_without_scipy():
    """The library needs numpy only: every command, root solves and ladder
    coefficients included, runs in a fresh process that never imports
    scipy, not even lazily."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_NO_NUMPY_MA_SCRIPT = """
import contextlib, io, sys
from bosebox.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["limits", "--override", "geometry.alphas=[0.5, 0.3, 0.2]"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_limits_does_not_import_numpy_ma():
    """The ladder quadrature's panel edges are deduplicated without
    np.unique, whose first call imports numpy.ma (about 10 ms)."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_NO_NUMPY_POLYNOMIAL_SCRIPT = """
import contextlib, io, sys
from bosebox.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["limits", "--override", "geometry.alphas=[0.5, 0.3, 0.2]"]) == 0
    assert main(["fluct"]) == 0
print("numpy.polynomial" in sys.modules)
"""


def test_limits_and_fluct_do_not_import_numpy_polynomial():
    """The Gauss-Legendre rule comes from the Jacobi matrix's eigenvalues,
    without numpy.polynomial (3-7 ms and about 0.7 MB to import)."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_POLYNOMIAL_SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_THREADS_SCRIPT = """
import json, os, sys
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps([len(os.listdir("/proc/self/task")),
                  {name: os.environ.get(name) for name in %r}]))
""" % (_BLAS_VARIABLES,)


def _threads_after_import(*modules, **preset):
    """Threads of a fresh process that imports ``modules`` in turn, and the
    BLAS thread variables it then sees; only ``preset`` of them are set."""
    env = _child_env(**preset)
    for name in set(_BLAS_VARIABLES) - set(preset):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, *modules],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    tasks, variables = json.loads(proc.stdout)
    return tasks, variables


_LINUX_ONLY = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="counts threads in /proc/self/task")


@_LINUX_ONLY
def test_import_loads_blas_with_one_thread():
    """Without a thread count set, numpy's BLAS starts no worker thread,
    and the variable that asked for that is gone again."""
    assert _threads_after_import("bosebox") == (1, dict.fromkeys(_BLAS_VARIABLES))


@_LINUX_ONLY
@pytest.mark.parametrize("name", _BLAS_VARIABLES)
def test_import_honours_a_preset_blas_thread_count(name):
    assert (_threads_after_import("bosebox", **{name: "2"})
            == _threads_after_import("numpy", **{name: "2"}))


@_LINUX_ONLY
def test_import_after_numpy_leaves_its_blas_pool():
    assert _threads_after_import("numpy", "bosebox") == _threads_after_import("numpy")


# ---------------------------------------------------------------------------
# work done once per command


def test_cli_import_leaves_argparse_out():
    """argv is parsed by a loop over the five options, so importing the
    command line (and running a command) loads no argparse or gettext."""
    script = ("import contextlib, io, sys\n"
              "from bosebox.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['gc', '--override', 'geometry.volume=250']) == 0\n"
              "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fluct_evaluates_theta_once_per_grid(capsys, monkeypatch):
    """fluct's g_d ranges snap to the panel lattice, so its 6 lambdas and
    3 dimensions share theta grids: at most 6 theta evaluations, a coarse
    and a fine grid per dimension, where each g_d once took its own two."""
    calls = {"_log_theta_shifted": 0}
    monkeypatch.setattr(bosebox.limits, "_log_theta_shifted", _counting(
        calls, "_log_theta_shifted", bosebox.limits._log_theta_shifted))
    bosebox.limits.g_with_budget.cache_clear()
    bosebox.limits._theta_grid.cache_clear()
    try:
        code, out, err = run_cli(
            capsys, "fluct", "--override", "lambda_grid=[0.1, 0.3, 1.0, 2.0, 5.0, 10.0]",
        )
    finally:
        bosebox.limits.g_with_budget.cache_clear()
        bosebox.limits._theta_grid.cache_clear()
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 6 * 4
    assert 0 < calls["_log_theta_shifted"] <= 6


@pytest.mark.parametrize("rho", ["0.1675279014061524", "0.16603507852233518"],
                         ids=["1.01rho_c", "1.001rho_c"])
def test_kac_just_above_saturation_rebuilds_a_longer_table(capsys, monkeypatch, rho):
    """The first table is too short for the weights' tail this close to
    saturation; it is built again at twice its length, which holds it."""
    lengths = []
    build = bosebox.cli.build_canonical
    monkeypatch.setattr(bosebox.cli, "build_canonical",
                        lambda g, beta, n: lengths.append(n) or build(g, beta, n))
    code, out, err = run_cli(
        capsys, "kac", "--format", "json",
        "--override", "geometry.alphas=[0.5, 0.3, 0.2]", "--override", f"rho={rho}",
    )
    assert code == 0, err
    (n_cut,) = [r["value"] for r in json.loads(out) if r["quantity"] == "weight_cutoff"]
    assert lengths == [lengths[0], 2 * lengths[0]]
    assert lengths[0] < n_cut < lengths[1]


def test_kac_rebuild_stops_at_the_n_max_cutoff(capsys, monkeypatch):
    lengths = []
    build = bosebox.cli.build_canonical
    monkeypatch.setattr(bosebox.cli, "build_canonical",
                        lambda g, beta, n: lengths.append(n) or build(g, beta, n))
    code, out, err = run_cli(
        capsys, "kac", "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", "rho=0.1675279014061524", "--override", "cutoffs.n_max=900",
    )
    assert code == 3
    assert "CutoffInsufficient" in err and "n_max=900" in err
    assert out == ""
    assert lengths[-1] == 900 and len(lengths) == 2


def test_kac_builds_one_table_under_a_raised_n_max(capsys, monkeypatch):
    """cutoffs.n_max above its default is accepted on its own, and it only
    bounds the table: kac still builds the one table its estimate asks for."""
    lengths = []
    build = bosebox.cli.build_canonical
    monkeypatch.setattr(bosebox.cli, "build_canonical",
                        lambda g, beta, n: lengths.append(n) or build(g, beta, n))
    code, out, err = run_cli(capsys, "kac", "--override", "cutoffs.n_max=3000000")
    assert code == 0, err
    assert out.count("weight_cutoff") == 1
    assert len(lengths) == 1 and lengths[0] < 3_000_000


def test_table_longer_than_memory_exits_three(capsys):
    """n = round(rho V) = 1.02e15 is within cutoffs.n_max = 2e15, but its
    table of 7 PiB cannot be allocated: a numerical failure, no traceback."""
    code, out, err = run_cli(
        capsys, "canonical", "--override", "cutoffs.n_max=2e15",
        "--override", "geometry.volume=3.4e15",
    )
    assert code == 3
    assert "numerical failure" in err and "MemoryError" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("alphas, rho", [("[0.5, 0.3, 0.2]", "0.3317384186260446"),
                                         ("[0.4, 0.35, 0.25]", "0.08")],
                         ids=["II-super", "I-sub"])
def test_kac_keeps_a_table_that_holds_the_weights(capsys, monkeypatch, alphas, rho):
    lengths = []
    build = bosebox.cli.build_canonical
    monkeypatch.setattr(bosebox.cli, "build_canonical",
                        lambda g, beta, n: lengths.append(n) or build(g, beta, n))
    code, _, err = run_cli(
        capsys, "kac", "--override", f"geometry.alphas={alphas}",
        "--override", f"rho={rho}", "--override", "geometry.volume=2000",
    )
    assert code == 0, err
    assert len(lengths) == 1


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("grid", ["[0.5]", "[0.1, 0.3, 1.0, 2.0, 5.0, 10.0]"])
def test_kac_solves_its_weights_once(capsys, monkeypatch, grid):
    """The mixture weights depend on neither lam nor the mode: one weight
    solve and one grand partition sum per run, whatever the grid's length."""
    calls = {"kac_weights": 0, "grand_partition_log": 0}
    weights = _counting(calls, "kac_weights", bosebox.kac.kac_weights)
    monkeypatch.setattr(bosebox.cli, "kac_weights", weights)
    monkeypatch.setattr(bosebox.kac, "kac_weights", weights)
    monkeypatch.setattr(bosebox.kac, "grand_partition_log",
                        _counting(calls, "grand_partition_log",
                                  bosebox.kac.grand_partition_log))
    code, out, err = run_cli(
        capsys, "kac", "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
        "--override", "rho=0.3317384186260446", "--override", f"lambda_grid={grid}",
    )
    assert code == 0, err
    assert sum(",decomposition," in line for line in out.splitlines()) == grid.count(",") + 1
    assert calls == {"kac_weights": 1, "grand_partition_log": 1}


def test_limits_builds_its_ladder_grid_once(capsys, monkeypatch):
    """Regime-II limits evaluates log Theta on the quadrature nodes once for
    its 40 ladder rows and 8 transform rows, and once at the excess density."""
    sizes = []
    log_theta = bosebox.limits._log_theta

    def counted(x):
        sizes.append(int(np.size(x)))
        return log_theta(x)

    monkeypatch.setattr(bosebox.limits, "_log_theta", counted)
    bosebox.limits._ladder_grid.cache_clear()
    try:
        code, out, err = run_cli(
            capsys, "limits", "--override", "geometry.alphas=[0.5, 0.3, 0.2]",
            "--override", "rho=0.3317384186260446", "--override", "ladder_count=40",
            "--override", "lambda_grid=[0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0]",
        )
    finally:
        bosebox.limits._ladder_grid.cache_clear()
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 40 + 8
    assert len(sizes) == 2 and sizes[1] == 1 and sizes[0] > 900


def _close_pipe_early(env):
    # The table here is ~200 KiB, several times the pipe capacity, so the
    # writer is still blocked when the reader disappears.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bosebox", "spectrum", "--emax", "6.0",
         "--override", "geometry.volume=4000.0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    with proc:  # closes stderr too on the way out
        proc.stdout.read(200)
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err


def test_closed_stdout_pipe_exits_quietly():
    code, err = _close_pipe_early(_child_env())
    assert code == 1
    assert err == b""


def test_closed_stdout_pipe_exits_quietly_unbuffered():
    # Unbuffered stdout writes straight to the raw file, where a short write
    # must not pass for success.
    code, err = _close_pipe_early(_child_env(PYTHONUNBUFFERED="1"))
    assert code == 1
    assert err == b""


class _TrickleBuffer:
    """Binary layer that takes at most three bytes per write."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data[:3]))
        return len(self.chunks[-1])

    def flush(self):
        pass


class _BrokenBuffer:
    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class _StandInStdout:
    encoding = "utf-8"
    errors = "strict"

    def __init__(self, buffer, fd=None):
        self.buffer = buffer
        self._fd = fd

    def write(self, text):
        raise AssertionError("stdout text went past the binary layer")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


def test_write_output_stdout_loops_over_short_writes(monkeypatch):
    buffer = _TrickleBuffer()
    monkeypatch.setattr(sys, "stdout", _StandInStdout(buffer))
    text = "".join(f"row,{i}\n" for i in range(100))
    write_output(text, None)
    assert len(buffer.chunks) > 1
    assert b"".join(buffer.chunks) == text.encode("utf-8")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_broken_pipe_leaves_no_open_descriptor(monkeypatch, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _StandInStdout(_BrokenBuffer(), fd))
        assert main(["spectrum", "--emax", "1.0"]) == 1
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["spectrum", "--emax", "1.0"]) == 1
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(fd)


def test_broken_pipe_on_binary_stdout_exits_1(monkeypatch, capsys, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _StandInStdout(_BrokenBuffer(), fd))
        assert main(["spectrum", "--emax", "1.0"]) == 1
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# fuzzed overrides

_EXTREMES = [0, 1, -1, 1e-300, -1e-300, 1e300, -1e300, 0.5, 2.0, 100.0]
_NON_NUMBERS = ["NaN", "Infinity", "-Infinity", "null", "true", '"abc"', "[]", "{}"]


def _scalar():
    return st.sampled_from(_EXTREMES).map(repr) | st.sampled_from(_NON_NUMBERS)


def _grid():
    items = st.lists(st.sampled_from(_EXTREMES + [0.1, 5.0]), min_size=1, max_size=3)
    return items.map(lambda v: "[" + ", ".join(repr(x) for x in v) + "]") | _scalar()


# rho_c underflows to 0 here, so the density counts as supercritical
_UNDERFLOWING_RHO_C = {"beta": "1e300", "rho": "1e-300"}

_FUZZED_KEYS = {
    "beta": _scalar(),
    "rho": _scalar(),
    "geometry.volume": _scalar(),
    "lambda_grid": _grid(),
    "eta_grid": _grid(),
    "ladder_count": _scalar(),
}


_FUZZED_COMMANDS = ["spectrum", "gc", "canonical", "limits", "fluct"]


def _fuzz_argv(command, alphas):
    """The part of a fuzzed argv that every example shares."""
    return [command, "--override", f"geometry.alphas={alphas}",
            "--override", "cutoffs.n_max=3000"]


@pytest.mark.parametrize("command", _FUZZED_COMMANDS)
def test_fuzz_base_argv_exits_zero(capsys, command):
    """The shared part of the fuzzed argv runs as it stands, so that exit 2
    in the fuzz test comes from a fuzzed override (a key that is no longer
    a setting would turn every example into exit 2)."""
    code, out, err = run_cli(capsys, *_fuzz_argv(command, "[0.4, 0.35, 0.25]"))
    assert code == 0, err
    assert len(out.splitlines()) > 1


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@example(command="gc", alphas="[0.5, 0.3, 0.2]", overrides=_UNDERFLOWING_RHO_C)
@example(command="gc", alphas="[0.6, 0.25, 0.15]", overrides=_UNDERFLOWING_RHO_C)
@example(command="limits", alphas="[0.5, 0.3, 0.2]", overrides=_UNDERFLOWING_RHO_C)
@example(command="limits", alphas="[0.6, 0.25, 0.15]", overrides=_UNDERFLOWING_RHO_C)
@given(
    command=st.sampled_from(_FUZZED_COMMANDS),
    alphas=st.sampled_from(["[0.4, 0.35, 0.25]", "[0.5, 0.3, 0.2]", "[0.6, 0.25, 0.15]"]),
    overrides=st.dictionaries(
        st.sampled_from(sorted(_FUZZED_KEYS)), st.just(None), max_size=4
    ).flatmap(
        lambda keys: st.fixed_dictionaries({k: _FUZZED_KEYS[k] for k in keys})
    ),
)
def test_fuzzed_overrides_exit_cleanly(command, alphas, overrides):
    """Any override set ends in exit 0, 2 or 3, with no traceback and with
    finite numbers in every float cell."""
    argv = _fuzz_argv(command, alphas)
    for key, value in overrides.items():
        argv += ["--override", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for line in out.getvalue().splitlines()[1:]:
        for cell in line.split(","):
            if FLOAT_CELL.match(cell):
                assert math.isfinite(float(cell)), (argv, line)
            else:
                assert cell.lower() not in ("nan", "inf", "-inf"), (argv, line)
