"""Command line front end.

Subcommands mirror the library layers: ``spectrum``, ``gc``, ``canonical``,
``kac``, ``limits``, ``fluct`` and ``sweep``. Configuration comes from an
optional JSON file plus ``--override key=value`` entries; results go to
stdout or to ``--out`` as CSV (17 significant digits, LF line endings) or
JSON. Every row echoes the inputs it was computed from and carries an
``error_budget`` column. Output files are written atomically.

Exit codes: 0 success (possibly with warnings on stderr), 1 output
interrupted by a closed pipe, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import operator
import os
import sys
import tempfile

from .errors import ConfigError, CutoffInsufficient, NumericsError
from .spectrum import (
    BoxGeometry,
    classify,
    count_modes_at_most,
    enumerate_below,
    ground_energy,
    ids,
    ids_bounds,
    ids_limit,
    suggest_energy_cutoff,
)
from .grandcanonical import (
    critical_density,
    gc_laplace_limit,
    gc_occupation_limit,
    limiting_mu_bar,
    mean_occupation,
    solve_ladder_coefficient,
    solve_mu,
)
from .canonical import (
    build_canonical,
    generalized_condensate,
    occupation_laplace,
    occupation_moment,
)
from .kac import decomposition_check, kac_weights, limiting_kac_transform
from .limits import (
    canonical_laplace_typeII,
    canonical_limit_typeI,
    fluctuation_convergence_check,
    fluctuation_law,
    g_with_budget,
    law_weights,
    occupation_limit_typeII,
)

# Largest particle number run without cutoffs.allow_large_n: `bosebox
# canonical` at n = 1 990 431 (V = 6e6, rho = 2 rho_c, regime I) takes
# 1.7-2.5 s and 123 MB peak RSS on a 2-core x86-64 VM.
N_MAX_HARD_CAP = 2_000_000

# `spectrum` prints the SPECTRUM_ROWS lowest modes up to e_max (by energy,
# ties in lexicographic order), but lists only those up to a cutoff
# e_list <= e_max below which at least SPECTRUM_ROWS modes lie. The listed
# modes are a subset of the full table and hold every mode of it up to the
# SPECTRUM_ROWS-th energy, so both tables sort to the same first
# SPECTRUM_ROWS rows. e_list is padded by _LIST_PAD of itself, far more
# than the few ulps by which the lattice walk's edge test and a mode's
# computed energy can disagree.
SPECTRUM_ROWS = 1000
_LIST_PAD = 1e-9

# `limits` prints the ladder modes (n,1,1) up to n = ladder_count <= this
LADDER_COUNT_MAX = 1000

DEFAULT_CONFIG = {
    "geometry": {
        "alphas": [0.4, 0.35, 0.25],
        "volume": 1000.0,
        "volume_sweep": None,
    },
    "beta": 1.0,
    "rho": 0.3,
    "mode": [1, 1, 1],
    "lambda_grid": [0.1, 1.0, 10.0],
    "eta_grid": [0.5, 1.0, 2.0, 5.0],
    "ladder_count": 5,
    "sweep_target": "gc",
    "cutoffs": {
        "energy_tail_tol": 1e-12,
        "n_max": N_MAX_HARD_CAP,
        "mode_budget": 20_000_000,
        "e_max": None,
        "allow_large_n": False,
    },
    "output": {"format": "csv", "path": None},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(cfg: dict, entry: str) -> None:
    if "=" not in entry:
        raise ConfigError(f"override {entry!r} is not of the form key=value")
    path, raw = entry.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"override path {path!r} does not exist")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"override path {path!r} does not exist")
    node[keys[-1]] = value


def load_config(path: str | None, overrides) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        cfg = _deep_merge(cfg, user)
    for entry in overrides or []:
        _apply_override(cfg, entry)
    return cfg


def _geometry(cfg: dict, volume: float | None = None) -> BoxGeometry:
    alphas = cfg["geometry"]["alphas"]
    vol = float(volume if volume is not None else cfg["geometry"]["volume"])
    try:
        return BoxGeometry(alpha=tuple(float(a) for a in alphas), volume=vol)
    except NumericsError as exc:
        raise ConfigError(f"geometry invariant violated: {exc}")


def _coerce_number(cfg: dict, path: str, kind=float):
    """Convert the config entry at ``path`` in place, or raise ConfigError.

    ``kind`` is float, int, or list (a non-empty list of floats); every
    number must be finite.
    """
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    value = node[last]
    try:
        if kind is list and not (isinstance(value, (list, tuple)) and value):
            raise ValueError
        number = [float(v) for v in value] if kind is list else kind(value)
        finite = all(map(math.isfinite, number if kind is list else [number]))
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        noun = {float: "a finite number", int: "an integer",
                list: "a non-empty list of finite numbers"}[kind]
        raise ConfigError(f"{path} must be {noun}, got {value!r}")
    node[last] = number
    return number


def _validate(cfg: dict) -> None:
    if _coerce_number(cfg, "beta") <= 0.0:
        raise ConfigError(f"beta must be positive, got {cfg['beta']!r}")
    if _coerce_number(cfg, "rho") <= 0.0:
        raise ConfigError(f"rho must be positive, got {cfg['rho']!r}")
    _coerce_number(cfg, "geometry.volume")
    _coerce_number(cfg, "geometry.alphas", list)
    if cfg["geometry"]["volume_sweep"] is not None:
        _coerce_number(cfg, "geometry.volume_sweep", list)
    _coerce_number(cfg, "lambda_grid", list)
    _coerce_number(cfg, "eta_grid", list)
    ladder_count = _coerce_number(cfg, "ladder_count", int)
    if ladder_count > LADDER_COUNT_MAX:
        raise ConfigError(f"ladder_count={ladder_count} exceeds {LADDER_COUNT_MAX}")
    _coerce_number(cfg, "cutoffs.energy_tail_tol")
    _coerce_number(cfg, "cutoffs.mode_budget")
    if cfg["cutoffs"]["e_max"] is not None:
        _coerce_number(cfg, "cutoffs.e_max")
    n_max = _coerce_number(cfg, "cutoffs.n_max", int)
    if n_max > N_MAX_HARD_CAP and not cfg["cutoffs"]["allow_large_n"]:
        raise ConfigError(
            f"cutoffs.n_max={n_max} exceeds the {N_MAX_HARD_CAP} budget; "
            "set cutoffs.allow_large_n to proceed"
        )
    mode = cfg["mode"]
    try:
        entries = [int(v) for v in mode]
    except (TypeError, ValueError, OverflowError):
        entries = []
    if len(entries) != 3 or any(v < 1 for v in entries):
        raise ConfigError(f"mode must be three integers >= 1, got {mode!r}")
    cfg["mode"] = entries
    fmt = cfg["output"]["format"]
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    path = cfg["output"]["path"]
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")


def _particle_number(cfg: dict, volume: float) -> int:
    n = int(round(float(cfg["rho"]) * volume))
    n_max = int(cfg["cutoffs"]["n_max"])
    if n > n_max:
        raise ConfigError(
            f"n = round(rho*V) = {n} exceeds cutoffs.n_max = {n_max}; "
            "raise n_max (and allow_large_n beyond the budget) or lower rho/V"
        )
    if n < 1:
        raise ConfigError(f"n = round(rho*V) = {n} must be at least 1")
    return n


def _row_builder(cfg: dict, geom: BoxGeometry, *columns: str):
    """Rows of one command: the inputs they were computed from, then
    ``columns`` in order.

    The builder takes each cell by column name and leaves the unset ones
    "". A name of an echoed input (the volume of a sweep row) replaces that
    input in its place.
    """
    echo = {
        "alpha1": geom.alpha[0],
        "alpha2": geom.alpha[1],
        "alpha3": geom.alpha[2],
        "volume": geom.volume,
        "beta": float(cfg["beta"]),
        "rho": float(cfg["rho"]),
    }
    blank = dict.fromkeys(columns, "")
    return lambda **cells: {**echo, **blank, **cells}


def _listing_cutoff(geom: BoxGeometry, e_max: float, mode_budget: int) -> float:
    """Cutoff up to which `spectrum` lists modes.

    CutoffTooLarge if more than ``mode_budget`` modes lie up to e_max.
    Otherwise the gap above the ground level starts at 3 min(c_j) and
    doubles until at least SPECTRUM_ROWS modes lie below it or it reaches
    e_max (see SPECTRUM_ROWS for why the first rows are those of the full
    table).
    """
    if count_modes_at_most(geom, e_max, mode_budget=mode_budget) <= SPECTRUM_ROWS:
        return e_max
    ground = ground_energy(geom)
    width = 3.0 * min(geom.level_coefficients)
    while ground + width < e_max:
        e_list = ground + width
        if count_modes_at_most(geom, e_list) >= SPECTRUM_ROWS:
            return min(e_list * (1.0 + _LIST_PAD), e_max)
        width *= 2.0
    return e_max


def cmd_spectrum(cfg: dict) -> list[dict]:
    geom = _geometry(cfg)
    e_max = cfg["cutoffs"]["e_max"]
    if e_max is None:
        e_max = suggest_energy_cutoff(
            geom, float(cfg["beta"]), tail_tol=float(cfg["cutoffs"]["energy_tail_tol"])
        )
    # the budget counts every mode up to e_max, though only the lowest
    # SPECTRUM_ROWS are printed
    mode_budget = int(cfg["cutoffs"]["mode_budget"])
    e_list = _listing_cutoff(geom, float(e_max), mode_budget)
    table = enumerate_below(geom, e_list, mode_budget=mode_budget)
    if len(table) == 0:
        print(
            f"warning: energy cutoff {table.cutoff!r} lies below the ground level "
            f"{table.ground_energy!r}; spectrum table is empty",
            file=sys.stderr,
        )
    regime = classify(geom)
    row = _row_builder(cfg, geom, "quantity", "label", "n1", "n2", "n3",
                       "eta", "value", "error_budget")
    rows = [row(quantity="regime", label=f"{regime.condensation}/{regime.symmetry}",
                value=regime.gamma, error_budget=0.0)]
    for (n1, n2, n3), e in zip(table.modes[:SPECTRUM_ROWS].tolist(),
                               table.energies[:SPECTRUM_ROWS].tolist()):
        rows.append(row(quantity="eigenvalue", n1=n1, n2=n2, n3=n3, value=e,
                        error_budget=0.0))
    for eta in cfg["eta_grid"]:
        eta = float(eta)
        lower, upper = ids_bounds(geom, eta)
        for name, value in (
            ("ids", ids(geom, eta)),
            ("ids_limit", ids_limit(eta)),
            ("ids_lower", lower),
            ("ids_upper", upper),
        ):
            rows.append(row(quantity=name, eta=eta, value=value, error_budget=0.0))
    return rows


def cmd_gc(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    row = _row_builder(cfg, geom, "quantity", "lam", "value", "error_budget")
    rc = critical_density(beta)
    sol = solve_mu(geom, rho, beta)
    mode = tuple(int(v) for v in cfg["mode"])
    occupation = mean_occupation(geom, sol.mu_bar, mode, beta)
    rows = [
        row(quantity="rho_c", value=rc.value, error_budget=rc.roundoff),
        row(quantity="mu", value=sol.mu, error_budget=sol.residual),
        row(quantity="mu_bar", value=sol.mu_bar, error_budget=sol.residual),
        row(quantity="density_residual", value=sol.residual, error_budget=sol.tail_bound),
        row(quantity="mode_occupation", value=occupation, error_budget=sol.tail_bound),
    ]
    if rho <= rc.value:
        rows.append(row(quantity="mu_bar_limit", value=limiting_mu_bar(rho, beta),
                        error_budget=rc.roundoff))
        return rows
    regime = classify(geom)
    if regime.condensation == "II":
        ladder = solve_ladder_coefficient(rho, rc.value, beta=beta)
        rows.append(row(quantity="ladder_coefficient", value=ladder.value,
                        error_budget=ladder.residual))
    condensate = gc_occupation_limit(regime, rho, mode, beta)
    rows.append(row(quantity="condensate_limit", value=condensate, error_budget=rc.roundoff))
    for lam in cfg["lambda_grid"]:
        value = gc_laplace_limit(regime, rho, mode, float(lam), beta)
        rows.append(row(quantity="laplace_limit", lam=float(lam), value=value,
                        error_budget=rc.roundoff))
    return rows


def cmd_canonical(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    row = _row_builder(cfg, geom, "quantity", "lam", "value", "error_budget")
    n = _particle_number(cfg, geom.volume)
    ct = build_canonical(geom, beta, n)
    mode = tuple(int(v) for v in cfg["mode"])
    roundoff = 4e-16 * n
    mean = occupation_moment(ct, mode, n, 1)
    rows = [
        row(quantity="particle_number", value=float(n), error_budget=0.0),
        row(quantity="occupation_mean", value=mean, error_budget=roundoff),
        row(quantity="occupation_second_moment", value=occupation_moment(ct, mode, n, 2),
            error_budget=roundoff),
        row(quantity="occupation_density", value=mean / geom.volume, error_budget=roundoff),
        row(quantity="condensate_share", value=generalized_condensate(ct, n, 0.05),
            error_budget=roundoff),
    ]
    for lam in cfg["lambda_grid"]:
        value = occupation_laplace(ct, mode, n, float(lam))
        rows.append(row(quantity="occupation_laplace", lam=float(lam), value=value,
                        error_budget=roundoff))
    return rows


def cmd_kac(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    row = _row_builder(cfg, geom, "quantity", "lam", "lhs", "rhs", "value",
                       "error_budget")
    sol = solve_mu(geom, rho, beta)
    rc = critical_density(beta).value
    ct, kw = _mixture_table(cfg, geom, sol.mu, _mixture_n_max(cfg, rho, rc, geom.volume))
    mass = float(kw.weights.sum())
    mode = tuple(int(v) for v in cfg["mode"])
    rows = [
        row(quantity="weight_mass", value=mass, error_budget=kw.tail_bound),
        row(quantity="weight_cutoff", value=float(kw.n_cut), error_budget=kw.tail_bound),
    ]
    regime = classify(geom)
    for lam in cfg["lambda_grid"]:
        lam = float(lam)
        lhs, rhs, budget = decomposition_check(ct, sol.mu, kw, mode, lam)
        rows.append(row(quantity="decomposition", lam=lam, lhs=lhs, rhs=rhs,
                        value=abs(lhs - rhs), error_budget=1e-10 + budget))
        rows.append(row(quantity="limit_transform", lam=lam,
                        value=limiting_kac_transform(regime, rho, lam, beta),
                        error_budget=kw.tail_bound))
    return rows


def _mixture_n_max(cfg: dict, rho: float, rho_c: float, volume: float) -> int:
    excess = max(rho - rho_c, 0.0)
    base = volume * (min(rho, rho_c) + 35.0 * excess)
    n_max = int(math.ceil(base + 25.0 * math.sqrt(rho * volume) + 300.0))
    cap = int(cfg["cutoffs"]["n_max"])
    if n_max > cap and not cfg["cutoffs"]["allow_large_n"]:
        raise ConfigError(
            f"mixture weights need n_max about {n_max}, above cutoffs.n_max="
            f"{cap}; raise it (and allow_large_n beyond the budget)"
        )
    return n_max


def _mixture_table(cfg: dict, geom: BoxGeometry, mu: float, n_max: int):
    """The canonical table of ``n_max`` rows and the mixture weights at mu.

    Where the weights' tail does not fit (CutoffInsufficient, as near
    saturation), the table is built again at twice the length, up to
    cutoffs.n_max unless cutoffs.allow_large_n is set. The build is linear
    in n, so that costs at most about twice the last build.
    """
    cap = math.inf if cfg["cutoffs"]["allow_large_n"] else int(cfg["cutoffs"]["n_max"])
    while True:
        ct = build_canonical(geom, float(cfg["beta"]), n_max)
        try:
            return ct, kac_weights(ct, mu)
        except CutoffInsufficient:
            if n_max >= cap:
                raise
            n_max = min(2 * n_max, cap)


def cmd_limits(cfg: dict, volume: float | None = None) -> list[dict]:
    """Canonical and grand-canonical limit laws side by side.

    Every value comes from the library's one implementation of its law, and
    ``difference`` is |canonical_value - grand_value|. Where the two
    ensembles share a law (the regime-I condensate density, every regime-III
    row) both columns print it.
    """
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    row = _row_builder(cfg, geom, "quantity", "n", "lam", "canonical_value",
                       "grand_value", "difference", "error_budget")
    regime = classify(geom)
    rc = critical_density(beta).value
    if rho <= rc:
        return [row(quantity="mu_bar_limit", grand_value=limiting_mu_bar(rho, beta),
                    error_budget=0.0)]

    def pair(quantity, n, lam, canonical, grand, budget):
        return row(quantity=quantity, n=n, lam=lam, canonical_value=canonical,
                   grand_value=grand, difference=abs(canonical - grand),
                   error_budget=budget)

    mode = tuple(int(v) for v in cfg["mode"])
    lams = [float(lam) for lam in cfg["lambda_grid"]]
    if regime.condensation == "I":
        mean = gc_occupation_limit(regime, rho, mode, beta)
        rows = [pair("condensate", mode[0], "", mean, mean, 0.0)]
        for lam in lams:
            ce = canonical_limit_typeI(mode, lam, rho, rc)
            gc = gc_laplace_limit(regime, rho, mode, lam, beta)
            rows.append(pair("laplace", mode[0], lam, ce, gc, 0.0))
        return rows
    if regime.condensation == "III":
        rows = []
        for lam in lams:
            law = gc_laplace_limit(regime, rho, mode, lam, beta)
            rows.append(pair("laplace_scaled", mode[0], lam, law, law, 0.0))
        mean = gc_occupation_limit(regime, rho, mode, beta)
        rows.append(pair("scaled_mean", mode[0], "", mean, mean, 0.0))
        return rows
    # critical ladder: the canonical and grand-canonical laws differ
    residual = solve_ladder_coefficient(rho, rc, beta=beta).residual
    rows = []
    for n in range(1, int(cfg["ladder_count"]) + 1):
        ce = occupation_limit_typeII(n, rho, rc, beta)
        gc = gc_occupation_limit(regime, rho, (n, 1, 1), beta)
        rows.append(pair("ladder_occupation", n, "", ce, gc, residual))
    for lam in lams:
        ce = canonical_laplace_typeII(mode[0], lam, rho, rc, beta)
        gc = gc_laplace_limit(regime, rho, mode, lam, beta)
        rows.append(pair("laplace", mode[0], lam, ce, gc, residual))
    return rows


def cmd_fluct(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    row = _row_builder(cfg, geom, "quantity", "lam", "value", "limit", "gap",
                       "error_budget")
    regime = classify(geom)
    if regime.gamma <= 0.0:
        raise ConfigError(
            "fluct rows need the fast-gap regime (largest alpha below 1/2), "
            f"got alphas {geom.alpha!r}"
        )
    weights = law_weights(regime.symmetry)
    rows = []
    for lam in cfg["lambda_grid"]:
        lam = float(lam)
        gs = [g_with_budget(d, lam, beta) for d in (1, 2, 3)]
        for d, (value, budget) in enumerate(gs, start=1):
            rows.append(row(quantity=f"g{d}", lam=lam, value=value, error_budget=budget))
        law = fluctuation_law(regime.symmetry, lam, beta, sums=[g for g, _ in gs])
        # exp(g + e) - exp(g) = exp(g) expm1(e): the exponent's budget on the law
        spread = math.expm1(sum(w * b for w, (_, b) in zip(weights, gs)))
        rows.append(row(quantity="law", lam=lam, value=law, error_budget=law * spread))
    sweep = cfg["geometry"]["volume_sweep"]
    if sweep:
        tables = []
        for v in sweep:
            g_v = _geometry(cfg, float(v))
            n = _particle_number(cfg, g_v.volume)
            tables.append(build_canonical(g_v, beta, n))
        for lam in cfg["lambda_grid"]:
            for fr in fluctuation_convergence_check(tables, rho, float(lam)):
                rows.append(row(volume=fr.volume, quantity="convergence", lam=float(lam),
                                value=fr.value, limit=fr.limit, gap=fr.gap,
                                error_budget=abs(fr.centered_mean)))
    return rows


def cmd_sweep(cfg: dict) -> list[dict]:
    sweep = cfg["geometry"]["volume_sweep"]
    if not sweep:
        raise ConfigError("sweep needs geometry.volume_sweep, a list of volumes")
    target = cfg["sweep_target"]
    if target not in _SWEEPABLE:
        raise ConfigError(
            f"sweep_target must be one of {sorted(_SWEEPABLE)}, got {target!r}"
        )
    rows = []
    for v in sweep:
        rows.extend(COMMANDS[target](cfg, float(v)))
    return rows


_FLOAT_CELL = "{:.16e}".format


def _blank(value) -> str:
    return ""


def _cell_format(kind):
    """How a cell of type ``kind`` prints: a float with 17 significant
    digits, None blank, anything else (str, int, bool) as str prints it."""
    if issubclass(kind, float):
        return _FLOAT_CELL
    if kind is type(None):
        return _blank
    return str


def _format_column(cells: list) -> list[str]:
    """The cells of one column as text. Each object is formatted once: a
    value that every row shares (an echoed input) yields one string, as do
    the small ints that many rows hold. Each type's format is looked up
    once."""
    first = cells[0]
    if all(map(operator.is_, cells, itertools.repeat(first))):
        return [_cell_format(type(first))(first)] * len(cells)
    distinct = dict(zip(map(id, cells), cells))
    formats = {kind: _cell_format(kind) for kind in set(map(type, distinct.values()))}
    if len(formats) == 1:
        (fmt,) = formats.values()
        text = dict(zip(distinct, map(fmt, distinct.values())))
    else:
        text = {key: formats[type(cell)](cell) for key, cell in distinct.items()}
    return list(map(text.__getitem__, map(id, cells)))


def render_csv(rows: list[dict]) -> str:
    """CSV under the first row's keys, one column at a time: a key a row
    lacks leaves its cell blank, and a key not in the header is dropped."""
    if not rows:
        return "\n"
    header = list(rows[0])
    columns = []
    for name in header:
        try:
            cells = list(map(operator.itemgetter(name), rows))
        except KeyError:
            cells = [row.get(name, "") for row in rows]
        columns.append(_format_column(cells))
    # the empty last line ends the text with a newline, without a copy
    return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


def render_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, or raise BrokenPipeError.

    Under ``python -u`` the text layer writes straight through to a raw
    ``FileIO``, which may accept only part of the bytes before the reader
    goes away and drops the rest without an error. So the encoded text goes
    to the binary layer in a loop until every byte is taken.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    encoded = text.encode(stream.encoding or "utf-8", stream.errors or "strict")
    data = memoryview(encoded)
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def write_output(text: str, path: str | None) -> None:
    if path is None:
        _write_stdout(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bosebox-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


COMMANDS = {
    "spectrum": cmd_spectrum,
    "gc": cmd_gc,
    "canonical": cmd_canonical,
    "kac": cmd_kac,
    "limits": cmd_limits,
    "fluct": cmd_fluct,
    "sweep": cmd_sweep,
}
# the commands a sweep runs once per volume
_SWEEPABLE = COMMANDS.keys() - {"spectrum", "sweep"}


# parse_args leaves the parser as it is, so one serves every main call
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosebox",
        description="Finite-volume Bose gas numerics in anisotropic boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", default=None, choices=("csv", "json"), help="output format"
        )
        p.add_argument(
            "--override",
            action="append",
            default=None,
            metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        if name == "spectrum":
            p.add_argument(
                "--emax", type=float, default=None, help="energy cutoff override"
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        if getattr(args, "emax", None) is not None:
            cfg["cutoffs"]["e_max"] = float(args.emax)
        if args.format is not None:
            cfg["output"]["format"] = args.format
        if args.out is not None:
            cfg["output"]["path"] = args.out
        _validate(cfg)
        rows = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OverflowError) as exc:
        # OverflowError: arithmetic on inputs that leave double range
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = render_csv(rows) if cfg["output"]["format"] == "csv" else render_json(rows)
    try:
        write_output(text, cfg["output"]["path"])
    except BrokenPipeError:
        # The stdout reader went away (e.g. piped into head). Point the
        # descriptor at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
