"""Command line front end: ``bosebox COMMAND [options]``, as _HELP sets out.

Exit codes: 0 success (possibly with warnings on stderr), 1 output interrupted
by a closed pipe, 2 configuration or command-line error (stderr then ends with
the usage line), 3 numerical failure.
"""

from __future__ import annotations

import copy
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

# Default cutoffs.n_max, the bound on every canonical table's length:
# `bosebox canonical` at n = 1 990 431 (V = 6e6, rho = 2 rho_c, regime I)
# takes 0.9-1.8 s and 68 MB peak RSS on a 2-core x86-64 VM.
N_MAX_DEFAULT = 2_000_000

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
        "n_max": N_MAX_DEFAULT,
        "e_max": None,
    },
    "output": {"format": "csv", "path": None},
}


def _merge(cfg: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(cfg.get(key), dict) and isinstance(value, dict):
            _merge(cfg[key], value)
        else:
            cfg[key] = value


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
        _merge(cfg, user)
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
    if not 0 <= ladder_count <= LADDER_COUNT_MAX:
        raise ConfigError(f"ladder_count must be in 0..{LADDER_COUNT_MAX}, got {ladder_count}")
    target = cfg["sweep_target"]
    if target not in _SWEEPABLE:
        raise ConfigError(f"sweep_target must be one of {_SWEEPABLE}, got {target!r}")
    if cfg["cutoffs"]["e_max"] is not None:
        _coerce_number(cfg, "cutoffs.e_max")
    _coerce_number(cfg, "cutoffs.n_max", int)
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
            "raise n_max or lower rho/V"
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


def _listing_cutoff(geom: BoxGeometry, e_max: float) -> float:
    """Cutoff up to which `spectrum` lists modes: the gap above the ground
    level starts at 3 min(c_j) and doubles until at least SPECTRUM_ROWS
    modes lie below it or it reaches e_max (see SPECTRUM_ROWS for why the
    first rows are those of the full table). No mode above that cutoff is
    counted.
    """
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
        e_max = suggest_energy_cutoff(geom, float(cfg["beta"]))
    table = enumerate_below(geom, _listing_cutoff(geom, float(e_max)))
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
        value, budget = _mu_bar_limit(rho, rc.value, beta)
        rows.append(row(quantity="mu_bar_limit", value=value, error_budget=budget))
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


def _mu_bar_limit(rho: float, rho_c: float, beta: float) -> tuple[float, float]:
    """The limiting mu_bar below saturation and its budget, 16 eps
    |mu_bar| / (1 - rho/rho_c): the density equation turns a relative error
    in its terms into up to 2/(1 - rho/rho_c) of it in mu_bar, and the solve
    is in logs, so a subnormal rho adds nothing."""
    mu_bar = limiting_mu_bar(rho, beta)
    if rho == rho_c:
        return mu_bar, 0.0
    return mu_bar, 16.0 * 2.0**-53 * abs(mu_bar) / (1.0 - rho / rho_c)


def cmd_canonical(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    row = _row_builder(cfg, geom, "quantity", "lam", "value", "error_budget")
    n = _particle_number(cfg, geom.volume)
    ct = build_canonical(geom, beta, n)
    mode = tuple(int(v) for v in cfg["mode"])
    # each ratio of the recursion's rows is within a relative 4e-16 n, and
    # so is a sum of such positive terms; a transform row's budget is
    # 4e-16 n absolute for lam >= 0, where the value lies in (0, 1], and
    # relative for lam < 0, where it exceeds 1
    roundoff = 4e-16 * n
    rows = [row(quantity="particle_number", value=float(n), error_budget=0.0)]
    mean = occupation_moment(ct, mode, n, 1)
    for quantity, value in (
        ("occupation_mean", mean),
        ("occupation_second_moment", occupation_moment(ct, mode, n, 2)),
        ("occupation_density", mean / geom.volume),
        ("condensate_share", generalized_condensate(ct, n, 0.05)),
    ):
        rows.append(row(quantity=quantity, value=value, error_budget=roundoff * abs(value)))
    for lam in cfg["lambda_grid"]:
        value = occupation_laplace(ct, mode, n, float(lam))
        rows.append(row(quantity="occupation_laplace", lam=float(lam), value=value,
                        error_budget=roundoff * max(1.0, value)))
    return rows


def cmd_kac(cfg: dict, volume: float | None = None) -> list[dict]:
    geom = _geometry(cfg, volume)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    row = _row_builder(cfg, geom, "quantity", "lam", "lhs", "rhs", "value",
                       "error_budget")
    sol = solve_mu(geom, rho, beta)
    ct, kw = _mixture_table(cfg, geom, sol.mu, rho, critical_density(beta).value)
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


def _mixture_table(cfg: dict, geom: BoxGeometry, mu: float, rho: float, rho_c: float):
    """The canonical table and the mixture weights at mu.

    The table's length is first estimated from rho, rho_c and V; an
    estimate above cutoffs.n_max is refused (ConfigError). Where the
    weights' tail does not fit (CutoffInsufficient, as near saturation),
    the table is built again at twice the length, but never past
    cutoffs.n_max. The build is linear in n, so that costs at most about
    twice the last build.
    """
    base = geom.volume * (min(rho, rho_c) + 35.0 * max(rho - rho_c, 0.0))
    n = int(math.ceil(base + 25.0 * math.sqrt(rho * geom.volume) + 300.0))
    n_max = int(cfg["cutoffs"]["n_max"])
    if n > n_max:
        raise ConfigError(
            f"mixture weights need n_max about {n}, above cutoffs.n_max={n_max}; raise it"
        )
    while True:
        ct = build_canonical(geom, float(cfg["beta"]), n)
        try:
            return ct, kac_weights(ct, mu)
        except CutoffInsufficient:
            if n >= n_max:
                raise
            n = min(2 * n, n_max)


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
        value, budget = _mu_bar_limit(rho, rc, beta)
        return [row(quantity="mu_bar_limit", grand_value=value, error_budget=budget)]

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


def cmd_fluct(cfg: dict) -> list[dict]:
    geom = _geometry(cfg)
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
        law = fluctuation_law(regime.symmetry, lam, beta)
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
    rows = []
    for v in sweep:
        rows.extend(COMMANDS[cfg["sweep_target"]](cfg, float(v)))
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
    """The cells of one column as text. A value that every row shares (an
    echoed input) is formatted once and a column of strs is itself; a
    column of one type is one pass of its format, and any other column is
    formatted cell by cell by type."""
    first = cells[0]
    if all(map(operator.is_, cells, itertools.repeat(first))):
        return [_cell_format(type(first))(first)] * len(cells)
    formats = {kind: _cell_format(kind) for kind in set(map(type, cells))}
    if len(formats) > 1:
        return [formats[type(cell)](cell) for cell in cells]
    ((kind, fmt),) = formats.items()
    return cells if kind is str else list(map(fmt, cells))


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
# the commands a sweep runs once per volume (fluct sweeps geometry.volume_sweep
# itself); a list, so that an unhashable sweep_target tests as absent
_SWEEPABLE = sorted(COMMANDS.keys() - {"spectrum", "fluct", "sweep"})


_HELP = """\
usage: bosebox COMMAND [--config PATH] [--out PATH] [--format csv|json] [--override KEY=VALUE]... [--emax E]

Finite-volume Bose gas numerics in anisotropic boxes. Commands:
  spectrum   eigenvalues, regime label, counting function
  gc         chemical potential, occupations, condensate limits
  canonical  fixed-n occupation statistics
  kac        mixture weights and decomposition residuals
  limits     canonical vs grand-canonical limit laws
  fluct      fluctuation generating functions and sweeps
  sweep      gc, canonical, kac or limits across geometry.volume_sweep
Options (--NAME VALUE or --NAME=VALUE; of a repeated option the last counts, --override excepted):
  --config PATH         JSON configuration, merged over the defaults
  --override KEY=VALUE  set a config entry by dotted path to a JSON value (repeatable, in order)
  --format csv|json     CSV (17 significant digits, LF line endings; the default) or JSON
  --out PATH            write to PATH atomically instead of stdout
  --emax E              energy cutoff (spectrum only)
  -h, --help            print this help
"""
_USAGE = _HELP.partition("\n")[0]
_OPTIONS = ("--config", "--out", "--format", "--override", "--emax")
# the config entry each option sets, after every --override; _validate converts it
_SETS = {"--out": ("output", "path"), "--format": ("output", "format"), "--emax": ("cutoffs", "e_max")}


def _parse_argv(argv) -> tuple[str, dict]:
    """The command, and each option given with the list of its values in
    order (see _HELP). Any other argv raises ConfigError."""
    if not argv or argv[0] not in COMMANDS:
        raise ConfigError(f"expected a command ({', '.join(COMMANDS)}), got {(argv or [None])[0]!r}")
    accepted = _OPTIONS if argv[0] == "spectrum" else _OPTIONS[:-1]
    options = {}
    args = iter(argv[1:])
    for arg in args:
        name, has_value, value = arg.partition("=")
        if name not in accepted:
            raise ConfigError(f"unrecognized argument {arg!r}")
        if not has_value:
            value = next(args, None)
            if value is None or value.partition("=")[0] in _OPTIONS:
                raise ConfigError(f"{name} expects a value")
        options.setdefault(name, []).append(value)
    return argv[0], options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            text, path = _HELP, None
        else:
            command, options = _parse_argv(argv)
            cfg = load_config(options.get("--config", [None])[-1], options.get("--override"))
            for name, (section, key) in _SETS.items():
                if name in options:
                    cfg[section][key] = options[name][-1]
            _validate(cfg)
            rows = COMMANDS[command](cfg)
            path, csv = cfg["output"]["path"], cfg["output"]["format"] == "csv"
            text = render_csv(rows) if csv else json.dumps(rows, indent=2) + "\n"
    except ConfigError as exc:
        print(f"error: {exc}\n{_USAGE}", file=sys.stderr)
        return 2
    except (NumericsError, OverflowError, MemoryError) as exc:
        # OverflowError: arithmetic on inputs that leave double range;
        # MemoryError: a table longer than memory holds
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        write_output(text, path)
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
