"""Outside-in span tracer for the ``bosebox`` layers.

``install()`` wraps every public function of the layer modules and swaps
the wrapper in, by identity, wherever a ``bosebox.*`` namespace (or a
module-level dict such as the CLI's command table) holds the original.
Nested calls between layers are therefore seen as child spans. Spans are
kept in memory; a layer's self time is its span's duration minus the time
covered by its child spans.

Size records (mode counts, ``n_max``, ``n_cut``, ...) are read from the
arguments and return values at the wrapped boundary, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

LAYERS = ("spectrum", "grandcanonical", "canonical", "kac", "limits", "numerics", "cli")

# The share of a traced pass's wall time that spans may leave uncovered
# (the benchmark's own loop between CLI invocations).
COVERAGE_BOUND = 0.01


# Size records read at the wrapped boundary: from the result ...
_RESULT_SIZES = {
    "spectrum.enumerate_below": ("modes", len),
    "spectrum.unit_box_gap_values": ("gaps", len),
    "canonical.build_canonical": ("n_max", lambda table: int(table.n_max)),
    "kac.kac_weights": ("n_cut", lambda weights: int(weights.n_cut)),
}
# ... from an argument ...
_ARG_SIZES = {"canonical.occupation_laplace": "n"}
# ... and by counting calls of a function-valued argument.
_COUNTED_ARGS = {"numerics.solve_bracketed": ("fn", "fn_evals")}


def _arg_position(fn, name):
    return list(inspect.signature(fn).parameters).index(name)


class _Counted:
    """Callable proxy that counts how often it is called."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class Tracer:
    """Spans of the wrapped calls of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, self seconds, sizes)
        self._stack = []  # [span id, start, child seconds] per open span
        self._ids = itertools.count()

    def _wrap(self, qualname, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        result_size = _RESULT_SIZES.get(qualname)
        arg_size = _ARG_SIZES.get(qualname)
        if arg_size is not None:
            arg_pos = _arg_position(fn, arg_size)
        counted = _COUNTED_ARGS.get(qualname)
        if counted is not None:
            counted_pos = _arg_position(fn, counted[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sizes = {}
            counter = None
            if counted is not None:
                name = counted[0]
                if len(args) > counted_pos:
                    counter = _Counted(args[counted_pos])
                    args = args[:counted_pos] + (counter,) + args[counted_pos + 1:]
                else:
                    counter = _Counted(kwargs[name])
                    kwargs = dict(kwargs, **{name: counter})
            if arg_size is not None:
                value = args[arg_pos] if len(args) > arg_pos else kwargs[arg_size]
                sizes[arg_size] = int(value)
            frame = [next(ids), clock(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if result_size is not None:
                    sizes[result_size[0]] = result_size[1](result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                if counter is not None:
                    sizes[counted[1]] = counter.calls
                spans.append((frame[0], parent, qualname, frame[1], end,
                              duration - frame[2], sizes or None))

        return wrapper

    def install(self):
        """Wrap the layers' public functions in every ``bosebox`` namespace."""
        mods = {name: importlib.import_module(f"bosebox.{name}") for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "bosebox" or n.startswith("bosebox.")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    # -- results ----------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, self_s, sizes in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "self_s": self_s}
                record.update(sizes or {})
                fh.write(json.dumps(record) + "\n")

    def summary(self):
        """Per-function totals: calls, self and inclusive seconds, size records."""
        out = {}
        for _, _, name, start, end, self_s, sizes in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                          "max_incl_s": 0.0, "sizes": {}})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["incl_s"] += end - start
            entry["max_incl_s"] = max(entry["max_incl_s"], end - start)
            for key, value in (sizes or {}).items():
                entry["sizes"].setdefault(key, []).append(value)
        return out


def layer_metrics(summary, traced_wall_s, untraced_wall_s):
    """The per-layer metrics of one traced pass, from ``Tracer.summary()``."""

    def fn(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                  "max_incl_s": 0.0, "sizes": {}})

    def size_sum(name, key):
        return sum(fn(name)["sizes"].get(key, []))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            (e["self_s"] for n, e in summary.items() if n.split(".")[0] == layer), 0.0
        )
    eb = fn("spectrum.enumerate_below")
    m["spectrum.enumerate_below.self_s"] = eb["self_s"]
    m["spectrum.enumerate_below.calls"] = eb["calls"]
    m["spectrum.modes_enumerated"] = size_sum("spectrum.enumerate_below", "modes")
    m["grandcanonical.gc_density.calls"] = fn("grandcanonical.gc_density")["calls"]
    m["grandcanonical.gc_density.self_s"] = fn("grandcanonical.gc_density")["self_s"]
    m["grandcanonical.solve_mu.self_s"] = fn("grandcanonical.solve_mu")["self_s"]
    bc = fn("canonical.build_canonical")
    m["canonical.build_canonical.self_s"] = bc["self_s"]
    m["canonical.build_canonical.calls"] = bc["calls"]
    m["canonical.recursion_terms"] = sum(
        n * (n + 1) // 2 for n in bc["sizes"].get("n_max", [])
    )
    ol = fn("canonical.occupation_laplace")
    m["canonical.occupation_laplace.self_s"] = ol["self_s"]
    m["canonical.occupation_laplace.calls"] = ol["calls"]
    m["canonical.transform_terms"] = size_sum("canonical.occupation_laplace", "n")
    m["canonical.occupation_moment.self_s"] = fn("canonical.occupation_moment")["self_s"]
    kw = fn("kac.kac_weights")
    m["kac.kac_weights.calls"] = kw["calls"]
    m["kac.kac_weights.self_s"] = kw["self_s"]
    m["kac.n_cut"] = size_sum("kac.kac_weights", "n_cut")
    m["kac.decomposition_check.incl_s"] = fn("kac.decomposition_check")["incl_s"]
    gf = fn("limits.g_function")
    m["limits.g_function.incl_s"] = gf["incl_s"]
    m["limits.g_function.calls"] = gf["calls"]
    m["numerics.omega.self_s"] = fn("numerics.omega")["self_s"]
    m["spectrum.unit_box_gap_values.self_s"] = fn("spectrum.unit_box_gap_values")["self_s"]
    m["spectrum.lattice_gaps"] = size_sum("spectrum.unit_box_gap_values", "gaps")
    m["limits.occupation_limit_typeII.self_s"] = fn("limits.occupation_limit_typeII")["self_s"]
    m["limits.canonical_laplace_typeII.self_s"] = fn("limits.canonical_laplace_typeII")["self_s"]
    m["grandcanonical.solve_ladder_coefficient.calls"] = fn(
        "grandcanonical.solve_ladder_coefficient")["calls"]
    m["grandcanonical.critical_density.calls"] = fn("grandcanonical.critical_density")["calls"]
    m["numerics.solve_bracketed.calls"] = fn("numerics.solve_bracketed")["calls"]
    m["numerics.root_fn_evals"] = size_sum("numerics.solve_bracketed", "fn_evals")
    main = fn("cli.main")
    m["cli.main.calls"] = main["calls"]
    m["cli.main.incl_s"] = main["incl_s"] / max(main["calls"], 1)
    m["cli.main.max_incl_s"] = main["max_incl_s"]
    m["cli.render_csv.self_s"] = fn("cli.render_csv")["self_s"]
    m["cli.write_output.self_s"] = fn("cli.write_output")["self_s"]
    m["trace.wall_s"] = traced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.uncovered_s"] = traced_wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m
