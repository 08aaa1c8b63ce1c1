"""bosebox benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (``perfbench/workloads.py``), each in a fresh
process (``perfbench/child.py``) that calls ``bosebox.cli.main`` in-process
for every invocation, until ``--seconds`` of measuring are used. Every
output file is checked (``perfbench/check.py``); at the default seed it is
also compared with ``perfbench/reference/<workload>/``. ``--workload all``
runs every workload in turn.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the passes: ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``. With
``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of ``perfbench/tracer.py``. The last line of stdout
is the result as one JSON object; readable lines, the environment record
and ``error_rate`` come before it. Spans and the full result are written to
``perfbench/_work/``.

Exit codes: 0 done (even with failed operations, which the result counts),
2 the source tree or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")
MIN_SETUPS = 5  # set-up samples per untraced run, topped up by set-up-only spawns

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- environment record ---------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(f"{base}/{index}/size")
    return sizes


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "trace": trace,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
    }


# -- passes ---------------------------------------------------------------


def spawn(workload, seed, out_dir, *, setup_only=False, trace_file=None, invocations=None):
    """Run one pass (or a set-up only) in a fresh process; return its result."""
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "pass.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", out_dir, "--result", result_path]
    if setup_only:
        argv.append("--setup-only")
    if trace_file is not None:
        argv += ["--trace-file", trace_file]
    if invocations is not None:
        argv += ["--invocations", invocations]
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"crashed": proc.returncode}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def score_pass(ops, result, out_dir, reference_dir=None, first_dir=None):
    """Failure messages per operation of one pass (empty list: passed).

    An operation fails on a nonzero exit, on any output row that fails a
    check, and when its output differs from the same operation's output in
    ``first_dir`` (an earlier pass of the same seed).
    """
    exits = {op["name"]: op["exit"] for op in result.get("ops", [])}
    failures = {}
    for op in ops:
        path = os.path.join(out_dir, op.name + ".csv")
        problems = []
        if op.name not in exits:
            problems.append(f"no result (pass ended with {result.get('crashed')!r})")
        elif exits[op.name] != 0:
            problems.append(f"exit code {exits[op.name]}")
        elif not os.path.exists(path):
            problems.append("no output file")
        else:
            ref = None
            if reference_dir is not None:
                ref = os.path.join(reference_dir, op.name + ".csv")
                if not os.path.exists(ref):
                    problems.append(f"missing reference {ref}")
                    ref = None
            problems += check.check_file(path, ref)
            if first_dir is not None:
                first = os.path.join(first_dir, op.name + ".csv")
                if os.path.exists(first) and _bytes(first) != _bytes(path):
                    problems.append(f"output differs from {first}")
        failures[op.name] = problems
    return failures


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_workload(workload, seed, seconds, trace, reference_dir=None, ops=None):
    """Measure one workload; ``ops`` replaces its invocation list if given."""
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    invocations = None
    if ops is None:
        ops = workloads.invocations(workload, seed)
    else:
        invocations = os.path.join(run_dir, "invocations.json")
        with open(invocations, "w", encoding="utf-8") as fh:
            json.dump([[op.name, op.command, op.overrides] for op in ops], fh)

    def spawn_here(out_dir, **kwargs):
        return spawn(workload, seed, out_dir, invocations=invocations, **kwargs)

    # Warm-up: byte-compiles the sources and fills the file cache; not measured.
    spawn_here(os.path.join(run_dir, "warmup"), setup_only=True)

    attempted = failed = 0
    messages = []
    untraced, traced = [], []
    first_dir = None
    unit = [False, True] if trace else [False]
    start = time.monotonic()
    n_pass = 0
    while True:
        unit_start = time.monotonic()
        for with_trace in unit:
            out_dir = os.path.join(run_dir, f"pass{n_pass}")
            trace_file = None
            if with_trace:
                trace_file = os.path.join(run_dir, f"spans-pass{n_pass}.jsonl")
            result = spawn_here(out_dir, trace_file=trace_file)
            failures = score_pass(ops, result, out_dir, reference_dir, first_dir)
            attempted += len(ops)
            failed += sum(1 for p in failures.values() if p)
            messages += [f"pass {n_pass} {name}: {p}"
                         for name, ps in failures.items() for p in ps]
            (traced if with_trace else untraced).append(result)
            if first_dir is None:
                first_dir = out_dir
            else:
                shutil.rmtree(out_dir)
            n_pass += 1
        now = time.monotonic()
        if now - start + (now - unit_start) > seconds:
            break

    setups = [r["setup_s"] for r in untraced if "setup_s" in r]
    while not trace and len(setups) < MIN_SETUPS:
        r = spawn_here(os.path.join(run_dir, "setup"), setup_only=True)
        if "setup_s" in r:
            setups.append(r["setup_s"])
        else:
            break

    def median(key, results):
        values = [r[key] for r in results if key in r]
        return statistics.median(values) if values else float("nan")

    chosen = None
    correct = failed == 0
    if trace:
        by_wall = sorted((r for r in traced if "trace_summary" in r),
                         key=lambda r: r["wall_s"])
        metrics = {}
        if by_wall:
            chosen = by_wall[(len(by_wall) - 1) // 2]
            metrics = tracer.layer_metrics(
                chosen["trace_summary"], chosen["wall_s"], median("wall_s", untraced))
            uncovered = abs(metrics["trace.uncovered_s"]) / chosen["wall_s"]
            if uncovered > tracer.COVERAGE_BOUND:
                messages.append(f"spans leave {uncovered:.2%} of the traced wall uncovered")
                correct = False
        else:
            correct = False
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
    else:
        metrics = {k: median(k, untraced) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups) if setups else float("nan")
        units = END_TO_END_UNITS
    sizes = {}
    for name, entry in (chosen["trace_summary"].items() if chosen else ()):
        for key, values in entry["sizes"].items():
            sizes.setdefault(name, {})[key] = (
                values if len(values) <= 100 else {"calls": len(values), "sum": sum(values)})
    return {
        "workload": workload,
        "seed": seed,
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "setups": len(setups)},
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "messages": messages,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops": [{"name": op.name, "command": op.command, "overrides": op.overrides}
                for op in ops],
        "per_pass": [{k: r.get(k) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ops")}
                     for r in untraced + traced],
        "sizes": sizes,
        "run_dir": run_dir,
    }


def report(result, env):
    """Readable lines for one workload."""
    print(f"== {result['workload']} (seed {result['seed']}, passes {result['passes']})")
    for op in result["ops"]:
        print(f"   op {op['name']}: bosebox {op['command']} " + " ".join(op["overrides"]))
    for name, m in result["metrics"].items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"   error_rate = {rate:.6g} ({result['failed']} failed / "
          f"{result['attempted']} attempted operations)")
    wall = result["metrics"].get("trace.wall_s")
    if wall:
        shares = {layer: result["metrics"][f"{layer}.self_s"]["value"] / wall["value"]
                  for layer in tracer.LAYERS}
        print("   layer shares of the traced wall: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, sizes in result["sizes"].items():
        print(f"   sizes {name}: " + ", ".join(f"{k}={v}" for k, v in sizes.items()))
    for message in result["messages"][:20]:
        print(f"   FAILED {message}")
    print(f"   env {json.dumps(env, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "bosebox", "cli.py")):
        print(f"error: no bosebox sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(bool(args.trace))
    results = []
    for name in names:
        reference_dir = None
        if args.seed == workloads.DEFAULT_SEED:
            reference_dir = os.path.join(REFERENCE, name)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), reference_dir)
        result["environment"] = env
        with open(os.path.join(result["run_dir"], "result.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        report(result, env)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
