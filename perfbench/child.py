"""One pass of a workload in a fresh process.

Imports ``bosebox.cli``, generates the workload's invocations from the
seed, then calls ``bosebox.cli.main(argv)`` in-process for each of them,
writing every output to ``--out-dir``. The pass's timings go to
``--result`` as JSON. ``run.py`` starts this script; it is not meant to be
run by hand.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--invocations", default=None,
                        help="JSON list of [name, command, overrides] to run instead")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from bosebox import cli  # noqa: E402  (the measured import)
    import workloads  # noqa: E402

    if args.invocations is not None:
        with open(args.invocations, encoding="utf-8") as fh:
            ops = [workloads.Invocation(*entry) for entry in json.load(fh)]
    else:
        ops = workloads.invocations(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        recorder = None
        if args.trace_file is not None:
            import tracer

            recorder = tracer.Tracer()
            recorder.install()
        result["ops"] = []
        for op in ops:
            # Each CLI call normally runs in a process of its own; collecting
            # here keeps the previous call's cyclic garbage out of this one's
            # memory peak. The collection is not timed.
            gc.collect()
            cpu = _cpu_seconds()
            t = time.perf_counter()
            try:
                code = cli.main(op.argv(os.path.join(args.out_dir, op.name + ".csv")))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed operation
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            result["ops"].append({"name": op.name, "exit": code,
                                  "seconds": time.perf_counter() - t,
                                  "cpu_s": _cpu_seconds() - cpu})
        result["wall_s"] = sum(op["seconds"] for op in result["ops"])
        result["cpu_s"] = sum(op["cpu_s"] for op in result["ops"])
        if recorder is not None:
            recorder.write(args.trace_file)
            result["trace_summary"] = recorder.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
