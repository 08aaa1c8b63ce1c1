"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on a short invocation list (about half a minute in all), that
1. a nonzero exit and a perturbed output row are each counted as a failed
   operation;
2. a traced pass writes output files byte-identical to an untraced pass,
   and its spans nest across layers (decomposition_check over
   occupation_laplace, solve_mu over gc_density);
3. the layer self times of a traced pass sum to its wall time within
   ``tracer.COVERAGE_BOUND``.

Exits 0 when every check holds, 1 otherwise. Kept outside the repository's
test suite because it spawns the benchmark's own processes.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import ALPHAS, RHO_SUPER, Invocation  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def _cheap_ops():
    mixture = {op.name: op for op in workloads.invocations("mixture-limits", workloads.DEFAULT_SEED)}
    return [
        mixture["gc-II"],
        mixture["kac-I-sub"],
        mixture["limits-II"],
        Invocation("sweep-canonical-small", "sweep", [
            f"geometry.alphas={ALPHAS['III']}", f"rho={RHO_SUPER}",
            "sweep_target=canonical", "geometry.volume_sweep=[1000, 8000]"]),
        Invocation("fluct-small", "fluct", [
            f"geometry.alphas={ALPHAS['I']}", f"rho={RHO_SUPER}",
            "lambda_grid=[0.5, 2.0]", "geometry.volume_sweep=[1000, 2000]"]),
        Invocation("spectrum-small", "spectrum", [
            f"geometry.alphas={ALPHAS['II']}", "geometry.volume=2000"]),
    ]


def test_failed_operations():
    reference = os.path.join(run.REFERENCE, "mixture-limits")
    gc = [op for op in _cheap_ops() if op.name == "gc-II"]
    bad = Invocation("gc-negative-rho", "gc", ["rho=-1.0"])

    result = run.run_workload("selftest", 0, 0, False, reference, ops=gc + [bad])
    expect(result["attempted"] == 2 and result["failed"] == 1,
           f"nonzero exit counted as one failed operation "
           f"({result['failed']} failed / {result['attempted']} attempted)")

    pass_dir = os.path.join(result["run_dir"], "pass0")
    pass_result = {"ops": [{"name": "gc-II", "exit": 0}]}
    clean = run.score_pass(gc, pass_result, pass_dir, reference)
    expect(clean["gc-II"] == [], "unperturbed output matches the reference")

    path = os.path.join(pass_dir, "gc-II.csv")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.splitlines()
    header = lines[0].split(",")
    col = header.index("value")
    for perturb, what, fails in (
        (lambda x: repr(float(x) * (1 + 1e-6)), "a 1e-6 relative change", True),
        (lambda x: "nan", "a non-finite value", True),
        (lambda x: repr(float(x) * (1 + 1e-12)), "a reordering-sized 1e-12 change", False),
    ):
        cells = lines[2].split(",")
        cells[col] = perturb(cells[col])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([lines[0], lines[1], ",".join(cells)] + lines[3:]) + "\n")
        failures = run.score_pass(gc, pass_result, pass_dir, reference)
        counted = failures["gc-II"] != []
        expect(counted == fails, f"{what} in an output row "
               + ("counted as a failed operation" if fails else "still passes"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(original)


def test_trace_identity_and_coverage():
    ops = _cheap_ops()
    result = run.run_workload("selftest", 0, 0, True, None, ops=ops)
    expect(result["failed"] == 0, "traced and untraced passes all succeed")

    base = os.path.join(run.WORK, "selftest-identity")
    shutil.rmtree(base, ignore_errors=True)
    invocations = os.path.join(result["run_dir"], "invocations.json")
    plain_dir, traced_dir = os.path.join(base, "plain"), os.path.join(base, "traced")
    run.spawn("selftest", 0, plain_dir, invocations=invocations)
    traced = run.spawn("selftest", 0, traced_dir, invocations=invocations,
                       trace_file=os.path.join(base, "spans.jsonl"))
    for op in ops:
        a, b = (os.path.join(d, op.name + ".csv") for d in (plain_dir, traced_dir))
        same = os.path.exists(a) and os.path.exists(b) and run._bytes(a) == run._bytes(b)
        expect(same, f"{op.name}: traced output is byte-identical to untraced")

    spans = {}
    with open(os.path.join(base, "spans.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            spans[span["id"]] = span

    def ancestors(span):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            yield span["name"]

    for inner, outer in (("canonical.occupation_laplace", "kac.decomposition_check"),
                         ("grandcanonical.gc_density", "grandcanonical.solve_mu")):
        nested = any(outer in ancestors(s) for s in spans.values() if s["name"] == inner)
        expect(nested, f"{inner} spans nest under {outer}")

    metrics = tracer.layer_metrics(traced["trace_summary"], traced["wall_s"], 0.0)
    covered = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    share = 1.0 - covered / traced["wall_s"]
    expect(0.0 <= share <= tracer.COVERAGE_BOUND,
           f"layer self times cover the traced wall {traced['wall_s']:.3f} s "
           f"(uncovered share {share:.2e}, bound {tracer.COVERAGE_BOUND})")


if __name__ == "__main__":
    test_failed_operations()
    test_trace_identity_and_coverage()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
