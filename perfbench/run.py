"""curvswim benchmark: one workload, one caller, one thread, for a fixed time.

    python3 perfbench/run.py --workload {oracle_small,oracle_large,formula}
                             --seed N --seconds S --trace {0,1}
                             [--perturb-reference]

Run from the repository root.  Kinds of case cycle in a fixed order and a
run measures whole cycles, ending within half a cycle of --seconds of
operation time; the seed picks which committed pool case of each kind runs.
Every output is checked against the committed reference
(reference/<workload>.json) and an operation that raises, exits non-zero or
misses the reference tolerance counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
untraced and then traced, and prints the per-layer metrics.  Lines starting with '#' are for people (each metric with its unit
and sample count, and the environment); the last line is one JSON object
with the keys correct, attempted, failed and metrics.  A copy of the result
and the environment goes to perfbench/out/, the traced run's spans to
perfbench/out/spans-<workload>.npz.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_CHILDREN = 8         # --setup-only children, spread evenly over the measured ops
PERTURBATION = 1e-5        # relative and absolute shift applied by --perturb-reference


def parse_args(argv):
    p = argparse.ArgumentParser(description="curvswim benchmark")
    p.add_argument("--workload", required=True, choices=("oracle_small", "oracle_large", "formula"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb-reference", action="store_true",
                   help="negative control: shift every reference value so every check fails")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def schedule(reference, seed):
    """Endless case sequence: kinds cycle in a fixed order, the seed picks each case."""
    rng = random.Random(seed)
    by_kind = defaultdict(list)
    for case in reference["cases"]:
        by_kind[case["kind"]].append(case)
    kinds = reference["kinds"]
    i = 0
    while True:
        yield rng.choice(by_kind[kinds[i % len(kinds)]])
        i += 1


def run_case(wl, case, call, rtol, relative_error):
    """(case, latency s, relative error, failure message or None, relative error
    against the converged reference) of one operation."""
    t = perf_counter()
    try:
        raw = call(case)
    except Exception as exc:  # a failed operation is counted, not fatal
        return case, perf_counter() - t, float("inf"), f"{type(exc).__name__}: {exc}", float("inf")
    latency = perf_counter() - t
    try:
        out = wl.output(raw)
        err = relative_error(out, case["expected"])
        acc = relative_error(out, case.get("converged", case["expected"]))
    except Exception as exc:
        return case, latency, float("inf"), f"{type(exc).__name__}: {exc}", float("inf")
    if not err <= rtol:
        return case, latency, err, f"relative error {err:.3e} above rtol {rtol:g}", acc
    return case, latency, err, None, acc


def measure(step, cases, cycle, seconds, pause=None, pauses=0):
    """step() on whole cycles of kinds until the operations have taken within half
    a mean cycle of `seconds`; pause() runs `pauses` times, evenly spread and untimed."""
    results, spent, done = [], 0.0, 0
    while True:
        t = perf_counter()
        results += [step(next(cases)) for _ in range(cycle)]
        spent += perf_counter() - t
        if done < pauses and spent >= (done + 1) * seconds / (pauses + 1):
            pause()
            done += 1
        if spent * (1.0 + 0.5 * cycle / len(results)) >= seconds:
            break
    for _ in range(done, pauses):
        pause()
    return results


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def by_kind(records):
    latencies = defaultdict(list)
    for r in records:
        latencies[r[0]["kind"]].append(r[1])
    return latencies.values()


def end_to_end(workload, op_kind, records, setup_samples):
    lat = [r[1] for r in records]
    ok = sum(1 for r in records if r[3] is None)
    n = len(records)
    # Each kind's fastest op, averaged over the kinds: the host's speed drifts
    # by tens of percent over seconds to minutes, and only the fastest of many
    # short ops repeats from run to run (README.md, "Why the fastest op").
    op_min = statistics.fmean(min(v) for v in by_kind(records))
    metrics = {
        "op_ms_min": (1e3 * op_min, "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
    }
    nouns = {"peak_rss_mb": "process", "setup_s": "set-ups"}
    # Throughput, each kind's median latency averaged over the kinds, and the
    # highest percentile with at least ten samples beyond it, under the
    # workload's own names.  They follow the host's drift, so they are
    # printed for people and not gated.
    what = "strokes" if op_kind == "stroke" else "cases"
    p50 = statistics.fmean(statistics.median(v) for v in by_kind(records))
    if op_kind == "stroke":
        extra = {"strokes_per_s": (ok / sum(lat), "1/s", n),
                 "stroke_ms_p50": (1e3 * p50, "ms", n),
                 "stroke_ms_min": metrics["op_ms_min"]}
        tails = [(90, "stroke_ms_p90")]
    else:
        extra = {"holonomy_per_s": (ok / sum(lat), "1/s", n),
                 "holonomy_ms_p50": (1e3 * p50, "ms", n),
                 "holonomy_ms_min": metrics["op_ms_min"]}
        tails = [(99, "holonomy_ms_p99"), (90, "holonomy_ms_p90")]
    for pct, name in tails:
        if n * (100 - pct) >= 1000:
            extra[name] = (1e3 * statistics.quantiles(lat, n=100)[pct - 1], "ms", n)
            break
    extra["failed_frac"] = ((n - ok) / n, "ratio", n)
    lines = [f"# {workload} {name} = {v:.6g} {unit} (n={k} {nouns.get(name, what)})"
             for name, (v, unit, k) in {**metrics, **extra}.items()]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(tracer, op_kind, traced, untraced):
    from tracing import LAYERS, ROOT as ROOT_SPAN

    k = len(traced)
    c, t, s = tracer.calls, tracer.total, tracer.self_time
    stages = c["geometry.rigid_generator"]
    err_max = max((r[2] for r in traced + untraced if r[3] is None), default=0.0)
    acc_max = max((r[4] for r in traced + untraced if r[3] is None), default=0.0)
    untraced_op = sum(r[1] for r in untraced) / k
    traced_op = t[ROOT_SPAN] / k
    m = {
        "integrator.stages": (stages / k, "count/op"),
        "integrator.stage_us": (1e6 * t["integrator.integrate_stroke"] / stages if stages else 0.0, "us"),
        "integrator.shape_flow_calls": (c["integrator.shape_flow"] / k, "count/op"),
        "integrator.shape_flow_s": (t["integrator.shape_flow"] / k, "s/op"),
        "integrator.rel_err_max": (acc_max if op_kind == "stroke" else 0.0, "ratio"),
        "geometry.killing_eval_calls": (c["geometry.killing_eval"] / k, "count/op"),
        "geometry.killing_eval_s": (t["geometry.killing_eval"] / k, "s/op"),
        "geometry.rigid_generator_calls": (stages / k, "count/op"),
        "geometry.rigid_generator_s": (t["geometry.rigid_generator"] / k, "s/op"),
        "geometry.two_form_calls": (c["geometry.two_form"] / k, "count/op"),
        "geometry.two_form_s": (t["geometry.two_form"] / k, "s/op"),
        "body.scalar_product_calls": (c["body.scalar_product"] / k, "count/op"),
        "body.scalar_product_s": (t["body.scalar_product"] / k, "s/op"),
        "body.balance_s": (t["body.balance"] / k, "s/op"),
        "body.principal_axes_s": (t["body.principal_axes"] / k, "s/op"),
        "deformation.project_gauge_s": (t["deformation.project_gauge"] / k, "s/op"),
        "deformation.gauge_residuals_s": (t["deformation.gauge_residuals"] / k, "s/op"),
        "deformation.killing_gram_calls": (c["deformation.killing_gram"] / k, "count/op"),
        "holonomy.general_s": (t["holonomy.general"] / k, "s/op"),
        "holonomy.linear_s": (t["holonomy.linear"] / k, "s/op"),
        "holonomy.small_swimmer_s": (t["holonomy.small_swimmer"] / k, "s/op"),
        "holonomy.rel_err_max": (err_max if op_kind == "holonomy" else 0.0, "ratio"),
        "fields.control_eval_calls": (c["fields.control_eval"] / k, "count/op"),
        "fields.control_eval_s": (t["fields.control_eval"] / k, "s/op"),
        "scenarios.baron_cat_s": (t["scenarios.baron_cat"] / k, "s/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self(layer, exclude={"integrator.shape_flow"}) / k, "s/op")
        m[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    m.update({
        "trace.op_s": (traced_op, "s/op"),
        "trace.untraced_op_s": (untraced_op, "s/op"),
        "trace.overhead_s": (traced_op - untraced_op, "s/op"),
        "trace.overhead_frac": ((traced_op - untraced_op) / untraced_op, "ratio"),
        "trace.bench_self_s": (s[ROOT_SPAN] / k, "s/op"),
        "trace.spans": (len(tracer.span_name) / k, "count/op"),
    })
    lines = [f"# {name} = {v:.6g} {unit} (n={k} traced ops)" for name, (v, unit) in m.items()]
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}, lines


def setup_child(args):
    """set-up time of a fresh `--setup-only` process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "curvswim" / "__init__.py").is_file():
        print(f"perfbench: curvswim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import warnings

    import workloads

    # A curvswim warning inside an operation (such as the small-body
    # balancing warning) is a failure of that operation.
    warnings.simplefilter("error", UserWarning)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        reference = workloads.load_reference(args.workload)
        if args.perturb_reference:
            for case in reference["cases"]:
                case["expected"] = [v * (1.0 + PERTURBATION) + PERTURBATION for v in case["expected"]]
        wl = workloads.WORKLOADS[args.workload](reference["cases"], Path(tmp))
        wl.warm_up()
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rtol, rel = reference["rtol"], workloads.relative_error
        cases, cycle = schedule(reference, args.seed), len(reference["kinds"])
        if args.trace == 0:
            # Set-ups spread over the measured ops, so the median spans the
            # run rather than one moment of the host's load.
            setup_samples = [setup_s]
            records = measure(lambda c: run_case(wl, c, wl.op, rtol, rel), cases, cycle, args.seconds,
                              pause=lambda: setup_samples.append(setup_child(args)),
                              pauses=SETUP_CHILDREN)
            metrics, lines = end_to_end(args.workload, wl.op_kind, records, setup_samples)
        else:
            from tracing import Tracer

            tracer = Tracer()

            def traced_op(case):
                tracer.install()
                try:
                    return tracer.run_op(wl.op, case, tracer.field)
                finally:
                    tracer.uninstall()

            # Each case runs untraced and then traced, back to back, so a
            # drift in machine speed falls on both sides of the overhead.
            pairs = measure(lambda c: (run_case(wl, c, wl.op, rtol, rel),
                                       run_case(wl, c, traced_op, rtol, rel)),
                            cases, cycle, args.seconds)
            untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            tracer.save(OUT / f"spans-{args.workload}.npz")
            metrics, lines = per_layer(tracer, wl.op_kind, traced, untraced)
            records = untraced + traced

    failures = [r for r in records if r[3] is not None]
    env = environment(args.seed)
    for line in lines:
        print(line)
    print("# env " + json.dumps(env, sort_keys=True))
    for case, _lat, _err, msg, _acc in failures[:5]:
        print(f"perfbench: {args.workload} case {case['id']} failed: {msg}", file=sys.stderr)
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "environment": env, "human": lines, **result},
                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
