"""Regenerate the committed case pools and reference outputs in reference/.

    python3 perfbench/make_references.py

Each workload has a fixed pool of case specs drawn from POOL_SEED; the
benchmark's --seed only chooses the order in which pool cases run.  The
reference ("expected") for every case is the program's own output on that
case, which the benchmark's correctness gate compares against.  A stroke
also records "converged", the program's delta_tau at four times the
stroke's steps: the traced run reports the distance to it as the
integrator's accuracy.  The script runs every case a second time and
refuses to write a tolerance with less than 10x headroom over the largest
relative difference between the two runs.

Run it from the repository root against the code the references should
describe; it takes a few seconds.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

POOL_SEED = 20060207
REFERENCE_STEPS_FACTOR = 4
HEADROOM = 10.0
BODY_RADIUS = 0.25   # |R| L^2 <= 0.0625 keeps the small-body warning quiet
# The fewest steps a stroke may have.  Short strokes keep every operation
# within a few milliseconds, so each kind's fastest latency over a run is
# steady on a host whose speed drifts (see README.md).
STROKE_STEPS = 4
RTOL = 1e-9


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _amps(rng):
    return [_log_uniform(rng, 0.01, 0.1), _log_uniform(rng, 0.01, 0.1)]


def pool(workload: str, rng: random.Random):
    """(kinds in schedule order, case specs)."""
    cases = []
    if workload == "oracle_small":
        kinds = ["triangle", "n3_R+1", "n3_R-1", "n30_R+1", "n30_R-1"]
        cases.append({"id": "triangle", "kind": "triangle", "R": 1.0, "stroke": "rectangle",
                      "amps": [0.01, 0.01], "steps": STROKE_STEPS})
        for n in (3, 30):
            for R in (1.0, -1.0):
                kind = f"n{n}_R{R:+g}"
                for i in range(6):
                    cases.append({"id": f"{kind}_{i}", "kind": kind, "seed": rng.getrandbits(32),
                                  "n": n, "R": R, "radius": BODY_RADIUS, "stroke": "sinusoid",
                                  "amps": _amps(rng), "steps": STROKE_STEPS})
    elif workload == "oracle_large":
        order = [(2000, "composed"), (2500, "direct"), (3000, "composed"),
                 (3500, "direct"), (4000, "composed")]
        kinds = [f"n{n}_{mode}" for n, mode in order]
        for (n, mode), kind in zip(order, kinds):
            for i in range(3):
                cases.append({"id": f"{kind}_{i}", "kind": kind, "seed": rng.getrandbits(32),
                              "n": n, "R": -1.0, "radius": BODY_RADIUS, "mode": mode,
                              "amps": _amps(rng), "steps": STROKE_STEPS})
    else:
        kinds = []
        pairs = [[1, 1], [2, 2], [1, 2]]
        for n in (3, 30, 300):
            for R in (-1.0, 1.0, 0.0):
                kind = f"n{n}_R{R:+g}"
                kinds.append(kind)
                for i in range(16):
                    pb, pc = rng.sample(pairs, 2)
                    cases.append({"id": f"{kind}_{i}", "kind": kind, "seed": rng.getrandbits(32),
                                  "n": n, "R": R, "radius": BODY_RADIUS,
                                  "area": _log_uniform(rng, 1e-6, 1e-3), "pair_b": pb, "pair_c": pc})
    return kinds, cases


def build(workload: str) -> dict:
    rng = random.Random(f"{POOL_SEED}-{workload}")
    kinds, cases = pool(workload, rng)
    cls = workloads.WORKLOADS[workload]
    strokes = workload != "formula"
    worst = accuracy = 0.0
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        first = cls(cases, Path(tmp))
        again = cls(cases, Path(tmp))
        fine = cls(cases, Path(tmp), steps_factor=REFERENCE_STEPS_FACTOR) if strokes else None
        for case in cases:
            case["expected"] = first.output(first.op(case))
            err = workloads.relative_error(again.output(again.op(case)), case["expected"])
            worst = max(worst, err)
            line = f"{workload} {case['id']}: rerun rel diff {err:.3e}"
            if strokes:
                case["converged"] = fine.output(fine.op(case))
                acc = workloads.relative_error(case["expected"], case["converged"])
                accuracy = max(accuracy, acc)
                line += f", rel err vs {REFERENCE_STEPS_FACTOR}x steps {acc:.3e}"
            print(line, flush=True)
    if worst * HEADROOM > RTOL:
        raise SystemExit(f"{workload}: rtol {RTOL:g} leaves less than {HEADROOM:g}x "
                         f"headroom over the largest rerun difference {worst:.3e}")
    data = {
        "workload": workload,
        "rtol": RTOL,
        "reference": "seed output",
        "max_rel_err_at_generation": worst,
    }
    if strokes:
        data["converged"] = f"seed output at {REFERENCE_STEPS_FACTOR}x the case's steps"
        data["max_rel_err_vs_converged"] = accuracy
    return {**data, "kinds": kinds, "cases": cases}


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        data = build(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}: {len(data['cases'])} cases, "
              f"max rel err {data['max_rel_err_at_generation']:.3e}, rtol {data['rtol']:g}")


if __name__ == "__main__":
    main()
