"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that:
  * a short clean run is correct with no failed operation and prints exactly
    the end-to-end metrics BENCHMARK.json names, with their units;
  * the negative control (--perturb-reference) fails every operation,
    i.e. failed_frac = 1;
  * a short traced run prints exactly the per-layer metrics, and at most
    BENCH_SELF_MAX of its traced operation time lies outside every curvswim
    span (so the layers' self times account for the rest);
and that a tree holding only BENCHMARK.json and the benchmark's own files
exits non-zero without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCH_SELF_MAX = 0.05


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (wl["name"] for wl in spec["workloads"]):
        base = ["--workload", w, "--seed", "7", "--seconds", "1"]
        clean = result(run(ROOT, *base, "--trace", "0"))
        check(clean["correct"] and clean["failed"] == 0, f"{w}: clean run correct, failed_frac = 0")
        got = {k: v["unit"] for k, v in clean["metrics"].items()}
        check(got == e2e, f"{w}: end-to-end metrics and units match BENCHMARK.json")
        check(all(v["value"] > 0 for v in clean["metrics"].values()), f"{w}: end-to-end metrics nonzero")
        bad = result(run(ROOT, *base, "--trace", "0", "--perturb-reference"))
        check(not bad["correct"] and bad["failed"] == bad["attempted"] >= 1,
              f"{w}: perturbed reference gives failed_frac = 1")
        traced = result(run(ROOT, *base, "--trace", "1"))
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(traced["correct"] and got == layer, f"{w}: per-layer metrics and units match BENCHMARK.json")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        share = m["trace.bench_self_s"] / m["trace.op_s"]
        check(share <= BENCH_SELF_MAX,
              f"{w}: {100 * share:.2f}% of traced time outside curvswim spans "
              f"(overhead {m['trace.overhead_s']:.3g} s/op, bench {m['trace.bench_self_s']:.3g} s/op)")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "formula", "--seed", "1", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without curvswim sources: non-zero exit, no result printed")


if __name__ == "__main__":
    main()
