"""The three benchmark workloads: inputs from case specs, and one operation per case.

A case spec is a small JSON object committed in ``reference/<workload>.json``
together with the expected output.  Inputs are generated from the spec with
``random.Random`` (whose ``random()`` stream is stable across Python
versions), so the committed reference always describes the same input.

Every workload object exposes:

  op(case, wrap)   the timed call into curvswim; ``wrap`` is applied to each
                   control field handed over (identity when not tracing)
  output(raw)      the checked output vector, taken outside the timed region
  warm_up()        one untimed call that pays scipy's lazy imports

Library entry points are looked up on their modules at call time, so the
traced run can rebind them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import curvswim.body as body_mod
import curvswim.cli as cli_mod
import curvswim.deformation as deformation_mod
import curvswim.holonomy as holonomy_mod
import curvswim.integrator as integrator_mod
import curvswim.scenarios as scenarios_mod
from curvswim.body import Body
from curvswim.fields import linear_field
from curvswim.geometry import CurvatureTensor, Surface

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The README example: the optimal swimming triangle on R = 1.
README_TRIANGLE = {"M": 1.0, "m": 0.25, "h": 1.0, "b": 1.0}


class OpFailed(Exception):
    """An operation finished without a usable result (non-zero exit code)."""


def _same(field):
    return field


def random_inputs(seed: int, n: int, radius: float):
    """Masses in [0.5, 1.5), n points uniform in the disk |x| <= radius, two 2x2 matrices."""
    rng = random.Random(seed)
    masses = [0.5 + rng.random() for _ in range(n)]
    points = []
    while len(points) < n:
        x, y = radius * (2.0 * rng.random() - 1.0), radius * (2.0 * rng.random() - 1.0)
        if x * x + y * y <= radius * radius:
            points.append([x, y])
    matrices = [[[2.0 * rng.random() - 1.0 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    return masses, points, matrices


def _random_body_and_fields(case):
    masses, points, matrices = random_inputs(case["seed"], case["n"], case["radius"])
    body = Body(masses=np.array(masses), positions=np.array(points))
    return body, [linear_field(np.array(m), tag="linear-matrix") for m in matrices]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


class OracleSmall:
    """``curvswim integrate`` run in-process on configs written at set-up."""

    op_kind = "stroke"

    def __init__(self, cases, workdir: Path, steps_factor: int = 1):
        self.out_path = str(workdir / "integrate-out.json")
        self.argv = {}
        for case in cases:
            path = workdir / f"{case['id']}.json"
            path.write_text(json.dumps(self.config(case)), encoding="utf-8")
            argv = ["integrate", "--config", str(path), "--out", self.out_path]
            if steps_factor != 1:
                argv += ["--steps", str(case["steps"] * steps_factor)]
            self.argv[case["id"]] = argv
        first = cases[0]["id"]
        self.warm_argv = self.argv[first][:5] + ["--steps", "8"]

    @staticmethod
    def config(case) -> dict:
        stroke = {"type": case["stroke"], "amplitudes": case["amps"], "steps": case["steps"]}
        if case["kind"] == "triangle":
            body = {"scenario": {"triangle": README_TRIANGLE}}
            fields = ["linear:11", "linear:22"]
        else:
            masses, points, matrices = random_inputs(case["seed"], case["n"], case["radius"])
            body = {"particles": [[m, x, y] for m, (x, y) in zip(masses, points)]}
            fields = [{"matrix": m} for m in matrices]
        return {"schema": 1, "surface": {"R": case["R"]}, "body": body, "fields": fields,
                "stroke": stroke}

    def op(self, case, wrap=_same):
        return cli_mod.main(self.argv[case["id"]])

    def output(self, raw):
        if raw != 0:
            raise OpFailed(f"curvswim integrate exited with code {raw}")
        with open(self.out_path, encoding="utf-8") as f:
            return json.load(f)["delta_tau"]

    def warm_up(self):
        self.output(cli_mod.main(self.warm_argv))


class OracleLarge:
    """Library ``integrate_stroke`` on large bodies, composed and direct modes."""

    op_kind = "stroke"

    def __init__(self, cases, workdir: Path, steps_factor: int = 1):
        self.inputs = {}
        for case in cases:
            body, fields = _random_body_and_fields(case)
            stroke = integrator_mod.sinusoid_stroke(*case["amps"], steps=case["steps"] * steps_factor)
            self.inputs[case["id"]] = (body, Surface(case["R"]), fields, stroke)
        self.warm_case = cases[0]

    def op(self, case, wrap=_same):
        body, surface, fields, stroke = self.inputs[case["id"]]
        return integrator_mod.integrate_stroke(
            body, surface, [wrap(f) for f in fields], stroke, mode=case["mode"]
        )

    def output(self, raw):
        return [float(v) for v in raw.delta_tau]

    def warm_up(self):
        body, surface, fields, stroke = self.inputs[self.warm_case["id"]]
        for mode in ("composed", "direct"):
            integrator_mod.integrate_stroke(body, surface, fields, stroke.with_steps(8), mode=mode)


class Formula:
    """The leading-order formula path, no integrator."""

    op_kind = "holonomy"

    def __init__(self, cases, workdir: Path, steps_factor: int = 1):
        self.inputs = {}
        for case in cases:
            body, fields = _random_body_and_fields(case)
            surface = Surface(case["R"])
            self.inputs[case["id"]] = (body, surface, fields, CurvatureTensor.from_surface(surface))
        self.warm_cases = cases

    def op(self, case, wrap=_same):
        body, surface, fields, curv = self.inputs[case["id"]]
        area = case["area"]
        if case["R"] == 0.0:
            return scenarios_mod.baron_cat_report(body, area)
        prepared = body_mod.principal_axes(body_mod.balance(body, surface))
        u, v = (deformation_mod.project_gauge(prepared, surface, wrap(f)) for f in fields)
        general = holonomy_mod.holonomy_general(prepared, surface, u, v, area)
        pb, pc = tuple(case["pair_b"]), tuple(case["pair_c"])
        fb = deformation_mod.gauge_fixed_linear_deformation(prepared, *pb)
        fc = deformation_mod.gauge_fixed_linear_deformation(prepared, *pc)
        linear = holonomy_mod.holonomy_linear(prepared, curv, pb, pc, area)
        small = holonomy_mod.holonomy_small_swimmer(prepared, curv, fb, fc, area)
        return general.delta_tau, linear, small

    def output(self, raw):
        if isinstance(raw, scenarios_mod.BaronCatReport):
            return [raw.max_translation] + [raw.rotations[k] for k in sorted(raw.rotations)]
        return [float(v) for part in raw for v in part]

    def warm_up(self):
        # One case of each R branch, so both code paths have run once.
        seen = set()
        for case in self.warm_cases:
            if (case["R"] == 0.0) not in seen:
                seen.add(case["R"] == 0.0)
                self.output(self.op(case))


WORKLOADS = {"oracle_small": OracleSmall, "oracle_large": OracleLarge, "formula": Formula}


def relative_error(got, expected) -> float:
    """max |got - expected| / max |expected| (infinity norm)."""
    g = np.asarray(got, dtype=float)
    e = np.asarray(expected, dtype=float)
    if g.shape != e.shape or not np.all(np.isfinite(g)):
        return float("inf")
    return float(np.max(np.abs(g - e)) / max(float(np.max(np.abs(e))), 1e-300))
