"""Command-line entry point.

Subcommands: holonomy, integrate, sweep, triangle, ring, check.  All but check
take a JSON run configuration (strictly validated, unknown keys rejected) and
emit machine-readable output with full float precision (CSV for sweep,
JSON for the others), so repeated runs of the same configuration are
byte-identical.

Exit codes: 0 success, 2 configuration error (an unwritable --out included),
3 numerical failure.  numpy's floating-point warnings are silenced: an
overflow shows as one typed numerical failure (a non-finite result, or a
number JSON cannot hold).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .body import Body
from .deformation import gauge_pairings, parse_field_spec, project_fields
from .errors import ConfigError, CurvswimError, NonFiniteResultError
from .fields import VectorField, coefficients_of
from .geometry import Surface
from .holonomy import holonomy_general
from .integrator import (
    DEFAULT_STEPS,
    Stroke,
    integrate_stroke,
    oracle_ratio,
    rectangle_stroke,
    sinusoid_stroke,
    swim,
)
from .scenarios import (
    RingSpec,
    TriangleSpec,
    ring_displacement,
    ring_simulate,
    triangle_body,
    triangle_optimal_mass,
    triangle_swim_coefficient,
)

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require_keys(section: Any, allowed: Sequence[str], required: Sequence[str], path: str) -> Dict[str, Any]:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {sorted(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"missing key(s) in {path}: {missing}")
    return section


def _number(value: Any, path: str) -> float:
    # the chained comparison is exact for ints of any size and false for NaN
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _checked(path: str, build: Callable[[], Any]) -> Any:
    """build(), its ValueError reported as a ConfigError naming path."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _record(section: Any, path: str, build: Callable[..., Any], keys: Sequence[str]) -> Any:
    """build(**numbers) of the all-number section at path, whose keys are exactly keys."""
    sec = _require_keys(section, keys, keys, path)
    return _checked(path, lambda: build(**{k: _number(sec[k], f"{path}.{k}") for k in keys}))


def _steps(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 4:
        raise ConfigError(f"{path} must be an integer >= 4")
    return value


@dataclass
class RunConfig:
    surface: Optional[Surface] = None
    body: Optional[Body] = None
    triangle: Optional[TriangleSpec] = None
    field_specs: Optional[List[Any]] = None
    stroke: Optional[Stroke] = None
    sweep: Optional[Dict[str, Any]] = None
    ring: Optional[RingSpec] = None


TOP_KEYS = ("schema", "surface", "body", "fields", "stroke", "sweep", "ring")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: Any) -> RunConfig:
    top = _require_keys(raw, TOP_KEYS, ("schema",), "config")
    if top["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {top['schema']!r} (expected {SCHEMA_VERSION})")
    cfg = RunConfig()

    if "surface" in top:
        sec = _require_keys(top["surface"], ("R",), ("R",), "surface")
        cfg.surface = _checked("surface.R", lambda: Surface(_number(sec["R"], "surface.R")))

    if "body" in top:
        sec = _require_keys(top["body"], ("particles", "scenario"), (), "body")
        if ("particles" in sec) == ("scenario" in sec):
            raise ConfigError("body needs exactly one of 'particles' or 'scenario'")
        if "particles" in sec:
            parts = sec["particles"]
            if not isinstance(parts, list) or not parts:
                raise ConfigError("body.particles must be a non-empty list of [mass, x, y]")
            for i, row in enumerate(parts):
                if not isinstance(row, list) or len(row) != 3:
                    raise ConfigError(f"body.particles[{i}] must be [mass, x, y]")
                for v in row:
                    _number(v, f"body.particles[{i}]")
            cfg.body = _checked("body.particles", lambda: Body.from_particles(parts))
        else:
            sc = _require_keys(sec["scenario"], ("triangle",), ("triangle",), "body.scenario")
            path = "body.scenario.triangle"
            cfg.triangle = _record(sc["triangle"], path, TriangleSpec, ("M", "m", "h", "b"))
            cfg.body = _checked(path, lambda: triangle_body(cfg.triangle))

    if "fields" in top:
        specs = top["fields"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise ConfigError("fields must list exactly two deformation field specs")
        for i, spec in enumerate(specs):
            if isinstance(spec, dict):
                rows = spec.get("matrix", [])
                numbers = [v for row in rows if isinstance(row, list) for v in row] if isinstance(rows, list) else []
                for v in numbers:
                    _number(v, f"fields[{i}]")
        cfg.field_specs = specs

    if "stroke" in top:
        sec = _require_keys(top["stroke"], ("type", "amplitudes", "steps"), ("type", "amplitudes"), "stroke")
        if sec["type"] not in ("rectangle", "sinusoid"):
            raise ConfigError(f"stroke.type must be 'rectangle' or 'sinusoid', got {sec['type']!r}")
        amp = sec["amplitudes"]
        if not isinstance(amp, list) or len(amp) != 2:
            raise ConfigError("stroke.amplitudes must be [a1, a2]")
        a1, a2 = (_number(v, "stroke.amplitudes") for v in amp)
        steps = _steps(sec["steps"], "stroke.steps") if "steps" in sec else DEFAULT_STEPS
        build = rectangle_stroke if sec["type"] == "rectangle" else sinusoid_stroke
        cfg.stroke = build(a1, a2, steps=steps)

    if "sweep" in top:
        sec = _require_keys(top["sweep"], ("variable", "values"), ("variable", "values"), "sweep")
        if sec["variable"] not in ("area", "m", "R"):
            raise ConfigError("sweep.variable must be one of 'area', 'm', 'R'")
        vals = sec["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError("sweep.values must be a non-empty list of numbers")
        for v in vals:
            _number(v, "sweep.values")
        cfg.sweep = {"variable": sec["variable"], "values": [float(v) for v in vals]}
        for v in cfg.sweep["values"]:     # what _sweep_rows builds per value, checked before anything runs
            if sec["variable"] == "R":
                _checked("sweep.values", lambda: Surface(v))
            elif sec["variable"] == "m" and cfg.triangle is not None:
                _checked("sweep.values", lambda: triangle_body(replace(cfg.triangle, m=v)))

    if "ring" in top:
        cfg.ring = _record(top["ring"], "ring", RingSpec, ("length", "m1", "m2"))

    return cfg


def _need(cfg: RunConfig, attr: str, what: str) -> Any:
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigError(f"this command needs a '{what}' section in the config")
    return value


def _inputs(cfg: RunConfig, steps_override: Optional[int]) -> Tuple[Body, Surface, List[VectorField], Stroke]:
    """(body, surface, raw fields, stroke) of a run, checked in the order surface, body, fields, stroke, --steps."""
    surface = _need(cfg, "surface", "surface")
    body = _need(cfg, "body", "body")
    specs = _need(cfg, "field_specs", "fields")
    raw = _checked("fields", lambda: [parse_field_spec(s, body=body) for s in specs])
    stroke = _need(cfg, "stroke", "stroke")
    if steps_override is not None:
        stroke = stroke.with_steps(_steps(steps_override, "--steps"))
    return body, surface, raw, stroke


# ---------------------------------------------------------------------------
# Commands


def cmd_holonomy(cfg: RunConfig, steps_override: Optional[int]) -> Dict[str, Any]:
    """holonomy_general on the raw fields' project_fields images, and the raw fields' gauge_pairings residuals."""
    body, surface, raw, stroke = _inputs(cfg, steps_override)
    u, v = project_fields(body, surface, raw)
    res = holonomy_general(body, surface, u, v, stroke.signed_area)
    return {
        "command": "holonomy",
        "surface": {"R": surface.R},
        "area": stroke.signed_area,
        "delta_tau": list(res.delta_tau),
        "per_unit_area": list(res.per_unit_area),
        "gram_condition": res.gram_condition,
        "gauge_residuals": {
            "raw": [list(r) for r in gauge_pairings(body, surface, coefficients_of(raw))],
            "used": [list(r) for r in res.gauge_residuals],
        },
        "fields": [u.tag, v.tag],
    }


def cmd_integrate(cfg: RunConfig, steps_override: Optional[int]) -> Dict[str, Any]:
    """The oracle's increment of the stroke against the formula's, from one swim call."""
    body, surface, raw, stroke = _inputs(cfg, steps_override)
    rec, hol = swim(body, surface, raw, stroke)
    dx_f, dx_i = float(hol.delta_tau[0]), float(rec.delta_tau[0])
    ratio = oracle_ratio(dx_i, dx_f)
    return {
        "command": "integrate",
        "surface": {"R": surface.R},
        "area": stroke.signed_area,
        "steps": rec.steps,
        "mode": rec.mode,
        "delta_tau": list(rec.delta_tau),
        "dx_formula": dx_f,
        "dx_integrated": dx_i,
        "ratio": ratio if math.isfinite(ratio) else None,
        "max_momentum_residual": rec.max_momentum_residual,
        "momentum_residual_bound": rec.residual_bound,
        "shape_closure_defect": rec.shape_closure_defect,
    }


def _sweep_rows(cfg: RunConfig, steps_override: Optional[int]) -> List[Dict[str, float]]:
    surface = _need(cfg, "surface", "surface")
    sweep = _need(cfg, "sweep", "sweep")
    variable, values = sweep["variable"], sorted(sweep["values"])
    rows = []
    for value in values:
        if variable == "m":  # the formula is the triangle's closed form: run only the oracle
            spec = replace(_need(cfg, "triangle", "body.scenario.triangle"), m=value)
            rec = integrate_stroke(*_inputs(replace(cfg, triangle=spec, body=triangle_body(spec)), steps_override))
            dx_f = surface.R * triangle_swim_coefficient(spec) * cfg.stroke.signed_area
        else:
            if variable == "area":
                side = math.sqrt(abs(value))
                steps = DEFAULT_STEPS if cfg.stroke is None else cfg.stroke.steps
                local = replace(cfg, stroke=rectangle_stroke(side, math.copysign(side, value), steps=steps))
            else:  # variable == "R"
                local = replace(cfg, surface=Surface(float(value)))
            rec, hol = swim(*_inputs(local, steps_override))
            dx_f = float(hol.delta_tau[0])
        dx_i = float(rec.delta_tau[0])
        rows.append({"variable": variable, "value": float(value), "dx_formula": dx_f,
                     "dx_integrated": dx_i, "ratio": oracle_ratio(dx_i, dx_f)})
    return rows


def cmd_sweep(cfg: RunConfig, steps_override: Optional[int]) -> str:
    rows = _sweep_rows(cfg, steps_override)
    lines = ["variable,value,dx_formula,dx_integrated,ratio"]
    for r in rows:
        lines.append(
            f"{r['variable']},{_fmt(r['value'])},{_fmt(r['dx_formula'])},"
            f"{_fmt(r['dx_integrated'])},{_fmt(r['ratio'])}"
        )
    return "\n".join(lines) + "\n"


def cmd_triangle(cfg: RunConfig) -> Dict[str, Any]:
    tri = _need(cfg, "triangle", "body.scenario.triangle")
    return {
        "command": "triangle",
        "spec": {"M": tri.M, "m": tri.m, "h": tri.h, "b": tri.b},
        "coefficient": triangle_swim_coefficient(tri),
        "optimal_mass": triangle_optimal_mass(tri.M),
        "coefficient_bound": 0.5 * tri.h * tri.b**2,
        "particles": [[float(m), float(x), float(y)] for m, (x, y) in zip(cfg.body.masses, cfg.body.positions)],
    }


def cmd_ring(cfg: RunConfig) -> Dict[str, Any]:
    ring = _need(cfg, "ring", "ring")
    return {
        "command": "ring",
        "spec": {"length": ring.length, "m1": ring.m1, "m2": ring.m2},
        "displacement": ring_displacement(ring),
        "simulated": ring_simulate(ring),
    }


def cmd_check(records: List[Any], seed: int) -> Dict[str, Any]:
    return {
        "command": "check",
        "seed": seed,
        "ok": all(r.ok for r in records),
        "records": [{**asdict(r), "value": r.value if math.isfinite(r.value) else None} for r in records],
    }


# ---------------------------------------------------------------------------
# Wiring


def _emit(payload: Any, path: Optional[str]) -> None:
    """Write the serialized payload to stdout, or over the file at path in place.

    The payload is serialized first, so a NonFiniteResultError leaves an existing file
    untouched.  The file is not opened with O_TRUNC: truncating a file to zero makes ext4
    (auto_da_alloc) start writeback of the new bytes at close, about 0.1 ms per overwrite
    (BENCH_out_in_place.json).  The bytes are written from offset 0 instead, and a regular
    file is then cut to their length; a FIFO or a device such as /dev/null or /dev/stdout
    is not truncated.  As with open(path, "w"), nothing is fsynced, but a crash mid-write
    can now leave old bytes after the new prefix.  An unwritable path is a ConfigError.
    """
    if isinstance(payload, str):
        text = payload
    else:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NonFiniteResultError(f"result is not finite: {exc}") from exc
    if not path:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as f:
            f.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                f.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from exc


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="curvswim",
        description="Swimming of point-mass bodies on constant-curvature surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, config=True, steps=False):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", help="write the result to this path instead of stdout")
        if steps:
            p.add_argument("--steps", type=int, help="time-step override for the integrator")
        return p

    add("holonomy", "leading-order rigid increment of one stroke", steps=True)
    add("integrate", "finite-stroke momentum-constrained integration", steps=True)
    add("sweep", "formula vs oracle table over area, m or R", steps=True)
    add("triangle", "triangle coefficient and optimal mass split")
    add("ring", "ring swimmer displacement")
    check_p = add("check", "run the invariant registry", config=False)
    check_p.add_argument("--format", choices=("json",), help="write the records as JSON instead of text lines")
    check_p.add_argument("--seed", type=int, default=0, help="seed for the randomized records")
    check_p.add_argument(
        "--inject-killing-fault",
        action="store_true",
        help="perturb a Killing field to exercise the failure path",
    )
    return parser


@np.errstate(all="ignore")
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            from .checks import run_checks    # the registry loads only for check

            records = run_checks(seed=args.seed, inject_killing_fault=args.inject_killing_fault)
            _emit(cmd_check(records, args.seed) if args.format == "json"
                  else "".join(r.line() + "\n" for r in records), args.out)
            return 0 if all(r.ok for r in records) else 3
        cfg = load_config(args.config)
        if args.command == "holonomy":
            payload = cmd_holonomy(cfg, args.steps)
        elif args.command == "integrate":
            payload = cmd_integrate(cfg, args.steps)
        elif args.command == "sweep":
            payload = cmd_sweep(cfg, args.steps)
        elif args.command == "triangle":
            payload = cmd_triangle(cfg)
        elif args.command == "ring":
            payload = cmd_ring(cfg)
        else:  # pragma: no cover - argparse guards this
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(payload, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CurvswimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
