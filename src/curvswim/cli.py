"""Command-line entry point.

Subcommands: holonomy, integrate, sweep, triangle, ring, check.  All of them take
a JSON run configuration (strictly validated, unknown keys rejected) and
emit machine-readable JSON or CSV with full float precision, so repeated
runs of the same configuration are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .body import Body, balance, principal_axes
from .checks import Record, run_checks
from .deformation import parse_field_spec, project_gauge, gauge_residuals
from .errors import ConfigError, CurvswimError
from .fields import VectorField
from .geometry import Surface
from .holonomy import holonomy_general
from .integrator import (
    DEFAULT_STEPS,
    Stroke,
    integrate_stroke,
    oracle_ratio,
    rectangle_stroke,
    sinusoid_stroke,
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
    stroke_cfg: Optional[Dict[str, Any]] = None
    sweep: Optional[Dict[str, Any]] = None
    ring: Optional[RingSpec] = None
    mode: str = "composed"
    gauge: str = "project"
    do_balance: bool = False
    do_principal_axes: bool = False
    out_format: Optional[str] = None
    out_path: Optional[str] = None


TOP_KEYS = ("schema", "surface", "body", "fields", "stroke", "sweep", "ring", "options", "outputs")


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
        cfg.surface = Surface(_number(sec["R"], "surface.R"))

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
            try:
                cfg.body = Body.from_particles(parts)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            sc = _require_keys(sec["scenario"], ("triangle",), ("triangle",), "body.scenario")
            tri = _require_keys(sc["triangle"], ("M", "m", "h", "b"), ("M", "m", "h", "b"), "body.scenario.triangle")
            try:
                cfg.triangle = TriangleSpec(
                    M=_number(tri["M"], "triangle.M"),
                    m=_number(tri["m"], "triangle.m"),
                    h=_number(tri["h"], "triangle.h"),
                    b=_number(tri["b"], "triangle.b"),
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            cfg.body = triangle_body(cfg.triangle)

    if "fields" in top:
        specs = top["fields"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise ConfigError("fields must list exactly two deformation field specs")
        for i, spec in enumerate(specs):
            if isinstance(spec, dict):
                rows = spec.get("matrix", [])
                numbers = [v for row in rows if isinstance(row, list) for v in row] if isinstance(rows, list) else []
                for v in numbers + [spec[k] for k in ("y_dy", "x_dx") if k in spec]:
                    _number(v, f"fields[{i}]")
        cfg.field_specs = specs

    if "stroke" in top:
        sec = _require_keys(
            top["stroke"], ("type", "amplitudes", "steps", "profile"), ("type", "amplitudes"), "stroke"
        )
        if sec["type"] not in ("rectangle", "sinusoid"):
            raise ConfigError(f"stroke.type must be 'rectangle' or 'sinusoid', got {sec['type']!r}")
        amp = sec["amplitudes"]
        if not isinstance(amp, list) or len(amp) != 2:
            raise ConfigError("stroke.amplitudes must be [a1, a2]")
        for v in amp:
            _number(v, "stroke.amplitudes")
        if "steps" in sec:
            _steps(sec["steps"], "stroke.steps")
        if "profile" in sec and sec["profile"] not in ("uniform", "smooth"):
            raise ConfigError("stroke.profile must be 'uniform' or 'smooth'")
        cfg.stroke_cfg = dict(sec)

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

    if "ring" in top:
        sec = _require_keys(top["ring"], ("length", "m1", "m2"), ("length", "m1", "m2"), "ring")
        try:
            cfg.ring = RingSpec(
                length=_number(sec["length"], "ring.length"),
                m1=_number(sec["m1"], "ring.m1"),
                m2=_number(sec["m2"], "ring.m2"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if "options" in top:
        sec = _require_keys(
            top["options"],
            ("mode", "gauge", "balance", "principal_axes"),
            (),
            "options",
        )
        if "mode" in sec:
            if sec["mode"] not in ("composed", "direct"):
                raise ConfigError("options.mode must be 'composed' or 'direct'")
            cfg.mode = sec["mode"]
        if "gauge" in sec:
            if sec["gauge"] not in ("project", "assume"):
                raise ConfigError("options.gauge must be 'project' or 'assume'")
            cfg.gauge = sec["gauge"]
        for key in ("balance", "principal_axes"):
            if key in sec:
                if not isinstance(sec[key], bool):
                    raise ConfigError(f"options.{key} must be a boolean")
        cfg.do_balance = bool(sec.get("balance", False))
        cfg.do_principal_axes = bool(sec.get("principal_axes", False))

    if "outputs" in top:
        sec = _require_keys(top["outputs"], ("format", "path"), (), "outputs")
        if "format" in sec:
            if sec["format"] not in ("json", "csv"):
                raise ConfigError("outputs.format must be 'json' or 'csv'")
            cfg.out_format = sec["format"]
        if "path" in sec:
            if not isinstance(sec["path"], str):
                raise ConfigError("outputs.path must be a string")
            cfg.out_path = sec["path"]

    return cfg


def _need(cfg: RunConfig, attr: str, what: str) -> Any:
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigError(f"this command needs a '{what}' section in the config")
    return value


def _prepared_body(cfg: RunConfig) -> Body:
    body = _need(cfg, "body", "body")
    surface = _need(cfg, "surface", "surface")
    if cfg.do_balance:
        body = balance(body, surface)
    if cfg.do_principal_axes:
        body = principal_axes(body)
    return body


def _build_stroke(cfg: RunConfig, steps_override: Optional[int]) -> Stroke:
    sec = _need(cfg, "stroke_cfg", "stroke")
    steps = sec.get("steps", DEFAULT_STEPS) if steps_override is None else _steps(steps_override, "--steps")
    a1, a2 = float(sec["amplitudes"][0]), float(sec["amplitudes"][1])
    if sec["type"] == "rectangle":
        return rectangle_stroke(a1, a2, steps=steps, profile=sec.get("profile", "uniform"))
    return sinusoid_stroke(a1, a2, steps=steps)


def _build_fields(cfg: RunConfig, body: Body) -> List[VectorField]:
    specs = _need(cfg, "field_specs", "fields")
    try:
        return [parse_field_spec(s, body=body) for s in specs]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _gauge_fields(cfg: RunConfig, body: Body, surface: Surface, raw: List[VectorField]) -> List[VectorField]:
    if cfg.gauge == "assume":
        return raw
    return [project_gauge(body, surface, f) for f in raw]


# ---------------------------------------------------------------------------
# Commands


def cmd_holonomy(cfg: RunConfig, steps_override: Optional[int]) -> Dict[str, Any]:
    surface = _need(cfg, "surface", "surface")
    body = _prepared_body(cfg)
    raw = _build_fields(cfg, body)
    stroke = _build_stroke(cfg, steps_override)
    fields = _gauge_fields(cfg, body, surface, raw)
    res = holonomy_general(body, surface, fields[0], fields[1], stroke.signed_area)
    return {
        "command": "holonomy",
        "surface": {"R": surface.R},
        "area": stroke.signed_area,
        "delta_tau": list(res.delta_tau),
        "per_unit_area": list(res.per_unit_area),
        "gram_condition": res.gram_condition,
        "gauge_residuals": {
            "raw": [list(gauge_residuals(body, surface, f)) for f in raw],
            "used": [list(r) for r in res.gauge_residuals],
        },
        "fields": [f.tag for f in fields],
    }


def _run_oracle(cfg: RunConfig, steps_override: Optional[int]):
    """The integrator half of integrate: (body, raw fields, stroke, trajectory record)."""
    surface = _need(cfg, "surface", "surface")
    body = _prepared_body(cfg)
    raw = _build_fields(cfg, body)
    stroke = _build_stroke(cfg, steps_override)
    return body, raw, stroke, integrate_stroke(body, surface, raw, stroke, mode=cfg.mode)


def cmd_integrate(cfg: RunConfig, steps_override: Optional[int]) -> Dict[str, Any]:
    surface = _need(cfg, "surface", "surface")
    body, raw, stroke, rec = _run_oracle(cfg, steps_override)
    fields = _gauge_fields(cfg, body, surface, raw)
    hol = holonomy_general(body, surface, fields[0], fields[1], stroke.signed_area)
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
        if variable == "area":
            side = math.sqrt(abs(value))
            local = RunConfig(**{**cfg.__dict__, "stroke_cfg": {
                "type": "rectangle",
                "amplitudes": [side, math.copysign(side, value)],
                "steps": (cfg.stroke_cfg or {}).get("steps", DEFAULT_STEPS),
            }})
        elif variable == "R":
            local = RunConfig(**{**cfg.__dict__, "surface": Surface(float(value))})
        else:  # variable == "m"
            tri = _need(cfg, "triangle", "body.scenario.triangle")
            spec = TriangleSpec(M=tri.M, m=float(value), h=tri.h, b=tri.b)
            local = RunConfig(**{**cfg.__dict__, "triangle": spec, "body": triangle_body(spec)})
        if variable == "m":  # the formula is the triangle's closed form: run only the oracle
            _, _, stroke, rec = _run_oracle(local, steps_override)
            dx_f = surface.R * triangle_swim_coefficient(spec) * stroke.signed_area
            dx_i = float(rec.delta_tau[0])
        else:
            payload = cmd_integrate(local, steps_override)
            dx_f, dx_i = payload["dx_formula"], payload["dx_integrated"]
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
    body = triangle_body(tri)
    return {
        "command": "triangle",
        "spec": {"M": tri.M, "m": tri.m, "h": tri.h, "b": tri.b},
        "coefficient": triangle_swim_coefficient(tri),
        "optimal_mass": triangle_optimal_mass(tri.M),
        "coefficient_bound": 0.5 * tri.h * tri.b**2,
        "particles": [[float(m), float(x), float(y)] for m, (x, y) in zip(body.masses, body.positions)],
    }


def cmd_ring(cfg: RunConfig) -> Dict[str, Any]:
    ring = _need(cfg, "ring", "ring")
    return {
        "command": "ring",
        "spec": {"length": ring.length, "m1": ring.m1, "m2": ring.m2},
        "displacement": ring_displacement(ring),
        "simulated": ring_simulate(ring),
    }


def cmd_check(records: List[Record], seed: int) -> Dict[str, Any]:
    return {
        "command": "check",
        "seed": seed,
        "ok": all(r.ok for r in records),
        "records": [{**asdict(r), "value": r.value if math.isfinite(r.value) else None} for r in records],
    }


# ---------------------------------------------------------------------------
# Wiring


def _roundtrip_floats(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _roundtrip_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_roundtrip_floats(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(payload: Any, fmt: str, path: Optional[str]) -> None:
    if isinstance(payload, str):
        text = payload
    elif fmt == "csv":
        raise ConfigError("csv output is only available for the sweep command")
    else:
        text = json.dumps(_roundtrip_floats(payload), indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="curvswim",
        description="Swimming of point-mass bodies on constant-curvature surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, config=True, steps=False, formats=("json", "csv")):
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", help="write the result to this path instead of stdout")
        p.add_argument("--format", choices=formats, help="output format override")
        if steps:
            p.add_argument("--steps", type=int, help="time-step override for the integrator")
        return p

    add("holonomy", "leading-order rigid increment of one stroke", steps=True)
    add("integrate", "finite-stroke momentum-constrained integration", steps=True)
    add("sweep", "formula vs oracle table over area, m or R", steps=True)
    add("triangle", "triangle coefficient and optimal mass split")
    add("ring", "ring swimmer displacement")
    check_p = add("check", "run the invariant registry", config=False, formats=("json",))
    check_p.add_argument("--seed", type=int, default=0, help="seed for the randomized records")
    check_p.add_argument(
        "--inject-killing-fault",
        action="store_true",
        help="perturb a Killing field to exercise the failure path",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            records = run_checks(seed=args.seed, inject_killing_fault=args.inject_killing_fault)
            _emit(cmd_check(records, args.seed) if args.format == "json"
                  else "".join(r.line() + "\n" for r in records), args.format, args.out)
            return 0 if all(r.ok for r in records) else 3
        cfg = load_config(args.config)
        fmt = args.format or cfg.out_format or ("csv" if args.command == "sweep" else "json")
        path = args.out or cfg.out_path
        if args.command == "holonomy":
            payload = cmd_holonomy(cfg, args.steps)
        elif args.command == "integrate":
            payload = cmd_integrate(cfg, args.steps)
        elif args.command == "sweep":
            if fmt != "csv":
                raise ConfigError("sweep emits csv; use --format csv")
            payload = cmd_sweep(cfg, args.steps)
        elif args.command == "triangle":
            payload = cmd_triangle(cfg)
        elif args.command == "ring":
            payload = cmd_ring(cfg)
        else:  # pragma: no cover - argparse guards this
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(payload, fmt, path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CurvswimError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
