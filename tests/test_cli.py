import argparse
import dataclasses
import errno
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvswim
import curvswim.checks as checks
import curvswim.cli as cli
from curvswim import (
    Surface,
    TriangleSpec,
    gauge_fixed_linear_deformation,
    holonomy_general,
    project_gauge,
    rectangle_stroke,
    triangle_body,
)
from curvswim.cli import build_parser, main

BASE_CONFIG = {
    "schema": 1,
    "surface": {"R": 1.0},
    "body": {"scenario": {"triangle": {"M": 1.0, "m": 0.25, "h": 1.0, "b": 1.0}}},
    "fields": ["linear:11", "linear:22"],
    "stroke": {"type": "rectangle", "amplitudes": [0.1, 0.1], "steps": 256},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_json(tmp_path, command, cfg, extra=()):
    out = tmp_path / "out.json"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), *extra])
    assert code == 0
    return json.loads(out.read_text())


# ----------------------------------------------------------------- holonomy


def test_holonomy_record(tmp_path):
    rec = run_json(tmp_path, "holonomy", BASE_CONFIG)
    assert rec["delta_tau"][0] == pytest.approx(0.0022040816326530615, rel=1e-12)
    assert rec["delta_tau"][1] == 0.0
    assert rec["area"] == pytest.approx(0.01)
    assert max(max(r) for r in rec["gauge_residuals"]["used"]) < 1e-12


def test_holonomy_flat_is_zero(tmp_path):
    cfg = dict(BASE_CONFIG, surface={"R": 0.0})
    rec = run_json(tmp_path, "holonomy", cfg)
    assert rec["delta_tau"] == [0.0, 0.0, 0.0]


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["strokes"] = cfg.pop("stroke")
    out = tmp_path / "never.json"
    code = main(["holonomy", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["holonomy", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["holonomy", "--config", str(path)]) == 2


def test_bad_schema_version(tmp_path):
    cfg = dict(BASE_CONFIG, schema=99)
    assert main(["holonomy", "--config", write_config(tmp_path, cfg)]) == 2


def test_body_outside_domain_exits_3(tmp_path):
    cfg = dict(BASE_CONFIG, surface={"R": -1.0},
               body={"particles": [[1.0, 0.8, 0.8], [1.0, 0.0, 0.5]]})
    assert main(["holonomy", "--config", write_config(tmp_path, cfg)]) == 3


@pytest.mark.parametrize("command", ["holonomy", "integrate"])
def test_gauge_linear_fields_match_the_library(tmp_path, command):
    cfg = dict(BASE_CONFIG, fields=["gauge_linear:11", "gauge_linear:22"])
    rec = run_json(tmp_path, command, cfg)
    body, surface = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1.0, b=1.0)), Surface(1.0)
    u, v = (project_gauge(body, surface, gauge_fixed_linear_deformation(body, j, j)) for j in (1, 2))
    expected = holonomy_general(body, surface, u, v, rectangle_stroke(0.1, 0.1).signed_area).delta_tau
    if command == "holonomy":
        assert rec["delta_tau"] == [float(x) for x in expected]
    else:
        assert rec["dx_formula"] == float(expected[0])
        assert rec["ratio"] == pytest.approx(1.0, abs=2e-3)


# ---------------------------------------------------------------- integrate


def test_integrate_record(tmp_path):
    rec = run_json(tmp_path, "integrate", BASE_CONFIG)
    assert rec["ratio"] == pytest.approx(1.0, abs=2e-3)
    assert rec["max_momentum_residual"] <= rec["momentum_residual_bound"]
    assert rec["mode"] == "composed"
    assert rec["steps"] == 256


@pytest.mark.parametrize("command, frame_calls", [("integrate", 2), ("holonomy", 3)])
def test_formula_half_pairs_each_raw_field_once(tmp_path, monkeypatch, command, frame_calls):
    # one kernel call on the body's frame gives both fields' gauge coefficients
    # and one checks the projected fields (holonomy adds one for the raw
    # residuals), and each raw field is evaluated once at the particles
    import curvswim.deformation as deformation

    kernel_calls = []
    original_map = deformation.momentum_map

    def counted_map(body, surface, velocities):
        kernel_calls.append(body)
        return original_map(body, surface, velocities)

    monkeypatch.setattr(deformation, "momentum_map", counted_map)
    evaluations = []
    original_parse = cli.parse_field_spec

    def counted_parse(spec, body=None):
        f = original_parse(spec, body=body)
        i = len(evaluations)
        evaluations.append(0)

        def func(p):
            evaluations[i] += 1
            return f.func(p)

        return dataclasses.replace(f, func=func)

    monkeypatch.setattr(cli, "parse_field_spec", counted_parse)
    run_json(tmp_path, command, BASE_CONFIG)
    assert len(kernel_calls) == frame_calls and all(b is kernel_calls[0] for b in kernel_calls)
    assert evaluations == [1, 1]


def test_integrate_steps_override(tmp_path):
    r1 = run_json(tmp_path, "integrate", BASE_CONFIG, extra=("--steps", "256"))
    r2 = run_json(tmp_path, "integrate", BASE_CONFIG, extra=("--steps", "512"))
    assert abs(r1["dx_integrated"] - r2["dx_integrated"]) < 1e-10


def test_steps_override_does_not_leak_into_next_call(tmp_path):
    # the parser is built once per process; each call must parse afresh
    short = run_json(tmp_path, "integrate", BASE_CONFIG, extra=("--steps", "8"))
    default = run_json(tmp_path, "integrate", BASE_CONFIG)
    assert short["steps"] == 8
    assert default["steps"] == 256


def test_integrate_small_generic_swimmer_ratio(tmp_path):
    # a generic body of extent 1.2e-5 has Gram eigenvalue ratio 7e-11; the
    # formula used to drop its smallest direction and the ratio read 0.022
    rng = np.random.default_rng(3)
    body = checks.random_balanced_body(rng, 7).scaled(3e-5)
    B = rng.normal(size=(2, 2, 2))
    cfg = dict(
        BASE_CONFIG,
        surface={"R": -1.0},
        body={"particles": [[m, x, y] for m, (x, y) in zip(body.masses.tolist(), body.positions.tolist())]},
        fields=[{"matrix": B[0].tolist()}, {"matrix": B[1].tolist()}],
        stroke={"type": "sinusoid", "amplitudes": [1e-3, 1e-3], "steps": 64},
    )
    assert 0.9 < run_json(tmp_path, "integrate", cfg)["ratio"] < 1.1


# -------------------------------------------------------------------- sweep


SWEEP_CONFIG = dict(
    BASE_CONFIG,
    stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 256},
    sweep={"variable": "area", "values": [1e-3, 1e-4]},
)


def test_sweep_csv_format_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg_path, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "variable,value,dx_formula,dx_integrated,ratio"
    assert len(lines) == 3
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == sorted(values)
    ratios = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(abs(r - 1.0) < 0.01 for r in ratios)


def test_sweep_over_m_peaks_at_quarter(tmp_path):
    cfg = dict(
        BASE_CONFIG,
        stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 64},
        sweep={"variable": "m", "values": [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]},
    )
    out = tmp_path / "m.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    best = max(rows, key=lambda r: float(r[2]))
    assert float(best[1]) == 0.25


def test_sweep_over_m_runs_no_formula(tmp_path, monkeypatch):
    # m rows take dx_formula from the triangle's closed form, so the general
    # formula (the swim solve and the gauge projection feeding it) must not run
    calls = {"swim_increments": 0, "gauge_coefficients": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cfg = dict(
        BASE_CONFIG,
        stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 16},
        sweep={"variable": "m", "values": [0.2, 0.25, 0.3]},
    )
    out = tmp_path / "m.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 4
    assert calls == {"swim_increments": 0, "gauge_coefficients": 0}


def test_sweep_over_R_negates(tmp_path):
    # small body: the exact-surface R-flip asymmetry is O(|R| L^2)
    cfg = dict(
        BASE_CONFIG,
        body={"scenario": {"triangle": {"M": 1.0, "m": 0.25, "h": 0.05, "b": 0.05}}},
        stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 256},
        sweep={"variable": "R", "values": [-1.0, 1.0]},
    )
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    dx = {float(r[1]): float(r[2]) for r in rows}
    assert dx[-1.0] == pytest.approx(-dx[1.0], rel=0.01)


@pytest.mark.parametrize("command", ["integrate", "sweep"])
def test_overflowing_result_is_a_numerical_failure(tmp_path, capsys, command):
    # a finite but huge matrix overflows the shape flow; the NaN increment
    # used to be printed (not JSON) with exit 0.  The stroke stops at the
    # first Killing Gram matrix that is not finite.
    cfg = dict(SWEEP_CONFIG, fields=[{"matrix": [[1e300, 0.0], [0.0, 0.0]]}, "linear:22"])
    out = tmp_path / "never.out"
    with np.errstate(all="ignore"):
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    assert not out.exists()
    assert "Killing Gram matrix is not finite" in capsys.readouterr().err


def test_overflow_prints_one_line_and_no_numpy_warnings(tmp_path):
    # The console command, with numpy's default error state: the overflow
    # used to print 13 RuntimeWarning lines before its one failure line.
    cfg = dict(BASE_CONFIG, fields=[{"matrix": [[1e300, 0.0], [0.0, 0.0]]}, "linear:22"])
    out = tmp_path / "never.out"
    paths = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "curvswim", "integrate", "--config", write_config(tmp_path, cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, override, code", [
    pytest.param("integrate", {"stroke": {"type": "rectangle", "amplitudes": [1e3, 1e3], "steps": 8}}, 3,
                 id="composed-nonfinite-gram"),
    pytest.param("sweep", {"sweep": {"variable": "area", "values": [1e300]}}, 3, id="sweep-area-1e300"),
    pytest.param("sweep", {"sweep": {"variable": "m", "values": [0.6]}}, 2, id="sweep-m-inadmissible"),
    pytest.param("integrate", {"fields": [{"matrix": [[1e300, 0.0], [0.0, 0.0]]}, "linear:22"]}, 3,
                 id="matrix-overflow"),
    # the Killing Gram matrix overflows; eigvalsh used to raise LinAlgError
    pytest.param("holonomy", {"surface": {"R": 0.0}, "body": {"scenario": {"triangle": {
        "M": 1.0, "m": 0.25, "h": 1e200, "b": 1e200}}}}, 3, id="holonomy-nonfinite-gram"),
    # m1 + m2 overflows; the ring simulation used to divide by zero
    pytest.param("ring", {"ring": {"length": 1.0, "m1": 1e308, "m2": 1e308}}, 3, id="ring-mass-sum-overflow"),
])
def test_failure_is_one_stderr_line_and_no_output(tmp_path, command, override, code):
    # The console command: a typed failure is one line on stderr, never a traceback.
    cfg = dict(BASE_CONFIG, **override)
    out = tmp_path / "never.out"
    paths = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "curvswim", command, "--config", write_config(tmp_path, cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("config error: " if code == 2 else "numerical failure: ")
    assert not out.exists()


def test_payload_json_cannot_hold_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # NaN and Infinity are not JSON: the dump refuses them and writes nothing
    monkeypatch.setattr(cli, "cmd_triangle", lambda cfg: {"coefficient": float("nan")})
    out = tmp_path / "never.out"
    assert main(["triangle", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("numerical failure: result is not finite")


# -------------------------------------------------------------------- --out


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.json"
    assert main(["integrate", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot write --out {out}: {os.strerror(errno.ENOENT)}\n"
    assert not out.parent.exists()


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    before = sorted(tmp_path.iterdir())
    assert main(["integrate", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write --out {tmp_path}: ") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before + [tmp_path / "cfg.json"]


@pytest.mark.parametrize("command", ["holonomy", "integrate", "sweep", "triangle", "ring"])
def test_out_over_a_longer_file_holds_the_stdout_bytes(tmp_path, capsys, command):
    # --out is overwritten in place and cut to the new length
    cfg = {"sweep": SWEEP_CONFIG, "ring": {"schema": 1, "ring": {"length": 1.0, "m1": 1.0, "m2": 3.0}}}
    args = [command, "--config", write_config(tmp_path, cfg.get(command, BASE_CONFIG))]
    assert main(args) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"x" * (len(expected) + 4096))
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_out_to_the_null_device(tmp_path, capsys):
    # a device is written but not truncated
    assert main(["integrate", "--config", write_config(tmp_path, BASE_CONFIG), "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_to_a_fifo(tmp_path, capsys):
    # a FIFO is written but not truncated; the reader is opened first so the writer does not block
    args = ["integrate", "--config", write_config(tmp_path, BASE_CONFIG)]
    assert main(args) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(args + ["--out", str(fifo)]) == 0
        got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert got == expected


def test_non_finite_result_leaves_an_existing_out_file_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_triangle", lambda cfg: {"coefficient": float("nan")})
    out = tmp_path / "out.json"
    out.write_bytes(b'{"previous": "result"}\n')
    assert main(["triangle", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(out)]) == 3
    assert out.read_bytes() == b'{"previous": "result"}\n'
    assert capsys.readouterr().err.startswith("numerical failure: result is not finite")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_out_file_gets_the_mode_open_gives(tmp_path, umask):
    cfg_path = write_config(tmp_path, BASE_CONFIG)
    reference, out = tmp_path / "reference", tmp_path / "out.json"
    previous = os.umask(umask)
    try:
        with open(reference, "w"):
            pass
        assert main(["triangle", "--config", cfg_path, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


@pytest.mark.parametrize("steps", ["0", "2", "-3"])
@pytest.mark.parametrize("command", ["holonomy", "integrate", "sweep"])
def test_steps_flag_follows_the_config_rule(tmp_path, capsys, command, steps):
    # --steps, like stroke.steps, must be an integer >= 4: 0 is not a
    # fallback to the config, 2 is not rounded up, -3 is no numerical failure
    cfg = SWEEP_CONFIG if command == "sweep" else BASE_CONFIG
    out = tmp_path / "never.out"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--steps", steps])
    assert code == 2
    assert not out.exists()
    assert "--steps must be an integer >= 4" in capsys.readouterr().err


PARTICLES = [[1.0, 0.1, 0.0], [1.0, -0.1, 0.05], [2.0, 0.0, -0.1]]


@pytest.mark.parametrize("bad, where", [
    ("nan-mass", "body.particles[0]"), ("inf-coordinate", "body.particles[1]"), ("nan-R", "surface.R"),
    ("huge-int-R", "surface.R"), ("inf-matrix", "fields[0]"), ("nan-matrix", "fields[0]"),
    ("bool-matrix", "fields[1]"), ("huge-int-matrix", "fields[1]"),
])
@pytest.mark.parametrize("command", ["holonomy", "integrate", "sweep"])
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, command, bad, where):
    # JSON parses NaN and Infinity; they used to escape as a LinAlgError
    # traceback (exit 1) or a "numerical failure" (exit 3), and an integer
    # beyond the float range as an OverflowError traceback.  Field specs
    # used to run on: a non-finite matrix printed NaN (not JSON) with exit 0,
    # and a matrix entry true ran as 1.0
    particles = [list(p) for p in PARTICLES]
    cfg = dict(BASE_CONFIG, body={"particles": particles}, surface={"R": 1.0},
               sweep={"variable": "area", "values": [1e-4]})
    if bad == "nan-mass":
        particles[0][0] = float("nan")
    elif bad == "inf-coordinate":
        particles[1][1] = float("inf")
    elif bad == "bool-matrix":
        cfg["fields"] = ["linear:11", {"matrix": [[True, 0.0], [0.0, 0.0]]}]
    elif bad == "huge-int-matrix":
        cfg["fields"] = ["linear:11", {"matrix": [[1.0, 0.0], [0.0, 10**400]]}]
    elif bad.endswith("matrix"):
        cfg["fields"] = [{"matrix": [[float(bad[:3]), 0.0], [0.0, 0.0]]}, "linear:22"]
    else:
        cfg["surface"] = {"R": float("nan") if bad == "nan-R" else 10**400}
    out = tmp_path / "never.out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {where} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, where", [
    ("holonomy", {"surface": {"R": 1e-310}}, "surface.R"),
    ("integrate", {"surface": {"R": -1e-310}}, "surface.R"),
    ("sweep", {"sweep": {"variable": "R", "values": [1.0, 1e-310]}}, "sweep.values"),
])
def test_subnormal_R_is_a_config_error(tmp_path, capsys, monkeypatch, command, override, where):
    # README's triangle at R = 1e-310: holonomy used to print a subnormal
    # delta_tau with exit 0, and integrate and sweep exited 3 on a NaN increment
    for name in ("integrate_stroke", "swim_increments", "gauge_coefficients"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} ran"))
    out = tmp_path / "never.out"
    assert main([command, "--config", write_config(tmp_path, dict(BASE_CONFIG, **override)), "--out", str(out)]) == 2
    assert not out.exists()
    value = repr(override.get("surface", {}).get("R", 1e-310))
    assert capsys.readouterr().err == (f"config error: {where}: surface parameter R must be finite, and zero or at "
                                       f"least the smallest normal float 2.2250738585072014e-308 in magnitude, "
                                       f"got {value}\n")


UNKNOWN_OUTPUTS = "unknown key(s) in config: ['outputs']"
UNKNOWN_OPTIONS = "unknown key(s) in config: ['options']"


@pytest.mark.parametrize("override, message", [
    pytest.param({"surface": 1.0}, "surface must be an object", id="surface-not-object"),
    pytest.param({"surface": {}}, "missing key(s) in surface: ['R']", id="surface-missing-R"),
    pytest.param({"body": {}}, "body needs exactly one of 'particles' or 'scenario'", id="body-empty"),
    pytest.param({"body": {"particles": []}}, "body.particles must be a non-empty list", id="particles-empty"),
    pytest.param({"body": {"particles": [[1.0, 0.0]]}}, "body.particles[0] must be [mass, x, y]", id="particle-pair"),
    pytest.param({"body": {"particles": [[0.0, 0.0, 0.0]]}}, "body.particles: all masses must be positive",
                 id="particle-massless"),
    pytest.param({"body": {"scenario": {"triangle": {"M": 1.0, "m": 0.5, "h": 1.0, "b": 1.0}}}},
                 "body.scenario.triangle: need 0 < 2m < M", id="triangle-mass-split"),
    pytest.param({"body": {"scenario": {"triangle": {"M": float("nan"), "m": 0.25, "h": 1.0, "b": 1.0}}}},
                 "body.scenario.triangle.M must be a finite number", id="triangle-nan-M"),
    pytest.param({"body": {"scenario": {"triangle": {"M": 1.0, "m": 0.25, "h": 1.0, "b": float("inf")}}}},
                 "body.scenario.triangle.b must be a finite number", id="triangle-inf-b"),
    pytest.param({"fields": ["linear:11"]}, "fields must list exactly two", id="one-field"),
    pytest.param({"fields": ["linear:13", "linear:22"]}, "fields: unrecognized field spec 'linear:13'",
                 id="field-spec-unknown"),
    pytest.param({"fields": [{"matrix": [[1.0, 0.0], [0.0, 0.0]], "tag": 1}, "linear:22"]},
                 "fields: unexpected keys in matrix field spec: ['tag']", id="field-matrix-extra-key"),
    pytest.param({"body": {"particles": PARTICLES}, "fields": ["gauge_linear:11", "gauge_linear:22"]},
                 "fields: body must be balanced", id="field-gauge_linear-unbalanced"),
    pytest.param({"stroke": {"type": "circle", "amplitudes": [0.1, 0.1]}}, "stroke.type must be", id="stroke-type"),
    pytest.param({"stroke": {"type": "rectangle", "amplitudes": [0.1]}}, "stroke.amplitudes must be [a1, a2]",
                 id="stroke-amplitudes"),
    pytest.param({"stroke": {"type": "rectangle", "amplitudes": [0.1, 0.1], "profile": "jagged"}},
                 "unknown key(s) in stroke: ['profile']", id="stroke-profile"),
    pytest.param({"sweep": {"variable": "h", "values": [1.0]}}, "sweep.variable must be one of", id="sweep-variable"),
    pytest.param({"sweep": {"variable": "area", "values": []}}, "sweep.values must be a non-empty list",
                 id="sweep-values"),
    pytest.param({"sweep": {"variable": "m", "values": [0.2, 0.6]}}, "sweep.values: need 0 < 2m < M, got m=0.6",
                 id="sweep-m-inadmissible"),
    pytest.param({"ring": {"length": 0.0, "m1": 1.0, "m2": 1.0}}, "ring: circumference must be positive",
                 id="ring-length"),
    # sections the CLI no longer reads: --format and --out say it, the gauge is
    # always projected, and every config runs the composed oracle
    pytest.param({"options": {"mode": "implicit"}}, UNKNOWN_OPTIONS, id="options-mode"),
    pytest.param({"options": {"mode": "direct", "transport": True}}, UNKNOWN_OPTIONS, id="options-transport"),
    pytest.param({"outputs": {"format": "json"}}, UNKNOWN_OUTPUTS, id="removed-outputs.format"),
    pytest.param({"outputs": {"path": "out.json"}}, UNKNOWN_OUTPUTS, id="removed-outputs.path"),
    pytest.param({"options": {"gauge": "assume"}}, UNKNOWN_OPTIONS, id="removed-options.gauge"),
    pytest.param({"options": {"balance": True}}, UNKNOWN_OPTIONS, id="removed-options.balance"),
    pytest.param({"options": {"principal_axes": True}}, UNKNOWN_OPTIONS, id="removed-options.principal_axes"),
])
def test_bad_config_exits_2_naming_the_path(tmp_path, capsys, monkeypatch, override, message):
    for name in ("integrate_stroke", "swim_increments", "gauge_coefficients"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: pytest.fail(f"{_name} ran"))
    out = tmp_path / "never.out"
    code = main(["integrate", "--config", write_config(tmp_path, dict(BASE_CONFIG, **override)), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


# ----------------------------------------------------------- triangle / ring


def test_triangle_command(tmp_path):
    rec = run_json(tmp_path, "triangle", BASE_CONFIG)
    assert rec["coefficient"] == pytest.approx(0.5)
    assert rec["optimal_mass"] == pytest.approx(0.25)
    assert rec["coefficient_bound"] == pytest.approx(0.5)
    assert len(rec["particles"]) == 3


def test_ring_command(tmp_path):
    cfg = {"schema": 1, "ring": {"length": 1.0, "m1": 1.0, "m2": 3.0}}
    rec = run_json(tmp_path, "ring", cfg)
    assert rec["displacement"] == pytest.approx(0.75)
    assert rec["simulated"] == pytest.approx(0.75, abs=1e-12)


def test_ring_command_missing_section(tmp_path):
    assert main(["ring", "--config", write_config(tmp_path, BASE_CONFIG)]) == 2


# -------------------------------------------------------------------- check


def test_check_passes():
    assert main(["check", "--seed", "3"]) == 0


def test_check_fault_injection_fails():
    assert main(["check", "--inject-killing-fault"]) == 3


def test_check_prints_one_pass_line_per_record(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS  {r.name}" for r in checks.run_checks()]


def test_check_json_out_holds_every_record(tmp_path):
    out = tmp_path / "check.json"
    assert main(["check", "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["name"] for r in records] == [r.name for r in checks.run_checks()]
    assert all(r["ok"] is True for r in records)


def test_check_fault_injection_fails_only_the_killing_record(capsys):
    assert main(["check", "--inject-killing-fault", "--format", "json"]) == 3
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["name"] for r in records if not r["ok"]] == ["killing-residual-grid"]


def test_check_counts_a_crash_as_failing_records(monkeypatch, capsys):
    def crash(rng, inject_killing_fault):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(checks, "REGISTRY", [checks.Invariant((("a", "<", 1.0), ("b", "==", 0.0)), crash)])
    assert main(["check", "--format", "json"]) == 3
    records = json.loads(capsys.readouterr().out)["records"]
    assert [(r["name"], r["ok"], r["value"], r["error"]) for r in records] == [
        ("a", False, None, "ZeroDivisionError: boom"),
        ("b", False, None, "ZeroDivisionError: boom"),
    ]


@pytest.mark.parametrize("command, flag, value", [
    ("triangle", "--seed", "1"), ("ring", "--steps", "1"), ("check", "--steps", "1"), ("check", "--format", "csv"),
    # the command fixes the format: CSV for sweep, JSON for the others
    ("holonomy", "--format", "json"), ("integrate", "--format", "json"), ("sweep", "--format", "json"),
    ("sweep", "--format", "csv"), ("triangle", "--format", "json"), ("ring", "--format", "json"),
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, command, flag, value):
    args = [command, flag, value]
    if command != "check":
        args += ["--config", write_config(tmp_path, BASE_CONFIG)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_readme_flags_table_matches_the_parser():
    # each row names every flag of its subcommands, and the values of a flag
    # with fixed choices (`--format json`) are exactly those choices
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Flags, per subcommand")[1].split("\n\n")[1]
    documented = {}
    for row in table.splitlines()[2:]:
        commands, flags = re.split(r"(?<!\\)\|", row)[1:3]
        for command in re.findall(r"`(\w+)`", commands):
            documented[command] = dict(re.findall(r"`(--[\w-]+) ?([^`]*)`", flags))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        flags = documented.pop(name)
        actions = {a.option_strings[-1]: a for a in p._actions if "--help" not in a.option_strings}
        assert set(flags) == set(actions), name
        for flag, action in actions.items():
            if action.choices:
                assert flags[flag].split("\\|") == list(action.choices), (name, flag)
    assert documented == {}


# -------------------------------------------------------------- entry point


def test_console_entrypoint_smoke(tmp_path):
    cfg_path = write_config(tmp_path, {"schema": 1, "ring": {"length": 1.0, "m1": 2.0, "m2": 2.0}})
    # The child imports the same curvswim as the tests, installed or not.
    paths = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "curvswim", "ring", "--config", cfg_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["displacement"] == pytest.approx(0.5)


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: no command of the CLI may import it,
    # and only check loads the invariant registry
    cfgs = {
        "composed": dict(BASE_CONFIG, stroke={"type": "sinusoid", "amplitudes": [0.1, 0.1], "steps": 8}),
        "sweep": dict(SWEEP_CONFIG, stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 8}),
    }
    paths = {name: write_config(tmp_path, cfg, f"{name}.json") for name, cfg in cfgs.items()}
    runs = [
        ["integrate", "--config", paths["composed"]],
        ["holonomy", "--config", paths["composed"]],
        ["sweep", "--config", paths["sweep"]],
    ]
    runs = [args + ["--out", str(tmp_path / f"out{i}")] for i, args in enumerate(runs)]
    script = (
        "import json, sys\n"
        "from curvswim.cli import main\n"
        "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'checks': 'curvswim.checks' in sys.modules,\n"
        "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    paths_env = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths_env if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "checks": False, "scipy": []}


@pytest.mark.parametrize("variable", ["area", "m"])
def test_readme_configs_run(tmp_path, variable):
    # Every JSON configuration in README is an experiment run by curvswim sweep:
    # each row's oracle agrees with its formula, and the mass sweep peaks at M/4.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert sorted(cfg["sweep"]["variable"] for cfg in configs) == ["area", "m"]
    (cfg,) = [cfg for cfg in configs if cfg["sweep"]["variable"] == variable]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [float(r["value"]) for r in rows] == sorted(cfg["sweep"]["values"])
    assert all(abs(float(r["ratio"]) - 1.0) < 0.15 for r in rows)
    if variable == "m":
        best = max(rows, key=lambda r: float(r["dx_formula"]))
        assert float(best["value"]) == cfg["body"]["scenario"]["triangle"]["M"] / 4.0
