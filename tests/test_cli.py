import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvswim
import curvswim.checks as checks
from curvswim.cli import main

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


def test_transport_option_is_unknown(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, options={"mode": "direct", "transport": True})
    assert main(["integrate", "--config", write_config(tmp_path, cfg)]) == 2
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


def test_gauge_assume_rejected_numerically(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, options={"gauge": "assume"})
    code = main(["holonomy", "--config", write_config(tmp_path, cfg)])
    assert code == 3
    assert "gauge" in capsys.readouterr().err


def test_body_outside_domain_exits_3(tmp_path):
    cfg = dict(BASE_CONFIG, surface={"R": -1.0},
               body={"particles": [[1.0, 0.8, 0.8], [1.0, 0.0, 0.5]]})
    assert main(["holonomy", "--config", write_config(tmp_path, cfg)]) == 3


# ---------------------------------------------------------------- integrate


def test_integrate_record(tmp_path):
    rec = run_json(tmp_path, "integrate", BASE_CONFIG)
    assert rec["ratio"] == pytest.approx(1.0, abs=2e-3)
    assert rec["max_momentum_residual"] <= rec["momentum_residual_bound"]
    assert rec["mode"] == "composed"
    assert rec["steps"] == 256


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


def test_integrate_direct_mode(tmp_path):
    cfg = dict(BASE_CONFIG, options={"mode": "direct"})
    rec = run_json(tmp_path, "integrate", cfg)
    assert rec["mode"] == "direct"
    assert rec["shape_closure_defect"] > 0.0


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
    # formula (and the gauge projection feeding it) must not run
    import curvswim.cli as cli

    calls = {"holonomy_general": 0, "project_gauge": 0}
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
    assert calls == {"holonomy_general": 0, "project_gauge": 0}


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


def test_sweep_requires_csv(tmp_path):
    assert main(["sweep", "--config", write_config(tmp_path, SWEEP_CONFIG), "--format", "json"]) == 2


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
    ("bool-x_dx", "fields[1]"), ("huge-int-y_dy", "fields[1]"),
])
@pytest.mark.parametrize("command", ["holonomy", "integrate", "sweep"])
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, command, bad, where):
    # JSON parses NaN and Infinity; they used to escape as a LinAlgError
    # traceback (exit 1) or a "numerical failure" (exit 3), and an integer
    # beyond the float range as an OverflowError traceback.  Field specs
    # used to run on: a non-finite matrix printed NaN (not JSON) with exit 0,
    # and {"x_dx": true} ran as 1.0
    particles = [list(p) for p in PARTICLES]
    cfg = dict(BASE_CONFIG, body={"particles": particles}, surface={"R": 1.0},
               sweep={"variable": "area", "values": [1e-4]})
    if bad == "nan-mass":
        particles[0][0] = float("nan")
    elif bad == "inf-coordinate":
        particles[1][1] = float("inf")
    elif bad.endswith("matrix"):
        cfg["fields"] = [{"matrix": [[float(bad[:3]), 0.0], [0.0, 0.0]]}, "linear:22"]
    elif bad == "bool-x_dx":
        cfg["fields"] = ["linear:11", {"x_dx": True}]
    elif bad == "huge-int-y_dy":
        cfg["fields"] = ["linear:11", {"y_dy": 10**400, "x_dx": 1.0}]
    else:
        cfg["surface"] = {"R": float("nan") if bad == "nan-R" else 10**400}
    out = tmp_path / "never.out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {where} must be a finite number" in capsys.readouterr().err


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
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, command, flag, value):
    args = [command, flag, value]
    if command != "check":
        args += ["--config", write_config(tmp_path, BASE_CONFIG)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


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
    # scipy is a test dependency only: no command of the CLI may import it
    cfgs = {
        "composed": dict(BASE_CONFIG, stroke={"type": "sinusoid", "amplitudes": [0.1, 0.1], "steps": 8}),
        "direct": dict(BASE_CONFIG, stroke={"type": "rectangle", "amplitudes": [0.1, 0.1], "steps": 8},
                       options={"mode": "direct"}),
        "sweep": dict(SWEEP_CONFIG, stroke={"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 8}),
    }
    paths = {name: write_config(tmp_path, cfg, f"{name}.json") for name, cfg in cfgs.items()}
    runs = [
        ["integrate", "--config", paths["composed"]],
        ["integrate", "--config", paths["direct"]],
        ["holonomy", "--config", paths["composed"]],
        ["sweep", "--config", paths["sweep"], "--format", "csv"],
    ]
    runs = [args + ["--out", str(tmp_path / f"out{i}")] for i, args in enumerate(runs)]
    script = (
        "import json, sys\n"
        "from curvswim.cli import main\n"
        "codes = [main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    paths_env = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths_env if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}


@pytest.mark.parametrize("script", ["convergence_table.py", "triangle_optimum.py"])
def test_scripts_run(script):
    # The scripts call the library directly, so an API change shows here.
    root = Path(__file__).resolve().parents[1]
    paths = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--steps", "16"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
