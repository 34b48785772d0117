"""Golden CLI outputs for holonomy, integrate and sweep.

The expected files in tests/golden/ hold the CLI output of each case below.
Numbers must agree to RTOL relative to the largest magnitude in their array
(a lone number is its own array); every other value must be identical.

Regenerate only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py --regenerate

It rewrites only the files whose case fails that comparison (or is
missing), and prints their names, so round-off on another host leaves the
files as they are.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from curvswim.cli import _run_oracle, main, parse_config

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

TRIANGLE = {
    "schema": 1,
    "surface": {"R": 1.0},
    "body": {"scenario": {"triangle": {"M": 1.0, "m": 0.25, "h": 1.0, "b": 1.0}}},
    "fields": ["linear:11", "linear:22"],
    "stroke": {"type": "rectangle", "amplitudes": [0.1, 0.1], "steps": 64},
}


def _random_body_config(seed: int = 2024, n: int = 30, radius: float = 0.3) -> dict:
    """Seeded N-particle body at R = -1 driven by two random matrix fields."""
    rng = random.Random(seed)
    particles = []
    while len(particles) < n:
        x, y = radius * (2.0 * rng.random() - 1.0), radius * (2.0 * rng.random() - 1.0)
        if x * x + y * y <= radius * radius:
            particles.append([0.5 + rng.random(), x, y])
    fields = [{"matrix": [[2.0 * rng.random() - 1.0 for _ in range(2)] for _ in range(2)]}
              for _ in range(2)]
    return {
        "schema": 1,
        "surface": {"R": -1.0},
        "body": {"particles": particles},
        "fields": fields,
        "stroke": {"type": "sinusoid", "amplitudes": [0.2, 0.15], "steps": 64},
    }


RANDOM_BODY = _random_body_config()

# name -> (command, config, output suffix)
CASES = {
    "holonomy_triangle": ("holonomy", TRIANGLE, "json"),
    "integrate_composed": ("integrate", RANDOM_BODY, "json"),
    "sweep_area": ("sweep", dict(TRIANGLE, sweep={"variable": "area", "values": [1e-3, 1e-4]}), "csv"),
    "sweep_R": ("sweep", dict(RANDOM_BODY, sweep={"variable": "R", "values": [-1.0, -0.5, 0.5, 1.0]}),
                "csv"),
    "sweep_m": ("sweep", dict(TRIANGLE, sweep={"variable": "m", "values": [0.1, 0.25, 0.4]}), "csv"),
}


def run_case(name: str, workdir: Path) -> str:
    command, cfg, suffix = CASES[name]
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / f"{name}.out.{suffix}"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _csv_columns(text: str) -> dict:
    header, *rows = [line.split(",") for line in text.strip().split("\n")]
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def assert_close(got, expected, path="$"):
    """Recursive comparison: numeric arrays to RTOL of their largest entry."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(expected), path
        for key in expected:
            assert_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list) and expected and all(_is_number(v) for v in expected):
        g, e = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
        assert g.shape == e.shape, path
        scale = float(np.max(np.abs(e)))
        assert np.max(np.abs(g - e)) <= RTOL * scale, f"{path}: {got} != {expected}"
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), path
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_close(g, e, f"{path}[{i}]")
    elif _is_number(expected):
        assert_close([got], [expected], path)
    else:
        assert got == expected, f"{path}: {got!r} != {expected!r}"


def _check_roundoff(got: dict, expected: dict) -> None:
    """Pop and check the round-off measurements of a JSON payload.

    Their digits depend on the summation order, so they are held to what
    they certify instead of to their golden digits; exact zeros stay zeros.
    """
    if "max_momentum_residual" in expected:
        expected.pop("max_momentum_residual")
        assert got.pop("max_momentum_residual") <= got["momentum_residual_bound"]
    if "gauge_residuals" in expected:
        used = np.asarray(got["gauge_residuals"].pop("used"))
        was_zero = np.asarray(expected["gauge_residuals"].pop("used")) == 0.0
        assert used.shape == was_zero.shape
        assert np.all(used < 1e-12) and np.all(used[was_zero] == 0.0)


def compare(name: str, got: str, expected: str) -> None:
    """Assert that the output text of case name matches its golden text."""
    if CASES[name][2] == "json":
        got, expected = json.loads(got), json.loads(expected)
        _check_roundoff(got, expected)
        assert_close(got, expected)
        return
    got_cols, exp_cols = _csv_columns(got), _csv_columns(expected)
    assert list(got_cols) == list(exp_cols)
    for col, values in exp_cols.items():
        if col == "variable":
            assert got_cols[col] == values
        else:
            assert_close([float(v) for v in got_cols[col]], [float(v) for v in values], col)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.{CASES[name][2]}").read_text(encoding="utf-8")
    compare(name, run_case(name, tmp_path), expected)


def test_integrate_composed_stays_in_the_group():
    # |det G - 1| of the final rigid element, read before it is normalized
    rec = _run_oracle(parse_config(CASES["integrate_composed"][1]), None)[3]
    assert rec.group_drift <= 1e-9


def regenerate() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, _, suffix) in CASES.items():
            path = GOLDEN_DIR / f"{name}.{suffix}"
            got = run_case(name, Path(tmp))
            try:
                compare(name, got, path.read_text(encoding="utf-8"))
            except (FileNotFoundError, AssertionError):
                path.write_text(got, encoding="utf-8")
                print(f"rewrote {path.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    regenerate()
