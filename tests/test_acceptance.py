"""Acceptance suite: each criterion asserts its records of the invariant registry.

The invariants, their bounds and their samples are defined once, in
`curvswim.checks`; `curvswim check` evaluates the same records.  Every
criterion runs its records at seeds 0, 1 and 2.  Only the sweep
byte-determinism criterion is checked here directly, because it is a
property of the CLI rather than of the library.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per record.
"""

import functools
import json

from curvswim.checks import run_checks
from curvswim.cli import main

SEEDS = (0, 1, 2)

CRITERIA = {
    1: ("killing-residual-grid", "isometry-distance-invariance", "exp-rigid-expansion-order"),
    2: ("two-form-closed-vs-fd", "flat-translation-two-forms-zero", "flat-rotation-two-form-two"),
    3: ("gaussian-curvature-4R", "translation-approx-curl", "translation-approx-two-form-halving"),
    4: ("baron-translations-vanish", "cat-rotation-nonzero",
        "gauge-projection-residual", "gauge-projection-strain"),
    5: ("triangle-optimum-value", "triangle-optimum-drop", "triangle-grid-argmax",
        "triangle-coefficient-bound"),
    6: ("integrator-vs-formula-area-1e-4", "integrator-vs-formula-area-1e-5",
        "integrator-momentum-residual"),
    7: ("r-flip-linear-exact", "r-flip-small-swimmer-exact", "r-flip-integrator"),
    8: ("inversion-symmetric-cubic-moments", "inversion-symmetric-no-swim", "needle-no-swim",
        "needle-22-degenerate", "two-particle-no-swim"),
    9: ("cubic-scaling-exact",),
    10: ("formula-paths-agree",),
    11: ("ring-formula-vs-simulation", "ring-equal-masses"),
}


@functools.lru_cache(maxsize=None)
def records_at(seed):
    return {r.name: r for r in run_checks(seed)}


def assert_records(criterion):
    failed = []
    for seed in SEEDS:
        for name in CRITERIA[criterion]:
            record = records_at(seed)[name]
            print(f"ACCEPTANCE {criterion} seed {seed}: {record.line()}")
            if not record.ok:
                failed.append(f"seed {seed}: {record.line()}")
    assert not failed, "\n".join(failed)


def test_every_record_belongs_to_one_criterion():
    listed = [name for names in CRITERIA.values() for name in names]
    assert sorted(listed) == sorted(records_at(0))


def test_criterion_1_killing_validity():
    assert_records(1)


def test_criterion_2_two_form_closed_form():
    assert_records(2)


def test_criterion_3_curvature_consistency():
    assert_records(3)


def test_criterion_4_baron_theorem_and_cat():
    assert_records(4)


def test_criterion_5_triangle_optimum():
    assert_records(5)


def test_criterion_6_formula_vs_oracle_convergence():
    assert_records(6)


def test_criterion_7_sign_flip():
    assert_records(7)


def test_criterion_8_null_results():
    assert_records(8)


def test_criterion_9_cubic_scaling():
    assert_records(9)


def test_criterion_10_formula_cross_agreement():
    assert_records(10)


def test_criterion_11_ring_swimmer():
    assert_records(11)


def test_criterion_12_sweep_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "surface": {"R": 1.0},
        "body": {"scenario": {"triangle": {"M": 1.0, "m": 0.25, "h": 1.0, "b": 1.0}}},
        "fields": ["linear:11", "linear:22"],
        "stroke": {"type": "rectangle", "amplitudes": [0.01, 0.01], "steps": 256},
        "sweep": {"variable": "area", "values": [1e-3, 1e-4]},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    print("ACCEPTANCE 12: PASS  repeated sweep runs produce byte-identical CSV")
