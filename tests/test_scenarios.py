import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvswim.scenarios as scenarios
from curvswim.body import Body, balance, moments, principal_axes
from curvswim.deformation import gauge_fixed_linear_deformation
from curvswim.errors import DegenerateMomentsError
from curvswim.holonomy import holonomy_general
from curvswim.geometry import Surface
from curvswim.integrator import integrate_stroke, rectangle_stroke
from curvswim.scenarios import (
    RingSpec,
    TriangleSpec,
    baron_cat_report,
    rectangle_stroke_distance,
    ring_displacement,
    ring_simulate,
    triangle_body,
    triangle_control_fields,
    triangle_optimal_mass,
    triangle_swim_coefficient,
)


# ----------------------------------------------------------------- triangle


def test_triangle_spec_validation():
    with pytest.raises(ValueError):
        TriangleSpec(M=1.0, m=0.5, h=1.0, b=1.0)  # 2m == M
    with pytest.raises(ValueError):
        TriangleSpec(M=1.0, m=0.25, h=-1.0, b=1.0)


def test_triangle_body_layout():
    body = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1.0, b=1.0))
    assert np.allclose(body.masses, [0.25, 0.25, 0.5])
    assert np.allclose(body.positions, [[-0.5, 0.5], [-0.5, -0.5], [0.5, 0.0]])
    q = moments(body)
    assert abs(q.q1[0]) < 1e-16
    assert abs(q.q2[0, 1]) < 1e-16  # reflection symmetric


def test_triangle_body_balanced_for_any_spec():
    for spec in [TriangleSpec(2.0, 0.3, 0.7, 1.2), TriangleSpec(5.0, 2.4, 0.1, 3.0)]:
        q1 = moments(triangle_body(spec)).q1
        assert np.max(np.abs(q1)) < 1e-14


def test_triangle_degenerate_limit():
    spec = TriangleSpec(M=1.0, m=0.5 - 1e-12, h=1.0, b=1.0)
    body = triangle_body(spec)
    assert body.masses[2] == pytest.approx(0.0, abs=1e-11)


def test_coefficient_values():
    assert triangle_swim_coefficient(TriangleSpec(1.0, 0.25, 1.0, 1.0)) == pytest.approx(0.5)
    assert triangle_swim_coefficient(TriangleSpec(1.0, 0.1, 2.0, 3.0)) == pytest.approx(5.76)


def test_coefficient_vanishes_without_oars():
    assert triangle_swim_coefficient(TriangleSpec(1.0, 1e-12, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-11)


def test_optimal_mass():
    assert triangle_optimal_mass(1.0) == 0.25
    assert triangle_optimal_mass(8.0) == 2.0
    best = triangle_swim_coefficient(TriangleSpec(1.0, 0.25, 1.0, 1.0))
    for m in (0.25 - 1e-3, 0.25 + 1e-3):
        assert triangle_swim_coefficient(TriangleSpec(1.0, m, 1.0, 1.0)) < best


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.49), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_coefficient_bound(m, h, b):
    spec = TriangleSpec(1.0, m, h, b)
    assert triangle_swim_coefficient(spec) <= 0.5 * h * b * b + 1e-12


def test_bound_saturated_only_at_optimum():
    h, b = 1.3, 0.7
    at_opt = triangle_swim_coefficient(TriangleSpec(1.0, 0.25, h, b))
    assert at_opt == pytest.approx(0.5 * h * b * b, rel=1e-14)
    off = triangle_swim_coefficient(TriangleSpec(1.0, 0.2, h, b))
    assert off < at_opt


def test_rectangle_stroke_distance():
    spec = TriangleSpec(1.0, 0.25, 1.0, 1.0)
    assert rectangle_stroke_distance(spec, 1.0, 0.1, 0.1) == pytest.approx(0.005)
    assert rectangle_stroke_distance(spec, 1.0, 0.0, 0.1) == 0.0
    assert rectangle_stroke_distance(spec, -1.0, 0.1, 0.1) == pytest.approx(-0.005)


def test_stroke_distance_agrees_with_integrator_small_body():
    # leading-order coefficient vs the momentum-constrained oracle, on a
    # body small enough that curvature corrections stay inside the gate
    spec = TriangleSpec(M=1.0, m=0.25, h=0.02, b=0.02)
    body = triangle_body(spec)
    s = Surface(1.0)
    height, base = triangle_control_fields()
    for dA, tol in [(1e-4, 0.05), (1e-5, 0.01)]:
        side = np.sqrt(dA)
        stroke = rectangle_stroke(side, side, steps=1024)
        rec = integrate_stroke(body, s, [height, base], stroke, mode="composed")
        expected = rectangle_stroke_distance(spec, 1.0, side * spec.b, side * spec.h)
        assert rec.delta_tau[0] / expected == pytest.approx(1.0, abs=tol)


def test_two_particle_bodies_cannot_swim():
    rng = np.random.default_rng(41)
    from curvswim.body import balance, principal_axes
    from curvswim.deformation import gauge_fixed_linear_deformation
    from curvswim.errors import DegenerateMomentsError
    from curvswim.geometry import CurvatureTensor
    from curvswim.holonomy import holonomy_small_swimmer

    c = CurvatureTensor.constant_curvature(4.0)
    for _ in range(10):
        body = Body(masses=rng.uniform(0.5, 2, 2), positions=rng.uniform(-0.3, 0.3, (2, 2)))
        body = principal_axes(balance(body, Surface(0.0)))
        fields = {}
        for pair in [(1, 1), (2, 2), (1, 2)]:
            try:
                fields[pair] = gauge_fixed_linear_deformation(body, *pair)
            except DegenerateMomentsError:
                continue
        pairs = list(fields)
        for i, pb in enumerate(pairs):
            for pc in pairs[i + 1:]:
                dx = holonomy_small_swimmer(body, c, fields[pb], fields[pc], 1.0)
                assert np.max(np.abs(dx)) < 1e-12


# --------------------------------------------------------------------- ring


def test_ring_formula_and_simulation():
    spec = RingSpec(length=1.0, m1=1.0, m2=3.0)
    assert ring_displacement(spec) == pytest.approx(0.75)
    assert ring_simulate(spec) == pytest.approx(0.75, abs=1e-12)


def test_ring_equal_masses_meet_at_antipode():
    spec = RingSpec(length=2.0, m1=1.7, m2=1.7)
    assert ring_displacement(spec) == pytest.approx(1.0)


def test_ring_massless_splinter_limit():
    spec = RingSpec(length=1.0, m1=1.0, m2=1e-9)
    assert ring_displacement(spec) < 1e-8
    assert ring_simulate(spec) == pytest.approx(ring_displacement(spec), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 10.0), st.floats(0.05, 10.0), st.floats(0.2, 5.0))
def test_ring_swap_identity(m1, m2, length):
    a = ring_displacement(RingSpec(length, m1, m2))
    b = ring_displacement(RingSpec(length, m2, m1))
    assert a + b == pytest.approx(length, rel=1e-12)


# ---------------------------------------------------------------- baron/cat


def test_baron_cat_report_translations_vanish():
    body = Body.from_particles([[1, 0.6, 0.1], [1, -0.3, 0.5], [2, -0.1, -0.4]])
    report = baron_cat_report(body)
    assert report.max_translation < 1e-12


def test_baron_cat_symmetric_body_does_not_turn_with_symmetric_pair():
    body = triangle_body(TriangleSpec(1.0, 0.25, 1.0, 1.0))
    report = baron_cat_report(body)
    assert ((1, 1), (2, 2)) not in report.turning_pairs


def test_baron_cat_asymmetric_body_turns():
    body = Body.from_particles([[1, 1, 0], [1, -0.2, 0.8], [2, -0.4, -0.4]])
    report = baron_cat_report(body)
    assert report.turning_pairs


def test_baron_cat_report_propagates_untyped_errors(monkeypatch):
    def broken(body, j, k):
        raise ValueError("not a degenerate-moments failure")

    monkeypatch.setattr(scenarios, "gauge_fixed_linear_deformation", broken)
    with pytest.raises(ValueError):
        baron_cat_report(triangle_body(TriangleSpec(1.0, 0.25, 1.0, 1.0)))


def _baron_cat_pair_by_pair(body, area):
    """baron_cat_report as a loop that builds both fields of every pair anew."""
    surface = Surface(0.0)
    prepared = principal_axes(balance(body, surface))
    pairs = [(1, 1), (2, 2), (1, 2)]
    rotations, turning, max_tr = {}, [], 0.0
    for i, pb in enumerate(pairs):
        for pc in pairs[i + 1:]:
            try:
                fb = gauge_fixed_linear_deformation(prepared, *pb)
                fc = gauge_fixed_linear_deformation(prepared, *pc)
            except DegenerateMomentsError:
                continue
            res = holonomy_general(prepared, surface, fb, fc, area)
            max_tr = max(max_tr, float(np.max(np.abs(res.translation))))
            rotations[(pb, pc)] = res.rotation
            if abs(res.rotation) > scenarios.ROTATION_FLOOR:
                turning.append((pb, pc))
    return max_tr, rotations, turning


@pytest.mark.parametrize("particles", [
    [[1, 1, 0], [1, -0.2, 0.8], [2, -0.4, -0.4]],
    [[1, 0.3, 0.2], [1, 0.3, -0.2], [2, -0.3, 0.0]],
    [[1, -0.2, 0], [2, 0.05, 0], [1, 0.3, 0]],     # a needle: (2,2) is degenerate
])
def test_baron_cat_report_builds_each_field_once(particles, monkeypatch):
    body = Body.from_particles(particles)
    expected = _baron_cat_pair_by_pair(body, 0.7)
    builds = []

    def counting(prepared, j, k):
        builds.append((j, k))
        return gauge_fixed_linear_deformation(prepared, j, k)

    monkeypatch.setattr(scenarios, "gauge_fixed_linear_deformation", counting)
    report = baron_cat_report(body, 0.7)
    assert builds == [(1, 1), (2, 2), (1, 2)]
    assert (report.max_translation, report.rotations, report.turning_pairs) == expected


def test_baron_cat_report_skips_degenerate_pairs():
    # on a needle Q^22 = 0, so every pair with the (2,2) deformation is undefined
    needle = Body.from_particles([[1, -0.2, 0], [2, 0.05, 0], [1, 0.3, 0]])
    report = baron_cat_report(needle)
    assert list(report.rotations) == [((1, 1), (1, 2))]
    assert report.max_translation < 1e-12
