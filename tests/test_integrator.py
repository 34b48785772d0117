import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm_frechet

import curvswim
import curvswim.integrator as integrator
from curvswim.body import Body, balance, momentum_map, principal_axes
from curvswim.deformation import gauge_fixed_linear_deformation, project_gauge
from curvswim.errors import ChartDomainError, StrokeError
from curvswim.fields import from_complex, linear_field, to_complex
from curvswim.geometry import Isometry, Surface, killing_fields, rigid_generator
from curvswim.holonomy import holonomy_general
from curvswim.geometry import _SERIES_Q
from curvswim.integrator import (
    Stroke,
    _expm2,
    _extract_delta_tau,
    integrate_stroke,
    oracle_ratio,
    rectangle_stroke,
    sinusoid_stroke,
)
from curvswim.scenarios import TriangleSpec, triangle_body, triangle_control_fields

TRIANGLE = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1.0, b=1.0))
HEIGHT, BASE = triangle_control_fields()


def projected_pair(body, surface):
    return (
        project_gauge(body, surface, HEIGHT),
        project_gauge(body, surface, BASE),
    )


# ---------------------------------------------------------------- momentum


def test_momentum_zero_velocities():
    mom = momentum_map(TRIANGLE, Surface(1.0), np.zeros((1,) + TRIANGLE.positions.shape))[1]
    assert np.all(mom == 0.0)


def test_momentum_of_killing_velocity_is_norm():
    # the momenta of the velocities xi_a are the rows of the Gram matrix
    s = Surface(1.0)
    gram, mom, _, _ = momentum_map(TRIANGLE, s, np.stack([xi(TRIANGLE.positions) for xi in killing_fields(s)]))
    assert np.max(np.abs(mom - gram)) <= 1e-14 * np.max(np.abs(gram))


def test_solver_residual_below_bound():
    s = Surface(1.0)
    stroke = rectangle_stroke(0.01, 0.01, steps=64)
    rec = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    assert rec.max_momentum_residual <= rec.residual_bound


# ------------------------------------------------------------------ strokes


def test_custom_stroke_must_close():
    with pytest.raises(StrokeError):
        Stroke(
            pieces=((lambda t: np.array([t, 0.0]), lambda t: np.array([1.0, 0.0])),),
            steps=16,
            signed_area=0.0,
        )


def _numeric_area(stroke, n=200000):
    from scipy.integrate import trapezoid

    ts = np.linspace(0.0, 1.0, n)
    sig = np.array([stroke.sigma(t) for t in ts])
    return trapezoid(sig[:, 0] * np.gradient(sig[:, 1], ts), ts)


def test_builtin_stroke_areas():
    rect = rectangle_stroke(0.3, 0.2, steps=64)
    assert rect.signed_area == pytest.approx(0.06, abs=1e-15)
    assert _numeric_area(rect) == pytest.approx(0.06, abs=1e-5)
    sin = sinusoid_stroke(0.3, 0.2, steps=64)
    assert sin.signed_area == pytest.approx(np.pi * 0.015, abs=1e-15)
    assert _numeric_area(sin) == pytest.approx(sin.signed_area, abs=1e-5)
    assert rect.reversed().signed_area == -rect.signed_area


def test_rectangle_steps_rounded_to_multiple_of_four():
    assert rectangle_stroke(0.1, 0.1, steps=10).steps == 12


def test_with_steps_keeps_every_step_inside_one_edge():
    # with_steps rounds like the constructor: 42 steps would put corners
    # inside steps, so the stroke takes 44, bitwise the same as asking for 44
    s = Surface(1.0)
    stroke = rectangle_stroke(0.1, 0.1, steps=16).with_steps(42)
    assert stroke.steps == 44
    got = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke)
    want = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], rectangle_stroke(0.1, 0.1, steps=44))
    assert np.array_equal(got.delta_tau, want.delta_tau)


LOOPS = {
    "sinusoid": lambda steps: sinusoid_stroke(0.2, 0.15, steps=steps),
    "rectangle": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps),
    "rectangle-smooth": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps, profile="smooth"),
}


@pytest.mark.parametrize("steps", [4, 16, 64])
@pytest.mark.parametrize("kind", sorted(LOOPS))
def test_builtin_loops_close_bitwise(kind, steps):
    stroke = LOOPS[kind](steps)
    assert np.array_equal(stroke.sigma(1.0), stroke.sigma(0.0))
    body, fields = _random_body()
    rec = integrate_stroke(body, Surface(-1.0), fields, stroke, mode="composed")
    assert rec.shape_closure_defect == 0.0


# ------------------------------------------------------ closed-form exponential


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _assert_matches_expm_frechet(C, D, rtol=1e-13):
    E, L = _expm2(C, D)
    E_ref, L_ref = expm_frechet(C, D)
    assert _rel(E, E_ref) <= rtol
    assert _rel(L, L_ref) <= rtol


entries = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.floats(-8.0, np.log10(2.0)), entries, entries)
def test_expm2_matches_expm_frechet(log_norm, c, d):
    C, D = np.reshape(c, (2, 2)), np.reshape(d, (2, 2))
    assume(np.linalg.norm(C, 2) > 1e-3 and np.linalg.norm(D, 2) > 1e-3)
    _assert_matches_expm_frechet(C * (10.0**log_norm / np.linalg.norm(C, 2)), D)


@pytest.mark.parametrize("side", [1.0 - 1e-12, 1.0 + 1e-12])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_expm2_at_the_series_switch(side, sign):
    # q = -det N lands just below or just above the switch, once with a
    # diagonal N and once with a far-from-normal one
    q = sign * side * _SERIES_Q
    D = np.array([[0.3, -0.7], [0.9, 0.2]])
    if sign > 0:
        _assert_matches_expm_frechet(np.diag([np.sqrt(q), -np.sqrt(q)]) + 0.4 * np.eye(2), D)
    _assert_matches_expm_frechet(np.array([[0.0, 1.6], [q / 1.6, 0.0]]) - 0.3 * np.eye(2), D)


@pytest.mark.parametrize("theta", [1e-6, 0.3, 1.0, 2.0])
def test_expm2_rotation(theta):
    C = np.array([[0.0, -theta], [theta, 0.0]])    # q = -theta^2 < 0
    E, _ = _expm2(C, np.eye(2))
    c, s = np.cos(theta), np.sin(theta)
    assert _rel(E, np.array([[c, -s], [s, c]])) <= 1e-15
    _assert_matches_expm_frechet(C, np.array([[0.5, 0.1], [-0.2, 0.8]]))


def test_expm2_q_zero():
    D = np.array([[0.5, 0.1], [-0.2, 0.8]])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])        # N^2 = 0
    E, L = _expm2(nil, D)
    assert np.array_equal(E, np.eye(2) + nil)
    assert _rel(L, D + 0.5 * (nil @ D + D @ nil) + nil @ D @ nil / 6.0) <= 1e-15
    _assert_matches_expm_frechet(nil, D)
    E, L = _expm2(0.7 * np.eye(2), D)                # N = 0
    assert _rel(E, np.exp(0.7) * np.eye(2)) <= 1e-15
    assert _rel(L, np.exp(0.7) * D) <= 1e-15


def test_expm2_inverse_and_batching():
    rng = np.random.default_rng(3)
    C = rng.uniform(-1.0, 1.0, (5, 3, 2, 2))
    D = rng.uniform(-1.0, 1.0, (5, 3, 2, 2))
    E, L = _expm2(C, D)
    E_neg, _ = _expm2(-C, D)
    assert np.max(np.abs(E @ E_neg - np.eye(2))) <= 1e-14
    for i, j in np.ndindex(5, 3):
        E_ij, L_ij = _expm2(C[i, j], D[i, j])
        assert _rel(E[i, j], E_ij) <= 1e-15 and _rel(L[i, j], L_ij) <= 1e-15


# -------------------------------------------------------------- flat space


def test_baron_flat_translations_vanish_both_modes():
    rng = np.random.default_rng(17)
    s = Surface(0.0)
    stroke = rectangle_stroke(0.05, 0.05, steps=64)
    for _ in range(3):
        body = Body(masses=rng.uniform(0.5, 2, 4), positions=rng.uniform(-0.4, 0.4, (4, 2)))
        body = principal_axes(balance(body, s))
        u = gauge_fixed_linear_deformation(body, 1, 1)
        v = gauge_fixed_linear_deformation(body, 1, 2)
        for mode in ("composed", "direct"):
            rec = integrate_stroke(body, s, [u, v], stroke, mode=mode)
            assert np.max(np.abs(rec.translation)) < 1e-12


def test_cat_composed_matches_formula_direct_does_not():
    s = Surface(0.0)
    body = Body.from_particles([[1, 1, 0], [1, -0.2, 0.8], [2, -0.4, -0.4]])
    body = principal_axes(balance(body, s))
    u = gauge_fixed_linear_deformation(body, 1, 1)
    v = gauge_fixed_linear_deformation(body, 1, 2)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=512)
    formula_rot = holonomy_general(body, s, u, v, stroke.signed_area).rotation
    composed = integrate_stroke(body, s, [u, v], stroke, mode="composed")
    direct = integrate_stroke(body, s, [u, v], stroke, mode="direct")
    assert composed.rotation == pytest.approx(formula_rot, rel=5e-2)
    # the in-place update misses the non-closure of the shape loop, which
    # doubles the apparent turn for this non-commuting control pair
    assert direct.rotation / formula_rot == pytest.approx(2.0, rel=0.1)
    assert composed.shape_closure_defect < 1e-14
    assert direct.shape_closure_defect > 1e-6


def test_direct_mode_gap_is_observable_not_hidden():
    # evaluating the controls in place (instead of flowing the frozen field)
    # changes the curved-surface answer at leading order; the gap is finite,
    # step-independent and visible in the closure diagnostic
    s = Surface(1.0)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=256)
    rec_c = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    rec_d = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="direct")
    ratio = rec_d.delta_tau[0] / rec_c.delta_tau[0]
    assert 1.05 < ratio < 1.6
    rec_d2 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke.with_steps(1024), mode="direct")
    assert rec_d.delta_tau[0] == pytest.approx(rec_d2.delta_tau[0], rel=1e-8)
    assert rec_c.shape_closure_defect < 1e-14
    assert rec_d.shape_closure_defect > 1e-8


# ------------------------------------------------------------- convergence


def test_triangle_formula_convergence():
    s = Surface(1.0)
    u, v = projected_pair(TRIANGLE, s)
    for area, tol in [(1e-4, 0.05), (1e-5, 0.01)]:
        stroke = rectangle_stroke(np.sqrt(area), np.sqrt(area), steps=1024)
        rec = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
        hol = holonomy_general(TRIANGLE, s, u, v, stroke.signed_area)
        assert abs(rec.delta_tau[0] / hol.delta_tau[0] - 1.0) < tol


def test_step_doubling_changes_little():
    s = Surface(1.0)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=512)
    r1 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    r2 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke.with_steps(1024), mode="composed")
    assert np.max(np.abs(r1.delta_tau - r2.delta_tau)) < 1e-10


def test_reversed_stroke_negates():
    s = Surface(1.0)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=256)
    fwd = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    rev = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke.reversed(), mode="composed")
    assert np.max(np.abs(fwd.delta_tau + rev.delta_tau)) < 1e-12


def test_time_reparametrization_invariance():
    s = Surface(1.0)
    uniform = rectangle_stroke(1e-2, 1e-2, steps=512, profile="uniform")
    smooth = rectangle_stroke(1e-2, 1e-2, steps=512, profile="smooth")
    r1 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], uniform, mode="composed")
    r2 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], smooth, mode="composed")
    assert np.max(np.abs(r1.delta_tau - r2.delta_tau)) < 1e-12


def test_rigid_content_of_controls_is_subleading_composed():
    # mixing rigid content into a control perturbs the realized shape loop
    # only at second order in the stroke size, so the measured holonomy is
    # unchanged at leading order and the gap dies faster than the area
    s = Surface(1.0)
    ks = killing_fields(s)
    u_dirty = HEIGHT + 0.3 * ks[2]
    assert u_dirty.linear_matrix is not None

    def rel_gap(area):
        stroke = rectangle_stroke(np.sqrt(area), np.sqrt(area), steps=256)
        clean = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
        dirty = integrate_stroke(TRIANGLE, s, [u_dirty, BASE], stroke, mode="composed")
        return np.max(np.abs(clean.delta_tau - dirty.delta_tau)) / abs(clean.delta_tau[0])

    g1, g2 = rel_gap(1e-4), rel_gap(1e-6)
    assert g1 < 5e-3
    assert g2 < 0.2 * g1


def test_convergence_study_rows():
    s = Surface(1.0)
    small = triangle_body(TriangleSpec(M=1.0, m=0.25, h=0.2, b=0.2))
    u, v = projected_pair(small, s)
    gaps = []
    for area in (1e-3, 1e-4):
        stroke = rectangle_stroke(np.sqrt(area), np.sqrt(area), steps=256)
        rec = integrate_stroke(small, s, [HEIGHT, BASE], stroke)
        hol = holonomy_general(small, s, u, v, stroke.signed_area)
        gaps.append(abs(oracle_ratio(rec.delta_tau[0], hol.delta_tau[0]) - 1.0))
    assert gaps[1] < gaps[0] < 0.05


def test_flat_convergence_study_zeros():
    s = Surface(0.0)
    rng = np.random.default_rng(19)
    body = Body(masses=rng.uniform(0.5, 2, 4), positions=rng.uniform(-0.3, 0.3, (4, 2)))
    body = principal_axes(balance(body, s))
    u = gauge_fixed_linear_deformation(body, 1, 1)
    v = gauge_fixed_linear_deformation(body, 2, 2)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=64)
    dx_i = integrate_stroke(body, s, [u, v], stroke).delta_tau[0]
    dx_f = holonomy_general(body, s, u, v, stroke.signed_area).delta_tau[0]
    assert dx_f == 0.0
    assert abs(dx_i) < 1e-14
    assert oracle_ratio(dx_i, dx_f) == 0.0


# ------------------------------------------- body-frame reconstruction


def reference_composed(body, surface, fields, stroke):
    """Composed mode evaluated stage by stage in the space frame.

    Every RK4 stage maps the shape into the space frame through the current
    group element and solves the 3x3 momentum system there; the integrator
    instead runs RK4 on dG/dt = G A(shape) in the body frame.  Returns
    (delta_tau, residual_bound, shape_closure_defect).
    """
    X0 = surface.require_inside(body.positions)
    steps = stroke.steps
    dt = 1.0 / steps
    G = np.eye(2, dtype=complex)
    max_speed = 0.0
    B = [np.asarray(f.linear_matrix, dtype=float) for f in fields]

    def solve(x, v_def, collect):
        nonlocal max_speed
        A, mom, _, frame = momentum_map(body, surface, v_def[None], x)
        tau_dot = np.linalg.solve(A, -mom[0])
        if collect:
            xdot = v_def + sum(c * xi for c, xi in zip(tau_dot, frame))
            max_speed = max(max_speed, float(np.max(np.abs(xdot))))
        return tau_dot, frame

    def deriv(t, Gm, collect, sig, sigd):
        s = sig(t)
        sd = sigd(t)
        C = s[0] * B[0] + s[1] * B[1]
        Cd = sd[0] * B[0] + sd[1] * B[1]
        E, Ed = expm_frechet(C, Cd)
        Y = X0 @ E.T
        Vy = X0 @ Ed.T
        g = Isometry(complex(Gm[0, 0]), complex(Gm[0, 1]), surface.R)
        yz = to_complex(Y)
        xz = g.apply_complex(yz)
        X = from_complex(xz)
        vz = g.derivative_complex(yz) * to_complex(Vy)
        v_def = from_complex(vz)
        tau_dot, _ = solve(X, v_def, collect)
        return rigid_generator(surface, tau_dot) @ Gm

    for n in range(steps):
        t = n * dt
        sig, sigd = stroke.piece(t + 0.5 * dt)
        k1 = deriv(t, G, True, sig, sigd)
        k2 = deriv(t + 0.5 * dt, G + 0.5 * dt * k1, False, sig, sigd)
        k3 = deriv(t + 0.5 * dt, G + 0.5 * dt * k2, False, sig, sigd)
        k4 = deriv(t + dt, G + dt * k3, False, sig, sigd)
        G = G + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    s0, s1 = stroke.sigma(0.0), stroke.sigma(1.0)
    E0 = expm_frechet(s0[0] * B[0] + s0[1] * B[1], B[0])[0]
    E1 = expm_frechet(s1[0] * B[0] + s1[1] * B[1], B[0])[0]
    closure = float(np.max(np.abs(E1 - E0)))
    delta_tau, _ = _extract_delta_tau(G, surface.R)
    bound = 1e-12 * body.total_mass * max(max_speed, 1e-300)
    return delta_tau, bound, closure


def _random_body(seed=11, n=7, radius=0.3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    body = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
    return body, [linear_field(rng.uniform(-1, 1, (2, 2))) for _ in range(2)]


REFERENCE_STROKES = {
    "rectangle": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps),
    "rectangle-smooth": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps, profile="smooth"),
    "sinusoid": lambda steps: sinusoid_stroke(0.2, 0.15, steps=steps),
    "reversed-rectangle": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps).reversed(),
    "reversed-sinusoid": lambda steps: sinusoid_stroke(0.2, 0.15, steps=steps).reversed(),
}


@pytest.mark.parametrize("steps", [4, 16, 64])
@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("kind", sorted(REFERENCE_STROKES))
def test_body_frame_matches_space_frame_reference(kind, R, steps):
    body, fields = _random_body()
    s = Surface(R)
    stroke = REFERENCE_STROKES[kind](steps)
    dtau, bound, closure = reference_composed(body, s, fields, stroke)
    rec = integrate_stroke(body, s, fields, stroke, mode="composed")
    assert np.max(np.abs(rec.delta_tau - dtau)) <= 1e-12 * np.max(np.abs(dtau))
    assert rec.residual_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
    assert rec.max_momentum_residual <= rec.residual_bound
    assert rec.shape_closure_defect == closure


def test_body_frame_keeps_mirror_zeros():
    # the README triangle is mirror-symmetric, so its y-translation and
    # rotation vanish exactly in the stage-by-stage reference
    s = Surface(1.0)
    stroke = rectangle_stroke(0.1, 0.1, steps=64)
    dtau, bound, _ = reference_composed(TRIANGLE, s, [HEIGHT, BASE], stroke)
    rec = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    assert dtau[0] != 0.0 and dtau[1] == 0.0 and dtau[2] == 0.0
    assert rec.delta_tau[1] == 0.0 and rec.delta_tau[2] == 0.0
    assert rec.delta_tau[0] == pytest.approx(dtau[0], rel=1e-12, abs=0.0)
    assert rec.residual_bound == pytest.approx(bound, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("R", [-1.0, 1.0])
def test_composed_equivariant_under_rotation(R):
    # rotating the body about the origin (an isometry for every R) and
    # conjugating the linear controls by the same rotation turns the
    # translation by that angle and keeps the rotation
    body, fields = _random_body()
    c, s = np.cos(0.7), np.sin(0.7)
    Q = np.array([[c, -s], [s, c]])
    turned = Body(masses=body.masses, positions=body.positions @ Q.T)
    turned_fields = [linear_field(Q @ f.linear_matrix @ Q.T) for f in fields]
    stroke = sinusoid_stroke(0.2, 0.15, steps=16)
    a = integrate_stroke(body, Surface(R), fields, stroke)
    b = integrate_stroke(turned, Surface(R), turned_fields, stroke)
    expected = np.append(Q @ a.translation, a.rotation)
    assert np.max(np.abs(b.delta_tau - expected)) <= 1e-12 * np.max(np.abs(a.delta_tau))


def test_composed_memory_stays_linear_in_particles():
    # stages are processed in bounded blocks, so the peak does not grow with
    # the number of steps (all 768 stages in one block peak near 500 MB)
    rng = np.random.default_rng(5)
    n = 3000
    r = 0.25 * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    body = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
    fields = [linear_field(rng.uniform(-1, 1, (2, 2))) for _ in range(2)]
    stroke = sinusoid_stroke(0.1, 0.08, steps=256)
    tracemalloc.start()
    try:
        integrate_stroke(body, Surface(-1.0), fields, stroke, mode="composed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "kind, steps, nodes",
    [
        ("sinusoid", 4, 9),
        ("sinusoid", 16, 33),
        ("rectangle", 4, 12),
        ("rectangle", 16, 4 * 9),
        ("rectangle-smooth", 16, 4 * 9),
        ("reversed-rectangle", 16, 4 * 9),
        ("reversed-sinusoid", 16, 33),
    ],
)
def test_composed_evaluates_each_stage_time_once(monkeypatch, kind, steps, nodes):
    # A depends on time alone, so a step's end stage is the next step's start
    # stage inside one smooth piece: 2 steps + 1 nodes per piece, and every
    # edge of the rectangle is its own piece.
    body, fields = _random_body()
    s = Surface(-1.0)
    stroke = REFERENCE_STROKES[kind](steps)
    evaluated = []

    def counting(body, surface, velocities, x=None, **kwargs):
        evaluated.append(math.prod(np.shape(x)[:-2]))
        return momentum_map(body, surface, velocities, x, **kwargs)

    monkeypatch.setattr(integrator, "momentum_map", counting)
    rec = integrate_stroke(body, s, fields, stroke, mode="composed")
    assert sum(evaluated) == nodes
    dtau = reference_composed(body, s, fields, stroke)[0]
    assert np.max(np.abs(rec.delta_tau - dtau)) <= 1e-12 * np.max(np.abs(dtau))


@pytest.mark.parametrize("kind", ["sinusoid", "rectangle"])
def test_composed_blocks_do_not_change_the_result(monkeypatch, kind):
    # Every node is paired on its own, so how the nodes are cut into blocks
    # (one node, a part of a step, several steps, all) leaves every output
    # bitwise unchanged.
    body, fields = _random_body()
    s = Surface(1.0)
    stroke = REFERENCE_STROKES[kind](16)
    runs = []
    for per_block in (1, 2, 3, 5, 10**6):
        monkeypatch.setattr(integrator, "_BLOCK_PARTICLE_NODES", per_block * body.n)
        runs.append(integrate_stroke(body, s, fields, stroke, mode="composed"))
    for rec in runs[1:]:
        assert np.array_equal(rec.delta_tau, runs[0].delta_tau)
        assert rec.max_momentum_residual == runs[0].max_momentum_residual
        assert rec.residual_bound == runs[0].residual_bound
        assert rec.shape_closure_defect == runs[0].shape_closure_defect


@pytest.mark.parametrize("R", [-1.0, 0.0, 0.5])
def test_rigid_velocity_is_the_killing_combination(R):
    # q + i tau3 z + R conj(q) z^2 against v + sum_a tau_a xi_a from the frame
    rng = np.random.default_rng(4)
    x, v = rng.uniform(-0.4, 0.4, (2, 3, 50, 2))
    tau = rng.uniform(-1.0, 1.0, (3, 3))
    frame = momentum_map(Body(masses=np.ones(50), positions=x[0]), Surface(R), v[:, None], x)[3]
    expected = v + np.einsum("...a,...anj->...nj", tau, frame)
    got = integrator._rigid_velocity(R, v, tau, x)
    assert got.shape == (3, 50, 1)
    assert np.max(np.abs(got.view(float) - expected)) <= 4e-16 * np.max(np.abs(expected))
    one = integrator._rigid_velocity(R, v[1], tau[1], x[1])
    assert np.array_equal(one, got[1])


_FAULT_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from curvswim.body import Body
    from curvswim.fields import linear_field
    from curvswim.geometry import Surface
    from curvswim.integrator import integrate_stroke, sinusoid_stroke

    rng = np.random.default_rng(5)
    n = 4000
    r = 0.25 * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    body = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
    fields = [linear_field(rng.uniform(-1, 1, (2, 2))) for _ in range(2)]
    stroke = sinusoid_stroke(0.05, 0.05, steps=4)
    for _ in range(5):
        integrate_stroke(body, Surface(-1.0), fields, stroke)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        integrate_stroke(body, Surface(-1.0), fields, stroke)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults with getrusage")
def test_composed_strokes_reuse_their_memory():
    # Every block's per-particle arrays live in buffers allocated once per
    # stroke, so strokes at N = 4000 reuse heap pages instead of faulting
    # fresh ones in on every block (about 900 faults per stroke when each
    # block allocated and freed its own).  A fresh process gives a clean heap.
    paths = [str(Path(curvswim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) <= 50


# ----------------------------------------------------------------- errors


def test_particle_leaving_chart_raises():
    s = Surface(-1.0)
    body = Body.from_particles([[1.0, 0.93, 0.0], [1.0, -0.93, 0.0]])
    grow = linear_field(np.eye(2))  # isotropic dilation
    other = linear_field(np.array([[0.0, 0.0], [0.0, 1.0]]))
    stroke = rectangle_stroke(0.4, 0.4, steps=64)
    with pytest.raises(ChartDomainError):
        integrate_stroke(body, s, [grow, other], stroke, mode="composed")


def test_wrong_field_count():
    with pytest.raises(ValueError):
        integrate_stroke(TRIANGLE, Surface(1.0), [HEIGHT], rectangle_stroke(0.1, 0.1, steps=16))


def test_composed_needs_linear_fields():
    from curvswim.fields import VectorField

    nonlinear = VectorField(func=lambda p: np.asarray(p) ** 2)
    with pytest.raises(ValueError):
        integrate_stroke(
            TRIANGLE, Surface(1.0), [nonlinear, HEIGHT], rectangle_stroke(0.1, 0.1, steps=16)
        )
