import math
import os
import re
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
from curvswim.body import Body, balance, linear_momentum_map, pairing_scale, principal_axes, solve_gram
from curvswim.checks import random_balanced_body
from curvswim.deformation import gauge_fixed_linear_deformation, project_gauge
from curvswim.errors import ChartDomainError, CurvswimError, NonFiniteResultError, SingularGramError, StrokeError
from curvswim.fields import VectorField, complex_view, linear_field
from curvswim.geometry import Isometry, Surface, expm2, killing_fields, rigid_generator
from curvswim.holonomy import holonomy_general
from curvswim.geometry import _SERIES_Q, cosh_sinc
from curvswim.integrator import (
    Stroke,
    _extract_delta_tau,
    integrate_stroke,
    oracle_ratio,
    rectangle_stroke,
    sinusoid_stroke,
    swim,
)
from curvswim.scenarios import TriangleSpec, triangle_body, triangle_control_fields
from references import killing_frame, oracle_longdouble, particle_pairings, rigid_velocity

TRIANGLE = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1.0, b=1.0))
HEIGHT, BASE = triangle_control_fields()


def eased_rectangle(d1, d2, steps):
    """rectangle_stroke's loop with each edge run at the eased pace s^2 (3 - 2s) of its edge time s."""
    a, b = 0.5 * d1, 0.5 * d2
    corners = np.array([[-a, -b], [a, -b], [a, b], [-a, b], [-a, -b]])

    def edge(k):
        p0, p1 = corners[k], corners[k + 1]

        def sigma(t):
            s = np.asarray(t)[..., None] * 4.0 - k
            return p0 + s * s * (3.0 - 2.0 * s) * (p1 - p0)

        def sigma_dot(t):
            s = np.asarray(t)[..., None] * 4.0 - k
            return 4.0 * (6.0 * s * (1.0 - s)) * (p1 - p0)

        return sigma, sigma_dot

    return Stroke(tuple(edge(k) for k in range(4)), steps, d1 * d2)


def reversed_stroke(stroke):
    """The loop run backwards: its piece p is piece P - 1 - p run backwards."""
    pieces = tuple((lambda t, s=s: s(1.0 - t), lambda t, sd=sd: -sd(1.0 - t)) for s, sd in reversed(stroke.pieces))
    return Stroke(pieces, stroke.steps, -stroke.signed_area)


def projected_pair(body, surface):
    return (
        project_gauge(body, surface, HEIGHT),
        project_gauge(body, surface, BASE),
    )


# ---------------------------------------------------------------- momentum


def test_momentum_zero_velocities():
    mom = TRIANGLE.frame(Surface(1.0)).momentum(np.zeros((1, 2, 6)))
    assert np.all(mom == 0.0)


def test_momentum_of_killing_velocity_is_norm():
    # the momenta of the velocities xi_a are the rows of the Gram matrix
    s = Surface(1.0)
    frame = TRIANGLE.frame(s)
    mom = frame.momentum(np.stack([xi.coefficients for xi in killing_fields(s)]))
    assert np.max(np.abs(mom - frame.gram)) <= 1e-14 * np.max(np.abs(frame.gram))


def test_solver_residual_below_bound():
    s = Surface(1.0)
    stroke = rectangle_stroke(0.01, 0.01, steps=64)
    rec = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="composed")
    assert rec.max_momentum_residual <= rec.residual_bound


def test_composed_residual_reads_every_node(monkeypatch):
    # a solve that is off by 1e-6 at a mid-step node, which starts no RK4
    # step, must show in the residual against its bound
    body, fields = _random_body()
    stroke = sinusoid_stroke(0.2, 0.15, steps=16)
    sig, _, stages = integrator._stage_controls(stroke)
    assert 1 in stages[:, 1] and 1 not in stages[:, 0]
    solve = integrator.solve_gram

    def off_at_node_1(gram, rhs):
        tau, eigvals = solve(gram, rhs)
        assert len(tau) == len(sig)     # one block holds every node
        tau[1] += 1e-6
        return tau, eigvals

    monkeypatch.setattr(integrator, "solve_gram", off_at_node_1)
    rec = integrate_stroke(body, Surface(1.0), fields, stroke)
    assert rec.max_momentum_residual > rec.residual_bound


def test_group_drift_falls_with_the_step_size():
    # RK4 leaves the group |det G| = 1 by a truncation error: 2.2e-10 at 16
    # steps, 2.2e-13 at 64 on this stroke
    body, fields = _random_body(n=30)
    drift = [integrate_stroke(body, Surface(-1.0), fields, sinusoid_stroke(0.2, 0.15, steps=steps)).group_drift
             for steps in (16, 64)]
    assert 0.0 < drift[1] and drift[0] >= 100.0 * drift[1]


# ------------------------------------------------------------------ strokes


def test_custom_stroke_must_close():
    with pytest.raises(StrokeError):
        Stroke(
            pieces=((lambda t: np.asarray(t)[..., None] * [1.0, 0.0],
                     lambda t: np.broadcast_to([1.0, 0.0], np.shape(t) + (2,))),),
            steps=16,
            signed_area=0.0,
        )


@pytest.mark.parametrize(
    "make", [lambda: Stroke((), 8, 0.0), lambda: sinusoid_stroke(math.nan, 0.1)], ids=["no-pieces", "nan-loop"]
)
def test_malformed_loop_is_refused(make):
    # no piece used to divide by zero, and a nan gap passed the closure check
    with pytest.raises(StrokeError):
        make()


def _numeric_area(stroke, n=200000):
    from scipy.integrate import trapezoid

    P = len(stroke.pieces)
    area = 0.0
    for p, (sigma, _) in enumerate(stroke.pieces):
        ts = np.linspace(p / P, (p + 1) / P, n // P)
        sig = sigma(ts)
        area += trapezoid(sig[:, 0] * np.gradient(sig[:, 1], ts), ts)
    return area


def test_builtin_stroke_areas():
    rect = rectangle_stroke(0.3, 0.2, steps=64)
    assert rect.signed_area == pytest.approx(0.06, abs=1e-15)
    assert _numeric_area(rect) == pytest.approx(0.06, abs=1e-5)
    sin = sinusoid_stroke(0.3, 0.2, steps=64)
    assert sin.signed_area == pytest.approx(np.pi * 0.015, abs=1e-15)
    assert _numeric_area(sin) == pytest.approx(sin.signed_area, abs=1e-5)
    assert reversed_stroke(rect).signed_area == -rect.signed_area


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
    "rectangle-smooth": lambda steps: eased_rectangle(0.2, 0.15, steps),
}


@pytest.mark.parametrize("steps", [4, 16, 64])
@pytest.mark.parametrize("kind", sorted(LOOPS))
def test_builtin_loops_close_bitwise(kind, steps):
    stroke = LOOPS[kind](steps)
    assert np.array_equal(stroke.pieces[-1][0](1.0), stroke.pieces[0][0](0.0))
    body, fields = _random_body()
    rec = integrate_stroke(body, Surface(-1.0), fields, stroke, mode="composed")
    assert rec.shape_closure_defect == 0.0


def unwrapped_ellipse(d1, d2, steps):
    """sinusoid_stroke's loop without its phase wrap: sigma(1) - sigma(0) is round-off, not zero."""
    a, b, w = 0.5 * d1, 0.5 * d2, 2.0 * math.pi

    def sigma(t):
        wt = w * np.asarray(t)[..., None]
        return np.concatenate([-a * np.cos(wt), -b * np.sin(wt)], axis=-1)

    def sigma_dot(t):
        wt = w * np.asarray(t)[..., None]
        return np.concatenate([a * w * np.sin(wt), -b * w * np.cos(wt)], axis=-1)

    return Stroke(((sigma, sigma_dot),), steps, math.pi * a * b)


@pytest.mark.parametrize("steps", [6, 14, 24])
def test_composed_closure_reads_the_exact_end_nodes(steps):
    # n dt + dt misses 1.0 at these step counts; the last node is t = 1 exactly
    body, fields = _random_body()
    stroke = unwrapped_ellipse(0.2, 0.15, steps)
    rec = integrate_stroke(body, Surface(-1.0), fields, stroke)
    ends = stroke.pieces[0][0](np.array([0.0, 1.0]))
    assert np.array_equal(integrator._stage_controls(stroke)[0][[0, -1]], ends)
    E, _ = integrator._shape_flow([f.linear_matrix for f in fields], ends, np.zeros_like(ends))
    assert rec.shape_closure_defect == float(np.max(np.abs(E[1] - E[0]))) > 0.0


@pytest.mark.parametrize("steps", [16, 1024])
@pytest.mark.parametrize("kind", ["sinusoid", "rectangle"])
def test_composed_samples_each_piece_in_one_call(kind, steps):
    stroke = LOOPS[kind](steps)
    calls = []

    def counted(f, key):
        def wrapped(t):
            calls.append(key)
            return f(t)
        return wrapped

    pieces = tuple((counted(s, ("sigma", p)), counted(sd, ("sigma_dot", p)))
                   for p, (s, sd) in enumerate(stroke.pieces))
    counted_stroke = Stroke(pieces, stroke.steps, stroke.signed_area)
    calls.clear()                       # the constructor reads the loop's ends
    body, fields = _random_body()
    integrate_stroke(body, Surface(-1.0), fields, counted_stroke)
    assert sorted(calls) == sorted((name, p) for p in range(len(pieces)) for name in ("sigma", "sigma_dot"))


# ------------------------------------------------------ closed-form exponential


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _assert_matches_expm_frechet(C, D, rtol=1e-13):
    E, L = expm2(C, D)
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
    E, _ = expm2(C, np.eye(2))
    c, s = np.cos(theta), np.sin(theta)
    assert _rel(E, np.array([[c, -s], [s, c]])) <= 1e-15
    _assert_matches_expm_frechet(C, np.array([[0.5, 0.1], [-0.2, 0.8]]))


def test_expm2_q_zero():
    D = np.array([[0.5, 0.1], [-0.2, 0.8]])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])        # N^2 = 0
    E, L = expm2(nil, D)
    assert np.array_equal(E, np.eye(2) + nil)
    assert _rel(L, D + 0.5 * (nil @ D + D @ nil) + nil @ D @ nil / 6.0) <= 1e-15
    _assert_matches_expm_frechet(nil, D)
    E, L = expm2(0.7 * np.eye(2), D)                # N = 0
    assert _rel(E, np.exp(0.7) * np.eye(2)) <= 1e-15
    assert _rel(L, np.exp(0.7) * D) <= 1e-15


def test_expm2_inverse_and_batching():
    rng = np.random.default_rng(3)
    C = rng.uniform(-1.0, 1.0, (5, 3, 2, 2))
    D = rng.uniform(-1.0, 1.0, (5, 3, 2, 2))
    E, L = expm2(C, D)
    E_neg, _ = expm2(-C, D)
    assert np.max(np.abs(E @ E_neg - np.eye(2))) <= 1e-14
    for i, j in np.ndindex(5, 3):
        E_ij, L_ij = expm2(C[i, j], D[i, j])
        assert _rel(E[i, j], E_ij) <= 1e-15 and _rel(L[i, j], L_ij) <= 1e-15


def test_cosh_sinc_entries_are_bitwise_their_values_alone():
    # a stack mixing the series (|q| < 1) and the closed forms, and one that
    # takes only the series: each entry equals its value computed alone
    rng = np.random.default_rng(8)
    mixed = np.concatenate([[0.0, -0.0, 1e-300, -0.5, 1.0 - 1e-16, 1.0, -1.0, 2.5, -7.0, 30.0],
                            rng.uniform(-3.0, 3.0, 40)])
    rng.shuffle(mixed)
    for q in (mixed, mixed[np.abs(mixed) < 1.0][:20].reshape(-1, 2)):
        got = cosh_sinc(q)
        for i in np.ndindex(q.shape):
            alone = cosh_sinc(q[i])
            for a, b in zip(got, alone):
                assert a[i].tobytes() == np.asarray(b).tobytes()


_SERIES_COPY = np.array([[1.0 / math.factorial(2 * k + j) * (k + 1.0 if j == 3 else 1.0) for k in range(10)]
                         for j in (0, 1, 3)])


def _expm2_copy(C, D):
    """expm2 as it was first written: closed forms formed for every q, four identities."""
    m = 0.5 * (C[..., 0, 0] + C[..., 1, 1])
    dm = 0.5 * (D[..., 0, 0] + D[..., 1, 1])
    N = C - m[..., None, None] * np.eye(2)
    dN = D - dm[..., None, None] * np.eye(2)
    q = N[..., 0, 0] * N[..., 0, 0] + N[..., 0, 1] * N[..., 1, 0]
    dq = 2.0 * N[..., 0, 0] * dN[..., 0, 0] + N[..., 0, 1] * dN[..., 1, 0] + N[..., 1, 0] * dN[..., 0, 1]
    q = np.real(q)
    series = (q[..., None, None] ** np.arange(10.0) * _SERIES_COPY).sum(axis=-1)
    small = np.abs(q) < 1.0
    qc = np.where(small, 1.0, q)
    r = np.sqrt(np.abs(qc))
    c = np.where(qc > 0.0, np.cosh(r), np.cos(r))
    S = np.where(qc > 0.0, np.sinh(r), np.sin(r)) / r
    dS = (c - S) / (2.0 * qc)
    c, S, dS = (np.where(small, series[..., k], f) for k, f in enumerate((c, S, dS)))
    em = np.exp(m)
    E = (em * c)[..., None, None] * np.eye(2) + (em * S)[..., None, None] * N
    L = (
        (em * (dm * c + 0.5 * S * dq))[..., None, None] * np.eye(2)
        + (em * (dm * S + dS * dq))[..., None, None] * N
        + (em * S)[..., None, None] * dN
    )
    return E, L


@pytest.mark.parametrize("scale", [1e-3, 0.3, 2.0])
def test_expm2_is_bitwise_its_first_formula(scale):
    # scale 1e-3 takes the series everywhere, 0.3 and 2 mix both branches;
    # real shape-flow stacks and complex isometry generators
    rng = np.random.default_rng(5)
    C = scale * rng.uniform(-1.0, 1.0, (64, 2, 2))
    D = rng.uniform(-1.0, 1.0, (64, 2, 2))
    A = rigid_generator(Surface(-0.7), scale * rng.uniform(-1.0, 1.0, (64, 3)))
    for C_, D_ in ((C, D), (A, D), (A, np.zeros((2, 2)))):
        for got, want in zip(expm2(C_, D_), _expm2_copy(C_, D_)):
            assert got.tobytes() == want.tobytes()


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
            assert np.max(np.abs(rec.delta_tau[:2])) < 1e-12


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
    assert composed.delta_tau[2] == pytest.approx(formula_rot, rel=5e-2)
    # the in-place update misses the non-closure of the shape loop, which
    # doubles the apparent turn for this non-commuting control pair
    assert direct.delta_tau[2] / formula_rot == pytest.approx(2.0, rel=0.1)
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
    rev = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], reversed_stroke(stroke), mode="composed")
    assert np.max(np.abs(fwd.delta_tau + rev.delta_tau)) < 1e-12


@pytest.mark.parametrize("mode", ["composed", "direct"])
@pytest.mark.parametrize("R", [1e-13, -1e-13])
def test_both_modes_refuse_a_curvature_lost_to_round_off(mode, R):
    # README's triangle has max r^2 = 0.5: eps / (|R| max r^2) = 4.4e-3 > 1e-3
    with pytest.raises(CurvswimError, match=r"\|R\| max r\^2 = 5e-14 is below 2\.2e-13"):
        integrate_stroke(TRIANGLE, Surface(R), [HEIGHT, BASE], rectangle_stroke(1e-2, 1e-2, steps=8), mode=mode)


@pytest.mark.parametrize("stroke", [rectangle_stroke(0.02, 0.02, steps=16), sinusoid_stroke(0.02, 0.02, steps=16),
                                    rectangle_stroke(0.2, 0.002, steps=16), rectangle_stroke(0.05, 0.03, steps=1024)],
                         ids=["square", "sinusoid", "thin", "long"])
@pytest.mark.parametrize("power", [2, 1], ids=["both_scaled", "second_scaled"])
def test_fields_lost_to_round_off_are_refused(stroke, power):
    # Fields s N1, s N2 (power 2) or N1, s N2 (power 1) move the body by
    # about s^power times a fixed motion, while the group keeps a round-off
    # of the stroke's excursion, of order s^(power - 1).  delta_tau / s^power
    # used to be off by up to 14.6 times itself at s = 1e-14, with no error.
    # Now a stroke that runs is within ROUND_OFF_LIMIT of the same stroke at
    # fields small enough to be linear in s, and the others are refused.
    rng = np.random.default_rng(4)
    body = random_balanced_body(rng, 5, 0.4)
    N = rng.normal(size=(2, 2, 2))

    def run(s, R):
        fields = [linear_field(s ** (power - 1) * N[0]), linear_field(s * N[1])]
        return integrate_stroke(body, Surface(R), fields, stroke).delta_tau / s**power

    refused = []
    for R in (1.0, -1.0):
        ref = run(1e-6 if power == 2 else 1e-4, R)
        for s in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-14):
            try:
                got = run(s, R)
            except CurvswimError as exc:
                assert re.fullmatch(r"max\|delta_tau\| = \S+ is within 20000 times eps sqrt\(steps\) max\|tau\| = \S+ "
                                    r"\(translations over the extent\), the round-off of the excursion", str(exc))
                refused.append(s)
                continue
            assert np.max(np.abs(got - ref)) <= integrator.ROUND_OFF_LIMIT * np.max(np.abs(ref))
    assert 1e-7 not in refused and refused.count(1e-12) == refused.count(1e-14) == 2


def figure_eight(a, steps):
    """Two circles of radius a through the origin, centred at (a, 0) clockwise then (-a, 0)
    counterclockwise, each run in half the stroke time: the signed area is 0."""
    def lobe(side):
        def sigma(t):
            phase = 4.0 * math.pi * np.asarray(t)[..., None]
            return a * np.concatenate([side * (1.0 - np.cos(phase)), np.sin(phase)], axis=-1)

        def sigma_dot(t):
            phase = 4.0 * math.pi * np.asarray(t)[..., None]
            return 4.0 * math.pi * a * np.concatenate([side * np.sin(phase), np.cos(phase)], axis=-1)

        return sigma, sigma_dot

    return Stroke((lobe(1.0), lobe(-1.0)), steps, 0.0)


@pytest.mark.parametrize("R", [1.0, -1.0])
def test_a_figure_eight_moves_the_body_as_its_two_lobes_do(R):
    # The lobes enclose opposite areas, so the leading-order motion cancels,
    # and what is left comes from the curvature of the connection differing
    # between them.  The triangle swims along x, and x-translations of the
    # chart compose as (x1 + x2) / (1 - R x1 x2).  signed_area is the
    # formula route's input: the oracle does not read it.
    eight = figure_eight(0.05, steps=64)
    dx1, dx2 = (integrate_stroke(TRIANGLE, Surface(R), [HEIGHT, BASE], Stroke((lobe,), 32, 0.0)).delta_tau[0]
                for lobe in ((lambda t, s=s: s(0.5 * t), lambda t, sd=sd: 0.5 * sd(0.5 * t)) for s, sd in eight.pieces))
    got = integrate_stroke(TRIANGLE, Surface(R), [HEIGHT, BASE], eight).delta_tau
    assert abs(got[0]) > 0.01 * max(abs(dx1), abs(dx2)) and not got[1:].any()
    assert abs(got[0] - (dx1 + dx2) / (1.0 - R * dx1 * dx2)) <= 1e-9 * abs(got[0])
    other = integrate_stroke(TRIANGLE, Surface(R), [HEIGHT, BASE], Stroke(eight.pieces, 64, 1.0))
    assert np.array_equal(other.delta_tau, got)
    # direct mode moves the shape by another rule, but runs the loop as well
    assert integrate_stroke(TRIANGLE, Surface(R), [HEIGHT, BASE], eight, mode="direct").delta_tau[0] != 0.0


def test_a_stroke_that_returns_the_body_is_refused_unless_nothing_moves():
    # A retraced loop, or one zero field (the shape then runs to and fro
    # along one curve), returns the body to its start: what the group reads
    # is round-off of the excursion, so the stroke is refused.
    zero = linear_field(np.zeros((2, 2)))
    for fields, stroke in (([HEIGHT, BASE], rectangle_stroke(1e-2, 0.0, steps=8)),
                           ([HEIGHT, zero], rectangle_stroke(1e-2, 1e-2, steps=8)),
                           ([zero, BASE], sinusoid_stroke(1e-2, 1e-2, steps=8))):
        with pytest.raises(CurvswimError, match="the round-off of the excursion"):
            integrate_stroke(TRIANGLE, Surface(1.0), fields, stroke)
    # no control or no field moves nothing, exactly, and runs
    for stroke, fields in ((rectangle_stroke(0.0, 0.0, steps=8), [HEIGHT, BASE]),
                           (rectangle_stroke(1e-2, 1e-2, steps=8), [zero, zero])):
        assert not integrate_stroke(TRIANGLE, Surface(1.0), fields, stroke).delta_tau.any()


def _round_off_draw(seed):
    """A body, R, two control matrices and a stroke from one seed: N 3-24, extent 0.05-0.6, |R| log-uniform in
    [1e-3, 2] or R = 0, each matrix N(0, 1) times 10^U(-7, 0.5), a rectangle or sinusoid of sides log-uniform
    in [1e-3, 0.3], 16 to 1,024 steps."""
    rng = np.random.default_rng(seed)
    n, extent = int(rng.integers(3, 25)), rng.uniform(0.05, 0.6)
    R = 0.0 if rng.random() < 0.2 else float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, math.log10(2.0)))
    body = random_balanced_body(rng, n, extent)
    B = [10 ** rng.uniform(-7.0, 0.5) * rng.normal(size=(2, 2)) for _ in range(2)]
    make = rectangle_stroke if rng.random() < 0.5 else sinusoid_stroke
    return body, R, B, make(*10 ** rng.uniform(-3.0, math.log10(0.3), 2), int(2 ** rng.uniform(4.0, 10.0)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the twin needs a long double wider than a double (80-bit on x86-64 Linux)")
def test_the_round_off_refusal_keeps_its_promise_against_the_longdouble_twin():
    # On 200 draws that the refusal's factor 20 was not fitted to, every
    # stroke that runs is within ROUND_OFF_LIMIT of its net motion, by the
    # 80-bit twin of composed mode, and the error stays below 20 times the
    # estimate eps sqrt(steps) max|tau| (translations over the extent) that
    # the refusal reads.  The worst ratio, 0.42, is the one integrate_stroke's
    # docstring states.
    ratios = []
    for seed in range(2000, 2200):
        body, R, B, stroke = _round_off_draw(seed)
        try:
            got = integrate_stroke(body, Surface(R), [linear_field(b) for b in B], stroke).delta_tau
        except CurvswimError:
            continue
        want, speed = oracle_longdouble(body, R, B, stroke)
        unit = np.array([body.extent, body.extent, 1.0])
        error, net = float(np.max(np.abs(got - want) / unit)), float(np.max(np.abs(want) / unit))
        assert error <= integrator.ROUND_OFF_LIMIT * net, seed
        ratios.append(error / (np.finfo(float).eps * math.sqrt(stroke.steps) * float(np.max(speed / unit))))
    assert len(ratios) >= 180 and max(ratios) < 20.0


def test_readme_quick_start_runs(capsys):
    # README's one Python block: the formula's dx and the oracle's agree to 3.9e-6
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    formula, oracle = namespace["formula"].delta_tau[0], namespace["oracle"].delta_tau[0]
    assert abs(oracle - formula) <= 1e-4 * abs(formula)
    assert len(capsys.readouterr().out.splitlines()) == 2


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


def _swim_cases():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        body = random_balanced_body(rng)
        fields = [linear_field(rng.uniform(-1.0, 1.0, (2, 2))) for _ in range(2)]
        for R in (-1.0, 0.0, 1.0):
            yield pytest.param(body, Surface(R), fields, rectangle_stroke(0.03, 0.02, steps=16), id=f"seed{seed}-R{R}")
    yield pytest.param(TRIANGLE, Surface(1.0), [HEIGHT, BASE], rectangle_stroke(1e-2, 1e-2), id="readme-triangle")


@pytest.mark.parametrize("body, surface, fields, stroke", _swim_cases())
def test_swim_is_the_oracle_and_the_formula_on_the_projected_fields(body, surface, fields, stroke):
    oracle, formula = swim(body, surface, fields, stroke)
    rec = integrate_stroke(body, surface, fields, stroke)
    u, v = (project_gauge(body, surface, f) for f in fields)
    hol = holonomy_general(body, surface, u, v, stroke.signed_area)
    assert _hex(oracle.delta_tau) == _hex(rec.delta_tau)
    for name in ("max_momentum_residual", "residual_bound", "shape_closure_defect", "group_drift"):
        assert float(getattr(oracle, name)).hex() == float(getattr(rec, name)).hex(), name
    assert (oracle.steps, oracle.mode) == (rec.steps, rec.mode)
    for name in ("delta_tau", "area", "gram_condition", "gauge_residuals"):
        assert _hex(getattr(formula, name)) == _hex(getattr(hol, name)), name


def test_swim_pairs_each_raw_field_once(monkeypatch):
    # one momentum contraction on the body's frame gives both fields' gauge
    # coefficients and one checks the projected fields; neither route
    # evaluates a raw field at the particles
    from curvswim.body import BodyFrame

    frames = []
    original_momentum = BodyFrame.momentum

    def counted_momentum(frame, coefficients):
        frames.append(frame)
        return original_momentum(frame, coefficients)

    monkeypatch.setattr(BodyFrame, "momentum", counted_momentum)
    unread = [VectorField(f.coefficients, tag=f.tag, func=lambda p: pytest.fail("a raw field was evaluated"))
              for f in (HEIGHT, BASE)]
    swim(TRIANGLE, Surface(1.0), unread, rectangle_stroke(0.1, 0.1, steps=16))
    assert len(frames) == 2 and frames[0] is frames[1]


def test_time_reparametrization_invariance():
    s = Surface(1.0)
    uniform = rectangle_stroke(1e-2, 1e-2, steps=512)
    smooth = eased_rectangle(1e-2, 1e-2, 512)
    r1 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], uniform, mode="composed")
    r2 = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], smooth, mode="composed")
    assert np.max(np.abs(r1.delta_tau - r2.delta_tau)) < 1e-12


def test_rigid_content_of_controls_is_subleading_composed():
    # mixing rigid content into a control perturbs the realized shape loop
    # only at second order in the stroke size, so the measured holonomy is
    # unchanged at leading order and the gap dies faster than the area
    s = Surface(1.0)
    ks = killing_fields(s)
    u_dirty = linear_field(HEIGHT.linear_matrix + 0.3 * ks[2].linear_matrix)    # the rotation xi3 is linear

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


@pytest.mark.parametrize("mode", ["composed", "direct"])
def test_oracle_refuses_a_single_particle_as_the_formula_does(mode):
    # both routes solve the Gram system through body.solve_gram: one rule, one error
    b = Body.from_particles([[1.0, 0.0, 0.0]])
    s = Surface(0.0)
    with pytest.raises(SingularGramError) as oracle:
        integrate_stroke(b, s, [HEIGHT, BASE], rectangle_stroke(0.1, 0.1, steps=8), mode=mode)
    with pytest.raises(SingularGramError) as formula:
        project_gauge(b, s, HEIGHT)
    assert oracle.value.rank == formula.value.rank == 2


def test_flat_convergence_study_zeros():
    s = Surface(0.0)
    rng = np.random.default_rng(19)
    body = Body(masses=rng.uniform(0.5, 2, 4), positions=rng.uniform(-0.3, 0.3, (4, 2)))
    body = principal_axes(balance(body, s))
    u = gauge_fixed_linear_deformation(body, 1, 1)
    v = gauge_fixed_linear_deformation(body, 2, 2)
    stroke = rectangle_stroke(1e-2, 1e-2, steps=64)
    dx_i = integrate_stroke(body, s, [u, v], stroke).delta_tau[0]
    hol = holonomy_general(body, s, u, v, stroke.signed_area)
    # balance leaves first moments of 1e-12 max(1, extent), so the Gram
    # matrix couples translation to the rotation at that level
    assert abs(hol.delta_tau[0]) <= 1e-12 * max(1.0, body.extent) * abs(hol.rotation)
    assert abs(dx_i) < 1e-14
    # the flat triangle is mirror-symmetric: both routes give exactly zero
    dx_i = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke).delta_tau[0]
    u, v = (project_gauge(TRIANGLE, s, f) for f in (HEIGHT, BASE))
    dx_f = holonomy_general(TRIANGLE, s, u, v, stroke.signed_area).delta_tau[0]
    assert oracle_ratio(dx_i, dx_f) == 0.0


# ------------------------------------------- body-frame reconstruction


def mobius_derivative(g, z):
    """The complex derivative of the isometry g at the chart points z: it rotates and scales tangents."""
    den = -g.R * np.conj(g.beta) * z + np.conj(g.alpha)
    return (abs(g.alpha) ** 2 + g.R * abs(g.beta) ** 2) / den**2


def reference_composed(body, surface, fields, stroke):
    """Composed mode evaluated stage by stage in the space frame.

    Every RK4 stage maps the shape into the space frame through the current
    group element and solves the 3x3 momentum system there; the integrator
    instead runs RK4 on dG/dt = G A(shape) in the body frame.  The residual
    bound is 1e-12 times the largest sqrt(G_aa vv) over all stages, from the
    pairings of the body-frame shape velocity at the body-frame shape.
    Returns (delta_tau, residual_bound, shape_closure_defect).
    """
    X0 = surface.require_inside(body.positions)
    steps = stroke.steps
    dt = 1.0 / steps
    G = np.eye(2, dtype=complex)
    max_scale = 0.0
    B = [np.asarray(f.linear_matrix, dtype=float) for f in fields]

    def deriv(t, Gm, sig, sigd):
        nonlocal max_scale
        s = sig(t)
        sd = sigd(t)
        C = s[0] * B[0] + s[1] * B[1]
        Cd = sd[0] * B[0] + sd[1] * B[1]
        E, Ed = expm_frechet(C, Cd)
        Y = X0 @ E.T
        Vy = X0 @ Ed.T
        gram, _, vv = particle_pairings(body.masses, surface, Y, Vy[None])
        max_scale = max(max_scale, float(np.max(np.sqrt(np.diag(gram) * vv[0]))))
        g = Isometry(complex(Gm[0, 0]), complex(Gm[0, 1]), surface.R)
        yz = complex_view(Y)
        X = g(Y)
        v_def = (mobius_derivative(g, yz) * complex_view(Vy)).view(float)
        A, mom, _ = particle_pairings(body.masses, surface, X, v_def[None])
        tau_dot = np.linalg.solve(A, -mom[0])
        return rigid_generator(surface, tau_dot) @ Gm

    for n in range(steps):
        t = n * dt
        sig, sigd = stroke.pieces[n * len(stroke.pieces) // steps]
        k1 = deriv(t, G, sig, sigd)
        k2 = deriv(t + 0.5 * dt, G + 0.5 * dt * k1, sig, sigd)
        k3 = deriv(t + 0.5 * dt, G + 0.5 * dt * k2, sig, sigd)
        k4 = deriv(t + dt, G + dt * k3, sig, sigd)
        G = G + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    s0, s1 = stroke.pieces[0][0](0.0), stroke.pieces[-1][0](1.0)
    E0 = expm_frechet(s0[0] * B[0] + s0[1] * B[1], B[0])[0]
    E1 = expm_frechet(s1[0] * B[0] + s1[1] * B[1], B[0])[0]
    closure = float(np.max(np.abs(E1 - E0)))
    delta_tau, _ = _extract_delta_tau(G, surface.R, steps)
    bound = 1e-12 * max(max_scale, 1e-300)
    return delta_tau, bound, closure


def _random_body(seed=11, n=7, radius=0.3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    body = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
    return body, [linear_field(rng.uniform(-1, 1, (2, 2))) for _ in range(2)]


REFERENCE_STROKES = {
    "rectangle": lambda steps: rectangle_stroke(0.2, 0.15, steps=steps),
    "rectangle-smooth": lambda steps: eased_rectangle(0.2, 0.15, steps),
    "sinusoid": lambda steps: sinusoid_stroke(0.2, 0.15, steps=steps),
    "reversed-rectangle": lambda steps: reversed_stroke(rectangle_stroke(0.2, 0.15, steps=steps)),
    "reversed-sinusoid": lambda steps: reversed_stroke(sinusoid_stroke(0.2, 0.15, steps=steps)),
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


def reference_direct(body, surface, fields, stroke):
    """Direct mode as RK4 on particles and group together, stage by stage.

    Every stage moves the particles with X L^T plus the complex rigid
    velocity and the group with A_space G, both from that stage's momentum
    solve at the current points; the pairing scale is read at each step's
    first stage.  Returns (delta_tau, residual_bound, group_drift,
    shape_closure_defect) as integrate_stroke forms them.
    """
    B = [np.asarray(f.linear_matrix, dtype=float) for f in fields]
    dt = 1.0 / stroke.steps
    _, sigd, stages = integrator._stage_controls(stroke)
    max_scale = 0.0

    def deriv(X, Gm, sd):
        L = sd[0] * B[0] + sd[1] * B[1]
        gram, mom, vv = linear_momentum_map(body, surface, X, L[None])
        tau_dot, _ = solve_gram(gram, -mom[0])
        xdot = (complex_view(X @ L.T) + rigid_velocity(surface, tau_dot, complex_view(X))).view(float)
        return xdot, rigid_generator(surface, tau_dot) @ Gm, float(np.max(pairing_scale(gram, vv)))

    X = body.positions.copy()
    G = np.eye(2, dtype=complex)
    for n in range(stroke.steps):
        sd1, sd2, sd3 = sigd[stages[n]]
        kx1, kg1, scale = deriv(X, G, sd1)
        max_scale = max(max_scale, scale)
        kx2, kg2, _ = deriv(X + 0.5 * dt * kx1, G + 0.5 * dt * kg1, sd2)
        kx3, kg3, _ = deriv(X + 0.5 * dt * kx2, G + 0.5 * dt * kg2, sd2)
        kx4, kg4, _ = deriv(X + dt * kx3, G + dt * kg3, sd3)
        X = X + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
        G = G + (dt / 6.0) * (kg1 + 2.0 * kg2 + 2.0 * kg3 + kg4)
    drift = abs(complex(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]) - 1.0)
    delta_tau, g = _extract_delta_tau(G, surface.R, stroke.steps)
    return delta_tau, 1e-12 * max_scale, drift, float(np.max(np.abs(X - g(body.positions))))


@pytest.mark.parametrize("steps", [4, 16, 64])
@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("kind", ["rectangle", "sinusoid"])
def test_direct_matches_stage_by_stage_reference(kind, R, steps):
    body, fields = _random_body()
    s = Surface(R)
    stroke = REFERENCE_STROKES[kind](steps)
    dtau, bound, drift, closure = reference_direct(body, s, fields, stroke)
    rec = integrate_stroke(body, s, fields, stroke, mode="direct")
    assert np.max(np.abs(rec.delta_tau - dtau)) <= 1e-12 * np.max(np.abs(dtau))
    assert rec.residual_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
    assert rec.max_momentum_residual <= rec.residual_bound
    assert rec.group_drift == pytest.approx(drift, rel=1e-9, abs=1e-15)
    assert rec.shape_closure_defect == pytest.approx(closure, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("R", [-1.0, 1.0])
def test_direct_mode_keeps_mirror_zeros(R):
    # the README triangle is mirror-symmetric and its controls diagonal, so
    # the y-translation and rotation vanish exactly, stage by stage and in
    # the row combinations alike
    s = Surface(R)
    stroke = rectangle_stroke(0.1, 0.1, steps=64)
    dtau, *_ = reference_direct(TRIANGLE, s, [HEIGHT, BASE], stroke)
    rec = integrate_stroke(TRIANGLE, s, [HEIGHT, BASE], stroke, mode="direct")
    assert dtau[0] != 0.0 and dtau[1] == 0.0 and dtau[2] == 0.0
    assert rec.delta_tau[1] == 0.0 and rec.delta_tau[2] == 0.0
    assert rec.delta_tau[0] == pytest.approx(dtau[0], rel=1e-12, abs=0.0)


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
    expected = np.append(Q @ a.delta_tau[:2], a.delta_tau[2])
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

    def counting(body, surface, x, L, **kwargs):
        evaluated.append(math.prod(np.shape(x)[:-2]))
        return linear_momentum_map(body, surface, x, L, **kwargs)

    monkeypatch.setattr(integrator, "linear_momentum_map", counting)
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
    frame = killing_frame(Surface(R), x)
    expected = v + np.einsum("ba,abnj->bnj", tau, frame)
    got = complex_view(v) + rigid_velocity(Surface(R), tau, complex_view(x))
    assert got.shape == (3, 50, 1)
    assert np.max(np.abs(got.view(float) - expected)) <= 4e-16 * np.max(np.abs(expected))
    one = complex_view(v[1]) + rigid_velocity(Surface(R), tau[1], complex_view(x[1]))
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


def test_unknown_mode_and_short_stroke_are_refused():
    stroke = rectangle_stroke(0.1, 0.1, steps=16)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        integrate_stroke(TRIANGLE, Surface(1.0), [HEIGHT, BASE], stroke, mode="bogus")
    with pytest.raises(StrokeError, match="a stroke needs at least 4 time steps"):
        Stroke(stroke.pieces, steps=3, signed_area=stroke.signed_area)


@pytest.mark.parametrize("mode", ["composed", "direct"])
def test_both_modes_name_a_field_without_a_linear_matrix(mode):
    # both modes pair the shape velocity L y from the moments, so every
    # field needs its matrix; neither mode is the other's fallback
    square = VectorField([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]], tag="square")
    with pytest.raises(ValueError, match="field 'square' has no linear_matrix") as err:
        integrate_stroke(TRIANGLE, Surface(1.0), [HEIGHT, square], rectangle_stroke(0.1, 0.1, steps=16), mode=mode)
    assert "direct" not in str(err.value)


@pytest.mark.parametrize("R", [1.0, -1.0, 0.0])
def test_an_overflowing_increment_is_refused(R):
    # a deformation rotating at 1e100 per unit control: the rigid velocity
    # that cancels it overflows the group product, whose delta_tau reads NaN
    body = random_balanced_body(np.random.default_rng(4))
    fields = [linear_field([[0.0, 1e100], [-1e100, 0.0]]), linear_field([[1.0, 0.0], [0.0, -1.0]])]
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResultError, match="integrated rigid increment is not finite"):
        integrate_stroke(body, Surface(R), fields, sinusoid_stroke(0.01, 0.01, steps=8))


@pytest.mark.parametrize("steps, det", [(4, "-14.2"), (8, "-2.63")])
def test_a_group_element_off_the_group_is_refused(steps, det):
    # RK4's G on this two-particle stroke has |alpha|^2 + R |beta|^2 <= 0 at 4
    # and 8 steps, which no isometry has; Isometry.normalized used to raise a
    # bare ValueError from inside integrate_stroke.  16 steps run.
    body = Body.from_particles([[0.9, 0.17, 0.06], [2.0, -0.14, 0.09]])
    fields = [linear_field([[-1.7, -0.3], [-2.8, -3.2]]), linear_field([[-3.0, 3.3], [4.8, -4.9]])]
    with pytest.raises(CurvswimError, match=rf"\|alpha\|\^2 \+ R \|beta\|\^2 = {det} after {steps} steps"):
        integrate_stroke(body, Surface(-1.0), fields, rectangle_stroke(0.43, 0.4, steps=steps))
    assert integrate_stroke(body, Surface(-1.0), fields, rectangle_stroke(0.43, 0.4, steps=16)).group_drift > 0.8


def test_composed_needs_linear_fields():
    from curvswim.fields import VectorField

    nonlinear = VectorField([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="field 'custom' has no linear_matrix"):
        integrate_stroke(
            TRIANGLE, Surface(1.0), [nonlinear, HEIGHT], rectangle_stroke(0.1, 0.1, steps=16)
        )
