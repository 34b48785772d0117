"""Body.frame: the formula route's Killing frame, formed once per body and curvature."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from numpy.random import default_rng

import curvswim.body as body_mod
import curvswim.integrator as integrator
from curvswim.body import Body, linear_momentum_map
from curvswim.checks import random_balanced_body
from curvswim.deformation import gauge_residuals, project_gauge
from curvswim.errors import NonFiniteResultError, SingularGramError
from curvswim.fields import VectorField, linear_field
from curvswim.geometry import Surface, killing_two_forms
from curvswim.holonomy import holonomy_general
from curvswim.integrator import integrate_stroke, sinusoid_stroke
from curvswim.scenarios import baron_cat_report


def _counting(monkeypatch, *names):
    """Wrap each named function of curvswim.body with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(body_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(body_mod, name, counted)
    return calls


def _fields(rng):
    return [linear_field(rng.normal(size=(2, 2))) for _ in range(2)]


def test_formula_route_forms_one_frame(monkeypatch):
    rng = default_rng(11)
    body = random_balanced_body(rng, 7, 0.2)
    s = Surface(-1.0)
    calls = _counting(monkeypatch, "solve_gram", "_position_rows", "_moment_tables")
    u, v = (project_gauge(body, s, f) for f in _fields(rng))
    gauge_residuals(body, s, u)
    res = holonomy_general(body, s, u, v, 1e-3)
    assert calls == {"solve_gram": 1, "_position_rows": 1, "_moment_tables": 1}
    assert res.gram_condition == body.frame(s).eigvals[-1] / body.frame(s).eigvals[0]


def test_baron_cat_report_forms_one_frame_for_its_pairs(monkeypatch):
    calls = _counting(monkeypatch, "solve_gram", "_position_rows", "_moment_tables")
    report = baron_cat_report(random_balanced_body(default_rng(12), 6))
    assert len(report.rotations) == 3
    assert calls == {"solve_gram": 1, "_position_rows": 1, "_moment_tables": 1}


def test_a_second_curvature_forms_a_second_frame(monkeypatch):
    body = random_balanced_body(default_rng(13))
    calls = _counting(monkeypatch, "_position_rows")
    frames = [body.frame(Surface(R)) for R in (1.0, -1.0, 1.0, 0.0, -0.0)]
    for frame in frames:
        frame.gram
    assert frames[0] is frames[2]
    assert len({id(frame) for frame in frames}) == 4    # -0.0 keeps its own signed zeros
    assert calls["_position_rows"] == 4
    gram = linear_momentum_map(body, Surface(1.0), body.positions, np.empty((0, 2, 2)))[0]
    assert np.array_equal(frames[0].gram, gram)


@pytest.mark.parametrize("mode", ["composed", "direct"])
def test_integrator_modes_solve_at_their_own_points(monkeypatch, mode):
    # the oracle's points move with the shape, so it never reads a frame
    rng = default_rng(14)
    body = random_balanced_body(rng, 7, 0.2)
    stroke = sinusoid_stroke(0.1, 0.08, steps=8)
    nodes = len(integrator._stage_controls(stroke)[0])
    monkeypatch.setattr(integrator, "_BLOCK_PARTICLE_NODES", 2 * body.n)
    monkeypatch.setattr(Body, "frame", lambda *args: pytest.fail("the oracle read a frame"))
    solves = []
    original = integrator.solve_gram
    monkeypatch.setattr(integrator, "solve_gram", lambda g, r: solves.append(len(np.shape(r))) or original(g, r))
    integrate_stroke(body, Surface(-1.0), _fields(rng), stroke, mode=mode)
    if mode == "composed":
        assert solves == [2] * (-(-nodes // 2))      # one stacked solve per block of two nodes
    else:
        assert solves == [1] * (4 * stroke.steps)     # one solve per RK4 stage


def test_a_frame_dies_with_its_body():
    rng = default_rng(15)
    s = Surface(1.0)
    fields = _fields(rng)
    gc.disable()
    try:
        body = random_balanced_body(rng, 7, 0.2)
        u, v = (project_gauge(body, s, f) for f in fields)
        holonomy_general(body, s, u, v, 1e-3)
        body_ref, frame_ref = weakref.ref(body), weakref.ref(body.frame(s))
        del body
        assert body_ref() is None and frame_ref() is None
    finally:
        gc.enable()


def test_frame_arrays_are_read_only():
    body = random_balanced_body(default_rng(16))
    s = Surface(-1.0)
    frame = body.frame(s)
    for a in (frame.gram, frame.P, frame.Q, frame.killing, frame.inverse, frame.eigvals):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # the frame keeps nothing per particle
    assert [a.shape for a in (frame.gram, frame.P, frame.Q, frame.killing)] == [(3, 3), (6, 6), (3, 6, 6), (3, 2, 6)]


@pytest.mark.parametrize("R", [-1.0, 0.0, 0.5])
def test_frame_two_forms_reuse_the_frame_chart(R, monkeypatch):
    # P and Q are the particle sums of w m_j m_k and m c_beta m_j m_k, c_beta
    # the two-forms at the positions, from the one chart pass of the frame
    body = random_balanced_body(default_rng(18))
    s = Surface(R)
    x, y = body.positions.T
    m = np.stack([np.ones(body.n), x, y, x * x, x * y, y * y])
    w = body.masses / (1.0 + R * (x * x + y * y)) ** 2
    c = body.masses * killing_two_forms(s, body.positions)
    P = np.einsum("n,jn,kn->jk", w, m, m)
    Q = np.einsum("bn,jn,kn->bjk", c, m, m)
    charts, original = [], Surface.chart
    monkeypatch.setattr(Surface, "chart", lambda *args, **kwargs: charts.append(1) or original(*args, **kwargs))
    frame = body.frame(s)
    assert np.max(np.abs(frame.P - P)) <= 1e-15 * np.max(np.abs(P))
    assert np.max(np.abs(frame.Q - Q)) <= 1e-15 * np.max(np.abs(Q))
    assert np.array_equal(frame.P, frame.P.T) and np.array_equal(frame.Q, np.swapaxes(frame.Q, 1, 2))
    assert len(charts) == 1


def test_projection_refuses_non_finite_coefficients():
    # the Gram matrix is finite and regular; the momenta of the field are not
    body = random_balanced_body(default_rng(17))
    infinite = VectorField(np.full((2, 6), np.inf))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResultError, match="coefficients"):
        project_gauge(body, Surface(1.0), infinite)


@pytest.mark.parametrize("seed", range(4))
def test_cached_inverse_keeps_the_gauge_to_round_off(seed):
    # The Gram condition number runs from 8.9e2 (L = 0.1) to 9.9e11 (L = 3e-6);
    # past 1e12 solve_gram refuses the body, as it did before the inverse was cached.
    s = Surface(-1.0)
    rng = default_rng(seed)
    body0 = random_balanced_body(rng, 7)
    fields = _fields(rng)
    for L in (1e-1, 1e-2, 1e-3, 1e-4, 3e-5, 1e-5, 5e-6, 3e-6):
        body = body0.scaled(L)
        G = body.frame(s).gram
        eigvals = np.linalg.eigvalsh(G)
        cond = eigvals[-1] / eigvals[0]
        if cond >= 1e12:
            with pytest.raises(SingularGramError):
                project_gauge(body, s, fields[0])
            continue
        for f in fields:
            pf = project_gauge(body, s, f)
            assert np.max(gauge_residuals(body, s, pf)) <= 1e-15
            mom = body.frame(s).momentum(f.coefficients[None])[0]
            coeffs = mom @ body.frame(s).inverse
            want = np.linalg.solve(G, mom)
            assert np.max(np.abs(coeffs - want)) <= cond * 1e-15 * np.max(np.abs(want))
