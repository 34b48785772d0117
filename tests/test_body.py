import importlib.util
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import curvswim.body as body_mod
import curvswim.holonomy as holonomy_mod
from curvswim.body import (
    BALANCE_MAX_ITER,
    BALANCE_TOLERANCE,
    CURVATURE_EXTENT_WARN,
    Body,
    balance,
    linear_momentum_map,
    momentum_map,
    momentum_work,
    moments,
    pairing_scale,
    particle_sums,
    principal_axes,
    solve_gram,
)
from curvswim.errors import ChartDomainError, NonFiniteResultError, SingularGramError
from curvswim.fields import linear_field
from curvswim.geometry import (
    CurvatureTensor,
    Surface,
    geodesic_distance,
    killing_fields,
    rotation_about_origin,
    translation_to,
)
from curvswim.scenarios import TriangleSpec, triangle_body
from references import killing_frame


def test_body_validation():
    with pytest.raises(ValueError):
        Body(masses=np.array([1.0, -1.0]), positions=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Body(masses=np.array([]), positions=np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_body_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Body(masses=np.array([1.0, bad]), positions=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        Body(masses=np.ones(2), positions=np.array([[0.0, 0.1], [bad, 0.0]]))


def test_bodies_compare_and_hash_by_identity():
    a = Body(masses=np.ones(2), positions=np.zeros((2, 2)))
    b = Body(masses=np.ones(2), positions=np.zeros((2, 2)))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_from_particles():
    b = Body.from_particles([[1.0, 0.0, 0.0], [2.0, 0.5, -0.5]])
    assert b.total_mass == 3.0
    assert b.n == 2


# ----------------------------------------------------- momentum-map kernel


def _per_particle_reference(body, s, velocities):
    """Gram matrix, momenta and velocity norms by an explicit particle loop."""
    ks = killing_fields(s)
    G = np.zeros((3, 3))
    mom = np.zeros((len(velocities), 3))
    vv = np.zeros(len(velocities))
    for n, (m, x) in enumerate(zip(body.masses, body.positions)):
        w = m / (1.0 + s.R * (x[0] ** 2 + x[1] ** 2)) ** 2
        xi = [k(x) for k in ks]
        for a in range(3):
            for c in range(3):
                G[a, c] += w * (xi[a][0] * xi[c][0] + xi[a][1] * xi[c][1])
            for k, V in enumerate(velocities):
                mom[k, a] += w * (xi[a][0] * V[n][0] + xi[a][1] * V[n][1])
        for k, V in enumerate(velocities):
            vv[k] += w * (V[n][0] ** 2 + V[n][1] ** 2)
    return G, mom, vv


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_momentum_map_matches_particle_loop(R, seed):
    rng = np.random.default_rng(seed)
    n = 17
    b = Body(masses=rng.uniform(0.5, 1.5, n), positions=rng.uniform(-0.5, 0.5, (n, 2)))
    s = Surface(R)
    V = rng.normal(size=(2, n, 2))
    G, mom, vv = momentum_map(b, s, V)
    G_ref, mom_ref, vv_ref = _per_particle_reference(b, s, V)
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(G - G_ref)) <= 1e-14 * np.max(np.abs(G_ref))
    assert np.max(np.abs(mom - mom_ref)) <= 1e-14 * np.max(np.abs(mom_ref))
    assert np.max(np.abs(vv - vv_ref)) <= 1e-14 * np.max(np.abs(vv_ref))
    frame = killing_frame(s, b.positions)
    assert np.array_equal(frame, np.stack([xi(b.positions) for xi in killing_fields(s)]))


def _mirror_body():
    # Eight particles above the axis, their mirror images in the same order,
    # then one particle on the axis.  A BLAS dot product over the particles
    # does not cancel the mirror images exactly in this order; np.sum does.
    rng = np.random.default_rng(11)
    upper = rng.uniform(0.05, 0.4, size=(8, 2))
    m = rng.uniform(0.5, 1.5, 8)
    return Body(
        masses=np.concatenate([m, m, [2.0]]),
        positions=np.vstack([upper, upper * [1.0, -1.0], [[0.3, 0.0]]]),
    )


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_momentum_map_mirror_body_exact_zeros(R):
    b = _mirror_body()
    s = Surface(R)
    diagonal = ([[1.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.0, -2.0]])
    even = np.stack([linear_field(B)(b.positions) for B in diagonal])
    G, mom, _ = momentum_map(b, s, even)
    # xi_1 is even under y -> -y, xi_2 and xi_3 are odd.
    assert G[0, 1] == G[1, 0] == G[0, 2] == G[2, 0] == 0.0
    assert np.all(mom[:, 1:] == 0.0)
    assert np.all(np.abs(mom[:, 0]) > 0.0) and G[1, 2] != 0.0


def _stage_batch(rng, n, batch, k=1, extent=0.4):
    """A body and, per batch index, other points and k velocity arrays for it."""
    b = Body(masses=rng.uniform(0.5, 1.5, n), positions=rng.uniform(-extent, extent, (n, 2)))
    x = rng.uniform(-extent, extent, batch + (n, 2))
    return b, x, rng.normal(size=batch + (k, n, 2))


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_momentum_map_batched_equals_unbatched(R):
    b, x, V = _stage_batch(np.random.default_rng(3), 23, (2, 3), k=2)
    s = Surface(R)
    G, mom, vv = momentum_map(b, s, V, x)
    frame = killing_frame(s, x)
    assert G.shape == (2, 3, 3, 3) and mom.shape == (2, 3, 2, 3)
    assert vv.shape == (2, 3, 2) and frame.shape == (3, 2, 3, 23, 2)
    for i in range(2):
        for j in range(3):
            one = momentum_map(b, s, V[i, j], x[i, j])
            for batched, single in zip((G, mom, vv), one):
                assert np.array_equal(batched[i, j], single)
            assert np.array_equal(frame[:, i, j], killing_frame(s, x[i, j]))


def _exact_pairings(b, R, velocities):
    """gram, mom and vv of the particle loop, summed exactly in rationals."""
    R = Fraction(R)
    gram = [[Fraction(0)] * 3 for _ in range(3)]
    mom = [[Fraction(0)] * 3 for _ in velocities]
    vv = [Fraction(0)] * len(velocities)
    for n, (m, (x, y)) in enumerate(zip(b.masses.tolist(), b.positions.tolist())):
        m, x, y = Fraction(m), Fraction(x), Fraction(y)
        w = m / (1 + R * (x * x + y * y)) ** 2
        d = x * x - y * y
        xi = ((1 + R * d, 2 * R * x * y), (2 * R * x * y, 1 - R * d), (-y, x))
        for a in range(3):
            for c in range(3):
                gram[a][c] += w * (xi[a][0] * xi[c][0] + xi[a][1] * xi[c][1])
        for k, V in enumerate(velocities):
            vx, vy = (Fraction(v) for v in V[n].tolist())
            for a in range(3):
                mom[k][a] += w * (xi[a][0] * vx + xi[a][1] * vy)
            vv[k] += w * (vx * vx + vy * vy)
    return gram, mom, vv


def _rel_to_largest(got, exact):
    """Largest |got - exact| over an array, relative to its largest exact entry."""
    got, exact = np.ravel(got).tolist(), np.ravel(np.array(exact, dtype=object)).tolist()
    return float(max(abs(Fraction(g) - e) for g, e in zip(got, exact)) / max(abs(e) for e in exact))


@pytest.mark.parametrize("R, r2_range", [(-1.0, (0.9, 0.98)), (1.0, (0.0, 3.0))])
def test_momentum_map_against_exact_sums(R, r2_range):
    # Near the hyperbolic chart boundary the weights grow to 2500 m; on the
    # sphere far out they shrink to m/16 while the fields grow to 4.  The
    # moment sums stay at round-off of the largest entry of each array.
    rng = np.random.default_rng(9)
    n = 24
    r = np.sqrt(rng.uniform(*r2_range, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    b = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
    V = rng.normal(size=(2, n, 2))
    G, mom, vv = momentum_map(b, Surface(R), V)
    G_exact, mom_exact, vv_exact = _exact_pairings(b, R, V)
    assert _rel_to_largest(G, G_exact) <= 1e-14
    assert _rel_to_largest(mom, mom_exact) <= 1e-14
    assert _rel_to_largest(vv, vv_exact) <= 1e-14


def test_momentum_map_matches_particle_loop_at_4000_particles():
    # The size of one composed-mode block at N = 4000: three RK4 stages.
    b, x, V = _stage_batch(np.random.default_rng(5), 4000, (1, 3))
    s = Surface(-1.0)
    G, mom, vv = momentum_map(b, s, V, x)
    assert np.array_equal(G, np.swapaxes(G, -1, -2))
    for j in range(3):
        stage = Body(masses=b.masses, positions=x[0, j])
        G_ref, mom_ref, vv_ref = _per_particle_reference(stage, s, V[0, j])
        assert np.max(np.abs(G[0, j] - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))
        assert np.max(np.abs(mom[0, j] - mom_ref)) <= 1e-13 * np.max(np.abs(mom_ref))
        assert np.max(np.abs(vv[0, j] - vv_ref)) <= 1e-13 * np.max(np.abs(vv_ref))


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_momentum_map_mirror_zeros_batched(R):
    b = _mirror_body()
    s = Surface(R)
    # Scaled copies of a y-mirror body are y-mirror bodies.
    x = np.array([0.5, 1.0, 1.5, 0.75, 1.25, 2.0]).reshape(2, 3, 1, 1) * b.positions
    diagonal = np.array([[1.0, 0.0], [0.0, -2.0]])
    V = (x @ diagonal.T)[:, :, None]
    G, mom, _ = momentum_map(b, s, V, x)
    assert np.all(G[..., 0, 1] == 0.0) and np.all(G[..., 1, 0] == 0.0)
    assert np.all(G[..., 0, 2] == 0.0) and np.all(G[..., 2, 0] == 0.0)
    assert np.all(mom[..., 1:] == 0.0)
    assert np.all(np.abs(mom[..., 0]) > 0.0) and np.all(G[..., 1, 2] != 0.0)


def test_momentum_map_batched_point_outside_chart_raises():
    b, x, V = _stage_batch(np.random.default_rng(8), 9, (2, 3))
    x[1, 2, 5] = [0.9, 0.9]
    with pytest.raises(ChartDomainError, match=r"outside the chart domain \|z\|\^2 < 1 for R=-1"):
        momentum_map(b, Surface(-1.0), V, x)


def test_momentum_map_memory_stays_within_a_few_stage_arrays():
    # One composed-mode block at N = 4000 (three stages): the outputs and
    # temporaries of (..., k, N) size, no (3 + k) * N temporaries.
    b, x, V = _stage_batch(np.random.default_rng(2), 4000, (1, 3))
    s = Surface(-1.0)
    momentum_map(b, s, V, x)
    tracemalloc.start()
    try:
        momentum_map(b, s, V, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_momentum_map_workspace_is_the_same_kernel(R, batch, k):
    # the workspace belongs to linear_momentum_map, the oracle's kernel
    rng = np.random.default_rng(6)
    s = Surface(R)
    for n in (1, 7, 300):
        b, x, _ = _stage_batch(rng, n, batch, k=k)
        L = rng.normal(size=batch + (k, 2, 2))
        fresh = linear_momentum_map(b, s, x, L)
        # a longer workspace serves from its start
        W = momentum_work(batch + (n + 1,))
        first = linear_momentum_map(b, s, x, L, work=W)
        for got, expected in zip(first, fresh):
            assert np.array_equal(got, expected)
        # no returned array aliases the workspace: a second call into it
        # leaves the first call's pairings alone
        assert not any(np.shares_memory(a, W) for a in first)
        kept = [a.copy() for a in first]
        again = linear_momentum_map(b, s, 0.5 * x, 0.5 * L, work=W)
        for got, expected in zip(first, kept):
            assert np.array_equal(got, expected)
        for got, expected in zip(linear_momentum_map(b, s, x, L, work=W), fresh):
            assert np.array_equal(got, expected)
        assert not np.array_equal(again[0], fresh[0])


# ------------------------------------------------- linear velocities: moments


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("R", [-1.0, 0.0, 0.5, 1.0])
def test_linear_momentum_map_matches_the_velocity_rows(R, batch, k):
    # v = L y paired from the weighted moments against the per-particle
    # velocity rows of momentum_map.  Over 40 seeds of this draw (N = 1 to
    # 39, points in [-0.6, 0.6]^2) the momenta differed by at most 7.8e-16
    # of their pairing scale and vv by 7.2e-15 of itself; gram is the same
    # position half, bitwise.
    rng = np.random.default_rng(21)
    s = Surface(R)
    for n in (1, 5, 39):
        b, x, _ = _stage_batch(rng, n, batch, k=k, extent=0.6)
        L = rng.normal(size=batch + (k, 2, 2))
        V = x[..., None, :, :] @ np.swapaxes(L, -1, -2)
        gram, mom, vv = momentum_map(b, s, V, x)
        got = linear_momentum_map(b, s, x, L)
        assert [a.shape for a in got] == [gram.shape, mom.shape, vv.shape]
        last = (-1,) * len(batch)       # a configuration paired alone: bitwise its batched result
        for batched, single in zip(got, linear_momentum_map(b, s, x[last], L[last])):
            assert np.array_equal(batched[last], single)
        assert np.array_equal(got[0], gram)
        assert np.all(np.abs(got[1] - mom) <= 4e-15 * pairing_scale(gram, vv))
        assert np.all(np.abs(got[2] - vv) <= 4e-14 * vv)


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_linear_momentum_map_mirror_zeros(R):
    b = _mirror_body()
    s = Surface(R)
    x = np.array([1.0, 0.5, 1.5]).reshape(3, 1, 1) * b.positions
    L = np.array([[[1.0, 0.0], [0.0, -2.0]], [[0.3, 0.0], [0.0, 0.0]]])
    gram, mom, vv = linear_momentum_map(b, s, x, np.broadcast_to(L, (3, 2, 2, 2)))
    assert np.all(gram[..., 0, 1] == 0.0) and np.all(gram[..., 0, 2] == 0.0)
    assert np.all(mom[..., 1:] == 0.0)
    assert np.all(np.abs(mom[..., 0]) > 0.0) and np.all(vv > 0.0)


def test_linear_momentum_map_point_outside_chart_raises():
    b, x, _ = _stage_batch(np.random.default_rng(8), 9, (2, 3))
    x[1, 2, 5] = [0.9, 0.9]
    with pytest.raises(ChartDomainError, match=r"outside the chart domain \|z\|\^2 < 1 for R=-1"):
        linear_momentum_map(b, Surface(-1.0), x, np.ones((2, 3, 1, 2, 2)))


@pytest.mark.parametrize("point, shown", [([np.nan, 0.1], r"nan, 0\.1"), ([0.6, 0.8], r"0\.6, 0\.8")])
def test_chart_check_names_a_nan_or_boundary_point(point, shown):
    # the check is one maximum over |z|^2: a NaN maximum fails it, and a
    # point on the boundary |z|^2 = 1/|R| lies outside the margin
    b, x, _ = _stage_batch(np.random.default_rng(9), 9, ())
    x[4] = point
    s = Surface(-1.0)
    with pytest.raises(ChartDomainError, match=rf"outside the chart domain .*\[\[{shown}\]\]"):
        s.require_inside(x)
    with pytest.raises(ChartDomainError, match=rf"outside the chart domain .*\[\[{shown}\]\]"):
        linear_momentum_map(b, s, x, np.ones((1, 2, 2)))


@pytest.mark.parametrize("seed", range(8))
def test_linear_momentum_map_norm_is_never_negative(seed):
    # A collinear body turned off the axes, with L = a n^T for n normal to
    # its line: L y = 0 at every particle, so vv = n^T Q n sum|a|^2 is zero
    # up to rounding of the second moments Q, which takes it below zero on
    # about half of such draws.  A negative vv would make the pairing scale
    # NaN, which max() drops silently.
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi)
    u, normal = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    b = Body(masses=rng.uniform(0.5, 1.5, 6), positions=rng.uniform(-0.3, 0.3, (6, 1)) * u)
    L = np.outer(rng.normal(size=2), normal)[None]
    gram, mom, vv = linear_momentum_map(b, Surface(-1.0), b.positions, L)
    assert vv[0] >= 0.0 and vv[0] <= 1e-15 * np.sum(L**2) * gram[2, 2]
    assert np.all(np.isfinite(pairing_scale(gram, vv)))


def test_linear_momentum_map_memory_stays_within_a_few_stage_arrays():
    # One composed-mode block at N = 4000 (three nodes): the position rows
    # and small sums, no per-particle velocity row.
    b, x, _ = _stage_batch(np.random.default_rng(2), 4000, (3,))
    L = np.random.default_rng(3).normal(size=(3, 1, 2, 2))
    s = Surface(-1.0)
    linear_momentum_map(b, s, x, L)
    tracemalloc.start()
    try:
        linear_momentum_map(b, s, x, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6


def test_momentum_map_flat_gram_at_huge_coordinates():
    # At R = 0 no r^4 row is formed.  Once it overflowed (|x| above about
    # 1e77) and 0 * inf made g11 = g22 NaN, though no entry exceeds 1e157.
    b = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1e78, b=1e78))
    G = momentum_map(b, Surface(0.0), np.empty((0, b.n, 2)))[0]
    assert np.all(np.isfinite(G))
    assert G[0, 0] == G[1, 1] == b.total_mass


# -------------------------------------------------------------- Gram solve


def test_solve_gram_one_cutoff_for_a_stack():
    gram = np.stack([np.diag([2.0, 1.0, 1e-11]), np.diag([2.0, 1.0, 4.0])])
    x, eigvals = solve_gram(gram, np.ones((2, 3)))
    assert np.allclose(x, [[0.5, 1.0, 1e11], [0.5, 1.0, 0.25]], rtol=1e-15, atol=0.0)
    assert np.allclose(eigvals, [[1e-11, 1.0, 2.0], [1.0, 2.0, 4.0]], rtol=1e-15, atol=0.0)
    # one matrix of the stack at 1e-12 of its largest eigenvalue refuses the stack
    gram[0, 2, 2] = 2e-12
    with pytest.raises(SingularGramError, match=r"rank 2 of 3") as err:
        solve_gram(gram, np.ones((2, 3)))
    assert err.value.rank == 2
    assert np.allclose(err.value.eigenvalues, [2e-12, 1.0, 2.0], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("where", ["gram", "rhs"])
def test_solve_gram_refuses_non_finite_first(where):
    # eigvalsh returns finite garbage for a NaN entry, which would read as singular
    gram, rhs = np.eye(3), np.ones(3)
    if where == "gram":
        gram[0, 1] = np.nan
    else:
        rhs[2] = np.inf
    with pytest.raises(NonFiniteResultError, match="Killing Gram matrix is not finite"):
        solve_gram(gram, rhs)


# ---------------------------------------------------------- scalar product
# The mass-weighted pairing <u|v> = (1/M) sum_n m_n g(u_n, v_n) as the kernel
# forms it: gram pairs the Killing fields, mom each velocity with them and vv
# each velocity with itself.


def pairings(b, s, *velocities):
    """(gram, mom, vv) of momentum_map at the body's positions, mass-normalized."""
    V = np.stack(velocities) if velocities else np.empty((0, b.n, 2))
    return tuple(a / b.total_mass for a in momentum_map(b, s, V))


def test_unit_field_has_unit_norm():
    b = Body.from_particles([[1, 0.3, 0.1], [2, -0.5, 0.2]])
    assert pairings(b, Surface(0.0))[0][0, 0] == pytest.approx(1.0, abs=1e-15)


def test_three_mass_translation_rotation_pairing():
    # unit masses at (1,0), (-1,0), (0,1): <xi1|xi3> = -Q^y / M = -1/3
    b = Body.from_particles([[1, 1, 0], [1, -1, 0], [1, 0, 1]])
    assert pairings(b, Surface(0.0))[0][0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_pointwise_orthogonal_fields():
    # each Killing field turned by a right angle at every particle pairs to zero with it
    b = Body.from_particles([[1, 0.2, 0.4], [3, -0.1, 0.5]])
    s = Surface(1.0)
    turned = [xi(b.positions)[:, ::-1] * [1.0, -1.0] for xi in killing_fields(s)]
    mom = pairings(b, s, *turned)[1]
    assert np.max(np.abs(np.diag(mom))) <= 1e-16


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_scalar_product_bilinear_symmetric(a, c):
    # mom is linear in the velocity and gram is exactly symmetric
    b = Body.from_particles([[1, 0.3, 0.1], [2, -0.2, 0.2], [1.5, 0.1, -0.3]])
    s = Surface(-0.5)
    u = linear_field(np.array([[0.7, 0.1], [0.0, -0.4]]))(b.positions)
    w = np.broadcast_to([0.4, -0.9], u.shape)
    gram, mom, _ = pairings(b, s, a * u + c * w, u, w)
    assert np.max(np.abs(mom[0] - (a * mom[1] + c * mom[2]))) <= 1e-12
    assert np.array_equal(gram, gram.T)


def test_norm_positive_unless_vanishing_on_particles():
    b = Body.from_particles([[1, 0.5, 0.0], [1, -0.5, 0.0]])
    u = linear_field(np.array([[0.3, 0.0], [0.2, 0.0]]))
    # y d/dy vanishes at every particle of this needle
    v = linear_field(np.array([[0.0, 0.0], [0.0, 1.0]]))
    vv = pairings(b, Surface(0.0), u(b.positions), v(b.positions))[2]
    assert vv[0] > 0.0
    assert vv[1] == 0.0


# ----------------------------------------------------------------- moments


def test_single_mass_moments():
    q = moments(Body.from_particles([[2.5, 0, 0]]))
    assert np.all(q.q1 == 0) and np.all(q.q2 == 0) and np.all(q.q3 == 0)
    assert q.total_mass == 2.5


def test_triangle_cubic_moment():
    M, m, h, b = 1.0, 0.2, 0.7, 0.4
    x_b = -(M - 2 * m) * h / M
    body = Body.from_particles(
        [[m, x_b, b / 2], [m, x_b, -b / 2], [M - 2 * m, x_b + h, 0.0]]
    )
    q = moments(body)
    assert q.q1[0] == pytest.approx(0.0, abs=1e-16)
    expected = -m * (M - 2 * m) * h * b**2 / (2 * M)
    assert q.q3[0, 1, 1] == pytest.approx(expected, rel=1e-14)
    # consistency with the closed-form swim coefficient: |8/M sum x y^2|
    assert 8 * abs(q.q3[0, 1, 1]) / M == pytest.approx(4 * m * (M - 2 * m) * h * b**2 / M**2, rel=1e-14)


def test_inversion_symmetric_body_has_zero_cubics():
    body = Body.from_particles([[1, 0.3, 0], [1, -0.3, 0], [1, 0, 0.3], [1, 0, -0.3]])
    assert np.all(moments(body).q3 == 0.0)


def test_moments_are_formed_once_per_body():
    rng = np.random.default_rng(11)
    body = Body(masses=rng.uniform(0.5, 1.5, 7), positions=rng.uniform(-0.3, 0.3, (7, 2)))
    q = moments(body)
    assert moments(body) is q
    for a in (q.q1, q.q2, q.q3):
        assert not a.flags.writeable
    m, x = body.masses, body.positions
    assert np.array_equal(q.q3, np.einsum("n,ni,nj,nk->ijk", m, x, x, x))
    assert body.total_mass == float(np.sum(m)) == q.total_mass
    assert body.extent == float(np.max(np.linalg.norm(x, axis=1)))


def _odd_in_y(shape):
    """Index tuples of a moment tensor with an odd number of y (index 1) entries."""
    return [i for i in np.ndindex(*shape) if sum(i) % 2 == 1]


def test_moments_keep_the_mirror_zeros_exactly():
    # einsum read q1_y = -1.1e-16 and Q_xy = -6.9e-18 on this body
    q = moments(_mirror_body())
    assert q.q1[1] == 0.0 and q.q1[0] > 0.0
    assert q.q2[0, 1] == q.q2[1, 0] == 0.0
    odd = _odd_in_y((2, 2, 2))
    for i in np.ndindex(2, 2, 2):
        assert (q.q3[i] == 0.0) == (i in odd), i


@pytest.mark.parametrize("R", [-1.0, 1.0])
def test_small_swimmer_moment_keeps_the_mirror_zeros_exactly(R, monkeypatch):
    b = _mirror_body()
    centred = Body(masses=b.masses, positions=b.positions - [moments(b).q1[0] / b.total_mass, 0.0])
    assert moments(centred).q1[1] == 0.0
    sums = []
    monkeypatch.setattr(holonomy_mod, "particle_sums", lambda m, f: sums.append(particle_sums(m, f)) or sums[-1])
    even = [linear_field(B) for B in ([[1.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.0, -2.0]])]
    dx = holonomy_mod.holonomy_small_swimmer(centred, CurvatureTensor.from_surface(Surface(R)), *even, 0.5)
    moment = sums[0][2]
    for i in _odd_in_y((2, 2, 2)):
        assert moment[i] == 0.0, i
    assert dx[1] == 0.0 and dx[0] != 0.0


def test_particle_sums_are_the_moments_and_each_level_stands_alone():
    rng = np.random.default_rng(12)
    for n in (1, 3, 17, 300):
        m, x = rng.uniform(0.5, 1.5, n), rng.uniform(-0.4, 0.4, (n, 2))
        u = rng.normal(size=(n, 2))
        q1, q2, q3 = particle_sums(m, (x, x, x))
        assert np.array_equal(particle_sums(m, (x,))[0], q1)
        assert np.array_equal(particle_sums(m, (x, x))[1], q2)
        assert np.array_equal(particle_sums(m, (x.copy(order="F"), x, x))[2], q3)
        ref = np.einsum("n,ni,nj,nk->ijk", m, x, x, u)
        assert np.max(np.abs(particle_sums(m, (x, x, u))[2] - ref)) <= 1e-15 * np.max(np.abs(ref)) * n


def test_isometry_images_share_the_checked_masses():
    body = Body(masses=np.array([1.0, 2.0, 0.5]), positions=np.array([[0.1, 0.2], [-0.25, 0.1], [0.2, -0.2]]))
    images = [body.scaled(2.0), body.transformed(rotation_about_origin(Surface(1.0), 0.4)),
              balance(body, Surface(-1.0)), principal_axes(body)]
    for image in images:
        assert image.masses is body.masses
        assert not image.positions.flags.writeable
        assert image.total_mass == body.total_mass
        assert np.array_equal(moments(image).q2, moments(Body(masses=body.masses, positions=image.positions)).q2)
    assert np.array_equal(images[0].positions, 2.0 * body.positions)
    with np.errstate(invalid="ignore"):
        for factor in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                body.scaled(factor)


def test_moments_additive_under_merge():
    b1 = Body.from_particles([[1, 0.2, 0.3], [2, -0.1, 0.4]])
    b2 = Body.from_particles([[3, 0.5, -0.2]])
    q = moments(Body(masses=np.concatenate([b1.masses, b2.masses]),
                     positions=np.concatenate([b1.positions, b2.positions])))
    assert np.allclose(q.q2, moments(b1).q2 + moments(b2).q2)
    assert np.allclose(q.q3, moments(b1).q3 + moments(b2).q3)


# ----------------------------------------------------------------- balance


def test_balance_noop_when_balanced():
    body = Body.from_particles([[1, 0.1, 0], [1, -0.1, 0]])
    out = balance(body, Surface(1.0))
    assert np.allclose(out.positions, body.positions, atol=1e-14)


def test_balance_flat_two_masses():
    body = Body.from_particles([[1, 0.0, 0.0], [1, 0.2, 0.0]])
    out = balance(body, Surface(0.0))
    assert np.allclose(out.positions, [[-0.1, 0.0], [0.1, 0.0]], atol=1e-15)


def test_balance_curved_reaches_tolerance():
    body = Body.from_particles([[1, 0.0, 0.05], [1, 0.2, -0.1], [2, 0.1, 0.15]])
    for R in (1.0, -1.0):
        out = balance(body, Surface(R))
        q1 = moments(out).q1
        assert np.max(np.abs(q1)) < 1e-12


def _balance_one_body_per_iteration(body, surface):
    """balance as a loop that builds a new Body each iteration, reads its cached
    moments and applies each step to that body's positions; returns (body,
    iterations).  The step is the Newton step w (1 - R^2 |q2|^2) =
    -q1 + R q2 conj(q1) in the means q1, q2 of z and z^2, or the flat -q1
    where 1 - R^2 |q2|^2 < 1/2 or |R| |w|^2 > CURVATURE_EXTENT_WARN.
    """
    current, R = body, surface.R
    scale = max(1.0, np.sqrt(float(np.max(np.sum(body.positions**2, axis=1)))))
    for it in range(BALANCE_MAX_ITER):
        q = moments(current)
        qx, qy = (q.q1 / current.total_mass).tolist()
        if max(abs(qx), abs(qy)) <= BALANCE_TOLERANCE * scale:
            return current, it
        w = (-qx, -qy)
        (sxx, sxy), (_, syy) = (q.q2 / current.total_mass).tolist()
        c, s = sxx - syy, 2.0 * sxy
        det = 1.0 - R * R * (c * c + s * s)
        if R and det >= 0.5:
            newton = ((R * (c * qx + s * qy) - qx) / det, (R * (s * qx - c * qy) - qy) / det)
            if abs(R) * (newton[0] ** 2 + newton[1] ** 2) <= CURVATURE_EXTENT_WARN:
                w = newton
        current = Body(masses=current.masses, positions=translation_to(surface, w)(current.positions))
    raise AssertionError("reference balancing did not converge")


@pytest.mark.parametrize("R", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_balance_matches_the_per_iteration_body_loop(R, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    body = Body(masses=rng.uniform(0.5, 1.5, n), positions=rng.uniform(-0.15, 0.15, (n, 2)) + [0.05, -0.03])
    expected, iterations = _balance_one_body_per_iteration(body, Surface(R))
    shifts = []
    monkeypatch.setattr(body_mod, "translation_to", lambda s, w: shifts.append(w) or translation_to(s, w))
    out = balance(body, Surface(R))
    assert iterations >= 1 and len(shifts) == iterations
    assert np.array_equal(out.positions, expected.positions)
    assert np.array_equal(out.masses, body.masses)
    assert balance(out, Surface(R)) is out


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_balance_takes_at_most_three_steps_on_the_formula_benchmark_bodies(monkeypatch):
    # the flat step -q1 took 3-8 transvections on these bodies, the Newton step 2-3
    workloads = _perfbench_workloads()
    cases = [c for c in workloads.load_reference("formula")["cases"] if c["R"] != 0.0]
    assert len(cases) == 96
    steps = []
    monkeypatch.setattr(body_mod, "translation_to", lambda s, w: steps.append(w) or translation_to(s, w))
    for case in cases:
        masses, points, _ = workloads.random_inputs(case["seed"], case["n"], case["radius"])
        del steps[:]
        balance(Body(masses=np.array(masses), positions=np.array(points)), Surface(case["R"]))
        assert 1 <= len(steps) <= 3, case["id"]


def _out_of_regime_body(seed, L, R):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 12)
    positions = rng.uniform(-L, L, (n, 2)) + rng.uniform(-L, L, 2)
    masses = rng.uniform(0.1, 3, n)
    extent = np.max(np.linalg.norm(positions, axis=1))
    if R < 0 and extent >= 0.99:
        positions *= 0.9 / extent
    return Body(masses=masses, positions=positions)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("R", [1.0, 4.0, -1.0])
def test_balance_converges_outside_the_small_body_regime(R, L):
    # the flat step diverged at R = 1, L = 2 and R = 4, L = 1 (seed 11), and an
    # unguarded Newton step leaves the hyperbolic chart on some R = -1 bodies
    for seed in range(30):
        body = _out_of_regime_body(seed, L, R)
        out = balance(body, Surface(R))
        q1 = moments(out).q1 / out.total_mass
        assert np.max(np.abs(q1)) <= BALANCE_TOLERANCE * max(1.0, body.extent), seed


@st.composite
def _small_bodies(draw):
    n = draw(st.integers(3, 12))
    unit = st.floats(-1.0, 1.0)
    points = np.array(draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n)))
    offset = np.array(draw(st.tuples(unit, unit)))
    masses = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    R = draw(st.floats(-1.0, 1.0))
    size = draw(st.floats(0.01, 1.0))
    positions = points + offset
    extent = np.max(np.linalg.norm(positions, axis=1))
    assume(extent > 0.0)
    # |R| (2 extent)^2 <= 0.1, and extent at most sqrt(2) / 2 when R is small: the
    # centroid lies inside the drawn extent, so the balanced body stays in regime too
    positions *= size * np.sqrt(0.1 / max(abs(R), 0.05)) / (2.0 * extent)
    return Body(masses=np.array(masses), positions=positions), Surface(R)


@settings(max_examples=60, deadline=None)
@given(_small_bodies())
def test_balance_is_an_exact_isometry(case):
    body, surface = case
    x = body.positions
    separation = min(np.linalg.norm(x[i] - x[j]) for i in range(body.n) for j in range(i))
    assume(separation >= 0.05 * body.extent)
    out = balance(body, surface)
    for i in range(body.n):
        for j in range(i):
            d = geodesic_distance(surface, x[i], x[j])
            assert abs(geodesic_distance(surface, out.positions[i], out.positions[j]) - d) <= 1e-12 * d
    q1 = moments(out).q1 / out.total_mass
    assert np.max(np.abs(q1)) <= BALANCE_TOLERANCE * max(1.0, body.extent)
    assert balance(out, surface) is out


def test_balance_warns_for_large_bodies():
    body = Body.from_particles([[1, 0.0, 0.0], [1, 0.8, 0.0]])
    with pytest.warns(UserWarning):
        balance(body, Surface(1.0))


# --------------------------------------------------------- principal axes


def test_principal_axes_noop_for_reflection_symmetric():
    body = Body.from_particles([[1, 0.3, 0.2], [1, 0.3, -0.2], [2, -0.3, 0.0]])
    out = principal_axes(body)
    assert out is body


def test_principal_axes_diagonal_rotation():
    r = 1 / np.sqrt(2)
    body = Body.from_particles([[1, r, r], [1, -r, -r]])
    out = principal_axes(body)
    assert np.allclose(np.abs(out.positions), [[1, 0], [1, 0]], atol=1e-14)
    q2 = moments(out).q2
    assert abs(q2[0, 1]) < 1e-14
    assert q2[0, 0] >= q2[1, 1]


def test_principal_axes_turns_a_diagonal_body_with_the_larger_moment_on_y():
    body = Body.from_particles([[1, 0.2, 0.0], [1, -0.2, 0.0], [1, 0.0, 0.5], [1, 0.0, -0.5]])
    out = principal_axes(body)
    assert np.allclose(out.positions, body.positions @ np.array([[0.0, 1.0], [-1.0, 0.0]]), rtol=0, atol=1e-15)
    q2 = moments(out).q2
    assert q2[0, 0] >= q2[1, 1]
    assert principal_axes(out) is out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=n, max_size=n))))
def test_principal_axes_orders_the_axes_and_is_idempotent(case):
    masses, points = case
    out = principal_axes(Body(masses=np.array(masses), positions=np.array(points)))
    q2 = moments(out).q2
    assert q2[0, 0] >= q2[1, 1]
    assert principal_axes(out) is out


def test_principal_axes_random_bodies():
    rng = np.random.default_rng(5)
    for _ in range(10):
        body = Body(masses=rng.uniform(0.5, 2, 6), positions=rng.uniform(-1, 1, (6, 2)))
        out = principal_axes(body)
        q2 = moments(out).q2
        assert abs(q2[0, 1]) <= 1e-12 * max(q2[0, 0], q2[1, 1])
        assert q2[0, 0] >= q2[1, 1]


def test_principal_axes_isotropic_identity():
    body = Body.from_particles([[1, 0.3, 0], [1, -0.3, 0], [1, 0, 0.3], [1, 0, -0.3]])
    assert principal_axes(body) is body
