import numpy as np
import pytest

import curvswim.body as body_mod
import curvswim.deformation as deformation
import curvswim.holonomy as holonomy_mod
from curvswim.body import Body, balance, principal_axes
from curvswim.checks import random_balanced_body
from curvswim.deformation import gauge_fixed_linear_deformation, project_gauge
from curvswim.errors import GaugeConditionError, NonFiniteResultError, SingularGramError
from curvswim.fields import VectorField, linear_field
from curvswim.geometry import CurvatureTensor, Surface, killing_two_forms
from curvswim.holonomy import (
    holonomy_general,
    holonomy_linear,
    holonomy_small_swimmer,
    swim_increments,
)
from curvswim.integrator import integrate_stroke, sinusoid_stroke
from curvswim.scenarios import TriangleSpec, triangle_body, triangle_control_fields
from references import swim_longdouble

TRIANGLE = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1.0, b=1.0))


# ------------------------------------------------------------------- gram


def test_gram_single_mass_at_origin():
    b = Body.from_particles([[1, 0, 0]])
    G = b.frame(Surface(0.0)).gram / b.total_mass
    assert np.allclose(G, np.diag([1.0, 1.0, 0.0]))


def test_gram_block_diagonal_for_balanced_flat():
    rng = np.random.default_rng(3)
    b = random_balanced_body(rng, extent=0.3)
    G = b.frame(Surface(0.0)).gram / b.total_mass
    assert np.allclose(G[:2, 2], 0.0, atol=1e-13)
    assert np.allclose(G[2, :2], 0.0, atol=1e-13)


def test_gram_symmetric_on_sphere():
    G = TRIANGLE.frame(Surface(1.0)).gram / TRIANGLE.total_mass
    assert np.allclose(G, G.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(G) > 0)


# -------------------------------------------------------------- two-form


def test_bracket_exact_vs_small_swimmer_gap():
    # on a small body the exact two-form is within O(R L^2) of 8Ry
    s = Surface(1.0)
    small = triangle_body(TriangleSpec(M=1.0, m=0.25, h=0.1, b=0.1))
    x, y = small.positions.T
    # paired with (y d/dy, x d/dx) a two-form c contributes -(1/M) sum_n m_n c x y
    exact = np.sum(small.masses * killing_two_forms(s, small.positions)[0] * x * y)
    approx = np.sum(small.masses * 8.0 * y * x * y)
    assert abs(exact / approx - 1.0) < 0.05


# ---------------------------------------------------------------- general


def test_gauge_violation_rejected():
    s = Surface(1.0)
    raw = linear_field(np.array([[1.0, 0.0], [0.0, 0.0]]))
    other = linear_field(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(GaugeConditionError):
        holonomy_general(TRIANGLE, s, raw, other, 1.0)


def test_overflowing_increment_rejected():
    s = Surface(1.0)
    u, v = (project_gauge(TRIANGLE, s, f) for f in triangle_control_fields())
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResultError):
        holonomy_general(TRIANGLE, s, u, v, np.inf)


def test_per_unit_area_of_a_zero_area_stroke_is_zero():
    # dividing the zero increment by the zero area would give NaN
    s = Surface(1.0)
    u, v = (project_gauge(TRIANGLE, s, f) for f in triangle_control_fields())
    res = holonomy_general(TRIANGLE, s, u, v, 0.0)
    assert np.array_equal(res.delta_tau, np.zeros(3))
    assert np.array_equal(res.per_unit_area, np.zeros(3))


def test_non_finite_gram_rejected():
    # the Killing Gram matrix of a body at 1e200 overflows: a NaN gauge residual
    # must fail the gauge check, and the projection must not end in LinAlgError
    huge = triangle_body(TriangleSpec(M=1.0, m=0.25, h=1e200, b=1e200))
    u, v = triangle_control_fields()
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteResultError, match="gauge residuals"):
            holonomy_general(huge, Surface(0.0), u, v, 0.01)
        with pytest.raises(NonFiniteResultError, match="Gram matrix is not finite"):
            project_gauge(huge, Surface(0.0), u)


def test_rank_deficient_single_particle():
    b = Body.from_particles([[1, 0, 0]])
    s = Surface(0.0)
    u = linear_field(np.array([[1.0, 0.0], [0.0, 0.0]]))
    v = linear_field(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(SingularGramError) as err:
        holonomy_general(b, s, u, v, 1.0)
    assert err.value.rank == 2


def small_generic_swimmer(L):
    """A generic 7-particle body scaled by L, two generic matrix fields, R = -1, a 64-step sinusoid."""
    rng = np.random.default_rng(3)
    body = random_balanced_body(rng, 7).scaled(L)
    B = rng.normal(size=(2, 2, 2))
    return body, Surface(-1.0), [linear_field(B[0]), linear_field(B[1])], sinusoid_stroke(1e-3, 1e-3, steps=64)


@pytest.mark.parametrize("L, component, rtol", [(3e-5, 2, 1e-6), (1e-4, 1, 1e-3)])
def test_small_generic_swimmer_formula_matches_oracle(L, component, rtol):
    # The Gram eigenvalue ratio is 7e-11 at L = 3e-5 and 8e-10 at L = 1e-4.
    # A pseudo-inverse with a 1e-10 cutoff dropped the rotation at the first
    # (it read -6.6e-37) and put the y translation 1% off at the second.
    body, s, raw, stroke = small_generic_swimmer(L)
    u, v = (project_gauge(body, s, f) for f in raw)
    formula = holonomy_general(body, s, u, v, stroke.signed_area).delta_tau[component]
    oracle = integrate_stroke(body, s, raw, stroke).delta_tau[component]
    assert abs(formula - oracle) <= rtol * abs(oracle)


def _longdouble_cases(rng):
    """(body, R, matrices): 200 random_balanced_body draws, N = 3-300, R in {+-1, +-0.25, 0} and N(0, 1)
    matrices; then 60 bodies of the formula benchmark's recipe, N in the disk of radius 0.25, balanced on
    the surface and in principal axes, with matrices uniform in [-1, 1]."""
    for _ in range(200):
        R = float(rng.choice([1.0, -1.0, 0.25, -0.25, 0.0]))
        yield random_balanced_body(rng, int(rng.integers(3, 301))), R, rng.normal(size=(2, 2, 2))
    for _ in range(60):
        R, n = float(rng.choice([1.0, -1.0, 0.0])), int(rng.choice([3, 30, 300]))
        r, phi = 0.25 * np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * np.pi, n)
        body = Body(masses=rng.uniform(0.5, 1.5, n), positions=np.stack([r * np.cos(phi), r * np.sin(phi)], 1))
        yield principal_axes(balance(body, Surface(R))), R, rng.uniform(-1.0, 1.0, (2, 2, 2))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="np.longdouble is no wider than a double here")
def test_formula_route_against_an_80_bit_transcription():
    # the moment-table contractions against per-particle sums in extended
    # precision: these draws read at most 1.2e-13 of max|delta_tau|, and
    # 5.7e-14 on the per-particle route the tables replaced
    for body, R, matrices in _longdouble_cases(np.random.default_rng(2024)):
        s = Surface(R)
        u, v = (project_gauge(body, s, linear_field(B)) for B in matrices)
        got = holonomy_general(body, s, u, v, 1e-3).delta_tau
        want = swim_longdouble(body, R, matrices, 1e-3)
        assert np.max(np.abs(got - want)) <= 5e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("R", [0.0, 1.0, -1.0])
def test_a_rigid_control_projects_to_the_zero_field_and_moves_nothing(R):
    # A field rigid on the body projects to round-off of itself, which the
    # gauge check used to refuse ("apply project_gauge first") in most draws:
    # a pure rotation on any body, and (0, x) on a body along the x axis.
    s = Surface(R)
    rng = np.random.default_rng(5)
    collinear = Body(masses=[1.263, 1.198, 0.629], positions=[(-0.00948, 4.3e-21), (0.0298, 6.3e-21),
                                                              (-0.0378, -2.1e-20)])
    cases = [(random_balanced_body(rng, n), rng.uniform(0.5, 1.0) * np.array([[0.0, -1.0], [1.0, 0.0]]),
              rng.normal(size=(2, 2))) for n in range(3, 30)]
    cases.append((collinear, [[0.0, 0.0], [0.832, 0.0]], [[0.0, -0.728], [0.728, 0.0]]))
    for body, rigid, other in cases:
        u, v = (project_gauge(body, s, linear_field(B)) for B in (rigid, other))
        assert not np.any(u.coefficients)
        assert not np.any(holonomy_general(body, s, u, v, 1e-3).delta_tau)
        assert not np.any(holonomy_general(body, s, v, u, 1e-3).delta_tau)


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("n", [3, 300])
def test_swim_increments_is_bitwise_the_one_pair_solve(R, n):
    rng = np.random.default_rng(n)
    body = random_balanced_body(rng, n, 0.2)
    s = Surface(R)
    fields = [project_gauge(body, s, linear_field(rng.normal(size=(2, 2)))) for _ in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2), (2, 0)]
    delta, res = swim_increments(body, s, np.stack([f.coefficients for f in fields]), pairs, 1e-3)
    assert delta.shape == (4, 3) and res.shape == (3, 3)
    for p, (i, j) in enumerate(pairs):
        one = holonomy_general(body, s, fields[i], fields[j], 1e-3)
        assert np.array_equal(delta[p], one.delta_tau)
        assert np.array_equal(res[[i, j]], one.gauge_residuals)


def test_triangle_translation_value():
    # frozen from the gauge-projected exact evaluation; the independent
    # integrator reproduces this number (see integrator tests)
    s = Surface(1.0)
    height, base = triangle_control_fields()
    u = project_gauge(TRIANGLE, s, height)
    v = project_gauge(TRIANGLE, s, base)
    res = holonomy_general(TRIANGLE, s, u, v, 0.01)
    assert res.delta_tau[0] == pytest.approx(0.0022040816326530615, rel=1e-12)
    assert res.delta_tau[1] == pytest.approx(0.0, abs=1e-15)
    assert res.delta_tau[2] == pytest.approx(0.0, abs=1e-15)
    assert res.gram_condition < 10.0


def test_result_linear_in_area_and_antisymmetric():
    s = Surface(1.0)
    height, base = triangle_control_fields()
    u = project_gauge(TRIANGLE, s, height)
    v = project_gauge(TRIANGLE, s, base)
    a = holonomy_general(TRIANGLE, s, u, v, 0.02).delta_tau
    b2 = holonomy_general(TRIANGLE, s, u, v, 0.01).delta_tau
    assert np.allclose(a, 2 * b2, atol=1e-18)
    swapped = holonomy_general(TRIANGLE, s, v, u, 0.02).delta_tau
    assert np.allclose(swapped, -a, atol=1e-18)


# ------------------------------------------------------- curvature paths


def test_zero_curvature_gives_zero():
    rng = np.random.default_rng(21)
    b = random_balanced_body(rng, extent=0.3)
    u = gauge_fixed_linear_deformation(b, 2, 2)
    v = gauge_fixed_linear_deformation(b, 1, 1)
    assert np.allclose(holonomy_small_swimmer(b, CurvatureTensor.constant_curvature(0.0), u, v, 1.0), 0.0)


def test_swap_negates_small_swimmer():
    rng = np.random.default_rng(22)
    b = random_balanced_body(rng, extent=0.3)
    c = CurvatureTensor.constant_curvature(4.0)
    u = gauge_fixed_linear_deformation(b, 2, 2)
    v = gauge_fixed_linear_deformation(b, 1, 1)
    assert np.allclose(
        holonomy_small_swimmer(b, c, u, v, 1.0),
        -holonomy_small_swimmer(b, c, v, u, 1.0),
    )


@pytest.mark.parametrize("n", [3, 30, 300])
def test_small_swimmer_contraction_matches_the_five_operand_einsum(n):
    rng = np.random.default_rng(n)
    b = random_balanced_body(rng, n, extent=0.3)
    u, v = (linear_field(rng.uniform(-1.0, 1.0, (2, 2))) for _ in range(2))
    for R in (1.0, -0.5):
        c = CurvatureTensor.from_surface(Surface(R))
        got = holonomy_small_swimmer(b, c, u, v, 0.3)
        x = b.positions
        ref = 2.0 * 0.3 * np.einsum("n,ni,nj,nl,jlik->k", b.masses, x, u(x), v(x), c.components) / b.total_mass
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        flipped = holonomy_small_swimmer(b, CurvatureTensor.from_surface(Surface(-R)), u, v, 0.3)
        assert np.array_equal(flipped, -got)


def test_formula_path_forms_cubic_moments_once_per_body(monkeypatch):
    rng = np.random.default_rng(8)
    body = Body(masses=rng.uniform(0.5, 1.5, 30), positions=rng.uniform(-0.2, 0.2, (30, 2)) + 0.02)
    s = Surface(1.0)
    curv = CurvatureTensor.from_surface(s)
    fields = [linear_field(rng.uniform(-1.0, 1.0, (2, 2))) for _ in range(2)]
    degrees, mass_sums = [], body_mod._mass_sums

    def counting_sums(masses, x, degree):
        degrees.append(degree)
        return mass_sums(masses, x, degree)

    monkeypatch.setattr(body_mod, "_mass_sums", counting_sums)
    # one op of the benchmark's formula workload
    prepared = principal_axes(balance(body, s))
    u, v = (project_gauge(prepared, s, f) for f in fields)
    holonomy_general(prepared, s, u, v, 1e-4)
    fb = gauge_fixed_linear_deformation(prepared, 1, 1)
    fc = gauge_fixed_linear_deformation(prepared, 2, 2)
    holonomy_linear(prepared, curv, (1, 1), (2, 2), 1e-4)
    holonomy_small_swimmer(prepared, curv, fb, fc, 1e-4)
    # balance's iterates sum to degree 2, and principal_axes reads the last
    # one; the prepared body forms its cubic table once, which both
    # curvature formulas read for linear fields
    assert degrees[:-1] == [2] * (len(degrees) - 1) and degrees[-1] == 3


@pytest.mark.parametrize("R", [1.0, -1.0, 0.25])
def test_holonomy_linear_is_bitwise_the_small_swimmer(R):
    rng = np.random.default_rng(32)
    curv = CurvatureTensor.from_surface(Surface(R))
    pairs = [((1, 1), (2, 2)), ((1, 1), (1, 2)), ((1, 2), (2, 2))]
    for _ in range(200):
        b = random_balanced_body(rng)
        for pb, pc in pairs:
            fields = (gauge_fixed_linear_deformation(b, *pb), gauge_fixed_linear_deformation(b, *pc))
            assert np.array_equal(holonomy_linear(b, curv, pb, pc, 0.3), holonomy_small_swimmer(b, curv, *fields, 0.3))


@pytest.mark.parametrize("R", [1.0, -0.5])
def test_small_swimmer_on_quadratic_fields_matches_the_five_operand_einsum(R):
    # a constant or quadratic column raises the degree of the mass moments read, up to 5
    rng = np.random.default_rng(9)
    b = random_balanced_body(rng, 30, extent=0.3)
    c = CurvatureTensor.from_surface(Surface(R))
    x = b.positions
    for columns in ([0, 1, 2], [1, 2, 4], [3, 4, 5], range(6)):
        C = np.zeros((2, 2, 6))
        C[:, :, list(columns)] = rng.uniform(-1.0, 1.0, (2, 2, len(columns)))
        u, v = VectorField(C[0]), VectorField(C[1])
        got = holonomy_small_swimmer(b, c, u, v, 0.3)
        ref = 2.0 * 0.3 * np.einsum("n,ni,nj,nl,jlik->k", b.masses, x, u(x), v(x), c.components) / b.total_mass
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_holonomy_linear_builds_no_field(monkeypatch):
    # it reads the two gauge-fixed matrices and contracts them with the
    # cubic moments; the fields the matrices define are never built
    body = random_balanced_body(np.random.default_rng(5))
    curv = CurvatureTensor.constant_curvature(4.0)
    expected = holonomy_linear(body, curv, (1, 1), (1, 2), 0.3)
    built, original = [], deformation.linear_field
    monkeypatch.setattr(deformation, "linear_field", lambda *a, **k: built.append(1) or original(*a, **k))
    got = holonomy_linear(body, curv, (1, 1), (1, 2), 0.3)
    assert len(built) == 0
    assert np.array_equal(got, expected)


def test_small_swimmer_requires_balance():
    b = Body.from_particles([[1, 0.5, 0.0], [1, 0.1, 0.2]])
    c = CurvatureTensor.constant_curvature(4.0)
    u = linear_field(np.eye(2))
    with pytest.raises(ValueError):
        holonomy_small_swimmer(b, c, u, u, 1.0)


def test_small_swimmer_tracks_general_on_small_bodies():
    s = Surface(1.0)
    small = triangle_body(TriangleSpec(M=1.0, m=0.25, h=0.1, b=0.1))
    height, base = triangle_control_fields()
    u = project_gauge(small, s, height)
    v = project_gauge(small, s, base)
    general = holonomy_general(small, s, u, v, 1.0).translation
    local = holonomy_small_swimmer(small, CurvatureTensor.from_surface(s), u, v, 1.0)
    assert np.linalg.norm(local - general) < 0.05 * np.linalg.norm(general)


def test_r_flip_general_path_small_body():
    # exact two-forms are odd in R only to leading order in the body size
    tri = triangle_body(TriangleSpec(M=1.0, m=0.25, h=3e-4, b=3e-4))
    height, base = triangle_control_fields()
    vals = {}
    for R in (1.0, -1.0):
        s = Surface(R)
        u = project_gauge(tri, s, height)
        v = project_gauge(tri, s, base)
        vals[R] = holonomy_general(tri, s, u, v, 1.0).delta_tau[0]
    assert abs(vals[1.0] + vals[-1.0]) < 1e-6 * abs(vals[1.0])


def test_needle_cannot_swim_along_its_axis_under_any_deformation():
    # the axis-translation two-form vanishes on the axis, and the Gram row
    # of that translation decouples for an on-axis body, so the axis
    # component dies for arbitrary (nonlinear) gauge-fixed controls
    from curvswim.fields import VectorField

    s = Surface(1.0)
    needle = Body.from_particles([[1.0, -0.2, 0.0], [2.0, 0.05, 0.0], [1.0, 0.3, 0.0]])
    needle = balance(needle, s)
    rng = np.random.default_rng(77)

    def random_field():
        # (c0 x + c1 y^2 + c2 xy, c3 y + c4 x^2 + c5 xy) over 1, x, y, x^2, xy, y^2
        c = rng.uniform(-1, 1, size=6)
        return VectorField([[0.0, c[0], 0.0, 0.0, c[2], c[1]], [0.0, 0.0, c[3], c[4], c[5], 0.0]])

    for _ in range(5):
        u = project_gauge(needle, s, random_field())
        v = project_gauge(needle, s, random_field())
        res = holonomy_general(needle, s, u, v, 1.0)
        assert abs(res.delta_tau[0]) < 1e-13


def test_reflection_symmetric_body_swims_along_axis_only():
    s = Surface(1.0)
    height, base = triangle_control_fields()
    u = project_gauge(TRIANGLE, s, height)
    v = project_gauge(TRIANGLE, s, base)
    res = holonomy_general(TRIANGLE, s, u, v, 1.0)
    assert res.delta_tau[1] == pytest.approx(0.0, abs=1e-14)
    assert res.rotation == pytest.approx(0.0, abs=1e-14)
    assert abs(res.delta_tau[0]) > 0.1
