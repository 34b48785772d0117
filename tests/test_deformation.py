import numpy as np
import pytest

import curvswim.deformation as deformation_mod
import curvswim.geometry
from curvswim.body import Body, balance, momentum_map, principal_axes
from curvswim.checks import random_balanced_body
from curvswim.deformation import (
    gauge_coefficients,
    gauge_fixed_linear_matrix,
    gauge_fixed_linear_deformation,
    gauge_residuals,
    linear_deformation,
    parse_field_spec,
    project_gauge,
)
from curvswim.errors import DegenerateMomentsError, NonFiniteResultError, SingularGramError
from curvswim.fields import VectorField, combine, complex_view, linear_field
from curvswim.geometry import Surface, killing_fields, rigid_field, rigid_velocity, strain_of


# ------------------------------------------------------------ linear family


def test_linear_deformation_values():
    assert np.allclose(linear_deformation(1, 1)((0.3, 0.5)), [0.3, 0.0])
    assert np.allclose(linear_deformation(1, 2)((1.0, 0.0)), [0.0, 0.5])
    assert np.allclose(linear_deformation(2, 2)((0.0, 0.0)), [0.0, 0.0])
    assert np.allclose(linear_deformation(2, 1)((1.0, 0.0)), linear_deformation(1, 2)((1.0, 0.0)))


def _central_gradient(f, p):
    """d f^k / d x^j by central differences, step 1e-5 scaled by the point magnitude."""
    h = 1e-5 * max(1.0, float(np.max(np.abs(p))))
    out = np.empty(p.shape[:-1] + (2, 2))
    for j in range(2):
        dp = np.zeros_like(p)
        dp[..., j] = h
        out[..., j, :] = (f(p + dp) - f(p - dp)) / (2.0 * h)
    return out


def test_field_gradient_consistency():
    rng = np.random.default_rng(2)
    for f in [linear_deformation(1, 1), linear_deformation(1, 2), killing_fields(Surface(0.7))[0]]:
        for _ in range(5):
            p = rng.uniform(-0.4, 0.4, 2)
            fd = _central_gradient(f, p)
            assert np.allclose(fd, f.gradient(p), atol=1e-6)


def test_field_without_gradient_refuses_gradient():
    f = VectorField(func=lambda p: p * p, tag="square")
    with pytest.raises(ValueError, match="'square' has no gradient"):
        f.gradient((0.1, 0.2))
    with pytest.raises(ValueError, match="no gradient"):
        combine([f, linear_deformation(1, 1)], [1.0, 2.0]).gradient((0.1, 0.2))


# ------------------------------------------------------------------- strain


def test_killing_fields_are_strain_free():
    for R in (-1.0, 0.0, 1.0):
        s = Surface(R)
        for xi in killing_fields(s):
            assert np.max(np.abs(strain_of(s, xi, (0.3, -0.2)))) < 1e-8


def test_linear_field_unit_strain_flat():
    s = Surface(0.0)
    got = strain_of(s, linear_deformation(1, 1), (0.7, -0.2))
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-14)


def test_strain_at_origin_matches_flat_case():
    flat = strain_of(Surface(0.0), linear_deformation(1, 1), (0, 0))
    curved = strain_of(Surface(1.0), linear_deformation(1, 1), (0, 0))
    assert np.allclose(flat, curved, atol=1e-15)


# --------------------------------------------------------- gauge projection


def test_project_noop_when_already_orthogonal():
    body = Body.from_particles([[1, 0.3, 0.2], [1, 0.3, -0.2], [2, -0.3, 0.0]])
    s = Surface(0.0)
    f = linear_deformation(1, 1)  # x d/dx pairs to zero on this symmetric body
    pf = project_gauge(body, s, f)
    pts = body.positions
    assert np.allclose(pf(pts), f(pts), atol=1e-14)


def test_projection_equals_combination_with_killing_fields(monkeypatch):
    # f minus one rigid field: equal bit for bit to f(p) - rigid(p), and to
    # round-off to the linear combination f - c1 xi1 - c2 xi2 - c3 xi3.
    rng = np.random.default_rng(6)
    for R in (-1.0, 0.0, 1.0):
        s = Surface(R)
        body = random_balanced_body(rng)
        f = linear_field(rng.uniform(-1, 1, (2, 2)), tag="f")
        pf = project_gauge(body, s, f)
        _, mom, _ = momentum_map(body, s, f(body.positions)[None])
        coeffs = (mom[0] / body.total_mass) @ body.frame(s).inverse
        rigid = rigid_field(s, coeffs)
        ref = combine([f] + list(killing_fields(s)), [1.0] + list(-coeffs))
        for p in (rng.uniform(-0.4, 0.4, (2, 7, 2)), body.positions[0]):
            assert np.array_equal(pf(p), f(p) - rigid(p))
            assert np.array_equal(pf.gradient(p), f.gradient(p) - rigid.gradient(p))
            for got, want in ((pf(p), ref(p)), (pf.gradient(p), ref.gradient(p))):
                assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))
        assert pf.tag == "gauge(f)" and pf.linear_matrix is None
    # one rigid_velocity call per evaluation
    calls = []
    original = curvswim.geometry.rigid_velocity

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvswim.geometry, "rigid_velocity", counted)
    pf(body.positions)
    assert len(calls) == 1


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("R", [-1.0, 0.0, 1.0])
def test_stacked_coefficients_and_subtraction_are_project_gauge(R):
    # the CLI's projection of a stack: one gauge_coefficients call, one
    # rigid_velocity subtraction, raw values kept where c is all zero, as
    # project_gauge keeps such a field.  The zero field's -0.0 values must
    # survive bit for bit.
    rng = np.random.default_rng(11)
    s = Surface(R)
    body = random_balanced_body(rng, 6)
    fields = [linear_field(rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    fields.insert(1, VectorField(func=lambda p: -0.0 * p, tag="signed-zero"))
    x = body.positions
    values = np.stack([f(x) for f in fields])
    assert np.any(np.signbit(values[1]))
    c = gauge_coefficients(body, s, values)
    assert c.shape == (4, 3) and not np.any(c[1])
    moved = c.any(axis=-1)
    used = np.where(moved[:, None, None], values - rigid_velocity(s, c, complex_view(x)).view(float), values)
    for k, f in enumerate(fields):
        assert _bits(gauge_coefficients(body, s, values[k][None])[0]) == _bits(c[k])
        assert _bits(used[k]) == _bits(project_gauge(body, s, f)(x))
    assert project_gauge(body, s, fields[1]) is fields[1]


def test_non_finite_coefficients_raise_the_projection_error():
    body = random_balanced_body(np.random.default_rng(2))
    s = Surface(1.0)
    good = linear_field(np.array([[0.3, 0.1], [-0.2, 0.5]]))
    bad = VectorField(func=lambda p: np.full(p.shape, np.inf))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteResultError, match="gauge projection coefficients are not finite") as alone:
            project_gauge(body, s, bad)
        with pytest.raises(NonFiniteResultError) as stacked:
            gauge_coefficients(body, s, np.stack([good(body.positions), bad(body.positions)]))
    assert str(stacked.value) == str(alone.value)


def test_projection_kills_residuals_and_is_idempotent():
    rng = np.random.default_rng(4)
    for R in (0.0, 1.0, -0.8):
        s = Surface(R)
        body = random_balanced_body(rng)
        f = linear_field(rng.uniform(-1, 1, (2, 2)))
        pf = project_gauge(body, s, f)
        assert np.max(gauge_residuals(body, s, pf)) < 1e-12
        ppf = project_gauge(body, s, pf)
        assert np.allclose(ppf(body.positions), pf(body.positions), atol=1e-13)


def test_projection_preserves_strain():
    rng = np.random.default_rng(9)
    s = Surface(1.0)
    body = random_balanced_body(rng)
    f = linear_field(rng.uniform(-1, 1, (2, 2)))
    pf = project_gauge(body, s, f)
    for p in body.positions:
        assert np.allclose(strain_of(s, pf, p), strain_of(s, f, p), atol=1e-8)


def test_projection_of_xdy_reproduces_closed_form():
    # subtracting the rotation content of x d/dy lands on the tweaked family
    body = Body.from_particles([[1, 0.5, 0.1], [1, -0.3, -0.2], [1, -0.2, 0.1]])
    body = principal_axes(balance(body, Surface(0.0)))
    s = Surface(0.0)
    x_dy = linear_field(np.array([[0.0, 0.0], [1.0, 0.0]]))
    projected = project_gauge(body, s, x_dy)
    closed = gauge_fixed_linear_deformation(body, 1, 2)
    assert np.allclose(projected(body.positions), closed(body.positions), atol=1e-12)


def test_projection_single_particle_raises():
    body = Body.from_particles([[1.0, 0.0, 0.0]])
    with pytest.raises(SingularGramError) as err:
        project_gauge(body, Surface(0.0), linear_deformation(1, 1))
    assert err.value.rank == 2


# -------------------------------------------------- closed-form gauge family


def test_gauge_fixed_diagonal_is_axis_scaling():
    rng = np.random.default_rng(6)
    body = random_balanced_body(rng)
    f = gauge_fixed_linear_deformation(body, 1, 1)
    assert np.allclose(f.linear_matrix, np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_gauge_fixed_requires_preparation():
    unbalanced = Body.from_particles([[1, 0.5, 0.0], [1, 0.1, 0.0]])
    with pytest.raises(ValueError):
        gauge_fixed_linear_deformation(unbalanced, 1, 1)


def test_needle_admissible_deformations():
    needle = Body.from_particles([[1, -0.2, 0], [2, 0.0, 0], [1, 0.2, 0]])
    needle = balance(needle, Surface(0.0))
    f12 = gauge_fixed_linear_deformation(needle, 1, 2)
    assert np.allclose(f12(needle.positions), 0.0, atol=1e-15)  # y d/dx dies on the axis
    with pytest.raises(DegenerateMomentsError):
        gauge_fixed_linear_deformation(needle, 2, 2)
    f11 = gauge_fixed_linear_deformation(needle, 1, 1)
    assert np.max(np.abs(f11(needle.positions))) > 0.1


def test_gauge_fixed_matrix_is_formed_once_per_body_and_pair(monkeypatch):
    body = random_balanced_body(np.random.default_rng(9))
    built, original = [], deformation_mod._gauge_fixed_linear_matrix
    monkeypatch.setattr(deformation_mod, "_gauge_fixed_linear_matrix",
                        lambda *args: built.append(args[1:]) or original(*args))
    frame = body.frame(Surface(1.0))        # a frame key (1.0, 1.0) must not hand back the frame
    B = gauge_fixed_linear_matrix(body, 1, 1)
    assert gauge_fixed_linear_matrix(body, 1, 1) is B
    assert gauge_fixed_linear_matrix(body, 1.0, 1.0) is B
    assert isinstance(B, np.ndarray) and B is not frame and body.frame(Surface(1.0)) is frame
    with pytest.raises(ValueError):
        B[0, 0] = 0.0
    B12 = gauge_fixed_linear_matrix(body, 1, 2)
    assert built == [(1, 1), (1, 2)]
    f = gauge_fixed_linear_deformation(body, 1, 2)
    assert f.linear_matrix is B12 and built == [(1, 1), (1, 2)]


def test_gauge_fixed_refusal_is_not_cached():
    unbalanced = Body.from_particles([[1, 0.5, 0.0], [1, 0.1, 0.2]])
    for _ in range(2):
        with pytest.raises(ValueError, match="balanced"):
            gauge_fixed_linear_matrix(unbalanced, 1, 1)


def test_gauge_fixed_rotation_orthogonality():
    body = Body.from_particles([[0.25, -0.5, 0.5], [0.25, -0.5, -0.5], [0.5, 0.5, 0.0]])
    s = Surface(0.0)
    f = gauge_fixed_linear_deformation(body, 1, 2)
    res = gauge_residuals(body, s, f)
    assert np.max(res) < 1e-14


def test_closed_form_equals_projection_flat():
    rng = np.random.default_rng(8)
    s = Surface(0.0)
    for _ in range(5):
        body = random_balanced_body(rng)
        for (j, k) in [(1, 1), (2, 2), (1, 2)]:
            closed = gauge_fixed_linear_deformation(body, j, k)
            projected = project_gauge(body, s, linear_deformation(j, k))
            a = closed(body.positions).ravel()
            bvals = projected(body.positions).ravel()
            scale = a @ bvals / (a @ a)
            assert np.allclose(scale * a, bvals, atol=1e-12)


# ------------------------------------------------------------- field specs


def test_parse_field_specs():
    assert parse_field_spec("linear:12").tag == "linear-12"
    m = parse_field_spec({"matrix": [[0, 1], [0, 0]]})
    assert np.allclose(m((0.5, 0.25)), [0.25, 0.0])
    with pytest.raises(ValueError):
        parse_field_spec("linear:13")
    with pytest.raises(ValueError):
        parse_field_spec({"bogus": 1})
    with pytest.raises(ValueError):
        parse_field_spec("gauge_linear:11")  # needs a body
