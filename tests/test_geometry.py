import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvswim.body import Body
from curvswim.deformation import project_gauge
from curvswim.errors import ChartDomainError
from curvswim.fields import as_points, complex_view, linear_field
from curvswim.geometry import (
    CurvatureTensor,
    Isometry,
    Surface,
    exp_rigid,
    gaussian_curvature,
    geodesic_distance,
    killing_coefficients,
    killing_fields,
    killing_one_form,
    killing_residual,
    killing_two_forms,
    numeric_exterior_derivative,
    rigid_field,
    rigid_generator,
    strain_of,
    translation_killing_approx,
    translation_killing_gradient,
    translation_to,
)
from references import killing_frame, rigid_velocity

R_VALUES = (-1.0, -0.25, 0.0, 0.25, 1.0)

coords = st.floats(min_value=-0.45, max_value=0.45, allow_nan=False)
points = st.tuples(coords, coords).map(np.array)


# ----------------------------------------------------------------- metric
# The metric and its Christoffel symbols, as references: no library path uses them.


def metric_at(surface: Surface, p) -> np.ndarray:
    """Metric components g_ij = delta_ij / (1 + R|z|^2)^2 at a chart point."""
    a = surface.require_inside(p)
    u = surface.conformal(a)
    g = np.zeros(a.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0 / u**2
    g[..., 1, 1] = 1.0 / u**2
    return g


def christoffel_at(surface: Surface, p) -> np.ndarray:
    """Christoffel symbols Gamma[i, j, k] = Gamma^i_jk of the chart metric.

    For a conformal metric exp(2 phi) delta with phi = -log(1 + R|z|^2) the
    symbols follow the standard 2D pattern built from the partials of phi.
    """
    a = surface.require_inside(p)
    u = surface.conformal(a)
    px = -2.0 * surface.R * a[..., 0] / u
    py = -2.0 * surface.R * a[..., 1] / u
    G = np.zeros(a.shape[:-1] + (2, 2, 2))
    G[..., 0, 0, 0] = px
    G[..., 0, 0, 1] = py
    G[..., 0, 1, 0] = py
    G[..., 0, 1, 1] = -px
    G[..., 1, 0, 0] = -py
    G[..., 1, 0, 1] = px
    G[..., 1, 1, 0] = px
    G[..., 1, 1, 1] = py
    return G


def test_metric_flat_is_identity():
    s = Surface(0.0)
    for p in [(0, 0), (3, -2), (0.5, 0.1)]:
        assert np.allclose(metric_at(s, p), np.eye(2))


def test_metric_origin_is_identity_any_R():
    for R in R_VALUES:
        assert np.allclose(metric_at(Surface(R), (0, 0)), np.eye(2))


def test_metric_sphere_value():
    g = metric_at(Surface(1.0), (1.0, 0.0))
    assert np.allclose(g, 0.25 * np.eye(2), atol=1e-15)


def test_metric_outside_hyperbolic_domain_raises():
    s = Surface(-1.0)
    with pytest.raises(ChartDomainError):
        metric_at(s, (1.0, 0.2))


# ------------------------------------------------------------ christoffel


def test_christoffel_vanishes_at_origin_and_flat():
    for R in R_VALUES:
        assert np.allclose(christoffel_at(Surface(R), (0, 0)), 0.0)
    assert np.allclose(christoffel_at(Surface(0.0), (0.7, -0.3)), 0.0)


def test_christoffel_sphere_values():
    G = christoffel_at(Surface(1.0), (0.5, 0.0))
    assert G[0, 0, 0] == pytest.approx(-0.8, abs=1e-14)
    assert G[0, 1, 1] == pytest.approx(0.8, abs=1e-14)
    assert G[1, 0, 1] == pytest.approx(-0.8, abs=1e-14)


def _christoffel_fd(surface, p, h=1e-6):
    p = np.asarray(p, dtype=float)
    dg = np.empty((2, 2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        dg[j] = (metric_at(surface, p + e) - metric_at(surface, p - e)) / (2 * h)
    ginv = np.linalg.inv(metric_at(surface, p))
    out = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j, k] = 0.5 * sum(
                    ginv[i, l] * (dg[j, l, k] + dg[k, l, j] - dg[l, j, k]) for l in range(2)
                )
    return out


def test_christoffel_matches_finite_difference_oracle():
    rng = np.random.default_rng(7)
    for R in (-0.6, 0.9):
        s = Surface(R)
        for _ in range(5):
            p = rng.uniform(-0.4, 0.4, size=2)
            assert np.allclose(christoffel_at(s, p), _christoffel_fd(s, p), atol=1e-7)


def test_christoffel_symmetric_in_lower_indices():
    G = christoffel_at(Surface(-0.5), (0.3, 0.2))
    assert np.allclose(G, np.swapaxes(G, 1, 2))


# -------------------------------------------------------------- curvature


def _curvature_fd(surface, p, h=1e-4):
    # K = -exp(-2 phi) Lap(phi) with a five-point Laplacian of the log factor
    def phi(q):
        return -np.log(surface.conformal(q))

    p = np.asarray(p, dtype=float)
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    lap = (phi(p + ex) + phi(p - ex) + phi(p + ey) + phi(p - ey) - 4 * phi(p)) / h**2
    return -np.exp(-2 * phi(p)) * lap


@pytest.mark.parametrize("R,expected", [(0.0, 0.0), (1.0, 4.0), (-0.25, -1.0)])
def test_gaussian_curvature_values(R, expected):
    assert gaussian_curvature(Surface(R)) == pytest.approx(expected, abs=1e-12)


def test_gaussian_curvature_matches_fd_laplacian():
    for R in (-0.8, 0.5, 1.0):
        s = Surface(R)
        for p in [(0.0, 0.0), (0.2, -0.3), (0.4, 0.1)]:
            assert gaussian_curvature(s, p) == pytest.approx(_curvature_fd(s, p), abs=2e-5)
            assert gaussian_curvature(s, p) == pytest.approx(4 * R, rel=1e-12, abs=1e-15)


# --------------------------------------------------------------- distance


def test_distance_zero_iff_same_point():
    s = Surface(0.7)
    assert geodesic_distance(s, (0.2, 0.1), (0.2, 0.1)) == 0.0


def test_distance_flat_is_euclidean():
    s = Surface(0.0)
    assert geodesic_distance(s, (1, 2), (4, 6)) == pytest.approx(5.0, abs=1e-15)


def _radial_integral(R, r, n=200001):
    t = np.linspace(0.0, r, n)
    f = 1.0 / (1.0 + R * t * t)
    from scipy.integrate import simpson

    return simpson(f, x=t)


@pytest.mark.parametrize("R,r", [(1.0, 0.8), (-0.5, 0.6), (0.3, 1.2)])
def test_distance_radial_matches_line_integral(R, r):
    s = Surface(R)
    d = geodesic_distance(s, (0, 0), (r, 0))
    assert d == pytest.approx(_radial_integral(R, r), abs=1e-10)
    if R > 0:
        assert d == pytest.approx(np.arctan(np.sqrt(R) * r) / np.sqrt(R), abs=1e-14)


def _shooting_length(surface, p, q):
    """Independent oracle: unit-speed geodesic shooting with angle search."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import minimize_scalar

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def ode(t, y):
        pos, vel = y[:2], y[2:]
        G = christoffel_at(surface, pos)
        acc = -np.einsum("ijk,j,k->i", G, vel, vel)
        return np.concatenate([vel, acc])

    speed = surface.conformal(p)  # chart speed of a unit-metric-speed ray
    t_max = 4.0 * np.linalg.norm(q - p) + 0.5

    def closest(angle):
        v0 = speed * np.array([np.cos(angle), np.sin(angle)])
        sol = solve_ivp(ode, (0, t_max), np.concatenate([p, v0]),
                        rtol=1e-11, atol=1e-12, dense_output=True)
        ts = np.linspace(0, t_max, 4000)
        traj = sol.sol(ts)[:2].T
        i = int(np.argmin(np.linalg.norm(traj - q, axis=1)))
        res = minimize_scalar(
            lambda t: np.linalg.norm(sol.sol(t)[:2] - q),
            bounds=(max(ts[max(i - 1, 0)], 0.0), ts[min(i + 1, len(ts) - 1)]),
            method="bounded",
            options={"xatol": 1e-13},
        )
        return res.fun, res.x

    guess = np.arctan2(q[1] - p[1], q[0] - p[0])
    best = minimize_scalar(lambda a: closest(a)[0], bounds=(guess - 0.8, guess + 0.8),
                           method="bounded", options={"xatol": 1e-11})
    miss, t_hit = closest(best.x)
    assert miss < 1e-7
    return t_hit


@pytest.mark.parametrize("R", [0.7, -0.5])
def test_distance_matches_shooting_oracle(R):
    s = Surface(R)
    p, q = np.array([0.1, -0.2]), np.array([0.45, 0.3])
    assert geodesic_distance(s, p, q) == pytest.approx(_shooting_length(s, p, q), abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(points, points, points)
def test_distance_symmetry_and_triangle(p, q, r):
    s = Surface(-0.9)
    dpq = geodesic_distance(s, p, q)
    assert dpq == pytest.approx(geodesic_distance(s, q, p), abs=1e-14)
    assert dpq <= geodesic_distance(s, p, r) + geodesic_distance(s, r, q) + 1e-12


# --------------------------------------------------------- killing fields


def test_killing_field_values():
    flat = killing_fields(Surface(0.0))
    assert np.allclose(flat[0]((3.0, -1.0)), [1.0, 0.0])
    sphere = killing_fields(Surface(1.0))
    assert np.allclose(sphere[0]((0, 0)), [1.0, 0.0])
    assert np.allclose(sphere[2]((0, 0)), [0.0, 0.0])
    assert np.allclose(sphere[0]((0.2, 0.1)), [1.03, 0.04])


@pytest.mark.parametrize("R", R_VALUES)
def test_killing_frame_matches_closed_forms(R):
    s = Surface(R)
    pts = np.random.default_rng(4).uniform(-0.45, 0.45, (3, 5, 2))
    x, y = pts[..., 0], pts[..., 1]
    expected = np.stack([
        np.stack([1.0 + R * (x * x - y * y), 2.0 * R * x * y], axis=-1),
        np.stack([2.0 * R * x * y, 1.0 + R * (y * y - x * x)], axis=-1),
        np.stack([-y, x], axis=-1),
    ])
    frame = killing_frame(s, pts)
    assert np.max(np.abs(frame - expected)) <= 2 * np.spacing(np.max(np.abs(expected)))
    for a, xi in enumerate(killing_fields(s)):
        assert np.max(np.abs(xi(pts) - frame[a])) <= 2 * np.spacing(np.max(np.abs(expected)))
        assert np.array_equal(xi(pts[1, 2]), xi(pts)[1, 2])


@pytest.mark.parametrize("R", R_VALUES)
def test_rigid_field_matches_closed_forms(R):
    # tau . xi against the real closed forms tau1 xi1 + tau2 xi2 + tau3 xi3
    s = Surface(R)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.45, 0.45, (4, 6, 2))
    x, y = pts[..., 0], pts[..., 1]
    d, e = R * (x * x - y * y), 2.0 * R * x * y
    xi = np.stack([np.stack([1.0 + d, e], -1), np.stack([e, 1.0 - d], -1), np.stack([-y, x], -1)])
    for tau in [*np.eye(3), *rng.uniform(-1.0, 1.0, (4, 3))]:
        terms = tau[:, None, None, None] * xi
        got = rigid_field(s, tau)(pts)
        assert np.max(np.abs(got - terms.sum(axis=0))) <= 2 * np.spacing(np.max(np.abs(terms)))
        assert np.array_equal(rigid_field(s, tau)(pts[2, 3]), got[2, 3])


@pytest.mark.parametrize("R", R_VALUES)
def test_rigid_field_gradient_matches_central_differences(R):
    s = Surface(R)
    rng = np.random.default_rng(6)
    h = 1e-5
    for tau in rng.uniform(-1.0, 1.0, (4, 3)):
        w = rigid_field(s, tau)
        for p in rng.uniform(-0.4, 0.4, (5, 2)):
            fd = np.stack([(w(p + h * e) - w(p - h * e)) / (2.0 * h) for e in np.eye(2)])
            assert np.max(np.abs(w.gradient(p) - fd)) < 1e-9
        assert w.gradient(rng.uniform(-0.4, 0.4, (3, 5, 2))).shape == (3, 5, 2, 2)


def test_rigid_field_is_linear_exactly_without_translation():
    for R in R_VALUES:
        s = Surface(R)
        rot = rigid_field(s, [0.0, 0.0, 0.7])
        assert np.array_equal(rot.linear_matrix, [[0.0, -0.7], [0.7, 0.0]])
        p = np.array([[0.3, -0.2], [0.1, 0.4]])
        assert np.array_equal(rot(p), p @ rot.linear_matrix.T)
        for tau in ([1e-300, 0.0, 0.7], [0.0, -2.0, 0.0], [0.5, 0.5, 0.0]):
            assert rigid_field(s, tau).linear_matrix is None


@pytest.mark.parametrize("R", R_VALUES)
def test_batched_rigid_velocity_equals_single_tau_calls(R):
    s = Surface(R)
    rng = np.random.default_rng(7)
    tau = rng.uniform(-1.0, 1.0, (2, 4, 3))
    z = complex_view(rng.uniform(-0.4, 0.4, (2, 4, 9, 2)))
    got = rigid_velocity(s, tau, z)
    assert got.shape == (2, 4, 9, 1)
    for i in range(2):
        for j in range(4):
            assert np.array_equal(rigid_velocity(s, tau[i, j], z[i, j]), got[i, j])


@pytest.mark.parametrize("R", [-1.0, -0.25, 0.0, 0.3, 1.0])
def test_killing_table_is_rigid_velocity(R):
    # the table at R, contracted with the field monomials 1, x, y, x^2, xy and y^2,
    # gives the Killing fields of the Moebius form at unit tau
    x, y = np.random.default_rng(11).uniform(-0.6, 0.6, (2, 50))
    table = killing_coefficients(R)
    got = np.einsum("aij,jn->ani", table, np.stack([np.ones(50), x, y, x * x, x * y, y * y]))
    want = rigid_velocity(Surface(R), np.eye(3), complex_view(np.stack([x, y], -1))).view(float)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert table.shape == (3, 2, 6) and not table.flags.writeable and killing_coefficients(R) is table


def test_rotation_field_residual_exact_flat():
    s = Surface(0.0)
    rot = killing_fields(s)[2]
    assert killing_residual(s, rot, (0.7, -0.4)) == 0.0


def test_non_killing_field_has_strain():
    s = Surface(1.0)
    f = linear_field(np.array([[1.0, 0.0], [0.0, 0.0]]))  # x d/dx
    assert killing_residual(s, f, (0.3, 0.0)) > 0.1


def _christoffel_strain(surface, f, p):
    """The symmetrized covariant gradient (nabla_j w_k + nabla_k w_j) / 2 of w = g . f, from christoffel_at."""
    a = np.asarray(p, dtype=float)
    u = surface.conformal(a)
    v, dv = f(a), f.gradient(a)  # dv[..., j, k] = d_j v^k
    w = v / u[..., None] ** 2
    du = 2.0 * surface.R * a
    dw = dv / u[..., None, None] ** 2 - 2.0 * v[..., None, :] * du[..., :, None] / u[..., None, None] ** 3
    nw = dw - np.einsum("...ljk,...l->...jk", christoffel_at(surface, a), w)
    return 0.5 * (nw + np.swapaxes(nw, -1, -2))


@pytest.mark.parametrize("R", R_VALUES)
def test_strain_is_the_christoffel_symmetrized_gradient(R):
    # strain_of's closed form (half the Lie derivative of the metric) against
    # the covariant-derivative definition, on rigid, linear and projected fields
    s = Surface(R)
    rng = np.random.default_rng(17)
    p = rng.uniform(-0.6, 0.6, (64, 2))
    body = Body(masses=rng.uniform(0.5, 2.0, 5), positions=rng.uniform(-0.4, 0.4, (5, 2)))
    fields = [rigid_field(s, rng.uniform(-1.0, 1.0, 3)), linear_field(rng.uniform(-1.0, 1.0, (2, 2))),
              project_gauge(body, s, linear_field(rng.uniform(-1.0, 1.0, (2, 2))))]
    for f in fields:
        want = _christoffel_strain(s, f, p)
        assert np.max(np.abs(strain_of(s, f, p) - want)) <= 5e-14 * max(1.0, float(np.max(np.abs(want))))


# ------------------------------------------------------------- one-forms


def test_one_form_flat_translation_is_dx():
    s = Surface(0.0)
    assert np.allclose(killing_one_form(s, 1, (2.0, 5.0)), [1.0, 0.0])


def test_one_form_closed_form_agreement():
    # lowering the field must equal (Re A, Im A) with A = (1 + R z^2)/u^2
    rng = np.random.default_rng(3)
    for R in (1.0, -0.5):
        s = Surface(R)
        for _ in range(10):
            p = rng.uniform(-0.4, 0.4, size=2)
            z = p[0] + 1j * p[1]
            A = (1 + R * z * z) / (1 + R * abs(z) ** 2) ** 2
            assert np.allclose(killing_one_form(s, 1, p), [A.real, A.imag], atol=1e-12)


def test_one_form_bad_index():
    with pytest.raises(ValueError):
        killing_one_form(Surface(1.0), 4, (0, 0))


# ------------------------------------------------------------- two-forms


def test_two_forms_flat():
    s = Surface(0.0)
    pts = np.array([[0.3, 0.4], [-1.0, 2.0]])
    assert np.all(killing_two_forms(s, pts)[0] == 0.0)
    assert np.all(killing_two_forms(s, pts)[1] == 0.0)
    assert np.all(killing_two_forms(s, pts)[2] == 2.0)


@pytest.mark.parametrize("R", R_VALUES)
def test_two_forms_in_one_pass_match_closed_forms(R):
    s = Surface(R)
    pts = np.random.default_rng(7).uniform(-0.45, 0.45, (4, 6, 2))
    x, y = pts[..., 0], pts[..., 1]
    u = 1.0 + R * (x * x + y * y)
    c = killing_two_forms(s, pts)
    assert np.array_equal(c[0], 8.0 * R * y / u**3)
    assert np.array_equal(c[1], -8.0 * R * x / u**3)
    assert np.array_equal(c[2], 2.0 * (1.0 - R * (x * x + y * y)) / u**3)
    assert np.array_equal(killing_two_forms(s, pts[0, 0]), c[:, 0, 0])


def test_two_forms_outside_hyperbolic_domain_raise():
    with pytest.raises(ChartDomainError):
        killing_two_forms(Surface(-1.0), np.array([[0.1, 0.2], [0.8, 0.8]]))


def test_two_form_sphere_value():
    val = killing_two_forms(Surface(1.0), (0.0, 0.1))[0]
    assert val == pytest.approx(0.8 / 1.01**3, rel=1e-14)


def test_numeric_exterior_derivative_exact_cases():
    const = lambda p: np.broadcast_to(np.array([1.0, 0.0]), np.shape(p)).copy()
    xdy = lambda p: np.stack([np.zeros(np.shape(p)[:-1]), np.asarray(p)[..., 0]], axis=-1)
    assert numeric_exterior_derivative(const, (0.3, 0.7)) == pytest.approx(0.0, abs=1e-12)
    assert numeric_exterior_derivative(xdy, (0.3, 0.7)) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------- isometries


def test_exp_rigid_zero_is_identity():
    g = exp_rigid(Surface(1.0), (0, 0, 0))
    assert (g.alpha, g.beta) == (1.0, 0.0)


def test_exp_rigid_flat_translation():
    g = exp_rigid(Surface(0.0), (0.3, -0.2, 0))
    assert np.allclose(g((1.0, 1.0)), [1.3, 0.8], atol=1e-15)


def test_exp_rigid_matches_ode_oracle():
    from scipy.integrate import solve_ivp

    for R, tau in [(1.0, (0.4, 0.0, 0.0)), (-1.0, (0.1, -0.2, 0.3)), (0.5, (0.0, 0.3, -0.4))]:
        s = Surface(R)
        ks = killing_fields(s)

        def ode(t, y):
            return sum(tau[i] * ks[i](y) for i in range(3))

        p0 = np.array([0.05, -0.1])
        sol = solve_ivp(ode, (0.0, 1.0), p0, rtol=1e-12, atol=1e-14)
        assert np.allclose(exp_rigid(s, tau)(p0), sol.y[:, -1], atol=1e-9)


def _matrix(g):
    return np.array([[g.alpha, g.beta], [-g.R * np.conj(g.beta), np.conj(g.alpha)]])


@pytest.mark.parametrize("size", [1e-7, 0.999, 1.001, 3.0])
@pytest.mark.parametrize("R, sign", [(-1.0, 1.0), (-1.0, -1.0), (0.0, -1.0), (1.0, -1.0)])
def test_exp_rigid_matches_expm(R, sign, size):
    # the generator squares to q I with q = -(theta^2 + R |tau1 + i tau2|^2);
    # |q| = size lands on both sides of the series switch at |q| = 1
    from scipy.linalg import expm

    theta2, b2 = {(-1.0, 1.0): (0.5, 1.5), (-1.0, -1.0): (1.5, 0.5), (0.0, -1.0): (1.0, 0.3),
                  (1.0, -1.0): (0.5, 0.5)}[(R, sign)]
    tau = np.array([0.6 * np.sqrt(b2 * size), 0.8 * np.sqrt(b2 * size), 2.0 * np.sqrt(theta2 * size)])
    s = Surface(R)
    assert -(0.25 * tau[2] ** 2 + R * (tau[0] ** 2 + tau[1] ** 2)) == pytest.approx(sign * size, rel=1e-12)
    ref = expm(rigid_generator(s, tau))
    assert np.max(np.abs(_matrix(exp_rigid(s, tau)) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_composition_and_inverse():
    # the product of the 2x2 representations acts as the composition (the
    # integrator accumulates its rigid motion so), and exp_rigid(-tau)
    # inverts exp_rigid(tau)
    s = Surface(-0.7)
    g = exp_rigid(s, (0.2, 0.1, -0.3))
    h = translation_to(s, (0.15, -0.2))
    p = np.array([0.1, 0.2])
    gh = _matrix(g) @ _matrix(h)
    assert np.allclose(Isometry(gh[0, 0], gh[0, 1], s.R)(p), g(h(p)), atol=1e-14)
    e = Isometry(*(_matrix(g) @ _matrix(exp_rigid(s, (-0.2, -0.1, 0.3))))[0], s.R)
    assert abs(e.alpha - 1.0) < 1e-14 and abs(e.beta) < 1e-14
    assert np.allclose(exp_rigid(s, (-0.2, -0.1, 0.3))(g(p)), p, atol=1e-14)


def _copied_complex(p):
    a = np.asarray(p, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _mobius(g, z):
    z = np.asarray(z, dtype=complex)
    return (g.alpha * z + g.beta) / (-g.R * np.conj(g.beta) * z + np.conj(g.alpha))


@pytest.mark.parametrize("R", R_VALUES)
def test_isometry_call_equals_the_copying_conversions(R):
    rng = np.random.default_rng(3)
    g = exp_rigid(Surface(R), (0.2, -0.1, 0.7))
    big = rng.uniform(-0.4, 0.4, (6, 4, 2))
    inputs = [big[0, 0], big[0], big, big[::2], big.transpose(1, 0, 2), np.asfortranarray(big[1]),
              big[..., ::-1], big[0].tolist()]
    for p in inputs:
        a = np.asarray(p)
        before = a.copy()
        out = g(p)
        z = _mobius(g, _copied_complex(p))
        assert np.array_equal(out, np.stack([z.real, z.imag], axis=-1))
        assert out.shape == a.shape and out.dtype == np.float64
        assert np.array_equal(a, before) and not np.shares_memory(out, a)


@pytest.mark.parametrize("R", [np.nan, np.inf, -np.inf])
def test_surface_rejects_non_finite_R(R):
    with pytest.raises(ValueError, match="finite"):
        Surface(R)


@pytest.mark.parametrize("R", [1e-310, -1e-310, 5e-324])
def test_surface_rejects_subnormal_R(R):
    # the oracle divides by R, and a subnormal R has no finite reciprocal:
    # integrate used to exit 3 on a NaN increment at R = 1e-310
    expected = rf"smallest normal float 2\.2250738585072014e-308 in magnitude, got {re.escape(repr(R))}$"
    with pytest.raises(ValueError, match=expected):
        Surface(R)


@pytest.mark.parametrize("R", [0.0, -0.0, sys.float_info.min, -sys.float_info.min])
def test_surface_accepts_zero_and_normal_R(R):
    assert Surface(R).R == R


@pytest.mark.parametrize("make, message", [
    (lambda: Isometry(0j, 0j, 1.0).normalized(), r"isometry representation degenerate \(non-positive determinant\)"),
    (lambda: linear_field(np.eye(3)), "linear_field needs a 2x2 matrix"),
    (lambda: as_points(np.zeros(3)), r"chart points need a trailing axis of size 2, got shape \(3,\)"),
], ids=["isometry-degenerate", "linear-field-3x3", "points-3"])
def test_malformed_geometry_inputs_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@settings(max_examples=30, deadline=None)
@given(points, points, st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)))
def test_isometry_preserves_distance(p, q, tau):
    for R in (-1.0, 0.0, 1.0):
        s = Surface(R)
        g = exp_rigid(s, tau)
        d0 = geodesic_distance(s, p, q)
        d1 = geodesic_distance(s, g(p), g(q))
        assert abs(d1 - d0) <= 1e-12 * max(d0, 1.0)


def test_isometry_pushforward_scales_correctly():
    # metric pairing of pushed-forward tangents is preserved
    s = Surface(1.0)
    g = exp_rigid(s, (0.3, -0.1, 0.2))
    p = np.array([0.2, 0.1])
    v = np.array([0.5, -0.3])
    q = g(p)
    z = complex_view(p)
    det = abs(g.alpha) ** 2 + g.R * abs(g.beta) ** 2
    dg = det / (-g.R * np.conj(g.beta) * z + np.conj(g.alpha)) ** 2     # the Mobius map's derivative
    w = (dg * complex_view(v)).view(float)
    norm_before = v @ metric_at(s, p) @ v
    norm_after = w @ metric_at(s, q) @ w
    assert norm_after == pytest.approx(norm_before, rel=1e-12)


# ------------------------------------------------- curvature tensor


def test_curvature_tensor_symmetries():
    c = CurvatureTensor.constant_curvature(4.0).components
    assert np.array_equal(c, -np.einsum("jlik->ljik", c))
    assert np.array_equal(c, -np.einsum("jlik->jlki", c))
    assert np.array_equal(c, np.einsum("jlik->ikjl", c))
    assert np.all(c + np.einsum("jlik->jikl", c) + np.einsum("jlik->jkli", c) == 0.0)
    assert c[0, 1, 0, 1] == 4.0
    assert CurvatureTensor.from_surface(Surface(1.0)).components[0, 1, 0, 1] == 4.0


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (1, 1, 1, 1)])
def test_curvature_tensor_is_two_dimensional(shape):
    # bodies live in a two-dimensional chart: a (3,3,3,3) tensor used to fail
    # later with an untyped broadcast error, and a (1,1,1,1) one gave zeros
    with pytest.raises(ValueError, match=r"\(2,2,2,2\)"):
        CurvatureTensor(np.zeros(shape))


@pytest.mark.parametrize("k", [0, 3])
def test_translation_approx_refuses_an_axis_outside_1_and_2(k):
    with pytest.raises(ValueError, match=r"axis index must be in 1\.\.2"):
        translation_killing_approx(CurvatureTensor.constant_curvature(1.0), k)


def test_translation_approx_flat_is_constant():
    flat = CurvatureTensor.constant_curvature(0.0)
    f = translation_killing_approx(flat, 1)
    assert np.allclose(f((0.3, -0.8)), [1.0, 0.0])
    assert np.allclose(f.gradient((0.3, -0.8)), 0.0)
    assert np.allclose(translation_killing_gradient(flat, 1, (0.3, -0.8)), 0.0)


def test_translation_approx_two_form_ratio():
    R = 1.0
    s = Surface(R)
    curv = CurvatureTensor.from_surface(s)

    def curl_from_grad(p):
        g = translation_killing_gradient(curv, 1, p)
        return g[0, 1] - g[1, 0]

    p = np.array([0.0, 0.2])
    assert curl_from_grad(p) == pytest.approx(8 * R * p[1], abs=1e-14)
    r1 = curl_from_grad(p) / killing_two_forms(s, p)[0]
    r2 = curl_from_grad(0.5 * p) / killing_two_forms(s, 0.5 * p)[0]
    assert abs(r2 - 1.0) < 0.3 * abs(r1 - 1.0)


def test_translation_approx_matches_exact_field_to_second_order():
    s = Surface(1.0)
    exact = killing_fields(s)[0]
    approx = translation_killing_approx(CurvatureTensor.from_surface(s), 1)

    def gap(scale):
        p = scale * np.array([0.2, 0.15])
        return np.max(np.abs(exact(p) - approx(p)))

    assert gap(0.5) < 0.3 * gap(1.0)  # quadratic shrinkage
