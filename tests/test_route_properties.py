"""Properties of whole routes: the formula (holonomy_general on gauge-projected
fields) and the oracle (composed integrate_stroke), each run end to end."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from curvswim.body import Body, balance, principal_axes
from curvswim.deformation import project_gauge
from curvswim.errors import CurvswimError, SingularGramError
from curvswim.fields import linear_field
from curvswim.geometry import CurvatureTensor, Surface, rotation_about_origin, translation_to
from curvswim.holonomy import holonomy_general, holonomy_linear, holonomy_small_swimmer
from curvswim.integrator import _extract_delta_tau, integrate_stroke, rectangle_stroke, sinusoid_stroke
from test_integrator import reversed_stroke

STROKE = sinusoid_stroke(0.02, 0.02, steps=16)


@st.composite
def _small_swimmers(draw):
    """A balanced body in principal axes with |R| (2 extent)^2 <= 0.1 before balancing, and two raw linear fields.

    R is 0 or of either sign with |R| log-uniform in [1e-6, 1], and a field
    matrix is zero or has its largest entry in [0.5, 1]: both stay far
    from the round-off floors at which integrate_stroke refuses a stroke,
    so the oracle runs on the draws that move the body, and its round-off
    stays within the bounds below, which hold for fields of order 1.
    TINY_R and TINY_FIELDS are the explicit examples that it refuses; both
    routes refuse TINY_R.
    """
    n = draw(st.integers(3, 8))
    unit = st.floats(-1.0, 1.0)
    points = np.array(draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n)))
    masses = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    R = draw(st.just(0.0) | st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-6, 0)))
    size = draw(st.floats(0.01, 1.0))
    extent = max(float(np.max(np.linalg.norm(points, axis=1))), 1e-3)
    points *= size * np.sqrt(0.1 / max(abs(R), 0.05)) / (2.0 * extent)
    surface = Surface(R)
    body = principal_axes(balance(Body(masses=masses, positions=points), surface))
    fields = []
    for m in draw(st.lists(st.lists(unit, min_size=4, max_size=4), min_size=2, max_size=2)):
        peak = max(map(abs, m))
        B = np.reshape(m, (2, 2)) / peak * draw(st.floats(0.5, 1.0)) if peak else np.zeros((2, 2))
        fields.append(linear_field(B))
    return body, surface, fields


def _example(R, scale):
    """A case of _small_swimmers' kind on Surface(R), its fields' largest entry scale."""
    surface = Surface(R)
    body = principal_axes(balance(Body(masses=[1.0, 1.5, 0.5], positions=[[0.1, 0.0], [-0.05, 0.08], [0.0, -0.1]]),
                                  surface))
    matrices = [[1.0, 0.0], [0.0, -0.5]], [[0.0, 1.0], [1.0, 0.0]]
    return body, surface, [linear_field(scale * np.array(m)) for m in matrices]


TINY_R = _example(1e-14, 1.0)       # |R| max r^2 ~ 1e-16: both routes refuse the curvature
TINY_FIELDS = _example(1.0, 1e-12)  # max|B| = 1e-12: integrate_stroke refuses the fields
# R at the smallest normal float, where the formula's translation would be subnormal: both routes refuse it
SUBNORMAL_R = (Body(masses=np.ones(5), positions=[[0.0, -0.19999999999999998]] * 3
                    + [[-0.5, 0.3], [0.4999999999999999, 0.3]]), Surface(2.2250738585072014e-308),
               [linear_field(np.array(m)) for m in ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])])


def _outcome(route):
    """The route's delta_tau as bytes, or the type of the typed error it raised.

    numpy's floating-point warnings are silenced, as the CLI silences them:
    an overflow must show as a typed error.
    """
    try:
        with np.errstate(all="ignore"):
            delta_tau = route()
    except CurvswimError as exc:
        return type(exc)
    assert np.all(np.isfinite(delta_tau))
    return delta_tau.tobytes()


@settings(max_examples=40, deadline=None)
@given(_small_swimmers())
@example(TINY_R)
@example(TINY_FIELDS)
@example(SUBNORMAL_R)
def test_mass_scaling_leaves_both_routes_bitwise_unchanged(case):
    # every particle sum scales by exactly 2^k, and both routes solve a Gram
    # system whose matrix and right side scale together.  That holds while
    # no sum the routes form is subnormal, where 2^k rounds: so coordinates
    # and field entries below 1e-30 are set to 0 here (a field entry of
    # 4.6e-296 on a collinear body breaks it).  |R| near the smallest normal
    # float (SUBNORMAL_R) is below the round-off floor, which both routes
    # refuse at every mass scale.
    body, surface, fields = case

    def domain(a):
        return np.where(np.abs(a) < 1e-30, 0.0, a)

    body = Body(masses=body.masses, positions=domain(body.positions))
    fields = [linear_field(domain(f.linear_matrix)) for f in fields]

    def formula(b):
        u, v = (project_gauge(b, surface, f) for f in fields)
        return holonomy_general(b, surface, u, v, STROKE.signed_area).delta_tau

    def oracle(b):
        return integrate_stroke(b, surface, fields, STROKE).delta_tau

    for route in (formula, oracle):
        expected = _outcome(lambda: route(body))
        for k in range(-8, 9):
            scaled = Body(masses=body.masses * 2.0**k, positions=body.positions)
            assert _outcome(lambda: route(scaled)) == expected


def _scaled_outcome(route, body, surface, lam):
    """_outcome of the route on body.scaled(lam) on Surface(R / lam^2), the
    translation divided by lam, or the type of the typed error it raised."""
    try:
        with np.errstate(all="ignore"):
            delta_tau = route(body.scaled(lam), Surface(surface.R / lam**2))
    except CurvswimError as exc:
        return type(exc)
    assert np.all(np.isfinite(delta_tau))
    return np.append(delta_tau[:2] / lam, delta_tau[2])


@settings(max_examples=25, deadline=None)
@given(_small_swimmers())
@example(TINY_R)
def test_scaling_covariance_of_both_routes(case):
    # Scaling the chart by lam and the curvature by 1 / lam^2 scales the
    # metric by lam^2: the translation scales by lam and the rotation stays.
    # Both routes sum the kernel's moments up to fourth order, so a scaled
    # run rounds differently.  Against lam = 1, in units of area max|B|^2
    # (times the extent for translations), 600 draws of this strategy at
    # lam = 1e-3 ... 1e3 read at most 1.7e-14 on the formula and 7.7e-13 on
    # the 16-step oracle.  Two kinds of draw are left out, since a check
    # can pass at one scale and fail at another: fields left nearly rigid
    # on the body by its shape, whose projection is round-off for the gauge
    # check (FOUND in CHANGES.md), and Gram matrices whose eigenvalue ratio,
    # which scales as lam^2 or 1 / lam^2, would cross solve_gram's 1e-12
    # cutoff at lam = 1e-3 or 1e3 (ROADMAP item 5).  R r^2 does not change
    # with lam, but R / lam^2 must stay a normal float, as Surface refuses
    # a subnormal R (the oracle divides by R).  Fields with every entry
    # below 1e-3 are left out too: their net motion, of order area
    # max|B|^2, can sink toward the subnormal range.
    body, surface, fields = case
    assume(surface.R == 0.0 or abs(surface.R) >= 1e-290)
    refused = False
    try:
        eigvals = body.frame(surface).eigvals
    except SingularGramError:
        eigvals = None
    except CurvswimError:
        # |R| max r^2 below the round-off floor, which lam leaves unchanged: both routes refuse every scale
        refused = True
    if not refused:
        assume(eigvals is not None and eigvals[0] > 1e-5 * eigvals[-1])
        for f in fields:
            raw, projected = f(body.positions), project_gauge(body, surface, f)(body.positions)
            assume(body.masses @ np.sum(projected**2, -1) > 1e-6 * (body.masses @ np.sum(raw**2, -1)))
    gross = max(float(np.max(np.abs(f.linear_matrix))) for f in fields)
    assume(gross >= 1e-3)
    unit = STROKE.signed_area * gross**2

    def formula(b, s):
        u, v = (project_gauge(b, s, f) for f in fields)
        return holonomy_general(b, s, u, v, STROKE.signed_area).delta_tau

    def oracle(b, s):
        return integrate_stroke(b, s, fields, STROKE).delta_tau

    for route, bound in ((formula, 2e-13), (oracle, 1e-11)):
        expected = _scaled_outcome(route, body, surface, 1.0)
        for k in range(-3, 4):
            got = _scaled_outcome(route, body, surface, 10.0**k)
            if isinstance(expected, type) or isinstance(got, type):
                assert got is expected
                continue
            assert np.hypot(*(got[:2] - expected[:2])) <= bound * unit * body.extent
            assert abs(got[2] - expected[2]) <= bound * unit


def _rotated_outcome(route, body, surface, fields, theta):
    """The route's delta_tau on the body rotated about the origin by theta, with each field
    matrix conjugated by the rotation, its translation turned back by -theta; or the type
    of the typed error it raised."""
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    turned = Body(masses=body.masses, positions=body.positions @ Q.T)
    turned_fields = [linear_field(Q @ f.linear_matrix @ Q.T) for f in fields]
    try:
        with np.errstate(all="ignore"):
            delta_tau = route(turned, surface, turned_fields)
    except CurvswimError as exc:
        return type(exc)
    assert np.all(np.isfinite(delta_tau))
    return np.append(Q.T @ delta_tau[:2], delta_tau[2])


@settings(max_examples=40, deadline=None)
@given(_small_swimmers(), st.floats(-np.pi, np.pi))
@example(TINY_R, 0.5)
@example(TINY_FIELDS, 0.5)
def test_rotation_equivariance_of_both_routes(case, theta):
    # A rotation about the origin is an isometry for every R, and a linear
    # field B x conjugated to Q B Q^T is the rotated field.  Both routes turn
    # the translation by theta and keep the rotation, up to round-off of the
    # rotated body.  Draws whose net motion is itself round-off are left
    # out: a formula increment below 1e-4 of area max|B|^2, the
    # stroke-reversal property's floor (a zero or rigid field, which the
    # projection makes the zero field, two dependent fields, or |R| near the
    # subnormal range); below it the oracle's round-off on a nearly collinear
    # body can pass the 1e-8 bound.  300 draws read at most 2.2e-10 of
    # max|delta_tau| on the 16-step oracle and 1.1e-13 on the formula.
    body, surface, fields = case

    def formula(b, s, fs):
        u, v = (project_gauge(b, s, f) for f in fs)
        return holonomy_general(b, s, u, v, STROKE.signed_area).delta_tau

    def oracle(b, s, fs):
        return integrate_stroke(b, s, fs, STROKE).delta_tau

    expected = [_rotated_outcome(route, body, surface, fields, 0.0) for route in (formula, oracle)]
    if not isinstance(expected[0], type):
        gross = max(float(np.max(np.abs(f.linear_matrix))) for f in fields)
        assume(np.max(np.abs(expected[0])) >= 1e-4 * STROKE.signed_area * gross**2)
    for route, before in zip((formula, oracle), expected):
        got = _rotated_outcome(route, body, surface, fields, theta)
        if isinstance(before, type) or isinstance(got, type):
            assert got is before
            continue
        scale = max(np.max(np.abs(before)), np.max(np.abs(got)))
        assert np.max(np.abs(got - before)) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(_small_swimmers(), st.permutations([(1, 1), (2, 2), (1, 2)]))
def test_curvature_sign_negates_the_curvature_routes(case, pairs):
    # holonomy_linear and holonomy_small_swimmer contract the curvature
    # tensor, 4R times a fixed tensor, with the body's moments in one order:
    # R -> -R negates every term, so it negates the result to the last bit
    # (a zero may change its sign), or both signs raise the same typed error.
    body, surface, fields = case
    pair_b, pair_c = pairs[:2]      # a pair with itself moves nothing

    def linear(s):
        return holonomy_linear(body, CurvatureTensor.from_surface(s), pair_b, pair_c, STROKE.signed_area)

    def small(s):
        return holonomy_small_swimmer(body, CurvatureTensor.from_surface(s), *fields, STROKE.signed_area)

    for route in (linear, small):
        plus = _outcome(lambda: route(surface))
        minus = _outcome(lambda: route(Surface(-surface.R)))
        if isinstance(plus, type) or isinstance(minus, type):
            assert minus is plus
        else:
            assert np.array_equal(np.frombuffer(minus), -np.frombuffer(plus))


def _moebius_matrix(surface, delta_tau):
    """The matrix [[alpha, beta], [-R conj(beta), conj(alpha)]] of the isometry delta_tau reads:
    the transvection to (dx, dy) after the rotation about the origin by the rotation component."""
    T, Q = (np.array([[g.alpha, g.beta], [-surface.R * np.conj(g.beta), np.conj(g.alpha)]])
            for g in (translation_to(surface, delta_tau[:2]), rotation_about_origin(surface, delta_tau[2])))
    return T @ Q


@settings(max_examples=40, deadline=None)
@given(_small_swimmers())
@example(TINY_R)
def test_stroke_reversal_inverts_the_oracle(case):
    # Run backwards, a stroke retraces its shape loop, so the oracle's
    # isometry is the inverse of the forward one up to RK4's error: the
    # origin's image and the rotation of their composition vanish, or both
    # runs raise the same typed error.  The composition keeps a round-off
    # of a few eps times the stroke's first-order excursion, amplitude
    # max|B|, so draws whose net motion is not far above it are left out:
    # fields with every entry below 1e-3, and a net motion below 1e-4 of
    # area max|B|^2 (a zero field, dependent fields, or one that moves a
    # collinear body only across its line).  1,800 draws of this strategy
    # read at most 7.1e-11 of max|delta_tau| on the 16-step strokes.
    body, surface, fields = case
    gross = max(float(np.max(np.abs(f.linear_matrix))) for f in fields)
    assume(gross >= 1e-3)
    for stroke in (STROKE, rectangle_stroke(0.02, 0.02, steps=16)):
        forward, backward = (_outcome(lambda s=s: integrate_stroke(body, surface, fields, s).delta_tau)
                             for s in (stroke, reversed_stroke(stroke)))
        if isinstance(forward, type) or isinstance(backward, type):
            assert backward is forward
            continue
        fwd, bwd = np.frombuffer(forward), np.frombuffer(backward)
        assume(np.max(np.abs(fwd)) >= 1e-4 * stroke.signed_area * gross**2)
        composed, _ = _extract_delta_tau(_moebius_matrix(surface, bwd) @ _moebius_matrix(surface, fwd), surface.R,
                                          2 * stroke.steps)
        assert np.max(np.abs(composed)) <= 1e-8 * max(np.max(np.abs(fwd)), np.max(np.abs(bwd)))
