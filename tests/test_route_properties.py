"""Properties of whole routes: the formula (holonomy_general on gauge-projected
fields) and the oracle (composed integrate_stroke), each run end to end."""

import numpy as np
from hypothesis import given, settings, strategies as st

from curvswim.body import Body, balance, principal_axes
from curvswim.deformation import project_gauge
from curvswim.errors import CurvswimError
from curvswim.fields import linear_field
from curvswim.geometry import Surface
from curvswim.holonomy import holonomy_general
from curvswim.integrator import integrate_stroke, sinusoid_stroke

STROKE = sinusoid_stroke(0.02, 0.02, steps=16)


@st.composite
def _small_swimmers(draw):
    """A balanced body in principal axes with |R| (2 extent)^2 <= 0.1 before balancing, and two raw linear fields."""
    n = draw(st.integers(3, 8))
    unit = st.floats(-1.0, 1.0)
    points = np.array(draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n)))
    masses = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    R = draw(st.floats(-1.0, 1.0))
    size = draw(st.floats(0.01, 1.0))
    extent = max(float(np.max(np.linalg.norm(points, axis=1))), 1e-3)
    points *= size * np.sqrt(0.1 / max(abs(R), 0.05)) / (2.0 * extent)
    surface = Surface(R)
    body = principal_axes(balance(Body(masses=masses, positions=points), surface))
    matrices = draw(st.lists(st.lists(unit, min_size=4, max_size=4), min_size=2, max_size=2))
    return body, surface, [linear_field(np.reshape(m, (2, 2))) for m in matrices]


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
def test_mass_scaling_leaves_both_routes_bitwise_unchanged(case):
    # every particle sum scales by exactly 2^k, and both routes solve a Gram
    # system whose matrix and right side scale together
    body, surface, fields = case

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
