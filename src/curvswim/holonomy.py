"""The swim equations: net rigid motion produced by an infinitesimal stroke.

For gauge-orthogonal deformation fields u, v driving a small closed loop of
signed area A in control space (counterclockwise positive, u on the first
control axis), the rigid increment dtau solves the linear system

    G . dtau = - <d xi_beta | u, v> A,      beta = 1, 2, 3

where G is the mass-weighted Gram matrix of the Killing fields and the
bracket pairs the exact Killing two-forms with the field pair at every
particle.  dtau is the right side times the inverse of G that
body.frame forms once per body and curvature by body.solve_gram, the
oracle's solve, so both routes refuse the same bodies.  Three
evaluation paths are provided:

  * holonomy_general        exact two-forms of the built-in surfaces
                            (swim_increments for one pair: the same solve
                            takes every pair of a set of fields at once)
  * holonomy_small_swimmer  curvature-tensor contraction (leading order)
  * holonomy_linear         same contraction, collapsed onto cubic moments
                            for the closed-form linear deformation family

The latter two agree identically; the first differs from them by terms of
relative order |R| L^2, which is the observable small-body error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .body import Body, moments, particle_sums, require_balanced
from .deformation import gauge_fixed_linear_matrix, gauge_pairings
from .errors import GaugeConditionError, NonFiniteResultError
from .fields import VectorField
from .geometry import CurvatureTensor, Surface

GAUGE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class HolonomyResult:
    """Rigid increment for one stroke, with its Gram condition and gauge residuals.

    delta_tau is ordered (translation-x, translation-y, rotation) and
    already includes the stroke area; per_unit_area divides it back out.
    """

    delta_tau: np.ndarray
    area: float
    gram_condition: float
    gauge_residuals: np.ndarray      # (2, 3): residuals of u and v

    @property
    def per_unit_area(self) -> np.ndarray:
        if self.area == 0.0:
            return np.zeros_like(self.delta_tau)
        return self.delta_tau / self.area

    @property
    def translation(self) -> np.ndarray:
        return self.delta_tau[:2]

    @property
    def rotation(self) -> float:
        return float(self.delta_tau[2])


def holonomy_general(
    body: Body,
    surface: Surface,
    u: VectorField,
    v: VectorField,
    area: float,
) -> HolonomyResult:
    """Solve the swim equations with the exact two-forms of the surface.

    u and v must already satisfy the gauge condition against the Killing
    set (project first if unsure); a residual above GAUGE_TOLERANCE is an
    error, not a warning, because the leading-order derivation relies on it.
    This is swim_increments for the one pair (u, v): gauge residuals or a
    delta_tau that overflowed raise NonFiniteResultError, and a Gram matrix
    that body.solve_gram refuses raises its error, after the gauge check.
    """
    x = body.positions
    delta, res = swim_increments(body, surface, np.stack([u(x), v(x)]), [(0, 1)], area)
    eigvals = body.frame(surface).eigvals
    return HolonomyResult(delta[0], float(area), float(eigvals[-1] / eigvals[0]), res)


def swim_increments(
    body: Body,
    surface: Surface,
    values: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    area: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The swim equations for every index pair of k fields sampled at the particles.

    values stacks the k fields at the body's positions, shape (k, N, 2), and
    each pair (i, j) of pairs drives a stroke of the given area with field i
    on the first control axis.  Returns (delta, res): delta[p], shape
    (len(pairs), 3), is pair p's rigid increment, and res, shape (k, 3),
    the gauge residuals of every field, from one gauge_pairings call.  Any
    residual above GAUGE_TOLERANCE raises GaugeConditionError (a NaN one
    NonFiniteResultError).  Each pair takes the same products and particle
    sums as a call for that pair alone, and the product with the frame's
    inverse is one stacked matmul of (1, 3) rows, a vector-matrix product per
    pair, so every delta[p] is bitwise the one-pair result.
    """
    res = gauge_pairings(body, surface, values)
    worst = np.max(res)
    if not worst <= GAUGE_TOLERANCE:     # a NaN residual fails too
        if not np.isfinite(worst):
            raise NonFiniteResultError(f"gauge residuals are not finite: {worst}")
        raise GaugeConditionError(
            f"deformation fields violate the gauge condition "
            f"(max residual {worst:.3e} > {GAUGE_TOLERANCE:.1e}); "
            "apply project_gauge first"
        )
    # sum_n m_n c(x_n) (u^1 v^2 - u^2 v^1), one row per two-form c and pair (u, v)
    frame = body.frame(surface)
    wedge = np.empty((len(pairs), body.n))
    for p, (i, j) in enumerate(pairs):
        u, v = values[i], values[j]
        np.subtract(u[:, 0] * v[:, 1], u[:, 1] * v[:, 0], wedge[p])
    rhs = -area * np.sum(body.masses * frame.two_forms * wedge[:, None], axis=-1)
    delta = np.matmul(rhs[:, None], frame.inverse)[:, 0]
    if not np.all(np.isfinite(delta)):
        raise NonFiniteResultError(f"rigid increment is not finite: {delta}")
    return delta, res


def holonomy_small_swimmer(
    body: Body,
    curv: CurvatureTensor,
    u: VectorField,
    v: VectorField,
    area: float,
) -> np.ndarray:
    """Translation increment of a small balanced swimmer from the curvature.

    Evaluates M dx^k = 2 R[j, l, i, k] (sum_n m_n x_n^i u^j v^l) A, the
    curvature-moment contraction of the stroke.  The factor 2 collapses the
    two orderings of the field pair; exchanging u and v negates the result.
    The body must pass body.require_balanced.
    """
    require_balanced(body)
    x = body.positions
    # the particle sums first (by the kernel's rule), then the curvature
    moment = particle_sums(body.masses, (x, u(x), v(x)))[2]
    bracket = np.einsum("ijl,jlik->k", moment, curv.components)
    return 2.0 * float(area) * bracket / body.total_mass


def holonomy_linear(
    body: Body,
    curv: CurvatureTensor,
    pair_b: Tuple[int, int],
    pair_c: Tuple[int, int],
    area: float,
) -> np.ndarray:
    """Translation increment for a pair of gauge-fixed linear deformations.

    The linear family makes the particle sums collapse onto the cubic
    moments: with eta_b^j(x) = E_b[j, m] x^m,

        M dx^k = 2 R[j, l, i, k] Q^{i m h} E_b[j, m] E_c[l, h] A.

    This disentangles the ambient space (curvature) from the swimmer
    (moments) and agrees with holonomy_small_swimmer applied to the same
    closed-form fields.
    """
    Eb = gauge_fixed_linear_matrix(body, *pair_b)
    Ec = gauge_fixed_linear_matrix(body, *pair_c)
    q3 = moments(body).q3
    contraction = np.einsum("imh,jm,lh,jlik->k", q3, Eb, Ec, curv.components)
    return 2.0 * float(area) * contraction / body.total_mass
