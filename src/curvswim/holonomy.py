"""The swim equations: net rigid motion produced by an infinitesimal stroke.

For gauge-orthogonal deformation fields u, v driving a small closed loop of
signed area A in control space (counterclockwise positive, u on the first
control axis), the rigid increment dtau solves the linear system

    G . dtau = - <d xi_beta | u, v> A,      beta = 1, 2, 3

where G is the mass-weighted Gram matrix of the Killing fields and the
bracket pairs the exact Killing two-forms with the field pair, summed over
the particles: the curvature times moments of the swimmer, read from the
body frame's tables (body.BodyFrame).  dtau is the right side times the
inverse of G that body.frame forms by body.solve_gram, the oracle's solve,
so both routes refuse the same bodies.  Three evaluation paths:

  * holonomy_general        exact two-forms of the built-in surfaces
                            (swim_increments for one pair: the same solve
                            takes every pair of a set of fields at once)
  * holonomy_small_swimmer  curvature-tensor contraction with the body's
                            mass moments (leading order)
  * holonomy_linear         the same contraction on the gauge-fixed linear
                            matrices, building no field

The latter two agree bitwise; the first differs from them by terms of
relative order |R| L^2, which is the observable small-body error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .body import Body, require_balanced
from .deformation import gauge_fixed_linear_matrix, gauge_pairings
from .errors import GaugeConditionError, NonFiniteResultError
from .fields import VectorField, coefficients_of, product_index
from .geometry import CurvatureTensor, Surface

GAUGE_TOLERANCE = 1e-8
# _PRODUCTS[i, p, q] is the Body.mass_moments index of x^i m_p m_q (x^0 = x, x^1 = y, m the field monomials).
_PRODUCTS = np.stack([product_index(1, 0), product_index(0, 1)])


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
    """Solve the swim equations with the exact two-forms of the surface: swim_increments for the one pair.

    u and v must already satisfy the gauge condition (project first if
    unsure); a residual above GAUGE_TOLERANCE is an error, not a warning,
    because the leading-order derivation relies on it.
    """
    delta, res = swim_increments(body, surface, coefficients_of([u, v]), [(0, 1)], area)
    eigvals = body.frame(surface).eigvals
    return HolonomyResult(delta[0], float(area), float(eigvals[-1] / eigvals[0]), res)


def swim_increments(
    body: Body,
    surface: Surface,
    coefficients: np.ndarray,
    pairs: Sequence[Tuple[int, int]],
    area: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The swim equations for every index pair (i, j) of k fields of coefficients (k, 2, 6), field i on the
    first control axis of a stroke of the given area.

    Returns (delta, res): pair p's rigid increment delta[p], and res, shape
    (k, 3), every field's gauge residuals from one gauge_pairings call.  A
    residual above GAUGE_TOLERANCE raises GaugeConditionError, a NaN one or
    a delta that overflowed NonFiniteResultError, and a Gram matrix that
    body.solve_gram refuses its error.  The right sides are the frame's
    swim_right_side, times its inverse as stacked (1, 3) rows, so delta[p]
    is bitwise the one-pair result.
    """
    C = np.asarray(coefficients, dtype=float)
    res = gauge_pairings(body, surface, C)
    worst = res.max()
    if not worst <= GAUGE_TOLERANCE:     # a NaN residual fails too
        if not np.isfinite(worst):
            raise NonFiniteResultError(f"gauge residuals are not finite: {worst}")
        raise GaugeConditionError(f"deformation fields violate the gauge condition (max residual {worst:.3e} > "
                                  f"{GAUGE_TOLERANCE:.1e}); apply project_gauge first")
    frame = body.frame(surface)
    rhs = frame.swim_right_side(np.take(C, pairs, 0))
    rhs *= -area
    delta = np.matmul(rhs[:, None], frame.inverse)[:, 0]
    if not all(map(math.isfinite, delta.ravel().tolist())):
        raise NonFiniteResultError(f"rigid increment is not finite: {delta}")
    return delta, res


def holonomy_small_swimmer(body: Body, curv: CurvatureTensor, u: VectorField, v: VectorField,
                           area: float) -> np.ndarray:
    """Translation increment of a small balanced swimmer from the curvature.

    Evaluates M dx^k = 2 R[j, l, i, k] (sum_n m_n x_n^i u^j v^l) A, the
    curvature-moment contraction of the stroke.  The factor 2 collapses the
    two orderings of the field pair; exchanging u and v negates the result
    up to round-off, as the einsum then sums the terms in another order.
    The body must pass body.require_balanced.
    """
    require_balanced(body)
    C = coefficients_of([u, v])
    degrees = [2 if any(used[3:]) else int(any(used[1:3])) for used in C.any(1).tolist()]
    return _curvature_contraction(body, curv, C, degrees, area)


def holonomy_linear(body: Body, curv: CurvatureTensor, pair_b: Tuple[int, int], pair_c: Tuple[int, int],
                    area: float) -> np.ndarray:
    """Translation increment for a pair of gauge-fixed linear deformations.

    The linear family makes the particle sums collapse onto the cubic
    moments: with eta_b^j(x) = E_b[j, m] x^m,

        M dx^k = 2 R[j, l, i, k] Q^{i m h} E_b[j, m] E_c[l, h] A.

    This disentangles the ambient space (curvature) from the swimmer
    (moments).  It is holonomy_small_swimmer's contraction on the matrices'
    coefficients, no field built, so the two agree bitwise on
    gauge_fixed_linear_deformation's fields.
    """
    C = np.zeros((2, 2, 6))
    C[:, :, 1:3] = gauge_fixed_linear_matrix(body, *pair_b), gauge_fixed_linear_matrix(body, *pair_c)
    return _curvature_contraction(body, curv, C, (1, 1), area)


def _curvature_contraction(body: Body, curv: CurvatureTensor, C: np.ndarray, degrees, area: float) -> np.ndarray:
    """2 R[j, l, i, k] S(m x^i u^j v^l) A / M for the coefficients C = (u, v), shape (2, 2, 6), of the given
    degrees: their monomials up to each degree, contracted with the body's mass moments of degree
    1 + deg u + deg v (for linear fields the cubic ones, mass_moments(3)[6:]) in one einsum (no BLAS)."""
    du, dv = degrees
    nu, nv = (du + 1) * (du + 2) // 2, (dv + 1) * (dv + 2) // 2
    sums = body.mass_moments(1 + du + dv)[_PRODUCTS[:, :nu, :nv]]
    bracket = np.einsum("jp,lq,ipq,jlik->k", C[0, :, :nu], C[1, :, :nv], sums, curv.components)
    return 2.0 * float(area) * bracket / body.total_mass
