"""The swim equations: net rigid motion produced by an infinitesimal stroke.

For gauge-orthogonal deformation fields u, v driving a small closed loop of
signed area A in control space (counterclockwise positive, u on the first
control axis), the rigid increment dtau solves the linear system

    G . dtau = - <d xi_beta | u, v> A,      beta = 1, 2, 3

where G is the mass-weighted Gram matrix of the Killing fields and the
bracket pairs the exact Killing two-forms with the field pair at every
particle.  Three evaluation paths are provided:

  * holonomy_general        exact two-forms of the built-in surfaces
  * holonomy_small_swimmer  curvature-tensor contraction (leading order)
  * holonomy_linear         same contraction, collapsed onto cubic moments
                            for the closed-form linear deformation family

The latter two agree identically; the first differs from them by terms of
relative order |R| L^2, which is the observable small-body error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .body import Body, moments
from .deformation import gauge_fixed_linear_matrix, gauge_pairings
from .errors import GaugeConditionError, SingularGramError
from .fields import VectorField
from .geometry import CurvatureTensor, Surface, killing_two_forms

GAUGE_TOLERANCE = 1e-8
RANK_CUTOFF = 1e-10
BALANCE_TOLERANCE = 1e-9    # holonomy_small_swimmer: |Q^j| / (M max(1, extent))


@dataclass(frozen=True)
class HolonomyResult:
    """Rigid increment for one stroke, with solver diagnostics.

    delta_tau is ordered (translation-x, translation-y, rotation) and
    already includes the stroke area; per_unit_area divides it back out.
    """

    delta_tau: np.ndarray
    area: float
    gram_condition: float
    gauge_residuals: np.ndarray      # (2, 3): residuals of u and v
    rank: int
    null_directions: Optional[np.ndarray] = None  # (3, n_null) when rank < 3

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
    """
    x = body.positions
    uv = np.stack([u(x), v(x)])
    G, res = gauge_pairings(body, surface, uv)
    if np.max(res) > GAUGE_TOLERANCE:
        raise GaugeConditionError(
            f"deformation fields violate the gauge condition "
            f"(max residual {np.max(res):.3e} > {GAUGE_TOLERANCE:.1e}); "
            "apply project_gauge first"
        )
    # (1/M) sum_n m_n c(x_n) (u^1 v^2 - u^2 v^1), one row per two-form c
    wedge = uv[0, :, 0] * uv[1, :, 1] - uv[0, :, 1] * uv[1, :, 0]
    rhs = -area * (np.sum(body.masses * killing_two_forms(surface, x) * wedge, axis=-1) / body.total_mass)
    eigvals, eigvecs = np.linalg.eigh(G)
    top = max(float(eigvals[-1]), 1e-300)
    keep = eigvals > RANK_CUTOFF * top
    rank = int(np.sum(keep))
    if rank == 0:
        raise SingularGramError("Killing Gram matrix vanishes", rank=0, eigenvalues=eigvals)
    V = eigvecs[:, keep]
    inv = (V / eigvals[keep]) @ V.T
    delta = inv @ rhs
    null = None if rank == G.shape[0] else eigvecs[:, ~keep]
    cond = float(eigvals[-1] / eigvals[keep][0])
    return HolonomyResult(
        delta_tau=delta,
        area=float(area),
        gram_condition=cond,
        gauge_residuals=res,
        rank=rank,
        null_directions=null,
    )


def holonomy_small_swimmer(
    body: Body,
    curv: CurvatureTensor,
    u: VectorField,
    v: VectorField,
    area: float,
) -> np.ndarray:
    """Translation increment of a small balanced swimmer from the curvature.

    Evaluates M dx^k = 2 R[j, l, i, k] (sum_n m_n x_n^i u^j v^l) A, the
    curvature-moment contraction of the stroke, in any dimension matching
    the supplied tensor.  The factor 2 collapses the two orderings of the
    field pair; exchanging u and v negates the result.
    """
    d = curv.dim
    x = body.positions[:, :d]
    q1 = np.einsum("n,ni->i", body.masses, x)
    scale = max(1.0, float(np.max(np.abs(x)))) * body.total_mass
    if np.max(np.abs(q1)) > BALANCE_TOLERANCE * scale:
        raise ValueError(
            f"body is not balanced (|Q^j| = {np.max(np.abs(q1)):.3e}); balance it first"
        )
    uu = u(body.positions)[:, :d]
    vv = v(body.positions)[:, :d]
    # the particle sums first, then the curvature: much cheaper than one five-operand einsum
    moment = np.einsum("n,ni,nj,nl->ijl", body.masses, x, uu, vv)
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
    d = curv.dim
    Eb = gauge_fixed_linear_matrix(body, *pair_b)[:d, :d]
    Ec = gauge_fixed_linear_matrix(body, *pair_c)[:d, :d]
    q3 = moments(body).q3[:d, :d, :d]
    contraction = np.einsum("imh,jm,lh,jlik->k", q3, Eb, Ec, curv.components)
    return 2.0 * float(area) * contraction / body.total_mass
