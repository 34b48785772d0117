"""Deformation fields: the linear family and gauge projection.

A deformation field is any vector field with nonzero strain
(geometry.strain_of).  The swimmer's controls multiply such fields, and the
gauge condition <xi_a | eta> = 0 against all Killing fields splits
deformations cleanly from rigid motions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .body import Body, moments, momentum_map
from .errors import DegenerateMomentsError, SingularGramError
from .fields import VectorField, linear_field
from .geometry import Surface, killing_fields, killing_frame

_LINEAR_TAGS = {(1, 1): "linear-11", (1, 2): "linear-12", (2, 2): "linear-22"}


def linear_deformation(j: int, k: int) -> VectorField:
    """Symmetric linear field with 2 eta_(jk) = x^j d_k + x^k d_j.

    The three independent members for d = 2 are (1,1), (2,2) and (1,2).
    """
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError("linear deformation indices must be 1 or 2")
    B = np.zeros((2, 2))
    B[k - 1, j - 1] += 0.5
    B[j - 1, k - 1] += 0.5
    tag = _LINEAR_TAGS.get((min(j, k), max(j, k)), f"linear-{j}{k}")
    return linear_field(B, tag=tag)


def gauge_pairings(body: Body, surface: Surface, values) -> Tuple[np.ndarray, np.ndarray]:
    """Gram matrix and gauge residuals of fields sampled at the particles.

    values stacks k fields evaluated at the body's positions, shape
    (k, N, 2).  Returns, mass-normalized and from one kernel call,

        G[a, b] = <xi_a|xi_b>,  res[k, a] = |<xi_a|f_k>| / (|xi_a| |f_k|).
    """
    M = body.total_mass
    G, mom, ff, _ = momentum_map(body, surface, values)
    G, mom = G / M, mom / M
    fn = np.sqrt(np.maximum(ff / M, 0.0))
    xin = np.sqrt(np.maximum(np.diag(G), 0.0))
    return G, np.abs(mom) / np.maximum(xin * fn[:, None], 1e-300)


def gauge_residuals(body: Body, surface: Surface, f: VectorField) -> np.ndarray:
    """Normalized pairings |<xi_a|f>| / (|xi_a| |f|) against the Killing set."""
    return gauge_pairings(body, surface, f(body.positions)[None])[1][0]


def project_gauge(body: Body, surface: Surface, f: VectorField) -> VectorField:
    """Remove the rigid content of f: subtract xi_a (G^-1)^ab <xi_b|f>.

    The result pairs to zero with every Killing field and carries exactly
    the strain of f.  Each evaluation of the result evaluates f and one
    Killing frame.  Raises SingularGramError when the body cannot see all
    rigid directions (for example a single particle).
    """
    G, mom, _, _ = momentum_map(body, surface, f(body.positions)[None])
    G, mom = G / body.total_mass, mom / body.total_mass
    eigvals = np.linalg.eigvalsh(G)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        rank = int(np.sum(eigvals > 1e-12 * eigvals[-1]))
        raise SingularGramError(
            f"Killing Gram matrix is singular (rank {rank} of {G.shape[0]}); "
            "gauge projection undefined for this body",
            rank=rank,
            eigenvalues=eigvals,
        )
    coeffs = np.linalg.solve(G, mom[0])
    if not np.any(np.abs(coeffs) > 0.0):
        return f
    c1, c2, c3 = (float(c) for c in coeffs)

    def func(p):
        xi = killing_frame(surface, p)
        return f(p) - c1 * xi[0] - c2 * xi[1] - c3 * xi[2]

    grad = None
    if f.grad is not None:
        ks = killing_fields(surface)

        def grad(p):
            g1, g2, g3 = (xi.gradient(p) for xi in ks)
            return f.gradient(p) - c1 * g1 - c2 * g2 - c3 * g3

    return VectorField(func=func, grad=grad, tag=f"gauge({f.tag})")


def gauge_fixed_linear_matrix(body: Body, j: int, k: int) -> np.ndarray:
    """The matrix B of gauge_fixed_linear_deformation(body, j, k), whose field is v = B x."""
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError("linear deformation indices must be 1 or 2")
    q = moments(body)
    q1, q2 = q.q1, q.q2
    scale = max(float(np.max(np.abs(q2))), 1e-300)
    if np.max(np.abs(q1)) > 1e-8 * max(1.0, body.extent) * body.total_mass:
        raise ValueError("body must be balanced (vanishing first moments) first")
    if abs(q2[0, 1]) > 1e-8 * scale:
        raise ValueError("body must be in principal axes (diagonal second moments) first")
    qjj = q2[j - 1, j - 1]
    qkk = q2[k - 1, k - 1]
    denom = qjj + qkk
    if denom <= 1e-14 * scale:
        raise DegenerateMomentsError(
            f"Q^{j}{j} + Q^{k}{k} vanishes; no admissible ({j},{k}) deformation for this body"
        )
    B = np.zeros((2, 2))
    B[k - 1, j - 1] += qkk / denom
    B[j - 1, k - 1] += qjj / denom
    return B


def gauge_fixed_linear_deformation(body: Body, j: int, k: int) -> VectorField:
    """Closed-form gauge-orthogonal linear deformation for a balanced body.

    For a body with vanishing first moments and diagonal second moments the
    tweaked field

        (Q^kk + Q^jj) eta_(jk) = x^j Q^kk d_k + x^k Q^jj d_j

    meets the gauge condition exactly in the flat case and up to curvature
    corrections otherwise.  The diagonal members reduce to x^j d_j.
    """
    return linear_field(gauge_fixed_linear_matrix(body, j, k), tag=f"linear-ort-{j}{k}")


def parse_field_spec(spec, body: Body | None = None) -> VectorField:
    """Build a deformation field from a config entry.

    Accepted forms:
      "linear:jk"            raw symmetric linear field, jk in {11, 22, 12}
      "gauge_linear:jk"      closed-form gauge-fixed member (needs a body)
      {"y_dy": b, "x_dx": c} the axis-scaling family b*y d/dy + c*x d/dx
      {"matrix": [[..],[..]]} arbitrary linear field v = B x
    """
    if isinstance(spec, str):
        head, _, idx = spec.partition(":")
        if head == "linear" and len(idx) == 2 and set(idx) <= {"1", "2"}:
            return linear_deformation(int(idx[0]), int(idx[1]))
        if head == "gauge_linear" and len(idx) == 2 and set(idx) <= {"1", "2"}:
            if body is None:
                raise ValueError("gauge_linear field specs need a body")
            return gauge_fixed_linear_deformation(body, int(idx[0]), int(idx[1]))
        raise ValueError(f"unrecognized field spec {spec!r}")
    if isinstance(spec, dict):
        if "matrix" in spec:
            extra = set(spec) - {"matrix"}
            if extra:
                raise ValueError(f"unexpected keys in matrix field spec: {sorted(extra)}")
            return linear_field(np.asarray(spec["matrix"], dtype=float), tag="linear-matrix")
        if set(spec) <= {"y_dy", "x_dx"} and spec:
            b = float(spec.get("y_dy", 0.0))
            c = float(spec.get("x_dx", 0.0))
            B = np.array([[c, 0.0], [0.0, b]])
            return linear_field(B, tag=f"axis(b={b:g},c={c:g})")
    raise ValueError(f"unrecognized field spec {spec!r}")
