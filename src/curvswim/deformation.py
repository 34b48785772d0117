"""Deformation fields: the linear family and gauge projection.

A deformation field is any vector field with nonzero strain
(geometry.strain_of).  The swimmer's controls multiply such fields, and the
gauge condition <xi_a | eta> = 0 against all Killing fields splits
deformations cleanly from rigid motions.
"""

from __future__ import annotations

import math

import numpy as np

from .body import Body, moments, momentum_map, pairing_scale, require_balanced
from .errors import DegenerateMomentsError, NonFiniteResultError
from .fields import VectorField, linear_field
from .geometry import Surface, rigid_field

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


def gauge_pairings(body: Body, surface: Surface, values) -> np.ndarray:
    """Gauge residuals of fields sampled at the particles.

    values stacks k fields evaluated at the body's positions, shape
    (k, N, 2).  Returns, from one kernel call on the body's frame (so the
    Gram matrix is the cached one), each pairing over its scale
    (body.pairing_scale),

        res[k, a] = |<xi_a|f_k>| / (|xi_a| |f_k|).
    """
    G, mom, ff = momentum_map(body, surface, values)
    return np.abs(mom) / np.maximum(pairing_scale(G, ff), 1e-300)


def gauge_residuals(body: Body, surface: Surface, f: VectorField) -> np.ndarray:
    """Normalized pairings |<xi_a|f>| / (|xi_a| |f|) against the Killing set."""
    return gauge_pairings(body, surface, f(body.positions)[None])[0]


def gauge_coefficients(body: Body, surface: Surface, values) -> np.ndarray:
    """The rigid content c = G^-1 <xi|f>, shape (k, 3), of k fields sampled at the particles, shape (k, N, 2).

    One kernel call on the body's frame, then c = (<xi|f> / M) . inverse (the frame's inverse of G/M)
    as stacked (1, 3) rows, so c[k] is bitwise field k's alone.  A body that body.solve_gram refuses
    raises its error, a c that is not finite NonFiniteResultError.
    """
    _, mom, _ = momentum_map(body, surface, values)
    c = np.matmul(mom[:, None] / body.total_mass, body.frame(surface).inverse)[:, 0]
    if not all(map(math.isfinite, c.ravel().tolist())):
        raise NonFiniteResultError(f"gauge projection coefficients are not finite: {c[~np.isfinite(c).all(-1)][0]}")
    return c


def project_gauge(body: Body, surface: Surface, f: VectorField) -> VectorField:
    """Remove the rigid content of f: subtract the rigid field c . xi, c from gauge_coefficients.

    The result pairs to zero with every Killing field and carries exactly
    the strain of f.  Each evaluation of the result (value or gradient)
    evaluates f and one rigid field; f with c all zero is returned itself.
    """
    coeffs = gauge_coefficients(body, surface, f(body.positions)[None])[0]
    if not any(coeffs.tolist()):
        return f
    rigid = rigid_field(surface, coeffs)
    return VectorField(func=lambda p: f(p) - rigid(p), grad=lambda p: f.gradient(p) - rigid.gradient(p),
                       tag=f"gauge({f.tag})")


def gauge_fixed_linear_matrix(body: Body, j: int, k: int) -> np.ndarray:
    """The matrix B of gauge_fixed_linear_deformation(body, j, k), whose field is v = B x.

    Formed on first use for the body and (j, k) and kept with the body
    (body.derived), as one read-only array; a body that fails a test raises
    on every call.
    """
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError("linear deformation indices must be 1 or 2")
    return body.derived(("gauge_fixed_linear_matrix", j, k), lambda: _gauge_fixed_linear_matrix(body, j, k))


def _gauge_fixed_linear_matrix(body: Body, j: int, k: int) -> np.ndarray:
    require_balanced(body)
    q2 = moments(body).q2.tolist()
    scale = max(*map(abs, q2[0] + q2[1]), 1e-300)
    if abs(q2[0][1]) > 1e-8 * scale:
        raise ValueError("body must be in principal axes (diagonal second moments) first")
    qjj = q2[j - 1][j - 1]
    qkk = q2[k - 1][k - 1]
    denom = qjj + qkk
    if denom <= 1e-14 * scale:
        raise DegenerateMomentsError(
            f"Q^{j}{j} + Q^{k}{k} vanishes; no admissible ({j},{k}) deformation for this body"
        )
    B = [[0.0, 0.0], [0.0, 0.0]]
    B[k - 1][j - 1] += qkk / denom
    B[j - 1][k - 1] += qjj / denom
    B = np.array(B)
    B.setflags(write=False)
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
    if isinstance(spec, dict) and "matrix" in spec:
        extra = set(spec) - {"matrix"}
        if extra:
            raise ValueError(f"unexpected keys in matrix field spec: {sorted(extra)}")
        return linear_field(np.asarray(spec["matrix"], dtype=float), tag="linear-matrix")
    raise ValueError(f"unrecognized field spec {spec!r}")
