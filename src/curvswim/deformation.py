"""Deformation fields: the linear family and gauge projection.

A deformation field is any vector field with nonzero strain
(geometry.strain_of).  The swimmer's controls multiply such fields, and the
gauge condition <xi_a | eta> = 0 against all Killing fields splits
deformations cleanly from rigid motions.
"""

from __future__ import annotations

import math

import numpy as np

from .body import Body, pairing_scale, require_balanced
from .errors import DegenerateMomentsError, NonFiniteResultError
from .fields import VectorField, coefficients_of, linear_field
from .geometry import Surface, killing_coefficients

# subtract_rigid's largest |f - c . xi| / |f| read as rigid: the projection leaves <xi_a|f - c . xi> at up to
# 4e-16 |xi_a| |f| (19,800 random and near-collinear draws), so a smaller rest can fail the 1e-8 gauge check.
RIGID_FRACTION = 1e-7
LINEAR_PAIRS = ((1, 1), (2, 2), (1, 2))   # (j, k) of the linear family's members; the registry's draws index it


def linear_deformation(j: int, k: int) -> VectorField:
    """Symmetric linear field with 2 eta_(jk) = x^j d_k + x^k d_j.

    The three independent members for d = 2 are LINEAR_PAIRS.
    """
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError("linear deformation indices must be 1 or 2")
    B = np.zeros((2, 2))
    B[k - 1, j - 1] += 0.5
    B[j - 1, k - 1] += 0.5
    return linear_field(B, tag=f"linear-{min(j, k)}{max(j, k)}")


def gauge_pairings(body: Body, surface: Surface, coefficients) -> np.ndarray:
    """res[k, a] = |<xi_a|f_k>| / (|xi_a| |f_k|) (body.pairing_scale) for k fields of coefficients (k, 2, 6),
    by the body's frame tables; the zero field's residuals read 0."""
    frame = body.frame(surface)
    scale = pairing_scale(frame.gram, frame.square_norm(coefficients))
    return np.abs(frame.momentum(coefficients)) / np.maximum(scale, 1e-300, out=scale)


def gauge_residuals(body: Body, surface: Surface, f: VectorField) -> np.ndarray:
    """Normalized pairings |<xi_a|f>| / (|xi_a| |f|) against the Killing set."""
    return gauge_pairings(body, surface, coefficients_of([f]))[0]


def gauge_coefficients(body: Body, surface: Surface, coefficients) -> np.ndarray:
    """The rigid content c = <xi|f> G^-1, shape (k, 3), of k fields of coefficients (k, 2, 6), as stacked (1, 3)
    rows times the frame's inverse, so c[k] is bitwise field k's alone.  A body that body.solve_gram refuses
    raises its error, a c that is not finite NonFiniteResultError."""
    frame = body.frame(surface)
    c = np.matmul(frame.momentum(coefficients)[:, None], frame.inverse)[:, 0]
    if not all(map(math.isfinite, c.ravel().tolist())):
        raise NonFiniteResultError(f"gauge projection coefficients are not finite: {c[~np.isfinite(c).all(-1)][0]}")
    return c


def subtract_rigid(body: Body, surface: Surface, coefficients: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The coefficients of f_k - c_k . xi, shape (k, 2, 6), c from gauge_coefficients; the exact zero field
    where |f - c . xi| <= RIGID_FRACTION |f| (norms of the body's P), f rigid on the body to round-off."""
    both = np.empty((2,) + coefficients.shape)
    both[1] = coefficients
    np.subtract(coefficients, np.einsum("ka,aij->kij", c, killing_coefficients(surface.R)), both[0])
    uu, ff = body.frame(surface).square_norm(both.reshape(-1, 2, 6)).reshape(2, -1)
    u = both[0]
    u[uu <= RIGID_FRACTION**2 * ff] = 0.0
    return u


def project_fields(body: Body, surface: Surface, fields) -> list:
    """Remove the rigid content of k fields, one gauge_coefficients and one subtract_rigid call for all: each
    result pairs to zero with every Killing field and carries its field's strain; a field with c all zero is itself."""
    C = coefficients_of(fields)
    c = gauge_coefficients(body, surface, C)
    moved = [any(row) for row in c.tolist()]
    if not any(moved):
        return list(fields)
    U = subtract_rigid(body, surface, C, c)
    return [VectorField(u, tag=f"gauge({f.tag})") if m else f for f, u, m in zip(fields, U, moved)]


def project_gauge(body: Body, surface: Surface, f: VectorField) -> VectorField:
    """project_fields of the one field f."""
    return project_fields(body, surface, [f])[0]


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
    qxx, qxy, qyy = body.mass_moments(3)[3:6].tolist()
    scale = max(abs(qxx), abs(qxy), abs(qyy), 1e-300)
    if abs(qxy) > 1e-8 * scale:
        raise ValueError("body must be in principal axes (diagonal second moments) first")
    qjj, qkk = (qxx, qyy)[j - 1], (qxx, qyy)[k - 1]
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


def admissible_linear_deformations(body: Body) -> dict:
    """The gauge-fixed members of LINEAR_PAIRS by pair, less any that raises DegenerateMomentsError."""
    fields = {}
    for pair in LINEAR_PAIRS:
        try:
            fields[pair] = gauge_fixed_linear_deformation(body, *pair)
        except DegenerateMomentsError:
            pass
    return fields


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
