"""Vector fields on the 2D chart.

A field is a callable taking chart points of shape (..., 2) and returning
tangent components of the same shape, together with an optional closed-form
gradient.  Killing fields, linear deformation fields and anything built from
them by linear combination all share this one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


def as_points(p) -> np.ndarray:
    """Coerce to a float array of chart points with trailing axis (x, y)."""
    a = np.asarray(p, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError(f"chart points need a trailing axis of size 2, got shape {a.shape}")
    return a


def complex_view(p) -> np.ndarray:
    """Points (..., 2) as z = x + iy of shape (..., 1), a view of C-contiguous floats; .view(float) inverts it."""
    return np.ascontiguousarray(as_points(p)).view(complex)


def fd_step(p) -> float:
    """Default central-difference step: 1e-5 scaled by the point magnitude."""
    a = as_points(p)
    return 1e-5 * max(1.0, float(np.max(np.abs(a))))


@dataclass(frozen=True)
class VectorField:
    """A tangent vector field with optional analytic gradient.

    func        maps (..., 2) points to (..., 2) components.
    grad        maps (..., 2) points to (..., 2, 2) partials, indexed
                grad[..., j, k] = d v^k / d x^j.  When absent, central
                differences are used.
    linear_matrix   set when v(x) = B @ x exactly; enables the closed-form
                shape flow used by the stroke integrator.
    """

    func: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tag: str = "custom"
    linear_matrix: Optional[np.ndarray] = None

    def __call__(self, p) -> np.ndarray:
        return np.asarray(self.func(as_points(p)), dtype=float)

    def gradient(self, p) -> np.ndarray:
        pts = as_points(p)
        if self.grad is not None:
            return np.asarray(self.grad(pts), dtype=float)
        return self._fd_gradient(pts)

    def _fd_gradient(self, pts: np.ndarray) -> np.ndarray:
        h = fd_step(pts)
        out = np.empty(pts.shape[:-1] + (2, 2))
        for j in range(2):
            dp = np.zeros_like(pts)
            dp[..., j] = h
            out[..., j, :] = (self(pts + dp) - self(pts - dp)) / (2.0 * h)
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        return combine([self, other], [1.0, 1.0], tag=f"({self.tag}+{other.tag})")

    def __rmul__(self, c: float) -> "VectorField":
        return combine([self], [float(c)], tag=f"({c}*{self.tag})")

    __mul__ = __rmul__


def combine(fields: Sequence[VectorField], coeffs: Sequence[float], tag: str = "combo") -> VectorField:
    """Linear combination sum_i c_i f_i, keeping analytic structure when present."""
    fields = list(fields)
    coeffs = [float(c) for c in coeffs]
    if len(fields) != len(coeffs):
        raise ValueError("one coefficient per field required")

    def func(p):
        acc = coeffs[0] * fields[0](p)
        for c, f in zip(coeffs[1:], fields[1:]):
            acc = acc + c * f(p)
        return acc

    grad_fn = None
    if all(f.grad is not None for f in fields):
        def grad_fn(p):
            acc = coeffs[0] * fields[0].gradient(p)
            for c, f in zip(coeffs[1:], fields[1:]):
                acc = acc + c * f.gradient(p)
            return acc

    lin = None
    if all(f.linear_matrix is not None for f in fields):
        lin = sum(c * f.linear_matrix for c, f in zip(coeffs, fields))

    return VectorField(func=func, grad=grad_fn, tag=tag, linear_matrix=lin)


def linear_field(matrix, tag: str = "linear") -> VectorField:
    """Field v(x) = B @ x for a constant 2x2 matrix B."""
    B = np.asarray(matrix, dtype=float)
    if B.shape != (2, 2):
        raise ValueError("linear_field needs a 2x2 matrix")
    Bt = B.T.copy()

    def func(p):
        return as_points(p) @ Bt

    def grad(p):
        pts = as_points(p)
        return np.broadcast_to(Bt, pts.shape[:-1] + (2, 2)).copy()

    return VectorField(func=func, grad=grad, tag=tag, linear_matrix=B)
