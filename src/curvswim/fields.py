"""Vector fields on the 2D chart.

A field is a callable taking chart points of shape (..., 2) and returning
tangent components of the same shape, together with an optional closed-form
gradient.  Killing fields and deformation fields share this one
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass(frozen=True)
class VectorField:
    """A tangent vector field with optional analytic gradient.

    func        maps (..., 2) points to (..., 2) components.
    grad        maps (..., 2) points to (..., 2, 2) partials, indexed
                grad[..., j, k] = d v^k / d x^j.  When absent, gradient
                raises ValueError.
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
        if self.grad is None:
            raise ValueError(f"field {self.tag!r} has no gradient: build it with grad=")
        return np.asarray(self.grad(as_points(p)), dtype=float)


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
