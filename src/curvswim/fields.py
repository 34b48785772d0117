"""Vector fields on the 2D chart, as polynomials of degree at most 2.

A field is its (2, 6) coefficients over the monomials m = (1, x, y, x^2, xy, y^2).  Killing fields,
linear deformations and their gauge projections are all of this form, so the formula route pairs
fields by contracting coefficients with a body's moment tables (body.BodyFrame).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

MONOMIAL_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))     # (a, b) of each x^a y^b of m


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_points(p) -> np.ndarray:
    """Coerce to a float array of chart points with trailing axis (x, y)."""
    a = np.asarray(p, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError(f"chart points need a trailing axis of size 2, got shape {a.shape}")
    return a


def complex_view(p) -> np.ndarray:
    """Points (..., 2) as z = x + iy of shape (..., 1), a view of C-contiguous floats; .view(float) inverts it."""
    return np.ascontiguousarray(as_points(p)).view(complex)


def monomial_rows(x: np.ndarray, y: np.ndarray, degree: int = 2, weight=1.0) -> np.ndarray:
    """weight x^a y^b at points of coordinates x and y for a + b <= degree, stacked first, degree by degree
    and x^d first in each (m at degree 2).  Each row is an earlier row times x (b = 0) or y: a lower degree's
    rows are bitwise a prefix, and a mirror image y -> -y negates exactly the rows of odd b."""
    rows = np.empty(((degree + 1) * (degree + 2) // 2,) + np.shape(x))
    rows[0] = weight
    first = 0
    for d in range(1, degree + 1):
        previous, first = first, first + d
        np.multiply(rows[previous], x, rows[first, ...])
        np.multiply(rows[previous:first], y, rows[first + 1:first + d + 1])
    return rows


def product_index(a: int = 0, b: int = 0) -> np.ndarray:
    """The monomial_rows index of x^a y^b m_j m_k, shape (6, 6): x^c y^e, d = c + e, sits at d (d + 1) / 2 + e."""
    x, y = np.array(MONOMIAL_POWERS).T
    e = b + y[:, None] + y
    d = a + x[:, None] + x + e
    return d * (d + 1) // 2 + e


def polynomial_values(coefficients: np.ndarray, p) -> np.ndarray:
    """The field of (2, 6) coefficients at chart points p, shape (..., 2): each component its six terms
    added in one order (no BLAS product), so a point's value does not depend on its batch."""
    a = as_points(p)
    terms = coefficients.reshape((2, 6) + (1,) * (a.ndim - 1)) * monomial_rows(a[..., 0], a[..., 1])
    return np.moveaxis(np.add.reduce(terms, 1), 0, -1)


@dataclass(frozen=True)
class VectorField:
    """A tangent field v^i = sum_j coefficients[i, j] m_j, polynomial of degree at most 2.

    coefficients, (2, 6) and read-only, are what every route reads.  func
    maps (..., 2) points to (..., 2) components, and is filled from the
    coefficients when not given.
    """

    coefficients: np.ndarray
    tag: str = "custom"
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        C = _read_only(np.array(self.coefficients, dtype=float))
        if C.shape != (2, 6):
            raise ValueError(f"field {self.tag!r} needs (2, 6) coefficients, got shape {C.shape}")
        object.__setattr__(self, "coefficients", C)
        if self.func is None:
            object.__setattr__(self, "func", functools.partial(polynomial_values, C))

    def __call__(self, p) -> np.ndarray:
        return np.asarray(self.func(as_points(p)), dtype=float)

    def gradient(self, p) -> np.ndarray:
        """grad[..., j, k] = d v^k / d x^j at points p, shape (..., 2, 2): the exact polynomial derivative."""
        C = self.coefficients
        a = as_points(p)
        x, y = a[..., 0, None], a[..., 1, None]
        return np.stack([C[:, 1] + 2.0 * C[:, 3] * x + C[:, 4] * y, C[:, 2] + C[:, 4] * x + 2.0 * C[:, 5] * y], -2)

    @cached_property
    def linear_matrix(self) -> Optional[np.ndarray]:
        """B, read-only, when v(x) = B x exactly (zero constant and quadratic columns), else None."""
        C = self.coefficients
        return None if C[:, [0, 3, 4, 5]].any() else _read_only(C[:, 1:3].copy())


def coefficients_of(fields) -> np.ndarray:
    """The coefficients of k fields stacked, shape (k, 2, 6)."""
    return np.array([f.coefficients for f in fields])


def linear_field(matrix, tag: str = "linear") -> VectorField:
    """Field v(x) = B @ x for a constant 2x2 matrix B."""
    B = np.asarray(matrix, dtype=float)
    if B.shape != (2, 2):
        raise ValueError("linear_field needs a 2x2 matrix")
    C = np.zeros((2, 6))
    C[:, 1:3] = B
    return VectorField(C, tag=tag)
