"""Closed-form scenarios: the swimming triangle, Euclidean checks, the ring.

Orientation convention used throughout: the triangle points apex toward +x
with its base at negative x, the first control axis scales the height
(x d/dx) and the second the base (y d/dy), and positive stroke area means a
counterclockwise loop in that control plane.  Under this convention an
optimal triangle on a sphere-like surface (R > 0) swims apex-forward:
delta_x = R * coefficient * dA > 0.  Flipping the traversal, the field
order, or the apex direction flips the sign; the finite-stroke integrator
validates the whole convention end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .body import Body, balance, principal_axes
from .deformation import admissible_linear_deformations
from .errors import NonFiniteResultError
from .fields import VectorField, coefficients_of, linear_field
from .geometry import Surface
from .holonomy import swim_increments

RING_STEPS = 4096           # ring_simulate: fixed steps until the splinters meet
ROTATION_FLOOR = 1e-9       # baron_cat_report: smallest rotation that counts as turning


@dataclass(frozen=True)
class TriangleSpec:
    """Isosceles swimmer: two oar masses m at the base, payload at the apex."""

    M: float
    m: float
    h: float
    b: float

    def __post_init__(self):
        if not (0.0 < 2.0 * self.m < self.M):
            raise ValueError(f"need 0 < 2m < M, got m={self.m}, M={self.M}")
        if self.h <= 0.0 or self.b <= 0.0:
            raise ValueError("height and base must be positive")


def triangle_body(spec: TriangleSpec) -> Body:
    """Chart realization with vanishing first moments and apex toward +x."""
    x_b = -(spec.M - 2.0 * spec.m) * spec.h / spec.M
    masses = np.array([spec.m, spec.m, spec.M - 2.0 * spec.m])
    positions = np.array(
        [[x_b, 0.5 * spec.b], [x_b, -0.5 * spec.b], [x_b + spec.h, 0.0]]
    )
    return Body(masses=masses, positions=positions)


def triangle_control_fields() -> Tuple[VectorField, VectorField]:
    """Canonical control pair (height scaling x d/dx, base scaling y d/dy)."""
    height = linear_field(np.array([[1.0, 0.0], [0.0, 0.0]]), tag="height-scaling")
    base = linear_field(np.array([[0.0, 0.0], [0.0, 1.0]]), tag="base-scaling")
    return height, base


def triangle_swim_coefficient(spec: TriangleSpec) -> float:
    """Swim distance per unit R * dA: 4 m (M - 2m) h b^2 / M^2.

    Valid in the small-body regime |R| L^2 << 1; the exact-surface value
    differs by corrections of that relative order.
    """
    return 4.0 * spec.m * (spec.M - 2.0 * spec.m) * spec.h * spec.b**2 / spec.M**2


def triangle_optimal_mass(M: float) -> float:
    """Oar mass maximizing the coefficient: m = M / 4 (oars match payload)."""
    if M <= 0.0:
        raise ValueError("total mass must be positive")
    return 0.25 * M


@dataclass(frozen=True)
class RingSpec:
    """Flat ring swimmer: a body splitting into two counter-moving splinters."""

    length: float
    m1: float
    m2: float

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("circumference must be positive")
        if self.m1 <= 0.0 or self.m2 <= 0.0:
            raise ValueError("splinter masses must be positive")
        if math.isinf(self.m1 + self.m2):     # both mass fractions would read 0
            raise NonFiniteResultError(f"splinter mass sum overflows: {self.m1!r} + {self.m2!r}")


def ring_displacement(spec: RingSpec) -> float:
    """Net displacement after split and recombination: l * m2 / (m1 + m2).

    Splinter 1 runs in the + direction, splinter 2 in -, with speeds set by
    momentum balance m1 v1 = m2 v2; they fuse where the paths first meet.
    """
    return spec.length * spec.m2 / (spec.m1 + spec.m2)


def ring_simulate(spec: RingSpec) -> float:
    """Direct 1D momentum-conserving split-and-fuse run on the ring.

    Marches both splinters with a fixed step and resolves the meeting time
    by interpolating the (linear) closing gap, so the result is exact to
    floating point regardless of the step count.
    """
    v1 = spec.m2 / (spec.m1 + spec.m2)
    v2 = spec.m1 / (spec.m1 + spec.m2)
    dt = spec.length / ((v1 + v2) * RING_STEPS) * 1.37  # incommensurate with the meeting time
    t = 0.0
    gap_prev = spec.length
    while True:
        t_next = t + dt
        gap = spec.length - (v1 + v2) * t_next
        if gap <= 0.0:
            t_star = t + gap_prev / (v1 + v2)
            return (v1 * t_star) % spec.length
        t, gap_prev = t_next, gap


@dataclass(frozen=True)
class BaronCatReport:
    """Flat-space holonomy of every linear-deformation pair."""

    max_translation: float
    rotations: Dict[Tuple[Tuple[int, int], Tuple[int, int]], float]
    turning_pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]]


def baron_cat_report(body: Body, area: float = 1.0) -> BaronCatReport:
    """Check that a flat-space body can at best turn, never translate.

    The body is balanced and rotated to principal axes, every pair of
    gauge-fixed linear deformations is pushed through the swim equations at
    R = 0, and the translation components are collected along with the
    pairs producing nonzero rotation, all pairs in one swim_increments call
    (bitwise holonomy_general's for each pair).
    """
    surface = Surface(0.0)
    prepared = principal_axes(balance(body, surface))
    fields = admissible_linear_deformations(prepared)   # a degenerate member drops every pair it is in
    keys = list(fields)
    pairs = list(itertools.combinations(range(len(keys)), 2))
    rotations: Dict[Tuple[Tuple[int, int], Tuple[int, int]], float] = {}
    turning = []
    max_tr = 0.0
    if pairs:
        delta, _ = swim_increments(prepared, surface, coefficients_of(fields.values()), pairs, area)
        for (i, j), (tx, ty, rotation) in zip(pairs, delta.tolist()):
            key = (keys[i], keys[j])
            max_tr = max(max_tr, abs(tx), abs(ty))
            rotations[key] = rotation
            if abs(rotation) > ROTATION_FLOOR:
                turning.append(key)
    return BaronCatReport(max_translation=max_tr, rotations=rotations, turning_pairs=turning)
