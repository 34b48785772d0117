"""Point-mass bodies: the momentum-map kernel, moments, balancing, principal axes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import BalanceConvergenceError
from .fields import VectorField
from .geometry import (
    Isometry,
    Surface,
    killing_components,
    rotation_about_origin,
    translation_to,
)

# |R| L^2 above this is outside the small-body regime the balancing
# convention is designed for; warn but proceed.
CURVATURE_EXTENT_WARN = 0.1
BALANCE_TOLERANCE = 1e-12   # balance: largest first moment / max(1, extent)
BALANCE_MAX_ITER = 50
AXES_TOLERANCE = 1e-14      # principal_axes: |Q_xy| / max(Q_xx, Q_yy)


@dataclass(frozen=True)
class Body:
    """Point masses in the chart; immutable, so its mass, extent and moments are cached."""

    masses: np.ndarray      # (N,), strictly positive
    positions: np.ndarray   # (N, 2) chart coordinates

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float)).copy()
        x = np.asarray(self.positions, dtype=float).copy()
        if x.ndim == 1:
            x = x[None, :]
        if m.ndim != 1 or x.shape != (m.shape[0], 2):
            raise ValueError(f"inconsistent body arrays: masses {m.shape}, positions {x.shape}")
        if m.shape[0] < 1:
            raise ValueError("a body needs at least one particle")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(x))):
            raise ValueError("masses and positions must be finite")
        if np.any(m <= 0.0):
            raise ValueError("all masses must be positive")
        m.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "positions", x)

    @classmethod
    def from_particles(cls, particles) -> "Body":
        """Build from an iterable of (mass, x, y) triples."""
        arr = np.asarray(list(particles), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("particles must be (mass, x, y) triples")
        return cls(masses=arr[:, 0], positions=arr[:, 1:])

    @property
    def n(self) -> int:
        return self.masses.shape[0]

    @cached_property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @cached_property
    def extent(self) -> float:
        return float(np.max(np.linalg.norm(self.positions, axis=1)))

    @cached_property
    def _moments(self) -> "Moments":
        m, x = self.masses, self.positions
        q = (np.einsum("n,ni->i", m, x), np.einsum("n,ni,nj->ij", m, x, x),
             np.einsum("n,ni,nj,nk->ijk", m, x, x, x))
        for a in q:
            a.setflags(write=False)
        return Moments(*q, total_mass=self.total_mass)

    def transformed(self, g: Isometry) -> "Body":
        return Body(masses=self.masses, positions=g(self.positions))

    def scaled(self, factor: float) -> "Body":
        return Body(masses=self.masses, positions=factor * self.positions)


@dataclass(frozen=True)
class Moments:
    """Mass-weighted coordinate sums up to third order."""

    q1: np.ndarray  # (2,)
    q2: np.ndarray  # (2, 2)
    q3: np.ndarray  # (2, 2, 2)
    total_mass: float


def moments(body: Body) -> Moments:
    """The body's moments, formed on first use and cached: one read-only object per body."""
    return body._moments


def _weights(body: Body, surface: Surface, x, out=None) -> np.ndarray:
    """Contiguous x, y and r2 = |x|^2 of the points x, shape (..., N, 2), and
    the weights m_n / (1 + R r2_n)^2, stacked as one array of shape
    (4, ..., N), which is out when given.

    r2 is formed once, for the chart-domain check and the weight.
    """
    a = np.asarray(x, dtype=float)
    xyrw = np.empty((4,) + a.shape[:-1]) if out is None else out
    surface.chart(a, out=xyrw[:3])
    r2, w = xyrw[2], xyrw[3]
    np.multiply(r2, surface.R, w)
    np.add(1.0, w, w)
    np.multiply(w, w, w)
    np.divide(body.masses, w, w)
    return xyrw


def metric_pairing(body: Body, surface: Surface, U, V) -> np.ndarray:
    """sum_n m_n g(x_n)(U_n, V_n) for stacks U, V of shape (..., N, 2), not mass-normalized."""
    w = _weights(body, surface, body.positions)[3]
    return np.sum(w * (U[..., 0] * V[..., 0] + U[..., 1] * V[..., 1]), axis=-1)


def momentum_work(points: Tuple[int, ...], k: int) -> np.ndarray:
    """An uninitialized workspace for momentum_map(work=...) at points of
    shape (..., N) with k velocity arrays per configuration: per point, the
    six Killing components, x, y, r2, the weight and the weight times
    (1 - R r2); per velocity its two components and their weighted copies;
    and two product rows per velocity (at least two).
    """
    return np.empty(math.prod(points) * (11 + 4 * k + 2 * max(k, 1)))


def momentum_map(
    body: Body, surface: Surface, velocities, x=None, *, work=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Killing frame at the particles and its mass-weighted pairings.

    Evaluates the three Killing fields once at the points x (default: the
    body's positions), shape (..., N, 2), as a frame of shape (..., 3, N, 2),
    and pairs it with itself and with each velocity array of the stack
    velocities, shape (..., k, N, 2) with the leading axes of x, and each
    velocity array with itself.  Leading axes are batch axes: each
    configuration along them is paired on its own.  Returns
    (gram, mom, vv, frame) with

        gram[..., a, b] = sum_n m_n g(xi_a, xi_b),   mom[..., k, a] = sum_n m_n g(xi_a, V_k),
        vv[..., k] = sum_n m_n g(V_k, V_k),

    not mass-normalized.  gram and mom are the ingredients of the local
    connection: the Gram matrix and the momentum map of the velocities.

    The fields are quadratic in the chart (xi1 = 1 + R z^2, xi2 =
    i (1 - R z^2), xi3 = i z), so with r^2 = x^2 + y^2 the Euclidean
    products of distinct fields have short closed forms:

        xi1.xi2 = 4Rxy,   xi1.xi3 = -y (1 - R r^2),   xi2.xi3 = x (1 - R r^2),
        xi3.xi3 = r^2;

    xi1.xi1 and xi2.xi2 come from the squared components.  Only the six
    unique Gram sums are formed and then mirrored, so gram is exactly
    symmetric.  Every sum forms each particle's product first and adds the
    particles with np.add.reduce (never a BLAS dot), so mirror-symmetric
    bodies keep their exact zeros.

    Every per-particle array, of shape (..., N) or (..., k, N), is written
    in place (as ufunc outputs) into one flat float array: work when given,
    which must hold momentum_work(x.shape[:-1], k) elements (a longer one
    serves, from its start), else one allocated here the same way.  A
    caller that pairs many batches of one size can so reuse one workspace.
    Each array is a C-contiguous view laid out as it would be on its own,
    so the results do not depend on whether work was passed.  Only the
    returned frame aliases work, and the next call into the same work
    overwrites it; gram, mom and vv are fresh arrays.
    """
    x = body.positions if x is None else np.asarray(x, dtype=float)
    V = np.asarray(velocities, dtype=float)
    points, nv = x.shape[:-1], V.shape[-3]
    size = math.prod(points)
    if work is None:
        work = momentum_work(points, nv)
    # Consecutive C-contiguous blocks of work, each laid out as the array
    # would be on its own.
    rows = work[: 11 * size].reshape((11,) + points)
    vel = work[11 * size : (11 + 4 * nv) * size].reshape((4,) + points[:-1] + (nv,) + points[-1:])
    P, Q = work[(11 + 4 * nv) * size : (11 + 4 * nv + 2 * max(nv, 1)) * size].reshape(2, -1)
    k = rows[:6].reshape((3, 2) + points)
    x, y, r2, w = _weights(body, surface, x, out=rows[6:10])
    killing_components(surface, x, y, out=k)
    (a1x, a1y), (a2x, a2y), (a3x, a3y) = k
    ws = rows[10]
    np.multiply(r2, surface.R, ws)
    np.subtract(1.0, ws, ws)
    np.multiply(w, ws, ws)
    t, u = P[:w.size].reshape(w.shape), Q[:w.size].reshape(w.shape)

    def weighted_sum(weight, f):
        np.multiply(weight, f, t)
        return np.add.reduce(t, -1)

    def weighted_norm(fx, fy):
        np.multiply(fx, fx, t)
        np.multiply(fy, fy, u)
        np.add(t, u, t)
        return weighted_sum(w, t)

    gram = np.empty(w.shape[:-1] + (3, 3))
    gram[..., 0, 0] = weighted_norm(a1x, a1y)
    gram[..., 1, 1] = weighted_norm(a2x, a2y)
    gram[..., 2, 2] = weighted_sum(w, r2)
    # a1y = 2Rxy; doubling the sum is exact
    gram[..., 0, 1] = gram[..., 1, 0] = 2.0 * weighted_sum(w, a1y)
    gram[..., 0, 2] = gram[..., 2, 0] = weighted_sum(ws, a3x)
    gram[..., 1, 2] = gram[..., 2, 1] = weighted_sum(ws, a3y)

    vx, vy, wvx, wvy = vel
    vx[...] = V[..., 0]
    vy[...] = V[..., 1]
    np.multiply(w[..., None, :], vx, wvx)
    np.multiply(w[..., None, :], vy, wvy)
    p, q = P[:vx.size].reshape(vx.shape), Q[:vx.size].reshape(vx.shape)
    mom = np.empty(vx.shape[:-1] + (3,))
    for a, (ax, ay) in enumerate(k):
        np.multiply(ax[..., None, :], wvx, p)
        np.multiply(ay[..., None, :], wvy, q)
        np.add(p, q, p)
        mom[..., a] = np.add.reduce(p, -1)
    np.multiply(wvx, vx, vx)
    np.multiply(wvy, vy, vy)
    np.add(vx, vy, vx)
    vv = np.add.reduce(vx, -1)
    # the frame (..., 3, N, 2): batch axes first, then field, particle, component
    return gram, mom, vv, k.transpose(tuple(range(2, k.ndim - 1)) + (0, k.ndim - 1, 1))


def scalar_product(body: Body, surface: Surface, u: VectorField, v: VectorField) -> float:
    """Mass-weighted metric pairing (1/M) sum_n m_n g_ij u^i v^j at the particles."""
    x = body.positions
    return float(metric_pairing(body, surface, u(x), v(x)) / body.total_mass)


def balance(body: Body, surface: Surface) -> Body:
    """Translate the body (by exact isometries) until its first moments vanish.

    Isometries act nonlinearly on the chart for R != 0, so the flat shift by
    the mean is iterated to a fixed point.  Convergence is geometric while
    |R| L^2 stays well below one.  The iteration runs on the positions
    array and builds one Body at the end; a body that is already balanced
    is returned itself.
    """
    x = body.positions
    extent2 = float(np.max(np.sum(x**2, axis=1)))
    if abs(surface.R) * extent2 > CURVATURE_EXTENT_WARN:
        warnings.warn(
            f"body extent is large for this curvature (|R| L^2 = {abs(surface.R) * extent2:.3g}); "
            "chart-coordinate balancing degrades outside the small-body regime",
            stacklevel=2,
        )
    scale = max(1.0, np.sqrt(extent2))
    for _ in range(BALANCE_MAX_ITER):
        q1 = np.einsum("n,ni->i", body.masses, x) / body.total_mass
        if np.max(np.abs(q1)) <= BALANCE_TOLERANCE * scale:
            return body if x is body.positions else Body(masses=body.masses, positions=x)
        x = translation_to(surface, -q1)(x)
    raise BalanceConvergenceError(
        f"first-moment balancing did not converge in {BALANCE_MAX_ITER} iterations "
        f"(R={surface.R:g}, extent={np.sqrt(extent2):g})"
    )


def principal_axes(body: Body) -> Body:
    """Rotate about the origin so the second moments are diagonal.

    Deterministic convention: if Q is already diagonal the body is returned
    unchanged, axes are ordered so Q_xx >= Q_yy, and the rotation angle is
    taken in (-pi/2, pi/2].
    """
    q2 = moments(body).q2
    qxx, qyy, qxy = q2[0, 0], q2[1, 1], q2[0, 1]
    scale = max(qxx, qyy, 1e-300)
    if abs(qxy) <= AXES_TOLERANCE * scale:
        if qxx >= qyy:
            return body
        return body.transformed(rotation_about_origin(Surface(0.0), np.pi / 2.0))
    # eigen-rotation of the symmetric 2x2 block
    theta = 0.5 * np.arctan2(2.0 * qxy, qxx - qyy)
    c, s = np.cos(theta), np.sin(theta)
    lam1 = c * c * qxx + 2 * c * s * qxy + s * s * qyy
    lam2 = s * s * qxx - 2 * c * s * qxy + c * c * qyy
    angle = -theta
    if lam1 < lam2:
        angle += np.pi / 2.0
    return body.transformed(rotation_about_origin(Surface(0.0), float(angle)))
