"""Reference evaluations the tests compare the library against; no library path uses them."""

import numpy as np

from curvswim.fields import as_points, complex_view
from curvswim.geometry import Surface


def rigid_velocity(surface: Surface, tau, z) -> np.ndarray:
    """Complex tau . xi at complex points z of shape (..., N, 1), for tau of shape (..., 3): the Moebius
    field q + i tau3 z + R conj(q) z^2 with q = tau1 + i tau2, the Killing fields' closed form."""
    q = (tau[..., 0] + 1j * tau[..., 1])[..., None, None]
    return q + z * (1j * tau[..., 2, None, None] + surface.R * np.conj(q) * z)


def killing_frame(surface: Surface, p) -> np.ndarray:
    """The three Killing fields at chart points p, shape (..., 2), stacked as (3, ..., 2)."""
    a = as_points(p)
    return rigid_velocity(surface, np.eye(3), complex_view(a.reshape(-1, 2))).view(float).reshape((3,) + a.shape)


def particle_pairings(masses, surface: Surface, points, velocities):
    """(gram, mom, vv) by sums over the particles at points (N, 2): the Killing fields paired with each
    other and with k velocity arrays (k, N, 2), under the weight m / (1 + R r^2)^2, not mass-normalized.
    Each component is summed over the particles first, so mirror images cancel exactly."""
    w = masses / surface.conformal(points) ** 2
    xi = np.moveaxis(killing_frame(surface, points), -1, 0)             # (2, 3, N)
    V = np.moveaxis(np.asarray(velocities, dtype=float), -1, 0)         # (2, k, N)

    def pair(a, b):
        return np.sum(np.sum(w * a * b, axis=-1), axis=0)

    return (pair(xi[:, :, None], xi[:, None]), pair(V[:, :, None], xi[:, None]), pair(V, V))


def _solve3(A, b):
    """A^-1 b for a 3x3 system, by Gaussian elimination with partial pivoting in A's dtype."""
    M = np.concatenate([A, b[:, None]], 1)
    for col in range(3):
        pivot = col + int(np.argmax(np.abs(M[col:, col])))
        M[[col, pivot]] = M[[pivot, col]]
        M[col + 1:] -= M[col + 1:, col, None] / M[col, col] * M[col]
    x = np.zeros(3, dtype=A.dtype)
    for row in (2, 1, 0):
        x[row] = (M[row, 3] - M[row, :3] @ x) / M[row, row]
    return x


def swim_longdouble(body, R, matrices, area):
    """delta_tau of holonomy_general on the project_gauge'd linear fields B x of the two matrices, transcribed
    per particle in np.longdouble: the Killing fields and the weight m / (1 + R r^2)^2 at the particles, G,
    the projection, the two-forms, and _solve3.  It shares no table, kernel or solve with the library."""
    L = np.longdouble
    m = np.asarray(body.masses, dtype=L)
    x, y = np.asarray(body.positions, dtype=L).T
    R = L(R)
    r2 = x * x + y * y
    w = m / (1 + R * r2) ** 2
    d, xy = x * x - y * y, 2 * R * x * y
    xi = np.stack([np.stack([1 + R * d, xy]), np.stack([xy, 1 - R * d]), np.stack([-y, x])])    # (3, 2, N)

    def pair(a, b):
        return np.sum(w * np.sum(a * b, axis=-2), axis=-1)

    G = pair(xi[:, None], xi[None])
    fields = []
    for B in np.asarray(matrices, dtype=L):
        v = np.stack([B[0, 0] * x + B[0, 1] * y, B[1, 0] * x + B[1, 1] * y])
        fields.append(v - np.tensordot(_solve3(G, pair(xi, v[None])), xi, 1))
    (u1, u2), (v1, v2) = fields
    forms = np.stack([8 * R * y, -8 * R * x, 2 * (1 - R * r2)]) / (1 + R * r2) ** 3
    return _solve3(G, -L(area) * np.sum(m * forms * (u1 * v2 - u2 * v1), axis=-1))
