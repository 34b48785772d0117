"""Reference evaluations the tests compare the library against; no library path uses them."""

import math

import numpy as np

from curvswim.fields import as_points, complex_view
from curvswim.geometry import Surface
from curvswim.integrator import _stage_controls


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
    """A^-1 b for 3x3 systems stacked (..., 3, 3) and (..., 3), by Gaussian elimination with partial pivoting in
    A's dtype."""
    M = np.concatenate([A, b[..., None]], -1)
    for col in range(3):
        pivot = (col + np.argmax(np.abs(M[..., col:, col]), -1))[..., None, None]
        row = np.take_along_axis(M, pivot, -2)
        np.put_along_axis(M, pivot, M[..., col, None, :].copy(), -2)
        M[..., col, None, :] = row
        M[..., col + 1:, :] -= M[..., col + 1:, col, None] / M[..., col, None, col, None] * row
    x = np.zeros(b.shape, dtype=A.dtype)
    for i in (2, 1, 0):
        x[..., i] = (M[..., i, 3] - np.sum(M[..., i, :3] * x, -1)) / M[..., i, i]
    return x


def _killing_longdouble(masses, R, x, y):
    """xi, the Killing fields at points of coordinates x and y, shape (3,) + x.shape[:-1] + (2, N), and
    pair(a, b), the particle sum of m a . b / (1 + R r^2)^2 over such arrays, in the points' dtype."""
    r2 = x * x + y * y
    w = np.asarray(masses, dtype=x.dtype) / (1 + R * r2) ** 2
    d, xy = x * x - y * y, 2 * R * x * y
    xi = np.stack([np.stack(c, -2) for c in ((1 + R * d, xy), (xy, 1 - R * d), (-y, x))])
    return xi, lambda a, b: np.sum(w * np.sum(a * b, axis=-2), axis=-1)


def swim_longdouble(body, R, matrices, area):
    """delta_tau of holonomy_general on the project_gauge'd linear fields B x of the two matrices, transcribed
    per particle in np.longdouble: the Killing fields and the weight m / (1 + R r^2)^2 at the particles, G,
    the projection, the two-forms, and _solve3.  It shares no table, kernel or solve with the library."""
    L = np.longdouble
    m = np.asarray(body.masses, dtype=L)
    x, y = np.asarray(body.positions, dtype=L).T
    R = L(R)
    r2 = x * x + y * y
    xi, pair = _killing_longdouble(m, R, x, y)
    G = pair(xi[:, None], xi[None])
    fields = []
    for B in np.asarray(matrices, dtype=L):
        v = np.stack([B[0, 0] * x + B[0, 1] * y, B[1, 0] * x + B[1, 1] * y])
        fields.append(v - np.tensordot(_solve3(G, pair(xi, v[None])), xi, 1))
    (u1, u2), (v1, v2) = fields
    forms = np.stack([8 * R * y, -8 * R * x, 2 * (1 - R * r2)]) / (1 + R * r2) ** 3
    return _solve3(G, -L(area) * np.sum(m * forms * (u1 * v2 - u2 * v1), axis=-1))


def _expm_block(C, Cd):
    """exp(C) and its Frechet derivative along Cd, stacks (..., 2, 2) in their dtype: the upper blocks of the
    exponential of [[C, Cd], [0, C]], by its Taylor series after scaling by 2^-s and s squarings."""
    M = np.zeros(C.shape[:-2] + (4, 4), dtype=C.dtype)
    M[..., :2, :2] = M[..., 2:, 2:] = C
    M[..., :2, 2:] = Cd
    norm = float(np.max(np.sum(np.abs(M), -1)))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm else 0
    M = M / 2**s                    # norm at most 1/2: 30 terms leave less than 1e-40
    E = term = np.broadcast_to(np.eye(4, dtype=C.dtype), M.shape)
    for k in range(1, 30):
        term = term @ M / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E[..., :2, :2], E[..., :2, 2:]


def oracle_longdouble(body, R, B, stroke):
    """(delta_tau, max|tau|) of integrate_stroke's composed mode on the control matrices B, in np.longdouble:
    the same RK4 at the nodes of integrator._stage_controls, E and Ed from the 4x4 block exponential, the
    connection tau from per-particle sums and _solve3, and np.clongdouble propagation; max|tau| is the largest
    |tau| of each component over the nodes.  It shares no kernel, table or LAPACK solve with the library."""
    L = np.longdouble
    sig, sigd, stages = _stage_controls(stroke)
    B0, B1 = np.asarray(B, dtype=L)
    sig, sigd = sig.astype(L), sigd.astype(L)
    E, Ed = _expm_block(sig[:, 0, None, None] * B0 + sig[:, 1, None, None] * B1,
                        sigd[:, 0, None, None] * B0 + sigd[:, 1, None, None] * B1)
    X0 = np.asarray(body.positions, dtype=L)
    Y, v = np.einsum("nij,kj->nik", E, X0), np.einsum("nij,kj->nik", Ed, X0)      # (nodes, 2, N)
    R = L(R)
    xi, pair = _killing_longdouble(body.masses, R, Y[:, 0], Y[:, 1])
    tau = _solve3(np.moveaxis(pair(xi[:, None], xi[None]), -1, 0), -pair(xi, v).T)
    q, th = tau[:, 0] + 1j * tau[:, 1], 0.5j * tau[:, 2]
    A = np.stack([np.stack([th, q], -1), np.stack([-R * np.conj(q), -th], -1)], -2)
    A1, A2, A3, A4 = A[stages.T[[0, 1, 1, 2]]]
    dt, I = L(1.0 / stroke.steps), np.eye(2, dtype=np.clongdouble)
    B2 = (I + dt / 2 * A1) @ A2
    B3 = (I + dt / 2 * B2) @ A3
    B4 = (I + dt * B3) @ A4
    G = I
    for Dn in dt / 6 * (A1 + 2 * B2 + 2 * B3 + B4):
        G = G + G @ Dn
    alpha, beta = (G[0, 0] + np.conj(G[1, 1])) / 2, G[0, 1]
    if R:
        beta = (beta - np.conj(G[1, 0]) / R) / 2
    det = np.sqrt(abs(alpha) ** 2 + R * abs(beta) ** 2)
    alpha, beta = alpha / det, beta / det
    translation = beta / np.conj(alpha)
    delta = np.array([translation.real, translation.imag, 2 * np.arctan2(alpha.imag, alpha.real)])
    return delta, np.max(np.abs(tau), 0)
