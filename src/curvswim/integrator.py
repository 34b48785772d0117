"""Finite-stroke oracle: integrate the momentum constraint along a control loop.

This module is the independent check on the holonomy formulas.  Particle
motion is split into a deformation part driven by the controls and a rigid
part tau-dot . xi determined at every instant by the conserved momenta

    sum_n m_n g(x_n) xi_beta(x_n) . (tau-dot . xi(x_n) + v_def(x_n)) = 0.

The rigid element is accumulated multiplicatively as a 2x2 group matrix G,
advanced by fixed-step RK4 (stage times t, t + dt/2, t + dt of each step),
so the three Killing flows never get summed commutatively.

A Stroke is its smooth pieces: P (sigma, sigma_dot) pairs of the stroke
time, piece p covering [p/P, (p+1)/P], with steps a multiple of P.  Both
modes read sigma-dot (composed mode also sigma) from one table of the
distinct stage times (nodes), sampled in one call per piece: a step's end
stage is the next step's start stage inside one piece, and the first and
last nodes are exactly t = 0 and t = 1.

Two shape-evolution models are provided:

  mode="composed" (default)   the shape at control value sigma is the
      unit-time flow of the frozen field sigma . eta from the initial
      shape.  For linear deformation fields this is an exact matrix
      exponential, the control loop closes in shape space identically, and
      the measured holonomy matches the leading-order formulas.  The
      momentum constraint is equivariant under isometries, so the rigid
      velocity read in the body frame, A, depends on the shape alone (the
      local connection), and G obeys the reconstruction equation
      dG/dt = G A(shape(t)).  RK4 runs on that equation.  A depends on time
      alone, so each node is evaluated once and each RK4 step is a fixed
      2x2 propagator, G <- G P_n.  The shapes E and shape velocities Ed of
      every node come from one batched closed-form 2x2 exponential and its
      Frechet derivative; the shape velocity is L = Ed E^-1 applied to the
      shape, and the generators of a block of nodes come from one
      linear_momentum_map call and one stacked solve_gram into buffers
      allocated once per stroke, the propagators of all steps from batched
      2x2 products, and G is their ordered product.  The isometry matrices
      form a real-linear space closed under products, so every RK4 stage
      agrees with the space-frame stage dG/dt = A_space G up to round-off.

  mode="direct"               the particles move with the deformation
      velocity L = sigma-dot . B read at their current positions plus the
      rigid velocity, one linear_momentum_map call, one solve_gram and one
      row combination per RK4 stage; G, dG/dt = A_space G, never feeds
      back, so composed mode's propagators form it after the loop.  For
      non-commuting field pairs the shape loop fails to close at the same
      order as the holonomy itself, a leading-order offset in the rotation
      component.  Kept for comparison studies.

Both modes pair linear velocities v = L y from the weighted moments of the
points (body.linear_momentum_map), so both need fields with a linear
matrix: no per-particle velocity is formed for the momentum solve.

body.solve_gram is also the holonomy formulas' solve, so a Gram matrix
that the formulas refuse stops the stroke with the same typed error.

Each solve the oracle reads is checked against the kernel's own sums:
max_momentum_residual is the largest |gram tau + mom| and residual_bound
1e-12 times the largest body.pairing_scale sqrt(gram_aa vv), which bounds
every term of that residual by Cauchy-Schwarz.  Composed mode reads every
node, direct mode each step's first stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .body import Body, linear_momentum_map, momentum_work, pairing_scale, solve_gram
from .errors import NonFiniteResultError, StrokeError
from .fields import VectorField
from .geometry import Isometry, Surface, expm2, rigid_generator

__all__ = [
    "Stroke",
    "rectangle_stroke",
    "sinusoid_stroke",
    "TrajectoryRecord",
    "integrate_stroke",
]

DEFAULT_STEPS = 1024
Piece = Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class Stroke:
    """Closed loop in the two-dimensional control (strain coefficient) space.

    pieces holds P smooth (sigma, sigma_dot) pairs of the stroke time t in
    [0, 1], piece p covering [p/P, (p+1)/P], each mapping times of any
    shape (...) to controls of shape (..., 2).  steps is rounded up to a
    multiple of P, so every RK4 step lies inside one piece.
    """

    pieces: Tuple[Piece, ...]
    steps: int
    signed_area: float

    def __post_init__(self):
        if not self.pieces:
            raise StrokeError("a stroke needs at least one piece")
        if self.steps < 4:
            raise StrokeError("a stroke needs at least 4 time steps")
        P = len(self.pieces)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "steps", P * math.ceil(self.steps / P))
        gap = float(np.max(np.abs(self.pieces[-1][0](1.0) - self.pieces[0][0](0.0))))
        if not gap <= 1e-12:
            raise StrokeError(f"control loop does not close: |sigma(1)-sigma(0)| = {gap:.3e}")

    def with_steps(self, steps: int) -> "Stroke":
        return replace(self, steps=int(steps))


def rectangle_stroke(d1: float, d2: float, steps: int = DEFAULT_STEPS) -> Stroke:
    """Rectangle loop centered on the undeformed shape, traversed ccw at uniform speed.

    Corners [+-d1/2] x [+-d2/2]; enclosed signed area d1 * d2.  Each edge
    is one smooth piece, so steps is rounded up to a multiple of 4.  Other
    timings of the same loop are Strokes built from their own pieces.
    """
    a, b = 0.5 * float(d1), 0.5 * float(d2)
    corners = np.array([[-a, -b], [a, -b], [a, b], [-a, b], [-a, -b]])

    def edge(k: int) -> Piece:
        p0, p1 = corners[k], corners[k + 1]
        return (lambda t: p0 + (np.asarray(t)[..., None] * 4.0 - k) * (p1 - p0),
                lambda t: np.broadcast_to(4.0 * (p1 - p0), np.shape(t) + (2,)))

    return Stroke(tuple(edge(k) for k in range(4)), steps, float(d1) * float(d2))


def sinusoid_stroke(d1: float, d2: float, steps: int = DEFAULT_STEPS) -> Stroke:
    """Smooth elliptic loop, centered, ccw, enclosed area pi d1 d2 / 4."""
    a, b = 0.5 * float(d1), 0.5 * float(d2)
    w = 2.0 * math.pi

    # The phase is wrapped so that sigma(1) == sigma(0) bitwise: sin(2 pi)
    # is about -2.4e-16, not 0.
    def sigma(t) -> np.ndarray:
        wt = w * (np.asarray(t)[..., None] % 1.0)
        return np.concatenate([-a * np.cos(wt), -b * np.sin(wt)], axis=-1)

    def sigma_dot(t) -> np.ndarray:
        wt = w * (np.asarray(t)[..., None] % 1.0)
        return np.concatenate([a * w * np.sin(wt), -b * w * np.cos(wt)], axis=-1)

    return Stroke(((sigma, sigma_dot),), int(steps), math.pi * a * b)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcome of one finite stroke."""

    delta_tau: np.ndarray            # (translation-x, translation-y, rotation) read from g(1)
    steps: int
    mode: str
    max_momentum_residual: float
    residual_bound: float            # 1e-12 * the largest body.pairing_scale of the solves read
    shape_closure_defect: float
    group_drift: float               # |det G - 1| of the final G, before it is normalized


def _extract_delta_tau(G: np.ndarray, R: float) -> Tuple[np.ndarray, Isometry]:
    alpha, beta = complex(G[0, 0] + np.conj(G[1, 1])) / 2.0, complex(G[0, 1])
    if R != 0.0:
        beta = 0.5 * (beta - np.conj(complex(G[1, 0])) / R)
    g = Isometry(alpha, beta, R).normalized()
    w = g.beta / np.conj(g.alpha)
    rot = 2.0 * math.atan2(g.alpha.imag, g.alpha.real)
    return np.array([w.real, w.imag, rot]), g


# Particle-nodes (particles times distinct stage times) per block of nodes
# in composed mode: many nodes per block at small N to share the per-call
# overhead, three at N = 4000 (as many as one RK4 step has) so memory stays
# O(N).  A particle-node takes 16 floats (the kernel's 14 position rows and
# the shape's 2), so a block's buffers take 16 * 15360 * 8 B = 1.97 MB.
_BLOCK_PARTICLE_NODES = 15360


def _stage_controls(stroke: Stroke) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma and sigma-dot at the distinct RK4 stage times (nodes) of the stroke.

    A piece of per steps has 2 per + 1 nodes, node k of piece p at
    t = (2 p per + k) / (2 steps): step n has stages at t, t + dt/2 and
    t + dt from the piece holding it, and its start is the end node of
    step n - 1 inside one piece.  Returns sig and sigd of shape (nodes, 2)
    and stages of shape (steps, 3), the node of each stage.
    """
    P = len(stroke.pieces)
    per = stroke.steps // P
    times = (2 * per * np.arange(P)[:, None] + np.arange(2 * per + 1)) / (2 * stroke.steps)
    sig = np.concatenate([s(tp) for (s, _), tp in zip(stroke.pieces, times)])
    sigd = np.concatenate([sd(tp) for (_, sd), tp in zip(stroke.pieces, times)])
    n = np.arange(stroke.steps)
    stages = ((2 * per + 1) * (n // per) + 2 * (n % per))[:, None] + np.arange(3)
    return sig, sigd, stages


def _shape_flow(B: Sequence[np.ndarray], sig: np.ndarray, sigd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(C) and its derivative along C-dot, for C = sigma . B, in closed form.

    The control matrices are 2x2, so one batched expm2 gives every shape
    matrix and its Frechet derivative at once.
    """
    C = sig[..., 0, None, None] * B[0] + sig[..., 1, None, None] * B[1]
    Cd = sigd[..., 0, None, None] * B[0] + sigd[..., 1, None, None] * B[1]
    return expm2(C, Cd)


def _propagate(A1, A2, A3, A4, dt):
    """G of RK4 on dG/dt = G A from G = I, A1-A4 the generators at every step's four stages.

    Step n's stages are k_i = G B_i, B1 = A1, B2 = (I + dt/2 A1) A2, B3 = (I + dt/2 B2) A3
    and B4 = (I + dt B3) A4: G <- G (I + D_n), D_n = dt/6 (A1 + 2 B2 + 2 B3 + B4)."""
    I = np.eye(2)
    B2 = (I + 0.5 * dt * A1) @ A2
    B3 = (I + 0.5 * dt * B2) @ A3
    B4 = (I + dt * B3) @ A4
    D = (dt / 6.0) * (A1 + 2.0 * B2 + 2.0 * B3 + B4)
    G = np.eye(2, dtype=complex)
    for Dn in D:
        G = G + G @ Dn        # not G (I + D_n): that rounds D_n against I first
    return G


def _integrate_composed(body, surface, B, stroke):
    """RK4 on the reconstruction equation dG/dt = G . A(shape(t)) in the body frame.

    A depends on time alone, so each distinct stage time (node) is
    evaluated once: the shapes of all nodes come from one closed-form shape
    flow, the generators of a block of nodes from one linear_momentum_map
    call and one stacked solve_gram, into buffers allocated once per
    stroke.  At a node the shape is Y = X0 E^T and its velocity
    X0 Ed^T = Y L^T with L = Ed E^-1, so the kernel pairs L at Y.  Returns
    (G, max momentum residual, max pairing scale, shape closure defect),
    the diagnostics read at every node.
    """
    X0 = body.positions
    dt = 1.0 / stroke.steps
    sig, sigd, stages = _stage_controls(stroke)
    nodes = len(sig)
    E, Ed = _shape_flow(B, sig, sigd)
    closure = float(np.max(np.abs(E[-1] - E[0])))
    # L = Ed E^-1 by the adjugate [[d, -b], [-c, a]] of E = [[a, b], [c, d]]
    adj = np.swapaxes(E[:, ::-1, ::-1], 1, 2) * [[1.0, -1.0], [-1.0, 1.0]]
    det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]
    L = (Ed @ adj / det[:, None, None])[:, None]
    per_block = min(nodes, max(1, _BLOCK_PARTICLE_NODES // body.n))
    work = momentum_work((per_block, body.n))
    # Y holds a block's shapes component-major: row (node, i) is component i at every particle.
    Y = np.empty((2 * per_block, body.n))
    A = np.empty((nodes, 2, 2), dtype=complex)
    max_residual = max_scale = 0.0
    for lo in range(0, nodes, per_block):
        hi = min(lo + per_block, nodes)
        k = hi - lo
        np.matmul(E[lo:hi].reshape(2 * k, 2), X0.T, out=Y[: 2 * k])
        y = Y[: 2 * k].reshape(k, 2, body.n).swapaxes(-1, -2)       # (k, N, 2) view
        gram, mom, vv = linear_momentum_map(body, surface, y, L[lo:hi], work=work)
        tau, _ = solve_gram(gram, -mom[:, 0])             # (nodes of the block, 3)
        max_residual = max(max_residual, float(np.max(np.abs((gram @ tau[..., None])[..., 0] + mom[:, 0]))))
        max_scale = max(max_scale, float(np.max(pairing_scale(gram, vv))))
        A[lo:hi] = rigid_generator(surface, tau)
    return _propagate(*A[stages.T[[0, 1, 1, 2]]], dt), max_residual, max_scale, closure


def _integrate_direct(body, surface, B, stroke):
    """RK4 on the particles X, kept component-major (2, N), the deformation read at X; then on G.

    A stage's velocity X L^T + tau . xi(X) (L = sigma-dot . B, tau solved from
    linear_momentum_map at its points) is C @ [1, x, y, x^2 - y^2, xy], its rows:
    C is tau . XI, XI the x and y rows of each xi_a, plus L in the x, y columns.
    X never reads G, so G' = A G is solved after the loop as (G^T)' = G^T A^T.
    Returns what _integrate_composed does, the solves read at each step's first stage.
    """
    dt = 1.0 / stroke.steps
    _, sigd, stages = _stage_controls(stroke)
    R = surface.R
    XI = np.array([[1, 0, 0, R, 0, 0, 0, 0, 0, 2 * R],                 # xi1 = 1 + R z^2
                   [0, 0, 0, 0, 2 * R, 1, 0, 0, -R, 0],                # xi2 = i (1 - R z^2)
                   [0, 0, -1, 0, 0, 0, 1, 0, 0, 0]], dtype=float)      # xi3 = i z
    L = sigd[:, 0, None, None] * B[0] + sigd[:, 1, None, None] * B[1]
    rows = np.empty((4, 5, body.n))
    rows[:, 0] = 1.0
    X = rows[0, 1:3]                    # the particles are the first stage's points
    X[...] = body.positions.T
    C = np.empty((4, 2, 5))
    weights = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])[:, None, None]
    taus = np.empty((4, stroke.steps, 3))
    grams, moms, vvs = np.empty((stroke.steps, 3, 3)), np.empty((stroke.steps, 3)), np.empty((stroke.steps, 1))
    work = momentum_work((body.n,))
    for n, nodes in enumerate(stages[:, [0, 1, 1, 2]].tolist()):
        for i, (node, h) in enumerate(zip(nodes, (0.0, 0.5 * dt, 0.5 * dt, dt))):
            p = rows[i, 1:3]
            if i:
                np.add(X, (h * C[i - 1]) @ rows[i - 1], out=p)
            np.subtract(*(p * p), rows[i, 3])
            np.multiply(*p, rows[i, 4])
            gram, mom, vv = linear_momentum_map(body, surface, p.T, L[node, None], work=work)
            tau = taus[i, n] = solve_gram(gram, -mom[0])[0]
            C[i] = (tau @ XI).reshape(2, 5)
            C[i, :, 1:3] += L[node]
            if not i:
                grams[n], moms[n], vvs[n] = gram, mom[0], vv
        X += (weights * C).swapaxes(0, 1).reshape(2, 20) @ rows.reshape(20, -1)
    G = _propagate(*np.swapaxes(rigid_generator(surface, taus), -1, -2), dt).T
    closure = float(np.max(np.abs(_extract_delta_tau(G, R)[1](body.positions).T - X)))
    max_residual = float(np.max(np.abs((grams @ taus[0, :, :, None])[..., 0] + moms)))
    return G, max_residual, float(np.max(pairing_scale(grams, vvs))), closure


def integrate_stroke(
    body: Body,
    surface: Surface,
    fields: Sequence[VectorField],
    stroke: Stroke,
    mode: str = "composed",
) -> TrajectoryRecord:
    """Carry the body around one closed control loop.

    fields pairs with the two control axes of the stroke.  The returned
    delta_tau is read from the final rigid element in the origin frame:
    translation is the chart image of the origin, rotation twice the phase
    of the group parameter alpha.  A delta_tau that overflowed raises
    NonFiniteResultError.  Both fields need a linear_matrix (ValueError
    naming the field otherwise).

    Round-off floor at small |R|: the translation is proportional to R,
    and half of it comes from the R r^2 term of the kernel weight
    m / (1 + R r^2)^2, which rounds away once |R| r^2 nears the float
    epsilon.  On README's triangle config the dx ratio reads 1.0000206 at
    R = 1e-2, 1.0000211 at 1e-10, 0.99982 at 1e-12 and 0.50001 at 1e-16,
    where 1 + R r^2 rounds to 1.
    """
    if len(fields) != 2:
        raise ValueError("exactly two control fields are required")
    if mode not in ("composed", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    surface.require_inside(body.positions)

    for f in fields:
        if f.linear_matrix is None:
            raise ValueError(f"integrate_stroke needs linear deformation fields: field {f.tag!r} has no linear_matrix")
    B = [np.asarray(f.linear_matrix, dtype=float) for f in fields]
    integrate = _integrate_composed if mode == "composed" else _integrate_direct
    G, max_residual, max_scale, closure = integrate(body, surface, B, stroke)

    drift = abs(complex(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]) - 1.0)
    delta_tau, _ = _extract_delta_tau(G, surface.R)
    if not np.all(np.isfinite(delta_tau)):
        raise NonFiniteResultError(f"integrated rigid increment is not finite: {delta_tau}")

    bound = 1e-12 * max(max_scale, 1e-300)
    return TrajectoryRecord(
        delta_tau=delta_tau,
        steps=stroke.steps,
        mode=mode,
        max_momentum_residual=max_residual,
        residual_bound=bound,
        shape_closure_defect=closure,
        group_drift=drift,
    )


def oracle_ratio(dx_integrated: float, dx_formula: float) -> float:
    """dx_integrated / dx_formula, with 0/0 reported as an exact-zero match (0.0)."""
    if dx_formula != 0.0:
        return dx_integrated / dx_formula
    return 0.0 if abs(dx_integrated) < 1e-20 else math.inf
