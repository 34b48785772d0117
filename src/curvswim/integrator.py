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
distinct stage times (nodes), each taken from the piece holding its step:
a step's end stage is the next step's start stage inside one piece.

Two shape-evolution models are provided:

  mode="composed" (default)   the shape at control value sigma is the
      unit-time flow of the frozen field sigma . eta from the initial
      shape.  For linear deformation fields this is an exact matrix
      exponential, the control loop closes in shape space identically, and
      the measured holonomy matches the leading-order formulas.  Requires
      fields with a linear matrix.  The momentum constraint is equivariant
      under isometries, so the rigid velocity read in the body frame, A,
      depends on the shape alone (the local connection), and G obeys the
      reconstruction equation dG/dt = G A(shape(t)).  RK4 runs on that
      equation.  A depends on time alone, so each node is evaluated once.
      The shapes and shape velocities of every node come from one batched
      closed-form 2x2 exponential and its Frechet derivative, the
      generators of a block of nodes from one momentum-map call and one
      stacked 3x3 solve into buffers allocated once per stroke, and only
      the 2x2 update of G is stepped.
      The isometry matrices form a real-linear space closed under
      products, so every RK4 stage agrees with the space-frame stage
      dG/dt = A_space G up to round-off.

  mode="direct"               deformation velocities are evaluated at the
      current particle positions and the particles are integrated with G,
      dG/dt = A_space G, stage by stage.  Simpler, works for any field, but
      for non-commuting field pairs the shape loop fails to close at the
      same order as the holonomy itself, which shows up as a leading-order
      offset in the rotation component.  Kept for comparison studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .body import Body, momentum_map, momentum_work
from .errors import SingularGramError, StrokeError
from .fields import VectorField, complex_view
from .geometry import Isometry, Surface, cosh_sinc, rigid_generator

__all__ = [
    "Stroke",
    "rectangle_stroke",
    "sinusoid_stroke",
    "TrajectoryRecord",
    "integrate_stroke",
]

DEFAULT_STEPS = 1024
Piece = Tuple[Callable[[float], np.ndarray], Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class Stroke:
    """Closed loop in the two-dimensional control (strain coefficient) space.

    pieces holds P smooth (sigma, sigma_dot) pairs of the stroke time t in
    [0, 1], piece p covering [p/P, (p+1)/P].  steps is rounded up to a
    multiple of P, so every RK4 step lies inside one piece.
    """

    pieces: Tuple[Piece, ...]
    steps: int
    signed_area: float

    def __post_init__(self):
        if self.steps < 4:
            raise StrokeError("a stroke needs at least 4 time steps")
        P = len(self.pieces)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "steps", P * math.ceil(self.steps / P))
        gap = float(np.max(np.abs(np.asarray(self.sigma(1.0)) - np.asarray(self.sigma(0.0)))))
        if gap > 1e-12:
            raise StrokeError(f"control loop does not close: |sigma(1)-sigma(0)| = {gap:.3e}")

    def piece(self, t: float) -> Piece:
        """The (sigma, sigma_dot) pair of the piece holding the time t."""
        P = len(self.pieces)
        return self.pieces[min(max(int(t * P), 0), P - 1)]

    def sigma(self, t: float) -> np.ndarray:
        return self.piece(t)[0](t)

    def sigma_dot(self, t: float) -> np.ndarray:
        return self.piece(t)[1](t)

    def reversed(self) -> "Stroke":
        """The loop run backwards: its piece p is piece P - 1 - p run backwards."""
        pieces = tuple((lambda t, s=s: s(1.0 - t), lambda t, sd=sd: -sd(1.0 - t)) for s, sd in reversed(self.pieces))
        return Stroke(pieces, self.steps, -self.signed_area)

    def with_steps(self, steps: int) -> "Stroke":
        return replace(self, steps=int(steps))


def _smoothstep(s: float) -> Tuple[float, float]:
    return s * s * (3.0 - 2.0 * s), 6.0 * s * (1.0 - s)


def rectangle_stroke(d1: float, d2: float, steps: int = DEFAULT_STEPS, profile: str = "uniform") -> Stroke:
    """Rectangle loop centered on the undeformed shape, traversed ccw.

    Corners [+-d1/2] x [+-d2/2]; enclosed signed area d1 * d2.  Each edge
    is one smooth piece, so steps is rounded up to a multiple of 4.
    """
    if profile not in ("uniform", "smooth"):
        raise StrokeError(f"unknown speed profile {profile!r}")
    ease = _smoothstep if profile == "smooth" else (lambda s: (s, 1.0))
    a, b = 0.5 * float(d1), 0.5 * float(d2)
    corners = np.array([[-a, -b], [a, -b], [a, b], [-a, b], [-a, -b]])

    def edge(k: int) -> Piece:
        p0, p1 = corners[k], corners[k + 1]
        return (
            lambda t: p0 + ease(t * 4.0 - k)[0] * (p1 - p0),
            lambda t: 4.0 * ease(t * 4.0 - k)[1] * (p1 - p0),
        )

    return Stroke(tuple(edge(k) for k in range(4)), steps, float(d1) * float(d2))


def sinusoid_stroke(d1: float, d2: float, steps: int = DEFAULT_STEPS) -> Stroke:
    """Smooth elliptic loop, centered, ccw, enclosed area pi d1 d2 / 4."""
    a, b = 0.5 * float(d1), 0.5 * float(d2)
    w = 2.0 * math.pi

    # The phase is wrapped so that sigma(1) == sigma(0) bitwise: sin(2 pi)
    # is about -2.4e-16, not 0.
    def sigma(t: float) -> np.ndarray:
        t %= 1.0
        return np.array([-a * math.cos(w * t), -b * math.sin(w * t)])

    def sigma_dot(t: float) -> np.ndarray:
        t %= 1.0
        return np.array([a * w * math.sin(w * t), -b * w * math.cos(w * t)])

    return Stroke(((sigma, sigma_dot),), int(steps), math.pi * a * b)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcome of one finite stroke."""

    delta_tau: np.ndarray            # (translation-x, translation-y, rotation) read from g(1)
    steps: int
    mode: str
    max_momentum_residual: float
    residual_bound: float            # 1e-12 * M * max |x-dot| seen along the stroke
    shape_closure_defect: float

    @property
    def translation(self) -> np.ndarray:
        return self.delta_tau[:2]

    @property
    def rotation(self) -> float:
        return float(self.delta_tau[2])


def _connection(gram: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """tau-dot with gram . tau-dot = -mom, for stacks gram (..., 3, 3) and mom (..., 3)."""
    try:
        return np.linalg.solve(gram, -mom[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(
            "momentum system became singular mid-stroke", eigenvalues=np.linalg.eigvalsh(gram)
        ) from exc


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
# O(N).
_BLOCK_PARTICLE_NODES = 12288


def _stage_controls(stroke: Stroke) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma and sigma-dot at the distinct RK4 stage times (nodes) of the stroke.

    Step n has stages at t, t + dt/2 and t + dt from the piece holding it,
    and its start is the end node of step n - 1 inside one piece (2 steps
    + 1 nodes per piece).  Returns sig and sigd of shape (nodes, 2) and
    stages of shape (steps, 3), the node of each stage.
    """
    dt = 1.0 / stroke.steps
    per_piece = stroke.steps // len(stroke.pieces)
    sig, sigd = [], []
    stages = np.empty((stroke.steps, 3), dtype=np.intp)
    for n in range(stroke.steps):
        t = n * dt
        s, sd = stroke.pieces[n // per_piece]
        times = (t, t + 0.5 * dt, t + dt) if n % per_piece == 0 else (t + 0.5 * dt, t + dt)
        for ts in times:
            sig.append(s(ts))
            sigd.append(sd(ts))
        stages[n] = np.arange(len(sig) - 3, len(sig))
    return np.array(sig), np.array(sigd), stages


def _expm2(C: np.ndarray, D: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(C) and its Frechet derivative at C along D, for stacks (..., 2, 2).

    With C = m I + N and N traceless, N^2 = q I where q = -det N, so
    exp(C) = e^m (c(q) I + S(q) N) with c, S and dS/dq from cosh_sinc, whose
    series branch also serves a large N with a small q.  The derivative
    along D = dm I + dN follows by the chain rule, with dq = tr(N dN) and
    dc/dq = S / 2.  Every matrix of the stack goes through the same
    elementwise steps, so equal matrices give bitwise-equal results.
    """
    m = 0.5 * (C[..., 0, 0] + C[..., 1, 1])
    dm = 0.5 * (D[..., 0, 0] + D[..., 1, 1])
    N = C - m[..., None, None] * np.eye(2)
    dN = D - dm[..., None, None] * np.eye(2)
    q = N[..., 0, 0] * N[..., 0, 0] + N[..., 0, 1] * N[..., 1, 0]
    dq = 2.0 * N[..., 0, 0] * dN[..., 0, 0] + N[..., 0, 1] * dN[..., 1, 0] + N[..., 1, 0] * dN[..., 0, 1]
    c, S, dS = cosh_sinc(q)
    em = np.exp(m)
    E = (em * c)[..., None, None] * np.eye(2) + (em * S)[..., None, None] * N
    L = (
        (em * (dm * c + 0.5 * S * dq))[..., None, None] * np.eye(2)
        + (em * (dm * S + dS * dq))[..., None, None] * N
        + (em * S)[..., None, None] * dN
    )
    return E, L


def _shape_flow(B: Sequence[np.ndarray], sig: np.ndarray, sigd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(C) and its derivative along C-dot, for C = sigma . B, in closed form.

    The control matrices are 2x2, so one batched _expm2 gives every shape
    matrix and its Frechet derivative at once.
    """
    C = sig[..., 0, None, None] * B[0] + sig[..., 1, None, None] * B[1]
    Cd = sigd[..., 0, None, None] * B[0] + sigd[..., 1, None, None] * B[1]
    return _expm2(C, Cd)


def _rigid_velocity(R: float, v: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complex v + tau . xi(x), shape (..., N, 1), for v and x (..., N, 2) and tau (..., 3):
    tau . xi is the Moebius field q + i tau3 z + R conj(q) z^2 with q = tau1 + i tau2."""
    z = complex_view(x)
    q = (tau[..., 0] + 1j * tau[..., 1])[..., None, None]
    return complex_view(v) + (q + z * (1j * tau[..., 2, None, None] + R * np.conj(q) * z))


def _integrate_composed(body, surface, B, stroke):
    """RK4 on the reconstruction equation dG/dt = G . A(shape(t)) in the body frame.

    A depends on time alone, so each distinct stage time (node) is
    evaluated once: the shapes of all nodes come from one closed-form shape
    flow, the generators of a block of nodes from one momentum-map call and
    one stacked 3x3 solve, and G is advanced over a step once its three
    nodes are in.  Every per-particle array lives in buffers allocated once
    per stroke.  Returns (G, max momentum residual, max space-frame speed,
    shape closure defect).
    """
    X0 = body.positions
    steps, R = stroke.steps, surface.R
    dt = 1.0 / steps
    sig, sigd, stages = _stage_controls(stroke)
    nodes = len(sig)
    # The loop's end points ride along in the same shape-flow call.
    ends = np.stack([stroke.sigma(0.0), stroke.sigma(1.0)])
    E, Ed = _shape_flow(B, np.concatenate([sig, ends]), np.concatenate([sigd, np.zeros_like(ends)]))
    closure = float(np.max(np.abs(E[-1] - E[-2])))
    per_block = min(nodes, max(1, _BLOCK_PARTICLE_NODES // body.n))
    work = momentum_work((per_block, body.n), 1)
    # ET[:, s, n] is E[n]^T (s = 0) or Ed[n]^T (s = 1); YV holds a block's Y, then its Vy
    ET = np.stack([E[:nodes], Ed[:nodes]]).transpose(3, 0, 1, 2)
    YV = np.empty((body.n, 4 * per_block))
    A = np.empty((nodes, 2, 2), dtype=complex)
    G = np.empty((steps + 1, 2, 2), dtype=complex)     # at each step's start, and the end
    G[0] = np.eye(2)
    starts = stages[:, 0]
    n = 0
    max_residual = max_speed = 0.0
    for lo in range(0, nodes, per_block):
        hi = min(lo + per_block, nodes)
        k = hi - lo
        np.matmul(X0, ET[:, :, lo:hi].reshape(2, 4 * k), out=YV[:, : 4 * k])
        y, vy = YV[:, : 4 * k].reshape(body.n, 2, k, 2).transpose(1, 2, 0, 3)
        gram, mom, _, _ = momentum_map(body, surface, vy[:, None], y, work=work)
        tau = _connection(gram, mom[:, 0])                # (nodes of the block, 3)
        A[lo:hi] = rigid_generator(surface, tau)
        while n < steps and stages[n, 2] < hi:
            A1, A2, A3 = A[stages[n]]
            g = G[n]
            k1 = g @ A1
            k2 = (g + 0.5 * dt * k1) @ A2
            k3 = (g + 0.5 * dt * k2) @ A2
            k4 = (g + dt * k3) @ A3
            G[n + 1] = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            n += 1
        # Diagnostics at the first stage of the steps that start in this
        # block, whose G is known by now.  The speed is read in the space
        # frame: x-dot = g'(Y) (Y-dot + tau . xi(Y)) with g = G there.
        first = slice(*np.searchsorted(starts, (lo, hi)))
        i = starts[first] - lo
        if len(i) == 0:
            continue
        residual = (gram[i] @ tau[i, :, None])[..., 0] + mom[i, 0]
        max_residual = max(max_residual, float(np.max(np.abs(residual))))
        g = Isometry(G[first, 0, 0, None, None], G[first, 0, 1, None, None], R)
        yz = complex_view(y[i])
        wz = _rigid_velocity(R, vy[i], tau[i], y[i])
        max_speed = max(max_speed, float(np.max(np.abs((g.derivative_complex(yz) * wz).view(float)))))
    return G[steps], max_residual, max_speed, closure


def _integrate_direct(body, surface, fields, stroke):
    """RK4 on particles and group together, velocities evaluated in place.

    Returns (final positions, G, max momentum residual, max speed).
    """
    dt = 1.0 / stroke.steps
    _, sigd, stages = _stage_controls(stroke)
    max_residual = max_speed = 0.0

    def deriv(X: np.ndarray, Gm: np.ndarray, sd: np.ndarray):
        """x-dot, G-dot and the momentum system (gram, tau-dot, mom) at one stage."""
        v_def = sd[0] * fields[0](X) + sd[1] * fields[1](X)
        gram, mom, _, _ = momentum_map(body, surface, v_def[None], X)
        tau_dot = _connection(gram, mom[0])
        xdot = _rigid_velocity(surface.R, v_def, tau_dot, X).view(float)
        return xdot, rigid_generator(surface, tau_dot) @ Gm, (gram, tau_dot, mom[0])

    X = body.positions.copy()
    G = np.eye(2, dtype=complex)
    for n in range(stroke.steps):
        sd1, sd2, sd3 = sigd[stages[n]]
        kx1, kg1, (gram, tau_dot, mom) = deriv(X, G, sd1)
        max_residual = max(max_residual, float(np.max(np.abs(gram @ tau_dot + mom))))
        max_speed = max(max_speed, float(np.max(np.abs(kx1))))
        kx2, kg2, _ = deriv(X + 0.5 * dt * kx1, G + 0.5 * dt * kg1, sd2)
        kx3, kg3, _ = deriv(X + 0.5 * dt * kx2, G + 0.5 * dt * kg2, sd2)
        kx4, kg4, _ = deriv(X + dt * kx3, G + dt * kg3, sd3)
        X = X + (dt / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
        G = G + (dt / 6.0) * (kg1 + 2.0 * kg2 + 2.0 * kg3 + kg4)
    return X, G, max_residual, max_speed


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
    of the group parameter alpha.
    """
    if len(fields) != 2:
        raise ValueError("exactly two control fields are required")
    if mode not in ("composed", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    X0 = surface.require_inside(body.positions)

    if mode == "composed":
        if any(f.linear_matrix is None for f in fields):
            raise ValueError(
                "composed mode needs linear deformation fields; use mode='direct' "
                "for general field evaluators"
            )
        B = [np.asarray(f.linear_matrix, dtype=float) for f in fields]
        G, max_residual, max_speed, closure = _integrate_composed(body, surface, B, stroke)
    else:
        X, G, max_residual, max_speed = _integrate_direct(body, surface, fields, stroke)

    delta_tau, g_final = _extract_delta_tau(G, surface.R)
    if mode == "direct":
        closure = float(np.max(np.abs(X - g_final(X0))))

    bound = 1e-12 * body.total_mass * max(max_speed, 1e-300)
    return TrajectoryRecord(
        delta_tau=delta_tau,
        steps=stroke.steps,
        mode=mode,
        max_momentum_residual=max_residual,
        residual_bound=bound,
        shape_closure_defect=closure,
    )


def oracle_ratio(dx_integrated: float, dx_formula: float) -> float:
    """dx_integrated / dx_formula, with 0/0 reported as an exact-zero match (0.0)."""
    if dx_formula != 0.0:
        return dx_integrated / dx_formula
    return 0.0 if abs(dx_integrated) < 1e-20 else math.inf
