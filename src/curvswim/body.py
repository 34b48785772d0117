"""Point-mass bodies: the momentum-map kernel, per-curvature frames, moments, balancing, principal axes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import BalanceConvergenceError, NonFiniteResultError, SingularGramError
from .geometry import (
    Isometry,
    Surface,
    chart_two_forms,
    rotation_about_origin,
    translation_to,
)

# |R| L^2 above this is outside the small-body regime the balancing
# convention is designed for; warn but proceed.
CURVATURE_EXTENT_WARN = 0.1
BALANCE_TOLERANCE = 1e-12   # balance: largest first moment / max(1, extent)
GRAM_CUTOFF = 1e-12         # solve_gram: smallest Gram eigenvalue / largest
BALANCE_MAX_ITER = 50
AXES_TOLERANCE = 1e-14      # principal_axes: |Q_xy| / max(Q_xx, Q_yy)


@dataclass(frozen=True)
class Body:
    """Point masses in the chart; immutable, so its mass, extent, moments and derived pieces are cached.

    Its isometry images (transformed, scaled and balance's result) share its
    checked, read-only masses array; only their new positions are checked.
    """

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
        x = self.positions
        q = particle_sums(self.masses, (x, x, x))
        return Moments(*map(_read_only, q), total_mass=self.total_mass)

    @cached_property
    def _derived(self) -> dict:
        return {}

    def derived(self, key: tuple, build: Callable[[], object]):
        """The body's piece named key: build() on first use, then kept with the body.

        A key's first entry names the piece's kind, so two kinds never share a
        key ((1, 1) == (1.0, 1.0)).  A piece must not hold the body, so that a
        body and its pieces form no reference cycle.
        """
        piece = self._derived.get(key)
        if piece is None:
            piece = self._derived[key] = build()
        return piece

    def frame(self, surface: Surface) -> "BodyFrame":
        """The body's frame on surface: one per R, made on first use and kept with the body."""
        R = surface.R
        return self.derived(("frame", R, math.copysign(1.0, R)),   # -0.0 and 0.0 give different signed zeros
                            lambda: BodyFrame(self.masses, self.positions, self.total_mass, surface))

    def transformed(self, g: Isometry) -> "Body":
        return self._image(g(self.positions))

    def scaled(self, factor: float) -> "Body":
        return self._image(factor * self.positions)

    def _image(self, positions: np.ndarray) -> "Body":
        """The body's masses (and total mass) at positions, a fresh (N, 2) float
        array it takes over; only their finiteness is left to check."""
        if not np.isfinite(positions).all():
            raise ValueError("masses and positions must be finite")
        image = object.__new__(Body)
        object.__setattr__(image, "masses", self.masses)
        object.__setattr__(image, "positions", _read_only(positions))
        object.__setattr__(image, "total_mass", self.total_mass)    # fills the cached property
        return image


@dataclass(frozen=True)
class Moments:
    """Mass-weighted coordinate sums up to third order."""

    q1: np.ndarray  # (2,)
    q2: np.ndarray  # (2, 2)
    q3: np.ndarray  # (2, 2, 2)
    total_mass: float


@dataclass(frozen=True, eq=False)
class BodyFrame:
    """What the formula route reads of one body on one surface, each part built on first use.

    rows and gram: the position half of momentum_map at the body's
    positions (per particle x, y, r2, d, xy and the weight w, shape (6, N),
    and the Gram matrix, not mass-normalized).  inverse and eigvals: the
    inverse of G/M and its eigenvalues, from one solve_gram(G/M, I), so a
    body that solve_gram refuses raises its error on first use of either.
    The rows of inverse are G/M solved against the unit vectors: for a right
    side b, b @ inverse is the solution of (G/M) c = b.  two_forms:
    killing_two_forms at the positions.  Every array is read-only.  The
    frame holds the body's read-only arrays, never the body, so a body and
    its frames form no reference cycle.
    """

    masses: np.ndarray
    positions: np.ndarray
    total_mass: float
    surface: Surface

    @cached_property
    def _position_part(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.masses.shape[0]
        rows = np.empty(12 * n).reshape(12, n)
        gram = _position_rows(self.masses, self.surface, self.positions, rows)
        return _read_only(rows[:6]), _read_only(gram)

    @property
    def rows(self) -> np.ndarray:
        return self._position_part[0]

    @property
    def gram(self) -> np.ndarray:
        return self._position_part[1]

    @cached_property
    def _solved(self) -> Tuple[np.ndarray, np.ndarray]:
        inverse, eigvals = solve_gram(self.gram / self.total_mass, np.eye(3))
        return _read_only(inverse), _read_only(eigvals)

    @property
    def inverse(self) -> np.ndarray:
        return self._solved[0]

    @property
    def eigvals(self) -> np.ndarray:
        return self._solved[1]

    @cached_property
    def two_forms(self) -> np.ndarray:
        return _read_only(chart_two_forms(self.surface.R, *self.rows[:3]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def moments(body: Body) -> Moments:
    """The body's moments, formed on first use and cached: one read-only object per body.

    q1, q2 and q3 are one particle_sums call on the positions, so a body
    symmetric under a mirror keeps the exact zeros its symmetry gives.
    """
    return body._moments


def particle_sums(masses, factors: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Mass-weighted particle sums of the component products of k = 1 to 3 point arrays.

    factors are k arrays of shape (N, 2), the positions or fields at them.
    The i-th sum, shape (2,) * i, is S_i[a_1 .. a_i] = sum_n m_n f_1[n, a_1]
    ... f_i[n, a_i], so (x, x, x) gives q1, q2 and q3.  The products are
    contiguous rows, level i the rows of level i - 1 times the components of
    f_i, summed by one np.add.reduce as momentum_map sums (no einsum, no
    BLAS product): mirror images cancel exactly, and S_i is bitwise the same
    whatever factors follow f_i.
    """
    n = masses.shape[0]
    k = len(factors)
    rows = np.empty(((2 << k) - 2, n))
    np.multiply(masses, factors[0].T, rows[:2])
    if k > 1:
        np.multiply(rows[:2, None], factors[1].T, rows[2:6].reshape(2, 2, n))
    if k > 2:
        np.multiply(rows[2:6, None], factors[2].T, rows[6:].reshape(4, 2, n))
    s = np.add.reduce(rows, -1)
    if k == 1:
        return (s,)
    sums = (s[:2], s[2:6].reshape(2, 2))
    return sums if k == 2 else sums + (s[6:].reshape(2, 2, 2),)


def momentum_work(points: Tuple[int, ...], k: int) -> np.ndarray:
    """An uninitialized workspace for momentum_map(work=...) at points of
    shape (..., N) with k velocity arrays per configuration: per point x, y,
    r2, d, xy and the weight, then the six other Gram rows, which the ten
    rows per velocity reuse once the Gram sums are taken.
    """
    return np.empty(math.prod(points) * (6 + max(6, 10 * k)))


def momentum_map(
    body: Body, surface: Surface, velocities, x=None, *, work=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass-weighted pairings of the Killing fields with themselves and with velocities.

    Pairs the three Killing fields at the points x (default: the body's
    positions), shape (..., N, 2), with themselves and with each velocity
    array of the stack velocities, shape (..., k, N, 2) with the leading
    axes of x, and each velocity array with itself.  Leading axes are batch
    axes: each configuration along them is paired on its own.  Returns
    (gram, mom, vv) with

        gram[..., a, b] = sum_n m_n g(xi_a, xi_b),   mom[..., k, a] = sum_n m_n g(xi_a, V_k),
        vv[..., k] = sum_n m_n g(V_k, V_k),

    not mass-normalized.  gram and mom are the ingredients of the local
    connection: the Gram matrix and the momentum map of the velocities.

    The fields are quadratic in the chart (xi1 = 1 + R z^2, xi2 =
    i (1 - R z^2), xi3 = i z), so every pairing is a sum of weighted
    moments.  With w = m / (1 + R r^2)^2, r^2 = x^2 + y^2, d = x^2 - y^2 and
    w' = w (1 - R r^2), seven rows w, w r^2, w r^4, w d, w xy, w' x, w' y
    give the Gram matrix,

        g11, g22 = S(w) + R^2 S(w r^4) +- 2R S(w d),   g33 = S(w r^2),
        g12 = 4R S(w xy),   g13 = -S(w' y),   g23 = S(w' x),

    and per velocity ten rows give its momenta and norm:

        mom1 = S(w vx) + R (S(d w vx) + 2 S(xy w vy)),
        mom2 = S(w vy) + R (2 S(xy w vx) - S(d w vy)),
        mom3 = S(x w vy) - S(y w vx),   vv = S(vx w vx) + S(vy w vy).

    gram is exactly symmetric.  Each block of rows is summed over the
    particles by one np.add.reduce over contiguous float rows (never a BLAS
    dot or a complex sum), so the particle products of mirror images cancel
    exactly and mirror-symmetric bodies keep their exact zeros.

    Every per-particle row is written in place (as ufunc outputs) into one
    flat float array: work when given, which must hold
    momentum_work(x.shape[:-1], k) elements (a longer one serves, from its
    start), else one allocated here the same way.  A caller that pairs many
    batches of one size can so reuse one workspace.  Each block is a
    C-contiguous view laid out as it would be on its own, so the results do
    not depend on whether work was passed, and no returned array aliases
    work.  Components are read as x[..., 0] and x[..., 1]: points (and
    velocities) stored component-major, passed as transposed views, are
    read as contiguous rows.

    With x None the position rows and gram are those of body.frame(surface),
    formed once per body and curvature; only the velocity rows are formed
    here, and gram is the frame's read-only array.
    """
    V = np.asarray(velocities, dtype=float)
    nv = V.shape[-3]
    if x is None:
        frame = body.frame(surface)
        rows, gram = frame.rows, frame.gram
        points = rows.shape[1:]
        size = math.prod(points)
        P = (np.empty(10 * nv * size) if work is None else work)[: 10 * nv * size]
    else:
        x = np.asarray(x, dtype=float)
        points = x.shape[:-1]
        size = math.prod(points)
        if work is None:
            work = momentum_work(points, nv)
        rows = work[: 12 * size].reshape((12,) + points)
        gram = _position_rows(body.masses, surface, x, rows)
        P = work[6 * size : (6 + 10 * nv) * size]    # over the freed Gram rows after w

    # ten rows per velocity
    P = P.reshape((10,) + points[:-1] + (nv,) + points[-1:])
    px, py, _, d, xy, w = rows[:6]
    R = surface.R
    vx, vy = V[..., 0], V[..., 1]
    wvx, wvy = P[0], P[1]
    np.multiply(w[..., None, :], vx, wvx)
    np.multiply(w[..., None, :], vy, wvy)
    for out, a, b in ((P[2], d, wvx), (P[3], xy, wvy), (P[4], xy, wvx), (P[5], d, wvy),
                      (P[6], px, wvy), (P[7], py, wvx)):
        np.multiply(a[..., None, :], b, out)
    np.multiply(vx, wvx, P[8])
    np.multiply(vy, wvy, P[9])
    t = np.add.reduce(P, -1)
    mom = np.empty(t.shape[1:] + (3,))
    np.add(t[0], R * (t[2] + 2.0 * t[3]), mom[..., 0])
    np.add(t[1], R * (2.0 * t[4] - t[5]), mom[..., 1])
    np.subtract(t[6], t[7], mom[..., 2])
    return gram, mom, t[8] + t[9]


def _position_rows(masses, surface: Surface, x, rows) -> np.ndarray:
    """The position half of momentum_map: fill rows, shape (12,) + x.shape[:-1],
    with x, y, r2, d, xy and w, then the six other Gram rows, and return the
    Gram matrix they sum to.
    """
    px, py, r2, d, xy = rows[:5]            # d and xy stay for the velocities
    w, wr2, wr4, wd, wxy, wpx, wpy = rows[5:]
    surface.chart(x, out=rows[:3])
    R = surface.R
    np.multiply(r2, R, w)
    np.add(1.0, w, w)
    np.multiply(w, w, w)
    np.divide(masses, w, w)
    np.subtract(px, py, d)
    np.add(px, py, wr2)                     # scratch
    np.multiply(d, wr2, d)
    np.multiply(px, py, xy)
    np.multiply(w, r2, wr2)
    if R:
        np.multiply(wr2, r2, wr4)
    else:
        wr4.fill(0.0)                       # no r^4 term, which could overflow at large |x|
    np.multiply(w, d, wd)
    np.multiply(w, xy, wxy)
    np.multiply(wr2, R, wpy)                # w' = w - R w r2, built in the w' y row
    np.subtract(w, wpy, wpy)
    np.multiply(wpy, px, wpx)
    np.multiply(wpy, py, wpy)
    s0, sr2, sr4, sd, sxy, sx, sy = np.add.reduce(rows[5:], -1)
    gram = np.empty(s0.shape + (3, 3))
    gram[..., 0, 0] = s0 + R * R * sr4 + 2.0 * R * sd
    gram[..., 1, 1] = s0 + R * R * sr4 - 2.0 * R * sd
    gram[..., 2, 2] = sr2
    gram[..., 0, 1] = gram[..., 1, 0] = 4.0 * R * sxy
    gram[..., 0, 2] = gram[..., 2, 0] = -sy
    gram[..., 1, 2] = gram[..., 2, 1] = sx
    return gram


def pairing_scale(gram, vv) -> np.ndarray:
    """sqrt(gram[..., a, a] vv[..., k]), shape (..., k, 3): the scale of mom[..., k, a].

    For momentum_map's outputs, Cauchy-Schwarz gives |mom[k, a]| <= this.
    At the solution tau of gram tau = -mom[k] it also bounds |(gram tau)_a|,
    since tau gram tau <= vv[k], so it is the scale of the solve's residual.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    return np.sqrt(np.maximum(diag, 0.0))[..., None, :] * np.sqrt(vv)[..., None]


def solve_gram(gram, rhs) -> Tuple[np.ndarray, np.ndarray]:
    """x with gram . x = rhs, and the eigenvalues of gram, for stacks (..., 3, 3) and (..., 3).

    The one solve of the Killing Gram system, so both routes refuse the
    same bodies: both oracle modes call it at every node or stage, and the
    formula route (gauge projection and swim equations) multiplies by the
    inverse that BodyFrame forms with it once per body and curvature.  A
    gram or rhs that is not finite raises
    NonFiniteResultError (tested first: eigvalsh returns finite garbage on
    a NaN entry); a matrix of the stack whose smallest eigenvalue is at
    most GRAM_CUTOFF times its largest raises SingularGramError with its
    rank and eigenvalues.  Otherwise x comes from one LU solve of the stack.
    """
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise NonFiniteResultError("Killing Gram matrix is not finite")
    eigvals = np.linalg.eigvalsh(gram)
    regular = eigvals[..., 0] > GRAM_CUTOFF * eigvals[..., -1]    # false for a zero matrix too
    if not regular.all():
        bad = eigvals[~regular][0]
        rank = int(np.sum(bad > GRAM_CUTOFF * bad[-1]))
        raise SingularGramError(f"Killing Gram matrix is singular (rank {rank} of 3)", rank=rank, eigenvalues=bad)
    return np.linalg.solve(gram, rhs[..., None])[..., 0], eigvals


def require_balanced(body: Body) -> None:
    """Raise ValueError unless the body's first moments are within 1e-8 M max(1, extent) of zero."""
    qx, qy = moments(body).q1.tolist()
    if max(abs(qx), abs(qy)) > 1e-8 * max(1.0, body.extent) * body.total_mass:
        raise ValueError("body must be balanced (vanishing first moments) first")


def balance(body: Body, surface: Surface) -> Body:
    """Translate the body (by exact isometries) until its first moments vanish.

    Each iteration applies the transvection translation_to(surface, w) whose
    w solves the balance condition to first order in w: the image of z is
    z + w + R conj(w) z^2 + O(w^2), so with q1 and q2 the mass-weighted means
    of z and z^2 at the current positions, w is the Newton step

        w + R conj(w) q2 = -q1,   w = (-q1 + R q2 conj(q1)) / (1 - R^2 |q2|^2),

    and balancing converges quadratically, in 2-3 transvections for a small
    body.  Where 1 - R^2 |q2|^2 < 1/2 or |R| |w|^2 exceeds
    CURVATURE_EXTENT_WARN (outside the small-body regime, where the step
    can leave the hyperbolic chart) the iteration takes the flat step
    w = -q1 instead, which is every step at R = 0.  The iteration runs on
    the positions array and builds one Body at the end, which shares the
    body's masses; a body that is already balanced is returned itself.  The
    means q1 and q2 come from one particle_sums call per iteration, so they
    are bitwise those of moments() at the same positions.
    """
    x = body.positions
    extent2 = float(np.max(np.sum(x**2, axis=1)))
    R = surface.R
    if abs(R) * extent2 > CURVATURE_EXTENT_WARN:
        warnings.warn(
            f"body extent is large for this curvature (|R| L^2 = {abs(R) * extent2:.3g}); "
            "chart-coordinate balancing degrades outside the small-body regime",
            stacklevel=2,
        )
    scale = max(1.0, math.sqrt(extent2))
    m, mass = body.masses, body.total_mass
    for _ in range(BALANCE_MAX_ITER):
        sums = particle_sums(m, (x, x) if R else (x,))
        qx, qy = (sums[0] / mass).tolist()
        if max(abs(qx), abs(qy)) <= BALANCE_TOLERANCE * scale:
            return body if x is body.positions else body._image(x)
        x = translation_to(surface, _balance_step(R, qx, qy, sums, mass))(x)
    raise BalanceConvergenceError(
        f"first-moment balancing did not converge in {BALANCE_MAX_ITER} iterations "
        f"(R={R:g}, extent={math.sqrt(extent2):g})"
    )


def _balance_step(R: float, qx: float, qy: float, sums, mass: float) -> Tuple[float, float]:
    """balance's step w from the means (qx, qy) of z and the particle_sums of the
    positions (with their second-order sums where R != 0): Newton, or flat -q1."""
    if R:
        (sxx, sxy), (_, syy) = (sums[1] / mass).tolist()
        c, s = sxx - syy, 2.0 * sxy                     # q2 = c + i s
        det = 1.0 - R * R * (c * c + s * s)
        if det >= 0.5:
            wx = (R * (c * qx + s * qy) - qx) / det
            wy = (R * (s * qx - c * qy) - qy) / det
            if abs(R) * (wx * wx + wy * wy) <= CURVATURE_EXTENT_WARN:
                return wx, wy
    return -qx, -qy


def principal_axes(body: Body) -> Body:
    """Rotate about the origin so the second moments are diagonal.

    Deterministic convention: if Q is already diagonal the body is returned
    unchanged, axes are ordered so Q_xx >= Q_yy, and the rotation angle is
    taken in (-pi/2, pi/2].
    """
    (qxx, qxy), (_, qyy) = moments(body).q2.tolist()
    scale = max(qxx, qyy, 1e-300)
    if abs(qxy) <= AXES_TOLERANCE * scale:
        if qxx >= qyy:
            return body
        return body.transformed(rotation_about_origin(Surface(0.0), math.pi / 2.0))
    # eigen-rotation of the symmetric 2x2 block; numpy's atan2, which differs from
    # math.atan2 in the last bit on some inputs, so prepared bodies keep their bits
    theta = 0.5 * float(np.arctan2(2.0 * qxy, qxx - qyy))
    c, s = math.cos(theta), math.sin(theta)
    lam1 = c * c * qxx + 2 * c * s * qxy + s * s * qyy
    lam2 = s * s * qxx - 2 * c * s * qxy + c * c * qyy
    angle = -theta
    if lam1 < lam2:
        angle += math.pi / 2.0
    return body.transformed(rotation_about_origin(Surface(0.0), angle))
