"""Point-mass bodies: the momentum-map kernel, per-curvature frames, moments, balancing, principal axes."""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class Body:
    """Point masses in the chart; immutable, so its mass, extent, moments and derived pieces are cached.

    Bodies compare and hash by identity, as their frames do.

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

    rows and gram: the position half of both kernels at the body's
    positions (per particle x, y, r2 and the factors w, w x, w y, w d and
    w xy of the weight w, shape (8, N), and the Gram matrix, not
    mass-normalized).  inverse and eigvals: the
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
        rows = np.empty((POSITION_ROWS, self.masses.shape[0]))
        gram, _ = _position_rows(self.masses, self.surface, self.positions, rows)
        return _read_only(rows[:8]), _read_only(gram)

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


# Rows per point of the position half: x, y and r2, then the eleven weighted
# monomials w {1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3} and w r^4.
POSITION_ROWS = 14


def momentum_work(points: Tuple[int, ...]) -> np.ndarray:
    """An uninitialized workspace for linear_momentum_map(work=...) at points
    of shape (..., N): the POSITION_ROWS rows per point of the position half.
    """
    return np.empty(math.prod(points) * POSITION_ROWS)


def momentum_map(body: Body, surface: Surface, velocities, x=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    S the sum over the particles, _position_rows gives the Gram matrix from
    the weighted monomials, and per velocity ten rows give its momenta and
    norm from the factors w, w d, w xy, w x and w y:

        mom1 = S(w vx) + R (S(w d vx) + 2 S(w xy vy)),
        mom2 = S(w vy) + R (2 S(w xy vx) - S(w d vy)),
        mom3 = S(w x vy) - S(w y vx),   vv = S(vx w vx) + S(vy w vy).

    gram is exactly symmetric.  Each block of rows is summed over the
    particles by one np.add.reduce over contiguous float rows (never a BLAS
    dot or a complex sum), so the particle products of mirror images cancel
    exactly and mirror-symmetric bodies keep their exact zeros.  Components
    are read as x[..., 0] and x[..., 1]: points (and velocities) stored
    component-major, passed as transposed views, are read as contiguous rows.
    The velocity rows are laid over the position rows that the Gram sums free.

    With x None the position rows and gram are those of body.frame(surface),
    formed once per body and curvature; only the velocity rows are formed
    here, and gram is the frame's read-only array.  Velocities that are
    linear in the points are paired from the moments alone by
    linear_momentum_map.
    """
    V = np.asarray(velocities, dtype=float)
    nv = V.shape[-3]
    if x is None:
        frame = body.frame(surface)
        factors, gram = frame.rows[3:], frame.gram
        points = factors.shape[1:]
        P = np.empty(10 * nv * math.prod(points))
    else:
        x = np.asarray(x, dtype=float)
        points = x.shape[:-1]
        size = math.prod(points)
        work = np.empty(size * (8 + max(POSITION_ROWS - 8, 10 * nv)))
        rows = work[: POSITION_ROWS * size].reshape((POSITION_ROWS,) + points)
        gram, _ = _position_rows(body.masses, surface, x, rows)
        factors = rows[3:8]
        P = work[8 * size : (8 + 10 * nv) * size]    # over the rows freed after w xy

    # ten rows per velocity
    P = P.reshape((10,) + points[:-1] + (nv,) + points[-1:])
    w, wx, wy, wd, wxy = (f[..., None, :] for f in factors)
    R = surface.R
    vx, vy = V[..., 0], V[..., 1]
    for out, a, b in ((P[0], w, vx), (P[1], w, vy), (P[2], wd, vx), (P[3], wxy, vy), (P[4], wxy, vx),
                      (P[5], wd, vy), (P[6], wx, vy), (P[7], wy, vx)):
        np.multiply(a, b, out)
    np.multiply(vx, P[0], P[8])
    np.multiply(vy, P[1], P[9])
    t = np.add.reduce(P, -1)
    mom = np.empty(t.shape[1:] + (3,))
    np.add(t[0], R * (t[2] + 2.0 * t[3]), mom[..., 0])
    np.add(t[1], R * (2.0 * t[4] - t[5]), mom[..., 1])
    np.subtract(t[6], t[7], mom[..., 2])
    return gram, mom, t[8] + t[9]


# The weighted moments _position_rows sums, in the order of its rows.
_MOMENTS = ("1", "x", "y", "xx", "xy", "yy", "xxx", "xxy", "xyy", "yyy", "r4")

# Each pairing as a linear combination of the moment sums S(w .):
# (column, moment, power of R, coefficient).  Columns 0-5 are the Gram
# entries g11, g12, g13, g22, g23, g33.  Column 6 + 7 i + j is K[i, j],
# i over the entries a, b, c, d of a velocity matrix L = [[a, b], [c, d]]:
# for the velocity v = L y, (a, b, c, d) . K[:, j] is mom1, mom2 and mom3
# for j = 0, 1, 2 and the entries of L Q, Q = S(w y y^T), for j = 3-6.
_TERMS = (
    (0, "1", 0, 1), (0, "xx", 1, 2), (0, "yy", 1, -2), (0, "r4", 2, 1),
    (1, "xy", 1, 4),
    (2, "y", 0, -1), (2, "xxy", 1, 1), (2, "yyy", 1, 1),
    (3, "1", 0, 1), (3, "xx", 1, -2), (3, "yy", 1, 2), (3, "r4", 2, 1),
    (4, "x", 0, 1), (4, "xxx", 1, -1), (4, "xyy", 1, -1),
    (5, "xx", 0, 1), (5, "yy", 0, 1),
    # mom1 = a Sx + b Sy + R (a (Sxxx - Sxyy) + b (Sxxy - Syyy) + 2 c Sxxy + 2 d Sxyy)
    (6, "x", 0, 1), (6, "xxx", 1, 1), (6, "xyy", 1, -1),
    (13, "y", 0, 1), (13, "xxy", 1, 1), (13, "yyy", 1, -1),
    (20, "xxy", 1, 2), (27, "xyy", 1, 2),
    # mom2 = c Sx + d Sy + R (2 a Sxxy + 2 b Sxyy - c (Sxxx - Sxyy) - d (Sxxy - Syyy))
    (7, "xxy", 1, 2), (14, "xyy", 1, 2),
    (21, "x", 0, 1), (21, "xxx", 1, -1), (21, "xyy", 1, 1),
    (28, "y", 0, 1), (28, "xxy", 1, -1), (28, "yyy", 1, 1),
    # mom3 = c Sxx + d Sxy - a Sxy - b Syy
    (8, "xy", 0, -1), (15, "yy", 0, -1), (22, "xx", 0, 1), (29, "xy", 0, 1),
    # L Q
    (9, "xx", 0, 1), (10, "xy", 0, 1), (16, "xy", 0, 1), (17, "yy", 0, 1),
    (25, "xx", 0, 1), (26, "xy", 0, 1), (32, "xy", 0, 1), (33, "yy", 0, 1),
)
_COEFFICIENTS = np.zeros((3, len(_MOMENTS), 34))
for _col, _moment, _power, _c in _TERMS:
    _COEFFICIENTS[_power, _MOMENTS.index(_moment), _col] = _c
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@functools.lru_cache(maxsize=64)
def _coefficients(R: float) -> np.ndarray:
    """The (11, 34) weights of the moment sums at curvature R, read-only."""
    c0, c1, c2 = _COEFFICIENTS
    return _read_only(c0 + R * (c1 + R * c2))


def linear_momentum_map(
    body: Body, surface: Surface, x, L, *, work=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """momentum_map's (gram, mom, vv) for the linear velocities v = L y, read from weighted moments.

    x holds the points, shape (..., N, 2), and L the velocity matrices,
    shape (..., k, 2, 2) with the leading axes of x: velocity array k of a
    configuration is V_k[n] = L[k] @ x[n].  The position half is
    _position_rows, and the velocity half is 2x2 contractions of its moment
    sums, so no per-particle velocity row is formed.  With S the sum over
    the particles and w = m / (1 + R r^2)^2, write the moments m1 = S(w y),
    T1 = S(w d y), T2 = S(w xy y) and Q = S(w y y^T) (y = (x, y), d =
    x^2 - y^2), and l1, l2 for the rows of L.  Then

        mom1 = l1.m1 + R (l1.T1 + 2 l2.T2),   mom2 = l2.m1 + R (2 l1.T2 - l2.T1),
        mom3 = (L Q)_21 - (L Q)_12,           vv = tr(L Q L^T) = S(w |L y|^2),

    the local connection of a linear shape change read straight from the
    moments up to third order.  vv, a form that is never negative, is
    clipped at zero where rounding takes it below.  The contractions use no
    BLAS product and weigh each sum by exact coefficients, zeros included,
    so a mirror-symmetric body paired with a diagonal L keeps its exact
    zeros, and a configuration's result does not depend on the batch it is
    paired in.

    The rows are written into work when given, which must hold
    momentum_work(x.shape[:-1]) elements (a longer one serves, from its
    start), else into one array allocated here; the results do not depend
    on which, and none aliases work.
    """
    x, L = np.asarray(x, dtype=float), np.asarray(L, dtype=float)
    points = x.shape[:-1]
    size = POSITION_ROWS * math.prod(points)
    rows = (np.empty(size) if work is None else work)[:size].reshape((POSITION_ROWS,) + points)
    gram, K = _position_rows(body.masses, surface, x, rows)
    entries = L.reshape(L.shape[:-2] + (4, 1))
    U = np.add.reduce(entries * K[..., None, :, :], -2)        # (..., k, 7)
    vv = np.add.reduce(U[..., 3:] * entries[..., 0], -1)
    return gram, U[..., :3], np.maximum(vv, 0.0, out=vv)


def _position_rows(masses, surface: Surface, x, rows) -> Tuple[np.ndarray, np.ndarray]:
    """The position half of both kernels: fill rows, shape (14,) + x.shape[:-1],
    and return the Gram matrix and the velocity coefficients K, shape
    x.shape[:-2] + (4, 7), both read from the weighted moment sums.

    rows takes x, y and r2, then the weighted monomials w {1, x, y, x^2, xy,
    y^2, x^3, x^2 y, x y^2, y^3} and w r^4 (the cubic and quartic rows only
    enter times R, and are zero at R = 0, where they could overflow at large
    |x|), which one np.add.reduce sums.  Then the w x^2 row takes w d =
    w (x^2 - y^2), so rows[3:8] are w, w x, w y, w d and w xy, the factors
    of momentum_map's velocity rows.  With w' = w (1 - R r^2),

        g11, g22 = S(w) + R^2 S(w r^4) +- 2R S(w d),   g33 = S(w r^2),
        g12 = 4R S(w xy),   g13 = -S(w' y),   g23 = S(w' x),

    where S(w d) = Sxx - Syy, S(w r^2) = Sxx + Syy, S(w' x) = Sx - R (Sxxx
    + Sxyy) and S(w' y) = Sy - R (Sxxy + Syyy).  These and K, the momenta
    of linear velocities (see linear_momentum_map), are the _TERMS
    combinations of the sums, all formed by one einsum (no BLAS), and gram
    is exactly symmetric.
    """
    px, py, r2 = surface.chart(x, out=rows[:3])
    w = rows[3]
    R = surface.R
    np.multiply(r2, R, w)
    np.add(1.0, w, w)
    np.multiply(w, w, w)
    np.divide(masses, w, w)
    xy = rows[:2]
    np.multiply(w, xy, rows[4:6])                   # w x, w y
    np.multiply(rows[4], xy, rows[6:8])             # w x^2, w xy
    np.multiply(rows[5], py, rows[8])               # w y^2
    if R:
        np.multiply(rows[6], xy, rows[9:11])        # w x^3, w x^2 y
        np.multiply(rows[8], xy, rows[11:13])       # w x y^2, w y^3
        np.add(rows[6], rows[8], rows[13])
        np.multiply(rows[13], r2, rows[13])         # w r^4
    else:
        rows[9:].fill(0.0)
    s = np.add.reduce(rows[3:], -1)
    np.subtract(rows[6], rows[8], rows[6])          # w d for the velocity rows
    T = np.einsum("m...,mj->...j", s, _coefficients(R))     # (..., 34)
    return T[..., _SYMMETRIC], T[..., 6:].reshape(T.shape[:-1] + (4, 7))


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
    # math.atan2 in the last bit on some inputs, so prepared bodies keep their bits.
    # It turns the larger eigenvalue onto x: past the test above the two differ
    # by sqrt((Q_xx - Q_yy)^2 + 4 Q_xy^2) >= 2e-14 scale, far above rounding.
    theta = 0.5 * float(np.arctan2(2.0 * qxy, qxx - qyy))
    return body.transformed(rotation_about_origin(Surface(0.0), -theta))
