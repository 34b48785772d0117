"""Point-mass bodies: the momentum-map kernel (its weights the frame's pairing rule), frames, moments, balance, axes."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .errors import BalanceConvergenceError, CurvswimError, NonFiniteResultError, SingularGramError
from .fields import _read_only, monomial_rows, product_index
from .geometry import (
    KILLING_TABLE,
    Isometry,
    Surface,
    _abs2,
    killing_coefficients,
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
ROUND_OFF_LIMIT = 1e-3      # largest estimated share of a result lost to round-off


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
        return math.sqrt(float(np.max(_abs2(self.positions))))

    @cached_property
    def _moments(self) -> "Moments":
        T = self.mass_moments(3)     # x^a y^b at d (d + 1) / 2 + b, d = a + b: q2 and q3 by their count of y
        q2, q3 = T[[3, 4, 4, 5]].reshape(2, 2), T[[6, 7, 7, 8, 7, 8, 8, 9]].reshape(2, 2, 2)
        return Moments(T[1:3], _read_only(q2), _read_only(q3), total_mass=self.total_mass)

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

    def mass_moments(self, degree: int) -> np.ndarray:
        """S(m x^a y^b) for a + b <= degree, in fields.monomial_rows' order, read-only: kept per degree."""
        return self.derived(("mass_moments", degree),
                            lambda: _read_only(_mass_sums(self.masses, self.positions, degree)))

    def frame(self, surface: Surface) -> "BodyFrame":
        """The body's frame on surface: one per R, built whole on first use and kept with the body."""
        def build() -> BodyFrame:
            require_resolved_curvature(self, surface)
            rows = np.empty((POSITION_ROWS, self.n))
            gram, _ = _position_rows(self.masses, surface, self.positions, rows)
            P, Q = _moment_tables(R, rows)
            killing = np.einsum("aij,jk->aik", killing_coefficients(R), P)
            return BodyFrame(*map(_read_only, (gram, P, Q, killing)))

        R = surface.R
        return self.derived(("frame", R, math.copysign(1.0, R)), build)   # -0.0 and 0.0 give different signed zeros

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
    """What the formula route reads of one body on one surface, as tables; Body.frame builds it in one pass.

    With m a field's monomials (fields.VectorField), w = m_n / (1 + R r^2)^2,
    c_beta the Killing two-forms and S the particle sum: gram is G, the one
    _position_rows forms and the oracle solves; P[j, k] = S(w m_j m_k), so
    <f|h> = F[i] P H[i]; Q[beta, j, k] = S(m c_beta m_j m_k); killing[a] =
    XI[a] P, XI = geometry.killing_coefficients(R).  Every pairing is an
    einsum (no BLAS) of coefficients with these read-only tables.  inverse
    and eigvals, of G, come from one solve_gram(G, I) on first use of
    either, which raises the error of a body it refuses.
    """

    gram: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    killing: np.ndarray

    @cached_property
    def _solved(self) -> Tuple[np.ndarray, np.ndarray]:
        inverse, eigvals = solve_gram(self.gram, np.eye(3))
        return _read_only(inverse), _read_only(eigvals)

    @property
    def inverse(self) -> np.ndarray:
        return self._solved[0]

    @property
    def eigvals(self) -> np.ndarray:
        return self._solved[1]

    def momentum(self, coefficients: np.ndarray) -> np.ndarray:
        """<xi_a|f_k>, shape (k, 3), of k fields' coefficients, shape (k, 2, 6)."""
        return np.einsum("kij,aij->ka", coefficients, self.killing)

    def square_norm(self, coefficients: np.ndarray) -> np.ndarray:
        """|f_k|^2, shape (k,), clipped at zero where rounding takes it below."""
        ff = np.einsum("kij,jl,kil->k", coefficients, self.P, coefficients)
        return np.maximum(ff, 0.0, out=ff)

    def swim_right_side(self, pairs: np.ndarray) -> np.ndarray:
        """S(m c_beta (u^1 v^2 - u^2 v^1)), shape (p, 3), for p pairs (u, v) of coefficients, shape (p, 2, 2, 6)."""
        products = pairs[:, 0, :, :, None] * pairs[:, 1, ::-1, None, :]     # u^1 v^2 and u^2 v^1 by monomial
        return np.einsum("pjl,bjl->pb", products[:, 0] - products[:, 1], self.Q)


# _moment_tables' 36 sums: w x^a y^b of degree 4 or less, then h x^a y^b of degree 5 or less, each in
# fields.monomial_rows' order.  _TABLES[t, j, k] is the sum that entry (j, k) of P (t = 0) or of Q[t - 1] before
# its factor reads for the monomials m_j m_k: m_j m_k itself, or y, x or 1 times it among the h sums.
_TABLES = np.array([offset + product_index(a, b) for offset, a, b in ((0, 0, 0), (15, 0, 1), (15, 1, 0), (15, 0, 0))])


def _moment_tables(R: float, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """BodyFrame's P and Q from _position_rows' rows w x^a y^b (their cubic rows formed by its rule at R = 0,
    where it leaves them 0), and x or y times them.  With h = w / u, u = 1 + R r^2, m c_beta is 8 R h y,
    -8 R h x and 4 h - 2 w, so Q reads the rows h x^a y^b.  One np.add.reduce sums the rows, as the kernel
    sums, so mirror images cancel exactly; at R = 0 Q is 0, 0 and 2 P."""
    x, y, r2 = rows[:3]
    A = np.empty((36 if R else 15,) + x.shape)
    A[:10] = rows[3:13]
    if not R:
        np.multiply(A[3], rows[:2], A[6:8])
        np.multiply(A[5], rows[:2], A[8:10])
    np.multiply(A[6:10], x, A[10:14])
    np.multiply(A[9], y, A[14])
    if not R:
        P = np.add.reduce(A, -1)[_TABLES[0]]
        return P, np.stack([np.zeros_like(P), np.zeros_like(P), 2.0 * P])
    np.divide(A[:15], R * r2 + 1.0, A[15:30])
    np.multiply(A[25:30], x, A[30:35])
    np.multiply(A[29], y, A[35])
    T = np.add.reduce(A, -1)[_TABLES]
    Q = T[1:] * np.array([[[8.0 * R]], [[-8.0 * R]], [[4.0]]])
    Q[2] -= 2.0 * T[0]
    return T[0], Q


def _mass_sums(masses, x, degree: int) -> np.ndarray:
    """S(m x^a y^b), a + b <= degree, of masses at points x (N, 2): fields.monomial_rows weighed by the masses,
    summed by one np.add.reduce (no einsum, no BLAS), so mirror images cancel exactly."""
    return np.add.reduce(monomial_rows(x[:, 0], x[:, 1], degree, masses), -1)


def moments(body: Body) -> Moments:
    """The body's moments, gathered from its degree-3 mass_moments on first use and kept: one read-only object.

    q2 and q3 are exactly symmetric, and a body symmetric under a mirror
    keeps the exact zeros its symmetry gives.
    """
    return body._moments


def require_resolved_curvature(body: Body, surface: Surface) -> None:
    """Raise CurvswimError, naming |R| max r^2, where eps / (|R| max r^2) exceeds ROUND_OFF_LIMIT, R and the
    extent nonzero: round-off of the kernel weight m / (1 + R r^2)^2 then takes more than that share of the
    translation, which is proportional to R.  Body.frame and integrate_stroke refuse such a curvature."""
    scale, floor = abs(surface.R) * body.extent**2, np.finfo(float).eps / ROUND_OFF_LIMIT
    if surface.R and body.extent > 0.0 and scale < floor:
        raise CurvswimError(f"|R| max r^2 = {scale:.3g} is below {floor:.2g}, where round-off of the kernel weight "
                            f"loses more than {ROUND_OFF_LIMIT:g} of the translation")


# Rows per point of the position half: x, y and r2, then the eleven weighted
# monomials w {1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3} and w r^4.
POSITION_ROWS = 14


def momentum_work(points: Tuple[int, ...]) -> np.ndarray:
    """An uninitialized workspace for linear_momentum_map(work=...) at points
    of shape (..., N): the POSITION_ROWS rows per point of the position half.
    """
    return np.empty(math.prod(points) * POSITION_ROWS)


# _COEFFICIENTS[p, m, c] weighs R^p times moment sum m in column c of _position_rows' T.  Column c pairs two
# fields by BodyFrame's rule F[i] P H[i] with P one-hot, P[j, k] the position of m_j m_k among the 15 monomials of
# degree 4 or less, so it lists the sums S(w x^a y^b) it weighs.  The fields are polynomials in R: xi_a, and y_s e_r,
# which an entry L[r, s] of a velocity matrix weighs (v = L y).  Columns 0-5 are the Gram entries g11, g12, g13,
# g22, g23, g33; column 6 + 7 (2r + s) + j pairs y_s e_r with xi_j for mom_j, j < 3, and with y_t e_r' for the entry
# (L Q)[r', t] of L Q, Q = S(w y y^T), for j = 3 + 2r' + t.  The moments are monomial_rows' first ten, then r^4 =
# x^4 + 2 x^2 y^2 + y^4, weighed as x^4.
_FIELDS = np.zeros((2, 7, 2, 6))          # [power of R, field]: xi_a, then y_s e_r at 3 + 2r + s
_FIELDS[:, :3], _FIELDS[0, 3:] = KILLING_TABLE, np.eye(12)[[1, 2, 7, 8]].reshape(4, 2, 6)
_PAIRS = np.einsum("paij,jkm,qbik->pqabm", _FIELDS, np.eye(15)[product_index()], _FIELDS)
_PAIRS = np.stack([_PAIRS[0, 0], _PAIRS[0, 1] + _PAIRS[1, 0], _PAIRS[1, 1]])
_COLUMNS = np.concatenate([_PAIRS[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]], _PAIRS[:, 3:].reshape(3, 28, 15)], 1)
_QUARTIC = _COLUMNS[..., 10:]
assert np.array_equal(_QUARTIC, _QUARTIC[..., :1] * [1, 0, 2, 0, 1]), "a quartic pairing is not a multiple of r^4"
_COEFFICIENTS = np.ascontiguousarray(_COLUMNS[..., :11].transpose(0, 2, 1))
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@functools.lru_cache(maxsize=64)
def _coefficients(R: float) -> np.ndarray:
    """The (11, 34) weights of the moment sums at curvature R, read-only."""
    c0, c1, c2 = _COEFFICIENTS
    return _read_only(c0 + R * (c1 + R * c2))


def linear_momentum_map(
    body: Body, surface: Surface, x, L, *, work=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gram, mom, vv) for the linear velocities v = L y: the Killing fields' pairings with each other and
    with the velocities, and the velocities' with themselves, read from weighted moments.

    x holds the points, shape (..., N, 2), and L the velocity matrices,
    shape (..., k, 2, 2) with the leading axes of x: velocity array k of a
    configuration is V_k[n] = L[k] @ x[n].  The position half is
    _position_rows, and the velocity half is 2x2 contractions of its moment
    sums, so no per-particle velocity row is formed: entry L[r, s] weighs
    the sums S(w xi_a^r y_s) for mom_a and S(w y_s y^T) for L Q, Q =
    S(w y y^T), with w = m / (1 + R r^2)^2, S the sum over the particles
    and xi_a^r expanded by geometry.KILLING_TABLE.  vv = tr(L Q L^T) =
    S(w |L y|^2), a form that is never negative, is clipped at zero where
    rounding takes it below.  The contractions use no BLAS product and
    weigh each sum by exact coefficients, zeros included, so a
    mirror-symmetric body paired with a diagonal L keeps its exact zeros,
    and a configuration's result does not depend on the batch it is paired
    in.

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
    |x|), which one np.add.reduce sums.  gram and K are the sums weighed by
    _coefficients(R), the pairings of geometry.KILLING_TABLE's fields with
    each other and with linear velocities (see linear_momentum_map) written
    in the moments, all formed by one einsum (no BLAS); gram is exactly
    symmetric.  Body.frame reads the rows for its moment tables.
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
    T = np.einsum("m...,mj->...j", s, _coefficients(R))     # (..., 34)
    return T[..., _SYMMETRIC], T[..., 6:].reshape(T.shape[:-1] + (4, 7))


def pairing_scale(gram, vv) -> np.ndarray:
    """sqrt(gram[..., a, a] vv[..., k]), shape (..., k, 3): the scale of mom[..., k, a].

    For the pairings mom and vv, Cauchy-Schwarz gives |mom[k, a]| <= this.
    At the solution tau of gram tau = -mom[k] it also bounds |(gram tau)_a|,
    since tau gram tau <= vv[k], so it is the scale of the solve's residual.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    return np.sqrt(np.maximum(diag, 0.0))[..., None, :] * np.sqrt(vv)[..., None]


def solve_gram(gram, rhs) -> Tuple[np.ndarray, np.ndarray]:
    """x with gram . x = rhs, and the eigenvalues of gram, for stacks (..., 3, 3) and (..., 3).

    The one solve of the Killing Gram system, so both routes refuse the
    same bodies: both oracle modes call it at every node or stage, and the
    formula route multiplies by the inverse that BodyFrame forms with it
    once per body and curvature.  A gram or rhs that is not finite raises
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
    means q1 and q2 come from one mass_moments(2) table per iteration, which
    the result keeps for principal_axes, bitwise those of moments().
    """
    x = body.positions
    extent2 = float(np.max(_abs2(x)))
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
        sums = _mass_sums(m, x, 2)
        qx, qy = (sums[1:3] / mass).tolist()
        if max(abs(qx), abs(qy)) <= BALANCE_TOLERANCE * scale:
            image = body if x is body.positions else body._image(x)
            image.derived(("mass_moments", 2), lambda: _read_only(sums))
            return image
        x = translation_to(surface, _balance_step(R, qx, qy, sums, mass))(x)
    raise BalanceConvergenceError(
        f"first-moment balancing did not converge in {BALANCE_MAX_ITER} iterations "
        f"(R={R:g}, extent={math.sqrt(extent2):g})"
    )


def _balance_step(R: float, qx: float, qy: float, sums, mass: float) -> Tuple[float, float]:
    """balance's step w from the means (qx, qy) of z and the positions' degree-2
    mass moments (read where R != 0): Newton, or flat -q1."""
    if R:
        sxx, sxy, syy = (sums[3:6] / mass).tolist()
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
    _, _, _, qxx, qxy, qyy = body.mass_moments(2).tolist()     # q2, from the table balance leaves
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
