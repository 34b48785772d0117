"""Constant-curvature surfaces in a single stereographic chart.

The chart is the complex plane z = x + iy carrying the conformal metric

    ds^2 = |dz|^2 / (1 + R |z|^2)^2

with a single real parameter R: R > 0 is sphere-like, R = 0 Euclidean,
R < 0 hyperbolic (chart restricted to the disk |z|^2 < 1/|R|).  The metric
is normalized to the identity at the origin, and its Gaussian curvature
works out to K = 4R; the package treats R strictly as the metric parameter
and exposes K as a derived quantity.

Isometries are represented exactly as 2x2 complex matrices

    [[alpha, beta], [-R*conj(beta), conj(alpha)]],  |alpha|^2 + R|beta|^2 = 1

acting by the fractional linear map z -> (alpha z + beta)/(-R conj(beta) z
+ conj(alpha)), so composition and inversion are exact group operations.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ChartDomainError
from .fields import VectorField, _read_only, as_points, complex_view

# Relative margin kept between points and the hyperbolic chart boundary.
_DOMAIN_MARGIN = 1e-9
FD_STEP = 1e-4              # step h of numeric_exterior_derivative


def _abs2(a: np.ndarray) -> np.ndarray:
    """|z|^2 per point; a reduction over the size-2 axis is several times slower."""
    return a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]


@dataclass(frozen=True)
class Surface:
    """Constant-curvature surface, identified by its metric parameter R."""

    R: float = 0.0

    def __post_init__(self):
        # a subnormal R has no finite reciprocal, and the oracle divides by R
        if not math.isfinite(self.R) or 0.0 < abs(self.R) < sys.float_info.min:
            raise ValueError(f"surface parameter R must be finite, and zero or at least the smallest "
                             f"normal float {sys.float_info.min!r} in magnitude, got {self.R!r}")

    def conformal(self, p) -> np.ndarray:
        """u(z) = 1 + R |z|^2, the reciprocal square root of the metric factor."""
        return 1.0 + self.R * _abs2(as_points(p))

    def _require(self, a: np.ndarray, r2: np.ndarray) -> None:
        """Raise ChartDomainError unless every point of a (with |z|^2 = r2) is inside."""
        if self.R >= 0.0:
            return
        bound = (1.0 - _DOMAIN_MARGIN) / (-self.R)
        if not r2.max(initial=-math.inf) < bound:       # one reduction; a NaN fails it too
            bad = a[~(r2 < bound)]
            raise ChartDomainError(
                f"point(s) outside the chart domain |z|^2 < {1.0 / (-self.R):g} "
                f"for R={self.R:g}: {bad[:3]!r}"
            )

    def require_inside(self, p) -> np.ndarray:
        a = as_points(p)
        self._require(a, _abs2(a))
        return a

    def chart(self, p, out=None) -> np.ndarray:
        """Contiguous components x, y and r2 = |z|^2 of chart points p, shape (..., 2).

        Returns them stacked as one array of shape (3,) + p.shape[:-1],
        written into out when given.  |z|^2 is formed once and serves both
        the chart-domain check (which raises ChartDomainError like
        require_inside) and the caller.
        """
        a = as_points(p)
        xyr = np.empty((3,) + a.shape[:-1]) if out is None else out
        x, y, r2 = xyr[0, ...], xyr[1, ...], xyr[2, ...]
        # r2 = x*x + y*y, with the x row as scratch before it takes x
        np.multiply(a[..., 1], a[..., 1], r2)
        np.multiply(a[..., 0], a[..., 0], x)
        np.add(x, r2, r2)
        x[...] = a[..., 0]
        y[...] = a[..., 1]
        self._require(a, r2)
        return xyr


def gaussian_curvature(surface: Surface, at=None) -> float:
    """Gaussian curvature K = -exp(-2 phi) Laplacian(phi), evaluated pointwise.

    The Laplacian of phi = -log(1 + R|z|^2) has the closed form -4R/u^2, so
    the value is independent of the evaluation point and equals 4R.
    """
    p = np.zeros(2) if at is None else as_points(at)
    surface.require_inside(p)
    u = surface.conformal(p)
    lap_phi = -4.0 * surface.R / u**2
    return float(-(u**2) * lap_phi)


def geodesic_distance(surface: Surface, p, q) -> float:
    """Exact geodesic distance between two chart points.

    Uses the Moebius-invariant chordal ratio |z1 - z2| / |1 + R conj(z1) z2|
    composed with arctan (R > 0), identity (R = 0) or artanh (R < 0).
    """
    z1 = complex_view(surface.require_inside(p))[..., 0]
    z2 = complex_view(surface.require_inside(q))[..., 0]
    R = surface.R
    num = np.abs(z1 - z2)
    if R == 0.0:
        return float(num)
    den = np.abs(1.0 + R * np.conj(z1) * z2)
    if R > 0.0:
        s = math.sqrt(R)
        return float(np.arctan2(s * num, den) / s)
    s = math.sqrt(-R)
    ratio = s * num / den
    ratio = np.minimum(ratio, 1.0 - 1e-16)
    return float(np.arctanh(ratio) / s)


# ---------------------------------------------------------------------------
# Isometries


@dataclass(frozen=True)
class Isometry:
    """Exact isometry of a constant-curvature surface in Moebius form."""

    alpha: complex
    beta: complex
    R: float

    def normalized(self) -> "Isometry":
        """The same isometry with determinant |alpha|^2 + R |beta|^2 scaled to one."""
        d = abs(self.alpha) ** 2 + self.R * abs(self.beta) ** 2
        if d <= 0.0:
            raise ValueError("isometry representation degenerate (non-positive determinant)")
        s = math.sqrt(d)
        return Isometry(self.alpha / s, self.beta / s, self.R)

    def __call__(self, p) -> np.ndarray:
        """The image of chart points (..., 2), mapped through their complex view (no copy in)."""
        z = complex_view(p)
        a, b, R = self.alpha, self.beta, self.R
        return ((a * z + b) / (-R * np.conj(b) * z + np.conj(a))).view(float)


def rigid_generator(surface: Surface, tau) -> np.ndarray:
    """2x2 representation matrix of the Killing combination tau . xi.

    tau has shape (..., 3); the result has shape (..., 2, 2), one generator
    per coefficient triple.
    """
    t = np.asarray(tau, dtype=float)
    q = t[..., 0] + 1j * t[..., 1]
    th = 0.5 * t[..., 2]
    A = np.empty(t.shape[:-1] + (2, 2), dtype=complex)
    A[..., 0, 0] = 1j * th
    A[..., 0, 1] = q
    A[..., 1, 0] = -surface.R * np.conj(q)
    A[..., 1, 1] = -1j * th
    return A


_SERIES_Q = 1.0             # cosh_sinc sums the series below |q| = 1
_I2 = np.eye(2)             # expm2's identity
_POWERS = np.arange(10.0)
_SERIES = np.array([
    [1.0 / math.factorial(2 * k) for k in range(10)],                # c
    [1.0 / math.factorial(2 * k + 1) for k in range(10)],            # S
    [(k + 1.0) / math.factorial(2 * k + 3) for k in range(10)],      # dS/dq
])


def cosh_sinc(q) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c = cosh(sqrt q), S = sinh(sqrt q) / sqrt q and dS/dq = (c - S) / 2q, elementwise.

    For a traceless 2x2 matrix N with N^2 = q I, exp(N) = c I + S N; for
    q < 0 c and S are cos and sin of sqrt(-q).  Below |q| = _SERIES_Q the
    Taylor series to q^9 (first omitted term under 1e-18) replace the closed
    forms (formed only if some |q| is not below), where dS/dq cancels as q -> 0.
    Every entry takes the same elementwise steps: equal q, bitwise-equal results.
    """
    q = np.asarray(q, dtype=float)
    series = (q[..., None, None] ** _POWERS * _SERIES).sum(axis=-1)
    small = np.abs(q) < _SERIES_Q
    if small.all():
        return series[..., 0], series[..., 1], series[..., 2]
    qc = np.where(small, 1.0, q)            # keeps the closed forms off q = 0
    r = np.sqrt(np.abs(qc))
    c = np.where(qc > 0.0, np.cosh(r), np.cos(r))
    S = np.where(qc > 0.0, np.sinh(r), np.sin(r)) / r
    return tuple(np.where(small, series[..., k], f) for k, f in enumerate((c, S, (c - S) / (2.0 * qc))))


def expm2(C: np.ndarray, D: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(C) and its Frechet derivative at C along D, for stacks (..., 2, 2).

    The package's one 2x2 exponential, behind exp_rigid and the shape flow.
    With C = m I + N and N traceless, N^2 = q I where q = -det N, so
    exp(C) = e^m (c(q) I + S(q) N) with c, S and dS/dq from cosh_sinc, whose
    series branch also serves a large N with a small q.  q is real for real
    C and for isometry generators, so cosh_sinc takes its real part.  The
    derivative along D = dm I + dN follows by the chain rule, with dq =
    tr(N dN) and dc/dq = S / 2.  Every matrix of the stack goes through the
    same elementwise steps, so equal matrices give bitwise-equal results.
    """
    m = 0.5 * (C[..., 0, 0] + C[..., 1, 1])
    dm = 0.5 * (D[..., 0, 0] + D[..., 1, 1])
    N = C - m[..., None, None] * _I2
    dN = D - dm[..., None, None] * _I2
    q = N[..., 0, 0] * N[..., 0, 0] + N[..., 0, 1] * N[..., 1, 0]
    dq = 2.0 * N[..., 0, 0] * dN[..., 0, 0] + N[..., 0, 1] * dN[..., 1, 0] + N[..., 1, 0] * dN[..., 0, 1]
    c, S, dS = cosh_sinc(np.real(q))
    em = np.exp(m)
    emS = (em * S)[..., None, None]
    E = (em * c)[..., None, None] * _I2 + emS * N
    L = (
        (em * (dm * c + 0.5 * S * dq))[..., None, None] * _I2
        + (em * (dm * S + dS * dq))[..., None, None] * N
        + emS * dN
    )
    return E, L


def exp_rigid(surface: Surface, tau) -> Isometry:
    """Unit-time flow of tau . xi as an exact group element: the first row of expm2 of its generator."""
    E, _ = expm2(rigid_generator(surface, tau), np.zeros((2, 2)))
    return Isometry(complex(E[0, 0]), complex(E[0, 1]), surface.R)


def translation_to(surface: Surface, w) -> Isometry:
    """The origin-to-w transvection (z + w)/(1 - R conj(w) z), alpha real."""
    wz = complex(complex_view(surface.require_inside(w))[..., 0])
    a = 1.0 / math.sqrt(1.0 + surface.R * abs(wz) ** 2)
    return Isometry(complex(a), complex(a * wz), surface.R)


def rotation_about_origin(surface: Surface, angle: float) -> Isometry:
    half = 0.5 * float(angle)
    return Isometry(complex(math.cos(half), math.sin(half)), 0.0j, surface.R)


# ---------------------------------------------------------------------------
# Killing fields and their forms


# The Killing fields as field coefficients: component i of xi_a is sum_{p, j} KILLING_TABLE[p, a, i, j] R^p m_j
# over fields.VectorField's monomials m = (1, x, y, x^2, xy, y^2): tau . xi is the Moebius field
# q + i tau3 z + R conj(q) z^2, q = tau1 + i tau2, so xi1 = 1 + R z^2, xi2 = i (1 - R z^2), xi3 = i z.
KILLING_TABLE = np.zeros((2, 3, 2, 6))
KILLING_TABLE[0, [0, 1, 2, 2], [0, 1, 0, 1], [0, 0, 2, 1]] = 1.0, 1.0, -1.0, 1.0
KILLING_TABLE[1, [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1], [3, 5, 4, 4, 3, 5]] = 1.0, -1.0, 2.0, 2.0, -1.0, 1.0
KILLING_TABLE.setflags(write=False)


@functools.lru_cache(maxsize=64)
def killing_coefficients(R: float) -> np.ndarray:
    """KILLING_TABLE at curvature R, shape (3, 2, 6), read-only: VectorField(...[a]) is xi_a."""
    return _read_only(KILLING_TABLE[0] + R * KILLING_TABLE[1])


def rigid_field(surface: Surface, tau) -> VectorField:
    """tau . xi, tau of shape (3,), of coefficients tau . killing_coefficients(R); linear if q = 0."""
    return VectorField(np.einsum("a,aij->ij", np.asarray(tau, dtype=float), killing_coefficients(surface.R)),
                       tag="rigid")


def killing_fields(surface: Surface) -> Tuple[VectorField, VectorField, VectorField]:
    """The three Killing fields (translation-x, translation-y, rotation about the origin),
    each the rigid_field of a unit tau; the translations reduce to the Euclidean ones at R = 0."""
    return tuple(rigid_field(surface, e) for e in np.eye(3))


def killing_one_form(surface: Surface, index: int, p) -> np.ndarray:
    """Components (f_x, f_y) of the metric-lowered Killing field."""
    if index not in (1, 2, 3):
        raise ValueError(f"Killing index must be 1, 2 or 3, got {index}")
    a = surface.require_inside(p)
    u = surface.conformal(a)
    v = killing_fields(surface)[index - 1](a)
    return v / u[..., None] ** 2


def killing_two_forms(surface: Surface, p) -> np.ndarray:
    """Coefficients of dx ^ dy in the exterior derivatives of the lowered fields, shape (3,) + p.shape[:-1]:
    8 R y / u^3, -8 R x / u^3 and 2 (1 - R|z|^2) / u^3 over u = 1 + R|z|^2, from one |z|^2 and one u^3.
    At R = 0 the translation forms vanish identically and the rotation form is the constant 2."""
    R = surface.R
    x, y, r2 = surface.chart(p)
    return np.stack([8.0 * R * y, -8.0 * R * x, 2.0 * (1.0 - R * r2)]) / (1.0 + R * r2) ** 3


def numeric_exterior_derivative(one_form: Callable[[np.ndarray], np.ndarray], p) -> float:
    """Curl d_x f_y - d_y f_x of a one-form field by finite differences.

    The central difference D(h) has an O(h^2) error; the Richardson
    combination (4 D(h/2) - D(h)) / 3 at h = FD_STEP cancels it, leaving
    O(h^4).
    """
    a = as_points(p)

    def central(step: float):
        ex = np.array([step, 0.0])
        ey = np.array([0.0, step])
        dfy = (one_form(a + ex)[..., 1] - one_form(a - ex)[..., 1]) / (2.0 * step)
        dfx = (one_form(a + ey)[..., 0] - one_form(a - ey)[..., 0]) / (2.0 * step)
        return dfy - dfx

    return float((4.0 * central(0.5 * FD_STEP) - central(FD_STEP)) / 3.0)


def strain_of(surface: Surface, f: VectorField, p) -> np.ndarray:
    """Strain of f: half the Lie derivative of the metric along f, L_f g / 2.

    For g = delta / u^2 with u = 1 + R|z|^2 this is the conformal Killing
    operator (sym grad f - 2R (z . f) / u I) / u^2, with grad f[j, k] =
    d_j f^k, which equals the symmetrized covariant gradient of the lowered
    field g . f.  With the 1/2 factor the diagonal linear field x d/dx
    carries unit xx-strain.  Holonomy results only involve antisymmetrized
    field pairs and are independent of this factor.
    """
    a = surface.require_inside(p)
    u = surface.conformal(a)
    v = f(a)
    dv = f.gradient(a)
    dilation = 2.0 * surface.R * (a[..., 0] * v[..., 0] + a[..., 1] * v[..., 1]) / u
    sym = 0.5 * (dv + np.swapaxes(dv, -1, -2)) - dilation[..., None, None] * np.eye(2)
    return sym / u[..., None, None] ** 2


def killing_residual(surface: Surface, f: VectorField, p) -> float:
    """Max-norm of the strain tensor; vanishes exactly on Killing fields."""
    return float(np.max(np.abs(strain_of(surface, f, p))))


# ---------------------------------------------------------------------------
# Curvature tensor and translation fields derived from it


@dataclass(frozen=True)
class CurvatureTensor:
    """Riemann components R[j, l, i, k] of a surface in a local Euclidean frame.

    components has shape (2, 2, 2, 2): bodies live in a two-dimensional
    chart.  Antisymmetric in (j, l) and (i, k), symmetric under pair
    exchange.  The sign convention is fixed by requiring that the associated
    translation field reproduce the exact two-form of the built-in surfaces,
    which gives R_1212 = K = 4R.
    """

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (2, 2, 2, 2):
            raise ValueError(f"curvature components must form a (2,2,2,2) array, got shape {c.shape}")
        object.__setattr__(self, "components", c)

    @classmethod
    def constant_curvature(cls, K: float) -> "CurvatureTensor":
        delta = np.eye(2)
        comps = K * (
            np.einsum("ji,lk->jlik", delta, delta)
            - np.einsum("jk,li->jlik", delta, delta)
        )
        return cls(comps)

    @classmethod
    def from_surface(cls, surface: Surface) -> "CurvatureTensor":
        return cls.constant_curvature(gaussian_curvature(surface))


def translation_killing_approx(curv: CurvatureTensor, k: int) -> VectorField:
    """Approximate translation Killing field near the origin of a local frame.

    Returns covariant components: value e_k at the origin, vanishing
    antisymmetric derivative there, and the compatible quadratic profile
    -x^j x^i sym[j, l, i] / 2 of the curvature.  Its covariant derivative,
    which the curvature routes read, is translation_killing_gradient; the
    plain partial derivatives of the profile (VectorField.gradient) differ
    from it by the O(x) Christoffel terms of the local frame, which is
    intrinsic to normal coordinates rather than an implementation gap.
    """
    if k not in (1, 2):
        raise ValueError("axis index must be in 1..2")
    Rt = curv.components
    kk = k - 1
    # symmetrized quadratic coefficient sym[j, l, i], symmetric in j and i: value path of the one-form
    sym = 0.5 * (Rt[:, :, :, kk] + np.einsum("jli->ilj", Rt[:, :, :, kk]))
    C = np.zeros((2, 6))
    C[kk, 0] = 1.0
    C[:, 3:] = -0.5 * np.stack([sym[0, :, 0], 2.0 * sym[0, :, 1], sym[1, :, 1]], -1)
    return VectorField(C, tag=f"translation-approx-{k}")


def translation_killing_gradient(curv: CurvatureTensor, k: int, p) -> np.ndarray:
    """The covariant derivative -x^i R[j, l, i, k] of translation_killing_approx(curv, k) at points p,
    shape (..., 2, 2), indexed [..., j, l] (exact to first order)."""
    if k not in (1, 2):
        raise ValueError("axis index must be in 1..2")
    return -np.einsum("...i,jli->...jl", as_points(p), curv.components[:, :, :, k - 1])
