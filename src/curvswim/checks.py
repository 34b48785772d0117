"""The invariant registry behind `curvswim check` and the acceptance suite.

Each invariant is defined once, here.  Evaluating it gives one Record
(name, value, bound, ok) per measured quantity, where ok means
`value <relation> bound`; a crash fails every record of the invariant.
Randomized invariants draw from a fresh generator seeded with the run seed,
so each is reproducible on its own.  The fault-injection hook perturbs the
first Killing field, which fails the killing-residual-grid record and no
other.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .body import Body, balance, moments, principal_axes
from .deformation import (
    LINEAR_PAIRS, admissible_linear_deformations, gauge_fixed_linear_deformation, gauge_residuals, linear_deformation,
    project_gauge,
)
from .fields import VectorField, linear_field
from .geometry import (
    CurvatureTensor,
    Surface,
    exp_rigid,
    gaussian_curvature,
    geodesic_distance,
    killing_fields,
    killing_one_form,
    killing_residual,
    killing_two_forms,
    numeric_exterior_derivative,
    rigid_field,
    strain_of,
    translation_killing_gradient,
)
from .holonomy import holonomy_general, holonomy_linear, holonomy_small_swimmer
from .integrator import integrate_stroke, rectangle_stroke
from .scenarios import (
    RingSpec,
    TriangleSpec,
    ring_displacement,
    ring_simulate,
    triangle_body,
    triangle_control_fields,
    triangle_swim_coefficient,
)

R_VALUES = (-1.0, -0.25, 0.0, 0.25, 1.0)
K4 = CurvatureTensor.constant_curvature(4.0)
_RELATIONS = {"<": operator.lt, "==": operator.eq, ">": operator.gt}


@dataclass(frozen=True)
class Record:
    """One measured quantity: ok is `value <relation> bound`; error is set when the invariant raised."""

    name: str
    value: float
    bound: float
    ok: bool
    relation: str
    error: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if self.error is not None:
            return f"{status}  {self.name}: raised {self.error}"
        return f"{status}  {self.name}: {self.value:.3e} {self.relation} {self.bound:.1e}"


@dataclass(frozen=True)
class Invariant:
    specs: Tuple[Tuple[str, str, float], ...]   # (record name, relation, bound) per value
    measure: Callable[[np.random.Generator, bool], Sequence[float]]

    def records(self, seed: int, inject_killing_fault: bool) -> List[Record]:
        try:
            values = [float(v) for v in self.measure(np.random.default_rng(seed), inject_killing_fault)]
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return [Record(name, math.nan, bound, False, rel, error) for name, rel, bound in self.specs]
        return [Record(name, v, bound, bool(_RELATIONS[rel](v, bound)), rel)
                for (name, rel, bound), v in zip(self.specs, values, strict=True)]


REGISTRY: List[Invariant] = []


def invariant(*specs: Tuple[str, str, float]):
    """Register measure(rng, inject_killing_fault) -> one value per (name, relation, bound) spec."""

    def register(measure):
        REGISTRY.append(Invariant(specs, measure))
        return measure

    return register


def run_checks(seed: int = 0, inject_killing_fault: bool = False) -> List[Record]:
    """Every record of the registry, in registration order."""
    return [r for inv in REGISTRY for r in inv.records(seed, inject_killing_fault)]


def random_balanced_body(rng: np.random.Generator, n: int = 5, extent: float = 0.4) -> Body:
    """n masses in [0.5, 2) at |x|, |y| < extent, balanced in the flat chart and in principal axes."""
    body = Body(masses=rng.uniform(0.5, 2.0, n), positions=rng.uniform(-extent, extent, (n, 2)))
    return principal_axes(balance(body, Surface(0.0)))


def _random_bodies(rng: np.random.Generator, count: int):
    """(body, pair_b, pair_c): 3-6 particles within 0.3, two distinct linear deformation pairs."""
    for _ in range(count):
        body = random_balanced_body(rng, int(rng.integers(3, 7)), 0.3)
        i = int(rng.integers(0, 3))
        yield body, LINEAR_PAIRS[i], LINEAR_PAIRS[(i + 1 + int(rng.integers(0, 2))) % 3]


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


@invariant(("killing-residual-grid", "<", 1e-8))
def _killing_fields(rng, fault):
    grid = [(x, y) for x in np.linspace(-0.5, 0.5, 5) for y in np.linspace(-0.5, 0.5, 5)]
    worst = 0.0
    for R in R_VALUES:
        s = Surface(R)
        fields = list(killing_fields(s))
        if fault:
            fields[0] = VectorField(fields[0].coefficients + 1e-3 * linear_deformation(1, 1).coefficients)
        worst = max(worst, max(killing_residual(s, f, p) for f in fields for p in grid))
    return (worst,)


@invariant(("two-form-closed-vs-fd", "<", 1e-6), ("flat-translation-two-forms-zero", "==", 0.0),
           ("flat-rotation-two-form-two", "==", 0.0))
def _two_forms(rng, fault):
    fd_gap = 0.0
    for R in (-1.0, -0.5, 1.0):
        s = Surface(R)
        for p in rng.uniform(-0.4, 0.4, size=(20, 2)):
            for i, closed in enumerate(killing_two_forms(s, p), start=1):
                fd = numeric_exterior_derivative(lambda q: killing_one_form(s, i, q), p)
                fd_gap = max(fd_gap, abs(fd - float(closed)))
    flat = killing_two_forms(Surface(0.0), rng.uniform(-1.0, 1.0, (20, 2)))
    return fd_gap, _max_abs(flat[:2]), _max_abs(flat[2] - 2.0)


@invariant(("gaussian-curvature-4R", "<", 1e-10), ("translation-approx-curl", "<", 1e-13),
           ("translation-approx-two-form-halving", "<", 0.3))
def _curvature(rng, fault):
    """K = 4R; the curvature-path translation field has curl 8Ry, and its ratio to the
    exact two-form approaches 1: the last value is |ratio - 1| at p/2 over that at p."""
    points = [(0.0, 0.0), (0.3, -0.2), (0.25, -0.3), (0.45, 0.4), (0.5, 0.4)]
    k_gap = max(abs(gaussian_curvature(Surface(R), p) / (4.0 * R) - 1.0)
                for R in R_VALUES if R != 0.0 for p in points)
    s = Surface(1.0)
    curv = CurvatureTensor.from_surface(s)
    p = np.array([0.12, 0.2])
    curl = [float(g[0, 1] - g[1, 0]) for g in (translation_killing_gradient(curv, 1, q) for q in (p, 0.5 * p))]
    ratio_gap = [abs(c / killing_two_forms(s, q)[0] - 1.0) for c, q in zip(curl, (p, 0.5 * p))]
    return k_gap, abs(curl[0] - 8.0 * p[1]), ratio_gap[1] / ratio_gap[0]


@invariant(("isometry-distance-invariance", "<", 1e-12), ("exp-rigid-expansion-order", "<", 0.2))
def _isometries(rng, fault):
    """Relative distance drift under random exp_rigid moves; halving ratio of exp_rigid's
    remainder after second order (a cubic remainder gives 1/8)."""
    drift = 0.0
    for R in R_VALUES:
        s = Surface(R)
        for _ in range(10):
            p, q = rng.uniform(-0.4, 0.4, size=(2, 2))
            g = exp_rigid(s, rng.uniform(-0.2, 0.2, size=3))
            d0 = geodesic_distance(s, p, q)
            drift = max(drift, abs(geodesic_distance(s, g(p), g(q)) - d0) / max(d0, 1e-30))
    s = Surface(1.0)
    p = np.array([0.15, -0.1])

    def defect(t):
        w = rigid_field(s, t)
        second = 0.5 * np.einsum("j,jk->k", w(p), w.gradient(p))
        return math.hypot(*(exp_rigid(s, t)(p) - (p + w(p) + second)).tolist())

    tau = np.array([0.08, -0.05, 0.11])
    return drift, defect(0.5 * tau) / defect(tau)


@invariant(("gauge-projection-residual", "<", 1e-12), ("gauge-projection-strain", "<", 1e-8))
def _gauge_projection(rng, fault):
    residual = strain = 0.0
    for R in (0.0, 1.0):
        s = Surface(R)
        for _ in range(5):
            body = random_balanced_body(rng)
            f = linear_field(rng.uniform(-1, 1, size=(2, 2)))
            pf = project_gauge(body, s, f)
            residual = max(residual, _max_abs(gauge_residuals(body, s, pf)))
            strain = max(strain, _max_abs(strain_of(s, pf, body.positions) - strain_of(s, f, body.positions)))
    return residual, strain


@invariant(("baron-translations-vanish", "<", 1e-12), ("cat-rotation-nonzero", ">", 1e-6))
def _flat_space(rng, fault):
    """Flat space: no translation for 100 random bodies; the cat turns."""
    s = Surface(0.0)

    def swim(body, pb, pc):
        u, v = (gauge_fixed_linear_deformation(body, *pair) for pair in (pb, pc))
        return holonomy_general(body, s, u, v, 1.0)

    translation = max(_max_abs(swim(*case).translation) for case in _random_bodies(rng, 100))
    cat = principal_axes(balance(Body.from_particles([[1, 1, 0], [1, -0.2, 0.8], [2, -0.4, -0.4]]), s))
    return translation, abs(swim(cat, (1, 1), (1, 2)).rotation)


@invariant(("triangle-optimum-value", "<", 1e-12), ("triangle-optimum-drop", ">", 0.0),
           ("triangle-grid-argmax", "==", 0.0), ("triangle-coefficient-bound", "<", 1e-12))
def _triangle(rng, fault):
    """M = h = b = 1: the coefficient peaks at m = M/4 with value h b^2 / 2, drops at
    m = M/4 +- 1e-3, 1e-2, and a grid of step 0.025 peaks there without exceeding it."""
    def coefficient(m):
        return triangle_swim_coefficient(TriangleSpec(1.0, m, 1.0, 1.0))

    best = coefficient(0.25)
    grid = np.round(np.arange(0.05, 0.5, 0.025), 10)
    coefs = [coefficient(m) for m in grid]
    return (abs(best - 0.5), min(best - coefficient(0.25 + d) for d in (1e-3, -1e-3, 1e-2, -1e-2)),
            abs(grid[int(np.argmax(coefs))] - 0.25), max(coefs) - 0.5)


@invariant(("formula-paths-agree", "<", 1e-10), ("cubic-scaling-exact", "==", 0.0),
           ("r-flip-linear-exact", "==", 0.0), ("r-flip-small-swimmer-exact", "==", 0.0))
def _formula_paths(rng, fault):
    """The moment contraction vs the curvature summed over the particles' field values on 50 random bodies;
    on one more body, exact lambda^3 scaling (lambda = 1/2, 2) and exact negation under R -> -R of both paths."""
    agree = 0.0
    for body, pb, pc in _random_bodies(rng, 50):
        x, (u, v) = body.positions, (gauge_fixed_linear_deformation(body, *pair) for pair in (pb, pc))
        direct = 2.0 * np.einsum("n,ni,nj,nl,jlik->k", body.masses, x, u(x), v(x), K4.components) / body.total_mass
        agree = max(agree, _max_abs(holonomy_linear(body, K4, pb, pc, 1.0) - direct))
    body = next(_random_bodies(rng, 1))[0]
    base = holonomy_linear(body, K4, (2, 2), (1, 1), 1.0)
    cubic = max(_max_abs(holonomy_linear(body.scaled(lam), K4, (2, 2), (1, 1), 1.0) - lam**3 * base)
                for lam in (0.5, 2.0))
    minus = CurvatureTensor.constant_curvature(-4.0)
    u, v = (gauge_fixed_linear_deformation(body, *pair) for pair in ((2, 2), (1, 1)))
    return (agree, cubic, _max_abs(base + holonomy_linear(body, minus, (2, 2), (1, 1), 1.0)),
            _max_abs(holonomy_small_swimmer(body, K4, u, v, 1.0) + holonomy_small_swimmer(body, minus, u, v, 1.0)))


@invariant(("inversion-symmetric-cubic-moments", "<", 1e-16), ("inversion-symmetric-no-swim", "<", 1e-12),
           ("needle-no-swim", "<", 1e-12), ("needle-22-degenerate", "==", 0.0),
           ("two-particle-no-swim", "<", 1e-12))
def _null_bodies(rng, fault):
    """Bodies that cannot swim.  needle-22-degenerate counts the needles whose (2,2)
    deformation fails to raise DegenerateMomentsError."""
    symmetric = [
        Body(masses=np.ones(4), positions=0.2 * np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])),
        principal_axes(Body(masses=[1.0, 1.0, 2.0, 2.0, 0.5, 0.5], positions=[
            [0.3, 0.1], [-0.3, -0.1], [0.1, -0.2], [-0.1, 0.2], [0.25, 0.25], [-0.25, -0.25]])),
    ]
    needles = [balance(Body.from_particles(particles), Surface(0.0)) for particles in (
        [[1, -0.2, 0], [2, 0, 0], [1, 0.2, 0]], [[1, -0.2, 0], [2, 0.05, 0], [1, 0.3, 0]])]
    two = [random_balanced_body(rng, 2, 0.3) for _ in range(20)]

    def worst_small_swimmer(body):
        fields = admissible_linear_deformations(body)
        keys = list(fields)
        return max((_max_abs(holonomy_small_swimmer(body, K4, fields[pb], fields[pc], 1.0))
                    for i, pb in enumerate(keys) for pc in keys[i + 1:]), default=0.0)

    return (max(_max_abs(moments(b).q3) for b in symmetric),
            max(_max_abs(holonomy_linear(b, K4, pb, pc, 1.0)) for b in symmetric
                for i, pb in enumerate(LINEAR_PAIRS) for pc in LINEAR_PAIRS[i + 1:]),
            max(worst_small_swimmer(n) for n in needles),
            sum((2, 2) in admissible_linear_deformations(n) for n in needles),
            max(worst_small_swimmer(b) for b in two))


@invariant(("ring-formula-vs-simulation", "<", 1e-10), ("ring-equal-masses", "<", 1e-15))
def _ring(rng, fault):
    """Formula vs simulation on 20 random rings; equal splinters meet half way (relative gap)."""
    gap = 0.0
    for _ in range(20):
        spec = RingSpec(length=float(rng.uniform(0.2, 5.0)), m1=float(rng.uniform(0.05, 10.0)),
                        m2=float(rng.uniform(0.05, 10.0)))
        gap = max(gap, abs(ring_displacement(spec) - ring_simulate(spec)))
    return gap, abs(ring_displacement(RingSpec(length=3.0, m1=1.3, m2=1.3)) / 1.5 - 1.0)


@functools.lru_cache(maxsize=None)
def _oracle_runs() -> Tuple[float, float, float, float]:
    """Deterministic, so computed once per process; see _oracle."""
    s = Surface(1.0)
    height, base = triangle_control_fields()
    strokes = [rectangle_stroke(math.sqrt(area), math.sqrt(area), steps=1024) for area in (1e-4, 1e-5)]
    gaps, residual = [], 0.0
    for stroke in strokes:
        gap = 0.0
        for size in (1.0, 0.2):
            tri = triangle_body(TriangleSpec(M=1.0, m=0.25, h=size, b=size))
            rec = integrate_stroke(tri, s, [height, base], stroke, mode="composed")
            u, v = project_gauge(tri, s, height), project_gauge(tri, s, base)
            formula = holonomy_general(tri, s, u, v, stroke.signed_area).delta_tau[0]
            gap = max(gap, abs(rec.delta_tau[0] / formula - 1.0))
            residual = max(residual, rec.max_momentum_residual / rec.residual_bound)
        gaps.append(gap)
    tiny = triangle_body(TriangleSpec(M=1.0, m=0.25, h=3e-4, b=3e-4))
    dx = [integrate_stroke(tiny, Surface(R), [height, base], strokes[1]).delta_tau[0] for R in (1.0, -1.0)]
    return gaps[0], gaps[1], residual, abs(dx[0] + dx[1]) / abs(dx[0])


@invariant(("integrator-vs-formula-area-1e-4", "<", 0.02), ("integrator-vs-formula-area-1e-5", "<", 0.01),
           ("integrator-momentum-residual", "<", 1.0), ("r-flip-integrator", "<", 1e-6))
def _oracle(rng, fault):
    """Square rectangle strokes of 1024 steps on R = 1.  |oracle/formula - 1| at areas 1e-4
    and 1e-5, worst over the triangles h = b = 1 and 0.2; the worst momentum residual over
    its bound 1e-12 max sqrt(G_aa vv); |dx(R) + dx(-R)| / |dx(R)| at area 1e-5 on a triangle
    small enough (h = b = 3e-4) that the exact-surface asymmetry stays below the bound."""
    return _oracle_runs()
