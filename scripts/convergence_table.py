#!/usr/bin/env python3
"""Formula-versus-oracle convergence table for the swimming triangle.

Integrates rectangle strokes of shrinking area on a sphere-like surface and
compares the net displacement against the leading-order swim equations.
The ratio column approaches 1 as the enclosed control area goes to zero;
the direct-mode column shows the leading-order gap of the in-place update.
"""

import argparse

import numpy as np

from curvswim.deformation import project_gauge
from curvswim.geometry import Surface
from curvswim.holonomy import holonomy_general
from curvswim.integrator import integrate_stroke, oracle_ratio, rectangle_stroke
from curvswim.scenarios import TriangleSpec, triangle_body, triangle_control_fields


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=1.0)
    ap.add_argument("--height", type=float, default=1.0)
    ap.add_argument("--base", type=float, default=1.0)
    ap.add_argument("--mass", type=float, default=0.25, help="single oar mass (total mass 1)")
    ap.add_argument("--steps", type=int, default=1024)
    ap.add_argument("--areas", type=float, nargs="+", default=[1e-2, 1e-3, 1e-4, 1e-5])
    args = ap.parse_args()

    surface = Surface(args.R)
    body = triangle_body(TriangleSpec(M=1.0, m=args.mass, h=args.height, b=args.base))
    height, base = triangle_control_fields()
    u = project_gauge(body, surface, height)
    v = project_gauge(body, surface, base)

    print(f"# triangle M=1 m={args.mass} h={args.height} b={args.base}, R={args.R}")
    print(f"{'area':>10} {'dx_formula':>14} {'dx_composed':>14} {'ratio':>10} {'dx_direct':>14}")
    for area in sorted(args.areas, reverse=True):
        side = np.sqrt(area)
        stroke = rectangle_stroke(side, side, steps=args.steps)
        hol = holonomy_general(body, surface, u, v, stroke.signed_area)
        composed = integrate_stroke(body, surface, [height, base], stroke, mode="composed")
        direct = integrate_stroke(body, surface, [height, base], stroke, mode="direct")
        dx_f, dx_c = hol.delta_tau[0], composed.delta_tau[0]
        print(f"{area:>10.1e} {dx_f:>14.6e} {dx_c:>14.6e} {oracle_ratio(dx_c, dx_f):>10.6f} "
              f"{direct.delta_tau[0]:>14.6e}")


if __name__ == "__main__":
    main()
