"""Independent cross-checks used by the test suite.

Everything here is deliberately naive: direct formulas and brute-force
enumeration, kept apart from the main algorithms so that the two routes can
disagree loudly when one of them is wrong.  sympy is imported lazily; only
the one resultant oracle, :func:`shifted_resultant_support`, needs it.
"""

from __future__ import annotations

from math import gcd
from random import Random
from typing import Sequence

from .linalg import dot, vsub
from .polytopes import LatticePolytope, mixed_volume_ie

__all__ = [
    "mixed_volume_ie",
    "pick_normalized_area",
    "boundary_lattice_points",
    "shifted_resultant_support",
    "hull_sign_changes",
    "random_lattice_polytope",
    "polygon_curve_rays",
]


def boundary_lattice_points(poly: LatticePolytope) -> int:
    """Number of lattice points on the boundary of a lattice polygon."""
    if poly.ambient != 2 or poly.dim != 2:
        raise ValueError("polygon expected")
    edges = [f for f in poly.faces() if len(f) == 2
             and LatticePolytope(f).dim == 1]
    return sum(abs(gcd(*vsub(a, b))) for a, b in edges)


def pick_normalized_area(poly: LatticePolytope) -> int:
    """2·area of a lattice polygon from its point counts (Pick's theorem)."""
    b = boundary_lattice_points(poly)
    i = poly.n_lattice_points() - b
    return 2 * i + b - 2


def shifted_resultant_support(deg_f: int, deg_g: int) -> list:
    """Exponent support in (y1, y2) of Res_x(f(x) - y1, g(x) - y2).

    ``f`` and ``g`` carry independent symbolic coefficients, so the result is
    the support for generic members of the two coefficient families.
    """
    import sympy

    x, y1, y2 = sympy.symbols("x y1 y2")
    f = sum(sympy.Symbol(f"a{i}") * x**i for i in range(deg_f + 1)) - y1
    g = sum(sympy.Symbol(f"b{i}") * x**i for i in range(deg_g + 1)) - y2
    res = sympy.Poly(sympy.resultant(sympy.Poly(f, x), sympy.Poly(g, x)),
                     y1, y2)
    return sorted(res.monoms())


def hull_sign_changes(points: Sequence[tuple[int, int, int]]) -> int:
    """Sign changes along the upper hull of lifted exponents (a, h, sign).

    For a one-variable sign pattern the number of positive solutions for all
    small parameter values equals the number of adjacent upper-hull pairs with
    opposite signs.
    """
    pts = sorted(points)
    if len({p[0] for p in pts}) != len(pts):
        raise ValueError("duplicate exponents")
    hull = []
    for a, h, s in pts:
        while len(hull) >= 2:
            (a1, h1, _), (a2, h2, _) = hull[-2], hull[-1]
            # drop the middle point when it lies on or below the chord
            if (h2 - h1) * (a - a1) <= (h - h1) * (a2 - a1):
                hull.pop()
            else:
                break
        hull.append((a, h, s))
    return sum(1 for p, q in zip(hull, hull[1:]) if p[2] * q[2] < 0)


def random_lattice_polytope(rng: Random, ambient: int, npoints: int,
                            box: int = 3, full_dim: bool = True) -> LatticePolytope:
    """Random hull of lattice points in a box, resampled until full-dimensional."""
    if full_dim and npoints <= ambient:
        raise ValueError(f"{npoints} points can never span dimension {ambient}")
    while True:
        pts = [tuple(rng.randint(0, box) for _ in range(ambient))
               for _ in range(npoints)]
        poly = LatticePolytope(pts)
        if not full_dim or poly.dim == ambient:
            return poly


def polygon_curve_rays(poly: LatticePolytope) -> list:
    """Dual plane curve of a polygon: outer edge normals with length weights.

    Returns (ray, weight) pairs built straight from the edge data, bypassing
    any piecewise-linear machinery, for use as a second route in tests.
    """
    if poly.ambient != 2 or poly.dim != 2:
        raise ValueError("polygon expected")
    out = []
    for a, b in poly.facets():
        edge = [v for v in poly.vertices if dot(a, v) + b == 0]
        length = abs(gcd(*vsub(edge[0], edge[1])))
        out.append(((-a[0], -a[1]), length))
    return out
