"""Reference cone operations that the package's own cuts are tested against."""

from itertools import combinations
from math import gcd

from tropeci.cones import Cone
from tropeci.linalg import (
    coordinates_in_basis,
    dot,
    int_vector,
    kernel_basis,
    solve_dot_one,
    vadd,
    vscale,
)


def intersect(a: Cone, b: Cone) -> Cone:
    """a ∩ b by a fresh conversion of both cones' constraints together.

    The package never intersects this way: it cuts a known cone with
    ``cones._cut_cone``.  This is the independent route that checks it.
    """
    return Cone(a.ambient, ineqs=list(a.ineqs) + list(b.ineqs),
                eqs=list(a.eqs) + list(b.eqs))


def int_coords(basis, v):
    """Integer coordinates of v in the basis; ValueError if there are none."""
    coords = coordinates_in_basis(basis, v)
    if coords is None:
        raise ValueError("vector lies outside the span of the basis")
    return int_vector(coords)


def wall_lift(rho: Cone, tau: Cone):
    """The lift ũ of ``fans.wall_lift`` through lattice coordinates of span τ.

    The wall's span rows are written in the basis of L_τ; the primitive
    covector φ on their kernel gives ũ = Σ x_i·b_i with φ·x = 1, its sign
    chosen by the side of the relative-interior point of τ.  The package
    reads φ off a facet inequality of τ instead, with no coordinates.
    """
    b_tau = tau.span_rows()
    coords = [int_coords(b_tau, b) for b in rho.span_rows()]
    phis = kernel_basis(coords, len(b_tau))
    if len(phis) != 1:
        raise ValueError("wall is not of codimension one in the cone")
    phi = phis[0]
    x = solve_dot_one(phi)
    s = dot(phi, int_coords(b_tau, tau.relint_point()))
    if s == 0:
        raise ValueError("cone does not leave the span of the wall")
    if s < 0:
        x = tuple(-t for t in x)
    out = (0,) * len(b_tau[0])
    for c, b in zip(x, b_tau):
        out = vadd(out, vscale(c, b))
    return out


def _det(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def extreme_rays(ineqs, eqs, n: int) -> list:
    """Extreme rays of the pointed cone {a·x ≥ 0, e·x = 0} in ℤ^n by brute force.

    An extreme ray spans the kernel line of the constraints tight on it, a
    set of rank n − 1, and so of some n − 1 independent constraints among
    them.  Every n − 1 constraints of rank n − 1 give a candidate line, their
    vector of signed maximal minors; it is kept with the sign that satisfies
    every constraint, made primitive.  Shares no code with the conversion.
    """
    ineqs, eqs = [tuple(a) for a in ineqs], [tuple(e) for e in eqs]

    def dot(u, v):
        return sum(p * q for p, q in zip(u, v))

    out = set()
    for rows in combinations(ineqs + eqs, n - 1):
        line = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
        g = gcd(*line)
        if g == 0:  # the n − 1 rows are dependent
            continue
        for x in (tuple(c // g for c in line), tuple(-c // g for c in line)):
            if all(dot(a, x) >= 0 for a in ineqs) and all(dot(e, x) == 0 for e in eqs):
                out.add(x)
    return sorted(out)
