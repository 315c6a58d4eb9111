"""Piecewise-linear functions, corner loci, and divisor reconstruction.

A PLFunction is given by cells: cones carrying linear covectors that agree on
overlaps.  The corner locus of such a function against a weighted fan is the
codimension-one cycle of its non-linearity, weighted by the defect of the
covectors across each wall; iterating against nested cycles drives most of
the intersection theory in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .cones import (
    Cone,
    _standard_basis,
    chamber_complex,
    common_refinement,
    full_space,
    overlaps,
)
from .fans import NotBalanced, NotContinuous, WeightedFan, _wall_step
from .linalg import (
    dot,
    sign_normalized,
    vadd,
    vneg,
    vscale,
    vsub,
)
from .polytopes import LatticePolytope


class NotADivisor(ValueError):
    pass


class NotConvex(ValueError):
    pass


class PLFunction:
    """Piecewise-linear function as cells (cone, covector).

    Every cone and covector must live in ℝ^ambient (ValueError otherwise).
    """

    __slots__ = ("ambient", "cells")

    def __init__(self, ambient: int, cells: Iterable):
        self.ambient = ambient
        self.cells = [(c, tuple(l)) for c, l in cells]
        for c, l in self.cells:
            if c.ambient != ambient or len(l) != ambient:
                raise ValueError(f"cell in ℝ^{c.ambient} with a covector of length "
                                 f"{len(l)}, function on ℝ^{ambient}")

    def value(self, x):
        """m(x) from the cells containing x.

        Raises ValueError when x is not a point of ℝ^ambient or lies in no
        cell, and NotContinuous when two cells containing x disagree at x.
        """
        if len(x) != self.ambient:
            raise ValueError(f"point of length {len(x)}, function on ℝ^{self.ambient}")
        values = {dot(l, x) for cone, l in self.cells if cone.contains(x)}
        if not values:
            raise ValueError(f"point {x} outside the domain")
        if len(values) > 1:
            raise NotContinuous(f"cells containing {x} give the values {sorted(values)}")
        return values.pop()

    def scale(self, c) -> "PLFunction":
        return PLFunction(self.ambient,
                          [(cone, vscale(c, l)) for cone, l in self.cells])

    def check_continuity(self) -> bool:
        return _agree_on_overlaps(
            self.cells, lambda l, m, span: all(dot(vsub(l, m), b) == 0 for b in span))

    def __repr__(self):
        return f"PLFunction(ambient={self.ambient}, ncells={len(self.cells)})"


def _agree_on_overlaps(cells: Sequence, agree) -> bool:
    """Whether ``agree(f, g, span)`` holds wherever two cells meet off the origin.

    ``cells`` are (cone, function) pairs; f and g are the functions of two
    overlapping cells and ``span`` the span rows of their overlap.
    """
    return all(agree(cells[i][1], cells[j][1], inter.span_rows())
               for i, j, inter in overlaps([c for c, _ in cells]))


def pl_from_polytope(poly: LatticePolytope) -> PLFunction:
    """Support function max_{a ∈ P} l·a as a PL function on the normal fan."""
    return PLFunction(poly.ambient, poly.normal_fan())


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise sum on the common refinement of the two cell structures."""
    if f.ambient != g.ambient:
        raise ValueError("ambient mismatch")
    return PLFunction(f.ambient, [
        (piece, vadd(l, m))
        for piece, l, (m,) in common_refinement(f.cells, [g.cells], f.ambient)])


def pullback_linear(m: PLFunction, rows: Sequence) -> PLFunction:
    """Compose with the linear map x ↦ M x (rows of M are over the new space).

    Each cell's constraints composed with M give its preimage, which is cut
    out of the full space by :func:`common_refinement`; preimages below full
    dimension and repeats are dropped there.
    """
    rows = [tuple(r) for r in rows]
    new_dim = len(rows[0]) if rows else 0

    def compose(v):
        return tuple(sum(v[i] * rows[i][j] for i in range(len(rows)))
                     for j in range(new_dim))

    cells = []
    for cone, l in m.cells:
        ineqs, eqs = cone._constraints()
        cells.append((Cone(new_dim, ineqs=[compose(a) for a in ineqs],
                           eqs=[compose(e) for e in eqs]), compose(l)))
    return PLFunction(new_dim, [
        (piece, l) for piece, _, (l,) in
        common_refinement([(full_space(new_dim), None)], [cells], new_dim)])


def refine_with_function(t_fan: WeightedFan, m: PLFunction) -> list:
    """Cut the cones of a fan along the cells of m.

    Returns (cone, weight, covector) triples whose cones tile the support of
    the fan and on each of which m is linear.
    """
    return [(piece, w, l) for piece, w, (l,) in
            common_refinement(t_fan.cones, [m.cells], t_fan.dim)]


def corner_locus(m: PLFunction, t_fan: WeightedFan) -> WeightedFan:
    """Weighted corner locus of m along a balanced cycle.

    Walls are the codimension-one faces of the refinement of the cycle by the
    cells of m; each wall ρ gets the weight Σ_j w_j·(ℓ_j − ℓ_ρ)(ũ_j) over
    incident refined cones with covectors ℓ_j and quotient lifts ũ_j, where
    ℓ_ρ is any one of the ℓ_j (they agree on span ρ).  m must live in the
    cycle's ambient space (ValueError otherwise).

    Walls are matched by their face keys, so the refined pieces must meet
    face to face.  Every wall is tested: one whose weighted lifts leave its
    span raises NotBalanced instead of returning a wrong cycle, because the
    cycle is unbalanced there or a piece is subdivided differently from its
    neighbour, and one where the ℓ_j disagree on span ρ raises NotContinuous.
    Cell structures cut from a common arrangement always meet face to face.
    The wall test is blind where two cells of m overlap on a cone of a cycle
    of dimension two or more: the refinement keeps the first cell's covector
    only, so a disagreement there changes the weights without reaching any
    wall.  ``PLFunction.check_continuity`` sees that case.

    On a curve the only wall is the origin, and balancing cancels ℓ_ρ, so
    the step reads m by its values and refines nothing
    (:func:`_curve_corner_weight`); a disagreement at a ray raises
    NotContinuous there (``PLFunction.value``).
    """
    if m.ambient != t_fan.ambient:
        raise ValueError(f"function on ℝ^{m.ambient}, cycle in ℝ^{t_fan.ambient}")
    if t_fan.is_zero():
        return WeightedFan(t_fan.ambient, [], dim=max(t_fan.dim - 1, -1))
    if t_fan.dim == 1:
        walls = [(_origin(t_fan.ambient), _curve_corner_weight(m, t_fan))]
    else:
        walls = _wall_step(refine_with_function(t_fan, m), t_fan.ambient, _jump)
    # integral Fraction weights are stored as ints
    return WeightedFan(t_fan.ambient, [(wall, w.numerator if w.denominator == 1 else w)
                                       for wall, w in walls], dim=t_fan.dim - 1)


def _jump(piece, first, u):
    """The wall-step term w·(ℓ − ℓ₀)(u) of a (cone, weight, covector ℓ) piece."""
    return piece[1] * dot(vsub(piece[2], first[2]), u)


def _origin(ambient: int) -> Cone:
    """The origin of ℝ^ambient, keyed and tested like a ray's facet."""
    return Cone(ambient, rays=[], lineality=[], ineqs=[], eqs=_standard_basis(ambient),
                _trusted=True)


def _curve_corner_weight(m: PLFunction, curve: WeightedFan):
    """Origin weight of δ_m·C on a one-dimensional cycle C: Σ w·m(u).

    u runs over each cone's primitive rays and ± the lattice basis of a
    line (its ``span_rows``), and Σ w·u must vanish (NotBalanced otherwise):
    then the reference covector ℓ_ρ of the wall step drops out of
    Σ w·(ℓ_u − ℓ_ρ)(u).
    """
    total = (0,) * curve.ambient
    for cone, w in curve.cones:
        for u in cone.rays:
            total = vadd(total, vscale(w, u))
    if any(total):
        raise NotBalanced("weighted rays of the curve do not sum to zero")
    weight = 0
    for cone, w in curve.cones:
        lines = cone.span_rows() if cone.lineality else []
        weight += w * sum(m.value(u) for u in cone.rays + lines + [vneg(v) for v in lines])
    return weight


def iterated_corner_locus(ms: Sequence[PLFunction], t_fan: WeightedFan) -> WeightedFan:
    """Fold corner loci left to right; an empty list returns the input.

    Each step tests its input's balance at every wall it visits, so a fold
    that went wrong raises NotBalanced at the next step instead of
    propagating.
    """
    out = t_fan
    for m in ms:
        out = corner_locus(m, out)
    return out


def _hyperplanes(cones: Iterable[Cone]) -> set:
    """Sign-normalized normals of the cones' own inequalities and equations.

    Each cone is a union of faces of their arrangement, so its chambers
    refine every cone, even where a cone's span continues past its boundary.
    """
    return {sign_normalized(a) for cone in cones for a in [*cone.ineqs, *cone.eqs]}


def reconstruct_polytope(divisor: WeightedFan) -> LatticePolytope:
    """Lattice polytope whose support function has the given corner locus.

    Raises NotADivisor when no single-valued PL function has these wall
    jumps, and NotConvex when the function exists but is not the maximum of
    its own covectors.  The result is normalized so its lexicographically
    smallest vertex sits at the origin.
    """
    n = divisor.ambient
    if divisor.cones and divisor.dim != n - 1:
        raise NotADivisor("expected a codimension-one cycle")
    for _, w in divisor.cones:
        if isinstance(w, Fraction) and w.denominator != 1:
            raise NotADivisor("weights must be integers")
    normals = sorted(_hyperplanes(c for c, _ in divisor.cones))
    chambers = chamber_complex(normals, n)
    points = [ch.relint_point() for ch in chambers]
    sigs = [tuple(1 if dot(h, p) > 0 else -1 for h in normals) for p in points]
    index = {sig: i for i, sig in enumerate(sigs)}
    covectors = {0: (0,) * n}
    queue = [0]
    while queue:
        i = queue.pop()
        for k, h in enumerate(normals):
            # the chamber across hyperplane k, if the two share a wall there
            j = index.get(sigs[i][:k] + (-sigs[i][k],) + sigs[i][k + 1:])
            if j is None:
                continue
            # the sum of i's rays on h is an integer point inside the shared wall
            on_wall = [r for r in chambers[i].rays if dot(h, r) == 0]
            crossing = tuple(sum(r[x] for r in on_wall) for x in range(n))
            weight = sum(w for c, w in divisor.cones if c.contains(crossing))
            l_new = vadd(covectors[i], vscale(weight * sigs[j][k], h))
            if j in covectors:
                if covectors[j] != l_new:
                    raise NotADivisor("incompatible jumps around a wall")
            else:
                covectors[j] = l_new
                queue.append(j)
    verts = sorted(set(covectors.values()))
    for i, p in enumerate(points):
        best = max(dot(v, p) for v in verts)
        if dot(covectors[i], p) != best:
            raise NotConvex("jump data does not majorize its covectors")
    poly = LatticePolytope(verts)
    return poly.normalize_translation()

