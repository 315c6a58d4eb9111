"""Lattice polytopes: hulls, faces, exact volumes, lattice points, sums.

A polytope is the convex hull of finitely many points of ℤ^n.  Each polytope
builds the homogenization cone over {(p, 1)} once and keeps it: its extreme
rays are the lifted vertices, its inequalities the facets (plus the far
hyperplane) and its equations the affine hull, so the vertex list, the
dimension, the facet list and the containment tests all read one cone.
Volumes are normalized: the ``normalized_volume`` of P is n!·(Euclidean
volume), the natural scale for lattice geometry (a fundamental simplex has
volume 1).  They are read off the same cone, pulled into simplices by
``cones._pull_triangulate``, the triangulation of the Courant engine.

The hull (a double conversion) runs only when the vertices are unknown.
Where the points are provably the vertices, ``_from_vertices`` trusts them
and the cone converts once, when the facets are first asked for:

* ``translate`` and ``dilate`` (k > 0) are affine bijections, which map
  vertices to vertices, and ``dilate(0)`` and a single point are one point;
* a face's vertices are the vertices of P on it (the faces in
  ``invariants.val_decompose``);
* ``minkowski_sum`` with a one-point summand is a translate.

A general ``minkowski_sum`` still takes the hull of all pairwise sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .cones import Cone, _pull_triangulate, full_space
from .linalg import (
    dot,
    int_vector,
    is_zero,
    saturation_basis,
    sublattice_index,
    vadd,
    vsub,
)


class DimMismatch(ValueError):
    pass


class TooManyLatticePoints(ValueError):
    """More lines to scan or points to list than ``lattice_points`` allows."""


# lattice_points scans at most MAX_LATTICE_LINES lines (points of the bounding
# box's first n − 1 coordinates) and lists at most MAX_LATTICE_POINTS points
MAX_LATTICE_LINES = 1_000_000
MAX_LATTICE_POINTS = 1_000_000


class LatticePolytope:
    __slots__ = ("ambient", "vertices", "_cone", "_facets", "_faces", "_span")

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = sorted({int_vector(p) for p in points})
        self._build(pts, trusted=len(pts) == 1)

    @classmethod
    def _from_vertices(cls, verts) -> "LatticePolytope":
        """The polytope whose vertex set is exactly ``verts``: no hull is run."""
        poly = cls.__new__(cls)
        poly._build(sorted({tuple(v) for v in verts}), trusted=True)
        return poly

    def _build(self, pts: list, trusted: bool) -> None:
        if not pts:
            raise ValueError("empty point set")
        self.ambient = len(pts[0])
        if any(len(p) != self.ambient for p in pts):
            raise DimMismatch("DimMismatch: points of unequal dimension")
        lifted = [p + (1,) for p in pts]
        self._cone = Cone(self.ambient + 1, rays=lifted, _trusted=trusted)
        # the lifted points have last coordinate 1, so each extreme ray is (v, 1)
        self.vertices = [r[:-1] for r in self._cone.rays]
        self._facets = None
        self._faces = None
        self._span = None

    # -- structure -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._cone.dim - 1

    def span_rows(self) -> list:
        """Saturated lattice basis of the direction space of P."""
        if self._span is None:
            v0 = self.vertices[0]
            diffs = [vsub(v, v0) for v in self.vertices[1:]]
            self._span = saturation_basis(diffs) if diffs else []
        return self._span

    def facets(self) -> list:
        """Irredundant facet inequalities (a, b), meaning a·x + b ≥ 0 on P.

        The cone's rows (a, b) are primitive, and b = −a·v at a vertex v,
        so a is already a primitive integer normal.  Modulo the equations,
        each row is the representative that ``Cone.key`` would pick for a ray.
        """
        if self._facets is None:
            # a zero a is the far hyperplane of the homogenization
            self._facets = sorted((row[:-1], row[-1]) for row in self._cone.ineqs
                                  if not is_zero(row[:-1]))
        return self._facets

    def affine_eqs(self) -> list:
        """Primitive pairs (e, c), e·x + c = 0 on P, that cut out its affine
        hull (none if P is full-dimensional); not a lattice basis of them."""
        return [(row[:-1], row[-1]) for row in self._cone.eqs]

    def contains(self, x) -> bool:
        return all(dot(a, x) + b >= 0 for a, b in self.facets()) and \
            all(dot(e, x) + c == 0 for e, c in self.affine_eqs())

    def faces(self) -> list:
        """All nonempty faces as sorted tuples of vertices (P itself included)."""
        if self._faces is not None:
            return self._faces
        vsets = {tuple(self.vertices)}
        facet_sets = []
        for a, b in self.facets():
            s = tuple(v for v in self.vertices if dot(a, v) + b == 0)
            facet_sets.append(frozenset(s))
            vsets.add(s)
        # faces are intersections of facet vertex sets; iterate to closure
        frontier = {frozenset(s) for s in vsets}
        closed = set(frontier)
        while frontier:
            nxt = set()
            for s in frontier:
                for f in facet_sets:
                    t = s & f
                    if t and t not in closed:
                        closed.add(t)
                        nxt.add(t)
            frontier = nxt
        self._faces = sorted(tuple(sorted(s)) for s in closed)
        return self._faces

    def normal_fan(self) -> list:
        """(cone, vertex) pairs; the cone collects the l maximized at the vertex."""
        out = []
        for v in self.vertices:
            ineqs = [vsub(v, w) for w in self.vertices if w != v]
            if not ineqs:
                out.append((full_space(self.ambient), v))
                continue
            out.append((Cone(self.ambient, ineqs=ineqs), v))
        return out

    def support(self, l) -> int:
        return max(dot(l, v) for v in self.vertices)

    # -- lattice invariants ----------------------------------------------------

    def lattice_points(self) -> list:
        """Lattice points of P in lexicographic order, line by line (:meth:`_lines`)."""
        if self.ambient == 0:
            return [()]
        return [p + (x,) for p, lo, hi in self._lines() for x in range(lo, hi + 1)]

    def n_lattice_points(self) -> int:
        """The number of lattice points of P, summed line by line with no list.

        It raises ``TooManyLatticePoints`` wherever :meth:`lattice_points` does.
        """
        if self.ambient == 0:
            return 1
        return sum(hi - lo + 1 for _, lo, hi in self._lines())

    def _lines(self) -> Iterator:
        """(p, lo, hi) per line of P in ℤ^n (n ≥ 1) that holds a lattice point.

        The first n − 1 coordinates p run over P's bounding box; each such
        prefix is tested against the constraints free of x_n, and the other
        constraints bound x_n to lo ≤ x_n ≤ hi by exact floor divisions.
        Lines come in lexicographic order.  Raises ``TooManyLatticePoints``,
        before scanning, when the box has more than ``MAX_LATTICE_LINES``
        prefixes, and before yielding a line that would take the count of
        points past ``MAX_LATTICE_POINTS``.
        """
        n = self.ambient
        boxes = [range(min(v[i] for v in self.vertices), max(v[i] for v in self.vertices) + 1)
                 for i in range(n)]
        lines = prod(len(r) for r in boxes[:-1])
        if lines > MAX_LATTICE_LINES:
            raise TooManyLatticePoints(
                f"TooManyLatticePoints: the bounding box has {lines} lines, more "
                f"than {MAX_LATTICE_LINES}")
        # (normal, constant, is an inequality): e·x + c = 0 or a·x + b ≥ 0
        rows = [(e, c, 0) for e, c in self.affine_eqs()] + \
            [(a, b, 1) for a, b in self.facets()]
        flat = [(r[:-1], c, ineq) for r, c, ineq in rows if r[-1] == 0]
        steep = [(r[:-1], c, r[-1], ineq) for r, c, ineq in rows if r[-1] != 0]
        count = 0
        for p in product(*boxes[:-1]):
            if not all(dot(a, p) + b >= 0 if ineq else dot(a, p) + b == 0
                       for a, b, ineq in flat):
                continue
            lo, hi = boxes[-1].start, boxes[-1].stop - 1
            for a, b, an, ineq in steep:
                s = dot(a, p) + b  # the constraint reads an·x_n + s ≥ 0 (or = 0)
                if not ineq:
                    if s % an:
                        hi = lo - 1
                        break
                    lo, hi = max(lo, -s // an), min(hi, -s // an)
                elif an > 0:
                    lo = max(lo, -(s // an))
                else:
                    hi = min(hi, s // -an)
            if hi < lo:
                continue
            count += hi - lo + 1
            if count > MAX_LATTICE_POINTS:
                raise TooManyLatticePoints(
                    f"TooManyLatticePoints: more than {MAX_LATTICE_POINTS} lattice points")
            yield p, lo, hi

    def normalized_volume(self) -> int:
        """n!·vol(P) in the ambient lattice; 0 when dim P < n."""
        return self.relative_normalized_volume() if self.dim == self.ambient else 0

    def relative_normalized_volume(self) -> int:
        """d!·vol(P) with respect to the lattice of P's own span (d = dim P).

        The pulling triangulation of the homogenization cone splits P into
        lattice simplices; the lifted vertices (v, 1) of a simplex span a
        lattice whose index in its saturation is d!·vol of the simplex,
        relative to its own affine lattice, which is P's.
        """
        return sum(map(sublattice_index, _pull_triangulate(self._cone)))

    # -- constructions -----------------------------------------------------------

    def minkowski_sum(self, other: "LatticePolytope") -> "LatticePolytope":
        """P + Q; a one-point summand only translates the other, with no hull."""
        if self.ambient != other.ambient:
            raise DimMismatch("DimMismatch: ambient dimensions differ")
        if len(other.vertices) == 1:
            return self.translate(other.vertices[0])
        if len(self.vertices) == 1:
            return other.translate(self.vertices[0])
        return LatticePolytope([vadd(v, w) for v in self.vertices
                                for w in other.vertices])

    def translate(self, t) -> "LatticePolytope":
        t = int_vector(t)
        return LatticePolytope._from_vertices([vadd(v, t) for v in self.vertices])

    def dilate(self, k: int) -> "LatticePolytope":
        if k < 0:
            raise ValueError("negative dilation")
        if k == 0:
            return LatticePolytope._from_vertices([(0,) * self.ambient])
        return LatticePolytope._from_vertices([tuple(k * x for x in v)
                                               for v in self.vertices])

    def normalize_translation(self) -> "LatticePolytope":
        """Translate so the lexicographically smallest vertex is the origin."""
        v0 = min(self.vertices)
        return self.translate(tuple(-x for x in v0))

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(tuple(self.vertices))

    def __repr__(self):
        return f"LatticePolytope({self.vertices})"


def mixed_volume_ie(polys: Sequence[LatticePolytope]) -> Fraction:
    """Mixed volume by inclusion–exclusion of Euclidean volumes.

    Normalized so mixed_volume_ie(P, …, P) = normalized_volume(P): the sum
    Σ_{∅≠S⊆[n]} (−1)^{n−|S|} vol(Σ_{i∈S} P_i) with vol = normalized/n!
    already carries the n! once, e.g. two unit squares give 4 − 1 − 1 = 2.
    """
    if not polys:
        raise ValueError("need exactly n polytopes in dimension n, got none")
    n = polys[0].ambient
    if len(polys) != n:
        raise ValueError("need exactly n polytopes in dimension n")
    total = Fraction(0)
    for mask in range(1, 1 << n):
        chosen = [polys[i] for i in range(n) if mask >> i & 1]
        s = chosen[0]
        for q in chosen[1:]:
            s = s.minkowski_sum(q)
        total += (-1) ** (n - len(chosen)) * Fraction(s.normalized_volume(), factorial(n))
    return total
