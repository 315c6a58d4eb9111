"""Lattice polytopes: hulls, faces, exact volumes, lattice points, sums.

A polytope is the convex hull of finitely many points of ℤ^n.  Each polytope
builds the homogenization cone over {(p, 1)} once and keeps it: its extreme
rays are the lifted vertices, its inequalities the facets (plus the far
hyperplane) and its equations the affine hull, so the vertex list, the
dimension, the facet list and the containment tests all read one cone.  A
single point is its own trusted ray, so it runs no conversion until its
facets are asked for.  Volumes are normalized: the ``normalized_volume`` of
P is n!·(Euclidean volume), the natural scale for lattice geometry (a
fundamental simplex has volume 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .cones import Cone
from .linalg import (
    coordinates_in_basis,
    det,
    dot,
    saturation_basis,
    vadd,
    vgcd,
    vsub,
)


class DimMismatch(ValueError):
    pass


class LatticePolytope:
    __slots__ = ("ambient", "vertices", "_cone", "_facets", "_faces", "_span")

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = sorted({tuple(int(x) for x in p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        self.ambient = len(pts[0])
        if any(len(p) != self.ambient for p in pts):
            raise DimMismatch("DimMismatch: points of unequal dimension")
        lifted = [p + (1,) for p in pts]
        self._cone = Cone(self.ambient + 1, rays=lifted, _trusted=len(pts) == 1)
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

        Each pair is normalized so that a is a primitive integer normal;
        b is then an integer because every facet contains lattice points.
        """
        if self._facets is None:
            out = []
            for row in self._cone.ineqs:
                a, b = row[:-1], row[-1]
                if all(x == 0 for x in a):
                    continue  # the far hyperplane of the homogenization
                g = vgcd(a)
                out.append((tuple(x // g for x in a), b // g))
            self._facets = sorted(out)
        return self._facets

    def affine_eqs(self) -> list:
        """Pairs (e, c) with e·x + c = 0 on P (empty if P is full-dimensional)."""
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
                from .cones import full_space
                out.append((full_space(self.ambient), v))
                continue
            out.append((Cone(self.ambient, ineqs=ineqs), v))
        return out

    def support(self, l) -> int:
        return max(dot(l, v) for v in self.vertices)

    # -- lattice invariants ----------------------------------------------------

    def lattice_points(self) -> list:
        lows = [min(v[i] for v in self.vertices) for i in range(self.ambient)]
        highs = [max(v[i] for v in self.vertices) for i in range(self.ambient)]
        eqs = self.affine_eqs()
        facs = self.facets()
        out = []
        for p in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
            if all(dot(e, p) + c == 0 for e, c in eqs) and \
                    all(dot(a, p) + b >= 0 for a, b in facs):
                out.append(p)
        return out

    def n_lattice_points(self) -> int:
        return len(self.lattice_points())

    def normalized_volume(self) -> int:
        """n!·vol(P) in the ambient lattice; 0 when dim P < n."""
        if self.dim < self.ambient:
            return 0
        return self._volume_full(self.vertices)

    def relative_normalized_volume(self) -> int:
        """d!·vol(P) with respect to the lattice of P's own span (d = dim P)."""
        if self.dim == 0:
            return 1
        basis = self.span_rows()
        v0 = self.vertices[0]
        pts = []
        for v in self.vertices:
            coords = coordinates_in_basis(basis, vsub(v, v0))
            pts.append(tuple(int(c) for c in coords))
        return LatticePolytope(pts).normalized_volume()

    def _volume_full(self, verts) -> int:
        n = len(verts[0])
        if len(verts) == n + 1:
            v0 = verts[0]
            return abs(det([vsub(v, v0) for v in verts[1:]]))
        p = LatticePolytope(verts) if verts is not self.vertices else self
        v0 = p.vertices[0]
        total = 0
        for a, b in p.facets():
            h = dot(a, v0) + b
            if h == 0:
                continue
            face = [v for v in p.vertices if dot(a, v) + b == 0]
            fp = LatticePolytope(face)
            total += h * fp.relative_normalized_volume()
        return total

    # -- constructions -----------------------------------------------------------

    def minkowski_sum(self, other: "LatticePolytope") -> "LatticePolytope":
        if self.ambient != other.ambient:
            raise DimMismatch("DimMismatch: ambient dimensions differ")
        return LatticePolytope([vadd(v, w) for v in self.vertices
                                for w in other.vertices])

    def translate(self, t) -> "LatticePolytope":
        return LatticePolytope([vadd(v, t) for v in self.vertices])

    def dilate(self, k: int) -> "LatticePolytope":
        if k == 0:
            return LatticePolytope([(0,) * self.ambient])
        if k < 0:
            raise ValueError("negative dilation")
        return LatticePolytope([tuple(k * x for x in v) for v in self.vertices])

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
    from math import factorial

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
