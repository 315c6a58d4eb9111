"""Weighted fans and the cycle-level operations on them.

A weighted fan is a pure-dimensional collection of rational cones with
integer (occasionally rational, during intermediate computations) weights.
The operations here treat fans as cycles: addition, equality up to
refinement, balancing verification through quotient-lattice lifts,
pushforward along surjective lattice maps, and stable intersection
numbers at one lexicographic displacement.  All of it runs in ambient
coordinates: a wall lift is read off the facet inequality of the cone, and
the cycle refinement chambers each span of cones in place, so nothing is
written in lattice coordinates of a span.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cones import Cone, NotAFan, NotContinuous, _agree, _cut_cone, _span_chambers, \
    dual_description, overlaps
from .linalg import (
    canonical_span_rows,
    dot,
    kernel_basis,
    primitive,
    rank,
    sign_normalized,
    smith_with_basis,
    solve_dot_one,
    sublattice_index,
    vadd,
    vneg,
    vscale,
)


class NotBalanced(ValueError):
    pass


class NotSurjective(ValueError):
    pass


class NotComplementary(ValueError):
    pass


class WeightedFan:
    """Pure-dimensional weighted fan; duplicate cones are merged on build.

    Weights are exact: ints, Fractions or ``ppfunc.Poly``s; a float weight
    raises ValueError.
    """

    __slots__ = ("ambient", "dim", "cones")

    def __init__(self, ambient: int, cones: Iterable, dim: int | None = None):
        self.ambient = ambient
        merged = {}
        order = []
        for cone, w in cones:
            if cone.ambient != ambient:
                raise ValueError(f"cone in ℤ^{cone.ambient}, fan in ℤ^{ambient}")
            if isinstance(w, float):
                raise ValueError(f"float weight {w}: weights are exact")
            if w == 0:
                continue
            k = cone.key()
            if k in merged:
                merged[k] = (merged[k][0], merged[k][1] + w)
            else:
                merged[k] = (cone, w)
                order.append(k)
        self.cones = [merged[k] for k in order if merged[k][1] != 0]
        dims = {c.dim for c, _ in self.cones}
        if len(dims) > 1:
            raise ValueError(f"mixed cone dimensions {sorted(dims)}")
        if dims:
            d = dims.pop()
            if dim is not None and dim != d:
                raise ValueError("declared dimension does not match cones")
            self.dim = d
        else:
            self.dim = dim if dim is not None else -1

    def is_zero(self) -> bool:
        return not self.cones

    def scale(self, c) -> "WeightedFan":
        return WeightedFan(self.ambient, [(cone, c * w) for cone, w in self.cones],
                           dim=self.dim)

    def __neg__(self) -> "WeightedFan":
        return self.scale(-1)

    def __add__(self, other: "WeightedFan") -> "WeightedFan":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.cones and other.cones and self.dim != other.dim:
            raise ValueError("dimension mismatch")
        d = self.dim if self.cones else other.dim
        return WeightedFan(self.ambient, list(self.cones) + list(other.cones), dim=d)

    def weight_of_point(self, x) -> int:
        """Sum of weights of cones containing x (meaningful away from walls)."""
        return sum(w for c, w in self.cones if c.contains(x))

    def __repr__(self):
        return f"WeightedFan(dim={self.dim}, ncones={len(self.cones)})"


def wall_lift(rho: Cone, tau: Cone):
    """Integer lift in span τ of the primitive generator of L_τ/L_ρ toward τ.

    ρ must be a facet of τ (ValueError otherwise).  ũ ∈ L_τ, its class
    generates L_τ/L_ρ, and it points to the side of span ρ holding τ.  A
    constraint a ≥ 0 of τ, tight on ρ and not zero on span τ, has L_ρ as its
    kernel on L_τ; with φ = (a·b_i) over the basis b of L_τ made primitive,
    ũ = Σ x_i·b_i for an integer x with φ·x = 1, so a·ũ > 0.
    """
    gens = rho.rays + rho.lineality + [vneg(v) for v in rho.lineality]
    if rho.dim != tau.dim - 1 or not all(tau.contains(g) for g in gens):
        raise ValueError("wall is not a facet of the cone")
    p = rho.relint_point()
    for a in tau._constraints()[0]:
        if dot(a, p) == 0 and any(dot(a, b) for b in tau.rays + tau.lineality):
            return _lift(tau, a)
    raise ValueError("wall is not a facet of the cone")


def _lift(tau: Cone, a):
    """The ũ of :func:`wall_lift` for the facet that a ≥ 0 cuts from τ."""
    basis = tau.span_rows()
    lift = (0,) * tau.ambient
    for c, b in zip(solve_dot_one(primitive([dot(a, b) for b in basis])), basis):
        lift = vadd(lift, vscale(c, b))
    return lift


def _is_face_of(cone: Cone, sub: Cone) -> bool:
    """Whether sub (already known to satisfy sub ⊆ cone) is a face of cone."""
    p = sub.relint_point()
    tight = [a for a in cone._constraints()[0] if dot(a, p) == 0]
    return _cut_cone(cone, [], tight, 0).key() == sub.key()


def check_fan_structure(fan: WeightedFan) -> None:
    """Raise NotAFan unless cones meet pairwise in common faces."""
    cones = [c for c, _ in fan.cones]
    for i, j, inter in overlaps(cones):
        if not _is_face_of(cones[i], inter) or not _is_face_of(cones[j], inter):
            raise NotAFan(f"cones {i} and {j} overlap without a common face")


def is_balanced(fan: WeightedFan) -> bool:
    """Weighted balancing test around every codimension-one wall.

    The fan structure is always tested first (:func:`check_fan_structure`,
    which raises NotAFan); then the balance test of :func:`_wall_step`
    decides.
    """
    check_fan_structure(fan)
    try:
        _wall_step(fan.cones, fan.ambient, lambda *_: 0)
    except NotBalanced:
        return False
    return True


def _wall_step(pieces: Sequence, ambient: int, term) -> list:
    """(wall, weight, ...) over the walls of weighted pieces: one corner-locus step.

    Pieces are tuples (cone, weight, ...) with number or ``Poly`` weights, and
    they must meet face to face: walls are their cones' facets matched by key.
    A wall carries on what its first incident piece holds after its third
    entry, so pieces of three entries give (wall, weight) pairs.
    Wall ρ weighs Σ_j ``term(τ_j, τ_0, ũ_j)`` over its incident pieces τ_j, τ_0
    the first, with lifts ũ_j = ``_lift(τ_j, a_j)`` for the inequality a_j
    that cuts ρ from τ_j, and is dropped when that vanishes on span ρ.  Every
    wall is tested first.  A Σ_j w_j·ũ_j outside span ρ raises NotBalanced,
    because the cycle is unbalanced at ρ or a piece is subdivided differently
    from its neighbour.  A ``term(τ_j, τ_0, b)`` not zero on span ρ for a
    generator b of ρ raises NotContinuous: the pieces disagree on ρ.  These
    tests are over ℚ on ρ's own generators (:func:`cones._agree`), with no
    Smith form; only the lifts read a lattice.
    """
    groups = {}
    for piece in pieces:
        for f, a in piece[0]._facets():
            groups.setdefault(f.key(), (f, []))[1].append((piece, _lift(piece[0], a)))
    out = []
    for wall, incident in groups.values():
        gens = wall.rays + wall.lineality
        total = (0,) * ambient
        for piece, u in incident:
            total = vadd(total, vscale(piece[1], u))
        if not all(_agree(dot(psi, total), 0, gens)
                   for psi in kernel_basis(gens, ambient)):
            raise NotBalanced("weighted lifts leave the span of a wall: the cycle "
                              "is unbalanced or its pieces do not meet face to face")
        first = incident[0][0]
        if not all(_agree(term(piece, first, b), 0, gens)
                   for piece, _ in incident[1:] for b in gens):
            raise NotContinuous("pieces disagree on a shared wall")
        weight = sum(term(piece, first, u) for piece, u in incident)
        if not _agree(weight, 0, gens):
            out.append((wall, weight) + first[3:])
    return out


def is_zero_cycle(pairs: Sequence, ambient: int) -> bool:
    """Whether a formal sum of weighted cones is zero as a cycle.

    It is zero when :func:`_refine_to_fan` leaves no cell of nonzero weight.
    """
    return not _refine_to_fan(pairs, ambient)


def fans_equal(a: WeightedFan, b: WeightedFan) -> bool:
    if a.ambient != b.ambient:
        return False
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if a.dim != b.dim:
        return False
    pairs = list(a.cones) + [(c, -w) for c, w in b.cones]
    return is_zero_cycle(pairs, a.ambient)


def _image_lattice_check(rows, target_dim: int) -> None:
    cols = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
    diag, _ = smith_with_basis([list(c) for c in cols])
    if len(diag) != target_dim or any(abs(x) != 1 for x in diag):
        raise NotSurjective("matrix is not a surjective lattice map")


def apply_matrix(rows, v):
    return tuple(dot(r, v) for r in rows)


def pushforward(fan: WeightedFan, rows: Sequence) -> WeightedFan:
    """Image cycle under a surjective lattice map given by matrix rows.

    Cones whose image drops dimension are discarded; the others carry their
    weight multiplied by the index of the image of the cone's span lattice
    inside its saturation.  The resulting cones are refined into a
    face-to-face fan before being returned.
    """
    rows = [tuple(r) for r in rows]
    if any(len(r) != fan.ambient for r in rows):
        raise ValueError(f"matrix rows must have length {fan.ambient}")
    m = len(rows)
    _image_lattice_check(rows, m)
    images = []
    for cone, w in fan.cones:
        span_img = [apply_matrix(rows, b) for b in cone.span_rows()]
        if rank(span_img) < fan.dim:
            continue
        idx = sublattice_index([list(r) for r in span_img])
        img = Cone(m, rays=[apply_matrix(rows, r) for r in cone.rays],
                   lineality=[apply_matrix(rows, l) for l in cone.lineality])
        images.append((img, w * idx))
    return WeightedFan(m, _refine_to_fan(images, m), dim=fan.dim)


def _cross_span_normals(key_i, key_j, eqs_j) -> list:
    """Span j's equations ``eqs_j`` if span j meets span i in a hyperplane of it."""
    if rank(key_i + key_j) != len(key_j) + 1:
        return []
    return [sign_normalized(n) for n in eqs_j]


def _refine_to_fan(images: Sequence, ambient: int) -> list:
    """Refine overlapping weighted cones into face-to-face cells per span.

    Each span is chambered in place, in ambient coordinates, by its members'
    facet normals and the equations (its first member's) of every span that
    meets it in a hyperplane; a chamber weighs the members containing its
    relative interior.  Returns (cell, total weight) for nonzero totals only.
    """
    groups = {}
    for cone, w in images:
        key = canonical_span_rows(cone.rays + cone.lineality)
        groups.setdefault(key, []).append((cone, w))
    span_eqs = {key: members[0][0].eqs for key, members in groups.items()}
    out = []
    for key, members in groups.items():
        normals = {sign_normalized(a) for c, _ in members for a in c.ineqs}
        for other in groups:
            if other != key:
                normals.update(_cross_span_normals(key, other, span_eqs[other]))
        for ch in _span_chambers(sorted(normals), key, span_eqs[key], ambient):
            p = ch.relint_point()
            total = sum(w for c, w in members if c.contains(p))
            if total:
                out.append((ch, total))
    return out


def consolidate(pairs: Sequence, ambient: int, dim: int) -> WeightedFan:
    """Rebuild a formal sum of weighted cones as a face-to-face fan.

    The cones may overlap arbitrarily; each span group is chambered by the
    arrangement of every inequality occurring in it, weights are summed
    chamber by chamber, and cancelled pieces drop out.
    """
    return WeightedFan(ambient, _refine_to_fan(list(pairs), ambient), dim=dim)


def stable_intersection_number(t_fan: WeightedFan, f_fan: WeightedFan) -> int:
    """Degree of the stable intersection of two complementary-dimension fans.

    By the fan displacement rule (Fulton–Sturmfels 1997, *Intersection theory
    on toric varieties*), the degree is Σ w_σ·w_τ·[ℤⁿ : L_σ + L_τ] over the
    pairs of cones σ of the first fan and τ of the second such that σ meets
    τ + v, for any displacement v off finitely many proper subspaces.  That
    happens exactly when v ∈ σ − τ.  The displacement here is
    v = (ε, ε², …, εⁿ) with ε → 0⁺, which for small ε lies in no given
    proper subspace: a pair whose spans do not sum to ℝⁿ is never met, and
    for the others σ − τ is full-dimensional and holds v exactly when every
    facet normal a has a·v > 0, that is when a is lexicographically
    positive (its first nonzero entry is positive).  The count is the same
    for every generic v only when both fans are balanced; on unbalanced
    fans it is the count at this one displacement.
    """
    n = t_fan.ambient
    if f_fan.ambient != n:
        raise ValueError("ambient mismatch")
    if t_fan.is_zero() or f_fan.is_zero():
        return 0
    if t_fan.dim + f_fan.dim != n:
        raise NotComplementary(
            f"dimensions {t_fan.dim} + {f_fan.dim} do not sum to {n}")
    total = 0
    for sigma, ws in t_fan.cones:
        for tau, wf in f_fan.cones:
            rows = sigma.span_rows() + tau.span_rows()
            if rank(rows) < n:
                continue
            normals, _ = dual_description(
                sigma.rays + [vneg(r) for r in tau.rays],
                sigma.lineality + tau.lineality, n)
            if all(sign_normalized(a) == a for a in normals):
                total += ws * wf * sublattice_index(rows)
    return total


def support_connected_off_origin(fan: WeightedFan) -> bool:
    """Whether maximal cones form one component via shared nonzero faces."""
    cones = [c for c, _ in fan.cones]
    k = len(cones)
    if k <= 1:
        return True
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in overlaps(cones):
        pi, pj = find(i), find(j)
        if pi != pj:
            parent[pi] = pj
    return len({find(i) for i in range(k)}) == 1
