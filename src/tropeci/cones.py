"""Rational polyhedral cones with exact dual-representation conversion.

A cone is stored as extreme rays plus a lineality basis (V-side) and as
irredundant inequalities plus equations (H-side); whichever side was not
supplied is computed lazily by the double description method.  All data are
integer vectors; every conversion is exact.  Rays of a cone with lineality
are representatives modulo it, and one rule reduces them
(:func:`_reduce_rays`): every converted cone and every :meth:`Cone.key`, so
equal cones have equal keys however they were built.

Every cut of a cone by a halfspace goes through one step, :func:`_sides`,
which carries tightness bitmasks along.  It serves the conversion
(:func:`dual_description`, which cuts the whole space in place), the
chambers of a central arrangement in a linear span, also cut in place
(:func:`_span_chambers`; :func:`chamber_complex` for the whole space), and
:func:`_cut_cone`, which cuts a known cone, pointed or not, through its
rays and lineality; threshold regions, refinement pieces and overlaps are
built that way from their parents, with no from-scratch conversion.
Pairwise work on cell lists also lives here: :func:`overlaps` lists the
pairs of cones that meet off the origin, and :func:`common_refinement`
cuts tagged cones by cell lists.  So does the package's one triangulation,
:func:`_pull_triangulate`, which pulls a pointed cone's smallest ray over
its facets; it triangulates the fans of the Courant engine and the
homogenization cones whose simplices give polytope volumes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .linalg import (
    canonical_span_rows,
    dot,
    is_zero,
    primitive,
    rank,
    rational_primitive,
    saturation_basis,
    vneg,
    vscale,
    vsub,
)


class NotAFan(ValueError):
    pass


def _dedupe(vectors: Iterable[tuple]) -> list:
    seen, out = set(), []
    for v in vectors:
        t = tuple(v)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def dual_description(ineqs: Sequence, eqs: Sequence, ambient: int):
    """Extreme rays and lineality of {x : a·x ≥ 0 ∀a ∈ ineqs, e·x = 0 ∀e ∈ eqs}.

    The whole space, the standard basis as its lineality, is cut in place by
    one constraint after another with :func:`_sides`, each equation as two
    opposite halfspaces.  The lineality is the primitive basis that the cut
    leaves, not saturated; the rays are sorted and reduced modulo it by the
    rule of :meth:`Cone.key` (:func:`_reduce_rays`).
    """
    ineqs = _dedupe(tuple(a) for a in ineqs if not is_zero(a))
    eqs = [tuple(e) for e in eqs if not is_zero(e)]
    rays, masks, lin = [], [], _standard_basis(ambient)
    for step, a in enumerate(ineqs + eqs + [vneg(e) for e in eqs]):
        rays, masks, lin, _ = _sides(rays, masks, lin, a, 1 << step)[0]
    return list(_reduce_rays(rays, lin)[0]), lin


def _reduce_rays(rays: Sequence, lin: Sequence) -> tuple:
    """(rays, span): the sorted rays reduced modulo the lineality, whose
    primitive reduced echelon basis is ``span``.

    Each ray becomes a positive multiple of it plus a lineality vector that
    is zero in every pivot column of ``span``, made primitive, so any
    representatives of the rays give the same tuple.
    """
    span = canonical_span_rows(lin) if lin else ()
    pivots = [(next(j for j, x in enumerate(row) if x), row) for row in span]
    out = set()
    for r in rays:
        for pc, row in pivots:
            if r[pc]:
                r = vsub(vscale(row[pc], r), vscale(r[pc], row))
        out.add(primitive(r))
    return tuple(sorted(out)), span


def _standard_basis(n: int) -> list:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def _cut(rays, masks, vals, bit):
    """One double-description step: split a cone by a hyperplane a·x = 0.

    The hyperplane contains the cone's lineality, so only the rays matter.
    ``vals`` holds a·r for the extreme rays ``rays`` (some of each sign),
    ``masks`` their tightness bitmasks and ``bit`` marks the new hyperplane.
    A positive and a negative ray that are adjacent (no third ray is tight
    wherever both are: Fukuda–Prodon 1996, *Double description method
    revisited*) give a primitive crossing ray, tight at ``bit`` too, and
    coinciding crossings merge their masks.  Returns ``(rays, masks)`` for the
    sides a·x ≥ 0 and a·x ≤ 0: strict rays, then tight rays, then crossings.
    """
    pos = [i for i, v in enumerate(vals) if v > 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    shared = {rays[i]: masks[i] | bit for i, v in enumerate(vals) if v == 0}
    for i in pos:
        for j in neg:
            z = masks[i] & masks[j]
            if _adjacent(z, i, j, masks):
                vi, vj = vals[i], vals[j]
                c = primitive([vi * b - vj * a for a, b in zip(rays[i], rays[j])])
                shared[c] = shared.get(c, 0) | z | bit
    return [([rays[i] for i in side] + list(shared),
             [masks[i] for i in side] + list(shared.values())) for side in (pos, neg)]


def _sides(rays, masks, lin, a, bit):
    """Both sides of a cone cut by the hyperplane a·x = 0: the one cut step.

    The cone is given by its extreme rays (representatives modulo the
    lineality basis ``lin``), their tightness bitmasks ``masks`` and ``lin``;
    ``bit`` marks the new hyperplane.  Returns ``(rays, masks, lin, whole)``
    for the sides a·x ≥ 0 and a·x ≤ 0, where ``whole`` says that the side
    keeps the cone's dimension.  There are three cases:

    * a·x is nonzero on the lineality: the lineality vector l with the
      smallest nonzero |a·l| becomes the ray ±l of each side, tight at every
      earlier bit, and the other lineality vectors and the rays move along
      it into a·x = 0 (tight at ``bit``);
    * a·r takes both signs on the rays: :func:`_cut`;
    * otherwise one side is the whole cone and the other the face a·x = 0,
      which is whole too when a·x vanishes on the cone.
    """
    lin_vals = [dot(a, l) for l in lin]
    if any(lin_vals):
        k = min((i for i, v in enumerate(lin_vals) if v), key=lambda i: abs(lin_vals[i]))
        l0, c = lin[k], lin_vals[k]
        new_lin = [primitive(vsub(vscale(c, l), vscale(v, l0))) if v else l
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != k]
        up = l0 if c > 0 else vneg(l0)
        proj = [primitive(vsub(vscale(abs(c), r), vscale(v, up))) if v else r
                for r, v in zip(rays, [dot(a, r) for r in rays])]
        tight = [mk | bit for mk in masks]
        return [(proj + [primitive(s)], tight + [bit - 1], new_lin, True)
                for s in (up, vneg(up))]
    vals = [dot(a, r) for r in rays]
    if any(v > 0 for v in vals) and any(v < 0 for v in vals):
        return [(r, mk, lin, True) for r, mk in _cut(rays, masks, vals, bit)]
    face = [i for i, v in enumerate(vals) if v == 0]
    whole = (rays, [mk | bit if v == 0 else mk for mk, v in zip(masks, vals)], lin, True)
    flat = ([rays[i] for i in face], [masks[i] | bit for i in face], lin,
            len(face) == len(rays))
    return [whole, flat] if all(v >= 0 for v in vals) else [flat, whole]


def _adjacent(z, i, j, masks_all) -> bool:
    """Combinatorial adjacency: no third ray's tight set contains z."""
    for t, mk in enumerate(masks_all):
        if t == i or t == j:
            continue
        if z & ~mk == 0:
            return False
    return True


class Cone:
    """Immutable rational cone; dual representations computed on demand.

    A cone is given by generators (``rays``, ``lineality``) or by constraints
    (``ineqs``, ``eqs``); mixing the two raises ValueError.  With
    ``_trusted``, ``rays`` and ``lineality`` are taken as the exact V-side,
    and ``ineqs`` and ``eqs``, when given too, are kept as raw constraints of
    the same cone for the cheap tests.

    Derived rays and inequalities are canonical (:func:`dual_description`);
    derived lineality and equation bases are not saturated, and
    :meth:`span_rows` is the lattice basis of the span.
    """

    __slots__ = ("ambient", "_rays", "_lin", "_ineqs", "_eqs",
                 "_raw_ineqs", "_raw_eqs", "_dim", "_span", "_key", "_masks")

    def __init__(self, ambient: int, rays=None, lineality=None, ineqs=None, eqs=None,
                 _trusted: bool = False):
        self.ambient = ambient
        self._rays = self._lin = self._ineqs = self._eqs = None
        self._raw_ineqs = self._raw_eqs = None
        self._dim = self._span = self._key = self._masks = None
        if rays is None and ineqs is None:
            raise ValueError("need generators or inequalities")
        if not _trusted and ambient < 0:
            raise ValueError(f"negative ambient dimension {ambient}")
        if not _trusted and (rays is not None or lineality is not None) and \
                (ineqs is not None or eqs is not None):
            raise ValueError("give generators or constraints, not both")
        if rays is not None:
            read = primitive if _trusted else rational_primitive
            rays = sorted(_dedupe(read(r) for r in rays if not is_zero(r)))
            lineality = [tuple(v) for v in (lineality or [])]
            if _trusted:
                self._rays, self._lin = rays, lineality
            else:
                # canonicalize arbitrary generators by a double conversion
                hi, he = dual_description(rays, lineality, ambient)
                self._ineqs, self._eqs = hi, he
                self._rays, self._lin = dual_description(hi, he, ambient)
        if ineqs is not None:
            # raw constraints stay available for cheap containment tests; the
            # public H-rep is always the irredundant one derived from the rays
            self._raw_ineqs = sorted(_dedupe(tuple(a) for a in ineqs if not is_zero(a)))
            self._raw_eqs = [tuple(e) for e in (eqs or []) if not is_zero(e)]

    # -- representations ----------------------------------------------------

    @property
    def rays(self) -> list:
        if self._rays is None:
            self._rays, self._lin = dual_description(
                self._raw_ineqs, self._raw_eqs, self.ambient)
        return self._rays

    @property
    def lineality(self) -> list:
        if self._lin is None:
            self.rays
        return self._lin

    @property
    def ineqs(self) -> list:
        if self._ineqs is None:
            self._ineqs, self._eqs = dual_description(self.rays, self.lineality, self.ambient)
        return self._ineqs

    @property
    def eqs(self) -> list:
        if self._eqs is None:
            self.ineqs
        return self._eqs

    # -- basic geometry ------------------------------------------------------

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = rank(list(self.rays) + list(self.lineality))
        return self._dim

    def span_rows(self) -> list:
        """Saturated lattice basis of the linear span."""
        if self._span is None:
            gens = list(self.rays) + list(self.lineality)
            self._span = saturation_basis(gens) if gens else []
        return self._span

    def key(self):
        """Canonical key: equal exactly for equal cones, however given.

        The sorted extreme rays reduced modulo the lineality, and the
        primitive reduced echelon basis of the lineality (:func:`_reduce_rays`).
        """
        if self._key is None:
            self._key = _reduce_rays(self.rays, self.lineality)
        return self._key

    def _constraints(self) -> tuple:
        """(inequalities, equations): the raw ones when kept, else the H-rep."""
        if self._raw_ineqs is not None:
            return self._raw_ineqs, self._raw_eqs
        return self.ineqs, self.eqs

    def _tight_masks(self) -> list:
        """Per extreme ray, the bitmask of ``_constraints`` inequalities tight on it."""
        if self._masks is None:
            ineqs = self._constraints()[0]
            self._masks = [sum(1 << i for i, a in enumerate(ineqs) if dot(a, r) == 0)
                           for r in self.rays]
        return self._masks

    def contains(self, x) -> bool:
        ineqs, eqs = self._constraints()
        return all(dot(a, x) >= 0 for a in ineqs) and all(dot(e, x) == 0 for e in eqs)

    def relint_point(self) -> tuple:
        """Sum of the extreme rays (the origin when there are none)."""
        return tuple(map(sum, zip(*self.rays))) if self.rays else (0,) * self.ambient

    def facets(self) -> list:
        """Codimension-1 faces (empty for a linear subspace)."""
        return [f for f, _ in self._facets()]

    def _facets(self) -> Iterator:
        """(facet, a) per facet, a the first inequality a ≥ 0 that cuts it.

        Every facet is cut out by one of the ``_constraints`` inequalities
        (the raw ones when kept, else the H-rep), so each distinct set of
        rays tight on one of them whose span with the lineality has rank
        dim − 1 is one facet, read from the tightness masks.  A facet keeps
        that dimension and the constraints, a added as an equation, so its
        own facets are read the same way, with no conversion.
        """
        ineqs, eqs = self._constraints()
        rays, masks, lin, dim = self.rays, self._tight_masks(), self.lineality, self.dim
        seen = set()
        for i, a in enumerate(ineqs):
            tight = tuple(r for r, mk in zip(rays, masks) if mk >> i & 1)
            if tight in seen or len(tight) + len(lin) < dim - 1:
                continue
            seen.add(tight)
            if rank(list(tight) + lin) == dim - 1:
                f = Cone(self.ambient, rays=tight, lineality=lin, ineqs=ineqs,
                         eqs=list(eqs) + [a], _trusted=True)
                f._dim = dim - 1
                yield f, a

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={self.rays}, lin={len(self.lineality)})"

    def __eq__(self, other):
        return isinstance(other, Cone) and self.ambient == other.ambient and \
            self.key() == other.key()

    def __hash__(self):
        return hash((self.ambient, self.key()))


def may_meet_full_dim(sigma: Cone, cell: Cone) -> bool:
    """Cheap necessary test for dim(σ ∩ cell) = dim σ.

    Uses only dot products of cell constraints against σ's generators, so a
    False verdict proves the intersection lies in a proper face of σ without
    running any conversion.  True is inconclusive.
    """
    rays, lin = sigma.rays, sigma.lineality
    ineqs, eqs = cell._constraints()
    for e in eqs:
        if any(dot(e, g) != 0 for g in rays) or any(dot(e, g) != 0 for g in lin):
            return False
    for a in ineqs:
        if any(dot(a, l) != 0 for l in lin):
            continue
        pos = neg = False
        for r in rays:
            v = dot(a, r)
            if v > 0:
                pos = True
                break
            if v < 0:
                neg = True
        if neg and not pos:
            return False
    return True


def _cut_cone(cone: Cone, ineqs: Sequence, eqs: Sequence, min_dim: int):
    """cone ∩ {a·x ≥ 0 ∀a ∈ ineqs, e·x = 0 ∀e ∈ eqs}; None below ``min_dim``.

    Every cone, pointed or not, is cut through its extreme rays and
    lineality, one halfspace at a time (the ≥ side of :func:`_sides`), each
    equation as two opposite halfspaces; the tightness masks start over the
    cone's own constraint list (raw when kept, else its H-rep).  Only a side
    that is not whole can lower the dimension, so the rank is taken only
    then.  The result keeps the rays, lineality and dimension of the cut, so
    it needs no conversion and no rank, and of the combined inequalities only
    those tight on at least dim − len(lineality) − 1 of its rays: every facet
    and every implicit equation is among them, so the cone is the same.
    """
    own_ineqs, own_eqs = cone._constraints()
    ineqs, eqs = [tuple(a) for a in ineqs], [tuple(e) for e in eqs]
    dim = cone.dim
    if dim < min_dim:
        return None
    rays, masks, lin = cone.rays, cone._tight_masks(), cone.lineality
    bit = 1 << len(own_ineqs)
    for a in ineqs + eqs + [vneg(e) for e in eqs]:
        rays, masks, lin, whole = _sides(rays, masks, lin, a, bit)[0]
        bit <<= 1
        if not whole:
            if dim <= min_dim:
                return None
            dim = rank(rays + lin)
            if dim < min_dim:
                return None
    need = dim - len(lin) - 1
    kept = [a for i, a in enumerate(own_ineqs + ineqs)
            if sum(mk >> i & 1 for mk in masks) >= need]
    out = Cone(cone.ambient, rays=rays, lineality=lin, ineqs=kept,
               eqs=own_eqs + eqs, _trusted=True)
    out._dim = dim
    return out


def common_refinement(seed: Sequence, cell_lists: Sequence, dim: int) -> list:
    """Cut tagged cones by one cell list after another.

    ``seed`` holds (cone, tag) pairs and each cell list (cone, covector)
    pairs.  Every cut intersects each current piece with each cell in turn
    (:func:`_cut_cone` on the cell's constraints), keeps the intersections
    of dimension at least ``dim`` and drops repeats of a face key already
    seen in that cut.  Returns (piece, tag, covectors) triples, one covector
    per cell list, in the order the cuts produce them.
    The seed itself is neither cut nor deduplicated.
    """
    pieces = [(cone, tag, []) for cone, tag in seed]
    for cells in cell_lists:
        nxt, seen = [], set()
        for cone, tag, ls in pieces:
            for cell, l in cells:
                if not may_meet_full_dim(cone, cell):
                    continue
                piece = _cut_cone(cone, *cell._constraints(), dim)
                if piece is None:
                    continue
                k = piece.key()
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((piece, tag, ls + [l]))
        pieces = nxt
    return pieces


def overlaps(cones: Sequence) -> Iterator:
    """(i, j, intersection) for each pair i < j of cones meeting off the origin."""
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            inter = _cut_cone(cones[i], *cones[j]._constraints(), 1)
            if inter is not None:
                yield i, j, inter


def full_space(ambient: int) -> Cone:
    return Cone(ambient, rays=[], lineality=_standard_basis(ambient), ineqs=[],
                _trusted=True)


# ---------------------------------------------------------------------------
# incremental hyperplane arrangement


def chamber_complex(normals: Sequence, ambient: int) -> list[Cone]:
    """All chambers of the central arrangement with the given normals.

    They are the chambers of the whole space, :func:`_span_chambers` started
    from the standard basis; zero normals cut nothing.  Each normal must have
    the ambient width (ValueError otherwise).
    """
    normals = [tuple(h) for h in normals]
    if any(len(h) != ambient for h in normals):
        raise ValueError(f"normals must have width {ambient}")
    return _span_chambers(normals, _standard_basis(ambient), [], ambient)


def _span_chambers(normals: Sequence, basis: Sequence, eqs: Sequence,
                   ambient: int) -> list[Cone]:
    """The chambers that the normals cut out of the span of ``basis``.

    The span, the solution set of ``eqs``, is cut in place by one normal
    after another (:func:`_sides`, from ``basis`` as the lineality), keeping
    the sides that stay full dimensional, so no chamber goes through a
    conversion.  A normal that vanishes on the span is skipped, because both
    of its sides would be the whole span.  Each chamber is a trusted
    :class:`Cone` whose raw inequalities are the normals that cut, each
    signed to be nonnegative on it, and whose raw equations are ``eqs``.
    """
    cells = [([], [], list(basis), [])]
    for step, h in enumerate(normals):
        h = tuple(h)
        if not any(dot(h, b) for b in basis):
            continue
        nxt = []
        for rays, masks, lin, signed in cells:
            sides = _sides(rays, masks, lin, h, 1 << step)
            nxt += [(r, mk, l, signed + [s])
                    for (r, mk, l, whole), s in zip(sides, (h, vneg(h))) if whole]
        cells = nxt
    return [Cone(ambient, rays=rays, lineality=lin, ineqs=signed, eqs=eqs, _trusted=True)
            for rays, _, lin, signed in cells]


# ---------------------------------------------------------------------------
# pulling triangulation


def _pull_triangulate(cone: Cone) -> list:
    """Pulling triangulation of a pointed cone, as sorted ray tuples.

    The smallest extreme ray is joined to the triangulation of every facet
    that misses it, so a face is triangulated the same way in every cone
    that contains it.
    """
    rays = cone.rays
    if len(rays) == cone.dim:
        return [tuple(sorted(rays))]
    r0 = min(rays)
    return [tuple(sorted(simplex + (r0,))) for facet in cone.facets()
            if r0 not in facet.rays for simplex in _pull_triangulate(facet)]
