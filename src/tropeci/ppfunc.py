"""Piecewise-polynomial functions, their corner loci, and degree extraction.

Two levels live here.  The single-step corner locus of a piecewise
polynomial against a polynomially weighted fan implements the directional
derivative defect wall by wall: it cuts cells with
``cones.common_refinement`` and leaves the walls, their lifts and the
balance and continuity tests at each wall to ``fans._wall_step``, which
``plfunc.corner_locus`` shares; the whole piecewise data is also tested for
continuity once, which the walls alone do not see.
The number δ^N(F·T)/N! for deg F = dim T is computed by a different and
more robust route: F is expanded over a simplicial fan refining its cells
and T into products of Courant hat functions (the piecewise linear
barycentric coordinates of the rays), and each product of hats is folded
combinatorially over that fan by ``_FanEngine``, a hat being a barycentric
coordinate on every simplex.  A fold takes no lattice lifts: on a face
τ = ρ ∪ {ρ′} the lift of L_τ/L_ρ is (mult ρ / mult τ)·ρ′ modulo span ρ
(Fulton–Sturmfels 1997, *Intersection theory on toric varieties*).  On
products of PL functions the number agrees with the iterated PL corner locus
of ``plfunc``, which is what pins the semantics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

from .cones import Cone, _pull_triangulate, _standard_basis, chamber_complex, common_refinement
from .fans import NotContinuous, WeightedFan, _wall_step
from .linalg import dot, inverse_rows, sublattice_index
from .plfunc import PLFunction, _agree_on_overlaps, _hyperplanes


class Poly:
    """Sparse polynomial with rational coefficients; exponents are tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            if c != 0:
                self.terms[tuple(e)] = c

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def linear(cls, covector) -> "Poly":
        n = len(covector)
        return cls(n, {tuple(int(j == i) for j in range(n)): c
                       for i, c in enumerate(covector)})

    @classmethod
    def linear_product(cls, nvars: int, covectors) -> "Poly":
        """The product of the linear forms given by the covectors."""
        p = cls.const(nvars, 1)
        for l in covectors:
            p = p * cls.linear(l)
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(self.nvars, -other))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__  # other is a scalar here

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == Poly.const(self.nvars, other).terms

    def eval(self, x):
        total = 0
        for e, c in self.terms.items():
            for xi, ei in zip(x, e):
                if ei:
                    c = c * xi ** ei
            total += c
        return total

    def partial(self, i: int) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            f = list(e)
            f[i] -= 1
            terms[tuple(f)] = terms.get(tuple(f), 0) + c * e[i]
        return Poly(self.nvars, terms)

    def dir_deriv(self, u) -> "Poly":
        return self.dir_deriv_poly([Poly.const(self.nvars, ui) for ui in u])

    def dir_deriv_poly(self, v_polys: Sequence["Poly"]) -> "Poly":
        out = Poly(self.nvars, {})
        for i, vp in enumerate(v_polys):
            if not vp.is_zero():
                out = out + vp * self.partial(i)
        return out

    def compose(self, rows: Sequence) -> "Poly":
        """Substitute x_i = rows[i]·y; the result lives in len(rows[0]) vars."""
        new_n = len(rows[0]) if rows else 0
        lins = [Poly.linear(r) for r in rows]
        powers = {}

        def power(i, e):
            if e == 0:
                return Poly.const(new_n, 1)
            if (i, e) not in powers:
                powers[(i, e)] = power(i, e - 1) * lins[i]
            return powers[(i, e)]

        out = Poly(new_n, {})
        for exp, c in self.terms.items():
            term = Poly.const(new_n, c)
            for i, ei in enumerate(exp):
                if ei:
                    term = term * power(i, ei)
            out = out + term
        return out

    def restrict(self, basis_rows: Sequence) -> "Poly":
        """Express the polynomial on the subspace spanned by the basis rows."""
        if not basis_rows:
            return Poly.const(0, self.eval((0,) * self.nvars))
        return self.compose(list(zip(*basis_rows)))

    def __repr__(self):
        return f"Poly({self.terms})"


class PPFunction:
    """Piecewise polynomial: cells (cone, Poly), homogeneous of one degree."""

    __slots__ = ("ambient", "degree", "cells")

    def __init__(self, ambient: int, degree: int, cells: Iterable):
        self.ambient = ambient
        self.degree = degree
        self.cells = []
        for cone, p in cells:
            if not p.is_homogeneous(degree):
                raise ValueError("piece is not homogeneous of the stated degree")
            self.cells.append((cone, p))

    def value(self, x):
        for cone, p in self.cells:
            if cone.contains(x):
                return p.eval(x)
        raise ValueError(f"point {x} outside the domain")

    def check_continuity(self) -> bool:
        return _agree_on_overlaps(
            self.cells, lambda p, q, span: (p - q).restrict(span).is_zero())

    def __repr__(self):
        return (f"PPFunction(ambient={self.ambient}, degree={self.degree}, "
                f"ncells={len(self.cells)})")


def pp_from_pl_product(ms: Sequence[PLFunction]) -> PPFunction:
    """Product of PL functions as a PP function on the common refinement."""
    if not ms:
        raise ValueError("need at least one factor")
    n = ms[0].ambient
    cells = []
    for cone, l0, ls in common_refinement(ms[0].cells, [m.cells for m in ms[1:]], n):
        cells.append((cone, Poly.linear_product(n, [l0, *ls])))
    return PPFunction(n, len(ms), cells)


def pp_corner_locus(f: PPFunction, t_fan: WeightedFan) -> WeightedFan:
    """One corner-locus step of a PP function against a weighted fan.

    Weights of the result are polynomials: on a wall ρ with incident refined
    cones τ_j, the weight is Σ_j w_j·D_{ũ_j}(F_{τ_j} − F_ρ), with F_ρ the
    piece of any one τ_j.  Walls whose weight vanishes on their span are
    dropped.  F must live in the fan's ambient space (ValueError otherwise).
    Both inputs are always tested.  A wall whose weighted lifts Σ_j w_j·ũ_j
    leave its span (an unbalanced fan, or refined pieces that do not meet
    face to face) raises NotBalanced; pieces that disagree on a wall raise
    NotContinuous.  The wall test is blind where two cells of F overlap
    on a cone of T: the refinement keeps the first cell's piece only, so a
    disagreement there changes the weights without reaching any wall (the
    tropical line against x ≥ 0 ↦ y, x ≤ 0 ↦ 2y gives −1 or 0 at the origin
    by cell order).  So the pieces of F are also tested pairwise on every
    overlap first, and a disagreement raises NotContinuous.
    """
    n = f.ambient
    if n != t_fan.ambient:
        raise ValueError(f"function on ℝ^{n}, fan in ℝ^{t_fan.ambient}")
    if not f.check_continuity():
        raise NotContinuous("pieces disagree on a shared face")
    pieces = [(piece, w, p) for piece, w, (p,) in
              common_refinement(t_fan.cones, [f.cells], t_fan.dim)]
    walls = _wall_step(pieces, n, lambda piece, first, u:
                       piece[1] * (piece[2] - first[2]).dir_deriv(u))
    return WeightedFan(n, walls, dim=t_fan.dim - 1)


# -- simplicial refinement and Courant decomposition -------------------------


def simplicial_refinement(cones: Sequence[Cone], ambient: int) -> list:
    """Complete simplicial fan refining every given cone.

    The arrangement of all facet and span hyperplanes of the cones (plus the
    coordinate hyperplanes, which make every chamber pointed) is cut into
    chambers and triangulated by ``triangulate_complete_fan``.  Each cone is
    a union of faces of the arrangement, so lower-dimensional cones are
    refined too.  Returns full-dimensional simplices as sorted ray tuples.
    """
    normals = _hyperplanes(cones) | set(_standard_basis(ambient))
    return list(triangulate_complete_fan(chamber_complex(sorted(normals), ambient), ambient))


def _barycentric(simplex: tuple) -> list:
    """Covector rows of the hats of a simplex's rays, in the simplex's order."""
    mat, den = inverse_rows(list(zip(*simplex)))
    return [tuple(Fraction(x, den) for x in row) for row in mat]


def courant_hats(simplices: Sequence, ambient: int) -> dict:
    """Barycentric hat function of every ray of a complete simplicial fan."""
    rays = sorted({r for s in simplices for r in s})
    cells = [(s, Cone(ambient, rays=list(s), _trusted=True), _barycentric(s))
             for s in simplices]
    zero = (0,) * ambient
    return {r: PLFunction(ambient, [(cone, bary[s.index(r)] if r in s else zero)
                                    for s, cone, bary in cells])
            for r in rays}


def triangulate_complete_fan(cells: Sequence[Cone], ambient: int) -> dict:
    """Pull-triangulation of a complete face-to-face fan with pointed cones.

    Each cell goes through ``cones._pull_triangulate``, the package's one
    pulling triangulation.  Shared faces are triangulated identically
    because it always pulls the lexicographically smallest ray of the
    current cone, a choice that depends on the face alone.  Returns a dict
    from each full-dimensional simplex, a sorted ray tuple, to the position
    of the cell it was triangulated from, in the order of the triangulation.
    """
    if any(cone.lineality for cone in cells):
        raise ValueError("cells must be pointed")
    out = {}
    for i, cone in enumerate(cells):
        for s in _pull_triangulate(cone):
            out.setdefault(s, i)
    return out


def _piece_at(f: PPFunction, simplex: tuple) -> Poly:
    """The polynomial of the cell of F containing the simplex's ray sum."""
    probe = tuple(map(sum, zip(*simplex)))
    p = next((poly for cone, poly in f.cells if cone.contains(probe)), None)
    if p is None:
        raise ValueError("refinement left the domain of F")
    return p


def _multiset_coefficients(degree: int, pieces: Iterable) -> dict:
    """Coefficients in the basis of hat-function products of a PP function
    of the given degree, given as (simplex, polynomial) pairs.

    Keys are sorted ray tuples with multiplicity (|key| = degree).  A clash
    between the expansions of two simplices sharing a face is exactly a
    discontinuity of F across that face, so this doubles as the continuity
    check of the piecewise data.
    """
    coeffs = {}
    for s, p in pieces:
        # barycentric expansion: x = Σ t_i·r_i.  Absent monomials count as
        # explicit zeros — a zero-vs-nonzero clash is a discontinuity too.
        local = p.compose(list(zip(*s)))
        for combo in combinations_with_replacement(range(len(s)), degree):
            c = local.terms.get(tuple(map(combo.count, range(len(s)))), 0)
            if coeffs.setdefault(tuple(sorted(s[i] for i in combo)), c) != c:
                raise NotContinuous("inconsistent coefficients on a shared face")
    return coeffs


def courant_decomposition(f: PPFunction) -> tuple:
    """Write F as Σ c_M ∏_{r∈M} φ_r over ray multisets of a simplicial fan.

    Returns (coefficients, hats): a dict from sorted ray tuples (with
    multiplicity, |M| = deg F) to rational coefficients, and the hat
    functions.  Coefficient clashes on shared faces mean F is discontinuous.
    """
    n = f.ambient
    simplices = simplicial_refinement([c for c, _ in f.cells], n)
    hats = courant_hats(simplices, n)
    return _multiset_coefficients(f.degree, ((s, _piece_at(f, s)) for s in simplices)), hats


class _FanEngine:
    """Combinatorial corner-locus folds over one fixed simplicial fan.

    Every intermediate cycle in an iterated hat-product evaluation is
    supported on faces of the starting fan, and a hat is a barycentric
    coordinate there; so cycles are stored as weight dictionaries keyed by
    ray sets, and a fold is scalar bookkeeping.  Let mult σ be the index of
    the lattice spanned by the rays of a face σ in its saturation (1 for the
    empty face).  For a face τ = ρ ∪ {ρ′}, the primitive lift u of L_τ/L_ρ
    toward τ is (mult ρ / mult τ)·ρ′ modulo span ρ, the toric intersection
    formula (Fulton–Sturmfels 1997, *Intersection theory on toric
    varieties*).  The hats of r on τ and on ρ agree on span ρ, and on τ the
    hat of r is 1 at r and 0 at the other rays, so the term w·(l_τ − l_ρ)·u
    of τ at ρ is w·(mult ρ / mult τ)·([ρ′ = r] − l_ρ·ρ′), balanced or not.
    """

    def __init__(self, simplices: Sequence):
        self.simplices = [tuple(s) for s in simplices]
        self._inverse = {}    # simplex -> (M, d): its hat covectors are M/d
        self._mult = {}       # face frozenset -> multiplicity
        self._face_home = {}  # face frozenset -> a simplex containing it
        self._ray_index = {}  # ray -> set of simplex positions
        for i, s in enumerate(self.simplices):
            for r in s:
                self._ray_index.setdefault(r, set()).add(i)

    def initial_state(self, t_fan: WeightedFan) -> dict:
        """T as a cycle on the fan: its weight on every dim-T face.

        The fan refines T, so the ray sum of a face lies inside a cone of T
        exactly when the whole face does.
        """
        state = {}
        for s in self.simplices:
            for face in map(frozenset, combinations(s, t_fan.dim)):
                if face not in state:
                    state[face] = t_fan.weight_of_point(tuple(map(sum, zip(*face))))
        return {face: w for face, w in state.items() if w != 0}

    def _home(self, face: frozenset) -> tuple:
        """The first simplex containing a nonempty face of the fan."""
        if face not in self._face_home:
            common = set.intersection(*(self._ray_index[r] for r in face))
            self._face_home[face] = self.simplices[min(common)]
        return self._face_home[face]

    def _multiplicity(self, face: frozenset) -> int:
        m = self._mult.get(face)
        if m is None:
            m = self._mult[face] = sublattice_index(list(face))
        return m

    def _hat(self, face: frozenset, r) -> tuple:
        """(row, d): the hat of r ∈ face is row/d on the span of the face."""
        s = self._home(face)
        inv = self._inverse.get(s)
        if inv is None:
            inv = self._inverse[s] = inverse_rows(list(zip(*s)))
        return inv[0][s.index(r)], inv[1]

    def fold(self, state: dict, r) -> dict:
        """Corner locus of (hat of r)·(cycle given by state).

        Only faces through r contribute: the hat vanishes on the others.
        """
        sums = {}
        for face, w in state.items():
            if r not in face:
                continue
            m = self._multiplicity(face)
            if m != 1:
                w = Fraction(w, m)
            for apex in face:
                wall = face - {apex}
                k = 1 if apex == r else -dot(self._hat(wall, r)[0], apex)
                if k:
                    sums[wall] = sums.get(wall, 0) + w * k
        out = {}
        for wall, total in sums.items():
            if total:
                den = self._hat(wall, r)[1] if r in wall else 1
                out[wall] = _exact(total * self._multiplicity(wall), den)
        return out


def _exact(num, den: int = 1):
    """num/den as an int when it is integral, else as a Fraction."""
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def pp_iterated_number(f: PPFunction, t_fan: WeightedFan):
    """The rational number δ^N(F·T)/N! for N = deg F = dim T.

    Expands F into hat-function products over one simplicial fan and folds
    each product combinatorially on that fan with ``_FanEngine``, sharing
    work across common prefixes.  When T is a multiple of the whole space
    and every cell of F is pointed, the fan is the pull triangulation of the
    cells, and each simplex takes the polynomial of the cell it came from;
    otherwise it is ``simplicial_refinement`` of the cells together with the
    cones of T, so T may be any weighted fan of dimension deg F, and each
    simplex takes the polynomial of the cell that contains its ray sum.
    Inconsistent piece data is detected during the expansion and raises
    NotContinuous.
    """
    if f.degree != t_fan.dim:
        raise ValueError("degree of F must equal the dimension of the fan")
    n = f.ambient
    if f.degree == 0:
        c = f.cells[0][1].eval((0,) * n) if f.cells else 0
        return c * t_fan.weight_of_point((0,) * n)
    cells = [c for c, _ in f.cells]
    if all(len(c.lineality) == n for c, _ in t_fan.cones) and \
            not any(c.lineality for c in cells):
        simplices = triangulate_complete_fan(cells, n)
        pieces = [(s, f.cells[i][1]) for s, i in simplices.items()]
    else:
        simplices = simplicial_refinement(cells + [c for c, _ in t_fan.cones], n)
        pieces = [(s, _piece_at(f, s)) for s in simplices]
    coeffs = _multiset_coefficients(f.degree, pieces)
    engine = _FanEngine(simplices)
    states = {(): engine.initial_state(t_fan)}

    def state_for(prefix: tuple) -> dict:
        if prefix not in states:
            parent = state_for(prefix[:-1])
            states[prefix] = engine.fold(parent, prefix[-1]) if parent else {}
        return states[prefix]

    total = 0
    for key, c in coeffs.items():
        if c == 0:
            continue
        total += c * state_for(key).get(frozenset(), 0)
    return _exact(total)
