"""Piecewise-polynomial functions, their corner loci, and degree extraction.

Two levels live here.  The single-step corner locus of a piecewise
polynomial against a polynomially weighted fan implements the directional
derivative defect wall by wall.  The number δ^N(F·T)/N! for deg F = dim T is
computed by a different and more robust route: F is expanded over a
simplicial refinement into products of Courant hat functions (the piecewise
linear barycentric coordinates of the rays), and each product of hats is
folded through the ordinary piecewise-linear corner locus.  The two routes
agree on products of PL functions, which is what pins the semantics.  Both
cut cells with ``cones.common_refinement`` and find walls with
``fans.group_walls``; only the wall arithmetic is separate (polynomials
here, covectors in ``plfunc``), and that is what the agreement checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .cones import Cone, chamber_complex, common_refinement, overlaps
from .fans import NotBalanced, WeightedFan, group_walls, wall_lift
from .linalg import dot, inverse_rows, kernel_basis, sign_normalized, solve, vadd, vscale
from .plfunc import PLFunction, corner_locus


class NotContinuous(ValueError):
    pass


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
        terms = {}
        for i, c in enumerate(covector):
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

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

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == Poly.const(self.nvars, other).terms

    def eval(self, x):
        total = 0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(x, e):
                for _ in range(ei):
                    v = v * xi
            total += v
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
        out = Poly(self.nvars, {})
        for i, ui in enumerate(u):
            if ui != 0:
                out = out + self.partial(i) * ui
        return out

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
        cols = list(zip(*basis_rows))
        return self.compose(cols)

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
        cells = self.cells
        for i, j, inter in overlaps([c for c, _ in cells]):
            diff = cells[i][1] - cells[j][1]
            if not diff.restrict(inter.span_rows()).is_zero():
                return False
        return True

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
        p = Poly.const(n, 1)
        for l in [l0] + ls:
            p = p * Poly.linear(l)
        cells.append((cone, p))
    return PPFunction(n, len(ms), cells)


def _to_poly_weight(w, nvars):
    return w if isinstance(w, Poly) else Poly.const(nvars, w)


def pp_corner_locus(f: PPFunction, t_fan: WeightedFan, check: bool = True) -> WeightedFan:
    """One corner-locus step of a PP function against a weighted fan.

    Weights of the result are polynomials: on a wall σ with incident refined
    cones τ_j, the weight is Σ_j w_j·D_{ũ_j}F_{τ_j} − D_v F_σ with
    v = Σ_j w_j·ũ_j.  Walls whose weight vanishes on their span are dropped.
    """
    n = f.ambient
    if check and not f.check_continuity():
        raise NotContinuous("pieces disagree on a shared face")
    seed = [(sigma, _to_poly_weight(w, n)) for sigma, w in t_fan.cones]
    pieces = [(piece, w, p) for piece, w, (p,) in
              common_refinement(seed, [f.cells], t_fan.dim)]
    walls = []
    for wall, incident in group_walls(pieces).values():
        span = wall.span_rows()
        v_polys = [Poly(n, {}) for _ in range(n)]
        defect = Poly(n, {})
        for cone, w, p in incident:
            u = wall_lift(wall, cone)
            defect = defect + w * p.dir_deriv(u)
            for i, ui in enumerate(u):
                if ui:
                    v_polys[i] = v_polys[i] + ui * w
        if check:
            # polynomial balancing: v must stay inside the wall's span
            for psi in kernel_basis([list(r) for r in span], n):
                comp = Poly(n, {})
                for i, ci in enumerate(psi):
                    if ci:
                        comp = comp + ci * v_polys[i]
                if not comp.restrict(span).is_zero():
                    raise NotBalanced("weighted lifts leave the wall span")
        f_wall = incident[0][2]
        defect = defect - f_wall.dir_deriv_poly(v_polys)
        if defect.restrict(span).is_zero():
            continue
        walls.append((wall, defect))
    return WeightedFan(n, walls, dim=t_fan.dim - 1)


# -- simplicial refinement and Courant decomposition -------------------------


def simplicial_refinement(cones: Sequence[Cone], ambient: int) -> list:
    """Complete simplicial fan refining the given complete set of cones.

    The arrangement of all facet hyperplanes (plus the coordinate hyperplanes,
    which make every chamber pointed) is triangulated by pulling rays in a
    global lexicographic order, so neighbouring chambers triangulate their
    shared faces identically.  Returns full-dimensional simplices as sorted
    ray tuples.
    """
    normals = set()
    for i in range(ambient):
        e = [0] * ambient
        e[i] = 1
        normals.add(tuple(e))
    for cone in cones:
        for a in cone.ineqs:
            normals.add(sign_normalized(a))
    chambers = chamber_complex(sorted(normals), ambient)
    memo = {}
    out = []
    for ch in chambers:
        if ch.lin:
            raise AssertionError("chamber unexpectedly has lineality")
        out.extend(_pull_triangulate(ch.cone(ambient), memo))
    return out


def _pull_triangulate(cone: Cone, memo: dict) -> list:
    key = cone.key()
    if key in memo:
        return memo[key]
    rays = cone.rays
    if len(rays) == cone.dim:
        memo[key] = [tuple(sorted(rays))]
        return memo[key]
    r0 = min(rays)
    out = []
    for facet in cone.facets():
        if r0 in facet.rays:
            continue
        for simplex in _pull_triangulate(facet, memo):
            out.append(tuple(sorted(simplex + (r0,))))
    memo[key] = out
    return out


def courant_hats(simplices: Sequence, ambient: int) -> dict:
    """Barycentric hat function of every ray of a complete simplicial fan."""
    rays = sorted({r for s in simplices for r in s})
    cones = [Cone(ambient, rays=list(s), _trusted=True) for s in simplices]
    hats = {}
    for r in rays:
        cells = []
        for s, cone in zip(simplices, cones):
            if r in s:
                idx = s.index(r)
                rhs = tuple(1 if i == idx else 0 for i in range(len(s)))
                cov = solve([list(x) for x in s], rhs)
                if cov is None:
                    raise AssertionError("degenerate simplex")
                cells.append((cone, cov))
            else:
                cells.append((cone, (0,) * ambient))
        hats[r] = PLFunction(ambient, cells)
    return hats


def triangulate_complete_fan(cells: Sequence[Cone], ambient: int) -> list:
    """Pull-triangulation of a complete face-to-face fan with pointed cones.

    Shared faces are triangulated identically because the recursion picks the
    lexicographically smallest ray of each cone and is memoized per face.
    Returns full-dimensional simplices as sorted ray tuples.
    """
    memo = {}
    seen = set()
    out = []
    for cone in cells:
        if cone.lineality:
            raise ValueError("cells must be pointed")
        for s in _pull_triangulate(cone, memo):
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def _multiset_coefficients(f: PPFunction, simplices: Sequence) -> dict:
    """Coefficients of F in the basis of hat-function products.

    Keys are sorted ray tuples with multiplicity (|key| = deg F).  A clash
    between the expansions of two simplices sharing a face is exactly a
    discontinuity of F across that face, so this doubles as the continuity
    check of the piecewise data.
    """
    n = f.ambient
    coeffs = {}
    for s in simplices:
        p = None
        probe = tuple(map(sum, zip(*s)))
        for cone, poly in f.cells:
            if cone.contains(probe):
                p = poly
                break
        if p is None:
            raise ValueError("refinement left the domain of F")
        # barycentric expansion: x = Σ t_i·r_i.  Absent monomials count as
        # explicit zeros — a zero-vs-nonzero clash is a discontinuity too.
        cols = [tuple(r[j] for r in s) for j in range(n)]
        local = p.compose(cols)
        for combo in combinations_with_replacement(range(len(s)), f.degree):
            exp = [0] * len(s)
            for i in combo:
                exp[i] += 1
            c = local.terms.get(tuple(exp), 0)
            key = tuple(sorted(s[i] for i in combo))
            if key in coeffs:
                if coeffs[key] != c:
                    raise NotContinuous(
                        "inconsistent coefficients on a shared face")
            else:
                coeffs[key] = c
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
    return _multiset_coefficients(f, simplices), hats


class _FanEngine:
    """Combinatorial corner-locus folds over one fixed simplicial fan.

    Every intermediate cycle in an iterated hat-product evaluation is
    supported on faces of the starting fan, and a hat is a barycentric
    coordinate there; so cycles can be stored as weight dictionaries keyed by
    ray sets, and one fold is pure dictionary bookkeeping — no cone
    conversions at all.  Quotient lifts and barycentric covectors are
    memoized across folds.
    """

    def __init__(self, simplices: Sequence, ambient: int):
        self.ambient = ambient
        self.simplices = [tuple(s) for s in simplices]
        self._bary = {}       # simplex -> list of covector rows (Fractions)
        self._lift = {}       # (wall frozenset, apex ray) -> primitive lift
        self._face_home = {}  # face frozenset -> a simplex containing it
        self._ray_index = {}  # ray -> set of simplex positions
        self._zero = (0,) * ambient
        for i, s in enumerate(self.simplices):
            for r in s:
                self._ray_index.setdefault(r, set()).add(i)

    def initial_state(self, weight) -> dict:
        return {frozenset(s): weight for s in self.simplices}

    def _home(self, face: frozenset) -> tuple:
        if face not in self._face_home:
            it = iter(face)
            common = set(self._ray_index[next(it)])
            for r in it:
                common &= self._ray_index[r]
            if not common:
                raise AssertionError("face does not sit in any simplex")
            self._face_home[face] = self.simplices[min(common)]
        return self._face_home[face]

    def covector_on(self, face: frozenset, r) -> tuple:
        """Ambient covector of the hat of r, valid on the span of the face."""
        if r not in face:
            return self._zero
        s = self._home(face)
        if s not in self._bary:
            mat, den = inverse_rows(list(zip(*s)))
            self._bary[s] = [tuple(Fraction(x, den) for x in row) for row in mat]
        return self._bary[s][s.index(r)]

    def lift(self, wall: frozenset, apex) -> tuple:
        key = (wall, apex)
        if key not in self._lift:
            w_cone = Cone(self.ambient, rays=list(wall), _trusted=True)
            f_cone = Cone(self.ambient, rays=list(wall) + [apex], _trusted=True)
            self._lift[key] = wall_lift(w_cone, f_cone)
        return self._lift[key]

    def fold(self, state: dict, r) -> dict:
        """Corner locus of (hat of r)·(cycle given by state)."""
        groups = {}
        zero = self._zero
        for face, w in state.items():
            l_face = self.covector_on(face, r)
            for rho in face:
                wall = face - {rho}
                u = self.lift(wall, rho)
                g = groups.get(wall)
                if g is None:
                    groups[wall] = g = [0, zero]
                if l_face is not zero:
                    g[0] += w * dot(l_face, u)
                g[1] = vadd(g[1], vscale(w, u))
        out = {}
        for wall, (defect, flux) in groups.items():
            l_wall = self.covector_on(wall, r)
            weight = defect - dot(l_wall, flux)
            if weight != 0:
                out[wall] = weight
        return out


def _is_full_space_multiple(t_fan: WeightedFan):
    """The weight when the fan is w·ℝⁿ, else None."""
    if len(t_fan.cones) != 1:
        return None
    cone, w = t_fan.cones[0]
    if len(cone.lineality) == t_fan.ambient:
        return w
    return None


def pp_iterated_number(f: PPFunction, t_fan: WeightedFan):
    """The rational number δ^N(F·T)/N! for N = deg F = dim T.

    Expands F into hat-function products and folds each product through the
    corner locus, sharing work across common prefixes.  Inconsistent piece
    data is detected during the expansion and raises NotContinuous.  When T
    is a multiple of the whole space and every cell of F is pointed, the
    folds run on the combinatorial fast path; otherwise they fall back to
    generic cone arithmetic.
    """
    if f.degree != t_fan.dim:
        raise ValueError("degree of F must equal the dimension of the fan")
    if f.degree == 0:
        c = f.cells[0][1].eval((0,) * f.ambient) if f.cells else 0
        return c * t_fan.weight_of_point((0,) * f.ambient)
    origin = (0,) * f.ambient
    full_weight = _is_full_space_multiple(t_fan)
    if full_weight is not None and all(not c.lineality for c, _ in f.cells):
        simplices = triangulate_complete_fan([c for c, _ in f.cells], f.ambient)
        coeffs = _multiset_coefficients(f, simplices)
        engine = _FanEngine(simplices, f.ambient)
        states = {(): engine.initial_state(full_weight)}

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
    else:
        coeffs, hats = courant_decomposition(f)
        prefix_fans = {(): t_fan}

        def fan_for(prefix: tuple) -> WeightedFan:
            if prefix not in prefix_fans:
                parent = fan_for(prefix[:-1])
                if parent.is_zero():
                    out = parent
                else:
                    out = corner_locus(hats[prefix[-1]], parent, check=False)
                prefix_fans[prefix] = out
            return prefix_fans[prefix]

        total = 0
        for key, c in coeffs.items():
            if c == 0:
                continue
            total += c * fan_for(key).weight_of_point(origin)
    if isinstance(total, Fraction) and total.denominator == 1:
        total = total.numerator
    return total
