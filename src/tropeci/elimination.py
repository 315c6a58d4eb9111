"""Eliminant polytopes of complete intersections in a split torus.

The ambient lattice splits into ``eliminated`` coordinates and ``kept``
coordinates.  A complete intersection of codimension ``eliminated + 1``
projects to a hypersurface in the kept torus — its eliminant — and this
module computes the eliminant's Newton polytope from tropical data, two
independent ways:

* **projection**: push the last intersection cycle forward along the
  coordinate projection and reconstruct the dual polytope from the image
  divisor;
* **shadow**: for one kept direction ``v`` at a time, read off a single
  support value as a BKK number.  The restricted system lives on the
  eliminated coordinates and the ray through ``v``; adding a parallel copy
  of each point far below it, at height −C, makes it a full-codimension MCI
  whose BKK number is affine in C with the support value as its constant
  term (``_support_values``).  So each value is one threshold chain in
  ℤⁿ⁺¹, less C times one slope chain shared by all directions.

The projection route is the system of record; the shadow route recomputes
individual support values and is used to cross-check the result vector by
vector.  The two routes anchor the polytope at different translates, so
agreement is checked modulo a global translation.  The projection route is
tropical elimination (Sturmfels–Tevelev 2008, *Elimination theory for
tropical varieties*); the eliminant's Newton polytope as a mixed fiber
polytope, read off one support value at a time, is Esterov–Khovanskii 2008
(*Elimination theory and Newton polytopes*).
"""

from math import gcd
from typing import Sequence

from .cones import Cone, common_refinement, full_space
from .fans import WeightedFan, pushforward
from .linalg import dot, int_vector, solve, vneg
from .mci import MCI, TCI, Matroid, SupportMultiset, bkk_number, tci_from_mci
from .plfunc import (PLFunction, pl_from_polytope, pullback_linear,
                     reconstruct_polytope)
from .polytopes import LatticePolytope
from .ppfunc import NotContinuous, Poly, PPFunction, pp_iterated_number


class InternalError(RuntimeError):
    """A cross-check that should be unconditionally true failed."""


class NotPrimitive(ValueError):
    """Support values are only defined at primitive lattice directions."""


class DegenerateEliminant(ValueError):
    """The intersection collapsed before reaching the expected codimension."""


class MissingMCI(ValueError):
    """The shadow route needs the MCI a threshold chain was built from."""


class ProjectionSplit:
    """Coordinate split ℝ^total = ℝ^eliminated × ℝ^kept (in that order)."""

    __slots__ = ("eliminated", "kept")

    def __init__(self, eliminated: int, kept: int):
        if eliminated < 0:
            raise ValueError("eliminated coordinate count must be >= 0")
        if kept < 1:
            raise ValueError("at least one coordinate must be kept")
        self.eliminated = eliminated
        self.kept = kept

    @property
    def total_dim(self) -> int:
        return self.eliminated + self.kept

    def __repr__(self):
        return f"ProjectionSplit(eliminated={self.eliminated}, kept={self.kept})"


class EliminantResult:
    """Eliminant Newton polytope together with the evidence for it.

    ``support_values`` records the support function of ``polytope`` at every
    ray of its normal fan.  ``route`` is "projection" when only the
    pushforward was computed and "both" when every recorded value was also
    recovered through the shadow construction (modulo one global translation).
    """

    __slots__ = ("polytope", "support_values", "route")

    def __init__(self, polytope: LatticePolytope, support_values: dict,
                 route: str):
        self.polytope = polytope
        self.support_values = dict(support_values)
        self.route = route

    def __repr__(self):
        return (f"EliminantResult(vertices={self.polytope.vertices}, "
                f"route={self.route!r})")


def shadow_function(ms: Sequence[PLFunction]) -> PPFunction:
    """Gated product difference ∏ mᵢ(x, t) − ∏ mᵢ(x, 0) on t ≥ 0, zero on t ≤ 0.

    The last coordinate of the common ambient space plays the role of t.
    Continuity across t = 0 holds by construction, which is why the piece
    count of the result is the only thing the inputs influence.
    """
    if not ms:
        raise ValueError("need at least one function")
    amb = ms[0].ambient
    if any(m.ambient != amb for m in ms):
        raise ValueError("ambient mismatch among the factors")
    if len(ms) != amb:
        raise ValueError(
            f"need {amb} factors on a {amb}-dimensional space, got {len(ms)}")
    # mᵢ(x, 0) as a function of (x, t): compose with (x, t) ↦ (x, 0).
    flat = [tuple(int(i == j) for j in range(amb)) for i in range(amb - 1)] \
        + [(0,) * amb]
    zeros = [pullback_linear(m, flat) for m in ms]
    e_t = (0,) * (amb - 1) + (1,)
    upper = [(Cone(amb, ineqs=[e_t]), None)]
    cells = [(cone, Poly.linear_product(amb, ls[:amb]) - Poly.linear_product(amb, ls[amb:]))
             for cone, _, ls in common_refinement(
                 upper, [m.cells for m in [*ms, *zeros]], amb)]
    lower = [(Cone(amb, ineqs=[vneg(e_t)]), None)]
    cells += [(cone, Poly(amb, {}))
              for cone, _, _ in common_refinement(lower, [m.cells for m in ms], amb)]
    return PPFunction(amb, amb, cells)


def mixed_shadow_volume(ms: Sequence[PLFunction]):
    """Mixed corner-locus number of the gated product difference of ms.

    For support functions of polytopes P₁, …, P_{d} on ℝ^{d-1} × ℝ this is
    the normalized mixed volume of the lifted family, i.e. one support value
    of an eliminant polytope.  Returns an exact rational (an int when the
    value is integral).
    """
    shadow = shadow_function(ms)
    amb = shadow.ambient
    try:
        return pp_iterated_number(shadow, WeightedFan(amb, [(full_space(amb), 1)]))
    except NotContinuous as e:  # pragma: no cover - guarded by construction
        raise InternalError(f"shadow assembly is discontinuous: {e}") from e


def eliminant_support_value(tci: TCI, v: Sequence[int]):
    """Support value of the eliminant polytope at a primitive kept direction.

    The ambient space of ``tci`` must split as eliminated ⊕ kept coordinates
    with the kept block last and of length ``len(v)``; the intersection must
    have codimension (number of eliminated coordinates) + 1.  The value is
    the mixed corner-locus number of the defining functions restricted to
    the subspace spanned by the eliminated coordinates and the ray through
    ``v`` (a saturated sublattice, since ``v`` is primitive), read off the
    BKK numbers of two MCIs shifted from the chain's MCI (see
    ``_support_values``).  So a chain built by hand, which has none, raises
    MissingMCI.
    """
    v = int_vector(v)
    if not v or gcd(*v) != 1:
        raise NotPrimitive(f"direction {v} is not primitive")
    n = tci.fans[0].ambient - len(v)
    if n < 0:
        raise ValueError("direction longer than the ambient dimension")
    if tci.codim != n + 1:
        raise ValueError(
            f"codimension {tci.codim} does not match {n} eliminated coordinates")
    if tci.collapsed_at is not None:
        raise DegenerateEliminant(
            f"intersection collapsed after step {tci.collapsed_at}")
    if tci.mci is None:
        raise MissingMCI("the chain carries no MCI; build it with tci_from_mci")
    return next(_support_values(tci.mci, [v], n))


def _support_values(mci: MCI, vs: Sequence[tuple], n: int):
    """``eliminant_support_value`` at checked directions with n eliminated
    coordinates, each read off a BKK number.

    For a direction v let C = 1 + max |v·p_kept| over the points.  The
    shifted MCI in ℤⁿ⁺¹ (:func:`_shifted_mci`) puts each point at
    (p_elim, v·p_kept) and a parallel copy of it at (p_elim, −C).  For a
    classical system its blocks are Q_i = conv(P_i^v ∪ (πP_i − C·e_t)), and
    the choice of C splits their support functions at t = 0: on t ≥ 0 the
    copies lie below every point, so h_{Q_i}(x, t) = mᵢ(x, t), and on t ≤ 0
    above, so h_{Q_i}(x, t) = mᵢ(x, 0) − C·t.  The product of the h_{Q_i} is
    therefore the gated product difference ∏ mᵢ(x, t) − ∏ mᵢ(x, 0) on t ≥ 0
    (``shadow_function``) plus the product of the support functions of the
    prisms πP_i × [−C, 0].  The mixed volume of those prisms is C times that
    of the prisms of height 1, the shifted MCI at v = 0 and C = 1, which
    does not depend on v and is counted once.  So MV(Q_0, …, Q_n) is affine
    in C, and its constant term, the mixed volume of the upper shadows, is
    the support value (Esterov–Khovanskii 2008, *Elimination theory and
    Newton polytopes*; McMullen 2004, *Mixed fibre polytopes*).  On a
    generic matroid the copies split the threshold functions the same way,
    since a copy is parallel to its point and lies on the other side of it;
    that the BKK number then gives the shadow's number is checked by
    property against the shadow of the pulled-back functions, not derived.
    """
    zero = (0,) * (mci.ambient - n)
    matroid = Matroid([(i, s) for i in mci.support.ids() for s in (0, 1)],
                      lambda ids: mci.matroid.rank({i for i, _ in ids}))
    slope = bkk_number(tci_from_mci(_shifted_mci(mci, matroid, n, zero, 1)))
    for v in vs:
        c = 1 + max(abs(dot(v, p[n:])) for _, p in mci.support.points)
        yield bkk_number(tci_from_mci(_shifted_mci(mci, matroid, n, v, c))) - c * slope


def _shifted_mci(mci: MCI, matroid: Matroid, n: int, v: Sequence[int], c: int) -> MCI:
    """The MCI in ℤⁿ⁺¹ of the points (p_elim, v·p_kept) and copies (p_elim, −c).

    Point i of ``mci`` gets the id (i, 0) and its copy the id (i, 1).
    ``matroid`` is the rank of ``mci`` with each id mapped back to its
    original, shared by every direction so that all share one rank cache.
    The loops, which no greedy selection picks, are left out.
    """
    points = [((i, 0), p[:n] + (dot(v, p[n:]),)) for i, p in mci.support.points]
    points += [((i, 1), p[:n] + (-c,)) for i, p in mci.support.points]
    return MCI(SupportMultiset(points), matroid, mci.codim)


def tropical_eliminant(t_last: WeightedFan,
                       split: ProjectionSplit) -> tuple:
    """Support function and polytope of the projected intersection cycle.

    ``t_last`` is a cycle of dimension ``split.kept - 1`` in ℝ^total;
    dropping the eliminated coordinates turns it into a divisor on ℝ^kept
    whose dual polytope is returned (translated so its lexicographically
    smallest vertex is the origin).  A cycle projecting to nothing yields
    the origin as a point polytope.
    """
    if t_last.ambient != split.total_dim:
        raise ValueError(
            f"cycle lives in dimension {t_last.ambient}, split covers "
            f"{split.total_dim}")
    point = LatticePolytope([(0,) * split.kept])
    if t_last.is_zero():
        return pl_from_polytope(point), point
    keep_rows = [tuple(1 if j == split.eliminated + i else 0
                       for j in range(split.total_dim))
                 for i in range(split.kept)]
    divisor = pushforward(t_last, keep_rows)
    if divisor.is_zero():
        return pl_from_polytope(point), point
    poly = reconstruct_polytope(divisor)
    return pl_from_polytope(poly), poly


def eliminant_polytope(mci: MCI, split: ProjectionSplit,
                       verify_shadow: bool = False) -> EliminantResult:
    """Newton polytope of the eliminant of a matroidal complete intersection.

    The polytope comes from the projection route.  With ``verify_shadow``
    every support value at a normal-fan ray is recomputed through the shadow
    route; since that route anchors a specific translate of the polytope
    while the reconstruction normalizes translation, the check is that the
    two value vectors differ by one global linear functional.  Any other
    discrepancy raises InternalError.
    """
    if mci.ambient != split.total_dim:
        raise ValueError(
            f"support lives in dimension {mci.ambient}, split covers "
            f"{split.total_dim}")
    if mci.codim != split.eliminated + 1:
        raise ValueError(
            f"codimension {mci.codim} does not match "
            f"{split.eliminated} eliminated coordinates")
    tci = tci_from_mci(mci)
    if tci.collapsed_at is not None:
        raise DegenerateEliminant(
            f"intersection collapsed after step {tci.collapsed_at}")
    _, poly = tropical_eliminant(tci.fans[-1], split)

    rays = sorted({r for cone, _ in poly.normal_fan() for r in cone.rays})
    support_values = {r: poly.support(r) for r in rays}
    route = "projection"
    if verify_shadow:
        values = _support_values(mci, rays, split.eliminated)
        diffs = [x - support_values[r] for r, x in zip(rays, values)]
        if rays and solve([list(r) for r in rays], diffs) is None:
            raise InternalError(
                "shadow support values do not match the projected polytope "
                "up to translation")
        route = "both"
    return EliminantResult(poly, support_values, route)
