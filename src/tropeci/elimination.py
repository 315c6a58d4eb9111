"""Eliminant polytopes of complete intersections in a split torus.

The ambient lattice splits into ``eliminated`` coordinates and ``kept``
coordinates.  A complete intersection of codimension ``eliminated + 1``
projects to a hypersurface in the kept torus — its eliminant — and this
module computes the eliminant's Newton polytope from tropical data, two
independent ways:

* **projection**: push the last intersection cycle forward along the
  coordinate projection and reconstruct the dual polytope from the image
  divisor;
* **shadow**: for one kept direction ``v`` at a time, restrict the defining
  functions to the subspace spanned by the eliminated coordinates and ``v``
  and read off a single support value as a mixed corner-locus number.  The
  restricted functions are the threshold functions of the image MCI, whose
  points are (p_elim, v·p_kept); one region walk of that MCI gives all of
  them on one joint cell list.

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
from .linalg import dot, int_vector, solve
from .mci import MCI, TCI, SupportMultiset, _joint_threshold_cells, tci_from_mci
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


def _unit_fan(dim: int) -> WeightedFan:
    return WeightedFan(dim, [(full_space(dim), 1)])


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
    return _shadow(amb, [_one_factor(m) for m in ms],
                   [_one_factor(pullback_linear(m, flat)) for m in ms])


def _one_factor(m: PLFunction) -> list:
    return [(cone, (l,)) for cone, l in m.cells]


def _shadow(amb: int, factors: Sequence[list], zeros: Sequence[list]) -> PPFunction:
    """``shadow_function`` from cell lists whose cells carry covector tuples.

    The cell lists of ``factors`` carry the covectors of the mᵢ(x, t), those
    of ``zeros`` the covectors of the mᵢ(x, 0), each list one or more of
    the factors; the upper half-space is cut by all of them, the lower one
    by ``factors`` alone.
    """
    e_t = (0,) * (amb - 1) + (1,)
    cells = []
    upper = [(Cone(amb, ineqs=[e_t]), None)]
    k = len(factors)
    for cone, _, ls in common_refinement(upper, [*factors, *zeros], amb):
        cells.append((cone, Poly.linear_product(amb, [l for t in ls[:k] for l in t])
                      - Poly.linear_product(amb, [l for t in ls[k:] for l in t])))
    neg = tuple(-x for x in e_t)
    lower = [(Cone(amb, ineqs=[neg]), None)]
    for cone, _, _ in common_refinement(lower, factors, amb):
        cells.append((cone, Poly(amb, {})))
    return PPFunction(amb, amb, cells)


def _shadow_number(shadow: PPFunction):
    try:
        return pp_iterated_number(shadow, _unit_fan(shadow.ambient))
    except NotContinuous as e:  # pragma: no cover - guarded by construction
        raise InternalError(f"shadow assembly is discontinuous: {e}") from e


def mixed_shadow_volume(ms: Sequence[PLFunction]):
    """Mixed corner-locus number of the gated product difference of ms.

    For support functions of polytopes P₁, …, P_{d} on ℝ^{d-1} × ℝ this is
    the normalized mixed volume of the lifted family, i.e. one support value
    of an eliminant polytope.  Returns an exact rational (an int when the
    value is integral).
    """
    return _shadow_number(shadow_function(ms))


def eliminant_support_value(tci: TCI, v: Sequence[int]):
    """Support value of the eliminant polytope at a primitive kept direction.

    The ambient space of ``tci`` must split as eliminated ⊕ kept coordinates
    with the kept block last and of length ``len(v)``; the intersection must
    have codimension (number of eliminated coordinates) + 1.  The defining
    functions are restricted to the subspace spanned by the eliminated
    coordinates and the ray through ``v`` — a saturated sublattice, since
    ``v`` is primitive — and the restricted system's mixed corner-locus
    number is the requested value.  The restrictions are read from the
    chain's MCI (see ``_support_values``), so a chain built by hand, which
    has none, raises MissingMCI.
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


def _image_mci(mci: MCI, n: int, v: Sequence[int]) -> MCI:
    """The MCI of the points (p_elim, v·p_kept) ∈ ℤⁿ⁺¹, same matroid and codim.

    ``tci_threshold`` reads l·p and (x, t·v)·p = (x, t)·(p_elim, v·p_kept),
    so its k-th threshold function is the k-th one of ``mci`` pulled back
    along (x, t) ↦ (x, t·v).  The loops that ``MCI`` dropped from the
    support are still in the matroid's ground; they get the origin as a
    point and are dropped again.
    """
    points = [(i, p[:n] + (dot(v, p[n:]),)) for i, p in mci.support.points]
    points += [(i, (0,) * (n + 1)) for i in mci.loops]
    return MCI(SupportMultiset(points), mci.matroid, mci.codim)


def _support_values(mci: MCI, vs: Sequence[tuple], n: int):
    """``eliminant_support_value`` at checked directions with n eliminated
    coordinates.

    For each direction v one region walk of the image MCI at v gives the
    restricted factors mᵢ(x, t) on one joint cell list; the factors
    mᵢ(x, 0) are the image MCI at v = 0, walked once for all directions.
    """
    zeros = _joint_threshold_cells(_image_mci(mci, n, (0,) * (mci.ambient - n)))
    for v in vs:
        factors = _joint_threshold_cells(_image_mci(mci, n, v))
        yield _shadow_number(_shadow(n + 1, [factors], [zeros]))


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
