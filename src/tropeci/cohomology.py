"""Cycle pairings on weighted fans and their positivity consequences.

A cycle on a balanced fan T is witnessed by a list of piecewise-linear
factors; folding them through the corner locus evaluates the cycle, and
complementary-codimension lists pair to the weight at the origin.  On top of
that single pairing sit the signature of a Gram matrix of curve classes, the
two-class quadratic inequality, certificates that a chain's last stage cuts
an irreducible piece, the vanishing/connectedness test for complementary
fan pairs, and the exact classification of incident line families in
projective 3-space.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import Sequence

from .fans import (NotComplementary, WeightedFan, fans_equal,
                   stable_intersection_number, support_connected_off_origin)
from .linalg import canonical_span_rows, dot, in_span, int_vector, kernel_basis, \
    rank, rational_primitive
from .mci import TCI
from .plfunc import PLFunction, corner_locus, iterated_corner_locus, refine_with_function


class MissingWitness(ValueError):
    pass


class NotInteresting(ValueError):
    pass


CERTIFIED = "certified_irreducible"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# cycles and their pairings

class CycleWitness:
    """A cycle on a base fan, presented as corner-locus factors.

    ``powers`` repeats factors without storing duplicates; the codimension of
    the witnessed cycle is the total number of folds.
    """

    __slots__ = ("base_fan", "factors", "powers")

    def __init__(self, base_fan: WeightedFan, factors: Sequence[PLFunction],
                 powers: Sequence[int] | None = None):
        self.base_fan = base_fan
        self.factors = list(factors)
        for m in self.factors:
            if m.ambient != base_fan.ambient:
                raise ValueError("factor ambient differs from the base fan")
        if powers is None:
            powers = [1] * len(self.factors)
        self.powers = int_vector(powers)
        if len(self.powers) != len(self.factors):
            raise ValueError("one power per factor expected")
        if any(p < 0 for p in self.powers):
            raise ValueError("powers must be nonnegative")

    @property
    def codim(self) -> int:
        return sum(self.powers)

    def flat_factors(self) -> list:
        out = []
        for m, p in zip(self.factors, self.powers):
            out.extend([m] * p)
        return out

    def __repr__(self):
        return f"CycleWitness(codim={self.codim}, " \
               f"base dim={self.base_fan.dim})"


def cycle_evaluate(w: CycleWitness) -> WeightedFan:
    """Fold the witness factors through the corner locus, one at a time.

    Corner loci commute, so the factor order never matters; an empty factor
    list returns the base fan itself.
    """
    flat = w.flat_factors()
    if len(flat) > w.base_fan.dim:
        raise ValueError(
            f"{len(flat)} factors exceed the fan dimension {w.base_fan.dim}")
    return iterated_corner_locus(flat, w.base_fan)


def _common_base(witnesses: Sequence[CycleWitness]) -> WeightedFan:
    base = witnesses[0].base_fan
    for w in witnesses[1:]:
        if w.base_fan is base:
            continue
        if w.base_fan.ambient != base.ambient or \
                not fans_equal(w.base_fan, base):
            raise ValueError("witnesses live on different base fans")
    return base


def _origin_weight(factors: Sequence[PLFunction], t_fan: WeightedFan) -> int:
    """Fold the factors through the corner locus; the weight at the origin."""
    return iterated_corner_locus(factors, t_fan).weight_of_point((0,) * t_fan.ambient)


def intersection_number(witnesses: Sequence[CycleWitness]) -> int:
    """Pair complementary cycles: weight at the origin of the total fold."""
    if not witnesses:
        raise ValueError("need at least one witness")
    base = _common_base(witnesses)
    total = sum(w.codim for w in witnesses)
    if total != base.dim:
        raise NotComplementary(
            f"codimensions sum to {total}, fan dimension is {base.dim}")
    flat = []
    for w in witnesses:
        flat.extend(w.flat_factors())
    return _origin_weight(flat, base)


def self_intersection(tci: TCI, j: int) -> int:
    """Pair the chain's last stage with itself j = n−k+1 times.

    The last function is folded j − 1 more times onto the chain's last fan,
    which holds each stage once; the weight at the origin is the
    self-pairing of the final stage inside the previous one.
    """
    if tci.collapsed_at is not None:
        raise ValueError("chain collapsed before its final stage")
    if not tci.functions:
        raise ValueError("chain has no stage functions")
    n, k = tci.ambient, tci.codim
    if j != n - k + 1:
        raise ValueError(f"power must be {n - k + 1} for this chain, got {j}")
    return _origin_weight([tci.functions[-1]] * (j - 1), tci.fans[-1])


# ---------------------------------------------------------------------------
# signature and the two-class inequality

def _congruence_signature(gram: Sequence[Sequence]) -> tuple:
    """Inertia of a symmetric rational matrix by fraction-free congruences.

    The matrix is scaled to integers by a positive common denominator; a
    pivot d = m[k][k] clears column k by row_i ← d·row_i − m[i][k]·row_k and
    the same step on column i.  Congruences keep the inertia (Sylvester).
    """
    den = lcm(*(Fraction(x).denominator for row in gram for x in row))
    m = [[int(x * den) for x in row] for row in gram]
    n = len(m)

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if m[i][j] != 0), None)
                if pair is None:
                    break  # the remaining block is zero
                i, j = pair
                m[i] = [x + y for x, y in zip(m[i], m[j])]
                for row in m:
                    row[i] = row[i] + row[j]
                if i != k:
                    swap(k, i)
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            a = m[i][k]
            if a == 0:
                continue
            m[i] = [d * x - a * y for x, y in zip(m[i], m[k])]
            for row in m:
                row[i] = d * row[i] - a * row[k]
    return pos, neg, n - pos - neg


def gram_signature(t_fan: WeightedFan, gens: Sequence[PLFunction]) -> tuple:
    """Inertia (n_plus, n_minus, n_zero) of the curve-class Gram matrix.

    Entry (i, j) pairs the corner loci of gens[i] and gens[j] on the
    two-dimensional fan.  Degenerate generator sets are fine — dependent
    classes surface in n_zero rather than as errors.
    """
    if t_fan.dim != 2:
        raise ValueError("Gram pairing needs a two-dimensional fan")
    k = len(gens)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = _origin_weight([gens[i], gens[j]], t_fan)
    return _congruence_signature(gram)


class AFReport:
    """Self- and cross-pairings of two curve classes plus the implied check.

    ``holds`` records whether a nonnegative first self-pairing forces the
    cross-pairing to dominate: first² ≥ 0 ⟹ mixed² ≥ first·second.
    """

    __slots__ = ("first_square", "second_square", "mixed", "holds")

    def __init__(self, first_square, second_square, mixed):
        self.first_square = first_square
        self.second_square = second_square
        self.mixed = mixed
        self.holds = first_square < 0 or \
            mixed * mixed >= first_square * second_square

    def __repr__(self):
        return f"AFReport(first={self.first_square}, " \
               f"second={self.second_square}, mixed={self.mixed}, " \
               f"holds={self.holds})"


def af_check(t_fan: WeightedFan, a1: PLFunction, a2: PLFunction) -> AFReport:
    """Quadratic comparison of two classes on a two-dimensional fan."""
    if t_fan.dim != 2:
        raise ValueError("the quadratic comparison needs a two-dimensional fan")
    return AFReport(_origin_weight([a1, a1], t_fan),
                    _origin_weight([a2, a2], t_fan),
                    _origin_weight([a1, a2], t_fan))


# ---------------------------------------------------------------------------
# irreducibility certificates

def _sign_on_support(m: PLFunction, fan: WeightedFan) -> tuple:
    """(nonnegative, positive_somewhere) for m on the support of the fan."""
    somewhere = False
    for piece, _, l in refine_with_function(fan, m):
        for v in piece.lineality:
            if dot(l, v) != 0:
                return False, somewhere
        for r in piece.rays:
            s = dot(l, r)
            if s < 0:
                return False, somewhere
            if s > 0:
                somewhere = True
    return True, somewhere


def irreducibility_certificate(tci: TCI, level: str,
                               g_witness: CycleWitness | None = None) -> str:
    """One-sided certificate that the chain's last stage cuts one piece.

    Three increasingly permissive checks on the last stage function m over
    the previous fan: (i) m is nonnegative and not identically zero on the
    support; (ii) the double fold of m, which is m folded onto the chain's
    last fan, has nonnegative weights and is not zero; (iii) the stage pairs
    positively against a supplied complementary cycle.  Any pass certifies;
    failure is always reported as inconclusive, never as a reducibility
    claim.  The caller is responsible for the analogous property of the
    earlier stages.
    """
    if level not in ("i", "ii", "iii"):
        raise ValueError(f"unknown certificate level {level!r}")
    if tci.collapsed_at is not None:
        raise ValueError("chain collapsed before its final stage")
    if not tci.functions:
        raise ValueError("chain has no stage functions")
    base, last = tci.fans[-2], tci.functions[-1]
    if level == "i":
        nonneg, somewhere = _sign_on_support(last, base)
        return CERTIFIED if nonneg and somewhere else INCONCLUSIVE
    if level == "ii":
        folded = corner_locus(last, tci.fans[-1])
        ok = not folded.is_zero() and all(w >= 0 for _, w in folded.cones)
        return CERTIFIED if ok else INCONCLUSIVE
    if g_witness is None:
        raise MissingWitness(
            "MissingWitness: level iii pairs the final stage against a "
            "complementary cycle")
    number = intersection_number([CycleWitness(base, [last]), g_witness])
    return CERTIFIED if number > 0 else INCONCLUSIVE


# ---------------------------------------------------------------------------
# complementary fan pairs

class PairReport:
    """Outcome of the vanishing/connectedness test for a fan pair."""

    __slots__ = ("interesting", "connected", "zero_product")

    def __init__(self, interesting: bool, connected: bool, zero_product: bool):
        self.interesting = interesting
        self.connected = connected
        self.zero_product = zero_product

    def __repr__(self):
        return f"PairReport(interesting={self.interesting}, " \
               f"connected={self.connected}, " \
               f"zero_product={self.zero_product})"


def interesting_pair(t_fan: WeightedFan, f_fan: WeightedFan) -> PairReport:
    """Stable pairing at the origin plus connectedness of the first factor.

    The pair qualifies when the stable intersection number
    (``fans.stable_intersection_number``) vanishes and the maximal cones of
    the first fan hang together through shared nonzero faces.
    """
    if t_fan.ambient != f_fan.ambient:
        raise ValueError("ambient mismatch")
    if t_fan.dim + f_fan.dim != t_fan.ambient:
        raise NotComplementary(
            f"dimensions {t_fan.dim} + {f_fan.dim} do not sum to "
            f"{t_fan.ambient}")
    for fan in (t_fan, f_fan):
        if any(w < 0 for _, w in fan.cones):
            raise ValueError("weights must be nonnegative")
    zero = stable_intersection_number(t_fan, f_fan) == 0
    connected = support_connected_off_origin(t_fan)
    return PairReport(zero and connected, connected, zero)


# ---------------------------------------------------------------------------
# line families in projective 3-space

def _homogeneous(point) -> tuple:
    p = tuple(point)
    if len(p) == 3:
        p = p + (1,)
    elif len(p) != 4:
        raise ValueError("points need 3 affine or 4 homogeneous coordinates")
    return rational_primitive(p)


class ProjectiveLine:
    """A line in projective 3-space, canonicalized as its coordinate plane.

    Stored as the reduced primitive basis of the 2-dimensional space of
    homogeneous coordinate vectors, so equal lines compare equal however
    they were presented.
    """

    __slots__ = ("rows",)

    def __init__(self, p, q):
        rows = canonical_span_rows([_homogeneous(p), _homogeneous(q)])
        if len(rows) != 2:
            raise ValueError("coincident points do not span a line")
        self.rows = rows

    def meets(self, other: "ProjectiveLine") -> bool:
        return rank(list(self.rows) + list(other.rows)) <= 3

    def contains(self, point) -> bool:
        return in_span(self.rows, _homogeneous(point))

    def plucker(self) -> tuple:
        """Primitive wedge coordinates (p01, p02, p03, p12, p13, p23)."""
        u, v = self.rows
        coords = [u[i] * v[j] - u[j] * v[i]
                  for i in range(4) for j in range(i + 1, 4)]
        return rational_primitive(coords)

    def __eq__(self, other):
        return isinstance(other, ProjectiveLine) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ProjectiveLine{self.plucker()}"


def _as_line(obj) -> ProjectiveLine:
    if isinstance(obj, ProjectiveLine):
        return obj
    p, q = obj
    return ProjectiveLine(p, q)


_FULL_SPACE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _span_meet(row_sets: Sequence) -> tuple:
    """Basis of the intersection of rational subspaces of 4-space."""
    annihilators = []
    for rows in row_sets:
        annihilators.extend(kernel_basis(list(rows), 4))
    if not annihilators:
        return _FULL_SPACE
    return tuple(kernel_basis(annihilators, 4))


def _span_sum(row_sets: Sequence) -> tuple:
    rows = [r for rs in row_sets for r in rs]
    return canonical_span_rows(rows)


def _meet_point(a: ProjectiveLine, b: ProjectiveLine):
    """Common point of two distinct lines, or None when they are skew."""
    common = _span_meet([a.rows, b.rows])
    return common[0] if len(common) == 1 else None


def _distinct(lines: Sequence[ProjectiveLine]) -> list:
    seen, out = set(), []
    for l in lines:
        if l.rows not in seen:
            seen.add(l.rows)
            out.append(l)
    return out


def _family_connected(lines: Sequence[ProjectiveLine]) -> bool:
    k = len(lines)
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(k):
            if j not in reached and lines[i].meets(lines[j]):
                reached.add(j)
                frontier.append(j)
    return len(reached) == k


def _type_common_point(ls, rs) -> bool:
    return len(_span_meet([l.rows for l in ls + rs])) >= 1


def _type_common_plane(ls, rs) -> bool:
    return len(_span_sum([l.rows for l in ls + rs])) <= 3


def _pencil(xs, ys) -> bool:
    """All of xs through one point inside one plane; ys split accordingly.

    Every y must either contain the common point or lie inside the common
    plane.  When xs is a single line the point is not forced, so candidates
    are drawn from the crossings of the ys with that line (plus a generic
    point, which demands every other y to lie in the plane).
    """
    axis = _span_meet([x.rows for x in xs])
    if not axis:
        return False
    hull = _span_sum([x.rows for x in xs])
    if len(hull) > 3:
        return False
    if len(axis) == 1:
        candidates = [axis[0]]
    else:
        candidates = [None]
        for y in ys:
            if y.rows == xs[0].rows:
                continue
            pt = _meet_point(xs[0], y)
            if pt is not None:
                candidates.append(pt)
    for a in candidates:
        rows = list(hull)
        for y in ys:
            on_point = a is not None and y.contains(a)
            is_axis = len(axis) == 2 and y.rows == xs[0].rows
            if not on_point and not is_axis:
                rows.extend(y.rows)
        if len(canonical_span_rows(rows)) <= 3:
            return True
    return False


def _type_pencil(ls, rs) -> bool:
    return _pencil(ls, rs) or _pencil(rs, ls)


def _point_candidates(space: tuple, p1: tuple, p2: tuple) -> list:
    """Candidate points in a subspace, preferring those inside both planes."""
    if len(space) == 1:
        return [space[0]]
    out = []
    for sets in ([space, p1, p2], [space, p1], [space, p2]):
        met = _span_meet([rows for rows in sets if rows])
        if met:
            out.append(met[0])
    out.append(space[0])
    seen, uniq = set(), []
    for v in out:
        if v not in seen:
            seen.add(v)
            uniq.append(v)
    return uniq


def _type_double_pencil(ls, rs) -> bool:
    """Two planes through a common line, two base points, lines split 2×2.

    Assignments of every line to one of the two plane/point slots are
    enumerated; heavily degenerate configurations are recognized by the
    earlier cascade stages instead, so the candidate points here only need
    to cover the generic shape.
    """
    if len(ls) + len(rs) > 16:
        raise ValueError("too many distinct lines to classify")
    for bits in product((0, 1), repeat=len(ls) + len(rs)):
        bl, br = bits[:len(ls)], bits[len(ls):]
        plane_rows = ([], [])
        point_members = ([], [])  # lines required through a1 / through a2
        for line, side in zip(ls, bl):
            plane_rows[side].append(line.rows)
            point_members[side].append(line)
        for line, side in zip(rs, br):
            plane_rows[side].append(line.rows)
            point_members[1 - side].append(line)
        p1 = _span_sum(plane_rows[0])
        p2 = _span_sum(plane_rows[1])
        if len(p1) > 3 or len(p2) > 3:
            continue
        a1_space = _span_meet([l.rows for l in point_members[0]])
        a2_space = _span_meet([l.rows for l in point_members[1]])
        if not a1_space or not a2_space:
            continue
        for a1 in _point_candidates(a1_space, p1, p2):
            for a2 in _point_candidates(a2_space, p1, p2):
                if len(canonical_span_rows(list(p1) + [a1, a2])) <= 3 and \
                        len(canonical_span_rows(list(p2) + [a1, a2])) <= 3:
                    return True
    return False


def _two_skew(xs) -> bool:
    return len(xs) == 2 and not xs[0].meets(xs[1])


def _type_singleton(ls, rs) -> bool:
    return len(ls) == 1 or len(rs) == 1


def _type_two_skew(ls, rs) -> bool:
    # incidence was already verified, so the other family meets both lines
    return _two_skew(ls) or _two_skew(rs)


class LinePairClass:
    """First matching configuration type plus the full match set."""

    __slots__ = ("tag", "matches")

    def __init__(self, tag: int, matches: tuple):
        self.tag = tag
        self.matches = matches

    def __repr__(self):
        return f"LinePairClass(tag={self.tag}, matches={self.matches})"


_TYPE_CHECKS = (
    (1, _type_common_point),
    (2, _type_common_plane),
    (3, _type_pencil),
    (4, _type_double_pencil),
    (5, _type_singleton),
    (6, _type_two_skew),
)


def classify_line_pair(ls: Sequence, rs: Sequence) -> LinePairClass:
    """Classify two mutually incident line families in projective 3-space.

    Lines are pairs of rational points (affine triples or homogeneous
    quadruples) or ProjectiveLine instances.  Every line of one family must
    meet every line of the other; the six configuration shapes are tested
    in order and the first match is the tag, with the complete match set
    kept alongside.  Families are taken up to relabeling, so at least one
    of them must hang together through pairwise crossings — except for a
    two-line family, whose skew shape is itself one of the types.
    """
    ls = [_as_line(x) for x in ls]
    rs = [_as_line(x) for x in rs]
    if not ls or not rs:
        raise ValueError("both families must be nonempty")
    for i, l in enumerate(ls):
        for j, r in enumerate(rs):
            if not l.meets(r):
                raise NotInteresting(
                    f"NotInteresting: lines L[{i}] and R[{j}] are skew")
    dl, dr = _distinct(ls), _distinct(rs)
    if not (_family_connected(dl) or _family_connected(dr)
            or len(dl) == 2 or len(dr) == 2):
        raise ValueError("neither family is connected")
    matches = tuple(t for t, check in _TYPE_CHECKS if check(dl, dr))
    if not matches:
        raise ValueError("incident families match no configuration type")
    return LinePairClass(matches[0], matches)
