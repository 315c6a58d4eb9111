"""Matroids over lattice multisets and the threshold construction.

The central algorithm turns a matroid on a finite lattice multiset into a
nested chain of weighted fans.  The region of a greedy prefix is the cone
of covectors that select it; a child region is its parent region cut by the
new halfspaces p_a − p_b ≥ 0 through the parent's extreme rays, kept only
while it keeps the parent's dimension (``_children``).  On the region of a
length-k prefix the k-th threshold function is linear, so the regions of
each length give that piecewise-linear function (:class:`ThresholdFunction`,
whose values are a greedy selection).  A chain is its base fan and its
functions: :class:`TCI` folds the fans itself, from the full space by one
rule on greedy prefixes.  m_1 is the support function of conv(A), so T_1 is
its edge fan, read off the facets that the regions of length one share
(``_edge_walls``).  Every cone of T_k keeps the prefix of one incident
piece, and greedy selection does not depend on how ties are broken, so on
that cone m_{k+1} is the max over the ids still eligible after the prefix;
while T_k has dimension two or more, T_{k+1} is the wall step of those
pieces on each cone (``_prefix_walls``).  On a pointed cone with two rays
the pieces are read off a sweep of the upper envelope of the points' values
at the two rays (``_envelope_pieces``); any other cone is cut by the
children of its prefix.  The last fold of a full-codimension chain lands on
a curve, where the corner locus reads the last function by its values.  So
the chain of an MCI walks the prefixes from the root only to length one,
and none of its folds refines a cone by cells.  The weight of the final zero-dimensional fan is
the generalized BKK number.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .cones import _cut_cone, full_space
from .fans import WeightedFan, _wall_step
from .linalg import det, dot, int_vector, rank as mat_rank, vgcd, vsub
from .plfunc import PLFunction, _jump, corner_locus


class UnknownElement(KeyError):
    pass


class RankDeficient(ValueError):
    pass


class NotZeroDimensional(ValueError):
    pass


class NotABasis(ValueError):
    pass


class RankTableTooLarge(ValueError):
    """A rank table on more elements than its axioms can be checked for."""


# the axiom check of a rank table visits every subset and pair of elements
MAX_TABLE_GROUND = 12


class SupportMultiset:
    """Lattice points indexed by distinct opaque ids; points may repeat."""

    __slots__ = ("points", "ambient", "_by_id")

    def __init__(self, points: Iterable):
        self.points = [(i, int_vector(p)) for i, p in points]
        if not self.points:
            raise ValueError("support multiset must be nonempty")
        dims = {len(p) for _, p in self.points}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        self.ambient = dims.pop()
        self._by_id = {}
        for i, p in self.points:
            if i in self._by_id:
                raise ValueError(f"duplicate id {i!r}")
            self._by_id[i] = p

    def ids(self) -> list:
        return [i for i, _ in self.points]

    def point(self, i):
        if i not in self._by_id:
            raise UnknownElement(i)
        return self._by_id[i]

    def restrict(self, keep: Iterable) -> "SupportMultiset":
        keep = set(keep)
        return SupportMultiset([(i, p) for i, p in self.points if i in keep])

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"SupportMultiset({len(self.points)} points in Z^{self.ambient})"


def _check_rank_table(ground: list, table: dict) -> None:
    """Check every matroid axiom on the whole table (``MAX_TABLE_GROUND``)."""
    if len(ground) > MAX_TABLE_GROUND:
        raise RankTableTooLarge(
            f"rank tables are checked on at most {MAX_TABLE_GROUND} elements, "
            f"got {len(ground)}; give the matroid by a column matrix instead")
    if table.get(frozenset()) != 0:
        raise ValueError("rank of the empty set must be 0")
    subsets = [frozenset(s) for r in range(len(ground) + 1)
               for s in combinations(ground, r)]
    for s in subsets:
        if s not in table:
            raise ValueError(f"rank table misses {sorted(s)}")
    for s in subsets:
        for e in ground:
            if e in s:
                continue
            step = table[s | {e}] - table[s]
            if step not in (0, 1):
                raise ValueError("rank must grow by 0 or 1")
            for f in ground:
                if f == e or f in s:
                    continue
                if table[s | {e}] + table[s | {f}] < table[s | {e, f}] + table[s]:
                    raise ValueError("rank table is not submodular")


class Matroid:
    """Matroid on ``ground`` given by its rank function.

    ``rank_fn`` maps a frozenset of ground ids to its rank; ``from_matrix``
    and ``from_rank_table`` build it from columns or a checked table.
    """

    __slots__ = ("ground", "_members", "_rank_fn", "_cache")

    def __init__(self, ground: Sequence, rank_fn):
        self.ground = tuple(ground)
        self._members = frozenset(self.ground)
        if len(self._members) != len(self.ground):
            raise ValueError("repeated ground ids")
        self._rank_fn = rank_fn
        self._cache = {}

    @classmethod
    def from_matrix(cls, columns: dict) -> "Matroid":
        cols = {i: tuple(c) for i, c in columns.items()}
        if len({len(c) for c in cols.values()}) > 1:
            raise ValueError("columns of mixed height")
        return cls(sorted(cols), lambda s: mat_rank([cols[i] for i in s]) if s else 0)

    @classmethod
    def from_rank_table(cls, ground: Sequence, table: dict) -> "Matroid":
        ground = sorted(ground)
        tab = {frozenset(s): r for s, r in table.items()}
        _check_rank_table(ground, tab)
        return cls(ground, tab.__getitem__)

    def rank(self, subset: Iterable) -> int:
        """Rank of a set of ground ids; UnknownElement for any other id.

        The cache is read first: a key is stored only after its ids passed.
        """
        key = frozenset(subset)
        if key in self._cache:
            return self._cache[key]
        unknown = key - self._members
        if unknown:
            raise UnknownElement(next(iter(unknown)))
        r = self._cache[key] = self._rank_fn(key)
        return r

    def truncate(self, k: int) -> "Matroid":
        if k < 0:
            raise ValueError("truncation rank must be nonnegative")
        return Matroid(self.ground, lambda s: min(self.rank(s), k))

    def __repr__(self):
        return f"Matroid({len(self.ground)} elements)"


def chirotope(columns: dict, basis: Sequence) -> int:
    """Sign of the determinant of the ordered column selection."""
    cols = {i: tuple(c) for i, c in columns.items()}
    heights = {len(c) for c in cols.values()}
    if len(heights) != 1:
        raise ValueError("columns of mixed height")
    h = heights.pop()
    for i in basis:
        if i not in cols:
            raise UnknownElement(i)
    if len(basis) != h:
        raise NotABasis(f"need {h} columns, got {len(basis)}")
    d = det([list(r) for r in zip(*(cols[i] for i in basis))])
    return (d > 0) - (d < 0)


class MCI:
    """Matroid data over a support multiset with a target codimension.

    ``_after`` keeps the ids eligible after each greedy prefix read so far
    (:func:`_eligible`), ``_regions`` the regions of length one (:func:`_length_one`).
    """

    __slots__ = ("support", "matroid", "codim", "loops", "_after", "_regions")

    def __init__(self, support: SupportMultiset, matroid: Matroid, codim: int):
        if set(support.ids()) != set(matroid.ground):
            raise ValueError("support ids and matroid ground differ")
        self.loops = [i for i in support.ids() if matroid.rank([i]) == 0]
        self.support = support.restrict(
            [i for i in support.ids() if i not in self.loops]) \
            if self.loops else support
        self.matroid = matroid
        if codim < 0:
            raise ValueError("codimension must be nonnegative")
        if matroid.rank(self.support.ids()) < codim:
            raise RankDeficient(
                f"matroid rank {matroid.rank(self.support.ids())} < codim {codim}")
        self.codim = codim
        self._after = {}
        self._regions = None

    @property
    def ambient(self) -> int:
        return self.support.ambient

    def __repr__(self):
        return f"MCI(|A|={len(self.support)}, codim={self.codim})"


class TCI:
    """Chain of fans T_k = δ_k⋯δ_1·T_0 folded from a base and its functions.

    Each fan is ``corner_locus(m_k, fans[-1])`` with its cones sorted by key
    (NotBalanced on an unbalanced base).  On the full space with weight 1,
    the leading threshold functions m_1, m_2, … of one MCI
    (:class:`ThresholdFunction`) fold on greedy prefixes instead: T_1 is the
    edge fan of conv(A) (:func:`_edge_walls`), and while T_k has dimension
    two or more, T_{k+1} is the walls of the pieces of m_{k+1} on each cone
    of T_k, read after the prefix that the cone keeps (:func:`_prefix_walls`):
    by a sweep of the envelope on a pointed two-ray cone, else by cutting
    the prefix's children.  These give the corner loci, cone for cone and
    weight for weight.  A curve folds by ``corner_locus``, which reads the
    function by its values.  The fold stops at the first zero fan before
    the last function, sets ``collapsed_at`` and keeps the functions used;
    ``codim`` is the number of functions given.

    ``mci`` is the MCI the chain was built from, set by :func:`tci_from_mci`
    and None on a chain built by hand.  The shadow route of ``elimination``
    reads its support values off the BKK numbers of MCIs shifted from that
    MCI, so it raises ``MissingMCI`` on a chain without one.
    """

    __slots__ = ("fans", "functions", "codim", "collapsed_at", "mci")

    def __init__(self, base: WeightedFan, functions: Sequence[PLFunction]):
        functions = list(functions)
        self.codim = len(functions)
        self.fans = [base]
        self.collapsed_at = None
        self.mci = None
        lead = _threshold_lead(base, functions)
        for k, m in enumerate(functions, 1):
            if k <= lead and (k == 1 or self.fans[-1].dim >= 2):
                walls = _edge_walls(m.mci) if k == 1 else \
                    _prefix_walls(m.mci, walls)
                nxt = WeightedFan(base.ambient, [(c, w) for c, w, _ in walls],
                                  dim=base.dim - k)
            else:
                nxt = corner_locus(m, self.fans[-1])
            self.fans.append(WeightedFan(base.ambient, sorted(
                nxt.cones, key=lambda cw: cw[0].key()), dim=nxt.dim))
            if nxt.is_zero() and k < self.codim:
                self.collapsed_at = k
                break
        self.functions = functions[:len(self.fans) - 1]

    @property
    def ambient(self) -> int:
        return self.fans[0].ambient

    def __repr__(self):
        tail = f", collapsed_at={self.collapsed_at}" if self.collapsed_at else ""
        return f"TCI(codim={self.codim}, steps={len(self.functions)}{tail})"


def _greedy_selection(matroid: Matroid, support: SupportMultiset, l, k: int) -> list:
    """First k ids picked by the matroid greedy walk on l-values (descending).

    Ties are broken by id, which keeps the walk deterministic; tie order
    between ids with equal points never affects the selected values.
    """
    order = sorted(support.ids())
    order.sort(key=lambda i: dot(l, support.point(i)), reverse=True)
    chosen = []
    r = 0
    for i in order:
        if matroid.rank(chosen + [i]) > r:
            chosen.append(i)
            r += 1
            if r == k:
                break
    return chosen


def tci_threshold(matroid: Matroid, support: SupportMultiset, k: int, l):
    """Best worst value l(a) over independent k-subsets of the support.

    Equals the k-th value selected by the matroid greedy walk, and the
    largest m such that {a : l(a) ≥ m} has rank at least k.  l must be a
    covector of the support's lattice and k at least 1 (ValueError otherwise).
    """
    if k < 1:
        raise ValueError(f"threshold index {k} < 1")
    if len(l) != support.ambient:
        raise ValueError(f"covector of length {len(l)}, support in ℤ^{support.ambient}")
    if matroid.rank(support.ids()) < k:
        raise RankDeficient(f"rank < {k}")
    chosen = _greedy_selection(matroid, support, l, k)
    return dot(l, support.point(chosen[-1]))


def _eligible(mci: MCI, prefix: tuple) -> list:
    """Ids, sorted, whose point the greedy walk may take after the prefix.

    An id is eligible when it extends the prefix to an independent set.  The
    list is read once per prefix and kept on the MCI, because every cone of
    a fold that keeps one prefix asks for it.
    """
    if prefix not in mci._after:
        chosen = list(prefix)
        r = len(prefix)
        mci._after[prefix] = [a for a in sorted(mci.support.ids())
                              if a not in chosen and mci.matroid.rank(chosen + [a]) > r]
    return mci._after[prefix]


def _length_one(mci: MCI) -> dict:
    """The regions of length one, the children of the full space, cut once."""
    if mci._regions is None:
        mci._regions = dict(_children(mci, (), full_space(mci.ambient)))
    return mci._regions


def _children(mci: MCI, prefix: tuple, region) -> Iterator:
    """(prefix + (a,), piece) for each a whose piece keeps the region's dimension.

    The piece of prefix + (a,) is the prefix's region cut by p_a − p_b ≥ 0
    for the other eligible b; the cut goes through the parent's extreme rays
    and stops as soon as the piece drops below the region's dimension.  The
    regions of length one are the children of the full space, and
    :meth:`ThresholdFunction._level` cuts deeper regions on from them, all
    full dimensional.  :func:`_prefix_walls` cuts a cone of T_k this way
    after the prefix it keeps, unless it is a pointed cone with two rays,
    which it folds by :func:`_envelope_pieces` instead.
    Eligible ids that share a point have identical regions, so each prefix
    cuts once per distinct point, by the differences to the other distinct
    points; each id still gets its own child prefix, because what is
    eligible after it depends on the id.
    """
    eligible = _eligible(mci, prefix)
    points = list(dict.fromkeys(mci.support.point(a) for a in eligible))
    cuts = {}
    for a in eligible:
        p = mci.support.point(a)
        if p not in cuts:
            diffs = [vsub(p, q) for q in points if q != p]
            cuts[p] = _cut_cone(region, diffs, [], region.dim)
        if cuts[p] is not None:
            yield prefix + (a,), cuts[p]


class ThresholdFunction(PLFunction):
    """The k-th threshold function m_k of an MCI (k ≥ 1), read by its values.

    ``value(x)`` is :func:`tci_threshold`, a greedy selection that scans no
    cell.  The cells are the selection regions of the length-k prefixes,
    each with the covector of its k-th point.  They are tiled on first use,
    cut level by level (:func:`_children`) from the MCI's regions of length one.
    :class:`TCI` folds the functions of a chain on greedy prefixes and by
    values, and never asks for their cells.
    """

    __slots__ = ("mci", "k", "_cells")

    def __init__(self, mci: MCI, k: int):
        if k < 1:
            raise ValueError(f"threshold index {k} < 1")
        self.ambient = mci.ambient
        self.mci, self.k, self._cells = mci, k, None

    def value(self, x):
        return tci_threshold(self.mci.matroid, self.mci.support, self.k, x)

    def _level(self, k: int) -> dict:
        """The regions of the length-k prefixes, cut on from the regions of length one."""
        level = _length_one(self.mci)
        for _ in range(1, k):
            level = dict(child for p, r in level.items()
                         for child in _children(self.mci, p, r))
        return level

    @property
    def cells(self) -> list:
        if self._cells is None:
            level = self._level(self.k)
            seen = {}
            for prefix in sorted(level):
                region = level[prefix]
                covector = self.mci.support.point(prefix[-1])
                seen[(region.key(), covector)] = (region, covector)
            self._cells = sorted(seen.values(), key=lambda cl: cl[0].key())
        return self._cells

    def __repr__(self):
        return f"ThresholdFunction(k={self.k}, ambient={self.ambient})"


def tci_from_mci(mci: MCI) -> TCI:
    """Threshold chain of an MCI, folded from the full space.

    The k-th threshold function is a :class:`ThresholdFunction`: on the
    region of a length-k prefix the k-th selected point is constant, so the
    threshold is linear there, and the regions of one length tile covector
    space.  All functions share the MCI's regions of length one, the children
    of the full space.  :class:`TCI` folds m_1 on them, every later function
    on the greedy prefixes that the cones of the previous fan keep, and on
    a full-codimension MCI the last function onto the curve T_{n−1}, where
    ``corner_locus`` reads it by its values.  So no region of length two or
    more is cut from the full space; cells are cut only if they are asked
    for.
    """
    n = mci.ambient
    tci = TCI(WeightedFan(n, [(full_space(n), 1)]),
              [ThresholdFunction(mci, k) for k in range(1, mci.codim + 1)])
    tci.mci = mci
    return tci


def _threshold_lead(base: WeightedFan, functions: Sequence) -> int:
    """How many leading functions may fold on greedy prefixes.

    They may when the base is the full space with weight 1 and they are the
    threshold functions m_1, m_2, … of one MCI, in that order.
    """
    if len(base.cones) != 1 or base.cones[0][1] != 1 or \
            len(base.cones[0][0].lineality) != base.ambient:
        return 0
    lead = 0
    for k, m in enumerate(functions, 1):
        if not isinstance(m, ThresholdFunction) or m.k != k or m.mci is not functions[0].mci:
            break
        lead = k
    return lead


def _edge_walls(mci: MCI) -> list:
    """T_1 = δ_{m_1}·ℝⁿ as (wall, weight, prefix) triples: the edge fan of conv(A).

    m_1 is the support function of conv(A), and the regions of length one
    are the normal cones of its vertices.  Two of them share a facet exactly
    when their vertices v, w span an edge; the facet is the normal cone of
    that edge, and its weight is the lattice length gcd(v − w)
    (Maclagan–Sturmfels, *Introduction to Tropical Geometry*, §3.1).
    Ids that share a point share a region, which is read once.  Each wall
    keeps the prefix (v,) of one of its sides, for :func:`_prefix_walls`.
    """
    walls, points, regions = {}, set(), _length_one(mci)
    for prefix in sorted(regions):
        v = mci.support.point(prefix[0])
        if v in points:
            continue
        points.add(v)
        for facet, _ in regions[prefix]._facets():
            walls.setdefault(facet.key(), []).append((facet, prefix, v))
    return [(facet, vgcd(vsub(v, w)), prefix)
            for (facet, prefix, v), (_, _, w) in walls.values()]


def _envelope_pieces(mci: MCI, prefix: tuple, sigma) -> list:
    """(piece, id) per domain of linearity on σ of the max of the points
    eligible after the prefix, as :func:`_children` gives them deduplicated
    by key; σ is a pointed cone with two rays r₁ < r₂.

    On x = r₁ + s·r₂ (s ≥ 0) each eligible point p is the line a + s·b with
    (a, b) = (p·r₁, p·r₂); ids with one pair are one line, kept as the
    first in eligible order.  The upper envelope starts at the
    lexicographic maximum (a₀, b₀) and steps to the line with the least
    crossing ratio (a₀ − a)/(b − b₀) among those with b > b₀, the larger b
    on a tie, so each step moves s strictly on and no line touches the
    envelope at a point only.  A line alone on the envelope is the max at
    both rays, so σ is its piece; else each piece is σ cut by its
    differences to its one or two neighbours in the sweep.  Pieces come in
    eligible order of their ids.
    """
    eligible = _eligible(mci, prefix)
    point = mci.support.point
    r1, r2 = sigma.rays
    lines = {}
    for a in eligible:
        p = point(a)
        lines.setdefault((dot(p, r1), dot(p, r2)), a)
    a0, b0 = max(lines)
    sweep = [(a0, b0)]
    while True:
        up = [ab for ab in lines if ab[1] > b0]
        if not up:
            break
        a0, b0 = min(up, key=lambda ab: (Fraction(a0 - ab[0], ab[1] - b0), -ab[1]))
        sweep.append((a0, b0))
    tops = [lines[ab] for ab in sweep]
    if len(tops) == 1:
        return [(sigma, tops[0])]
    pieces = []
    for j, a in enumerate(tops):
        diffs = [vsub(point(a), point(tops[i])) for i in (j - 1, j + 1) if 0 <= i < len(tops)]
        pieces.append((_cut_cone(sigma, diffs, [], 2), a))
    return sorted(pieces, key=lambda piece: eligible.index(piece[1]))


def _prefix_walls(mci: MCI, walls: Sequence) -> list:
    """T_{k+1} = δ_{m_{k+1}}·T_k as (wall, weight, prefix) triples, from the
    (cone, weight, prefix) triples of T_k; the prefixes have length k.

    Greedy selection does not depend on how ties are broken (Oxley, *Matroid
    Theory*, §1.8), so on the closed region of the prefix that a cone σ of
    T_k keeps, m_{k+1} is the max of p_b over the ids b eligible after it:
    the support function of those points, read on σ.  Its pieces on σ are
    its domains of linearity, each with the point that is the max there as
    covector and the prefix extended by its id; pieces with one key are one
    piece, kept with the first id in eligible order.  On a pointed σ with
    two rays they are read off the upper envelope of the points' values at
    the two rays (:func:`_envelope_pieces`).  That is exact: σ is the set of
    nonnegative combinations of its rays, so one linear function is at least
    another on all of σ iff it is at least the other at both rays, and a
    piece is cut out by the differences to its neighbours alone.  Any other
    σ is cut by the children of its prefix (:func:`_children`).  The pieces
    are the domains of linearity of m_{k+1} on σ either way, so neighbouring
    cones of T_k cut their common faces alike, and one wall step weighs
    their walls; each wall keeps the prefix of its first incident piece,
    whose closed region holds it, for the next fold.
    """
    pieces, seen = [], set()
    for sigma, w, prefix in walls:
        if sigma.lineality or len(sigma.rays) != 2:
            cut = [(piece, child[-1]) for child, piece in _children(mci, prefix, sigma)]
        else:
            cut = _envelope_pieces(mci, prefix, sigma)
        for piece, a in cut:
            if piece.key() not in seen:
                seen.add(piece.key())
                pieces.append((piece, w, mci.support.point(a), prefix + (a,)))
    return _wall_step(pieces, mci.ambient, _jump)


def bkk_number(tci: TCI) -> int:
    """Weight of the zero-dimensional end of a full-codimension chain."""
    if tci.codim != tci.ambient:
        raise NotZeroDimensional(
            f"codim {tci.codim} differs from ambient dimension {tci.ambient}")
    if tci.collapsed_at is not None:
        return 0
    return tci.fans[-1].weight_of_point((0,) * tci.ambient)


def classical_mci(supports: Sequence[Sequence]) -> MCI:
    """MCI of a classical system: block i contributes parallel columns e_i.

    Supports are lists of lattice points; ids are "i:j" for point j of
    block i.  The codimension is the number of blocks.
    """
    k = len(supports)
    points = []
    columns = {}
    for i, block in enumerate(supports):
        for j, p in enumerate(block):
            ident = f"{i}:{j}"
            points.append((ident, tuple(p)))
            columns[ident] = tuple(1 if t == i else 0 for t in range(k))
    return MCI(SupportMultiset(points), Matroid.from_matrix(columns), k)
