"""Matroids over lattice multisets and the threshold construction.

The central algorithm turns a matroid on a finite lattice multiset into a
nested chain of weighted fans.  It walks the prefixes of the matroid greedy
selection depth first, keeping a prefix only while the cone of covectors
that select it is full dimensional (``_prefix_regions``).  A child region
is its parent region cut by the new halfspaces p_a − p_b ≥ 0 through the
parent's extreme rays, so no region is converted from scratch
(``_children``).  On the region of a length-k prefix the k-th threshold
function is linear, so the regions of each length give that
piecewise-linear function (:class:`ThresholdFunction`, whose values are a
greedy selection); the regions of full length carry all of them at once
(``_joint_threshold_cells``).  A chain is its base fan and its functions:
:class:`TCI` folds the fans itself.  The last fold of a full-codimension
chain lands on a curve, where the corner locus reads the last function by
its values, so its regions are never cut there.  The weight of the final
zero-dimensional fan is the generalized BKK number.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .cones import _cut_cone, full_space
from .fans import WeightedFan
from .linalg import det, dot, int_vector, rank as mat_rank, vsub
from .plfunc import PLFunction, corner_locus


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


class Matroid:
    """Matroid given by a column matrix or an explicit rank table."""

    __slots__ = ("ground", "_kind", "_columns", "_table", "_fn", "_cache")

    def __init__(self, ground: Sequence, kind: str, columns=None, table=None, fn=None):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("repeated ground ids")
        self._kind, self._columns, self._table, self._fn = kind, columns, table, fn
        self._cache = {}

    @classmethod
    def from_matrix(cls, columns: dict) -> "Matroid":
        cols = {i: tuple(c) for i, c in columns.items()}
        if len({len(c) for c in cols.values()}) > 1:
            raise ValueError("columns of mixed height")
        return cls(sorted(cols), "matrix", columns=cols)

    @classmethod
    def from_rank_table(cls, ground: Sequence, table: dict) -> "Matroid":
        ground = sorted(ground)
        tab = {frozenset(s): r for s, r in table.items()}
        m = cls(ground, "table", table=tab)
        m._validate_table()
        return m

    def _validate_table(self):
        """Check every matroid axiom on the whole table (``MAX_TABLE_GROUND``)."""
        tab, ground = self._table, list(self.ground)
        if len(ground) > MAX_TABLE_GROUND:
            raise RankTableTooLarge(
                f"rank tables are checked on at most {MAX_TABLE_GROUND} elements, "
                f"got {len(ground)}; give the matroid by a column matrix instead")
        if frozenset() not in tab or tab[frozenset()] != 0:
            raise ValueError("rank of the empty set must be 0")
        subsets = [frozenset(s) for r in range(len(ground) + 1)
                   for s in combinations(ground, r)]
        for s in subsets:
            if s not in tab:
                raise ValueError(f"rank table misses {sorted(s)}")
        for s in subsets:
            for e in ground:
                if e in s:
                    continue
                step = tab[s | {e}] - tab[s]
                if step not in (0, 1):
                    raise ValueError("rank must grow by 0 or 1")
                for f in ground:
                    if f == e or f in s:
                        continue
                    if tab[s | {e}] + tab[s | {f}] < tab[s | {e, f}] + tab[s]:
                        raise ValueError("rank table is not submodular")

    def rank(self, subset: Iterable) -> int:
        key = frozenset(subset)
        for i in key:
            if i not in self.ground:
                raise UnknownElement(i)
        if key in self._cache:
            return self._cache[key]
        if self._kind == "matrix":
            r = mat_rank([self._columns[i] for i in key]) if key else 0
        elif self._kind == "table":
            if key not in self._table:
                raise ValueError(f"rank table misses {sorted(key)}")
            r = self._table[key]
        else:
            r = self._fn(key)
        self._cache[key] = r
        return r

    def truncate(self, k: int) -> "Matroid":
        if k < 0:
            raise ValueError("truncation rank must be nonnegative")
        return Matroid(self.ground, "derived",
                       fn=lambda s, self=self, k=k: min(self.rank(s), k))

    def __repr__(self):
        return f"Matroid({len(self.ground)} elements, kind={self._kind})"


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
    """Matroid data over a support multiset with a target codimension."""

    __slots__ = ("support", "matroid", "codim", "loops")

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

    @property
    def ambient(self) -> int:
        return self.support.ambient

    def __repr__(self):
        return f"MCI(|A|={len(self.support)}, codim={self.codim})"


class TCI:
    """Chain of fans T_k = δ_k⋯δ_1·T_0 folded from a base and its functions.

    Each fan is ``corner_locus(m_k, fans[-1])`` with its cones sorted by key
    (NotBalanced on an unbalanced base).  The fold stops at the first zero
    fan before the last function, sets ``collapsed_at`` and keeps the
    functions used; ``codim`` is the number of functions given.

    ``mci`` is the MCI the chain was built from, set by :func:`tci_from_mci`
    and None on a chain built by hand.  The shadow route of ``elimination``
    restricts the threshold functions by walking the regions of an image of
    that MCI, so it raises ``MissingMCI`` on a chain without one.
    """

    __slots__ = ("fans", "functions", "codim", "collapsed_at", "mci")

    def __init__(self, base: WeightedFan, functions: Sequence[PLFunction]):
        functions = list(functions)
        self.codim = len(functions)
        self.fans = [base]
        self.collapsed_at = None
        self.mci = None
        for k, m in enumerate(functions, 1):
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
    covector of the support's lattice (ValueError otherwise).
    """
    if len(l) != support.ambient:
        raise ValueError(f"covector of length {len(l)}, support in ℤ^{support.ambient}")
    if matroid.rank(support.ids()) < k:
        raise RankDeficient(f"rank < {k}")
    chosen = _greedy_selection(matroid, support, l, k)
    return dot(l, support.point(chosen[-1]))


def _children(mci: MCI, prefix: tuple, region) -> Iterator:
    """(prefix + (a,), region) for each a whose selection region is full dimensional.

    The region of prefix + (a,) is the prefix's region cut by p_a − p_b ≥ 0
    for the other eligible b; the cut goes through the parent's extreme rays
    and stops as soon as one halfspace leaves no ray on its positive side.
    Eligible ids that share a point have identical regions, so each prefix
    cuts once per distinct point; each id still gets its own child prefix,
    because what is eligible after it depends on the id.
    """
    n = mci.ambient
    chosen = list(prefix)
    r = len(prefix)
    eligible = [a for a in sorted(mci.support.ids())
                if a not in chosen and mci.matroid.rank(chosen + [a]) > r]
    cuts = {}
    for a in eligible:
        p = mci.support.point(a)
        if p not in cuts:
            diffs = [vsub(p, mci.support.point(b)) for b in eligible if b != a]
            cuts[p] = _cut_cone(region, diffs, [], n)
        if cuts[p] is not None:
            yield prefix + (a,), cuts[p]


def _prefix_regions(mci: MCI, depth: int) -> dict:
    """Selection regions of every greedy prefix of length ≤ depth that covers
    an open cone.

    Depth-first extension by :func:`_children`: a prefix is kept when its
    region is full dimensional, and only kept prefixes are extended (regions
    shrink along a prefix, so the pruning is exact).  The union of the kept
    regions of each length covers covector space, so nothing else is ever
    needed.
    """
    regions = {(): full_space(mci.ambient)}
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) >= depth:
            continue
        for child, region in _children(mci, prefix, regions[prefix]):
            regions[child] = region
            stack.append(child)
    return regions


class ThresholdFunction(PLFunction):
    """The k-th threshold function m_k of an MCI, read by its values.

    ``value(x)`` is :func:`tci_threshold`, a greedy selection that scans no
    cell.  The cells are the selection regions of the length-k prefixes,
    each with the covector of its k-th point; ``regions`` is a region walk
    (:func:`_prefix_regions`) of depth k − 1 or more, and when it stopped at
    k − 1 the cells are tiled on first use by cutting one more level
    (:func:`_children`), so nothing is walked again from the root.
    """

    __slots__ = ("mci", "k", "_regions", "_cells")

    def __init__(self, mci: MCI, k: int, regions: dict):
        self.ambient = mci.ambient
        self.mci, self.k, self._regions, self._cells = mci, k, regions, None

    def value(self, x):
        return tci_threshold(self.mci.matroid, self.mci.support, self.k, x)

    @property
    def cells(self) -> list:
        if self._cells is None:
            level = {p: r for p, r in self._regions.items() if len(p) == self.k}
            if not level:
                level = dict(child for p, r in self._regions.items()
                             if len(p) == self.k - 1
                             for child in _children(self.mci, p, r))
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
    space.  The cell count stays proportional to the number of distinct
    selections.  One region walk serves all functions.  It stops at depth
    codim − 1 on a full-codimension MCI: the last function is folded onto
    the curve T_{n−1}, where ``corner_locus`` reads it by its values, so the
    regions of length n are cut only if its cells are asked for.
    """
    n = mci.ambient
    regions = _prefix_regions(mci, mci.codim - 1 if mci.codim == n else mci.codim)
    tci = TCI(WeightedFan(n, [(full_space(n), 1)]),
              [ThresholdFunction(mci, k, regions) for k in range(1, mci.codim + 1)])
    tci.mci = mci
    return tci


def _joint_threshold_cells(mci: MCI) -> list:
    """Common refinement of all threshold functions m_1, …, m_codim of an MCI.

    Every region of ``_prefix_regions`` lies in its parent's, so the regions
    of the full-length prefixes tile covector space, and on each of them
    every m_k is linear with covector the k-th point of the prefix.  Returns
    (region, (covector of m_1, …, covector of m_codim)) cells, one per
    distinct region: equal full-dimensional regions carry equal covectors.
    """
    cells = {}
    for prefix, region in _prefix_regions(mci, mci.codim).items():
        if len(prefix) == mci.codim:
            cells.setdefault(region.key(),
                             (region, tuple(mci.support.point(a) for a in prefix)))
    return list(cells.values())


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
