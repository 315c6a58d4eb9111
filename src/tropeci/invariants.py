"""Valuations of virtual polytopes and the invariants built from them.

A virtual polytope is a formal difference of two lattice polytopes,
identified with the difference of their support functions.  Decomposing it
into a signed combination of indicator functions extends the two classical
valuations — lattice-point count and normalized volume — from polytopes to
these formal differences, and both extensions stay polynomial in the
dilation parameter.  That polynomiality is what makes the genus and Euler
formulas below finite sums.

The second half of the module works on threshold chains: characteristic
classes obtained by expanding a product of corner-locus operators, and the
Euler characteristic read off the zero-dimensional class.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial
from operator import add

from .fans import WeightedFan, consolidate
from .mci import TCI
from .plfunc import corner_locus
from .polytopes import LatticePolytope


class GenusIndexOutOfRange(ValueError):
    pass


class VirtualPolytope:
    """Formal difference of the support functions of ``plus`` and ``minus``.

    Two pairs represent the same virtual polytope exactly when the cross
    Minkowski sums agree; ``equivalent`` tests that directly.  ``minus``
    defaults to a point, which embeds honest polytopes.  Each object keeps
    what is derived from it once computed: its dilates, its sums as the
    left summand, its decomposition and its two valuations.  So the genera
    of one system share them, and callers keep no cache.
    """

    __slots__ = ("plus", "minus", "_derived", "_decomposition", "_count", "_volume")

    def __init__(self, plus: LatticePolytope, minus: LatticePolytope | None = None):
        if minus is None:
            minus = LatticePolytope([(0,) * plus.ambient])
        if plus.ambient != minus.ambient:
            raise ValueError("plus and minus parts live in different lattices")
        self.plus = plus
        self.minus = minus
        self._derived = {}  # dilates by factor, sums by the right summand's parts
        self._decomposition = None
        self._count = None
        self._volume = None

    @property
    def ambient(self) -> int:
        return self.plus.ambient

    def dilate(self, t: int) -> "VirtualPolytope":
        if t == 1:
            return self
        if t not in self._derived:
            self._derived[t] = VirtualPolytope(self.plus.dilate(t), self.minus.dilate(t))
        return self._derived[t]

    def __add__(self, other: "VirtualPolytope") -> "VirtualPolytope":
        # keyed by the parts, so no memo leads back to a summand; b + a reads a + b
        mine, theirs = (self.plus, self.minus), (other.plus, other.minus)
        if mine in other._derived:
            return other._derived[mine]
        if theirs not in self._derived:
            self._derived[theirs] = VirtualPolytope(self.plus.minkowski_sum(other.plus),
                                                    self.minus.minkowski_sum(other.minus))
        return self._derived[theirs]

    def translate(self, r: LatticePolytope) -> "VirtualPolytope":
        """The equivalent representation with ``r`` added to both parts."""
        return VirtualPolytope(self.plus.minkowski_sum(r),
                               self.minus.minkowski_sum(r))

    def equivalent(self, other: "VirtualPolytope") -> bool:
        return (self.plus.minkowski_sum(other.minus)
                == other.plus.minkowski_sum(self.minus))

    def __repr__(self):
        return f"VirtualPolytope({self.plus!r}, {self.minus!r})"


class IndicatorCombination:
    """Integer combination of indicator functions of lattice polytopes."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple((int(c), p) for c, p in terms if c != 0)

    def value_at(self, x) -> int:
        """Pointwise value at a rational point."""
        return sum(c for c, p in self.terms if p.contains(x))

    def __repr__(self):
        return f"IndicatorCombination({len(self.terms)} terms)"


class CharClassList:
    """Characteristic classes of a threshold chain, one fan per codimension."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = list(classes)

    def fan(self, codim: int) -> WeightedFan:
        for d, f in self.classes:
            if d == codim:
                return f
        raise KeyError(f"no class of codimension {codim}")

    def __repr__(self):
        dims = [d for d, _ in self.classes]
        return f"CharClassList(codims={dims})"


def _reflect(poly: LatticePolytope) -> LatticePolytope:
    return LatticePolytope._from_vertices([tuple(-x for x in v) for v in poly.vertices])


def val_decompose(m: VirtualPolytope) -> IndicatorCombination:
    """Signed indicator decomposition of a virtual polytope, kept on ``m``.

    Every face f of the reflection of the minus part contributes the term
    (-1)^(dim f) · 1_{plus + f}.  This sign makes the result independent of
    the chosen representation: the combinations obtained from (plus + R,
    minus + R) induce the same count and volume valuations for every
    polytope R, and on honest polytopes (minus a point) the decomposition
    is the plain indicator of the plus part.  It is computed once per
    object; later calls return the same combination.
    """
    if m._decomposition is None:
        terms = []
        for fv in _reflect(m.minus).faces():
            face = LatticePolytope._from_vertices(fv)
            terms.append(((-1) ** face.dim, m.plus.minkowski_sum(face)))
        m._decomposition = IndicatorCombination(terms)
    return m._decomposition


def _terms(m: VirtualPolytope) -> tuple:
    # the kept decomposition is read here, so each call of val_decompose is a new one
    return (m._decomposition or val_decompose(m)).terms


def count_valuation(m: VirtualPolytope) -> int:
    """Lattice-point count, extended to virtual polytopes; kept on ``m``.

    Agrees with ``n_lattice_points`` of the plus part when the minus part
    is a point, and in general is the value at dilation -1 of the
    polynomial extension of t -> #(plus + t·minus).
    """
    if m._count is None:
        m._count = sum(c * p.n_lattice_points() for c, p in _terms(m))
    return m._count


def volume_valuation(m: VirtualPolytope) -> int:
    """Normalized volume (n!·vol in the ambient lattice) of a virtual polytope.

    Lower-dimensional polytopes have normalized volume zero, so the value
    depends only on the top-dimensional geometry.  It is kept on ``m``.
    """
    if m._volume is None:
        m._volume = sum(c * p.normalized_volume() for c, p in _terms(m))
    return m._volume


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _scaled_sum(ms, coeffs) -> VirtualPolytope:
    """Σ cᵢ·mᵢ, built from the dilates and sums that the inputs keep.

    Equal inputs are merged first (m + m is ``m.dilate(2)``), so no object
    is ever its own right summand, which would hold it in a reference cycle.
    """
    merged = {}
    for m, c in zip(ms, coeffs):
        merged[m] = merged.get(m, 0) + c
    parts = [m.dilate(c) for m, c in merged.items() if c]
    return reduce(add, parts) if parts else ms[0].dilate(0)


def _common_ambient(ms) -> int:
    if not ms:
        raise ValueError("at least one virtual polytope is required")
    n = ms[0].ambient
    if any(m.ambient != n for m in ms):
        raise ValueError("virtual polytopes live in different lattices")
    return n


def hirzebruch_chi_p(ms, p: int) -> int:
    """Hirzebruch genus chi_p of the intersection cut out by k virtual polytopes.

    The value is an alternating double sum of count valuations of
    non-negative combinations of the inputs,

        chi_p = sum over j + |beta| = p, gamma in {0,1}^k of
                (-1)^(n - j + |gamma|) · C(n, j) · #( sum (beta_i + gamma_i) m_i ),

    which is the coefficient of y^p in the generating series expansion of
    the count valuation applied to (y-1)^n · prod (1 - m_i)/(1 - y·m_i).
    The admissible range is 0 <= p <= n - k.  The combinations and their
    counts are kept on the inputs, so the genera of one system share them.
    """
    k = len(ms)
    n = _common_ambient(ms)
    if p < 0 or p > n - k:
        raise GenusIndexOutOfRange(
            f"GenusIndexOutOfRange: p must lie in 0..{n - k}, got {p}")
    total = 0
    for j in range(min(n, p) + 1):
        for beta in _compositions(p - j, k):
            for gamma in product((0, 1), repeat=k):
                exponents = tuple(b + g for b, g in zip(beta, gamma))
                sign = (-1) ** (n - j + sum(gamma))
                total += sign * comb(n, j) * count_valuation(_scaled_sum(ms, exponents))
    return total


def mixed_volume_valuation(ms) -> int:
    """Polarization of the volume valuation at n virtual polytopes.

    Normalized so that n identical copies of an honest polytope give its
    normalized volume; on honest arguments this is the lattice mixed
    volume, hence always an integer.  The volume is a homogeneous
    polynomial of degree n on virtual polytopes, so at n copies of one
    virtual polytope (equal ``plus`` and equal ``minus`` parts) its
    polarization is its value: one volume, not 2^n − 1.  Otherwise the
    subset sums are the ones the inputs keep.
    """
    n = _common_ambient(ms)
    if len(ms) != n:
        raise ValueError(f"expected {n} arguments, got {len(ms)}")
    if len({(tuple(m.plus.vertices), tuple(m.minus.vertices)) for m in ms}) == 1:
        return volume_valuation(ms[0])
    acc = sum((-1) ** (n - sum(c)) * volume_valuation(_scaled_sum(ms, c))
              for c in product((0, 1), repeat=n) if any(c))
    value = Fraction(acc, factorial(n))
    if value.denominator != 1:
        raise ArithmeticError("volume polarization did not produce an integer")
    return int(value)


def euler_from_genera(ms) -> int:
    """Euler characteristic of the intersection cut out by k virtual polytopes.

    Computed as (-1)^(n-k) times the sum of mixed volume valuations over
    all ways to distribute n slots among the k inputs with every input
    used at least once — the degree-n part of the volume generating series
    of the system.
    """
    k = len(ms)
    n = _common_ambient(ms)
    if k > n:
        raise ValueError("more constraints than ambient dimensions")
    total = 0
    for beta in _compositions(n - k, k):
        args = []
        for m, b in zip(ms, beta):
            args.extend([m] * (b + 1))
        total += mixed_volume_valuation(args)
    return (-1) ** (n - k) * total


def tropical_csm(tci: TCI) -> CharClassList:
    """Characteristic classes of a threshold chain.

    The product of the operators δ_i/(1 + δ_i), δ_i the corner locus along
    the i-th threshold function, is δ_k⋯δ_1 · ∏(1 − δ_i + δ_i² − …), because
    corner loci commute on balanced cycles (Allermann–Rau 2010, *First steps
    in tropical intersection theory*, Prop. 3.7).  So every multiset of
    further factors, indices nondecreasing and at most n − k in all, is
    folded onto the chain's last fan T_k with sign (−1)^(its size), and the
    results are added per degree.  The classes run from codimension k to n;
    all vanish on a collapsed chain, and there are none above codimension n.
    """
    n, k = tci.ambient, tci.codim
    if tci.collapsed_at is not None or k > n:
        return CharClassList(
            [(d, WeightedFan(n, [], dim=n - d)) for d in range(k, n + 1)])
    buckets = {d: [] for d in range(k, n + 1)}
    # a stack, not a recursive closure, which would hold the chain in a
    # reference cycle; each fan's folds are pushed in reverse, so the
    # buckets fill in depth-first order
    stack = [(tci.fans[-1], k, 0)]
    while stack:
        fan, degree, first = stack.pop()
        buckets[degree].append(((-1) ** (degree - k), fan))
        if degree < n:
            folds = [(corner_locus(tci.functions[i], fan), degree + 1, i)
                     for i in range(first, k)]
            stack.extend(f for f in reversed(folds) if not f[0].is_zero())
    classes = []
    for d, entries in buckets.items():
        if len(entries) == 1:
            coeff, fan = entries[0]
            classes.append((d, fan.scale(coeff)))
            continue
        pairs = [(cone, coeff * w)
                 for coeff, fan in entries for cone, w in fan.cones]
        classes.append((d, consolidate(pairs, n, n - d)))
    return CharClassList(classes)


def euler_from_csm(tci: TCI) -> int:
    """Weight at the origin of the codimension-n class; 0 above codimension n."""
    n = tci.ambient
    if tci.codim > n:
        return 0
    return tropical_csm(tci).fan(n).weight_of_point((0,) * n)
