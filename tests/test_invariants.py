"""Valuations of virtual polytopes, Hirzebruch genera, and CSM classes."""

import gc
import weakref
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropeci import invariants
from tropeci.cones import Cone, full_space
from tropeci.fans import NotBalanced, WeightedFan, consolidate, fans_equal, is_balanced
from tropeci.invariants import (
    GenusIndexOutOfRange,
    VirtualPolytope,
    count_valuation,
    euler_from_csm,
    euler_from_genera,
    hirzebruch_chi_p,
    mixed_volume_valuation,
    tropical_csm,
    val_decompose,
    volume_valuation,
)
from tropeci.mci import MCI, TCI, Matroid, SupportMultiset, bkk_number, classical_mci, \
    tci_from_mci
from tropeci.oracles import boundary_lattice_points, random_lattice_polytope
from tropeci.plfunc import corner_locus, iterated_corner_locus, pl_from_polytope
from tropeci.polytopes import LatticePolytope, mixed_volume_ie

HEXAGON = LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])


def honest(points):
    return VirtualPolytope(LatticePolytope(points))


def triangle(d):
    return LatticePolytope([(0, 0), (d, 0), (0, d)])


def unit_fan(dim):
    return WeightedFan(dim, [(full_space(dim), 1)])


def term_dict(combination):
    out = {}
    for c, p in combination.terms:
        out[tuple(p.vertices)] = out.get(tuple(p.vertices), 0) + c
    return {k: v for k, v in out.items() if v}


# -- valuations ---------------------------------------------------------------


def test_honest_polytope_decomposes_to_its_own_indicator():
    m = honest([(0,), (3,)])
    assert term_dict(val_decompose(m)) == {((0,), (3,)): 1}
    assert count_valuation(m) == 4
    assert volume_valuation(m) == 3


def test_unit_interval_minus_part_decomposition():
    """Point minus unit segment: the convolution inverse of the segment."""
    m = VirtualPolytope(LatticePolytope([(0,)]), LatticePolytope([(0,), (1,)]))
    assert term_dict(val_decompose(m)) == {
        ((-1,), (0,)): -1,
        ((-1,),): 1,
        ((0,),): 1,
    }
    assert count_valuation(m) == 0
    assert volume_valuation(m) == -1


def test_decomposition_values_pointwise():
    m = VirtualPolytope(LatticePolytope([(0,)]), LatticePolytope([(0,), (1,)]))
    val = val_decompose(m)
    assert val.value_at((Fraction(-1, 2),)) == -1
    assert val.value_at((-1,)) == 0
    assert val.value_at((0,)) == 0
    assert val.value_at((Fraction(1, 4),)) == 0


def test_equivalent_representations_share_valuations():
    a = VirtualPolytope(LatticePolytope([(0,), (2,)]), LatticePolytope([(0,), (1,)]))
    b = VirtualPolytope(LatticePolytope([(0,), (1,)]))
    assert a.equivalent(b)
    assert count_valuation(a) == count_valuation(b) == 2
    assert volume_valuation(a) == volume_valuation(b) == 1
    assert not a.equivalent(VirtualPolytope(LatticePolytope([(0,), (2,)])))


def test_representation_independence_under_random_shifts():
    rng = Random(23)
    bases = [
        VirtualPolytope(LatticePolytope([(0, 0), (2, 0), (0, 1)]),
                        LatticePolytope([(0, 0), (1, 1)])),
        VirtualPolytope(LatticePolytope([(0, 0), (1, 0), (1, 2)]),
                        LatticePolytope([(0, 0), (0, 1), (1, 0)])),
    ]
    for m in bases:
        count, vol = count_valuation(m), volume_valuation(m)
        for _ in range(25):
            r = random_lattice_polytope(rng, 2, 4, box=2, full_dim=False)
            shifted = m.translate(r)
            assert count_valuation(shifted) == count
            assert volume_valuation(shifted) == vol


def test_unit_square_count():
    assert count_valuation(honest([(0, 0), (1, 0), (0, 1), (1, 1)])) == 4


def test_hexagon_volume():
    assert volume_valuation(VirtualPolytope(HEXAGON)) == 6
    assert volume_valuation(VirtualPolytope(HEXAGON)) == HEXAGON.normalized_volume()


def test_lower_dimensional_volume_vanishes():
    assert volume_valuation(honest([(0, 0), (3, 1)])) == 0


def test_count_is_polynomial_in_dilation():
    """Values at t = 0..n+3 must fit a degree-n polynomial in t."""
    rng = Random(41)
    for n in (1, 2, 3):
        plus = random_lattice_polytope(rng, n, n + 2, box=2)
        minus = random_lattice_polytope(rng, n, n + 2, box=1, full_dim=False)
        m = VirtualPolytope(plus, minus)
        values = [count_valuation(m.dilate(t)) for t in range(n + 4)]
        for _ in range(n + 1):  # (n+1)-st finite differences of degree-n data
            values = [b - a for a, b in zip(values, values[1:])]
        assert all(v == 0 for v in values), values


@settings(max_examples=40)
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=6))
def test_count_of_a_reflected_polytope_is_the_signed_interior_count(points):
    """Ehrhart–Macdonald reciprocity: (origin, P) counts (−1)^dim P · #relint P.

    The interior points are counted apart from the valuation: the lattice
    points of P at which every facet inequality is strict.
    """
    poly = LatticePolytope(points)
    interior = [x for x in poly.lattice_points()
                if all(sum(ai * xi for ai, xi in zip(a, x)) + b > 0 for a, b in poly.facets())]
    reflected = VirtualPolytope(LatticePolytope([(0, 0, 0)]), poly)
    assert count_valuation(reflected) == (-1) ** poly.dim * len(interior)


def test_mismatched_parts_are_rejected():
    with pytest.raises(ValueError):
        VirtualPolytope(LatticePolytope([(0,)]), LatticePolytope([(0, 0)]))
    with pytest.raises(ValueError):
        hirzebruch_chi_p([], 0)
    with pytest.raises(ValueError):
        mixed_volume_valuation([honest([(0, 0), (1, 0)])])


# -- mixed volume polarization ------------------------------------------------


def test_mixed_volume_polarization_matches_inclusion_exclusion():
    rng = Random(9)
    for n in (2, 3):
        for _ in range(4):
            polys = [random_lattice_polytope(rng, n, n + 2, box=2)
                     for _ in range(n)]
            expected = mixed_volume_ie(polys)
            got = mixed_volume_valuation([VirtualPolytope(p) for p in polys])
            assert got == expected


def test_mixed_volume_of_repeated_polytope_is_its_volume():
    vp = VirtualPolytope(HEXAGON)
    assert mixed_volume_valuation([vp, vp]) == 6


PLUS = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
MINUS = [(0, 0, 0), (1, 1, 0)]
SIMPLEX_4 = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
CROSS_4 = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)]


@pytest.mark.parametrize("kind", ["honest", "virtual", "equal copies"])
def test_equal_arguments_take_one_volume(monkeypatch, kind):
    m = VirtualPolytope(LatticePolytope(PLUS),
                        None if kind == "honest" else LatticePolytope(MINUS))
    if kind == "equal copies":
        # equal parts, other objects, built from other point lists
        twin = VirtualPolytope(LatticePolytope(PLUS[::-1] + [(1, 0, 0)]),
                               LatticePolytope(MINUS + [(0, 0, 0)]))
        args = [m, twin, m]
    else:
        args = [m, m, m]
    sums = {  # the sum of every nonempty subset of the arguments, by bitmask
        1: args[0], 2: args[1], 4: args[2],
        3: args[0] + args[1], 5: args[0] + args[2], 6: args[1] + args[2],
        7: args[0] + args[1] + args[2],
    }
    expected = sum((-1) ** (3 - bin(mask).count("1")) * volume_valuation(s)
                   for mask, s in sums.items())
    calls = []

    def counted(v):
        calls.append(v)
        return volume_valuation(v)

    monkeypatch.setattr(invariants, "volume_valuation", counted)
    got = mixed_volume_valuation(args)
    assert 6 * got == expected
    assert calls == [m]
    if kind == "honest":
        assert got == LatticePolytope(PLUS).normalized_volume()


# -- Hirzebruch genera ----------------------------------------------------------


def test_genus_index_must_be_in_range():
    m = honest([(0, 0), (2, 0), (0, 2)])
    for p in (-1, 2):
        with pytest.raises(GenusIndexOutOfRange):
            hirzebruch_chi_p([m], p)
    with pytest.raises(GenusIndexOutOfRange):
        hirzebruch_chi_p([m, m, m], 0)  # more constraints than dimensions


def test_chi_zero_counts_points_in_full_codimension():
    systems = [
        ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]),
        ([(0, 0), (2, 0)], [(0, 0), (0, 3)]),
        ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    for a_pts, b_pts in systems:
        chi0 = hirzebruch_chi_p([honest(a_pts), honest(b_pts)], 0)
        oracle = bkk_number(tci_from_mci(classical_mci([a_pts, b_pts])))
        assert chi0 == oracle


def test_point_supports_have_vanishing_genera():
    pt = honest([(1, 2, 0)])
    for k in (1, 2):
        for p in range(0, 3 - k + 1):
            assert hirzebruch_chi_p([pt] * k, p) == 0


def test_plane_curve_genera_match_pick_data():
    """chi_0 = 1 - g - b and chi_1 = 1 - g for a curve with Newton polygon P,

    where g counts interior and b boundary lattice points of P."""
    cases = [(triangle(1), -2, 1), (triangle(2), -5, 1),
             (triangle(3), -9, 0), (HEXAGON, -6, 0)]
    for poly, chi0, chi1 in cases:
        b = boundary_lattice_points(poly)
        g = poly.n_lattice_points() - b
        assert (chi0, chi1) == (1 - g - b, 1 - g)
        m = VirtualPolytope(poly)
        assert hirzebruch_chi_p([m], 0) == chi0
        assert hirzebruch_chi_p([m], 1) == chi1


def test_genera_sum_to_euler_characteristic():
    tet = honest([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    square = honest([(0, 0), (1, 0), (0, 1), (1, 1)])
    systems = [
        [VirtualPolytope(HEXAGON)],
        [VirtualPolytope(triangle(2))],
        [honest([(0, 0), (1, 0), (0, 1)]), square],
        [tet],
        [tet.dilate(2)],
    ]
    for ms in systems:
        n, k = ms[0].ambient, len(ms)
        total = sum(hirzebruch_chi_p(ms, p) for p in range(n - k + 1))
        assert total == euler_from_genera(ms)


def test_the_genera_of_one_object_count_each_dilate_once(monkeypatch):
    def virtual():
        return VirtualPolytope(LatticePolytope(PLUS), LatticePolytope(MINUS))

    expected = [hirzebruch_chi_p([virtual()], p) for p in range(3)]
    m = virtual()
    counted = []
    decompose = invariants.val_decompose
    monkeypatch.setattr(invariants, "val_decompose", lambda v: counted.append(
        (tuple(v.plus.vertices), tuple(v.minus.vertices))) or decompose(v))
    assert [hirzebruch_chi_p([m], p) for p in range(3)] == expected
    # χ₀, χ₁ and χ₂ in ℤ³ need the dilates 0·m, …, 3·m, each counted once
    assert len(counted) == len(set(counted)) == 4
    # χ₀, χ₁ and χ₂ of two inputs in ℤ⁴ need 13 combinations: 0, the
    # dilates 1…3 of each input and six mixed sums, each decomposed once
    counted.clear()
    pair = [honest(SIMPLEX_4), honest(CROSS_4)]
    assert [hirzebruch_chi_p(pair, p) for p in range(3)] == [12, -3, 1]
    assert len(counted) == len(set(counted)) == 13


def test_a_virtual_polytope_keeps_what_is_derived_from_it(monkeypatch):
    m = VirtualPolytope(LatticePolytope(PLUS), LatticePolytope(MINUS))
    q = honest([(0, 0, 0), (1, 0, 0)])
    assert m.dilate(1) is m
    assert m.dilate(2) is m.dilate(2)
    assert m + q is m + q is q + m
    assert val_decompose(m) is val_decompose(m)
    assert isinstance(val_decompose(m).terms, tuple)
    # the valuations are read off the terms once
    scans = []
    for name in ("n_lattice_points", "normalized_volume"):
        monkeypatch.setattr(LatticePolytope, name, lambda p, f=getattr(LatticePolytope, name):
                            scans.append(f) or f(p))
    values = (count_valuation(m), volume_valuation(m))
    done = len(scans)
    assert (count_valuation(m), volume_valuation(m)) == values
    assert len(scans) == done > 0


class TrackedPolytope(VirtualPolytope):
    """A virtual polytope that can be weakly referenced."""


def test_genera_leave_no_cycle_that_holds_the_inputs():
    # with the cyclic collector off, the inputs are freed as soon as the
    # caller drops them, whichever way round they were summed
    enabled = gc.isenabled()
    gc.disable()
    try:
        def virtual():
            return TrackedPolytope(LatticePolytope(PLUS), LatticePolytope(MINUS))

        # two equal objects take the plain sums, which the merged m + m must match
        expected = [hirzebruch_chi_p([virtual(), virtual()], p) for p in range(2)]
        m = virtual()
        pair = [TrackedPolytope(LatticePolytope(p)) for p in (SIMPLEX_4, CROSS_4)]
        refs = [weakref.ref(x) for x in [m] + pair]
        assert [hirzebruch_chi_p([m, m], p) for p in range(2)] == expected
        assert [hirzebruch_chi_p(pair, p) for p in range(3)] == [12, -3, 1]
        assert [hirzebruch_chi_p(pair[::-1], p) for p in range(3)] == [12, -3, 1]
        del m, pair
        assert all(r() is None for r in refs)
        # the memo of a direct sum leads back to no summand, in any order
        for add, k in ((lambda m: m + m, 2), (lambda m: m.dilate(2) + m, 3),
                       (lambda m: m + m.dilate(2), 3)):
            m = virtual()
            ref = weakref.ref(m)
            assert add(m).equivalent(m.dilate(k))
            del m
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- Euler characteristics ------------------------------------------------------


def test_euler_of_segment_system_is_its_length():
    assert euler_from_genera([honest([(0,), (4,)])]) == 4


def test_euler_of_point_supports_vanishes():
    assert euler_from_genera([honest([(3, 1)])]) == 0
    assert euler_from_genera([honest([(1, 0)]), honest([(0, 1)])]) == 0


def test_euler_of_plane_curves():
    assert euler_from_genera([VirtualPolytope(triangle(1))]) == -1
    assert euler_from_genera([VirtualPolytope(HEXAGON)]) == -6


def test_euler_of_surfaces_is_signed_volume():
    tet = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert euler_from_genera([VirtualPolytope(tet)]) == 1
    assert euler_from_genera([VirtualPolytope(tet.dilate(2))]) == 8


def test_euler_needs_enough_dimensions():
    seg = honest([(0,), (1,)])
    with pytest.raises(ValueError):
        euler_from_genera([seg, seg])


# -- characteristic classes -----------------------------------------------------


def test_csm_of_bare_torus():
    tci = TCI(unit_fan(2), [])
    classes = tropical_csm(tci).classes
    assert [d for d, _ in classes] == [0, 1, 2]
    assert fans_equal(classes[0][1], unit_fan(2))
    assert classes[1][1].is_zero() and classes[2][1].is_zero()
    assert euler_from_csm(tci) == 0


def test_csm_of_hexagon_curve():
    tci = tci_from_mci(classical_mci([HEXAGON.vertices]))
    csm = tropical_csm(tci)
    assert [d for d, _ in csm.classes] == [1, 2]
    dual = corner_locus(pl_from_polytope(HEXAGON), unit_fan(2))
    assert fans_equal(csm.fan(1), dual)
    assert fans_equal(csm.fan(1), tci.fans[-1])
    assert csm.fan(2).weight_of_point((0, 0)) == -6
    for _, fan in csm.classes:
        assert is_balanced(fan)
    assert euler_from_csm(tci) == -6
    assert euler_from_csm(tci) == euler_from_genera([VirtualPolytope(HEXAGON)])


def test_csm_of_full_codimension_system():
    blocks = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (1, 1)]]
    tci = tci_from_mci(classical_mci(blocks))
    csm = tropical_csm(tci)
    assert [d for d, _ in csm.classes] == [2]
    assert fans_equal(csm.fan(2), tci.fans[-1])
    assert euler_from_csm(tci) == bkk_number(tci) == 2


def test_csm_of_a_surface():
    tet = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    tci = tci_from_mci(classical_mci([tet]))
    csm = tropical_csm(tci)
    assert [d for d, _ in csm.classes] == [1, 2, 3]
    for _, fan in csm.classes:
        assert is_balanced(fan)
    assert fans_equal(csm.fan(1), tci.fans[-1])
    assert euler_from_csm(tci) == 8
    assert euler_from_csm(tci) == euler_from_genera([honest(tet)])


class TrackedFan(WeightedFan):
    """A fan that can be weakly referenced (``WeightedFan`` has slots only)."""


def test_csm_leaves_no_cycle_that_holds_the_chain():
    # with the cyclic collector off, the chain's last fan is freed as soon
    # as the caller drops the chain and its classes
    tet = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        tci = tci_from_mci(classical_mci([tet]))
        fan = tci.fans[-1]
        tci.fans[-1] = TrackedFan(fan.ambient, fan.cones, dim=fan.dim)
        last = weakref.ref(tci.fans[-1])
        del fan
        csm = tropical_csm(tci)
        assert len(csm.classes) == 3
        del tci, csm
        assert last() is None
    finally:
        if enabled:
            gc.enable()


def test_csm_of_an_unbalanced_chain_raises():
    # weights 1 and 2 on the two half-planes leave the x-axis unbalanced; the
    # chain folds its first corner locus on construction, so it raises there
    upper, lower = Cone(2, ineqs=[(0, 1)]), Cone(2, ineqs=[(0, -1)])
    with pytest.raises(NotBalanced):
        TCI(WeightedFan(2, [(upper, 1), (lower, 2)]), [pl_from_polytope(triangle(1))])


def test_csm_of_collapsed_chain_vanishes():
    tci = tci_from_mci(classical_mci([[(1, 1)], [(1, 1)]]))
    assert tci.collapsed_at is not None
    classes = tropical_csm(tci).classes
    assert [d for d, _ in classes] == [2]
    assert all(fan.is_zero() for _, fan in classes)
    assert euler_from_csm(tci) == 0 == bkk_number(tci)


def test_csm_of_an_overdetermined_chain_is_empty():
    blocks = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (0, 1)], [(0, 0), (1, 1), (0, 1)]]
    tci = tci_from_mci(classical_mci(blocks))
    assert tropical_csm(tci).classes == []
    assert euler_from_csm(tci) == 0


# -- random chains in Z^3 -------------------------------------------------------


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_random_euler_characteristics_agree_across_routes(seed, k):
    rng = Random(seed)
    polys = [random_lattice_polytope(rng, 3, rng.randint(4, 5), box=2)
             for _ in range(k)]
    ms = [VirtualPolytope(p) for p in polys]
    genera = sum(hirzebruch_chi_p(ms, p) for p in range(3 - k + 1))
    tci = tci_from_mci(classical_mci([p.vertices for p in polys]))
    assert genera == euler_from_genera(ms) == euler_from_csm(tci)


def random_chain(seed, k, classical):
    """A classical or generic MCI of codimension k in Z^3, and its chain."""
    rng = Random(seed)
    if classical:
        blocks = [random_lattice_polytope(rng, 3, rng.randint(4, 5), box=2).vertices
                  for _ in range(k)]
        return tci_from_mci(classical_mci(blocks))
    while True:
        ids = [f"a{i}" for i in range(rng.randint(k + 2, 6))]
        points = [tuple(rng.randint(-1, 2) for _ in range(3)) for _ in ids]
        cols = {i: tuple(rng.randint(-2, 2) for _ in range(k)) for i in ids}
        matroid = Matroid.from_matrix(cols)
        if matroid.rank(ids) == k:
            return tci_from_mci(MCI(SupportMultiset(zip(ids, points)), matroid, k))


def csm_by_monomials(tci, d):
    """Σ over a ≥ 1 with |a| = d of (−1)^(d−k)·m_1^{a_1}⋯m_k^{a_k}·T_0, the
    expansion of ∏ m_i/(1 + m_i) in degree d, each monomial folded from T_0."""
    n, k = tci.ambient, tci.codim
    pairs = []
    for a in product(range(1, d - k + 2), repeat=k):
        if sum(a) == d:
            factors = [m for m, e in zip(tci.functions, a) for _ in range(e)]
            fan = iterated_corner_locus(factors, tci.fans[0])
            pairs += [(cone, (-1) ** (d - k) * w) for cone, w in fan.cones]
    return consolidate(pairs, n, n - d)


@settings(max_examples=20)
@given(st.integers(0, 2**32), st.integers(1, 3), st.booleans())
def test_random_classes_equal_the_expanded_product(seed, k, classical):
    tci = random_chain(seed, k, classical)
    csm = tropical_csm(tci)
    assert [d for d, _ in csm.classes] == list(range(k, 4))
    if tci.collapsed_at is not None:
        assert all(fan.is_zero() for _, fan in csm.classes)
        return
    for d, fan in csm.classes:
        assert fans_equal(fan, csm_by_monomials(tci, d))
