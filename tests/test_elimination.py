"""Eliminant polytopes: projection route, shadow route, and their agreement."""

import sys
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from cone_reference import intersect
from elimination_reference import support_values as pullback_support_values
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropeci import elimination
from tropeci import mci as mci_module
from tropeci import ppfunc
from tropeci.cones import Cone, full_space
from tropeci.fans import WeightedFan
from tropeci.linalg import solve, vsub
from tropeci.mci import (MCI, TCI, Matroid, SupportMultiset, bkk_number, classical_mci,
                         tci_from_mci)
from tropeci.elimination import (
    DegenerateEliminant,
    MissingMCI,
    NotPrimitive,
    ProjectionSplit,
    eliminant_polytope,
    eliminant_support_value,
    mixed_shadow_volume,
    shadow_function,
    tropical_eliminant,
)
from tropeci.oracles import random_lattice_polytope, shifted_resultant_support
from tropeci.plfunc import (PLFunction, iterated_corner_locus, pl_add,
                            pl_from_polytope, pullback_linear)
from tropeci.polytopes import LatticePolytope


def unit_fan(d):
    return WeightedFan(d, [(full_space(d), 1)])


def flatten_last(m):
    """m(x, 0) as a function of (x, t)."""
    amb = m.ambient
    rows = [tuple(1 if j == i else 0 for j in range(amb))
            for i in range(amb - 1)]
    rows.append((0,) * amb)
    return pullback_linear(m, rows)


def gated_difference(m):
    """(m(x, t) - m(x, 0)) for t >= 0 and zero for t <= 0, as one PL function.

    Continuous because the two branches agree on t = 0.
    """
    amb = m.ambient
    e_t = (0,) * (amb - 1) + (1,)
    flat = flatten_last(m)
    cells = []
    for sign in (1, -1):
        half = Cone(amb, ineqs=[tuple(sign * x for x in e_t)])
        for cone, l in m.cells:
            for other, lz in flat.cells:
                piece = intersect(intersect(half, cone), other)
                if piece.dim == amb:
                    diff = vsub(l, lz) if sign > 0 else (0,) * amb
                    cells.append((piece, diff))
    return PLFunction(amb, cells)


def telescoping_value(ms):
    """Mixed shadow volume via the telescoping decomposition.

    The gated product difference equals the sum over k of
    (product of m_i(x, t) for i < k) * gated_difference(m_k) *
    (product of m_i(x, 0) for i > k); each summand is a product of
    piecewise-linear functions, so its contribution is an iterated
    corner-locus number.  This is an independent evaluation path used
    only as a test oracle.
    """
    amb = ms[0].ambient
    total = 0
    for k in range(len(ms)):
        factors = (list(ms[:k]) + [gated_difference(ms[k])]
                   + [flatten_last(m) for m in ms[k + 1:]])
        cut = iterated_corner_locus(factors, unit_fan(amb))
        total += cut.weight_of_point((0,) * amb)
    return total


def two_block_mci(points_f, points_g):
    """Two independent equations: one from each point block."""
    pts = [(f"f{i}", p) for i, p in enumerate(points_f)]
    pts += [(f"g{i}", p) for i, p in enumerate(points_g)]
    cols = {i: ((1, 0) if i.startswith("f") else (0, 1)) for i, _ in pts}
    return MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)


def shifted_graph_points(deg, marker, ambient=3):
    """Supports of p(x) - y_marker: powers of x plus one kept unit vector."""
    pts = [tuple(d if j == 0 else 0 for j in range(ambient))
           for d in range(deg + 1)]
    pts.append(tuple(1 if j == marker else 0 for j in range(ambient)))
    return pts


# -- shadow volumes of explicit systems ----------------------------------------


def test_no_t_dependence_means_zero_volume():
    seg = lambda d: pl_from_polytope(LatticePolytope([(0, 0), (d, 0)]))
    assert mixed_shadow_volume([seg(1), seg(3)]) == 0


def test_single_gate_measures_segment_length():
    m1 = pl_from_polytope(LatticePolytope([(0,), (1,)]))
    m3 = pl_from_polytope(LatticePolytope([(0,), (3,)]))
    assert mixed_shadow_volume([m1]) == 1
    assert mixed_shadow_volume([m3]) == 3


def test_orthogonal_segments_have_unit_volume():
    mx = pl_from_polytope(LatticePolytope([(0, 0), (1, 0)]))
    mt = pl_from_polytope(LatticePolytope([(0, 0), (0, 1)]))
    assert mixed_shadow_volume([mx, mt]) == 1


def test_factor_count_must_match_dimension():
    mx = pl_from_polytope(LatticePolytope([(0, 0), (1, 0)]))
    with pytest.raises(ValueError):
        mixed_shadow_volume([mx])
    with pytest.raises(ValueError):
        mixed_shadow_volume([])


def test_shadow_function_vanishes_on_negative_side():
    tri = pl_from_polytope(LatticePolytope([(0, 0), (1, 0), (0, 1)]))
    shadow = shadow_function([tri, tri])
    assert shadow.value((2, -1)) == 0
    assert shadow.value((-3, -2)) == 0
    v = shadow.value((0, 2))
    assert v == tri.value((0, 2)) ** 2 - tri.value((0, 0)) ** 2


def test_volume_additive_in_each_factor():
    rng = Random(7)
    a = pl_from_polytope(random_lattice_polytope(rng, 2, 4, box=2))
    b = pl_from_polytope(random_lattice_polytope(rng, 2, 4, box=2))
    c = pl_from_polytope(random_lattice_polytope(rng, 2, 4, box=2))
    lhs = mixed_shadow_volume([pl_add(a, b), c])
    assert lhs == mixed_shadow_volume([a, c]) + mixed_shadow_volume([b, c])


def test_volume_ignores_cell_presentation():
    tri = pl_from_polytope(LatticePolytope([(0, 0), (2, 0), (0, 1)]))
    seg = pl_from_polytope(LatticePolytope([(0, 0), (1, 1)]))
    base = mixed_shadow_volume([tri, seg])
    zero = PLFunction(2, [(Cone(2, ineqs=[(1, 2)]), (0, 0)),
                         (Cone(2, ineqs=[(-1, -2)]), (0, 0))])
    assert mixed_shadow_volume([pl_add(tri, zero), seg]) == base
    assert mixed_shadow_volume([tri, pl_add(seg, zero)]) == base


def test_telescoping_decomposition_agrees():
    tri = pl_from_polytope(LatticePolytope([(0, 0), (1, 0), (0, 1)]))
    assert mixed_shadow_volume([tri, tri]) == telescoping_value([tri, tri])
    rng = Random(11)
    for _ in range(4):
        ms = [pl_from_polytope(random_lattice_polytope(rng, 2, 4, box=2))
              for _ in range(2)]
        assert mixed_shadow_volume(ms) == telescoping_value(ms)
    for seed in (3, 19):
        rng = Random(seed)
        ms = [pl_from_polytope(random_lattice_polytope(rng, 3, 4, box=1))
              for _ in range(3)]
        assert mixed_shadow_volume(ms) == telescoping_value(ms)


# -- projection route ----------------------------------------------------------


def line_in_three_space():
    rays = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]
    return WeightedFan(3, [(Cone(3, rays=[r]), 1) for r in rays])


def test_line_projects_to_triangle():
    m, poly = tropical_eliminant(line_in_three_space(), ProjectionSplit(1, 2))
    assert poly.vertices == [(0, 0), (0, 1), (1, 0)]
    assert m.value((1, 1)) == 1
    assert m.value((-1, -1)) == 0


def test_cycle_inside_a_fiber_projects_to_point():
    vertical = WeightedFan(3, [(Cone(3, rays=[(1, 0, 0)]), 1),
                               (Cone(3, rays=[(-1, 0, 0)]), 1)])
    _, poly = tropical_eliminant(vertical, ProjectionSplit(1, 2))
    assert poly.vertices == [(0, 0)]


def test_zero_cycle_projects_to_point():
    _, poly = tropical_eliminant(WeightedFan(3, [], dim=1),
                                 ProjectionSplit(1, 2))
    assert poly.vertices == [(0, 0)]


def test_split_validation():
    with pytest.raises(ValueError):
        ProjectionSplit(-1, 2)
    with pytest.raises(ValueError):
        ProjectionSplit(2, 0)
    assert ProjectionSplit(2, 3).total_dim == 5
    with pytest.raises(ValueError):
        tropical_eliminant(line_in_three_space(), ProjectionSplit(2, 2))


# -- full pipeline on resultants of univariate polynomials ---------------------


def test_resultant_of_two_quadratics():
    mci = two_block_mci(shifted_graph_points(2, 1),
                        shifted_graph_points(2, 2))
    result = eliminant_polytope(mci, ProjectionSplit(1, 2),
                                verify_shadow=True)
    assert result.route == "both"
    assert result.polytope.vertices == [(0, 0), (0, 2), (2, 0)]
    hull = LatticePolytope(shifted_resultant_support(2, 2))
    assert result.polytope == hull.normalize_translation()


def test_resultant_of_quadratic_and_line():
    mci = two_block_mci(shifted_graph_points(2, 1),
                        shifted_graph_points(1, 2))
    result = eliminant_polytope(mci, ProjectionSplit(1, 2),
                                verify_shadow=True)
    assert result.route == "both"
    hull = LatticePolytope(shifted_resultant_support(2, 1))
    assert result.polytope == hull.normalize_translation()
    assert result.polytope.vertices == [(0, 0), (0, 2), (1, 0)]


def test_support_values_match_polytope():
    mci = two_block_mci(shifted_graph_points(2, 1),
                        shifted_graph_points(2, 2))
    result = eliminant_polytope(mci, ProjectionSplit(1, 2))
    assert result.route == "projection"
    rays = {r for cone, _ in result.polytope.normal_fan() for r in cone.rays}
    assert set(result.support_values) == rays
    for r, val in result.support_values.items():
        assert val == result.polytope.support(r)


def test_routes_agree_on_random_systems():
    rng = Random(5)
    done = 0
    while done < 3:
        pts = set()
        while len(pts) < 6:
            pts.add(tuple(rng.randint(-1, 2) for _ in range(3)))
        pts = sorted(pts)
        labeled = [(f"p{i}", p) for i, p in enumerate(pts)]
        cols = {i: (rng.randint(0, 3), rng.randint(0, 3)) for i, _ in labeled}
        matroid = Matroid.from_matrix(cols)
        if matroid.rank(list(cols)) < 2:
            continue
        mci = MCI(SupportMultiset(labeled), matroid, 2)
        try:
            result = eliminant_polytope(mci, ProjectionSplit(1, 2),
                                        verify_shadow=True)
        except DegenerateEliminant:
            continue
        assert result.route == "both"
        done += 1


def test_routes_agree_in_five_dimensions():
    # two coordinates eliminated from ℤ⁵, seven points of {0,1}⁵
    pts = [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 0),
           (1, 0, 0, 0, 1), (1, 0, 1, 0, 0), (1, 1, 1, 1, 1)]
    cols = [(2, 0, 2), (1, 0, 1), (0, 2, -2), (-2, 2, 1), (-1, 0, -1),
            (1, 1, -2), (-2, 2, 2)]
    ids = [f"a{i}" for i in range(len(pts))]
    mci = MCI(SupportMultiset(zip(ids, pts)),
              Matroid.from_matrix(dict(zip(ids, cols))), 3)
    result = eliminant_polytope(mci, ProjectionSplit(2, 3), verify_shadow=True)
    assert result.route == "both"
    assert result.polytope.dim == 3


def test_one_region_walk_per_direction_and_none_pulled_back(monkeypatch):
    # the shadow values come from shifted MCIs: one chain for the input, one
    # slope chain and one chain per direction, each walked once from the
    # root, with no pullback and no call into ppfunc
    mci = two_block_mci(shifted_graph_points(2, 1), shifted_graph_points(2, 2))
    chains, walks, pullbacks, pp_calls = [], [], [], []
    build = elimination.tci_from_mci
    monkeypatch.setattr(elimination, "tci_from_mci",
                        lambda m: chains.append(m) or build(m))
    children = mci_module._children
    monkeypatch.setattr(mci_module, "_children", lambda m, prefix, region:
                        (walks.append(m) if prefix == () else None) or
                        children(m, prefix, region))
    pullback = elimination.pullback_linear
    monkeypatch.setattr(elimination, "pullback_linear",
                        lambda m, rows: pullbacks.append(rows) or pullback(m, rows))

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == ppfunc.__file__:
            pp_calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = eliminant_polytope(mci, ProjectionSplit(1, 2), verify_shadow=True)
    finally:
        sys.setprofile(None)
    assert result.route == "both"
    assert chains[0] is mci and len(chains) == 1 + 1 + len(result.support_values)
    assert all(m.ambient == 2 and len(m.support) == 2 * len(mci.support)
               for m in chains[1:])
    assert walks == chains
    assert pullbacks == [] and pp_calls == []
    monkeypatch.undo()
    # and the shifted MCIs give the values of the per-direction shadow
    tci = tci_from_mci(mci)
    for r in result.support_values:
        rows = [(1, 0), (0, r[0]), (0, r[1])]
        ms = [pullback_linear(m, rows) for m in tci.functions]
        assert eliminant_support_value(tci, r) == mixed_shadow_volume(ms)


def shifted_value(mci, n, v, c):
    """BKK(shifted(v, c)) − c·BKK(shifted(0, 1)), on the derived matroid."""
    matroid = Matroid([(i, s) for i in mci.support.ids() for s in (0, 1)],
                      lambda ids: mci.matroid.rank({i for i, _ in ids}))

    def number(v, c):
        return bkk_number(tci_from_mci(elimination._shifted_mci(mci, matroid, n, v, c)))

    return number(v, c) - c * number((0,) * len(v), 1)


@st.composite
def classical_systems(draw):
    """A classical MCI for a split, with repeated points, and directions.

    One point of a drawn block is repeated in another block (or its own), so
    some ids share a point under parallel and some under independent columns.
    """
    split = draw(st.sampled_from([ProjectionSplit(1, 2), ProjectionSplit(2, 2)]))
    dim, codim = split.total_dim, split.eliminated + 1
    point = st.tuples(*[st.integers(0, 2)] * dim)
    blocks = [draw(st.lists(point, min_size=2, max_size=3, unique=True))
              for _ in range(codim)]
    source, target = draw(st.integers(0, codim - 1)), draw(st.integers(0, codim - 1))
    blocks[target].append(draw(st.sampled_from(blocks[source])))
    direction = st.tuples(*[st.integers(-2, 2)] * split.kept).filter(
        lambda v: gcd(*v) == 1)
    vs = draw(st.lists(direction, min_size=1, max_size=2, unique=True))
    return classical_mci(blocks), split, vs


@settings(max_examples=30)
@given(classical_systems())
def test_shifted_route_agrees_with_the_pullback_route_on_classical_systems(system):
    mci, split, vs = system
    tci = tci_from_mci(mci)
    assume(tci.collapsed_at is None)
    n = split.eliminated
    expected = pullback_support_values(tci, vs, n)
    assert [eliminant_support_value(tci, v) for v in vs] == expected
    # C = 1 + max |v·p_kept| is inside the range where the BKK number is
    # affine in C: one more gives the same value
    for v, value in zip(vs, expected):
        c = 1 + max(abs(sum(a * b for a, b in zip(v, p[n:])))
                    for _, p in mci.support.points)
        assert shifted_value(mci, n, v, c) == shifted_value(mci, n, v, c + 1) == value


@st.composite
def systems_with_a_loop(draw):
    """A random MCI for a split, with a repeated point and a loop, and directions.

    The loop's column is zero, so ``MCI`` drops it from the support while the
    matroid's ground keeps it.
    """
    split = draw(st.sampled_from([ProjectionSplit(1, 2), ProjectionSplit(2, 2)]))
    dim, codim = split.total_dim, split.eliminated + 1
    point = st.tuples(*[st.integers(-1, 1)] * dim)
    pts = draw(st.lists(point, min_size=codim + 1, max_size=5, unique=True))
    pts.append(draw(st.sampled_from(pts)))
    column = st.tuples(*[st.integers(-2, 2)] * codim)
    cols = {f"p{i}": draw(column) for i in range(len(pts))}
    labeled = [(f"p{i}", p) for i, p in enumerate(pts)]
    labeled.append(("loop", draw(point)))
    cols["loop"] = (0,) * codim
    matroid = Matroid.from_matrix(cols)
    assume(matroid.rank(list(cols)) >= codim)
    direction = st.tuples(*[st.integers(-2, 2)] * split.kept).filter(
        lambda v: gcd(*v) == 1)
    vs = draw(st.lists(direction, min_size=1, max_size=2, unique=True))
    return MCI(SupportMultiset(labeled), matroid, codim), split, vs


@settings(max_examples=20)
@given(systems_with_a_loop())
def test_shifted_route_agrees_with_the_pullback_route_with_a_loop(system):
    mci, split, vs = system
    tci = tci_from_mci(mci)
    assume(tci.collapsed_at is None)
    assert [eliminant_support_value(tci, v) for v in vs] == \
        pullback_support_values(tci, vs, split.eliminated)


# -- input validation -----------------------------------------------------------


def test_direction_must_be_primitive():
    mci = two_block_mci(shifted_graph_points(1, 1),
                        shifted_graph_points(1, 2))
    tci = tci_from_mci(mci)
    with pytest.raises(NotPrimitive):
        eliminant_support_value(tci, (2, 4))
    with pytest.raises(NotPrimitive):
        eliminant_support_value(tci, (0, 0))
    with pytest.raises(ValueError):
        eliminant_support_value(tci, (1, 0, 0, 0))


def test_fractional_direction_is_rejected_not_truncated():
    mci = two_block_mci(shifted_graph_points(1, 1),
                        shifted_graph_points(1, 2))
    tci = tci_from_mci(mci)
    # truncation would read (1.5, 1) as the primitive direction (1, 1)
    with pytest.raises(ValueError):
        eliminant_support_value(tci, (1.5, 1))
    with pytest.raises(ValueError):
        eliminant_support_value(tci, (Fraction(1, 2), 1))
    assert eliminant_support_value(tci, (1.0, Fraction(1))) == \
        eliminant_support_value(tci, (1, 1))


def test_a_hand_built_chain_has_no_mci_to_restrict():
    mci = two_block_mci(shifted_graph_points(2, 1), shifted_graph_points(2, 2))
    tci = tci_from_mci(mci)
    assert eliminant_support_value(tci, (1, 1)) == 2
    with pytest.raises(MissingMCI):
        eliminant_support_value(TCI(tci.fans[0], tci.functions), (1, 1))


def test_collapsed_intersection_is_rejected():
    pts = [("a", (0, 0, 0)), ("b", (0, 0, 0))]
    cols = {"a": (1, 0), "b": (0, 1)}
    mci = MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)
    with pytest.raises(DegenerateEliminant):
        eliminant_polytope(mci, ProjectionSplit(1, 2))
    tci = tci_from_mci(mci)
    with pytest.raises(DegenerateEliminant):
        eliminant_support_value(tci, (1, 0))


def test_split_must_match_system():
    mci = two_block_mci(shifted_graph_points(1, 1),
                        shifted_graph_points(1, 2))
    with pytest.raises(ValueError):
        eliminant_polytope(mci, ProjectionSplit(2, 2))
    with pytest.raises(ValueError):
        eliminant_polytope(mci, ProjectionSplit(2, 1))
