"""Matroid thresholds, TCI chains, and generalized BKK numbers."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropeci import mci as mci_module
from tropeci.cones import Cone, full_space
from tropeci.fans import (
    NotBalanced,
    WeightedFan,
    _wall_step,
    fans_equal,
    stable_intersection_number,
)
from tropeci.linalg import dot, vsub
from tropeci.mci import (
    MAX_TABLE_GROUND,
    MCI,
    Matroid,
    NotABasis,
    NotZeroDimensional,
    RankDeficient,
    RankTableTooLarge,
    SupportMultiset,
    TCI,
    ThresholdFunction,
    UnknownElement,
    _children,
    _edge_walls,
    _envelope_pieces,
    bkk_number,
    chirotope,
    classical_mci,
    tci_from_mci,
    tci_threshold,
)
from tropeci.oracles import polygon_curve_rays, random_lattice_polytope
from tropeci.plfunc import PLFunction, corner_locus, pl_from_polytope, refine_with_function
from tropeci.polytopes import LatticePolytope, mixed_volume_ie


def hexagon_mci():
    pts = [("r1", (0, 0)), ("r2", (1, 0)), ("g1", (2, 1)),
           ("g2", (2, 2)), ("b1", (0, 1)), ("b2", (1, 2))]
    cols = {"r1": (1, 1), "r2": (1, 1), "g1": (1, 2),
            "g2": (1, 2), "b1": (1, 3), "b2": (1, 3)}
    return MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)


def threshold_bruteforce(matroid, support, k, l):
    """Largest level m with rank{a : l(a) ≥ m} ≥ k, by direct descent."""
    for m in sorted({dot(l, p) for _, p in support.points}, reverse=True):
        ids = [i for i, p in support.points if dot(l, p) >= m]
        if matroid.rank(ids) >= k:
            return m
    raise RankDeficient(k)


def threshold_by_subsets(matroid, support, k, l):
    """Max over independent k-subsets of the worst value (direct search)."""
    best = None
    for sub in combinations(support.ids(), k):
        if matroid.rank(sub) < k:
            continue
        worst = min(dot(l, support.point(i)) for i in sub)
        best = worst if best is None else max(best, worst)
    if best is None:
        raise RankDeficient(k)
    return best


# -- matroid basics -----------------------------------------------------------


def test_rank_matrix_oracle():
    m = Matroid.from_matrix({"a": (1, 1), "b": (1, 1), "c": (1, 2)})
    assert m.rank([]) == 0
    assert m.rank(["a", "b"]) == 1
    assert m.rank(["a", "c"]) == 2
    with pytest.raises(UnknownElement):
        m.rank(["a", "zzz"])


@pytest.mark.parametrize("make", [
    lambda: Matroid.from_matrix({"a": (1, 1), "b": (1, 1), "c": (1, 2)}),
    lambda: Matroid.from_rank_table(
        "abc", {frozenset(s): min(len(s), 2) for r in range(4)
                for s in combinations("abc", r)}),
    lambda: Matroid.from_matrix({"a": (1, 1), "b": (1, 1), "c": (1, 2)}).truncate(1),
])
def test_an_unknown_id_is_refused_before_and_after_a_cached_call(make):
    m = make()
    with pytest.raises(UnknownElement):
        m.rank(["a", "zzz"])
    assert m.rank(["a", "c"]) == m.rank(["c", "a"]) > 0
    for subset in (["a", "zzz"], ["zzz"], ["a", "c", "zzz"]):
        with pytest.raises(UnknownElement):
            m.rank(subset)


def test_rank_one_per_binomial_is_two():
    m = hexagon_mci().matroid
    assert m.rank(["r1", "g1", "b1"]) == 2
    assert m.rank(["r1", "g2"]) == 2
    assert m.rank(["g1", "g2"]) == 1


def test_rank_table_roundtrip_and_validation():
    ground = ["a", "b", "c"]
    u23 = {}
    for r in range(4):
        for s in combinations(ground, r):
            u23[frozenset(s)] = min(len(s), 2)
    m = Matroid.from_rank_table(ground, u23)
    assert m.rank(["a", "b", "c"]) == 2

    bad = dict(u23)
    bad[frozenset(["a", "b"])] = 3  # jumps by 2 over {a}
    with pytest.raises(ValueError):
        Matroid.from_rank_table(ground, bad)

    nonsub = {frozenset(): 0}
    for s in [("a",), ("b",), ("c",)]:
        nonsub[frozenset(s)] = 1
    for s in [("a", "b"), ("a", "c"), ("b", "c")]:
        nonsub[frozenset(s)] = 1
    nonsub[frozenset(["a", "b", "c"])] = 2
    with pytest.raises(ValueError):
        Matroid.from_rank_table(ground, nonsub)

    with pytest.raises(ValueError):
        Matroid.from_rank_table(ground, {frozenset(): 1})


def test_rank_table_above_the_limit_is_refused_by_name():
    ground = list(range(MAX_TABLE_GROUND + 1))
    table = {frozenset(s): len(s) for r in range(3) for s in combinations(ground, r)}
    with pytest.raises(RankTableTooLarge, match=f"at most {MAX_TABLE_GROUND}"):
        Matroid.from_rank_table(ground, table)
    small = ground[:MAX_TABLE_GROUND]
    table = {frozenset(s): min(len(s), 1) for r in range(len(small) + 1)
             for s in combinations(small, r)}
    assert Matroid.from_rank_table(small, table).rank(small) == 1


def test_truncation():
    cols = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1), "d": (1, 1, 1)}
    m = Matroid.from_matrix(cols)
    assert m.truncate(5).rank(cols.keys()) == 3
    t0 = m.truncate(0)
    assert all(t0.rank([i]) == 0 for i in cols)
    t2 = m.truncate(2)
    for pair in combinations(cols, 2):
        assert t2.rank(pair) == 2
    for triple in combinations(cols, 3):
        assert t2.rank(triple) == 2


def test_chirotope_signs():
    cols = {"a": (1, 0), "b": (0, 1), "c": (2, 0)}
    assert chirotope(cols, ["a", "b"]) == 1
    assert chirotope(cols, ["b", "a"]) == -1
    assert chirotope(cols, ["a", "c"]) == 0
    with pytest.raises(NotABasis):
        chirotope(cols, ["a"])
    with pytest.raises(UnknownElement):
        chirotope(cols, ["a", "zzz"])


# -- thresholds ---------------------------------------------------------------


def test_threshold_k1_is_support_maximum():
    mci = hexagon_mci()
    for l in [(1, 0), (0, -1), (2, 3), (-1, -1)]:
        expected = max(dot(l, p) for _, p in mci.support.points)
        assert tci_threshold(mci.matroid, mci.support, 1, l) == expected


def test_threshold_keeps_top_value_on_mixed_edges():
    # normal to an edge whose maximizers span rank 2: no drop
    mci = hexagon_mci()
    assert tci_threshold(mci.matroid, mci.support, 2, (1, -1)) == 1
    assert tci_threshold(mci.matroid, mci.support, 1, (1, -1)) == 1


def test_threshold_drops_on_rank_one_edges():
    # normals to the edges carried by a single column direction
    mci = hexagon_mci()
    cases = {(0, -1): (0, -1), (1, 0): (2, 1), (-1, 1): (1, 0)}
    for l, (m1, m2) in cases.items():
        assert tci_threshold(mci.matroid, mci.support, 1, l) == m1
        assert tci_threshold(mci.matroid, mci.support, 2, l) == m2


def test_threshold_rank_deficient():
    mci = hexagon_mci()
    with pytest.raises(RankDeficient):
        tci_threshold(mci.matroid, mci.support, 3, (1, 0))


def test_threshold_rejects_a_covector_of_the_wrong_width():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    mci = classical_mci([cube, cube, cube])
    with pytest.raises(ValueError, match="length"):
        tci_threshold(mci.matroid, mci.support, 1, (1,))
    m = tci_from_mci(mci).functions[0]
    assert isinstance(m, ThresholdFunction)
    for x in [(1,), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="length"):
            m.value(x)


def test_a_threshold_index_below_one_is_refused():
    mci = classical_mci([[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    for k in (0, -1):
        with pytest.raises(ValueError, match="< 1"):
            tci_threshold(mci.matroid, mci.support, k, (1, 2))
        with pytest.raises(ValueError, match="< 1"):
            ThresholdFunction(mci, k)


def test_threshold_agrees_with_sublevel_and_subset_oracles():
    rng = Random(404)
    for _ in range(12):
        npts = rng.randint(3, 6)
        pts = [(f"p{j}", (rng.randint(-3, 3), rng.randint(-3, 3)))
               for j in range(npts)]
        cols = {f"p{j}": (rng.randint(-2, 2), rng.randint(-2, 2))
                for j in range(npts)}
        matroid = Matroid.from_matrix(cols)
        support = SupportMultiset(pts)
        l = (rng.randint(-4, 4), rng.randint(-4, 4))
        for k in (1, 2):
            if matroid.rank(support.ids()) < k:
                continue
            got = tci_threshold(matroid, support, k, l)
            assert got == threshold_bruteforce(matroid, support, k, l)
            assert got == threshold_by_subsets(matroid, support, k, l)


# -- the chain ----------------------------------------------------------------


def test_hexagon_chain_frozen():
    tci = tci_from_mci(hexagon_mci())
    assert tci.collapsed_at is None
    t1 = tci.fans[1]
    rays = sorted(c.rays[0] for c, _ in t1.cones)
    assert rays == sorted([(0, -1), (1, -1), (1, 0), (0, 1), (-1, 0), (-1, 1)])
    assert all(w == 1 for _, w in t1.cones)
    m2 = tci.functions[1]
    values = {(1, -1): 1, (0, 1): 2, (-1, 0): 0,
              (0, -1): -1, (1, 0): 1, (-1, 1): 0}
    for r, v in values.items():
        assert m2.value(r) == v
    assert bkk_number(tci) == 3


def test_chain_invariants_recheck():
    tci = tci_from_mci(hexagon_mci())
    for i, m in enumerate(tci.functions, 1):
        assert fans_equal(corner_locus(m, tci.fans[i - 1]), tci.fans[i])
    # thresholds are continuous and nested on the supporting fans
    for m in tci.functions:
        assert m.check_continuity()
    m1, m2 = tci.functions
    for cone, _ in tci.fans[1].cones:
        x = cone.relint_point()
        assert m2.value(x) <= m1.value(x)


def test_a_hand_built_chain_folds_its_own_fans():
    tci = tci_from_mci(hexagon_mci())
    again = TCI(tci.fans[0], tci.functions)
    assert again.codim == 2 and again.collapsed_at is None and again.mci is None
    assert all(fans_equal(a, b) for a, b in zip(again.fans, tci.fans))
    assert bkk_number(again) == bkk_number(tci) == 3


def test_support_points_are_read_exactly():
    with pytest.raises(ValueError, match="non-integral coordinate"):
        SupportMultiset([("a", (0.5, 0))])
    with pytest.raises(ValueError, match="non-integral coordinate"):
        classical_mci([[(0.5, 0), (1, 0)]])
    support = SupportMultiset([("a", (1.0, Fraction(4, 2)))])
    assert support.point("a") == (1, 2)
    assert all(type(x) is int for x in support.point("a"))


def test_loops_are_dropped():
    pts = [("r1", (0, 0)), ("r2", (1, 0)), ("g1", (2, 1)), ("g2", (2, 2)),
           ("b1", (0, 1)), ("b2", (1, 2)), ("z", (5, 5))]
    cols = {"r1": (1, 1), "r2": (1, 1), "g1": (1, 2), "g2": (1, 2),
            "b1": (1, 3), "b2": (1, 3), "z": (0, 0)}
    mci = MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)
    assert mci.loops == ["z"]
    assert len(mci.support) == 6
    assert bkk_number(tci_from_mci(mci)) == 3


def test_repeated_single_point_collapses():
    pts = [("p1", (1, 1)), ("p2", (1, 1))]
    cols = {"p1": (1, 0), "p2": (0, 1)}
    mci = MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)
    tci = tci_from_mci(mci)
    assert tci.collapsed_at == 1
    assert bkk_number(tci) == 0


def test_codim_mismatch_raises():
    mci = hexagon_mci()
    short = MCI(mci.support, mci.matroid, 1)
    with pytest.raises(NotZeroDimensional):
        bkk_number(tci_from_mci(short))


def test_rank_deficient_mci():
    pts = [("a", (0, 0)), ("b", (1, 0))]
    cols = {"a": (1, 1), "b": (1, 1)}
    with pytest.raises(RankDeficient):
        MCI(SupportMultiset(pts), Matroid.from_matrix(cols), 2)


def test_determinism():
    a = tci_from_mci(hexagon_mci())
    b = tci_from_mci(hexagon_mci())
    for fa, fb in zip(a.fans, b.fans):
        assert [c.key() for c, _ in fa.cones] == [c.key() for c, _ in fb.cones]
    for ma, mb in zip(a.functions, b.functions):
        assert [(c.key(), l) for c, l in ma.cells] == \
            [(c.key(), l) for c, l in mb.cells]


# -- classical consistency ----------------------------------------------------


def test_classical_two_segments():
    mci = classical_mci([[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    assert bkk_number(tci_from_mci(mci)) == 1


def test_classical_squares_and_triangles():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    tri = [(0, 0), (1, 0), (0, 1)]
    cases = [([square, square], 2), ([square, tri], 2), ([tri, tri], 1)]
    for supports, expected in cases:
        assert bkk_number(tci_from_mci(classical_mci(supports))) == expected
        polys = [LatticePolytope(s) for s in supports]
        assert mixed_volume_ie(polys) == expected


def test_classical_matches_mixed_volume_randomly():
    rng = Random(77)
    done = 0
    while done < 6:
        ps = [random_lattice_polytope(rng, 2, rng.randint(3, 4), box=2)
              for _ in range(2)]
        supports = [p.vertices for p in ps]
        mci = classical_mci(supports)
        if mci.matroid.rank(mci.support.ids()) < 2:
            continue
        done += 1
        assert bkk_number(tci_from_mci(mci)) == mixed_volume_ie(list(ps))


def test_classical_three_dimensional():
    segs = [[(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 0)],
            [(0, 0, 0), (0, 0, 1)]]
    assert bkk_number(tci_from_mci(classical_mci(segs))) == 1
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    mci = classical_mci([cube, segs[0] + segs[1], segs[2]])
    expected = mixed_volume_ie([LatticePolytope(cube),
                                LatticePolytope(segs[0] + segs[1]),
                                LatticePolytope(segs[2])])
    assert bkk_number(tci_from_mci(mci)) == expected


def test_bkk_nonnegative_on_random_matrix_mcis():
    rng = Random(909)
    done = 0
    while done < 6:
        npts = rng.randint(3, 6)
        pts = [(f"p{j}", (rng.randint(-2, 2), rng.randint(-2, 2)))
               for j in range(npts)]
        cols = {f"p{j}": (rng.randint(-2, 2), rng.randint(-2, 2))
                for j in range(npts)}
        matroid = Matroid.from_matrix(cols)
        support = SupportMultiset(pts)
        nonloops = [i for i in support.ids() if matroid.rank([i]) == 1]
        if matroid.rank(nonloops) < 2 or not nonloops:
            continue
        done += 1
        mci = MCI(support, matroid, 2)
        assert bkk_number(tci_from_mci(mci)) >= 0


# -- selection regions --------------------------------------------------------


def prefix_regions_from_scratch(mci, depth):
    """(prefix, region key) of every greedy prefix of length 1 to depth whose
    region is full dimensional, each region converted from all of its
    inequalities (the walk before regions were cut from their parents)."""
    n, point = mci.ambient, mci.support.point
    ids = sorted(mci.support.ids())
    regions, stack = {(): []}, [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == depth:
            continue
        eligible = [a for a in ids if a not in prefix
                    and mci.matroid.rank(list(prefix) + [a]) > len(prefix)]
        for a in eligible:
            diffs = [vsub(point(a), point(b)) for b in eligible if b != a]
            ineqs = regions[prefix] + [d for d in diffs if any(d)]
            if Cone(n, ineqs=ineqs).dim == n:
                regions[prefix + (a,)] = ineqs
                stack.append(prefix + (a,))
    return [(p, Cone(n, ineqs=q).key()) for p, q in regions.items() if p]


@st.composite
def small_mcis(draw):
    """A generic MCI (random points and columns) or a classical one."""
    n = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(-1, 2)] * n)
    if draw(st.booleans()):
        blocks = [draw(st.lists(point, min_size=2, max_size=4, unique=True))
                  for _ in range(n)]
        return classical_mci(blocks)
    pts = draw(st.lists(point, min_size=n + 1, max_size=n + 4))
    cols = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in pts]
    ids = [f"a{i}" for i in range(len(pts))]
    matroid = Matroid.from_matrix(dict(zip(ids, cols)))
    assume(matroid.rank(ids) == n)
    return MCI(SupportMultiset(zip(ids, pts)), matroid, n)


@settings(max_examples=30)
@given(small_mcis())
def test_prefix_regions_match_regions_converted_from_scratch(mci):
    # every level is cut on from the regions of length one, which are the
    # children of the full space
    m = tci_from_mci(mci).functions[0]
    got = {p: cone.key() for k in range(1, mci.codim + 1) for p, cone in m._level(k).items()}
    assert got == dict(prefix_regions_from_scratch(mci, mci.codim))


def classical_blocks(mci):
    """The blocks of a ``classical_mci``, read from its ids "i:j", or None."""
    if not all(":" in i for i in mci.support.ids()):
        return None
    blocks = [[] for _ in range(mci.codim)]
    for i, p in mci.support.points:
        blocks[int(i.split(":")[0])].append(p)
    return blocks


@settings(max_examples=30)
@given(small_mcis())
def test_bkk_number_equals_the_mixed_volume_or_the_stable_intersection(mci):
    # classical input: Bernstein's mixed volume of the blocks; generic input:
    # the curve T_{n-1} met stably with the whole divisor of m_n, the route
    # that reads m_n by its cells
    n = mci.ambient
    tci = tci_from_mci(mci)
    number = bkk_number(tci)
    blocks = classical_blocks(mci)
    if blocks is not None:
        assert number == mixed_volume_ie([LatticePolytope(b) for b in blocks])
    elif tci.collapsed_at is not None:
        assert number == 0
    else:
        divisor = corner_locus(tci.functions[-1], WeightedFan(n, [(full_space(n), 1)]))
        assert number == stable_intersection_number(tci.fans[-2], divisor)


# -- the corner locus on a curve ----------------------------------------------


def wall_step_locus(m, curve):
    """The corner locus of m on a curve by the general step: refine the curve
    by the cells of m, then weigh the walls of the pieces."""
    walls = _wall_step(refine_with_function(curve, m), curve.ambient,
                       lambda piece, first, u: piece[1] * dot(vsub(piece[2], first[2]), u))
    return WeightedFan(curve.ambient, walls, dim=0)


def assert_same_point_cycle(got, want):
    """Equal cones by key and by containment of the origin and the unit
    vectors, with equal weights."""
    assert got.dim == want.dim == 0
    assert [(c.key(), w) for c, w in got.cones] == [(c.key(), w) for c, w in want.cones]
    n = got.ambient
    probes = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert [[c.contains(x) for x in probes] for c, _ in got.cones] == \
        [[c.contains(x) for x in probes] for c, _ in want.cones]


def ray_curve(pairs):
    return WeightedFan(2, [(Cone(2, rays=[r]), w) for r, w in pairs])


@settings(max_examples=30)
@given(small_mcis(), st.data())
def test_the_curve_step_equals_the_general_wall_step(mci, data):
    n = mci.ambient
    tci = tci_from_mci(mci)
    point = st.tuples(*[st.integers(-1, 2)] * n)
    poly = LatticePolytope(data.draw(st.lists(point, min_size=1, max_size=5, unique=True)))
    functions = [pl_from_polytope(poly), *tci.functions]
    curves = [] if tci.collapsed_at is not None else [tci.fans[-2]]
    if n == 2:
        rng = Random(data.draw(st.integers(0, 2 ** 16)))
        curves.append(ray_curve(polygon_curve_rays(random_lattice_polytope(rng, 2, 4))))
    for curve in curves:
        assert curve.dim == 1
        for m in functions:
            assert_same_point_cycle(corner_locus(m, curve), wall_step_locus(m, curve))


def test_the_curve_step_reads_a_line_twice_and_rejects_an_unbalanced_curve():
    line = Cone(2, rays=[], lineality=[(1, 2)])
    tropical_line = [(Cone(2, rays=[r]), 1) for r in [(1, 0), (0, 1), (-1, -1)]]
    curve = WeightedFan(2, [(line, 2), *tropical_line])
    poly = LatticePolytope([(0, 0), (2, 0), (0, 1), (1, 2)])
    plane = WeightedFan(2, [(full_space(2), 1)])
    for m in [pl_from_polytope(poly), tci_from_mci(hexagon_mci()).functions[-1]]:
        got = corner_locus(m, curve)
        assert_same_point_cycle(got, wall_step_locus(m, curve))
        assert got.weight_of_point((0, 0)) == \
            stable_intersection_number(curve, corner_locus(m, plane)) > 0
    # a line given by a multiple of its generator counts once
    doubled = Cone(2, rays=[], lineality=[(2, 4)], ineqs=[], eqs=[(2, -1)], _trusted=True)
    assert doubled.key() == line.key()
    assert_same_point_cycle(corner_locus(m, WeightedFan(2, [(doubled, 2), *tropical_line])),
                            corner_locus(m, curve))
    unbalanced = WeightedFan(2, [(line, 1), (Cone(2, rays=[(1, 0)]), 1)])
    with pytest.raises(NotBalanced):
        corner_locus(m, unbalanced)
    with pytest.raises(NotBalanced):
        wall_step_locus(m, unbalanced)


def generic_z3_mci():
    """7 points in {-1..2}³ with rank-3 columns in {-2..2}³, as ``bkk_chain`` draws."""
    rng = Random(501)
    while True:
        pts = [tuple(rng.randint(-1, 2) for _ in range(3)) for _ in range(7)]
        cols = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(7)]
        ids = [f"a{i}" for i in range(7)]
        matroid = Matroid.from_matrix(dict(zip(ids, cols)))
        if len(set(pts)) == 7 and matroid.rank(ids) == 3:
            return MCI(SupportMultiset(zip(ids, pts)), matroid, 3)


def generic_z4_mci():
    """6 points in {-1..1}⁴ with rank-3 columns in {-2..2}³, codimension 2."""
    rng = Random(502)
    while True:
        pts = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(6)]
        cols = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(6)]
        ids = [f"a{i}" for i in range(6)]
        matroid = Matroid.from_matrix(dict(zip(ids, cols)))
        if len(set(pts)) == 6 and matroid.rank(ids) == 3:
            return MCI(SupportMultiset(zip(ids, pts)), matroid, 2)


def level_cells(mci, k):
    """(key, covector) of the distinct cells on level k of a walk from the
    root that converts each region from scratch, sorted by key, as
    ``ThresholdFunction.cells`` lists them."""
    seen = {}
    for prefix, key in sorted(prefix_regions_from_scratch(mci, k)):
        if len(prefix) == k:
            seen.setdefault((key, mci.support.point(prefix[-1])), None)
    return sorted(seen, key=lambda kl: kl[0])


@pytest.mark.parametrize("make", [generic_z3_mci, generic_z4_mci])
def test_cells_are_tiled_level_by_level_from_a_walk_of_depth_one(make):
    mci = make()
    tci_from_mci(mci)
    assert max(map(len, mci._regions)) == 1
    for k in (2, 3):
        m = ThresholdFunction(mci, k)
        assert [(c.key(), l) for c, l in m.cells] == level_cells(mci, k)


@st.composite
def chain_mcis(draw):
    """An MCI in ℤ²–ℤ⁴ of codimension 2 to n: classical (one block per
    function) or generic, with loops, repeated points under different
    columns, and supports on the hyperplane x_n = x_1."""
    n, codim = draw(st.sampled_from([(n, c) for n in (2, 3, 4) for c in range(2, n + 1)]))
    point = st.tuples(*[st.integers(-1, 1 if n == 4 else 2)] * n)
    flat = draw(st.integers(0, 3)) == 0

    def place(p):
        return p[:-1] + (p[0],) if flat else p

    if draw(st.booleans()):
        blocks = [[place(p) for p in draw(st.lists(point, min_size=2, max_size=4))]
                  for _ in range(codim)]
        mci = classical_mci(blocks)
        assume(mci.matroid.rank(mci.support.ids()) == codim)
        return mci
    pts = [place(p) for p in draw(st.lists(point, min_size=codim + 1, max_size=6))]
    if draw(st.booleans()):
        pts.append(pts[0])  # a repeated point; its column is drawn afresh
    height = draw(st.integers(codim, codim + 1))
    cols = [draw(st.tuples(*[st.integers(-2, 2)] * height)) for _ in pts]
    if draw(st.booleans()):
        cols[-1] = (0,) * height  # a loop
    ids = [f"a{i}" for i in range(len(pts))]
    matroid = Matroid.from_matrix(dict(zip(ids, cols)))
    assume(matroid.rank(ids) >= codim)
    return MCI(SupportMultiset(zip(ids, pts)), matroid, codim)


def keyed(fan):
    return sorted(((c.key(), w) for c, w in fan.cones), key=lambda kw: kw[0])


@settings(max_examples=40)
@given(chain_mcis())
def test_the_edge_fold_is_the_corner_locus_of_m1_on_the_full_space(mci):
    n = mci.ambient
    tci = tci_from_mci(mci)
    want = corner_locus(tci.functions[0], WeightedFan(n, [(full_space(n), 1)]))
    assert tci.fans[1].dim == want.dim == n - 1
    assert keyed(tci.fans[1]) == keyed(want)


@settings(max_examples=40)
@given(chain_mcis())
def test_the_prefix_fold_is_the_corner_locus_of_m2_on_the_edge_fan(mci):
    tci = tci_from_mci(mci)
    assume(tci.collapsed_at is None)
    want = corner_locus(tci.functions[1], tci.fans[1])
    assert tci.fans[2].dim == want.dim == mci.ambient - 2
    assert keyed(tci.fans[2]) == keyed(want)


@settings(max_examples=40)
@given(chain_mcis())
def test_every_fold_is_the_corner_locus_of_the_cells(mci):
    # the reference folds every function, by refinement, as plain cells;
    # all codim of them are built, since a collapse cuts tci.functions short
    n = mci.ambient
    tci = tci_from_mci(mci)
    want = TCI(tci.fans[0], [PLFunction(n, ThresholdFunction(mci, k).cells)
                             for k in range(1, mci.codim + 1)])
    assert tci.collapsed_at == want.collapsed_at
    assert [keyed(fan) for fan in tci.fans] == [keyed(fan) for fan in want.fans]


def test_a_hand_built_chain_of_threshold_functions_folds_like_tci_from_mci():
    # the functions read the regions of length one off the MCI, so a chain
    # built by hand cannot be handed wrong ones
    mci = classical_mci([[(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 0), (0, 2)]])
    by_hand = TCI(WeightedFan(2, [(full_space(2), 1)]),
                  [ThresholdFunction(mci, 1), ThresholdFunction(mci, 2)])
    built = tci_from_mci(mci)
    assert by_hand.collapsed_at is built.collapsed_at is None
    assert [keyed(fan) for fan in by_hand.fans] == [keyed(fan) for fan in built.fans]
    assert bkk_number(by_hand) == bkk_number(built) == 2


def record_parents(monkeypatch):
    """(prefix length, region dimension) of every call of ``_children`` and
    ``_envelope_pieces``, appended to the list returned."""
    parents = []
    for name in ("_children", "_envelope_pieces"):
        monkeypatch.setattr(mci_module, name, lambda m, prefix, region,
                            cut=getattr(mci_module, name):
                            parents.append((len(prefix), region.dim)) or
                            cut(m, prefix, region))
    return parents


@pytest.mark.parametrize("make", [hexagon_mci, generic_z3_mci])
def test_a_full_codimension_chain_cuts_no_region_of_full_length(monkeypatch, make):
    mci = make()
    n = mci.ambient
    parents = record_parents(monkeypatch)
    tci = tci_from_mci(mci)
    number = bkk_number(tci)
    last = tci.functions[-1]
    assert tci.collapsed_at is None and number > 0
    # the walk cuts the regions of length one from the full space, and each
    # fold onto a cycle of dimension one or more cuts or sweeps the pieces of
    # the prefix that each cone of the fan keeps; the fold onto the point
    # reads values, so in the plane only the walk cuts
    assert set(parents) == {(k, n - k) for k in range(n - 1)} and last._cells is None
    monkeypatch.undo()
    # on first use the last function's cells are level n of a full walk
    assert [(c.key(), l) for c, l in last.cells] == level_cells(mci, n)
    # and its greedy values are those of the containing cells
    rng = Random(7)
    for _ in range(40):
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        assert last.value(x) == PLFunction(n, last.cells).value(x)
    assert number == bkk_number(
        TCI(tci.fans[0], [PLFunction(n, m.cells) for m in tci.functions]))


def generic_z4_codim3_mci():
    """5 points affinely spanning ℤ⁴ in {0,1}⁴ with columns in {-2..2}³ in
    general position, codimension 3, as ``eliminant_verified`` draws."""
    rng = Random(503)
    ids = [f"a{i}" for i in range(5)]
    while True:
        pts = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(5)]
        cols = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(5)]
        matroid = Matroid.from_matrix(dict(zip(ids, cols)))
        if LatticePolytope(pts).dim == 4 and \
                all(matroid.rank(c) == 3 for c in combinations(ids, 3)):
            return MCI(SupportMultiset(zip(ids, pts)), matroid, 3)


def test_a_chain_of_codimension_three_in_z4_folds_every_level_on_prefixes(monkeypatch):
    mci = generic_z4_codim3_mci()
    parents = record_parents(monkeypatch)
    tci = tci_from_mci(mci)
    # the walk from the root stops at length one; T_2 and T_3 cut or sweep
    # the pieces of one prefix of length one and two on each cone of T_1 and
    # T_2, and no function is tiled
    assert set(parents) == {(0, 4), (1, 3), (2, 2)}
    assert tci.collapsed_at is None and tci.fans[-1].dim == 1
    assert all(m._cells is None for m in tci.functions)
    monkeypatch.undo()
    want = TCI(tci.fans[0], [PLFunction(4, m.cells) for m in tci.functions])
    assert [keyed(fan) for fan in tci.fans] == [keyed(fan) for fan in want.fans]


@st.composite
def z3_fold_mcis(draw):
    """A codimension-2 MCI on points of {-1..2}³, classical or generic, with
    loops and repeated points.  Often it holds (-1,-1,-1), (0,-1,-1),
    (1,-1,-1): they span an edge of the hull, so they tie on all of its
    normal cone, and being collinear their values at two rays are collinear
    pairs."""
    point = st.tuples(*[st.integers(-1, 2)] * 3)
    pts = draw(st.lists(point, min_size=4, max_size=8))
    if draw(st.booleans()):
        pts += [(-1, -1, -1), (0, -1, -1), (1, -1, -1)]
    if draw(st.booleans()):
        pts.append(pts[0])  # a repeated point
    if draw(st.booleans()):
        sides = [draw(st.booleans()) for _ in pts]
        assume(0 < sum(sides) < len(pts))
        return classical_mci([[p for p, s in zip(pts, sides) if s == side]
                              for side in (True, False)])
    height = draw(st.integers(2, 3))
    cols = [draw(st.tuples(*[st.integers(-2, 2)] * height)) for _ in pts]
    if draw(st.booleans()):
        cols[-1] = (0,) * height  # a loop
    ids = [f"a{i}" for i in range(len(pts))]
    matroid = Matroid.from_matrix(dict(zip(ids, cols)))
    assume(matroid.rank(ids) >= 2)
    return MCI(SupportMultiset(zip(ids, pts)), matroid, 2)


def swept_and_cut(mci, prefix, sigma):
    """(key, id) lists of the envelope sweep and of ``_children``
    deduplicated by key, on one cone for one prefix."""
    swept = [(piece.key(), a) for piece, a in _envelope_pieces(mci, prefix, sigma)]
    cut = {}
    for child, piece in _children(mci, prefix, sigma):
        cut.setdefault(piece.key(), child[-1])
    return swept, list(cut.items())


def two_ray_edge_cones(mci):
    return [(sigma, prefix) for sigma, _, prefix in _edge_walls(mci)
            if not sigma.lineality and len(sigma.rays) == 2]


@settings(max_examples=40)
@given(z3_fold_mcis())
def test_the_envelope_sweep_gives_the_pieces_that_children_cut(mci):
    cones = two_ray_edge_cones(mci)
    assume(cones)
    for sigma, prefix in cones:
        # the vertex prefix of the fold, and the empty one, after which the
        # points of the cone's edge all tie on it
        for p in (prefix, ()):
            swept, cut = swept_and_cut(mci, p, sigma)
            assert swept == cut


def test_the_envelope_sweep_reads_four_pieces_off_one_edge_cone():
    mci = classical_mci([[(1, 2, 2), (0, 2, 2), (1, 2, 0), (0, 1, 0)],
                         [(0, 1, 1), (0, 2, 2), (2, 0, 2), (1, 1, 1)]])
    sizes = []
    for sigma, prefix in two_ray_edge_cones(mci):
        swept, cut = swept_and_cut(mci, prefix, sigma)
        assert swept == cut
        sizes.append(len(swept))
    assert max(sizes) == 4
    tci = tci_from_mci(mci)
    assert keyed(tci.fans[2]) == keyed(corner_locus(tci.functions[1], tci.fans[1]))
