"""Piecewise-polynomial corner loci and the hat-decomposition engine."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropeci.cones import Cone, full_space
from tropeci.fans import WeightedFan, wall_lift
from tropeci.linalg import dot, inverse_rows, primitive, sublattice_index, vsub
from tropeci.oracles import random_lattice_polytope
from tropeci.plfunc import (
    PLFunction,
    corner_locus,
    iterated_corner_locus,
    pl_add,
    pl_from_polytope,
)
from tropeci.polytopes import LatticePolytope, mixed_volume_ie
from tropeci.ppfunc import (
    NotContinuous,
    _FanEngine,
    PPFunction,
    Poly,
    courant_decomposition,
    courant_hats,
    pp_corner_locus,
    pp_from_pl_product,
    pp_iterated_number,
    simplicial_refinement,
    triangulate_complete_fan,
)


def unit_fan(n):
    return WeightedFan(n, [(full_space(n), 1)])


def half_line_cells():
    plus = Cone(1, ineqs=[(1,)])
    minus = Cone(1, ineqs=[(-1,)])
    return plus, minus


# -- Poly ---------------------------------------------------------------------


def test_poly_arithmetic():
    x = Poly.linear((1, 0))
    y = Poly.linear((0, 1))
    sq = (x + y) * (x + y)
    assert sq == x * x + 2 * (x * y) + y * y
    assert sq.eval((2, 3)) == 25
    assert sq.partial(0) == 2 * (x + y)
    assert sq.dir_deriv((1, -1)).is_zero()
    assert sq.degree() == 2 and sq.is_homogeneous(2)


def test_poly_compose_and_restrict():
    x = Poly.linear((1, 0))
    y = Poly.linear((0, 1))
    p = x * y
    # substitute x = s + t, y = s - t
    q = p.compose([(1, 1), (1, -1)])
    s = Poly.linear((1, 0))
    t = Poly.linear((0, 1))
    assert q == s * s - t * t
    # restriction to the diagonal line
    r = p.restrict([(1, 1)])
    assert r == Poly(1, {(2,): 1})
    assert p.restrict([(1, -1)]) == Poly(1, {(2,): -1})
    assert (x * x - y * y).restrict([(1, 1)]).is_zero()


def test_poly_dir_deriv_poly():
    x = Poly.linear((1, 0))
    y = Poly.linear((0, 1))
    p = x * x * y
    v = [y, Poly(2, {})]
    # y·∂x(x²y) = 2xy²
    assert p.dir_deriv_poly(v) == 2 * (x * y * y)


# -- PPFunction construction --------------------------------------------------


def test_product_of_supports_is_continuous():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    f = pp_from_pl_product([pl_from_polytope(square), pl_from_polytope(tri)])
    assert f.degree == 2
    assert f.check_continuity()
    m1, m2 = pl_from_polytope(square), pl_from_polytope(tri)
    for x in [(3, 1), (-2, 5), (1, 1), (-1, -1)]:
        assert f.value(x) == m1.value(x) * m2.value(x)


def test_homogeneity_enforced():
    c = full_space(2)
    with pytest.raises(ValueError):
        PPFunction(2, 2, [(c, Poly.linear((1, 1)))])


def test_discontinuous_pieces_detected():
    plus = Cone(2, ineqs=[(1, 0)])
    minus = Cone(2, ineqs=[(-1, 0)])
    x = Poly.linear((1, 0))
    y = Poly.linear((0, 1))
    f = PPFunction(2, 2, [(plus, x * x), (minus, y * y)])
    assert not f.check_continuity()
    with pytest.raises(NotContinuous):
        pp_corner_locus(f, unit_fan(2))
    with pytest.raises(NotContinuous):
        pp_iterated_number(f, unit_fan(2))


def test_pp_corner_locus_sees_a_disagreement_that_no_wall_shows():
    # y on x >= 0 and 2y on x <= 0 disagree on the ray (0, 1) of the tropical
    # line, which the refinement gives to the first cell only; the wall at
    # the origin then weighs -1 or 0 by cell order, so only the test on every
    # overlap of the cells catches it
    line = WeightedFan(2, [(Cone(2, rays=[r]), 1) for r in [(1, 0), (0, 1), (-1, -1)]])
    right, left = Cone(2, ineqs=[(1, 0)]), Cone(2, ineqs=[(-1, 0)])
    y = Poly.linear((0, 1))
    for cells in ([(right, y), (left, 2 * y)], [(left, 2 * y), (right, y)]):
        with pytest.raises(NotContinuous):
            pp_corner_locus(PPFunction(2, 1, cells), line)
    with pytest.raises(ValueError):
        pp_corner_locus(PPFunction(3, 1, [(full_space(3), Poly.linear((0, 1, 0)))]),
                        unit_fan(2))


def test_discontinuous_pointed_pieces_detected_by_the_pull_triangulation(monkeypatch):
    # pointed quadrants under the whole plane take the pull-triangulation
    # branch, where each simplex reads the polynomial of its own cell; the
    # first quadrant's 2y² disagrees with the y² of its neighbour on x = 0.
    # The refinement branch is switched off, so only that branch can answer.
    quadrants = [Cone(2, rays=[(sx, 0), (0, sy)]) for sx in (1, -1) for sy in (1, -1)]
    x, y = Poly.linear((1, 0)), Poly.linear((0, 1))
    smooth = x * x + y * y
    monkeypatch.setattr("tropeci.ppfunc.simplicial_refinement", None)
    f = PPFunction(2, 2, [(q, smooth) for q in quadrants])
    assert f.check_continuity()
    assert pp_iterated_number(f, unit_fan(2)) == 0
    bent = PPFunction(2, 2, [(quadrants[0], x * x + 2 * y * y)] +
                      [(q, smooth) for q in quadrants[1:]])
    assert not bent.check_continuity()
    with pytest.raises(NotContinuous):
        pp_iterated_number(bent, unit_fan(2))


# -- single-step corner locus -------------------------------------------------


def test_globally_polynomial_product_has_empty_locus():
    # x·(x+y) written on two half-planes: every wall defect cancels
    plus = Cone(2, ineqs=[(1, 0)])
    minus = Cone(2, ineqs=[(-1, 0)])
    p = Poly.linear((1, 0)) * Poly.linear((1, 1))
    f = PPFunction(2, 2, [(plus, p), (minus, p)])
    out = pp_corner_locus(f, unit_fan(2))
    assert out.is_zero()


def test_linear_times_support_scales_the_pl_locus():
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    m = pl_from_polytope(tri)
    ell = PLFunction(2, [(full_space(2), (1, 2))])
    f = pp_from_pl_product([ell, m])
    pl = corner_locus(m, unit_fan(2))
    pp = pp_corner_locus(f, unit_fan(2))
    expected = {}
    for cone, w in pl.cones:
        r = cone.rays[0]
        val = w * (r[0] + 2 * r[1])
        if val != 0:
            expected[cone.key()] = (r, val)
    got = {cone.key(): (cone, w) for cone, w in pp.cones}
    assert set(got) == set(expected)
    for k, (r, val) in expected.items():
        assert got[k][1].eval(r) == val


def test_squared_kink_on_line_collapses_in_one_step():
    # F = max(0,x)² on ℝ¹: the only wall is the origin and the defect
    # polynomial 2x vanishes there, so a single step already yields zero
    plus, minus = half_line_cells()
    x2 = Poly(1, {(2,): 1})
    f = PPFunction(1, 2, [(plus, x2), (minus, Poly(1, {}))])
    assert pp_corner_locus(f, unit_fan(1)).is_zero()


# -- simplicial refinement and hats -------------------------------------------


def test_refinement_covers_and_is_simplicial():
    hexagon = LatticePolytope([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    cones = [c for c, _ in pl_from_polytope(hexagon).cells]
    simplices = simplicial_refinement(cones, 2)
    assert all(len(s) == 2 for s in simplices)
    rng = Random(7)
    for _ in range(25):
        x = (Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
        hits = sum(1 for s in simplices
                   if Cone(2, rays=list(s), _trusted=True).contains(x))
        assert hits >= 1


def test_hats_are_barycentric_coordinates():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    cones = [c for c, _ in pl_from_polytope(square).cells]
    simplices = simplicial_refinement(cones, 2)
    hats = courant_hats(simplices, 2)
    rng = Random(3)
    for _ in range(20):
        x = (Fraction(rng.randint(-30, 30), rng.randint(1, 5)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 5)))
        # Σ φ_r(x)·r reassembles x, and every hat is nonnegative
        acc = (Fraction(0), Fraction(0))
        for r, phi in hats.items():
            t = phi.value(x)
            assert t >= 0
            acc = (acc[0] + t * r[0], acc[1] + t * r[1])
        assert acc == x


def test_decomposition_reproduces_values():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    f = pp_from_pl_product([pl_from_polytope(square), pl_from_polytope(tri)])
    coeffs, hats = courant_decomposition(f)
    rng = Random(11)
    for _ in range(10):
        x = (rng.randint(-6, 6), rng.randint(-6, 6))
        total = 0
        for key, c in coeffs.items():
            v = c
            for r in key:
                v *= hats[r].value(x)
            total += v
        assert total == f.value(x)


# -- the degree engine --------------------------------------------------------


def test_engine_dimension_mismatch():
    plus, minus = half_line_cells()
    x2 = Poly(1, {(2,): 1})
    f = PPFunction(1, 2, [(plus, x2), (minus, Poly(1, {}))])
    with pytest.raises(ValueError):
        pp_iterated_number(f, unit_fan(1))


def test_engine_degree_zero_is_the_constant_times_the_origin_weight():
    f = PPFunction(2, 0, [(full_space(2), Poly.const(2, 3))])
    origin = WeightedFan(2, [(Cone(2, rays=[]), 2)])
    assert pp_iterated_number(f, origin) == 6


def test_engine_degree_one_is_the_corner_locus_weight():
    plus, minus = half_line_cells()
    f = PPFunction(1, 1, [(plus, Poly.linear((1,))),
                          (minus, Poly.linear((-1,)))])
    assert pp_iterated_number(f, unit_fan(1)) == 2


def test_engine_matches_mixed_volume():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    cases = [
        ([square, tri], 2),
        ([square, square], 2),
        ([tri, tri], 1),
    ]
    for polys, expected in cases:
        assert mixed_volume_ie(polys) == expected
        f = pp_from_pl_product([pl_from_polytope(p) for p in polys])
        assert pp_iterated_number(f, unit_fan(2)) == expected


def test_engine_agrees_with_iterated_pl_route():
    rng = Random(2026)
    hits = 0
    while hits < 5:
        p = random_lattice_polytope(rng, 2, 4)
        q = random_lattice_polytope(rng, 2, 4)
        if p.dim < 2 or q.dim < 2:
            continue
        hits += 1
        ms = [pl_from_polytope(p), pl_from_polytope(q)]
        pl_number = iterated_corner_locus(ms, unit_fan(2)).weight_of_point((0, 0))
        f = pp_from_pl_product(ms)
        assert pp_iterated_number(f, unit_fan(2)) == pl_number
        g = pp_from_pl_product(list(reversed(ms)))
        assert pp_iterated_number(g, unit_fan(2)) == pl_number


def test_engine_ignores_values_off_the_first_locus():
    # adding a hat supported away from δ(m₁·T) to m₂ changes neither route
    hexagon = LatticePolytope([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    m1, m2 = pl_from_polytope(hexagon), pl_from_polytope(tri)
    t1 = corner_locus(m1, unit_fan(2))
    locus_rays = {c.rays[0] for c, _ in t1.cones}
    cones = [c for c, _ in m1.cells] + [c for c, _ in m2.cells]
    simplices = simplicial_refinement(cones, 2)
    hats = courant_hats(simplices, 2)
    spare = sorted(r for r in hats if r not in locus_rays)
    assert spare
    m2mod = pl_add(m2, hats[spare[0]].scale(3))
    base = iterated_corner_locus([m1, m2], unit_fan(2)).weight_of_point((0, 0))
    modded = iterated_corner_locus([m1, m2mod], unit_fan(2)).weight_of_point((0, 0))
    assert modded == base
    f = pp_from_pl_product([m1, m2mod])
    assert pp_iterated_number(f, unit_fan(2)) == base


# -- the engine on fans other than w·ℝⁿ and on cells with lineality ------------

CASES = settings(max_examples=30)
cases = st.tuples(st.sampled_from([2, 3]), st.sampled_from([1, 2]),
                  st.integers(0, 2**32))


def _support_functions(rng: Random, ambient: int, count: int) -> list:
    return [pl_from_polytope(random_lattice_polytope(
        rng, ambient, ambient + rng.randint(1, 2), box=2)) for _ in range(count)]


@CASES
@given(cases)
def test_engine_folds_a_fan_that_is_not_the_whole_space(case):
    ambient, weight, seed = case
    rng = Random(seed)
    j = rng.randint(1, ambient - 1)
    ms = _support_functions(rng, ambient, ambient)
    whole = WeightedFan(ambient, [(full_space(ambient), weight)])
    t_fan = iterated_corner_locus(ms[:j], whole)
    expected = iterated_corner_locus(ms[j:], t_fan).weight_of_point((0,) * ambient)
    assert pp_iterated_number(pp_from_pl_product(ms[j:]), t_fan) == expected


@CASES
@given(cases)
def test_engine_folds_cells_with_lineality(case):
    # the last factors all lie in the hyperplane x_n = 0, so every cell of
    # their product contains the line through e_n
    ambient, weight, seed = case
    rng = Random(seed)
    j = rng.randint(0, ambient - 1)
    full = [random_lattice_polytope(rng, ambient, ambient + 1, box=2)
            for _ in range(j)]
    flat = [LatticePolytope([tuple(rng.randint(0, 2) for _ in range(ambient - 1)) + (0,)
                             for _ in range(rng.randint(1, ambient + 1))])
            for _ in range(ambient - j)]
    whole = WeightedFan(ambient, [(full_space(ambient), weight)])
    t_fan = iterated_corner_locus([pl_from_polytope(p) for p in full], whole)
    f = pp_from_pl_product([pl_from_polytope(p) for p in flat])
    assert all(c.lineality for c, _ in f.cells)
    assert pp_iterated_number(f, t_fan) == weight * mixed_volume_ie(full + flat)


# -- the multiplicity fold against the lift-based fold --------------------------


def lift_fold(simplices, state, r):
    """Reference fold by lattice lifts: each face τ adds w·(l_τ − l_ρ)·u to
    each of its walls ρ, where u = fans.wall_lift(ρ, τ) and l_σ is the hat
    covector of r on the first simplex holding σ (zero when r ∉ σ)."""
    n = len(simplices[0])

    def hat(face):
        if r not in face:
            return (0,) * n
        s = next(s for s in simplices if face <= set(s))
        mat, d = inverse_rows(list(zip(*s)))
        return tuple(Fraction(x, d) for x in mat[s.index(r)])

    out = {}
    for face, w in state.items():
        tau = Cone(n, rays=list(face), _trusted=True)
        for apex in face:
            wall = face - {apex}
            u = wall_lift(Cone(n, rays=list(wall), _trusted=True), tau)
            out[wall] = out.get(wall, 0) + w * dot(vsub(hat(face), hat(wall)), u)
    return {wall: x for wall, x in out.items() if x != 0}


def _stretched_fan(rng: Random, ambient: int) -> list:
    """A complete simplicial fan with maximal cones of multiplicity > 1 (in
    56 of the first 60 seeds): the pull triangulation of a random normal
    fan, mapped by an integer matrix of determinant 2 or 3."""
    poly = random_lattice_polytope(rng, ambient, ambient + rng.randint(1, 3), box=2)
    simplices = triangulate_complete_fan([c for c, _ in pl_from_polytope(poly).cells],
                                         ambient)
    a = [[rng.randint(-1, 1) if j > i else int(i == j) for j in range(ambient)]
         for i in range(ambient)]
    a[-1][-1] = rng.choice([2, 3])
    rng.shuffle(a)
    image = {r: primitive(tuple(dot(row, r) for row in a)) for s in simplices for r in s}
    return [tuple(sorted(image[r] for r in s)) for s in simplices]


@settings(max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_multiplicity_fold_matches_the_lift_fold(ambient, seed):
    rng = Random(seed)
    simplices = _stretched_fan(rng, ambient)
    engine = _FanEngine(simplices)
    k = rng.randint(1, ambient)
    faces = sorted({frozenset(f) for s in simplices for f in combinations(s, k)},
                   key=sorted)
    state = {f: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 2)])
             for f in faces}
    state = {f: w for f, w in state.items() if w != 0}
    rays = sorted({r for s in simplices for r in s})
    for r in rng.sample(rays, min(3, len(rays))):
        assert engine.fold(state, r) == lift_fold(simplices, state, r)
    # an unbalanced state still folds term by term, and folds chain
    r1, r2 = rng.choice(rays), rng.choice(rays)
    assert engine.fold(engine.fold(state, r1), r2) == \
        lift_fold(simplices, lift_fold(simplices, state, r1), r2)


def test_fold_through_a_cone_of_multiplicity_two():
    # the cone spanned by (1, 0) and (1, 2) has index 2 in ℤ², so the
    # intersection number of the two hats is 1/2
    simplices = [((1, 0), (1, 2)), ((-1, 0), (1, 2)), ((-1, 0), (0, -1)),
                 ((0, -1), (1, 0))]
    assert sublattice_index([(1, 0), (1, 2)]) == 2
    hats = courant_hats(simplices, 2)
    a, b = hats[(1, 0)], hats[(1, 2)]
    expected = iterated_corner_locus([a, b], unit_fan(2)).weight_of_point((0, 0))
    assert expected == Fraction(1, 2)
    assert pp_iterated_number(pp_from_pl_product([a, b]), unit_fan(2)) == expected
    # integral numbers come back as ints
    unimodular = pp_iterated_number(
        pp_from_pl_product([hats[(-1, 0)], hats[(0, -1)]]), unit_fan(2))
    assert unimodular == 1 and type(unimodular) is int
    engine = _FanEngine(simplices)
    whole = engine.initial_state(unit_fan(2))
    divisor = engine.fold(whole, (1, 0))
    assert divisor == lift_fold(simplices, whole, (1, 0))
    assert divisor[frozenset({(1, 2)})] == Fraction(1, 2)
    assert engine.fold(divisor, (1, 2)) == {frozenset(): Fraction(1, 2)}
    # self-intersections through the multiplicity-2 cone agree with the PL route
    for r in [(1, 0), (1, 2)]:
        pl = iterated_corner_locus([hats[r], hats[r]], unit_fan(2))
        assert pp_iterated_number(pp_from_pl_product([hats[r], hats[r]]), unit_fan(2)) \
            == pl.weight_of_point((0, 0))
