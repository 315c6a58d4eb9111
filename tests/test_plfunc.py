from fractions import Fraction
from random import Random

import pytest

from tropeci.cones import Cone, full_space
from tropeci.fans import (
    NotBalanced,
    NotContinuous,
    WeightedFan,
    fans_equal,
    is_balanced,
)
from tropeci.oracles import mixed_volume_ie, polygon_curve_rays, random_lattice_polytope
from tropeci.plfunc import (
    NotADivisor,
    NotConvex,
    PLFunction,
    corner_locus,
    iterated_corner_locus,
    pl_from_polytope,
    pullback_linear,
    reconstruct_polytope,
)
from tropeci.polytopes import LatticePolytope

TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
AMBIENT2 = WeightedFan(2, [(full_space(2), 1)])


def ray_fan(pairs, ambient=2):
    return WeightedFan(ambient, [(Cone(ambient, rays=[r]), w) for r, w in pairs])


def test_support_function_values():
    m = pl_from_polytope(SQUARE)
    assert m.value((3, 4)) == 7
    assert m.value((-2, 5)) == 5
    assert m.value((-1, -1)) == 0
    assert m.check_continuity()


def test_value_rejects_a_point_of_the_wrong_width():
    m = pl_from_polytope(SQUARE)
    for x in [(1, 2, 3), (1,)]:
        with pytest.raises(ValueError, match="length"):
            m.value(x)


@pytest.mark.parametrize("reverse", [False, True], ids=["right_first", "left_first"])
def test_cells_that_disagree_at_a_ray_of_a_curve_raise_in_either_order(reverse):
    # y on x ≥ 0 and 2y on x ≤ 0 disagree on the ray (0, 1) of the tropical
    # line; a step that kept one cell's covector there would weigh the
    # origin −1 or 0 by cell order
    line = ray_fan([((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    cells = [(Cone(2, ineqs=[(1, 0)]), (0, 1)), (Cone(2, ineqs=[(-1, 0)]), (0, 2))]
    m = PLFunction(2, cells[::-1] if reverse else cells)
    with pytest.raises(NotContinuous):
        m.value((0, 1))
    with pytest.raises(NotContinuous):
        corner_locus(m, line)
    assert m.value((1, 1)) == 1 and m.value((-1, -1)) == -2


def test_corner_locus_of_triangle_support():
    d = corner_locus(pl_from_polytope(TRIANGLE), AMBIENT2)
    expected = ray_fan([((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
    assert fans_equal(d, expected)


def test_corner_locus_weight_scales_with_edge_length():
    seg = LatticePolytope([(0, 0), (2, 0)])
    d = corner_locus(pl_from_polytope(seg), AMBIENT2)
    wall = Cone(2, rays=[(0, 1)], lineality=[(0, 1)])
    line = Cone(2, rays=[], lineality=[(0, 1)])
    assert fans_equal(d, WeightedFan(2, [(line, 2)]))


def test_corner_locus_of_linear_function_vanishes():
    m = PLFunction(2, [(full_space(2), (3, -2))])
    assert corner_locus(m, AMBIENT2).is_zero()


def test_corner_locus_matches_edge_oracle():
    rng = Random(23)
    for _ in range(8):
        p = random_lattice_polytope(rng, 2, 5)
        d = corner_locus(pl_from_polytope(p), AMBIENT2)
        expected = ray_fan(polygon_curve_rays(p))
        assert fans_equal(d, expected)
        assert is_balanced(d)


def test_corner_locus_requires_balanced_cycle():
    lop = ray_fan([((1, 0), 1)])
    with pytest.raises(NotBalanced):
        corner_locus(pl_from_polytope(SQUARE), lop)


def test_iterated_corner_locus_degree_is_mixed_volume():
    rng = Random(31)
    for _ in range(6):
        p = random_lattice_polytope(rng, 2, 5)
        q = random_lattice_polytope(rng, 2, 5)
        cycle = iterated_corner_locus(
            [pl_from_polytope(p), pl_from_polytope(q)], AMBIENT2)
        assert cycle.weight_of_point((0, 0)) == mixed_volume_ie([p, q])


def test_iterated_corner_locus_empty_list():
    assert iterated_corner_locus([], AMBIENT2) is AMBIENT2


def test_reconstruct_triangle_from_line():
    d = ray_fan([((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
    assert reconstruct_polytope(d) == TRIANGLE


def test_reconstruct_segment_from_point():
    d = WeightedFan(1, [(Cone(1, rays=[], lineality=[]), 3)])
    assert reconstruct_polytope(d) == LatticePolytope([(0,), (3,)])


def test_reconstruct_roundtrip_random_polygons():
    rng = Random(41)
    for _ in range(8):
        p = random_lattice_polytope(rng, 2, 5).normalize_translation()
        d = corner_locus(pl_from_polytope(p), AMBIENT2)
        assert reconstruct_polytope(d) == p


def test_reconstruct_roundtrip_random_3d_polytopes():
    rng = Random(4)
    for _ in range(3):
        p = random_lattice_polytope(rng, 3, 7).normalize_translation()
        d = corner_locus(pl_from_polytope(p), WeightedFan(3, [(full_space(3), 1)]))
        assert reconstruct_polytope(d) == p


@pytest.mark.parametrize("points", [
    [(0, 0), (2, 1)],                 # segment in ℝ²: one wall, half-plane chambers
    [(0, 0, 0), (1, 0, 1), (0, 2, 1)],  # triangle in ℝ³: chambers with a lineality line
])
def test_reconstruct_divisors_whose_chambers_have_lineality(points):
    p = LatticePolytope(points)
    n = p.ambient
    d = corner_locus(pl_from_polytope(p), WeightedFan(n, [(full_space(n), 1)]))
    assert reconstruct_polytope(d) == p


def test_reconstruct_rejects_unbalanced():
    with pytest.raises(NotADivisor):
        reconstruct_polytope(ray_fan([((1, 0), 1)]))


@pytest.mark.parametrize("divisor", [
    WeightedFan(2, [(full_space(2), 1)]),
    WeightedFan(1, [(Cone(1, rays=[]), Fraction(1, 2))]),
], ids=["full_dimensional", "half_weight_origin"])
def test_reconstruct_refuses_a_cycle_that_is_not_an_integral_divisor(divisor):
    with pytest.raises(NotADivisor):
        reconstruct_polytope(divisor)


def test_corner_locus_of_a_zero_curve_is_the_zero_point_cycle():
    got = corner_locus(pl_from_polytope(TRIANGLE), WeightedFan(2, [], dim=1))
    assert got.is_zero() and got.dim == 0


def test_reconstruct_rejects_concave_jumps():
    d = corner_locus(pl_from_polytope(TRIANGLE), AMBIENT2)
    with pytest.raises(NotConvex):
        reconstruct_polytope(d.scale(-1))


def test_reconstruct_parallel_walls():
    # two opposite parallel rays: the facet extensions must separate them
    seg = LatticePolytope([(0, 0), (1, 0)])
    up = LatticePolytope([(0, 0), (0, 1)])
    both = seg.minkowski_sum(up)
    d = corner_locus(pl_from_polytope(both), AMBIENT2)
    assert reconstruct_polytope(d) == both


def test_reconstruct_empty_divisor_is_point():
    d = WeightedFan(2, [], dim=1)
    assert reconstruct_polytope(d) == LatticePolytope([(0, 0)])


def test_pullback_along_diagonal():
    m = pl_from_polytope(SQUARE)
    pb = pullback_linear(m, [[1], [1]])
    # the two quadrants that meet the diagonal only at the origin drop out
    assert sorted(c.rays for c, _ in pb.cells) == [[(-1,)], [(1,)]]
    assert pb.value((1,)) == 2
    assert pb.value((-1,)) == 0
    d = corner_locus(pb, WeightedFan(1, [(full_space(1), 1)]))
    assert d.weight_of_point((0,)) == 2


def test_pullback_into_wall_keeps_continuity():
    m = pl_from_polytope(SQUARE)
    # embed the t-axis along the wall between the two upper cells
    pb = pullback_linear(m, [[0], [1]])
    assert pb.value((2,)) == 2
    assert pb.value((-3,)) == 0


def test_corner_locus_rejects_cells_that_do_not_meet_face_to_face():
    # max(x, 0) on the plane, once as two half-planes and once with the
    # half-plane x >= 0 cut into quadrants: the wall x = 0 is then whole on
    # one side and split on the other, so walls matched by face key would
    # lose its jump and return the zero cycle
    right, left = Cone(2, ineqs=[(1, 0)]), Cone(2, ineqs=[(-1, 0)])
    halves = PLFunction(2, [(right, (1, 0)), (left, (0, 0))])
    assert halves.check_continuity()
    y_axis = WeightedFan(2, [(Cone(2, rays=[], lineality=[(0, 1)]), 1)])
    assert fans_equal(corner_locus(halves, AMBIENT2), y_axis)

    upper = Cone(2, ineqs=[(1, 0), (0, 1)])
    lower = Cone(2, ineqs=[(1, 0), (0, -1)])
    quadrants = PLFunction(2, [(upper, (1, 0)), (lower, (1, 0)), (left, (0, 0))])
    assert quadrants.check_continuity()
    with pytest.raises(NotBalanced, match="face to face"):
        corner_locus(quadrants, AMBIENT2)


def test_corner_locus_raises_on_pieces_that_disagree_at_a_wall():
    # x on the right and y on the left disagree on the wall x = 0; without
    # the wall test this returned the line x = 0 with weight 1, as for max(x, 0)
    m = PLFunction(2, [(Cone(2, ineqs=[(1, 0)]), (1, 0)), (Cone(2, ineqs=[(-1, 0)]), (0, 1))])
    assert not m.check_continuity()
    with pytest.raises(NotContinuous):
        corner_locus(m, AMBIENT2)


@pytest.mark.parametrize("reverse", [False, True], ids=["x_first", "2x_first"])
def test_cells_that_overlap_on_a_piece_and_disagree_raise_in_either_order(reverse):
    # x and 2x on the same half-plane x ≥ 0: a refinement that kept the first
    # cell's covector weighed the line x = 0 with 1 or 2 by cell order
    right = [(Cone(2, ineqs=[(1, 0)]), (1, 0)), (Cone(2, ineqs=[(1, 0)]), (2, 0))]
    left = [(Cone(2, ineqs=[(-1, 0)]), (0, 0))]
    m = PLFunction(2, (right[::-1] if reverse else right) + left)
    with pytest.raises(NotContinuous):
        corner_locus(m, AMBIENT2)


def test_a_plane_inside_the_wall_between_two_cells_folds_in_either_order():
    # m = |x| + max(y, 0) on ℝ³: the plane x = 0 lies in both cells of each
    # sign of y, whose covectors differ off the plane but agree on it
    plane = WeightedFan(3, [(Cone(3, rays=[], lineality=[(0, 1, 0), (0, 0, 1)]), 1)])
    cells = [(Cone(3, ineqs=[(sx, 0, 0), (0, sy, 0)]), (sx, int(sy > 0), 0))
             for sx in (1, -1) for sy in (1, -1)]
    z_axis = WeightedFan(3, [(Cone(3, rays=[], lineality=[(0, 0, 1)]), 1)])
    for order in (cells, cells[::-1]):
        assert fans_equal(corner_locus(PLFunction(3, order), plane), z_axis)


def test_a_function_must_live_in_the_ambient_space_of_its_cells_and_cycle():
    with pytest.raises(ValueError):
        PLFunction(2, [(full_space(2), (1, 0, 7))])
    with pytest.raises(ValueError):
        PLFunction(3, [(full_space(2), (1, 0, 0))])
    with pytest.raises(ValueError):
        corner_locus(PLFunction(3, [(full_space(3), (1, 0, 0))]), AMBIENT2)
