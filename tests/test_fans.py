from fractions import Fraction
from random import Random

import pytest
from cone_reference import int_coords
from cone_reference import wall_lift as reference_wall_lift
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropeci import fans
from tropeci.cones import Cone, NotAFan, _cut_cone, chamber_complex, full_space
from tropeci.fans import (
    NotComplementary,
    NotSurjective,
    WeightedFan,
    check_fan_structure,
    consolidate,
    fans_equal,
    is_balanced,
    is_zero_cycle,
    pushforward,
    stable_intersection_number,
    support_connected_off_origin,
    wall_lift,
)
from tropeci.linalg import canonical_span_rows, in_span, kernel_basis, vadd, vscale, vsub
from tropeci.mci import classical_mci, tci_from_mci
from tropeci.oracles import mixed_volume_ie, polygon_curve_rays, random_lattice_polytope
from tropeci.polytopes import LatticePolytope
from tropeci.ppfunc import Poly


def ray_fan(pairs, ambient=2):
    return WeightedFan(ambient, [(Cone(ambient, rays=[r]), w) for r, w in pairs])


def curve_fan(poly):
    return ray_fan(polygon_curve_rays(poly))


LINE = ray_fan([((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)])


def test_wall_lift_quotient_generator():
    tau = Cone(2, rays=[(1, 0), (1, 2)])
    rho = Cone(2, rays=[(1, 0)])
    lift = wall_lift(rho, tau)
    assert lift[1] == 1  # generates the quotient and points into tau


def test_wall_lift_orientation_flips():
    tau = Cone(2, rays=[(1, 0), (1, -2)])
    rho = Cone(2, rays=[(1, 0)])
    assert wall_lift(rho, tau)[1] == -1


def test_wall_lift_rejects_a_wall_outside_the_cone_span():
    tau = Cone(3, rays=[(1, 0, 0), (0, 1, 0)])
    rho = Cone(3, rays=[(0, 0, 1)])
    with pytest.raises(ValueError):
        wall_lift(rho, tau)


def test_span_coordinates_must_be_integral():
    assert int_coords([(2, 0), (0, 1)], (4, 3)) == (2, 3)
    with pytest.raises(ValueError):
        int_coords([(2, 0)], (1, 0))


@st.composite
def cones_with_facets(draw):
    """A cone in ℤ³ or ℤ⁴: from generators, some with a lineality vector; cut
    from such a cone by ``_cut_cone``; or a chamber of ``chamber_complex``.
    The last two keep raw constraints, so their facets are read from those."""
    n = draw(st.sampled_from([3, 4]))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    kind = draw(st.sampled_from(["generators", "cut", "chamber"]))
    if kind == "chamber":
        chambers = chamber_complex(draw(st.lists(vec, min_size=1, max_size=n + 2)), n)
        return chambers[draw(st.integers(0, len(chambers) - 1))]
    cone = Cone(n, rays=draw(st.lists(vec, min_size=1, max_size=n + 1)),
                lineality=draw(st.lists(vec.filter(any), max_size=1)))
    if kind == "cut":
        cone = _cut_cone(cone, draw(st.lists(vec, max_size=2)),
                         draw(st.lists(vec, max_size=1)), 1)
        assume(cone is not None)
    return cone


@settings(max_examples=40)
@given(cones_with_facets())
def test_wall_lift_agrees_with_the_coordinate_lift_modulo_the_wall(tau):
    for rho, a in tau._facets():
        got = wall_lift(rho, tau)
        assert in_span(rho.span_rows(), vsub(got, reference_wall_lift(rho, tau)))
        # the lift the wall step takes from the handed-over inequality
        assert in_span(rho.span_rows(), vsub(fans._lift(tau, a), got))


def test_tropical_line_is_balanced():
    assert is_balanced(LINE)


def test_unbalanced_when_weight_changes():
    bad = ray_fan([((1, 1), 2), ((-1, 0), 1), ((0, -1), 1)])
    assert not is_balanced(bad)


def test_balancing_with_nontrivial_weights():
    fan = ray_fan([((1, 1), 1), ((1, -1), 1), ((-1, 0), 2)])
    assert is_balanced(fan)
    assert not is_balanced(ray_fan([((1, 1), 1), ((1, -1), 1), ((-1, 0), 1)]))


def test_two_dim_quadrant_balancing():
    quads = [Cone(2, rays=[(sx, 0), (0, sy)]) for sx in (1, -1) for sy in (1, -1)]
    assert is_balanced(WeightedFan(2, [(q, 1) for q in quads]))
    assert not is_balanced(WeightedFan(2, [(q, w) for q, w in
                                           zip(quads, (1, 1, 1, 2))]))


def test_subspace_fan_trivially_balanced():
    assert is_balanced(WeightedFan(2, [(full_space(2), 5)]))


def test_fan_structure_rejects_overlap():
    a = Cone(2, rays=[(1, 0), (0, 1)])
    b = Cone(2, rays=[(1, 0), (1, 1)])
    with pytest.raises(NotAFan):
        check_fan_structure(WeightedFan(2, [(a, 1), (b, 1)]))
    # sharing a full facet is fine
    c = Cone(2, rays=[(0, 1), (-1, 0)])
    check_fan_structure(WeightedFan(2, [(a, 1), (c, 1)]))


def test_duplicate_cones_merge():
    fan = ray_fan([((1, 0), 1), ((2, 0), 2), ((0, 1), 1)])
    weights = {c.rays[0]: w for c, w in fan.cones}
    assert weights == {(1, 0): 3, (0, 1): 1}


def test_zero_cycle_refinement():
    half = Cone(2, rays=[(0, 1)], lineality=[(1, 0)])
    q1 = Cone(2, rays=[(1, 0), (0, 1)])
    q2 = Cone(2, rays=[(0, 1), (-1, 0)])
    assert is_zero_cycle([(half, 1), (q1, -1), (q2, -1)], 2)
    assert not is_zero_cycle([(half, 1), (q1, -1)], 2)
    assert fans_equal(WeightedFan(2, [(half, 3)]),
                      WeightedFan(2, [(q1, 3), (q2, 3)]))
    assert not fans_equal(WeightedFan(2, [(half, 3)]),
                          WeightedFan(2, [(q1, 3), (q2, 2)]))


def test_pushforward_of_line_to_axis():
    image = pushforward(LINE, [[1, 0]])
    expected = WeightedFan(1, [(Cone(1, rays=[(1,)]), 1),
                               (Cone(1, rays=[(-1,)]), 1)])
    assert fans_equal(image, expected)


def test_pushforward_index_doubles_degree():
    image = pushforward(LINE, [[1, 1]])
    expected = WeightedFan(1, [(Cone(1, rays=[(1,)]), 2),
                               (Cone(1, rays=[(-1,)]), 2)])
    assert fans_equal(image, expected)


def test_pushforward_requires_lattice_surjection():
    with pytest.raises(NotSurjective):
        pushforward(LINE, [[2, 0]])


def test_pushforward_output_balanced():
    rng = Random(3)
    for _ in range(5):
        poly = random_lattice_polytope(rng, 2, 5)
        fan = curve_fan(poly)
        img = pushforward(fan, [[1, 0]])
        assert is_balanced(img)


def test_stable_intersection_two_lines():
    assert stable_intersection_number(LINE, LINE) == 1


def test_stable_intersection_matches_mixed_volume():
    rng = Random(5)
    for _ in range(6):
        p = random_lattice_polytope(rng, 2, 5)
        q = random_lattice_polytope(rng, 2, 5)
        expect = mixed_volume_ie([p, q])
        got = stable_intersection_number(curve_fan(p), curve_fan(q))
        assert got == expect


def test_stable_intersection_lattice_index():
    # two transverse lines through sublattice directions
    a = ray_fan([((1, 2), 1), ((-1, -2), 1)])
    b = ray_fan([((1, 0), 1), ((-1, 0), 1)])
    assert stable_intersection_number(a, b) == 2


def test_stable_intersection_requires_complementary_dims():
    with pytest.raises(NotComplementary):
        stable_intersection_number(LINE, WeightedFan(2, [(full_space(2), 1)]))


def surface(blocks):
    """T_2 of the classical MCI of two blocks of points in ℤ⁴."""
    return tci_from_mci(classical_mci(blocks)).fans[-1]


def test_stable_intersection_of_two_surfaces_in_z4():
    # MV(square, square) = 2 in the first two coordinates, times MV(e_3, e_4) = 1
    squares = [[(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]] * 2
    segments = [[(0, 0, 0, 0), (0, 0, 1, 0)], [(0, 0, 0, 0), (0, 0, 0, 1)]]
    assert stable_intersection_number(surface(squares), surface(segments)) == 2


cube_blocks = st.lists(st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=2,
                                max_size=4, unique=True), min_size=4, max_size=4)


@settings(max_examples=20)
@given(cube_blocks)
def test_stable_intersection_of_surfaces_in_z4_is_the_mixed_volume(blocks):
    s, t = surface(blocks[:2]), surface(blocks[2:])
    got = stable_intersection_number(s, t)
    assert got == mixed_volume_ie([LatticePolytope(b) for b in blocks])
    if s.is_zero() or t.is_zero():
        assert got == 0


@pytest.mark.parametrize("a,b", [
    (WeightedFan(2, [], dim=1), LINE),
    (LINE, WeightedFan(2, [(full_space(2), 1)])),
], ids=["zero_against_nonzero", "different_dimensions"])
def test_fans_of_unequal_shape_are_not_equal(a, b):
    assert not fans_equal(a, b)
    assert not fans_equal(b, a)


def test_connectivity_of_support():
    quads = WeightedFan(2, [(Cone(2, rays=[(1, 0), (0, 1)]), 1),
                            (Cone(2, rays=[(0, 1), (-1, 0)]), 1)])
    assert support_connected_off_origin(quads)
    apart = WeightedFan(2, [(Cone(2, rays=[(1, 0), (0, 1)]), 1),
                            (Cone(2, rays=[(-1, 0), (0, -1)]), 1)])
    assert not support_connected_off_origin(apart)


def test_fan_addition_and_scaling():
    doubled = LINE + LINE
    assert {w for _, w in doubled.cones} == {2}
    assert fans_equal(doubled, LINE.scale(2))
    assert (LINE + (-LINE)).is_zero()


def test_a_cone_with_lineality_cancels_against_its_consolidation():
    h = Cone(3, ineqs=[(1, 1, 0)])
    assert (WeightedFan(3, [(h, 1)]) + consolidate([(h, -1)], 3, 3)).is_zero()


@st.composite
def plane_cone_sums(draw):
    """A formal sum of weighted 2-dimensional cones in ℤ³ lying in two or three
    distinct planes; any two of them meet in a line."""
    vec = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
    planes = draw(st.lists(vec, min_size=2, max_size=3,
                           unique_by=lambda v: canonical_span_rows([v])))
    pairs = []
    for _ in range(draw(st.integers(2, 6))):
        basis = kernel_basis([draw(st.sampled_from(planes))], 3)
        gens = [vadd(vscale(draw(st.integers(-2, 2)), basis[0]),
                     vscale(draw(st.integers(-2, 2)), basis[1])) for _ in range(3)]
        lin = [gens.pop()] if draw(st.booleans()) and any(gens[-1]) else []
        cone = Cone(3, rays=gens, lineality=lin)
        assume(cone.dim == 2)
        pairs.append((cone, draw(st.sampled_from([-2, -1, 1, 2]))))
    return pairs


@settings(max_examples=30)
@given(plane_cone_sums())
def test_consolidated_cells_carry_the_summed_input_weight(pairs):
    fan = consolidate(pairs, 3, 2)
    for cell, w in fan.cones:
        p = cell.relint_point()
        assert sum(wi for c, wi in pairs if c.contains(p)) == w


def test_a_fan_rejects_a_cone_of_another_ambient_dimension():
    with pytest.raises(ValueError):
        WeightedFan(2, [(full_space(3), 1)])


def test_a_fan_takes_exact_weights_only():
    rays = [(1, 1), (-1, 0), (0, -1)]
    with pytest.raises(ValueError):
        WeightedFan(2, [(Cone(2, rays=[r]), 0.5) for r in rays])
    for w in (2, Fraction(1, 2), Poly.linear((1, 0))):
        assert is_balanced(WeightedFan(2, [(Cone(2, rays=[r]), w) for r in rays]))


@pytest.mark.parametrize("rows", [[[1]], [[1, 0, 5]]])
def test_pushforward_rejects_rows_of_the_wrong_width(rows):
    with pytest.raises(ValueError):
        pushforward(LINE, rows)
