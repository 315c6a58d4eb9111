"""Cycle pairings, positivity reports, and incident line-family types."""

from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from tropeci.cohomology import (
    AFReport,
    CycleWitness,
    LinePairClass,
    MissingWitness,
    NotInteresting,
    ProjectiveLine,
    _congruence_signature,
    af_check,
    classify_line_pair,
    cycle_evaluate,
    gram_signature,
    interesting_pair,
    intersection_number,
    irreducibility_certificate,
    self_intersection,
)
from tropeci.cones import Cone, full_space
from tropeci.fans import NotComplementary, WeightedFan, fans_equal
from tropeci.mci import TCI, bkk_number, classical_mci, tci_from_mci
from tropeci.oracles import polygon_curve_rays, random_lattice_polytope
from tropeci.plfunc import pl_from_polytope
from tropeci.polytopes import LatticePolytope, mixed_volume_ie

TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
SQUARE = LatticePolytope([(0, 0), (1, 0), (1, 1), (0, 1)])
PENTAGON = LatticePolytope([(0, 0), (2, 0), (3, 1), (1, 2), (0, 1)])
HEXAGON = LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])

# unit squares sitting in the two complementary coordinate planes of R^4
SQUARE_12 = LatticePolytope(
    [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)])
SQUARE_34 = LatticePolytope(
    [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)])


def unit_fan(dim):
    return WeightedFan(dim, [(full_space(dim), 1)])


def plane_fan(spanning, weight=1):
    """The plane spanned by two vectors of R^4, as a weighted 2-fan."""
    return WeightedFan(4, [(Cone(4, rays=[], lineality=list(spanning)), weight)])


def witness(poly, fan=None, power=1):
    base = fan if fan is not None else unit_fan(len(poly.vertices[0]))
    return CycleWitness(base, [pl_from_polytope(poly)], [power])


# -- evaluating witnesses -----------------------------------------------------


def test_no_factors_returns_the_base_fan():
    base = unit_fan(3)
    assert fans_equal(cycle_evaluate(CycleWitness(base, [])), base)


def test_single_polygon_factor_is_the_dual_curve():
    folded = cycle_evaluate(witness(HEXAGON))
    expected = WeightedFan(2, [(Cone(2, rays=[r]), w)
                               for r, w in polygon_curve_rays(HEXAGON)])
    assert fans_equal(folded, expected)


def test_factor_order_does_not_change_the_cycle():
    m = pl_from_polytope(LatticePolytope(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    n = pl_from_polytope(LatticePolytope(
        [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))
    a = cycle_evaluate(CycleWitness(unit_fan(3), [m, n]))
    b = cycle_evaluate(CycleWitness(unit_fan(3), [n, m]))
    assert fans_equal(a, b)


def test_power_lists_expand_to_repeated_factors():
    doubled = CycleWitness(unit_fan(2), [pl_from_polytope(HEXAGON)], [2])
    assert doubled.codim == 2
    assert intersection_number([doubled]) == 6


def test_too_many_factors_is_rejected():
    gens = [pl_from_polytope(p) for p in (TRIANGLE, SQUARE, PENTAGON)]
    with pytest.raises(ValueError):
        cycle_evaluate(CycleWitness(unit_fan(2), gens))


def test_witness_validation():
    m = pl_from_polytope(SQUARE)
    with pytest.raises(ValueError):
        CycleWitness(unit_fan(3), [m])           # ambient mismatch
    with pytest.raises(ValueError):
        CycleWitness(unit_fan(2), [m], [1, 1])   # length mismatch
    with pytest.raises(ValueError):
        CycleWitness(unit_fan(2), [m], [-1])     # negative power
    with pytest.raises(ValueError):
        CycleWitness(unit_fan(2), [m], [1.5])    # fractional power
    assert CycleWitness(unit_fan(2), [m], [2.0]).powers == (2,)


# -- pairings against mixed volumes -------------------------------------------


def test_full_pairings_match_inclusion_exclusion_mixed_volumes():
    rng = Random(7)
    for ambient in (2, 3):
        for _ in range(4):
            polys = [random_lattice_polytope(rng, ambient, ambient + 2, box=2)
                     for _ in range(ambient)]
            ws = [witness(p) for p in polys]
            number = intersection_number(ws)
            assert number == mixed_volume_ie(polys)
            assert number == intersection_number(ws[::-1])


def test_pairing_requires_complementary_codimension():
    with pytest.raises(NotComplementary):
        intersection_number([witness(SQUARE)])


def test_pairing_requires_a_common_base_fan():
    doubled = WeightedFan(2, [(full_space(2), 2)])
    with pytest.raises(ValueError):
        intersection_number([witness(SQUARE), witness(PENTAGON, fan=doubled)])
    with pytest.raises(ValueError):
        intersection_number([])


# -- self-intersection of a chain's last stage --------------------------------


def test_hypersurface_self_intersection_is_the_normalized_area():
    tci = tci_from_mci(classical_mci([HEXAGON.vertices]))
    assert self_intersection(tci, 2) == 6


def test_full_codimension_chain_self_intersection_is_its_point_count():
    tci = tci_from_mci(classical_mci([TRIANGLE.vertices, SQUARE.vertices]))
    assert self_intersection(tci, 1) == 2
    assert self_intersection(tci, 1) == bkk_number(tci)


def test_wrong_power_is_rejected():
    tci = tci_from_mci(classical_mci([HEXAGON.vertices]))
    with pytest.raises(ValueError, match="power must be 2"):
        self_intersection(tci, 1)


def test_collapsed_chain_has_no_self_intersection():
    collapsed = tci_from_mci(classical_mci([[(1, 1)], [(1, 1)]]))
    assert collapsed.collapsed_at == 1
    with pytest.raises(ValueError):
        self_intersection(collapsed, 1)


def test_chain_without_functions_has_no_self_intersection():
    bare = TCI(WeightedFan(2, [(full_space(2), 1)]), [])
    with pytest.raises(ValueError, match="chain has no stage functions"):
        self_intersection(bare, 3)


# -- symmetric pairing tables and their inertia --------------------------------


def test_three_polygon_pairing_table():
    gens = [pl_from_polytope(p) for p in (TRIANGLE, SQUARE, PENTAGON)]
    base = unit_fan(2)
    table = [[intersection_number([CycleWitness(base, [a]),
                                   CycleWitness(base, [b])])
              for b in gens] for a in gens]
    # mixed_volume_ie of each pair of the three polygons
    assert table == [[1, 2, 4], [2, 2, 5], [4, 5, 8]]
    # Descartes' rule on its characteristic polynomial x³ − 11x² − 19x − 7
    assert gram_signature(base, gens) == (1, 2, 0)


def test_homothetic_generators_give_a_degenerate_table():
    gens = [pl_from_polytope(HEXAGON), pl_from_polytope(HEXAGON.dilate(2))]
    # mixed_volume_ie Gram [[6, 12], [12, 24]]: rank 1 with positive trace
    assert gram_signature(unit_fan(2), gens) == (1, 0, 1)


def test_random_polygon_tables_have_one_positive_direction():
    rng = Random(3)
    base = unit_fan(2)
    for _ in range(6):
        k = rng.choice((2, 3))
        gens = [pl_from_polytope(random_lattice_polytope(rng, 2, 4, box=3))
                for _ in range(k)]
        n_plus, n_minus, n_zero = gram_signature(base, gens)
        assert n_plus == 1
        assert n_minus + n_zero == k - 1


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices, half of them with a zero diagonal, which
    forces the pairing step before the first pivot."""
    n = draw(st.integers(2, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            m[i][j] = m[j][i] = draw(entry)
    return m


@given(symmetric_matrices())
def test_congruence_signature_obeys_descartes_rule(m):
    # every root of a symmetric matrix's characteristic polynomial is real, so
    # Descartes' rule counts the positive and the negative eigenvalues exactly
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()
    deg = len(coeffs) - 1
    zeros = next(i for i, c in enumerate(reversed(coeffs)) if c != 0)
    negated = [c * (-1) ** (deg - k) for k, c in enumerate(coeffs)]
    assert _congruence_signature(m) == \
        (_sign_changes(coeffs), _sign_changes(negated), zeros)


def test_gram_needs_a_two_dimensional_fan():
    with pytest.raises(ValueError):
        gram_signature(unit_fan(3), [pl_from_polytope(SQUARE)])


def test_quadratic_pairing_inequality_on_polygons():
    report = af_check(unit_fan(2),
                      pl_from_polytope(SQUARE), pl_from_polytope(PENTAGON))
    # mixed_volume_ie of (square, square), (square, pentagon), (pentagon, pentagon)
    assert (report.first_square, report.mixed, report.second_square) == (2, 5, 8)
    assert report.holds


def test_quadratic_pairing_inequality_is_tight_on_equal_arguments():
    m = pl_from_polytope(PENTAGON)
    report = af_check(unit_fan(2), m, m)
    assert report.mixed ** 2 == report.first_square * report.second_square
    assert report.holds


def test_quadratic_pairing_inequality_holds_for_random_polygons():
    rng = Random(19)
    for _ in range(8):
        a = pl_from_polytope(random_lattice_polytope(rng, 2, 5, box=3))
        b = pl_from_polytope(random_lattice_polytope(rng, 2, 5, box=3))
        assert af_check(unit_fan(2), a, b).holds


# -- a reducible two-plane cycle breaks both positivity patterns ---------------


def two_plane_fan():
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return plane_fan([e[0], e[1]], 2) + plane_fan([e[2], e[3]], 2)


def test_square_cycles_are_the_opposite_coordinate_planes():
    m = pl_from_polytope(SQUARE_12)
    folded = cycle_evaluate(CycleWitness(unit_fan(4), [m], [2]))
    assert fans_equal(folded, plane_fan([(0, 0, 1, 0), (0, 0, 0, 1)], 2))


def test_two_plane_pairings_split_by_coordinate_blocks():
    f = two_plane_fan()
    m = pl_from_polytope(SQUARE_12)
    n = pl_from_polytope(SQUARE_34)

    def pair(a, b):
        return intersection_number([CycleWitness(f, [a]),
                                    CycleWitness(f, [b])])

    # mixed_volume_ie of the squares taken 1:3 and 3:1, 0 + 0
    assert pair(m, n) == 0
    assert pair(m, m) == 4
    assert pair(n, n) == 4
    # each diagonal entry agrees with an ambient mixed volume
    assert mixed_volume_ie([SQUARE_12, SQUARE_12, SQUARE_34, SQUARE_34]) == 4


def test_two_plane_fan_fails_the_quadratic_inequality():
    f = two_plane_fan()
    report = af_check(f, pl_from_polytope(SQUARE_12),
                      pl_from_polytope(SQUARE_34))
    # the pairings above, each matched by mixed_volume_ie in R^4
    assert (report.first_square, report.mixed, report.second_square) == (4, 0, 4)
    assert not report.holds
    assert report.first_square * report.second_square == 16


def test_two_plane_fan_has_two_positive_directions():
    f = two_plane_fan()
    gens = [pl_from_polytope(SQUARE_12), pl_from_polytope(SQUARE_34)]
    assert gram_signature(f, gens) == (2, 0, 0)


# -- one-sided irreducibility certificates -------------------------------------


def hexagon_chain():
    return tci_from_mci(classical_mci([HEXAGON.vertices]))


def test_nonnegative_last_function_certifies_at_level_i():
    assert irreducibility_certificate(hexagon_chain(), "i") == \
        "certified_irreducible"


def test_zero_function_is_inconclusive_not_reducible():
    tci = tci_from_mci(classical_mci([[(0, 0)]]))
    assert tci.collapsed_at is None
    assert irreducibility_certificate(tci, "i") == "inconclusive"


def test_sign_changing_function_is_inconclusive_at_level_i():
    # a shifted segment: its support function goes negative on a half-plane
    tci = tci_from_mci(classical_mci([[(1, 0), (2, 0)]]))
    assert irreducibility_certificate(tci, "i") == "inconclusive"


def test_positive_square_fold_certifies_at_level_ii():
    assert irreducibility_certificate(hexagon_chain(), "ii") == \
        "certified_irreducible"


def test_level_iii_requires_a_witness():
    with pytest.raises(MissingWitness):
        irreducibility_certificate(hexagon_chain(), "iii")


def test_level_iii_certifies_against_a_complementary_witness():
    tci = hexagon_chain()
    g = CycleWitness(tci.fans[0], [tci.functions[-1]])
    assert irreducibility_certificate(tci, "iii", g_witness=g) == \
        "certified_irreducible"


def test_certificates_reject_collapsed_chains_and_bad_levels():
    collapsed = tci_from_mci(classical_mci([[(1, 1)], [(1, 1)]]))
    with pytest.raises(ValueError):
        irreducibility_certificate(collapsed, "i")
    with pytest.raises(ValueError):
        irreducibility_certificate(hexagon_chain(), "iv")


# -- complementary pairs worth a closer look -----------------------------------


def test_transversal_planes_pair_nontrivially():
    t = plane_fan([(1, 0, 0, 0), (0, 1, 0, 0)])
    f = plane_fan([(0, 0, 1, 0), (0, 0, 0, 1)])
    report = interesting_pair(t, f)
    assert (report.interesting, report.connected, report.zero_product) == \
        (False, True, False)


def test_parallel_planes_make_an_interesting_pair():
    t = plane_fan([(1, 0, 0, 0), (0, 1, 0, 0)])
    report = interesting_pair(t, t)
    assert (report.interesting, report.connected, report.zero_product) == \
        (True, True, True)


def test_disconnected_support_is_never_interesting():
    f = plane_fan([(0, 0, 1, 0), (0, 0, 0, 1)])
    report = interesting_pair(two_plane_fan(), f)
    assert (report.interesting, report.connected, report.zero_product) == \
        (False, False, False)


def test_pair_dimensions_must_be_complementary():
    t = plane_fan([(1, 0, 0, 0), (0, 1, 0, 0)])
    line = WeightedFan(4, [(Cone(4, rays=[(1, 0, 0, 0)]), 1)])
    with pytest.raises(NotComplementary):
        interesting_pair(t, line)


def test_pair_rejects_negative_weights():
    t = plane_fan([(1, 0, 0, 0), (0, 1, 0, 0)], weight=-1)
    f = plane_fan([(0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError):
        interesting_pair(t, f)


# -- lines in projective 3-space -----------------------------------------------


def test_lines_canonicalize_across_presentations():
    a = ProjectiveLine((0, 0, 0), (1, 0, 0))
    b = ProjectiveLine((2, 0, 0), (5, 0, 0))
    assert a == b
    assert a.plucker() == b.plucker()
    assert hash(a) == hash(b)


def test_float_and_fraction_points_give_the_same_line():
    half = ProjectiveLine((Fraction(1, 2), 0, 0), (0, 1, 0))
    assert ProjectiveLine((0.5, 0, 0), (0, 1, 0)) == half
    assert half != ProjectiveLine((0, 0, 0), (0, 1, 0))


def test_line_membership_homogenizes_affine_points():
    axis = ProjectiveLine((0, 0, 0), (1, 0, 0))
    assert axis.contains((7, 0, 0))
    assert axis.contains((1, 0, 0, 0))    # its point at infinity
    assert not axis.contains((0, 1, 0))


def test_coincident_points_do_not_define_a_line():
    with pytest.raises(ValueError):
        ProjectiveLine((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        ProjectiveLine((1, 0, 0, 1), (2, 0, 0, 2))


def test_coplanar_lines_meet_and_generic_lines_do_not():
    x_axis = ProjectiveLine((0, 0, 0), (1, 0, 0))
    shifted = ProjectiveLine((0, 1, 0), (1, 1, 0))     # parallel, same plane
    sideways = ProjectiveLine((0, 0, 1), (0, 1, 1))
    assert x_axis.meets(shifted)
    assert shifted.meets(x_axis)
    assert not x_axis.meets(sideways)


# -- classifying incident line families ----------------------------------------

X_AXIS = ((0, 0, 0), (1, 0, 0))
Y_AXIS = ((0, 0, 0), (0, 1, 0))
Z_AXIS = ((0, 0, 0), (0, 0, 1))

LINE_FAMILIES = {
    # every line passes through the origin
    1: ([X_AXIS, Y_AXIS], [Z_AXIS, ((0, 0, 0), (1, 1, 1))]),
    # every line lies in the plane z = 0
    2: ([X_AXIS, Y_AXIS],
        [((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 1, 0))]),
    # a pencil through the origin inside z = 0, met by one in-plane line
    # and one line through the center
    3: ([X_AXIS, Y_AXIS, ((0, 0, 0), (1, 1, 0))],
        [((0, 1, 0), (1, 1, 0)), Z_AXIS]),
    # two plane-point pencils with crossed centers on the common axis; each
    # l-r pair meets and each family is skew, by the 4×4 determinant of the
    # homogenized points (zero exactly when two lines meet)
    4: ([Y_AXIS, ((1, 0, 0), (1, 0, 1))],
        [((1, 0, 0), (1, 1, 0)), Z_AXIS]),
    # one family is a single line (here presented twice)
    5: ([X_AXIS, ((0, 0, 0), (2, 0, 0))],
        [Z_AXIS, ((1, 0, 0), (1, 1, 0)), ((2, 0, 0), (2, 1, 1))]),
    # two skew lines and three pairwise-skew common transversals, checked by
    # the same determinant
    6: ([X_AXIS, ((0, 0, 1), (0, 1, 1))],
        [((1, 0, 0), (0, 1, 1)), ((2, 0, 0), (0, 3, 1)),
         ((-1, 0, 0), (0, -1, 1))]),
}

EXPECTED_MATCHES = {1: (1, 3, 4), 2: (2, 3, 4), 3: (3, 4, 6),
                    4: (4, 6), 5: (5,), 6: (6,)}


@pytest.mark.parametrize("tag", sorted(LINE_FAMILIES))
def test_line_family_types(tag):
    ls, rs = LINE_FAMILIES[tag]
    got = classify_line_pair(ls, rs)
    assert got.tag == tag
    assert got.matches == EXPECTED_MATCHES[tag]


@pytest.mark.parametrize("tag", sorted(LINE_FAMILIES))
def test_line_family_types_survive_interchanging_the_families(tag):
    ls, rs = LINE_FAMILIES[tag]
    assert classify_line_pair(rs, ls).tag == tag


def test_types_are_stable_under_projective_transformations():
    rng = Random(11)
    from tropeci.linalg import det

    def transform(mat, point):
        p = tuple(point) + (1,)
        return tuple(sum(mat[i][j] * p[j] for j in range(4)) for i in range(4))

    for tag in (1, 4, 6):
        ls, rs = LINE_FAMILIES[tag]
        while True:
            mat = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            if det(mat) != 0:
                break
        tls = [(transform(mat, a), transform(mat, b)) for a, b in ls]
        trs = [(transform(mat, a), transform(mat, b)) for a, b in rs]
        assert classify_line_pair(tls, trs).tag == tag


def test_skew_input_lines_are_not_interesting():
    with pytest.raises(NotInteresting, match="skew"):
        classify_line_pair([X_AXIS], [((0, 0, 1), (0, 1, 1))])


def test_classification_accepts_line_objects_and_rejects_empty_families():
    ls = [ProjectiveLine(*X_AXIS), ProjectiveLine(*Y_AXIS)]
    rs = [ProjectiveLine(*Z_AXIS)]
    assert classify_line_pair(ls, rs).tag == 1
    with pytest.raises(ValueError):
        classify_line_pair([], rs)


def test_double_ruling_is_rejected_as_disconnected():
    # both families of a doubly ruled quadric are pairwise skew
    ls = [((0, 0, 0), (0, 1, 0)), ((1, 0, 0), (1, 1, 1)),
          ((2, 0, 0), (2, 1, 2))]
    rs = [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (1, 1, 1)),
          ((0, 2, 0), (1, 2, 2))]
    with pytest.raises(ValueError, match="connected"):
        classify_line_pair(ls, rs)
