from fractions import Fraction
from itertools import product
from random import Random

import polytope_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropeci import cones, polytopes
from tropeci.cones import Cone
from tropeci.invariants import _reflect
from tropeci.linalg import coordinates_in_basis, dot, rank, vadd, vgcd, vneg, vsub
from tropeci.oracles import (
    boundary_lattice_points,
    hull_sign_changes,
    pick_normalized_area,
    random_lattice_polytope,
)
from tropeci.polytopes import LatticePolytope, TooManyLatticePoints, mixed_volume_ie

SQUARE = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = LatticePolytope([(0, 0), (1, 0), (0, 1)])
HEXAGON = LatticePolytope([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])


def test_hull_drops_interior_points():
    p = LatticePolytope([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert p.vertices == [(0, 0), (0, 3), (3, 0)]


def test_hull_drops_edge_midpoints():
    p = LatticePolytope([(0, 0), (2, 0), (1, 0), (0, 2)])
    assert p.vertices == [(0, 0), (0, 2), (2, 0)]


def test_square_basics():
    assert len(SQUARE.vertices) == 4
    assert SQUARE.dim == 2
    assert SQUARE.normalized_volume() == 2
    assert SQUARE.n_lattice_points() == 4
    assert len(SQUARE.facets()) == 4
    assert SQUARE.affine_eqs() == []


def test_square_face_lattice():
    faces = SQUARE.faces()
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), 0)
        by_size[len(f)] += 1
    assert by_size == {1: 4, 2: 4, 4: 1}


def test_hexagon_frozen_values():
    assert len(HEXAGON.vertices) == 6
    assert HEXAGON.normalized_volume() == 6
    assert HEXAGON.n_lattice_points() == 7
    assert pick_normalized_area(HEXAGON) == 6
    assert boundary_lattice_points(HEXAGON) == 6


def test_lower_dimensional_polytopes():
    seg = LatticePolytope([(0, 0), (3, 0)])
    assert seg.dim == 1
    assert seg.normalized_volume() == 0
    assert seg.relative_normalized_volume() == 3
    assert seg.n_lattice_points() == 4
    diag = LatticePolytope([(0, 0), (2, 2)])
    assert diag.relative_normalized_volume() == 2
    point = LatticePolytope([(5, -1)])
    assert point.dim == 0
    assert point.relative_normalized_volume() == 1
    assert point.n_lattice_points() == 1


def test_three_dimensional_volumes():
    cube = LatticePolytope([(a, b, c) for a in (0, 1) for b in (0, 1)
                            for c in (0, 1)])
    assert cube.normalized_volume() == 6
    assert cube.n_lattice_points() == 8
    octa = LatticePolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                            (0, 0, 1), (0, 0, -1)])
    assert octa.normalized_volume() == 8
    assert octa.n_lattice_points() == 7
    simplex = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert simplex.normalized_volume() == 1


def test_minkowski_sum():
    double = SQUARE.minkowski_sum(SQUARE)
    assert double.vertices == LatticePolytope(
        [(0, 0), (2, 0), (0, 2), (2, 2)]).vertices
    assert double.normalized_volume() == 8
    mixed = SQUARE.minkowski_sum(TRIANGLE)
    assert mixed.normalized_volume() == 7
    assert len(mixed.vertices) == 5


def test_mixed_volume_frozen_desk_values():
    assert mixed_volume_ie([TRIANGLE, TRIANGLE]) == 1
    assert mixed_volume_ie([SQUARE, SQUARE]) == 2
    assert mixed_volume_ie([SQUARE, TRIANGLE]) == 2
    seg_x = LatticePolytope([(0, 0), (1, 0)])
    seg_y = LatticePolytope([(0, 0), (0, 1)])
    assert mixed_volume_ie([seg_x, seg_y]) == 1
    assert mixed_volume_ie([seg_x, seg_x]) == 0


def test_mixed_volume_diagonal_equals_volume():
    rng = Random(7)
    for _ in range(5):
        p = random_lattice_polytope(rng, 2, 5)
        assert mixed_volume_ie([p, p]) == p.normalized_volume()
    p = random_lattice_polytope(rng, 3, 6)
    assert mixed_volume_ie([p, p, p]) == p.normalized_volume()


def test_volume_matches_pick_on_random_polygons():
    rng = Random(11)
    for _ in range(10):
        p = random_lattice_polytope(rng, 2, 6, box=4)
        assert p.normalized_volume() == pick_normalized_area(p)


def test_normal_fan_of_square():
    fan = SQUARE.normal_fan()
    assert len(fan) == 4
    cones = {c.key(): v for c, v in fan}
    for c, v in fan:
        assert c.dim == 2
        # the covector attains the support value on its own cone
        p = c.relint_point()
        assert SQUARE.support(p) == sum(a * b for a, b in zip(p, v))


def test_contains_rational_points():
    assert SQUARE.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not SQUARE.contains((Fraction(3, 2), 0))
    seg = LatticePolytope([(0, 0), (2, 0)])
    assert seg.contains((1, 0))
    assert not seg.contains((1, 1))


def test_fractional_coordinates_are_rejected_not_truncated():
    for points in [[(0.5, 0), (2, 1.9)], [(Fraction(3, 2), 0)]]:
        with pytest.raises(ValueError):
            LatticePolytope(points)
    assert LatticePolytope([(2.0, Fraction(4, 2)), (0, 0)]).vertices == [(0, 0), (2, 2)]


def test_mixed_volume_of_no_polytopes_raises():
    with pytest.raises(ValueError):
        mixed_volume_ie([])


def test_fractional_translations_are_rejected_not_truncated():
    with pytest.raises(ValueError):
        TRIANGLE.translate((0.5, 0))
    with pytest.raises(ValueError):
        TRIANGLE.translate((Fraction(1, 3), 1))
    assert TRIANGLE.translate((2.0, Fraction(3))) == TRIANGLE.translate((2, 3))


def test_translate_dilate_normalize():
    t = TRIANGLE.translate((2, 3))
    assert t.vertices == [(2, 3), (2, 4), (3, 3)]
    assert t.normalize_translation().vertices == TRIANGLE.vertices
    d = TRIANGLE.dilate(2)
    assert d.normalized_volume() == 4
    assert d.n_lattice_points() == 6


def test_hull_sign_changes_oracle():
    # x - 1: one positive root
    assert hull_sign_changes([(0, 0, -1), (1, 0, 1)]) == 1
    # x^2 + 1: none
    assert hull_sign_changes([(0, 0, 1), (2, 0, 1)]) == 0
    # lifted middle point dominates the hull: two changes
    assert hull_sign_changes([(0, 0, 1), (1, 5, -1), (2, 0, 1)]) == 2
    # middle point below the hull is invisible
    assert hull_sign_changes([(0, 0, 1), (1, -5, -1), (2, 0, 1)]) == 0


# -- the homogenization cone against a fresh conversion ------------------------


def _reference(points):
    """Vertices, dim, facets and equations from fresh conversions: a cone over
    the lifted points for the hull, another over the lifted vertices for the
    facets and equations, and the rank of the vertex differences for the
    dimension."""
    pts = sorted(set(points))
    n = len(pts[0])
    if len(pts) == 1:
        verts = pts
    else:
        verts = sorted(r[:-1] for r in Cone(n + 1, rays=[p + (1,) for p in pts]).rays)
    hom = Cone(n + 1, rays=[v + (1,) for v in verts])
    facets = []
    for row in hom.ineqs:
        a, b = row[:-1], row[-1]
        if any(a):
            g = vgcd(a)
            facets.append((tuple(x // g for x in a), b // g))
    eqs = [(row[:-1], row[-1]) for row in hom.eqs]
    dim = rank([vsub(v, verts[0]) for v in verts[1:]])
    return verts, dim, sorted(facets), eqs


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 3)] * n)
    return draw(st.lists(point, min_size=1, max_size=7))


@settings(max_examples=120)
@given(point_sets())
def test_polytope_reads_its_one_cone_like_fresh_conversions(points):
    p = LatticePolytope(points)
    verts, dim, facets, eqs = _reference(points)
    assert p.vertices == verts
    assert p.dim == dim
    assert p.facets() == facets
    assert p.affine_eqs() == eqs

    def inside(x):
        return all(dot(a, x) + b >= 0 for a, b in facets) and \
            all(dot(e, x) + c == 0 for e, c in eqs)

    cube = list(product(range(4), repeat=len(verts[0])))
    assert p.lattice_points() == [x for x in cube if inside(x)]
    assert p.n_lattice_points() == len(p.lattice_points())
    probes = product(range(-1, 5), repeat=len(verts[0]))
    assert all(p.contains(x) == inside(x) for x in probes)


def test_a_single_point_runs_no_conversion_until_its_facets(monkeypatch):
    calls = []
    real = cones.dual_description

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cones, "dual_description", counted)
    p = LatticePolytope([(1, 0, 2)])
    assert (p.vertices, p.dim) == ([(1, 0, 2)], 0)
    assert calls == []
    assert p.facets() == [] and len(p.affine_eqs()) == 3
    assert len(calls) == 1


# -- trusted vertices against fresh hulls ---------------------------------------


def _assert_same_polytope(p, fresh):
    """``p`` reads like ``fresh`` everywhere, and its lattice points are the
    points of the bounding box that ``fresh`` contains."""
    assert p.vertices == fresh.vertices
    assert p.dim == fresh.dim
    assert p.facets() == fresh.facets()
    assert all(vgcd(a) == 1 for a, _ in p.facets())
    assert p.affine_eqs() == fresh.affine_eqs()
    assert p.normalized_volume() == fresh.normalized_volume()
    box = [range(min(v[i] for v in fresh.vertices), max(v[i] for v in fresh.vertices) + 1)
           for i in range(fresh.ambient)]
    assert p.lattice_points() == [x for x in product(*box) if fresh.contains(x)]


@settings(max_examples=60)
@given(point_sets(), st.data())
def test_trusted_constructions_equal_fresh_hulls_of_their_points(points, data):
    p = LatticePolytope(points)
    n = p.ambient
    t = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    other = LatticePolytope(data.draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=2, max_size=4)))
    point = LatticePolytope([t])
    moved = [vadd(v, t) for v in p.vertices]
    built = [(p.translate(t), moved), (p.minkowski_sum(point), moved),
             (point.minkowski_sum(p), moved), (_reflect(p), [vneg(v) for v in p.vertices]),
             (p.minkowski_sum(other), [vadd(v, w) for v in p.vertices for w in other.vertices])]
    built += [(p.dilate(k), [tuple(k * x for x in v) for v in p.vertices]) for k in range(4)]
    built += [(LatticePolytope._from_vertices(f), f) for f in p.faces()]
    if p.dim:  # an injective lattice image, as the facet-coning volume reference builds
        coords = [tuple(int(c) for c in coordinates_in_basis(p.span_rows(), vsub(v, p.vertices[0])))
                  for v in p.vertices]
        built.append((LatticePolytope._from_vertices(coords), coords))
    for q, pts in built:
        _assert_same_polytope(q, LatticePolytope(pts))


@st.composite
def volume_point_sets(draw):
    """Points in ℤ¹–ℤ⁴, or points x of ℤᵐ put on a lattice hyperplane of ℤᵐ⁺¹
    by inserting the coordinate c·x + d at a random place."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n), min_size=n + 1,
                             max_size=n + 5, unique=True))
    m = draw(st.integers(1, 3))
    base = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * m), min_size=m + 1,
                         max_size=m + 4, unique=True))
    c = draw(st.tuples(*[st.integers(-2, 2)] * m))
    d = draw(st.integers(-2, 2))
    at = draw(st.integers(0, m))
    return [x[:at] + (dot(c, x) + d,) + x[at:] for x in base]


@settings(max_examples=60)
@given(volume_point_sets())
def test_volumes_equal_the_facet_coning_reference(points):
    p = LatticePolytope(points)
    assert p.normalized_volume() == polytope_reference.normalized_volume(p)
    assert p.relative_normalized_volume() == polytope_reference.relative_normalized_volume(p)


def test_lattice_points_refuse_too_many_lines_or_points(monkeypatch):
    # the count lists no point, yet it refuses wherever the list does
    for count in (lambda p: len(p.lattice_points()), LatticePolytope.n_lattice_points):
        # two lattice points, but 10^8 lines of the box to scan
        with pytest.raises(TooManyLatticePoints, match="lines"):
            count(LatticePolytope([(0, 0, 0), (10 ** 4, 10 ** 4, 1)]))
        # one line, but 10^9 + 1 points on it
        with pytest.raises(TooManyLatticePoints, match="points"):
            count(LatticePolytope([(0, 0), (0, 10 ** 9)]))
        box = LatticePolytope([(0, 0), (3, 0), (0, 9), (3, 9)])  # 4 lines of 10 points
        monkeypatch.setattr(polytopes, "MAX_LATTICE_LINES", 4)
        monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 40)
        assert count(box) == 40
        with pytest.raises(TooManyLatticePoints, match="lines"):
            count(LatticePolytope([(0, 0), (4, 0), (0, 1)]))
        monkeypatch.setattr(polytopes, "MAX_LATTICE_POINTS", 39)
        with pytest.raises(TooManyLatticePoints, match="points"):
            count(box)
        monkeypatch.undo()


def test_lattice_points_of_the_zero_dimensional_lattice():
    assert LatticePolytope([()]).lattice_points() == [()]
    assert LatticePolytope([()]).n_lattice_points() == 1
