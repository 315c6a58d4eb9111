from fractions import Fraction

import pytest
from cone_reference import extreme_rays, intersect
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropeci import cones
from tropeci.cones import (
    Cone,
    _cut_cone,
    _sides,
    _span_chambers,
    chamber_complex,
    common_refinement,
    dual_description,
    full_space,
    overlaps,
)
from tropeci.linalg import canonical_span_rows, dot, kernel_basis, rank, vadd, vneg, vscale


def test_orthant_two_ways():
    c = Cone(2, ineqs=[(1, 0), (0, 1)])
    assert c.rays == [(0, 1), (1, 0)]
    assert c.lineality == []
    d = Cone(2, rays=[(1, 0), (0, 1)])
    assert sorted(d.ineqs) == [(0, 1), (1, 0)]
    assert c == d


def test_halfplane_has_lineality():
    c = Cone(2, ineqs=[(1, 0)])
    assert c.rays == [(1, 0)]
    assert len(c.lineality) == 1
    assert c.lineality[0][0] == 0
    assert c.dim == 2


def test_square_cone_facets():
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    c = Cone(3, rays=rays)
    assert len(c.ineqs) == 4
    assert sorted(c.rays) == sorted(rays)
    facets = c.facets()
    assert all(f.dim == 2 for f in facets)
    assert all(len(f.rays) == 2 for f in facets)


@pytest.mark.parametrize("kwargs", [
    dict(rays=[(1, 0), (0, 1)], ineqs=[(1, -1)]),
    dict(rays=[(1, 0)], lineality=[(0, 1)], eqs=[(1, 0)]),
    dict(rays=[], lineality=[(1, 1)], ineqs=[]),
])
def test_a_cone_takes_generators_or_constraints_not_both(kwargs):
    with pytest.raises(ValueError):
        Cone(2, **kwargs)


def test_a_cone_rejects_a_negative_ambient_dimension():
    with pytest.raises(ValueError):
        Cone(-1, rays=[])
    with pytest.raises(ValueError):
        Cone(-1, ineqs=[])


def test_redundant_generator_dropped():
    c = Cone(2, rays=[(1, 0), (0, 1), (1, 1)])
    assert c.rays == [(0, 1), (1, 0)]


def test_rational_and_float_rays_are_read_exactly():
    for ray in [(Fraction(1, 2), 1), (0.5, 1.0), (Fraction(3), 6)]:
        assert Cone(2, rays=[ray]).rays == [(1, 2)]
    cone = Cone(2, rays=[(Fraction(1, 3), 0), (0.25, Fraction(1, 2))])
    assert cone.rays == Cone(2, rays=[(1, 0), (1, 2)]).rays


def test_subspace_cone():
    c = Cone(2, ineqs=[], eqs=[(1, 0)])
    assert c.rays == []
    assert c.lineality == [(0, 1)]
    assert c.facets() == []
    assert c.dim == 1


def test_intersection():
    c = Cone(2, ineqs=[(1, 0), (0, 1)])
    d = Cone(2, ineqs=[(1, -1)])
    i = intersect(c, d)
    assert sorted(i.rays) == [(1, 0), (1, 1)]


def test_contains_and_relint():
    c = Cone(2, rays=[(1, 0), (1, 2)])
    assert c.contains((1, 1))
    assert not c.contains((-1, 0))
    p = c.relint_point()
    assert c.contains(p)
    assert all(dot(a, p) > 0 for a in c.ineqs)


def test_dual_description_no_constraints():
    rays, lin = dual_description([], [], 3)
    assert rays == [] and len(lin) == 3


def test_chambers_quadrants():
    cells = chamber_complex([(1, 0), (0, 1)], 2)
    assert len(cells) == 4
    for cell in cells:
        assert len(cell.rays) == 2 and cell.lineality == []


def test_chambers_three_lines():
    cells = chamber_complex([(1, 0), (0, 1), (1, -1)], 2)
    assert len(cells) == 6


def test_chambers_braid_r3():
    normals = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    cells = chamber_complex(normals, 3)
    assert len(cells) == 6  # orderings of 3 coordinates
    for cell in cells:
        assert len(cell.lineality) == 1  # the diagonal


def test_chambers_non_essential():
    cells = chamber_complex([(1, 0, 0), (0, 1, 0)], 3)
    assert len(cells) == 4
    for cell in cells:
        assert len(cell.lineality) == 1 and cell.lineality[0][2] != 0


def test_zero_normals_cut_nothing():
    assert len(chamber_complex([(0, 0), (1, 0), (0, 0)], 2)) == 2


def test_chamber_normals_must_have_the_ambient_width():
    with pytest.raises(ValueError):
        chamber_complex([(1, 0, 0)], 2)
    with pytest.raises(ValueError):
        chamber_complex([(1, 0), (1,)], 2)


def test_chambers_equal_the_conversion_of_their_constraints():
    # the chamber's ray is another representative modulo the lineality than
    # the conversion's; the key reduces both to one
    h = Cone(3, ineqs=[(1, 1, 0)])
    chambers = chamber_complex([(1, 1, 0)], 3)
    assert [c == h for c in chambers] == [True, False]
    assert hash(chambers[0]) == hash(h)


def test_chamber_masks_mark_tight_hyperplanes():
    normals = [(1, 0), (0, 1)]
    cells = chamber_complex(normals, 2)
    for cell in cells:
        ineqs = cell._constraints()[0]
        p = cell.relint_point()
        assert ineqs == sorted(h if dot(h, p) > 0 else vneg(h) for h in normals)
        for r, mk in zip(cell.rays, cell._tight_masks()):
            for i, h in enumerate(ineqs):
                assert ((mk >> i) & 1) == (1 if dot(h, r) == 0 else 0)


def test_full_space():
    c = full_space(3)
    assert c.dim == 3 and c.ineqs == [] and c.eqs == []


@st.composite
def essential_arrangements(draw):
    n = draw(st.integers(2, 4))
    normal = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    normals = draw(st.lists(normal, min_size=n, max_size=n + 3))
    assume(rank(normals) == n)
    return n, normals


@settings(max_examples=60)
@given(essential_arrangements())
def test_chambers_match_a_fresh_conversion_of_their_signed_normals(case):
    n, normals = case
    for cell in chamber_complex(normals, n):
        assert cell.lineality == []
        p = cell.relint_point()
        signed = [h if dot(h, p) > 0 else vneg(h) for h in normals]
        assert all(dot(h, p) > 0 for h in signed)
        assert sorted(cell.rays) == dual_description(signed, [], n)[0]
        ineqs = cell._constraints()[0]
        assert ineqs == sorted(set(signed))
        for r, mk in zip(cell.rays, cell._tight_masks()):
            assert mk == sum(1 << i for i, h in enumerate(ineqs) if dot(h, r) == 0)


@st.composite
def pointed_cones(draw):
    """Up to 8 inequalities and at most one equation of a pointed cone in ℤ³
    or ℤ⁴, all holding at a drawn point p ≠ 0, which the cone thus contains."""
    n = draw(st.sampled_from([3, 4]))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    p = draw(vec.filter(any))
    ineqs = [a if dot(a, p) >= 0 else vneg(a)
             for a in draw(st.lists(vec, min_size=1, max_size=8))]
    eqs = []
    if draw(st.booleans()):
        e = (0,) * n
        for k in kernel_basis([p], n):
            e = vadd(e, vscale(draw(st.integers(-2, 2)), k))
        eqs.append(e)
    assume(rank(ineqs + eqs) == n)
    return n, ineqs, eqs


@settings(max_examples=30)
@given(pointed_cones())
def test_conversion_matches_brute_force_extreme_rays(case):
    n, ineqs, eqs = case
    assert dual_description(ineqs, eqs, n) == (extreme_rays(ineqs, eqs, n), [])


@st.composite
def generated_cones(draw):
    """Rays and lineality in ℤ²–ℤ⁴, all in the span of up to n drawn vectors,
    so the cone may be lower dimensional; two rays' sum and a ray's double
    may be added as redundant generators."""
    n = draw(st.integers(2, 4))
    span = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=n))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span))

    def in_span():
        return tuple(map(sum, zip(*(vscale(c, b) for c, b in zip(draw(coeffs), span)))))

    rays = [in_span() for _ in range(draw(st.integers(0, 5)))]
    lineality = [in_span() for _ in range(draw(st.integers(0, 2)))]
    if len(rays) >= 2 and draw(st.booleans()):
        rays.append(vadd(rays[0], rays[1]))
    if rays and draw(st.booleans()):
        rays.append(vscale(2, rays[0]))
    return n, rays, lineality


@settings(max_examples=40)
@given(generated_cones())
def test_conversions_with_lineality_are_reduced_and_cut_alike(case):
    n, rays, lineality = case
    cone = Cone(n, rays=rays, lineality=lineality)
    for ineqs, eqs in ((rays, lineality), (cone.ineqs, cone.eqs)):
        out, lin = dual_description(ineqs, eqs, n)
        # the rays are already the representatives that Cone.key picks
        assert Cone(n, rays=out, lineality=lin, _trusted=True).key()[0] == tuple(out)
        assert canonical_span_rows(lin) == \
            canonical_span_rows(kernel_basis([a for a in ineqs + eqs if any(a)], n))
    assert _cut_cone(full_space(n), cone.ineqs, cone.eqs, 0).key() == cone.key()


def test_overlaps_skips_pairs_meeting_only_at_the_origin():
    q1 = Cone(2, rays=[(1, 0), (0, 1)])
    q2 = Cone(2, rays=[(0, 1), (-1, 0)])
    q3 = Cone(2, rays=[(-1, 0), (0, -1)])
    found = [(i, j, inter.rays) for i, j, inter in overlaps([q1, q2, q3])]
    assert found == [(0, 1, [(0, 1)]), (1, 2, [(-1, 0)])]


# -- cutting a cone through its rays ------------------------------------------


def test_sides_of_a_hyperplane_keep_the_cone_whole_on_each_side_it_lies_in():
    rays, masks = [(1, 0, 0), (1, 1, 0)], [0, 0]
    inside = _sides(rays, masks, [], (0, 0, 1), 1)
    assert [(r, whole) for r, _, _, whole in inside] == [(rays, True), (rays, True)]
    bounding = _sides(rays, masks, [], (0, -1, 0), 1)
    assert [(r, whole) for r, _, _, whole in bounding] == \
        [([(1, 0, 0)], False), (rays, True)]


def test_refinement_keeps_a_pointed_cone_inside_a_cell_hyperplane():
    # every ray value of the cut is 0: the piece is the whole cone, not a face
    sigma = Cone(3, rays=[(1, 0, 0), (1, 1, 0)])
    cells = [Cone(3, ineqs=[(0, 0, 1)]), Cone(3, ineqs=[(1, 0, 0)], eqs=[(0, 0, 1)])]
    for cell in cells:
        out = common_refinement([(sigma, "t")], [[(cell, "l")]], 2)
        assert [(p.key(), tag, ls) for p, tag, ls in out] == [(sigma.key(), "t", ["l"])]
        assert out[0][0].dim == 2
        assert common_refinement([(sigma, "t")], [[(cell, "l")]], 3) == []


def refinement_by_intersect(seed, cells, dim):
    """One cut of common_refinement done with the reference intersect."""
    out, seen = [], set()
    for cone, tag in seed:
        for cell, l in cells:
            piece = intersect(cone, cell)
            if piece.dim < dim or piece.key() in seen:
                continue
            seen.add(piece.key())
            out.append((piece, tag, [l]))
    return out


def test_refinement_of_seeds_with_lineality_matches_intersect():
    # full space and half-spaces are cut through their lineality, so pieces
    # are compared by key, dimension and lineality span, not by ray
    # representatives; the cells repeat pieces (the seed's own half-plane, a
    # quadrant given twice), so dedupe is tested
    half = Cone(2, ineqs=[(1, 0)])
    cells2 = [(Cone(2, ineqs=[]), "all"), (Cone(2, ineqs=[(1, 0)]), "x+"),
              (Cone(2, ineqs=[(0, 1)]), "y+"), (Cone(2, ineqs=[(1, 0), (0, 1)]), "q"),
              (Cone(2, ineqs=[(-1, 0)]), "x-"), (Cone(2, ineqs=[(1, 1)]), "d")]
    arrangement = chamber_complex([(1, 0, 0), (0, 1, 0)], 3)
    cells3 = [(c, i) for i, c in enumerate(arrangement)]
    cells3 += [(Cone(3, ineqs=[(1, 1, 0)], eqs=[(0, 0, 1)]), "flat")]
    cases = [([(full_space(2), "R2"), (half, "H")], cells2, 2),
             ([(full_space(3), "R3"), (Cone(3, ineqs=[(0, 0, 1)]), "z+")], cells3, 3)]
    for seed, cells, dim in cases:
        got = common_refinement(seed, [cells], dim)
        want = refinement_by_intersect(seed, cells, dim)
        assert [(p.key(), t, ls) for p, t, ls in got] == \
            [(p.key(), t, ls) for p, t, ls in want]
        for (p, _, _), (q, _, _) in zip(got, want):
            assert p.dim == q.dim
            assert canonical_span_rows(p.lineality) == canonical_span_rows(q.lineality)
    assert len(common_refinement([(half, "H")], [cells2], 2)) == 3


@st.composite
def cones_and_cells(draw):
    """A cone (pointed, possibly lower dimensional, or a line, a half-space, a
    wedge × line or a subspace; given by generators or by raw constraints)
    and a cell with up to three inequalities and one equation."""
    n = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    vec = st.tuples(*[coord] * n)
    nonzero = vec.filter(any)
    kind = draw(st.sampled_from(["pointed", "line", "half-space", "wedge", "subspace"]))
    if kind == "pointed":
        flat = draw(st.booleans())
        ray = st.tuples(*[coord] * (n - 1), st.integers(1, 2)).map(
            lambda r: (0,) + r[1:] if flat else r)
        cone = Cone(n, rays=draw(st.lists(ray, min_size=1, max_size=n + 2)))
    elif kind == "half-space":
        cone = Cone(n, ineqs=[draw(nonzero)])
    else:
        rays = draw(st.lists(nonzero, min_size=2, max_size=2)) if kind == "wedge" else []
        lin = draw(st.lists(nonzero, min_size=1, max_size=1 if kind != "subspace" else n - 1))
        cone = Cone(n, rays=rays, lineality=lin)
    if draw(st.booleans()):
        cone = Cone(n, ineqs=cone.ineqs, eqs=cone.eqs)
    cell = Cone(n, ineqs=draw(st.lists(vec, max_size=3)),
                eqs=draw(st.lists(vec, max_size=1)))
    return cone, cell


@settings(max_examples=60)
@given(cones_and_cells())
def test_cutting_rays_matches_intersect(case):
    cone, cell = case
    want = intersect(cone, cell)
    got = _cut_cone(cone, *cell._constraints(), 0)
    assert got.key() == want.key() and got.dim == want.dim
    assert canonical_span_rows(got.lineality) == canonical_span_rows(want.lineality)
    if not want.lineality:
        assert got.rays == want.rays and got.lineality == []
    # only inequalities that can define a facet or an implicit equation stay
    need = got.dim - len(got.lineality) - 1
    for a in got._constraints()[0]:
        assert sum(dot(a, r) == 0 for r in got.rays) >= need
    assert _cut_cone(cone, *cell._constraints(), want.dim) is not None
    assert _cut_cone(cone, *cell._constraints(), want.dim + 1) is None


@settings(max_examples=60)
@given(cones_and_cells())
def test_facets_read_from_tight_masks_match_the_conversion(case):
    cone, cell = case
    got = _cut_cone(cone, *cell._constraints(), 0)
    fresh = Cone(got.ambient, rays=got.rays, lineality=got.lineality)
    real, calls = cones.dual_description, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    cones.dual_description = counted
    try:
        facets = got.facets()
        ridges = [{g.key() for g in f.facets()} for f in facets]
    finally:
        cones.dual_description = real
    assert calls == []
    # without raw constraints the facets come one per H-rep inequality, in order
    assert [f.key() for f in fresh.facets()] == [
        Cone(fresh.ambient, rays=[r for r in fresh.rays if dot(a, r) == 0],
             lineality=fresh.lineality, _trusted=True).key() for a in fresh.ineqs]
    assert sorted(f.key() for f in facets) == sorted(f.key() for f in fresh.facets())
    by_key = {f.key(): f for f in fresh.facets()}
    for f, rs in zip(facets, ridges):
        assert rs == {g.key() for g in by_key[f.key()].facets()}
    # each facet comes with the dimension its rank test found
    for f in facets:
        assert f._dim == rank(f.rays + f.lineality)


@st.composite
def cones_with_shifted_rays(draw):
    """A cone with lineality and the same cone given by other ray representatives."""
    n = draw(st.integers(2, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    lin = draw(st.lists(vec.filter(any), min_size=1, max_size=n - 1))
    cone = Cone(n, rays=draw(st.lists(vec, min_size=1, max_size=n + 1)), lineality=lin)
    coeffs = st.lists(st.integers(-3, 3), min_size=len(cone.lineality),
                      max_size=len(cone.lineality))
    shifted = []
    for r in cone.rays:
        for c, l in zip(draw(coeffs), cone.lineality):
            r = vadd(r, vscale(c, l))
        shifted.append(r)
    return cone, Cone(n, rays=shifted, lineality=cone.lineality, _trusted=True)


@settings(max_examples=30)
@given(cones_with_shifted_rays())
def test_keys_do_not_depend_on_ray_representatives(case):
    cone, shifted = case
    assert shifted.key() == cone.key()
    assert shifted == cone and hash(shifted) == hash(cone)


def test_span_chambers_skip_a_normal_that_vanishes_on_the_span():
    plane, kernel = [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]
    cells = _span_chambers([(0, 0, 1), (1, 0, 0), (1, 1, 1)], plane, kernel, 3)
    assert len(cells) == 4 and len({c.key() for c in cells}) == 4
    assert all(c.dim == 2 and c._constraints()[1] == kernel for c in cells)
