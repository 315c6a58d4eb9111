from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropeci.cones import (
    Cone,
    _cut_cone,
    chamber_complex,
    common_refinement,
    dual_description,
    full_space,
    overlaps,
)
from tropeci.linalg import dot, rank, vneg


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


def test_redundant_generator_dropped():
    c = Cone(2, rays=[(1, 0), (0, 1), (1, 1)])
    assert c.rays == [(0, 1), (1, 0)]


def test_subspace_cone():
    c = Cone(2, ineqs=[], eqs=[(1, 0)])
    assert c.rays == []
    assert c.lineality == [(0, 1)]
    assert c.facets() == []
    assert c.dim == 1


def test_intersection():
    c = Cone(2, ineqs=[(1, 0), (0, 1)])
    d = Cone(2, ineqs=[(1, -1)])
    i = c.intersect(d)
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
        assert len(cell.rays) == 2 and cell.lin == []


def test_chambers_three_lines():
    cells = chamber_complex([(1, 0), (0, 1), (1, -1)], 2)
    assert len(cells) == 6


def test_chambers_braid_r3():
    normals = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    cells = chamber_complex(normals, 3)
    assert len(cells) == 6  # orderings of 3 coordinates
    for cell in cells:
        assert len(cell.lin) == 1  # the diagonal


def test_chambers_non_essential():
    cells = chamber_complex([(1, 0, 0), (0, 1, 0)], 3)
    assert len(cells) == 4
    for cell in cells:
        assert len(cell.lin) == 1 and cell.lin[0][2] != 0


def test_chamber_masks_mark_tight_hyperplanes():
    normals = [(1, 0), (0, 1)]
    cells = chamber_complex(normals, 2)
    for cell in cells:
        for r, mk in zip(cell.rays, cell.masks):
            for i, h in enumerate(normals):
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
        assert cell.lin == []
        p = cell.cone(n).relint_point()
        signed = [h if dot(h, p) > 0 else vneg(h) for h in normals]
        assert all(dot(h, p) > 0 for h in signed)
        assert sorted(cell.rays) == dual_description(signed, [], n)[0]
        for r, mk in zip(cell.rays, cell.masks):
            assert mk == sum(1 << i for i, h in enumerate(normals) if dot(h, r) == 0)


def test_overlaps_skips_pairs_meeting_only_at_the_origin():
    q1 = Cone(2, rays=[(1, 0), (0, 1)])
    q2 = Cone(2, rays=[(0, 1), (-1, 0)])
    q3 = Cone(2, rays=[(-1, 0), (0, -1)])
    found = [(i, j, inter.rays) for i, j, inter in overlaps([q1, q2, q3])]
    assert found == [(0, 1, [(0, 1)]), (1, 2, [(-1, 0)])]


# -- cutting a cone through its rays ------------------------------------------


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
    """One cut of common_refinement done with Cone.intersect, as a reference."""
    out, seen = [], set()
    for cone, tag in seed:
        for cell, l in cells:
            piece = cone.intersect(cell)
            if piece.dim < dim or piece.key() in seen:
                continue
            seen.add(piece.key())
            out.append((piece, tag, [l]))
    return out


def test_refinement_of_seeds_with_lineality_matches_intersect():
    # full space and half-spaces take the lazy route; the cells repeat pieces
    # (the seed's own half-plane, a quadrant given twice), so dedupe is tested
    half = Cone(2, ineqs=[(1, 0)])
    cells2 = [(Cone(2, ineqs=[]), "all"), (Cone(2, ineqs=[(1, 0)]), "x+"),
              (Cone(2, ineqs=[(0, 1)]), "y+"), (Cone(2, ineqs=[(1, 0), (0, 1)]), "q"),
              (Cone(2, ineqs=[(-1, 0)]), "x-"), (Cone(2, ineqs=[(1, 1)]), "d")]
    arrangement = chamber_complex([(1, 0, 0), (0, 1, 0)], 3)
    cells3 = [(c.cone(3), i) for i, c in enumerate(arrangement)]
    cells3 += [(Cone(3, ineqs=[(1, 1, 0)], eqs=[(0, 0, 1)]), "flat")]
    cases = [([(full_space(2), "R2"), (half, "H")], cells2, 2),
             ([(full_space(3), "R3"), (Cone(3, ineqs=[(0, 0, 1)]), "z+")], cells3, 3)]
    for seed, cells, dim in cases:
        got = common_refinement(seed, [cells], dim)
        want = refinement_by_intersect(seed, cells, dim)
        assert [(p.key(), t, ls) for p, t, ls in got] == \
            [(p.key(), t, ls) for p, t, ls in want]
        for (p, _, _), (q, _, _) in zip(got, want):
            assert (p.rays, p.lineality, p.dim) == (q.rays, q.lineality, q.dim)
    assert len(common_refinement([(half, "H")], [cells2], 2)) == 3


@st.composite
def pointed_cones_and_cells(draw):
    """A pointed cone (possibly lower dimensional, given by rays or by raw
    constraints) and a cell with up to three inequalities and one equation."""
    n = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    flat = draw(st.booleans())
    ray = st.tuples(*[coord] * (n - 1), st.integers(1, 2)).map(
        lambda r: (0,) + r[1:] if flat else r)
    cone = Cone(n, rays=draw(st.lists(ray, min_size=1, max_size=n + 2)))
    if draw(st.booleans()):
        cone = Cone(n, ineqs=cone.ineqs, eqs=cone.eqs)
    vec = st.tuples(*[coord] * n)
    cell = Cone(n, ineqs=draw(st.lists(vec, max_size=3)),
                eqs=draw(st.lists(vec, max_size=1)))
    return cone, cell


@settings(max_examples=30)
@given(pointed_cones_and_cells())
def test_cutting_rays_matches_intersect(case):
    cone, cell = case
    want = cone.intersect(cell)
    got = _cut_cone(cone, *cell._constraints(), 0)
    assert got.rays == want.rays and got.lineality == want.lineality == []
    assert got.dim == want.dim and got.key() == want.key()
    assert _cut_cone(cone, *cell._constraints(), want.dim) is not None
    assert _cut_cone(cone, *cell._constraints(), want.dim + 1) is None
