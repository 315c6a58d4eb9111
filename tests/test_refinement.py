"""Properties of the common refinement behind sums, products and corner loci.

Each case draws random lattice polytopes in ℤ² or ℤ³ and compares a value
computed on a common refinement of cell structures with one computed
without it, or checks the corner-locus wall step that runs on such a
refinement.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropeci.cones import Cone, full_space
from tropeci.fans import NotBalanced, WeightedFan, fans_equal, is_balanced
from tropeci.oracles import random_lattice_polytope
from tropeci.plfunc import PLFunction, corner_locus, pl_add, pl_from_polytope
from tropeci.ppfunc import Poly, pp_corner_locus, pp_from_pl_product

CASES = settings(max_examples=30)
cases = st.tuples(st.sampled_from([2, 3]), st.integers(0, 2**32))


def _polytopes(ambient: int, seed: int):
    rng = Random(seed)
    return [random_lattice_polytope(rng, ambient, ambient + rng.randint(1, 3), box=2)
            for _ in range(2)], rng


def _probes(rng: Random, ambient: int) -> list:
    return [tuple(rng.randint(-4, 4) for _ in range(ambient)) for _ in range(12)]


@CASES
@given(cases)
def test_pl_add_is_the_support_function_of_the_minkowski_sum(case):
    ambient, seed = case
    (p, q), rng = _polytopes(ambient, seed)
    total = pl_add(pl_from_polytope(p), pl_from_polytope(q))
    expected = pl_from_polytope(p.minkowski_sum(q))
    assert all(c.dim == ambient for c, _ in total.cells)
    probes = _probes(rng, ambient) + [c.relint_point() for c, _ in total.cells]
    for x in probes:
        assert total.value(x) == expected.value(x)


@CASES
@given(cases)
def test_pp_product_is_the_pointwise_product(case):
    ambient, seed = case
    (p, q), rng = _polytopes(ambient, seed)
    mp, mq = pl_from_polytope(p), pl_from_polytope(q)
    product = pp_from_pl_product([mp, mq])
    for x in _probes(rng, ambient) + [c.relint_point() for c, _ in product.cells]:
        assert product.value(x) == mp.value(x) * mq.value(x)


@CASES
@given(cases)
def test_cutting_every_cell_by_a_hyperplane_keeps_the_corner_locus(case):
    ambient, seed = case
    (p, _), rng = _polytopes(ambient, seed)
    h = (0,) * ambient
    while not any(h):
        h = tuple(rng.randint(-2, 2) for _ in range(ambient))
    zero = (0,) * ambient
    halves = PLFunction(ambient, [(Cone(ambient, ineqs=[h]), zero),
                                  (Cone(ambient, ineqs=[tuple(-x for x in h)]), zero)])
    m = pl_from_polytope(p)
    cut = pl_add(m, halves)
    space = WeightedFan(ambient, [(full_space(ambient), 1)])
    assert fans_equal(corner_locus(cut, space), corner_locus(m, space))


@CASES
@given(cases)
def test_the_pl_corner_locus_is_the_pp_corner_locus_at_degree_one(case):
    ambient, seed = case
    (p, _), _ = _polytopes(ambient, seed)
    m = pl_from_polytope(p)
    space = WeightedFan(ambient, [(full_space(ambient), 1)])
    pl = {cone.key(): Poly.const(ambient, w) for cone, w in corner_locus(m, space).cones}
    # the whole space weighted by 1, and by the constant polynomial 1
    for weight in (1, Poly.const(ambient, 1)):
        pp = pp_corner_locus(pp_from_pl_product([m]),
                             WeightedFan(ambient, [(full_space(ambient), weight)]))
        assert {cone.key(): w for cone, w in pp.cones} == pl


@CASES
@given(cases)
def test_corner_locus_rejects_an_unbalanced_cycle(case):
    # one cone of a balanced divisor gets one more unit of weight, so the
    # walls of that cone no longer balance
    ambient, seed = case
    (p, q), rng = _polytopes(ambient, seed)
    space = WeightedFan(ambient, [(full_space(ambient), 1)])
    cones = corner_locus(pl_from_polytope(p), space).cones
    k = rng.randrange(len(cones))
    bad = WeightedFan(ambient, [(c, w + (i == k)) for i, (c, w) in enumerate(cones)])
    assert not is_balanced(bad)
    with pytest.raises(NotBalanced):
        corner_locus(pl_from_polytope(q), bad)
