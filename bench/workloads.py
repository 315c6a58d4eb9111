"""Seeded inputs, timed operations and independent checks of the three workloads.

Inputs are plain integer tuples drawn from ``random.Random(seed)``; the
generator filters draws with its own integer minors and never calls
``tropeci``.  Every operation builds its ``MCI``, ``LatticePolytope`` and
``VirtualPolytope`` objects from those tuples inside the timed call, so no
per-object memo (``Matroid._cache``, lazy ``Cone`` representations,
``LatticePolytope._facets``) carries over from one operation to the next.

Each workload interleaves two input kinds by operation index, so every run
sees the same mix whatever its length; ``euler_genera`` cycles its polytope
sizes and ``eliminant_verified`` its simplex volumes by index as well, so a
seed changes the inputs but not the mix of their sizes.  ``bkk_chain`` takes two generic
inputs per classical one, which keeps its median operation inside one of the
two clusters of operation times instead of in the gap between them.  A run
cycles through a pool of distinct inputs, and each distinct input is checked
by an oracle once (see ``run.py``).  Pools are sized so that a run times each
input two to four times and the timing metrics can use the slowest; more
distinct inputs would steady a run against the draw of the seed, more
repeats against the host's changes of speed.

``tropeci`` modules are looked up as module attributes at call time, which
is what lets the traced run substitute its wrappers.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

from tropeci import elimination, fans, invariants, mci, plfunc, polytopes
from tropeci.cones import full_space

# Distinct inputs generated per run; a run that gets through them all starts
# over.  On a 2-core x86-64 machine a 35 s run gets through about 140
# bkk_chain, 40 eliminant_verified and 120 euler_genera operations.
POOL_SIZE = {"bkk_chain": 32, "eliminant_verified": 20, "euler_genera": 56}


# -- input generation (integer minors only) ---------------------------------


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _has_full_rank(vectors, dim: int) -> bool:
    return any(_det(c) for c in combinations(vectors, dim))


def _in_general_position(vectors, dim: int) -> bool:
    return all(_det(c) for c in combinations(vectors, dim))


def _differences(points) -> list:
    p0 = points[0]
    return [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]


def _spans_affinely(points) -> bool:
    return _has_full_rank(_differences(points), len(points[0]))


def _distinct_points(rng: Random, count: int, lo: int, hi: int, dim: int) -> tuple:
    seen = {}
    while len(seen) < count:
        p = tuple(rng.randint(lo, hi) for _ in range(dim))
        seen.setdefault(p, None)
    return tuple(seen)


def _columns(rng: Random, count: int, height: int) -> tuple:
    return tuple(tuple(rng.randint(-2, 2) for _ in range(height))
                 for _ in range(count))


def _bkk_input(rng: Random, index: int):
    if index % 3 != 2:
        # generic matroid: 7 points in {-1..2}^3, rank-3 columns in {-2..2}^3
        while True:
            points, cols = _distinct_points(rng, 7, -1, 2, 3), _columns(rng, 7, 3)
            if _has_full_rank(cols, 3):
                return ("generic", points, cols)
    blocks = tuple(_distinct_points(rng, rng.randint(4, 5), 0, 2, 3)
                   for _ in range(3))
    return ("classical", blocks)


def _eliminant_input(rng: Random, index: int):
    # 5 points affinely spanning Z^4 inside {0,1}^4, columns in {-2..2}^3 in
    # general position (a uniform rank-3 matroid).  About one simplex in nine
    # of the cube has normalized volume 2, and costs half as much again as
    # one of volume 1; every ninth input is one.
    volume = 2 if index % 9 == 8 else 1
    while True:
        points, cols = _distinct_points(rng, 5, 0, 1, 4), _columns(rng, 5, 3)
        if (abs(_det(_differences(points))) == volume
                and _in_general_position(cols, 3)):
            return ("generic", points, cols)


def _euler_input(rng: Random, index: int):
    plus = _distinct_points(rng, 4 + index // 2 % 3, 0, 2, 3)
    if index % 2 == 0:
        return ("honest", plus, None, _spans_affinely(plus))
    return ("virtual", plus, _distinct_points(rng, 2, 0, 1, 3), False)


_GENERATORS = {"bkk_chain": _bkk_input, "eliminant_verified": _eliminant_input,
               "euler_genera": _euler_input}


def make_inputs(workload: str, seed: int) -> list:
    """The workload's inputs for ``seed``, as nested tuples of ints."""
    rng = Random(seed)
    gen = _GENERATORS[workload]
    return [gen(rng, i) for i in range(POOL_SIZE[workload])]


# -- timed operations ---------------------------------------------------------


def _build_mci(points, cols, codim: int):
    ids = [f"a{i}" for i in range(len(points))]
    return mci.MCI(mci.SupportMultiset(zip(ids, points)),
                   mci.Matroid.from_matrix(dict(zip(ids, cols))), codim)


def _bkk_op(inp):
    """(BKK number, evidence the untimed check needs)."""
    if inp[0] == "generic":
        tci = mci.tci_from_mci(_build_mci(inp[1], inp[2], 3))
        number = mci.bkk_number(tci)
        if tci.collapsed_at is not None:
            return number, None
        return number, (tci.fans[-2], tci.functions[-1])
    tci = mci.tci_from_mci(mci.classical_mci(inp[1]))
    return mci.bkk_number(tci), None


def _eliminant_op(inp):
    _, points, cols = inp
    res = elimination.eliminant_polytope(
        _build_mci(points, cols, 3), elimination.ProjectionSplit(2, 2),
        verify_shadow=True)
    return (res.route, tuple(res.polytope.vertices),
            tuple(sorted(res.support_values.items()))), None


def _euler_op(inp):
    _, plus, minus, with_csm = inp
    p = polytopes.LatticePolytope(plus)
    m = invariants.VirtualPolytope(
        p, None if minus is None else polytopes.LatticePolytope(minus))
    chis = tuple(invariants.hirzebruch_chi_p([m], k) for k in range(3))
    euler = invariants.euler_from_genera([m])
    csm = None
    if with_csm:
        tci = mci.tci_from_mci(mci.classical_mci([p.vertices]))
        csm = invariants.euler_from_csm(tci)
    return (chis, euler, csm), None


OPERATIONS = {"bkk_chain": _bkk_op, "eliminant_verified": _eliminant_op,
              "euler_genera": _euler_op}


# -- independent checks (untimed) ---------------------------------------------


def generic_bkk_oracle(evidence) -> int:
    """Stable intersection of the curve T_{n-1} with the last threshold divisor.

    ``evidence`` is None for a chain that collapsed before its last step; its
    BKK number is 0 by definition and there is nothing to intersect.
    """
    if evidence is None:
        return 0
    curve, last = evidence
    divisor = plfunc.corner_locus(last, fans.WeightedFan(3, [(full_space(3), 1)]))
    return fans.stable_intersection_number(curve, divisor)


def classical_bkk_oracle(blocks) -> int:
    """Mixed volume of the block polytopes by inclusion-exclusion."""
    return polytopes.mixed_volume_ie([polytopes.LatticePolytope(b) for b in blocks])


def check(workload: str, inp, output, evidence) -> bool:
    """Whether ``output`` agrees with a route independent of the one timed."""
    if workload == "bkk_chain":
        if inp[0] == "generic":
            return output == generic_bkk_oracle(evidence)
        return output == classical_bkk_oracle(inp[1])
    if workload == "eliminant_verified":
        # "both" means the shadow route reproduced every support value of the
        # projected polytope up to translation; otherwise InternalError
        return output[0] == "both"
    chis, euler, csm = output
    return sum(chis) == euler and (csm is None or csm == euler)
