"""The pullback route of the shadow's support values, kept as a test reference.

The package reads the restricted threshold functions from the image MCI in
one region walk per direction.  This module restricts the functions of a
threshold chain instead, pulling each back along (x, t) ↦ (x, t·v) and
refining the factors one cell list at a time, so it shares no step with
the image route before ``pp_iterated_number``.
"""

from typing import Sequence

from tropeci.cones import Cone, common_refinement
from tropeci.elimination import _shadow_number
from tropeci.mci import TCI
from tropeci.plfunc import PLFunction, pullback_linear
from tropeci.ppfunc import Poly, PPFunction


def slice_rows(n: int, v: Sequence[int]) -> list:
    """Rows of (x, t) ↦ (x, t·v) from ℝⁿ × ℝ to ℝⁿ × ℝ^len(v)."""
    return [tuple(int(i == j) for j in range(n + 1)) for i in range(n)] + \
        [(0,) * n + (x,) for x in v]


def shadow(ms: Sequence[PLFunction], zeros: Sequence[PLFunction]) -> PPFunction:
    """The gated product difference of ms, given the factors mᵢ(x, 0) as ``zeros``."""
    amb = ms[0].ambient
    e_t = (0,) * (amb - 1) + (1,)
    cells = []
    upper = [(Cone(amb, ineqs=[e_t]), None)]
    for cone, _, ls in common_refinement(upper, [m.cells for m in [*ms, *zeros]], amb):
        cells.append((cone, Poly.linear_product(amb, ls[:amb])
                      - Poly.linear_product(amb, ls[amb:])))
    neg = tuple(-x for x in e_t)
    lower = [(Cone(amb, ineqs=[neg]), None)]
    for cone, _, _ in common_refinement(lower, [m.cells for m in ms], amb):
        cells.append((cone, Poly(amb, {})))
    return PPFunction(amb, amb, cells)


def support_values(tci: TCI, vs: Sequence[tuple], n: int) -> list:
    """Eliminant support values at primitive directions with n eliminated
    coordinates, from the chain's functions pulled back per direction.  The
    factors mᵢ(x, 0) are pulled back once, along (x, t) ↦ (x, t·v) ↦ (x, 0),
    which does not depend on v."""
    flat = slice_rows(n, (0,) * (tci.ambient - n))
    zeros = [pullback_linear(m, flat) for m in tci.functions]
    return [_shadow_number(shadow([pullback_linear(m, slice_rows(n, v))
                                   for m in tci.functions], zeros))
            for v in vs]
