"""The pullback route of the shadow's support values, kept as a test reference.

The package reads each support value off the BKK numbers of two MCIs in
ℤⁿ⁺¹ shifted from the input, on threshold chains.  This module restricts
the functions of the input's threshold chain instead, pulling each back
along (x, t) ↦ (x, t·v), and takes the mixed corner-locus number of their
gated product difference on the Courant engine (``mixed_shadow_volume``),
so it shares no step with the package's route after ``tci_from_mci`` of the
input.
"""

from typing import Sequence

from tropeci.elimination import mixed_shadow_volume
from tropeci.mci import TCI
from tropeci.plfunc import pullback_linear


def slice_rows(n: int, v: Sequence[int]) -> list:
    """Rows of (x, t) ↦ (x, t·v) from ℝⁿ × ℝ to ℝⁿ × ℝ^len(v)."""
    return [tuple(int(i == j) for j in range(n + 1)) for i in range(n)] + \
        [(0,) * n + (x,) for x in v]


def support_values(tci: TCI, vs: Sequence[tuple], n: int) -> list:
    """Eliminant support values at primitive directions with n eliminated
    coordinates, from the chain's functions pulled back per direction."""
    return [mixed_shadow_volume([pullback_linear(m, slice_rows(n, v))
                                 for m in tci.functions])
            for v in vs]
