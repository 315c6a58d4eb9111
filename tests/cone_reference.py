"""Reference cone operations that the package's own cuts are tested against."""

from tropeci.cones import Cone


def intersect(a: Cone, b: Cone) -> Cone:
    """a ∩ b by a fresh conversion of both cones' constraints together.

    The package never intersects this way: it cuts a known cone with
    ``cones._cut_cone``.  This is the independent route that checks it.
    """
    return Cone(a.ambient, ineqs=list(a.ineqs) + list(b.ineqs),
                eqs=list(a.eqs) + list(b.eqs))
