"""Facet-coning volumes of lattice polytopes, kept as a test reference.

The package reads both volumes off a pulling triangulation of the
homogenization cone.  This module cones P from its first vertex over the
facets that miss it instead, each facet's relative volume times its lattice
distance from that vertex, and takes a relative volume in lattice
coordinates of a saturated basis of the span; a simplex is one determinant.
"""

from tropeci.linalg import coordinates_in_basis, det, dot, int_vector, vsub
from tropeci.polytopes import LatticePolytope


def normalized_volume(p: LatticePolytope) -> int:
    """n!·vol(P) in the ambient lattice; 0 when dim P < n."""
    if p.dim < p.ambient:
        return 0
    verts = p.vertices
    v0 = verts[0]
    if len(verts) == p.ambient + 1:
        return abs(det([vsub(v, v0) for v in verts[1:]]))
    total = 0
    for a, b in p.facets():
        h = dot(a, v0) + b
        if h:
            face = [v for v in verts if dot(a, v) + b == 0]
            total += h * relative_normalized_volume(LatticePolytope._from_vertices(face))
    return total


def relative_normalized_volume(p: LatticePolytope) -> int:
    """d!·vol(P) with respect to the lattice of P's own span (d = dim P)."""
    if p.dim == 0:
        return 1
    v0 = p.vertices[0]
    coords = [int_vector(coordinates_in_basis(p.span_rows(), vsub(v, v0)))
              for v in p.vertices]
    # an injective affine map sends the vertices to the image's vertices
    return normalized_volume(LatticePolytope._from_vertices(coords))
