"""Quadrature rules on triangles and edges.

Conventions
-----------
Triangle rules are stored in barycentric coordinates, shape ``(npts, 3)``,
with weights summing to one, so that

    integral_T f ~= |T| * sum_q w_q * f(x_q),      x_q = L_q @ vertices.

Edge rules are stored as parameters ``t in (0, 1)`` with weights summing to
one, so that

    integral_E f ~= |E| * sum_q w_q * f((1 - t_q) a + t_q b).

``TRI_6_DEG``, ``EDGE_3_DEG`` etc. give the highest polynomial degree each
rule integrates exactly.  The 6-point triangle rule (degree 4) is the
workhorse for mass matrices, element residual norms and local L2
projections; the 7-point rule (degree 5) is reserved for error integrals
against known solutions.  The 5-point edge rule backs the edge L2 projections used by the oscillation
terms, where the 3-point rule would have as many nodes as the quadratic
basis and produce identically zero residuals.
"""

import numpy as np

__all__ = [
    "TRI_6", "TRI_7", "EDGE_3", "EDGE_5",
    "tri_points", "edge_points",
]


def _tri_orbit(a):
    """Barycentric orbit (1-2a, a, a) and its two cyclic permutations."""
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _make_tri_6():
    # Two three-point orbits, exact through degree 4 (Dunavant).
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.array(_tri_orbit(a1) + _tri_orbit(a2))
    wts = np.array([w1] * 3 + [w2] * 3)
    return pts, wts


def _make_tri_7():
    # Centroid plus two orbits, exact through degree 5 (Radon).
    s15 = np.sqrt(15.0)
    a1 = (6.0 - s15) / 21.0
    a2 = (6.0 + s15) / 21.0
    w1 = (155.0 - s15) / 1200.0
    w2 = (155.0 + s15) / 1200.0
    pts = np.array([(1 / 3, 1 / 3, 1 / 3)] + _tri_orbit(a1) + _tri_orbit(a2))
    wts = np.array([9.0 / 40.0] + [w1] * 3 + [w2] * 3)
    return pts, wts


def _make_edge(n):
    # Gauss-Legendre on [0, 1]; numpy supplies the nodes on [-1, 1].
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


TRI_6 = _make_tri_6()
TRI_6_DEG = 4

TRI_7 = _make_tri_7()
TRI_7_DEG = 5

EDGE_3 = _make_edge(3)
EDGE_3_DEG = 5

EDGE_5 = _make_edge(5)
EDGE_5_DEG = 9


def tri_points(rule, verts):
    """Map a triangle rule to physical coordinates.

    Parameters
    ----------
    rule : (points, weights) pair, e.g. ``TRI_6``.
    verts : array, shape (nt, 3, 2)
        Vertex coordinates of one or more triangles.

    Returns
    -------
    pts : array, shape (nt, npts, 2)
    """
    bary, _ = rule
    return np.einsum("qj,tjd->tqd", bary, verts)


def edge_points(rule, a, b):
    """Map an edge rule to physical coordinates.

    Parameters
    ----------
    rule : (params, weights) pair, e.g. ``EDGE_3``.
    a, b : arrays, shape (ne, 2)
        Edge endpoints.

    Returns
    -------
    pts : array, shape (ne, npts, 2)
    """
    t, _ = rule
    return a[:, None, :] * (1.0 - t)[None, :, None] + b[:, None, :] * t[None, :, None]
