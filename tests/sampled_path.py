"""A^-1 sampled as a 2x2 matrix at every point: a reference for the library.

The library reads 1/a once per element for A = a I per initial element.
These functions instead call A^-1 as ``fn(pts, roots)`` -> (n, 2, 2) at
each quadrature point, with each point's root element, and apply the full
matrix.  Tests compare the two to show that the per-element reading makes
the same products and that the terms it leaves out vanish.
"""

import numpy as np

from amfem.quadrature import TRI_6, TRI_7, edge_points
from amfem.util import ordered_sum


def a_inv_fn(a):
    """The callable A^-1 = (1/a) I for one a or one a per root element."""
    a_inv = 1.0 / np.asarray(a, dtype=np.float64)
    return lambda pts, roots: np.multiply.outer(
        a_inv[roots] if a_inv.ndim else np.full(len(roots), a_inv),
        np.eye(2))


def at_points(fn, roots, pts):
    """``fn`` at the points ``pts`` (k, q, 2) of elements with root
    elements ``roots`` (k,); the values have shape (k, q, ...)."""
    k, q = pts.shape[:2]
    vals = np.asarray(fn(pts.reshape(-1, 2), np.repeat(roots, q)),
                      dtype=np.float64)
    return vals.reshape(k, q, *vals.shape[1:])


def local_matrices(mesh, A_inv):
    """The local flux mass matrices (nt, 3, 3) in the outward basis."""
    _, w = TRI_6
    verts = mesh.vertices[mesh.triangles]
    pts = mesh.quad_points
    nt, nq = mesh.n_elements, w.size
    d = pts[:, :, None, :] - verts[:, None, :, :]
    ainv = at_points(A_inv, mesh.root_elem, pts)
    ad = np.matmul(d, ainv * w[:, None, None])
    loc = np.matmul(ad.transpose(0, 2, 1, 3).reshape(nt, 3, 2 * nq),
                    d.transpose(0, 1, 3, 2).reshape(nt, 2 * nq, 3))
    loc *= (0.25 / mesh.areas)[:, None, None]
    return 0.5 * (loc + loc.transpose(0, 2, 1))


def saddle_product(mesh, loc, x):
    """``[[M, B^T], [B, 0]] @ x`` for ``x = (p, u)``, element by element
    from the local mass matrices ``loc``."""
    s, ne, edges = mesh.tri_edge_sign, mesh.n_edges, mesh.tri_edges
    q = s * x[:ne][edges]
    flux = s * (np.einsum("tij,tj->ti", loc, q) + x[ne:, None])
    return np.concatenate([np.bincount(edges.ravel(), flux.ravel(),
                                       minlength=ne), q.sum(axis=1)])


def element_samples(mesh, field, A_inv):
    """A^-1 q and curl(A^-1 q) at each element's 6-point rule points; A^-1
    is constant on elements, so the curl is beta (A^-1_21 - A^-1_12)."""
    pts = mesh.quad_points
    q = field.eval(np.arange(mesh.n_elements), pts)
    ainv = at_points(A_inv, mesh.root_elem, pts)
    curl = field.beta[:, None] * (ainv[:, :, 1, 0] - ainv[:, :, 0, 1])
    return np.einsum("tqab,tqb->tqa", ainv, q), curl


def element_term(mesh, values):
    """h_T^2 ||v||_T^2 from samples of shape (nt, 6) or (nt, 6, 2)."""
    sq = values ** 2 if values.ndim == 2 else \
        np.einsum("tqd,tqd->tq", values, values)
    return (sq @ TRI_6[1]) * mesh.areas ** 2


# residual of the L2(T) projection onto affine functions, which are
# spanned by the barycentric coordinates of the 6-point rule
_bary, _w = TRI_6
_P1_RESIDUAL = np.eye(_bary.shape[0]) - _bary @ np.linalg.solve(
    (_bary.T * _w) @ _bary, _bary.T * _w)


def p1_residual(values):
    """Residual of the projection onto affine functions, per element."""
    return np.einsum("pq,tq...->tp...", _P1_RESIDUAL, values)


def edge_jumps(mesh, field, problem, A_inv, rule):
    """Jump of A^-1 q . tau at the edge points of ``rule``, (ne, q), less
    the tangential derivative of g on boundary edges."""
    epts = edge_points(rule, mesh.vertices[mesh.edges[:, 0]],
                       mesh.vertices[mesh.edges[:, 1]])
    tau = mesh.edge_tangents
    ne, q = epts.shape[:2]
    traces = np.zeros((ne, 2, q))
    e, side = np.nonzero(mesh.edge_tris >= 0)
    t = mesh.edge_tris[e, side]
    av = np.einsum("eqab,eqb->eqa",
                   at_points(A_inv, mesh.root_elem[t], epts[e]),
                   field.eval(t, epts[e]))
    traces[e, side] = np.einsum("eqd,ed->eq", av, tau[e])
    bnd = mesh.boundary_edge
    jumps = traces[:, 0] - traces[:, 1]
    jumps[bnd] = traces[bnd].sum(axis=1)
    if problem.g_tan is not None:
        taub = np.repeat(tau[bnd], q, axis=0)
        gt = np.asarray(problem.g_tan(epts[bnd].reshape(-1, 2), taub))
        jumps[bnd] -= gt.reshape(-1, q)
    return jumps


def flux_norm2(mesh, pts, d, A_inv):
    """||A^(-1/2) d||^2 from flux samples ``d`` at the TRI_7 points
    ``pts`` of every element."""
    dens = np.einsum("tqa,tqab,tqb->tq", d,
                     at_points(A_inv, mesh.root_elem, pts), d)
    return ordered_sum((dens @ TRI_7[1]) * mesh.areas)
