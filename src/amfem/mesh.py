"""Conforming triangle meshes refined by newest-vertex bisection.

A mesh stores, besides coordinates and connectivity,

    triangles : (nt, 3) int array
        Vertex indices per element.  The ordering is significant: the edge
        opposite the first vertex (the "peak") is the element's refinement
        edge.  Bisecting an element splits that edge at its midpoint ``m``
        and produces the children ``(m, v0, v1)`` and ``(m, v2, v0)``, both
        again peak-first and with the same orientation as the parent.
    root_elem, node
        Genealogy relative to the initial mesh: every element knows its
        ancestor in the root mesh and its node in that root element's
        bisection tree, numbered heap-style: the root element is node 1 and
        child slot s (0/1) of node n is node 2n + s.  The generation is the
        bit length of the node minus one, and the ancestor k levels up is
        ``node >> k``.  Two meshes refined from the same root are compared
        element by element through the int64 key ``(node << s) | root_elem``,
        s being the bit length of the root's element count; the overlay and
        the coarse-to-fine field transfers rely on it.  A bisection whose key
        would not fit in int64 raises MeshError, which allows generations up
        to 62 - s (58 on the checkerboard, 60 on the unit square).  The
        trees also give the interior edges a nested-dissection order
        (``dissection_order``): an edge separates the two child regions of
        its elements' lowest common ancestor.

Conformity is maintained by edge marking (Funken, Praetorius and Wissgott,
CMAM 11, 2011): the refinement edges of all marked elements are collected,
then any element that sees a marked edge gets its own refinement edge
marked too, until a fixed point is reached.  The fixed point is computed on
arrays, one round per frontier of newly marked edges.  Each element is
then split across its marked edges (into 2, 3 or 4 children) by masks on
its three edge flags, and the children are written at cumulative offsets,
so the element order is that of a loop over the parent elements.  This
produces the same meshes as the classical recursive bisection and
terminates for any initial labeling.

A mesh is immutable once built.  Its element areas and the points of the
6-point element rule (``quad_points``) are computed on first use, kept
read-only and shared by assembly, the estimator and the data oscillation.

Edges carry a global orientation fixed by the lexicographic order of their
endpoint indices: the tangent points from the lower to the higher index,
and the normal is the tangent rotated by -90 degrees.  Every element is
counterclockwise (audited on input, kept by bisection), so local edge i
runs from v_{i+1} to v_{i+2} with the outside on its right, and the sign
``tri_edge_sign`` (+1 where the normal points out) follows from the vertex
order alone: it is -1 exactly where v_{i+1} > v_{i+2}.  ``edge_slots``
holds the element slot ``3 t + i`` (edge i of element t) on both sides of
each edge, -1 where there is no element; side 0 sees the normal as
outward.  ``edge_tris`` holds the elements of those slots.
"""

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import TRI_6, tri_points

__all__ = [
    "Mesh", "MeshError", "RefineResult",
    "create_initial", "refine", "uniform_refine", "overlay", "ancestor_map",
    "dissection_order",
    "INITIAL_DOMAINS",
]


class MeshError(ValueError):
    """Raised for non-conforming input, degenerate elements or genealogy mismatches."""


@dataclass(frozen=True)
class RefineResult:
    mesh: "Mesh"
    refined: np.ndarray     # ids (in the source mesh) of elements that were bisected
    marked: np.ndarray


def _read_only(a):
    a.flags.writeable = False
    return a


def _bit_length(a):
    """Bit lengths of the positive int64 array ``a``; the shift corrects
    ``frexp`` where float rounding carries ``a`` up to the next power of 2."""
    n = np.frexp(a.astype(np.float64))[1].astype(np.int64)
    return n - ((a >> (n - 1)) == 0)


class Mesh:
    def __init__(self, vertices, triangles, root=None, root_elem=None,
                 node=None, validate=True):
        """``validate=False`` skips the area and hanging-node audits and so
        trusts the elements to be counterclockwise, as bisection keeps them."""
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (nv, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (nt, 3)")
        nt = self.triangles.shape[0]
        if nt and (self.triangles.min() < 0
                   or self.triangles.max() >= self.n_vertices):
            raise MeshError("vertex index out of range")
        self.root_elem = np.asarray(
            np.arange(nt) if root_elem is None else root_elem, dtype=np.int64)
        self.node = np.asarray(np.ones(nt) if node is None else node,
                               dtype=np.int64)
        if self.root_elem.shape != (nt,) or self.node.shape != (nt,):
            raise MeshError("genealogy arrays do not match the element count")
        # without a root, a mesh of root nodes is its own root; otherwise
        # (e.g. deserialized alone) labels are kept but overlay/ancestor
        # queries are unavailable
        if root is None and np.all(self.node == 1):
            root = self
        self.root = root
        self.n_roots = n_roots = (root.n_elements if root is not None else
                                  int(self.root_elem.max(initial=-1)) + 1)
        self._node_limit = 1 << (63 - n_roots.bit_length())
        if nt and (self.root_elem.min() < 0 or self.root_elem.max() >= n_roots
                   or self.node.min() < 1
                   or self.node.max() >= self._node_limit):
            raise MeshError("genealogy label out of range")
        self.generation = _bit_length(self.node) - 1

        if validate and np.any(self.signed_areas() <= 0.0):
            raise MeshError("element with non-positive area (check vertex order)")
        self._build_edges()
        if validate:
            self._audit()
        for a in (self.vertices, self.triangles, self.generation,
                  self.root_elem, self.node):
            a.flags.writeable = False

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    # -- connectivity ------------------------------------------------------

    def _build_edges(self):
        tri = self.triangles
        nv = self.n_vertices
        # local edge i is the edge opposite vertex i; local edge 0 is the
        # refinement edge
        pairs = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]], axis=1)
        lo = pairs.min(axis=2)
        hi = pairs.max(axis=2)
        keys = lo.astype(np.int64) * nv + hi
        uniq, inv = np.unique(keys, return_inverse=True)
        self.edges = np.column_stack([uniq // nv, uniq % nv])
        self.tri_edges = inv.reshape(tri.shape[0], 3).astype(np.int64)

        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("degenerate edge of zero length")
        self.edge_tangents = d / self.edge_lengths[:, None]

        # the global normal points out unless local edge i runs high to low
        flip = pairs[:, :, 0] > pairs[:, :, 1]
        self.tri_edge_sign = 1 - 2 * flip.astype(np.int64)

        # element slots 3 t + i per edge side; a third element on an edge
        # always takes a side already taken
        side = (2 * self.tri_edges + flip).ravel()
        ne = self.edges.shape[0]
        claims = np.bincount(side, minlength=2 * ne)
        if np.any(claims > 1):
            # report the first repeated claim in element order
            again = np.ones(side.size, dtype=bool)
            again[np.unique(side, return_index=True)[1]] = False
            e = side[np.argmax(again)] // 2
            raise MeshError(f"edge {e} claimed twice from the same side")
        edge_slots = np.full(2 * ne, -1, dtype=np.int64)
        edge_slots[side] = np.arange(side.size)
        self.edge_slots = edge_slots.reshape(ne, 2)
        self.edge_tris = self.edge_slots // 3          # -1 // 3 is still -1
        self.boundary_edge = claims.reshape(ne, 2).sum(axis=1) == 1

    def _audit(self):
        # Hanging nodes: bisection only ever inserts edge midpoints, so a
        # hanging node on edge (a, b) is the vertex at their midpoint with
        # both half-edges present.
        vert_index = {}
        for i, (x, y) in enumerate(self.vertices):
            vert_index[(float(x), float(y))] = i
        nv = self.n_vertices
        edge_keys = set(int(a) * nv + int(b) for a, b in self.edges)
        for e in np.flatnonzero(self.boundary_edge):
            a, b = self.edges[e]
            mx, my = 0.5 * (self.vertices[a] + self.vertices[b])
            m = vert_index.get((float(mx), float(my)))
            if m is None:
                continue
            lo1, hi1 = sorted((int(a), m))
            lo2, hi2 = sorted((m, int(b)))
            if lo1 * nv + hi1 in edge_keys and lo2 * nv + hi2 in edge_keys:
                raise MeshError(f"hanging node {m} on edge {e}")

    # -- geometry ----------------------------------------------------------

    def signed_areas(self):
        p = self.vertices[self.triangles]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    @cached_property
    def areas(self):
        return _read_only(np.abs(self.signed_areas()))

    @cached_property
    def quad_points(self):
        """Points of the 6-point rule ``TRI_6`` per element, shape (nt, 6, 2)."""
        return _read_only(tri_points(TRI_6, self.vertices[self.triangles]))

    @property
    def diameters(self):
        return self.edge_lengths[self.tri_edges].max(axis=1)

    def shape_regularity(self):
        """max_T diam(T)^2 / |T|, the constant audited along refinements."""
        return float((self.diameters ** 2 / self.areas).max())

    # -- genealogy ---------------------------------------------------------

    def same_root_as(self, other):
        if self.root is None or other.root is None:
            return False
        if self.root is other.root:
            return True
        return (np.array_equal(self.root.vertices, other.root.vertices)
                and np.array_equal(self.root.triangles, other.root.triangles))

    # -- serialization -----------------------------------------------------

    def dumps(self):
        """Serialize to text; ``loads`` restores an identical mesh bit for bit."""
        lines = ["amfem-mesh v1", str(self.n_vertices)]
        for x, y in self.vertices:
            lines.append(f"{float(x)!r} {float(y)!r}")
        lines.append(str(self.n_elements))
        for (v0, v1, v2), r, n, g in zip(
                self.triangles.tolist(), self.root_elem.tolist(),
                self.node.tolist(), self.generation.tolist()):
            lines.append(f"{v0} {v1} {v2} r{r}p{bin(n)[3:]} {g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text, root=None):
        """Parse :meth:`dumps` output; malformed text raises :class:`MeshError`."""
        lines = text.strip().split("\n")
        if lines[0].strip() != "amfem-mesh v1":
            raise MeshError("not an amfem-mesh v1 file")
        try:
            nv = int(lines[1])
            nt = int(lines[2 + nv]) if nv >= 0 else -1
            if nt < 0 or len(lines) != 3 + nv + nt:
                raise ValueError("counts do not match the number of lines")
            verts = np.array([[float(c) for c in ln.split()]
                              for ln in lines[2:2 + nv]]).reshape(nv, 2)
            rows = [ln.split() for ln in lines[3 + nv:]]
            tris = np.array([[int(c) for c in f[:3]] for f in rows],
                            dtype=np.int64).reshape(nt, 3)
            roote, node = [], []
            for f in rows:
                label = re.fullmatch(r"r(\d+)p([01]*)", f[3])
                if label is None or len(f) != 5 \
                        or int(f[4]) != len(label[2]):
                    raise ValueError(f"bad genealogy label {' '.join(f[3:])!r}")
                roote.append(int(label[1]))
                node.append(int("1" + label[2], 2))
            roote = np.array(roote, dtype=np.int64)
            node = np.array(node, dtype=np.int64)
        except (IndexError, ValueError, OverflowError) as exc:
            raise MeshError(f"malformed amfem-mesh v1 text: {exc}") from None
        return cls(verts, tris, root=root, root_elem=roote, node=node)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path, root=None):
        with open(path) as fh:
            return cls.loads(fh.read(), root=root)


# -- initial meshes --------------------------------------------------------

def _unit_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # peaks off the diagonal so the shared diagonal is both refinement edges
    tris = np.array([[1, 2, 0], [3, 0, 2]])
    return verts, tris


def _lshape():
    # (-1,1)^2 without the closed quadrant x>=0, y<=0; all quadrant diagonals
    # end at the reentrant corner
    verts = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [-1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0],
    ])
    tris = np.array([
        [1, 2, 0], [3, 0, 2],
        [5, 0, 4], [3, 4, 0],
        [7, 0, 6], [5, 6, 0],
    ])
    return verts, tris


def _checkerboard():
    # 3x3 vertex grid, diagonals of the four quarter-cells through the center
    verts = np.array([
        [0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
        [0.0, 0.5], [0.5, 0.5], [1.0, 0.5],
        [0.0, 1.0], [0.5, 1.0], [1.0, 1.0],
    ])
    tris = np.array([
        [1, 4, 0], [3, 0, 4],
        [1, 2, 4], [5, 4, 2],
        [3, 4, 6], [7, 6, 4],
        [5, 8, 4], [7, 4, 8],
    ])
    return verts, tris


INITIAL_DOMAINS = {
    "unit_square": _unit_square,
    "lshape": _lshape,
    "checkerboard": _checkerboard,
}


def create_initial(domain):
    """Build one of the hard-coded initial meshes.

    The labeling (choice of refinement edges) is part of the mesh data; the
    edge-marking closure keeps every refinement of any labeling conforming.
    """
    try:
        verts, tris = INITIAL_DOMAINS[domain]()
    except KeyError:
        raise MeshError(f"unknown domain {domain!r}; "
                        f"choose from {sorted(INITIAL_DOMAINS)}") from None
    return Mesh(verts, tris)


# -- refinement ------------------------------------------------------------

def _bisect_level(mesh, marked_ids):
    """One conforming bisection pass: every listed element is split at least once.

    Returns the new mesh and, per new element, the index of the element of
    ``mesh`` it is or was split from.
    """
    ref_edge = mesh.tri_edges[:, 0]
    # closure: an element with any marked edge gets its refinement edge
    # marked; each round visits the elements around the newly marked edges
    marked_edges = np.zeros(mesh.n_edges, dtype=bool)
    new = np.unique(ref_edge[marked_ids])
    while new.size:
        marked_edges[new] = True
        t = mesh.edge_tris[new].ravel()
        re = ref_edge[t[t >= 0]]
        new = np.unique(re[~marked_edges[re]])

    # children lie one level deeper, two where a second edge is split too
    split, m1, m2 = marked_edges[mesh.tri_edges].T
    deeper = 1 + (m1 | m2)
    if np.any(split & (mesh.node >= mesh._node_limit >> deeper)):
        raise MeshError("bisection depth limit: node keys would overflow int64")

    marked_list = np.flatnonzero(marked_edges)
    mid_id = np.full(mesh.n_edges, -1, dtype=np.int64)
    mid_id[marked_list] = mesh.n_vertices + np.arange(marked_list.size)
    mids = 0.5 * (mesh.vertices[mesh.edges[marked_list, 0]]
                  + mesh.vertices[mesh.edges[marked_list, 1]])
    verts = np.vstack([mesh.vertices, mids])

    # per element, in order: itself if kept; else child 0 = (m0, v0, v1),
    # which owns local edge 2, or its two halves; then child 1 = (m0, v2, v0),
    # which owns local edge 1, or its two halves.  Each piece gives the
    # elements it applies to, its output row, its corners as columns
    # v0, v1, v2, m0, m1, m2 of ``corner``, and its node scale * n + slot.
    corner = np.column_stack([mesh.triangles, mid_id[mesh.tri_edges]])
    n0 = 1 + (split & m2)
    count = n0 + split + (split & m1)
    first = np.cumsum(count) - count
    second = first + n0
    pieces = (
        (~split, first, (0, 1, 2), 1, 0),
        (split & ~m2, first, (3, 0, 1), 2, 0),
        (split & m2, first, (5, 3, 0), 4, 0),
        (split & m2, first + 1, (5, 1, 3), 4, 1),
        (split & ~m1, second, (3, 2, 0), 2, 1),
        (split & m1, second, (4, 3, 2), 4, 2),
        (split & m1, second + 1, (4, 0, 3), 4, 3),
    )
    out_tris = np.empty((count.sum(), 3), dtype=np.int64)
    out_node = np.empty(out_tris.shape[0], dtype=np.int64)
    for sel, at, cols, scale, slot in pieces:
        out_tris[at[sel]] = corner[sel][:, cols]
        out_node[at[sel]] = scale * mesh.node[sel] + slot
    parent = np.repeat(np.arange(mesh.n_elements), count)
    new_mesh = Mesh(verts, out_tris, root=mesh.root,
                    root_elem=mesh.root_elem[parent], node=out_node,
                    validate=False)
    return new_mesh, parent


def refine(mesh, marked, b=1):
    """Conforming refinement: every marked element is bisected at least ``b`` times.

    Returns a :class:`RefineResult`; ``result.refined`` lists the elements of
    the input mesh that no longer exist in the output.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= mesh.n_elements):
        raise MeshError("marked element id out of range")
    if b < 1:
        raise MeshError("bisection count b must be >= 1")

    # per current element: bisections still owed, and its input-mesh origin
    counts = np.zeros(mesh.n_elements, dtype=np.int64)
    counts[marked] = b
    origin = np.arange(mesh.n_elements)
    current = mesh
    while counts.any():
        current, parent = _bisect_level(current, np.flatnonzero(counts))
        counts = np.maximum(counts[parent] - 1, 0)
        origin = origin[parent]
    refined = np.unique(origin[current.node != mesh.node[origin]])
    return RefineResult(mesh=current, refined=refined, marked=marked)


def uniform_refine(mesh, levels=1):
    """Bisect every element once per level."""
    for _ in range(levels):
        mesh = refine(mesh, np.arange(mesh.n_elements), b=1).mesh
    return mesh


# -- overlay ---------------------------------------------------------------

def _key(mesh, node, root_elem):
    """Sortable int64 identity of ``(root_elem, node)`` under ``mesh.root``."""
    return (node << mesh.root.n_elements.bit_length()) | root_elem


def overlay(m1, m2):
    """Smallest common conforming refinement of two meshes with the same root.

    The element count satisfies ``n(overlay) <= n(m1) + n(m2) - n(root)``.
    """
    if not m1.same_root_as(m2):
        raise MeshError("overlay requires meshes refined from the same root")
    # split m2's ancestors top-down; the closure of each step is minimal, so
    # no element outside the union of both forests is created
    mesh = m1
    for k in range(int(m2.generation.max(initial=0)), 0, -1):
        want = _key(m2, m2.node >> k, m2.root_elem)
        have = _key(mesh, mesh.node, mesh.root_elem)
        mesh = refine(mesh, np.flatnonzero(np.isin(have, want))).mesh
    return mesh


def ancestor_map(fine, coarse):
    """Map each element of ``fine`` to its ancestor (or itself) in ``coarse``.

    Raises :class:`MeshError` unless ``fine`` is a refinement of ``coarse``.
    """
    if not fine.same_root_as(coarse):
        raise MeshError("meshes do not share a genealogy root")
    keys = _key(coarse, coarse.node, coarse.root_elem)
    order = np.argsort(keys)
    keys = keys[order]
    out = np.empty(fine.n_elements, dtype=np.int64)
    todo = np.arange(fine.n_elements)
    node = fine.node
    while todo.size:
        want = _key(fine, node, fine.root_elem[todo])
        pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        hit = keys[pos] == want
        out[todo[hit]] = order[pos[hit]]
        todo, node = todo[~hit], node[~hit] >> 1
        if np.any(node == 0):
            raise MeshError("mesh is not a refinement of the given coarse mesh")
    if np.unique(out).size != coarse.n_elements:
        raise MeshError("mesh is not a refinement of the given coarse mesh")
    return out


def dissection_order(mesh):
    """Rank of each interior edge in a nested-dissection order, -1 on the
    boundary edges.

    An interior edge belongs to the lowest common ancestor of its two
    elements in their root's bisection tree: it separates the ancestor's
    two child regions.  Each root's edges are ranked in the post-order of
    their ancestors, so every region's inner edges precede its separator;
    the edges between different root elements come last.
    """
    inner = np.flatnonzero(~mesh.boundary_edge)
    t0, t1 = mesh.edge_tris[inner].T
    g0, g1 = mesh.generation[t0], mesh.generation[t1]
    a = mesh.node[t0] >> np.maximum(g0 - g1, 0)
    b = mesh.node[t1] >> np.maximum(g1 - g0, 0)
    root = mesh.root_elem[t0]
    cross = root != mesh.root_elem[t1]
    # no element is another's ancestor, so a != b within one root
    up = _bit_length(np.where(cross, 1, a ^ b))
    depth = np.minimum(g0, g1) - up
    # the ancestor's path padded with ones to the deepest ancestor sorts
    # subtrees left to right and after their descendants; equal keys
    # belong to one right spine, deepest first
    pad = depth.max(initial=0) - depth
    key = (((a >> up) + 1) << pad) - 1
    order = inner[np.lexsort((-depth, key, root, cross))]
    rank = np.full(mesh.n_edges, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank
