"""Mesh construction, bisection refinement, genealogy, overlay, and I/O."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem.mesh import (INITIAL_DOMAINS, Mesh, MeshError, ancestor_map,
                        create_initial, overlay, refine, uniform_refine)
from amfem.quadrature import TRI_6, tri_points


def identities(mesh):
    """Per-element (root element, bisection-tree node) pairs."""
    return list(zip(mesh.root_elem.tolist(), mesh.node.tolist()))


def patch(mesh, elem):
    """Elements sharing an edge with ``elem``, including ``elem`` itself."""
    ids = set(mesh.edge_tris[mesh.tri_edges[elem]].ravel().tolist()) - {-1}
    return np.array(sorted(ids | {int(elem)}), dtype=np.int64)


def random_descendant(root, rng, rounds, frac=0.35):
    mesh = root
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_elements) < frac)
        if marked.size == 0:
            marked = np.array([int(rng.integers(mesh.n_elements))])
        mesh = refine(mesh, marked, b=int(rng.integers(1, 3))).mesh
    return mesh


def drawn_descendant(data, root, max_rounds=3):
    """A refinement of ``root`` by hypothesis-drawn marks and bisection counts."""
    mesh = root
    for _ in range(data.draw(st.integers(1, max_rounds))):
        marked = data.draw(st.lists(st.integers(0, mesh.n_elements - 1),
                                    min_size=1, max_size=6))
        mesh = refine(mesh, marked, b=data.draw(st.integers(1, 3))).mesh
    return mesh


# ---------------------------------------------------------------------------
# initial meshes


def test_initial_unit_square():
    m = create_initial("unit_square")
    assert m.n_vertices == 4
    assert m.n_elements == 2
    assert m.n_edges == 5
    assert int(np.sum(m.boundary_edge)) == 4
    assert float(np.sum(m.areas)) == pytest.approx(1.0, abs=1e-15)
    assert np.all(m.signed_areas() > 0.0)


def test_initial_lshape():
    m = create_initial("lshape")
    assert m.n_vertices == 8
    assert m.n_elements == 6
    assert float(np.sum(m.areas)) == pytest.approx(3.0, abs=1e-14)
    # reentrant corner at the origin
    assert np.any(np.all(m.vertices == 0.0, axis=1))


def test_initial_checkerboard():
    m = create_initial("checkerboard")
    assert m.n_vertices == 9
    assert m.n_elements == 8
    assert float(np.sum(m.areas)) == pytest.approx(1.0, abs=1e-15)


def test_unknown_domain():
    with pytest.raises(MeshError):
        create_initial("pentagon")


# ---------------------------------------------------------------------------
# refinement


def test_single_mark_closure_refines_neighbor():
    m = create_initial("unit_square")
    rr = refine(m, [0])
    # conformity closure drags the diagonal neighbor along
    assert sorted(rr.refined.tolist()) == [0, 1]
    assert rr.mesh.n_elements == 4
    assert np.all(rr.mesh.generation >= 1)


def test_uniform_refine_counts_and_areas():
    m = create_initial("unit_square")
    m1 = uniform_refine(m)
    assert m1.n_elements == 4
    assert m1.n_edges == 8  # Euler: 5 vertices, 4 faces
    assert np.allclose(m1.areas, 0.25)
    m2 = refine(m, np.arange(m.n_elements), b=2).mesh
    assert m2.n_elements == 8
    assert np.allclose(m2.areas, 0.125)


def test_refine_b_lower_bound():
    m = create_initial("unit_square")
    rr = refine(m, [0], b=3)
    # every marked element is bisected at least b times
    kept = rr.mesh.generation[rr.mesh.root_elem == 0]
    assert np.all(kept >= 3) or np.any(rr.mesh.generation >= 3)
    for t in range(rr.mesh.n_elements):
        if rr.mesh.root_elem[t] == 0:
            assert rr.mesh.generation[t] >= 3


def test_refined_set_contains_marked():
    rng = np.random.default_rng(11)
    m = create_initial("lshape")
    for _ in range(6):
        marked = np.flatnonzero(rng.random(m.n_elements) < 0.3)
        if marked.size == 0:
            marked = np.array([0])
        rr = refine(m, marked)
        assert np.isin(marked, rr.refined).all()
        # refined elements disappeared, the rest kept their identity
        old = identities(m)
        new = set(identities(rr.mesh))
        for t in range(m.n_elements):
            if t in set(rr.refined.tolist()):
                assert old[t] not in new
            else:
                assert old[t] in new
        m = rr.mesh


def graded_lshape(rounds=10):
    """The L-shape refined ``rounds`` times towards its reentrant corner."""
    mesh = create_initial("lshape")
    for _ in range(rounds):
        corner = np.all(mesh.vertices[mesh.triangles] == 0.0, axis=2)
        mesh = refine(mesh, np.flatnonzero(corner.any(axis=1))).mesh
    return mesh


def pinned_meshes():
    meshes = {d: uniform_refine(create_initial(d), 4)
              for d in ("unit_square", "lshape", "checkerboard")}
    meshes["graded_lshape"] = graded_lshape()
    cb = uniform_refine(create_initial("checkerboard"), 2)
    meshes["checkerboard_b2"] = refine(
        cb, np.arange(0, cb.n_elements, 3), b=2).mesh
    meshes["overlay"] = overlay(meshes["graded_lshape"], meshes["lshape"])
    return meshes


# sha256 of ``Mesh.dumps()``: vertex and element numbering, genealogy
PINNED_DIGESTS = {
    "unit_square":
        "87399ea23666c8b58d27ddca7b3096564f1c0b9bc2afa0756920926930c43970",
    "lshape":
        "1a871a701f3e51bc98ea6ecb6f5f1d33622c5df31faa2c395f11204968334a9d",
    "checkerboard":
        "398556ee29c842a50ba75f131184930f57dd77a29536debd1602947993e6a231",
    "graded_lshape":
        "d0f2f623355f4a63eb98ba5b67f5e7cc8e735b4560c73c80db3e47f5cb5526d3",
    "checkerboard_b2":
        "14abb64a8a345d379b4b9a9f6e9cc63b5fe0568077db0a51a7b4f8ff4ac143d0",
    "overlay":
        "a29b0e8b7b0366d0f629f435d4c951e455f1ac7bcfef2d9ebc94a27be8cfd34a",
}


def test_refinement_order_is_pinned():
    digests = {name: hashlib.sha256(m.dumps().encode()).hexdigest()
               for name, m in pinned_meshes().items()}
    assert digests == PINNED_DIGESTS


def test_edge_incidence_matches_element_loop():
    for m in pinned_meshes().values():
        ref = np.full((m.n_edges, 2), -1)
        for t in range(m.n_elements):
            for e, sign in zip(m.tri_edges[t], m.tri_edge_sign[t]):
                ref[e, 0 if sign > 0 else 1] = t
        assert np.array_equal(m.edge_tris, ref)
        assert np.array_equal(m.boundary_edge, np.any(ref < 0, axis=1))


def test_edge_signs_match_the_geometric_rule():
    # +1 iff the edge normal, the tangent rotated by -90 degrees, points
    # from the opposite vertex across the edge
    for m in pinned_meshes().values():
        tau = m.edge_tangents[m.tri_edges]                  # (nt, 3, 2)
        normal = np.stack([tau[..., 1], -tau[..., 0]], axis=-1)
        start = m.vertices[m.edges[m.tri_edges, 0]]
        dot = np.einsum("tid,tid->ti", normal, start - m.vertices[m.triangles])
        assert np.array_equal(m.tri_edge_sign, np.where(dot > 0.0, 1, -1))
        assert m.tri_edge_sign.dtype == np.int64


@settings(max_examples=15, deadline=None)
@given(domain=st.sampled_from(sorted(INITIAL_DOMAINS)), data=st.data())
def test_refine_genealogy_properties(domain, data):
    coarse = drawn_descendant(data, create_initial(domain), max_rounds=2)
    marked = np.array(data.draw(st.lists(
        st.integers(0, coarse.n_elements - 1), min_size=1, max_size=6)))
    b = data.draw(st.integers(1, 3))
    fine = refine(coarse, marked, b=b).mesh
    # conforming: a fresh audit of the bare connectivity accepts it
    Mesh(fine.vertices, fine.triangles)
    assert float(np.sum(fine.areas)) == pytest.approx(
        float(np.sum(coarse.areas)), rel=1e-13)
    amap = ancestor_map(fine, coarse)
    below = np.isin(amap, marked)
    assert np.all(fine.generation[below] >= coarse.generation[amap[below]] + b)
    acc = np.zeros(coarse.n_elements)
    np.add.at(acc, amap, fine.areas)
    assert np.allclose(acc, coarse.areas, rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(domain=st.sampled_from(sorted(INITIAL_DOMAINS)), data=st.data())
def test_overlay_properties(domain, data):
    root = create_initial(domain)
    a = drawn_descendant(data, root)
    b = drawn_descendant(data, root)
    ab, ba = overlay(a, b), overlay(b, a)
    assert set(identities(ab)) == set(identities(ba))
    assert ab.n_elements <= a.n_elements + b.n_elements - root.n_elements
    # minimal: every overlay element is an element of one of the inputs
    assert set(identities(ab)) <= set(identities(a)) | set(identities(b))
    Mesh(ab.vertices, ab.triangles)
    for m in (a, b):
        acc = np.zeros(m.n_elements)
        np.add.at(acc, ancestor_map(ab, m), ab.areas)
        assert np.allclose(acc, m.areas, rtol=1e-12)


def test_refine_stops_at_the_key_limit():
    root = create_initial("unit_square")
    # keys (node << 2) | root_elem must fit in int64, so nodes stay below 2^61
    limit = 1 << (63 - root.n_elements.bit_length())

    def at(nodes):
        return Mesh(root.vertices, root.triangles, root=root, node=nodes)

    deepest = at([limit // 2, limit - 1])
    assert deepest.generation.tolist() == [60, 60]
    with pytest.raises(MeshError):
        refine(deepest, [0])
    assert refine(at([limit // 4, limit // 4 + 1]), [0]).mesh.generation.max() == 60
    with pytest.raises(MeshError):
        at([limit, 1])


@pytest.mark.parametrize("domain", sorted(INITIAL_DOMAINS))
def test_random_refinement_conserves_area(domain):
    rng = np.random.default_rng(5)
    root = create_initial(domain)
    total = float(np.sum(root.areas))
    m = random_descendant(root, rng, rounds=5)
    assert float(np.sum(m.areas)) == pytest.approx(total, rel=1e-13)
    # genealogy: every bisection exactly halves the parent area
    want = root.areas[m.root_elem] * 0.5 ** m.generation
    assert np.allclose(m.areas, want, rtol=1e-12)


def test_shape_regularity_is_stable():
    # newest-vertex bisection of the built-in meshes cycles through
    # right isosceles triangles only
    rng = np.random.default_rng(3)
    m = random_descendant(create_initial("unit_square"), rng, rounds=6)
    assert m.shape_regularity() == pytest.approx(4.0, rel=1e-12)


def test_patch_contains_self_and_neighbors():
    m = uniform_refine(create_initial("unit_square"))
    for t in range(m.n_elements):
        p = patch(m, t)
        assert t in p.tolist()
        # neighbors share an edge
        for s in p:
            if s == t:
                continue
            shared = np.intersect1d(m.tri_edges[t], m.tri_edges[s])
            assert shared.size == 1


def test_cached_geometry_is_shared_read_only_and_exact():
    coarse = graded_lshape(rounds=3)
    fine = uniform_refine(coarse)
    for m in (coarse, fine):
        expected = {
            "areas": np.abs(m.signed_areas()),
            "quad_points": tri_points(TRI_6, m.vertices[m.triangles]),
        }
        for name, want in expected.items():
            got = getattr(m, name)
            assert getattr(m, name) is got
            assert not got.flags.writeable
            assert np.array_equal(got, want)
    assert fine.quad_points.shape == (fine.n_elements, 6, 2)


# ---------------------------------------------------------------------------
# audits


def test_reject_negative_orientation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 2, 1]]))


def test_reject_hanging_node():
    # vertex 3 is the midpoint of edge 0 = (0, 1) of the upper triangle; the
    # two lower triangles hold both half-edges (0, 3) and (3, 1)
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0],
                      [1.0, 0.0], [1.0, -1.0]])
    tris = np.array([[0, 1, 2], [0, 4, 3], [3, 4, 1]])
    with pytest.raises(MeshError, match="hanging node 3 on edge 0"):
        Mesh(verts, tris)


# two triangles above the edge (0, 1), one below it
CLAIM_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                        [0.5, -1.0]])


def test_reject_edge_claimed_twice_from_one_side():
    with pytest.raises(MeshError,
                       match="^edge 0 claimed twice from the same side$"):
        Mesh(CLAIM_VERTS, np.array([[0, 1, 2], [0, 1, 3]]))


@pytest.mark.parametrize("tris", [
    [[0, 1, 2], [1, 0, 4], [0, 1, 3]],
    [[1, 0, 4], [0, 1, 2], [3, 0, 1]],
])
def test_reject_edge_with_three_elements(tris):
    # a third element on an edge always repeats one side's claim
    with pytest.raises(MeshError,
                       match="^edge 0 claimed twice from the same side$"):
        Mesh(CLAIM_VERTS, np.array(tris))


def test_reject_collinear_element():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [2.0, 0.0]])
    # (0,0), (1,0) and (2,0) are collinear: element 2 has zero area
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 1, 4]])
    with pytest.raises(MeshError, match="^element with non-positive area"):
        Mesh(verts, tris)


# ---------------------------------------------------------------------------
# edge orientation


def test_edge_orientation_conventions():
    m = create_initial("unit_square")
    lo, hi = m.edges[:, 0], m.edges[:, 1]
    assert np.all(lo < hi)
    tau = m.vertices[hi] - m.vertices[lo]
    tau /= np.linalg.norm(tau, axis=1)[:, None]
    assert np.allclose(m.edge_tangents, tau, atol=1e-15)
    # normal is the tangent rotated clockwise, and slot 0 of edge_tris
    # is the element it points out of
    normals = np.column_stack([m.edge_tangents[:, 1], -m.edge_tangents[:, 0]])
    assert np.allclose(normals,
                       np.column_stack([tau[:, 1], -tau[:, 0]]), atol=1e-15)
    cent = m.vertices[m.triangles].mean(axis=1)
    mid = 0.5 * (m.vertices[lo] + m.vertices[hi])
    for e in range(m.n_edges):
        t0 = m.edge_tris[e, 0]
        if t0 >= 0:
            assert np.dot(normals[e], mid[e] - cent[t0]) > 0.0


# ---------------------------------------------------------------------------
# overlay and ancestry


def test_overlay_identity_and_symmetry():
    rng = np.random.default_rng(2)
    root = create_initial("unit_square")
    a = random_descendant(root, rng, 3)
    b = random_descendant(root, rng, 2)
    ov1 = overlay(a, b)
    ov2 = overlay(b, a)
    assert sorted(identities(ov1)) == sorted(identities(ov2))
    same = overlay(a, a)
    assert sorted(identities(same)) == sorted(identities(a))


def test_overlay_union_bound_seeded():
    rng = np.random.default_rng(17)
    for domain in sorted(INITIAL_DOMAINS):
        root = create_initial(domain)
        for _ in range(10):
            a = random_descendant(root, rng, int(rng.integers(1, 4)))
            b = random_descendant(root, rng, int(rng.integers(1, 4)))
            ov = overlay(a, b)
            assert ov.n_elements <= a.n_elements + b.n_elements \
                - root.n_elements


def test_overlay_refines_both_inputs():
    rng = np.random.default_rng(23)
    root = create_initial("lshape")
    a = random_descendant(root, rng, 2)
    b = random_descendant(root, rng, 3)
    ov = overlay(a, b)
    for parent in (a, b):
        amap = ancestor_map(ov, parent)
        assert amap.shape == (ov.n_elements,)
        # child areas sum back to each ancestor's area
        acc = np.zeros(parent.n_elements)
        np.add.at(acc, amap, ov.areas)
        assert np.allclose(acc, parent.areas, rtol=1e-12)


def test_ancestor_map_requires_nesting():
    root = create_initial("unit_square")
    a = refine(root, [0]).mesh
    other = create_initial("lshape")
    with pytest.raises(MeshError):
        ancestor_map(a, other)


def test_different_roots_do_not_overlay():
    a = create_initial("unit_square")
    b = create_initial("lshape")
    assert not a.same_root_as(b)
    with pytest.raises(MeshError):
        overlay(a, b)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip_bitexact():
    rng = np.random.default_rng(29)
    m = random_descendant(create_initial("checkerboard"), rng, 3)
    text = m.dumps()
    m2 = Mesh.loads(text)
    assert m2.dumps() == text
    assert np.array_equal(m2.vertices, m.vertices)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.root_elem, m.root_elem)
    assert np.array_equal(m2.generation, m.generation)
    assert np.array_equal(m2.node, m.node)


def test_serialize_with_root_restores_ancestry(tmp_path):
    root = create_initial("unit_square")
    m = refine(root, [0, 1], b=2).mesh
    path = tmp_path / "mesh.txt"
    m.save(path)
    m2 = Mesh.load(path, root=root)
    amap = ancestor_map(m2, root)
    acc = np.zeros(root.n_elements)
    np.add.at(acc, amap, m2.areas)
    assert np.allclose(acc, root.areas, rtol=1e-14)


def test_loaded_mesh_without_root_refuses_overlay():
    root = create_initial("unit_square")
    m = refine(root, [0]).mesh
    m2 = Mesh.loads(m.dumps())
    assert m2.root is None
    assert not m2.same_root_as(m)
    with pytest.raises(MeshError):
        overlay(m2, m)


def test_loads_rejects_garbage():
    with pytest.raises(MeshError):
        Mesh.loads("not a mesh file")


SQUARE = create_initial("unit_square")
SQUARE_TEXT = refine(SQUARE, [0]).mesh.dumps()


@pytest.mark.parametrize("old, new", [
    ("4 2 3 r1p1 1\n", "4 2"),                  # truncated
    ("mesh v1\n5\n", "mesh v1\nfive\n"),       # non-numeric count
    ("r0p0 1\n", "r0p12 2\n"),                 # path digit other than 0/1
    ("r1p0 1\n", "r1p0 7\n"),                  # generation != path length
    ("r1p0 1\n", "r99p0 1\n"),                 # root element out of range
    ("\n1.0 1.0\n", "\nnan 1.0\n"),            # non-finite coordinates
    ("\n1.0 1.0\n", "\n1.0 inf\n"),
    ("\n1.0 1.0\n", "\n1e1000 1.0\n"),         # overflows to inf
], ids=["truncated", "count", "digit", "generation", "root", "nan", "inf",
        "overflow"])
def test_loads_rejects_malformed_text(old, new):
    assert old in SQUARE_TEXT
    with pytest.raises(MeshError):
        Mesh.loads(SQUARE_TEXT.replace(old, new), root=SQUARE)


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(0, len(SQUARE_TEXT)), cut=st.integers(0, 4),
       insert=st.text(alphabet="0129-e.pr \n", max_size=4),
       with_root=st.booleans())
def test_loads_mutated_text_raises_only_mesh_error(pos, cut, insert,
                                                  with_root):
    text = SQUARE_TEXT[:pos] + insert + SQUARE_TEXT[pos + cut:]
    try:
        Mesh.loads(text, root=SQUARE if with_root else None)
    except MeshError:
        pass
