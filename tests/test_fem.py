"""Mixed RT0/P0 assembly and solve: dof bookkeeping, exactness, symmetry."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import amfem.quadrature as quad
from amfem.adapt import solve_on
from amfem.fem import (AssemblyError, FluxField, MixedSolution, PwConstData,
                       SaddleSystem, SolverError, assemble, build_dofmap,
                       project_f, solve)
from amfem.mesh import (Mesh, ancestor_map, create_initial, dissection_order,
                        refine, uniform_refine)
from amfem.problems import ProblemSpec, builtin, exact_errors
from test_estimate import varcoef_problem


def identity_A(x, roots):
    x = np.atleast_2d(x)
    return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()


def const_problem(fval=1.0, name="const"):
    return ProblemSpec(name=name, domain="unit_square", A=identity_A,
                       A_inv=identity_A,
                       f=lambda x, roots: np.full(np.atleast_2d(x).shape[0],
                                                  fval))


def edge_id(mesh, va, vb):
    """Edge index joining the vertices at coordinates va, vb."""
    ia = int(np.flatnonzero(np.all(mesh.vertices == np.asarray(va), axis=1))[0])
    ib = int(np.flatnonzero(np.all(mesh.vertices == np.asarray(vb), axis=1))[0])
    lo, hi = min(ia, ib), max(ia, ib)
    hits = np.flatnonzero((mesh.edges[:, 0] == lo) & (mesh.edges[:, 1] == hi))
    assert hits.size == 1
    return int(hits[0])


# ---------------------------------------------------------------------------
# dof bookkeeping


def test_dof_counts_initial_and_refined():
    # one flux dof per edge, one displacement dof per element
    m = create_initial("unit_square")
    assert m.n_edges == 5
    assert m.n_elements == 2
    m1 = uniform_refine(m)
    # criss-cross square: 5 vertices, 4 triangles, 8 edges by Euler
    assert m1.n_edges == 8
    assert m1.n_elements == 4


def test_project_f_linear_is_centroid_value():
    m = create_initial("unit_square")
    fe = project_f(lambda x, roots: np.atleast_2d(x)[:, 0], m)
    assert np.allclose(fe, m.vertices[m.triangles, 0].mean(axis=1),
                       atol=1e-15)
    m2 = uniform_refine(m, 3)
    fe2 = project_f(lambda x, roots: np.atleast_2d(x)[:, 0], m2)
    assert np.allclose(fe2, m2.vertices[m2.triangles, 0].mean(axis=1),
                       atol=1e-14)


def test_pwconst_data_values_on_descendants():
    m = create_initial("unit_square")
    data = PwConstData(m, np.array([3.0, -1.0]))
    fine = uniform_refine(m, 2)
    vals = data.values_on(fine)
    # children inherit their root element's constant
    assert np.allclose(vals, np.where(fine.root_elem == 0, 3.0, -1.0))
    fe = project_f(data, fine)
    assert np.allclose(fe, vals)


def test_pwconst_data_keeps_no_queried_mesh(monkeypatch):
    import amfem.fem as fem
    calls = []
    monkeypatch.setattr(fem, "ancestor_map",
                        lambda fine, coarse: calls.append(fine.n_elements)
                        or ancestor_map(fine, coarse))
    m = create_initial("unit_square")
    data = PwConstData(m, np.array([3.0, -1.0]))
    first = uniform_refine(m, 1)
    data.values_on(first)
    dead = weakref.ref(first)
    del first
    newer = uniform_refine(m, 2)
    vals = data.values_on(newer)
    assert calls == [4, 8]
    assert np.allclose(vals, np.where(newer.root_elem == 0, 3.0, -1.0))
    gc.collect()
    assert dead() is None                   # the earlier mesh is released


# ---------------------------------------------------------------------------
# assembly structure


def test_divergence_matrix_entries():
    # B[t, tri_edges[t, i]] = tri_edge_sign[t, i]: entries in {-1, +1}, each
    # interior edge couples its two elements with opposite signs, boundary
    # edges touch exactly one element, and edge_tris lists the element
    # with the outward sign first
    m = uniform_refine(create_initial("unit_square"))
    assert set(np.unique(m.tri_edge_sign).tolist()) == {-1, 1}
    touching = {e: [] for e in range(m.n_edges)}
    for t in range(m.n_elements):
        for e, s in zip(m.tri_edges[t], m.tri_edge_sign[t]):
            touching[int(e)].append((t, int(s)))
    for e, pairs in touching.items():
        if m.boundary_edge[e]:
            assert len(pairs) == 1
        else:
            assert len(pairs) == 2
            assert pairs[0][1] + pairs[1][1] == 0
        assert sorted(pairs, key=lambda ts: -ts[1]) == [
            (int(t), s) for t, s in zip(m.edge_tris[e], (1, -1)) if t >= 0]


def test_mass_matrix_spd():
    # every local mass matrix is symmetric positive definite
    m = uniform_refine(create_initial("unit_square"), 2)
    dm = build_dofmap(m)
    sys = assemble(m, dm, const_problem(),
                   project_f(lambda x, roots: np.zeros(
                       np.atleast_2d(x).shape[0]), m))
    loc = sys.loc
    assert np.array_equal(loc, loc.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(loc).min() > 0.0


# ---------------------------------------------------------------------------
# solve exactness


def test_div_exactness_and_flux_balance():
    sol = solve_on(const_problem(), uniform_refine(
        create_initial("unit_square"), 3))
    fh = sol.f_elem
    assert sol.div_defect <= 1e-9 * (1.0 + np.abs(fh).max())
    # discrete divergence theorem: total divergence balances the source
    total = float(np.sum(sol.div * sol.mesh.areas))
    assert total == pytest.approx(-1.0, abs=1e-12)


def test_residual_contract():
    m = uniform_refine(create_initial("lshape"), 2)
    p = builtin("lshape_singular")
    dm = build_dofmap(m)
    fe = project_f(p.f, m)
    sys = assemble(m, dm, p, fe)
    sol = solve(sys)
    x = np.concatenate([sol.p, sol.u])
    r = dense_saddle_matrix(m, p) @ x - sys.rhs
    bound = 1e-10 * (1.0 + np.abs(sys.rhs).max())
    assert np.abs(r).max() <= bound
    assert sol.residual_inf <= bound


def graded(domain, point, rounds):
    """``domain``'s initial mesh refined ``rounds`` times towards ``point``."""
    mesh = create_initial(domain)
    for _ in range(rounds):
        at = np.all(mesh.vertices[mesh.triangles] == point, axis=2)
        mesh = refine(mesh, np.flatnonzero(at.any(axis=1))).mesh
    return mesh


def one_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


# problem and mesh pairs whose condensed solves see jumping and varying
# coefficients, graded meshes, a mesh at the deepest generation the int64
# keys allow (one more round raises MeshError) and a mesh without
# interior edges
SOLVE_CASES = {
    "square_sine": lambda: (builtin("square_sine"), uniform_refine(
        create_initial("unit_square"), 3)),
    "checkerboard_graded": lambda: (builtin("checkerboard"), graded(
        "checkerboard", (0.5, 0.5), 8)),
    "varcoef_lshape_graded": lambda: (varcoef_problem(), graded(
        "lshape", (0.0, 0.0), 10)),
    "checkerboard_deepest": lambda: (builtin("checkerboard"), graded(
        "checkerboard", (0.0, 0.0), 58)),
    "one_triangle": lambda: (builtin("square_sine"), one_triangle()),
}


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_matches_dense_solve(case):
    p, m = SOLVE_CASES[case]()
    sys = assemble(m, build_dofmap(m), p, project_f(p.f, m))
    a = solve(sys)
    x = np.linalg.solve(dense_saddle_matrix(m, p), sys.rhs)
    p_ref, u_ref = x[:m.n_edges], x[m.n_edges:]
    assert np.allclose(a.p, p_ref, atol=1e-10 * (1 + np.abs(p_ref).max()))
    assert np.allclose(a.u, u_ref, atol=1e-10 * (1 + np.abs(u_ref).max()))
    assert a.balance_defect <= 1e-12
    assert a.f_elem is sys.f_elem


def test_solve_makes_one_refinement_round(monkeypatch):
    # two operator applications per solve: the residual of the one
    # refinement round and the residual the contract checks; on this graded
    # L-shape the first residual is above round-off, so the round runs
    calls = []
    apply = SaddleSystem.apply

    def counted(self, x):
        calls.append(x.size)
        return apply(self, x)

    monkeypatch.setattr(SaddleSystem, "apply", counted)
    p, m = SOLVE_CASES["varcoef_lshape_graded"]()
    sol = solve_on(p, m)
    assert len(calls) == 2
    assert sol.balance_defect <= 1e-12


def test_balance_defect_is_relative_to_the_largest_flux():
    m = uniform_refine(create_initial("unit_square"), 2)
    rng = np.random.default_rng(3)
    p, f = rng.standard_normal(m.n_edges), rng.standard_normal(m.n_elements)
    ref = max(abs(sum(s * p[e] for e, s in zip(m.tri_edges[t],
                                                  m.tri_edge_sign[t]))
                  + m.areas[t] * f[t]) for t in range(m.n_elements))
    u = np.zeros(m.n_elements)
    for c in (1e-150, 1.0, 1e150):
        sol = MixedSolution(m, c * p, u, c * f, 0.0)
        assert sol.balance_defect == pytest.approx(
            ref / np.abs(p).max(), rel=1e-12)
    # a zero flux is measured against zero data, without a 0/0
    sol = solve_on(const_problem(fval=0.0), m)
    assert not sol.p.any()
    assert sol.balance_defect == 0.0


def lca_owner(mesh, e):
    """(root, node) of the lowest common ancestor of interior edge ``e``'s
    elements, or None for an edge between two root elements."""
    t0, t1 = mesh.edge_tris[e]
    if mesh.root_elem[t0] != mesh.root_elem[t1]:
        return None
    a, b = int(mesh.node[t0]), int(mesh.node[t1])
    while a != b:
        if a > b:
            a >>= 1
        else:
            b >>= 1
    return int(mesh.root_elem[t0]), a


@pytest.mark.parametrize("case", ["square_sine", "checkerboard_graded",
                                  "varcoef_lshape_graded",
                                  "checkerboard_deepest"])
def test_dissection_order_is_a_post_order(case):
    _, m = SOLVE_CASES[case]()
    rank = dissection_order(m)
    inner = np.flatnonzero(~m.boundary_edge)
    assert np.all(rank[m.boundary_edge] == -1)
    assert np.array_equal(np.sort(rank[inner]), np.arange(inner.size))
    owners = [lca_owner(m, e) for e in inner]
    cross = np.array([o is None for o in owners])
    assert cross.any() == (m.root.n_elements > 1)
    # the edges between root elements are the top separator
    if cross.any():
        assert rank[inner[cross]].min() > rank[inner[~cross]].max()
    # every edge follows the edges of its ancestor's proper descendants
    for e, own in zip(inner, owners):
        if own is None:
            continue
        for f, sub in zip(inner, owners):
            if sub is not None and sub[0] == own[0] and sub[1] > own[1] \
                    and sub[1] >> (sub[1].bit_length()
                                   - own[1].bit_length()) == own[1]:
                assert rank[f] < rank[e]


def test_dissection_order_bounds_the_fill(monkeypatch):
    # the trace factor in dissection order against a COLAMD ordering of
    # the same matrix
    import amfem.fem as fem
    factor = fem.spla.splu
    seen = []

    def recording(A, **kwargs):
        lu = factor(A, **kwargs)
        seen.append((A, lu))
        return lu

    monkeypatch.setattr(fem.spla, "splu", recording)
    solve_on(builtin("square_sine"),
             uniform_refine(create_initial("unit_square"), 10))
    (A, lu), = seen
    assert A.shape == (3008, 3008)
    colamd = factor(A, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


def einsum_mass_matrix(mesh, problem):
    """The flux mass matrix by the four-index einsum formula, as reference."""
    _, w = quad.TRI_6
    verts = mesh.vertices[mesh.triangles]
    pts = mesh.quad_points
    ainv = problem.A_inv(pts.reshape(-1, 2), np.repeat(
        mesh.root_elem, pts.shape[1])).reshape(pts.shape + (2,))
    s = mesh.tri_edge_sign.astype(np.float64)
    inv2a = 1.0 / (2.0 * mesh.areas)
    basis = (pts[:, :, None, :] - verts[:, None, :, :]) \
        * (s * inv2a[:, None])[:, None, :, None]
    ainv_basis = np.einsum("tqab,tqjb->tqja", ainv, basis)
    loc = np.einsum("tqia,tqja,q->tij", basis, ainv_basis, w) \
        * mesh.areas[:, None, None]
    ref = np.zeros((mesh.n_edges, mesh.n_edges))
    for t in range(mesh.n_elements):
        ref[np.ix_(mesh.tri_edges[t], mesh.tri_edges[t])] += loc[t]
    return ref


def dense_saddle_matrix(mesh, problem):
    """The saddle matrix [[M, B^T], [B, 0]], dense, as reference: M by the
    einsum formula and B entry by entry from the element edge signs."""
    ne, nt = mesh.n_edges, mesh.n_elements
    B = np.zeros((nt, ne))
    for t in range(nt):
        for i in range(3):
            B[t, mesh.tri_edges[t, i]] = mesh.tri_edge_sign[t, i]
    return np.block([[einsum_mass_matrix(mesh, problem), B.T],
                     [B, np.zeros((nt, nt))]])


@pytest.mark.parametrize("case", ["checkerboard_graded",
                                  "varcoef_lshape_graded"])
def test_mass_matrix_matches_einsum_formula(case):
    # the flux block of the element-wise operator, column by column
    p, m = SOLVE_CASES[case]()
    sys = assemble(m, build_dofmap(m), p, project_f(p.f, m))
    ne = m.n_edges
    M = np.stack([sys.apply(x)[:ne]
                  for x in np.eye(ne + m.n_elements)[:ne]], axis=1)
    ref = einsum_mass_matrix(m, p)
    assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_apply_matches_dense_saddle_matrix(case):
    p, m = SOLVE_CASES[case]()
    sys = assemble(m, build_dofmap(m), p, project_f(p.f, m))
    x = np.random.default_rng(7).standard_normal(m.n_edges + m.n_elements)
    ref = dense_saddle_matrix(m, p) @ x
    assert np.abs(sys.apply(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_local_inverses_match_linalg_inv(scale):
    import amfem.fem as fem
    p, m = SOLVE_CASES["checkerboard_graded"]()
    loc = assemble(m, build_dofmap(m), p, project_f(p.f, m)).loc * scale
    ref = np.linalg.inv(loc)
    got = fem._inv_sym3(loc)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=(1, 2),
                                                            keepdims=True))


def test_failed_factorization_is_a_solver_error(monkeypatch):
    import amfem.fem as fem

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem.spla, "splu", singular)
    m = uniform_refine(create_initial("unit_square"), 2)
    with pytest.raises(SolverError, match="factorization failed"):
        solve_on(const_problem(), m)


NOT_SPD = "^A\\^-1 not symmetric positive definite at point "


@pytest.mark.parametrize("case, match", [
    ("indefinite", NOT_SPD),
    ("non_symmetric", NOT_SPD),
    ("nan", NOT_SPD),
    ("foreign_dofmap", "^dofmap was built for a different mesh$"),
    ("short_f_elem", "^f_elem must hold one value per element$"),
])
def test_assemble_refuses_unusable_input(case, match):
    m = uniform_refine(create_initial("unit_square"))
    prob, dofmap = const_problem(), build_dofmap(m)
    f_elem = np.ones(m.n_elements)
    ainv = {"indefinite": [[1.0, 0.0], [0.0, -1.0]],
            "non_symmetric": [[1.0, 0.5], [0.0, 1.0]],
            "nan": [[np.nan, 0.0], [0.0, 1.0]]}.get(case)
    if ainv is not None:
        prob = replace(prob, A_inv=lambda x, roots: np.broadcast_to(
            np.array(ainv), (x.shape[0], 2, 2)).copy())
    elif case == "foreign_dofmap":
        dofmap = build_dofmap(create_initial("unit_square"))
    else:
        f_elem = f_elem[1:]
    with pytest.raises(AssemblyError, match=match):
        assemble(m, dofmap, prob, f_elem)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, 1e-320])
def test_assemble_refuses_unusable_scalar_coefficient(bad):
    # each root's a is checked once, together with its reciprocal: 1e-320
    # is finite and positive, but 1 / 1e-320 overflows
    prob = builtin("checkerboard")
    a = prob.a.copy()
    a[3] = bad
    m = uniform_refine(create_initial("checkerboard"))
    with pytest.raises(AssemblyError, match=(
            "^a = .* on root element 3: a and 1/a must be finite, positive$")):
        assemble(m, build_dofmap(m), replace(prob, a=a), np.ones(m.n_elements))


def test_assemble_refuses_scalar_coefficient_of_wrong_length():
    prob = replace(builtin("checkerboard"), a=np.ones(7))
    m = uniform_refine(create_initial("checkerboard"))
    with pytest.raises(AssemblyError, match=(
            "^a must hold one value per root element \\(8\\), "
            "got shape \\(7,\\)$")):
        assemble(m, build_dofmap(m), prob, np.ones(m.n_elements))


# ---------------------------------------------------------------------------
# invariances


def test_coefficient_scaling():
    # scaling A by c>0 keeps the flux (div constraint pins it) and
    # divides the displacement by c, for homogeneous boundary data
    base = builtin("square_sine")
    c = 7.0

    def A_scaled(x, roots):
        return c * base.A(x, roots)

    def A_inv_scaled(x, roots):
        return base.A_inv(x, roots) / c

    scaled = ProblemSpec(name="scaled", domain=base.domain, A=A_scaled,
                         A_inv=A_inv_scaled, f=base.f)
    m = uniform_refine(create_initial("unit_square"), 2)
    s0 = solve_on(base, m)
    s1 = solve_on(scaled, m)
    tol = 1e-10 * (1.0 + np.abs(s0.p).max())
    assert np.allclose(s1.p, s0.p, atol=tol)
    assert np.allclose(s1.u, s0.u / c, atol=tol)


def test_mirror_symmetry_on_initial_mesh():
    # square_sine is invariant under (x, y) -> (y, x); on the two-triangle
    # mesh this swaps the elements and pairs up the boundary fluxes (with
    # signs fixed by the lex edge orientation), and the reflection maps the
    # diagonal dof to its own negative, so it must vanish
    m = create_initial("unit_square")
    sol = solve_on(builtin("square_sine"), m)
    scale = np.abs(sol.p).max()
    assert sol.u[0] == pytest.approx(sol.u[1], rel=1e-12)
    e_bottom = edge_id(m, (0, 0), (1, 0))
    e_left = edge_id(m, (0, 0), (0, 1))
    e_right = edge_id(m, (1, 0), (1, 1))
    e_top = edge_id(m, (0, 1), (1, 1))
    e_diag = edge_id(m, (0, 0), (1, 1))
    assert sol.p[e_bottom] == pytest.approx(-sol.p[e_left], rel=1e-12)
    assert sol.p[e_right] == pytest.approx(sol.p[e_top], rel=1e-12)
    assert abs(sol.p[e_diag]) <= 1e-12 * scale


def test_flux_error_halves_per_two_levels():
    p = builtin("square_sine")
    errs = {}
    for lvl in (4, 6):
        m = uniform_refine(create_initial("unit_square"), lvl)
        errs[lvl] = np.sqrt(exact_errors(solve_on(p, m), p).flux2)
    assert errs[4] / errs[6] == pytest.approx(2.0, rel=0.1)


# ---------------------------------------------------------------------------
# flux fields


def rt0_interpolate(mesh, p_exact):
    """Canonical flux interpolant: edge integrals of the exact normal flux."""
    pts = quad.edge_points(quad.EDGE_3, mesh.vertices[mesh.edges[:, 0]],
                           mesh.vertices[mesh.edges[:, 1]])
    _, w = quad.EDGE_3
    vals = np.asarray(p_exact(pts.reshape(-1, 2))).reshape(pts.shape)
    normals = np.column_stack([mesh.edge_tangents[:, 1],
                               -mesh.edge_tangents[:, 0]])
    flux = np.einsum("eqd,ed,q->e", vals, normals, w)
    return flux * mesh.edge_lengths


def test_rt0_interpolate_reproduces_member_field():
    m = uniform_refine(create_initial("unit_square"), 2)

    def member(x):
        x = np.atleast_2d(x)
        return np.stack([1.0 + 0.5 * x[:, 0], -2.0 + 0.5 * x[:, 1]], axis=-1)

    fld = FluxField.from_coeffs(m, rt0_interpolate(m, member))
    pts = quad.tri_points(quad.TRI_6, m.vertices[m.triangles])
    el = np.arange(m.n_elements)
    got = fld.eval(el, pts)
    want = member(pts.reshape(-1, 2)).reshape(pts.shape)
    assert np.allclose(got, want, atol=1e-13)
    assert np.allclose(fld.div, 1.0, atol=1e-13)


def test_flux_field_restriction_preserves_values():
    p = builtin("square_sine")
    coarse = uniform_refine(create_initial("unit_square"), 2)
    sol = solve_on(p, coarse)
    fine = uniform_refine(coarse, 2)
    rest = sol.field.restrict_to(fine)
    pts = quad.tri_points(quad.TRI_6, fine.vertices[fine.triangles])
    el = np.arange(fine.n_elements)
    got = rest.eval(el, pts)
    # evaluate the coarse field at the same physical points
    from amfem.mesh import ancestor_map
    amap = ancestor_map(fine, coarse)
    want = sol.field.eval(amap, pts)
    assert np.allclose(got, want, atol=1e-13)
