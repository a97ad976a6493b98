"""Benchmark problems and error measurement.

Every problem has A = a I with a constant on each initial element:
``ProblemSpec.a`` holds one positive value per initial element or one for
all, and assembly, estimators and the error pass read 1/a once per element
(:func:`amfem.fem.root_a_inv`).  The source ``f`` is read by root element,
not by location: it is called as ``f(pts, roots)`` with points of shape
``(n, 2)`` and ``roots[i]``, the initial element (``mesh.root_elem``) of
the element point ``i`` is sampled for, and returns ``(n,)``; a source that
jumps across initial-mesh edges therefore takes each side's own value on
the interface.  The boundary data ``g`` and ``g_tan`` and the exact
solutions are functions of the points alone.  :func:`piecewise` builds
every problem whose f is polynomial per initial element.

Built-in problems
-----------------
``square_sine``
    Unit square, A = I, u = sin(pi x) sin(pi y), f = 2 pi^2 u, g = 0.
``square_pwconst``
    Unit square, A = I, f = +1 on initial triangle 0 (below the diagonal)
    and -1 on initial triangle 1 (above it), g = 0.  f is constant on every
    element of every refinement, so the data oscillation vanishes on all
    meshes.  No closed form solution.
``lshape_singular``
    L-shaped domain, A = I, f = 0; the exact solution is the corner
    singularity r^(2/3) sin(2 phi / 3), imposed through inhomogeneous
    Dirichlet data.  The polar angle is taken in [0, 3 pi / 2], measured
    from the positive x-axis, with the atan2 branch shifted on the lower
    half plane.
``checkerboard``
    Unit square, A = a I with a = 100 on the two diagonal quarter cells
    (initial elements 0, 1, 6 and 7) and a = 1 on the others, f = 1,
    g = 0.  The coefficient jumps align with edges of the initial mesh.
    No closed form solution.
"""

from dataclasses import dataclass

import numpy as np

from .fem import eval_f_on_elements, root_a_inv
from .mesh import ancestor_map
from .quadrature import TRI_7, tri_points
from .util import ordered_sum

__all__ = ["ProblemSpec", "ErrorTriple", "builtin", "piecewise",
           "exact_errors", "flux_dist2", "BUILTIN_PROBLEMS"]


@dataclass
class ProblemSpec:
    """One boundary value problem with A = a I per initial element.  ``f``
    takes ``(pts, roots)``, the other callables the points alone (see the
    module docstring)."""
    name: str
    domain: str
    f: object                    # callable or PwConstData
    a: object                    # one value, or one per initial element
    g: callable = None           # None means homogeneous Dirichlet data
    g_tan: callable = None       # tangential derivative of g, None means zero
    exact_u: callable = None
    exact_p: callable = None
    # read by perfbench/tracer.py until its benchmark change (ROADMAP item 1)
    A = A_inv = curl_A_inv = None

    @property
    def has_exact(self):
        return self.exact_p is not None


def _square_sine():
    def u(pts):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def p(pts):
        sx = np.sin(np.pi * pts[:, 0])
        cx = np.cos(np.pi * pts[:, 0])
        sy = np.sin(np.pi * pts[:, 1])
        cy = np.cos(np.pi * pts[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])

    def f(pts, roots):
        return 2.0 * np.pi ** 2 * u(pts)

    return ProblemSpec(
        name="square_sine", domain="unit_square", f=f, a=1.0, exact_u=u,
        exact_p=p)


def _square_pwconst():
    return piecewise("square_pwconst", "unit_square", np.ones(2),
                     {(0, 0): np.array([1.0, -1.0])})


def _lshape_polar(pts):
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    return r, phi


def _lshape_singular():
    def u(pts):
        r, phi = _lshape_polar(pts)
        return np.where(r > 0.0, r ** (2.0 / 3.0), 0.0) * np.sin(2.0 * phi / 3.0)

    def p(pts):
        r, phi = _lshape_polar(pts)
        rsafe = np.where(r > 0.0, r, 1.0)
        amp = (2.0 / 3.0) * rsafe ** (-1.0 / 3.0)
        sr = np.sin(2.0 * phi / 3.0)
        cr = np.cos(2.0 * phi / 3.0)
        er = np.column_stack([np.cos(phi), np.sin(phi)])
        et = np.column_stack([-np.sin(phi), np.cos(phi)])
        grad = amp[:, None] * (sr[:, None] * er + cr[:, None] * et)
        return np.where(r[:, None] > 0.0, grad, 0.0)

    def f(pts, roots):
        return np.zeros(pts.shape[0])

    def g_tan(pts, tau):
        return np.einsum("nd,nd->n", p(pts), tau)

    return ProblemSpec(
        name="lshape_singular", domain="lshape", f=f, a=1.0, g=u,
        g_tan=g_tan, exact_u=u, exact_p=p)


def _checkerboard():
    a = np.ones(8)
    a[[0, 1, 6, 7]] = 100.0
    return piecewise("checkerboard", "checkerboard", a, {(0, 0): np.ones(8)})


def piecewise(name, domain, a, f):
    """Problem with A = a[r] I and the polynomial f = sum_(i, j) f[(i, j)][r]
    x^i y^j on the descendants of initial element r, and g = 0.

    ``a`` holds one positive constant per initial element of ``domain``'s
    mesh and ``f`` maps each power pair ``(i, j)`` to one coefficient per
    initial element; f reads them by the roots it is called with, as one
    gather over the per-root table.
    """
    a = np.asarray(a, dtype=np.float64)
    powers = sorted(f)
    table = np.array([f[m] for m in powers], dtype=np.float64).reshape(
        len(powers), a.size).T                      # (n_roots, n_monomials)

    def f_of(pts, roots):
        c = table[roots]
        out = np.zeros(pts.shape[0])
        for m, (i, j) in enumerate(powers):
            out += c[:, m] * pts[:, 0] ** i * pts[:, 1] ** j
        return out

    return ProblemSpec(name=name, domain=domain, f=f_of, a=a)


BUILTIN_PROBLEMS = {
    "square_sine": _square_sine,
    "square_pwconst": _square_pwconst,
    "lshape_singular": _lshape_singular,
    "checkerboard": _checkerboard,
}


def builtin(name):
    try:
        return BUILTIN_PROBLEMS[name]()
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"choose from {sorted(BUILTIN_PROBLEMS)}") from None


@dataclass(frozen=True)
class ErrorTriple:
    """Squared error components of one mixed solution.

    ``flux2``  : ||A^(-1/2)(p - p_h)||^2
    ``div2``   : ||h div(p - p_h)||^2 with the elementwise weight h_T
    ``surrogate`` : True when measured against a reference solution on a
    finer mesh rather than a closed-form solution.
    """
    flux2: float
    div2: float
    surrogate: bool = False

    @property
    def E2(self):
        """The weighted error ||A^(-1/2)(p-p_h)||^2 + ||h div(p-p_h)||^2."""
        return self.flux2 + self.div2


def exact_errors(sol, problem, reference=None):
    """Measure a solution against the exact solution or a finer reference.

    With ``reference`` (a :class:`~amfem.fem.MixedSolution` on a refinement
    of ``sol.mesh``) the integrals run over the reference mesh and the
    divergence weight h_T is taken from the element of ``sol.mesh`` owning
    each reference element.
    """
    if reference is None:
        if not problem.has_exact:
            raise ValueError(
                f"problem {problem.name!r} has no closed-form solution; "
                "pass a reference solution")
        return _errors_vs_exact(sol, problem)
    return _errors_vs_reference(sol, reference, problem)


def _errors_vs_exact(sol, problem):
    mesh = sol.mesh
    verts = mesh.vertices[mesh.triangles]
    pts = tri_points(TRI_7, verts)
    _, w = TRI_7
    flat = pts.reshape(-1, 2)

    perr = np.asarray(problem.exact_p(flat)).reshape(pts.shape) - sol.eval(
        np.arange(mesh.n_elements), pts)
    flux2 = _flux_norm2(problem, mesh, perr)

    fv = eval_f_on_elements(problem.f, mesh, pts)
    ddiff = -fv - sol.div[:, None]          # div p = -f pointwise
    div2 = ordered_sum(((ddiff ** 2) @ w) * mesh.areas ** 2)
    return ErrorTriple(flux2=flux2, div2=div2)


def _errors_vs_reference(sol, reference, problem):
    fine = reference.mesh
    amap = ancestor_map(fine, sol.mesh)
    flux2 = flux_dist2(problem, fine, reference, sol.restrict_to(fine, amap))

    hH2 = sol.mesh.areas[amap]              # squared coarse weight |T_H|
    ddiff = reference.div - sol.div[amap]
    div2 = ordered_sum(ddiff ** 2 * hH2 * fine.areas)
    return ErrorTriple(flux2=flux2, div2=div2, surrogate=True)


def flux_dist2(problem, mesh, field_a, field_b):
    """||A^(-1/2)(a - b)||^2 with both flux fields living on ``mesh``."""
    pts = tri_points(TRI_7, mesh.vertices[mesh.triangles])
    ids = np.arange(mesh.n_elements)
    d = field_a.eval(ids, pts) - field_b.eval(ids, pts)
    return _flux_norm2(problem, mesh, d)


def _flux_norm2(problem, mesh, d):
    """||A^(-1/2) d||^2 from flux samples ``d`` at each element's TRI_7
    points."""
    a_inv = root_a_inv(problem, mesh)
    dens = ((d * a_inv[:, None, None]) * d).sum(axis=-1)
    return ordered_sum((dens @ TRI_7[1]) * mesh.areas)
