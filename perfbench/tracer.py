"""Spans around amfem's layer boundaries, recorded from outside the package.

The benchmark does not edit amfem.  Tracing replaces, in an already imported
package, the module attributes through which one layer calls into another
with wrappers that time the call and note a few counts about it.  Every
span's name starts with the layer it is charged to; the layers are the
package modules adapt, fem, estimate, mesh, problems and cli.  The
quadrature and util modules have no span of their own: their time lands in
the caller's self time.

Spans are kept in memory and reduced to per-layer metrics once the run has
returned.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under the root sum to the
root span's duration.
"""

import dataclasses
import functools
import time
from collections import defaultdict

LAYERS = ("adapt", "fem", "estimate", "mesh", "problems", "cli")

# names amfem.adapt imports or defines and calls through its module globals
ADAPT_CALLS = {
    "project_f": "fem.project_f",
    "assemble": "fem.assemble",
    "solve": "fem.solve",
    "build_dofmap": "fem.build_dofmap",
    "indicators_stress": "estimate.indicators",
    "oscillations": "estimate.oscillations",
    "exact_errors": "problems.errors",
    "dorfler_mark": "adapt.mark",
    "refine": "mesh.refine",
    "data_osc_elem": "adapt.data_osc",
    "create_initial": "mesh.create_initial",
}

COEFFICIENTS = ("A", "A_inv", "f", "curl_A_inv", "g", "g_tan",
                "exact_u", "exact_p")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, max_dofs):
        self.max_dofs = max_dofs
        self.spans = []
        self.solutions = []
        self._open = []

    def wrap(self, name, fn, note=None):
        """Return ``fn`` timed as span ``name``; ``note(span, args, result)``
        may attach counts after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def wrap_coefficients(self, problem):
        """A copy of ``problem`` whose coefficient callables are traced."""
        fields = {}
        for attr in COEFFICIENTS:
            fn = getattr(problem, attr)
            if callable(fn):
                fields[attr] = self.wrap("problems.coef", fn,
                                         _note_points(attr))
        return dataclasses.replace(problem, **fields)

    # -- notes ---------------------------------------------------------------

    def _note_solve(self, span, args, sol):
        # kept for residual and divergence-defect maxima read after the run
        self.solutions.append(sol)
        span.info = {"dofs": sol.p.size}

    def _note_refine(self, span, args, rr):
        kept = args[0].n_elements - rr.refined.size
        span.info = {"marked": rr.marked.size, "refined": rr.refined.size,
                     "new": rr.mesh.n_elements - kept,
                     "dropped": rr.mesh.n_edges > self.max_dofs}

    # -- reduction -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans under the traced ``cli.main`` call,
        plus the set-up time of the initial mesh."""
        i = next(k for k, s in enumerate(self.spans) if s.name == "cli.main")
        run = self.spans[i:]
        dur = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for s in run:
            dur[s.name] += s.duration
            calls[s.name] += 1
            if s.parent is not None:
                child[id(s.parent)] += s.duration
        self_s = dict.fromkeys(LAYERS, 0.0)
        for s in run:
            self_s[s.layer] += s.duration - child[id(s)]

        def total(name, key):
            return sum(s.info[key] for s in run if s.name == name)

        def points(*coefs):
            return sum(s.info["points"] for s in run
                       if s.name == "problems.coef" and s.info["coef"] in coefs)

        dofs = total("fem.solve", "dofs")
        elems = total("estimate.indicators", "elems")
        refines = [s for s in run if s.name == "mesh.refine"]
        new = sum(s.info["new"] for s in refines)
        marked = sum(s.info["marked"] for s in refines)
        setup_mesh = [s.duration for s in self.spans[:i]
                      if s.name == "mesh.create_initial"]
        m = {
            "adapt.mark_s": dur["adapt.mark"],
            "adapt.approx_s": dur["adapt.data_osc"],
            "fem.project_f_s": dur["fem.project_f"],
            "fem.assemble_s": dur["fem.assemble"],
            "fem.solve_s": dur["fem.solve"],
            "fem.solve_us_per_dof": 1e6 * dur["fem.solve"] / max(dofs, 1),
            "fem.residual_max": max(s.residual_inf for s in self.solutions),
            "fem.div_defect_max": max(s.div_defect for s in self.solutions),
            "estimate.indicators_s": dur["estimate.indicators"],
            "estimate.osc_s": dur["estimate.oscillations"],
            "estimate.us_per_elem": 1e6 * (dur["estimate.indicators"]
                                           + dur["estimate.oscillations"])
            / max(elems, 1),
            "mesh.refine_s": dur["mesh.refine"],
            "mesh.build_s": dur["mesh.build"],
            "mesh.refine_us_per_new_elem": 1e6 * dur["mesh.refine"]
            / max(new, 1),
            "mesh.closure_ratio": sum(s.info["refined"] for s in refines)
            / max(marked, 1),
            "mesh.refine_kept_frac": sum(s.info["new"] for s in refines
                                         if not s.info["dropped"])
            / max(new, 1),
            "mesh.refine_dropped_s": sum(s.duration for s in refines
                                         if s.info["dropped"]),
            "mesh.ancestor_map_s": dur["mesh.ancestor_map"],
            "mesh.ancestor_map_calls": calls["mesh.ancestor_map"],
            "mesh.create_initial_s": sum(setup_mesh),
            "problems.errors_s": dur["problems.errors"],
            "problems.coef_s": dur["problems.coef"],
            "problems.A_inv_points": points("A_inv"),
            "problems.f_points": points("f"),
            "problems.bc_points": points("g", "g_tan"),
            "cli.write_s": dur["cli.write"],
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = self_s[layer]
        return m


def _note_points(coef):
    def note(span, args, result):
        span.info = {"coef": coef, "points": len(args[0])}
    return note


def _note_elems(span, args, result):
    span.info = {"elems": args[0].n_elements}


def install(tracer):
    """Patch the imported amfem package; returns the traced ``cli.main``."""
    from amfem import adapt, cli, fem, mesh

    notes = {"fem.solve": tracer._note_solve,
             "mesh.refine": tracer._note_refine,
             "estimate.indicators": _note_elems}
    for attr, name in ADAPT_CALLS.items():
        setattr(adapt, attr, tracer.wrap(name, getattr(adapt, attr),
                                         notes.get(name)))
    # set-up builds its initial mesh through the mesh module
    mesh.create_initial = adapt.create_initial
    fem.ancestor_map = tracer.wrap("mesh.ancestor_map", fem.ancestor_map)
    mesh.Mesh.__init__ = tracer.wrap("mesh.build", mesh.Mesh.__init__)

    cli.amfem = tracer.wrap("adapt.run", cli.amfem)
    cli.two_step = tracer.wrap("adapt.run", cli.two_step)
    cli.dump_solution_csv = tracer.wrap("cli.write", cli.dump_solution_csv)
    cli.dump_indicators_csv = tracer.wrap("cli.write",
                                          cli.dump_indicators_csv)
    adapt.AdaptTrace.to_csv = tracer.wrap("cli.write", adapt.AdaptTrace.to_csv)
    mesh.Mesh.save = tracer.wrap("cli.write", mesh.Mesh.save)
    builtin = cli.builtin
    cli.builtin = lambda name: tracer.wrap_coefficients(builtin(name))
    return tracer.wrap("cli.main", cli.main)
