"""Per-layer timing of algebroid, taken from outside the program.

``Tracer.install`` wraps the public functions named in ``FUNCTIONS`` and
``METHODS``: module-level functions are replaced in every ``algebroid.*``
namespace that binds them, and methods on their class.  A span stack kept
in memory gives each wrapped function its self time (its duration minus the
part spent in wrapped callees).  Statistics are aggregated per function
while the program runs and handed back by ``snapshot``; nothing is written
until the caller decides to.

Counters that need a walk over a matrix (cells, nonzeros) are computed
before the span opens, and the time that walk takes is removed from every
span's clock, so counting does not inflate any layer's time.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer -> (module, module-level functions to wrap)
FUNCTIONS = {
    "linalg": ("algebroid.linalg", (
        "rank", "nullspace", "row_space_contains", "rank_generic", "nullspace_generic")),
    "cohomology": ("algebroid.cohomology", ("compute_cohomology", "check_lp_ce_agreement")),
    "exterior": ("algebroid.exterior", ("de_rham", "interior_product", "lie_bracket", "wedge")),
    "algebroids": ("algebroid.algebroids", (
        "ce_differential", "contravariant_differential", "check_algebroid_axioms")),
    "symplectic": ("algebroid.symplectic", ("check_weak_symplectic", "poisson_bracket")),
    "courant": ("algebroid.courant", ("check_courant_axioms", "check_dirac", "orthogonal_complement")),
    "dsl": ("algebroid.dsl", ("parse_document", "render_value")),
}

# (module, class, {statistic name: method names}); None means every method.
METHODS = (
    ("algebroid.poly", "Poly", {
        "poly.mul": ("__mul__", "__rmul__"),
        "poly.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
        "poly.pow": ("__pow__",),
        "poly.partial": ("partial",),
        "poly.exact_div": ("exact_div",),
    }),
    ("algebroid.sampling", "Sampler", {"sampling.Sampler": None}),
)


def _algebroid_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "algebroid" or name.startswith("algebroid."))
    ]


class Tracer:
    """Wraps algebroid's public functions and aggregates their spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds]
        self.counts = {}  # counter name -> int
        self.derived = {}  # derived seconds name -> float
        self._inside = {}  # scope -> [depth, inclusive seconds of outermost spans]
        self._stack = [[0.0]]  # one frame per open span: [seconds of wrapped children]
        self._hidden = [0.0]  # counter time removed from every clock reading
        self._undo = []

    # -- counters ---------------------------------------------------------

    def _add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _rank_counters(self, rows, ncols, *_args, **_kwargs):
        self._add("linalg.rank.cells", len(rows) * ncols)
        self._add("linalg.rank.nnz", sum(len(row) - row.count(0) for row in rows))
        if self._inside["cohomology.compute_cohomology"][0]:
            self._add("cohomology.columns", ncols)

    def _rank_generic_counters(self, rows, ncols, *_args, **_kwargs):
        self._add("linalg.rank_generic.cells", len(rows) * ncols)

    def _terms_out(self, name):
        key = name + ".terms_out"

        def count(result):
            terms = getattr(result, "terms", None)
            if terms is not None:
                self._add(key, len(terms))

        return count

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None, scope=None, minus=None):
        """A wrapper recording one span per call of ``fn`` under ``name``.

        ``scope`` accumulates the inclusive time of the outermost spans of a
        group (e.g. all of linalg); ``minus`` records, under
        ``<derived name>``, this span's inclusive time less the time spent
        inside the given scope during it.
        """
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, hidden, clock = self._stack, self._hidden, perf_counter
        inside = self._inside.setdefault(scope, [0, 0.0]) if scope else None
        subtract = self._inside.setdefault(minus[0], [0, 0.0]) if minus else None
        derived = self.derived
        if minus:
            derived.setdefault(minus[1], 0.0)

        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(*args, **kwargs)
                hidden[0] += clock() - t
            frame = [0.0]
            stack.append(frame)
            if inside is not None:
                inside[0] += 1
            if subtract is not None:
                base = subtract[1]
            start = clock() - hidden[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - hidden[0] - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if inside is not None:
                    inside[0] -= 1
                    if not inside[0]:
                        inside[1] += elapsed
                if subtract is not None:
                    derived[minus[1]] += elapsed - (subtract[1] - base)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _options(self, layer, fn_name):
        name = f"{layer}.{fn_name}"
        options = {}
        if layer == "linalg":
            options["scope"] = "linalg"
        if name == "linalg.rank":
            options["before"] = self._rank_counters
        elif name == "linalg.rank_generic":
            options["before"] = self._rank_generic_counters
        elif name == "cohomology.compute_cohomology":
            options["scope"] = name
            options["minus"] = ("linalg", "cohomology.assemble_s")
        elif name == "cohomology.check_lp_ce_agreement":
            options["minus"] = ("cohomology.compute_cohomology", "cohomology.agreement_trials_s")
        return name, options

    def install(self):
        """Wrap every target; algebroid.cli must already be imported."""
        self._inside.setdefault("cohomology.compute_cohomology", [0, 0.0])
        modules = _algebroid_modules()
        for layer, (module_name, fn_names) in FUNCTIONS.items():
            home = sys.modules[module_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                name, options = self._options(layer, fn_name)
                wrapper = self._wrap(original, name, **options)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for module_name, class_name, groups in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            for name, method_names in groups.items():
                if method_names is None:
                    method_names = [k for k, v in vars(cls).items() if callable(v)]
                after = self._terms_out(name) if name in ("poly.mul", "poly.exact_div") else None
                wrapped = {}
                for method_name in method_names:
                    original = vars(cls)[method_name]
                    if id(original) not in wrapped:
                        wrapped[id(original)] = self._wrap(original, name, after=after)
                    self._undo.append((cls, method_name, original))
                    setattr(cls, method_name, wrapped[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Aggregated statistics so far, as plain JSON-ready values."""
        return {
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "derived": dict(sorted(self.derived.items())),
        }
