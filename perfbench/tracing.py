"""Per-layer tracing from outside the package.

A layer is one module of ``supercech``.  :class:`Tracer` wraps the calls into
each layer's public functions (plus a few boundary methods) and records, per
wrapped function, the number of calls, the inclusive time and the self time
(the span's duration minus the time its child spans cover).  Spans are
aggregated in memory as they close; nothing is written until the run ends.

A wrapper replaces the function in *every* ``supercech`` namespace that bound
it, so ``from .cech import solve_coboundary`` in another module is traced
too.  Work the tracer itself does (counting nonzeros, hashing sheaf contents)
is timed separately as bookkeeping and removed from the enclosing spans.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

LAYERS = ("cli", "modelfile", "parsing", "laurent", "grassmann", "spaces",
          "gluing", "sheaf", "linalg", "cech", "obstruction", "family",
          "secondary")

# Public methods that sit on a layer boundary.  Module-level public functions
# are wrapped without being listed.  Arithmetic dunders and accessors called
# millions of times are left out: their cost lands in the caller's layer.
BOUNDARY_METHODS = {
    "parsing": {"ExpressionParser": ("parse", "parse_poly")},
    "grassmann": {"GrassmannElement": ("substitute", "odd_derivative")},
    "spaces": {"ReducedSpace": ("compose_into", "jacobian")},
    "gluing": {"SuperTransition": ("apply",),
               "SuperGluingData": ("verify_cocycle", "splitting_type", "reduce",
                                   "restrict_fiber", "conjugate",
                                   "embedding_splitting_triple")},
    "sheaf": {"SheafSpec": ("__init__", "transport"),
              "FilteredSheaf": ("verify",)},
    "linalg": {"SpanReducer": ("__init__", "reduce")},
    "cech": {"ShortExactSequence": ("verify", "section_of_projection")},
    "family": {"FamilySpec": ("fiber",), "GluedFamily": ("verify",)},
}

# Private functions traced because a counter lives there.
EXTRA_FUNCTIONS = {"cech": ("_delta0_linearization",)}

# Counters whose values repeat exactly on a rerun.  All but the last are
# also the same on another seed: seeds flip and scale coefficients, which
# leaves every linear system's shape alone, but the parser builds one more
# polynomial for a negative coefficient than for a positive one.
EXACT_COUNTERS = ("linalg.dense_entries", "linalg.nonzeros", "cech.decisions",
                  "cech.distinct_systems", "laurent.polys_built")
SEED_FREE_COUNTERS = EXACT_COUNTERS[:-1]


def _nonzeros(row) -> int:
    """Nonzero entries of a row.  ``list.count`` compares by identity first,
    so counting against the row's own zero object is fast for rows built as
    ``[Q(0)] * n`` and exact for any row."""
    for v in row:
        if v == 0:
            return len(row) - row.count(v)
    return len(row)


def _space_key(space):
    return (tuple(space.cover.order),
            tuple(sorted((k, tuple(sorted(m.items())))
                         for k, m in space.coordinate_maps.items())))


def _sheaf_key(spec):
    return (_space_key(spec.space), spec.rank,
            tuple(sorted((k, tuple(tuple(row) for row in m))
                         for k, m in spec.matrices.items())))


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_time: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.counters: Counter = Counter()
        self.bookkeeping = 0.0
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._outer: Counter = Counter()     # nesting depth of parse/write groups
        self._job_systems: set = set()
        self._job_sheaves: set = set()
        self.job_max_cols = 0
        self.job_eliminations = 0

    # ----------------------------------------------------------- job scope

    def start_job(self):
        self._job_systems = set()
        self._job_sheaves = set()
        self.job_max_cols = 0
        self.job_eliminations = 0

    # ------------------------------------------------------------- install

    def install(self):
        modules = {name: getattr(self.sc, name) for name in LAYERS}
        hooks = (self._before_hooks(), self._after_hooks())
        originals = []
        for layer, mod in modules.items():
            if layer == "laurent":
                continue
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_")
                             or name in EXTRA_FUNCTIONS.get(layer, ()))):
                    originals.append((obj, self._wrap(obj, layer, f"{layer}.{name}", hooks)))
            for cls_name, methods in BOUNDARY_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, orig,
                              self._wrap(orig, layer, f"{layer}.{cls_name}.{meth}", hooks))
        namespaces = [self.sc, *modules.values()]
        for orig, wrapper in originals:
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._set(ns, attr, orig, wrapper)
        poly = modules["laurent"].LaurentPoly
        init = poly.__init__
        counters = self.counters

        def counted_init(obj, *args, **kwargs):
            counters["laurent.polys_built"] += 1
            init(obj, *args, **kwargs)
        self._set(poly, "__init__", init, counted_init)

    def uninstall(self):
        for target, attr, orig in reversed(self._installed):
            setattr(target, attr, orig)
        self._installed.clear()

    def _set(self, target, attr, orig, new):
        self._installed.append((target, attr, orig))
        setattr(target, attr, new)

    # -------------------------------------------------------------- spans

    def _wrap(self, fn, layer, name, hooks):
        stack = self._stack
        clock = time.perf_counter
        calls, incl, self_time, layer_self = (self.calls, self.incl,
                                              self.self_time, self.layer_self)
        before, after = (h.get(name) for h in hooks)
        group = self._group(name)
        outer = self._outer

        def wrapper(*args, **kwargs):
            if before is not None:
                b0 = clock()
                before(args)
                self._charge(clock() - b0)
            frame = [0.0]
            stack.append(frame)
            if group:
                outer[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if group:
                    outer[group] -= 1
                    if not outer[group]:
                        incl[group] += dt
                calls[name] += 1
                incl[name] += dt
                own = dt - frame[0]
                self_time[name] += own
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                a0 = clock()
                after(args, result)
                self._charge(clock() - a0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _charge(self, dt):
        """Book tracer work as bookkeeping, outside every enclosing span."""
        self.bookkeeping += dt
        if self._stack:
            self._stack[-1][0] += dt

    @staticmethod
    def _group(name):
        if name in ("modelfile.parse_model_text",):
            return "modelfile.parse_s"
        if name.startswith("modelfile.write_"):
            return "modelfile.write_s"
        return None

    # --------------------------------------------------------------- hooks

    def _before_hooks(self):
        c = self.counters

        def rref(args):
            m = args[0]
            rows = len(m)
            cols = len(m[0]) if rows else 0
            c["linalg.eliminations"] += 1
            c["linalg.dense_entries"] += rows * cols
            c["linalg.nonzeros"] += sum(_nonzeros(r) for r in m)
            c["linalg.max_cols"] = max(c["linalg.max_cols"], cols)
            self.job_eliminations += 1
            self.job_max_cols = max(self.job_max_cols, cols)

        def linearization(args):
            c["cech.decisions"] += 1
            key = (_sheaf_key(args[0]), args[1])
            if key not in self._job_systems:
                self._job_systems.add(key)
                c["cech.distinct_systems"] += 1

        def parse_text(args):
            c["modelfile.bytes_in"] += len(args[0].encode("utf-8"))

        return {"linalg.rref": rref,
                "cech._delta0_linearization": linearization,
                "modelfile.parse_model_text": parse_text}

    def _after_hooks(self):
        c = self.counters

        def sheaf_built(args, result):
            c["sheaf.constructions"] += 1
            key = _sheaf_key(args[0])
            if key in self._job_sheaves:
                c["sheaf.repeat_constructions"] += 1
            else:
                self._job_sheaves.add(key)

        def wrote(args, result):
            if not self._outer["modelfile.write_s"]:
                c["modelfile.bytes_out"] += len(result.encode("utf-8"))

        hooks = {"sheaf.SheafSpec.__init__": sheaf_built}
        for name in ("write_gluing", "write_sheaf", "write_gt_model", "write_document"):
            hooks[f"modelfile.{name}"] = wrote
        return hooks

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        c = self.counters
        out = {name: float(c[name]) for name in (
            "linalg.eliminations", "linalg.dense_entries", "linalg.nonzeros",
            "linalg.max_cols", "cech.decisions", "cech.distinct_systems",
            "sheaf.constructions", "sheaf.repeat_constructions",
            "modelfile.bytes_in", "modelfile.bytes_out", "laurent.polys_built")}
        out["sheaf.transport_calls"] = float(self.calls["sheaf.SheafSpec.transport"])
        out["spaces.compose_into_calls"] = float(self.calls["spaces.ReducedSpace.compose_into"])
        out["grassmann.substitute_calls"] = float(
            self.calls["grassmann.GrassmannElement.substitute"])
        out["gluing.compose_calls"] = float(self.calls["gluing.compose_transitions"])
        out["gluing.invert_calls"] = float(self.calls["gluing.invert_transition"])
        out["modelfile.parse_s"] = float(self.incl["modelfile.parse_s"])
        out["modelfile.write_s"] = float(self.incl["modelfile.write_s"])
        for layer in LAYERS:
            if layer != "laurent":
                out[f"{layer}.self_s"] = float(self.layer_self[layer])
        return out

    def exact_counters(self) -> dict[str, int]:
        return {name: int(self.counters[name]) for name in EXACT_COUNTERS}

    def function_table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": self.calls[name], "incl_s": round(self.incl[name], 6),
                       "self_s": round(self.self_time[name], 6)}
                for name in sorted(self.calls)}
