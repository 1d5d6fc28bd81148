"""Spans around calls into the wittcoh layers, installed from outside the package.

The tracer never edits the package's source.  `install` wraps every function
defined at module level in a layer module and rebinds the wrapper wherever
*another* wittcoh module (or the package itself) binds that function, so a
span records exactly the calls that cross a layer boundary.  A short list of
named stage functions is also rebound in its own module, so their calls from
inside the same layer get spans too.  Functions added or renamed later are
picked up with no edit here; a stage or counter source that no longer exists
is reported as absent, and a counter whose hook no longer fits the function's
arguments or result is reported as unreadable, without failing the call.

Limits: methods are not wrapped (a call to `alg.bracket` is charged to the
caller), and a function-local `from .x import f` reads the owning module's
binding, so such calls are not spanned either.

Spans stay in memory as [name, start, end, parent] and are written out by
the runner when the run ends.  A span's self time is its duration minus the
time its child spans cover; the self times of all spans sum to the time
covered by root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("linalg", "algebra", "cochains", "cohomology", "replay", "deformation", "cli")

# Stage functions wrapped in their own module as well, so intra-layer calls
# to them get spans.  `linalg.solve` is the elimination entry behind
# kernel_basis and solve_affine; its result carries the rank.
STAGES = {
    "linalg": ("solve",),
    "cohomology": ("cocycle_matrix", "comparison_tuples"),
    "deformation": ("jacobi_defect", "conjugate"),
    "replay": ("fill_nonpositive_rows", "fill_positive_rows", "final_solve"),
}

# Functions whose spans sum into a stage-time metric (outermost span per name).
STAGE_TIMES = {
    "cohomology.matrix_s": ("cohomology.cocycle_matrix",),
    "cohomology.comparison_s": ("cohomology.comparison_tuples",),
    "deformation.jacobi_s": ("deformation.jacobi_defect",),
    "deformation.conjugate_s": ("deformation.conjugate",),
    "replay.fill_s": ("replay.fill_nonpositive_rows", "replay.fill_positive_rows"),
    "replay.solve_s": ("replay.final_solve",),
}

# Functions whose span count is a metric.
SPAN_COUNTS = {
    "cochains.delta_terms_calls": "cochains.delta_terms",
    "cohomology.primitive_calls": "cohomology.coboundary_primitive",
}

ELIMINATIONS = ("linalg.solve", "linalg.rank", "linalg._eliminate", "linalg.row_span_rank")


def _matrix_shape(m):
    """(rows, nonzeros) of a SparseMatrix or of a list of {col: value} rows."""
    if hasattr(m, "n_rows") and hasattr(m, "entries"):
        return m.n_rows, len(m.entries)
    return len(m), sum(len(r) for r in m)


def _rank_of(result):
    if isinstance(result, int):
        return result
    if hasattr(result, "rank"):
        return result.rank
    return len(result[0])  # _eliminate: (pivots, leftovers)


def _count_elimination(args, kwargs, result, exc):
    if exc is not None:
        return None
    rows, nnz = _matrix_shape(args[0] if args else next(iter(kwargs.values())))
    return {"linalg.rows": rows, "linalg.nnz": nnz, "linalg.rank": _rank_of(result)}


def _count_delta_terms(args, kwargs, result, exc):
    if exc == "_Omit":
        return {"cochains.omitted_tuples": 1}
    return None


def _count_differential(args, kwargs, result, exc):
    if exc is None and result.omitted:
        return {"cochains.omitted_tuples": len(result.omitted)}
    return None


def _count_jacobi(args, kwargs, result, exc):
    if exc is not None:
        return None
    n = len(list(result.window.indices()))
    triples = 0
    for o in result.orders:
        if o.clean:
            triples += n * (n - 1) * (n - 2) // 6
        else:
            # the scan stops after the outer index of the first defect
            first = o.triple[0] - result.window.lo
            triples += sum((n - 1 - a) * (n - 2 - a) // 2 for a in range(first + 1))
    return {"deformation.jacobi_triples": triples,
            "deformation.jacobi_skipped": sum(o.skipped for o in result.orders)}


def _count_conjugate(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"deformation.omitted_pairs": len(result.omitted_pairs - args[0].omitted_pairs)}


def _count_replay(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"replay.log_entries": len(result.table.log)}


HOOKS = {name: _count_elimination for name in ELIMINATIONS}
HOOKS.update({
    "cochains.delta_terms": _count_delta_terms,
    "cochains.differential": _count_differential,
    "deformation.jacobi_defect": _count_jacobi,
    "deformation.conjugate": _count_conjugate,
    "replay.run_replay": _count_replay,
})

# Where each count comes from; a count is absent when none of its sources exists.
COUNT_SOURCES = {
    "linalg.rows": ELIMINATIONS,
    "linalg.nnz": ELIMINATIONS,
    "linalg.rank": ELIMINATIONS,
    "linalg.useful_row_frac": ELIMINATIONS,
    "cochains.omitted_tuples": ("cochains.delta_terms", "cochains.differential"),
    "deformation.jacobi_triples": ("deformation.jacobi_defect",),
    "deformation.jacobi_skipped": ("deformation.jacobi_defect",),
    "deformation.omitted_pairs": ("deformation.conjugate",),
    "replay.log_entries": ("replay.run_replay",),
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None]
        self.counts = {}
        self.hook_failures = set()  # span names whose counter hook raised
        self._stack = []

    def wrap(self, span_name, fn):
        spans, stack, counts, failures = self.spans, self._stack, self.counts, self.hook_failures
        hook = HOOKS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            exc_name = result = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if hook is not None:
                    try:
                        found = hook(args, kwargs, result, exc_name) or {}
                    except Exception:  # a changed signature or result: the count is unread
                        failures.add(span_name)
                        found = {}
                    for key, v in found.items():
                        counts[key] = counts.get(key, 0) + v

        return traced


class Installation:
    """The rebindings made by `install`; `remove` restores the originals."""

    def __init__(self):
        self.wrappers = {}  # "layer.name" of every function defined in a layer -> wrapper
        self.layers = set()
        self._patches = []  # (module, attribute, original)

    def resolve(self, layer, name):
        """The function an outside caller should use: the wrapper when installed."""
        key = f"{layer}.{name}"
        if key in self.wrappers:
            return self.wrappers[key]
        return getattr(importlib.import_module(f"wittcoh.{layer}"), name)

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def absent(self):
        """Stage and counter metrics whose source functions no longer exist."""
        out = []
        for metric, sources in list(STAGE_TIMES.items()) + list(COUNT_SOURCES.items()):
            if not any(s in self.wrappers for s in sources):
                out.append(metric)
        for metric, source in SPAN_COUNTS.items():
            if source not in self.wrappers:
                out.append(metric)
        for layer in LAYERS:
            if layer not in self.layers:
                out.extend((f"{layer}.calls", f"{layer}.self_s"))
        return sorted(set(out))


def unreadable(hook_failures):
    """Counter metrics that missed calls because a source's hook raised."""
    return sorted(m for m, sources in COUNT_SOURCES.items()
                  if any(s in hook_failures for s in sources))


def install(tracer) -> Installation:
    inst = Installation()
    originals = {}  # original function -> "layer.name"
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"wittcoh.{layer}")
        except ModuleNotFoundError:
            continue
        inst.layers.add(layer)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                key = f"{layer}.{name}"
                inst.wrappers[key] = tracer.wrap(key, obj)
                originals[obj] = key
    for modname, mod in list(sys.modules.items()):
        if modname != "wittcoh" and not modname.startswith("wittcoh."):
            continue
        own_layer = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            key = originals.get(obj) if inspect.isfunction(obj) else None
            if key is None:
                continue
            layer, _, name = key.partition(".")
            if layer != own_layer or name in STAGES.get(layer, ()):
                inst._patches.append((mod, attr, obj))
                setattr(mod, attr, inst.wrappers[key])
    return inst


def summarize(span_sets, counts):
    """Per-layer metrics from one or more processes' spans and counts."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    stage = {metric: 0.0 for metric in STAGE_TIMES}
    stage_of = {n: m for m, names in STAGE_TIMES.items() for n in names}
    span_counts = {metric: 0 for metric in SPAN_COUNTS}
    count_of = {n: m for m, n in SPAN_COUNTS.items()}
    root_s = 0.0
    for spans in span_sets:
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = name.partition(".")[0]
            self_s[layer] += dur - child[i]
            if parent is None:
                root_s += dur
            if parent is None or spans[parent][0].partition(".")[0] != layer:
                calls[layer] += 1
            if name in count_of:
                span_counts[count_of[name]] += 1
            if name in stage_of and not _has_ancestor(spans, parent, name):
                stage[stage_of[name]] += dur
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for metric, v in stage.items():
        metrics[metric] = (v, "s")
    for metric, v in span_counts.items():
        metrics[metric] = (v, "count")
    for metric in COUNT_SOURCES:
        metrics[metric] = (counts.get(metric, 0), "count")
    rows = counts.get("linalg.rows", 0)
    metrics["linalg.useful_row_frac"] = (
        counts.get("linalg.rank", 0) / rows if rows else 0.0, "ratio")
    return metrics, root_s


def _has_ancestor(spans, parent, name):
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
