"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces the public functions of each ``hfl`` module
with wrappers that record a span (name, start, end, parent, item id),
and the few hot methods named below with wrappers that only count.
Every ``from ... import`` binding of a wrapped function inside the other
``hfl`` modules is replaced too, so internal calls land in their spans.
Spans stay in memory; ``dump`` writes them out when the run ends.
Functions a later version of the package no longer has are skipped, so
their metrics read 0.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

_LINKDIAG = ("parse_pd", "linking_matrix", "classify", "mirror", "reverse",
             "connected_sum", "keep_component", "braid_closure", "two_bridge", "corpus")

# layer -> the functions whose self times it sums
LAYERS = {
    "linkdiag": [f"linkdiag.{f}" for f in _LINKDIAG],
    "alexander.fox": ["alexander.multivariable_alexander"],
    "alexander.signature": ["alexander.signature"],
    "homology.table": ["homology.hfl_alternating", "homology.hfk_alternating_knot",
                       "homology.table_from_invariants"],
    "homology.verify": ["homology.verify"],
    "homology.component_data": ["homology.component_data_from_diagram"],
    "homology.solver": ["homology.two_component_cfl", "homology.two_component_cfl_from_diagram"],
    "filtered.validate": ["filtered.validate"],
    "filtered.homology": ["filtered.assoc_graded_homology", "filtered.total_homology"],
    "filtered.cancel": ["filtered.spectral_pages", "filtered.component_homology"],
    "filtered.tensor": ["filtered.tensor_graded"],
    "summands.build": ["summands.build_sum", "summands.build_summand"],
    "summands.e_decomposition": ["summands.e_decomposition"],
    "summands.decompose": ["summands.decompose"],
    "heegaard.diagram": ["heegaard.two_bridge_diagram", "heegaard.admissibility"],
    "heegaard.complex": ["heegaard.complex_from_diagram"],
}

# per-layer metrics and their units; "<layer>_ms" is the summed self time
# of the layer's spans in one round, "<layer>_calls" their number
TIMED = ["alexander.fox", "alexander.signature", "homology.table", "homology.verify",
         "homology.component_data", "homology.solver", "filtered.validate",
         "filtered.homology", "filtered.cancel", "filtered.tensor", "summands.build",
         "summands.e_decomposition", "summands.decompose", "heegaard.diagram",
         "heegaard.complex"]
CALLED = ["alexander.fox", "alexander.signature", "filtered.validate", "filtered.cancel"]
COUNTED = ["laurent.mul_calls", "heegaard.index_calls", "heegaard.bigons_calls",
           "alexander.delta_terms"]
METRICS = (
    [(f"{layer}_ms", "ms") for layer in TIMED]
    + [(f"{layer}_calls", "count") for layer in CALLED]
    + [(name, "count") for name in COUNTED]
    + [("linkdiag.ms", "ms"), ("linkdiag.calls", "count"),
       ("alexander.fox_dim_max", "count"), ("homology.widths_tried", "count"),
       ("homology.solver_yield", "ratio"), ("trace.coverage", "%"), ("trace.overhead", "%")]
)


class Tracer:
    def __init__(self, hfl):
        self.hfl = hfl
        self.item = None        # key of the item running now; None records nothing
        self.spans = []         # [name, start, end, parent index, item, returned]
        self.counts = Counter()
        self.fox_dim_max = 0
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.item, False])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                spans[idx][5] = True
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.item is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_alexander(self, args, result):
        d = args[0]
        if d.crossings:
            self.fox_dim_max = max(self.fox_dim_max, len(d.crossings) - 1)
        self.counts["alexander.delta_terms"] += len(result.delta.terms)

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("hfl.")]
        hooks = {"alexander.multivariable_alexander": self._after_alexander}
        for names in LAYERS.values():
            for full in names:
                mod_name, fn_name = full.split(".")
                mod = getattr(self.hfl, mod_name)
                orig = getattr(mod, fn_name, None)
                if orig is None:
                    continue
                wrapper = self._span(full, orig, hooks.get(full))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)
        poly = getattr(self.hfl.laurent, "MultiLaurent", None)
        if poly is not None:
            self._patch(poly, "__mul__", self._counter("laurent.mul_calls", poly.__mul__))
        for cls in vars(self.hfl.heegaard).values():
            if isinstance(cls, type) and callable(getattr(cls, "index", None)) \
                    and callable(getattr(cls, "bigons", None)):
                self._patch(cls, "index", self._counter("heegaard.index_calls", cls.index))
                self._patch(cls, "bigons", self._counter("heegaard.bigons_calls", cls.bigons))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ---------------------------------------------------------

    def mark(self):
        """Position in the record, to read one round later."""
        return len(self.spans), Counter(self.counts)

    def round_metrics(self, start, end, scale, item_time):
        """Per-layer metrics of the spans recorded between two marks.

        ``scale`` maps an item key to the factor that turns a measured
        time of that item into the reported one; ``item_time`` is the
        round's summed item time, scaled alike.
        """
        first, counts0 = start
        last, counts1 = end
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        top = 0.0
        for s in spans:
            dur = (s[2] - s[1]) * scale[s[4]]
            if s[3] >= 0:
                child[s[3] - first] += dur
            else:
                top += dur
        index = {full: layer for layer, names in LAYERS.items() for full in names}
        self_ms = Counter()
        calls = Counter()
        widths = solved = 0
        for i, s in enumerate(spans):
            layer = index[s[0]]
            self_ms[layer] += ((s[2] - s[1]) * scale[s[4]] - child[i]) * 1000
            calls[layer] += 1
            if s[0] == "summands.build_sum" and s[3] >= 0 \
                    and self.spans[s[3]][0] == "homology.two_component_cfl":
                widths += 1
            if s[0] == "homology.two_component_cfl" and s[5]:
                solved += 1
        counts = counts1 - counts0
        out = {f"{layer}_ms": self_ms[layer] for layer in TIMED}
        out.update({f"{layer}_calls": calls[layer] for layer in CALLED})
        out.update({name: counts[name] for name in COUNTED})
        out["linkdiag.ms"] = self_ms["linkdiag"]
        out["linkdiag.calls"] = calls["linkdiag"]
        out["alexander.fox_dim_max"] = self.fox_dim_max
        out["homology.widths_tried"] = widths
        out["homology.solver_yield"] = solved / widths if widths else 0.0
        out["trace.coverage"] = 100 * top / item_time
        return out

    def dump(self, path, t0):
        """Write the spans as JSON lines, times in ms from ``t0``."""
        with open(path, "w") as f:
            for name, start, end, parent, item, returned in self.spans:
                f.write(json.dumps({
                    "name": name, "start_ms": round((start - t0) * 1000, 4),
                    "end_ms": round((end - t0) * 1000, 4), "parent": parent,
                    "item": item, "returned": returned,
                }) + "\n")
