"""In-memory spans around calls into brauerkit's layers.

`install` replaces every public function of each layer module, a few named
private hot spots and some class methods with a wrapper that records a span
(name, layer, start, end, parent span, request id).  Wrappers are bound
both on the defining module and on every other brauerkit module that holds
the function through a `from ... import`, so calls between layers are seen.
Nothing in brauerkit is edited; `Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "abelian", "cyccoh", "charp", "numbrauer", "sheaftab",
          "ssengine", "kofam", "tmffam")

# private functions that carry a layer's work and are named by a metric
PRIVATE = {"abelian": ("_snf_ext", "_resolve")}
# (module, class, attribute) methods to span
METHODS = (("abelian", "FgAbGroup", "from_orders"), ("sheaftab", "FactTable", "load"))

NAME, LAYER, START, END, PARENT, REQUEST, INFO, EXCLUDED = range(8)


def _snf_info(args, result):
    U, _, V, _, _ = result
    biggest = max((abs(x) for M in (U, V) for row in M for x in row), default=0)
    return {"digits": len(str(biggest))}


def _resolve_info(args, result):
    _, trace = result
    return {"accepted": len(trace.accepted),
            "candidates": len(trace.accepted) + len(trace.rejected)}


def _charp_info(args, result):
    op, module = args[0], args[1]
    degrees = range(module.window[0], module.window[1] + 1)
    out = {k + d * op.p ** e for d in degrees for _, k, e in op.terms}
    return {"cells": len(degrees) * len(out)}  # computed from the sizes, not counted


def _page_info(args, result):
    return {"entries": len(args[0].entries)}


INFO_HOOKS: Dict[str, Callable] = {
    "abelian._snf_ext": _snf_info,
    "abelian._resolve": _resolve_info,
    "charp.operator_kernel": _charp_info,
    "charp.operator_cokernel_basis": _charp_info,
    "ssengine.turn_page": _page_info,
}


class Tracer:
    """Span recorder; one per traced pass.  Single-threaded by design."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request: Optional[str] = None
        self.rule_matches = 0
        self._undo: List[tuple] = []

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        hook = INFO_HOOKS.get(f"{layer}.{name}")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.request, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, result)
                if stack:  # keep the hook's own cost out of the parent's self time
                    spans[stack[-1]][EXCLUDED] += clock() - span[END]
            return result
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"brauerkit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in PRIVATE.get(layer, ()))):
                    wrapped[obj] = self._wrap(layer, name, obj)
        for mod in [m for n, m in sys.modules.items() if n.startswith("brauerkit.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[attr]
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, type(raw)(self._wrap(layer, attr, raw.__func__)))
        rule_cls = modules["ssengine"].DifferentialRule
        matches = rule_cls.matches
        self._undo.append((rule_cls, "matches", matches))

        def counted(rule, s, t):
            self.rule_matches += 1
            return matches(rule, s, t)
        rule_cls.matches = counted

    def uninstall(self) -> None:
        for target, name, obj in reversed(self._undo):
            setattr(target, name, obj)
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus its direct children and excluded time."""
    own = [s[END] - s[START] - s[EXCLUDED] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: List[list], rule_matches: int) -> Dict[str, float]:
    """Per-layer counts and self times over one traced pass."""
    own = self_times(spans)
    m: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    names = {
        "cli.main_self_s": ("cli", ("main",)),
        "abelian.snf_self_s": ("abelian", ("_snf_ext", "smith_normal_form")),
        "abelian.resolve_self_s": ("abelian", ("_resolve", "resolve_extension",
                                               "resolve_extension_by_order")),
        "abelian.hom_self_s": ("abelian", ("hom_kernel", "hom_cokernel", "homology")),
        "abelian.from_orders_self_s": ("abelian", ("from_orders",)),
        "charp.kernel_self_s": ("charp", ("operator_kernel",)),
        "charp.cokernel_self_s": ("charp", ("operator_cokernel_basis",)),
        "sheaftab.cohomology_self_s": ("sheaftab", ("cohomology", "cohomology_order")),
        "ssengine.turn_page_self_s": ("ssengine", ("turn_page",)),
        "ssengine.json_self_s": ("ssengine", ("page_from_json", "page_to_json")),
        "ssengine.assemble_self_s": ("ssengine", ("assemble_abutment",
                                                  "assemble_abutment_by_orders")),
    }
    for key in names:
        m[key] = 0.0
    counts = {"abelian.snf_calls": ("abelian", "_snf_ext"),
              "abelian.resolve_calls": ("abelian", "_resolve"),
              "cyccoh.calls": ("cyccoh", None),
              "charp.kernel_calls": ("charp", "operator_kernel"),
              "charp.cokernel_calls": ("charp", "operator_cokernel_basis"),
              "sheaftab.cohomology_calls": ("sheaftab", "cohomology"),
              "ssengine.turn_page_calls": ("ssengine", "turn_page")}
    for key in counts:
        m[key] = 0
    m.update({"abelian.snf_max_digits": 0, "abelian.resolve_candidates": 0,
              "charp.matrix_cells": 0, "ssengine.entries": 0, "cli.data_digest_s": 0.0})
    accepted = 0
    for span, t in zip(spans, own):
        name, layer, info = span[NAME], span[LAYER], span[INFO]
        m[f"{layer}.self_s"] += t
        for key, (lay, fns) in names.items():
            if layer == lay and name in fns:
                m[key] += t
        for key, (lay, fn) in counts.items():
            if layer == lay and (fn is None or name == fn):
                m[key] += 1
        if layer == "sheaftab" and name == "cohomology_order":
            m["sheaftab.cohomology_calls"] += 1
        if layer == "cli" and name == "data_file_versions":
            m["cli.data_digest_s"] += span[END] - span[START]
        if info:
            m["abelian.snf_max_digits"] = max(m["abelian.snf_max_digits"], info.get("digits", 0))
            m["abelian.resolve_candidates"] += info.get("candidates", 0)
            accepted += info.get("accepted", 0)
            m["charp.matrix_cells"] += info.get("cells", 0)
            m["ssengine.entries"] += info.get("entries", 0)
    m["abelian.resolve_accept_ratio"] = (accepted / m["abelian.resolve_candidates"]
                                         if m["abelian.resolve_candidates"] else 0.0)
    m["ssengine.rule_matches"] = rule_matches
    return m


def top_level_duration(spans: List[list], request: str) -> float:
    durations = [s[END] - s[START] for s in spans if s[REQUEST] == request and s[PARENT] < 0]
    return sum(durations)


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
