"""Spans around the zerosum layer entry points, recorded from outside.

The tracer swaps each entry point for a wrapper in every ``zerosum`` module
that holds a reference to it (modules bind names with ``from .x import f``,
so patching the defining module alone would miss callers), records one span
per call in memory and puts the originals back on ``uninstall``.

Per-node helpers such as ``translate`` and ``_GeneralState.append`` are
deliberately not wrapped: a span per DFS node would cost more than the work
it measures.  Kernel spans therefore have no children, and a layer's self
time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

LAYERS = ("groups", "kernel", "engine", "davenport", "extremal", "sequences",
          "cache", "cli")

ENTRY_POINTS = {
    "zerosum.groups": ("groups", ["build_group"]),
    "zerosum.engine": ("engine", ["reachable_products", "is_product1_free",
                                  "has_product_in", "max_free_search",
                                  "enumerate_free"]),
    "zerosum.davenport": ("davenport", ["max_free_length", "davenport",
                                        "verify_known_constants"]),
    "zerosum.extremal": ("extremal", ["enumerate_extremal", "verify_theorem",
                                      "family_for", "family_cyclic",
                                      "family_dihedral", "family_dicyclic",
                                      "family_metacyclic"]),
    "zerosum.cache": ("cache", ["lookup", "store", "load_all"]),
    "zerosum.cli": ("cli", ["main"]),
}
KERNEL_MODULES = ("zerosum._pykernel", "zerosum._kernel")
KERNEL_ENTRY_POINTS = ("build_context", "greedy", "search", "reachable")
SEQUENCE_METHODS = ("from_text", "from_indices", "format")

# Span fields, stored as lists so the wrapper can fill them in place.
NAME, START, END, PARENT, PHASE, ATTRS = range(6)


def _kernel_attrs(func):
    if func == "greedy":
        return lambda args, kwargs, res: {"nodes": res[2]}
    if func == "search":
        return lambda args, kwargs, res: {"mode": args[1], "nodes": res["nodes"],
                                          "found": len(res["found"])}
    if func == "reachable":
        def attrs(args, kwargs, res):
            until = args[3] if len(args) > 3 else kwargs.get("until_mask", 0)
            return {"until": bool(until), "hit": bool(res[1])}
        return attrs
    return None


def _cache_attrs(func):
    if func == "lookup":
        return lambda args, kwargs, res: {"hit": res is not None}
    if func == "store":
        return lambda args, kwargs, res: {"bytes": os.path.getsize(res)}
    return None


class Tracer:
    """Records (name, start, end, parent, phase, attrs) spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrapper(self, name, fn, attrs=None, lane=None):
        """``attrs(args, kwargs, result)`` adds counts to a span that returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase,
                    {"lane": lane} if lane else {}]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS].update(attrs(args, kwargs, result))
            return result

        return traced

    def _patch_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "zerosum" and not modname.startswith("zerosum."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def install(self):
        for modname, (layer, funcs) in ENTRY_POINTS.items():
            mod = sys.modules[modname]
            for func in funcs:
                orig = getattr(mod, func)
                attrs = _cache_attrs(func) if layer == "cache" else None
                self._patch_everywhere(orig, self._wrapper(f"{layer}.{func}", orig, attrs))
        for modname in KERNEL_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for func in KERNEL_ENTRY_POINTS:
                orig = getattr(mod, func)
                wrapper = self._wrapper(f"kernel.{func}", orig,
                                        _kernel_attrs(func), mod.LANE)
                setattr(mod, func, wrapper)
                self._restore.append((mod, func, orig))
        gseq = sys.modules["zerosum.sequences"].GSequence
        for func in SEQUENCE_METHODS:
            raw = gseq.__dict__[func]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrapper(f"sequences.{func}", fn)
            setattr(gseq, func, staticmethod(wrapper) if is_static else wrapper)
            self._restore.append((gseq, func, raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def phase_totals(spans, selfs, phase) -> dict:
    """Raw per-layer sums over the spans of one phase."""
    t = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    keys = ("groups.build_s", "groups.count", "kernel.context_s",
            "kernel.greedy_s", "kernel.greedy_nodes", "kernel.search_max_s",
            "kernel.search_max_nodes", "kernel.search_enum_s",
            "kernel.search_enum_nodes", "kernel.search_enum_found",
            "kernel.reach_s", "kernel.reach_calls", "kernel.reach_target_calls",
            "kernel.reach_early_exits", "kernel.calls_pure",
            "kernel.calls_compiled", "engine.recheck_s", "extremal.family_s",
            "extremal.diff_s", "sequences.format_s", "sequences.parse_s",
            "cache.store_s", "cache.lookup_s", "cache.lookups", "cache.hits",
            "cache.bytes")
    t.update({k: 0 for k in keys})
    for i, s in enumerate(spans):
        if s[PHASE] != phase:
            continue
        name, dur = s[NAME], s[END] - s[START]
        layer = name.split(".", 1)[0]
        t[f"{layer}.self_s"] += selfs[i]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        attrs = s[ATTRS]
        if name == "groups.build_group":
            t["groups.build_s"] += dur
            t["groups.count"] += 1
        elif layer == "kernel":
            t["kernel.calls_compiled" if attrs["lane"] != "pure"
              else "kernel.calls_pure"] += 1
            if name == "kernel.build_context":
                t["kernel.context_s"] += dur
            elif name == "kernel.greedy":
                t["kernel.greedy_s"] += dur
                t["kernel.greedy_nodes"] += attrs.get("nodes", 0)
            elif name == "kernel.search":
                kind = "enum" if attrs.get("mode") == "enum" else "max"
                t[f"kernel.search_{kind}_s"] += dur
                t[f"kernel.search_{kind}_nodes"] += attrs.get("nodes", 0)
                if kind == "enum":
                    t["kernel.search_enum_found"] += attrs.get("found", 0)
            elif name == "kernel.reachable":
                t["kernel.reach_s"] += dur
                t["kernel.reach_calls"] += 1
                if attrs.get("until"):
                    t["kernel.reach_target_calls"] += 1
                    t["kernel.reach_early_exits"] += attrs.get("hit", False)
        elif name == "engine.is_product1_free" and parent.split(".")[0] in (
                "davenport", "extremal"):
            t["engine.recheck_s"] += dur
        elif name.startswith("extremal.family_") and not parent.startswith(
                "extremal.family_"):
            t["extremal.family_s"] += dur
        elif name == "extremal.verify_theorem":
            t["extremal.diff_s"] += selfs[i]
        elif name == "sequences.format":
            t["sequences.format_s"] += dur
        elif name == "sequences.from_text":
            t["sequences.parse_s"] += dur
        elif name == "cache.store":
            t["cache.store_s"] += dur
            t["cache.bytes"] += attrs.get("bytes", 0)
        elif name in ("cache.lookup", "cache.load_all"):
            t["cache.lookup_s"] += dur
            if name == "cache.lookup":
                t["cache.lookups"] += 1
                t["cache.hits"] += attrs.get("hit", False)
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, pass_phases, pass_seconds, untraced_seconds) -> dict:
    """Per-layer metrics for one set-up plus one (mean) traced pass.

    Set-up layers (group build, kernel context) count in the set-up phase and
    in the passes; every other layer counts in the passes only.
    """
    selfs = self_times(spans)
    setup = phase_totals(spans, selfs, "setup")
    per_pass = [phase_totals(spans, selfs, p) for p in pass_phases]
    mean = {k: sum(p[k] for p in per_pass) / len(per_pass) for k in per_pass[0]}
    out = dict(mean)
    for k in ("groups.build_s", "groups.count", "kernel.context_s"):
        out[k] = setup[k] + mean[k]
    run_s = sum(pass_seconds) / len(pass_seconds)
    out["kernel.search_max_nodes_per_s"] = _ratio(mean["kernel.search_max_nodes"],
                                                  mean["kernel.search_max_s"])
    out["kernel.enum_yield"] = _ratio(mean["kernel.search_enum_found"],
                                      mean["kernel.search_enum_nodes"])
    out["kernel.reach_early_exit_ratio"] = _ratio(mean["kernel.reach_early_exits"],
                                                  mean["kernel.reach_target_calls"])
    out["cache.hit_ratio"] = _ratio(mean["cache.hits"], mean["cache.lookups"])
    for k in ("kernel.reach_target_calls", "kernel.reach_early_exits",
              "cache.lookups", "cache.hits"):
        del out[k]
    layers_self = sum(mean[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.run_s"] = run_s
    out["trace.untraced_s"] = run_s - layers_self
    out["trace_overhead_ratio"] = _ratio(statistics.median(pass_seconds),
                                         statistics.median(untraced_seconds))
    return out
