"""Per-layer tracing for the traced run: wrappers around the public functions
of each psiwb module, installed from the benchmark's own files.

A wrapper counts every call.  It times a call only at the outermost entry
of its layer, so recursion (``support``, ``sort_key``, ``opened_frame``,
``subst_process``) and layers that call themselves through another name
(``mint_many`` calling ``mint``) are timed once.  Timed calls form a stack:
a call's self time is its duration minus that of the timed calls it makes.
The times include the wrappers' own cost for the calls they contain.
"""

from __future__ import annotations

import time

# layer -> functions, as (module, attribute).  The modules import these by
# name (``from .nominal import canonical``), so each wrapper is bound in
# every module namespace that holds the original.
FUNCTIONS = {
    "nominal.canonical": (("nominal", "canonical"),),
    "nominal.support": (("nominal", "support"),),
    "nominal.rename": (("nominal", "rename"),),
    "nominal.mint": (("nominal", "mint"), ("nominal", "mint_many")),
    "nominal.sort_key": (("nominal", "sort_key"),),
    "process.opened_frame": (("process", "opened_frame"),),
    "process.subst_process": (("process", "subst_process"),),
    "process.check_well_formed": (("process", "check_well_formed"),),
    "semantics.transitions": (("semantics", "transitions"),),
    "semantics.legacy_transitions": (("semantics", "legacy_transitions"),),
    "semantics.erase_provenance": (("semantics", "erase_provenance"),),
    "reduction.reductions": (("reduction", "reductions"),),
    "reduction.congruence_key": (("reduction", "congruence_key"),),
    "reduction.harmony_check": (("reduction", "harmony_check"),),
    "corpus.random_process": (("corpus", "random_process"),),
}

# layer -> methods wrapped on every shipped instance class that defines them
METHODS = {
    "params.entails": ("entails",),
    "params.channels": ("out_channels", "in_channels"),
    "params.compose": ("compose",),
}

# the per-layer metrics read off Tracer.table: "<layer>.<calls|ms|self_ms>"
REPORTED = (
    "nominal.canonical.calls", "nominal.canonical.ms",
    "nominal.support.calls", "nominal.support.ms", "nominal.rename.ms",
    "nominal.mint.calls", "nominal.mint.ms", "nominal.sort_key.ms",
    "params.entails.calls", "params.entails.ms",
    "params.channels.calls", "params.compose.calls",
    "process.opened_frame.calls", "process.opened_frame.ms",
    "process.subst_process.calls", "process.subst_process.ms",
    "process.check_well_formed.ms",
    "semantics.transitions.calls", "semantics.transitions.ms",
    "semantics.transitions.self_ms",
    "semantics.legacy_transitions.ms", "semantics.erase_provenance.ms",
    "reduction.reductions.calls", "reduction.reductions.ms",
    "reduction.congruence_key.calls", "reduction.congruence_key.ms",
    "reduction.harmony_check.self_ms",
)


class Tracer:
    def __init__(self):
        self.enabled = False
        layers = list(FUNCTIONS) + list(METHODS)
        self.calls = dict.fromkeys(layers, 0)
        self.seconds = dict.fromkeys(layers, 0.0)
        self.self_seconds = dict.fromkeys(layers, 0.0)
        self._open = dict.fromkeys(layers, False)
        self._stack = []  # per open timed call: seconds spent in timed callees
        self.canonical_in_transitions = 0
        self.transition_results = 0

    def reset(self):
        """Start counting afresh; returns each layer's seconds so far."""
        taken = dict(self.seconds)
        for d in (self.calls, self.seconds, self.self_seconds):
            for k in d:
                d[k] = type(d[k])()
        self.canonical_in_transitions = 0
        self.transition_results = 0
        return taken

    def install(self, modules, instance_classes):
        for layer, targets in FUNCTIONS.items():
            for modname, attr in targets:
                orig = getattr(modules[modname], attr)
                wrapper = self._wrap(layer, orig)
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
        for layer, methods in METHODS.items():
            for cls in instance_classes:
                for meth in methods:
                    if meth in vars(cls):
                        setattr(cls, meth, self._wrap(layer, vars(cls)[meth]))

    def _wrap(self, layer, fn):
        perf_counter = time.perf_counter
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        is_open, stack = self._open, self._stack
        is_canonical = layer == "nominal.canonical"
        is_transitions = layer == "semantics.transitions"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            calls[layer] += 1
            if is_canonical and is_open["semantics.transitions"]:
                self.canonical_in_transitions += 1
            if is_open[layer]:
                return fn(*args, **kwargs)
            is_open[layer] = True
            callees = [0.0]
            stack.append(callees)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                is_open[layer] = False
                seconds[layer] += dt
                self_seconds[layer] += dt - callees[0]
                if stack:
                    stack[-1][0] += dt
            if is_transitions:
                self.transition_results += len(result)
            return result

        return wrapper

    def metrics(self, queries: int, setup_seconds: dict, queries_per_s: float):
        """The per-layer metrics: counts and times per counted query, except
        ``corpus.random_process.ms``, the time it took in the run's set-up."""
        table = self.table(queries)
        out = {}
        for name in REPORTED:
            layer, kind = name.rsplit(".", 1)
            out[name] = {"value": table[layer][kind],
                         "unit": "count" if kind == "calls" else "ms"}
        out["semantics.raw_per_result"] = {
            "value": self.canonical_in_transitions / max(self.transition_results, 1),
            "unit": "ratio"}
        out["corpus.random_process.ms"] = {
            "value": setup_seconds["corpus.random_process"] * 1000, "unit": "ms"}
        out["traced.queries_per_s"] = {"value": queries_per_s, "unit": "1/s"}
        return out

    def table(self, queries: int):
        """Every layer's calls, inclusive and self milliseconds per query."""
        return {layer: {"calls": self.calls[layer] / queries,
                        "ms": self.seconds[layer] * 1000 / queries,
                        "self_ms": self.self_seconds[layer] * 1000 / queries}
                for layer in self.calls}
