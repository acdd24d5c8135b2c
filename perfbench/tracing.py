"""Per-layer tracing from outside the program.

Wraps the public functions of each cliquekit module (its layer) in every
module namespace that refers to them, so calls between modules, and calls
within one, pass through a span.  A layer's self time is the time its spans
cover minus the time their child spans cover.  Every count is derived from
the arguments and return values of the wrapped calls, so it repeats exactly
for equal inputs.

Small helpers called in inner loops (`bits`, `edge`, the `poly_*`
calculus) are left unwrapped: wrapping them costs more than the work they do,
and their time shows as self time of the layer that calls them.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from common import MATRIX_BUILDERS

LAYERS = ("graphs", "cliques", "incidence", "identities", "conjectures", "cli")
HELPERS = {"bits", "edge"}
BUILDERS = tuple(MATRIX_BUILDERS.values())


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.layer_self: dict[str, float] = defaultdict(float)
        self.func_self: dict[str, float] = defaultdict(float)
        self.func_total: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.graphs_built = 0
        self.cliques_listed = 0
        self.clique_inputs: set = set()
        self.reports = 0
        self.entries = 0

    def _close(self, layer: str, name: str, start: float, frame: list[float]) -> None:
        duration = perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        self.layer_self[layer] += duration - frame[0]
        self.func_self[name] += duration - frame[0]
        self.func_total[name] += duration
        self.calls[name] += 1

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(layer, name, start, frame)

    def _wrap(self, layer: str, name: str, fn, observe):
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, name, start, frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters derived from arguments and results ---------------------------

    def _observer(self, layer: str, func: str, graph_type, report_type):
        if layer == "graphs":
            def observe(args, kwargs, result):
                if isinstance(result, graph_type):
                    self.graphs_built += 1
            return observe
        if func == "enumerate_cliques":
            def observe(args, kwargs, result):
                g = args[0]
                k_max = args[1] if len(args) > 1 else kwargs.get("k_max")
                self.clique_inputs.add((g.n, g.adj, k_max))
                self.cliques_listed += sum(len(group) for group in result.by_size)
            return observe
        if func == "clique_polynomial":
            def observe(args, kwargs, result):
                g = args[0]
                self.clique_inputs.add((g.n, g.adj, None))
            return observe
        if layer == "identities":
            def observe(args, kwargs, result):
                parts = result if isinstance(result, (tuple, list)) else (result,)
                self.reports += sum(isinstance(p, report_type) for p in parts)
            return observe
        if func in BUILDERS:
            def observe(args, kwargs, result):
                self.entries += len(result.entries)
            return observe
        return None

    def install(self) -> None:
        """Swap every public module-level function for its traced wrapper."""
        import cliquekit
        from cliquekit.graphs import Graph
        from cliquekit.identities import IdentityReport

        modules = {layer: importlib.import_module(f"cliquekit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for func, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not func.startswith(("_", "poly_")) and func not in HELPERS):
                    observe = self._observer(layer, func, Graph, IdentityReport)
                    wrappers[id(obj)] = self._wrap(layer, f"{layer}.{func}", obj, observe)
        for ns in (cliquekit, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
        checks = modules["conjectures"].CHECKS
        for name, cd in list(checks.items()):
            checks[name] = dataclasses.replace(
                cd, run=self._wrap("conjectures", "conjectures.check_run", cd.run, None)
            )

    def layer_metrics(self) -> dict[str, float]:
        calls, total = self.calls, self.func_total
        clique_calls = calls["cliques.enumerate_cliques"] + calls["cliques.clique_polynomial"]
        return {
            "graphs.self_s": self.layer_self["graphs"],
            "graphs.graphs_built": self.graphs_built,
            "graphs.to_graph6_calls": calls["graphs.to_graph6"],
            "graphs.codec_s": total["graphs.to_graph6"] + total["graphs.parse_graph6"],
            "cliques.self_s": self.layer_self["cliques"],
            "cliques.enumerate_calls": calls["cliques.enumerate_cliques"],
            "cliques.polynomial_calls": calls["cliques.clique_polynomial"],
            "cliques.cliques_listed": self.cliques_listed,
            "cliques.distinct_input_ratio":
                len(self.clique_inputs) / clique_calls if clique_calls else 0.0,
            "incidence.build_s": sum(self.func_self[f"incidence.{b}"] for b in BUILDERS),
            "incidence.render_s": total["incidence.render"],
            "incidence.query_s": total["incidence.query"],
            "incidence.entries": self.entries,
            "identities.self_s": self.layer_self["identities"],
            "identities.reports": self.reports,
            "conjectures.self_s": self.layer_self["conjectures"],
            "conjectures.check_runs": calls["conjectures.check_run"],
        }
