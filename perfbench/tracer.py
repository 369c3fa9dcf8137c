"""Spans around tricent's public functions, installed from outside the package.

``Tracer.install`` wraps every public function defined in ``tricent.graph``,
``tricent.measures``, ``tricent.experiments`` and ``tricent.cli``, plus the
``Graph`` methods that build graphs, and puts the wrapper at every binding
site: each tricent module imports its own names, and ``tricent.cli`` also
dispatches through a dict. ``restore`` puts every original back.

Most wrapped calls become spans (name, start, end, parent), kept in memory.
Per-node primitives run thousands of times per operation, so they are only
aggregated into a call count and a total time. Either way a call's duration
is charged to its caller as child time, which gives every function its self
time. Accessors such as ``Graph.neighbors`` are not wrapped: their cost stays
in the self time of whatever calls them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

GRAPH_METHODS = ("__init__", "remove_nodes", "induced_subgraph")
AGGREGATED = {
    "graph.triangle_neighbors",
    "graph.triangles_at",
    "graph.density",
    "graph.Graph.remove_nodes",
    "graph.Graph.induced_subgraph",
    "measures.sdeg",
}
SOLVERS = {"measures.eigenvector_centrality", "measures.pagerank"}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        # (op, name) -> [calls, total seconds, self seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.convergence_failures = 0
        self.op = ""
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        import tricent
        from tricent import cli, experiments, graph, measures
        from tricent.measures import ConvergenceError

        mods = {"graph": graph, "measures": measures, "experiments": experiments, "cli": cli}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn, ConvergenceError)
        for attr in GRAPH_METHODS:
            fn = vars(graph.Graph)[attr]
            self._patch(graph.Graph, attr, fn, self._wrap(f"graph.Graph.{attr}", fn, ConvergenceError))
        for mod in (tricent, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, value, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch_item(value, key, item, wrappers[item])

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, table: dict, key: object, original: object, wrapper: object) -> None:
        table[key] = wrapper
        self._undo.append(lambda: table.__setitem__(key, original))

    def _wrap(self, name: str, fn: Callable, convergence_error: type) -> Callable:
        stack, spans, stats = self._stack, self.spans, self.stats
        keep_span = name not in AGGREGATED
        solver = name in SOLVERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, None, 0.0]
            if keep_span:
                # aggregated frames carry no id, so skip them to find the parent span
                parent_id = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except convergence_error:
                if solver:
                    self.convergence_failures += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat = stats[(self.op, name)]
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                if keep_span:
                    spans[frame[1]] = {
                        "id": frame[1],
                        "op": self.op,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent_id,
                    }

        return traced

    def total(self, *names: str, field: int = 2, op: str = "") -> float:
        """Sum of one stat field (0 calls, 1 total, 2 self) over ``names``, for one op or all."""
        return sum(
            s[field] for (o, n), s in self.stats.items() if n in names and (not op or o == op)
        )

    def layer_self(self, layer: str, op: str = "") -> float:
        return sum(
            s[2]
            for (o, n), s in self.stats.items()
            if n.startswith(layer + ".") and (not op or o == op)
        )

