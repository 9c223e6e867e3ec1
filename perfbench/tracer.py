"""Outside-in tracer: wraps public functions of the quantimatch layers.

Wrappers are installed only for a traced pass and removed afterwards.
Each wrapped function gets a call count, inclusive time and self time
(inclusive time minus the wrapped calls made inside it), kept on a call
stack.  Bookkeeping that inspects arguments or results (graph shape,
footprint) runs with the tracer's clock stopped, so it lands in no span.

A function is replaced in every module namespace of the package that
binds it, because callers look functions up where they were imported:
`engine` binds `cost_value`, `absorbing_concat`, `zone_sort_key` and
`shortest_distance` by name, while `zone.clamp_time` and
`zone.intersect_guard` reach `constrain` through the module global.
"""

from __future__ import annotations

import importlib
import inspect
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

MODULES = ("__init__", "zone", "semiring", "signals", "automaton", "engine",
           "matchset", "oracle", "cli")

# (metric prefix, defining module, attribute path)
TARGETS = (
    ("zone.constrain", "zone", "constrain"),
    ("zone.up", "zone", "up"),
    ("zone.clamp_time", "zone", "clamp_time"),
    ("zone.intersect_guard", "zone", "intersect_guard"),
    ("zone.reset", "zone", "reset"),
    ("zone.scale", "zone", "scale"),
    ("zone.project_match", "zone", "project_match"),
    ("zone.contains", "zone", "contains"),
    ("matchset.query", "matchset", "MatchSet.query"),
    ("matchset.insert", "matchset", "MatchSet.insert"),
    ("matchset.export_grid", "matchset", "MatchSet.export_grid"),
    ("matchset.zone_sort_key", "matchset", "zone_sort_key"),
    ("matchset.format_piece", "matchset", "format_piece"),
    ("engine.shortest_distance", "engine", "shortest_distance"),
    ("engine.feed", "engine", "OnlineMatcher.feed"),
    ("signals.read_stream", "signals", "read_stream"),
    ("signals.parse_signal", "signals", "parse_signal"),
    ("signals.absorbing_concat", "signals", "absorbing_concat"),
    ("automaton.cost_value", "automaton", "cost_value"),
    ("automaton.parse_automaton", "automaton", "parse_automaton"),
    ("cli.main", "cli", "main"),
)


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    true: int = 0  # calls that returned a true value (contains, insert)


def _is_cyclic(nodes, edges, zero) -> bool:
    """Kahn's algorithm on the edges the engine keeps (nonzero weight)."""
    indeg = {v: 0 for v in nodes}
    out: dict = {}
    for u, v in {(u, v) for u, v, w in edges if w != zero}:
        out.setdefault(u, []).append(v)
        indeg[v] += 1
    queue = deque(v for v, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in out.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen != len(indeg)


class Tracer:
    """Per-function stats, graph and footprint counts, and feed spans."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in TARGETS}
        self.paused = 0.0
        self._stack: list = []  # per open span: time spent in wrapped children
        self.graph = {"nodes": 0, "edges": 0, "max_nodes": 0, "cyclic_calls": 0}
        self.footprint_peak = 0
        self.pieces_scanned = 0
        self.last_matcher = None
        self.pieces_final = 0  # match-set size at episode ends, summed
        self.spans: list = []  # (name, episode, start, end)
        self.episode = -1

    def clock(self) -> float:
        """perf_counter with the tracer's own bookkeeping taken out."""
        return perf_counter() - self.paused

    def _enter(self):
        self._stack.append([0.0])
        return self.clock()

    def _leave(self, st: Stat, t0: float, count: bool = True) -> float:
        t1 = self.clock()
        dt = t1 - t0
        child = self._stack.pop()[0]
        st.calls += count
        st.incl_s += dt
        st.self_s += dt - child
        if self._stack:
            self._stack[-1][0] += dt
        return t1

    def _wrap(self, name, fn):
        st = self.stats[name]
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(st, fn)

        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self._leave(st, t0)
            if result is True:
                st.true += 1
            if after is not None:
                p0 = perf_counter()
                after(args, result, t0, t1)
                self.paused += perf_counter() - p0
            return result

        return wrapper

    def _wrap_generator(self, st: Stat, fn):
        """One call per generator; its time is the sum of its steps."""
        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(st, t0, count=False)
                yield item

        return wrapper

    def episode_done(self, start: float, end: float) -> None:
        self.spans.append(("episode", self.episode, start, end))
        self.pieces_final += len(self.last_matcher.matchset)

    def _after_engine_shortest_distance(self, args, result, t0, t1):
        nodes, edges, _, semiring = args
        g = self.graph
        g["nodes"] += len(nodes)
        g["edges"] += len(edges)
        g["max_nodes"] = max(g["max_nodes"], len(nodes))
        if _is_cyclic(nodes, edges, semiring.zero):
            g["cyclic_calls"] += 1

    def _after_engine_feed(self, args, result, t0, t1):
        matcher = args[0]
        self.last_matcher = matcher
        self.footprint_peak = max(self.footprint_peak, matcher.footprint())
        self.spans.append(("engine.feed", self.episode, t0, t1))

    def _after_matchset_query(self, args, result, t0, t1):
        self.pieces_scanned += len(args[0])

    @contextmanager
    def installed(self):
        """Replace every binding of each target, restoring them on exit."""
        mods = {m: importlib.import_module("quantimatch" if m == "__init__"
                                           else "quantimatch." + m)
                for m in MODULES}
        undo = []
        try:
            for name, home, path in TARGETS:
                owner = mods[home]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                    fn = owner.__dict__[attr]
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn))
                    continue
                fn = getattr(owner, path)
                wrapped = self._wrap(name, fn)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)
