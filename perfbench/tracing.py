"""Per-layer tracing of a sweep, installed from outside the program.

Tracer.installed() wraps the public entry points the sweep path goes
through, for the duration of a with-block, and restores them after:

- every GENERATORS entry                       -> span "generators"
- augment_uniform / augment_bernoulli, as
  sprinkle.harness.sweep resolves them         -> span "augment"
- non_edges, as sprinkle.augment resolves it   -> span "core.non_edges"
- Graph.with_edges                             -> span "core.with_edges"
- every PROPERTIES entry                       -> span "checkers.<module>"

The checkers' own names, as sprinkle.harness.sweep resolves them, are
wrapped to keep each verdict (with the graph it was computed on) so the
witnesses can be re-validated after the sweep, outside every span.

Spans (name, start, end, parent, sweep) stay in memory until written.
A span's self time is its duration minus its children's durations, so
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from sprinkle import augment as augment_mod
from sprinkle.core import Graph
from sprinkle.harness import sweep as sweep_mod

# property name -> checker module that decides it
CHECKER_LAYER = {
    "contains_kr": "checkers.cliques",
    "diameter_le": "checkers.diameter",
    "diameter_ge": "checkers.diameter",
    "k_connected": "checkers.connectivity",
    "connected": "checkers.connectivity",
}

# is_k_connected reasons that mean a shortcut decided the verdict rather
# than the max-flow pair schedule
SHORTCUT_REASONS = frozenset({"disconnected", "low-degree vertex", "degree bound"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    sweep: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # (checker, graph, argument, verdict) since the last take_verdicts()
        self.verdicts: list[tuple] = []
        self.sweep = 0
        self._stack: list[int] = []

    def span(self, name: str, fn):
        """fn wrapped so that each call records one span."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.sweep)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def _counted_augment(self, fn):
        def counted(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except ValueError:  # m exceeds the pool: an infeasible trial
                self.counts["augment.infeasible"] += 1
                raise
            self.counts["augment.edges_added"] += len(res.added)
            return res
        return counted

    def _recorded(self, checker: str, fn):
        def recorded(g, arg):
            verdict = fn(g, arg)
            self.verdicts.append((checker, g, arg, verdict))
            return verdict
        return recorded

    def take_verdicts(self) -> list[tuple]:
        out, self.verdicts = self.verdicts, []
        return out

    @contextmanager
    def installed(self):
        saved_generators = dict(sweep_mod.GENERATORS)
        saved_properties = dict(sweep_mod.PROPERTIES)
        patches = [
            (sweep_mod, "augment_uniform",
             self.span("augment", self._counted_augment(sweep_mod.augment_uniform))),
            (sweep_mod, "augment_bernoulli",
             self.span("augment", self._counted_augment(sweep_mod.augment_bernoulli))),
            (augment_mod, "non_edges", self.span("core.non_edges", augment_mod.non_edges)),
            (Graph, "with_edges", self.span("core.with_edges", Graph.with_edges)),
        ] + [
            (sweep_mod, checker, self._recorded(checker, getattr(sweep_mod, checker)))
            for checker in ("contains_kr", "diameter_at_most", "is_k_connected")
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, replacement in patches:
                setattr(obj, attr, replacement)
            for name, fn in saved_generators.items():
                sweep_mod.GENERATORS[name] = self.span("generators", fn)
            for name, layer in CHECKER_LAYER.items():
                fn, direction = saved_properties[name]
                sweep_mod.PROPERTIES[name] = (self.span(layer, fn), direction)
            yield self
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)
            sweep_mod.GENERATORS.update(saved_generators)
            sweep_mod.PROPERTIES.update(saved_properties)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, tuple[int, float]] = {}
        for s, c in zip(self.spans, child):
            calls, total = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, total + (s.end - s.start) - c)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


# ---------------------------------------------------------------------------
# witness re-validation, independent of the checkers
# ---------------------------------------------------------------------------

def _bfs_dist(g, source: int, removed=frozenset()) -> dict[int, int]:
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.neighbors(u):
            if v not in dist and v not in removed:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def witness_error(checker: str, g, arg: int, verdict) -> Optional[str]:
    """Why the verdict's witness does not certify it, or None if it does
    (or the verdict carries no witness)."""
    w = verdict.witness
    if w is None:
        return None
    if checker == "contains_kr":
        if not verdict.holds:
            return f"K_{arg} witness on a negative verdict"
        if len(set(w)) != arg or any(
            not g.has_edge(u, v) for i, u in enumerate(w) for v in w[i + 1:]
        ):
            return f"K_{arg} witness {w} is not a clique of size {arg}"
        return None
    if checker == "diameter_at_most":
        u, v = w
        if verdict.holds or _bfs_dist(g, u).get(v, arg + 1) <= arg:
            return f"pair {w} is not at distance > {arg}"
        return None
    if checker == "is_k_connected":
        sep = frozenset(w)
        rest = [v for v in range(g.n) if v not in sep]
        if verdict.holds or len(sep) >= arg or len(rest) < 2:
            return f"separator {sorted(sep)} is not a cut of size < {arg}"
        if len(_bfs_dist(g, rest[0], sep)) == len(rest):
            return f"removing {sorted(sep)} leaves the graph connected"
        return None
    raise ValueError(f"unknown checker {checker!r}")
