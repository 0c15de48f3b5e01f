"""Small integer-capacity max-flow (Dinic) used by the densest-subgraph
checker.

Capacities are Python ints, so callers can scale rational guesses to
integers and stay exact.  Supports extraction of the source side of a
minimum cut.
"""

from __future__ import annotations

from collections import deque


class MaxFlow:
    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Directed arc u->v; returns the arc id (residual is id^1)."""
        arc = len(self.to)
        self.adj[u].append(arc)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        return arc

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        cap, to, adj = self.cap, self.to, self.adj
        while q:
            u = q.popleft()
            for arc in adj[u]:
                v = to[arc]
                if cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        """Total flow pushed from s to t."""
        flow = 0
        cap, to, adj = self.cap, self.to, self.adj
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            it = [0] * self.n
            stack = [s]
            path: list[int] = []
            while stack:
                u = stack[-1]
                if u == t:
                    aug = min(cap[arc] for arc in path)
                    for arc in path:
                        cap[arc] -= aug
                        cap[arc ^ 1] += aug
                    flow += aug
                    # retreat to the first saturated arc on the path
                    cut = next(i for i, arc in enumerate(path) if cap[arc] == 0)
                    del stack[cut + 1 :]
                    del path[cut:]
                    continue
                advanced = False
                while it[u] < len(adj[u]):
                    arc = adj[u][it[u]]
                    v = to[arc]
                    if cap[arc] > 0 and level[v] == level[u] + 1:
                        stack.append(v)
                        path.append(arc)
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    level[u] = -1
                    stack.pop()
                    if path:
                        path.pop()
        return flow

    def source_side(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual network; after a
        completed max_flow this is the source side of a minimum cut."""
        seen = {s}
        q = deque([s])
        cap, to, adj = self.cap, self.to, self.adj
        while q:
            u = q.popleft()
            for arc in adj[u]:
                v = to[arc]
                if cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
