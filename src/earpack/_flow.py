"""Max-flow networks: a reusable unit-capacity cut network that answers every
minimum edge cut between vertex sets, and Dinic's algorithm behind the
Menger-style disjoint path count and flow-path extraction."""

from __future__ import annotations

from .graphs import Edge, Graph, edge_key


class Dinic:
    """Max flow on a directed network with integer capacities.

    Arc insertion order is fixed by the caller, and the algorithm scans arcs
    in that order, so results are deterministic.
    """

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_arc(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v with the given capacity; returns its index."""
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int, cutoff: float | None = None) -> int:
        """Total flow from s to t; stops early once ``cutoff`` is reached."""
        flow = 0
        while cutoff is None or flow < cutoff:
            level = self._levels(s, t)
            if level[t] < 0:
                break
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                flow += pushed
                if cutoff is not None and flow >= cutoff:
                    break
        return flow

    def _levels(self, s: int, t: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for idx in self.head[v]:
                w = self.to[idx]
                if self.cap[idx] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push one blocking-flow path from s to t (iterative DFS over the
        level graph, advancing ``it`` past dead arcs); returns the amount."""
        path: list[int] = []  # arcs from s to v
        v = s
        while v != t:
            arcs = self.head[v]
            while it[v] < len(arcs):
                idx = arcs[it[v]]
                if self.cap[idx] > 0 and level[self.to[idx]] == level[v] + 1:
                    break
                it[v] += 1
            else:
                if not path:
                    return 0
                v = self.to[path.pop() ^ 1]  # retreat; that arc is dead
                it[v] += 1
                continue
            path.append(idx)
            v = self.to[idx]
        pushed = min(self.cap[idx] for idx in path)
        for idx in path:
            self.cap[idx] -= pushed
            self.cap[idx ^ 1] += pushed
        return pushed


class CutNetwork:
    """Unit-capacity residual network of one undirected graph, for min cuts.

    Built once per graph; every cut works on a copy of the base capacity
    list, so one network serves any number of terminal pairs.  Edge {u, v}
    is the arc pair (a, a ^ 1), each of capacity 1.
    """

    def __init__(self, g: Graph):
        self.n = g.n
        self.edges = g.edges()
        out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        tail: list[int] = []
        for u, v in self.edges:
            out[u].append((len(tail), v))
            tail.append(u)
            out[v].append((len(tail), u))
            tail.append(v)
        self.out = tuple(tuple(arcs) for arcs in out)
        self.tail = tail
        self.base = [1] * len(tail)

    def min_cut(
        self, sources, sinks, cutoff: float | None = None
    ) -> tuple[int, frozenset[Edge], frozenset[int]]:
        """Minimum number of edges separating ``sources`` from ``sinks``.

        Returns (size, cut edge set, source-side vertex set).  The source
        side is everything reachable from the sources in the final residual
        network: the unique minimal source side of a minimum cut.  With
        ``cutoff`` the flow stops once it reaches the cutoff; the returned
        size is then a lower bound and the cut fields are empty.
        """
        n = self.n
        sources = list(sources)
        sinks = list(sinks)
        if not sources or not sinks:
            raise ValueError("terminal sets must be nonempty")
        if not all(0 <= v < n for v in sources + sinks):
            raise ValueError("terminal vertex out of range")
        is_sink = bytearray(n)
        for y in sinks:
            is_sink[y] = 1
        if any(is_sink[x] for x in sources):
            raise ValueError("terminal sets must be disjoint")
        out, tail = self.out, self.tail
        cap = self.base.copy()
        flow = 0
        while cutoff is None or flow < cutoff:
            # BFS from the whole source set for a shortest augmenting path
            via = [-2] * n  # arc that reached v; -1 at a source; -2 unseen
            queue = []
            for x in sources:
                if via[x] == -2:
                    via[x] = -1
                    queue.append(x)
            hit = -1
            for v in queue:
                for a, w in out[v]:
                    if cap[a] and via[w] == -2:
                        via[w] = a
                        if is_sink[w]:
                            hit = w
                            break
                        queue.append(w)
                if hit >= 0:
                    break
            if hit < 0:
                side = frozenset(queue)
                cut = frozenset(
                    (u, v) for u, v in self.edges if (u in side) != (v in side)
                )
                return flow, cut, side
            a = via[hit]
            while a >= 0:
                cap[a] -= 1
                cap[a ^ 1] += 1
                a = via[tail[a]]
            flow += 1
        return flow, frozenset(), frozenset()


def edge_disjoint_paths(
    g: Graph,
    sources: frozenset[int] | set[int],
    sinks: frozenset[int] | set[int],
) -> list[tuple[int, ...]]:
    """A maximum family of edge-disjoint paths from ``sources`` to ``sinks``.

    Paths are simple (flow cycles are erased during extraction) and pairwise
    edge-disjoint; endpoints may repeat across paths.
    """
    if not sources or not sinks:
        return []
    if set(sources) & set(sinks):
        raise ValueError("terminal sets must be disjoint")
    net = Dinic(g.n + 2)
    s, t = g.n, g.n + 1
    big = g.edge_count + 1
    edge_arcs: list[tuple[int, int, int]] = []
    for u, v in g.edges():
        edge_arcs.append((net.add_arc(u, v, 1), u, v))
        edge_arcs.append((net.add_arc(v, u, 1), v, u))
    for x in sorted(sources):
        net.add_arc(s, x, big)
    for y in sorted(sinks):
        net.add_arc(y, t, big)
    net.max_flow(s, t)
    # net usage per undirected edge (opposite unit flows cancel)
    used: dict[Edge, int] = {}
    for idx, u, v in edge_arcs:
        if net.cap[idx] == 0:  # saturated u->v
            e = edge_key(u, v)
            direction = 1 if (u, v) == e else -1
            used[e] = used.get(e, 0) + direction
    out: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for e, d in sorted(used.items()):
        if d > 0:
            out[e[0]].append(e[1])
        elif d < 0:
            out[e[1]].append(e[0])
    for v in out:
        out[v].sort(reverse=True)  # pop() takes the lowest
    sink_set = set(sinks)
    paths: list[tuple[int, ...]] = []
    for start in sorted(sources):
        while out[start]:
            walk = [start]
            position = {start: 0}
            while walk[-1] not in sink_set or len(walk) == 1:
                here = walk[-1]
                if not out[here]:
                    break
                nxt = out[here].pop()
                if nxt in position:
                    # erase a flow rotation
                    del walk[position[nxt] + 1:]
                    for w in list(position):
                        if position[w] > position[nxt]:
                            del position[w]
                    continue
                walk.append(nxt)
                position[nxt] = len(walk) - 1
            if len(walk) > 1 and walk[-1] in sink_set:
                paths.append(tuple(walk))
            else:
                break
    return paths


def max_vertex_disjoint_paths(
    g: Graph,
    sources: frozenset[int] | set[int],
    sinks: frozenset[int] | set[int],
) -> int:
    """Maximum number of fully vertex-disjoint paths from sources to sinks."""
    if not sources or not sinks:
        return 0
    if set(sources) & set(sinks):
        raise ValueError("terminal sets must be disjoint")
    # split v into in=2v, out=2v+1 with unit capacity through each vertex
    net = Dinic(2 * g.n + 2)
    s, t = 2 * g.n, 2 * g.n + 1
    for v in range(g.n):
        net.add_arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges():
        net.add_arc(2 * u + 1, 2 * v, 1)
        net.add_arc(2 * v + 1, 2 * u, 1)
    for x in sorted(sources):
        net.add_arc(s, 2 * x, 1)
    for y in sorted(sinks):
        net.add_arc(2 * y + 1, t, 1)
    return net.max_flow(s, t)
