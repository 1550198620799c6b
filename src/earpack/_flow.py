"""Unit-capacity max flow: one residual network type and one augmenting-path
loop behind every minimum edge cut, the edge-disjoint path family of the
bipartite odd-ear packing, and the Menger-style vertex-disjoint path count.

Arcs come in pairs (a, a ^ 1): arc a has capacity 1, and its partner has
capacity ``back``, so back = 1 makes an undirected unit edge and back = 0 a
directed unit arc.  Augmenting paths are shortest paths found by BFS from
the whole source set; arcs are scanned in insertion order, so every result
is deterministic.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Edge, Graph


class CutNetwork:
    """Unit-capacity residual network on ``n`` vertices.

    Built once; every flow works on a copy of the base capacity list, so one
    network serves any number of terminal pairs.  ``ends[i]`` is the (u, v)
    of arc pair i, i.e. of arcs 2i (u -> v) and 2i + 1 (v -> u).
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, int]]):
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        tail: list[int] = []
        base: list[int] = []
        ends: list[Edge] = []
        for u, v, back in arcs:
            out[u].append((len(tail), v))
            out[v].append((len(tail) + 1, u))
            tail += (u, v)
            base += (1, back)
            ends.append((u, v))
        self.n = n
        self.out = tuple(tuple(a) for a in out)
        self.tail = tail
        self.base = base
        self.ends = ends

    @classmethod
    def of(cls, g: Graph) -> "CutNetwork":
        """The network of an undirected graph: arc pair i is edge i of
        ``g.edges()``."""
        return cls(g.n, ((u, v, 1) for u, v in g.edges()))

    def max_flow(
        self, cap: list[int], sources: list[int], sinks: list[int], cutoff: float | None = None
    ) -> tuple[int, list[int] | None]:
        """Augment on ``cap`` in place until no path is left or the flow
        reaches ``cutoff``.

        Returns (flow, the vertices reachable from the sources in the final
        residual network); the second field is None when the cutoff stopped
        the flow.  Sinks are never passed through.
        """
        n = self.n
        if not all(0 <= v < n for v in sources + sinks):
            raise ValueError("terminal vertex out of range")
        is_sink = bytearray(n)
        for y in sinks:
            is_sink[y] = 1
        if any(is_sink[x] for x in sources):
            raise ValueError("terminal sets must be disjoint")
        out, tail = self.out, self.tail
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
                return flow, queue
            a = via[hit]
            while a >= 0:
                cap[a] -= 1
                cap[a ^ 1] += 1
                a = via[tail[a]]
            flow += 1
        return flow, None

    def min_cut(
        self, sources, sinks, cutoff: float | None = None
    ) -> tuple[int, frozenset[Edge], frozenset[int]]:
        """Minimum number of arc pairs separating ``sources`` from ``sinks``.

        Returns (size, cut arc-pair ends, source-side vertex set).  The
        source side is everything reachable from the sources in the final
        residual network: the unique minimal source side of a minimum cut.
        With ``cutoff`` the flow stops once it reaches the cutoff; the
        returned size is then a lower bound and the cut fields are empty.
        """
        sources = list(sources)
        sinks = list(sinks)
        if not sources or not sinks:
            raise ValueError("terminal sets must be nonempty")
        flow, reached = self.max_flow(self.base.copy(), sources, sinks, cutoff)
        if reached is None:
            return flow, frozenset(), frozenset()
        side = frozenset(reached)
        cut = frozenset((u, v) for u, v in self.ends if (u in side) != (v in side))
        return flow, cut, side


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
    net = CutNetwork.of(g)
    cap = net.base.copy()
    net.max_flow(cap, sorted(sources), sorted(sinks))
    # net flow u -> v along edge i is 1 - cap[2i] (opposite unit flows cancel)
    out: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, (u, v) in enumerate(net.ends):
        d = 1 - cap[2 * i]
        if d > 0:
            out[u].append(v)
        elif d < 0:
            out[v].append(u)
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
    # split v into in = 2v and out = 2v + 1, joined by one directed unit arc
    arcs = [(2 * v, 2 * v + 1, 0) for v in range(g.n)]
    for u, v in g.edges():
        arcs += ((2 * u + 1, 2 * v, 0), (2 * v + 1, 2 * u, 0))
    net = CutNetwork(2 * g.n, arcs)
    flow, _ = net.max_flow(
        net.base.copy(), [2 * x for x in sorted(sources)], [2 * y + 1 for y in sorted(sinks)]
    )
    return flow
