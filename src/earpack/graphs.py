"""Immutable simple graphs and the elementary structure queries the rest of
the package builds on: distances, regularity, bipartitions, girth, chordless
cycles, induced subgraphs and boundary edge sets.

Graphs live on dense vertex labels 0..n-1.  Two interchange formats are
supported: graph6 (bit-exact, used for fixtures) and a plain edge list
(used for hand-written inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

Edge = tuple[int, int]

INF = math.inf


class GraphFormatError(ValueError):
    """Malformed serialized graph; ``offset`` is the offending byte index."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def edge_key(u: int, v: int) -> Edge:
    """Canonical (low, high) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Instances are immutable values; neighbor lists are kept sorted so that
    every traversal in the package is deterministic.
    """

    __slots__ = ("n", "adjacency", "_edge_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = edge_key(u, v)
            if e in seen:
                raise ValueError(f"parallel edge {e}")
            seen.add(e)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in seen:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._edge_set = frozenset(seen)

    @property
    def edge_count(self) -> int:
        return len(self._edge_set)

    def edges(self) -> tuple[Edge, ...]:
        """All edges in lexicographic order."""
        return tuple(sorted(self._edge_set))

    def edge_set(self) -> frozenset[Edge]:
        return self._edge_set

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edge_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edge_set))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def validate_edge_set(g: Graph, pairs: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    """Normalize ``pairs`` into a set of edges and check each one lies in ``g``."""
    out = set()
    for u, v in pairs:
        e = edge_key(u, v)
        if e not in g._edge_set:
            raise ValueError(f"({u}, {v}) is not an edge of the host graph")
        out.add(e)
    return frozenset(out)


@dataclass(frozen=True)
class CycleList:
    """Chordless cycles found by :func:`chordless_cycles`.

    ``truncated`` is set when enumeration stopped at a cap, in which case the
    list may be incomplete and callers must not treat absence as proof.
    """

    cycles: tuple[tuple[int, ...], ...]
    truncated: bool


# ---------------------------------------------------------------------------
# serialization


def parse_graph(text: bytes | str, fmt: str) -> Graph:
    """Parse ``text`` in the named format ('graph6' or 'edgelist')."""
    data = text.encode() if isinstance(text, str) else bytes(text)
    if fmt == "graph6":
        return _parse_graph6(data)
    if fmt == "edgelist":
        return _parse_edgelist(data)
    raise ValueError(f"unknown graph format {fmt!r}")


def serialize_graph(g: Graph, fmt: str) -> bytes:
    """Canonical bytes for ``g``: bit-exact graph6, or a sorted edge list."""
    if fmt == "graph6":
        return _write_graph6(g)
    if fmt == "edgelist":
        return _write_edgelist(g)
    raise ValueError(f"unknown graph format {fmt!r}")


_G6_HEADER = b">>graph6<<"


def _parse_graph6(data: bytes) -> Graph:
    pos = 0
    if data.startswith(_G6_HEADER):
        pos = len(_G6_HEADER)
    body = data[pos:]
    if body.endswith(b"\n"):
        body = body[:-1]
    if not body:
        raise GraphFormatError("empty graph6 input", pos)
    for i, b in enumerate(body):
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range", pos + i)
    # size header: one byte, or '~' + 3 bytes, or '~~' + 6 bytes
    if body[0] != 126:
        n = body[0] - 63
        head = 1
    elif len(body) >= 2 and body[1] != 126:
        if len(body) < 4:
            raise GraphFormatError("truncated graph6 size header", pos)
        n = ((body[1] - 63) << 12) | ((body[2] - 63) << 6) | (body[3] - 63)
        head = 4
    else:
        if len(body) < 8:
            raise GraphFormatError("truncated graph6 size header", pos)
        n = 0
        for b in body[2:8]:
            n = (n << 6) | (b - 63)
        head = 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) - head != nbytes:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {nbytes} bytes, got {len(body) - head}",
            pos + head,
        )
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[head + bit // 6]
            if (byte - 63) >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    # padding bits must be zero for a bit-exact round-trip
    while bit < 6 * nbytes:
        byte = body[head + bit // 6]
        if (byte - 63) >> (5 - bit % 6) & 1:
            raise GraphFormatError("nonzero graph6 padding bit", pos + head + bit // 6)
        bit += 1
    return Graph(n, edges)


def _write_graph6(g: Graph) -> bytes:
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    elif n <= 68719476735:
        head = bytes([126, 126]) + bytes(((n >> s) & 63) + 63 for s in range(30, -1, -6))
    else:
        raise ValueError("graph too large for graph6")
    groups = []
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            filled += 1
            if filled == 6:
                groups.append(acc + 63)
                acc = 0
                filled = 0
    if filled:
        groups.append((acc << (6 - filled)) + 63)
    return head + bytes(groups)


def _parse_edgelist(data: bytes) -> Graph:
    edges: list[Edge] = []
    declared_n: int | None = None
    offset = 0
    for raw in data.split(b"\n"):
        line = raw.strip()
        if line.startswith(b"#"):
            text = line[1:].strip()
            if text.startswith(b"n="):
                try:
                    declared_n = int(text[2:])
                except ValueError:
                    raise GraphFormatError("bad vertex count comment", offset) from None
        elif line:
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError("edge line needs two integers", offset)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer vertex label", offset) from None
            if u < 0 or v < 0:
                raise GraphFormatError("negative vertex label", offset)
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}", offset)
            e = edge_key(u, v)
            if e in edges:
                raise GraphFormatError(f"parallel edge {e}", offset)
            edges.append(e)
        offset += len(raw) + 1
    n = max((v for e in edges for v in e), default=-1) + 1
    if declared_n is not None:
        if declared_n < n:
            raise GraphFormatError("declared vertex count below largest label", 0)
        n = declared_n
    return Graph(n, edges)


def _write_edgelist(g: Graph) -> bytes:
    lines = []
    top = max((v for e in g.edges() for v in e), default=-1) + 1
    if top != g.n:
        lines.append(f"# n={g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines).encode()


# ---------------------------------------------------------------------------
# distances


def bfs_distances(g: Graph, sources: Iterable[int], within: frozenset[int] | None = None) -> list[float]:
    """Distance from the nearest source to every vertex (INF if unreachable).

    ``within`` restricts the search to an induced vertex subset.
    """
    dist: list[float] = [INF] * g.n
    queue: list[int] = []
    for s in sources:
        if within is not None and s not in within:
            raise ValueError(f"source {s} outside the allowed set")
        if dist[s] == INF:
            dist[s] = 0
            queue.append(s)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in g.adjacency[v]:
            if dist[w] == INF and (within is None or w in within):
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def vertex_distance(g: Graph, u: int, v: int) -> float:
    """Shortest-path length between two vertices; INF across components."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0
    return bfs_distances(g, [u])[v]


def edge_distance(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> float:
    """Minimum over endpoint pairs of the shortest-path length.

    Adjacent edges are at distance 0.  The distance of an edge to itself is
    undefined (matching edges are always distinct) and raises ValueError.
    """
    e = edge_key(*e)
    f = edge_key(*f)
    if e not in g._edge_set or f not in g._edge_set:
        raise ValueError("both arguments must be edges of the graph")
    if e == f:
        raise ValueError("edge distance is defined for distinct edges only")
    dist = bfs_distances(g, e)
    return min(dist[f[0]], dist[f[1]])


# ---------------------------------------------------------------------------
# structure queries


def is_regular(g: Graph) -> int | None:
    """The common degree if every vertex has it, else None."""
    if g.n == 0:
        return 0
    r = g.degree(0)
    return r if all(g.degree(v) == r for v in range(g.n)) else None


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-color the graph; None if it has an odd cycle.

    Within each component the side containing that component's
    lowest-indexed vertex goes into the first set.
    """
    color: list[int] = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    black = frozenset(v for v in range(g.n) if color[v] == 0)
    return black, frozenset(range(g.n)) - black


def girth(g: Graph) -> float:
    """Length of a shortest cycle; INF for forests."""
    best = INF
    for root in range(g.n):
        dist: list[float] = [INF] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if dist[v] * 2 >= best:
                continue
            for w in g.adjacency[v]:
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w and parent[w] != v:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def shortest_cycle(g: Graph) -> tuple[int, ...] | None:
    """An explicit shortest cycle as a vertex sequence, or None in a forest."""
    glen = girth(g)
    if glen == INF:
        return None
    found = chordless_cycles(g, max_len=int(glen), cap=1)
    return found.cycles[0] if found.cycles else None


def chordless_cycles(
    g: Graph,
    max_len: int | None = None,
    cap: int = 1_000_000,
    step_cap: int = 5_000_000,
) -> CycleList:
    """All chordless cycles of length <= max_len, one representative per
    rotation/reflection class.

    Enumeration grows paths whose minimum vertex comes first and whose new
    vertex may only be adjacent to the path tail (and to the start when
    closing), so every emitted cycle is chord-free by construction.  Vertex
    sets are integer bitmasks: a neighbour mask per vertex, and per path the
    mask of vertices that no extension may use.  Stops with ``truncated`` once ``cap`` cycles are found or after ``step_cap``
    path extensions (the search itself can dwarf the output on big hosts).
    """
    limit = g.n if max_len is None else max_len
    if limit < 3:
        return CycleList((), False)
    adjmask = [sum(1 << w for w in a) for a in g.adjacency]
    out: list[tuple[int, ...]] = []
    truncated = False
    steps = 0

    for s in range(g.n):
        if truncated:
            break
        # vertices <= s are never used after s
        low = (2 << s) - 1
        near_s = adjmask[s]
        for a in g.adjacency[s]:
            if truncated:
                break
            if a <= s:
                continue
            # DFS over paths s, a, ... using vertices > s only.  ``blocked``
            # masks the vertices no extension may use: those <= s, the path
            # and the neighbours of its interior (a chord to w)
            stack: list[tuple[tuple[int, ...], int]] = [((s, a), low | 1 << a)]
            while stack:
                path, blocked = stack.pop()
                last = path[-1]
                steps += 1
                if steps > step_cap:
                    truncated = True
                    break
                grow = len(path) + 1 < limit
                # after w, `last` is interior: its neighbours (w among them)
                # are blocked
                grown = blocked | adjmask[last]
                for w in g.adjacency[last]:
                    if blocked >> w & 1:
                        continue
                    if near_s >> w & 1:
                        if path[1] < w:
                            out.append(path + (w,))
                            if len(out) >= cap:
                                truncated = True
                                break
                        # extending past w would leave the chord (w, s)
                        continue
                    if grow:
                        stack.append((path + (w,), grown))
                if truncated:
                    break
    out.sort(key=lambda c: (len(c), c))
    return CycleList(tuple(out), truncated)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on ``vertices`` plus the new->old index map."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {old: new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph(len(keep), edges), tuple(keep)


def boundary_edges(g: Graph, vertices: Iterable[int]) -> frozenset[Edge]:
    """E(X, V - X): the edges joining ``vertices`` to the rest of the graph."""
    inside = set(vertices)
    for v in inside:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return frozenset(
        edge_key(u, v)
        for u in inside
        for v in g.adjacency[u]
        if v not in inside
    )


def connected_components(g: Graph, within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Components of the graph (or of the induced subgraph on ``within``),
    ordered by their smallest vertex."""
    allowed = frozenset(range(g.n)) if within is None else frozenset(within)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(allowed):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = {start}
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.adjacency[v]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def has_cycle_within(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the induced subgraph on ``vertices`` contains a cycle."""
    allowed = frozenset(vertices)
    for comp in connected_components(g, allowed):
        edges = sum(1 for u in comp for v in g.adjacency[u] if v in comp) // 2
        if edges >= len(comp):
            return True
    return False


def is_induced_tree(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff ``vertices`` induce a connected acyclic subgraph."""
    allowed = frozenset(vertices)
    if not allowed:
        return False
    comps = connected_components(g, allowed)
    if len(comps) != 1:
        return False
    edges = sum(1 for u in allowed for v in g.adjacency[u] if v in allowed) // 2
    return edges == len(allowed) - 1


def vertex_cycle(g: Graph, vertices: tuple[int, ...]) -> bool:
    """True iff the sequence is a cycle of g (closing edge included)."""
    k = len(vertices)
    if k < 3 or len(set(vertices)) != k:
        return False
    return all(g.has_edge(vertices[i], vertices[(i + 1) % k]) for i in range(k))


def cycle_edges(vertices: tuple[int, ...]) -> frozenset[Edge]:
    k = len(vertices)
    return frozenset(edge_key(vertices[i], vertices[(i + 1) % k]) for i in range(k))
