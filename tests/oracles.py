"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from the definitions, without
reusing the library's search strategies: matchings by exhaustive recursion
(and the Gallai-Edmonds barrier by deleting one vertex at a time),
cyclic cuts by scanning edge subsets in increasing size (with an exhaustive
vertex-bipartition scan deciding existence, since subset scanning alone
cannot terminate on an infinite answer), ear packings by enumerating all
ears and recursing over the ear list, and spaced matchings from a table of
all pairwise distances.
"""

from __future__ import annotations

from itertools import combinations

from earpack.graphs import INF, Graph


def brute_max_matching(g: Graph) -> int:
    edges = g.edges()
    best = 0

    def rec(idx: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + (len(edges) - idx) // 1 <= best:
            return
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                rec(i + 1, used | {u, v}, size + 1)

    rec(0, frozenset(), 0)
    return best


def gallai_edmonds_barrier(g: Graph) -> frozenset[int]:
    """A(G) = N(D) - D, where D holds the vertices some maximum matching
    misses: v is in D iff deleting v leaves the maximum matching size as is."""
    size = brute_max_matching(g)
    d = {
        v
        for v in range(g.n)
        if brute_max_matching(Graph(g.n, [e for e in g.edges() if v not in e])) == size
    }
    return frozenset(w for v in d for w in g.adjacency[v]) - d


def _component_data(n: int, edge_list: list[tuple[int, int]]) -> list[tuple[list[int], int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    edge_count = {root: 0 for root in comps}
    for u, v in edge_list:
        edge_count[find(u)] += 1
    return [(members, edge_count[root]) for root, members in comps.items()]


def _is_bipartite_subset(g: Graph, members: list[int], allowed: set[tuple[int, int]]) -> bool:
    color = {}
    for start in members:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.adjacency[v]:
                e = (v, w) if v < w else (w, v)
                if e not in allowed:
                    continue
                if w not in color:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def _cut_is_valid(g: Graph, removed: set[tuple[int, int]], odd: bool) -> bool:
    remaining = [e for e in g.edges() if e not in removed]
    comps = _component_data(g.n, remaining)
    cyclic = [(members, edges) for members, edges in comps if edges >= len(members)]
    if len(cyclic) < 2:
        return False
    if not odd:
        return True
    allowed = set(remaining)
    return any(
        not _is_bipartite_subset(g, members, allowed) for members, _ in cyclic
    )


def _partition_scan(g: Graph, odd: bool) -> float:
    """Exact minimum over all vertex bipartitions with the side conditions.

    Any valid cut induces such a bipartition (one cycle component against
    the rest), and any such bipartition's crossing edges form a valid cut,
    so this equals the minimum cut size; INF means none exists at all.
    """
    n = g.n
    masks = [0] * n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    edges = g.edges()
    best = INF

    def side_info(side: int) -> tuple[bool, bool]:
        # (contains a cycle, contains an odd cycle) for the induced side
        seen = 0
        has_cycle = False
        non_bip = False
        for s in range(n):
            bit = 1 << s
            if not side & bit or seen & bit:
                continue
            color = {s: 0}
            stack = [s]
            members = 0
            inner_edges = 0
            while stack:
                v = stack.pop()
                members |= 1 << v
                nbrs = masks[v] & side
                while nbrs:
                    low = nbrs & -nbrs
                    w = low.bit_length() - 1
                    nbrs ^= low
                    inner_edges += 1
                    if w not in color:
                        color[w] = color[v] ^ 1
                        stack.append(w)
                    elif color[w] == color[v]:
                        non_bip = True
            seen |= members
            if inner_edges // 2 >= bin(members).count("1"):
                has_cycle = True
        return has_cycle, non_bip

    for pick in range(1 << (n - 1)):  # vertex n-1 stays on side B
        side_a = pick
        side_b = full & ~side_a
        if not side_a:
            continue
        cut = sum(1 for u, v in edges if (side_a >> u & 1) != (side_a >> v & 1))
        if cut >= best:
            continue
        cyc_a, odd_a = side_info(side_a)
        if not cyc_a:
            continue
        cyc_b, odd_b = side_info(side_b)
        if not cyc_b:
            continue
        if odd and not (odd_a or odd_b):
            continue
        best = cut
    return best


def lambda_oracle(g: Graph, odd: bool) -> float:
    """Cyclic (or odd-cyclic) edge connectivity from the definitions.

    A full vertex-bipartition scan decides whether any valid cut exists and
    bounds the answer; edge subsets are then searched in increasing size,
    which must rediscover the same value.
    """
    bound = _partition_scan(g, odd)
    if bound == INF:
        return INF
    edges = g.edges()
    for k in range(int(bound) + 1):
        for subset in combinations(edges, k):
            if _cut_is_valid(g, set(subset), odd):
                return k
    raise AssertionError("partition scan and subset scan disagree")


def all_odd_ears_reference(g: Graph, U: frozenset[int]) -> list[frozenset]:
    """Edge sets of every odd ear of U (paths and one-anchor cycles)."""
    out: set[frozenset] = set()

    def edges_of(path: list[int], close: bool) -> frozenset:
        pairs = [
            (path[i], path[i + 1]) if path[i] < path[i + 1] else (path[i + 1], path[i])
            for i in range(len(path) - 1)
        ]
        if close:
            a, b = path[-1], path[0]
            pairs.append((a, b) if a < b else (b, a))
        return frozenset(pairs)

    def dfs(path: list[int], visited: set[int]) -> None:
        last = path[-1]
        for w in g.adjacency[last]:
            if w == path[0] and len(path) >= 3:
                if len(path) % 2 == 1:  # cycle with len(path) edges
                    out.add(edges_of(path, close=True))
            elif w in U:
                if w != path[0] and len(path) % 2 == 1:  # path with len(path) edges
                    out.add(edges_of(path + [w], close=False))
            elif w not in visited:
                visited.add(w)
                path.append(w)
                dfs(path, visited)
                path.pop()
                visited.remove(w)

    for u in sorted(U):
        dfs([u], {u})
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_max_odd_ear_packing(g: Graph, U: frozenset[int]) -> int:
    ears = all_odd_ears_reference(g, U)
    best = 0

    def rec(idx: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + (len(ears) - idx) <= best:
            return
        for i in range(idx, len(ears)):
            if not ears[i] & used:
                rec(i + 1, used | ears[i], size + 1)

    rec(0, frozenset(), 0)
    return best


def spaced_matching_reference(
    g: Graph, edges: list[tuple[int, int]], d: int, limit: int | None = None
) -> list[tuple[int, int]]:
    """The greedy spaced matching from an all-pairs distance table: keep
    each edge, in order, whose ends are at distance >= d from every end kept
    so far; stop once ``limit`` edges are kept."""
    dist = []
    for source in range(g.n):
        row = [INF] * g.n
        row[source] = 0
        queue = [source]
        for v in queue:
            for w in g.adjacency[v]:
                if row[w] == INF:
                    row[w] = row[v] + 1
                    queue.append(w)
        dist.append(row)
    chosen: list[tuple[int, int]] = []
    taken: list[int] = []
    for u, v in edges:
        if any(dist[u][w] < d or dist[v][w] < d for w in taken):
            continue
        chosen.append((u, v))
        taken += [u, v]
        if len(chosen) == limit:
            break
    return chosen


def encode_graph6_reference(g: Graph) -> bytes:
    """graph6 encoding straight from the format description (n <= 62)."""
    assert g.n <= 62
    bits = "".join(
        "1" if g.has_edge(i, j) else "0" for j in range(1, g.n) for i in range(j)
    )
    while len(bits) % 6:
        bits += "0"
    body = bytes(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))
    return bytes([g.n + 63]) + body
