"""Maximum and perfect matchings, matching extension with certificates, and
the distance-restricted matching predicates.

The extension decision reduces to a perfect matching of H = G - V(M).  When
H has none, the barrier S is the Gallai-Edmonds set A(H) = N(D) - D, where D
is the set of vertices some maximum matching of H misses.  Under a maximum
matching, D is the set of vertices joined to an exposed vertex by an even
alternating path, and an exhausted Edmonds search from an exposed root labels
exactly those reached from it as even (Edmonds 1965; Lovasz and Plummer,
*Matching Theory*, section 3.2).  So D is read off one search per exposed
vertex, after the one maximum matching.  ``verify_barrier`` re-checks the
certificate independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .graphs import (
    Edge,
    Graph,
    bipartition,
    connected_components,
    edge_distance,
    edge_key,
    induced_subgraph,
    is_regular,
    validate_edge_set,
)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: tuple[Edge, ...]

    @classmethod
    def of(cls, g: Graph, pairs: Iterable[tuple[int, int]]) -> "Matching":
        edges = sorted(validate_edge_set(g, pairs))
        seen: set[int] = set()
        for u, v in edges:
            if u in seen or v in seen:
                raise ValueError(f"edges of a matching must be disjoint at ({u}, {v})")
            seen.update((u, v))
        return cls(tuple(edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class BarrierCertificate:
    """Witness that a matching does not extend: removing ``S`` (disjoint from
    the matched vertices) leaves at least |S|+2 odd components.

    ``components`` lists every component of T = G - V(M) - S;
    ``odd`` holds the indices of the odd ones.  ``m_star`` counts the
    non-matching edges inside V(M), ``mu`` the edges inside S plus those
    joining S to V(M); ``q1``/``q2`` split the odd components into bipartite
    and non-bipartite ones.
    """

    S: frozenset[int]
    components: tuple[frozenset[int], ...]
    odd: tuple[int, ...]
    m_star: int
    mu: int
    q1: int
    q2: int

    @property
    def s(self) -> int:
        return len(self.S)

    def to_json_dict(self) -> dict:
        return {
            "S": sorted(self.S),
            "components": [sorted(c) for c in self.components],
            "odd": list(self.odd),
            "m_star": self.m_star,
            "mu": self.mu,
            "q1": self.q1,
            "q2": self.q2,
        }


def barrier_from_json(data: dict) -> BarrierCertificate:
    return BarrierCertificate(
        S=frozenset(data["S"]),
        components=tuple(frozenset(c) for c in data["components"]),
        odd=tuple(data["odd"]),
        m_star=int(data["m_star"]),
        mu=int(data["mu"]),
        q1=int(data["q1"]),
        q2=int(data["q2"]),
    )


@dataclass(frozen=True)
class ExtensionResult:
    outcome: str  # "extended" | "blocked"
    perfect_matching: Matching | None = None
    barrier: BarrierCertificate | None = None

    @property
    def extended(self) -> bool:
        return self.outcome == "extended"


class Check(NamedTuple):
    """Boolean verdict with a reason for the failing case."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Edmonds' blossom algorithm (maximum cardinality)


def _greedy_init(adj: tuple[tuple[int, ...], ...], alive: list[bool], mate: list[int]) -> None:
    for v in range(len(adj)):
        if alive[v] and mate[v] < 0:
            for w in adj[v]:
                if alive[w] and mate[w] < 0:
                    mate[v] = w
                    mate[w] = v
                    break


def _augment_from(
    adj: tuple[tuple[int, ...], ...], alive: list[bool], mate: list[int], root: int
) -> list[int] | None:
    """Search for an augmenting path from ``root`` and apply it if found
    (None).  An exhausted search returns the vertices it labelled even: the
    root, the mates of odd vertices and the blossom members."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    queue = [root]
    in_queue[root] = True

    def lca(a: int, b: int) -> int:
        mark = [False] * n
        x = a
        while True:
            x = base[x]
            mark[x] = True
            if mate[x] < 0:
                break
            x = parent[mate[x]]
        y = b
        while True:
            y = base[y]
            if mark[y]:
                return y
            y = parent[mate[y]]

    def mark_blossom(v: int, anchor: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != anchor:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adj[v]:
            if not alive[w] or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # odd cycle: contract the blossom
                anchor = lca(v, w)
                in_blossom = [False] * n
                mark_blossom(v, anchor, w, in_blossom)
                mark_blossom(w, anchor, v, in_blossom)
                for u in range(n):
                    if in_blossom[base[u]]:
                        base[u] = anchor
                        if not in_queue[u]:
                            in_queue[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    # augment along the alternating path ending at w
                    while w >= 0:
                        pv = parent[w]
                        nxt = mate[pv]
                        mate[w] = pv
                        mate[pv] = w
                        w = nxt
                    return None
                if not in_queue[mate[w]]:
                    in_queue[mate[w]] = True
                    queue.append(mate[w])
    return queue


def _max_matching_mates(g: Graph, alive: list[bool] | None = None) -> list[int]:
    adj = g.adjacency
    if alive is None:
        alive = [True] * g.n
    mate = [-1] * g.n
    _greedy_init(adj, alive, mate)
    for v in range(g.n):
        if alive[v] and mate[v] < 0:
            _augment_from(adj, alive, mate, v)
    return mate


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching (Edmonds' blossom algorithm).

    Vertices are scanned in increasing order everywhere, so the result is
    deterministic for a given graph.
    """
    mate = _max_matching_mates(g)
    return Matching(tuple(sorted(edge_key(v, mate[v]) for v in range(g.n) if mate[v] > v)))


# ---------------------------------------------------------------------------
# extension and barriers


def extend_matching(g: Graph, matching: Matching) -> ExtensionResult:
    """Decide whether ``matching`` extends to a perfect matching of ``g``.

    Succeeds iff G - V(M) has a perfect matching; otherwise returns a
    barrier certificate with S the Gallai-Edmonds set A(G - V(M)), read off
    one exhausted search per exposed vertex (module docstring).
    """
    if g.n % 2 != 0:
        raise ValueError("matching extension requires a graph of even order")
    Matching.of(g, matching.edges)  # re-validate against this host
    covered = matching.covered
    alive = [v not in covered for v in range(g.n)]
    mate = _max_matching_mates(g, alive)
    missed = [v for v in range(g.n) if alive[v] and mate[v] < 0]
    if not missed:
        extra = [edge_key(v, mate[v]) for v in range(g.n) if alive[v] and mate[v] > v]
        full = Matching(tuple(sorted(matching.edges + tuple(extra))))
        return ExtensionResult("extended", perfect_matching=full)
    inessential = set()
    for v in missed:
        inessential.update(_augment_from(g.adjacency, alive, mate, v))
    cut = sorted(
        {
            w
            for v in inessential
            for w in g.adjacency[v]
            if alive[w] and w not in inessential
        }
    )
    cert = build_barrier(g, matching, cut)
    return ExtensionResult("blocked", barrier=cert)


def build_barrier(g: Graph, matching: Matching, S: Iterable[int]) -> BarrierCertificate:
    """Assemble the certificate bookkeeping for a given separator ``S``."""
    s_set = frozenset(S)
    covered = matching.covered
    if s_set & covered:
        raise ValueError("S must avoid the matched vertices")
    t_vertices = frozenset(range(g.n)) - covered - s_set
    comps = tuple(connected_components(g, t_vertices))
    odd = tuple(i for i, c in enumerate(comps) if len(c) % 2 == 1)
    q1 = q2 = 0
    for i in odd:
        sub, _ = induced_subgraph(g, comps[i])
        if bipartition(sub) is None:
            q2 += 1
        else:
            q1 += 1
    m_star, mu = _barrier_counts(g, matching, s_set)
    return BarrierCertificate(
        S=s_set,
        components=comps,
        odd=odd,
        m_star=m_star,
        mu=mu,
        q1=q1,
        q2=q2,
    )


def _barrier_counts(g: Graph, matching: Matching, s_set: frozenset[int]) -> tuple[int, int]:
    """(m_star, mu) for a separator S disjoint from V(M): the non-matching
    edges inside V(M), and the edges inside S plus those joining S to V(M).
    ``verify_barrier`` recounts both on its own."""
    covered = matching.covered
    inner_vm = sum(1 for u, v in g.edges() if u in covered and v in covered)
    mu = sum(
        1
        for u, v in g.edges()
        if (u in s_set and v in s_set)
        or (u in s_set and v in covered)
        or (v in s_set and u in covered)
    )
    return inner_vm - matching.m, mu


def verify_barrier(g: Graph, matching: Matching, cert: BarrierCertificate) -> Check:
    """Recompute every certificate field and check the Tutte violation."""
    covered = matching.covered
    if cert.S & covered:
        return Check(False, "S intersects V(M)")
    if any(not 0 <= v < g.n for v in cert.S):
        return Check(False, "S contains an out-of-range vertex")
    t_vertices = frozenset(range(g.n)) - covered - cert.S
    expected = set(connected_components(g, t_vertices))
    if set(cert.components) != expected or len(cert.components) != len(expected):
        return Check(False, "component list does not match G - V(M) - S")
    odd_expected = tuple(i for i, c in enumerate(cert.components) if len(c) % 2 == 1)
    if tuple(cert.odd) != odd_expected:
        return Check(False, "odd component indices are wrong")
    q1 = q2 = 0
    for i in odd_expected:
        sub, _ = induced_subgraph(g, cert.components[i])
        if bipartition(sub) is None:
            q2 += 1
        else:
            q1 += 1
    if (cert.q1, cert.q2) != (q1, q2):
        return Check(False, "q1/q2 counts are wrong")
    inner_vm = sum(1 for u, v in g.edges() if u in covered and v in covered)
    if cert.m_star != inner_vm - matching.m or cert.m_star < 0:
        return Check(False, "m_star does not recompute")
    mu = sum(
        1
        for u, v in g.edges()
        if (u in cert.S and v in cert.S)
        or (u in cert.S and v in covered)
        or (v in cert.S and u in covered)
    )
    if cert.mu != mu:
        return Check(False, "mu does not recompute")
    if len(cert.odd) < cert.s + 2:
        return Check(False, "fewer than |S|+2 odd components")
    return Check(True)


# ---------------------------------------------------------------------------
# matching predicates


def is_distance_d_matching(g: Graph, matching: Matching, d: int) -> bool:
    """True iff every pair of distinct matching edges is at distance >= d."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return d == 0 or matching_distance(g, matching) >= d


def matching_distance(g: Graph, matching: Matching) -> float:
    """The minimum pairwise edge distance (INF for fewer than two edges)."""
    edges = matching.edges
    best = float("inf")
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            best = min(best, edge_distance(g, edges[i], edges[j]))
    return best


def greedy_spaced_matching(
    g: Graph, edges: Iterable[Edge], d: int, limit: int | None = None
) -> list[Edge]:
    """Keep each of ``edges`` in turn whose ends lie at distance >= d from
    every end kept so far, up to ``limit`` edges: an edge is kept iff neither
    end is marked, and keeping it marks its radius-(d - 1) BFS ball."""
    if d < 1:
        raise ValueError("the separation d must be at least 1")
    marked: set[int] = set()
    chosen: list[Edge] = []
    for e in edges:
        if marked.isdisjoint(e):
            chosen.append(e)
            if len(chosen) == limit:
                break
            # a fresh ball: a vertex marked by another ball may lead to unmarked ones
            ball = frontier = set(e)
            for _ in range(d - 1):
                frontier = {w for v in frontier for w in g.adjacency[v]} - ball
                ball |= frontier
            marked |= ball
    return chosen


def heavy_neighbor_exists(g: Graph, matching: Matching, r: int) -> int | None:
    """Lowest vertex outside V(M) with at least r-1 neighbors in V(M)."""
    covered = matching.covered
    for v in range(g.n):
        if v in covered:
            continue
        if sum(1 for w in g.adjacency[v] if w in covered) >= r - 1:
            return v
    return None


class IdentitySides(NamedTuple):
    lhs: int
    rhs: int
    s: int
    m_star: int
    mu: int


def boundary_identity_sides(g: Graph, matching: Matching, S: Iterable[int]) -> IdentitySides:
    """Both sides of the boundary identity for T = G - V(M) - S.

    The left side counts |E(T, V-T)| directly; the right side is
    s*r + 2*(m*r - m - m_star - mu).  For a regular graph the two always
    agree; the pair makes the bookkeeping auditable.
    """
    r = is_regular(g)
    if r is None:
        raise ValueError("the identity requires a regular graph")
    covered = matching.covered
    s_set = frozenset(S)
    if s_set & covered:
        raise ValueError("S must avoid the matched vertices")
    if any(not 0 <= v < g.n for v in s_set):
        raise ValueError("S contains an out-of-range vertex")
    t_set = frozenset(range(g.n)) - covered - s_set
    lhs = sum(1 for u, v in g.edges() if (u in t_set) != (v in t_set))
    m_star, mu = _barrier_counts(g, matching, s_set)
    m = matching.m
    rhs = len(s_set) * r + 2 * (m * r - m - m_star - mu)
    return IdentitySides(lhs, rhs, len(s_set), m_star, mu)
