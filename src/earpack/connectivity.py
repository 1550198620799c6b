"""Exact cyclic and odd-cyclic edge connectivity with cut certificates.

An edge cut is cyclic when both sides hold a cycle; lambda_c is the size of
a smallest one (infinite when the graph has no two vertex-disjoint cycles).
Two exact searches compute it, and ``cyclic_edge_connectivity`` runs the one
that needs fewer min cuts.

Restricted cuts (G connected, minimum degree d >= 3):

- A minimum cyclic cut (A, B) can be taken with both sides connected:
  replace A by a component of A that holds a cycle, then B = V - A by a
  component of B that holds a cycle.  Each step keeps a subset of the cut,
  and the second leaves A connected, since every other component of V - A
  hangs on A.
- U is the smallest boundary |E(C, V - C)| over the shortest cycles C
  through each vertex whose complement holds a cycle.  Each is a certified
  cyclic cut, so lambda_c <= U.
- A forest side A has e(A) <= |A| - 1, hence
  |E(A, V - A)| >= d|A| - 2e(A) >= (d - 2)|A| + 2.  With
  s = max(1, ceil((U - 2) / (d - 2))), every cut below U whose sides both
  have at least s vertices is cyclic.
- Let lambda_c < U and take a minimum cyclic cut (A, B) with connected
  sides.  If a side has fewer than s vertices, it is a connected set of
  fewer than s vertices that holds a cycle; those are enumerated directly.
  There are none when s <= girth, e.g. when U = (d - 2) * girth.
- Otherwise let 0 lie in A, order the vertices by BFS from 0, and let t be
  the first vertex of B.  Every vertex before t lies in A, and this prefix P
  is connected.  B is connected and holds t, so it contains a connected
  s-set T that holds t and otherwise only vertices after t.  The sources are
  P when |P| >= s; otherwise A, which is connected and contains P, contains
  a connected s-set S that contains P and avoids t.  The min cut between the
  sources and T is at most |E(A, B)|.  Both of its sides have at least s
  vertices, so a value below U is a cyclic cut, and it equals lambda_c.
- So lambda_c = min(U, the small sides, the min cut of each candidate
  pair).  The candidate pairs are every (sources, T) above for every t,
  with S and T disjoint.  The fix-a-seed idea is that of restricted edge
  connectivity (Esfahanian and Hakimi, IPL 1988).

Cycle pairs (any graph; also the oracle for the restricted search): a
shortest cycle inside either side of a minimum cyclic cut has no chord, so
lambda_c is the minimum, over vertex-disjoint chordless cycle pairs, of the
min cut between the two cycles.  The chordless cycles are enumerated once
(``graphs.chordless_cycles``) and kept as vertex tuples plus integer vertex
masks, so a pair's disjointness is one ``&``.

Dispatch: count the restricted search's candidate pairs F first, enumerate
chordless cycles only up to F, and run the pair search only when that
enumeration is complete and the pair search needs fewer than F min cuts.
The pair search alone runs when d < 3, when the graph is disconnected, and
when no shortest cycle through a vertex has a cyclic complement.  The
pair search charges every cycle pair to ``max_cut_pairs``, and the
restricted search every min cut and every small side; a capped search
raises ``InexactSearchError`` with its best certified cut, which for the
restricted search is at most U.

Every min cut runs on one unit-capacity ``CutNetwork`` built for the graph
and reused (``min_cut_between`` caches the last graph's network); it stops at
the best value so far and returns the minimal source side, so certificates
are deterministic.

Odd-cyclic: a bipartite graph has no odd cycle and is infinite without a
search.  Otherwise lambda_oc >= lambda_c, and when a side of the lambda_c
cut is non-bipartite, lambda_oc = lambda_c with an odd cycle of that side as
``cycle_a``.  Only when both sides are bipartite does the odd cycle-pair
search run (its first cycle odd), and it stops at the first odd-sided cut of
size lambda_c.  A capped lambda_c search hands its best cut to the same
side check, so a capped lambda_oc never reports an upper bound above an
odd-sided cut already found.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from ._flow import CutNetwork
from .budget import DEFAULT_BUDGET, SearchBudget
from .graphs import (
    INF,
    CycleList,
    Edge,
    Graph,
    bipartition,
    boundary_edges,
    chordless_cycles,
    cycle_edges,
    has_cycle_within,
    induced_subgraph,
    shortest_cycle,
    vertex_cycle,
)
from .matching import Check


class InexactSearchError(RuntimeError):
    """A capped search could not certify an exact value.

    ``upper_bound`` is the best cut size found before the cap hit (INF when
    none was found), and ``certificate`` that cut (None when none was found).
    """

    def __init__(self, message: str, upper_bound: float, certificate: CutCertificate | None = None):
        super().__init__(f"{message}; best upper bound found: {upper_bound}")
        self.upper_bound = upper_bound
        self.certificate = certificate


@dataclass(frozen=True)
class CutCertificate:
    """An edge cut together with the two-side partition and cycle witnesses.

    ``F`` equals E(side_a, side_b); each side contains its witness cycle, so
    removing F leaves at least two components with a cycle.  ``odd_flag``
    records that ``cycle_a`` has odd length.
    """

    F: frozenset[Edge]
    side_a: frozenset[int]
    side_b: frozenset[int]
    cycle_a: tuple[int, ...]
    cycle_b: tuple[int, ...]
    odd_flag: bool

    def to_json_dict(self, value: float | None = None) -> dict:
        out = {
            "F": [list(e) for e in sorted(self.F)],
            "side_a": sorted(self.side_a),
            "cycle_a": list(self.cycle_a),
            "cycle_b": list(self.cycle_b),
            "odd": self.odd_flag,
        }
        if value is not None:
            out["value"] = "inf" if value == INF else int(value)
        return out


@dataclass(frozen=True)
class ConnectivityValue:
    value: float  # int or INF
    certificate: CutCertificate | None = None

    @property
    def finite(self) -> bool:
        return self.value != INF

    def to_json_dict(self) -> dict:
        if self.certificate is None:
            return {"value": "inf" if self.value == INF else int(self.value)}
        return self.certificate.to_json_dict(value=self.value)


def min_cut_between(
    g: Graph, X, Y, cutoff: float | None = None
) -> tuple[int, frozenset[Edge], frozenset[int]]:
    """Minimum edge cut separating vertex sets X and Y (Menger).

    Returns (size, cut edges, source-side vertices); size 0 with an empty
    cut when the sets lie in different components.  The source side is the
    unique minimal one.  With ``cutoff`` the flow stops once it reaches the
    cutoff, and a size at the cutoff comes with empty cut fields.
    """
    return _cut_network(g).min_cut(X, Y, cutoff=cutoff)


@lru_cache(maxsize=1)
def _cut_network(g: Graph) -> CutNetwork:
    """The cut network of the graph the searches are working on."""
    return CutNetwork.of(g)


def cyclic_edge_connectivity(g: Graph, budget: SearchBudget = DEFAULT_BUDGET) -> ConnectivityValue:
    """Exact cyclic edge connectivity with a minimum-cut certificate."""
    return _lambda_c(g, budget)


def odd_cyclic_edge_connectivity(g: Graph, budget: SearchBudget = DEFAULT_BUDGET) -> ConnectivityValue:
    """Exact odd-cyclic edge connectivity (one side must hold an odd cycle).

    A bipartite graph has no odd cycle, hence no odd-cyclic cut: infinite,
    with no search.  Otherwise the lambda_c cut answers whenever one of its
    sides is non-bipartite.  When the lambda_c search is capped, its best
    cut still bounds lambda_oc from above if a side of it is non-bipartite.
    """
    if bipartition(g) is not None:
        return ConnectivityValue(INF)
    odd = _connectivity_outcomes(g, budget)[1]
    if isinstance(odd, InexactSearchError):
        raise odd
    return odd


_Outcome = ConnectivityValue | InexactSearchError


def _connectivity_outcomes(g: Graph, budget: SearchBudget) -> tuple[_Outcome, _Outcome]:
    """(lambda_c, lambda_oc) from one lambda_c search: each is the value,
    or the error of the search that hit a cap."""
    lam = _outcome(_lambda_c, g, budget)
    return lam, _outcome(_odd_given, g, budget, lam)


def _outcome(search, *args) -> _Outcome:
    try:
        return search(*args)
    except InexactSearchError as exc:
        return exc


def _odd_given(g: Graph, budget: SearchBudget, lam: _Outcome) -> ConnectivityValue:
    """lambda_oc from the lambda_c outcome ``lam`` (module docstring)."""
    if bipartition(g) is not None:
        return ConnectivityValue(INF)
    if isinstance(lam, InexactSearchError):
        held = _odd_sided(g, lam.certificate)
        try:
            return _lambda_search(g, budget, odd=True)
        except InexactSearchError as exc:
            if held is None or exc.upper_bound <= lam.upper_bound:
                raise
            raise InexactSearchError(
                "odd-cyclic cut search: cap exceeded", lam.upper_bound, held
            ) from exc
    if lam.certificate is None:  # no two disjoint cycles
        return lam
    held = _odd_sided(g, lam.certificate)
    if held is not None:
        return ConnectivityValue(lam.value, held)
    return _lambda_search(g, budget, odd=True, floor=lam.value)


def _odd_sided(g: Graph, cert: CutCertificate | None) -> CutCertificate | None:
    """``cert`` with an odd cycle of a non-bipartite side as ``cycle_a``, or
    None when there is no such side."""
    if cert is None:
        return None
    for side, other, other_cycle in (
        (cert.side_a, cert.side_b, cert.cycle_b),
        (cert.side_b, cert.side_a, cert.cycle_a),
    ):
        odd_cycle = _odd_cycle_within(g, side)
        if odd_cycle is not None:
            return CutCertificate(cert.F, side, other, odd_cycle, other_cycle, True)
    return None


def _lambda_c(g: Graph, budget: SearchBudget) -> ConnectivityValue:
    """The dispatch of the module docstring."""
    engine = _RestrictedCuts.of(g)
    if engine is None:
        return _lambda_search(g, budget, odd=False)
    pairs = engine.count_pairs(limit=budget.max_cut_pairs + 1)
    found = chordless_cycles(g, cap=min(pairs, budget.max_cycles), step_cap=budget.max_cycle_steps)
    c = len(found.cycles)
    # the pair search charges every pair, overlapping ones too, to the cap
    if not found.truncated and c * (c - 1) // 2 <= budget.max_cut_pairs:
        masks = _cycle_masks(g, found.cycles)
        cuts = 0
        for i, mask in enumerate(masks):
            cuts += sum(1 for other in masks[i + 1:] if not mask & other)
            if cuts >= pairs:
                break
        if cuts < pairs:
            return _lambda_search(g, budget, odd=False, found=found)
    return engine.search(budget)


def _cycle_masks(g: Graph, cycles) -> list[int]:
    bits = [1 << v for v in range(g.n)]
    return [sum(map(bits.__getitem__, c)) for c in cycles]


def _lambda_search(
    g: Graph,
    budget: SearchBudget,
    odd: bool,
    found: CycleList | None = None,
    floor: float = 0,
) -> ConnectivityValue:
    """The cycle-pair search over ``found`` (enumerated here when None).

    ``floor`` is a proven lower bound: a cut of that size ends the search
    as exact, even on a truncated enumeration.
    """
    if found is None:
        found = chordless_cycles(g, cap=budget.max_cycles, step_cap=budget.max_cycle_steps)
    cycles = found.cycles
    masks = _cycle_masks(g, cycles)
    is_odd = [len(c) % 2 == 1 for c in cycles]

    best: float = INF
    best_cert: CutCertificate | None = None

    # seed with single-cycle boundaries: E(V(C), rest) is itself a valid cut
    # whenever the complement still contains a cycle.  A chordless cycle
    # spans exactly len(C) edges, so its boundary has sum(deg) - 2 len(C)
    degree = [len(a) for a in g.adjacency]
    for i, cyc in enumerate(cycles):
        if best <= floor:
            break
        if odd and not is_odd[i]:
            continue
        if sum(map(degree.__getitem__, cyc)) - 2 * len(cyc) >= best:
            continue
        inside = frozenset(cyc)
        rest = frozenset(range(g.n)) - inside
        if not has_cycle_within(g, rest):
            continue
        bd = boundary_edges(g, inside)
        best = len(bd)
        best_cert = CutCertificate(
            F=bd,
            side_a=inside,
            side_b=rest,
            cycle_a=cyc,
            cycle_b=_any_cycle_within(g, rest),
            odd_flag=is_odd[i],
        )

    # pairs (i, j): i ranges over the odd cycles for lambda_oc; every pair is
    # counted against the cap, overlapping ones too
    even = [j for j in range(len(cycles)) if not is_odd[j]]
    pair_count = 0
    capped = False
    for i in range(len(cycles)):
        if best <= floor:
            break
        if odd and not is_odd[i]:
            continue
        if odd:
            # both odd: the pair was already tried as (j, i)
            partners = even[: bisect_left(even, i)] + list(range(i + 1, len(cycles)))
        else:
            partners = range(i + 1, len(cycles))
        room = budget.max_cut_pairs - pair_count
        if len(partners) > room:
            partners = partners[:room]
            capped = True
        pair_count += len(partners)
        mask_i = masks[i]
        for j in partners:
            if mask_i & masks[j]:
                continue
            value, cut, side = min_cut_between(g, cycles[i], cycles[j], cutoff=best)
            if value < best:
                best = value
                best_cert = CutCertificate(
                    F=cut,
                    side_a=side,
                    side_b=frozenset(range(g.n)) - side,
                    cycle_a=cycles[i],
                    cycle_b=cycles[j],
                    odd_flag=is_odd[i],
                )
                if best <= floor:
                    break
        if capped:
            break

    kind = "odd-cyclic" if odd else "cyclic"
    if best > floor:
        if found.truncated:
            raise InexactSearchError(f"{kind} cut search: chordless-cycle cap exceeded", best, best_cert)
        if capped:
            raise InexactSearchError(f"{kind} cut search: cycle-pair cap exceeded", best, best_cert)
    if best == INF:
        return ConnectivityValue(INF)
    return ConnectivityValue(best, best_cert)


class _RestrictedCuts:
    """The restricted-cut search of the module docstring on one graph.

    Vertex sets are integer bitmasks.  ``bound`` is U with its certificate,
    ``order`` the BFS order from vertex 0, and ``s`` the side size from
    which on every cut below U is cyclic.
    """

    def __init__(self, g: Graph, bound: int, cert: CutCertificate, girth: int, s: int, order: list[int]):
        self.g = g
        self.adjmask = [sum(1 << w for w in a) for a in g.adjacency]
        self.bound = bound
        self.cert = cert
        self.girth = girth
        self.s = s
        self.order = order

    @classmethod
    def of(cls, g: Graph) -> "_RestrictedCuts | None":
        """None where the argument does not apply: minimum degree below 3, a
        disconnected graph, or no shortest cycle through a vertex whose
        complement holds a cycle."""
        degree = [len(a) for a in g.adjacency]
        if g.n == 0 or min(degree) < 3:
            return None
        order = [0]
        seen = {0}
        for v in order:
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        if len(order) < g.n:
            return None
        shortest = {}
        for v in range(g.n):
            cyc = _shortest_cycle_through(g, v)
            if cyc is not None:
                shortest.setdefault(frozenset(cyc), cyc)
        # a shortest cycle through a vertex is chordless: it spans len(C) edges
        ranked = sorted(
            (sum(map(degree.__getitem__, c)) - 2 * len(c), c) for c in shortest.values()
        )
        for bound, cyc in ranked:
            inside = frozenset(cyc)
            if has_cycle_within(g, frozenset(range(g.n)) - inside):
                cert = _certified_cut(g, boundary_edges(g, inside), inside)
                girth = min(len(c) for c in shortest.values())
                s = max(1, -(-(bound - 2) // (min(degree) - 2)))
                return cls(g, bound, cert, girth, s, order)
        return None

    def pairs(self):
        """(sources, T) masks of every candidate pair, in BFS order of t."""
        adjmask, order, s = self.adjmask, self.order, self.s
        prefix = 1 << order[0]
        later = ((1 << self.g.n) - 1) ^ prefix
        for i in range(1, len(order)):
            t = 1 << order[i]
            later ^= t
            tees = list(_connected_sets(adjmask, t, later, s, s))
            if tees:
                if i >= s:
                    for tee in tees:
                        yield prefix, tee
                else:
                    for source in _connected_sets(adjmask, prefix, later, s, s):
                        for tee in tees:
                            if not source & tee:
                                yield source, tee
            prefix |= t

    def count_pairs(self, limit: int) -> int:
        """The number of candidate pairs, counted up to ``limit``."""
        return sum(1 for _ in islice(self.pairs(), limit))

    def small_sides(self):
        """Connected sets of girth..s-1 vertices, each once (from its lowest
        vertex); none when s <= girth."""
        if self.girth >= self.s:
            return
        everything = (1 << self.g.n) - 1
        for root in range(self.g.n):
            above = everything ^ ((2 << root) - 1)
            yield from _connected_sets(self.adjmask, 1 << root, above, self.girth, self.s - 1)

    def search(self, budget: SearchBudget) -> ConnectivityValue:
        g, adjmask = self.g, self.adjmask
        best, cert = self.bound, self.cert
        degree = [len(a) for a in g.adjacency]
        for count, x in enumerate(self.small_sides()):
            if count == budget.max_cut_pairs:
                raise InexactSearchError("cyclic cut search: small-side cap exceeded", best, cert)
            members = _members(x)
            bd = sum((adjmask[v] & ~x).bit_count() for v in members)
            spanned = (sum(map(degree.__getitem__, members)) - bd) // 2
            if bd < best and spanned >= len(members):
                inside = frozenset(members)
                if has_cycle_within(g, frozenset(range(g.n)) - inside):
                    best = bd
                    cert = _certified_cut(g, boundary_edges(g, inside), inside)
        for count, (source, tee) in enumerate(self.pairs()):
            if count == budget.max_cut_pairs:
                raise InexactSearchError("cyclic cut search: restricted-cut cap exceeded", best, cert)
            value, cut, side = min_cut_between(g, _members(source), _members(tee), cutoff=best)
            if value < best:
                best = value
                cert = _certified_cut(g, cut, side)
        return ConnectivityValue(best, cert)


def _certified_cut(g: Graph, cut: frozenset[Edge], side: frozenset[int]) -> CutCertificate:
    """The cut E(side, rest) with a cycle witness on each side (the caller
    guarantees both)."""
    rest = frozenset(range(g.n)) - side
    cycle_a = _any_cycle_within(g, side)
    return CutCertificate(
        F=cut,
        side_a=side,
        side_b=rest,
        cycle_a=cycle_a,
        cycle_b=_any_cycle_within(g, rest),
        odd_flag=len(cycle_a) % 2 == 1,
    )


def _connected_sets(adjmask: list[int], base: int, allowed: int, smallest: int, largest: int):
    """Every connected vertex set X with base <= X <= base | allowed and
    smallest <= |X| <= largest, once each (``base`` must be connected).

    Branches on the lowest vertex next to X that is not yet excluded:
    either it joins X or it is excluded for good.
    """
    size = base.bit_count()
    if size > largest:
        return
    if size >= smallest:
        yield base
    near = 0
    for v in _members(base):
        near |= adjmask[v]
    stack = [(base, near, 0, size)]
    while stack:
        x, near, excluded, size = stack.pop()
        if size == largest:
            continue
        frontier = near & allowed & ~(x | excluded)
        if not frontier:
            continue
        low = frontier & -frontier
        stack.append((x, near, excluded | low, size))
        grown = x | low
        if size + 1 >= smallest:
            yield grown
        stack.append((grown, near | adjmask[low.bit_length() - 1], excluded, size + 1))


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _shortest_cycle_through(g: Graph, v: int) -> tuple[int, ...] | None:
    """A shortest cycle through ``v`` starting at ``v``, or None.

    BFS from v labels each vertex with the neighbour of v it descends from;
    a non-tree edge between two labels closes a cycle through v.
    """
    n = g.n
    depth = [-1] * n
    parent = [-1] * n
    branch = [-1] * n
    depth[v] = 0
    queue = [v]
    best_len = INF
    best = None
    for x in queue:
        if 2 * depth[x] + 1 >= best_len:
            break
        for y in g.adjacency[x]:
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                parent[y] = x
                branch[y] = y if x == v else branch[x]
                queue.append(y)
            elif y != parent[x] and branch[y] != branch[x] and depth[x] + depth[y] + 1 < best_len:
                best_len = depth[x] + depth[y] + 1
                best = (x, y)
    if best is None:
        return None
    x, y = best
    down = []
    while x != v:
        down.append(x)
        x = parent[x]
    up = []
    while y != v:
        up.append(y)
        y = parent[y]
    return (v,) + tuple(reversed(down)) + tuple(up)


def _any_cycle_within(g: Graph, vertices: frozenset[int]) -> tuple[int, ...]:
    """Some cycle inside the induced subgraph (caller guarantees one exists)."""
    sub, back = induced_subgraph(g, vertices)
    cyc = shortest_cycle(sub)
    if cyc is None:
        raise ValueError("no cycle inside the given vertex set")
    return tuple(back[v] for v in cyc)


def _odd_cycle_within(g: Graph, vertices: frozenset[int]) -> tuple[int, ...] | None:
    """An odd cycle inside the induced subgraph, or None when it is bipartite.

    BFS within ``vertices``: an edge between two vertices of equal depth
    closes an odd cycle through their lowest common BFS ancestor.
    """
    depth: dict[int, int] = {}
    parent: dict[int, int] = {}
    for root in sorted(vertices):
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for w in g.adjacency[v]:
                if w not in vertices:
                    continue
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif depth[w] == depth[v]:
                    left, right = [v], [w]
                    while left[-1] != right[-1]:
                        left.append(parent[left[-1]])
                        right.append(parent[right[-1]])
                    return tuple(left) + tuple(reversed(right[:-1]))
    return None


def verify_cut(g: Graph, cert: CutCertificate, require_odd: bool) -> Check:
    """Check every certificate invariant; Check(False, reason) on mismatch."""
    if cert.side_a & cert.side_b:
        return Check(False, "sides overlap")
    if cert.side_a | cert.side_b != frozenset(range(g.n)):
        return Check(False, "sides do not partition the vertex set")
    expected = frozenset(
        e for e in g.edges() if (e[0] in cert.side_a) != (e[1] in cert.side_a)
    )
    if cert.F != expected:
        return Check(False, "F is not E(side_a, side_b)")
    if not vertex_cycle(g, cert.cycle_a):
        return Check(False, "cycle_a is not a cycle of the graph")
    if not vertex_cycle(g, cert.cycle_b):
        return Check(False, "cycle_b is not a cycle of the graph")
    if not set(cert.cycle_a) <= cert.side_a:
        return Check(False, "cycle_a leaves side_a")
    if not set(cert.cycle_b) <= cert.side_b:
        return Check(False, "cycle_b leaves side_b")
    if cycle_edges(cert.cycle_a) & cert.F or cycle_edges(cert.cycle_b) & cert.F:
        return Check(False, "a witness cycle crosses the cut")
    if cert.odd_flag != (len(cert.cycle_a) % 2 == 1):
        return Check(False, "odd flag disagrees with cycle_a parity")
    if require_odd and not cert.odd_flag:
        return Check(False, "odd witness required but cycle_a is even")
    return Check(True)

