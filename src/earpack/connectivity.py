"""Exact cyclic and odd-cyclic edge connectivity with cut certificates.

A minimum cyclic edge cut always separates two vertex-disjoint chordless
cycles (a shortest cycle inside either side has no chord), so the exact
value is the minimum, over vertex-disjoint chordless cycle pairs, of the
minimum edge cut between the two contracted cycles.  For the odd variant
the first cycle of the pair ranges over odd chordless cycles only, and a
bipartite graph, having no odd cycle, is infinite without a search.

The search enumerates the chordless cycles once (a bitmask DFS in
``graphs.chordless_cycles``) and keeps each as a vertex tuple plus an
integer vertex mask, so a pair's disjointness is one ``&``.  Every pair cut
runs on one unit-capacity ``CutNetwork`` built for the graph and reused
(``min_cut_between`` caches the last graph's network); the cut starts from
the whole first cycle, stops at the best value so far, and returns the
minimal source side, so certificates are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from ._flow import CutNetwork
from .budget import DEFAULT_BUDGET, SearchBudget
from .graphs import (
    INF,
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
    none was found).
    """

    def __init__(self, message: str, upper_bound: float):
        super().__init__(f"{message}; best upper bound found: {upper_bound}")
        self.upper_bound = upper_bound


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
    """The cut network of the graph the pair search is working on."""
    return CutNetwork.of(g)


def cyclic_edge_connectivity(g: Graph, budget: SearchBudget = DEFAULT_BUDGET) -> ConnectivityValue:
    """Exact cyclic edge connectivity with a minimum-cut certificate."""
    return _lambda_search(g, budget, odd=False)


def odd_cyclic_edge_connectivity(g: Graph, budget: SearchBudget = DEFAULT_BUDGET) -> ConnectivityValue:
    """Exact odd-cyclic edge connectivity (one side must hold an odd cycle).

    A bipartite graph has no odd cycle, hence no odd-cyclic cut: infinite,
    with no search.
    """
    if bipartition(g) is not None:
        return ConnectivityValue(INF)
    return _lambda_search(g, budget, odd=True)


def _lambda_search(g: Graph, budget: SearchBudget, odd: bool) -> ConnectivityValue:
    found = chordless_cycles(
        g, max_len=budget.max_cycle_len, cap=budget.max_cycles, step_cap=budget.max_cycle_steps
    )
    cycles = found.cycles
    if found.truncated:
        # exactness is already lost; refine the upper bound on a short prefix
        cycles = cycles[:300]
    bits = [1 << v for v in range(g.n)]
    masks = [sum(map(bits.__getitem__, c)) for c in cycles]
    is_odd = [len(c) % 2 == 1 for c in cycles]

    best: float = INF
    best_cert: CutCertificate | None = None

    # seed with single-cycle boundaries: E(V(C), rest) is itself a valid cut
    # whenever the complement still contains a cycle.  A chordless cycle
    # spans exactly len(C) edges, so its boundary has sum(deg) - 2 len(C)
    degree = [len(a) for a in g.adjacency]
    for i, cyc in enumerate(cycles):
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
        if capped:
            break

    kind = "odd-cyclic" if odd else "cyclic"
    if found.truncated:
        raise InexactSearchError(f"{kind} cut search: chordless-cycle cap exceeded", best)
    if capped:
        raise InexactSearchError(f"{kind} cut search: cycle-pair cap exceeded", best)
    if best == INF:
        return ConnectivityValue(INF)
    return ConnectivityValue(best, best_cert)


def _any_cycle_within(g: Graph, vertices: frozenset[int]) -> tuple[int, ...]:
    """Some cycle inside the induced subgraph (caller guarantees one exists)."""
    sub, back = induced_subgraph(g, vertices)
    cyc = shortest_cycle(sub)
    if cyc is None:
        raise ValueError("no cycle inside the given vertex set")
    return tuple(back[v] for v in cyc)


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

