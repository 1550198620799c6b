"""Named graph fixtures and deficient bipartite base graphs.

The extremal builders consume an r-regular bipartite "base" from which a
matching has been removed, leaving a prescribed number of degree-(r-1)
vertices on each side.  Bases come either from removing a spaced matching
along a shortest cycle of a high-girth source (the faithful route, girth
permitting) or from stripping a greedily separated matching out of any
regular bipartite source (the desk-scale route; the separation achieved is
measured and recorded, not assumed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .budget import SearchBudget
from .connectivity import InexactSearchError, cyclic_edge_connectivity
from .graphs import (
    INF,
    Graph,
    bfs_distances,
    bipartition,
    chordless_cycles,
    edge_key,
    girth,
    is_regular,
)
from .matching import Matching, greedy_spaced_matching, is_distance_d_matching


# ---------------------------------------------------------------------------
# fixtures


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def heawood_graph() -> Graph:
    """Point-line incidence graph of the Fano plane (girth-6 cubic cage)."""
    lines = [frozenset(((i) % 7, (i + 1) % 7, (i + 3) % 7)) for i in range(7)]
    edges = [(p, 7 + i) for i, line in enumerate(lines) for p in line]
    return Graph(14, edges)


def tutte_coxeter_graph() -> Graph:
    """The Levi graph of GQ(2,2) (girth-8 cubic cage), from its LCF code."""
    lcf = [-13, -9, 7, -7, 9, 13]
    edges = [(i, (i + 1) % 30) for i in range(30)]
    for i in range(30):
        j = (i + lcf[i % 6]) % 30
        edges.append(edge_key(i, j))
    return Graph(30, sorted(set(edges)))


_DIFFERENCE_SETS = {
    2: (7, (0, 1, 3)),
    3: (13, (0, 1, 3, 9)),
    4: (21, (0, 1, 6, 8, 18)),
}


def projective_plane_incidence(order: int) -> Graph:
    """Incidence graph of PG(2, order): (order+1)-regular bipartite, girth 6."""
    if order not in _DIFFERENCE_SETS:
        raise ValueError(f"no difference set on file for order {order}")
    mod, base = _DIFFERENCE_SETS[order]
    edges = [
        (p, mod + i)
        for i in range(mod)
        for p in ((i + b) % mod for b in base)
    ]
    return Graph(2 * mod, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def prism_graph(n: int = 3) -> Graph:
    """Circular ladder: two n-cycles joined by a perfect matching."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def random_bipartite_regular(side: int, r: int, seed: int, tries: int = 400) -> Graph:
    """Union of r random perfect matchings between two sides of equal size.

    Each matching is resampled on its own, up to ``tries`` times, until it
    avoids the previous ones, so dense cases stay feasible.  When one cannot
    be placed (the remainder may admit very few matchings), the whole
    sample starts over from the current random state.
    """
    if r > side:
        raise ValueError("degree cannot exceed the side size")
    if tries < 1:
        raise ValueError("tries must be positive")
    rng = random.Random(seed)
    while True:
        edges: set[tuple[int, int]] = set()
        for _ in range(r):
            for attempt in range(tries):
                perm = list(range(side))
                rng.shuffle(perm)
                batch = [(i, side + p) for i, p in enumerate(perm)]
                if all(e not in edges for e in batch):
                    edges.update(batch)
                    break
            else:
                break
        else:
            return Graph(2 * side, edges)


# ---------------------------------------------------------------------------
# base catalog


_CATALOG = {
    3: (heawood_graph, tutte_coxeter_graph),
    4: (lambda: projective_plane_incidence(3),),
    5: (lambda: projective_plane_incidence(4),),
}


def base_catalog(r: int, min_girth: int, seed: int = 0, swap_budget: int = 20_000) -> Graph | None:
    """An r-regular bipartite graph of girth >= min_girth, if available.

    Looks in the fixture catalog first, then tries randomized edge swaps
    that never decrease the girth.  Returns None when the budget runs out.
    """
    if r < 3:
        raise ValueError("r must be at least 3")
    for make in _CATALOG.get(r, ()):
        g = make()
        if girth(g) >= min_girth:
            return g
    return _girth_by_edge_swaps(r, min_girth, seed, swap_budget)


def _girth_by_edge_swaps(r: int, min_girth: int, seed: int, swap_budget: int) -> Graph | None:
    rng = random.Random(seed)
    side = max(2 * r, min_girth * r)
    g = random_bipartite_regular(side, r, seed=rng.randrange(1 << 30))
    edges = set(g.edges())
    current = girth(g)
    for _ in range(swap_budget):
        if current >= min_girth:
            return Graph(g.n, edges)
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        # keep sides: swap partners within the bipartition
        if (a < side) != (c < side):
            c, d = d, c
        if len({a, b, c, d}) != 4:
            continue
        e1, e2 = edge_key(a, d), edge_key(c, b)
        if e1 in edges or e2 in edges:
            continue
        trial = edges - {edge_key(a, b), edge_key(c, d)} | {e1, e2}
        trial_girth = girth(Graph(g.n, trial))
        if trial_girth >= current:
            edges = trial
            current = trial_girth
    return None


# ---------------------------------------------------------------------------
# deficient bases


@dataclass(frozen=True)
class DeficientBipartiteBase:
    """An r-regular bipartite graph minus a matching: the removed edges leave
    paired degree-(r-1) vertices, listed in matching order on both sides.

    ``measured`` records what the base actually achieves (girth, minimum
    pairwise distance of the deficient set, cyclic edge connectivity when
    the budgeted search finished).
    """

    graph: Graph
    side_b_deficient: tuple[int, ...]
    side_w_deficient: tuple[int, ...]
    r: int
    measured: dict

    @property
    def ell(self) -> int:
        return len(self.side_b_deficient)

    def deficient(self) -> tuple[int, ...]:
        return tuple(sorted(self.side_b_deficient + self.side_w_deficient))


def _audit_deficient(g: Graph, removed: list[tuple[int, int]], r: int) -> None:
    deficient = {v for e in removed for v in e}
    for v in range(g.n):
        want = r - 1 if v in deficient else r
        if g.degree(v) != want:
            raise AssertionError(f"degree audit failed at vertex {v}")


def _deficient_base(
    source: Graph, removed: list[tuple[int, int]], r: int, lambda_budget: SearchBudget | None
) -> DeficientBipartiteBase:
    """``source`` minus the matching ``removed``, deficient sides in its order."""
    strip = Matching.of(source, removed)
    black, _ = bipartition(source)
    stripped = Graph(source.n, [e for e in source.edges() if e not in strip.edges])
    _audit_deficient(stripped, removed, r)
    return DeficientBipartiteBase(
        graph=stripped,
        side_b_deficient=tuple(u if u in black else v for u, v in removed),
        side_w_deficient=tuple(v if u in black else u for u, v in removed),
        r=r,
        measured=_measure(stripped, removed, lambda_budget),
    )


def _measure(
    g: Graph, removed: list[tuple[int, int]], lambda_budget: SearchBudget | None
) -> dict:
    deficient = sorted({v for e in removed for v in e})
    sep: float = INF
    for i, v in enumerate(deficient):
        dist = bfs_distances(g, [v])
        for w in deficient[i + 1 :]:
            sep = min(sep, dist[w])
    measured: dict = {"girth": girth(g), "separation": sep}
    if lambda_budget is not None:
        try:
            measured["lambda_c"] = cyclic_edge_connectivity(g, lambda_budget).value
        except InexactSearchError as exc:
            measured["lambda_c"] = None
            measured["lambda_c_upper"] = exc.upper_bound
    return measured


def gamma_base(
    base: Graph,
    ell: int,
    d: int,
    lambda_budget: SearchBudget | None = None,
) -> DeficientBipartiteBase:
    """Remove a distance-(d+1) matching of size ``ell`` spaced along a
    shortest cycle of an r-regular bipartite graph.

    Requires girth(base) >= ell*(d+2); the removed edges sit d+1 apart along
    the cycle, which on a shortest cycle is also their graph distance.
    """
    r = is_regular(base)
    if r is None:
        raise ValueError("base must be regular")
    if bipartition(base) is None:
        raise ValueError("base must be bipartite")
    if ell < 1 or d < 0:
        raise ValueError("need ell >= 1 and d >= 0")
    g = girth(base)
    if g < ell * (d + 2):
        raise ValueError(f"girth {g} is below ell*(d+2) = {ell * (d + 2)}")
    cycle = chordless_cycles(base, max_len=int(g), cap=1).cycles[0]
    length = len(cycle)
    removed = [
        (cycle[i * (d + 2)], cycle[(i * (d + 2) + 1) % length]) for i in range(ell)
    ]
    if ell > 1 and not is_distance_d_matching(base, Matching.of(base, removed), d + 1):
        raise AssertionError("spaced matching misses its own distance bound")
    return _deficient_base(base, removed, r, lambda_budget)


def strip_matching_base(
    source: Graph,
    ell: int,
    min_separation: int = 2,
    seed: int = 0,
    tries: int = 400,
    lambda_budget: SearchBudget | None = None,
) -> DeficientBipartiteBase:
    """Remove an ``ell``-matching whose endpoints are pairwise at least
    ``min_separation`` apart (partners of the same removed edge exempt).

    Greedy over seeded shuffles of the edge list; raises when no sufficiently
    spread matching is found.  The faithful high-girth route is
    :func:`gamma_base`; this one trades guarantees for buildability and
    reports what it got in ``measured``.
    """
    r = is_regular(source)
    if r is None:
        raise ValueError("source must be regular")
    if bipartition(source) is None:
        raise ValueError("source must be bipartite")
    rng = random.Random(seed)
    edges = list(source.edges())
    for _ in range(tries):
        rng.shuffle(edges)
        chosen = greedy_spaced_matching(source, edges, min_separation, limit=ell)
        if len(chosen) == ell:
            break
    else:
        raise RuntimeError(
            f"no {ell}-matching with separation {min_separation} found in {tries} shuffles"
        )
    return _deficient_base(source, sorted(chosen), r, lambda_budget)
