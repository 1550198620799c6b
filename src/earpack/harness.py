"""Theorem-level verification: hypothesis reports for the extension theorem,
the induced-tree boundary inequality, component-level invariants on barrier
certificates, and falsification sweeps over random regular graphs.

A sweep can never "fail honestly": the underlying theorem is proved, so any
hypothesis-satisfying instance whose matching does not extend indicates an
implementation bug and is serialized as a reproduction bundle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .budget import DEFAULT_BUDGET, SearchBudget
from .catalog import random_bipartite_regular
from .connectivity import InexactSearchError, _connectivity_outcomes
from .ears import max_odd_ear_packing
from .graphs import (
    INF,
    Graph,
    bfs_distances,
    boundary_edges,
    connected_components,
    is_induced_tree,
    is_regular,
    serialize_graph,
)
from .matching import (
    BarrierCertificate,
    Matching,
    boundary_identity_sides,
    extend_matching,
    greedy_spaced_matching,
    heavy_neighbor_exists,
    is_distance_d_matching,
)


def _ceil2(x: int) -> int:
    return (x + 1) // 2


@dataclass(frozen=True)
class HypothesisReport:
    """Everything the unified extension theorem asks about a pair (G, M).

    ``k_found`` is a certified lower bound on the number of edge-disjoint
    odd ears of V(M); ``k_exact`` marks it as the true maximum.  Connectivity
    fields are None when a budget cap prevented an exact value, and the case
    flags treat unknown as not-met (a sweep may under-report hypothesis_met
    but can never fabricate an inconsistency).
    """

    r: int
    m: int
    even_order: bool
    distance3: bool
    heavy_neighbor: int | None
    k_found: int
    k_exact: bool
    lambda_c: float | None
    lambda_oc: float | None

    @property
    def theta(self) -> int:
        return 1 if self.m % 2 == 0 and self.r % 2 == 0 else 0

    @property
    def case_i(self) -> bool:
        if self.lambda_c is None:
            return False
        return (
            self.k_found >= self.m * self.r - _ceil2(self.r) + 1
            and self.lambda_c >= self.m * self.r - self.m + self.theta
        )

    @property
    def case_ii(self) -> bool:
        if self.lambda_oc is None:
            return False
        return (
            self.k_found >= self.m * self.r - self.r + 1
            and self.lambda_oc >= (2 * self.m - 1) * (self.r - 1)
        )

    @property
    def hypothesis_met(self) -> bool:
        return (
            self.m >= 2
            and self.r >= 3
            and self.even_order
            and (self.m <= self.r - 1 or self.heavy_neighbor is None)
            and (self.case_i or self.case_ii)
        )

    def to_json_dict(self) -> dict:
        def enc(x):
            return "inf" if x == INF else x

        return {
            "r": self.r,
            "m": self.m,
            "even_order": self.even_order,
            "distance3": self.distance3,
            "heavy_neighbor": self.heavy_neighbor,
            "k_found": self.k_found,
            "k_exact": self.k_exact,
            "lambda_c": enc(self.lambda_c),
            "lambda_oc": enc(self.lambda_oc),
            "theta": self.theta,
            "case_i": self.case_i,
            "case_ii": self.case_ii,
            "hypothesis_met": self.hypothesis_met,
        }


@dataclass(frozen=True)
class TheoremVerdict:
    report: HypothesisReport
    extended: bool
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "report": self.report.to_json_dict(),
            "extended": self.extended,
            "consistent": self.consistent,
        }


@lru_cache(maxsize=512)
def _lambda_pair(g: Graph, budget: SearchBudget) -> tuple[float | None, float | None]:
    """Both connectivities, with None for budget-capped searches.

    Cached: sweeps evaluate many matchings against the same host graph.
    """
    lam_c, lam_oc = (
        None if isinstance(o, InexactSearchError) else o.value
        for o in _connectivity_outcomes(g, budget)
    )
    return lam_c, lam_oc


def evaluate_hypotheses(
    g: Graph, matching: Matching, budget: SearchBudget = DEFAULT_BUDGET
) -> HypothesisReport:
    """Compute every hypothesis field of the extension theorem for (g, M)."""
    r = is_regular(g)
    if r is None:
        raise ValueError("the theorem concerns regular graphs")
    if matching.m < 2:
        raise ValueError("the theorem requires a matching of size at least 2")
    m = matching.m
    target = m * r - _ceil2(r) + 1
    packing = max_odd_ear_packing(g, matching.covered, target=target, budget=budget)
    lam_c, lam_oc = _lambda_pair(g, budget)
    return HypothesisReport(
        r=r,
        m=m,
        even_order=g.n % 2 == 0,
        distance3=is_distance_d_matching(g, matching, 3),
        heavy_neighbor=heavy_neighbor_exists(g, matching, r),
        k_found=packing.packing.k,
        k_exact=packing.exact,
        lambda_c=lam_c,
        lambda_oc=lam_oc,
    )


def check_theorem(
    g: Graph, matching: Matching, budget: SearchBudget = DEFAULT_BUDGET
) -> TheoremVerdict:
    """Evaluate the hypotheses, run the extension, and flag consistency.

    consistent == False would be a counterexample to a proved theorem and
    therefore means a bug somewhere in this library.
    """
    report = evaluate_hypotheses(g, matching, budget)
    extension = extend_matching(g, matching)
    consistent = (not report.hypothesis_met) or extension.extended
    return TheoremVerdict(report, extension.extended, consistent)


# ---------------------------------------------------------------------------
# induced-tree boundary inequality


@dataclass(frozen=True)
class TreeBoundaryResult:
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


def tree_boundary_check(g: Graph, tree: Iterable[int], marked: Iterable[int], d: int) -> TreeBoundaryResult:
    """Boundary-degree inequality for an induced tree T holding a spread set L:
    |E(T, rest)| >= r*|L| whenever (r-2)(d-2) >= 4 and L is a distance-d set.

    Precondition violations raise ValueError naming the failed condition.
    """
    r = is_regular(g)
    if r is None:
        raise ValueError("precondition failed: graph is not regular")
    if len(connected_components(g)) != 1:
        raise ValueError("precondition failed: graph is not connected")
    if (r - 2) * (d - 2) < 4:
        raise ValueError("precondition failed: (r-2)(d-2) >= 4")
    t_set = frozenset(tree)
    l_set = frozenset(marked)
    if not is_induced_tree(g, t_set):
        raise ValueError("precondition failed: T is not an induced tree")
    if not l_set <= t_set:
        raise ValueError("precondition failed: L must lie inside T")
    marked_sorted = sorted(l_set)
    for i, u in enumerate(marked_sorted):
        dist = bfs_distances(g, [u])
        for v in marked_sorted[i + 1 :]:
            if dist[v] < d:
                raise ValueError("precondition failed: L is not a distance-d set")
    return TreeBoundaryResult(lhs=len(boundary_edges(g, t_set)), rhs=r * len(l_set))


# ---------------------------------------------------------------------------
# component-level invariants over a barrier certificate


@dataclass(frozen=True)
class InvariantRow:
    name: str
    detail: str
    lhs: float
    rhs: float
    holds: bool
    asserted: bool


def certificate_invariants(
    g: Graph, matching: Matching, cert: BarrierCertificate, asserted: bool = False
) -> tuple[InvariantRow, ...]:
    """Per-component boundary bounds, the single-non-bipartite-odd-component
    bound, and the edge-count identity for the certificate's separator.

    The first two are theorem consequences only under the extension
    hypotheses, so they are asserted only when the caller says so; the
    identity holds unconditionally for regular hosts.
    """
    r = is_regular(g)
    if r is None:
        raise ValueError("the invariant checks require a regular graph")
    rows = []
    for idx in cert.odd:
        comp = cert.components[idx]
        lhs = len(boundary_edges(g, comp))
        rows.append(
            InvariantRow(
                name="odd_component_boundary",
                detail=f"component {idx}",
                lhs=lhs,
                rhs=r,
                holds=lhs >= r,
                asserted=asserted,
            )
        )
    rows.append(
        InvariantRow(
            name="nonbipartite_odd_components",
            detail="q2",
            lhs=cert.q2,
            rhs=1,
            holds=cert.q2 <= 1,
            asserted=asserted,
        )
    )
    sides = boundary_identity_sides(g, matching, cert.S)
    rows.append(
        InvariantRow(
            name="boundary_identity",
            detail="lhs == rhs",
            lhs=sides.lhs,
            rhs=sides.rhs,
            holds=sides.lhs == sides.rhs,
            asserted=True,
        )
    )
    return tuple(rows)


# ---------------------------------------------------------------------------
# graph generation


def random_regular(n: int, r: int, seed: int, tries: int = 200) -> Graph:
    """A random simple r-regular graph via the pairing model.

    Leftover stubs from clashing pairs are reshuffled and repaired instead
    of restarting the whole pairing, which keeps dense cases feasible.
    Deterministic for a given seed; raises after ``tries`` dead ends.
    """
    if n * r % 2 != 0:
        raise ValueError("n*r must be even")
    if not 0 <= r < n:
        raise ValueError("need 0 <= r < n")
    rng = random.Random(seed)

    def suitable(edges: set, leftover: dict[int, int]) -> bool:
        stubs = [v for v in leftover if leftover[v] > 0]
        return any(
            u != v and (min(u, v), max(u, v)) not in edges
            for i, u in enumerate(stubs)
            for v in stubs[i:]
        ) or not stubs

    for _ in range(tries):
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(r)]
        dead = False
        while stubs:
            leftover: dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftover[u] = leftover.get(u, 0) + 1
                    leftover[v] = leftover.get(v, 0) + 1
            if not suitable(edges, leftover):
                dead = True
                break
            stubs = [v for v, count in sorted(leftover.items()) for _ in range(count)]
        if not dead:
            return Graph(n, edges)
    raise RuntimeError(f"pairing model failed {tries} times for n={n}, r={r}")


def enumerate_connected_regular(n: int, r: int) -> list[Graph]:
    """All connected r-regular graphs on n vertices, one per isomorphism
    class, by naive completion with canonical dedup.  Tiny n only.

    Completion order: repeatedly finish the lowest vertex with missing
    degree.  Two symmetry breaks keep the search small without losing any
    class: the first vertex's neighborhood is pinned to 1..r, and untouched
    vertices (still at degree zero, hence interchangeable) always receive
    the lowest unused labels.  Survivors are deduplicated with an
    invariant-bucketed isomorphism test.
    """
    if n * r % 2 != 0 or r >= n:
        return []
    found: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    adj: list[set[int]] = [set() for _ in range(n)]

    def leaf() -> None:
        masks = [sum(1 << w for w in adj[u]) for u in range(n)]
        seen = 1 | masks[0]
        frontier = masks[0]
        while frontier:
            grow = 0
            v = frontier
            while v:
                low = v & -v
                grow |= masks[low.bit_length() - 1]
                v ^= low
            frontier = grow & ~seen
            seen |= grow
        if seen != (1 << n) - 1:
            return
        g = Graph(n, [(a, b) for a in range(n) for b in adj[a] if a < b])
        key = _invariant_key(g)
        bucket = found.setdefault(key, [])
        if not any(_isomorphic(g, other) for other in bucket):
            bucket.append(g)
            out.append(g)

    def place(v: int) -> None:
        while v < n and len(adj[v]) == r:
            v += 1
        if v == n:
            leaf()
            return
        need = r - len(adj[v])
        touched = [w for w in range(v + 1, n) if 0 < len(adj[w]) < r and w not in adj[v]]
        fresh = [w for w in range(v + 1, n) if not adj[w]]
        for t in range(min(need, len(fresh)) + 1):
            # fresh vertices are interchangeable: only the lowest t are tried
            tail = fresh[:t]
            for combo in combinations(touched, need - t):
                for w in combo:
                    adj[v].add(w)
                    adj[w].add(v)
                for w in tail:
                    adj[v].add(w)
                    adj[w].add(v)
                place(v + 1)
                for w in combo + tuple(tail):
                    adj[v].remove(w)
                    adj[w].remove(v)

    for w in range(1, r + 1):  # pin N(0) = {1..r}
        adj[0].add(w)
        adj[w].add(0)
    place(1)
    return out


def _invariant_key(g: Graph) -> tuple:
    profiles = []
    for v in range(g.n):
        dist = bfs_distances(g, [v])
        profiles.append(tuple(sorted(int(x) if x != INF else -1 for x in dist)))
    triangles = sum(
        1
        for u, v in g.edges()
        for w in g.adjacency[u]
        if w > v and g.has_edge(v, w)
    )
    return (g.n, g.edge_count, triangles, tuple(sorted(profiles)))


def _isomorphic(g1: Graph, g2: Graph) -> bool:
    if (g1.n, g1.edge_count) != (g2.n, g2.edge_count):
        return False
    if sorted(map(len, g1.adjacency)) != sorted(map(len, g2.adjacency)):
        return False
    profile1 = [tuple(sorted(int(x) for x in bfs_distances(g1, [v]))) for v in range(g1.n)]
    profile2 = [tuple(sorted(int(x) for x in bfs_distances(g2, [v]))) for v in range(g2.n)]
    if sorted(profile1) != sorted(profile2):
        return False
    n = g1.n
    order = sorted(range(n), key=lambda v: (-g1.degree(v), v))
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or profile1[v] != profile2[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for x in g1.adjacency[v]:
                if mapping[x] >= 0 and not g2.has_edge(mapping[x], w):
                    ok = False
                    break
            if ok:
                mapped_neighbors = sum(1 for x in g1.adjacency[v] if mapping[x] >= 0)
                back = sum(1 for y in g2.adjacency[w] if used[y])
                if mapped_neighbors != back:
                    continue
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# falsification sweep


def distance3_matchings(
    g: Graph, cap: int, seed: int, min_size: int = 2
) -> list[Matching]:
    """Up to ``cap`` maximal distance-3 matchings of size >= min_size,
    collected from seeded greedy passes over shuffled edge orders."""
    rng = random.Random(seed)
    edges = list(g.edges())
    seen: set[frozenset] = set()
    out: list[Matching] = []
    attempts = 0
    while len(out) < cap and attempts < cap * 4:
        attempts += 1
        rng.shuffle(edges)
        chosen = greedy_spaced_matching(g, edges, 3)
        key = frozenset(chosen)
        if len(chosen) >= min_size and key not in seen:
            seen.add(key)
            out.append(Matching.of(g, chosen))
    out.sort(key=lambda m: m.edges)
    return out


@dataclass
class SweepSummary:
    samples: int = 0
    # requested sizes left out: the theorem is about graphs of even order,
    # and no r-regular host exists with n <= r (bipartite: side <= r)
    odd_orders_skipped: int = 0
    small_orders_skipped: int = 0
    matchings_checked: int = 0
    hypothesis_met: int = 0
    consistent: int = 0
    inconsistent: int = 0
    flow_bound_checked: int = 0
    flow_bound_violations: int = 0
    bundles: list[str] = field(default_factory=list)
    caps: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "odd_orders_skipped": self.odd_orders_skipped,
            "small_orders_skipped": self.small_orders_skipped,
            "matchings_checked": self.matchings_checked,
            "hypothesis_met": self.hypothesis_met,
            "consistent": self.consistent,
            "inconsistent": self.inconsistent,
            "flow_bound_checked": self.flow_bound_checked,
            "flow_bound_violations": self.flow_bound_violations,
            "bundles": list(self.bundles),
            "caps": dict(self.caps),
        }


SWEEP_BUDGET = SearchBudget(
    max_cycles=50_000,
    max_cycle_steps=1_000_000,
    max_cut_pairs=100_000,
    max_ears=5_000,
    max_bb_nodes=50_000,
)


def falsification_sweep(
    ns: Sequence[int],
    r: int,
    samples: int,
    seed: int,
    budget: SearchBudget = SWEEP_BUDGET,
    matchings_per_graph: int = 20,
    bundle_dir: str | Path | None = None,
    bipartite: bool = False,
    include_m1: bool = False,
) -> SweepSummary:
    """Try to falsify the extension theorem on random regular graphs.

    Samples graphs round-robin over the even sizes in ``ns`` that admit an
    r-regular host (odd and too-small sizes are skipped and counted),
    enumerates capped families of maximal distance-3 matchings, and checks
    every (G, M) pair.  Any inconsistent pair is written out as a
    reproduction bundle and counted; a correct library always reports zero.

    With ``bipartite`` the samples come from the bipartite pairing model
    and, for r >= 4 (where a distance-3 matching escapes the excluded
    degree/distance pairs), the flow packing is additionally checked
    against its guaranteed min(cyclic connectivity, m*r) size.

    Single-edge matchings are skipped by default (the theorem starts at
    m = 2); ``include_m1`` adds them, where only the extension runs.
    """
    summary = SweepSummary(
        caps={
            "matchings_per_graph": matchings_per_graph,
            "ear_budget": budget.max_bb_nodes,
            "note": "unknown hypothesis values count as not-met",
        }
    )
    even = [n for n in ns if n % 2 == 0]
    usable = [n for n in even if (n // 2 if bipartite else n) > r]
    summary.odd_orders_skipped = len(ns) - len(even)
    summary.small_orders_skipped = len(even) - len(usable)
    if not usable or samples <= 0:
        return summary
    for i in range(samples):
        n = usable[i % len(usable)]
        if bipartite:
            g = random_bipartite_regular(n // 2, r, seed=seed + i)
        else:
            g = random_regular(n, r, seed=seed + i)
        summary.samples += 1
        min_size = 1 if include_m1 else 2
        for matching in distance3_matchings(
            g, cap=matchings_per_graph, seed=seed + i, min_size=min_size
        ):
            summary.matchings_checked += 1
            if matching.m < 2:
                # below the theorem's domain: no hypothesis can be violated
                extend_matching(g, matching)
                summary.consistent += 1
                continue
            verdict = check_theorem(g, matching, budget)
            if verdict.report.hypothesis_met:
                summary.hypothesis_met += 1
            if verdict.consistent:
                summary.consistent += 1
            else:
                summary.inconsistent += 1
                if bundle_dir is not None:
                    path = _write_bundle(bundle_dir, g, matching, r, seed + i, verdict)
                    summary.bundles.append(str(path))
            if bipartite and r >= 4 and verdict.report.lambda_c is not None:
                # on a bipartite host k_found is already the exact flow packing
                bound = min(verdict.report.lambda_c, matching.m * r)
                summary.flow_bound_checked += 1
                if verdict.report.k_found < bound:
                    summary.flow_bound_violations += 1
                    if bundle_dir is not None:
                        path = _write_bundle(bundle_dir, g, matching, r, seed + i, verdict)
                        summary.bundles.append(str(path))
    return summary


def _write_bundle(
    bundle_dir: str | Path, g: Graph, matching: Matching, r: int, seed: int, verdict: TheoremVerdict
) -> Path:
    directory = Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = f"n{g.n}_r{r}_seed{seed}_m{matching.m}"
    path = directory / f"inconsistent_{stamp}.json"
    payload = {
        "schema": 1,
        "version": __version__,
        "graph6": serialize_graph(g, "graph6").decode(),
        "matching": [list(e) for e in matching.edges],
        "seed": seed,
        "verdict": verdict.to_json_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
