"""Odd ears of a vertex set and edge-disjoint odd-ear packings.

An ear of U is a path with both ends (and no interior vertex) in U, or a
cycle meeting U in exactly one vertex; it is odd when its edge count is odd.
``max_odd_ear_packing`` is the one entry point.  On a bipartite host it
answers by max flow; on any other host it runs a branch and bound over
enumerated ears, capped by a ``SearchBudget``.

In a bipartite graph the flow answer is exactly optimal: every odd ear of
U is itself a path from a black vertex of U to a white one (odd length
forces opposite colors, and there is no odd cycle), so edge-disjoint odd
ears are bounded by the max number of edge-disjoint such paths, and
splitting each flow path at its interior U-hits returns exactly one odd
piece per path.  With U = V(M) this is the packing both of the extension
theorem's cases count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._flow import edge_disjoint_paths
from .budget import DEFAULT_BUDGET, SearchBudget
from .graphs import Edge, Graph, bipartition, edge_key
from .matching import Check


@dataclass(frozen=True)
class Ear:
    """kind 'path': vertices v0..vk with v0, vk in U and interior outside U.
    kind 'cycle': vertices v0..vk listed once, closing edge vk-v0 implied,
    with v0 the unique U-vertex."""

    kind: str  # "path" | "cycle"
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1 if self.kind == "path" else len(self.vertices)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1

    def edge_list(self) -> tuple[Edge, ...]:
        vs = self.vertices
        pairs = [edge_key(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
        if self.kind == "cycle":
            pairs.append(edge_key(vs[-1], vs[0]))
        return tuple(pairs)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edge_list())

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "vertices": list(self.vertices)}


@dataclass(frozen=True)
class EarPacking:
    U: frozenset[int]
    ears: tuple[Ear, ...]

    @property
    def k(self) -> int:
        return len(self.ears)

    def to_json_dict(self) -> dict:
        return {"U": sorted(self.U), "ears": [e.to_json_dict() for e in self.ears]}


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a packing search.

    status 'exact': the packing is a maximum (search space exhausted).
    status 'target-met': stopped early once the requested size was reached.
    status 'budget': a cap hit first; the packing is only a lower bound,
    which is *unknown*, not *impossible*, territory for hypothesis checks.
    """

    packing: EarPacking
    status: str

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def validate_ear(g: Graph, U: Iterable[int], ear: Ear) -> Check:
    """Check the ear invariants with respect to g and U."""
    u_set = frozenset(U)
    vs = ear.vertices
    if len(vs) < 2 and ear.kind == "path":
        return Check(False, "a path ear needs at least one edge")
    if len(vs) < 3 and ear.kind == "cycle":
        return Check(False, "a cycle ear needs at least three vertices")
    if len(set(vs)) != len(vs):
        return Check(False, "repeated vertex")
    for i in range(len(vs) - 1):
        if not g.has_edge(vs[i], vs[i + 1]):
            return Check(False, f"({vs[i]}, {vs[i + 1]}) is not an edge")
    if ear.kind == "path":
        if vs[0] not in u_set or vs[-1] not in u_set:
            return Check(False, "path ear must end in U on both sides")
        if any(v in u_set for v in vs[1:-1]):
            return Check(False, "path ear has an interior vertex in U")
    elif ear.kind == "cycle":
        if not g.has_edge(vs[-1], vs[0]):
            return Check(False, f"closing edge ({vs[-1]}, {vs[0]}) is not an edge")
        hits = [v for v in vs if v in u_set]
        if hits != [vs[0]]:
            return Check(False, "cycle ear must meet U exactly at its first vertex")
    else:
        return Check(False, f"unknown ear kind {ear.kind!r}")
    return Check(True)


def verify_packing(g: Graph, packing: EarPacking, require_odd: bool = True) -> Check:
    """All ears valid, odd (unless told otherwise), and pairwise edge-disjoint."""
    used: set[Edge] = set()
    for i, ear in enumerate(packing.ears):
        ok = validate_ear(g, packing.U, ear)
        if not ok:
            return Check(False, f"ear {i}: {ok.reason}")
        if require_odd and not ear.is_odd:
            return Check(False, f"ear {i} is even")
        es = ear.edge_set()
        if es & used:
            return Check(False, f"ear {i} shares an edge with an earlier ear")
        used |= es
    return Check(True)


# ---------------------------------------------------------------------------
# enumeration + branch and bound


def enumerate_odd_ears(
    g: Graph, U: Iterable[int], max_len: int | None = None, cap: int = 200_000
) -> tuple[tuple[Ear, ...], bool]:
    """All odd ears of U up to ``max_len`` edges, shortest first.

    Returns (ears, truncated).  Paths are emitted once (lower endpoint
    first); cycles once per direction class (second vertex below last).
    """
    u_set = frozenset(U)
    limit = g.n if max_len is None else max_len
    out: list[Ear] = []
    truncated = False
    for start in sorted(u_set):
        if truncated:
            break
        stack: list[tuple[tuple[int, ...], frozenset[int]]] = [((start,), frozenset((start,)))]
        while stack:
            path, members = stack.pop()
            last = path[-1]
            for w in g.adjacency[last]:
                if w in u_set:
                    if w == start:
                        if len(path) >= 3 and path[1] < path[-1]:
                            ear = Ear("cycle", path)
                            if ear.is_odd:
                                out.append(ear)
                    elif start < w:
                        ear = Ear("path", path + (w,))
                        if ear.is_odd:
                            out.append(ear)
                    if len(out) >= cap:
                        truncated = True
                        stack.clear()
                        break
                elif w not in members and len(path) < limit:
                    stack.append((path + (w,), members | {w}))
    out.sort(key=lambda e: (e.length, e.kind, e.vertices))
    return tuple(out), truncated


def max_odd_ear_packing(
    g: Graph,
    U: Iterable[int],
    target: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> PackingResult:
    """Search for a large set of pairwise edge-disjoint odd ears of U.

    Bipartite hosts get the exact flow answer directly (module notes).
    Otherwise: branch and bound over enumerated ears, shortest first.  With
    a ``target`` the ear length is deepened iteratively and the search stops
    as soon as that many ears are packed (hypothesis checks only need the
    lower bound); without one the full-length search certifies a maximum,
    budget permitting.
    """
    u_set = frozenset(U)
    if not u_set:
        raise ValueError("U must be nonempty")
    if not all(0 <= v < g.n for v in u_set):
        raise ValueError("U has a vertex out of range")
    parts = bipartition(g)
    if parts is not None:
        return PackingResult(_bipartite_flow_packing(g, u_set, parts[0]), "exact")

    if target is None:
        levels = [g.n]
    else:
        levels = [l for l in (1, 3, 5, 7, 9) if l < g.n] + [g.n]

    nodes_left = budget.max_bb_nodes
    result: tuple[list[int], tuple[Ear, ...]] = ([], ())
    for level in levels:
        ears, truncated = enumerate_odd_ears(g, u_set, max_len=level, cap=budget.max_ears)
        best, used_nodes, complete = _pack_branch_and_bound(g, ears, target, nodes_left)
        nodes_left -= used_nodes
        if len(best) > len(result[0]):
            result = (best, ears)
        if target is not None and len(best) >= target:
            status = "target-met"
            break
        if truncated or nodes_left <= 0 or not complete:
            status = "budget"
            break
    else:
        # the final level covers every possible ear length and ran to the end
        status = "exact"

    best, ears = result
    packing = EarPacking(u_set, tuple(ears[i] for i in sorted(best)))
    return PackingResult(packing, status)


def _pack_branch_and_bound(
    g: Graph, ears: tuple[Ear, ...], target: int | None, node_budget: int
) -> tuple[list[int], int, bool]:
    """Maximize the number of disjoint ears; returns (best, nodes, complete)."""
    edge_bit = {e: i for i, e in enumerate(g.edges())}
    masks = []
    for ear in ears:
        m = 0
        for e in ear.edge_set():
            m |= 1 << edge_bit[e]
        masks.append(m)
    u_set = set()
    for ear in ears:
        vs = ear.vertices
        u_set.add(vs[0])
        if ear.kind == "path":
            u_set.add(vs[-1])
    anchor_masks = []
    for v in sorted(u_set):
        m = 0
        for w in g.adjacency[v]:
            m |= 1 << edge_bit[edge_key(v, w)]
        anchor_masks.append(m)

    def slot_bound(used: int) -> int:
        # every ear occupies exactly two anchor slots: one edge at each
        # path endpoint, or two cycle edges at the single anchor; an edge
        # inside U fills a slot at both of its ends
        free = ~used
        return sum((m & free).bit_count() for m in anchor_masks) // 2

    def greedy() -> list[int]:
        picked: list[int] = []
        acc = 0
        for idx in range(len(masks)):
            if masks[idx] & acc == 0:
                picked.append(idx)
                acc |= masks[idx]
        return picked

    best = greedy()
    if target is not None and len(best) >= target:
        return best, 0, False

    nodes = 0

    def search() -> bool:
        """Depth-first over ears in index order; True aborts the whole
        search: target met or node budget spent.

        ``chosen`` holds the ears on the current path.  Each node on it that
        passed its bounds keeps a frame [used edges, next ear to try]; a
        node whose bounds fail, or whose ears run out, returns to its parent,
        which re-checks the slot bound before trying its next ear.
        """
        nonlocal nodes, best
        chosen: list[int] = []
        stack: list[list[int]] = []
        idx = used = 0
        while True:
            # visit a node: the ears in chosen, candidates from idx on
            nodes += 1
            if nodes > node_budget:
                return True
            if len(chosen) > len(best):
                best = list(chosen)
                if target is not None and len(best) >= target:
                    return True
            returned = True
            if len(chosen) + slot_bound(used) > len(best):
                remaining = sum(1 for m in masks[idx:] if not m & used)
                if len(chosen) + remaining > len(best):
                    stack.append([used, idx])
                    returned = False
            # climb until a frame on the path has an ear left to try
            while stack:
                frame = stack[-1]
                used = frame[0]
                if returned:
                    chosen.pop()
                    if len(chosen) + slot_bound(used) <= len(best):
                        stack.pop()
                        continue
                for i in range(frame[1], len(masks)):
                    if not masks[i] & used:
                        break
                else:
                    stack.pop()
                    returned = True
                    continue
                frame[1] = i + 1
                chosen.append(i)
                idx, used = i + 1, used | masks[i]
                break
            else:
                return False

    stopped_early = search()
    return best, nodes, not stopped_early


def _bipartite_flow_packing(g: Graph, u_set: frozenset[int], black: frozenset[int]) -> EarPacking:
    """Exact maximum odd-ear packing in a bipartite host via max flow: unit
    flow from the black vertices of U to the white ones, each flow path cut
    at its interior U-hits, odd pieces kept (module notes)."""
    u_black = u_set & black
    u_white = u_set - black
    if not u_black or not u_white:
        return EarPacking(u_set, ())
    ears: list[Ear] = []
    for path in edge_disjoint_paths(g, u_black, u_white):
        hits = [i for i, v in enumerate(path) if v in u_set]
        for a, b in zip(hits, hits[1:]):
            piece = path[a : b + 1]
            if (len(piece) - 1) % 2 == 1:
                ears.append(Ear("path", piece if piece[0] <= piece[-1] else piece[::-1]))
    ears.sort(key=lambda e: (e.length, e.vertices))
    return EarPacking(u_set, tuple(ears))
