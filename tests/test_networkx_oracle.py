"""networkx as an independent oracle for chordless cycles, min cuts,
disjoint path counts and the Gallai-Edmonds barrier (skipped when networkx
is not installed)."""

import random

import pytest

from earpack._flow import edge_disjoint_paths, max_vertex_disjoint_paths
from earpack.connectivity import min_cut_between
from earpack.graphs import chordless_cycles
from earpack.harness import random_regular
from earpack.matching import Matching, extend_matching

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def canonical(cycle) -> tuple[int, ...]:
    """The rotation/reflection representative starting at the minimum vertex
    and continuing to its smaller neighbour on the cycle."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    forward = tuple(cycle[(i + t) % k] for t in range(k))
    backward = tuple(cycle[(i - t) % k] for t in range(k))
    return min(forward, backward)


def hosts():
    for n in range(10, 35, 4):
        for seed in (1, 2):
            yield random_regular(n, 3, seed=1000 * n + seed)


def test_chordless_cycles_match_networkx():
    for g in hosts():
        found = chordless_cycles(g)
        assert not found.truncated
        ours = [canonical(c) for c in found.cycles]
        assert len(ours) == len(set(ours))
        theirs = {canonical(c) for c in nx.chordless_cycles(to_nx(g))}
        assert set(ours) == theirs, g.n


def test_single_vertex_min_cuts_match_networkx():
    rng = random.Random(3)
    for g in hosts():
        h = to_nx(g)
        for _ in range(5):
            s, t = rng.sample(range(g.n), 2)
            size, cut, side = min_cut_between(g, {s}, {t})
            assert size == len(nx.minimum_edge_cut(h, s, t)) == len(cut)
            h.remove_edges_from(cut)
            assert not nx.has_path(h, s, t)
            h.add_edges_from(cut)


def test_cycle_pair_min_cuts_match_networkx():
    for g in hosts():
        cycles = chordless_cycles(g).cycles
        pairs = [(a, b) for a in cycles[:8] for b in cycles[-8:] if not set(a) & set(b)]
        flow = nx.DiGraph()
        for u, v in g.edges():
            flow.add_edge(u, v, capacity=1)
            flow.add_edge(v, u, capacity=1)
        for a, b in pairs:
            net = flow.copy()
            net.add_edges_from(("s", x) for x in a)  # no capacity: unbounded
            net.add_edges_from((y, "t") for y in b)
            expected, _ = nx.minimum_cut(net, "s", "t")
            assert min_cut_between(g, a, b)[0] == expected


def terminal_cases():
    """Random cubic hosts up to n = 60, each with a few random disjoint
    terminal sets of sizes 1..5."""
    rng = random.Random(11)
    for n in range(10, 61, 10):
        for seed in (1, 2):
            g = random_regular(n, 3, seed=7000 + 10 * n + seed)
            for _ in range(3):
                k = rng.randint(1, 5)
                vs = rng.sample(range(n), 2 * k)
                yield g, set(vs[:k]), set(vs[k:])


def with_terminals(h, sources, sinks):
    """A copy of h plus a super-source "s" joined to the sources and a
    super-sink "t" joined to the sinks."""
    aux = h.copy()
    aux.add_edges_from(("s", x) for x in sources)
    aux.add_edges_from((y, "t") for y in sinks)
    return aux


def test_edge_disjoint_path_counts_match_networkx():
    for g, a, b in terminal_cases():
        arcs = to_nx(g).to_directed()
        nx.set_edge_attributes(arcs, 1, "capacity")
        flow = with_terminals(arcs, a, b)  # terminal arcs: no capacity, unbounded
        paths = edge_disjoint_paths(g, a, b)
        assert len(paths) == nx.maximum_flow_value(flow, "s", "t")
        edges = [frozenset(e) for p in paths for e in zip(p, p[1:])]
        assert len(edges) == len(set(edges)) and all(g.has_edge(*e) for e in edges)
        assert all(p[0] in a and p[-1] in b for p in paths)


def test_vertex_disjoint_path_counts_match_networkx():
    for g, a, b in terminal_cases():
        aux = with_terminals(to_nx(g), a, b)
        expected = len(list(nx.node_disjoint_paths(aux, "s", "t")))
        assert max_vertex_disjoint_paths(g, a, b) == expected


def blocked_cases():
    """Random matchings of up to n/4 edges on random cubic hosts up to
    n = 60 that do not extend, two per host."""
    rng = random.Random(5)
    for n in range(12, 61, 12):
        for seed in (1, 2):
            g = random_regular(n, 3, seed=9000 + 10 * n + seed)
            found = 0
            while found < 2:
                pool = list(g.edges())
                rng.shuffle(pool)
                k = rng.randint(2, n // 4)
                chosen, used = [], set()
                for u, v in pool:
                    if u not in used and v not in used and len(chosen) < k:
                        chosen.append((u, v))
                        used.update((u, v))
                m = Matching.of(g, chosen)
                res = extend_matching(g, m)
                if not res.extended:
                    found += 1
                    yield g, m, res.barrier


def test_barrier_is_networkx_gallai_edmonds_set():
    def size(h):
        return len(nx.max_weight_matching(h, maxcardinality=True))

    nonempty = 0
    for g, m, barrier in blocked_cases():
        h = to_nx(g)
        h.remove_nodes_from(m.covered)
        full = size(h)
        d = {v for v in h if size(nx.restricted_view(h, [v], [])) == full}
        expected = {w for v in d for w in h[v]} - d
        assert barrier.S == expected, g.n
        nonempty += bool(expected)
    assert nonempty >= 10
