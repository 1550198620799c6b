import hashlib
import json
import random

import pytest

from earpack._flow import edge_disjoint_paths, max_vertex_disjoint_paths
import earpack.cli as cli
import earpack.connectivity as connectivity
import earpack.harness as harness
from earpack.budget import DEFAULT_BUDGET, SearchBudget
from earpack.connectivity import (
    InexactSearchError,
    CutCertificate,
    _lambda_search,
    _RestrictedCuts,
    cyclic_edge_connectivity,
    min_cut_between,
    odd_cyclic_edge_connectivity,
    verify_cut,
)
from earpack.graphs import (
    INF,
    Graph,
    bipartition,
    boundary_edges,
    connected_components,
    cycle_edges,
    induced_subgraph,
    serialize_graph,
    shortest_cycle,
)
from earpack.catalog import (
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    petersen_graph,
    prism_graph,
    random_bipartite_regular,
    tutte_coxeter_graph,
)
from earpack.constructions import VERIFY_BUDGET, smallest_counterexample, smallest_sharpness_i
from earpack.harness import random_regular

from oracles import lambda_oracle


def components_after_removal(g, cut):
    """Components of G - F."""
    return connected_components(Graph(g.n, [e for e in g.edges() if e not in cut]))


class TestMinCut:
    def test_disconnected_zero(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        size, cut, side = min_cut_between(g, {0}, {3})
        assert size == 0 and cut == frozenset() and side == frozenset({0, 1, 2})

    def test_adjacent_in_c4(self):
        size, cut, _ = min_cut_between(cycle_graph(4), {0}, {1})
        assert size == 2

    def test_petersen_pentagon_spokes(self):
        p = petersen_graph()
        size, cut, side = min_cut_between(p, set(range(5)), set(range(5, 10)))
        assert size == 5
        assert cut == frozenset((i, i + 5) for i in range(5))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            min_cut_between(cycle_graph(4), {0}, {0, 2})

    def test_rejects_empty_or_out_of_range(self):
        for X, Y in (((), {1}), ({0}, ()), ({-1}, {1}), ({0}, {4})):
            with pytest.raises(ValueError):
                min_cut_between(cycle_graph(4), X, Y)

    def test_long_host_has_no_recursion_limit(self):
        # augmenting paths of about 1250 edges
        size, cut, side = min_cut_between(prism_graph(2500), {0}, {1250})
        assert size == 3 and cut == frozenset({(0, 1), (0, 2499), (0, 2500)})
        assert side == frozenset({0})

    def test_cutoff_stops_at_the_cutoff(self):
        p = petersen_graph()
        assert min_cut_between(p, set(range(5)), set(range(5, 10)), cutoff=3) == (
            3,
            frozenset(),
            frozenset(),
        )

    def test_source_side_is_minimal(self):
        # two minimum cuts of size 2 separate 0 from 3 on C6; the network
        # returns the one closest to the sources
        size, cut, side = min_cut_between(cycle_graph(6), {0}, {3})
        assert size == 2 and side == frozenset({0})
        assert cut == frozenset({(0, 1), (0, 5)})


class TestPathFamiliesOnLongHosts:
    def test_edge_disjoint_paths_on_a_long_path(self):
        path = Graph(3000, [(i, i + 1) for i in range(2999)])
        assert edge_disjoint_paths(path, {0}, {2999}) == [tuple(range(3000))]

    def test_edge_disjoint_paths_on_a_long_prism(self):
        g = prism_graph(2500)
        paths = edge_disjoint_paths(g, {0}, {1250})
        assert len(paths) == 3
        assert all(p[0] == 0 and p[-1] == 1250 for p in paths)
        edges = [tuple(sorted(e)) for p in paths for e in zip(p, p[1:])]
        assert len(edges) == len(set(edges)) and all(g.has_edge(*e) for e in edges)

    def test_vertex_disjoint_paths_on_a_long_prism(self):
        g = prism_graph(2500)
        assert max_vertex_disjoint_paths(g, {0, 2500}, {1250, 3750}) == 2


def flow_cases():
    """Seeded random cubic hosts with random terminal sets, then bipartite
    hosts with spread-out terminals on both sides."""
    rng = random.Random(20)
    for n in range(10, 50, 2):
        for seed in (1, 2):
            g = random_regular(n, 3, seed=100 * n + seed)
            k = rng.randint(1, 4)
            vs = rng.sample(range(n), 2 * k)
            yield g, set(vs[:k]), set(vs[k:])
    for side in (5, 8, 12):
        g = random_bipartite_regular(side, 3, seed=side)
        yield g, set(range(0, side, 2)), set(range(side + 1, 2 * side, 3))


class TestPathFamilyPins:
    """Path families and counts recorded before the max-flow engines were
    merged; the merged engine must reproduce them exactly."""

    def test_edge_disjoint_paths_pinned(self):
        found = [[list(p) for p in edge_disjoint_paths(g, a, b)] for g, a, b in flow_cases()]
        assert len(found) == 43
        assert found[0] == [[1, 0, 5], [1, 6, 9], [4, 2, 5], [4, 3, 7, 9]]
        assert found[-1] == [
            [0, 14, 7, 13], [0, 19], [2, 13], [2, 18, 1, 19], [4, 13], [4, 23, 5, 16],
            [6, 16], [6, 17, 11, 19], [8, 20, 3, 22], [8, 22], [10, 16],
        ]
        digest = hashlib.sha256(json.dumps(found, separators=(",", ":")).encode()).hexdigest()
        assert digest == "0c694f563f786f74bd1283f8e94d5f23d3c888fa52acbba435bacedc115e7022"

    def test_vertex_disjoint_counts_pinned(self):
        assert [max_vertex_disjoint_paths(g, a, b) for g, a, b in flow_cases()] == [
            2, 2, 1, 3, 3, 1, 2, 2, 3, 2, 3, 3, 1, 4, 2, 3, 1, 3, 3, 1, 2, 2,
            2, 1, 2, 3, 4, 3, 3, 1, 4, 3, 2, 3, 4, 2, 4, 1, 2, 3, 2, 3, 4,
        ]

    def test_terminal_checks(self):
        g = cycle_graph(6)
        for helper in (edge_disjoint_paths, max_vertex_disjoint_paths):
            with pytest.raises(ValueError, match="disjoint"):
                helper(g, {0, 1}, {1, 3})
            with pytest.raises(ValueError, match="out of range"):
                helper(g, {0}, {-1})
        assert edge_disjoint_paths(g, set(), {3}) == []
        assert max_vertex_disjoint_paths(g, {0}, set()) == 0


class TestNamedValues:
    def test_petersen(self):
        assert cyclic_edge_connectivity(petersen_graph()).value == 5
        assert odd_cyclic_edge_connectivity(petersen_graph()).value == 5

    def test_heawood(self):
        assert cyclic_edge_connectivity(heawood_graph()).value == 6
        assert odd_cyclic_edge_connectivity(heawood_graph()).value == INF

    def test_k33_infinite(self):
        assert cyclic_edge_connectivity(complete_bipartite(3, 3)).value == INF

    def test_prism(self):
        assert cyclic_edge_connectivity(prism_graph(3)).value == 3
        assert odd_cyclic_edge_connectivity(prism_graph(3)).value == 3

    def test_k4_infinite(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert cyclic_edge_connectivity(g).value == INF


class TestBipartiteOddCyclic:
    def test_counterexample_host_is_infinite_without_search(self):
        g = smallest_counterexample().graph
        assert g.n == 134 and bipartition(g) is not None
        # a budget that could not finish any search
        tiny = SearchBudget(max_cycles=1, max_cycle_steps=1, max_cut_pairs=1)
        value = odd_cyclic_edge_connectivity(g, tiny)
        assert value.value == INF and value.to_json_dict() == {"value": "inf"}

    def test_even_prism(self):
        value = odd_cyclic_edge_connectivity(prism_graph(24))
        assert value.value == INF and value.certificate is None


class TestCertificates:
    def test_petersen_certificate_verifies(self):
        value = cyclic_edge_connectivity(petersen_graph())
        cert = value.certificate
        assert len(cert.F) == value.value
        assert verify_cut(petersen_graph(), cert, require_odd=False)
        assert verify_cut(petersen_graph(), cert, require_odd=True)  # C5 witness

    def test_witness_crossing_cut_rejected(self):
        p = petersen_graph()
        cert = cyclic_edge_connectivity(p).certificate
        bad = CutCertificate(
            F=cert.F,
            side_a=cert.side_a,
            side_b=cert.side_b,
            cycle_a=cert.cycle_b,  # wrong side
            cycle_b=cert.cycle_b,
            odd_flag=len(cert.cycle_b) % 2 == 1,
        )
        verdict = verify_cut(p, bad, require_odd=False)
        assert not verdict

    def test_require_odd_on_bipartite_style_cert(self):
        h = heawood_graph()
        # hand-build an even-cycle certificate on the prism to test the flag
        pr = prism_graph(4)  # bipartite circular ladder
        val = cyclic_edge_connectivity(pr)
        assert val.value == 4  # wait: measured below against oracle anyway
        cert = val.certificate
        assert not verify_cut(pr, cert, require_odd=True)

    def test_removal_separates(self):
        p = petersen_graph()
        cert = cyclic_edge_connectivity(p).certificate
        comps = components_after_removal(p, cert.F)
        assert len(comps) >= 2

    def test_exhausted_budget_raises_with_bound(self):
        tiny = SearchBudget(max_cycles=2, max_cut_pairs=1)
        with pytest.raises(InexactSearchError) as err:
            cyclic_edge_connectivity(petersen_graph(), tiny)
        assert err.value.upper_bound <= 8


class TestOracleAgreement:
    def test_small_random_graphs(self):
        rng = random.Random(31)
        for trial in range(60):
            r = rng.choice([3, 4])
            n = rng.choice([6, 8, 10])
            if n * r % 2:
                n += 1
            g = random_regular(n, r, seed=900 + trial)
            for odd in (False, True):
                solver = odd_cyclic_edge_connectivity if odd else cyclic_edge_connectivity
                assert solver(g).value == lambda_oracle(g, odd), (n, r, odd, g.edges())

    def test_sparse_structures(self):
        for g in (cycle_graph(7), Graph(5, [(0, 1), (1, 2)]), prism_graph(5)):
            for odd in (False, True):
                solver = odd_cyclic_edge_connectivity if odd else cyclic_edge_connectivity
                assert solver(g).value == lambda_oracle(g, odd)


class TestStructuralProperties:
    def test_lambda_oc_at_least_lambda_c(self):
        rng = random.Random(5)
        for trial in range(30):
            g = random_regular(rng.choice([8, 10, 12]), 3, seed=100 + trial)
            if bipartition(g) is not None:
                assert odd_cyclic_edge_connectivity(g).value == INF
                continue
            oc = odd_cyclic_edge_connectivity(g).value
            c = cyclic_edge_connectivity(g).value
            assert oc >= c

    def test_odd_side_parity_matches_degree(self):
        # r-regular with |D| odd forces |E(D, rest)| = r (mod 2)
        rng = random.Random(19)
        for trial in range(40):
            r = rng.choice([3, 4, 5])
            n = rng.choice([8, 10, 12])
            if n * r % 2:
                n += 1
            g = random_regular(n, r, seed=300 + trial)
            side = frozenset(rng.sample(range(n), rng.randrange(1, n, 2)))
            assert len(side) % 2 == 1
            assert len(boundary_edges(g, side)) % 2 == r % 2

    def test_shortest_cycle_of_side_is_chordless(self):
        # the fact the pair search rests on
        rng = random.Random(77)
        for trial in range(40):
            g = random_regular(12, 3, seed=400 + trial)
            side = frozenset(rng.sample(range(12), rng.randrange(4, 10)))
            sub, back = induced_subgraph(g, side)
            cyc = shortest_cycle(sub)
            if cyc is None:
                continue
            lifted = tuple(back[v] for v in cyc)
            on_cycle = cycle_edges(lifted)
            for i in range(len(lifted)):
                for j in range(i + 1, len(lifted)):
                    e = tuple(sorted((lifted[i], lifted[j])))
                    if g.has_edge(*e):
                        assert e in on_cycle


def _plus_edges(g, count, seed):
    """g with ``count`` random non-edges added: min degree kept, not regular."""
    rng = random.Random(seed)
    edges = set(g.edges())
    while len(edges) < g.edge_count + count:
        u, v = sorted(rng.sample(range(g.n), 2))
        edges.add((u, v))
    return Graph(g.n, edges)


def _joined(a, b, links):
    """Disjoint copies of a and b joined by ``links`` edges (i, i) -> (i, a.n + i)."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    edges += [(i, a.n + i) for i in range(links)]
    return Graph(a.n + b.n, edges)


def restricted_hosts():
    """Connected hosts of min degree >= 3 on which the cycle-pair search
    finishes in well under a second."""
    yield "petersen", petersen_graph()
    yield "heawood", heawood_graph()
    yield "tutte-coxeter", tutte_coxeter_graph()
    for k in range(3, 15):
        yield f"prism{k}", prism_graph(k)
    for r, sizes in ((3, range(8, 31, 2)), (4, range(6, 21)), (5, range(8, 17, 2)), (6, range(8, 15))):
        for n in sizes:
            for c in range(2):
                yield f"r{r}n{n}.{c}", random_regular(n, r, seed=7 * n + r + 1000 * c)
    for side in range(5, 10):
        yield f"bq{side}", random_bipartite_regular(side, 4, seed=side)
    for n in (12, 16, 20):
        yield f"r3n{n}+3", _plus_edges(random_regular(n, 3, seed=n), 3, seed=n)
    yield "two cubic joined by 2", _joined(random_regular(12, 3, seed=1), random_regular(14, 3, seed=2), 2)
    yield "petersen joined to r4n9 by 3", _joined(petersen_graph(), random_regular(9, 4, seed=3), 3)


def fallback_hosts():
    """Hosts the restricted search does not apply to: min degree below 3, a
    disconnected graph, or no shortest cycle with a cyclic complement."""
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    yield "C7", cycle_graph(7)
    yield "two triangles and a bridge", triangles
    yield "two K4", _joined(k4, k4, 0)
    yield "K4 and petersen", _joined(k4, petersen_graph(), 0)
    yield "K4", k4
    yield "K3,3", complete_bipartite(3, 3)
    yield "K3,5", complete_bipartite(3, 5)
    yield "wheel W6", Graph(7, [(i, 6) for i in range(6)] + [(i, (i + 1) % 6) for i in range(6)])


def _certified(g, value, odd):
    if value.certificate is None:
        return value.value == INF
    return bool(verify_cut(g, value.certificate, odd)) and len(value.certificate.F) == value.value


class TestRestrictedCuts:
    """The restricted-cut engine and the dispatch against the cycle-pair
    search, which stays the oracle."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=label) for label, g in restricted_hosts()])
    def test_engine_agrees_with_the_pair_search(self, g):
        engine = _RestrictedCuts.of(g)
        assert engine is not None
        pair = _lambda_search(g, DEFAULT_BUDGET, odd=False)
        got = engine.search(DEFAULT_BUDGET)
        assert got.value == pair.value and got.value <= engine.bound
        assert _certified(g, got, odd=False)
        public = cyclic_edge_connectivity(g)
        assert public.value == pair.value and _certified(g, public, odd=False)
        if bipartition(g) is not None:
            assert odd_cyclic_edge_connectivity(g).value == INF
            return
        odd = odd_cyclic_edge_connectivity(g)
        assert odd.value == _lambda_search(g, DEFAULT_BUDGET, odd=True).value
        assert _certified(g, odd, odd=True)

    @pytest.mark.parametrize("g", [pytest.param(g, id=label) for label, g in fallback_hosts()])
    def test_fallback_hosts_use_the_pair_search(self, g):
        assert _RestrictedCuts.of(g) is None
        for odd in (False, True):
            solver = odd_cyclic_edge_connectivity if odd else cyclic_edge_connectivity
            value = solver(g)
            assert value.value == lambda_oracle(g, odd), odd
            assert _certified(g, value, odd)

    def test_dispatch_runs_the_route_with_fewer_min_cuts(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return min_cut_between(*args, **kwargs)

        monkeypatch.setattr(connectivity, "min_cut_between", counting)
        # Tutte-Coxeter: 30,928 candidate pairs against 5,751 cycle pairs
        assert _RestrictedCuts.of(tutte_coxeter_graph()).count_pairs(10**6) == 30928
        assert cyclic_edge_connectivity(tutte_coxeter_graph()).value == 8
        assert len(calls) == 5751
        # prism k=24: 71 candidate pairs; the cycle enumeration stops at 71
        calls.clear()
        assert cyclic_edge_connectivity(prism_graph(24)).value == 4
        assert len(calls) == 71

    @pytest.mark.parametrize(
        "g, budget",
        [
            pytest.param(petersen_graph(), DEFAULT_BUDGET, id="petersen"),
            pytest.param(prism_graph(5), DEFAULT_BUDGET, id="prism5"),
            pytest.param(random_regular(12, 5, seed=1), DEFAULT_BUDGET, id="r5n12"),
            pytest.param(random_regular(12, 5, seed=1), SearchBudget(max_cut_pairs=3), id="r5n12-capped"),
        ],
    )
    def test_one_lambda_c_search_per_host(self, monkeypatch, tmp_path, g, budget):
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        real = connectivity._lambda_c
        monkeypatch.setattr(connectivity, "_lambda_c", counting)
        lam_c, lam_oc = harness._lambda_pair.__wrapped__(g, budget)
        assert len(calls) == 1
        if budget is not DEFAULT_BUDGET:
            assert (lam_c, lam_oc) == (None, None)
            return
        calls.clear()
        path = tmp_path / "host.g6"
        path.write_bytes(serialize_graph(g, "graph6") + b"\n")
        assert cli.main(["analyze", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1
        payload = json.loads((tmp_path / "out.json").read_text())
        assert (payload["lambda_c"], payload["lambda_oc"]) == (lam_c, lam_oc)

    def test_small_side_decides_on_a_dense_host(self):
        # non-regular: the shortest cycles through vertices give U = 9 and
        # s = 7, and the minimum cut has a side of fewer than s vertices
        g = Graph(12, [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (0, 11), (1, 3), (1, 5), (1, 7),
            (1, 8), (1, 10), (1, 11), (2, 4), (2, 5), (2, 11), (3, 4), (3, 11), (4, 6), (4, 8),
            (4, 9), (4, 11), (5, 7), (5, 8), (5, 10), (6, 7), (6, 9), (7, 9), (8, 9), (8, 10),
        ])
        engine = _RestrictedCuts.of(g)
        assert (engine.bound, engine.s, engine.girth) == (9, 7, 3)
        value = engine.search(DEFAULT_BUDGET)
        assert value.value == 7 == _lambda_search(g, DEFAULT_BUDGET, odd=False).value
        assert len(value.certificate.side_a) < engine.s and _certified(g, value, odd=False)

    @pytest.mark.parametrize("build", [smallest_sharpness_i, smallest_counterexample])
    def test_construction_hosts_settle(self, build):
        # both once kept an upper bound above 4 under the verify budget; the
        # boundary of a 4-cycle is a minimum cyclic cut
        g = build().graph
        value = cyclic_edge_connectivity(g, VERIFY_BUDGET)
        assert value.value == 4 and _certified(g, value, odd=False)
        tiny = SearchBudget(max_cycles=1, max_cycle_steps=1, max_cut_pairs=1)
        with pytest.raises(InexactSearchError) as err:
            cyclic_edge_connectivity(g, tiny)
        assert err.value.upper_bound == 4
        assert verify_cut(g, err.value.certificate, require_odd=False)

    def test_capped_odd_keeps_odd_sided_cut(self):
        # the capped lambda_c search holds a 4-edge cut with a non-bipartite
        # side; the capped odd pair search alone only finds a 13-edge cut
        g = random_regular(26, 3, seed=8)
        capped = DEFAULT_BUDGET.scaled(0.00001)
        with pytest.raises(InexactSearchError) as err:
            odd_cyclic_edge_connectivity(g, capped)
        cert = err.value.certificate
        assert err.value.upper_bound == len(cert.F) == 4
        assert verify_cut(g, cert, require_odd=True)

    @pytest.mark.parametrize("seed, n, lam_oc", [(9, 10, 5), (11, 16, 4)])
    def test_odd_gap_when_both_sides_are_bipartite(self, seed, n, lam_oc):
        # the lambda_c cut has two bipartite sides, so the odd pair search
        # runs with lambda_c as its floor
        g = random_regular(n, 3, seed=seed)
        assert bipartition(g) is None
        cut = cyclic_edge_connectivity(g)
        assert cut.value == 4
        for side in (cut.certificate.side_a, cut.certificate.side_b):
            assert bipartition(induced_subgraph(g, side)[0]) is not None
        odd = odd_cyclic_edge_connectivity(g)
        assert odd.value == lam_oc == _lambda_search(g, DEFAULT_BUDGET, odd=True).value
        assert _certified(g, odd, odd=True)
        if n <= 10:
            assert lam_oc == lambda_oracle(g, True)
