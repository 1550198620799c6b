import hashlib
import json
import random

import pytest

from earpack.graphs import Graph, induced_subgraph
from earpack.matching import (
    Matching,
    barrier_from_json,
    build_barrier,
    boundary_identity_sides,
    extend_matching,
    greedy_spaced_matching,
    heavy_neighbor_exists,
    is_distance_d_matching,
    matching_distance,
    maximum_matching,
    verify_barrier,
)
from earpack.catalog import (
    cycle_graph,
    heawood_graph,
    petersen_graph,
    random_bipartite_regular,
    tutte_coxeter_graph,
)
from earpack.harness import distance3_matchings, random_regular

from oracles import brute_max_matching, gallai_edmonds_barrier, spaced_matching_reference


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def random_graph(rng, n_max=12):
    n = rng.randrange(1, n_max + 1)
    p = rng.uniform(0.1, 0.7)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_matching(rng, g, k):
    pool = list(g.edges())
    rng.shuffle(pool)
    chosen, used = [], set()
    for e in pool:
        if e[0] not in used and e[1] not in used:
            chosen.append(e)
            used.update(e)
            if len(chosen) == k:
                break
    return Matching.of(g, chosen)


class TestMatchingType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Matching.of(k4(), [(0, 1), (1, 2)])

    def test_rejects_non_edge(self):
        with pytest.raises(ValueError, match="not an edge"):
            Matching.of(cycle_graph(4), [(0, 2)])

    def test_covered(self):
        m = Matching.of(k4(), [(0, 1), (2, 3)])
        assert m.m == 2 and m.covered == frozenset(range(4))


class TestMaximumMatching:
    def test_c4(self):
        assert maximum_matching(cycle_graph(4)).m == 2

    def test_star(self):
        assert maximum_matching(Graph(4, [(0, 1), (0, 2), (0, 3)])).m == 1

    def test_petersen_perfect(self):
        m = maximum_matching(petersen_graph())
        assert m.m == 5 and m.covered == frozenset(range(10))

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(250):
            g = random_graph(rng)
            assert maximum_matching(g).m == brute_max_matching(g)

    def test_deterministic(self):
        g = random_regular(12, 3, seed=3)
        assert maximum_matching(g) == maximum_matching(g)


class TestExtension:
    def test_odd_order_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="even"):
            extend_matching(g, Matching.of(g, [(0, 1)]))

    def test_k4_one_edge(self):
        res = extend_matching(k4(), Matching.of(k4(), [(0, 1)]))
        assert res.extended
        assert (2, 3) in res.perfect_matching.edges

    def test_heawood_every_edge_extends(self):
        h = heawood_graph()
        for e in h.edges():
            assert extend_matching(h, Matching.of(h, [e])).extended

    def test_extends_iff_remainder_has_perfect_matching(self):
        rng = random.Random(23)
        seen_blocked = 0
        for trial in range(200):
            n = rng.randrange(2, 7) * 2
            p = rng.uniform(0.15, 0.6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            if not g.edges():
                continue
            m = random_matching(rng, g, rng.randrange(1, 3))
            res = extend_matching(g, m)
            rest = frozenset(range(n)) - m.covered
            sub, _ = induced_subgraph(g, rest)
            has_pm = maximum_matching(sub).m * 2 == sub.n
            assert res.extended == has_pm
            if res.extended:
                assert set(m.edges) <= set(res.perfect_matching.edges)
                assert res.perfect_matching.covered == frozenset(range(n))
            else:
                seen_blocked += 1
                verdict = verify_barrier(g, m, res.barrier)
                assert verdict, verdict.reason
        assert seen_blocked > 10


class TestGallaiEdmondsBarrier:
    def test_barrier_is_gallai_edmonds_set(self):
        rng = random.Random(31)
        blocked = nonempty = 0
        for _ in range(1200):
            g = random_graph(rng, n_max=14)
            if g.n % 2 or not g.edges():
                continue
            m = random_matching(rng, g, rng.randrange(0, 3))
            res = extend_matching(g, m)
            if res.extended:
                continue
            blocked += 1
            h, back = induced_subgraph(g, frozenset(range(g.n)) - m.covered)
            expected = frozenset(back[v] for v in gallai_edmonds_barrier(h))
            assert res.barrier.S == expected
            nonempty += bool(expected)
        assert blocked > 250 and nonempty > 50


def blocking_matchings(g, count):
    """Match the neighbours of a vertex away from it, for the first ``count``
    vertices where that works; each leaves its vertex isolated in G - V(M)."""
    out = []
    for v in range(g.n):
        used, pairs = set(g.adjacency[v]) | {v}, []
        for a in g.adjacency[v]:
            partner = next((b for b in g.adjacency[a] if b not in used), None)
            if partner is None:
                break
            used.add(partner)
            pairs.append((a, partner))
        else:
            out.append(Matching.of(g, pairs))
            if len(out) == count:
                return out
    return out


def extension_digest(n, seed):
    """sha256 over the extend_matching results of two blocking, two random
    and three distance-3 matchings on random_regular(n, 3, seed)."""
    g = random_regular(n, 3, seed=seed)
    rng = random.Random(seed)
    matchings = (
        blocking_matchings(g, 2)
        + [random_matching(rng, g, n // 10) for _ in range(2)]
        + distance3_matchings(g, cap=3, seed=seed)
    )
    h = hashlib.sha256()
    for m in matchings:
        res = extend_matching(g, m)
        if res.extended:
            payload = {"perfect_matching": [list(e) for e in res.perfect_matching.edges]}
        else:
            payload = {"barrier": res.barrier.to_json_dict()}
        h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


class TestGreedySpacedMatching:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_the_all_pairs_greedy(self, seed):
        rng = random.Random(seed)
        hosts = [
            random_regular(rng.choice((12, 20, 30, 40)), rng.choice((3, 4)), seed=seed),
            random_bipartite_regular(rng.choice((6, 10, 15)), rng.choice((3, 4)), seed=seed),
            random_graph(rng, n_max=16),  # possibly disconnected
        ]
        for g in hosts:
            edges = list(g.edges())
            for d in range(1, 5):
                for limit in (None, 1, 3):
                    rng.shuffle(edges)
                    assert greedy_spaced_matching(g, edges, d, limit) == spaced_matching_reference(
                        g, edges, d, limit
                    ), (g, d, limit)

    @pytest.mark.parametrize("d", [0, -1])
    def test_separation_below_one_rejected(self, d):
        with pytest.raises(ValueError, match="at least 1"):
            greedy_spaced_matching(k4(), k4().edges(), d)


class TestExtensionPins:
    # digests recorded before the barrier was read off the blossom search
    @pytest.mark.parametrize(
        "n, seed, digest",
        [
            (250, 1, "168ca71b47d00fd466dc616628446f8ade8dae4f8a320f2625ba32231e16aca9"),
            (250, 2, "27bee951225f0586f13c2424705bb3b8c1231e5e764c2149043163946bcba9ff"),
            (500, 1, "ab98446a6b62719835c18833c23da26bcb69c1e20b418dddaed06531c670383b"),
            (500, 2, "3305f800949229383b6bdda61f1fd4e5ea54af9f43f796f54852d2e7ae1977b1"),
        ],
    )
    def test_pinned_results(self, n, seed, digest):
        assert extension_digest(n, seed) == digest


class TestBarrier:
    def test_k4_empty_s_fails(self):
        g = k4()
        m = Matching.of(g, [(0, 1)])
        cert = build_barrier(g, m, [])
        assert not verify_barrier(g, m, cert)  # single even component {2,3}

    def test_s_overlapping_matching_rejected(self):
        g = k4()
        m = Matching.of(g, [(0, 1)])
        with pytest.raises(ValueError):
            build_barrier(g, m, [0])

    def test_tampered_certificate_detected(self):
        # removing V(M) leaves four isolated vertices: no perfect matching
        g = Graph(6, [(0, 1), (1, 2), (2, 3)])
        m = Matching.of(g, [(1, 2)])
        res = extend_matching(g, m)
        assert not res.extended
        cert = res.barrier
        assert verify_barrier(g, m, cert)
        wrong = barrier_from_json(
            {**cert.to_json_dict(), "m_star": cert.m_star + 1}
        )
        verdict = verify_barrier(g, m, wrong)
        assert not verdict and "m_star" in verdict.reason

    def test_s_intersecting_matched_vertices_fails(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3)])
        m = Matching.of(g, [(1, 2)])
        cert = extend_matching(g, m).barrier
        bad = barrier_from_json({**cert.to_json_dict(), "S": [1]})
        verdict = verify_barrier(g, m, bad)
        assert not verdict and "V(M)" in verdict.reason

    def test_json_round_trip(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3)])
        m = Matching.of(g, [(1, 2)])
        cert = extend_matching(g, m).barrier
        data = cert.to_json_dict()
        assert set(data) == {"S", "components", "odd", "m_star", "mu", "q1", "q2"}
        assert barrier_from_json(data) == cert


class TestDistancePredicates:
    def test_singleton_always(self):
        g = cycle_graph(6)
        m = Matching.of(g, [(0, 1)])
        for d in range(6):
            assert is_distance_d_matching(g, m, d)

    def test_c6_opposite(self):
        g = cycle_graph(6)
        m = Matching.of(g, [(0, 1), (3, 4)])
        assert is_distance_d_matching(g, m, 2)
        assert not is_distance_d_matching(g, m, 3)
        assert matching_distance(g, m) == 2

    def test_consecutive_edges_distance_one(self):
        # disjoint edges are at distance >= 1 by definition; these touch via
        # the single edge (1, 2)
        g = cycle_graph(6)
        m = Matching.of(g, [(0, 1), (2, 3)])
        assert is_distance_d_matching(g, m, 1)
        assert not is_distance_d_matching(g, m, 2)


class TestHeavyNeighbor:
    def test_empty_matching(self):
        g = k4()
        assert heavy_neighbor_exists(g, Matching.of(g, []), 3) is None

    def test_k4(self):
        g = k4()
        assert heavy_neighbor_exists(g, Matching.of(g, [(0, 1)]), 3) == 2

    def test_heawood_girth_blocks(self):
        h = heawood_graph()
        m = Matching.of(h, [h.edges()[0]])
        assert heavy_neighbor_exists(h, m, 3) is None


class TestBoundaryIdentity:
    def test_k4_worked_example(self):
        g = k4()
        sides = boundary_identity_sides(g, Matching.of(g, [(0, 1)]), [])
        assert sides.lhs == 4 and sides.rhs == 4

    def test_empty_everything(self):
        g = petersen_graph()
        sides = boundary_identity_sides(g, Matching.of(g, []), [])
        assert sides.lhs == sides.rhs == 0

    def test_irregular_rejected(self):
        g = Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="regular"):
            boundary_identity_sides(g, Matching.of(g, [(0, 1)]), [])

    def test_randomized_identity(self):
        rng = random.Random(97)
        for trial in range(150):
            r = rng.choice([3, 4, 5])
            n = rng.choice([8, 10, 12])
            if n * r % 2:
                n += 1
            g = random_regular(n, r, seed=trial)
            m = random_matching(rng, g, rng.randrange(0, 4))
            rest = sorted(set(range(n)) - m.covered)
            s = rng.sample(rest, min(len(rest), rng.randrange(0, 5)))
            sides = boundary_identity_sides(g, m, s)
            assert sides.lhs == sides.rhs


class TestKoenigProperty:
    def test_random_regular_bipartite_single_edges(self):
        for seed in range(8):
            g = random_bipartite_regular(7, 3, seed=seed)
            for e in list(g.edges())[:5]:
                assert extend_matching(g, Matching.of(g, [e])).extended

    def test_tutte_coxeter(self):
        tc = tutte_coxeter_graph()
        for e in list(tc.edges())[:10]:
            assert extend_matching(tc, Matching.of(tc, [e])).extended
