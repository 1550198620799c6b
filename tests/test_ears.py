import random
import sys

import pytest

from earpack.budget import SearchBudget
from earpack.ears import (
    Ear,
    EarPacking,
    max_odd_ear_packing,
    validate_ear,
    verify_packing,
)
from earpack.graphs import Graph
from earpack.matching import Matching
from earpack.catalog import (
    cycle_graph,
    heawood_graph,
    random_bipartite_regular,
    tutte_coxeter_graph,
)
from earpack.harness import random_regular

from oracles import brute_max_odd_ear_packing


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def star():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


class TestValidateEar:
    def test_single_edge_between_anchors(self):
        ear = Ear("path", (0, 1))
        assert validate_ear(k4(), {0, 1}, ear)
        assert ear.is_odd

    def test_even_path_through_center(self):
        ear = Ear("path", (1, 0, 2))
        assert validate_ear(star(), {1, 2, 3}, ear)
        assert not ear.is_odd

    def test_cycle_through_one_anchor(self):
        ear = Ear("cycle", (0, 2, 3))
        assert validate_ear(k4(), {0, 1}, ear)
        assert ear.is_odd and ear.length == 3

    def test_interior_anchor_rejected(self):
        verdict = validate_ear(k4(), {0, 1, 2}, Ear("path", (0, 2, 1)))
        assert not verdict and "interior" in verdict.reason

    def test_cycle_with_two_anchors_rejected(self):
        assert not validate_ear(k4(), {0, 2}, Ear("cycle", (0, 2, 3)))

    def test_non_edge_rejected(self):
        assert not validate_ear(star(), {1, 2}, Ear("path", (1, 2)))


class TestVerifyPacking:
    def test_empty(self):
        assert verify_packing(k4(), EarPacking(frozenset({0, 1}), ()))

    def test_shared_edge_rejected(self):
        ears = (Ear("path", (0, 1)), Ear("path", (0, 1)))
        verdict = verify_packing(k4(), EarPacking(frozenset({0, 1}), ears))
        assert not verdict and "shares" in verdict.reason

    def test_even_ear_rejected(self):
        packing = EarPacking(frozenset({1, 2}), (Ear("path", (1, 0, 2)),))
        assert not verify_packing(star(), packing)
        assert verify_packing(star(), packing, require_odd=False)


class TestExactPacking:
    def test_star_leaves_zero(self):
        res = max_odd_ear_packing(star(), [1, 2, 3])
        assert res.packing.k == 0 and res.exact

    def test_k4_value_frozen_by_oracle(self):
        # exhaustive enumeration of odd-ear sets gives 2: a third odd ear
        # would need 1+3+3 = 7 > 6 edges
        assert brute_max_odd_ear_packing(k4(), frozenset({0, 1})) == 2
        res = max_odd_ear_packing(k4(), [0, 1])
        assert res.exact and res.packing.k == 2

    def test_oracle_agreement_random(self):
        # densities mirror the regular-graph corpus; the unpruned oracle
        # is the limiting factor on denser hosts
        rng = random.Random(13)
        for trial in range(60):
            n = rng.randrange(4, 10)
            p = rng.uniform(0.2, 0.5)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            u = frozenset(rng.sample(range(n), rng.randrange(1, min(n, 4) + 1)))
            res = max_odd_ear_packing(g, u)
            assert res.exact
            assert res.packing.k == brute_max_odd_ear_packing(g, u), (g.edges(), sorted(u))
            assert verify_packing(g, res.packing)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(3)
        for trial in range(20):
            n = 7
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
            g1 = Graph(n, edges)
            missing = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g1.has_edge(u, v)
            ]
            if not missing:
                continue
            g2 = Graph(n, edges + [rng.choice(missing)])
            u = frozenset(rng.sample(range(n), 3))
            assert (
                max_odd_ear_packing(g2, u).packing.k
                >= max_odd_ear_packing(g1, u).packing.k
            )

    def test_budget_status_distinct_from_impossible(self):
        g = random_regular(12, 3, seed=8)
        if __import__("earpack.graphs", fromlist=["bipartition"]).bipartition(g) is not None:
            pytest.skip("needs a non-bipartite sample")
        starved = SearchBudget(max_ears=3, max_bb_nodes=1)
        res = max_odd_ear_packing(g, [0, 1, 2, 3], target=50, budget=starved)
        assert res.status == "budget"

    def test_deep_search_runs_at_a_low_recursion_limit(self):
        # hundreds of ears on one search path: the branch and bound keeps its
        # path on an explicit stack, not the interpreter's
        g = random_regular(400, 3, seed=1)
        u = random.Random(2).sample(range(400), 200)
        budget = SearchBudget(max_ears=5000, max_bb_nodes=300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            res = max_odd_ear_packing(g, u, budget=budget)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.status, res.packing.k) == ("budget", 205)

    def test_target_met_stops_early(self):
        h = heawood_graph()
        e = h.edges()[0]
        res = max_odd_ear_packing(h, list(e), target=3)
        assert res.packing.k >= 3 and res.status in ("target-met", "exact")


class TestBipartitePacking:
    def test_heawood_single_edge(self):
        h = heawood_graph()
        m = Matching.of(h, [h.edges()[0]])
        result = max_odd_ear_packing(h, m.covered)
        assert result.status == "exact" and result.packing.k == 3
        assert verify_packing(h, result.packing)

    def test_c6_single_edge(self):
        g = cycle_graph(6)
        packing = max_odd_ear_packing(g, [0, 1]).packing
        assert packing.k == 2
        assert {e.length for e in packing.ears} == {1, 5}

    def test_all_flow_ears_odd(self):
        for seed in range(6):
            g = random_bipartite_regular(8, 3, seed=seed)
            edges = list(g.edges())
            m = Matching.of(g, [edges[0]])
            packing = max_odd_ear_packing(g, m.covered).packing
            assert all(e.is_odd for e in packing.ears)
            assert verify_packing(g, packing)

    def test_flow_equals_exact_maximum_on_small_bipartite(self):
        # in a bipartite host the flow route is provably a maximum packing;
        # cross-check against the exhaustive oracle
        rng = random.Random(29)
        for seed in range(25):
            g = random_bipartite_regular(4, rng.choice([2, 3]), seed=seed)
            edges = list(g.edges())
            rng.shuffle(edges)
            chosen, used = [], set()
            for e in edges[:2]:
                if e[0] not in used and e[1] not in used:
                    chosen.append(e)
                    used.update(e)
            m = Matching.of(g, chosen)
            result = max_odd_ear_packing(g, m.covered)
            assert result.status == "exact"
            assert result.packing.k == brute_max_odd_ear_packing(g, m.covered)

    def test_bad_sets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            max_odd_ear_packing(cycle_graph(4), [])
        for g in (cycle_graph(4), cycle_graph(5)):  # flow and branch and bound
            for bad in ([0, g.n], [0, -1]):
                with pytest.raises(ValueError, match="out of range"):
                    max_odd_ear_packing(g, bad)

    def test_flow_bound_on_cages(self):
        # min(lambda_c, m*r) attained exactly at desk scale
        h = heawood_graph()
        m = Matching.of(h, [h.edges()[0]])
        assert max_odd_ear_packing(h, m.covered).packing.k == 3  # min(6, 3)
        tc = tutte_coxeter_graph()
        m = Matching.of(tc, [tc.edges()[0]])
        assert max_odd_ear_packing(tc, m.covered).packing.k == 3
