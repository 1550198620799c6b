import hashlib
import json
import random

import pytest

from earpack.budget import SearchBudget
from earpack.graphs import INF, Graph, bfs_distances, is_regular
from earpack.harness import (
    HypothesisReport,
    check_theorem,
    certificate_invariants,
    distance3_matchings,
    enumerate_connected_regular,
    evaluate_hypotheses,
    falsification_sweep,
    tree_boundary_check,
    random_regular,
)
from earpack.matching import Matching, extend_matching
from earpack.catalog import cycle_graph, heawood_graph, random_bipartite_regular


def torus_grid(a: int, b: int) -> Graph:
    """C_a x C_b: 4-regular with controllable diameter."""
    def idx(i, j):
        return i * b + j

    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((idx(i, j), idx((i + 1) % a, j)))
            edges.append((idx(i, j), idx(i, (j + 1) % b)))
    return Graph(a * b, sorted(set(tuple(sorted(e)) for e in edges)))


def torus_prism(a: int, b: int) -> Graph:
    """C_a x C_b x K2: 5-regular."""
    base = torus_grid(a, b)
    n = base.n
    edges = list(base.edges())
    edges += [(u + n, v + n) for u, v in base.edges()]
    edges += [(v, v + n) for v in range(n)]
    return Graph(2 * n, edges)


def grow_induced_tree(g: Graph, rng, size: int) -> list[int]:
    start = rng.randrange(g.n)
    tree = [start]
    members = {start}
    while len(tree) < size:
        candidates = [
            w
            for v in tree
            for w in g.adjacency[v]
            if w not in members
            and sum(1 for x in g.adjacency[w] if x in members) == 1
        ]
        if not candidates:
            break
        pick = rng.choice(sorted(set(candidates)))
        tree.append(pick)
        members.add(pick)
    return tree


def spread_subset(g: Graph, tree: list[int], d: int, rng) -> list[int]:
    chosen: list[int] = []
    order = list(tree)
    rng.shuffle(order)
    for v in order:
        dist = bfs_distances(g, [v])
        if all(dist[w] >= d for w in chosen):
            chosen.append(v)
    return chosen


class TestRandomRegular:
    def test_k4_forced(self):
        g = random_regular(4, 3, seed=0)
        assert g.edge_count == 6

    def test_deterministic(self):
        assert random_regular(10, 3, seed=5) == random_regular(10, 3, seed=5)

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=0)

    def test_degrees(self):
        for seed in range(5):
            g = random_regular(12, 4, seed=seed)
            assert is_regular(g) == 4


class TestEnumeration:
    def test_connected_cubic_counts(self):
        # classical counts of connected cubic graphs
        for n, expected in ((4, 1), (6, 2), (8, 5), (10, 19)):
            assert len(enumerate_connected_regular(n, 3)) == expected

    def test_connected_quartic_counts(self):
        for n, expected in ((5, 1), (6, 1), (7, 2), (8, 6)):
            assert len(enumerate_connected_regular(n, 4)) == expected

    def test_members_are_regular(self):
        for g in enumerate_connected_regular(8, 3):
            assert is_regular(g) == 3


class TestHypothesisReport:
    def test_heawood_two_edge_matching(self):
        # Heawood's maximum edge distance is 2, so no distance-3 pair
        # exists; with m = 2 <= r-1 the theorem asks no distance condition
        h = heawood_graph()
        edges = h.edges()
        from earpack.graphs import edge_distance

        pair = max(
            ((e, f) for i, e in enumerate(edges) for f in edges[i + 1 :]),
            key=lambda p: edge_distance(h, *p),
        )
        assert edge_distance(h, *pair) == 2
        m = Matching.of(h, pair)
        report = evaluate_hypotheses(h, m)
        assert report.r == 3 and report.m == 2
        assert report.lambda_oc == INF
        assert not report.distance3
        # case (ii) needs 4 ears and the infinite odd connectivity
        assert report.k_found >= 4
        assert report.case_ii and report.hypothesis_met
        verdict = check_theorem(h, m)
        assert verdict.extended and verdict.consistent

    def test_empty_matching_rejected(self):
        h = heawood_graph()
        with pytest.raises(ValueError, match="at least 2"):
            evaluate_hypotheses(h, Matching.of(h, []))

    def test_irregular_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="regular"):
            evaluate_hypotheses(g, Matching.of(g, [(0, 1), (2, 3)]))

    def test_case_flags_recompute(self):
        h = heawood_graph()
        m = Matching.of(h, [(0, 7), (2, 9)])
        report = evaluate_hypotheses(h, m)
        up = (report.r + 1) // 2
        expect_i = (
            report.lambda_c is not None
            and report.k_found >= report.m * report.r - up + 1
            and report.lambda_c >= report.m * report.r - report.m + report.theta
        )
        expect_ii = (
            report.lambda_oc is not None
            and report.k_found >= report.m * report.r - report.r + 1
            and report.lambda_oc >= (2 * report.m - 1) * (report.r - 1)
        )
        assert report.case_i == expect_i
        assert report.case_ii == expect_ii

    def test_theta(self):
        kwargs = dict(
            even_order=True,
            distance3=True,
            heavy_neighbor=None,
            k_found=0,
            k_exact=True,
            lambda_c=0,
            lambda_oc=0,
        )
        assert HypothesisReport(r=4, m=2, **kwargs).theta == 1
        assert HypothesisReport(r=3, m=2, **kwargs).theta == 0
        assert HypothesisReport(r=4, m=3, **kwargs).theta == 0

    def test_budget_monotone(self):
        h = heawood_graph()
        m = Matching.of(h, [(0, 7), (2, 9)])
        small = SearchBudget(max_ears=50, max_bb_nodes=100, max_cycles=50, max_cut_pairs=50)
        try:
            low = evaluate_hypotheses(h, m, small)
        except Exception:
            low = None
        high = evaluate_hypotheses(h, m)
        if low is not None:
            assert (not low.case_i) or high.case_i
            assert (not low.case_ii) or high.case_ii


class TestTreeBoundary:
    def test_empty_marked_set(self):
        g = torus_grid(5, 5)
        tree = [0, 1, 2]
        result = tree_boundary_check(g, tree, [], 4)
        assert result.rhs == 0 and result.holds

    def test_singleton_equality(self):
        g = torus_grid(5, 5)
        result = tree_boundary_check(g, [0], [0], 4)
        assert result.lhs == 4 and result.rhs == 4 and result.holds

    def test_precondition_named(self):
        g = torus_grid(5, 5)
        with pytest.raises(ValueError, match=r"\(r-2\)\(d-2\)"):
            tree_boundary_check(g, [0], [0], 3)
        with pytest.raises(ValueError, match="induced tree"):
            tree_boundary_check(g, [0, 1, 5, 6], [0], 4)
        with pytest.raises(ValueError, match="distance-d"):
            tree_boundary_check(g, [0, 1, 2], [0, 1], 4)

    def test_property_sweep(self):
        rng = random.Random(2024)
        hosts = [torus_grid(6, 6), torus_grid(5, 7), torus_prism(4, 5)]
        hosts += [random_regular(26, 4, seed=s) for s in range(3)]
        nontrivial = 0
        for trial in range(120):
            g = hosts[trial % len(hosts)]
            r = is_regular(g)
            d = 4
            tree = grow_induced_tree(g, rng, rng.randrange(3, 14))
            marked = spread_subset(g, tree, d, rng)
            result = tree_boundary_check(g, tree, marked, d)
            assert result.holds, (trial, tree, marked)
            if len(marked) >= 2:
                nontrivial += 1
        assert nontrivial >= 20


class TestCertificateInvariants:
    def test_blocked_instance_rows(self):
        # cubic, even order, blocked: vertex 0's star pendant blocks
        from earpack.constructions import smallest_sharpness_lambda

        out = smallest_sharpness_lambda()
        res = extend_matching(out.graph, out.matching)
        assert not res.extended
        rows = certificate_invariants(out.graph, out.matching, res.barrier)
        identity = [r for r in rows if r.name == "boundary_identity"]
        assert identity and identity[0].holds and identity[0].asserted
        # the instance defeats the theorem's hypotheses, so the claim-style
        # rows are reported but never asserted; here both wings hold odd
        # cycles and the at-most-one bound genuinely fails
        q2_rows = [r for r in rows if r.name == "nonbipartite_odd_components"]
        assert q2_rows[0].lhs == 2
        assert not q2_rows[0].holds and not q2_rows[0].asserted


class TestSharpnessInstancesAreNotTheoremInputs:
    def test_sharpness_witnesses_fail_hypotheses(self):
        # blocked extension is only consistent because the hypotheses fail
        from earpack.constructions import (
            smallest_sharpness_ii,
            smallest_sharpness_lambda,
        )
        from earpack.constructions import VERIFY_BUDGET

        for make in (smallest_sharpness_ii, smallest_sharpness_lambda):
            out = make()
            verdict = check_theorem(out.graph, out.matching, VERIFY_BUDGET)
            assert not verdict.extended
            assert not verdict.report.hypothesis_met
            assert verdict.consistent


class TestBundles:
    def test_bundle_payload_replayable(self, tmp_path):
        from earpack.harness import _write_bundle
        from earpack.graphs import parse_graph
        import json as _json

        g = heawood_graph()
        m = Matching.of(g, [(0, 7), (2, 9)])
        verdict = check_theorem(g, m)
        path = _write_bundle(tmp_path, g, m, 3, seed=42, verdict=verdict)
        data = _json.loads(path.read_text())
        assert parse_graph(data["graph6"], "graph6") == g
        assert [tuple(e) for e in data["matching"]] == list(m.edges)
        assert data["seed"] == 42 and data["version"]


class TestSweep:
    def test_zero_samples(self):
        summary = falsification_sweep([10], 3, 0, seed=1)
        assert summary.samples == 0 and summary.inconsistent == 0

    def test_small_sweep_consistent(self):
        summary = falsification_sweep([8, 10, 12], 3, 12, seed=5)
        assert summary.samples == 12
        assert summary.inconsistent == 0
        assert summary.consistent == summary.matchings_checked

    def test_distance3_matchings_respect_distance(self):
        g = cycle_graph(12)
        found = distance3_matchings(g, cap=10, seed=3)
        from earpack.matching import is_distance_d_matching

        assert found
        for m in found:
            assert m.m >= 2
            assert is_distance_d_matching(g, m, 3)

    def test_heawood_has_no_distance3_matchings(self):
        assert distance3_matchings(heawood_graph(), cap=10, seed=3) == []

    def test_bipartite_mode_checks_flow_bound(self):
        summary = falsification_sweep([16], 4, 4, seed=11, bipartite=True)
        assert summary.inconsistent == 0
        assert summary.flow_bound_violations == 0
        assert summary.flow_bound_checked == summary.matchings_checked


def matchings_digest(g, seed):
    found = distance3_matchings(g, cap=8, seed=seed)
    payload = json.dumps([[list(e) for e in m.edges] for m in found])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestDistance3Pins:
    # digests recorded when each greedy pass read an all-pairs distance table
    @pytest.mark.parametrize(
        "n, r, seed, digest",
        [
            (12, 3, 1, "25d2dbf7ae3bdfb9"),
            (20, 3, 2, "cb487501182ad1ce"),
            (100, 3, 1, "7fe66541f1c7a4c2"),
            (250, 3, 3, "12212f6da4afa17f"),
            (1000, 3, 1, "453d7a3832207099"),
            (30, 4, 1, "36abef6040970c99"),
            (200, 4, 2, "c3688a1cddf12ac1"),
            (40, 5, 1, "c1aa27c5ff341fd5"),
        ],
    )
    def test_random_regular_hosts(self, n, r, seed, digest):
        assert matchings_digest(random_regular(n, r, seed=seed), seed) == digest

    @pytest.mark.parametrize(
        "side, r, seed, digest",
        [
            (10, 3, 1, "8873bb41a6a28182"),
            (60, 3, 2, "6b48ba7b70f75cd1"),
            (150, 4, 1, "59d27c4c3955121d"),
        ],
    )
    def test_bipartite_hosts(self, side, r, seed, digest):
        assert matchings_digest(random_bipartite_regular(side, r, seed=seed), seed) == digest
