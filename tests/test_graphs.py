import hashlib

import pytest
from hypothesis import given, strategies as st

from earpack.graphs import (
    INF,
    Graph,
    GraphFormatError,
    bipartition,
    boundary_edges,
    chordless_cycles,
    connected_components,
    cycle_edges,
    edge_distance,
    girth,
    induced_subgraph,
    is_regular,
    parse_graph,
    serialize_graph,
    vertex_distance,
)
from earpack.catalog import (
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    petersen_graph,
    prism_graph,
    tutte_coxeter_graph,
)
from earpack.harness import random_regular

from oracles import encode_graph6_reference


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, picks)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestGraphType:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, [(0, 0)])

    def test_rejects_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            Graph(2, [(0, 5)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 3)])
        assert g.adjacency[0] == (2, 3)
        for u in range(4):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]


class TestSerialization:
    def test_edgelist_triangle(self):
        assert serialize_graph(triangle(), "edgelist") == b"0 1\n0 2\n1 2"

    def test_edgelist_parse_explicit(self):
        g = parse_graph(b"0 1\n1 2\n2 0", "edgelist")
        assert g == triangle()

    def test_edgelist_loop_rejected(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(b"0 0", "edgelist")
        assert err.value.offset is not None

    def test_edgelist_comments_ignored(self):
        g = parse_graph(b"# a triangle\n0 1\n1 2\n# middle note\n2 0\n", "edgelist")
        assert g == triangle()

    def test_edgelist_isolated_vertices_round_trip(self):
        g = Graph(5, [(0, 1)])
        assert parse_graph(serialize_graph(g, "edgelist"), "edgelist") == g

    def test_petersen_graph6_fixture(self):
        # frozen after deriving it once with the reference bit encoder
        data = serialize_graph(petersen_graph(), "graph6")
        assert data == b"IheA@GUAo"
        assert data == encode_graph6_reference(petersen_graph())

    def test_graph6_bad_padding(self):
        good = bytearray(serialize_graph(petersen_graph(), "graph6"))
        good[-1] = ((good[-1] - 63) | 1) + 63  # set the lowest padding bit
        with pytest.raises(GraphFormatError):
            parse_graph(bytes(good), "graph6")

    def test_graph6_wrong_length(self):
        with pytest.raises(GraphFormatError):
            parse_graph(b"I" + b"?" * 3, "graph6")

    def test_graph6_header_prefix(self):
        data = b">>graph6<<" + serialize_graph(triangle(), "graph6")
        assert parse_graph(data, "graph6") == triangle()

    @given(graphs())
    def test_round_trip_both_formats(self, g):
        for fmt in ("graph6", "edgelist"):
            assert parse_graph(serialize_graph(g, fmt), fmt) == g

    @given(graphs(max_n=30))
    def test_graph6_matches_reference_encoder(self, g):
        assert serialize_graph(g, "graph6") == encode_graph6_reference(g)


class TestDistances:
    def test_self_distance(self):
        assert vertex_distance(triangle(), 1, 1) == 0

    def test_path_distance(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert vertex_distance(g, 0, 2) == 2

    def test_cross_component_infinite(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert vertex_distance(g, 0, 3) == INF

    def test_adjacent_edges_distance_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert edge_distance(g, (0, 1), (1, 2)) == 0

    def test_path_edge_distance(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert edge_distance(g, (0, 1), (2, 3)) == 1

    def test_c6_opposite_edges(self):
        assert edge_distance(cycle_graph(6), (0, 1), (3, 4)) == 2

    def test_equal_edges_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            edge_distance(triangle(), (0, 1), (1, 0))

    @given(graphs())
    def test_edge_distance_symmetric_and_tight(self, g):
        edges = g.edges()
        for i in range(min(len(edges), 4)):
            for j in range(i + 1, min(len(edges), 5)):
                e, f = edges[i], edges[j]
                d = edge_distance(g, e, f)
                assert d == edge_distance(g, f, e)
                pairwise = [vertex_distance(g, u, v) for u in e for v in f]
                assert d == min(pairwise)


class TestStructure:
    def test_regular(self):
        assert is_regular(petersen_graph()) == 3
        assert is_regular(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None
        assert is_regular(Graph(4)) == 0

    def test_bipartition_c4(self):
        assert bipartition(cycle_graph(4)) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_bipartition_triangle(self):
        assert bipartition(triangle()) is None

    def test_bipartition_heawood_balanced(self):
        black, white = bipartition(heawood_graph())
        assert len(black) == len(white) == 7

    def test_girth(self):
        assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == INF
        assert girth(petersen_graph()) == 5
        assert girth(complete_bipartite(3, 3)) == 4
        assert girth(heawood_graph()) == 6
        assert girth(tutte_coxeter_graph()) == 8

    def test_chordless_k4(self):
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        found = chordless_cycles(k4)
        assert sorted(len(c) for c in found.cycles) == [3, 3, 3, 3]
        assert not found.truncated

    def test_chordless_c5(self):
        found = chordless_cycles(cycle_graph(5))
        assert len(found.cycles) == 1

    def test_chordless_tree_empty(self):
        assert chordless_cycles(Graph(4, [(0, 1), (1, 2), (1, 3)])).cycles == ()

    # (count, truncated, digest of the cycle tuple) recorded before the
    # bitmask enumeration: a capped run must stop at the same cycle
    @pytest.mark.parametrize(
        "make, caps, count, truncated, digest",
        [
            (lambda: random_regular(30, 3, seed=11), {"step_cap": 3000}, 226, True, "c89a95305cd2e6d5"),
            (lambda: random_regular(34, 3, seed=2), {"step_cap": 20000}, 814, False, "fb9b3bbcbe0a561c"),
            (lambda: prism_graph(10), {"cap": 40}, 40, True, "df85fbff171a433f"),
            (lambda: random_regular(16, 4, seed=5), {"cap": 100}, 100, True, "930c41fe6eb6e8d0"),
            (lambda: random_regular(26, 3, seed=3), {}, 116, False, "e4786383c1a6f77e"),
        ],
    )
    def test_chordless_pinned(self, make, caps, count, truncated, digest):
        found = chordless_cycles(make(), **caps)
        assert (len(found.cycles), found.truncated) == (count, truncated)
        assert hashlib.sha256(repr(found.cycles).encode()).hexdigest()[:16] == digest

    def test_chordless_cap_sets_flag(self):
        found = chordless_cycles(petersen_graph(), cap=3)
        assert found.truncated and len(found.cycles) == 3

    @given(graphs())
    def test_chordless_are_chord_free(self, g):
        found = chordless_cycles(g)
        for cyc in found.cycles:
            k = len(cyc)
            assert len(set(cyc)) == k
            on_cycle = cycle_edges(cyc)
            for i in range(k):
                for j in range(i + 1, k):
                    e = tuple(sorted((cyc[i], cyc[j])))
                    if g.has_edge(*e):
                        assert e in on_cycle, f"chord {e} in {cyc}"

    @given(graphs())
    def test_girth_matches_chordless_minimum(self, g):
        found = chordless_cycles(g)
        expected = min((len(c) for c in found.cycles), default=INF)
        assert girth(g) == expected

    def test_induced_empty_and_full(self):
        p = petersen_graph()
        empty, _ = induced_subgraph(p, ())
        assert empty.n == 0
        full, back = induced_subgraph(p, range(10))
        assert full == p and back == tuple(range(10))

    def test_petersen_minus_outer_cycle(self):
        p = petersen_graph()
        inner, _ = induced_subgraph(p, range(5, 10))
        assert inner.edge_count == 5 and girth(inner) == 5

    def test_boundary(self):
        p = petersen_graph()
        assert boundary_edges(p, ()) == frozenset()
        assert len(boundary_edges(p, [0])) == 3
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert boundary_edges(two_triangles, [0, 1, 2]) == frozenset()

    def test_components_ordered(self):
        g = Graph(5, [(3, 4), (0, 1)])
        assert connected_components(g) == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4}),
        ]


class TestForestBoundaryIdentity:
    """For an induced forest H in an r-regular graph:
    |E(H, rest)| = r|V(H)| - 2|E(H)| >= r (nonempty H)."""

    def test_random_induced_forests(self):
        import random

        from earpack.harness import random_regular

        rng = random.Random(5)
        for trial in range(40):
            r = rng.choice([3, 4])
            n = rng.choice([10, 12, 14])
            g = random_regular(n, r, seed=trial)
            # grow a random induced forest: add vertices adjacent to at most
            # one chosen vertex
            chosen: list[int] = []
            for v in rng.sample(range(n), n):
                if sum(1 for w in g.adjacency[v] if w in chosen) <= 1:
                    chosen.append(v)
                if len(chosen) >= rng.randrange(1, n // 2 + 1):
                    break
            inner = sum(1 for u in chosen for w in g.adjacency[u] if w in chosen) // 2
            out = len(boundary_edges(g, chosen))
            assert out == r * len(chosen) - 2 * inner
            assert out >= r
