import pytest

from earpack.catalog import (
    base_catalog,
    gamma_base,
    heawood_graph,
    projective_plane_incidence,
    random_bipartite_regular,
    strip_matching_base,
    tutte_coxeter_graph,
)
from earpack.constructions import (
    GUARANTEED,
    build_ear_shortfall_counterexample,
    build_sharpness_i,
    build_sharpness_lambda,
    construction_from_sidecar,
    smallest_counterexample,
    smallest_sharpness_i,
    smallest_sharpness_lambda,
    smallest_sharpness_ii,
    verify_expectations,
)
from earpack.graphs import Graph, bipartition, girth, is_regular, serialize_graph
from earpack.matching import Matching, is_distance_d_matching


class TestCatalog:
    def test_r3_girth6(self):
        g = base_catalog(3, 6)
        assert g == heawood_graph()

    def test_r3_girth8(self):
        g = base_catalog(3, 8)
        assert g == tutte_coxeter_graph()

    def test_r3_unreachable_girth(self):
        assert base_catalog(3, 20, swap_budget=50) is None

    def test_r4_r5_incidence(self):
        for r in (4, 5):
            g = base_catalog(r, 6)
            assert is_regular(g) == r
            assert girth(g) == 6
            assert bipartition(g) is not None

    def test_pg_orders(self):
        g = projective_plane_incidence(3)
        assert g.n == 26 and is_regular(g) == 4 and girth(g) == 6


class TestGamma:
    def test_heawood_single_removal(self):
        base = gamma_base(heawood_graph(), 1, 1)
        assert base.ell == 1
        degrees = sorted(base.graph.degree(v) for v in range(14))
        assert degrees.count(2) == 2 and degrees.count(3) == 12

    def test_tutte_coxeter_two_spaced(self):
        base = gamma_base(tutte_coxeter_graph(), 2, 2)
        assert base.ell == 2
        assert base.measured["separation"] >= 3
        strip = Matching.of(
            tutte_coxeter_graph(),
            list(zip(base.side_b_deficient, base.side_w_deficient)),
        )
        assert is_distance_d_matching(tutte_coxeter_graph(), strip, 3)

    def test_girth_precondition(self):
        with pytest.raises(ValueError, match="girth"):
            gamma_base(heawood_graph(), 3, 3)

    def test_pairing_recorded_in_order(self):
        base = gamma_base(tutte_coxeter_graph(), 2, 2)
        black, _ = bipartition(tutte_coxeter_graph())
        assert all(v in black for v in base.side_b_deficient)


class TestStripBase:
    def test_separation_respected(self):
        src = random_bipartite_regular(40, 3, seed=1)
        base = strip_matching_base(src, 6, min_separation=3, seed=1)
        assert base.ell == 6
        assert base.measured["separation"] >= 2  # partners may sit closer

    def test_impossible_separation_raises(self):
        with pytest.raises(RuntimeError):
            strip_matching_base(heawood_graph(), 4, min_separation=2, seed=0, tries=40)


def lambda_row(out):
    """The report and its lambda_c_at_least row."""
    report = verify_expectations(out)
    return report, next(row for row in report.rows if row.prop == "lambda_c_at_least")


class TestCounterexample:
    def test_k1_rejected(self):
        src = random_bipartite_regular(40, 3, seed=0)
        base = strip_matching_base(src, 6, min_separation=2, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            build_ear_shortfall_counterexample(1, base)

    def test_smallest_instance(self):
        out = smallest_counterexample()
        g, m = out.graph, out.matching
        k = out.params["k"]
        assert is_regular(g) == 3
        assert bipartition(g) is not None
        assert m.m == 2 * k + 1
        assert is_distance_d_matching(g, m, 4)
        report = verify_expectations(out)
        assert report.ok, [r for r in report.rows if r.basis == GUARANTEED and not r.ok]

    def test_ear_shortfall_is_structural(self):
        out = smallest_counterexample()
        k = out.params["k"]
        rows = {r.prop: r for r in verify_expectations(out).rows}
        assert rows["cut_tree_base_size"].measured == 5 * k + 4
        assert rows["odd_ears_at_most"].measured <= 5 * k + 4
        assert rows["odd_ears_below"].measured < 6 * k + 3

    def test_default_size_settles_lambda_below_the_prediction(self):
        # the boundary of a 4-cycle: the default size is not asymptotic
        report, row = lambda_row(smallest_counterexample())
        assert (row.predicted, row.measured, row.ok) == (15, 4, False)
        assert report.ok


class TestSharpnessI:
    def test_smallest_instance(self):
        out = smallest_sharpness_i()
        report = verify_expectations(out)
        assert report.ok, [r for r in report.rows if r.basis == GUARANTEED and not r.ok]
        assert is_regular(out.graph) == 3
        assert out.graph.n % 2 == 0

    def test_wrong_deficiency_rejected(self):
        base2 = strip_matching_base(heawood_graph(), 4, 1, seed=0)
        with pytest.raises(ValueError, match="deficient pairs"):
            build_sharpness_i(2, 3, base2, base2)

    def test_default_size_settles_lambda_below_the_prediction(self):
        # the boundary of a 4-cycle: the default size is not asymptotic
        report, row = lambda_row(smallest_sharpness_i())
        assert (row.predicted, row.measured, row.ok) == (5, 4, False)
        assert report.ok

    def test_names_cover_roles(self):
        out = smallest_sharpness_i()
        labels = set(out.names.values())
        assert {"q_1", "q_2", "b_1", "w_2", "x_1"} <= labels


class TestSharpnessLambda:
    def test_smallest_instance_odd_case(self):
        out = smallest_sharpness_lambda()
        assert out.params["parity_case"] == "odd"
        report = verify_expectations(out)
        assert report.ok

    def test_even_case_m2_r4(self):
        base = strip_matching_base(projective_plane_incidence(3), 5, 1, seed=3)
        out = build_sharpness_lambda(2, 4, base)
        assert out.params["parity_case"] == "even"
        assert is_regular(out.graph) == 4
        report = verify_expectations(out)
        assert report.ok, [r for r in report.rows if r.basis == GUARANTEED and not r.ok]


class TestSharpnessII:
    def test_smallest_instance(self):
        out = smallest_sharpness_ii()
        report = verify_expectations(out)
        assert report.ok
        assert out.graph.n == 30 and out.graph.n % 2 == 0
        assert is_regular(out.graph) == 3

    def test_not_bipartite_after_patch(self):
        out = smallest_sharpness_ii()
        assert bipartition(out.graph) is None

    def test_star_vertex_named(self):
        out = smallest_sharpness_ii()
        assert "x_2^*" in out.names.values()


class TestExpectationMachinery:
    def test_tampered_graph_fails_regularity(self):
        out = smallest_sharpness_ii()
        edges = list(out.graph.edges())
        removed = next(
            e for e in edges if not set(e) & out.matching.covered
        )
        edges.remove(removed)
        broken = Graph(out.graph.n, edges)
        tampered = construction_from_sidecar(broken, out.sidecar_json_dict())
        report = verify_expectations(tampered)
        assert not report.ok
        failing = {r.prop for r in report.rows if r.basis == GUARANTEED and not r.ok}
        assert "regular_degree" in failing

    def test_sidecar_round_trip(self):
        out = smallest_sharpness_lambda()
        doc = out.sidecar_json_dict()
        back = construction_from_sidecar(out.graph, doc)
        assert back.matching == out.matching
        assert back.expectations == out.expectations
        assert back.aux == out.aux

    def test_builders_deterministic(self):
        a = smallest_counterexample()
        b = smallest_counterexample()
        assert serialize_graph(a.graph, "graph6") == serialize_graph(b.graph, "graph6")
        assert a.matching == b.matching
