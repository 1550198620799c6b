"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every expected value is either pinned from an independent oracle
in oracles.py or a frozen fixture derived from one.
"""

import json
import random

from earpack.connectivity import cyclic_edge_connectivity, odd_cyclic_edge_connectivity
from earpack.ears import max_odd_ear_packing, verify_packing
from earpack.graphs import INF, edge_distance
from earpack.harness import falsification_sweep, tree_boundary_check, random_regular
from earpack.matching import Matching, boundary_identity_sides, extend_matching
from earpack.catalog import (
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    petersen_graph,
    projective_plane_incidence,
    random_bipartite_regular,
    tutte_coxeter_graph,
)
from earpack.constructions import (
    GUARANTEED,
    smallest_counterexample,
    smallest_sharpness_i,
    smallest_sharpness_lambda,
    smallest_sharpness_ii,
    verify_expectations,
)

from oracles import brute_max_odd_ear_packing, lambda_oracle


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


class TestAcceptance:
    def test_01_connectivity_oracle_equivalence(self, cubic_classes, random_corpus):
        corpus = list(cubic_classes) + list(random_corpus)
        mismatches = []
        for g in corpus:
            for odd in (False, True):
                solver = odd_cyclic_edge_connectivity if odd else cyclic_edge_connectivity
                mine = solver(g).value
                truth = lambda_oracle(g, odd)
                if mine != truth:
                    mismatches.append((g.n, g.edges(), odd, mine, truth))
        report(
            1,
            not mismatches,
            f"lambda_c/lambda_oc match the brute-force oracle on "
            f"{len(corpus)} corpus graphs ({len(cubic_classes)} exhaustive cubic "
            f"classes + {len(random_corpus)} seeded random); mismatches: {mismatches[:2]}",
        )

    def test_02_named_graph_fixtures(self):
        checks = {
            "lambda_c(petersen) == 5": cyclic_edge_connectivity(petersen_graph()).value == 5,
            "lambda_c(heawood) == 6": cyclic_edge_connectivity(heawood_graph()).value == 6,
            "lambda_c(k33) == inf": cyclic_edge_connectivity(complete_bipartite(3, 3)).value == INF,
        }
        for name, g in (
            ("heawood", heawood_graph()),
            ("tutte-coxeter", tutte_coxeter_graph()),
            ("k33", complete_bipartite(3, 3)),
            ("c6", cycle_graph(6)),
            ("pg(2,3)", projective_plane_incidence(3)),
        ):
            checks[f"lambda_oc({name}) == inf"] = (
                odd_cyclic_edge_connectivity(g).value == INF
            )
        bad = [k for k, v in checks.items() if not v]
        report(2, not bad, f"named fixture values frozen from the oracle; failed: {bad}")

    def test_03_koenig_extension(self):
        hosts = [heawood_graph(), tutte_coxeter_graph(), complete_bipartite(3, 3)]
        hosts += [
            random_bipartite_regular(4 + seed % 7, 3, seed=200 + seed)
            for seed in range(50)
        ]
        failures = 0
        singles = 0
        for g in hosts:
            for e in g.edges():
                singles += 1
                if not extend_matching(g, Matching.of(g, [e])).extended:
                    failures += 1
        report(
            3,
            failures == 0,
            f"every single-edge matching extends in {len(hosts)} regular bipartite "
            f"graphs ({singles} edges), failures: {failures}",
        )

    def test_04_boundary_identity(self):
        rng = random.Random(404)
        bad = 0
        for trial in range(1000):
            r = rng.choice([3, 4, 5])
            n = rng.choice([8, 10, 12, 14])
            if n * r % 2:
                n += 1
            g = random_regular(n, r, seed=3000 + trial)
            pool = list(g.edges())
            rng.shuffle(pool)
            chosen, used = [], set()
            for e in pool[: rng.randrange(0, 5)]:
                if e[0] not in used and e[1] not in used:
                    chosen.append(e)
                    used.update(e)
            matching = Matching.of(g, chosen)
            rest = sorted(set(range(n)) - matching.covered)
            s = rng.sample(rest, min(len(rest), rng.randrange(0, 6)))
            sides = boundary_identity_sides(g, matching, s)
            if sides.lhs != sides.rhs:
                bad += 1
        report(4, bad == 0, f"boundary identity exact on 1000 random triples, violations: {bad}")

    def test_05_tree_boundary_property_suite(self):
        from test_harness import grow_induced_tree, spread_subset, torus_grid, torus_prism

        rng = random.Random(505)
        hosts = [
            (torus_grid(6, 6), 4),
            (torus_grid(5, 7), 4),
            (torus_grid(6, 8), 4),
            (torus_prism(4, 5), 4),
            (torus_prism(5, 5), 4),
        ]
        hosts += [(random_regular(26, 4, seed=600 + s), 4) for s in range(3)]
        hosts += [(random_regular(24, 5, seed=700 + s), 4) for s in range(2)]
        violations = 0
        nontrivial = 0
        for trial in range(500):
            g, d = hosts[trial % len(hosts)]
            tree = grow_induced_tree(g, rng, rng.randrange(3, 15))
            marked = spread_subset(g, tree, d, rng)
            result = tree_boundary_check(g, tree, marked, d)
            if not result.holds:
                violations += 1
            if len(marked) >= 2:
                nontrivial += 1
        report(
            5,
            violations == 0 and nontrivial >= 100,
            f"tree boundary inequality on 500 samples in 4-/5-regular hosts "
            f"({nontrivial} with |L| >= 2), violations: {violations}",
        )

    def test_06_flow_packing_bound_desk_scale(self):
        ok = True
        notes = []
        h = heawood_graph()
        values = {max_odd_ear_packing(h, e).packing.k for e in h.edges()}
        ok &= values == {3}
        notes.append(f"heawood m=1: {sorted(values)} (want exactly 3 = min(6, 3))")
        tc = tutte_coxeter_graph()
        values = {max_odd_ear_packing(tc, e).packing.k for e in tc.edges()}
        ok &= values == {3}
        notes.append(f"tutte-coxeter m=1: {sorted(values)}")
        # the spec asks for distance-5 pairs here, but the graph's maximum
        # edge distance is 3 (diameter 4, odd/even distance parity), so the
        # strongest realizable separation is used; the bound itself is
        # unchanged: min(lambda_c, m*r) = 6 attained exactly
        edges = tc.edges()
        pairs = [
            (e, f)
            for i, e in enumerate(edges)
            for f in edges[i + 1 :]
            if edge_distance(tc, e, f) == 3
        ]
        sizes = {max_odd_ear_packing(tc, e + f).packing.k for e, f in pairs}
        ok &= sizes == {6}
        notes.append(
            f"tutte-coxeter m=2 at max separation 3: {len(pairs)} matchings, sizes {sorted(sizes)}"
        )
        report(6, ok, "; ".join(notes))

    def test_07_ear_packing_oracle_equivalence(self, cubic_classes, random_corpus):
        rng = random.Random(707)
        small = [g for g in cubic_classes + random_corpus if g.n <= 10]
        mismatches = 0
        compared = 0
        for g in small:
            for _ in range(3):
                u = frozenset(rng.sample(range(g.n), rng.randrange(2, 5)))
                result = max_odd_ear_packing(g, u)
                assert result.exact
                assert verify_packing(g, result.packing)
                compared += 1
                if result.packing.k != brute_max_odd_ear_packing(g, u):
                    mismatches += 1
        report(
            7,
            mismatches == 0,
            f"exact packing equals exhaustive ear-set enumeration on {compared} "
            f"(graph, U) pairs over {len(small)} corpus graphs <= 10 vertices",
        )

    def test_08_sharpness_structure_checks(self):
        builders = {
            "counterexample": smallest_counterexample,
            "sharpness-i": smallest_sharpness_i,
            "sharpness-lambda": smallest_sharpness_lambda,
            "sharpness-ii": smallest_sharpness_ii,
        }
        all_ok = True
        lines = []
        for name, make in builders.items():
            out = make()
            rep = verify_expectations(out)
            guaranteed_bad = [
                r.prop for r in rep.rows if r.basis == GUARANTEED and not r.ok
            ]
            all_ok &= not guaranteed_bad
            asym = ", ".join(
                f"{r.prop}={r.measured} (predicted {r.predicted})"
                for r in rep.rows
                if r.basis != GUARANTEED
            )
            lines.append(
                f"{name}: n={out.graph.n} guaranteed "
                f"{'ok' if not guaranteed_bad else guaranteed_bad}; measured-vs-predicted: {asym}"
            )
        report(8, all_ok, " | ".join(lines))

    def test_09_falsification_sweep(self, tmp_path):
        total = {"samples": 0, "hypothesis_met": 0, "inconsistent": 0, "checked": 0}
        for r in (3, 4):
            summary = falsification_sweep(
                ns=[8, 10, 12, 14],
                r=r,
                samples=250,
                seed=909,
                bundle_dir=str(tmp_path),
            )
            total["samples"] += summary.samples
            total["hypothesis_met"] += summary.hypothesis_met
            total["inconsistent"] += summary.inconsistent
            total["checked"] += summary.matchings_checked
        report(
            9,
            total["samples"] == 500 and total["inconsistent"] == 0,
            f"500 seeded graphs (r in 3,4; n <= 14), {total['checked']} matchings, "
            f"{total['hypothesis_met']} hypothesis-met, inconsistent: {total['inconsistent']}",
        )

    def test_10_determinism(self):
        runs = []
        for _ in range(2):
            summary = falsification_sweep(ns=[8, 10], r=3, samples=6, seed=1010)
            runs.append(json.dumps(summary.to_json_dict(), sort_keys=True))
        sweep_same = runs[0] == runs[1]

        outs = []
        for _ in range(2):
            out = smallest_counterexample()
            outs.append(json.dumps(out.sidecar_json_dict(), sort_keys=True))
        construct_same = outs[0] == outs[1]

        lams = []
        for _ in range(2):
            lams.append(
                json.dumps(
                    cyclic_edge_connectivity(petersen_graph()).to_json_dict(),
                    sort_keys=True,
                )
            )
        lambda_same = lams[0] == lams[1]
        report(
            10,
            sweep_same and construct_same and lambda_same,
            f"byte-identical reruns: sweep={sweep_same} construct={construct_same} "
            f"lambda-certificate={lambda_same}",
        )
