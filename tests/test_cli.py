import hashlib
import json
from pathlib import Path

import pytest

from earpack.cli import main
from earpack.graphs import serialize_graph
from earpack.catalog import heawood_graph, petersen_graph
from earpack.constructions import smallest_counterexample
from earpack.harness import random_regular


@pytest.fixture()
def heawood_file(tmp_path):
    path = tmp_path / "heawood.g6"
    path.write_bytes(serialize_graph(heawood_graph(), "graph6") + b"\n")
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_bytes(serialize_graph(petersen_graph(), "graph6") + b"\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_heawood(self, capsys, heawood_file):
        code, out, _ = run(capsys, ["analyze", heawood_file])
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["n"] == 14
        assert payload["r"] == 3
        assert payload["girth"] == 6
        assert payload["bipartite"] is True
        assert payload["lambda_c"] == 6
        assert payload["lambda_oc"] == "inf"

    def test_byte_identical_reruns(self, capsys, heawood_file):
        _, first, _ = run(capsys, ["analyze", heawood_file])
        _, second, _ = run(capsys, ["analyze", heawood_file])
        assert first == second


class TestExtend:
    def test_single_edge(self, capsys, heawood_file):
        code, out, _ = run(capsys, ["extend", heawood_file, "--matching", "0-7"])
        payload = json.loads(out)
        assert code == 0 and payload["outcome"] == "extended"
        assert [0, 7] in payload["perfect_matching"]

    def test_bad_matching_flag(self, capsys, heawood_file):
        code, _, err = run(capsys, ["extend", heawood_file, "--matching", "zap"])
        assert code == 1 and "earpack:" in err

    def test_non_edge_rejected(self, capsys, heawood_file):
        code, _, err = run(capsys, ["extend", heawood_file, "--matching", "0-1"])
        assert code == 1


class TestBarrierVerify:
    def test_round_trip(self, capsys, tmp_path):
        from earpack.graphs import Graph
        from earpack.matching import Matching, extend_matching

        g = Graph(6, [(0, 1), (1, 2), (2, 3)])
        res = extend_matching(g, Matching.of(g, [(1, 2)]))
        graph_file = tmp_path / "g.el"
        graph_file.write_bytes(serialize_graph(g, "edgelist"))
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(res.barrier.to_json_dict()))
        code, out, _ = run(
            capsys,
            [
                "barrier-verify",
                str(graph_file),
                "--matching",
                "1-2",
                "--certificate",
                str(cert_file),
            ],
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_bad_certificate_exit_2(self, capsys, tmp_path):
        from earpack.graphs import Graph
        from earpack.matching import Matching, extend_matching

        g = Graph(6, [(0, 1), (1, 2), (2, 3)])
        res = extend_matching(g, Matching.of(g, [(1, 2)]))
        doc = res.barrier.to_json_dict()
        doc["mu"] += 1
        graph_file = tmp_path / "g.el"
        graph_file.write_bytes(serialize_graph(g, "edgelist"))
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            ["barrier-verify", str(graph_file), "--matching", "1-2", "--certificate", str(cert_file)],
        )
        assert code == 2
        assert json.loads(out)["ok"] is False


class TestLambdaVerb:
    def test_petersen_certificate(self, capsys, petersen_file):
        code, out, _ = run(capsys, ["lambda", petersen_file])
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 5
        assert len(payload["F"]) == 5

    def test_odd_flag(self, capsys, heawood_file):
        code, out, _ = run(capsys, ["lambda", heawood_file, "--odd"])
        assert code == 0 and json.loads(out)["value"] == "inf"

    # output recorded with the restricted-cut engine: one host whose cuts
    # come from the engine (lambda_oc from the same cut), the n=26 host
    # exact at the budget that once capped it, and a factor that caps it (the
    # capped lambda_oc keeps the odd-sided 4-edge cut of the capped lambda_c)
    @pytest.mark.parametrize(
        "n, seed, budget, odd, code, expected",
        [
            (18, 12, None, False, 0, '{"F":[[0,7],[9,15],[14,16]],"cycle_a":[0,2,16,13],"cycle_b":[1,6,4,10],"odd":false,"schema":1,"side_a":[0,2,9,13,16],"value":3}'),
            (18, 12, None, True, 0, '{"F":[[0,7],[9,15],[14,16]],"cycle_a":[8,6,1,10,5],"cycle_b":[0,2,16,13],"odd":true,"schema":1,"side_a":[1,3,4,5,6,7,8,10,11,12,14,15,17],"value":3}'),
            (26, 8, "0.01", False, 0, '{"F":[[1,16],[6,19],[8,24],[12,17]],"cycle_a":[1,8,17,19],"cycle_b":[2,14,23,24],"odd":false,"schema":1,"side_a":[1,8,17,19],"value":4}'),
            (26, 8, "0.01", True, 0, '{"F":[[1,16],[6,19],[8,24],[12,17]],"cycle_a":[16,5,3,11,22],"cycle_b":[1,8,17,19],"odd":true,"schema":1,"side_a":[0,2,3,4,5,6,7,9,10,11,12,13,14,15,16,18,20,21,22,23,24,25],"value":4}'),
            (26, 8, "0.00001", False, 2, '{"schema":1,"upper_bound":4,"value":null}'),
            (26, 8, "0.00001", True, 2, '{"schema":1,"upper_bound":4,"value":null}'),
        ],
    )
    def test_pinned_output(self, capsys, monkeypatch, tmp_path, n, seed, budget, odd, code, expected):
        path = tmp_path / "g.g6"
        path.write_bytes(serialize_graph(random_regular(n, 3, seed=seed), "graph6") + b"\n")
        if budget is None:
            monkeypatch.delenv("EARPACK_BUDGET", raising=False)
        else:
            monkeypatch.setenv("EARPACK_BUDGET", budget)
        got = run(capsys, ["lambda", str(path)] + (["--odd"] if odd else []))
        assert got[:2] == (code, expected + "\n")


class TestEars:
    def test_flow_route(self, capsys, heawood_file):
        code, out, _ = run(capsys, ["ears", heawood_file, "--matching", "0-7"])
        payload = json.loads(out)
        assert code == 0 and payload["k"] == 3 and payload["status"] == "exact"

    def test_bipartite_flag_is_gone(self, capsys, heawood_file):
        code, _, err = run(capsys, ["ears", heawood_file, "--matching", "0-7", "--bipartite"])
        assert code == 1 and "--bipartite" in err

    # packings recorded before the flow engines and bipartite routes merged
    @pytest.mark.parametrize(
        "matching, expected",
        [
            (
                "0-7",
                '{"U":[0,7],"ears":[{"kind":"path","vertices":[0,7]},'
                '{"kind":"path","vertices":[0,11,4,8,1,7]},'
                '{"kind":"path","vertices":[0,13,2,9,3,7]}],"k":3,"schema":1,"status":"exact"}',
            ),
            (
                "0-7,2-8,5-12",
                '{"U":[0,2,5,7,8,12],"ears":[{"kind":"path","vertices":[0,7]},'
                '{"kind":"path","vertices":[2,8]},{"kind":"path","vertices":[5,12]},'
                '{"kind":"path","vertices":[0,11,4,8]},{"kind":"path","vertices":[0,13,6,12]},'
                '{"kind":"path","vertices":[2,9,3,7]}],"k":6,"schema":1,"status":"exact"}',
            ),
        ],
    )
    def test_pinned_heawood_packing(self, capsys, heawood_file, matching, expected):
        assert run(capsys, ["ears", heawood_file, "--matching", matching])[:2] == (0, expected + "\n")

    def test_pinned_counterexample_packing(self, capsys, tmp_path):
        out = smallest_counterexample()
        path = tmp_path / "c.g6"
        path.write_bytes(serialize_graph(out.graph, "graph6") + b"\n")
        flag = ",".join(f"{u}-{v}" for u, v in out.matching.edges)
        assert flag == "81-126,97-127,98-125,107-129,109-128"
        code, text, _ = run(capsys, ["ears", str(path), "--matching", flag])
        payload = json.loads(text)
        assert code == 0 and payload["k"] == 14 and payload["status"] == "exact"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "38b26be044c241b13f53e0175cb77114ce2abae519e260618b926100899289b2"

    def test_target_route(self, capsys, petersen_file):
        code, out, _ = run(
            capsys, ["ears", petersen_file, "--set", "0,1", "--target", "2"]
        )
        payload = json.loads(out)
        assert code == 0 and payload["k"] >= 2

    def test_missing_set(self, capsys, petersen_file):
        code, _, err = run(capsys, ["ears", petersen_file])
        assert code == 1


class TestConstructVerify:
    def test_construct_writes_and_verifies(self, capsys, tmp_path):
        prefix = str(tmp_path / "inst")
        code, out, _ = run(
            capsys, ["construct", "sharpness-lambda", "--prefix", prefix]
        )
        payload = json.loads(out)
        assert code == 0 and payload["report"]["ok"] is True
        assert Path(prefix + ".g6").exists() and Path(prefix + ".json").exists()

        code2, out2, _ = run(
            capsys, ["verify", prefix + ".g6", "--sidecar", prefix + ".json"]
        )
        assert code2 == 0
        assert json.loads(out2)["report"]["ok"] is True

    def test_tampered_artifact_exits_2(self, capsys, tmp_path):
        prefix = str(tmp_path / "inst")
        run(capsys, ["construct", "sharpness-lambda", "--prefix", prefix])
        sidecar = json.loads(Path(prefix + ".json").read_text())
        sidecar["matching"][0] = sidecar["matching"][1]
        Path(prefix + ".json").write_text(json.dumps(sidecar))
        code, _, err = run(
            capsys, ["verify", prefix + ".g6", "--sidecar", prefix + ".json"]
        )
        assert code in (1, 2)  # duplicate matching edge: rejected as input


class TestConstructFamilies:
    def test_every_family_builds(self, capsys, tmp_path):
        for family in ("counterexample", "sharpness-i", "sharpness-lambda", "sharpness-ii"):
            code, out, err = run(capsys, ["construct", family])
            payload = json.loads(out)
            assert code == 0, (family, err)
            assert payload["report"]["ok"] is True, family


class TestSweepVerb:
    def test_small_sweep(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--r", "3", "--n", "8..10", "--samples", "3", "--seed", "2"]
        )
        payload = json.loads(out)
        assert code == 0 and payload["inconsistent"] == 0

    def test_determinism(self, capsys):
        argv = ["sweep", "--r", "3", "--n", "8,10", "--samples", "3", "--seed", "9"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_too_small_orders_are_skipped_and_counted(self, capsys):
        code, out, err = run(
            capsys, ["sweep", "--r", "4", "--n", "3..5", "--samples", "5", "--seed", "1"]
        )
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["odd_orders_skipped"] == 2 and payload["small_orders_skipped"] == 1
        assert payload["samples"] == 0

    def test_too_small_bipartite_sides_are_counted(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--r", "4", "--n", "6,8,10", "--samples", "2", "--seed", "1", "--bipartite"],
        )
        payload = json.loads(out)
        assert code == 0 and payload["small_orders_skipped"] == 2 and payload["samples"] == 2

    def test_odd_orders_are_skipped_and_counted(self, capsys):
        code, out, err = run(
            capsys, ["sweep", "--r", "4", "--n", "12..18", "--samples", "10", "--seed", "7"]
        )
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["odd_orders_skipped"] == 3 and payload["samples"] == 10
        assert payload["inconsistent"] == 0


class TestConvert:
    def test_g6_to_edgelist_and_back(self, capsys, tmp_path, petersen_file):
        code, out, _ = run(capsys, ["convert", petersen_file, "--to", "edgelist"])
        assert code == 0
        el_file = tmp_path / "p.el"
        el_file.write_text(out)
        code2, out2, _ = run(capsys, ["convert", str(el_file), "--to", "graph6"])
        assert code2 == 0
        assert out2.strip() == "IheA@GUAo"


class TestBudgetEnv:
    def test_scaling_applies(self, capsys, monkeypatch, petersen_file):
        monkeypatch.setenv("EARPACK_BUDGET", "2.0")
        code, out, _ = run(capsys, ["analyze", petersen_file])
        assert code == 0 and json.loads(out)["lambda_c"] == 5

    def test_bad_value_is_usage_error(self, capsys, monkeypatch, petersen_file):
        monkeypatch.setenv("EARPACK_BUDGET", "zap")
        with pytest.raises(SystemExit):
            run(capsys, ["analyze", petersen_file])


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.g6"]) == 1
