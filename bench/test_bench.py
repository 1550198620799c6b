"""Tests of the benchmark itself: the output gate and reproducibility.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import earpack.harness as harness
import run
from tracer import Tracer
from worker import measure
from workloads import (
    GateError,
    Workload,
    WORKLOADS,
    blocking_matching,
    extend_op,
    lambda_hosts,
    lambda_op,
    sweep_op,
)


def run_ops(ops, tracer=None) -> dict:
    """Measure one round made of ``ops`` with a cold connectivity cache."""
    harness._lambda_pair.cache_clear()
    return measure(Workload("test", [list(ops)], ""), 0.0, tracer)


def tampered(op, change):
    return replace(op, call=lambda: change(op.call()))


@pytest.fixture(scope="module")
def petersen_ops(tmp_path_factory):
    path = tmp_path_factory.mktemp("g6") / "petersen.g6"
    label, g, known = lambda_hosts(0)[0]
    assert label == "petersen"
    from earpack.graphs import serialize_graph

    path.write_bytes(serialize_graph(g, "graph6") + b"\n")
    return [lambda_op(label, g, path, odd, known[k]) for odd, k in ((False, "lambda_c"), (True, "lambda_oc"))]


@pytest.fixture(scope="module")
def cubic_host():
    return harness.random_regular(40, 3, seed=11)


def test_honest_outputs_pass_the_gate(petersen_ops, cubic_host):
    import random

    blocked = blocking_matching(cubic_host, random.Random(1))
    extended = harness.distance3_matchings(cubic_host, cap=2, seed=1)
    ops = petersen_ops + [extend_op(cubic_host, blocked, True)]
    ops += [extend_op(cubic_host, m, False) for m in extended]
    result = run_ops(ops)
    assert len(result["latencies"]) == len(ops) and result["unknown"] == 0


def test_tampered_cut_certificate_fails_the_run(petersen_ops):
    def drop_cut_edge(output):
        code, text = output
        data = json.loads(text)
        data["F"] = data["F"][1:]
        return code, json.dumps(data)

    with pytest.raises(GateError, match="cut certificate rejected"):
        run_ops([tampered(petersen_ops[0], drop_cut_edge)])


def test_wrong_fixture_value_fails_the_run(petersen_ops):
    def claim_six(output):
        code, text = output
        return code, text.replace('"value":5', '"value":6')

    with pytest.raises(GateError, match="expected 5"):
        run_ops([tampered(petersen_ops[1], claim_six)])


def test_tampered_barrier_fails_the_run(cubic_host):
    import random

    op = extend_op(cubic_host, blocking_matching(cubic_host, random.Random(2)), True)

    def miscount(result):
        return replace(result, barrier=replace(result.barrier, mu=result.barrier.mu + 1))

    with pytest.raises(GateError, match="barrier rejected"):
        run_ops([tampered(op, miscount)])


def test_short_perfect_matching_fails_the_run(cubic_host):
    m = harness.distance3_matchings(cubic_host, cap=1, seed=3)[0]
    op = extend_op(cubic_host, m, False)

    def drop_edge(result):
        pm = result.perfect_matching
        return replace(result, perfect_matching=replace(pm, edges=pm.edges[1:]))

    with pytest.raises(GateError, match="not a perfect matching"):
        run_ops([tampered(op, drop_edge)])


def test_inconsistent_verdict_fails_the_run(cubic_host):
    m = harness.distance3_matchings(cubic_host, cap=1, seed=4)[0]
    op = sweep_op(cubic_host, m)
    with pytest.raises(GateError, match="inconsistent"):
        run_ops([tampered(op, lambda verdict: replace(verdict, consistent=False))])


def test_unknown_answer_must_respect_pins(tmp_path):
    label, g, _ = lambda_hosts(0)[0]
    op = lambda_op(label, g, tmp_path / "unused.g6", False, pin={"upper": 4})
    assert op.check((2, json.dumps({"value": None, "upper_bound": 4}))) is True
    with pytest.raises(GateError, match="above the pinned"):
        op.check((2, json.dumps({"value": None, "upper_bound": 5})))
    with pytest.raises(GateError, match="below the exact"):
        lambda_op(label, g, tmp_path / "unused.g6", False, known=5).check(
            (2, json.dumps({"value": None, "upper_bound": 4}))
        )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = WORKLOADS[name](3, tmp_path / "a")
    second = WORKLOADS[name](3, tmp_path / "b")
    other = WORKLOADS[name](4, tmp_path / "c")
    for w in (first, second, other):
        w.cleanup()
    assert first.inputs_digest == second.inputs_digest != other.inputs_digest
    assert [op.label for r in first.rounds for op in r] == [op.label for r in second.rounds for op in r]


def cheap_ops(name, tmp_path):
    """A quick slice of the workload's ops for seed 3."""
    workload = WORKLOADS[name](3, tmp_path)
    ops = workload.rounds[0]
    if name == "lambda-wall":
        keep = ("petersen", "heawood", "prism4", "prism8", "r4n12", "bq7", "sharpness-lambda")
        ops = [op for op in ops if any(op.label.endswith(k) or f" {k}." in op.label for k in keep)]
    elif name == "extend-large":
        ops = [op for op in ops if op.label.endswith(("n=250", "n=500"))]
    else:
        ops = ops[:60]
    return workload, ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counters(name, tmp_path):
    counters = []
    for attempt in range(2):
        workload, ops = cheap_ops(name, tmp_path / str(attempt))
        tracer = Tracer()
        tracer.install()
        try:
            result = run_ops(ops, tracer)
        finally:
            tracer.uninstall()
            workload.cleanup()
        counts = tracer.counters()
        counts["unknown"] = result["unknown"]
        counts["lambda_cache"] = harness._lambda_pair.cache_info()[:2]
        counters.append(counts)
    assert counters[0] == counters[1]
    assert sum(v for k, v in counters[0].items() if k.endswith(".calls")) >= len(ops)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    per_layer = [f"{span}.self_s" for span in run.SELF_TIME_SPANS + run.SETUP_SELF_TIME_SPANS]
    per_layer += list(run.COUNTERS) + ["bench.traced_ops_per_s", "bench.unknown_frac"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
