"""One workload in one fresh interpreter: set up, run the timed loop, check
every output, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time covers interpreter start-up and ``import earpack`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from itertools import count
from pathlib import Path

from workloads import GateError

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds until about ``seconds`` of op time.

    Only the op call is timed; its check runs with the clock stopped.  The
    loop stops at the round boundary nearest to ``seconds`` (always after at
    least one round), so every run measures complete rounds.
    """
    latencies: list[float] = []
    unknown = 0
    busy = 0.0
    rounds_done = 0
    clock = time.perf_counter
    for done in count():
        index = done % len(workload.rounds)
        if done and index == 0:
            workload.on_wrap()
        for op in workload.rounds[index]:
            if tracer is not None:
                tracer.op_id = len(latencies)
            start = clock()
            output = op.call()
            elapsed = clock() - start
            latencies.append(elapsed)
            busy += elapsed
            try:
                if op.check(output):
                    unknown += 1
            except GateError as exc:
                exc.attempted = len(latencies)
                raise
        rounds_done += 1
        if busy + busy / rounds_done / 2 >= seconds:
            break
    return {"latencies": latencies, "unknown": unknown, "busy_s": busy, "rounds": rounds_done}


def summarize(result: dict) -> dict:
    lat = result["latencies"]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "ops": len(lat),
        "rounds": result["rounds"],
        "busy_s": result["busy_s"],
        "unknown": result["unknown"],
        "ops_per_s": len(lat) / result["busy_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "beyond_p90": sum(1 for x in lat if x > deciles[8]),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import earpack

    if ROOT / "src" not in Path(earpack.__file__).resolve().parents:
        print(f"earpack imported from {earpack.__file__}, not from this checkout", file=sys.stderr)
        return 3

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}")
    try:
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        try:
            result = measure(workload, args.seconds, tracer)
        except GateError as exc:
            print(json.dumps({"gate_error": str(exc), "attempted": exc.attempted}))
            return 4
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.cleanup()
    report = summarize(result)
    report.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, inputs_digest=workload.inputs_digest)
    if tracer is not None:
        tracer.uninstall()
        cache = workload.lambda_cache_counts()
        tracer.counts["harness.lambda_cache.hits"] = cache["hits"]
        tracer.counts["harness.lambda_cache.misses"] = cache["misses"]
        report["self_s"] = tracer.self_s()
        report["setup_self_s"] = tracer.self_s(setup=True)
        report["counters"] = tracer.counters()
        report["spans"] = tracer.span_count
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
