"""earpack benchmark: one workload per call, each in a fresh interpreter.

    python3 bench/run.py --workload sweep-cubic --seed 7 --seconds 35 --trace 0

Workloads: sweep-cubic, lambda-wall, extend-large (see bench/NOTES.md).
With ``--trace 0`` the run reports the end-to-end metrics; set-up is done
SETUP_RUNS times, each in its own process, and ``setup_s`` is their median.
With ``--trace 1`` a single traced process reports the per-layer metrics and
writes its spans under bench/out/traces/.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every output is re-checked; any failed check, unexpected exception or
missing ``src/earpack`` makes the run exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

# end-to-end metrics with a bound in BENCHMARK.json, then those printed
# without one (bench/NOTES.md says why)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
REPORTED = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("unknown_frac", "share"))

# span names reported as self_s, and the counters reported alongside
SELF_TIME_SPANS = (
    "graphs.chordless_cycles",
    "graphs.parse_graph",
    "connectivity.lambda",
    "connectivity.min_cut_between",
    "ears.max_odd_ear_packing",
    "ears.enumerate_odd_ears",
    "matching.extend_matching",
    "matching.is_distance_d_matching",
    "matching.heavy_neighbor_exists",
    "harness.check_theorem",
    "constructions.verify_expectations",
    "cli.main",
)
SETUP_SELF_TIME_SPANS = ("harness.distance3_matchings", "harness.random_regular")
COUNTERS = (
    "graphs.chordless_cycles.calls",
    "graphs.chordless_cycles.cycles",
    "graphs.chordless_cycles.truncated",
    "connectivity.lambda.calls",
    "connectivity.lambda.inexact",
    "connectivity.min_cut_between.calls",
    "ears.max_odd_ear_packing.calls",
    "ears.max_odd_ear_packing.exact",
    "ears.max_odd_ear_packing.target_met",
    "ears.max_odd_ear_packing.budget",
    "ears.enumerate_odd_ears.ears",
    "ears.enumerate_odd_ears.truncated",
    "matching.extend_matching.calls",
    "matching.extend_matching.blocked",
    "harness.lambda_cache.hits",
    "harness.lambda_cache.misses",
    "constructions.verify_expectations.unsettled",
    "cli.main.calls",
)

# the layers expected to dominate op self time in a traced run
PREDICTED_PROFILE = {
    "sweep-cubic": ("ears",),
    "lambda-wall": ("graphs", "connectivity"),
    "extend-large": ("matching",),
}


def environment() -> dict:
    """Revision, interpreter and CPU count, recorded with every result."""
    head = ROOT / ".git" / "HEAD"
    revision = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EARPACK_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned_at)] + extra,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 and "gate_error" not in result:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited {proc.returncode}")
    return result


def fail_gate(report: dict) -> int:
    """The op whose output failed its check counts as the one failed op."""
    print(f"CHECK FAILED: {report['gate_error']}")
    print(json.dumps({"correct": False, "attempted": report["attempted"], "failed": 1, "metrics": {}}))
    return 1


def print_end_to_end(args, report: dict, setups: list[float]) -> dict:
    ops, unknown = report["ops"], report["unknown"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": report["ops_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "op_p50_ms": report["op_p50_ms"],
        "op_p90_ms": report["op_p90_ms"],
        "unknown_frac": unknown / ops,
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (len(setups), " ".join(f"{s:.3f}" for s in setups)),
        "ops_per_s": f"{ops} ops in {report['busy_s']:.2f} s of op time, {report['rounds']} rounds",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "op_p50_ms": f"n={ops}; no bound",
        "op_p90_ms": f"n={ops}, {report['beyond_p90']} beyond; no bound",
        "unknown_frac": f"{unknown} of {ops} ops hit a budget cap; no bound",
    }
    for name, unit in END_TO_END + REPORTED:
        print(f"{name:<14} {metrics[name]:>12.4f} {unit:<5} ({notes[name]})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def layer_shares(self_s: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, seconds in self_s.items():
        layer = span.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def print_per_layer(args, report: dict) -> dict:
    self_s, setup_self_s, counters = report["self_s"], report["setup_self_s"], report["counters"]
    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[span + ".self_s"] = (self_s.get(span, 0.0), "s")
    for span in SETUP_SELF_TIME_SPANS:
        metrics[span + ".self_s"] = (setup_self_s.get(span, 0.0), "s")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    metrics["bench.traced_ops_per_s"] = (report["ops_per_s"], "1/s")
    metrics["bench.unknown_frac"] = (report["unknown"] / report["ops"], "share")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.4f} {unit}" if unit != "count" else f"{name:<46} {value:>14d} {unit}")

    busy = report["busy_s"]
    layers = layer_shares(self_s)
    covered = sum(layers.values())
    print(f"op self time by layer (of {busy:.2f} s op time; {busy - covered:.2f} s outside traced calls):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {seconds:>8.3f} s  {100 * seconds / busy:5.1f}%")
    predicted = PREDICTED_PROFILE[args.workload]
    share = sum(layers.get(layer, 0.0) for layer in predicted) / busy
    others = max((s for layer, s in layers.items() if layer not in predicted), default=0.0) / busy
    holds = share > 0.5
    print(
        f"predicted profile: {' + '.join(predicted)} dominate {args.workload} self time: "
        f"{'HOLDS' if holds else 'DOES NOT HOLD'} ({100 * share:.1f}% of op time; "
        f"largest other layer {100 * others:.1f}%)"
    )
    untraced = OUT / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
    if untraced.is_file():
        base = json.loads(untraced.read_text())["report"]["ops_per_s"]
        print(
            f"tracing overhead: untraced {base:.2f} ops/s, traced {report['ops_per_s']:.2f} ops/s, "
            f"difference {base - report['ops_per_s']:.2f} ops/s ({100 * (1 - report['ops_per_s'] / base):.1f}%)"
        )
    else:
        print("tracing overhead: run once with --trace 0 and the same seed to compare")
    print(f"spans: {report['spans']} written to {report['trace_file']}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREDICTED_PROFILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "earpack" / "__init__.py").is_file():
        print(f"bench: no earpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print(
        f"earpack bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(f"env: git={env['git_revision']} python={env['python']} nproc={env['nproc']}")

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
    report = spawn(args, [], RUN_TIMEOUT_S)
    if "gate_error" in report:
        return fail_gate(report)
    setups.append(report["setup_s"])

    if args.trace:
        metrics = print_per_layer(args, report)
    else:
        metrics = print_end_to_end(args, report, setups)
    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(
        json.dumps(
            {"args": vars(args), "env": env, "setups_s": setups, "report": report, "metrics": metrics},
            indent=1,
            sort_keys=True,
        )
    )
    print(json.dumps({"correct": True, "attempted": report["ops"], "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
