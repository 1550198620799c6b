"""Record the lambda answers of lambda-wall's random hosts into pins.json.

    PYTHONPATH=src python3 bench/pin.py 0..49 4099

Each host maps to [lambda_c, lambda_oc]; hosts are keyed by a hash of
their graph6 bytes, so a pin applies to any seed that generates the same
graph.  A capped search is recorded as {"upper": u}.  Later runs must reproduce exact answers and may not report
an upper bound above a pinned one (see ``workloads.lambda_op``).  Re-pin
only at a commit whose answers have been checked some other way.
"""

from __future__ import annotations

import json
import os
import sys

from earpack.budget import DEFAULT_BUDGET
from earpack.connectivity import (
    InexactSearchError,
    cyclic_edge_connectivity,
    odd_cyclic_edge_connectivity,
)
from earpack.graphs import INF
from workloads import PINS_PATH, lambda_hosts, pin_key


SOLVERS = (cyclic_edge_connectivity, odd_cyclic_edge_connectivity)


def encode(value):
    return "inf" if value == INF else int(value)


def answer(solver, g):
    try:
        return encode(solver(g, DEFAULT_BUDGET).value)
    except InexactSearchError as exc:
        return {"upper": encode(exc.upper_bound)}


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("..")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    if os.environ.get("EARPACK_BUDGET"):
        print("unset EARPACK_BUDGET: pins record the default budget", file=sys.stderr)
        return 1
    seeds = parse_seeds(sys.argv[1:])
    # answers already on file are kept; hosts no seed generates are dropped
    old = json.loads(PINS_PATH.read_text())["lambda"] if PINS_PATH.exists() else {}
    pins = {}
    for seed in seeds:
        for label, g, known in lambda_hosts(seed):
            if "lambda_c" in known:
                continue  # fixtures: the exact values are known from theory
            key = pin_key(g)
            if key not in old:
                old[key] = [answer(solver, g) for solver in SOLVERS]
            pins[key] = old[key]
        print(f"seed {seed}: {len(pins)} hosts pinned", flush=True)
    rows = ",\n".join(f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in sorted(pins.items()))
    PINS_PATH.write_text(f'{{"seeds":{json.dumps(seeds)},\n"lambda":{{\n{rows}}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
