"""Command-line interface.

Verbs: analyze, extend, barrier-verify, lambda, ears, construct, verify,
sweep, convert.  Results go to stdout as JSON (schema 1); exit codes are
0 for success/consistent, 2 for a failed verification or an inconsistency,
1 for usage or format errors.  Identical arguments and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .budget import DEFAULT_BUDGET, SearchBudget
from .catalog import random_bipartite_regular, strip_matching_base
from .connectivity import (
    InexactSearchError,
    _connectivity_outcomes,
    cyclic_edge_connectivity,
    odd_cyclic_edge_connectivity,
)
from .constructions import (
    build_ear_shortfall_counterexample,
    construction_from_sidecar,
    smallest_counterexample,
    smallest_sharpness_i,
    smallest_sharpness_lambda,
    smallest_sharpness_ii,
    verify_expectations,
)
from .ears import max_odd_ear_packing
from .graphs import (
    INF,
    Graph,
    GraphFormatError,
    bipartition,
    girth,
    is_regular,
    parse_graph,
    serialize_graph,
)
from .harness import falsification_sweep
from .matching import (
    Matching,
    barrier_from_json,
    extend_matching,
    verify_barrier,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _budget() -> SearchBudget:
    raw = os.environ.get("EARPACK_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return DEFAULT_BUDGET.scaled(float(raw))
    except ValueError as exc:
        raise SystemExit(f"bad EARPACK_BUDGET value {raw!r}: {exc}")


def _load_graph(path: str, fmt: str | None) -> Graph:
    data = Path(path).read_bytes()
    if fmt is None:
        fmt = "graph6" if path.endswith((".g6", ".graph6")) else "edgelist"
    return parse_graph(data, fmt)


def _parse_matching_flag(g: Graph, text: str) -> Matching:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("-")
        if not sep:
            raise ValueError(f"matching chunk {chunk!r} is not of the form u-v")
        pairs.append((int(left), int(right)))
    return Matching.of(g, pairs)


def _jsonable(value):
    if value == INF:
        return "inf"
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _emit(payload: dict, out: str | None) -> None:
    payload = {"schema": 1, **payload}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph, args.format)
    budget = _budget()
    payload: dict = {
        "n": g.n,
        "edges": g.edge_count,
        "r": is_regular(g),
        "girth": _jsonable(girth(g)),
        "bipartite": bipartition(g) is not None,
    }
    for key, outcome in zip(("lambda_c", "lambda_oc"), _connectivity_outcomes(g, budget)):
        if isinstance(outcome, InexactSearchError):
            payload[key] = None
            payload[key + "_upper"] = _jsonable(outcome.upper_bound)
        else:
            payload[key] = _jsonable(outcome.value)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_extend(args) -> int:
    g = _load_graph(args.graph, args.format)
    matching = _parse_matching_flag(g, args.matching)
    result = extend_matching(g, matching)
    payload: dict = {"outcome": result.outcome}
    if result.extended:
        payload["perfect_matching"] = [list(e) for e in result.perfect_matching.edges]
    else:
        payload["barrier"] = result.barrier.to_json_dict()
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_barrier_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    matching = _parse_matching_flag(g, args.matching)
    cert = barrier_from_json(json.loads(Path(args.certificate).read_text()))
    verdict = verify_barrier(g, matching, cert)
    _emit({"ok": bool(verdict), "reason": verdict.reason}, args.out)
    return EXIT_OK if verdict else EXIT_VERIFY


def _cmd_lambda(args) -> int:
    g = _load_graph(args.graph, args.format)
    solver = odd_cyclic_edge_connectivity if args.odd else cyclic_edge_connectivity
    try:
        value = solver(g, _budget())
    except InexactSearchError as exc:
        _emit({"value": None, "upper_bound": _jsonable(exc.upper_bound)}, args.out)
        return EXIT_VERIFY
    _emit(value.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_ears(args) -> int:
    g = _load_graph(args.graph, args.format)
    budget = _budget()
    if args.set:
        u = [int(v) for v in args.set.split(",") if v.strip()]
    elif args.matching:
        u = sorted(_parse_matching_flag(g, args.matching).covered)
    else:
        raise ValueError("ears needs --set or --matching")
    result = max_odd_ear_packing(g, u, target=args.target, budget=budget)
    payload = result.packing.to_json_dict()
    payload["k"] = result.packing.k
    payload["status"] = result.status
    _emit(payload, args.out)
    return EXIT_OK


_FAMILIES = {
    "counterexample": smallest_counterexample,
    "sharpness-i": smallest_sharpness_i,
    "sharpness-lambda": smallest_sharpness_lambda,
    "sharpness-ii": smallest_sharpness_ii,
}


def _cmd_construct(args) -> int:
    family = args.family
    if family == "counterexample":
        k = 2 if args.k is None else args.k
        if k == 2:
            out = smallest_counterexample(k, seed=args.seed)
        else:
            source = random_bipartite_regular(30 * k, 3, seed=args.seed)
            base = strip_matching_base(source, 4 * k + 2, min_separation=4, seed=args.seed)
            out = build_ear_shortfall_counterexample(k, base)
    elif family == "sharpness-ii":
        out = smallest_sharpness_ii()
    elif family in _FAMILIES:
        out = _FAMILIES[family](args.seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    report = verify_expectations(out)
    if args.prefix:
        Path(args.prefix + ".g6").write_bytes(serialize_graph(out.graph, "graph6") + b"\n")
        Path(args.prefix + ".json").write_text(
            json.dumps(out.sidecar_json_dict(), indent=2, sort_keys=True) + "\n"
        )
    _emit(
        {
            "family": out.family,
            "n": out.graph.n,
            "params": out.params,
            "report": report.to_json_dict(),
        },
        args.out,
    )
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_verify(args) -> int:
    sidecar = json.loads(Path(args.sidecar).read_text())
    g = _load_graph(args.graph, args.format)
    out = construction_from_sidecar(g, sidecar)
    report = verify_expectations(out)
    _emit({"family": out.family, "report": report.to_json_dict()}, args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_sweep(args) -> int:
    summary = falsification_sweep(
        ns=_parse_range(args.n),
        r=args.r,
        samples=args.samples,
        seed=args.seed,
        matchings_per_graph=args.matchings,
        bundle_dir=args.bundle_dir,
        bipartite=args.bipartite,
        include_m1=args.include_m1,
    )
    _emit(summary.to_json_dict(), args.out)
    return EXIT_OK if summary.inconsistent == 0 else EXIT_VERIFY


def _cmd_convert(args) -> int:
    g = _load_graph(args.graph, args.format)
    data = serialize_graph(g, args.to)
    if args.out:
        Path(args.out).write_bytes(data + b"\n")
    else:
        sys.stdout.write(data.decode() + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earpack",
        description="matching extension, cyclic edge cuts and odd-ear packings in regular graphs",
    )
    parser.add_argument("--version", action="version", version=f"earpack {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("graph", help="graph file (.g6 or edge list)")
        p.add_argument("--format", choices=["graph6", "edgelist"], default=None)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("analyze", help="degree, girth, bipartiteness, both connectivities")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("extend", help="extend a matching to a perfect matching")
    common(p)
    p.add_argument("--matching", required=True, help='edges as "u-v,u-v,..."')
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("barrier-verify", help="check a barrier certificate")
    common(p)
    p.add_argument("--matching", required=True)
    p.add_argument("--certificate", required=True, help="barrier JSON file")
    p.set_defaults(func=_cmd_barrier_verify)

    p = sub.add_parser("lambda", help="cyclic (or odd-cyclic) edge connectivity")
    common(p)
    p.add_argument("--odd", action="store_true", help="odd-cyclic variant")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("ears", help="odd-ear packing of a vertex set")
    common(p)
    p.add_argument("--set", default=None, help='vertices as "0,1,5"')
    p.add_argument("--matching", default=None, help="use the matched vertices as U")
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_ears)

    p = sub.add_parser("construct", help="build a named extremal family instance")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default=None, help="write PREFIX.g6 and PREFIX.json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-check a construction against its sidecar")
    common(p)
    p.add_argument("--sidecar", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="falsification sweep over random regular graphs")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", required=True, help='sizes, e.g. "8..12" or "8,10,14"')
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matchings", type=int, default=20, help="cap per graph")
    p.add_argument("--bipartite", action="store_true", help="sample bipartite hosts")
    p.add_argument("--include-m1", action="store_true", help="also run single-edge matchings")
    p.add_argument("--bundle-dir", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("convert", help="convert between graph formats")
    common(p)
    p.add_argument("--to", choices=["graph6", "edgelist"], required=True)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"earpack: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
