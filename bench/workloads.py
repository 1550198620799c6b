"""The benchmark's workloads: seeded inputs, the ops run on them, and the
checks every output must pass.

A workload is a list of rounds and a round is a list of ops.  An op calls
into earpack through a module attribute (so a tracer's wrapper is seen) and
returns the raw output; its check runs after the op's timer has stopped and
either raises ``GateError`` (a wrong or uncertified answer) or returns True
for an answer a budget cap left unknown.  Rounds of one workload all have
the same make-up, so a run that measures whole rounds measures the same mix
however many rounds fit in its time.

Inputs come only from the seed and from library functions; the library
sees nothing but the generated graphs, matchings and graph6 files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import earpack.cli as cli
import earpack.harness as harness
import earpack.matching as matching
from earpack.catalog import (
    heawood_graph,
    petersen_graph,
    prism_graph,
    projective_plane_incidence,
    random_bipartite_regular,
    tutte_coxeter_graph,
)
from earpack.connectivity import CutCertificate, verify_cut
from earpack.graphs import INF, Graph, is_regular, serialize_graph
from earpack.matching import Matching, verify_barrier

PINS_PATH = Path(__file__).with_name("pins.json")


class GateError(Exception):
    """An output failed its re-check: the run must not report numbers."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    inputs_digest: str
    # called before the rounds are repeated from the start
    on_wrap: Callable[[], None] = lambda: None
    cleanup: Callable[[], None] = lambda: None
    # connectivity-cache counts from before the last on_wrap
    cache_carried: dict = field(default_factory=lambda: {"hits": 0, "misses": 0})

    def lambda_cache_counts(self) -> dict:
        """Hits and misses of the harness's connectivity cache in this run."""
        info = harness._lambda_pair.cache_info()
        return {
            "hits": self.cache_carried["hits"] + info.hits,
            "misses": self.cache_carried["misses"] + info.misses,
        }

    def restart_cache(self) -> None:
        counts = self.lambda_cache_counts()
        harness._lambda_pair.cache_clear()
        self.cache_carried.update(counts)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _g6(g: Graph) -> bytes:
    return serialize_graph(g, "graph6")


# ---------------------------------------------------------------------------
# sweep-cubic: the falsification loop on random cubic hosts

SWEEP_SIZES = tuple(range(10, 25, 2))
SWEEP_MATCHINGS_PER_HOST = 20
# rounds generated up front; a run that outlasts them starts over with a
# cold connectivity cache, as a fresh sweep would
SWEEP_ROUNDS = 96


def sweep_op(g: Graph, m: Matching) -> Op:
    r = is_regular(g)
    target = m.m * r - (r + 1) // 2 + 1

    def check(verdict) -> bool:
        report = verdict.report
        if not verdict.consistent:
            raise GateError(f"inconsistent verdict on n={g.n}, M={m.edges}")
        if not report.distance3 or not report.even_order:
            raise GateError(f"hypothesis fields wrong on n={g.n}, M={m.edges}")
        return (
            report.lambda_c is None
            or report.lambda_oc is None
            or (not report.k_exact and report.k_found < target)
        )

    return Op(f"check_theorem n={g.n}", lambda: harness.check_theorem(g, m, harness.SWEEP_BUDGET), check)


def sweep_cubic(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    rounds, parts = [], []
    for _ in range(SWEEP_ROUNDS):
        ops = []
        for n in SWEEP_SIZES:
            g = harness.random_regular(n, 3, seed=rng.randrange(2**31))
            found = harness.distance3_matchings(
                g, cap=SWEEP_MATCHINGS_PER_HOST, seed=rng.randrange(2**31)
            )
            parts.append(_g6(g))
            parts.extend(m.edges for m in found)
            ops.extend(sweep_op(g, m) for m in found)
        rounds.append(ops)
    workload = Workload("sweep-cubic", rounds, _digest(parts))
    workload.on_wrap = workload.restart_cache
    return workload


# ---------------------------------------------------------------------------
# lambda-wall: the CLI's lambda verb on cages, prisms and random hosts, plus
# the construct verb for every family

CONSTRUCT_FAMILIES = ("counterexample", "sharpness-i", "sharpness-lambda", "sharpness-ii")
PRISM_SIZES = tuple(range(4, 25, 2))
RANDOM_CUBIC_SIZES = tuple(range(24, 41, 2))
RANDOM_QUARTIC_SIZES = tuple(range(10, 21, 2))
RANDOM_QUINTIC_SIZES = tuple(range(10, 19, 2))
BIPARTITE_QUARTIC_SIDES = tuple(range(6, 12))
# random quartic, quintic and bipartite quartic hosts per size: many cheap
# ops, so that the median op of a run does not hang on a few graphs
DENSE_COPIES = 8


def _decode(value):
    return INF if value == "inf" else value


def _pins() -> dict:
    if PINS_PATH.exists():
        return json.loads(PINS_PATH.read_text())["lambda"]
    return {}


def pin_key(g: Graph) -> str:
    return hashlib.sha256(_g6(g)).hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def lambda_answer(code: int, text: str):
    """(value, upper bound, JSON) from the lambda verb's output; the value is
    None when the search hit a cap."""
    data = json.loads(text)
    if code == 2 and data.get("value") is None:
        return None, _decode(data["upper_bound"]), data
    if code != 0:
        raise GateError(f"lambda exited {code}: {text.strip()}")
    return _decode(data["value"]), None, data


def lambda_op(label: str, g: Graph, path: Path, odd: bool, known=None, pin=None) -> Op:
    """``known``: the exact value from theory; ``pin``: the answer recorded
    for this host at the pinned commit (a value, or {"upper": u})."""
    argv = ["lambda", str(path)] + (["--odd"] if odd else [])

    def check(output) -> bool:
        value, upper, data = lambda_answer(*output)
        exact = known
        pinned_upper = None
        if exact is None and pin is not None:
            if isinstance(pin, dict):
                pinned_upper = _decode(pin["upper"])
            else:
                exact = _decode(pin)
        if value is None:
            if exact is not None and upper < exact:
                raise GateError(f"{label}: upper bound {upper} below the exact value {exact}")
            if pinned_upper is not None and upper > pinned_upper:
                raise GateError(f"{label}: upper bound {upper} above the pinned {pinned_upper}")
            return True
        if exact is not None and value != exact:
            raise GateError(f"{label}: got {value}, expected {exact}")
        if pinned_upper is not None and value > pinned_upper:
            raise GateError(f"{label}: got {value}, above the pinned upper bound {pinned_upper}")
        if value != INF:
            side_a = frozenset(data["side_a"])
            cert = CutCertificate(
                F=frozenset(tuple(e) for e in data["F"]),
                side_a=side_a,
                side_b=frozenset(range(g.n)) - side_a,
                cycle_a=tuple(data["cycle_a"]),
                cycle_b=tuple(data["cycle_b"]),
                odd_flag=bool(data["odd"]),
            )
            verdict = verify_cut(g, cert, require_odd=odd)
            if not verdict:
                raise GateError(f"{label}: cut certificate rejected: {verdict.reason}")
            if len(cert.F) != value:
                raise GateError(f"{label}: certificate has {len(cert.F)} edges, value {value}")
        return False

    kind = "lambda_oc" if odd else "lambda_c"
    return Op(f"{kind} {label}", lambda: run_cli(argv), check)


def construct_op(family: str) -> Op:
    def check(output) -> bool:
        code, text = output
        data = json.loads(text) if text else {}
        if code != 0 or data.get("family") != family or not data["report"]["ok"]:
            raise GateError(f"construct {family} exited {code}: {text.strip()[:200]}")
        return any(row["ok"] is None for row in data["report"]["rows"])

    return Op(f"construct {family}", lambda: run_cli(["construct", family]), check)


def lambda_hosts(seed: int) -> list[tuple[str, Graph, dict]]:
    """(label, graph, known exact values) for every lambda-wall host."""
    rng = random.Random(seed)
    bip = {"lambda_oc": INF}
    hosts = [
        ("petersen", petersen_graph(), {"lambda_c": 5, "lambda_oc": 5}),
        ("heawood", heawood_graph(), {"lambda_c": 6, **bip}),
        ("tutte-coxeter", tutte_coxeter_graph(), {"lambda_c": 8, **bip}),
        ("pg23", projective_plane_incidence(3), {"lambda_c": 12, **bip}),
    ]
    # an even prism is bipartite; a 4-cycle's boundary (4 edges) is a
    # minimum cyclic cut once the rungs number at least 4
    hosts += [(f"prism{k}", prism_graph(k), {"lambda_c": 4, **bip}) for k in PRISM_SIZES]
    for sizes, r, copies in (
        (RANDOM_CUBIC_SIZES, 3, 1),
        (RANDOM_QUARTIC_SIZES, 4, DENSE_COPIES),
        (RANDOM_QUINTIC_SIZES, 5, DENSE_COPIES),
    ):
        for n in sizes:
            for c in range(copies):
                g = harness.random_regular(n, r, seed=rng.randrange(2**31))
                hosts.append((f"r{r}n{n}.{c}", g, {}))
    for side in BIPARTITE_QUARTIC_SIDES:
        for c in range(DENSE_COPIES):
            g = random_bipartite_regular(side, 4, seed=rng.randrange(2**31))
            hosts.append((f"bq{side}.{c}", g, dict(bip)))
    return hosts


def lambda_wall(seed: int, workdir: Path) -> Workload:
    pins = _pins()
    workdir.mkdir(parents=True, exist_ok=True)
    ops, parts = [], []
    for label, g, known in lambda_hosts(seed):
        path = workdir / f"{label}.g6"
        path.write_bytes(_g6(g) + b"\n")
        parts.append(_g6(g))
        pinned = pins.get(pin_key(g), (None, None))
        for odd in (False, True):
            kind = "lambda_oc" if odd else "lambda_c"
            ops.append(lambda_op(label, g, path, odd, known.get(kind), pinned[int(odd)]))
    ops.extend(construct_op(family) for family in CONSTRUCT_FAMILIES)
    return Workload(
        "lambda-wall",
        [ops],
        _digest(parts),
        cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
    )


# ---------------------------------------------------------------------------
# extend-large: extend_matching on large random cubic hosts, blocked and not

# n -> (hosts, distance-3 matchings per host, extended ops per round).  Each
# round also holds one blocked op per size.  With these counts a round's
# median op is an n=500 augmentation and its p90 op an n=500 barrier, and
# the blocked n=1000 ops take most of the op time.
EXTEND_PLAN = {250: (2, 12, 4), 500: (4, 12, 4), 1000: (4, 6, 1)}
BLOCKED_PER_HOST = 4
EXTEND_ROUNDS = 48


def blocking_matching(g: Graph, rng: random.Random) -> Matching:
    """Match the three neighbours of one vertex away from it, which leaves
    that vertex isolated in G - V(M): provably not extendable."""
    vertices = list(range(g.n))
    rng.shuffle(vertices)
    for v in vertices:
        near = set(g.adjacency[v]) | {v}
        used, pairs = set(near), []
        for a in g.adjacency[v]:
            partner = next((b for b in g.adjacency[a] if b not in used), None)
            if partner is None:
                break
            used.add(partner)
            pairs.append((a, partner))
        else:
            return Matching.of(g, pairs)
    raise ValueError("no vertex admits a blocking matching")


def extend_op(g: Graph, m: Matching, blocked: bool) -> Op:
    def check(result) -> bool:
        if blocked and result.extended:
            raise GateError(f"n={g.n}: a provably blocked matching was extended")
        if result.extended:
            pm = result.perfect_matching
            Matching.of(g, pm.edges)  # edges of g, pairwise disjoint
            if 2 * pm.m != g.n or not set(m.edges) <= set(pm.edges):
                raise GateError(f"n={g.n}: extension is not a perfect matching containing M")
            return False
        verdict = verify_barrier(g, m, result.barrier)
        if not verdict:
            raise GateError(f"n={g.n}: barrier rejected: {verdict.reason}")
        return False

    kind = "blocked" if blocked else "extended"
    return Op(f"extend {kind} n={g.n}", lambda: matching.extend_matching(g, m), check)


def extend_large(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    parts, plan = [], []
    for n, (hosts, per_host, per_round) in EXTEND_PLAN.items():
        blocked_ops, extended_ops = [], []
        for _ in range(hosts):
            g = harness.random_regular(n, 3, seed=rng.randrange(2**31))
            blocked = [blocking_matching(g, rng) for _ in range(BLOCKED_PER_HOST)]
            extended = harness.distance3_matchings(g, cap=per_host, seed=rng.randrange(2**31))
            parts.append(_g6(g))
            parts.extend(m.edges for m in blocked + extended)
            blocked_ops.append([extend_op(g, m, True) for m in blocked])
            extended_ops.append([extend_op(g, m, False) for m in extended])
        # interleave hosts so that consecutive rounds use different graphs
        plan.append(
            (
                [op for group in zip(*blocked_ops) for op in group],
                [op for group in zip(*extended_ops) for op in group],
                per_round,
            )
        )
    rounds = []
    for r in range(EXTEND_ROUNDS):
        ops = []
        for blocked_ops, extended_ops, per_round in plan:
            ops.append(blocked_ops[r % len(blocked_ops)])
            ops.extend(
                extended_ops[(r * per_round + j) % len(extended_ops)] for j in range(per_round)
            )
        rounds.append(ops)
    return Workload("extend-large", rounds, _digest(parts))


WORKLOADS = {
    "sweep-cubic": sweep_cubic,
    "lambda-wall": lambda_wall,
    "extend-large": extend_large,
}
