"""Parameterized builders for the extremal families: the ear-packing
counterexample for cubic graphs with closely spaced matchings, and the three
sharpness constructions that pin the theorem's hypotheses.

Each builder returns the assembled graph, its designated matching, a
vertex-role name map, and an expectation list.  Expectations carry a basis:
'guaranteed-by-assembly' rows follow from the gluing alone and must hold on
any faithful build; 'asymptotic' rows would need astronomically large
high-girth bases, so they are measured and reported without failing a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import SearchBudget
from ._flow import max_vertex_disjoint_paths
from .catalog import (
    DeficientBipartiteBase,
    gamma_base,
    heawood_graph,
    random_bipartite_regular,
    strip_matching_base,
    tutte_coxeter_graph,
)
from .connectivity import InexactSearchError, cyclic_edge_connectivity
from .ears import max_odd_ear_packing
from .graphs import (
    Graph,
    bipartition,
    boundary_edges,
    connected_components,
    induced_subgraph,
    is_regular,
)
from .matching import (
    Matching,
    build_barrier,
    extend_matching,
    is_distance_d_matching,
    matching_distance,
    verify_barrier,
)

GUARANTEED = "guaranteed-by-assembly"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class Expectation:
    prop: str
    predicted: object
    basis: str


@dataclass(frozen=True)
class ConstructionOutput:
    graph: Graph
    matching: Matching
    names: dict[int, str]
    expectations: tuple[Expectation, ...]
    family: str
    params: dict
    aux: dict

    def sidecar_json_dict(self) -> dict:
        return {
            "schema": 1,
            "family": self.family,
            "params": self.params,
            "matching": [list(e) for e in self.matching.edges],
            "names": {str(v): label for v, label in sorted(self.names.items())},
            "expectations": [
                {"prop": e.prop, "predicted": e.predicted, "basis": e.basis}
                for e in self.expectations
            ],
            "aux": self.aux,
        }


def construction_from_sidecar(graph: Graph, data: dict) -> ConstructionOutput:
    """Rebuild a ConstructionOutput from a graph plus its sidecar document."""
    return ConstructionOutput(
        graph=graph,
        matching=Matching.of(graph, [tuple(e) for e in data["matching"]]),
        names={int(v): label for v, label in data.get("names", {}).items()},
        expectations=tuple(
            Expectation(e["prop"], e["predicted"], e["basis"])
            for e in data["expectations"]
        ),
        family=data.get("family", "unknown"),
        params=data.get("params", {}),
        aux=data.get("aux", {}),
    )


class _Assembler:
    """Disjoint-union graph builder with role names."""

    def __init__(self):
        self.count = 0
        self.edges: list[tuple[int, int]] = []
        self.names: dict[int, str] = {}

    def block(self, g: Graph) -> int:
        offset = self.count
        self.count += g.n
        self.edges.extend((u + offset, v + offset) for u, v in g.edges())
        return offset

    def vertex(self, name: str) -> int:
        v = self.count
        self.count += 1
        self.names[v] = name
        return v

    def edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def take(self, queue: list[int], count: int, who: int) -> None:
        """Join ``who`` to the next ``count`` vertices of ``queue``."""
        for _ in range(count):
            self.edge(who, queue.pop(0))

    def name(self, v: int, label: str) -> None:
        self.names[v] = label

    def build(self) -> Graph:
        return Graph(self.count, self.edges)


def _ceil2(x: int) -> int:
    return (x + 1) // 2


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _check_base(base: DeficientBipartiteBase, r: int, ell: int, what: str) -> None:
    _require(base.r == r, f"{what}: base degree {base.r} != {r}")
    _require(base.ell == ell, f"{what}: base provides {base.ell} deficient pairs, need {ell}")
    _require(
        len(connected_components(base.graph)) == 1,
        f"{what}: base graph must be connected",
    )


def _check_linkage(base: DeficientBipartiteBase, what: str) -> None:
    """The deficient sides must be joinable by a full system of
    vertex-disjoint paths (verified by flow, never assumed)."""
    got = max_vertex_disjoint_paths(
        base.graph, set(base.side_b_deficient), set(base.side_w_deficient)
    )
    _require(
        got == base.ell,
        f"{what}: only {got} of {base.ell} vertex-disjoint deficient-pair paths exist",
    )


# ---------------------------------------------------------------------------
# counterexample: cubic bipartite, distance-4 matching, too few odd ears


def build_ear_shortfall_counterexample(k: int, base: DeficientBipartiteBase) -> ConstructionOutput:
    """The cubic bipartite witness that closely spaced matchings can admit
    strictly fewer edge-disjoint odd ears than min(cyclic connectivity, 3m).

    Glues a caterpillar-like tree with 2k+1 matched leaves onto a base with
    4k+2 deficient pairs; every odd ear must cross the tree/base boundary,
    which has exactly 5k+4 edges, while 3m = 6k+3.
    """
    _require(k >= 2, "k must be at least 2")
    _check_base(base, 3, 4 * k + 2, "counterexample")

    asm = _Assembler()
    h_off = asm.block(base.graph)
    b = [h_off + v for v in base.side_b_deficient]
    w = [h_off + v for v in base.side_w_deficient]
    for i, v in enumerate(b):
        asm.name(v, f"b_{i + 1}")
    for i, v in enumerate(w):
        asm.name(v, f"w_{i + 1}")

    x = [asm.vertex(f"x_{i + 1}") for i in range(2 * k + 1)]
    y = [asm.vertex(f"y_{i + 1}") for i in range(2 * k + 1)]
    s = [asm.vertex(f"s_{i + 1}") for i in range(k)]
    tree_vertices = x + y + s
    for i in range(2 * k):
        asm.edge(x[i], x[i + 1])
    for i in range(2 * k + 1):
        if (i + 1) % 2 == 1:
            asm.edge(x[i], y[i])
        else:
            j = (i + 1) // 2
            asm.edge(x[i], s[j - 1])
            asm.edge(s[j - 1], y[i])

    degree_two = [x[0]] + s + [x[-1]]
    for t_vertex, b_vertex in zip(degree_two, b[: k + 2]):
        asm.edge(t_vertex, b_vertex)
    u = [asm.vertex(f"u_{i + 1}") for i in range(k)]
    for i in range(k):
        for j in range(k + 3 * (i + 1) - 1, k + 3 * (i + 1) + 2):
            asm.edge(u[i], b[j])
    for i in range(2 * k + 1):
        asm.edge(y[i], w[2 * i])
        asm.edge(y[i], w[2 * i + 1])

    g = asm.build()
    matching = Matching.of(g, [(y[i], w[2 * i + 1]) for i in range(2 * k + 1)])
    if not is_distance_d_matching(g, matching, 4):
        raise ValueError(
            "base deficient set is not separated enough for a distance-4 matching"
        )
    m = 2 * k + 1
    expectations = (
        Expectation("regular_degree", 3, GUARANTEED),
        Expectation("even_order", True, GUARANTEED),
        Expectation("bipartite", True, GUARANTEED),
        Expectation("matching_size", m, GUARANTEED),
        Expectation("matching_distance_at_least", 4, GUARANTEED),
        Expectation("cut_tree_base_size", 5 * k + 4, GUARANTEED),
        Expectation("odd_ears_at_most", 5 * k + 4, GUARANTEED),
        Expectation("odd_ears_below", 6 * k + 3, GUARANTEED),
        Expectation("lambda_c_at_least", 6 * k + 3, ASYMPTOTIC),
    )
    return ConstructionOutput(
        graph=g,
        matching=matching,
        names=asm.names,
        expectations=expectations,
        family="counterexample",
        params={"k": k},
        aux={"tree_vertices": sorted(tree_vertices), "mr": 3 * m},
    )


def smallest_counterexample(k: int = 2, seed: int = 0) -> ConstructionOutput:
    """A desk-scale counterexample instance on a random cubic bipartite base.

    The default size (k = 2, n = 134) is outside the asymptotic regime: the
    boundary of a 4-cycle gives lambda_c = 4 < 15, and k = 14 >= min(4, mr).
    """
    for attempt in range(10):
        source = random_bipartite_regular(60 + 3 * attempt, 3, seed=seed + attempt)
        try:
            base = strip_matching_base(
                source, 4 * k + 2, min_separation=4, seed=seed + attempt
            )
            return build_ear_shortfall_counterexample(k, base)
        except (RuntimeError, ValueError):
            continue
    raise RuntimeError("could not assemble a counterexample base; widen the search")


# ---------------------------------------------------------------------------
# sharpness of the odd-ear count (first construction)


def build_sharpness_i(
    m: int,
    r: int,
    base1: DeficientBipartiteBase,
    base2: DeficientBipartiteBase,
) -> ConstructionOutput:
    """Sharpness of the odd-ear threshold: an r-regular even-order graph with
    one odd ear fewer than the theorem asks, whose matching does not extend.

    base1 feeds the larger wing (m(r-1) + ceil(r/2) deficient pairs), base2
    the smaller one (m(r-1) pairs); both get an apex, and an m-edge wing of
    disjoint edges is wired to the leftover deficient vertices.
    """
    _require(m >= 2 and r >= 3, "need m >= 2 and r >= 3")
    alpha = m * (r - 1)
    up, down = _ceil2(r), r // 2
    _check_base(base1, r, alpha + up, "wing 1")
    _check_base(base2, r, alpha, "wing 2")
    _check_linkage(base1, "wing 1")
    _check_linkage(base2, "wing 2")

    asm = _Assembler()
    off1 = asm.block(base1.graph)
    x = [off1 + v for v in base1.side_b_deficient]
    yy = [off1 + v for v in base1.side_w_deficient]
    for i, v in enumerate(x):
        asm.name(v, f"x_{i + 1}")
    for i, v in enumerate(yy):
        asm.name(v, f"y_{i + 1}")
    q1 = asm.vertex("q_1")
    for i in range(alpha - down, alpha + up):  # y_(alpha-down+1) .. y_(alpha+up)
        asm.edge(q1, yy[i])

    off2 = asm.block(base2.graph)
    z = [off2 + v for v in base2.side_b_deficient]
    uu = [off2 + v for v in base2.side_w_deficient]
    for i, v in enumerate(z):
        asm.name(v, f"z_{i + 1}")
    for i, v in enumerate(uu):
        asm.name(v, f"u_{i + 1}")
    q2 = asm.vertex("q_2")
    for i in range(alpha - up, alpha):
        asm.edge(q2, z[i])
    for i in range(alpha - down, alpha):
        asm.edge(q2, uu[i])

    for i in range(alpha - down):  # join Y and U by a matching
        asm.edge(yy[i], uu[i])

    bs = [asm.vertex(f"b_{i + 1}") for i in range(m)]
    ws = [asm.vertex(f"w_{i + 1}") for i in range(m)]
    for i in range(m):
        asm.edge(bs[i], ws[i])
    x_queue = list(x)
    z_queue = list(z[: alpha - up])

    for i in range(m - 1):
        asm.take(x_queue, _ceil2(r - 1), bs[i])
        asm.take(z_queue, (r - 1) // 2, bs[i])
        asm.take(x_queue, (r - 1) // 2, ws[i])
        asm.take(z_queue, _ceil2(r - 1), ws[i])
    asm.take(x_queue, up, bs[m - 1])
    asm.take(z_queue, down - 1, bs[m - 1])
    asm.take(x_queue, r - 1, ws[m - 1])
    assert not x_queue and not z_queue, "join bookkeeping is off"

    g = asm.build()
    matching = Matching.of(g, [(bs[i], ws[i]) for i in range(m)])
    black1 = bipartition(base1.graph)[0]
    w_side1 = frozenset(range(base1.graph.n)) - black1
    y_side = w_side1 if base1.side_w_deficient[0] in w_side1 else black1
    designated_s = sorted(off1 + v for v in y_side)
    h2_vertices = sorted(list(range(off2, off2 + base2.graph.n)) + [q2])

    expectations = (
        Expectation("regular_degree", r, GUARANTEED),
        Expectation("even_order", True, GUARANTEED),
        Expectation("matching_size", m, GUARANTEED),
        Expectation("matching_distance_at_least", 3, GUARANTEED),
        Expectation("blocked", True, GUARANTEED),
        Expectation("designated_barrier_verifies", True, GUARANTEED),
        Expectation("barrier_singletons_plus_block", True, GUARANTEED),
        Expectation("odd_ears_at_least", m * r - up, ASYMPTOTIC),
        Expectation("lambda_c_at_least", 2 * m * (r - 1) - r, ASYMPTOTIC),
    )
    return ConstructionOutput(
        graph=g,
        matching=matching,
        names=asm.names,
        expectations=expectations,
        family="sharpness-i",
        params={"m": m, "r": r},
        aux={"designated_S": designated_s, "block_vertices": h2_vertices},
    )


def smallest_sharpness_i(seed: int = 0) -> ConstructionOutput:
    """The m=2, r=3 instance over stripped cage bases.

    The default size (n = 50) is outside the asymptotic regime: the boundary
    of a 4-cycle gives lambda_c = 4, below the predicted 5.
    """
    for attempt in range(12):
        try:
            base1 = strip_matching_base(tutte_coxeter_graph(), 6, 2, seed=seed + attempt)
            base2 = strip_matching_base(heawood_graph(), 4, 1, seed=seed + attempt)
            return build_sharpness_i(2, 3, base1, base2)
        except (RuntimeError, ValueError):
            continue
    raise RuntimeError("no suitable stripped bases found for sharpness-i")


# ---------------------------------------------------------------------------
# sharpness of the connectivity threshold (second construction)


def build_sharpness_lambda(
    m: int,
    r: int,
    base1: DeficientBipartiteBase,
    base2: DeficientBipartiteBase | None = None,
) -> ConstructionOutput:
    """Sharpness of the cyclic-connectivity threshold: two apexed wings tied
    together only through the matching edges, which therefore cannot extend.

    With m and r both even the second wing is a copy of the first
    (rho = ceil((m+1)(r-1)/2) deficient pairs each); otherwise the second
    wing needs rho+1 pairs and the last matched vertex shifts one of its
    joins across, which is exactly what makes the degree audit work out.
    """
    _require(m >= 2 and r >= 3, "need m >= 2 and r >= 3")
    rho = _ceil2((m + 1) * (r - 1))
    up, down = _ceil2(r), r // 2
    even_case = m % 2 == 0 and r % 2 == 0
    _check_base(base1, r, rho, "wing 1")
    _check_linkage(base1, "wing 1")
    if even_case:
        base2 = base1 if base2 is None else base2
        _check_base(base2, r, rho, "wing 2")
    else:
        _require(base2 is not None, "odd case needs a second base with rho+1 pairs")
        _check_base(base2, r, rho + 1, "wing 2")
    _check_linkage(base2, "wing 2")

    asm = _Assembler()
    off1 = asm.block(base1.graph)
    x1 = [off1 + v for v in base1.side_b_deficient]
    y1 = [off1 + v for v in base1.side_w_deficient]
    for i, v in enumerate(x1):
        asm.name(v, f"x_{i + 1}")
    for i, v in enumerate(y1):
        asm.name(v, f"y_{i + 1}")
    q = asm.vertex("q")
    for i in range(rho - up, rho):
        asm.edge(q, x1[i])
    for i in range(rho - down, rho):
        asm.edge(q, y1[i])
    u1_queue = x1[: rho - up] + y1[: rho - down]

    off2 = asm.block(base2.graph)
    ell2 = base2.ell
    x2 = [off2 + v for v in base2.side_b_deficient]
    y2 = [off2 + v for v in base2.side_w_deficient]
    for i, v in enumerate(x2):
        asm.name(v, f"x'_{i + 1}")
    for i, v in enumerate(y2):
        asm.name(v, f"y'_{i + 1}")
    qq = asm.vertex("q'")
    for i in range(ell2 - up, ell2):
        asm.edge(qq, x2[i])
    for i in range(ell2 - down, ell2):
        asm.edge(qq, y2[i])
    u2_queue = x2[: ell2 - up] + y2[: ell2 - down]

    bs = [asm.vertex(f"b_{i + 1}") for i in range(m)]
    ws = [asm.vertex(f"w_{i + 1}") for i in range(m)]
    for i in range(m):
        asm.edge(bs[i], ws[i])

    for i in range(m):
        if i == m - 1 and not even_case:
            asm.take(u1_queue, _ceil2(r - 1) - 1, bs[i])
            asm.take(u2_queue, (r - 1) // 2 + 1, bs[i])
        else:
            asm.take(u1_queue, _ceil2(r - 1), bs[i])
            asm.take(u2_queue, (r - 1) // 2, bs[i])
        asm.take(u1_queue, (r - 1) // 2, ws[i])
        asm.take(u2_queue, _ceil2(r - 1), ws[i])
    assert not u1_queue and not u2_queue, "join bookkeeping is off"

    g = asm.build()
    matching = Matching.of(g, [(bs[i], ws[i]) for i in range(m)])
    h1_vertices = sorted(list(range(off1, off1 + base1.graph.n)) + [q])
    h2_vertices = sorted(list(range(off2, off2 + base2.graph.n)) + [qq])
    predicted_lambda = m * (r - 1) if even_case else m * (r - 1) - 1
    expectations = (
        Expectation("regular_degree", r, GUARANTEED),
        Expectation("even_order", True, GUARANTEED),
        Expectation("matching_size", m, GUARANTEED),
        Expectation("matching_distance_at_least", 3, GUARANTEED),
        Expectation("blocked", True, GUARANTEED),
        Expectation("designated_barrier_verifies", True, GUARANTEED),
        Expectation("two_odd_components", True, GUARANTEED),
        Expectation("odd_ears_at_least", m * r - up + 1, ASYMPTOTIC),
        Expectation("lambda_c_at_least", predicted_lambda, ASYMPTOTIC),
    )
    return ConstructionOutput(
        graph=g,
        matching=matching,
        names=asm.names,
        expectations=expectations,
        family="sharpness-lambda",
        params={"m": m, "r": r, "parity_case": "even" if even_case else "odd"},
        aux={
            "designated_S": [],
            "component_split": [h1_vertices, h2_vertices],
        },
    )


def smallest_sharpness_lambda(seed: int = 0) -> ConstructionOutput:
    """The m=2, r=3 (odd parity case) instance over stripped Heawood bases.

    Separation 1 suffices: every deficient vertex receives exactly one wing
    edge, which already forces the matching distance to be at least 3.
    The default size (n = 34) settles every row: lambda_c = 3 as predicted.
    """
    for attempt in range(12):
        try:
            base1 = strip_matching_base(heawood_graph(), 3, 1, seed=seed + attempt)
            base2 = strip_matching_base(heawood_graph(), 4, 1, seed=seed + 5 + attempt)
            return build_sharpness_lambda(2, 3, base1, base2)
        except (RuntimeError, ValueError):
            continue
    raise RuntimeError("no suitable stripped bases found for sharpness-lambda")


# ---------------------------------------------------------------------------
# sharpness of the ear count under the odd-cut condition (third construction)


def build_sharpness_ii(m: int, r: int, base: DeficientBipartiteBase) -> ConstructionOutput:
    """Sharpness of the ear threshold in the odd-cut variant: two same-side
    edges patched into a bipartite base leave an unbalanced remainder."""
    _require(m >= 2 and r >= 3, "need m >= 2 and r >= 3")
    _check_base(base, r, m, "base")

    asm = _Assembler()
    off = asm.block(base.graph)
    x = [off + v for v in base.side_b_deficient]
    y = [off + v for v in base.side_w_deficient]
    for i, v in enumerate(x):
        asm.name(v, f"x_{i + 1}")
    for i, v in enumerate(y):
        asm.name(v, f"y_{i + 1}")
    asm.edge(x[0], x[1])
    asm.edge(y[0], y[1])
    for i in range(2, m):
        asm.edge(x[i], y[i])
    g = asm.build()

    taken = set(x) | set(y)
    candidates = [v for v in g.adjacency[y[1]] if v not in taken]
    if not candidates:
        raise ValueError("every neighbor of y_2 is already a designated vertex")
    x2_star = candidates[0]
    asm.name(x2_star, "x_2^*")
    names = dict(asm.names)

    pairs = [(x[0], x[1]), (y[1], x2_star)] + [(x[i], y[i]) for i in range(2, m)]
    matching = Matching.of(g, pairs)
    expectations = (
        Expectation("regular_degree", r, GUARANTEED),
        Expectation("even_order", True, GUARANTEED),
        Expectation("matching_size", m, GUARANTEED),
        Expectation("blocked", True, GUARANTEED),
        Expectation("extension_barrier_verifies", True, GUARANTEED),
        Expectation("unbalanced_bipartite_complement", True, GUARANTEED),
        Expectation("odd_ears_at_least", (m - 1) * r, ASYMPTOTIC),
        Expectation("lambda_c_at_least", (2 * m - 1) * (r - 1), ASYMPTOTIC),
    )
    return ConstructionOutput(
        graph=g,
        matching=matching,
        names=names,
        expectations=expectations,
        family="sharpness-ii",
        params={"m": m, "r": r},
        aux={},
    )


def smallest_sharpness_ii() -> ConstructionOutput:
    """The m=2, r=3 instance over the girth-8 cage (the faithful route).

    The default size (n = 30) is outside the asymptotic regime:
    lambda_c = lambda_oc = 5, below the predicted 6.
    """
    base = gamma_base(tutte_coxeter_graph(), 2, 2)
    return build_sharpness_ii(2, 3, base)


# ---------------------------------------------------------------------------
# expectation verification


@dataclass(frozen=True)
class ExpectationRow:
    prop: str
    basis: str
    predicted: object
    measured: object
    ok: bool | None  # None: could not be decided within budget

    def to_json_dict(self) -> dict:
        return {
            "prop": self.prop,
            "basis": self.basis,
            "predicted": self.predicted,
            "measured": self.measured,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ExpectationReport:
    rows: tuple[ExpectationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows if row.basis == GUARANTEED)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "rows": [r.to_json_dict() for r in self.rows]}


VERIFY_BUDGET = SearchBudget(
    max_cycles=20_000,
    max_cycle_steps=400_000,
    max_cut_pairs=400_000,
    max_ears=30_000,
    max_bb_nodes=300_000,
)


def verify_expectations(
    out: ConstructionOutput, budget: SearchBudget = VERIFY_BUDGET
) -> ExpectationReport:
    """Run every expectation through the library.

    Guaranteed rows decide ok strictly; asymptotic rows may come back with
    ok=None when the budgeted searches cannot settle them at this scale.
    """
    g, matching = out.graph, out.matching
    rows = []
    for exp in out.expectations:
        measured, ok = _evaluate(g, matching, out, exp, budget)
        rows.append(ExpectationRow(exp.prop, exp.basis, exp.predicted, measured, ok))
    return ExpectationReport(tuple(rows))


def _evaluate(g, matching, out, exp, budget):
    prop, predicted = exp.prop, exp.predicted
    if prop == "regular_degree":
        measured = is_regular(g)
        return measured, measured == predicted
    if prop == "even_order":
        measured = g.n % 2 == 0
        return measured, measured == predicted
    if prop == "bipartite":
        measured = bipartition(g) is not None
        return measured, measured == predicted
    if prop == "matching_size":
        return matching.m, matching.m == predicted
    if prop == "matching_distance_at_least":
        measured = matching_distance(g, matching)
        return measured, measured >= predicted
    if prop == "blocked":
        measured = extend_matching(g, matching).outcome == "blocked"
        return measured, measured == predicted
    if prop == "extension_barrier_verifies":
        ext = extend_matching(g, matching)
        measured = ext.outcome == "blocked" and bool(verify_barrier(g, matching, ext.barrier))
        return measured, measured == predicted
    if prop == "designated_barrier_verifies":
        cert = build_barrier(g, matching, out.aux["designated_S"])
        measured = bool(verify_barrier(g, matching, cert))
        return measured, measured == predicted
    if prop == "barrier_singletons_plus_block":
        cert = build_barrier(g, matching, out.aux["designated_S"])
        block = frozenset(out.aux["block_vertices"])
        singles = [c for c in cert.components if len(c) == 1]
        measured = (
            len(cert.components) == len(singles) + 1
            and len(singles) == cert.s + 1
            and block in cert.components
        )
        return measured, measured == predicted
    if prop == "two_odd_components":
        cert = build_barrier(g, matching, [])
        split = [frozenset(part) for part in out.aux["component_split"]]
        measured = (
            len(cert.components) == 2
            and len(cert.odd) == 2
            and set(cert.components) == set(split)
        )
        return measured, measured == predicted
    if prop == "unbalanced_bipartite_complement":
        rest = frozenset(range(g.n)) - matching.covered
        sub, _ = induced_subgraph(g, rest)
        parts = bipartition(sub)
        measured = parts is not None and len(parts[0]) != len(parts[1])
        return measured, measured == predicted
    if prop == "cut_tree_base_size":
        measured = len(boundary_edges(g, out.aux["tree_vertices"]))
        return measured, measured == predicted
    if prop in ("odd_ears_at_most", "odd_ears_below"):
        # a packing is a lower bound: only an exact one confirms a ceiling
        limit = predicted + 1 if prop == "odd_ears_at_most" else predicted
        result = max_odd_ear_packing(g, matching.covered, budget=budget)
        measured = result.packing.k
        if measured >= limit:
            return measured, False
        return measured, True if result.exact else None
    if prop == "odd_ears_at_least":
        result = max_odd_ear_packing(g, matching.covered, target=predicted, budget=budget)
        measured = result.packing.k
        if measured >= predicted:
            return measured, True
        return measured, False if result.exact else None
    if prop == "lambda_c_at_least":
        try:
            value = cyclic_edge_connectivity(g, budget).value
            return value, value >= predicted
        except InexactSearchError as exc:
            upper = exc.upper_bound
            # a too-small upper bound already refutes the lower bound
            return None, False if upper < predicted else None
    raise ValueError(f"unknown expectation property {prop!r}")
