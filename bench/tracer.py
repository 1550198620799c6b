"""Outside-in tracing of earpack's public functions.

The tracer replaces selected functions with timing wrappers in every
``earpack.*`` module attribute that refers to them, so that callers inside
the library, which look the names up in their own module globals, go
through the wrapper too.  Nothing under ``src/`` is modified on disk and
``uninstall`` restores every attribute it replaced.

Each call records a span (name, start, end, parent span, op id).  Spans are
kept in memory in flat arrays and written out once the run is over.  Self
time is a span's duration minus the time covered by its child spans; work
counts are read from return values and exceptions.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from earpack.connectivity import InexactSearchError

# span name -> (module holding the definition, function name, counter).
# A counter receives (counts, result, exception, kwargs) after each call and
# adds the work counts that the return value or exception shows.


def _count_cycles(counts, result, exc, kwargs):
    if result is not None:
        counts["graphs.chordless_cycles.cycles"] += len(result.cycles)
        # shortest_cycle probes with cap=1 and is always "truncated"; only
        # a stop at a real budget cap counts
        if kwargs.get("cap", 2) > 1:
            counts["graphs.chordless_cycles.truncated"] += int(result.truncated)


def _count_lambda(counts, result, exc, kwargs):
    counts["connectivity.lambda.inexact"] += int(isinstance(exc, InexactSearchError))


def _count_packing(counts, result, exc, kwargs):
    if result is not None:
        key = {"exact": "exact", "target-met": "target_met", "budget": "budget"}[result.status]
        counts[f"ears.max_odd_ear_packing.{key}"] += 1


def _count_ears(counts, result, exc, kwargs):
    if result is not None:
        ears, truncated = result
        counts["ears.enumerate_odd_ears.ears"] += len(ears)
        counts["ears.enumerate_odd_ears.truncated"] += int(truncated)


def _count_extension(counts, result, exc, kwargs):
    if result is not None:
        counts["matching.extend_matching.blocked"] += int(not result.extended)


def _count_unsettled(counts, result, exc, kwargs):
    if result is not None:
        counts["constructions.verify_expectations.unsettled"] += sum(
            1 for row in result.rows if row.ok is None
        )


TARGETS: dict[str, list[tuple[str, str, Callable | None]]] = {
    "graphs.chordless_cycles": [("earpack.graphs", "chordless_cycles", _count_cycles)],
    "graphs.parse_graph": [("earpack.graphs", "parse_graph", None)],
    "connectivity.lambda": [
        ("earpack.connectivity", "cyclic_edge_connectivity", _count_lambda),
        ("earpack.connectivity", "odd_cyclic_edge_connectivity", _count_lambda),
    ],
    "connectivity.min_cut_between": [("earpack.connectivity", "min_cut_between", None)],
    "ears.max_odd_ear_packing": [("earpack.ears", "max_odd_ear_packing", _count_packing)],
    "ears.enumerate_odd_ears": [("earpack.ears", "enumerate_odd_ears", _count_ears)],
    "matching.extend_matching": [("earpack.matching", "extend_matching", _count_extension)],
    "matching.is_distance_d_matching": [("earpack.matching", "is_distance_d_matching", None)],
    "matching.heavy_neighbor_exists": [("earpack.matching", "heavy_neighbor_exists", None)],
    "harness.check_theorem": [("earpack.harness", "check_theorem", None)],
    "harness.distance3_matchings": [("earpack.harness", "distance3_matchings", None)],
    "harness.random_regular": [("earpack.harness", "random_regular", None)],
    "constructions.verify_expectations": [
        ("earpack.constructions", "verify_expectations", _count_unsettled)
    ],
    "cli.main": [("earpack.cli", "main", None)],
}

SPAN_NAMES = tuple(TARGETS)

# a span's layer is the first part of its name
LAYERS = ("graphs", "connectivity", "ears", "matching", "harness", "constructions", "cli")

SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.op_id = SETUP_OP
        self.counts: Counter = Counter()
        self._self_ops: dict[str, float] = defaultdict(float)
        self._self_setup: dict[str, float] = defaultdict(float)
        # one entry per finished span, in completion order
        self._id = array("i")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._next_id = 0
        # open spans: [span id, start, time covered by children]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded earpack module that names it."""
        import earpack  # noqa: F401  (loads every submodule)
        import earpack.cli  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "earpack"]
        for span, targets in TARGETS.items():
            for module_name, attr, counter in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(SPAN_NAMES.index(span), span, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name_id: int, span: str, fn: Callable, counter: Callable | None) -> Callable:
        calls_key = span + ".calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                own = self._self_setup if self.op_id == SETUP_OP else self._self_ops
                own[span] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self._id.append(span_id)
                self._name.append(name_id)
                self._start.append(frame[1])
                self._end.append(end)
                self._parent.append(parent)
                self._op.append(self.op_id)
                self.counts[calls_key] += 1
                if counter is not None:
                    counter(self.counts, result, exc, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- output ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._name)

    def counters(self) -> dict[str, int]:
        """Work counts only (no times): deterministic for fixed inputs."""
        return dict(sorted(self.counts.items()))

    def self_s(self, setup: bool = False) -> dict[str, float]:
        """Self time per span name, over op spans (or over set-up spans)."""
        return dict(self._self_setup if setup else self._self_ops)

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: op, span, parent, name, start_s, end_s.

        Span ids number calls in the order they started; ``parent`` is the
        id of the enclosing span, or -1 at the top of an op.  Op -1 is
        set-up.  Times are ``time.perf_counter`` seconds.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._name)):
                out.write(
                    f"{self._op[i]}\t{self._id[i]}\t{self._parent[i]}\t{SPAN_NAMES[self._name[i]]}\t"
                    f"{self._start[i]:.7f}\t{self._end[i]:.7f}\n"
                )
