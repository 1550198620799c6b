import hashlib
import json

import pytest

from earpack.catalog import (
    heawood_graph,
    projective_plane_incidence,
    random_bipartite_regular,
    strip_matching_base,
    tutte_coxeter_graph,
)
from earpack.graphs import bipartition, is_regular, serialize_graph


class TestRandomBipartiteRegular:
    def test_seeds_that_once_failed(self):
        # the remainder after three matchings may admit very few perfect
        # matchings; the sampler now starts the whole sample over
        for seed in (408, 916, 1124):
            g = random_bipartite_regular(5, 4, seed=seed)
            assert g.n == 10 and is_regular(g) == 4
            black, _ = bipartition(g)
            assert black == frozenset(range(5))

    def test_succeeding_seeds_are_unchanged(self):
        # digest recorded before the restart was added
        h = hashlib.sha256()
        for side, r, seeds in ((5, 4, range(40)), (8, 4, range(10)), (6, 3, range(10)), (11, 4, range(5))):
            for seed in seeds:
                g = random_bipartite_regular(side, r, seed=seed)
                h.update(serialize_graph(g, "graph6") + b"\n")
        assert h.hexdigest() == "5997b39ec58d3d3f83c26dd8483e8e526c77ea510b64d8e03a0a98fe0d0d61b4"


SOURCES = {
    "heawood": heawood_graph,
    "tutte-coxeter": tutte_coxeter_graph,
    "pg23": lambda: projective_plane_incidence(3),
    "cubic90.1": lambda: random_bipartite_regular(90, 3, seed=1),
    "quartic400.2": lambda: random_bipartite_regular(400, 4, seed=2),
}


class TestStripMatchingBasePins:
    # digests recorded when the greedy read an all-pairs distance table
    @pytest.mark.parametrize(
        "source, ell, separation, seed, digest",
        [
            ("heawood", 4, 1, 0, "285fa24ecc4e28d4"),
            ("heawood", 3, 1, 5, "da53e6b43bab937d"),
            ("tutte-coxeter", 6, 2, 0, "085c22b49d4d8bbb"),
            ("tutte-coxeter", 6, 2, 3, "51ee1b580ea19c51"),
            ("pg23", 5, 1, 3, "fa4ab80a7d14857c"),
            ("cubic90.1", 14, 4, 1, "03cb79ba8062044d"),
            ("cubic90.1", 8, 5, 2, "4e61c0ba3f4419de"),
            ("quartic400.2", 20, 3, 7, "53435b97fdfd73da"),
            ("quartic400.2", 10, 5, 1, "3c03c5ff1ada67e9"),
            ("quartic400.2", 30, 4, 3, "ab99e6ce8b7e1329"),
        ],
    )
    def test_pinned_bases(self, source, ell, separation, seed, digest):
        base = strip_matching_base(SOURCES[source](), ell, min_separation=separation, seed=seed)
        payload = [
            base.graph.edges(),
            base.side_b_deficient,
            base.side_w_deficient,
            sorted(base.measured.items()),
        ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "source, ell, separation, seed",
        [("heawood", 2, 3, 1), ("tutte-coxeter", 3, 4, 1), ("cubic90.1", 10, 5, 2)],
    )
    def test_pinned_failures(self, source, ell, separation, seed):
        with pytest.raises(RuntimeError, match="no .*-matching with separation"):
            strip_matching_base(SOURCES[source](), ell, min_separation=separation, seed=seed)

    def test_zero_separation_rejected_up_front(self):
        with pytest.raises(ValueError, match="at least 1"):
            strip_matching_base(heawood_graph(), 2, min_separation=0)
