import hashlib

from earpack.catalog import random_bipartite_regular
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
