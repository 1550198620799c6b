"""earpack: matching extension in regular graphs.

Distance-restricted matchings, cyclic and odd-cyclic edge connectivity with
cut certificates, edge-disjoint odd-ear packings, barrier certificates for
non-extendable matchings, and the extremal constructions that show where
the extension theorem's hypotheses are tight.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    INF,
    CycleList,
    Graph,
    GraphFormatError,
    bipartition,
    boundary_edges,
    chordless_cycles,
    edge_distance,
    girth,
    induced_subgraph,
    is_regular,
    parse_graph,
    serialize_graph,
    vertex_distance,
)
from .matching import (  # noqa: F401
    BarrierCertificate,
    ExtensionResult,
    Matching,
    boundary_identity_sides,
    extend_matching,
    heavy_neighbor_exists,
    is_distance_d_matching,
    maximum_matching,
    verify_barrier,
)
from .connectivity import (  # noqa: F401
    ConnectivityValue,
    CutCertificate,
    InexactSearchError,
    cyclic_edge_connectivity,
    min_cut_between,
    odd_cyclic_edge_connectivity,
    verify_cut,
)
from .ears import (  # noqa: F401
    Ear,
    EarPacking,
    PackingResult,
    max_odd_ear_packing,
    validate_ear,
    verify_packing,
)
from .budget import DEFAULT_BUDGET, SearchBudget  # noqa: F401
