"""Clique graph dynamics on locally cyclic graphs."""

from .charts import (
    Chart,
    ChartConflictError,
    ChartError,
    MarginError,
    extend_chart,
    find_standard_charts,
    neighbour_triangles,
)
from .cliques import IterationTrace, clique_graph, iterate_k, max_cliques
from .covers import (
    CoverBall,
    CoverError,
    Verdict,
    decide_finite,
    delta_embedding_bound,
    universal_cover_ball,
    validate_covering_map,
)
from .generators import hex_torus, icosahedron, octahedron
from .geometric import (
    GeoBuilder,
    GeoError,
    GeoGraph,
    c_map,
    clique_from_triangle,
    clique_from_vertex,
    clique_summary,
    verify_geometric_equivalence,
)
from .graph import (
    Graph,
    GraphError,
    UnknownVertexError,
    closed_neighbourhood,
    common_neighbourhood,
    induced_subgraph,
)
from .hexgrid import (
    HexRegion,
    build_lhg,
    classify_delta_inclusions,
    gen_delta,
    gen_hex_patch,
    gen_nabla,
    lhg_cliques_through_origin,
)
from .isomorphism import (
    BudgetError,
    canonical_hash,
    find_isomorphism,
    induced_embeddings,
    is_isomorphic,
)
from .surface import (
    SurfaceError,
    classify_vertex,
    disc_discharge_check,
    facets,
    maximal_straight_paths,
    validate_surface,
)

__version__ = "0.1.0"
