"""Triangle-neighborhood centrality and companions, with ranking experiments.

The headline score treats each node's triangle neighborhood like a planar
linkage and applies the mobility count for its joints, which lands on a
simple closed form over the neighborhood's edge structure. The package also
ships the six classic measures it is usually compared against, plus the
ranking-comparison and node-removal experiments and a small CLI.
"""

from .graph import (
    Graph,
    NodeId,
    ParseError,
    UnknownNodeError,
    density,
    load_graph,
    parse_edgelist,
    parse_pajek,
    triangle_neighbors,
    triangles_at,
)
from .measures import (
    ConvergenceError,
    Measure,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    compute,
    degree_centrality,
    eigenvector_centrality,
    pagerank,
    sdeg,
    sdeg_centrality,
    tr_centrality,
    triangle_count_centrality,
)
from .experiments import (
    COMPARISON_MEASURES,
    DEFAULT_SEED,
    EXPERIMENT_DAMPING,
    comparison_table,
    random_removal_density,
    rank_top_k,
    removal_impact,
)

__version__ = "0.1.0"

__all__ = [
    "COMPARISON_MEASURES",
    "ConvergenceError",
    "DEFAULT_SEED",
    "EXPERIMENT_DAMPING",
    "Graph",
    "Measure",
    "NodeId",
    "ParseError",
    "ScoreVector",
    "UnknownNodeError",
    "__version__",
    "betweenness_centrality",
    "closeness_centrality",
    "comparison_table",
    "compute",
    "degree_centrality",
    "density",
    "eigenvector_centrality",
    "load_graph",
    "pagerank",
    "parse_edgelist",
    "parse_pajek",
    "random_removal_density",
    "rank_top_k",
    "removal_impact",
    "sdeg",
    "sdeg_centrality",
    "tr_centrality",
    "triangle_count_centrality",
    "triangle_neighbors",
    "triangles_at",
]
