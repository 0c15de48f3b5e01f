"""sprinkle: how many random edges force a monotone property on a dense
graph.

The package bundles base-graph generators, two random edge-addition
models, exact checkers for cliques / diameter / connectivity / coloring
/ subgraph density, a partition of dense graphs into highly connected
parts, epsilon-regular pair verification, and a reproducible Monte
Carlo sweep harness with preset threshold experiments.
"""

from .augment import AugmentResult, augment_bernoulli, augment_uniform
from .checkers import (
    DensityMeasure,
    PropertyVerdict,
    chromatic_number,
    clique_number,
    connected_components,
    contains_kr,
    count_kr,
    diameter,
    diameter_at_most,
    is_connected,
    is_k_connected,
    max_clique,
    max_subgraph_density,
    minimum_coloring,
    vertex_connectivity,
)
from .core import (
    Graph,
    VertexSet,
    density_param,
    induced_subgraph,
    is_dense,
    min_degree,
    non_edges,
    read_edge_list,
    write_edge_list,
)
from .generators import (
    blocked_gnp,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_cliques,
    empty_graph,
    gnm,
    mader_tightness_graph,
    nearly_equal_parts,
    path_graph,
    two_cliques,
)
from .harness import (
    SweepConfig,
    SweepResult,
    ThresholdEstimate,
    deterministic_lower_bound_check,
    estimate_threshold,
    run_sweep,
    theorem_preset,
)
from .partition import PartitionResult, dense_partition, mader_subgraph
from .regularity import (
    RegularityParams,
    RegularPairReport,
    count_intersection_violations,
    count_union_violations,
    full_pair_report,
    is_eps_regular_exact,
    pair_density,
)
from .seeds import SeedSpec, as_seed

__version__ = "0.1.0"
