"""rigidpack: (2,3)-sparse decompositions, rigid-subgraph and spanning-tree
packings, and exact partition-condition checking on multigraphs, by
branch and bound over the partitions."""

from .conditions import (
    PQ_STEP_LIMIT,
    ConditionReport,
    GammaResult,
    check_cover_condition,
    check_necessary_condition,
    check_parthm_condition,
    check_tree_packing_condition,
    gamma,
    gamma2,
    is_bracket_partition_connected,
    is_pq_connected,
)
from .enumeration import PARTITION_BUDGET
from .errors import (
    GraphInputError,
    LimitExceededError,
    RigidpackError,
)
from .matroids import (
    PebbleGame,
    RankResult,
    graphic_rank,
    rigidity_rank,
)
from .multigraph import (
    VERTEX_LIMIT,
    Multigraph,
    Partition,
    adjacent_number,
    cross_edge_count,
    format_graph,
    induced_edge_count,
    load_graph,
    parse_graph,
    random_multigraph,
    write_graph,
)
from .ndt import (
    BoundedCover,
    check_kwz_condition,
    degree_bound,
    degree_bound_floor,
    ndt_decompose,
    verify_bounded_cover,
)
from .packing import (
    Packing,
    pack_rigid_and_trees,
    verify_packing,
)
from .union import (
    Decomposition,
    UnionRank,
    decompose,
    union_rank,
    verify_decomposition,
)

__version__ = "0.1.0"
