"""Containment exponents of tree tensor-network varieties.

Computes and cross-validates how much the dimension vector of one tree
tensor network must be boosted so that its variety of network states
contains another: exact minimum doad-set covers, structural bounds from
plane-tree heights and the vertex poset, an equivalent integer program
with LP export, an exhaustive small-tree search, and finite-field rank
verification on sampled network tensors.
"""

from .trees import (
    Tree,
    parse_tree,
    build_ht,
    build_tt,
    enumerate_shapes,
    enumerate_plane_trees,
    heights,
    Permutation,
    mask_from_leaves,
    leaves_of_mask,
)
from .covers import (
    CoverCounter,
    build_cover_table,
    cover_exponent,
    ExponentReport,
    check_trivial_containment,
)
from .bounds import (
    BoundValue,
    trivial_bound,
    poset_bound,
    poset_table,
    height_bound_tt,
    plane_general_bound,
    compose_exponents,
)
from .ilp import IpModel, build_ip, solve_ip, export_lp
from .search import SearchResult, run_search, write_results, verify_against_reference
from .ranks import (
    PRIME,
    NetworkSpec,
    SampledTensor,
    sample_tensor,
    flattening_rank,
    rank_profile,
    empirical_exponent,
    mat_rank,
)

__version__ = "0.1.0"

__all__ = [
    "Tree", "parse_tree", "build_ht", "build_tt",
    "enumerate_shapes", "enumerate_plane_trees", "heights", "Permutation",
    "mask_from_leaves", "leaves_of_mask",
    "CoverCounter", "build_cover_table", "cover_exponent",
    "ExponentReport", "check_trivial_containment",
    "BoundValue", "trivial_bound", "poset_bound", "poset_table",
    "height_bound_tt", "plane_general_bound", "compose_exponents",
    "IpModel", "build_ip", "solve_ip", "export_lp",
    "SearchResult", "run_search", "write_results", "verify_against_reference",
    "PRIME", "NetworkSpec", "SampledTensor", "sample_tensor",
    "flattening_rank", "rank_profile", "empirical_exponent", "mat_rank",
    "__version__",
]
