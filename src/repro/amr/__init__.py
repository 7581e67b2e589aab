"""Block-structured AMR substrate (AMReX re-implementation in Python).

Provides the index-space and mesh machinery the paper's AMReX-Castro
runs depend on: boxes, box arrays, geometry, gradient tagging,
Berger–Rigoutsos clustering, grid generation with blocking factor and
max grid size, distribution mappings, multifabs and the regridding
hierarchy.
"""

from .box import Box, bounding_box, coarsen_index, refine_index
from .boxarray import BoxArray
from .cluster import ClusterParams, berger_rigoutsos, grid_efficiency
from .distribution import (
    DistributionMapping,
    knapsack_map,
    make_distribution,
    morton_key,
    rank_loads,
    round_robin_map,
    sfc_map,
)
from .geometry import CoordSys, Geometry
from .hilbert import hilbert_key, hilbert_map
from .grid import GridParams, align_to_blocking_factor, chop_to_max_size, make_level_grids
from .hierarchy import AmrHierarchy, AmrParams, LevelState
from .interp import prolong_bilinear, prolong_constant, restrict_average
from .multifab import Fab, MultiFab
from .tagging import TagCriteria, buffer_tags, tag_gradient, tagged_boxes_1cell

__all__ = [
    "Box",
    "BoxArray",
    "bounding_box",
    "coarsen_index",
    "refine_index",
    "ClusterParams",
    "berger_rigoutsos",
    "grid_efficiency",
    "DistributionMapping",
    "knapsack_map",
    "make_distribution",
    "morton_key",
    "rank_loads",
    "round_robin_map",
    "sfc_map",
    "CoordSys",
    "Geometry",
    "hilbert_key",
    "hilbert_map",
    "GridParams",
    "align_to_blocking_factor",
    "chop_to_max_size",
    "make_level_grids",
    "AmrHierarchy",
    "AmrParams",
    "LevelState",
    "prolong_bilinear",
    "prolong_constant",
    "restrict_average",
    "Fab",
    "MultiFab",
    "TagCriteria",
    "buffer_tags",
    "tag_gradient",
    "tagged_boxes_1cell",
]
