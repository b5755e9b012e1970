"""Serial multilevel partitioner (Metis baseline)."""

from .bisection import bisect_once, bisection_sweeps, recursive_bisection
from .coarsen import CoarseningLadder, CoarseningLevel, coarsen_graph
from .contraction import build_cmap, contract
from .fm import FMResult, bisection_gains, fm_refine_bisection
from .gggp import gggp_bisect, grow_region
from .kway import (
    KwayPassResult,
    connectivity_to,
    kway_connectivity,
    kway_refine,
    kway_refine_pass,
    rebalance_pass,
)
from .matching import MatchResult, match_is_valid, sequential_match
from .options import SerialOptions
from .partitioner import SerialMetis
from .project import project_partition

__all__ = [
    "SerialOptions",
    "SerialMetis",
    "MatchResult",
    "sequential_match",
    "match_is_valid",
    "build_cmap",
    "contract",
    "CoarseningLadder",
    "CoarseningLevel",
    "coarsen_graph",
    "gggp_bisect",
    "grow_region",
    "FMResult",
    "fm_refine_bisection",
    "bisection_gains",
    "recursive_bisection",
    "bisect_once",
    "bisection_sweeps",
    "KwayPassResult",
    "connectivity_to",
    "kway_connectivity",
    "kway_refine",
    "kway_refine_pass",
    "rebalance_pass",
    "project_partition",
]
