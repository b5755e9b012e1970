"""mt-metis reproduction: shared-memory parallel multilevel partitioning."""

from .contraction import threaded_contract
from .initpart import parallel_recursive_bisection
from .matching import LockfreeMatchStats, batch_candidates, lockfree_match
from .options import MtMetisOptions
from .partitioner import MtMetis
from .refinement import (
    SubIterationStats,
    balance_rounds,
    commit_moves,
    propose_moves,
    refine_level,
)

__all__ = [
    "MtMetis",
    "MtMetisOptions",
    "lockfree_match",
    "batch_candidates",
    "LockfreeMatchStats",
    "threaded_contract",
    "parallel_recursive_bisection",
    "refine_level",
    "propose_moves",
    "commit_moves",
    "balance_rounds",
    "SubIterationStats",
]
