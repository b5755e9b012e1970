"""ParMetis initial partitioning (Sec. II.B).

"The initial partitioning phase starts with an all-to-all broadcast of
vertices among the processors.  Each processor performs a recursive
bisection algorithm, where the processor completes one branch of the
bisection tree."

All ranks redundantly compute the root bisection, then the rank groups
split down the tree — so the critical path is one root-to-leaf chain of
bisections, about two full sweeps of the coarsest graph (the subgraph
halves at each tree level).  Quality equals the serial recursive
bisection (one trial per node).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime.mpi import MpiSim
from ..serial.bisection import recursive_bisection
from ..serial.options import FM_PASSES, GGGP_TRIALS, SerialOptions

__all__ = ["distributed_initial_partition"]


def distributed_initial_partition(
    graph: CSRGraph,
    k: int,
    opts: SerialOptions,
    mpi: MpiSim,
    rng: np.random.Generator,
) -> np.ndarray:
    """All-to-all the coarsest graph, then parallel recursive bisection."""
    # All-to-all broadcast: every rank ends up with the whole coarse graph.
    mpi.allgather(graph.nbytes / max(1, mpi.num_ranks), detail="initpart allgather")

    part = recursive_bisection(graph, k, opts, rng=rng)

    # Critical path: one branch of the bisection tree — the subgraph halves
    # each level, so the chain sums to ~2x one full sweep set.
    sweeps = GGGP_TRIALS + FM_PASSES
    chain_edges = 2.0 * graph.num_directed_edges * sweeps
    per_rank = np.zeros(mpi.num_ranks)
    per_rank[0] = chain_edges  # every rank walks one chain; charge the max
    mpi.compute(
        per_rank, detail="recursive bisection branch",
        avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
    )
    mpi.allreduce(detail="initpart best-cut election")
    return part
