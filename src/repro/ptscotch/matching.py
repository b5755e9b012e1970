"""PT-Scotch's Monte-Carlo matching (paper Sec. II.B).

"PT-Scotch follows a Monte-Carlo approach in the matching phase.  Each
node sends its match request based on the HEM method with the
probability of 0.5.  The results show that, after a few iterations, a
large part of the vertices are matched."

The coin flip replaces ParMetis's alternating index-direction filter as
the symmetry breaker: a vertex only *requests* in rounds where its coin
lands heads, and only *grants* when it did not request — so conflicts
cannot arise, at the cost of idle coin-flips.  The grant is ParMetis's
(:func:`repro.parmetis.matching.grant_requests`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._segments import gather_ranges, segmented_argmax
from ..runtime.mpi import MpiSim
from ..parmetis.distgraph import DistGraph
from ..parmetis.matching import grant_requests
from ..serial.matching import check_scheme

__all__ = ["MonteCarloMatchStats", "montecarlo_match"]


@dataclass
class MonteCarloMatchStats:
    pairs: int = 0
    self_matches: int = 0
    rounds: int = 0
    requests_sent: int = 0
    coin_idle: int = 0  # vertices that flipped tails while unmatched


def montecarlo_match(
    dist: DistGraph,
    mpi: MpiSim,
    scheme: str = "hem",
    max_rounds: int = 6,
    request_probability: float = 0.5,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, MonteCarloMatchStats]:
    """Run the probabilistic request/grant matching; returns (match, stats).

    Raises :class:`InvalidParameterError` for a scheme outside hem/lem/rm.
    """
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    graph = dist.graph
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = MonteCarloMatchStats()

    uniform = bool(
        graph.adjwgt.size and graph.adjwgt.min() == graph.adjwgt.max()
    )

    for _round in range(max_rounds):
        unmatched = np.where(match < 0)[0]
        if unmatched.size <= 1:
            break
        stats.rounds += 1

        heads = rng.random(unmatched.shape[0]) < request_probability
        requesters = unmatched[heads]
        stats.coin_idle += int((~heads).sum())

        if requesters.size:
            lens = (graph.adjp[requesters + 1] - graph.adjp[requesters]).astype(np.int64)
            flat = gather_ranges(graph.adjp[requesters], lens)
            nbrs = graph.adjncy[flat]
            # Valid targets: unmatched AND not requesting this round
            # (requesters never grant, so asking one would be wasted).
            requesting = np.zeros(n, dtype=bool)
            requesting[requesters] = True
            valid = (match[nbrs] < 0) & ~requesting[nbrs]
            # Each requester asks its first valid neighbor of maximal key,
            # in CSR order: the weight for HEM, its negation for LEM.
            if scheme == "hem" and not uniform:
                keys = graph.adjwgt[flat].astype(np.float64)
            elif scheme == "lem":
                keys = -graph.adjwgt[flat].astype(np.float64)
            else:
                keys = rng.random(flat.shape[0])
            win = segmented_argmax(keys, lens, valid=valid)
            has = win >= 0
            v = requesters[has]
            u = nbrs[win[has]]
            w = graph.adjwgt[flat[win[has]]]
            stats.requests_sent += int(v.shape[0])

            if v.size:
                stats.pairs += grant_requests(match, v, u, w, scheme)

                v_rank = dist.rank_of[v]
                u_rank = dist.rank_of[u]
                mpi.exchange(v_rank, u_rank, np.full(v.shape[0], 16.0),
                             detail=f"mc requests r{_round}")
                mpi.exchange(u_rank, v_rank, np.full(u.shape[0], 8.0),
                             detail=f"mc grants r{_round}")

        degs = (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).astype(np.float64)
        # After a fold the graph lives on fewer ranks than the job has;
        # idle ranks contribute zero compute.
        per_rank = np.bincount(
            dist.rank_of[unmatched], weights=degs, minlength=mpi.num_ranks
        )
        mpi.compute(per_rank, detail=f"mc match r{_round}",
                    avg_degree=2 * graph.num_edges / max(1, n))
        mpi.allreduce(detail=f"mc termination r{_round}")

    left = match < 0
    match[left] = np.where(left)[0]
    stats.self_matches = int(left.sum())
    return match, stats
