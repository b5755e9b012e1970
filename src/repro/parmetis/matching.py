"""ParMetis's alternating-direction match-request protocol (Sec. II.B).

"The matching phase consists of two passes: in the even numbered passes,
each vertex ... sends a match request to its corresponding vertex ...
using HEM, but only if v > u.  Correspondingly, in the odd numbered
passes, a vertex sends its request only if v < u.  After a few passes, a
maximal set is reached. ... each processor sends its match requests in
one single message to the corresponding processors."

The direction filter breaks request symmetry; a target grants its best
incoming request, keyed the way the requests were made (the heaviest
edge under HEM and RM, the lightest under LEM; the lowest requester id
on ties) — but only if it did not itself send a request this pass, so
grants never collide with the grantee's own match.  The protocol is conflict-free by
construction, which is why ParMetis needs no resolution kernel but pays a
synchronisation per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._segments import gather_ranges, segmented_argmax
from ..graphs.csr import CSRGraph
from ..runtime.mpi import MpiSim
from ..serial.matching import check_scheme
from .distgraph import DistGraph

__all__ = ["DistMatchStats", "distributed_match", "grant_requests"]


@dataclass
class DistMatchStats:
    pairs: int = 0
    self_matches: int = 0
    passes: int = 0
    requests_sent: int = 0
    remote_requests: int = 0
    edge_scans: int = 0


def _candidates_with_weights(
    graph: CSRGraph,
    vertices: np.ndarray,
    match: np.ndarray,
    scheme: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Best unmatched neighbor and the connecting edge weight, per vertex."""
    lens = (graph.adjp[vertices + 1] - graph.adjp[vertices]).astype(np.int64)
    flat = gather_ranges(graph.adjp[vertices], lens)
    nbrs = graph.adjncy[flat]
    valid = match[nbrs] < 0
    if scheme == "hem":
        keys = graph.adjwgt[flat].astype(np.float64)
    elif scheme == "lem":
        keys = -graph.adjwgt[flat].astype(np.float64)
    else:
        keys = rng.random(flat.shape[0])
    win = segmented_argmax(keys, lens, valid=valid)
    cand = np.full(vertices.shape[0], -1, dtype=np.int64)
    wgt = np.zeros(vertices.shape[0], dtype=np.int64)
    ok = win >= 0
    cand[ok] = nbrs[win[ok]]
    wgt[ok] = graph.adjwgt[flat[win[ok]]]
    return cand, wgt


def grant_requests(
    match: np.ndarray, v: np.ndarray, u: np.ndarray, w: np.ndarray, scheme: str
) -> int:
    """Each target ``u`` grants one incoming request ``v -> u`` (edge
    weight ``w``) and the pair joins ``match``; returns the pairs made.

    The grant is keyed as the requests were: the lightest request wins
    under LEM, the heaviest under HEM and RM; ties go to the lowest
    requester id.  ParMetis and PT-Scotch share this step.
    """
    order = np.lexsort((v, w if scheme == "lem" else -w, u))
    u_s, v_s = u[order], v[order]
    first = np.concatenate([[True], u_s[1:] != u_s[:-1]])
    gu, gv = u_s[first], v_s[first]
    match[gu] = gv
    match[gv] = gu
    return int(gu.shape[0])


def distributed_match(
    dist: DistGraph,
    mpi: MpiSim,
    scheme: str = "hem",
    num_passes: int = 4,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, DistMatchStats]:
    """Run the request/grant matching; returns (match, stats).

    Messages are charged per pass: one aggregated request message per
    (src rank, dst rank) with work, one grant message back, plus a
    termination allreduce.  Raises :class:`InvalidParameterError` for a
    scheme outside hem/lem/rm.
    """
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    graph = dist.graph
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = DistMatchStats()

    # Uniform edge weights degenerate HEM into a deterministic lowest-id
    # preference, collapsing all requests onto a few popular targets;
    # switch to random matching, as the partitioners do (Sec. III.A).
    if (
        scheme == "hem"
        and graph.adjwgt.size
        and graph.adjwgt.min() == graph.adjwgt.max()
    ):
        scheme = "rm"

    for pass_i in range(num_passes):
        unmatched = np.where(match < 0)[0]
        if unmatched.size == 0:
            break
        stats.passes += 1
        cand, wgt = _candidates_with_weights(graph, unmatched, match, scheme, rng)
        stats.edge_scans += int(
            (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).sum()
        )
        has = cand >= 0
        v = unmatched[has]
        u = cand[has]
        w = wgt[has]
        # Alternating direction filter.
        send = (v > u) if pass_i % 2 == 0 else (v < u)
        v, u, w = v[send], u[send], w[send]
        stats.requests_sent += int(v.shape[0])

        # A vertex that sent a request does not grant this pass.
        sent_mask = np.zeros(n, dtype=bool)
        sent_mask[v] = True
        grantable = ~sent_mask[u]
        v, u, w = v[grantable], u[grantable], w[grantable]

        if v.size:
            stats.pairs += grant_requests(match, v, u, w, scheme)

        # Communication: aggregated request + grant messages.
        v_rank = dist.rank_of[v] if v.size else np.empty(0, dtype=np.int64)
        u_rank = dist.rank_of[u] if u.size else np.empty(0, dtype=np.int64)
        remote = v_rank != u_rank
        stats.remote_requests += int(remote.sum())
        # Local compute: each rank scans its unmatched vertices' lists.
        degs = (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).astype(np.float64)
        per_rank = np.bincount(
            dist.rank_of[unmatched], weights=degs, minlength=dist.num_ranks
        )
        mpi.compute(
            per_rank, detail=f"match pass {pass_i}",
            avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
        )
        if v.size:
            mpi.exchange(v_rank, u_rank, np.full(v.shape[0], 16.0),
                         detail=f"match requests p{pass_i}")
            mpi.exchange(u_rank, v_rank, np.full(u.shape[0], 8.0),
                         detail=f"match grants p{pass_i}")
        mpi.allreduce(detail=f"match termination p{pass_i}")

    left = match < 0
    match[left] = np.where(left)[0]
    stats.self_matches = int(left.sum())
    return match, stats
