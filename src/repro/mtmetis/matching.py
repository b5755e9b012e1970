"""Lock-free two-round matching (mt-metis scheme, paper Sec. II.C / III.A).

Round 1: every thread scans its vertices and writes matches to the shared
matching vector with **no synchronisation**.  Because threads read stale
state, two vertices can claim the same partner.  Round 2 detects the
asymmetry (``match[match[v]] != v``) and resolves it.

Concurrency is simulated deterministically with *lockstep batches*: a
batch holds the next vertex of every thread; all reads in a batch see the
pre-batch state, writes apply in thread order (last writer wins, the
hardware's arbitration).  More threads => bigger batches => staler reads
=> more conflicts — the effect the paper measures when comparing 8-thread
mt-metis against thousands-of-threads GP-metis (Table III discussion).

The same engine serves both mt-metis and GP-metis's matching kernel; they
differ in batch width, retry policy, and cost accounting.  The width also
picks how a round is replayed.  A round whose widest batch holds at most
:data:`LIST_WALK_MAX_WIDTH` vertices (mt-metis's CPU threads) walks its
schedule over Python-list copies of the CSR: a numpy round trip per
8-vertex batch costs far more than the batch's work.  Wider rounds
(GP-metis's GPU-wide batches) run :func:`batch_candidates` once per batch.
Both replays make the same reads, writes and ``rng`` draws; the pick
itself, the scheme's keys and the leftover self-match are
:mod:`repro.serial.matching`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..serial.matching import (
    batch_candidates,
    check_scheme,
    scheme_keys,
    self_match_leftovers,
)

__all__ = [
    "LockfreeMatchStats",
    "lockfree_match",
    "batch_candidates",
    "LIST_WALK_MAX_WIDTH",
]

#: Widest batch (in vertices) of a round that is replayed as a list walk.
#: The walk costs per scanned arc, the vectorised loop per batch.  On a
#: 2-vCPU host they break even at about 12 vertices per batch on ldoor
#: (degree 47) and 64-96 on delaunay and usa_roads (degree 6 and 2.4).
#: 16 covers mt-metis's thread counts (8 by default) and stays far below
#: GP-metis's GPU-wide batches.
LIST_WALK_MAX_WIDTH = 16


@dataclass
class LockfreeMatchStats:
    """Counters of one lock-free matching (feeds trace + cost models)."""

    pairs: int = 0
    conflicts: int = 0
    self_matches: int = 0
    rounds: int = 0
    edge_scans: int = 0
    #: Per-batch sizes of round 1 (for SIMT divergence accounting).
    batch_sizes: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.batch_sizes is None:
            self.batch_sizes = []


def _walk_batches(
    csr: tuple[list, list, list | None],
    match: list,
    schedule: list[np.ndarray],
    rng: np.random.Generator,
    stats: LockfreeMatchStats,
) -> None:
    """Replay one round's schedule vertex by vertex over Python lists.

    ``csr`` is ``(adjp, adjncy, keys)``: ``keys`` lists the
    :func:`scheme_keys` that :func:`batch_candidates` ranks by, or is
    ``None`` for RM, whose keys are drawn per batch exactly as there.
    Every candidate of a batch reads the pre-batch ``match``; the claims
    then land in two sweeps, all ``M[v] = u`` before all ``M[u] = v``,
    the last writer winning.
    """
    adjp, adjncy, keys = csr
    for batch in schedule:
        todo = [v for v in batch.tolist() if match[v] < 0]
        if not todo:
            continue
        scans = 0
        for v in todo:
            scans += adjp[v + 1] - adjp[v]
        stats.edge_scans += scans
        stats.batch_sizes.append(len(todo))
        # RM's keys: one draw per batch, laid out arc by arc in todo order.
        drawn = rng.random(scans).tolist() if keys is None else None
        offset = 0
        claims = []
        for v in todo:
            s, e = adjp[v], adjp[v + 1]
            arc_keys, shift = (keys, 0) if drawn is None else (drawn, offset - s)
            offset += e - s
            # The first free neighbor of maximal key, in CSR order.
            best, top = -1, -math.inf
            for i in range(s, e):
                key = arc_keys[i + shift]
                if key > top and match[adjncy[i]] < 0:
                    best, top = adjncy[i], key
            if best >= 0:
                claims.append((v, best))
        for v, u in claims:
            match[v] = u
        for v, u in claims:
            match[u] = v


def lockfree_match(
    graph: CSRGraph,
    batches: Iterable[np.ndarray] | Iterator[np.ndarray],
    scheme: str = "hem",
    rng: np.random.Generator | None = None,
    retry_rounds: int = 0,
    batch_maker=None,
    resolve_conflicts: bool = True,
) -> tuple[np.ndarray, LockfreeMatchStats]:
    """Run the two-round lock-free matching.

    Parameters
    ----------
    batches:
        Iterable of vertex batches for round 1 (a lockstep schedule).
    retry_rounds:
        After conflict resolution, conflicted vertices may retry matching
        in additional lock-free rounds (mt-metis style).  ``batch_maker``
        must then be provided: a callable ``(vertices) -> iterable of
        batches`` producing the retry schedule.
    resolve_conflicts:
        ``False`` skips round 2 entirely, leaving non-reciprocated claims
        (``match[match[v]] != v``) in the output — an **intentionally
        broken** mode that exists only as the sanitizer's mutation
        self-check: the resulting asymmetric writes must be flagged as a
        data race.  Never disable this in production paths.

    Each round's schedule is materialised first.  If its widest batch
    holds at most :data:`LIST_WALK_MAX_WIDTH` vertices the round is a list
    walk, otherwise a :func:`batch_candidates` call per batch; the output
    and the ``rng`` state after the call are the same either way.  Raises
    :class:`InvalidParameterError` for a scheme other than hem, lem or rm,
    and for a batch vertex outside ``[0, n)``.
    """
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = LockfreeMatchStats()
    csr_lists = None  # list copies of the CSR, made by the first walked round

    def run_round(batch_iter) -> None:
        nonlocal csr_lists
        stats.rounds += 1
        schedule = [np.asarray(batch, dtype=np.int64) for batch in batch_iter]
        flat = np.concatenate(schedule) if schedule else np.empty(0, np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= n):
            bad = int(flat[(flat < 0) | (flat >= n)][0])
            raise InvalidParameterError(f"batch vertex {bad} outside [0, {n})")
        if max((batch.size for batch in schedule), default=0) <= LIST_WALK_MAX_WIDTH:
            if csr_lists is None:
                keys = scheme_keys(graph, scheme)
                if keys is not None and graph.adjwgt.max(initial=0) > 2**53:
                    # Beyond float64's exact integers batch_candidates'
                    # keys tie distinct weights: rank by those keys.
                    keys = keys.astype(np.float64)
                csr_lists = (
                    graph.adjp.tolist(), graph.adjncy.tolist(),
                    None if keys is None else keys.tolist(),
                )
            walked = match.tolist()
            _walk_batches(csr_lists, walked, schedule, rng, stats)
            match[:] = walked
            return
        for batch in schedule:
            if batch.size == 0:
                continue
            snapshot = match  # reads against pre-batch state
            todo = batch[snapshot[batch] < 0]
            if todo.size == 0:
                continue
            arcs = batch_candidates(graph, todo, snapshot < 0, scheme, rng)
            stats.edge_scans += int(
                (graph.adjp[todo + 1] - graph.adjp[todo]).sum()
            )
            stats.batch_sizes.append(int(todo.size))
            has = arcs >= 0
            vs, us = todo[has], graph.adjncy[arcs[has]]
            # Writes land in thread order: later entries overwrite earlier
            # claims of the same partner (last-writer-wins arbitration).
            match[vs] = us
            match[us] = vs

    run_round(batches)

    # Conflict resolution kernel: v claims u but u's cell names another.
    def resolve() -> np.ndarray:
        claimed = np.where(match >= 0)[0]
        bad = claimed[match[match[claimed]] != claimed]
        match[bad] = -1
        return bad

    if not resolve_conflicts:
        # Mutation mode: count (but keep) the asymmetric claims round 2
        # would have repaired, then self-match only the never-claimed.
        claimed = np.where(match >= 0)[0]
        stats.conflicts += int((match[match[claimed]] != claimed).sum())
    else:
        conflicted = resolve()
        stats.conflicts += int(conflicted.shape[0])
        for _ in range(retry_rounds):
            if conflicted.size == 0 or batch_maker is None:
                break
            run_round(batch_maker(conflicted))
            conflicted = resolve()
            stats.conflicts += int(conflicted.shape[0])

    stats.self_matches = self_match_leftovers(match)
    ids = np.arange(n, dtype=np.int64)
    stats.pairs = int(((match != ids) & (ids < match)).sum())
    return match, stats
