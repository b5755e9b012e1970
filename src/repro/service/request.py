"""The canonical input type of the partition API: one request record.

Every way of running a partitioner — the synchronous
:func:`repro.partition` facade, the CLI, the benchmark drivers, and the
concurrent :class:`~repro.service.PartitionService` — builds a
:class:`PartitionRequest` and executes it.  The request owns the mapping
to the engine registry (:data:`repro.api.PARTITIONERS`), the effective
seed, and the *config fingerprint* — the run ledger's
``{engine, graph, k, seed, options_hash}`` digest plus a content digest
of the graph's CSR arrays.  The extra component matters to the service
result cache: two distinct graphs can share a display name (two
``delaunay(300)`` draws with different seeds), and a cache keyed on the
name alone would serve one graph's partition vector for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..engine import check_k
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..result import PartitionResult
from ..runtime.machine import MachineSpec

__all__ = ["PartitionRequest"]


@dataclass(frozen=True)
class PartitionRequest:
    """One partition job: what to run, on what, and how urgently.

    ``seed`` overrides any ``options["seed"]``; ``priority`` is a lane
    index (0 is most urgent); ``tags`` are free-form labels carried into
    service records for workload attribution.
    """

    graph: CSRGraph
    k: int
    method: str = "gp-metis"
    options: Mapping = field(default_factory=dict)
    seed: int | None = None
    priority: int = 1
    tags: tuple[str, ...] = ()
    machine: MachineSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.graph, CSRGraph):
            raise InvalidParameterError(
                f"graph must be a CSRGraph, got {type(self.graph).__name__}"
            )
        check_k(self.k)
        # A NumPy integer k would leak into JSON ledger records.
        object.__setattr__(self, "k", int(self.k))
        if not isinstance(self.priority, int) or self.priority < 0:
            raise InvalidParameterError(
                f"priority must be an int >= 0, got {self.priority!r}"
            )
        object.__setattr__(self, "options", dict(self.options))
        object.__setattr__(self, "tags", tuple(self.tags))
        if self.seed is not None and "seed" in self.options and (
            self.options["seed"] != self.seed
        ):
            raise InvalidParameterError(
                f"conflicting seeds: request.seed={self.seed} vs "
                f"options['seed']={self.options['seed']}"
            )

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The canonical registry key (aliases resolved)."""
        from ..api import resolve_method

        return resolve_method(self.method)

    def engine_kwargs(self) -> dict:
        """The option overrides handed to the options dataclass."""
        kwargs = dict(self.options)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def engine_options(self):
        """The fully-resolved options dataclass instance."""
        from ..api import resolve_options

        return resolve_options(self.method, **self.engine_kwargs())

    @property
    def effective_seed(self) -> int | None:
        """The seed the engine will actually run with (options default
        included), mirroring what ``profile_run`` stamps on the ledger."""
        return getattr(self.engine_options(), "seed", None)

    def config(self) -> dict:
        """The ledger-style config block this request resolves to."""
        from ..obs.ledger import options_hash

        opts = self.engine_options()
        return {
            "engine": self.engine,
            "graph": self.graph.name,
            # Content identity, not just the display name: same-named
            # graphs with different arrays must not share a cache entry.
            "graph_digest": self.graph.content_digest,
            "k": int(self.k),
            "seed": getattr(opts, "seed", None),
            "options_hash": options_hash(opts),
        }

    @property
    def fingerprint(self) -> str:
        """The config fingerprint of this request — the result-cache key.

        Digest of :meth:`config`, i.e. the ledger config block extended
        with the graph's CSR content digest, so requests agree exactly
        when engine, graph *content*, k, seed and options all agree."""
        from ..obs.ledger import config_fingerprint

        return config_fingerprint(self.config())

    # ------------------------------------------------------------------
    def build_partitioner(self):
        from ..api import make_partitioner

        return make_partitioner(
            self.method, machine=self.machine, **self.engine_kwargs()
        )

    def run(self) -> PartitionResult:
        """Execute this request synchronously on the calling thread."""
        return self.build_partitioner().partition(self.graph, self.k)

    def with_overrides(self, **changes) -> "PartitionRequest":
        """A copy of this request with fields replaced."""
        return replace(self, **changes)
