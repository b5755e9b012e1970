"""Fault plans: the declarative "what can go wrong" of a run.

A :class:`FaultPlan` is a seeded, schema-validated list of
:class:`FaultSpec` entries.  Each spec names one *injection site* (a
stable string like ``transfer.h2d`` — see :data:`SITES`), a fault *kind*
(what happens when the site fires), a firing probability, and a cap on
how many times it may fire.  Given the same plan (same seed, same
specs), the injector makes bit-identical decisions run after run — a
fault schedule is as reproducible as the partition itself.

Plans come from three places:

* hand-written JSON (``python -m repro partition G --fault-plan plan.json``);
* a seed (:func:`FaultPlan.from_seed`, ``--fault-seed N``): a small
  random plan drawn deterministically over all sites;
* :func:`FaultPlan.full`: one spec per site/kind — the worst-case
  storm ``repro selfcheck`` must survive.

Schema (``repro.faults.plan/1``)::

    {
      "schema": "repro.faults.plan/1",
      "seed": 7,
      "specs": [
        {"site": "transfer.h2d", "kind": "fail",
         "probability": 1.0, "max_fires": 1, "match": "csr"},
        {"site": "gpu.capacity", "kind": "squeeze", "factor": 0.5}
      ]
    }
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..exceptions import InvalidParameterError
from ..obs.schema import SchemaError, _require

__all__ = ["FAULT_PLAN_SCHEMA", "SITES", "FaultSpec", "FaultPlan",
           "validate_fault_plan", "load_plan"]

#: Schema tag of a fault-plan JSON document.
FAULT_PLAN_SCHEMA = "repro.faults.plan/1"

#: Injection site -> fault kinds it understands.
SITES: dict[str, tuple[str, ...]] = {
    # Device memory: allocation failure, or a capacity squeeze that
    # shrinks the device's usable global memory for the whole run.
    "gpu.alloc": ("oom",),
    "gpu.capacity": ("squeeze",),
    # Kernel launches: hard abort, or a watchdog timeout (charges the
    # stall time, then aborts the launch).
    "kernel.launch": ("abort", "timeout"),
    # PCIe copies: outright failure, or corruption caught by the
    # transfer-layer checksum (both surface as TransferError).
    "transfer.h2d": ("fail", "corrupt"),
    "transfer.d2h": ("fail", "corrupt"),
    # Shared-memory workers: a slow straggler (charges barrier time), or
    # a stall past the deadlock watchdog.
    "thread.stall": ("stall", "deadlock"),
    # MPI messages: a dropped message (recovered by retransmission) or a
    # duplicated one (recovered by receiver-side dedup).
    "mpi.message": ("drop", "duplicate"),
}

#: Kinds that consume simulated time when they fire (timeout/stall).
_TIMED_KINDS = {"timeout": 2e-3, "stall": 5e-4}


@dataclass(frozen=True)
class FaultSpec:
    """One kind of fault at one injection site."""

    site: str
    kind: str
    #: Chance the site fires on each check (drawn from the spec's own
    #: seeded stream, so specs never perturb each other's decisions).
    probability: float = 1.0
    #: Total firings allowed across the run; 0 means unlimited — an
    #: unlimited "fail" spec makes the site *persistently* broken, which
    #: is what pushes an engine down its degradation ladder.
    max_fires: int = 1
    #: Substring filter on the operation label (e.g. only ``csr.adjncy``
    #: transfers); empty matches everything at the site.
    match: str = ""
    #: Simulated seconds consumed by timed kinds (timeout/stall).
    seconds: float = 0.0
    #: Capacity multiplier for ``gpu.capacity``/``squeeze``.
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise InvalidParameterError(
                f"unknown fault site {self.site!r}; sites: {', '.join(SITES)}"
            )
        if self.kind not in SITES[self.site]:
            raise InvalidParameterError(
                f"site {self.site!r} does not support kind {self.kind!r}; "
                f"kinds: {', '.join(SITES[self.site])}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise InvalidParameterError("probability must be in [0, 1]")
        if self.max_fires < 0:
            raise InvalidParameterError("max_fires must be >= 0 (0 = unlimited)")
        if self.seconds < 0:
            raise InvalidParameterError("seconds must be >= 0")
        if not (0.0 < self.factor <= 1.0):
            raise InvalidParameterError("factor must be in (0, 1]")
        if self.seconds == 0.0 and self.kind in _TIMED_KINDS:
            object.__setattr__(self, "seconds", _TIMED_KINDS[self.kind])

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; the unit the CLI and options carry."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists (JSON) but store a hashable tuple.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        """Build (and validate) a plan from its JSON document."""
        validate_fault_plan(doc)
        specs = tuple(
            FaultSpec(**{k: v for k, v in spec.items()}) for spec in doc["specs"]
        )
        return cls(seed=int(doc.get("seed", 0)), specs=specs)

    @classmethod
    def from_seed(cls, seed: int, intensity: float = 0.5) -> "FaultPlan":
        """A deterministic random plan over all sites (``--fault-seed``).

        ``intensity`` in (0, 1] scales how many site/kind pairs join the
        plan and how often they may fire.  The draw uses its own
        generator, so the plan depends only on ``(seed, intensity)``.
        """
        import numpy as np

        if not (0.0 < intensity <= 1.0):
            raise InvalidParameterError("intensity must be in (0, 1]")
        rng = np.random.default_rng([0x5EED, int(seed)])
        specs = []
        for site, kinds in sorted(SITES.items()):
            for kind in kinds:
                if rng.random() >= intensity:
                    continue
                specs.append(
                    FaultSpec(
                        site=site,
                        kind=kind,
                        probability=round(0.25 + 0.75 * float(rng.random()), 3),
                        max_fires=int(rng.integers(1, 4)),
                        factor=0.5 if kind == "squeeze" else 1.0,
                    )
                )
        return cls(seed=int(seed), specs=tuple(specs))

    @classmethod
    def full(cls, seed: int = 0) -> "FaultPlan":
        """The worst-case storm: every site, every kind, firing for sure.

        ``transfer.*``/``fail`` specs are *unlimited* (persistently broken
        PCIe), so retries cannot mask them — the engine must walk its full
        degradation ladder.  This is the plan ``repro selfcheck`` runs under.
        """
        specs = []
        for site, kinds in sorted(SITES.items()):
            for kind in kinds:
                unlimited = site.startswith("transfer.") and kind == "fail"
                specs.append(
                    FaultSpec(
                        site=site,
                        kind=kind,
                        probability=1.0,
                        max_fires=0 if unlimited else 2,
                        factor=0.5 if kind == "squeeze" else 1.0,
                    )
                )
        return cls(seed=int(seed), specs=tuple(specs))

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "seed": self.seed,
            "specs": [s.to_json() for s in self.specs],
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def describe(self) -> str:
        lines = [f"fault plan (seed={self.seed}, {len(self.specs)} spec(s)):"]
        for s in self.specs:
            cap = "unlimited" if s.max_fires == 0 else f"<= {s.max_fires}"
            extra = f" match={s.match!r}" if s.match else ""
            if s.kind == "squeeze":
                extra += f" factor={s.factor}"
            if s.seconds:
                extra += f" seconds={s.seconds}"
            lines.append(
                f"  {s.site:16s} {s.kind:10s} p={s.probability:<5g} "
                f"fires {cap}{extra}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def validate_fault_plan(doc: dict) -> None:
    """Structural validation of a fault-plan JSON document."""
    _require(isinstance(doc, dict), "fault plan must be an object")
    _require(
        doc.get("schema") == FAULT_PLAN_SCHEMA,
        f"schema must be {FAULT_PLAN_SCHEMA!r}",
    )
    _require(
        isinstance(doc.get("seed", 0), int), "seed must be an integer"
    )
    specs = doc.get("specs")
    _require(isinstance(specs, list), "fault plan must carry a specs list")
    for i, spec in enumerate(specs):
        _require(isinstance(spec, dict), f"spec {i} must be an object")
        site = spec.get("site")
        _require(
            site in SITES,
            f"spec {i}: unknown site {site!r} (sites: {', '.join(SITES)})",
        )
        kind = spec.get("kind")
        _require(
            kind in SITES[site],
            f"spec {i}: site {site!r} does not support kind {kind!r}",
        )
        unknown = set(spec) - {
            "site", "kind", "probability", "max_fires", "match", "seconds", "factor"
        }
        _require(not unknown, f"spec {i}: unknown keys {sorted(unknown)}")
        try:
            FaultSpec(**spec)
        except InvalidParameterError as exc:
            raise SchemaError(f"spec {i}: {exc}") from None


def load_plan(source) -> FaultPlan:
    """A :class:`FaultPlan` from a plan object, dict, or JSON file path."""
    if source is None:
        return FaultPlan()
    if isinstance(source, FaultPlan):
        return source
    if isinstance(source, dict):
        return FaultPlan.from_json(source)
    with open(source) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{source}: not valid JSON: {exc}") from exc
    return FaultPlan.from_json(doc)
