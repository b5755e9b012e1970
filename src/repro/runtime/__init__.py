"""Simulated execution substrates: clocks, machine models, threads, MPI."""

from .clock import OVERHEAD_CATEGORIES, VOLUME_CATEGORIES, CostEvent, SimClock
from .machine import PAPER_MACHINE, CpuSpec, GpuSpec, InterconnectSpec, MachineSpec
from .mpi import MpiSim, block_distribution, rank_of_vertex
from .threads import ThreadPoolSim, block_ownership, cyclic_ownership
from .trace import LevelRecord, RefinementRecord, Step, Trace

__all__ = [
    "CostEvent",
    "SimClock",
    "VOLUME_CATEGORIES",
    "OVERHEAD_CATEGORIES",
    "CpuSpec",
    "GpuSpec",
    "InterconnectSpec",
    "MachineSpec",
    "PAPER_MACHINE",
    "ThreadPoolSim",
    "block_ownership",
    "cyclic_ownership",
    "MpiSim",
    "block_distribution",
    "rank_of_vertex",
    "LevelRecord",
    "RefinementRecord",
    "Step",
    "Trace",
]
