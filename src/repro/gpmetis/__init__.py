"""GP-metis: the paper's hybrid CPU-GPU multilevel graph partitioner."""

from .hybrid import GpuLevel, HybridOutcome, run_hybrid
from .memory_planning import MemoryPlan, plan_device_memory
from .options import GPMetisOptions
from .partitioner import GPMetis
from .thresholds import breakeven_estimate, gpu_stop_size

__all__ = [
    "GPMetis",
    "GPMetisOptions",
    "MemoryPlan",
    "plan_device_memory",
    "run_hybrid",
    "HybridOutcome",
    "GpuLevel",
    "gpu_stop_size",
    "breakeven_estimate",
]
