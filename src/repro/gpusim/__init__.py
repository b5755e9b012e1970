"""Simulated SIMT GPU: device memory, kernels, coalescing, scans, atomics,
and an opt-in data-race sanitizer with schedule fuzzing."""

from .atomics import atomic_append
from .device import Device, KernelContext
from .sanitizer import LaunchRaceReport, RaceFinding, RaceSanitizer
from .hashtable import ClusteredHashTable, charge_hash_merge, hash_table_bytes
from .memory import AccessPattern, DeviceArray, stream_transactions, warp_transactions
from .scan import exclusive_scan, inclusive_scan
from .simt import divergence_factor, grid_for, threads_for_items, warp_divergent_ops
from .sort import charge_thread_quicksort, thread_sort_dedup
from .stats import DeviceStats, KernelStats
from .transfer import d2h, h2d, transfer_graph_to_device

__all__ = [
    "Device",
    "KernelContext",
    "RaceSanitizer",
    "RaceFinding",
    "LaunchRaceReport",
    "AccessPattern",
    "DeviceArray",
    "warp_transactions",
    "stream_transactions",
    "inclusive_scan",
    "exclusive_scan",
    "atomic_append",
    "ClusteredHashTable",
    "charge_hash_merge",
    "hash_table_bytes",
    "charge_thread_quicksort",
    "thread_sort_dedup",
    "warp_divergent_ops",
    "divergence_factor",
    "grid_for",
    "threads_for_items",
    "DeviceStats",
    "KernelStats",
    "d2h",
    "h2d",
    "transfer_graph_to_device",
]
