"""Simulated NUMA hardware: topology, memory, interconnect, caches, counters."""

from repro.hardware.topology import Link, NumaTopology
from repro.hardware.memory import MachineMemory, MemoryController
from repro.hardware.interconnect import Interconnect
from repro.hardware.cache import CacheHierarchy, CacheLevel, HitProfile
from repro.hardware.latency import LatencyModel
from repro.hardware.counters import PerfCounters, HotPageSample, HotPageSamples
from repro.hardware.iommu import Iommu
from repro.hardware.machine import Machine
from repro.hardware.presets import amd48

__all__ = [
    "Link",
    "NumaTopology",
    "MachineMemory",
    "MemoryController",
    "Interconnect",
    "CacheHierarchy",
    "CacheLevel",
    "HitProfile",
    "LatencyModel",
    "PerfCounters",
    "HotPageSample",
    "HotPageSamples",
    "Iommu",
    "Machine",
    "amd48",
]
