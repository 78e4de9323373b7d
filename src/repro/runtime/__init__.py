"""repro.runtime — the simulated multicore machine and its cost model."""

from .machine import ParallelExecution, ParallelMachine
from .schedule import FORK_OVERHEAD, JOIN_OVERHEAD, UnpricedRegion, schedule

__all__ = [
    "FORK_OVERHEAD",
    "JOIN_OVERHEAD",
    "ParallelExecution",
    "ParallelMachine",
    "UnpricedRegion",
    "schedule",
]
