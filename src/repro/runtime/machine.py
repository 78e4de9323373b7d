"""The simulated multicore machine.

This module is the repository's substitute for the paper's 12-core Haswell
server.  A :class:`ParallelMachine` executes a (possibly parallelized)
module and reports *wall-clock cycles* under a deterministic machine model.
It runs every parallel region exactly as the base interpreter does — each
unit in order on one simulated core, recording a
:class:`~repro.interp.interp.ParallelExecution` — and differs in two
things only: the core count a dispatch gets is capped by the
architecture (or set by ``num_cores``), and when a region closes the run
is charged the region's modeled wall-clock time,
:func:`~repro.runtime.schedule.schedule`, instead of its summed work.

Because the simulation is deterministic, the paper's confidence-interval
protocol collapses to single runs.
"""

from __future__ import annotations

from ..core.architecture import ArchitectureDescription
from ..interp.interp import Interpreter, ParallelExecution
from ..ir.intrinsics import NUM_CORES_GLOBAL
from ..ir.module import Module
from .schedule import schedule


class ParallelMachine(Interpreter):
    """Interpreter that charges each parallel region its schedule."""

    def __init__(
        self,
        module: Module,
        architecture: ArchitectureDescription | None = None,
        num_cores: int | None = None,
        step_limit: int = 200_000_000,
        engine: str | None = None,
    ):
        if num_cores is not None and num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        super().__init__(module, step_limit=step_limit, engine=engine)
        self.architecture = architecture or ArchitectureDescription.haswell_like()
        #: Override of the core count; None uses the dispatch argument.
        self.num_cores_override = num_cores
        # Parallelized binaries read their core count from a global knob;
        # the override must be visible there too, or the reduction-combining
        # code would disagree with the dispatcher about the core count.
        if num_cores is not None:
            knob = module.globals.get(NUM_CORES_GLOBAL)
            if knob is not None:
                self.memory.write(self.globals[id(knob)], num_cores)
        #: The parallel regions run so far: ``result.parallel_executions``.
        self.executions: list[ParallelExecution] = self.result.parallel_executions

    def _resolve_cores(self, requested: int) -> int:
        if self.num_cores_override is not None:
            return self.num_cores_override
        return min(requested, self.architecture.num_logical_cores)

    def _close_region(self, region: ParallelExecution) -> None:
        super()._close_region(region)
        # Charge the modeled wall time instead of the summed work.
        self.result.cycles += (
            schedule(region, self.architecture) - region.sequential_cycles
        )
