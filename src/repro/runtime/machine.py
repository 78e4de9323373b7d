"""The simulated multicore machine.

This module is the repository's substitute for the paper's 12-core Haswell
server.  A :class:`ParallelMachine` executes a (possibly parallelized)
module and reports *wall-clock cycles* under a deterministic machine model:

* Each virtual core executes instructions with the interpreter's cost
  model (:data:`repro.interp.interp.INSTRUCTION_COSTS`).
* ``noelle_dispatch_doall`` runs every core's task and charges the maximum
  per-core cycle count plus fork/join overhead — DOALL's schedule.
* ``noelle_dispatch_helix`` executes iterations in order (preserving
  semantics) while recording, per iteration, the cycles spent inside and
  outside sequential segments; the HELIX schedule is then replayed by a
  discrete-event model where iteration *i*'s sequential segment must wait
  for iteration *i-1*'s signal (one core-to-core latency away) — the
  schedule of Campanoni et al. [HELIX, CGO'12].
* ``noelle_dispatch_dswp`` runs the pipeline stages to completion in
  topological order (unbounded queues preserve semantics) and charges the
  slowest stage plus per-value communication — DSWP's steady-state
  throughput model [Ottoni et al., MICRO'05].

Because the simulation is deterministic, the paper's confidence-interval
protocol collapses to single runs.
"""

from __future__ import annotations

from ..core.architecture import ArchitectureDescription
from ..interp.interp import Interpreter, dispatched_task, intrinsic_table
from ..ir.module import Module

#: One-time cost of waking a worker core (thread-pool hand-off).
FORK_OVERHEAD = 1500
#: Cost of joining one worker at the end of a parallel invocation.
JOIN_OVERHEAD = 300


class ParallelExecution:
    """Timing breakdown of one parallel region invocation."""

    def __init__(self, kind: str, num_cores: int):
        self.kind = kind
        self.num_cores = num_cores
        self.sequential_cycles = 0  # work as measured (sum over cores)
        self.parallel_cycles = 0  # modeled wall-clock of the region

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind} x{self.num_cores}: {self.sequential_cycles} -> "
            f"{self.parallel_cycles} cycles>"
        )


class ParallelMachine(Interpreter):
    """Interpreter with parallel-dispatch timing semantics."""

    def __init__(
        self,
        module: Module,
        architecture: ArchitectureDescription | None = None,
        num_cores: int | None = None,
        step_limit: int = 200_000_000,
        engine: str | None = None,
    ):
        super().__init__(module, step_limit=step_limit, engine=engine)
        self.architecture = architecture or ArchitectureDescription.haswell_like()
        #: Override of the core count; None uses the dispatch argument.
        self.num_cores_override = num_cores
        # Parallelized binaries read their core count from a global knob;
        # the override must be visible there too, or the reduction-combining
        # code would disagree with the dispatcher about the core count.
        if num_cores is not None:
            knob = module.globals.get("noelle.num_cores")
            if knob is not None:
                self.memory.write(self.globals[id(knob)], num_cores)
        self.executions: list[ParallelExecution] = []
        # HELIX bookkeeping (valid while a helix dispatch runs).
        self._helix_trace: list[dict[int, int]] | None = None
        self._helix_iter_costs: list[int] | None = None
        self._segment_stack: list[tuple[int, int]] = []
        self._iter_start_cycles = 0

    # -- HELIX markers ---------------------------------------------------------------
    def _helix_seq_begin(self, args: list[object]) -> None:
        self._segment_stack.append((int(args[0]), self.result.cycles))

    def _helix_seq_end(self, args: list[object]) -> None:
        if self._segment_stack and self._helix_trace is not None:
            seg_id, start = self._segment_stack.pop()
            # Exclude the marker calls themselves from the segment.
            marker_cost = self.costs.get("call", 10) + 1
            span = max(0, self.result.cycles - start - marker_cost)
            self._helix_trace[-1][seg_id] = (
                self._helix_trace[-1].get(seg_id, 0) + span
            )

    def _helix_iter_boundary(self, args: list[object]) -> None:
        if self._helix_trace is not None:
            self._helix_iter_costs.append(
                self.result.cycles - self._iter_start_cycles
            )
            self._iter_start_cycles = self.result.cycles
            self._helix_trace.append({})

    def _resolve_cores(self, requested: int) -> int:
        if self.num_cores_override is not None:
            return self.num_cores_override
        return min(requested, self.architecture.num_logical_cores)

    # -- DOALL -----------------------------------------------------------------------
    def _dispatch_doall(self, args: list[object]) -> None:
        task = dispatched_task(args)
        env_address = args[1]
        num_cores = self._resolve_cores(int(args[2]))
        execution = ParallelExecution("doall", num_cores)
        per_core: list[int] = []
        for core in range(num_cores):
            before = self.result.cycles
            self.call_function(task, [env_address, core, num_cores])
            per_core.append(self.result.cycles - before)
        total_work = sum(per_core)
        wall = max(per_core) if per_core else 0
        wall += FORK_OVERHEAD + JOIN_OVERHEAD * num_cores
        execution.sequential_cycles = total_work
        execution.parallel_cycles = wall
        # Charge the modeled wall time instead of the summed work.
        self.result.cycles += wall - total_work
        self.executions.append(execution)

    # -- DSWP -------------------------------------------------------------------------
    def _dispatch_dswp(self, args: list[object]) -> None:
        task = dispatched_task(args)
        env_address = args[1]
        num_stages = int(args[2])
        execution = ParallelExecution("dswp", num_stages)
        per_stage: list[int] = []
        pushed_per_stage: list[int] = []
        for stage in range(num_stages):
            before = self.result.cycles
            queued_before = self._total_queued()
            self.call_function(task, [env_address, stage, num_stages])
            per_stage.append(self.result.cycles - before)
            pushed_per_stage.append(max(0, self._total_queued() - queued_before))
        total_work = sum(per_stage)
        latency = self.architecture.default_latency
        # Steady-state pipeline: throughput bound by the slowest stage;
        # one pipeline-fill latency per stage boundary.
        wall = (max(per_stage) if per_stage else 0) + latency * max(
            0, num_stages - 1
        )
        # Per-value communication: each forwarded value pays bandwidth.
        communicated = sum(pushed_per_stage)
        bandwidth = self.architecture.default_bandwidth
        wall += int(communicated / bandwidth)
        wall += FORK_OVERHEAD + JOIN_OVERHEAD * num_stages
        execution.sequential_cycles = total_work
        execution.parallel_cycles = wall
        self.result.cycles += wall - total_work
        self.executions.append(execution)

    def _total_queued(self) -> int:
        # Queues drain as they are consumed; track cumulative pushes by
        # summing lengths (approximation: sampled before pops happen).
        return sum(len(q) for q in self._queues.values())

    # -- HELIX -----------------------------------------------------------------------
    def _dispatch_helix(self, args: list[object]) -> None:
        task = dispatched_task(args)
        env_address = args[1]
        num_cores = self._resolve_cores(int(args[2]))
        execution = ParallelExecution("helix", num_cores)
        # Run all iterations in order on one virtual core (semantics),
        # recording per-iteration total and per-segment cycles.
        self._helix_trace = [{}]
        self._helix_iter_costs = []
        self._iter_start_cycles = self.result.cycles
        before = self.result.cycles
        self.call_function(task, [env_address, 0, 1])
        total_work = self.result.cycles - before
        iter_costs = self._helix_iter_costs
        seg_costs = self._helix_trace[: len(iter_costs)]
        self._helix_trace = None
        self._helix_iter_costs = None
        wall = self._helix_schedule(iter_costs, seg_costs, num_cores)
        wall += FORK_OVERHEAD + JOIN_OVERHEAD * num_cores
        execution.sequential_cycles = total_work
        execution.parallel_cycles = wall
        self.result.cycles += wall - total_work
        self.executions.append(execution)

    def _helix_schedule(
        self,
        iter_costs: list[int],
        seg_costs: list[dict[int, int]],
        num_cores: int,
    ) -> int:
        """Replay the HELIX schedule over the measured per-iteration costs.

        Iteration ``i`` runs on core ``i % N``.  Its parallel portion starts
        when the core frees up; each sequential segment additionally waits
        for the same segment of iteration ``i-1`` plus one signal latency.
        """
        latency = self.architecture.default_latency
        core_free = [0] * max(1, num_cores)
        segment_done: dict[int, int] = {}
        finish = 0
        for index, cost in enumerate(iter_costs):
            core = index % max(1, num_cores)
            segments = seg_costs[index] if index < len(seg_costs) else {}
            sequential = sum(segments.values())
            parallel = max(0, cost - sequential)
            clock = core_free[core]
            # Parallel half runs as soon as the core is free; split around
            # the segments pessimistically as parallel-then-sequential.
            clock += parallel
            for seg_id in sorted(segments):
                ready = segment_done.get(seg_id, 0)
                if ready:
                    ready += latency  # the signal must travel between cores
                clock = max(clock, ready)
                clock += segments[seg_id]
                segment_done[seg_id] = clock
            core_free[core] = clock
            finish = max(finish, clock)
        return finish


#: The queue primitives keep the base interpreter's semantics; the
#: dispatchers and the HELIX markers are where the machine model lives.
ParallelMachine.INTRINSICS = intrinsic_table(Interpreter.INTRINSICS, {
    "noelle_dispatch_doall": ParallelMachine._dispatch_doall,
    "noelle_dispatch_dswp": ParallelMachine._dispatch_dswp,
    "noelle_dispatch_helix": ParallelMachine._dispatch_helix,
    "helix_seq_begin": ParallelMachine._helix_seq_begin,
    "helix_seq_end": ParallelMachine._helix_seq_end,
    "helix_iter_boundary": ParallelMachine._helix_iter_boundary,
})
