"""The HELIX parallelizing custom tool (Section 3, "HELIX").

HELIX distributes loop *iterations* across cores even when the loop has
loop-carried dependences: the instructions of each sequential SCC are
wrapped into a *sequential segment* whose dynamic instances execute in
iteration order across the cores (enforced with wait/signal), while
everything else overlaps.

The NOELLE abstractions used mirror the paper's Table 4 row: PRO+FR+L for
loop selection, PDG+ENV for the boundary, LB+T for the parallel body,
aSCCDAG+INV+IV+RD to identify what must serialize, SCD to shrink the
sequential segments, IVS for iteration chunking, and AR for the signal
latency in the schedule.
"""

from __future__ import annotations

from .. import ir
from ..ir.builder import IRBuilder
from ..core.loop import Loop
from ..core.sccdag import SCC
from ..ir.intrinsics import declare_intrinsic
from .parallelizer_common import (
    LoopBoundary,
    LoopTechnique,
    ParallelizationError,
    TaskSkeleton,
    build_environment,
    chunk_cloned_loop,
    chunkable_boundary,
    clone_loop_into_task,
    finish_task_with_reductions,
    replace_loop_with_dispatch,
)


class HELIX(LoopTechnique):
    """The HELIX technique."""

    name = "helix"

    # -- selection ---------------------------------------------------------------------
    def plan(self, loop: Loop) -> LoopBoundary:
        boundary = chunkable_boundary(loop)
        # The governing IV itself must not be trapped in a sequential SCC —
        # otherwise iterations cannot be precomputed per core.
        iv_scc = loop.sccdag.scc_of(loop.governing_iv().phi)
        if iv_scc is not None and iv_scc.is_sequential():
            raise ParallelizationError("governing IV is inside a sequential SCC")
        self._check_segment_profitability(loop)
        return boundary

    def _check_segment_profitability(self, loop: Loop) -> None:
        """AR: sequential segments pay a core-to-core signal per iteration.

        When the whole loop body is barely bigger than one signal latency,
        the cross-core wait chain dominates and the parallelization loses;
        the architecture description supplies the latency.
        """
        from ..interp.interp import INSTRUCTION_COSTS

        sequential = loop.sccdag.sequential_sccs()
        if not sequential:
            return
        latency = self.noelle.architecture().default_latency
        body_cost = sum(
            INSTRUCTION_COSTS.get(i.opcode, 1) for i in loop.structure.instructions()
        )
        segment_cost = sum(
            INSTRUCTION_COSTS.get(i.opcode, 1)
            for scc in sequential
            for i in scc.instructions
        )
        parallel_cost = body_cost - segment_cost
        # The critical path per iteration is segment work plus one signal;
        # the overlappable work must at least cover it, or the cores just
        # queue behind each other.
        if parallel_cost < segment_cost + latency:
            raise ParallelizationError(
                "sequential segments dominate the iteration"
            )

    # -- transformation -----------------------------------------------------------------
    def apply(self, loop: Loop, boundary: LoopBoundary) -> ir.Call:
        fn = loop.structure.function
        # Shrink the header first: fewer instructions on the critical path
        # shortens every sequential segment anchored there (SCD).  The
        # loop changed, so it is planned again.
        self.noelle.loop_scheduler(fn).shrink_header(loop.natural_loop)
        loop.invalidate()
        boundary = self.plan(loop)
        sequential_sccs = loop.sccdag.sequential_sccs()
        env = build_environment(self.noelle, boundary, "helix.env")
        skeleton = clone_loop_into_task(
            self.noelle, boundary, env, f"{fn.name}.helix.task"
        )
        chunk_cloned_loop(skeleton)
        self._mark_sequential_segments(skeleton, sequential_sccs)
        self._mark_iteration_boundaries(skeleton, boundary)
        finish_task_with_reductions(skeleton, boundary)
        ir.verify_function(skeleton.task.function)
        call = replace_loop_with_dispatch(
            self.noelle, boundary, env, skeleton.task,
            "noelle_dispatch_helix", self.num_cores,
        )
        ir.verify_function(fn)
        return call

    # -- sequential segments ---------------------------------------------------------
    def _mark_sequential_segments(
        self, skeleton: TaskSkeleton, sequential_sccs: list[SCC]
    ) -> None:
        """Bracket each sequential SCC's per-block spans with seq markers.

        The markers drive both the runtime's ordering (wait/signal in a
        real machine, cycle attribution in the simulator) and let the
        schedule replay know what must serialize across cores.
        """
        module = self.noelle.module
        begin = declare_intrinsic(module, "helix_seq_begin")
        end = declare_intrinsic(module, "helix_seq_end")
        # DFE: liveness over the task decides how far each per-block span
        # extends — when a segment value is consumed later in the same
        # block, the span stays open until its last local consumer so the
        # cross-core signal is not sent while dependents still compute.
        from ..core.dataflow import liveness

        task_liveness = liveness(skeleton.task.function)
        builder = IRBuilder()
        for segment_id, scc in enumerate(sequential_sccs):
            cloned = [
                skeleton.clone_of(inst)
                for inst in scc.instructions
                if isinstance(skeleton.clone_of(inst), ir.Instruction)
            ]
            by_block: dict[int, list[ir.Instruction]] = {}
            for inst in cloned:
                if inst.parent is not None:
                    by_block.setdefault(id(inst.parent), []).append(inst)
            for members in by_block.values():
                block = members[0].parent
                # Phis execute at block entry for free (cost 0), and
                # markers must never sit between them: only the non-phi
                # members span measurable time.
                timed = [m for m in members if not isinstance(m, ir.Phi)]
                if not timed:
                    continue
                ordered = sorted(timed, key=lambda i: block.instructions.index(i))
                first_inst: ir.Instruction = ordered[0]
                last_inst: ir.Instruction = self._span_end(
                    block, ordered, task_liveness
                )
                if isinstance(last_inst, ir.Phi):
                    last_inst = ordered[-1]
                seg_const = ir.const_int(segment_id)
                builder.position_before(first_inst)
                builder.call(begin, [seg_const])
                if isinstance(last_inst, ir.TerminatorInst):
                    builder.position_before(last_inst)
                else:
                    builder.position_after(last_inst)
                builder.call(end, [seg_const])

    def _span_end(self, block, members, task_liveness) -> ir.Instruction:
        """Last instruction the segment span must cover in this block.

        Starts at the last SCC member; while any member value is consumed
        later in the block (liveness says it flows forward), the span
        extends to that consumer.
        """
        member_ids = {id(m) for m in members}
        last = members[-1]
        last_index = block.instructions.index(last)
        for index in range(last_index + 1, len(block.instructions)):
            candidate = block.instructions[index]
            if isinstance(candidate, ir.TerminatorInst):
                break
            uses_member = any(
                isinstance(op, ir.Instruction) and id(op) in member_ids
                for op in candidate.operands
            )
            if uses_member:
                # Only worth extending when the value stays live here.
                live = task_liveness.in_of(candidate)
                if any(mid in live for mid in member_ids):
                    last = candidate
                    member_ids.add(id(candidate))
        return last

    def _mark_iteration_boundaries(
        self, skeleton: TaskSkeleton, boundary: LoopBoundary
    ) -> None:
        """Insert one ``helix_iter_boundary`` per back-edge traversal."""
        module = self.noelle.module
        marker = declare_intrinsic(module, "helix_iter_boundary")
        builder = IRBuilder()
        for latch in boundary.natural.latches():
            builder.position_before(skeleton.block_map[id(latch)].terminator)
            builder.call(marker, [])
