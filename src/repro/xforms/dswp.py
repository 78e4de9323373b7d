"""The DSWP parallelizing custom tool (Section 3, "DSWP").

Decoupled Software Pipelining distributes the *SCCs* of a loop across
cores: every dynamic instance of a given SCC runs on the same core, and
values crossing stage boundaries flow through unidirectional queues
[Ottoni et al., MICRO'05].  Where HELIX slices iterations, DSWP slices the
dependence graph.

Construction (all from NOELLE abstractions):

* the aSCCDAG's topological order gives the pipeline orientation;
* SCCs connected by memory dependences are co-located (queues forward
  registers, not memory);
* the *control skeleton* — terminators, the governing IV, and everything
  the branches need — is replicated in every stage so all stages make
  identical control decisions;
* each remaining SCC group is assigned to a stage balancing cycle load;
* cross-stage register dependences become ``queue_push``/``queue_pop``
  pairs, one queue per (producer, consumer-stage).
"""

from __future__ import annotations

from .. import ir
from ..core.loop import Loop
from ..core.noelle import Noelle
from ..core.partitioner import SCCDAGPartitioner
from ..core.task import Task, make_task_function
from ..ir.intrinsics import declare_intrinsic
from .parallelizer_common import (
    LoopBoundary,
    LoopTechnique,
    ParallelizationError,
    build_environment,
    clone_loop_into_task,
    finish_task_with_reductions,
    replace_loop_with_dispatch,
)

#: The queue intrinsics, in declaration order.
QUEUE_INTRINSICS = (
    "queue_push_i64", "queue_pop_i64", "queue_push_f64", "queue_pop_f64"
)


class DSWP(LoopTechnique):
    """The DSWP technique."""

    name = "dswp"

    def __init__(self, noelle: Noelle, num_stages: int = 4):
        self.noelle = noelle
        self.num_stages = num_stages

    # -- selection ---------------------------------------------------------------------
    def plan(self, loop: Loop):
        """(boundary, control skeleton, the instructions of each stage)."""
        if len(loop.structure.exiting_blocks()) != 1:
            raise ParallelizationError("loop has multiple exits")
        boundary = LoopBoundary(loop)
        if not boundary.only_reduction_live_outs():
            raise ParallelizationError("loop has non-reduction live-outs")
        skeleton = self._control_skeleton(loop)
        for inst in skeleton:
            if inst.touches_memory():
                raise ParallelizationError(
                    "control skeleton touches memory; stages cannot replicate it"
                )
        arch = self.noelle.architecture()
        partitioner = SCCDAGPartitioner(
            loop.sccdag, exclude={id(i) for i in skeleton}
        )
        if len(partitioner.colocated_groups()) < 2:
            raise ParallelizationError("fewer than two pipeline stages")
        # The stage count is bounded by the machine (AR): a pipeline deeper
        # than the physical cores would just multiplex.
        stages = partitioner.partition(
            min(self.num_stages, arch.num_physical_cores)
        )
        return boundary, skeleton, stages

    def _control_skeleton(self, loop: Loop) -> list[ir.Instruction]:
        """Terminators plus everything they transitively need in-loop."""
        natural = loop.natural_loop
        needed: dict[int, ir.Instruction] = {}
        worklist: list[ir.Instruction] = []
        for block in natural.blocks:
            term = block.terminator
            if term is not None:
                needed[id(term)] = term
                worklist.append(term)
        while worklist:
            inst = worklist.pop()
            for operand in inst.operands:
                if (
                    isinstance(operand, ir.Instruction)
                    and natural.contains(operand)
                    and id(operand) not in needed
                ):
                    needed[id(operand)] = operand
                    worklist.append(operand)
        # The governing IV's whole SCC rides along (it feeds the exit test).
        iv = loop.governing_iv()
        if iv is not None:
            for inst in [iv.phi, *iv.update_instructions()]:
                if id(inst) not in needed and isinstance(inst, ir.Instruction):
                    needed[id(inst)] = inst
        # Header phis must exist in every stage (they carry the iteration
        # state each stage re-computes).
        for phi in natural.header.phis():
            scc = loop.sccdag.scc_of(phi)
            if scc is not None and scc.is_independent() and scc.is_induction:
                for inst in scc.instructions:
                    needed.setdefault(id(inst), inst)
        return list(needed.values())

    # -- transformation -----------------------------------------------------------------
    def apply(self, loop: Loop, plan) -> ir.Call:
        boundary, skeleton, stages = plan
        fn = loop.structure.function
        env = build_environment(self.noelle, boundary, "dswp.env")
        stage_fns = [
            self._build_stage(boundary, env, skeleton, stages, stage_index)
            for stage_index in range(len(stages))
        ]
        selector = self._build_selector(env, stage_fns, fn.name)
        task = Task(selector, env)
        call = replace_loop_with_dispatch(
            self.noelle, boundary, env, task, "noelle_dispatch_dswp",
            default_cores=len(stage_fns),
        )
        # DSWP's core count is its stage count, not the machine knob: patch
        # the dispatch to pass the constant stage count.
        call.set_operand(3, ir.const_int(len(stage_fns)))
        ir.verify_function(fn)
        return call

    def _build_stage(
        self,
        boundary: LoopBoundary,
        env,
        skeleton: list[ir.Instruction],
        stages: list[list[ir.Instruction]],
        stage_index: int,
    ) -> ir.Function:
        natural = boundary.natural
        fn_name = boundary.loop.structure.function.name
        task_skeleton = clone_loop_into_task(
            self.noelle, boundary, env,
            f"{fn_name}.dswp.stage{stage_index}",
        )
        task_fn = task_skeleton.task.function
        skeleton_ids = {id(i) for i in skeleton}
        mine = {id(i) for i in stages[stage_index]}
        stage_of: dict[int, int] = {}
        for index, stage in enumerate(stages):
            for inst in stage:
                stage_of[id(inst)] = index

        queues = {
            name: declare_intrinsic(self.noelle.module, name)
            for name in QUEUE_INTRINSICS
        }

        # Queue ids must be deterministic across stages: derive from the
        # producer's position and the consumer stage.
        order_of: dict[int, int] = {}
        for position, inst in enumerate(natural.instructions()):
            order_of[id(inst)] = position

        def queue_id(producer: ir.Instruction, consumer_stage: int) -> int:
            return order_of[id(producer)] * 64 + consumer_stage

        # Pass 1: pushes for my values consumed elsewhere.
        for inst in natural.instructions():
            if id(inst) not in mine:
                continue
            clone = task_skeleton.clone_of(inst)
            consumer_stages = set()
            for user in inst.users():
                if isinstance(user, ir.Instruction) and natural.contains(user):
                    if id(user) in skeleton_ids:
                        continue  # the skeleton is replicated, never fed
                    user_stage = stage_of.get(id(user))
                    if user_stage is not None and user_stage != stage_index:
                        consumer_stages.add(user_stage)
            for consumer_stage in sorted(consumer_stages):
                self._push(queues, clone, queue_id(inst, consumer_stage))

        # Pass 2: replace other stages' values I consume with pops; erase
        # the rest of their instructions.  Only *kept* users (skeleton or
        # this stage's instructions) count as consumers — clones of other
        # stages' instructions are about to be erased.
        kept_clone_ids: set[int] = set()
        for inst in natural.instructions():
            if id(inst) in skeleton_ids or id(inst) in mine:
                clone = task_skeleton.clone_of(inst)
                if isinstance(clone, ir.Instruction):
                    kept_clone_ids.add(id(clone))
        to_erase: list[ir.Instruction] = []
        for inst in natural.instructions():
            owner = stage_of.get(id(inst))
            if owner is None or owner == stage_index:
                continue
            clone = task_skeleton.clone_of(inst)
            assert isinstance(clone, ir.Instruction)
            consumers_here = [
                u
                for u in clone.users()
                if isinstance(u, ir.Instruction) and id(u) in kept_clone_ids
            ]
            if consumers_here and not clone.type.is_void():
                pop = self._pop(queues, clone, queue_id(inst, stage_index))
                for user in consumers_here:
                    for index, operand in enumerate(user.operands):
                        if operand is clone:
                            user.set_operand(index, pop)
            to_erase.append(clone)
        for clone in to_erase:
            if clone.parent is not None:
                if isinstance(clone, ir.Phi):
                    clone.replace_all_uses_with(ir.UndefValue(clone.type))
                clone.erase_from_parent()

        # Reductions owned by this stage store their partials; others just ret.
        finish_task_with_reductions(
            task_skeleton, boundary, ir.const_int(0),
            lambda reduction: stage_of.get(id(reduction.phi)) == stage_index,
        )
        ir.verify_function(task_fn)
        return task_fn

    @staticmethod
    def _push(queues, producer: ir.Instruction, qid: int) -> None:
        """Send ``producer`` down queue ``qid`` as soon as it exists."""
        builder = ir.IRBuilder()
        builder.position_after(producer)
        value: ir.Value = producer
        if producer.type.is_float():
            push = queues["queue_push_f64"]
        else:
            push = queues["queue_push_i64"]
            if producer.type.is_pointer():
                value = builder.cast("ptrtoint", producer, ir.I64, "q.cast")
            elif producer.type != ir.I64:
                value = builder.cast("zext", producer, ir.I64, "q.cast")
        builder.call(push, [ir.const_int(qid), value])

    @staticmethod
    def _pop(queues, placeholder: ir.Instruction, qid: int) -> ir.Instruction:
        """Receive queue ``qid`` where ``placeholder`` stood; returns the value."""
        builder = ir.IRBuilder()
        if isinstance(placeholder, ir.Phi):
            builder.position_after(placeholder)
        else:
            builder.position_before(placeholder)
        ty = placeholder.type
        if ty.is_float():
            return builder.call(queues["queue_pop_f64"], [ir.const_int(qid)], "q.pop")
        pop = builder.call(queues["queue_pop_i64"], [ir.const_int(qid)], "q.pop")
        if ty.is_pointer():
            return builder.cast("inttoptr", pop, ty, "q.val")
        if ty != ir.I64 and ty.is_integer():
            return builder.cast("trunc", pop, ty, "q.val")
        return pop

    def _build_selector(
        self, env, stage_fns: list[ir.Function], name_hint: str
    ) -> ir.Function:
        """One entry point that switches on the stage id."""
        module = self.noelle.module
        selector = make_task_function(module, env, f"{name_hint}.dswp.task")
        selector.metadata["noelle.task"] = True
        selector.metadata["noelle.parallel"] = "dswp"
        for index, stage_fn in enumerate(stage_fns):
            stage_fn.metadata["noelle.parallel"] = "dswp.stage"
            stage_fn.metadata["noelle.dswp.stage"] = index
        env_ptr, stage_id, num_stages = selector.args
        entry = selector.add_block("entry")
        done = selector.add_block("done")
        builder = ir.IRBuilder(done)
        builder.ret()
        blocks = []
        for index, stage_fn in enumerate(stage_fns):
            block = selector.add_block(f"stage{index}")
            builder.position_at_end(block)
            builder.call(stage_fn, [env_ptr, stage_id, num_stages])
            builder.br(done)
            blocks.append(block)
        builder.position_at_end(entry)
        cases = [
            (ir.ConstantInt(ir.I64, index), block)
            for index, block in enumerate(blocks)
        ]
        builder.switch(stage_id, done, cases)
        ir.verify_function(selector)
        return selector
