"""Shared machinery of the parallelizing custom tools (DOALL/HELIX/DSWP).

All three techniques share the same skeleton, built entirely from NOELLE
abstractions:

1. pick a loop (PRO + L decide profitability; the tool decides legality
   from the aSCCDAG);
2. compute the loop's live-ins/live-outs (PDG) and lay them out in an
   environment (ENV);
3. clone the loop body into a task function (LB + T), remapping live-ins
   to environment loads;
4. rewrite the original function to populate the environment, call the
   runtime dispatcher, combine the live-outs, and branch past the loop.

The pieces that differ per technique (iteration scheduling, sequential
segments, queues) live in the technique modules.
"""

from __future__ import annotations

from .. import ir
from ..core.environment import Environment
from ..core.loop import Loop
from ..core.loopbuilder import LoopBuilder
from ..core.noelle import Noelle
from ..core.reduction import ReductionDescriptor
from ..core.task import Task, make_task_function
from ..ir.intrinsics import declare_intrinsic

#: Upper bound on cores a parallelized binary supports (partial-result
#: array sizing); the paper's platform has 24 logical cores.
MAX_CORES = 64

NUM_CORES_GLOBAL = "noelle.num_cores"


class ParallelizationError(Exception):
    """The loop cannot be parallelized by this technique."""


class LoopBoundary:
    """The legality-checked boundary of a parallelizable loop."""

    def __init__(self, loop: Loop):
        self.loop = loop
        self.natural = loop.natural_loop
        self.reductions: list[ReductionDescriptor] = loop.reductions()
        reduction_values: set[int] = set()
        for reduction in self.reductions:
            reduction_values.add(id(reduction.phi))
            reduction_values.add(id(reduction.exit_value()))
        self.live_ins = loop.live_ins()
        self.live_outs = loop.live_outs()
        self.non_reduction_live_outs = [
            v for v in self.live_outs if id(v) not in reduction_values
        ]

    def only_reduction_live_outs(self) -> bool:
        return not self.non_reduction_live_outs

    def reduction_exit_source(self, reduction: ReductionDescriptor):
        """The value holding the accumulated total on the loop's exit edge.

        Test-first loops (``for``/``while``) exit from the header before
        the final iteration's update runs, so the total is the reduction
        phi.  Test-last loops (``do-while``) take the exit branch *after*
        the update — including the single-block case where the header is
        also the exiting block — so the total is the latch-incoming
        update; storing the phi there would drop the last iteration's
        contribution.
        """
        update = reduction.exit_value()
        header = reduction.phi.parent
        for block in self.natural.blocks:
            term = block.terminator
            if term is None or not any(
                not self.natural.contains_block(succ)
                for succ in term.successors()
            ):
                continue
            # The exit edge leaves `block`.  The update has already run
            # on this iteration unless the exit leaves the header while
            # the update sits in a later block.
            if block is header and update.parent is not block:
                return reduction.phi
            return update
        return reduction.phi


def num_cores_global(module: ir.Module, default: int = 12) -> ir.GlobalVariable:
    """The runtime-tunable core-count knob read by parallelized code."""
    existing = module.globals.get(NUM_CORES_GLOBAL)
    if existing is not None:
        return existing
    return module.add_global(
        NUM_CORES_GLOBAL, ir.I64, ir.ConstantInt(ir.I64, default)
    )


def build_environment(
    noelle: Noelle, boundary: LoopBoundary, name_hint: str
) -> Environment:
    """Environment layout: one field per live-in, then one
    ``[MAX_CORES x T]`` array per reduction for the partial results."""
    module = noelle.module
    fields = [v.type for v in boundary.live_ins]
    for reduction in boundary.reductions:
        fields.append(ir.ArrayType(reduction.phi.type, MAX_CORES))
    index = 0
    struct_name = name_hint
    while struct_name in module.structs:
        index += 1
        struct_name = f"{name_hint}{index}"
    struct = module.add_struct(struct_name, fields)
    env = Environment(struct, boundary.live_ins, [r.phi for r in boundary.reductions])
    return env


class TaskSkeleton:
    """The cloned loop inside a fresh task function."""

    def __init__(
        self,
        task: Task,
        value_map: dict[int, ir.Value],
        block_map: dict[int, ir.BasicBlock],
        entry: ir.BasicBlock,
        exit_block: ir.BasicBlock,
    ):
        self.task = task
        self.value_map = value_map
        self.block_map = block_map
        self.entry = entry
        self.exit_block = exit_block

    def clone_of(self, value: ir.Value) -> ir.Value:
        return self.value_map.get(id(value), value)


def clone_loop_into_task(
    noelle: Noelle,
    boundary: LoopBoundary,
    env: Environment,
    name_hint: str,
) -> TaskSkeleton:
    """Create the task function and clone the loop body into it.

    Live-ins are loaded from the environment in the task entry; every loop
    exit is retargeted to a shared task exit block (which the caller
    populates with live-out stores before the ``ret``).
    """
    module = noelle.module
    task_fn = make_task_function(module, env, name_hint)
    task_fn.metadata["noelle.task"] = True
    task = Task(task_fn, env)
    entry = task_fn.add_block("task.entry")
    builder = ir.IRBuilder(entry)
    env_ptr = task_fn.args[0]
    value_map: dict[int, ir.Value] = {}
    envb = noelle.environment_builder()
    for live_in in boundary.live_ins:
        value_map[id(live_in)] = envb.load_field(
            builder, env, env_ptr, live_in, f"livein.{live_in.name or 'v'}"
        )
    lb = LoopBuilder(task_fn)
    natural = boundary.natural
    block_map = lb.clone_blocks_into(task_fn, natural.blocks, value_map, "task")
    task.clones = {
        key: value
        for key, value in value_map.items()
        if isinstance(value, ir.Instruction)
    }
    # Wire the entry edges of the cloned header phis.
    cloned_header = block_map[id(natural.header)]
    for phi in natural.header.phis():
        cloned_phi = value_map[id(phi)]
        assert isinstance(cloned_phi, ir.Phi)
        for value, pred in phi.incoming():
            if not natural.contains_block(pred):
                cloned_phi.add_incoming(value_map.get(id(value), value), entry)
    builder.br(cloned_header)
    # Retarget loop exits to one shared task exit.
    exit_block = task_fn.add_block("task.exit")
    cloned_ids = {id(b) for b in block_map.values()}
    for block in natural.blocks:
        term = block_map[id(block)].terminator
        assert term is not None
        for succ in list(term.successors()):
            if id(succ) not in cloned_ids:
                term.replace_successor(succ, exit_block)
    return TaskSkeleton(task, value_map, block_map, entry, exit_block)


def finish_task_with_reductions(
    noelle: Noelle,
    skeleton: TaskSkeleton,
    boundary: LoopBoundary,
    env: Environment,
) -> None:
    """Per-core reduction plumbing inside the task.

    The cloned accumulator phi starts at the operator's identity; the final
    per-core value is stored into this core's slot of the environment's
    partial-result array.
    """
    task_fn = skeleton.task.function
    env_ptr, core_id, _ = task_fn.args
    builder = ir.IRBuilder(skeleton.exit_block)
    for position, reduction in enumerate(boundary.reductions):
        cloned_phi = skeleton.clone_of(reduction.phi)
        assert isinstance(cloned_phi, ir.Phi)
        # Entry value becomes the identity.
        for index in range(1, len(cloned_phi.operands), 2):
            if cloned_phi.operands[index] is skeleton.entry:
                cloned_phi.set_operand(index - 1, reduction.identity_constant())
        field_index = len(boundary.live_ins) + position
        slot = builder.elem_ptr(
            env_ptr,
            [ir.const_int(0), ir.const_int(field_index), core_id],
            f"red.slot{position}",
        )
        builder.store(
            skeleton.clone_of(boundary.reduction_exit_source(reduction)), slot
        )
    builder.ret()


def replace_loop_with_dispatch(
    noelle: Noelle,
    boundary: LoopBoundary,
    env: Environment,
    task: Task,
    dispatcher_name: str,
    default_cores: int = 12,
) -> ir.Call:
    """Rewrite the original function: env setup, dispatch, combine, branch.

    Requires a single dedicated exit block.  Returns the dispatch call.
    """
    loop = boundary.loop
    natural = boundary.natural
    fn = loop.structure.function
    module = noelle.module
    lb = LoopBuilder(fn)
    pre = lb.ensure_pre_header(natural)
    lb.ensure_dedicated_exits(natural)
    exit_blocks = natural.exit_blocks()
    if len(exit_blocks) != 1:
        raise ParallelizationError("loop must have a single exit block")
    exit_block = exit_blocks[0]

    pre.terminator.erase_from_parent()
    builder = ir.IRBuilder(pre)
    envb = noelle.environment_builder()
    env_ptr = envb.allocate(builder, env)
    envb.store_live_ins(builder, env, env_ptr)
    cores_gv = num_cores_global(module, default_cores)
    num_cores = builder.load(cores_gv, "ncores")

    # Initialize every per-core partial-result slot to the reduction's
    # identity: a scheduler may hand fewer cores than requested (HELIX's
    # in-order replay uses one), and unwritten slots must be neutral.
    if boundary.reductions:
        init_header = fn.add_block("red.init")
        init_body = fn.add_block("red.init.body")
        init_done = fn.add_block("red.init.done")
        builder.br(init_header)
        builder.position_at_end(init_header)
        init_phi = builder.phi(ir.I64, "red.init.core")
        init_phi.metadata["noelle.generated"] = True
        init_test = builder.icmp("sge", init_phi, num_cores, "red.init.done.test")
        builder.cond_br(init_test, init_done, init_body)
        builder.position_at_end(init_body)
        for position, reduction in enumerate(boundary.reductions):
            field_index = len(boundary.live_ins) + position
            slot = builder.elem_ptr(
                env_ptr,
                [ir.const_int(0), ir.const_int(field_index), init_phi],
                f"red.init.slot{position}",
            )
            builder.store(reduction.identity_constant(), slot)
        init_next = builder.add(init_phi, ir.const_int(1), "red.init.next")
        builder.br(init_header)
        init_phi.add_incoming(ir.const_int(0), pre)
        init_phi.add_incoming(init_next, init_body)
        builder.position_at_end(init_done)
        dispatch_block = init_done
    else:
        dispatch_block = pre

    dispatcher = declare_intrinsic(module, dispatcher_name)
    dispatch_call = builder.call(dispatcher, [task.function, env_ptr, num_cores])

    # Combine the per-core partial results with a small runtime loop.
    combined: dict[int, ir.Value] = {}
    if boundary.reductions:
        combine_header = fn.add_block("red.combine")
        combine_body = fn.add_block("red.combine.body")
        combine_done = fn.add_block("red.combine.done")
        builder.br(combine_header)
        builder.position_at_end(combine_header)
        core_phi = builder.phi(ir.I64, "red.core")
        core_phi.metadata["noelle.generated"] = True
        acc_phis: list[ir.Phi] = []
        for position, reduction in enumerate(boundary.reductions):
            acc = builder.phi(reduction.phi.type, f"red.acc{position}")
            acc_phis.append(acc)
        done = builder.icmp("sge", core_phi, num_cores, "red.done")
        builder.cond_br(done, combine_done, combine_body)
        builder.position_at_end(combine_body)
        next_accs: list[ir.Value] = []
        for position, reduction in enumerate(boundary.reductions):
            field_index = len(boundary.live_ins) + position
            slot = builder.elem_ptr(
                env_ptr,
                [ir.const_int(0), ir.const_int(field_index), core_phi],
                f"red.read{position}",
            )
            partial = builder.load(slot, f"red.part{position}")
            next_accs.append(
                builder.binary(reduction.operator, acc_phis[position], partial,
                               f"red.next{position}")
            )
        next_core = builder.add(core_phi, ir.const_int(1), "red.core.next")
        builder.br(combine_header)
        core_phi.add_incoming(ir.const_int(0), dispatch_block)
        core_phi.add_incoming(next_core, combine_body)
        for position, reduction in enumerate(boundary.reductions):
            acc_phis[position].add_incoming(reduction.initial_value(), dispatch_block)
            acc_phis[position].add_incoming(next_accs[position], combine_body)
        builder.position_at_end(combine_done)
        for position, reduction in enumerate(boundary.reductions):
            combined[id(reduction.phi)] = acc_phis[position]
            combined[id(reduction.exit_value())] = acc_phis[position]
        final_block = combine_done
    else:
        final_block = pre
    builder.br(exit_block)

    _rewire_after_loop(boundary, combined, exit_block, final_block)
    for block in list(natural.blocks):
        block.erase()
    return dispatch_call


def _rewire_after_loop(
    boundary: LoopBoundary,
    combined: dict[int, ir.Value],
    exit_block: ir.BasicBlock,
    new_pred: ir.BasicBlock,
) -> None:
    """Point every post-loop consumer at the combined values."""
    natural = boundary.natural
    # Replace uses of loop-defined values outside the loop.
    for inst in list(natural.instructions()):
        replacement = combined.get(id(inst))
        for use in list(inst.uses):
            user = use.user
            if isinstance(user, ir.Instruction) and not natural.contains(user):
                if replacement is None:
                    raise ParallelizationError(
                        f"live-out {inst.ref()} has no combined replacement"
                    )
                user.set_operand(use.index, replacement)
    # Exit phis: collapse the loop edges into one edge from the dispatcher.
    for phi in list(exit_block.phis()):
        incoming_value: ir.Value | None = None
        for value, pred in list(phi.incoming()):
            if natural.contains_block(pred):
                incoming_value = value
                phi.remove_incoming(pred)
        if incoming_value is not None:
            phi.add_incoming(incoming_value, new_pred)


def chunk_cloned_loop(skeleton: "TaskSkeleton") -> None:
    """Round-robin iteration chunking of the cloned loop via IV + IVS.

    Re-detects the governing induction variable *inside the task* (the
    clone is a proper natural loop there) and applies the IV stepper's
    chunking recipe: start += core_id * step, step *= num_cores.
    """
    from ..analysis.loopinfo import LoopInfo
    from ..core.induction import InductionVariableManager
    from ..core.ivstepper import InductionVariableStepper

    task_fn = skeleton.task.function
    _, core_id, num_cores = task_fn.args
    loops = LoopInfo(task_fn).loops()
    cloned_loops = [l for l in loops if l.depth() == 1]
    if len(cloned_loops) != 1:
        raise ParallelizationError("task body is not a single loop")
    iv_manager = InductionVariableManager(cloned_loops[0])
    governing = iv_manager.governing_iv()
    if governing is None:
        raise ParallelizationError("cloned loop lost its governing IV")
    stepper = InductionVariableStepper(governing)
    builder = ir.IRBuilder()
    builder.position_before(skeleton.entry.terminator)
    stepper.chunk_for_core(builder, core_id, num_cores)


def loop_is_stale(loop: Loop) -> bool:
    """True when a transformation already deleted this loop's blocks."""
    return loop.structure.header.parent is None


def invocation_is_profitable(loop: Loop, profile, overhead_cycles: int) -> bool:
    """Does one loop invocation amortize the parallel-region overhead?

    Parallelizing a loop that runs for less than a few fork/join costs per
    invocation is a loss no matter how hot it is in aggregate (e.g. a tiny
    inner loop called thousands of times).  Without a profile the answer
    is optimistic (the paper's tools also default to transforming).
    """
    if profile is None:
        return True
    natural = loop.natural_loop
    invocations = profile.loop_invocations(natural)
    if invocations == 0:
        return True  # never observed: nothing to lose
    weight = profile.inclusive_weight_of_instructions(list(natural.instructions()))
    per_invocation = weight / invocations
    return per_invocation >= 2.0 * overhead_cycles


def run_rounds(
    technique,
    minimum_hotness: float = 0.0,
    max_rounds: int = 10,
    only_loop_id: int | None = None,
) -> int:
    """The whole-program driver DOALL, HELIX and DSWP share: parallelize
    every eligible (hot) loop with ``technique`` (its ``noelle``,
    ``can_parallelize`` and ``parallelize``); returns how many.

    One transformation per function per round (analyses go stale);
    rounds repeat with fresh analyses until nothing changes.
    """
    total = 0
    for _ in range(max_rounds):
        changed = _run_round(technique, minimum_hotness, only_loop_id)
        total += changed
        if not changed:
            break
        if only_loop_id is not None:
            break  # surgical mode transforms at most one loop
    return total


def _run_round(
    technique, minimum_hotness: float, only_loop_id: int | None
) -> int:
    from ..runtime.machine import FORK_OVERHEAD

    noelle = technique.noelle
    profile = noelle.profile()
    parallelized = 0
    transformed_functions: set[int] = set()
    for loop in noelle.loops():
        if loop_is_stale(loop):
            continue  # erased by an earlier transformation this round
        if only_loop_id is not None and loop.structure.loop_id != only_loop_id:
            continue  # surgical testing: only the requested loop
        fn = loop.structure.function
        if id(fn) in transformed_functions:
            continue  # loop info of this function is stale now
        if fn.metadata.get("noelle.task"):
            continue  # never re-parallelize generated task bodies
        if any(
            phi.metadata.get("noelle.generated")
            for phi in loop.structure.header.phis()
        ):
            continue  # runtime glue (e.g. reduction combining) stays serial
        if profile is not None:
            if profile.loop_hotness(loop.natural_loop) < minimum_hotness:
                continue
        if not invocation_is_profitable(loop, profile, FORK_OVERHEAD):
            continue
        if loop.structure.depth() != 1:
            continue  # parallelize outermost eligible loops only
        if not technique.can_parallelize(loop):
            continue
        technique.parallelize(loop)
        # Outlining rewrote only this function (plus fresh task code):
        # drop its shard and the aggregates, keep points-to warm.
        noelle.invalidate(fn)
        transformed_functions.add(id(fn))
        parallelized += 1
    return parallelized
