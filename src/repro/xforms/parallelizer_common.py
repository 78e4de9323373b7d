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
segments, queues) live in the technique modules, behind one protocol
(:class:`LoopTechnique`): ``plan`` decides legality once and returns what
the code generator needs, ``apply`` transforms.
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


#: Exit predicates compatible with round-robin chunking (a core may step
#: past the bound, so equality tests are unsafe).
CHUNKABLE_PREDICATES = ("slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")


class ParallelizationError(Exception):
    """The loop cannot be parallelized by this technique."""


class LoopTechnique:
    """The plan -> apply protocol of the loop techniques.

    A technique writes two methods.  ``plan(loop)`` decides legality and
    profitability and returns whatever its code generator needs, or
    raises :class:`ParallelizationError` carrying the reason;
    ``apply(loop, plan)`` transforms the loop in place and returns the
    dispatch call.  The rest is written here, once.
    """

    name = "<abstract>"
    noelle: Noelle

    def plan(self, loop: Loop):
        raise NotImplementedError

    def apply(self, loop: Loop, plan) -> ir.Call:
        raise NotImplementedError

    def can_parallelize(self, loop: Loop) -> bool:
        try:
            self.plan(loop)
        except ParallelizationError:
            return False
        return True

    def parallelize(self, loop: Loop) -> ir.Call:
        """Parallelize ``loop`` in place; returns the dispatch call."""
        return self.apply(loop, self.plan(loop))

    def run(
        self,
        minimum_hotness: float = 0.0,
        max_rounds: int = 10,
        only_loop_id: int | None = None,
    ) -> int:
        """Parallelize every eligible (hot) loop; returns how many."""
        return run_rounds(self, minimum_hotness, max_rounds, only_loop_id)


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


def chunkable_boundary(loop: Loop) -> LoopBoundary:
    """Legality of slicing ``loop`` by iterations (DOALL, HELIX): one
    governing IV with a constant step and an ordering exit test, one
    exit, and nothing but reductions live past the loop."""
    iv = loop.governing_iv()
    if iv is None:
        raise ParallelizationError("no governing induction variable")
    if iv.constant_step() is None:
        raise ParallelizationError("governing IV has a non-constant step")
    if iv.exit_compare is None or iv.exit_compare.predicate not in (
        CHUNKABLE_PREDICATES
    ):
        raise ParallelizationError("exit condition is not chunkable")
    if len(loop.structure.exiting_blocks()) != 1:
        raise ParallelizationError("loop has multiple exits")
    boundary = LoopBoundary(loop)
    if not boundary.only_reduction_live_outs():
        raise ParallelizationError("loop has live-outs that are not reductions")
    return boundary


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
    skeleton: TaskSkeleton,
    boundary: LoopBoundary,
    slot: ir.Value | None = None,
    owns=None,
) -> None:
    """Per-core reduction plumbing inside the task.

    The cloned accumulator phi starts at the operator's identity; its
    final value is stored into slot ``slot`` (default: this core's) of
    the environment's partial-result array.  ``owns(reduction)`` limits
    the plumbing to the reductions this task computes (a DSWP stage).
    """
    env_ptr, core_id, _ = skeleton.task.function.args
    builder = ir.IRBuilder(skeleton.exit_block)
    for position, reduction in enumerate(boundary.reductions):
        if owns is not None and not owns(reduction):
            continue
        cloned_phi = skeleton.clone_of(reduction.phi)
        assert isinstance(cloned_phi, ir.Phi)
        # Entry value becomes the identity.
        for index in range(1, len(cloned_phi.operands), 2):
            if cloned_phi.operands[index] is skeleton.entry:
                cloned_phi.set_operand(index - 1, reduction.identity_constant())
        target = _reduction_slot(
            builder, boundary, env_ptr, position,
            core_id if slot is None else slot, f"red.slot{position}",
        )
        builder.store(
            skeleton.clone_of(boundary.reduction_exit_source(reduction)), target
        )
    builder.ret()


def _reduction_slot(
    builder: ir.IRBuilder, boundary: LoopBoundary, env_ptr: ir.Value,
    position: int, core: ir.Value, name: str,
) -> ir.ElemPtr:
    """Address of ``core``'s partial result of reduction ``position``."""
    field_index = len(boundary.live_ins) + position
    return builder.elem_ptr(
        env_ptr, [ir.const_int(0), ir.const_int(field_index), core], name
    )


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

    def per_core_loop(prefix, core_name, test_name, next_name, carried, emit_body):
        """``for core in range(num_cores)`` from the builder's block on,
        leaving the builder in the loop's done block.  ``carried`` lists
        (type, name, initial value) of values carried around the loop;
        ``emit_body(core, phis)`` returns their next values.  Returns
        the carried phis."""
        entry = builder.block
        header, body, done = (
            fn.add_block(prefix + suffix) for suffix in ("", ".body", ".done")
        )
        builder.br(header)
        builder.position_at_end(header)
        core = builder.phi(ir.I64, core_name)
        core.metadata["noelle.generated"] = True
        phis = [builder.phi(ty, name) for ty, name, _ in carried]
        test = builder.icmp("sge", core, num_cores, test_name)
        builder.cond_br(test, done, body)
        builder.position_at_end(body)
        nexts = emit_body(core, phis)
        next_core = builder.add(core, ir.const_int(1), next_name)
        builder.br(header)
        initials = [ir.const_int(0), *(initial for _, _, initial in carried)]
        for phi, initial, following in zip(
            [core, *phis], initials, [next_core, *nexts]
        ):
            phi.add_incoming(initial, entry)
            phi.add_incoming(following, body)
        builder.position_at_end(done)
        return phis

    reductions = list(enumerate(boundary.reductions))

    # Initialize every per-core partial-result slot to the reduction's
    # identity: a scheduler may hand fewer cores than requested (HELIX's
    # in-order replay uses one), and unwritten slots must be neutral.
    def init_slots(core, _):
        for position, reduction in reductions:
            slot = _reduction_slot(
                builder, boundary, env_ptr, position, core,
                f"red.init.slot{position}",
            )
            builder.store(reduction.identity_constant(), slot)
        return []

    if reductions:
        per_core_loop(
            "red.init", "red.init.core", "red.init.done.test", "red.init.next",
            [], init_slots,
        )

    dispatcher = declare_intrinsic(module, dispatcher_name)
    dispatch_call = builder.call(dispatcher, [task.function, env_ptr, num_cores])

    # Combine the per-core partial results with a small runtime loop.
    def combine_slots(core, accumulators):
        totals = []
        for position, reduction in reductions:
            slot = _reduction_slot(
                builder, boundary, env_ptr, position, core, f"red.read{position}"
            )
            partial = builder.load(slot, f"red.part{position}")
            totals.append(
                builder.binary(reduction.operator, accumulators[position],
                               partial, f"red.next{position}")
            )
        return totals

    combined: dict[int, ir.Value] = {}
    if reductions:
        accumulators = per_core_loop(
            "red.combine", "red.core", "red.done", "red.core.next",
            [
                (reduction.phi.type, f"red.acc{position}", reduction.initial_value())
                for position, reduction in reductions
            ],
            combine_slots,
        )
        for position, reduction in reductions:
            combined[id(reduction.phi)] = accumulators[position]
            combined[id(reduction.exit_value())] = accumulators[position]
    builder.br(exit_block)

    _rewire_after_loop(boundary, combined, exit_block, builder.block)
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
    """The whole-program driver every :class:`LoopTechnique` shares:
    parallelize every eligible (hot) loop; returns how many.

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
        try:
            plan = technique.plan(loop)
        except ParallelizationError:
            continue  # a miss; its reason is the exception's message
        technique.apply(loop, plan)
        # Outlining rewrote only this function (plus fresh task code):
        # drop its shard and the aggregates, keep points-to warm.
        noelle.invalidate(fn)
        transformed_functions.add(id(fn))
        parallelized += 1
    return parallelized
