"""The profiler abstraction (Table 1, "PRO").

NOELLE ships several IR-level profilers (instruction, branch, loop), embeds
their results into the IR as metadata, and offers high-level queries on the
data: hotness of a code region (a loop, an SCC), loop iteration statistics,
and function invocation statistics.

Here profiling runs the program with the executor's block counters on —
the equivalent of ``noelle-prof-coverage`` running the instrumented binary
on training inputs, at the executor's full speed — and the result object
answers the same queries the paper lists.
"""

from __future__ import annotations

from collections import defaultdict

from ..analysis.loopinfo import NaturalLoop
from ..interp.interp import INSTRUCTION_COSTS, BlockProfile, Interpreter
from ..ir.instructions import Instruction
from ..ir.module import BasicBlock, Function, Module

PROFILE_COUNT_KEY = "noelle.prof.count"


class ProfileData:
    """Raw execution counts collected by one profiled run."""

    def __init__(self, module: Module):
        self.module = module
        self.instruction_counts: dict[int, int] = {}
        self.block_counts: dict[int, int] = {}
        self.edge_counts: dict[tuple[int, int], int] = {}
        self.invocation_counts: dict[int, int] = defaultdict(int)
        self.total_weight = 0  # cost-weighted dynamic instructions
        self._inclusive_cache: dict[int, float] | None = None

    # -- recording ------------------------------------------------------------------
    def record_call(self, fn: Function) -> None:
        self.invocation_counts[id(fn)] += 1

    def record_blocks(self, counters: BlockProfile) -> None:
        """Derive every other number from a run's edge counters: a block
        ran once per edge taken into it, and an instruction once per run
        of its block, less once per frame that stopped short of it."""
        entries: dict[BasicBlock, int] = defaultdict(int)
        for src, targets in counters.edges.items():
            for dst, taken in targets.items():
                entries[dst] += taken
                if src is not None:
                    self.edge_counts[(id(src), id(dst))] = taken
        for block, count in entries.items():
            self.block_counts[id(block)] = count
            cost = 0
            for inst in block.instructions:
                self.instruction_counts[id(inst)] = count
                cost += INSTRUCTION_COSTS.get(inst.opcode, 1)
            self.total_weight += count * cost
        for block, accounted in counters.partial:
            for inst in block.instructions[accounted:]:
                self.instruction_counts[id(inst)] -= 1
                self.total_weight -= INSTRUCTION_COSTS.get(inst.opcode, 1)

    # -- instruction/block queries -------------------------------------------------
    def count_of(self, inst: Instruction) -> int:
        return self.instruction_counts.get(id(inst), 0)

    def block_count(self, block: BasicBlock) -> int:
        return self.block_counts.get(id(block), 0)

    def edge_count(self, src: BasicBlock, dst: BasicBlock) -> int:
        return self.edge_counts.get((id(src), id(dst)), 0)

    def branch_probability(self, src: BasicBlock, dst: BasicBlock) -> float:
        """Fraction of ``src`` executions leaving through the edge to ``dst``."""
        total = sum(
            self.edge_counts.get((id(src), id(s)), 0) for s in src.successors()
        )
        if total == 0:
            return 0.0
        return self.edge_counts.get((id(src), id(dst)), 0) / total

    # -- hotness ----------------------------------------------------------------------
    def weight_of_instructions(self, instructions) -> int:
        return sum(
            self.instruction_counts.get(id(i), 0) * INSTRUCTION_COSTS.get(i.opcode, 1)
            for i in instructions
        )

    def inclusive_weight_of_instructions(self, instructions) -> float:
        """Weighted work of the region *including* its callees' time."""
        from ..ir.instructions import Call

        weight = float(self.weight_of_instructions(instructions))
        for inst in instructions:
            if isinstance(inst, Call):
                callee = inst.called_function()
                if callee is not None and not callee.is_declaration():
                    weight += self.count_of(inst) * self._inclusive_per_invocation(
                        callee
                    )
        return weight

    def _inclusive_per_invocation(self, fn: Function) -> float:
        """Average inclusive cycles of one invocation of ``fn``.

        Fixpoint over the call graph; recursion converges because every
        round distributes the same finite total weight.
        """
        if self._inclusive_cache is None:
            from ..ir.instructions import Call

            own: dict[int, float] = {}
            for candidate in self.module.defined_functions():
                invocations = max(self.function_invocations(candidate), 1)
                own[id(candidate)] = (
                    self.weight_of_instructions(list(candidate.instructions()))
                    / invocations
                )
            inclusive = dict(own)
            for _ in range(12):
                updated: dict[int, float] = {}
                for candidate in self.module.defined_functions():
                    invocations = max(self.function_invocations(candidate), 1)
                    total = own[id(candidate)]
                    for inst in candidate.instructions():
                        if isinstance(inst, Call):
                            callee = inst.called_function()
                            if callee is not None and id(callee) in inclusive:
                                if callee is candidate:
                                    continue  # self-recursion: own cost covers it
                                total += (
                                    self.count_of(inst)
                                    * inclusive[id(callee)]
                                    / invocations
                                )
                    updated[id(candidate)] = min(total, float(self.total_weight))
                if updated == inclusive:
                    break
                inclusive = updated
            self._inclusive_cache = inclusive
        return self._inclusive_cache.get(id(fn), 0.0)

    def hotness(self, instructions) -> float:
        """Fraction of the run's work spent in ``instructions`` (inclusive
        of callees, as the paper's hotness queries are)."""
        if self.total_weight == 0:
            return 0.0
        fraction = self.inclusive_weight_of_instructions(instructions) / (
            self.total_weight
        )
        return min(fraction, 1.0)

    def loop_hotness(self, loop: NaturalLoop) -> float:
        return self.hotness(list(loop.instructions()))

    def function_hotness(self, fn: Function) -> float:
        return self.hotness(list(fn.instructions()))

    # -- loop statistics ---------------------------------------------------------------
    def loop_invocations(self, loop: NaturalLoop) -> int:
        """How many times the loop was entered from outside."""
        return sum(
            self.edge_counts.get((id(entry), id(loop.header)), 0)
            for entry in loop.entries()
        )

    def loop_total_iterations(self, loop: NaturalLoop) -> int:
        """Total header-reaching back-edge traversals plus entries."""
        back = sum(
            self.edge_counts.get((id(latch), id(loop.header)), 0)
            for latch in loop.latches()
        )
        entries = self.loop_invocations(loop)
        # A while-shaped loop runs `back + entries` header evaluations but
        # `back` complete iterations only when it exits from the header.
        return back + entries if self._runs_body_per_header(loop) else back

    @staticmethod
    def _runs_body_per_header(loop: NaturalLoop) -> bool:
        # Do-while loops execute the body once per header execution.
        exiting = loop.exiting_blocks()
        return bool(exiting) and loop.header not in exiting

    def average_iterations_per_invocation(self, loop: NaturalLoop) -> float:
        invocations = self.loop_invocations(loop)
        if invocations == 0:
            return 0.0
        return self.loop_total_iterations(loop) / invocations

    # -- function statistics --------------------------------------------------------------
    def function_invocations(self, fn: Function) -> int:
        return self.invocation_counts.get(id(fn), 0)

    def average_callee_invocations(self, caller: Function, callee: Function) -> float:
        """Average number of times one invocation of ``caller`` calls ``callee``."""
        from ..ir.instructions import Call

        caller_count = self.function_invocations(caller)
        if caller_count == 0:
            return 0.0
        call_count = 0
        for inst in caller.instructions():
            if isinstance(inst, Call) and inst.called_function() is callee:
                call_count += self.count_of(inst)
        return call_count / caller_count


class Profiler:
    """Runs programs under observation (``noelle-prof-coverage``)."""

    def __init__(self, module: Module):
        self.module = module

    def profile(
        self,
        function_name: str = "main",
        args: list[object] | None = None,
        step_limit: int = 50_000_000,
    ) -> ProfileData:
        data = ProfileData(self.module)
        interp = Interpreter(self.module, step_limit=step_limit)
        interp.block_profile = BlockProfile()
        interp.call_observer = data.record_call
        interp.run(function_name, args)
        data.record_blocks(interp.block_profile)
        return data


def embed_profile(module: Module, data: ProfileData) -> None:
    """Attach counts as IR metadata (``noelle-meta-prof-embed``)."""
    for fn in module.defined_functions():
        for inst in fn.instructions():
            inst.metadata[PROFILE_COUNT_KEY] = data.count_of(inst)
    module.metadata["noelle.prof.total_weight"] = data.total_weight


def read_embedded_counts(module: Module) -> dict[int, int]:
    """Recover per-instruction counts from embedded metadata."""
    counts: dict[int, int] = {}
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if PROFILE_COUNT_KEY in inst.metadata:
                counts[id(inst)] = int(inst.metadata[PROFILE_COUNT_KEY])
    return counts
