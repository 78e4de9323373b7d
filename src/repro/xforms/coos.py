"""Compiler-based timing on NOELLE (Section 3, "Compiler-Based Timing").

COOS (compiler + OS co-design, Ghosh et al. [SC'20]) replaces hardware
timer interrupts with compiler-injected calls to OS routines: the compiler
guarantees that no execution path runs longer than a budget of cycles
without yielding to the OS.

NOELLE abstractions used (Table 4 row "COOS"): the data-flow engine runs
the specialized *cycles-since-last-hook* analysis, PRO focuses placement
on code that actually runs, L/FR/LB handle potentially-infinite loops
(every loop gets a latch hook so even a non-terminating loop yields), and
CG bounds the cost of call sites by their callees' summaries.
"""

from __future__ import annotations

from ..core.noelle import Noelle
from ..interp.interp import INSTRUCTION_COSTS, INTRINSIC_COSTS
from .. import ir
from ..ir.builder import IRBuilder
from ..ir.intrinsics import declare_intrinsic, generated_functions


class CompilerTiming:
    """The COOS custom tool."""

    name = "coos"

    def __init__(self, noelle: Noelle, budget_cycles: int = 400):
        self.noelle = noelle
        #: Maximum cycles allowed between consecutive OS hooks.
        self.budget = budget_cycles

    def run(self) -> int:
        """Inject hooks module-wide; returns how many were inserted."""
        inserted = 0
        generated = generated_functions(self.noelle.module)
        for fn in list(self.noelle.module.defined_functions()):
            if fn not in generated:
                inserted += self.run_on_function(fn)
        return inserted

    def run_on_function(self, fn: ir.Function) -> int:
        hook = declare_intrinsic(self.noelle.module, "os_time_hook")
        call_costs = self._call_cost_summaries()
        inserted = 0
        # Every loop latch gets a hook: loops are the only way a path can
        # exceed any static budget (including infinite loops).
        info = self.noelle.loop_info(fn)
        hooked_blocks: set[int] = set()
        for loop in info.loops():
            body_cost = self._block_path_cost(loop.blocks, call_costs)
            if body_cost * max(self._estimated_iterations(loop), 1) < self.budget:
                continue  # provably under budget for a whole invocation
            from ..core.loopbuilder import LoopBuilder

            # LB: canonicalize the entry so the pre-loop hook has a home
            # even for multi-entry loops (potentially-infinite loops get a
            # hook both before entry and on every back edge).
            pre = LoopBuilder(fn).ensure_pre_header(loop)
            if id(pre) not in hooked_blocks:
                hooked_blocks.add(id(pre))
                self._insert_hook_before_terminator(pre, hook, body_cost)
                inserted += 1
            for latch in loop.latches():
                if id(latch) in hooked_blocks:
                    continue
                hooked_blocks.add(id(latch))
                self._insert_hook_before_terminator(latch, hook, body_cost)
                inserted += 1
        # Straight-line budget: accumulate block costs along acyclic paths
        # (forward data-flow, max at merges approximated by union of costs).
        inserted += self._hook_long_paths(fn, hook, call_costs, hooked_blocks)
        self.noelle.invalidate(fn)
        return inserted

    # -- cost modeling --------------------------------------------------------------
    def _call_cost_summaries(self) -> dict[int, int]:
        """Worst-case cycles per function, through the call graph (CG)."""
        cg = self.noelle.call_graph()
        module = self.noelle.module
        summary: dict[int, int] = {}
        for fn in module.functions.values():
            if fn.is_declaration():
                summary[id(fn)] = INTRINSIC_COSTS.get(fn.name, 20)
            else:
                summary[id(fn)] = sum(
                    INSTRUCTION_COSTS.get(i.opcode, 1) for i in fn.instructions()
                )
        # One relaxation round per edge suffices for a rough upper bound;
        # recursion saturates at the budget (the hook in the body covers it).
        for _ in range(3):
            for fn in module.defined_functions():
                total = 0
                for inst in fn.instructions():
                    total += INSTRUCTION_COSTS.get(inst.opcode, 1)
                    if isinstance(inst, ir.Call):
                        for callee in cg.possible_callees(inst):
                            total += min(summary.get(id(callee), 20), self.budget)
                summary[id(fn)] = min(total, 10 * self.budget)
        return summary

    def _block_cost(self, block: ir.BasicBlock, call_costs: dict[int, int]) -> int:
        total = 0
        for inst in block.instructions:
            total += INSTRUCTION_COSTS.get(inst.opcode, 1)
            if isinstance(inst, ir.Call):
                callee = inst.called_function()
                if callee is not None:
                    total += min(call_costs.get(id(callee), 20), self.budget)
        return total

    def _block_path_cost(self, blocks, call_costs: dict[int, int]) -> int:
        return sum(self._block_cost(b, call_costs) for b in blocks)

    @staticmethod
    def _estimated_iterations(loop) -> int:
        # Without a profile assume loops are hot; with one, use it.
        return 1_000

    # -- placement --------------------------------------------------------------------
    def _insert_hook_before_terminator(
        self, block: ir.BasicBlock, hook: ir.Function, estimate: int
    ) -> None:
        builder = IRBuilder()
        builder.position_before(block.terminator)
        builder.call(hook, [ir.const_int(min(estimate, self.budget))])

    def _hook_long_paths(
        self,
        fn: ir.Function,
        hook: ir.Function,
        call_costs: dict[int, int],
        hooked_blocks: set[int],
    ) -> int:
        """DFE-powered pass: bound cycles between hooks on acyclic paths.

        Phase 1 (the engine): a forward *may* data-flow computes, per
        block, the set of hook-free blocks that can reach it — a block's
        own hook kills the facts.  Phase 2 turns the fact sets into cost
        sums and hooks blocks whose reaching hook-free cost exceeds the
        budget, then reruns until clean (hook insertion changes the kill
        sets).
        """
        from ..core.dataflow import DataFlowEngine, DataFlowProblem

        inserted = 0
        for _ in range(10):  # hooks monotonically increase: terminates
            all_block_ids = {id(b) for b in fn.blocks}

            def gen(inst: ir.Instruction) -> set:
                block = inst.parent
                if block is None or block.instructions[0] is not inst:
                    return set()
                return {id(block)} if id(block) not in hooked_blocks else set()

            def kill(inst: ir.Instruction) -> set:
                if isinstance(inst, ir.Call):
                    callee = inst.called_function()
                    if callee is not None and callee.name == "os_time_hook":
                        return set(all_block_ids)
                return set()

            problem = DataFlowProblem("forward", gen, kill, meet="union")
            result = DataFlowEngine().run(fn, problem)
            cost_of_block = {
                id(b): self._block_cost(b, call_costs) for b in fn.blocks
            }
            worst = None
            for block in fn.blocks:
                reaching = result.out_of_block(block)
                cost = sum(cost_of_block.get(bid, 0) for bid in reaching)
                if cost > self.budget and id(block) not in hooked_blocks:
                    worst = block if worst is None else worst
                    if cost > sum(
                        cost_of_block.get(bid, 0)
                        for bid in result.out_of_block(worst)
                    ):
                        worst = block
            if worst is None:
                break
            self._insert_hook_before_terminator(
                worst, hook, min(self.budget, 10 * self.budget)
            )
            hooked_blocks.add(id(worst))
            inserted += 1
        return inserted


def timing_accuracy(callback_cycles: list[int], total_cycles: int) -> dict[str, float]:
    """Largest and mean gap between consecutive hooks in a profiled run."""
    if not callback_cycles:
        return {"max_gap": float(total_cycles), "mean_gap": float(total_cycles)}
    gaps = []
    previous = 0
    for stamp in callback_cycles:
        gaps.append(stamp - previous)
        previous = stamp
    gaps.append(total_cycles - previous)
    return {
        "max_gap": float(max(gaps)),
        "mean_gap": float(sum(gaps) / len(gaps)),
        "hooks": float(len(callback_cycles)),
    }
