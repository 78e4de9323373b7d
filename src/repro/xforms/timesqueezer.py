"""Time-Squeezer on NOELLE (Section 3, "Time-Squeezer").

Generates code for *timing-speculative* micro-architectures (Fan et al.
[ISCA'19, DAC'18]): hardware that runs at a clock period shorter than the
worst-case path and relies on the compiler to (1) canonicalize compare
instructions so their critical operand arrives early, (2) schedule
instruction sequences to group operations tolerating the same clock
period, and (3) inject instructions that change the clock period at
region boundaries.

NOELLE abstractions used (Table 4 row "TIME"): ISL + PDG analyze the
compare instructions and their dependence slices, DFE + L + FR decide
where clock-changing instructions go (per loop region, innermost first),
and SCD re-schedules each region's instruction sequence.
"""

from __future__ import annotations

from ..core.islands import dependence_graph_islands
from ..core.noelle import Noelle
from .. import ir
from ..ir.builder import IRBuilder
from ..ir.intrinsics import declare_intrinsic, generated_functions

#: Clock periods (abstract time units per cycle): aggressive vs safe.
FAST_CLOCK = 8
SLOW_CLOCK = 10

#: Opcodes whose circuit paths are short enough for the fast clock.
FAST_OPS = frozenset({
    "add", "sub", "and", "or", "xor", "shl", "ashr", "lshr", "icmp",
    "br", "cond_br", "phi", "select", "trunc", "zext", "sext", "bitcast",
    "elem_ptr", "ret",
})


class TimeSqueezerStats:
    def __init__(self) -> None:
        self.compares_swapped = 0
        self.blocks_rescheduled = 0
        self.clock_changes_inserted = 0
        self.fast_regions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TIME swapped={self.compares_swapped} "
            f"rescheduled={self.blocks_rescheduled} "
            f"clock-changes={self.clock_changes_inserted}>"
        )


class TimeSqueezer:
    """The TIME custom tool."""

    name = "time-squeezer"

    def __init__(self, noelle: Noelle):
        self.noelle = noelle

    def run(self) -> TimeSqueezerStats:
        stats = TimeSqueezerStats()
        generated = generated_functions(self.noelle.module)
        for fn in list(self.noelle.module.defined_functions()):
            if fn not in generated:
                self.run_on_function(fn, stats)
        return stats

    def run_on_function(self, fn: ir.Function, stats: TimeSqueezerStats) -> None:
        self._canonicalize_compares(fn, stats)
        self._schedule_for_clock(fn, stats)
        self._inject_clock_changes(fn, stats)
        self.noelle.invalidate(fn)

    # -- (1) compare canonicalization ---------------------------------------------------
    def _canonicalize_compares(self, fn: ir.Function, stats: TimeSqueezerStats) -> None:
        """Swap compare operands so the late-arriving one is on the left.

        On the timing-speculative datapath the left operand feeds the
        critical comparator input; putting the deeper computation there
        gives the hardware the most slack.  ISL over the PDG slice of the
        compares tells which compares share dependences (and must agree).
        """
        pdg = self.noelle.pdg()
        compares = [
            inst for inst in fn.instructions() if isinstance(inst, ir.CmpInst)
        ]
        if not compares:
            return
        slice_graph = pdg.subgraph(compares)
        for island in dependence_graph_islands(slice_graph):
            for compare in island:
                if not isinstance(compare, ir.CmpInst):
                    continue
                lhs_depth = self._operand_depth(compare.lhs)
                rhs_depth = self._operand_depth(compare.rhs)
                if rhs_depth > lhs_depth:
                    compare.swap_operands()
                    stats.compares_swapped += 1

    def _operand_depth(self, value: ir.Value, limit: int = 12) -> int:
        if not isinstance(value, ir.Instruction) or limit == 0:
            return 0
        depths = [
            self._operand_depth(op, limit - 1)
            for op in value.operands
            if isinstance(op, ir.Instruction)
        ]
        return 1 + (max(depths) if depths else 0)

    # -- (2) scheduling ------------------------------------------------------------------
    def _schedule_for_clock(self, fn: ir.Function, stats: TimeSqueezerStats) -> None:
        """Group fast ops together so fast-clock regions are long (SCD)."""
        scheduler = self.noelle.basic_block_scheduler(fn)
        for block in fn.blocks:
            changed = scheduler.schedule_block(
                block, priority=lambda i: 0 if i.opcode in FAST_OPS else 1
            )
            if changed:
                stats.blocks_rescheduled += 1

    # -- (3) clock-change injection --------------------------------------------------------
    def _inject_clock_changes(self, fn: ir.Function, stats: TimeSqueezerStats) -> None:
        """Per block: run fast-op prefixes at the fast clock.

        The block scheduler moved fast ops to the front; a ``clock_set``
        pair brackets the prefix when it is long enough to amortize the
        change.  Loop regions whose whole body is fast get the pair hoisted
        around the loop instead (FR: innermost loops first).
        """
        clock_set = declare_intrinsic(self.noelle.module, "clock_set")
        wrapped_blocks: set[int] = set()
        # FR: walk the loop-nesting forest bottom-up so an innermost fast
        # loop is wrapped before its parent is considered.
        forest = self.noelle.loop_forest(fn)
        for node in forest.bottom_up():
            loop = node.value.natural_loop
            body = [i for b in loop.blocks for i in b.instructions]
            if all(i.opcode in FAST_OPS or isinstance(i, ir.Phi) for i in body):
                entries = loop.entries()
                exits = loop.exit_blocks()
                if len(entries) == 1:
                    self._set_clock(clock_set, entries[0].terminator, FAST_CLOCK)
                    for exit_block in exits:
                        self._set_clock(
                            clock_set, exit_block.first_non_phi(), SLOW_CLOCK
                        )
                    stats.clock_changes_inserted += 1 + len(exits)
                    stats.fast_regions += 1
                    wrapped_blocks.update(id(b) for b in loop.blocks)
        for block in fn.blocks:
            if id(block) in wrapped_blocks:
                continue
            prefix = 0
            for inst in block.instructions:
                if isinstance(inst, (ir.Phi,)):
                    continue
                if inst.opcode in FAST_OPS and not inst.is_terminator():
                    prefix += 1
                else:
                    break
            if prefix >= 6:  # long enough to amortize two clock changes
                first = block.first_non_phi()
                after_prefix = block.instructions[first.index_in_block() + prefix]
                self._set_clock(clock_set, first, FAST_CLOCK)
                self._set_clock(clock_set, after_prefix, SLOW_CLOCK)
                stats.clock_changes_inserted += 2
                stats.fast_regions += 1

    @staticmethod
    def _set_clock(clock_set: ir.Function, before: ir.Instruction, period: int) -> None:
        """``clock_set(period)`` right before ``before``."""
        builder = IRBuilder()
        builder.position_before(before)
        builder.call(clock_set, [ir.const_int(period)])
