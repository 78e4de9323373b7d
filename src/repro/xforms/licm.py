"""Loop Invariant Code Motion on NOELLE (Section 3, "LICM").

The whole tool is a few dozen lines because the three hard parts are
NOELLE abstractions: the loop forest (FR) orders the work from innermost
to outermost loops, the invariant manager (INV, Algorithm 2) decides what
may move, and the loop builder (LB) performs the hoist.  Compare with
:mod:`repro.baselines.licm_llvm`, which re-derives all of it from
low-level facilities (Table 3: 2317 vs 170 LoC; Figure 4: fewer
invariants found).
"""

from __future__ import annotations

from ..core.noelle import Noelle
from ..ir.instructions import Instruction


class LICM:
    """The NOELLE-based LICM custom tool."""

    name = "licm"

    def __init__(self, noelle: Noelle):
        self.noelle = noelle

    def run(self) -> int:
        """Hoist invariants in every loop of the program; returns count."""
        hoisted = 0
        for fn in list(self.noelle.module.defined_functions()):
            hoisted += self.run_on_function(fn)
        return hoisted

    def run_on_function(self, fn) -> int:
        hoisted = 0
        changed = True
        while changed:
            changed = False
            forest = self.noelle.loop_forest(fn)
            lb = self.noelle.loop_builder(fn)
            # Innermost first: hoisting bubbles invariants outward through
            # enclosing loops on later forest nodes.
            for node in forest.bottom_up():
                loop = node.value
                for inst in self._hoistable(loop):
                    lb.hoist_to_pre_header(loop.natural_loop, inst)
                    hoisted += 1
                    changed = True
            if changed:
                # Hoisting rewrites only this function: drop its PDG shard
                # and loop info, keep the whole-module analyses warm.
                self.noelle.invalidate(fn)
        return hoisted

    def _hoistable(self, loop) -> list[Instruction]:
        invariants = loop.invariants.invariants()
        # INV already guarantees every dependence is satisfied outside the
        # loop; only speculation safety remains (traps must not be
        # introduced on the zero-iteration path).
        chosen = {
            id(i): i for i in invariants
            if i.opcode not in ("sdiv", "srem", "load")
            or self._runs_every_iteration(loop, i)
        }
        # An invariant that reads one left in the loop stays there too,
        # and so on through its own users: drop until nothing changes.
        contains = loop.structure.contains
        changed = True
        while changed:
            changed = False
            for inst in list(chosen.values()):
                if any(
                    isinstance(op, Instruction) and id(op) not in chosen
                    and contains(op)
                    for op in inst.operands
                ):
                    del chosen[id(inst)]
                    changed = True
        return list(chosen.values())

    def _runs_every_iteration(self, loop, inst: Instruction) -> bool:
        dom = self.noelle.dominators(loop.structure.function)
        return all(
            latch.terminator is not None and dom.dominates(inst, latch.terminator)
            for latch in loop.structure.latches()
        )
