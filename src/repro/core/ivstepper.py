"""The induction variable stepper (Table 1, "IVS").

Modifies the step (and start) of a loop's induction variables: the user
specifies the new step value and the abstraction rewrites the loop.  This
is the mechanism behind loop-rotation step reversal and — most importantly
here — DOALL's iteration chunking, where each core's copy of the loop steps
by ``num_cores * chunk`` and starts at ``start + core_id * chunk``.
"""

from __future__ import annotations

from .. import ir
from ..ir.builder import IRBuilder
from ..ir.instructions import BinaryOp, Instruction, Phi
from ..ir.values import Value
from .induction import InductionVariable


class IVStepperError(Exception):
    """The requested stepping change cannot be applied."""


class InductionVariableStepper:
    """Rewrites IV start/step values in place."""

    def __init__(self, iv: InductionVariable):
        self.iv = iv
        self.update = self._single_update()

    def _single_update(self) -> BinaryOp:
        updates = [
            u for u in self.iv.update_instructions() if isinstance(u, BinaryOp)
        ]
        if len(updates) != 1:
            raise IVStepperError(
                f"IV {self.iv.phi.ref()} has {len(updates)} update instructions; "
                "only single-update IVs can be re-stepped"
            )
        update = updates[0]
        if update.opcode not in ("add", "sub"):
            raise IVStepperError(f"IV update {update} is not an add/sub")
        return update

    # -- queries --------------------------------------------------------------------
    def current_step_operand_index(self) -> int:
        """Which operand of the update instruction is the step amount."""
        if self.update.lhs is self.iv.phi:
            return 1
        if self.update.rhs is self.iv.phi:
            return 0
        # The update may chain through other SCC members; the non-SCC
        # operand is the step.
        scc = self.iv.scc
        if scc is not None:
            if isinstance(self.update.lhs, Instruction) and scc.contains(self.update.lhs):
                return 1
            if isinstance(self.update.rhs, Instruction) and scc.contains(self.update.rhs):
                return 0
        raise IVStepperError(f"cannot locate the step operand of {self.update}")

    # -- rewrites --------------------------------------------------------------------
    def set_step(self, new_step: Value) -> None:
        """Replace the per-iteration step with ``new_step``.

        ``new_step`` must be loop-invariant (available at the pre-header).
        """
        self.update.set_operand(self.current_step_operand_index(), new_step)

    def set_start(self, new_start: Value) -> None:
        """Replace the IV's entry value with ``new_start``."""
        phi = self.iv.phi
        for index in range(1, len(phi.operands), 2):
            pred = phi.operands[index]
            if not self.iv.loop.contains_block(pred):
                phi.set_operand(index - 1, new_start)
                return
        raise IVStepperError(f"IV {phi.ref()} has no entry edge")

    def reverse_step(self, builder: IRBuilder) -> None:
        """Negate the step (loop rotation's direction reversal)."""
        index = self.current_step_operand_index()
        old_step = self.update.operands[index]
        if isinstance(old_step, ir.ConstantInt):
            negated: Value = ir.ConstantInt(old_step.type, -old_step.value)
        else:
            negated = builder.sub(
                ir.ConstantInt(old_step.type, 0), old_step, "step.neg"
            )
        self.update.set_operand(index, negated)

    def chunk_for_core(
        self,
        builder: IRBuilder,
        core_id: Value,
        num_cores: Value,
    ) -> None:
        """Apply round-robin chunking: core c runs iterations c, c+N, c+2N...

        ``builder`` must be positioned in the pre-header (or wherever the
        new start/step computation should live).  The original step is
        multiplied by ``num_cores`` and the start offset by
        ``core_id * step``.
        """
        index = self.current_step_operand_index()
        old_step = self.update.operands[index]
        scaled = builder.mul(old_step, num_cores, "step.chunked")
        offset = builder.mul(old_step, core_id, "start.offset")
        phi = self.iv.phi
        entry_value = None
        for value, pred in phi.incoming():
            if not self.iv.loop.contains_block(pred):
                entry_value = value
        if entry_value is None:
            raise IVStepperError(f"IV {phi.ref()} has no entry edge")
        new_start = builder.add(entry_value, offset, "start.chunked")
        self.set_start(new_start)
        self.set_step(scaled)
