"""What the compiled engine and the reference walker share at run time:
the errors a run stops with and the value of a function pointer.

A process that runs only hydrated code (:mod:`repro.interp.engine`)
needs these and not the walker, :mod:`repro.interp.interp`, which
imports them from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..ir.instructions import Instruction
    from ..ir.module import Function


class InterpError(Exception):
    """Base class for runtime failures."""


class MemoryTrap(InterpError):
    """An access to unallocated or freed memory."""


class OperandTrap(MemoryTrap):
    """An integer instruction given a value that is not an integer — a
    float or a function's address that a cast passed through.  It ends
    the run like a memory trap, as the program's own fault."""


#: The casts from an integer to an integer: with the integer binary ops
#: and ``icmp``, the instructions an :class:`OperandTrap` stops.
INT_TO_INT_CASTS = ("trunc", "zext", "sext")


def _operand_trap(inst: Instruction) -> OperandTrap:
    """What integer instruction ``inst`` raises on a non-integer operand."""
    return OperandTrap(f"non-integer operand to {inst.opcode}")


class StepLimitExceeded(InterpError):
    """The configured execution budget ran out."""


class ExitProgram(Exception):
    """Raised internally by the ``exit`` intrinsic."""

    def __init__(self, code: int):
        self.code = code


class _FunctionAddress:
    """Runtime representation of a function pointer."""

    __slots__ = ("fn",)

    def __init__(self, fn: Function):
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<&@{self.fn.name}>"
