"""repro.interp — execution of the repro IR.

Programs run on the compiling engine (:mod:`repro.interp.engine`),
observers included.  The tree-walking interpreter
(:mod:`repro.interp.interp`) is its reference, with one observable
semantics between them; it runs only where ``engine="reference"`` asks
for it.
"""

from .engine import (
    ExecutionEngine,
    engine_for,
    engine_mode,
    invalidate_module,
)
from .interp import (
    INSTRUCTION_COSTS,
    INTRINSIC_COSTS,
    ExecutionResult,
    InterpError,
    Interpreter,
    MemoryTrap,
    StepLimitExceeded,
    run_module,
)

__all__ = [
    "ExecutionEngine",
    "INSTRUCTION_COSTS",
    "INTRINSIC_COSTS",
    "ExecutionResult",
    "InterpError",
    "Interpreter",
    "MemoryTrap",
    "StepLimitExceeded",
    "engine_for",
    "engine_mode",
    "invalidate_module",
    "run_module",
]
