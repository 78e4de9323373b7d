"""repro.interp — execution of the repro IR.

Two engines share one observable semantics: the tree-walking reference
interpreter (:mod:`repro.interp.interp`) and the compiling engine
(:mod:`repro.interp.engine`), selected via the
``NOELLE_ENGINE`` environment variable or the ``engine=`` argument.
"""

from .engine import (
    ENGINE_ENV,
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
    "ENGINE_ENV",
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
