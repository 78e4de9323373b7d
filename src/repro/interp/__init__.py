"""repro.interp — execution of the repro IR.

Programs run on the compiling engine (:mod:`repro.interp.engine`),
observers included.  The tree-walking interpreter
(:mod:`repro.interp.interp`) is its reference, with one observable
semantics between them; it runs only where ``engine="reference"`` asks
for it.

The names below load with the module that defines them, on first use:
a process that only runs hydrated code never imports the compiler
(:mod:`repro.interp.compiler`) or the walker.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "ExecutionEngine": "engine",
    "engine_for": "engine",
    "engine_mode": "engine",
    "invalidate_module": "engine",
    "INSTRUCTION_COSTS": "interp",
    "INTRINSIC_COSTS": "interp",
    "ExecutionResult": "interp",
    "Interpreter": "interp",
    "run_module": "interp",
    "InterpError": "semantics",
    "MemoryTrap": "semantics",
    "StepLimitExceeded": "semantics",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
