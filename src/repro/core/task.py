"""The task abstraction (Table 1, "T").

A task is a code region that runs sequentially on one thread: an IR
function taking an environment pointer (plus scheduling parameters such as
the core id), created by partitioning an aSCCDAG's nodes.  At runtime
tasks are submitted to the simulated thread pool
(:mod:`repro.runtime.threadpool`), which runs them on virtual cores; value
forwarding between tasks happens through their environments.
"""

from __future__ import annotations

from .. import ir
from .environment import Environment


class Task:
    """One schedulable sequential code region."""

    def __init__(self, function: ir.Function, environment: Environment):
        #: The generated task body: signature ``(env*, core_id, num_cores)``.
        self.function = function
        self.environment = environment
        #: Map from original instructions to their clones inside the task.
        self.clones: dict[int, ir.Instruction] = {}

    def clone_of(self, inst: ir.Instruction) -> ir.Instruction | None:
        return self.clones.get(id(inst))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task @{self.function.name}>"


def make_task_function(
    module: ir.Module, env: Environment, name_hint: str
) -> ir.Function:
    """Declare an empty task function with the canonical task signature."""
    fnty = ir.FunctionType(
        ir.VOID, [env.pointer_type(), ir.I64, ir.I64]
    )
    index = 0
    name = name_hint
    while name in module.functions:
        index += 1
        name = f"{name_hint}{index}"
    fn = module.add_function(name, fnty, ["env", "core_id", "num_cores"])
    # No tool reads this (generated code is found from the IR); the
    # bigmod_analysis benchmark picks its re-query kernels by it.
    fn.metadata["noelle.task"] = True
    return fn
