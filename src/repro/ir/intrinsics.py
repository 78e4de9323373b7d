"""Runtime intrinsics: the "libc" surface of the repro IR.

Programs compiled from MiniC (and hand-built IR) call into a small runtime
implemented natively by the interpreter.  From the analyses' point of view
these are *external functions*, exactly like libc calls in LLVM IR: the
points-to analysis and mod/ref have dedicated models for them, and calls to
unmodeled externals are treated conservatively — which is what makes the
baseline-vs-NOELLE precision comparisons meaningful.

Calls to the ``parallel`` ones are how every tool finds generated code,
from the IR alone (:func:`generated_functions`, :func:`is_generated_loop`).
"""

from __future__ import annotations

from typing import NamedTuple

from .instructions import Call, Load, Switch
from .module import Function, Module
from .types import DOUBLE, I8, I64, VOID, FunctionType, PointerType
from .values import GlobalVariable

#: name -> (FunctionType, attributes)
INTRINSICS: dict[str, tuple[FunctionType, frozenset[str]]] = {
    # I/O
    "print_int": (FunctionType(VOID, [I64]), frozenset({"io"})),
    "print_float": (FunctionType(VOID, [DOUBLE]), frozenset({"io"})),
    # Heap
    "malloc": (FunctionType(PointerType(I8), [I64]), frozenset({"allocator"})),
    "free": (FunctionType(VOID, [PointerType(I8)]), frozenset({"allocator"})),
    # Math (pure: no memory effects)
    "sqrt": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "exp": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "log": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "sin": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "cos": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "pow": (FunctionType(DOUBLE, [DOUBLE, DOUBLE]), frozenset({"pure"})),
    "fabs": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    "floor": (FunctionType(DOUBLE, [DOUBLE]), frozenset({"pure"})),
    # Pseudo-random value generators (the PRVJeeves design space).
    "rand": (FunctionType(I64, []), frozenset({"prvg"})),
    "rand_lcg": (FunctionType(I64, []), frozenset({"prvg"})),
    "rand_xorshift": (FunctionType(I64, []), frozenset({"prvg"})),
    "rand_mt": (FunctionType(I64, []), frozenset({"prvg"})),
    "rand_pcg": (FunctionType(I64, []), frozenset({"prvg"})),
    "srand": (FunctionType(VOID, [I64]), frozenset({"prvg"})),
    # Timing/OS hooks used by COOS and CARAT.
    "os_callback": (FunctionType(VOID, []), frozenset({"os"})),
    "os_time_hook": (FunctionType(VOID, [I64]), frozenset({"os"})),
    "carat_guard": (FunctionType(VOID, [PointerType(I8), I64]), frozenset({"os"})),
    "clock_set": (FunctionType(VOID, [I64]), frozenset({"os"})),
    # Misc
    "exit": (FunctionType(VOID, [I64]), frozenset({"io", "noreturn"})),
    # Parallel runtime (the NOELLE runtime linked by noelle-linker).
    # Dispatchers are variadic: (task fn ptr, env ptr, num_cores).
    "noelle_dispatch_doall": (FunctionType(VOID, [], vararg=True), frozenset({"parallel"})),
    "noelle_dispatch_helix": (FunctionType(VOID, [], vararg=True), frozenset({"parallel"})),
    "noelle_dispatch_dswp": (FunctionType(VOID, [], vararg=True), frozenset({"parallel"})),
    # DSWP inter-stage queues.
    "queue_push_i64": (FunctionType(VOID, [I64, I64]), frozenset({"parallel"})),
    "queue_pop_i64": (FunctionType(I64, [I64]), frozenset({"parallel"})),
    "queue_push_f64": (FunctionType(VOID, [I64, DOUBLE]), frozenset({"parallel"})),
    "queue_pop_f64": (FunctionType(DOUBLE, [I64]), frozenset({"parallel"})),
    # HELIX sequential-segment markers and iteration boundary.
    "helix_seq_begin": (FunctionType(VOID, [I64]), frozenset({"parallel"})),
    "helix_seq_end": (FunctionType(VOID, [I64]), frozenset({"parallel"})),
    "helix_iter_boundary": (FunctionType(VOID, []), frozenset({"parallel"})),
}

#: Intrinsics with no memory effects at all (safe for AA to ignore).
PURE_INTRINSICS = frozenset(
    name for name, (_, attrs) in INTRINSICS.items() if "pure" in attrs
)

#: The pseudo-random generator family PRVJeeves selects between.
PRVG_INTRINSICS = frozenset(
    name for name, (_, attrs) in INTRINSICS.items() if "prvg" in attrs
)

#: Allocators: return fresh memory disjoint from everything else.
ALLOCATOR_INTRINSICS = frozenset({"malloc"})

#: The parallel runtime: dispatchers, DSWP queues and HELIX markers.
PARALLEL_INTRINSICS = frozenset(
    name for name, (_, attrs) in INTRINSICS.items() if "parallel" in attrs
)
DISPATCH_PREFIX = "noelle_dispatch_"
#: The core-count knob parallelized code reads; the machine may set it.
NUM_CORES_GLOBAL = "noelle.num_cores"


def is_intrinsic(fn: Function) -> bool:
    return fn.is_declaration() and fn.name in INTRINSICS


def declare_intrinsic(module: Module, name: str) -> Function:
    """Get-or-create the declaration of a runtime intrinsic in ``module``."""
    if name not in INTRINSICS:
        raise KeyError(f"unknown intrinsic {name!r}")
    fnty, attrs = INTRINSICS[name]
    fn = module.declare_function(name, fnty)
    fn.attributes |= attrs
    return fn


def calls_parallel_runtime(inst) -> bool:
    callee = inst.called_function() if isinstance(inst, Call) else None
    return (callee is not None and callee.is_declaration()
            and callee.name in PARALLEL_INTRINSICS)


class ParallelConstruct(NamedTuple):
    """One dispatched parallel region."""

    kind: str        # "doall" | "helix" | "dswp"
    call: Call       # the noelle_dispatch_* call
    task: Function   # the task; DSWP's stage selector
    host: Function   # the function holding the dispatch
    stages: list     # DSWP: [(stage index, stage function)]


def find_parallel_constructs(module: Module) -> list[ParallelConstruct]:
    """Discover every dispatched parallel region in ``module``."""
    constructs = []
    for host in module.defined_functions():
        for inst in host.instructions():
            if not calls_parallel_runtime(inst):
                continue
            name = inst.called_function().name
            task = inst.args[0] if name.startswith(DISPATCH_PREFIX) else None
            if isinstance(task, Function) and not task.is_declaration():
                kind = name.removeprefix(DISPATCH_PREFIX)
                stages = _dswp_stages(task) if kind == "dswp" else []
                constructs.append(ParallelConstruct(kind, inst, task, host, stages))
    return constructs


def _dswp_stages(selector: Function) -> list[tuple[int, Function]]:
    """Each stage function, by the selector's switch case that calls it."""
    return [
        (const.value, call.called_function())
        for switch in selector.instructions() if isinstance(switch, Switch)
        for const, block in switch.cases()
        for call in block.instructions[:1] if isinstance(call, Call)
    ]


def generated_functions(module: Module) -> set[Function]:
    """Every construct's task, DSWP selector and stages: the functions a
    parallelizer generated, which no tool transforms again."""
    generated = set()
    for construct in find_parallel_constructs(module):
        generated.add(construct.task)
        generated.update(stage for _, stage in construct.stages)
    return generated


def is_generated_loop(instructions) -> bool:
    """True for a loop a parallelizer generated or filled with runtime
    calls: its body calls the parallel runtime, or it reads the core-count
    knob (the per-core loops that set up and combine reduction slots)."""
    for inst in instructions:
        if calls_parallel_runtime(inst):
            return True
        for value in inst.operands:
            value = value.pointer if isinstance(value, Load) else value
            if isinstance(value, GlobalVariable) and value.name == NUM_CORES_GLOBAL:
                return True
    return False
