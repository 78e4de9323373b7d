"""Interpreter state and the reference walker for the repro IR.

An :class:`Interpreter` executes whole modules, playing the role of
"running the binary" in the paper's evaluation: the profilers
(``noelle-prof-coverage``) run programs through it, and the simulated
multicore machine (:mod:`repro.runtime.machine`) executes parallelized
tasks with it while accounting cycles.  It holds the run's state —
memory, result, observers, intrinsics — and hands every defined
function to the compiled engine (:mod:`repro.interp.engine`); the
tree walk below runs only for ``engine="reference"``, the reference the
engine is tested against.

Design points:

* **Memory** is slot-addressable: every scalar occupies one slot, matching
  ``Type.size_in_slots``.  Addresses are plain integers, so pointer
  arithmetic (``elem_ptr``) is exact integer math.
* **Traps**: loads/stores to unallocated or freed memory raise
  :class:`MemoryTrap` — the failure mode CARAT's guards exist to catch.
* **Cycle accounting**: each instruction has a cost
  (:data:`INSTRUCTION_COSTS`); the interpreter sums them, which is the
  basis of every speedup measurement in the Figure 5 reproduction.
* **Determinism**: the ``rand*`` intrinsics are deterministic PRNGs seeded
  via ``srand``, so every experiment is reproducible.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque

from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    ElemPtr,
    FCmp,
    ICmp,
    INT_BINARY_OPS,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import ArrayType, IntType, StructType
from ..ir.values import (
    Argument,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
    eval_binary,
    eval_cast,
    eval_fcmp,
    eval_icmp,
)
from ..perf import STATS
from .semantics import (
    INT_TO_INT_CASTS,
    ExitProgram,
    InterpError,
    MemoryTrap,
    StepLimitExceeded,
    _FunctionAddress,
    _operand_trap,
)

#: Cycle costs per opcode — a simple in-order machine model.
INSTRUCTION_COSTS: dict[str, int] = {
    "add": 1,
    "sub": 1,
    "and": 1,
    "or": 1,
    "xor": 1,
    "shl": 1,
    "ashr": 1,
    "lshr": 1,
    "mul": 3,
    "sdiv": 20,
    "srem": 20,
    "fadd": 3,
    "fsub": 3,
    "fmul": 5,
    "fdiv": 20,
    "icmp": 1,
    "fcmp": 3,
    "alloca": 1,
    "load": 4,
    "store": 4,
    "elem_ptr": 1,
    "call": 10,
    "phi": 0,
    "select": 1,
    "br": 1,
    "cond_br": 1,
    "switch": 2,
    "ret": 1,
    "unreachable": 0,
    "trunc": 1,
    "zext": 1,
    "sext": 1,
    "bitcast": 0,
    "ptrtoint": 0,
    "inttoptr": 0,
    "sitofp": 2,
    "fptosi": 2,
}

#: Cycle costs of the runtime intrinsics (call overhead excluded).
INTRINSIC_COSTS: dict[str, int] = {
    "print_int": 50,
    "print_float": 50,
    "malloc": 60,
    "free": 30,
    "sqrt": 20,
    "exp": 40,
    "log": 40,
    "sin": 40,
    "cos": 40,
    "pow": 60,
    "fabs": 2,
    "floor": 2,
    # PRVG costs differ on purpose: selecting among them is PRVJeeves' job.
    "rand": 35,
    "rand_lcg": 8,
    "rand_xorshift": 12,
    "rand_mt": 45,
    "rand_pcg": 18,
    "srand": 5,
    "os_callback": 25,
    "os_time_hook": 15,
    "carat_guard": 6,
    "clock_set": 10,
    "exit": 1,
    # Parallel runtime: dispatch overhead is modeled by the machine, the
    # queue/signal primitives are cheap memory operations.
    "noelle_dispatch_doall": 0,
    "noelle_dispatch_helix": 0,
    "noelle_dispatch_dswp": 0,
    "queue_push_i64": 4,
    "queue_pop_i64": 4,
    "queue_push_f64": 4,
    "queue_pop_f64": 4,
    "helix_seq_begin": 1,
    "helix_seq_end": 1,
    "helix_iter_boundary": 0,
}


class Allocation:
    """One live memory region [base, base+size)."""

    __slots__ = ("base", "size", "alive", "kind")

    def __init__(self, base: int, size: int, kind: str):
        self.base = base
        self.size = size
        self.alive = True
        self.kind = kind  # "global" | "stack" | "heap"


class Memory:
    """Slot-addressable memory with allocation tracking."""

    def __init__(self) -> None:
        self.slots: dict[int, object] = {}
        self.allocations: list[Allocation] = []
        self._next = 16  # keep 0..15 unmapped so null dereferences trap
        self._by_base: dict[int, Allocation] = {}

    def allocate(self, size: int, kind: str) -> Allocation:
        size = max(size, 1)
        alloc = Allocation(self._next, size, kind)
        self._next += size + 1  # guard slot between allocations
        self.allocations.append(alloc)
        self._by_base[alloc.base] = alloc
        for offset in range(size):
            self.slots[alloc.base + offset] = 0
        return alloc

    def release(self, base: int) -> None:
        alloc = self._by_base.get(base)
        if alloc is None or not alloc.alive:
            raise MemoryTrap(f"invalid free of address {base}")
        alloc.alive = False
        for offset in range(alloc.size):
            self.slots.pop(alloc.base + offset, None)

    def find_allocation(self, address: int) -> Allocation | None:
        for alloc in self.allocations:
            if alloc.alive and alloc.base <= address < alloc.base + alloc.size:
                return alloc
        return None

    def is_valid(self, address: int, size: int = 1) -> bool:
        alloc = self.find_allocation(address)
        return alloc is not None and address + size <= alloc.base + alloc.size

    def read(self, address: int) -> object:
        if address not in self.slots:
            raise MemoryTrap(f"load from invalid address {address}")
        return self.slots[address]

    def write(self, address: int, value: object) -> None:
        if address not in self.slots:
            raise MemoryTrap(f"store to invalid address {address}")
        self.slots[address] = value


class _DeterministicPRNG:
    """The family of pseudo-random generators PRVJeeves selects between.

    Each generator has distinct statistical quality and cost; all are
    deterministic for reproducibility.
    """

    def __init__(self, seed: int = 12345):
        self.state = seed & 0xFFFFFFFFFFFFFFFF or 0x9E3779B9

    def seed(self, value: int) -> None:
        self.state = value & 0xFFFFFFFFFFFFFFFF or 0x9E3779B9

    def lcg(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 33) & 0x7FFFFFFF

    def xorshift(self) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self.state = x
        return x & 0x7FFFFFFF

    def mt_like(self) -> int:
        # A tempered variant standing in for the Mersenne twister.
        self.state = (self.state * 2862933555777941757 + 3037000493) % (1 << 64)
        y = self.state >> 29
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        return y & 0x7FFFFFFF

    def pcg(self) -> int:
        old = self.state
        self.state = (old * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        xorshifted = ((old >> 18) ^ old) >> 27
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0x7FFFFFFF


class _Totals(dict):
    """``BlockProfile.totals``: an edge table not seen yet reads as
    zeroed totals, one per counter."""

    def __missing__(self, table: tuple) -> list[int]:
        totals = self[table] = [0] * len(table)
        return totals


class BlockProfile:
    """One profiled run's counters: the walker bumps ``edges`` per
    block; a compiled frame, when it exits, adds its local edge counters
    into its function's ``totals``, which :meth:`fold` adds into
    ``edges`` once, when the run ends.

    ``edges[src][dst]`` is how often block ``dst`` was entered from
    ``src`` (None: function entry) — the only thing counted per block;
    an instruction ran as often as its block.  The partial-frame rule
    keeps that exact: every frame a memory trap or ``exit()`` unwinds
    through mid-block appends ``(block, leading instructions
    accounted)`` to ``partial``, innermost first.  ``indirect[fn]`` is
    how often ``fn`` was called through a pointer: the one call count a
    declaration, which has no blocks, cannot get from its call sites.
    """

    def __init__(self) -> None:
        self.edges = defaultdict(lambda: defaultdict(int))
        self.partial: list[tuple[BasicBlock, int]] = []
        self.indirect: dict[Function, int] = defaultdict(int)
        #: A compiled function's edge table (an
        #: :class:`~repro.interp.engine.EdgeTable`) -> the sum of each
        #: of its counters over its frames that exited since the last
        #: fold; zeroed at the first such exit.
        self.totals: dict[tuple, list[int]] = _Totals()

    def fold(self) -> None:
        """Add ``totals`` into ``edges`` and empty it."""
        edges = self.edges
        for table, totals in self.totals.items():
            for (src, dst), taken in zip(table, totals):
                if taken:
                    edges[src][dst] += taken
        self.totals.clear()


class ParallelExecution:
    """The raw facts of one parallel region, as it ran: every unit in
    order on one simulated core.  A unit is a DOALL core's or a DSWP
    stage's call of the task; HELIX runs every iteration in one call and
    marks the iterations and sequential segments inside it.
    :func:`repro.runtime.schedule` prices a record on an architecture."""

    __slots__ = (
        "kind", "task", "num_cores", "unit_cycles", "queued",
        "iteration_cycles", "segment_cycles", "open_segments",
        "iteration_start",
    )

    def __init__(self, kind: str, task: Function | None, num_cores: int):
        self.kind = kind  # "doall" | "dswp" | "helix"
        self.task = task
        #: The cores it was given; DSWP: its stages.
        self.num_cores = num_cores
        #: Cycles of each unit.
        self.unit_cycles: list[int] = []
        #: Values each unit pushed on a queue (what a DSWP stage forwards).
        self.queued: list[int] = []
        #: HELIX: the cycles of each iteration, and for each iteration the
        #: cycles inside each sequential segment (segment id -> cycles).
        #: While the region runs the last dict is the open iteration's.
        self.iteration_cycles: list[int] = []
        self.segment_cycles: list[dict[int, int]] = [{}]
        #: While the region runs: (segment id, cycles) of each begun and
        #: not yet ended segment, and the cycles the iteration began at.
        self.open_segments: list[tuple[int, int]] = []
        self.iteration_start = 0

    @property
    def sequential_cycles(self) -> int:
        """The region's work: its units' cycles back to back."""
        return sum(self.unit_cycles)

    @property
    def unit(self) -> int:
        """The unit running now: the core or stage index, or HELIX's
        iteration index."""
        if self.kind == "helix":
            return len(self.iteration_cycles)
        return len(self.unit_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.kind} x{self.num_cores}: {self.sequential_cycles} cycles "
            f"in {len(self.unit_cycles)} unit(s)>"
        )


class ExecutionResult:
    """Everything observable from one program run."""

    def __init__(self) -> None:
        self.return_value: object = None
        self.output: list[object] = []
        self.cycles: int = 0
        self.steps: int = 0
        self.trapped: str | None = None
        #: What cut the run short, when ``trapped`` is set: "MemoryTrap",
        #: "StackOverflow" (calls nested deeper than the host's stack), or
        #: "InterpError" (any other runtime error: a division by zero, an
        #: executed ``unreachable``) and "StepLimitExceeded" where a
        #: caller reports them in-band (:func:`repro.tools.pipeline.execute`).
        self.trap_kind: str | None = None
        #: CARAT statistics: guards executed.
        self.guard_count: int = 0
        #: COOS statistics: OS callbacks executed, and the cycle times at
        #: which they fired (for timing-accuracy analysis).
        self.callback_count: int = 0
        self.callback_cycles: list[int] = []
        #: TIME statistics: clock changes executed.
        self.clock_changes: list[int] = []
        #: One :class:`ParallelExecution` per parallel region, in the
        #: order the regions closed, under every executor.
        self.parallel_executions: list[ParallelExecution] = []


#: Process-wide cap applied to every new interpreter's step limit, so
#: that any interpreter a caller's code spins up (profilers, remedy
#: validators) is budgeted and fails with the ordinary
#: :class:`StepLimitExceeded`.
_STEP_BUDGET: int | None = None


def set_step_budget(limit: int | None) -> int | None:
    """Install a step cap for newly created interpreters; returns the
    previous cap so callers can restore it."""
    global _STEP_BUDGET
    previous = _STEP_BUDGET
    _STEP_BUDGET = limit
    return previous


class Interpreter:
    """Executes one module."""

    #: name -> (cycle cost, ``handler(st, args)``) of every runtime
    #: intrinsic, for every interpreter class; filled in below the class.
    INTRINSICS: dict[str, tuple]

    def __init__(
        self,
        module: Module,
        step_limit: int = 50_000_000,
        engine: str | None = None,
    ):
        self.module = module
        self.step_limit = step_limit
        if _STEP_BUDGET is not None and _STEP_BUDGET < self.step_limit:
            self.step_limit = _STEP_BUDGET
        self.costs = INSTRUCTION_COSTS
        self.memory = Memory()
        self.globals: dict[int, int] = {}  # id(GlobalVariable) -> base address
        self.prng = _DeterministicPRNG()
        self.result = ExecutionResult()
        #: Optional :class:`BlockProfile` the executors count into (the
        #: profiler's mode; runs at full speed on either executor).
        self.block_profile: BlockProfile | None = None
        #: Blocks compiled frames ran in this run so far; added to
        #: ``engine.blocks_compiled`` once, when :meth:`run` ends.
        self.blocks_compiled = 0
        #: Current simulated clock period (TIME squeezer experiments).
        self.clock_period = 10
        #: Accumulated energy-ish metric: cycles * clock period.
        self.weighted_cycles = 0
        self._queues: dict[int, object] = {}
        #: The innermost parallel region running now, or None.
        self.region: ParallelExecution | None = None
        #: The compiled execution engine routing this interpreter's
        #: defined-function calls, or None for the reference walker
        #: (``engine="reference"``; None and "compiled" compile).
        from .engine import engine_for, engine_mode

        self.engine = (
            engine_for(module) if engine_mode(engine) == "compiled" else None
        )
        self._memory_observer = self._edge_observer = None
        self._route()
        self._init_globals()

    # -- observers --------------------------------------------------------------
    #
    # Setting an observer picks, once, the engine's code that calls it;
    # a call pays for no test of whether anyone observes.

    @property
    def memory_observer(self):
        """Optional ``observer(kind, address, instruction)``, kind
        "load"/"store", called after the address checks and before the
        access (so also for the access that traps), for the dynamic
        oracles.  The accounting on ``result`` is not current inside it."""
        return self._memory_observer

    @memory_observer.setter
    def memory_observer(self, observer) -> None:
        self._memory_observer = observer
        self._route()

    @property
    def edge_observer(self):
        """Optional ``observer(from_block, to_block)``, called for every
        CFG edge taken, before the target's phis are read."""
        return self._edge_observer

    @edge_observer.setter
    def edge_observer(self, observer) -> None:
        self._edge_observer = observer
        self._route()

    def _route(self) -> None:
        engine = self.engine
        if engine is None:
            self._run_compiled = None
        elif self._memory_observer is None and self._edge_observer is None:
            self._run_compiled = engine.call
        else:
            self._run_compiled = engine.call_observed

    # -- setup ------------------------------------------------------------------
    def _init_globals(self) -> None:
        for gv in self.module.globals.values():
            size = gv.allocated_type.size_in_slots()
            alloc = self.memory.allocate(size, "global")
            self.globals[id(gv)] = alloc.base
            self._write_initializer(alloc.base, gv.allocated_type, gv.initializer)

    def _write_initializer(self, base: int, ty, init) -> None:
        if init is None:
            return
        if isinstance(init, ConstantInt):
            self.memory.write(base, init.value)
        elif isinstance(init, ConstantFloat):
            self.memory.write(base, init.value)
        elif isinstance(init, ConstantNull):
            self.memory.write(base, 0)
        elif isinstance(init, ConstantString):
            for offset, char in enumerate(init.text):
                self.memory.write(base + offset, ord(char))
        elif isinstance(init, ConstantArray):
            assert isinstance(ty, ArrayType)
            stride = ty.element.size_in_slots()
            for index, element in enumerate(init.elements):
                self._write_initializer(base + index * stride, ty.element, element)
        elif isinstance(init, (GlobalVariable, Function)):
            self.memory.write(base, self._value_of_constant(init))
        else:
            raise InterpError(f"unsupported initializer {init!r}")

    # -- running ----------------------------------------------------------------
    def run(self, function_name: str = "main", args: list[object] | None = None):
        """Execute ``function_name`` and return the populated result."""
        fn = self.module.get_function(function_name)
        try:
            self.result.return_value = self.call_function(fn, args or [])
        except ExitProgram as exit_program:
            self.result.return_value = exit_program.code
        except MemoryTrap as trap:
            self.result.trapped = str(trap)
            self.result.trap_kind = type(trap).__name__
        except RecursionError:
            # The program's calls nested deeper than the host's stack:
            # its fault, like a memory trap, and reported as one.
            self.result.trapped = "call stack exhausted: calls nested too deep"
            self.result.trap_kind = "StackOverflow"
        finally:
            if self.blocks_compiled:
                STATS.count("engine.blocks_compiled", self.blocks_compiled)
                self.blocks_compiled = 0
            if self.block_profile is not None:
                self.block_profile.fold()
        return self.result

    # -- parallel regions -------------------------------------------------------
    def _resolve_cores(self, requested: int) -> int:
        """The cores a DOALL or HELIX dispatch asking for ``requested`` gets."""
        return requested

    def _close_region(self, region: ParallelExecution) -> None:
        """``region`` ran to its end; its record joins the result."""
        self.result.parallel_executions.append(region)

    def call_function(self, fn: Function, args: list[object]) -> object:
        if fn.is_declaration():
            return self._call_intrinsic(fn, args)
        run_compiled = self._run_compiled
        if run_compiled is not None:
            return run_compiled(self, fn, args)
        frame: dict[int, object] = {}
        for formal, actual in zip(fn.args, args):
            frame[id(formal)] = actual
        frame_allocs: list[Allocation] = []
        try:
            return self._run_body(fn, frame, frame_allocs)
        finally:
            for alloc in frame_allocs:
                if alloc.alive:
                    self.memory.release(alloc.base)

    def _run_body(
        self, fn: Function, frame: dict[int, object], frame_allocs: list[Allocation]
    ) -> object:
        block = fn.entry
        prev_block: BasicBlock | None = None
        executed_blocks = 0
        profile = self.block_profile
        try:
            while True:
                executed_blocks += 1
                if profile is not None:
                    profile.edges[prev_block][block] += 1
                next_block: BasicBlock | None = None
                # Evaluate phis atomically against the incoming edge.
                phi_values: list[tuple[Phi, object]] = []
                for inst in block.instructions:
                    if isinstance(inst, Phi):
                        assert prev_block is not None, "phi in entry block"
                        incoming = inst.incoming_value_for(prev_block)
                        phi_values.append((inst, self._value(incoming, frame)))
                    else:
                        break
                for phi, value in phi_values:
                    frame[id(phi)] = value
                    self._account(phi)
                for inst in block.instructions[len(phi_values) :]:
                    self._account(inst)
                    outcome = self._execute(inst, frame, frame_allocs)
                    if isinstance(outcome, _Return):
                        return outcome.value
                    if isinstance(outcome, BasicBlock):
                        next_block = outcome
                        break
                assert next_block is not None, f"block %{block.name} fell through"
                if self._edge_observer is not None:
                    self._edge_observer(block, next_block)
                prev_block, block = block, next_block
        except (MemoryTrap, ExitProgram):
            if profile is not None:  # both start in ``_execute(inst)``
                accounted = block.instructions.index(inst) + 1
                profile.partial.append((block, accounted))
            raise
        finally:
            STATS.count("engine.blocks_reference", executed_blocks)

    def _account(self, inst: Instruction) -> None:
        self.result.steps += 1
        if self.result.steps > self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")
        cost = self.costs.get(inst.opcode, 1)
        self.result.cycles += cost
        self.weighted_cycles += cost * self.clock_period

    # -- evaluation -----------------------------------------------------------
    def _value(self, value: Value, frame: dict[int, object]) -> object:
        if isinstance(value, Instruction) or isinstance(value, Argument):
            if id(value) not in frame:
                raise InterpError(f"use of unset value {value.ref()}")
            return frame[id(value)]
        return self._value_of_constant(value)

    def _value_of_constant(self, value: Value) -> object:
        if isinstance(value, ConstantInt):
            return value.value
        if isinstance(value, ConstantFloat):
            return value.value
        if isinstance(value, ConstantNull):
            return 0
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, GlobalVariable):
            return self.globals[id(value)]
        if isinstance(value, Function):
            return _FunctionAddress(value)
        raise InterpError(f"cannot evaluate {value!r}")

    def _execute(self, inst: Instruction, frame: dict[int, object], frame_allocs):
        if isinstance(inst, BinaryOp):
            frame[id(inst)] = self._binary(inst, frame)
        elif isinstance(inst, ICmp):
            frame[id(inst)] = self._icmp(inst, frame)
        elif isinstance(inst, FCmp):
            frame[id(inst)] = self._fcmp(inst, frame)
        elif isinstance(inst, Alloca):
            alloc = self.memory.allocate(inst.allocated_type.size_in_slots(), "stack")
            frame_allocs.append(alloc)
            frame[id(inst)] = alloc.base
        elif isinstance(inst, Load):
            address = self._as_address(self._value(inst.pointer, frame))
            if self._memory_observer is not None:
                self._memory_observer("load", address, inst)
            frame[id(inst)] = self.memory.read(address)
        elif isinstance(inst, Store):
            address = self._as_address(self._value(inst.pointer, frame))
            if self._memory_observer is not None:
                self._memory_observer("store", address, inst)
            self.memory.write(address, self._value(inst.value, frame))
        elif isinstance(inst, ElemPtr):
            frame[id(inst)] = self._elem_ptr(inst, frame)
        elif isinstance(inst, Call):
            value = self._call(inst, frame)
            if not inst.type.is_void():
                frame[id(inst)] = value
        elif isinstance(inst, Select):
            cond = self._value(inst.condition, frame)
            chosen = inst.true_value if cond else inst.false_value
            frame[id(inst)] = self._value(chosen, frame)
        elif isinstance(inst, Cast):
            frame[id(inst)] = self._cast(inst, frame)
        elif isinstance(inst, Branch):
            return inst.target
        elif isinstance(inst, CondBranch):
            cond = self._value(inst.condition, frame)
            return inst.true_block if cond else inst.false_block
        elif isinstance(inst, Switch):
            selector = self._value(inst.value, frame)
            for const, target in inst.cases():
                if const.value == selector:
                    return target
            return inst.default
        elif isinstance(inst, Ret):
            value = self._value(inst.value, frame) if inst.value is not None else None
            return _Return(value)
        elif isinstance(inst, Unreachable):
            raise InterpError("executed unreachable")
        else:
            raise InterpError(f"cannot execute {inst!r}")
        return None

    def _binary(self, inst: BinaryOp, frame) -> object:
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        try:
            return eval_binary(inst.opcode, a, b, inst.type)
        except (ZeroDivisionError, NotImplementedError) as error:
            raise InterpError(str(error)) from None
        except TypeError:
            if inst.opcode not in INT_BINARY_OPS:
                raise
            raise _operand_trap(inst) from None

    def _icmp(self, inst: ICmp, frame) -> int:
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        if isinstance(a, _FunctionAddress) or isinstance(b, _FunctionAddress):
            a_key = a.fn.name if isinstance(a, _FunctionAddress) else a
            b_key = b.fn.name if isinstance(b, _FunctionAddress) else b
            if inst.predicate == "eq":
                return int(a_key == b_key)
            if inst.predicate == "ne":
                return int(a_key != b_key)
            raise InterpError("ordered comparison of function pointers")
        width = inst.lhs.type.width if isinstance(inst.lhs.type, IntType) else 64
        try:
            return eval_icmp(inst.predicate, a, b, width)
        except TypeError:
            raise _operand_trap(inst) from None

    def _fcmp(self, inst: FCmp, frame) -> int:
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        return eval_fcmp(inst.predicate, a, b)

    def _elem_ptr(self, inst: ElemPtr, frame) -> int:
        address = self._as_address(self._value(inst.base, frame))
        pointee = inst.base.type.pointee
        indices = inst.indices
        first = self._value(indices[0], frame)
        address += first * pointee.size_in_slots()
        current = pointee
        for index_value in indices[1:]:
            if isinstance(current, ArrayType):
                index = self._value(index_value, frame)
                address += index * current.element.size_in_slots()
                current = current.element
            elif isinstance(current, StructType):
                index = self._value(index_value, frame)
                address += current.field_offset(index)
                current = current.fields[index]
            else:
                raise InterpError(f"bad elem_ptr into {current}")
        return address

    def _cast(self, inst: Cast, frame) -> object:
        value = self._value(inst.value, frame)
        try:
            return eval_cast(inst.opcode, value, inst.value.type, inst.type)
        except NotImplementedError as error:
            raise InterpError(str(error)) from None
        except TypeError:
            if inst.opcode not in INT_TO_INT_CASTS:
                raise
            raise _operand_trap(inst) from None

    def _as_address(self, value: object) -> int:
        if isinstance(value, _FunctionAddress):
            raise MemoryTrap("dereference of a function pointer")
        if not isinstance(value, int):
            raise MemoryTrap(f"non-integer address {value!r}")
        return value

    # -- calls -----------------------------------------------------------------
    def _call(self, inst: Call, frame) -> object:
        callee = inst.called_function()
        indirect = callee is None
        if indirect:
            target = self._value(inst.callee, frame)
            if not isinstance(target, _FunctionAddress):
                raise MemoryTrap(f"indirect call to non-function {target!r}")
            callee = target.fn
        args = [self._value(a, frame) for a in inst.args]
        if indirect and self.block_profile is not None:
            self.block_profile.indirect[callee] += 1
        return self.call_function(callee, args)

    def _call_intrinsic(self, fn: Function, args: list[object]) -> object:
        entry = self.INTRINSICS.get(fn.name)
        cost = entry[0] if entry is not None else 20
        self.result.cycles += cost
        self.weighted_cycles += cost * self.clock_period
        if entry is None:
            raise InterpError(f"call to unknown external @{fn.name}")
        return entry[1](self, args)


def _os_callback(st, args):
    st.result.callback_count += 1
    st.result.callback_cycles.append(st.result.cycles)


def _carat_guard(st, args):
    st.result.guard_count += 1
    address, size = int(args[0]), int(args[1])
    if not st.memory.is_valid(address, max(size, 1)):
        raise MemoryTrap(f"CARAT guard caught invalid access at {address}")


def _clock_set(st, args):
    st.clock_period = int(args[0])
    st.result.clock_changes.append(st.clock_period)


def _exit(st, args):
    raise ExitProgram(int(args[0]))


def _dispatched_task(args) -> Function:
    """The task function a dispatch intrinsic was handed."""
    if not isinstance(args[0], _FunctionAddress):
        raise MemoryTrap("dispatch of a non-function")
    return args[0].fn


def _run_region(st, kind, task, env, num_cores, units):
    """Run ``task(env, u, units)`` for each unit ``u`` in order, as one
    parallel region, and record its raw facts."""
    region = ParallelExecution(kind, task, num_cores)
    outer, st.region = st.region, region
    result = st.result
    try:
        for unit in range(units):
            start = region.iteration_start = result.cycles
            region.queued.append(0)
            st.call_function(task, [env, unit, units])
            region.unit_cycles.append(result.cycles - start)
    finally:
        st.region = outer
    # The cycles after the last iteration boundary are no iteration's.
    del region.segment_cycles[len(region.iteration_cycles):]
    st._close_region(region)


def _dispatch_doall(st, args):
    task = _dispatched_task(args)
    cores = st._resolve_cores(int(args[2]))
    _run_region(st, "doall", task, args[1], cores, cores)


def _dispatch_dswp(st, args):
    task = _dispatched_task(args)
    stages = int(args[2])
    _run_region(st, "dswp", task, args[1], stages, stages)


def _dispatch_helix(st, args):
    # HELIX's sequential reference semantics: one core runs every
    # iteration in order; the schedule spreads them over the cores.
    task = _dispatched_task(args)
    _run_region(st, "helix", task, args[1], st._resolve_cores(int(args[2])), 1)


#: The end marker's call, charged before its handler reads the clock: a
#: segment's cycles exclude it (the begin marker's precede the reading).
_SEGMENT_MARKER_CYCLES = INSTRUCTION_COSTS["call"] + INTRINSIC_COSTS["helix_seq_end"]


def _helix_seq_begin(st, args):
    region = st.region
    if region is not None:
        region.open_segments.append((int(args[0]), st.result.cycles))


def _helix_seq_end(st, args):
    region = st.region
    if region is not None and region.open_segments:
        seg_id, start = region.open_segments.pop()
        span = max(0, st.result.cycles - start - _SEGMENT_MARKER_CYCLES)
        segments = region.segment_cycles[-1]
        segments[seg_id] = segments.get(seg_id, 0) + span


def _helix_iter_boundary(st, args):
    region = st.region
    if region is not None:
        region.iteration_cycles.append(st.result.cycles - region.iteration_start)
        region.iteration_start = st.result.cycles
        region.segment_cycles.append({})


def _queue_push(st, args):
    queue = st._queues.get(int(args[0]))
    if queue is None:
        queue = st._queues[int(args[0])] = deque()
    queue.append(args[1])
    region = st.region
    if region is not None:
        region.queued[-1] += 1


def _queue_pop(st, args):
    queue = st._queues.get(int(args[0]))
    if not queue:
        raise InterpError(f"pop from empty queue {args[0]}")
    return queue.popleft()


#: Every interpreter class runs the parallel runtime the same way:
#: dispatchers run each unit's task back to back and record the region
#: (:func:`_run_region`), queues are unbounded in-memory deques, and the
#: HELIX markers record iterations and segments on the open region.  The
#: simulated multicore machine (:class:`repro.runtime.machine.ParallelMachine`)
#: prices each region when it closes.
_HANDLERS = {
    "print_int": lambda st, a: st.result.output.append(int(a[0])),
    "print_float": lambda st, a: st.result.output.append(float(a[0])),
    "malloc": lambda st, a: st.memory.allocate(int(a[0]), "heap").base,
    "free": lambda st, a: st.memory.release(int(a[0])),
    "sqrt": lambda st, a: math.sqrt(a[0]) if a[0] >= 0 else float("nan"),
    "exp": lambda st, a: math.exp(min(a[0], 700.0)),
    "log": lambda st, a: math.log(a[0]) if a[0] > 0 else float("-inf"),
    "sin": lambda st, a: math.sin(a[0]),
    "cos": lambda st, a: math.cos(a[0]),
    "pow": lambda st, a: float(a[0]) ** float(a[1]),
    "fabs": lambda st, a: abs(a[0]),
    "floor": lambda st, a: math.floor(a[0]),
    "rand": lambda st, a: st.prng.mt_like(),  # libc default stands in
    "rand_lcg": lambda st, a: st.prng.lcg(),
    "rand_xorshift": lambda st, a: st.prng.xorshift(),
    "rand_mt": lambda st, a: st.prng.mt_like(),
    "rand_pcg": lambda st, a: st.prng.pcg(),
    "srand": lambda st, a: st.prng.seed(int(a[0])),
    "os_callback": _os_callback,
    "os_time_hook": _os_callback,
    "carat_guard": _carat_guard,
    "clock_set": _clock_set,
    "exit": _exit,
    "noelle_dispatch_doall": _dispatch_doall,
    "noelle_dispatch_dswp": _dispatch_dswp,
    "noelle_dispatch_helix": _dispatch_helix,
    "queue_push_i64": _queue_push,
    "queue_push_f64": _queue_push,
    "queue_pop_i64": _queue_pop,
    "queue_pop_f64": _queue_pop,
    "helix_seq_begin": _helix_seq_begin,
    "helix_seq_end": _helix_seq_end,
    "helix_iter_boundary": _helix_iter_boundary,
}
Interpreter.INTRINSICS = {
    name: (INTRINSIC_COSTS[name], handler) for name, handler in _HANDLERS.items()
}


class _Return:
    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


def run_module(
    module: Module,
    function_name: str = "main",
    args: list[object] | None = None,
    step_limit: int = 50_000_000,
    engine: str | None = None,
) -> ExecutionResult:
    """One-shot convenience: interpret ``function_name`` in a fresh state."""
    return Interpreter(module, step_limit=step_limit, engine=engine).run(
        function_name, args
    )
