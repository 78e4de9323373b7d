"""Reference interpreter for the repro IR.

Executes whole modules, playing the role of "running the binary" in the
paper's evaluation: the profilers (``noelle-prof-coverage``) run programs
under this interpreter, and the simulated multicore machine
(:mod:`repro.runtime.machine`) executes parallelized tasks with it while
accounting cycles.

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


class InterpError(Exception):
    """Base class for runtime failures."""


class MemoryTrap(InterpError):
    """An access to unallocated or freed memory."""


class StepLimitExceeded(InterpError):
    """The configured execution budget ran out."""


class ExitProgram(Exception):
    """Raised internally by the ``exit`` intrinsic."""

    def __init__(self, code: int):
        self.code = code


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


class BlockProfile:
    """One profiled run's counters: the walker bumps them per block, a
    compiled frame folds its local edge counters in when it exits.

    ``edges[src][dst]`` is how often block ``dst`` was entered from
    ``src`` (None: function entry) — the only thing counted per block;
    an instruction ran as often as its block.  The partial-frame rule
    keeps that exact: every frame a memory trap or ``exit()`` unwinds
    through mid-block appends ``(block, leading instructions
    accounted)`` to ``partial``, innermost first.
    """

    def __init__(self) -> None:
        self.edges = defaultdict(lambda: defaultdict(int))
        self.partial: list[tuple[BasicBlock, int]] = []


class ExecutionResult:
    """Everything observable from one program run."""

    def __init__(self) -> None:
        self.return_value: object = None
        self.output: list[object] = []
        self.cycles: int = 0
        self.steps: int = 0
        self.trapped: str | None = None
        #: What cut the run short, when ``trapped`` is set: "MemoryTrap",
        #: or "StepLimitExceeded" where a caller reports a budget kill
        #: in-band (:func:`repro.tools.pipeline.execute`).
        self.trap_kind: str | None = None
        #: CARAT statistics: guards executed.
        self.guard_count: int = 0
        #: COOS statistics: OS callbacks executed, and the cycle times at
        #: which they fired (for timing-accuracy analysis).
        self.callback_count: int = 0
        self.callback_cycles: list[int] = []
        #: TIME statistics: clock changes executed.
        self.clock_changes: list[int] = []
        #: Parallel-region timing breakdowns (populated by the simulated
        #: machine / noelle-bin; empty under the plain interpreter).
        self.parallel_executions: list = []


#: Process-wide cap applied to every new interpreter's step limit.  The
#: transactional pass manager sets this around a pass so any interpreter
#: the pass spins up (profilers, remedy validators) is budgeted and fails
#: with the ordinary :class:`StepLimitExceeded` the manager rolls back on.
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
    #: intrinsic; filled in below the class (:func:`intrinsic_table`).
    INTRINSICS: dict[str, tuple] = {}

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
        #: Optional call observer(function) for profilers.
        self.call_observer = None
        #: Optional CFG-edge observer(from_block, to_block) and memory
        #: observer(kind, address, instruction) with kind "load"/"store",
        #: for the dynamic oracles.  Setting either forces the reference
        #: walker (the compiled engine calls back into neither).
        self.edge_observer = None
        self.memory_observer = None
        #: Current simulated clock period (TIME squeezer experiments).
        self.clock_period = 10
        #: Accumulated energy-ish metric: cycles * clock period.
        self.weighted_cycles = 0
        self._queues: dict[int, object] = {}
        #: The compiled execution engine routing this interpreter's
        #: defined-function calls, or None for the reference walker.
        #: Resolution order: explicit ``engine=`` argument, then the
        #: NOELLE_ENGINE environment variable, then "compiled".
        from .engine import engine_for, engine_mode

        self.engine = (
            engine_for(module) if engine_mode(engine) == "compiled" else None
        )
        self._init_globals()

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
            self.result.trap_kind = "MemoryTrap"
        return self.result

    def call_function(self, fn: Function, args: list[object]) -> object:
        if self.call_observer is not None:
            self.call_observer(fn)
        if fn.is_declaration():
            return self._call_intrinsic(fn, args)
        if (
            self.engine is not None
            and self.memory_observer is None
            and self.edge_observer is None
        ):
            return self.engine.call(self, fn, args)
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
                if self.edge_observer is not None:
                    self.edge_observer(block, next_block)
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
            if self.memory_observer is not None:
                self.memory_observer("load", address, inst)
            frame[id(inst)] = self.memory.read(address)
        elif isinstance(inst, Store):
            address = self._as_address(self._value(inst.pointer, frame))
            if self.memory_observer is not None:
                self.memory_observer("store", address, inst)
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
        return eval_icmp(inst.predicate, a, b, width)

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

    def _as_address(self, value: object) -> int:
        if isinstance(value, _FunctionAddress):
            raise MemoryTrap("dereference of a function pointer")
        if not isinstance(value, int):
            raise MemoryTrap(f"non-integer address {value!r}")
        return value

    # -- calls -----------------------------------------------------------------
    def _call(self, inst: Call, frame) -> object:
        callee = inst.called_function()
        if callee is None:
            target = self._value(inst.callee, frame)
            if not isinstance(target, _FunctionAddress):
                raise MemoryTrap(f"indirect call to non-function {target!r}")
            callee = target.fn
        args = [self._value(a, frame) for a in inst.args]
        return self.call_function(callee, args)

    def _call_intrinsic(self, fn: Function, args: list[object]) -> object:
        entry = self.INTRINSICS.get(fn.name)
        cost = entry[0] if entry is not None else 20
        self.result.cycles += cost
        self.weighted_cycles += cost * self.clock_period
        if entry is None:
            raise InterpError(f"call to unknown external @{fn.name}")
        return entry[1](self, args)


def intrinsic_table(base: dict, handlers: dict) -> dict:
    """``base`` with ``handlers`` (name -> ``handler(st, args)``) laid
    over it, each paired with its :data:`INTRINSIC_COSTS` entry — the
    one lookup ``Interpreter._call_intrinsic`` does per call.  Built
    once per class: a subclass overrides entries, not a method."""
    table = dict(base)
    for name, handler in handlers.items():
        table[name] = (INTRINSIC_COSTS[name], handler)
    return table


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


def dispatched_task(args) -> Function:
    """The task function a dispatch intrinsic was handed."""
    if not isinstance(args[0], _FunctionAddress):
        raise MemoryTrap("dispatch of a non-function")
    return args[0].fn


def _dispatch_every_core(st, args):
    task, env_address, num_cores = dispatched_task(args), args[1], int(args[2])
    for core in range(num_cores):
        st.call_function(task, [env_address, core, num_cores])


def _dispatch_one_core(st, args):
    # HELIX's sequential reference semantics: one core runs every
    # iteration in order.
    st.call_function(dispatched_task(args), [args[1], 0, 1])


def _queue_push(st, args):
    queue = st._queues.get(int(args[0]))
    if queue is None:
        queue = st._queues[int(args[0])] = deque()
    queue.append(args[1])


def _queue_pop(st, args):
    queue = st._queues.get(int(args[0]))
    if not queue:
        raise InterpError(f"pop from empty queue {args[0]}")
    return queue.popleft()


def _no_op(st, args):
    return None


#: The base interpreter gives the parallel runtime *sequential*
#: semantics: dispatchers run every core's task back to back, queues are
#: unbounded in-memory deques, and HELIX markers are no-ops.  The
#: simulated multicore machine
#: (:class:`repro.runtime.machine.ParallelMachine`) overrides those
#: entries to account per-core cycles and model the parallel schedule.
Interpreter.INTRINSICS = intrinsic_table({}, {
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
    "noelle_dispatch_doall": _dispatch_every_core,
    "noelle_dispatch_dswp": _dispatch_every_core,
    "noelle_dispatch_helix": _dispatch_one_core,
    "queue_push_i64": _queue_push,
    "queue_push_f64": _queue_push,
    "queue_pop_i64": _queue_pop,
    "queue_pop_f64": _queue_pop,
    "helix_seq_begin": _no_op,
    "helix_seq_end": _no_op,
    "helix_iter_boundary": _no_op,
})


class _Return:
    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


class _FunctionAddress:
    """Runtime representation of a function pointer."""

    __slots__ = ("fn",)

    def __init__(self, fn: Function):
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<&@{self.fn.name}>"


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
