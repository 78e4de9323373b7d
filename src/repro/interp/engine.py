"""Compiled execution engine: one generated Python function per IR function.

The reference interpreter (:mod:`repro.interp.interp`) re-resolves every
operand, re-dispatches on instruction class, and re-reads the cost table
on every step.  This module removes all of that from the hot path by
*compiling* each :class:`~repro.ir.module.Function` once, on its first
call, to one Python function ``_fn(st, *args)``:

* **registers are locals** — every SSA value is a Python local
  (``x<n>``), the IR arguments are the parameters, constants are folded
  into the source as literals.
* **control flow is inline** — the body is ``while True:`` over a local
  block index ``b``, dispatched through a *binary* ``if b < mid`` tree
  (depth log2 of the block count, so neither CPython's nesting limit nor
  its recursive compiler bounds the size of a function); a terminator
  assigns ``b``.  A block's phis are one tuple assignment on the CFG
  edge that enters it (all sources are read before any destination is
  written, so phi cycles stay atomic).
* **accounting lives in two locals** — ``room`` mirrors ``step_limit -
  result.steps`` and ``dc`` holds the cycles charged since the last
  *sync*.  A *charge unit* (a run of instructions that a call or the
  terminator ends, absorbing the block's phis when it is the first)
  charges its pre-summed cost in one subtraction and one addition.  The
  locals are written back to ``st.result`` before every call (intrinsics
  observe ``result.cycles`` — ``os_callback``, the HELIX markers — and
  ``clock_set`` changes the period), at ``ret``, and before every
  ``raise``: each raise site first syncs minus the not-yet-executed
  remainder of its unit (compile-time constants, one cold ``_sync``
  call), so a trapping run reports byte-identical ``steps``/``cycles``
  to the reference walker.
* **exact step budgets** — the one unit that does not fit under
  ``step_limit`` undoes nothing and executes nothing: it hands its
  ``locals()`` to a per-instruction *tail* (charge, check, execute — the
  reference :class:`~repro.interp.interp.StepLimitExceeded` boundary
  exactly).  Tails are not compiled with the function:
  :meth:`CompiledFunction.tail` renders one from the IR the first time a
  run crosses its limit in that unit, with the emitters that rendered
  the function, into a namespace of its own.  A tail always ends the run.
* **profile** — one local counter per CFG edge, bumped where the edge is
  taken and always on; the frame's exit folds the non-zero ones into
  ``Interpreter.block_profile`` when one is set
  (:class:`~repro.interp.interp.BlockProfile`) and their sum is
  ``engine.blocks_compiled``.  A local ``at`` — set on the cold raise
  paths and before each call — is the partial-frame position a
  ``MemoryTrap`` or ``exit()`` unwinding through the frame records.
* **known-int elision** — an optimistic fixpoint finds the SSA values
  that can only ever hold a Python ``int``; the function-pointer and
  non-integer-address checks are emitted for the others only.

Compiled functions are cached in a module-versioned
:class:`ExecutionEngine`, keyed by ``id(fn)`` with a strong reference to
the Function — the same keying discipline as the PDG shards.  The engine
hangs off its module (``Module.engine``, reached through
:func:`engine_for`), so the two are collected together; invalidation is
wired into ``Noelle.invalidate(fn)``, ``Noelle.adopt_pdg()`` and the
transactional pass manager's rollback path via
:func:`invalidate_module`, so a rolled-back module never executes stale
code.

The switch between engines is ``NOELLE_ENGINE``:

* ``compiled`` (default) — interpreters route defined-function calls
  through the engine;
* ``reference`` — the tree-walking interpreter runs everything, serving
  as the differential-testing oracle.
"""

from __future__ import annotations

import os

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
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..ir.module import Function, Module
from ..ir.types import ArrayType, IntType, StructType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
)
from ..perf import STATS
from .interp import (
    INSTRUCTION_COSTS,
    ExitProgram,
    InterpError,
    MemoryTrap,
    StepLimitExceeded,
    _FunctionAddress,
)

#: Environment variable selecting the execution engine.
ENGINE_ENV = "NOELLE_ENGINE"

#: Version of the serializable compilation plan (see
#: :func:`hydrate_function`); bump on any change to plan structure,
#: bind specs, or the generated-source conventions they index into.
EPLAN_VERSION = 4


class EnginePlanError(Exception):
    """A serialized compilation plan does not match this function (stale
    cache entry, version skew, or corrupt data) — callers treat it as a
    cache miss and recompile."""

_MODES = ("compiled", "reference")

_TERMINATORS = (Branch, CondBranch, Switch, Ret, Unreachable)

_ICMP_SYMBOLS = {
    "eq": "==",
    "ne": "!=",
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
}

_FCMP_SYMBOLS = {
    "oeq": "==",
    "one": "!=",
    "olt": "<",
    "ole": "<=",
    "ogt": ">",
    "oge": ">=",
}

_BINARY_EXPRS = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "shl": "(({a}) << (({b}) % {w}))",
    "ashr": "(({a}) >> (({b}) % {w}))",
    "lshr": "((({a}) & {m}) >> (({b}) % {w}))",
}

#: Casts whose result is an int whatever they are given; the pointer
#: casts pass their operand through.
_INT_CASTS = ("trunc", "sext", "zext", "fptosi")
_COPY_CASTS = ("bitcast", "ptrtoint", "inttoptr")


def engine_mode(explicit: str | None = None) -> str:
    """Resolve the engine mode: an explicit request wins, then the
    ``NOELLE_ENGINE`` environment variable, then ``compiled``."""
    mode = explicit if explicit is not None else os.environ.get(ENGINE_ENV, "")
    mode = mode or "compiled"
    if mode not in _MODES:
        raise ValueError(
            f"unknown engine mode {mode!r} (expected one of {_MODES})"
        )
    return mode


# -- what generated code calls ---------------------------------------------------


def _fa_cmp(predicate: str, a, b) -> int:
    """Function-pointer comparison, mirroring ``Interpreter._icmp``.
    Returns -1 for ordered predicates so the generated caller can fix
    its accounting before raising."""
    a_key = a.fn.name if a.__class__ is _FunctionAddress else a
    b_key = b.fn.name if b.__class__ is _FunctionAddress else b
    if predicate == "eq":
        return 1 if a_key == b_key else 0
    if predicate == "ne":
        return 1 if a_key != b_key else 0
    return -1


def _sync(st, room: int, dc: int) -> None:
    """Write a frame's accounting locals back to ``st`` — what a raise
    site calls just before it raises, with the cost of the instructions
    after it taken out of both arguments."""
    result = st.result
    result.steps = st.step_limit - room
    result.cycles += dc
    st.weighted_cycles += dc * st.clock_period


def _charge(st, cost: int) -> None:
    """One instruction of a tail: the walker's ``_account``."""
    result = st.result
    result.steps += 1
    if result.steps > st.step_limit:
        raise StepLimitExceeded(f"exceeded {st.step_limit} steps")
    result.cycles += cost
    st.weighted_cycles += cost * st.clock_period


def _partial(st, block, at: int) -> None:
    """The partial-frame record of a trap or ``exit()`` unwinding
    through a frame that stood ``at`` instructions into ``block``."""
    profile = st.block_profile
    if profile is not None:
        profile.partial.append((block, at))


def _leave(st, edges, counts, allocs) -> None:
    """A frame's exit, normal or not: free its stack, fold its edge
    counters (``counts[0]`` is the entry's literal 1)."""
    for alloc in allocs:
        if alloc.alive:
            st.memory.release(alloc.base)
    STATS.count("engine.blocks_compiled", sum(counts))
    profile = st.block_profile
    if profile is not None:
        table = profile.edges
        for (src, dst), taken in zip(edges, counts):
            if taken:
                table[src][dst] += taken


_HELPERS = {
    "InterpError": InterpError,
    "MemoryTrap": MemoryTrap,
    "ExitProgram": ExitProgram,
    "_FunctionAddress": _FunctionAddress,
    "_fa_cmp": _fa_cmp,
    "_sync": _sync,
    "_charge": _charge,
    "_partial": _partial,
    "_leave": _leave,
    "_INF": float("inf"),
}


def _namespace(engine: "ExecutionEngine", fn: Function, binds):
    """The namespace generated code executes against: the helpers plus
    every bind spec re-resolved against ``fn``'s module.  Returns it
    with the keep-alive references for objects whose ``id()`` it holds
    (id reuse would be fatal)."""
    module = fn.parent
    ns = dict(_HELPERS)
    refs: list[object] = []
    for name, spec in binds:
        kind = spec[0]
        if kind == "const":
            ns[name] = spec[1]
        elif kind == "inst":
            ns[name] = fn.blocks[spec[1]].instructions[spec[2]]
        elif kind == "globalid":
            gv = module.globals.get(spec[1])
            if gv is None:
                raise EnginePlanError(
                    f"plan references unknown global @{spec[1]}"
                )
            refs.append(gv)
            ns[name] = id(gv)
        elif kind in ("fa", "callee"):
            target = module.functions.get(spec[1])
            if target is None:
                raise EnginePlanError(
                    f"plan references unknown function @{spec[1]}"
                )
            ns[name] = engine.address_of(target) if kind == "fa" else target
        else:
            raise EnginePlanError(f"unknown bind spec {spec!r}")
    return ns, refs


class CompiledFunction:
    """A function lowered to one generated Python function."""

    __slots__ = ("engine", "fn", "func", "refs", "plan", "code", "tails")

    def __init__(self, engine, fn, refs, plan, code):
        self.engine = engine
        self.fn = fn
        #: ``func(st, *args)`` runs one call of ``fn`` on interpreter
        #: state ``st``.
        self.func = None
        self.refs = refs
        #: Process-independent plan + generated code object; the pair is
        #: everything :func:`hydrate_function` needs to rebuild this
        #: CompiledFunction in another process without re-walking the IR
        #: or re-running CPython's compile().
        self.plan = plan
        self.code = code
        #: unit key -> (code, namespace, block) of the tails rendered so
        #: far; empty until a run crosses its step limit in ``fn``.
        self.tails: dict[int, tuple] = {}

    def tail(self, st, room: int, dc: int, key: int, frame: dict):
        """Finish a run in the charge unit ``key`` that does not fit
        under the step limit: per instruction, in the walker's order,
        on the frame's ``locals()``.  Never returns."""
        _sync(st, room, dc)
        entry = self.tails.get(key)
        if entry is None:
            source, binds, block = _Compiler(self.fn).tail(key)
            code = compile(source, f"<engine:{self.fn.name}:tail>", "exec")
            # A namespace of its own: the names a fresh compiler binds
            # are not the ones the function's code was compiled against.
            ns, _refs = _namespace(self.engine, self.fn, binds)
            entry = self.tails[key] = (code, ns, block)
            STATS.count("engine.slow_segments")
        code, ns, block = entry
        try:
            exec(code, ns, frame)
        except MemoryTrap:
            _partial(st, block, frame["at"])
            raise
        raise AssertionError("a tail ended under the step limit")


def _split_units(bb):
    """Deterministic block decomposition: the number of leading phis,
    then the charge units — runs of instructions that a call or the
    first terminator ends (what follows a terminator is dead)."""
    insts = bb.instructions
    nphis = 0
    while nphis < len(insts) and isinstance(insts[nphis], Phi):
        nphis += 1
    units: list[list] = []
    run: list = []
    for inst in insts[nphis:]:
        run.append(inst)
        if isinstance(inst, _TERMINATORS):
            break
        if isinstance(inst, Call):
            units.append(run)
            run = []
    if run or not units:
        units.append(run)
    return nphis, units


def _known_ints(fn: Function) -> set[int]:
    """ids of the SSA values of ``fn`` that can only hold a Python int
    (optimistic fixpoint).  Loads, calls, arguments and float results
    stay unknown: memory is untyped and a pointer may be a function's
    address or, through a ``bitcast``, a float."""
    known: set[int] = set()
    pending = []  # (instruction, the operands its result is made of)
    for inst in fn.instructions():
        inputs = None  # not an int, or not known to be
        if isinstance(inst, BinaryOp):
            if not inst.opcode.startswith("f"):
                inputs = ()
        elif isinstance(inst, (ICmp, FCmp, Alloca)):
            inputs = ()
        elif isinstance(inst, Cast):
            if inst.opcode in _INT_CASTS:
                inputs = ()
            elif inst.opcode in _COPY_CASTS:
                inputs = (inst.value,)
        elif isinstance(inst, Select):
            inputs = (inst.true_value, inst.false_value)
        elif isinstance(inst, Phi):
            inputs = [value for value, _ in inst.incoming()]
        elif isinstance(inst, ElemPtr):
            # The base is checked where it is used; a non-int index
            # would make the sum a non-int.
            inputs = inst.indices
        if inputs is not None:
            known.add(id(inst))
            if inputs:
                pending.append((inst, inputs))

    def holds_int(v) -> bool:
        return id(v) in known or isinstance(
            v, (ConstantInt, ConstantNull, UndefValue, GlobalVariable)
        )

    changed = True
    while changed:
        changed = False
        for inst, inputs in pending:
            if id(inst) in known and not all(map(holds_int, inputs)):
                known.discard(id(inst))
                changed = True
    return known


#: The inline sync: a frame's accounting locals written back to ``st``.
_SYNC = (
    "result.steps = limit - room",
    "result.cycles += dc",
    "st.weighted_cycles += dc * st.clock_period",
)


class _Compiler:
    """Lowers one Function to generated Python source.  It resolves
    nothing: what the source names is recorded as process-independent
    bind specs for :func:`_namespace`."""

    def __init__(self, fn: Function):
        self.fn = fn
        self._unique = 0
        #: (name, spec) pairs for every process-specific object the
        #: generated code reads from its namespace.
        self.binds: list[tuple[str, tuple]] = []
        self._global_names: dict[int, str] = {}
        #: (source block, target block) -> its counter's number; 0 is
        #: the function entry.
        self.edges: dict[tuple[int, int], int] = {}
        # Local names, block indices and the unit table are a pure
        # function of the IR: every compiler over ``fn`` — the
        # compile and each later :meth:`tail` — agrees on them.
        self.slots: dict[int, int] = {}
        self._block_index: dict[int, int] = {}
        #: (block index, leading phis charged, first position, run)
        self.units: list[tuple[int, int, int, list]] = []
        self._block_units: list[range] = []
        self._nphis: list[int] = []
        self._known = _known_ints(fn)
        self._has_allocs = self._has_memory = False
        nslots = 0
        for arg in fn.args:
            self.slots[id(arg)] = nslots
            nslots += 1
        for bi, block in enumerate(fn.blocks):
            self._block_index[id(block)] = bi
            for inst in block.instructions:
                if not inst.type.is_void():
                    self.slots[id(inst)] = nslots
                    nslots += 1
                if isinstance(inst, Alloca):
                    self._has_allocs = True
                elif isinstance(inst, (Load, Store)):
                    self._has_memory = True
            nphis, runs = _split_units(block)
            self._nphis.append(nphis)
            first = len(self.units)
            position = nphis
            for ui, run in enumerate(runs):
                self.units.append((bi, 0 if ui else nphis, position, run))
                position += len(run)
            self._block_units.append(range(first, len(self.units)))

    # -- small helpers ---------------------------------------------------------

    def _name(self, prefix: str) -> str:
        self._unique += 1
        return f"{prefix}{self._unique}"

    def _bind(self, prefix: str, spec: tuple) -> str:
        name = self._name(prefix)
        self.binds.append((name, spec))
        return name

    def _expr(self, v) -> str:
        """Render an operand: a local, or the constant folded in."""
        slot = self.slots.get(id(v))
        if slot is not None:
            return f"x{slot}"
        if isinstance(v, ConstantInt):
            return repr(v.value)
        if isinstance(v, ConstantFloat):
            x = v.value
            if x != x or x in (float("inf"), float("-inf")):
                return self._bind("_C", ("const", x))
            return repr(x)
        if isinstance(v, (ConstantNull, UndefValue)):
            return "0"
        if isinstance(v, GlobalVariable):
            # The global's id() is process-specific, so it lives in the
            # namespace (rebound on hydrate) instead of the source text.
            name = self._global_names.get(id(v))
            if name is None:
                name = self._bind("_G", ("globalid", v.name))
                self._global_names[id(v)] = name
            return f"st.globals[{name}]"
        if isinstance(v, Function):
            return self._bind("_FA", ("fa", v.name))
        raise InterpError(f"cannot evaluate {v!r}")

    def _holds_int(self, v) -> bool:
        """True when the operand is provably a Python int at run time,
        so the checks for the other things a value can be are dead."""
        return id(v) in self._known or isinstance(
            v, (ConstantInt, ConstantNull, UndefValue, GlobalVariable)
        )

    # -- instruction bodies ----------------------------------------------------
    #
    # Each emitter returns body lines.  ``corr`` holds the statements
    # spliced in before every raise: a unit charges its whole cost up
    # front, so a raise at position k must sync without the
    # not-yet-executed remainder to stay byte-identical with the
    # reference interpreter.  A tail passes an empty ``corr`` (it
    # accounts per instruction already).

    def _raise(self, indent: str, corr: list[str], statement: str) -> list[str]:
        return [indent + line for line in corr] + [indent + statement]

    def _emit(self, inst, n: str, corr: list[str]) -> list[str]:
        if isinstance(inst, BinaryOp):
            return self._emit_binary(inst, n, corr)
        if isinstance(inst, ICmp):
            return self._emit_icmp(inst, n, corr)
        if isinstance(inst, FCmp):
            sym = _FCMP_SYMBOLS[inst.predicate]
            a, b = self._expr(inst.lhs), self._expr(inst.rhs)
            return [f"{self._expr(inst)} = 1 if ({a}) {sym} ({b}) else 0"]
        if isinstance(inst, Alloca):
            size = inst.allocated_type.size_in_slots()
            return [
                f"a{n} = st.memory.allocate({size}, 'stack')",
                f"allocs.append(a{n})",
                f"{self._expr(inst)} = a{n}.base",
            ]
        if isinstance(inst, Load):
            return self._emit_load(inst, n, corr)
        if isinstance(inst, Store):
            return self._emit_store(inst, n, corr)
        if isinstance(inst, ElemPtr):
            return self._emit_elem_ptr(inst, n, corr)
        if isinstance(inst, Select):
            c = self._expr(inst.condition)
            t = self._expr(inst.true_value)
            f = self._expr(inst.false_value)
            return [f"{self._expr(inst)} = ({t}) if ({c}) else ({f})"]
        if isinstance(inst, Cast):
            return self._emit_cast(inst, n, corr)
        # Mirrors the reference walker's "cannot execute" arm (also hit
        # by a phi that is not in leading position).
        block = inst.parent
        name = self._bind("_X", (
            "inst", self._block_index[id(block)], block.instructions.index(inst),
        ))
        return self._raise(
            "", corr, f"raise InterpError('cannot execute %r' % ({name},))"
        )

    def _wrap(self, target: str, raw: str, width: int) -> list[str]:
        """Inline ``wrap_int``: mask to width, then signed adjustment."""
        full = 1 << width
        half = full >> 1
        mask = full - 1
        return [
            f"{target} = {raw} & {mask}",
            f"{target} = {target} - {full} if {target} >= {half} else {target}",
        ]

    def _emit_binary(self, inst, n, corr):
        op = inst.opcode
        d = self._expr(inst)
        a, b = self._expr(inst.lhs), self._expr(inst.rhs)
        if op.startswith("f"):
            if op == "fdiv":
                return [
                    f"b{n} = {b}",
                    f"{d} = ({a}) / b{n} if b{n} != 0 else _INF",
                ]
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            return [f"{d} = ({a}) {sym} ({b})"]
        ty = inst.type
        assert isinstance(ty, IntType)
        w = ty.width
        if op in ("sdiv", "srem"):
            noun = "division" if op == "sdiv" else "remainder"
            # Truncate toward zero (C semantics) in exact integer
            # arithmetic: a float quotient is wrong above 2**53.
            sym = "//" if op == "sdiv" else "%"
            raw = (
                f"(a{n} {sym} b{n} if (a{n} ^ b{n}) >= 0 "
                f"else -(-a{n} {sym} b{n}))"
            )
            lines = [
                f"a{n} = {a}",
                f"b{n} = {b}",
                f"if b{n} == 0:",
                *self._raise(
                    "    ", corr, f"raise InterpError('{noun} by zero')"
                ),
            ]
            lines += self._wrap(d, raw, w)
            return lines
        template = _BINARY_EXPRS.get(op)
        if template is None:
            return self._raise(
                "", corr, f"raise InterpError('unknown binary op {op}')"
            )
        raw = template.format(a=a, b=b, w=w, m=(1 << w) - 1)
        return self._wrap(d, raw, w)

    def _emit_icmp(self, inst, n, corr):
        d = self._expr(inst)
        pred = inst.predicate
        a, b = self._expr(inst.lhs), self._expr(inst.rhs)
        if pred.startswith("u"):
            width = (
                inst.lhs.type.width
                if isinstance(inst.lhs.type, IntType)
                else 64
            )
            mask = (1 << width) - 1
            sym = _ICMP_SYMBOLS["s" + pred[1:]]

            def compare(x, y):
                return f"1 if ({x}) & {mask} {sym} ({y}) & {mask} else 0"

        else:
            sym = _ICMP_SYMBOLS[pred]

            def compare(x, y):
                return f"1 if ({x}) {sym} ({y}) else 0"

        checks = []
        if not self._holds_int(inst.lhs):
            checks.append(f"a{n}.__class__ is _FunctionAddress")
        if not self._holds_int(inst.rhs):
            checks.append(f"b{n}.__class__ is _FunctionAddress")
        if not checks:
            return [f"{d} = " + compare(a, b)]
        lines = [f"a{n} = {a}", f"b{n} = {b}"]
        lines.append("if " + " or ".join(checks) + ":")
        lines.append(f"    r{n} = _fa_cmp({pred!r}, a{n}, b{n})")
        lines.append(f"    if r{n} < 0:")
        lines += self._raise(
            "        ",
            corr,
            "raise InterpError('ordered comparison of function pointers')",
        )
        lines.append(f"    {d} = r{n}")
        lines.append("else:")
        lines.append(f"    {d} = " + compare(f"a{n}", f"b{n}"))
        return lines

    def _address_of(self, pointer, n, corr) -> list[str]:
        """Materialize ``a{n}`` as a validated address, mirroring
        ``Interpreter._as_address`` (checks elided for operands that are
        provably integers at compile time)."""
        lines = [f"a{n} = {self._expr(pointer)}"]
        if not self._holds_int(pointer):
            lines.append(f"if a{n}.__class__ is not int:")
            lines.append(f"    if a{n}.__class__ is _FunctionAddress:")
            lines += self._raise(
                "        ",
                corr,
                "raise MemoryTrap('dereference of a function pointer')",
            )
            lines += self._raise(
                "    ",
                corr,
                f"raise MemoryTrap('non-integer address %r' % (a{n},))",
            )
        return lines

    def _emit_load(self, inst, n, corr):
        lines = self._address_of(inst.pointer, n, corr)
        lines.append("try:")
        lines.append(f"    {self._expr(inst)} = mem[a{n}]")
        lines.append("except KeyError:")
        lines += self._raise(
            "    ",
            corr,
            f"raise MemoryTrap('load from invalid address %d' % a{n}) "
            "from None",
        )
        return lines

    def _emit_store(self, inst, n, corr):
        lines = self._address_of(inst.pointer, n, corr)
        lines.append(f"if a{n} in mem:")
        lines.append(f"    mem[a{n}] = {self._expr(inst.value)}")
        lines.append("else:")
        lines += self._raise(
            "    ",
            corr,
            f"raise MemoryTrap('store to invalid address %d' % a{n})",
        )
        return lines

    def _emit_elem_ptr(self, inst, n, corr):
        lines = self._address_of(inst.base, n, corr)
        terms: list[str] = []
        constant = 0

        def add(index_value, scale):
            nonlocal constant
            if isinstance(index_value, ConstantInt):
                constant += index_value.value * scale
            elif scale == 1:
                terms.append(f"({self._expr(index_value)})")
            elif scale:
                terms.append(f"({self._expr(index_value)}) * {scale}")

        indices = inst.indices
        current = inst.base.type.pointee
        add(indices[0], current.size_in_slots())
        for index_value in indices[1:]:
            if isinstance(current, ArrayType):
                add(index_value, current.element.size_in_slots())
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index_value, ConstantInt):
                    raise InterpError(
                        f"dynamic struct index in {inst.ref()}"
                    )
                constant += current.field_offset(index_value.value)
                current = current.fields[index_value.value]
            else:
                return lines + self._raise(
                    "",
                    corr,
                    f"raise InterpError('bad elem_ptr into {current}')",
                )
        if constant or not terms:
            terms.append(str(constant))
        lines.append(f"{self._expr(inst)} = a{n} + " + " + ".join(terms))
        return lines

    def _emit_call(self, inst, n, corr, at: int):
        """A call ends its unit: the frame's accounting is written back
        before it (the callee and the intrinsics account on ``st``) and
        read again after."""
        args = "[" + ", ".join(self._expr(a) for a in inst.args) + "]"
        store = "" if inst.type.is_void() else f"{self._expr(inst)} = "
        callee = inst.called_function()
        lines = []
        if callee is not None:
            target = self._bind("_F", ("callee", callee.name))
        else:
            target = f"t{n}.fn"
            lines.append(f"t{n} = {self._expr(inst.callee)}")
            lines.append(f"if t{n}.__class__ is not _FunctionAddress:")
            lines += self._raise(
                "    ",
                corr,
                f"raise MemoryTrap('indirect call to non-function %r' % (t{n},))",
            )
        return lines + [
            *_SYNC,
            f"at = {at}",
            f"{store}st.call_function({target}, {args})",
            "room = limit - result.steps",
            "dc = 0",
        ]

    def _emit_cast(self, inst, n, corr):
        d = self._expr(inst)
        op = inst.opcode
        v = self._expr(inst.value)
        if op in _COPY_CASTS:
            return [f"{d} = {v}"]
        if op in ("trunc", "sext"):
            return self._wrap(d, f"({v})", inst.type.width)
        if op == "zext":
            src_mask = (1 << inst.value.type.width) - 1
            return self._wrap(d, f"({v}) & {src_mask}", inst.type.width)
        if op == "sitofp":
            return [f"{d} = float({v})"]
        if op == "fptosi":
            return self._wrap(d, f"int({v})", inst.type.width)
        return self._raise(
            "", corr, f"raise InterpError('unknown cast {op}')"
        )

    # -- control flow ----------------------------------------------------------

    def _edge(self, src: int, target) -> list[str]:
        """Take the CFG edge from block ``src``: bump its counter, move
        the target's phis, set the block index."""
        dst = self._block_index[id(target)]
        counter = self.edges.setdefault((src, dst), len(self.edges) + 1)
        lines = [f"e{counter} += 1"]
        phis = target.instructions[:self._nphis[dst]]
        if phis:
            pred = self.fn.blocks[src]
            try:
                values = [
                    self._expr(phi.incoming_value_for(pred)) for phi in phis
                ]
            except KeyError as error:  # a broken edge: the walker's error
                return lines + [
                    "_sync(st, room, dc)",
                    f"raise KeyError({error.args[0]!r})",
                ]
            lines.append(
                ", ".join(map(self._expr, phis)) + " = " + ", ".join(values)
            )
        lines.append(f"b = {dst}")
        return lines

    def _tree(self, var: str, leaves: list[list[str]], lo=0, hi=None):
        """``leaves[var]`` as a binary tree of ``if var < mid``."""
        if hi is None:
            hi = len(leaves)
        if hi - lo == 1:
            return leaves[lo]
        mid = (lo + hi) // 2
        return [
            f"if {var} < {mid}:",
            *("    " + line for line in self._tree(var, leaves, lo, mid)),
            "else:",
            *("    " + line for line in self._tree(var, leaves, mid, hi)),
        ]

    def _emit_terminator(self, inst, src: int, n: str, corr) -> list[str]:
        if isinstance(inst, Ret):
            value = "None" if inst.value is None else self._expr(inst.value)
            return [*_SYNC, f"return {value}"]
        if isinstance(inst, Unreachable):
            return self._raise(
                "", corr, "raise InterpError('executed unreachable')"
            )
        if isinstance(inst, Branch):
            return self._edge(src, inst.target)
        if isinstance(inst, CondBranch):
            if inst.true_block is inst.false_block:
                return self._edge(src, inst.true_block)
            return [
                f"if {self._expr(inst.condition)}:",
                *("    " + line for line in self._edge(src, inst.true_block)),
                "else:",
                *("    " + line for line in self._edge(src, inst.false_block)),
            ]
        assert isinstance(inst, Switch)
        # One arm per distinct target; the first case of a value wins.
        arms = {id(inst.default): inst.default}
        table = {}
        for const, target in inst.cases():
            arms.setdefault(id(target), target)
            table.setdefault(const.value, list(arms).index(id(target)))
        leaves = [self._edge(src, target) for target in arms.values()]
        if len(leaves) == 1:
            return leaves[0]
        name = self._bind("_SW", ("const", table))
        return [
            f"t{n} = {name}.get({self._expr(inst.value)}, 0)",
            *self._tree(f"t{n}", leaves),
        ]

    # -- function assembly -----------------------------------------------------

    @staticmethod
    def _cost(inst) -> int:
        return INSTRUCTION_COSTS.get(inst.opcode, 1)

    def _block(self, bi: int) -> list[str]:
        """One block: per unit the charge, the tail site, the body."""
        lines: list[str] = []
        inst = None
        for key in self._block_units[bi]:
            _bi, nphis, position, run = self.units[key]
            steps = nphis + len(run)
            cycles = sum(map(self._cost, run))
            if steps:
                lines.append(f"room -= {steps}")
                lines.append(
                    f"if room < 0: _T(st, room + {steps}, dc, {key}, locals())"
                )
            if cycles:
                lines.append(f"dc += {cycles}")
            steps -= nphis
            for position, inst in enumerate(run, position + 1):
                steps -= 1
                cycles -= self._cost(inst)
                corr = [
                    f"at = {position}",
                    "_sync(st, room" + (f" + {steps}" if steps else "")
                    + ", dc" + (f" - {cycles}" if cycles else "") + ")",
                ]
                n = self._name("")
                if isinstance(inst, _TERMINATORS):
                    lines += self._emit_terminator(inst, bi, n, corr)
                elif isinstance(inst, Call):
                    lines += self._emit_call(inst, n, corr, position)
                else:
                    lines += self._emit(inst, n, corr)
        if not isinstance(inst, _TERMINATORS):
            name = self.fn.blocks[bi].name
            lines += [
                "_sync(st, room, dc)",
                f"raise AssertionError({f'block %{name} fell through'!r})",
            ]
        return lines

    def compile(self):
        """The plan and code object of ``fn`` (see :func:`hydrate_function`)."""
        fn = self.fn
        body = self._tree("b", [self._block(bi) for bi in range(len(fn.blocks))])
        counters = [f"e{k}" for k in range(1, len(self.edges) + 1)]
        params = "".join(f", x{i}=None" for i in range(len(fn.args)))
        lines = [
            f"def _fn(st{params}, *_extra):",
            "    result = st.result",
            "    limit = st.step_limit",
            "    room = limit - result.steps",
            "    " + " = ".join(["dc", "at", "b", *counters]) + " = 0",
        ]
        if self._has_memory:
            lines.append("    mem = st.memory.slots")
        if self._has_allocs:
            lines.append("    allocs = []")
        lines.append("    try:")
        if self._nphis[0]:
            lines.append("        raise AssertionError('phi in entry block')")
        lines.append("        while True:")
        lines.extend("            " + line for line in body)
        lines += [
            "    except (MemoryTrap, ExitProgram):",
            # ``room`` is negative only while a tail runs, and a tail
            # records its own position.
            "        if room >= 0: _partial(st, _BB[b], at)",
            "        raise",
            "    finally:",
            "        _leave(st, _E, (" + "".join(f"{c}, " for c in ["1", *counters])
            + "), " + ("allocs" if self._has_allocs else "()") + ")",
            "",
        ]
        code = compile("\n".join(lines), f"<engine:{fn.name}>", "exec")
        plan = {
            "version": EPLAN_VERSION,
            "shape": _shape(fn),
            "binds": tuple(self.binds),
            "edges": tuple(self.edges),
        }
        return plan, code

    def tail(self, key: int):
        """Source, binds and block of the per-instruction rendering of
        unit ``key``: every item charged the walker's way, all but the
        last executed — a tail runs only when the unit does not fit."""
        bi, nphis, position, run = self.units[key]
        lines = ["_charge(st, 0)"] * nphis
        for position, inst in enumerate(run, position + 1):
            lines.append(f"_charge(st, {self._cost(inst)})")
            if inst is not run[-1]:
                lines.append(f"at = {position}")
                lines += self._emit(inst, str(position), [])
        return "\n".join(lines) + "\n", self.binds, self.fn.blocks[bi]


def _shape(fn: Function) -> tuple:
    """What a plan must agree with ``fn`` on to be wired to it."""
    return tuple(len(block.instructions) for block in fn.blocks)


def hydrate_function(
    engine: "ExecutionEngine", fn: Function, plan: dict, code
) -> CompiledFunction:
    """Build a :class:`CompiledFunction` from a plan and its code object
    — the one wiring step of a compile and of a cache hydration.

    For a hydration the expensive parts of a compile — walking the IR to
    emit source and running CPython's ``compile()`` — are skipped
    entirely: ``code`` is the already-compiled code object (marshal'd by
    the artifact cache) and ``plan`` carries what it names as
    process-independent specs (globals, function addresses, callees and
    instructions by name or index; CFG edges by block index), resolved
    against ``fn``'s module here.  Nothing of a tail is in either:
    :meth:`CompiledFunction.tail` renders it from ``fn`` like it does
    after a compile.

    Raises :class:`EnginePlanError` when the plan does not match ``fn``
    (stale or corrupt cache entry) — the caller recompiles.
    """
    if fn.parent is None:
        raise EnginePlanError(f"function @{fn.name} has no parent module")
    if plan.get("version") != EPLAN_VERSION:
        raise EnginePlanError(
            f"plan version {plan.get('version')} != {EPLAN_VERSION}"
        )
    try:
        if tuple(plan["shape"]) != _shape(fn):
            raise EnginePlanError(
                f"plan does not match the blocks of @{fn.name}"
            )
        ns, refs = _namespace(engine, fn, plan["binds"])
        blocks = fn.blocks
        ns["_BB"] = tuple(blocks)
        ns["_E"] = ((None, blocks[0]),) + tuple(
            (blocks[src], blocks[dst]) for src, dst in plan["edges"]
        )
        cf = CompiledFunction(engine, fn, refs, plan, code)
        ns["_T"] = cf.tail
        exec(code, ns)
        cf.func = ns["_fn"]
    except EnginePlanError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise EnginePlanError(f"corrupt plan for @{fn.name}: {error}")
    return cf


class ExecutionEngine:
    """Per-module cache of compiled functions.

    Keyed by ``id(fn)`` with a strong Function reference inside each
    :class:`CompiledFunction` (identical to the PDG shard discipline —
    the strong ref pins the id).  ``version`` counts full invalidations;
    the pass manager's rollback path bumps it so code compiled before a
    rollback can never run after one.
    """

    def __init__(self) -> None:
        self.functions: dict[int, CompiledFunction] = {}
        self.version = 0
        self._addresses: dict[int, _FunctionAddress] = {}

    def address_of(self, fn: Function) -> _FunctionAddress:
        """A canonical function-pointer value per Function (semantics
        only need name equality, but sharing avoids churn)."""
        address = self._addresses.get(id(fn))
        if address is None:
            address = _FunctionAddress(fn)
            self._addresses[id(fn)] = address
        return address

    def compiled(self, fn: Function) -> CompiledFunction:
        cf = self.functions.get(id(fn))
        if cf is None:
            with STATS.timer("engine.compile"):
                cf = hydrate_function(self, fn, *_Compiler(fn).compile())
            self.functions[id(fn)] = cf
            STATS.count("engine.compiles")
            STATS.count("engine.blocks_lowered", len(fn.blocks))
        return cf

    def adopt(self, fn: Function, plan: dict, code) -> CompiledFunction:
        """Install a cached compilation plan instead of compiling.

        Raises :class:`EnginePlanError` when the plan is stale — the
        caller falls back to :meth:`compiled`.
        """
        with STATS.timer("engine.hydrate"):
            cf = hydrate_function(self, fn, plan, code)
        self.functions[id(fn)] = cf
        STATS.count("engine.hydrations")
        return cf

    def invalidate(self, fn: Function | None = None) -> None:
        """Drop one function's code (``fn``) or everything (None)."""
        if fn is not None:
            if self.functions.pop(id(fn), None) is not None:
                STATS.count("engine.invalidations")
            return
        if self.functions:
            STATS.count("engine.invalidations", len(self.functions))
        self.functions.clear()
        self._addresses.clear()
        self.version += 1

    def call(self, st, fn: Function, args: list[object]):
        """Execute one defined function on interpreter state ``st``."""
        cf = self.functions.get(id(fn))
        if cf is None:
            cf = self.compiled(fn)
        else:
            STATS.count("engine.cache_hits")
        return cf.func(st, *args)


def engine_for(module: Module) -> ExecutionEngine:
    """The (lazily created) engine caching compiled code for ``module``."""
    engine = module.engine
    if engine is None:
        engine = module.engine = ExecutionEngine()
    return engine


def existing_engine(module: Module) -> ExecutionEngine | None:
    """``module``'s engine if it ever ran compiled code, else None."""
    return module.engine


def invalidate_module(module: Module, fn: Function | None = None) -> None:
    """Invalidate compiled code for ``module`` (one function or all)
    without instantiating an engine when none exists yet."""
    engine = existing_engine(module)
    if engine is not None:
        engine.invalidate(fn)
