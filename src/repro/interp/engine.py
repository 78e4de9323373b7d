"""Compiled execution engine: closure-threaded lowering of repro IR.

The reference interpreter (:mod:`repro.interp.interp`) re-resolves every
operand, re-dispatches on instruction class, and re-reads the cost table
on every step.  This module removes all of that from the hot path by
*compiling* each :class:`~repro.ir.module.Function` once:

* **slot frames** — SSA values get integer slot indices at compile time;
  at run time the frame is a plain Python list (``regs``), so an operand
  read is one indexed load instead of a dict probe keyed by ``id()``.
  Slot 0 holds the frame's allocation list, slot 1 the return value.
* **generated closures** — each instruction is rendered to Python source
  with its operand slots and constants folded in as literals, and the
  whole function body is ``exec``'d once; the resulting code objects are
  the "direct-threaded" ops.
* **straight-line segments** — each block is split into maximal runs of
  call-free instructions.  A segment's step count and cycle cost are
  pre-summed at compile time, so accounting is one addition per segment
  instead of one per instruction.  Calls are singleton segments because
  intrinsics observe ``result.cycles`` (``os_callback``, the HELIX
  sequential markers) and can change the clock period (``clock_set``).
* **exact trap accounting** — a fused segment charges its whole cost up
  front; every raise site inside the generated code first gives back the
  not-yet-executed remainder (compile-time constants, one cold
  ``_giveback`` call), so a trapping run reports byte-identical
  ``steps``/``cycles`` to the reference walker.
* **exact step budgets** — before running a segment the engine checks
  whether the whole segment fits under ``step_limit``; only the one
  segment in which a run crosses its limit does not, and it runs
  per instruction (charge, check, execute — the reference
  :class:`~repro.interp.interp.StepLimitExceeded` boundary exactly).
  Those per-instruction closures are not compiled with the function:
  ``_seg_slow`` renders them from the IR the first time a segment needs
  them, with the emitters that rendered the fused body.
* **phi moves** — pre-scheduled per predecessor edge as one generated
  mover function (values are all read before any slot is written, so
  phi cycles stay atomic).  A phi group that crosses the limit moves
  nothing: phis cost no cycles and the frame dies with the raise.
* **profiling mode** — with ``Interpreter.block_profile`` set the run
  loop bumps one CFG-edge counter per block and nothing else changes
  (:class:`~repro.interp.interp.BlockProfile`).

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
EPLAN_VERSION = 3


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


class _Segment:
    """A straight-line, call-free run of instructions inside one block.

    ``fused`` executes the whole run in one generated function (used
    after the pre-summed ``steps``/``cycles`` are charged in a single
    addition).  ``ops`` — one closure per instruction, for the segment
    in which a run crosses its step limit — stays empty until
    ``_seg_slow`` first needs it and renders it from ``run``.
    """

    __slots__ = ("run", "costs", "steps", "cycles", "fused", "ops")

    def __init__(self, run):
        self.run = run
        self.costs = tuple(INSTRUCTION_COSTS.get(i.opcode, 1) for i in run)
        self.steps = len(run)
        self.cycles = sum(self.costs)
        self.fused = None
        self.ops = ()


class CompiledBlock:
    """One basic block, lowered: its decomposition (leading phis,
    segments, terminator) is fixed here, the generated functions are
    attached by ``_wire``."""

    __slots__ = (
        "bb",
        "nphis",
        "phis",
        "movers",
        "segments",
        "terminator",
        "term_op",
        "term_cost",
    )

    def __init__(self, bb):
        self.bb = bb
        phis, runs, self.terminator = _split_segments(bb)
        self.nphis = len(phis)
        self.phis = tuple(phis)
        #: id(pred BasicBlock) -> generated mover; an edge some phi has
        #: no incoming value for gets none (``_phis_slow`` raises).
        self.movers = {}
        self.segments = tuple(_Segment(run) for run in runs)
        self.term_op = None
        self.term_cost = (
            INSTRUCTION_COSTS.get(self.terminator.opcode, 1)
            if self.terminator is not None
            else 0
        )


class CompiledFunction:
    """A function lowered to slot-frame closures."""

    __slots__ = (
        "fn", "nslots", "arg_slots", "entry", "blocks", "refs",
        "plan", "code",
    )

    def __init__(self, fn, nslots, arg_slots, entry, blocks, refs,
                 plan=None, code=None):
        self.fn = fn
        self.nslots = nslots
        self.arg_slots = arg_slots
        self.entry = entry
        self.blocks = blocks
        #: Keep-alive references for objects whose id() is baked into
        #: generated code (globals, callees) — id reuse would be fatal.
        self.refs = refs
        #: Process-independent wiring plan + generated code object; the
        #: pair is everything :func:`hydrate_function` needs to rebuild
        #: this CompiledFunction in another process without re-walking
        #: the IR or re-running CPython's compile().
        self.plan = plan
        self.code = code


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


def _giveback(st, steps: int, cycles: int) -> None:
    """Called by a trap site in a fused segment just before it raises:
    return the pre-charged cost of the instructions after it."""
    result = st.result
    result.steps -= steps
    if cycles:
        result.cycles -= cycles
        st.weighted_cycles -= cycles * st.clock_period


def _base_namespace() -> dict:
    """The namespace every generated code object executes against."""
    return {
        "InterpError": InterpError,
        "MemoryTrap": MemoryTrap,
        "_FunctionAddress": _FunctionAddress,
        "_fa_cmp": _fa_cmp,
        "_giveback": _giveback,
        "_INF": float("inf"),
    }


def _split_segments(bb):
    """Deterministic block decomposition (:class:`CompiledBlock`):
    leading phis, then maximal call-free runs (calls are singletons),
    stopping at the first terminator."""
    insts = bb.instructions
    index = 0
    phis = []
    while index < len(insts) and isinstance(insts[index], Phi):
        phis.append(insts[index])
        index += 1
    runs: list[list] = []
    run: list = []
    terminator = None
    for inst in insts[index:]:
        if isinstance(inst, _TERMINATORS):
            terminator = inst
            break
        if isinstance(inst, Call):
            if run:
                runs.append(run)
                run = []
            runs.append([inst])
        else:
            run.append(inst)
    if run:
        runs.append(run)
    return phis, runs, terminator


class _Compiler:
    """Lowers one Function to generated Python source, exec'd once."""

    def __init__(self, engine: "ExecutionEngine", fn: Function):
        self.engine = engine
        self.fn = fn
        self.refs: list[object] = []
        self.ns: dict[str, object] = _base_namespace()
        self._unique = 0
        #: (ns name, spec) pairs for every process-specific object the
        #: generated code reads from its namespace; specs are
        #: process-independent and re-resolvable (see hydrate_function).
        self.binds: list[tuple[str, tuple]] = []
        self._global_names: dict[int, str] = {}
        # Frame slots and block/instruction indices are a pure function
        # of the IR: every compiler over ``fn`` — the compile and each
        # later :meth:`slow_ops` — agrees on them.
        self.slots: dict[int, int] = {}
        self._block_index: dict[int, int] = {}
        self._inst_index: dict[int, tuple[int, int]] = {}
        nslots = 2
        arg_slots = []
        for arg in fn.args:
            self.slots[id(arg)] = nslots
            arg_slots.append(nslots)
            nslots += 1
        for bi, block in enumerate(fn.blocks):
            self._block_index[id(block)] = bi
            for ii, inst in enumerate(block.instructions):
                self._inst_index[id(inst)] = (bi, ii)
                if not inst.type.is_void():
                    self.slots[id(inst)] = nslots
                    nslots += 1
        self.nslots = nslots
        self.arg_slots = tuple(arg_slots)

    # -- small helpers ---------------------------------------------------------

    def _name(self, prefix: str) -> str:
        self._unique += 1
        return f"{prefix}{self._unique}"

    def _bind(self, obj, prefix: str = "_C", spec: tuple | None = None) -> str:
        name = self._name(prefix)
        self.ns[name] = obj
        self.binds.append((name, spec if spec is not None else ("const", obj)))
        return name

    def _expr(self, v) -> str:
        """Render an operand: a slot read, or the constant folded in."""
        slot = self.slots.get(id(v))
        if slot is not None:
            return f"regs[{slot}]"
        if isinstance(v, ConstantInt):
            return repr(v.value)
        if isinstance(v, ConstantFloat):
            x = v.value
            if x != x or x in (float("inf"), float("-inf")):
                return self._bind(x)
            return repr(x)
        if isinstance(v, (ConstantNull, UndefValue)):
            return "0"
        if isinstance(v, GlobalVariable):
            self.refs.append(v)
            # The global's id() is process-specific, so it lives in the
            # namespace (rebound on hydrate) instead of the source text.
            name = self._global_names.get(id(v))
            if name is None:
                name = self._bind(id(v), "_G", ("globalid", v.name))
                self._global_names[id(v)] = name
            return f"st.globals[{name}]"
        if isinstance(v, Function):
            self.refs.append(v)
            return self._bind(
                self.engine.address_of(v), "_FA", ("fa", v.name)
            )
        raise InterpError(f"cannot evaluate {v!r}")

    def _is_dynamic(self, v) -> bool:
        """True when the operand could hold a function pointer at run
        time (constants other than Functions never can)."""
        return id(v) in self.slots

    # -- instruction bodies ----------------------------------------------------
    #
    # Each emitter returns body lines (indented relative to the def's
    # body).  ``corr`` holds accounting-correction statements spliced in
    # before every raise: a fused segment pre-charges its whole cost, so
    # a trap at position k must give back the not-yet-executed tail to
    # stay byte-identical with the reference interpreter.  The slow path
    # passes an empty ``corr`` (it accounts per instruction already).

    def _raise(self, indent: str, corr: list[str], statement: str) -> list[str]:
        return [indent + line for line in corr] + [indent + statement]

    def _emit(self, inst, n: str, corr: list[str]) -> list[str]:
        if isinstance(inst, BinaryOp):
            return self._emit_binary(inst, n, corr)
        if isinstance(inst, ICmp):
            return self._emit_icmp(inst, n, corr)
        if isinstance(inst, FCmp):
            d = self.slots[id(inst)]
            sym = _FCMP_SYMBOLS[inst.predicate]
            a, b = self._expr(inst.lhs), self._expr(inst.rhs)
            return [f"regs[{d}] = 1 if ({a}) {sym} ({b}) else 0"]
        if isinstance(inst, Alloca):
            d = self.slots[id(inst)]
            size = inst.allocated_type.size_in_slots()
            return [
                f"a{n} = st.memory.allocate({size}, 'stack')",
                f"regs[0].append(a{n})",
                f"regs[{d}] = a{n}.base",
            ]
        if isinstance(inst, Load):
            return self._emit_load(inst, n, corr)
        if isinstance(inst, Store):
            return self._emit_store(inst, n, corr)
        if isinstance(inst, ElemPtr):
            return self._emit_elem_ptr(inst, n, corr)
        if isinstance(inst, Call):
            return self._emit_call(inst, n, corr)
        if isinstance(inst, Select):
            d = self.slots[id(inst)]
            c = self._expr(inst.condition)
            t = self._expr(inst.true_value)
            f = self._expr(inst.false_value)
            return [f"regs[{d}] = ({t}) if ({c}) else ({f})"]
        if isinstance(inst, Cast):
            return self._emit_cast(inst, n, corr)
        # Mirrors the reference walker's "cannot execute" arm (also hit
        # by a phi that is not in leading position).
        name = self._bind(inst, "_X", ("inst", *self._inst_index[id(inst)]))
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
        d = self.slots[id(inst)]
        a, b = self._expr(inst.lhs), self._expr(inst.rhs)
        if op.startswith("f"):
            if op == "fdiv":
                return [
                    f"b{n} = {b}",
                    f"regs[{d}] = ({a}) / b{n} if b{n} != 0 else _INF",
                ]
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            return [f"regs[{d}] = ({a}) {sym} ({b})"]
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
            lines += self._wrap(f"regs[{d}]", raw, w)
            return lines
        template = _BINARY_EXPRS.get(op)
        if template is None:
            return self._raise(
                "", corr, f"raise InterpError('unknown binary op {op}')"
            )
        raw = template.format(a=a, b=b, w=w, m=(1 << w) - 1)
        return self._wrap(f"regs[{d}]", raw, w)

    def _emit_icmp(self, inst, n, corr):
        d = self.slots[id(inst)]
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
        if self._is_dynamic(inst.lhs) or isinstance(inst.lhs, Function):
            checks.append(f"a{n}.__class__ is _FunctionAddress")
        if self._is_dynamic(inst.rhs) or isinstance(inst.rhs, Function):
            checks.append(f"b{n}.__class__ is _FunctionAddress")
        if not checks:
            return [f"regs[{d}] = " + compare(a, b)]
        lines = [f"a{n} = {a}", f"b{n} = {b}"]
        lines.append("if " + " or ".join(checks) + ":")
        lines.append(f"    r{n} = _fa_cmp({pred!r}, a{n}, b{n})")
        lines.append(f"    if r{n} < 0:")
        lines += self._raise(
            "        ",
            corr,
            "raise InterpError('ordered comparison of function pointers')",
        )
        lines.append(f"    regs[{d}] = r{n}")
        lines.append("else:")
        lines.append(f"    regs[{d}] = " + compare(f"a{n}", f"b{n}"))
        return lines

    def _address_of(self, pointer, n, corr) -> list[str]:
        """Materialize ``a{n}`` as a validated address, mirroring
        ``Interpreter._as_address`` (checks elided for operands that are
        provably integers at compile time)."""
        lines = [f"a{n} = {self._expr(pointer)}"]
        if self._is_dynamic(pointer) or isinstance(pointer, Function):
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
        d = self.slots[id(inst)]
        lines = self._address_of(inst.pointer, n, corr)
        lines.append("try:")
        lines.append(f"    regs[{d}] = st.memory.slots[a{n}]")
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
        lines.append(f"m{n} = st.memory.slots")
        lines.append(f"if a{n} in m{n}:")
        lines.append(f"    m{n}[a{n}] = {self._expr(inst.value)}")
        lines.append("else:")
        lines += self._raise(
            "    ",
            corr,
            f"raise MemoryTrap('store to invalid address %d' % a{n})",
        )
        return lines

    def _emit_elem_ptr(self, inst, n, corr):
        d = self.slots[id(inst)]
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
        lines.append(f"regs[{d}] = a{n} + " + " + ".join(terms))
        return lines

    def _emit_call(self, inst, n, corr):
        args = "[" + ", ".join(self._expr(a) for a in inst.args) + "]"
        store = "" if inst.type.is_void() else f"regs[{self.slots[id(inst)]}] = "
        callee = inst.called_function()
        if callee is not None:
            self.refs.append(callee)
            name = self._bind(callee, "_F", ("callee", callee.name))
            return [f"{store}st.call_function({name}, {args})"]
        lines = [f"t{n} = {self._expr(inst.callee)}"]
        lines.append(f"if t{n}.__class__ is not _FunctionAddress:")
        lines += self._raise(
            "    ",
            corr,
            f"raise MemoryTrap('indirect call to non-function %r' % (t{n},))",
        )
        lines.append(f"{store}st.call_function(t{n}.fn, {args})")
        return lines

    def _emit_cast(self, inst, n, corr):
        d = self.slots[id(inst)]
        op = inst.opcode
        v = self._expr(inst.value)
        if op in ("bitcast", "ptrtoint", "inttoptr"):
            return [f"regs[{d}] = {v}"]
        if op in ("trunc", "sext"):
            return self._wrap(f"regs[{d}]", f"({v})", inst.type.width)
        if op == "zext":
            src_mask = (1 << inst.value.type.width) - 1
            return self._wrap(
                f"regs[{d}]", f"({v}) & {src_mask}", inst.type.width
            )
        if op == "sitofp":
            return [f"regs[{d}] = float({v})"]
        if op == "fptosi":
            return self._wrap(f"regs[{d}]", f"int({v})", inst.type.width)
        return self._raise(
            "", corr, f"raise InterpError('unknown cast {op}')"
        )

    def _emit_terminator(self, inst, block_names) -> list[str]:
        if isinstance(inst, Branch):
            return [f"return {block_names[id(inst.target)]}"]
        if isinstance(inst, CondBranch):
            c = self._expr(inst.condition)
            t = block_names[id(inst.true_block)]
            f = block_names[id(inst.false_block)]
            return [f"return {t} if ({c}) else {f}"]
        if isinstance(inst, Switch):
            table = {}
            cases = []
            for const, target in inst.cases():
                if const.value not in table:
                    table[const.value] = self.ns[block_names[id(target)]]
                    cases.append((const.value, self._block_index[id(target)]))
            name = self._bind(table, "_SW", ("switch", tuple(cases)))
            default = block_names[id(inst.default)]
            return [f"return {name}.get({self._expr(inst.value)}, {default})"]
        if isinstance(inst, Ret):
            if inst.value is None:
                return ["return None"]
            return [f"regs[1] = {self._expr(inst.value)}", "return None"]
        assert isinstance(inst, Unreachable)
        return ["raise InterpError('executed unreachable')"]

    # -- function assembly -----------------------------------------------------

    def _define(self, defs: list[tuple[str, list[str]]], filename: str):
        """Compile ``(name, body lines)`` pairs into functions of
        ``(st, regs)`` in the namespace; returns the code object."""
        lines = []
        for name, body in defs:
            lines.append(f"def {name}(st, regs):")
            lines.extend("    " + line for line in body)
            lines.append("")
        code = compile("\n".join(lines), filename, "exec")
        exec(code, self.ns)
        return code

    def compile(self) -> CompiledFunction:
        fn = self.fn
        compiled = [CompiledBlock(bb) for bb in fn.blocks]
        block_names = {}
        for i, cb in enumerate(compiled):
            block_names[id(cb.bb)] = f"_B{i}"
            self.ns[f"_B{i}"] = cb

        defs: list[tuple[str, list[str]]] = []
        plan_blocks: list[dict] = []
        for cb in compiled:
            plan_block = {
                "nphis": cb.nphis, "movers": [], "segments": [], "term": None,
            }
            if cb.nphis:
                self._schedule_phis(cb, defs, plan_block)
            for seg in cb.segments:
                fused_name = self._name("_s")
                fused_body: list[str] = []
                steps, cycles = seg.steps, seg.cycles
                for seg_inst, cost in zip(seg.run, seg.costs):
                    steps -= 1
                    cycles -= cost
                    corr = [f"_giveback(st, {steps}, {cycles})"] if steps else []
                    fused_body += self._emit(seg_inst, self._name(""), corr)
                defs.append((fused_name, fused_body))
                plan_block["segments"].append(fused_name)
            if cb.terminator is not None:
                term_name = self._name("_t")
                defs.append((
                    term_name,
                    self._emit_terminator(cb.terminator, block_names),
                ))
                plan_block["term"] = term_name
            plan_blocks.append(plan_block)

        code = self._define(defs, f"<engine:{fn.name}>")
        _wire(compiled, plan_blocks, self.ns)
        plan = {
            "version": EPLAN_VERSION,
            "nslots": self.nslots,
            "arg_slots": self.arg_slots,
            "binds": tuple(self.binds),
            "blocks": plan_blocks,
        }
        return CompiledFunction(
            fn, self.nslots, self.arg_slots, compiled[0], tuple(compiled),
            self.refs, plan, code,
        )

    def _schedule_phis(self, cb, defs, plan_block) -> None:
        phis = cb.phis
        preds = []
        seen = set()
        for phi in phis:
            for _value, pred in phi.incoming():
                if id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        for pred in preds:
            try:
                values = [phi.incoming_value_for(pred) for phi in phis]
            except KeyError:
                continue  # broken edge: no mover, ``_phis_slow`` raises
            mover_name = self._name("_m")
            if len(phis) == 1:
                body = [
                    f"regs[{self.slots[id(phis[0])]}] = "
                    f"{self._expr(values[0])}"
                ]
            else:
                # All sources are read before any destination is
                # written, keeping the parallel phi move atomic.
                body = [
                    f"t{i} = {self._expr(value)}"
                    for i, value in enumerate(values)
                ]
                body += [
                    f"regs[{self.slots[id(phi)]}] = t{i}"
                    for i, phi in enumerate(phis)
                ]
            defs.append((mover_name, body))
            plan_block["movers"].append(
                (self._block_index[id(pred)], mover_name)
            )

    def slow_ops(self, run) -> tuple:
        """One closure per instruction of ``run``, rendered without
        give-backs (``_seg_slow`` accounts per instruction).  Everything
        they name is already pinned by the CompiledFunction's ``refs``:
        the fused body of the same run names the same objects."""
        defs = [
            (f"_i{k}", self._emit(inst, str(k), []))
            for k, inst in enumerate(run)
        ]
        self._define(defs, f"<engine:{self.fn.name}:slow>")
        return tuple(self.ns[name] for name, _body in defs)


def _wire(compiled, plan_blocks, ns) -> None:
    """Attach the generated functions to their blocks, as the plan names
    them — the one wiring step of a compile and of a hydration."""
    for cb, plan_block in zip(compiled, plan_blocks):
        for seg, fused_name in zip(cb.segments, plan_block["segments"]):
            seg.fused = ns[fused_name]
        term_name = plan_block["term"]
        cb.term_op = (
            ns[term_name]
            if term_name is not None
            else _fell_through_raiser(cb.bb.name)
        )
        for pred_index, mover_name in plan_block["movers"]:
            cb.movers[id(compiled[pred_index].bb)] = ns[mover_name]


def _fell_through_raiser(block_name):
    def raiser(st, regs):
        raise AssertionError(f"block %{block_name} fell through")

    return raiser


def _phis_slow(st, block, prev):
    """A phi group the run loop cannot move unchecked: entered without
    a predecessor, over an edge some phi has no value for, or across the
    step limit.  All three end the run, so nothing is moved — phis cost
    no cycles and the frame dies with the raise; only the exception and
    the reference's charge-then-check step count are observable."""
    if prev is None:
        raise AssertionError("phi in entry block")
    for phi in block.phis:
        phi.incoming_value_for(prev.bb)  # broken edge: the walker's KeyError
    result = st.result
    limit = st.step_limit
    for _phi in block.phis:
        result.steps += 1
        if result.steps > limit:
            raise StepLimitExceeded(f"exceeded {limit} steps")


def hydrate_function(
    engine: "ExecutionEngine", fn: Function, plan: dict, code
) -> CompiledFunction:
    """Rebuild a :class:`CompiledFunction` from a serialized plan.

    The expensive parts of :meth:`_Compiler.compile` — walking the IR to
    emit source and running CPython's ``compile()`` — are skipped
    entirely: ``code`` is the already-compiled code object (marshal'd by
    the artifact cache) and ``plan`` carries the wiring (slots, segment
    boundaries, phi movers, namespace bind specs) as indices into the
    function's blocks/instructions.  Nothing of the slow path is in
    either: ``_seg_slow`` renders it from ``fn`` like it does after a
    compile.  Every process-specific value the
    generated code needs (global ids, function addresses, callees,
    switch tables) is re-resolved against ``fn``'s module here.

    Raises :class:`EnginePlanError` when the plan does not match ``fn``
    (stale or corrupt cache entry) — the caller recompiles.
    """
    module = fn.parent
    if module is None:
        raise EnginePlanError(f"function @{fn.name} has no parent module")
    if plan.get("version") != EPLAN_VERSION:
        raise EnginePlanError(
            f"plan version {plan.get('version')} != {EPLAN_VERSION}"
        )
    try:
        if len(plan["blocks"]) != len(fn.blocks):
            raise EnginePlanError(
                f"plan has {len(plan['blocks'])} blocks, @{fn.name} has "
                f"{len(fn.blocks)}"
            )
        compiled = [CompiledBlock(bb) for bb in fn.blocks]
        ns = _base_namespace()
        for i, cb in enumerate(compiled):
            ns[f"_B{i}"] = cb
        refs: list[object] = []
        for name, spec in plan["binds"]:
            kind = spec[0]
            if kind == "const":
                ns[name] = spec[1]
            elif kind == "globalid":
                gv = module.globals.get(spec[1])
                if gv is None:
                    raise EnginePlanError(
                        f"plan references unknown global @{spec[1]}"
                    )
                refs.append(gv)
                ns[name] = id(gv)
            elif kind == "fa":
                target = module.functions.get(spec[1])
                if target is None:
                    raise EnginePlanError(
                        f"plan references unknown function @{spec[1]}"
                    )
                refs.append(target)
                ns[name] = engine.address_of(target)
            elif kind == "callee":
                target = module.functions.get(spec[1])
                if target is None:
                    raise EnginePlanError(
                        f"plan references unknown function @{spec[1]}"
                    )
                refs.append(target)
                ns[name] = target
            elif kind == "inst":
                ns[name] = fn.blocks[spec[1]].instructions[spec[2]]
            elif kind == "switch":
                ns[name] = {
                    value: compiled[bi] for value, bi in spec[1]
                }
            else:
                raise EnginePlanError(f"unknown bind spec {spec!r}")

        exec(code, ns)

        for cb, plan_block in zip(compiled, plan["blocks"]):
            if (
                len(cb.segments) != len(plan_block["segments"])
                or cb.nphis != plan_block["nphis"]
                or (cb.terminator is None) != (plan_block["term"] is None)
            ):
                raise EnginePlanError(
                    f"plan does not match block %{cb.bb.name} of @{fn.name}"
                )
        _wire(compiled, plan["blocks"], ns)
    except EnginePlanError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise EnginePlanError(f"corrupt plan for @{fn.name}: {error}")
    return CompiledFunction(
        fn, plan["nslots"], tuple(plan["arg_slots"]), compiled[0],
        tuple(compiled), refs, plan, code,
    )


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
                cf = _Compiler(self, fn).compile()
            self.functions[id(fn)] = cf
            STATS.count("engine.compiles")
            STATS.count("engine.blocks_lowered", len(cf.blocks))
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

    # -- execution -------------------------------------------------------------

    def call(self, st, fn: Function, args: list[object]):
        """Execute one defined function on interpreter state ``st``."""
        cf = self.functions.get(id(fn))
        if cf is None:
            cf = self.compiled(fn)
        else:
            STATS.count("engine.cache_hits")
        regs = [None] * cf.nslots
        allocs: list = []
        regs[0] = allocs
        for slot, value in zip(cf.arg_slots, args):
            regs[slot] = value
        try:
            return self._run(st, cf, regs)
        finally:
            memory = st.memory
            for alloc in allocs:
                if alloc.alive:
                    memory.release(alloc.base)

    def _seg_slow(self, st, fn, seg, regs):
        """Per-instruction execution of the segment in which a run
        crosses its step limit: the exact reference accounting order
        (charge, check, execute)."""
        ops = seg.ops
        if not ops:
            ops = seg.ops = _Compiler(self, fn).slow_ops(seg.run)
            STATS.count("engine.slow_segments")
        result = st.result
        limit = st.step_limit
        costs = seg.costs
        clock = st.clock_period
        for i in range(len(ops)):
            result.steps += 1
            if result.steps > limit:
                raise StepLimitExceeded(f"exceeded {limit} steps")
            cost = costs[i]
            result.cycles += cost
            st.weighted_cycles += cost * clock
            ops[i](st, regs)

    def _run(self, st, cf, regs):
        result = st.result
        limit = st.step_limit
        profile = st.block_profile
        edges = profile.edges if profile is not None else None
        block = cf.entry
        prev = None
        executed = 0
        seg = None
        base = 0  # result.steps when ``seg`` started
        try:
            while True:
                executed += 1
                if edges is not None:
                    edges[prev and prev.bb][block.bb] += 1
                nphis = block.nphis
                if nphis:
                    mover = (
                        block.movers.get(id(prev.bb))
                        if prev is not None
                        else None
                    )
                    if mover is None or result.steps + nphis > limit:
                        _phis_slow(st, block, prev)
                    else:
                        mover(st, regs)
                        result.steps += nphis
                for seg in block.segments:
                    base = result.steps
                    if base + seg.steps <= limit:
                        result.steps = base + seg.steps
                        cycles = seg.cycles
                        result.cycles += cycles
                        st.weighted_cycles += cycles * st.clock_period
                        seg.fused(st, regs)
                    else:
                        self._seg_slow(st, cf.fn, seg, regs)
                result.steps += 1
                if result.steps > limit:
                    raise StepLimitExceeded(f"exceeded {limit} steps")
                cost = block.term_cost
                result.cycles += cost
                st.weighted_cycles += cost * st.clock_period
                next_block = block.term_op(st, regs)
                if next_block is None:
                    return regs[1]
                prev = block
                block = next_block
        except (MemoryTrap, ExitProgram):
            # Partial-frame record (see ``BlockProfile``).  The trap
            # sites already gave back the unexecuted tail, so what
            # ``seg`` accounted is a subtraction; the cap makes a call
            # segment its one instruction however long the callee ran.
            if profile is not None:
                accounted = block.nphis + min(result.steps - base, seg.steps)
                for earlier in block.segments:
                    if earlier is seg:
                        break
                    accounted += earlier.steps
                profile.partial.append((block.bb, accounted))
            raise
        finally:
            STATS.count("engine.blocks_compiled", executed)


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
