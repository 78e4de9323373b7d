"""The engine's compiler: one generated Python function per IR function.

The reference interpreter (:mod:`repro.interp.interp`) re-resolves every
operand, re-dispatches on instruction class, and re-reads the cost table
on every step.  The compiled engine removes all of that from the hot path by
*compiling* each :class:`~repro.ir.module.Function` once, on its first
call, to one Python function ``_fn(st, *args)``:

* **registers are locals** — every SSA value is a Python local
  (``x<n>``), the IR arguments are the parameters, constants are folded
  into the source as literals.
* **control flow is inline** — the body is ``while True:`` over a local
  block index ``b``, dispatched through a *binary* ``if b < key`` tree
  (depth log2 of the block count, so neither CPython's nesting limit nor
  its recursive compiler bounds the size of a function); a terminator
  assigns ``b``.  A block whose one predecessor is another block runs
  *in place*: rendered once, inside the branch of that predecessor that
  enters it, after the edge's counter, phi move and ``b``, so the loop
  goes round the tree only to enter a block with several predecessors
  (or none, or itself).  Only those are leaves of the tree, keyed by
  block index.  :data:`_NESTING_CAP` bounds how deep a leaf's in-place
  blocks nest; the block past it is a leaf of its own.  A block's phis
  are one tuple assignment on the CFG edge that enters it (all sources
  are read before any destination is written, so phi cycles stay
  atomic).
* **accounting lives in two locals** — ``room`` mirrors ``step_limit -
  result.steps`` and ``dc`` holds the cycles charged since the last
  *sync*.  A *charge unit* (a run of instructions that a call or the
  terminator ends, absorbing the block's phis when it is the first)
  charges its pre-summed cost in one subtraction and one addition.  The
  locals are written back to ``st.result`` before every call (intrinsics
  observe ``result.cycles`` — ``os_callback``, the HELIX markers — and
  ``clock_set`` changes the period), at ``ret``, and before every
  ``raise``.  A cold raise site is ``at = N`` and one statement,
  ``raise _trap(st, room + K, dc - C, <exception>)``: the helper syncs
  minus the not-yet-executed remainder of the unit (the compile-time
  constants ``K``, ``C``) and hands the exception back, so a trapping
  run reports byte-identical ``steps``/``cycles`` to the reference
  walker.
* **one trap table** — a load is one line, ``x = mem[a]``, whose
  invalid address raises the host's ``KeyError``; an integer instruction
  given a float raises the host's ``TypeError`` on the line that assigns
  its local.  A function with such lines catches both once, and
  :func:`_fault` maps the raising line to its instruction's site (a
  ``const`` bind of line -> ``(at, K, C)``); the instruction decides the
  trap — the walker's invalid-address ``MemoryTrap`` for a load's
  ``KeyError``, its ``OperandTrap`` for an integer instruction's
  ``TypeError`` — raised from the site.  Any other ``KeyError`` or
  ``TypeError`` (a callee's, an intrinsic handler's) propagates
  untouched.
* **calls are Python calls** — a direct call to a defined function is
  one call through the callee's *cell* (``_D<k>[0](st, x1, x2)``), a
  list the :class:`ExecutionEngine` owns per callee and per code table
  whose first slot holds the callee's ``func``, or a trampoline that
  compiles the callee, fills the cell and calls it.  A call to a known
  intrinsic adds the intrinsic's cost to ``dc`` before the sync.  The
  seven parallel-region intrinsics — the HELIX iteration and segment
  markers and, for a constant queue id, the queue push/pop — are then
  code that updates the open region's record and the queues as their
  handlers do; any other intrinsic calls its handler through
  ``st.INTRINSICS``.  Indirect calls and unknown externals go through
  ``st.call_function``.
* **exact step budgets** — the one unit that does not fit under
  ``step_limit`` undoes nothing and executes nothing: it hands its
  ``locals()`` to a per-instruction *tail* (charge, check, execute — the
  reference :class:`~repro.interp.interp.StepLimitExceeded` boundary
  exactly).  Tails are not compiled with the function:
  :meth:`CompiledFunction.tail` renders one from the IR the first time a
  run crosses its limit in that unit, with the emitters that rendered
  the function, into a namespace of its own.  A tail always ends the run.
* **profile** — one local counter per CFG edge, bumped where the edge is
  taken and always on.  The frame's exit adds their sum to
  ``st.blocks_compiled`` (``engine.blocks_compiled``, flushed once per
  ``Interpreter.run``) and, only when ``Interpreter.block_profile`` is
  set (:class:`~repro.interp.interp.BlockProfile`), adds them into the
  function's totals there: the list ``totals[_E]``, keyed by the
  function's edge table (an :class:`~repro.interp.engine.EdgeTable`,
  bound once per function by ``hydrate_function``), one statement per
  counter up to :data:`_UNROLLED_COUNTERS` and one ``_tally`` call
  above.  ``Interpreter.run`` folds the totals into the profile's
  ``edges`` once, when the run ends.  The profiled and the plain run
  execute the same code.  An indirect call counts its target in the
  profile too.  A local
  ``at`` — set on the cold raise paths and before each call — is the
  partial-frame position a ``MemoryTrap`` or ``exit()`` unwinding
  through the frame records.
* **known-int elision** — an optimistic fixpoint finds the SSA values
  that can only ever hold a Python ``int``.  The function-pointer test
  of ``icmp`` and the address test (one ``_bad_address`` call names
  what the address is instead) are emitted for the others only, and the
  address test once per block: at a pointer's first use there, which
  every later use in the block follows.  A
  result that is an int whenever it evaluates — known-int operands, or
  an expression that raises on anything else (``&``, ``|``, ``^``,
  shifts, ``zext``) — wraps in one statement with an in-range fast path,
  ``x = w_ if -H <= (w_ := raw) < H else (w_ + H & M) - H``; any other
  keeps the mask-first two statements, whose ``&`` raises the walker's
  ``TypeError`` on a float.  A result in range of every int operand
  (``&`` of a non-negative constant, ``lshr`` by a constant, ``zext``,
  ``srem`` by a positive constant) is not wrapped at all; a constant
  divisor is not tested for zero.  An ``icmp`` of two known ints read
  only by the branch after it is that branch's test, with no local.
* **no copies** — operands are read where they are used; only a
  global's address is copied, where it is read twice, and a pointer
  cast has no local at all.  Scratch values share ``a_``, ``b_``,
  ``r_``, ``t_`` and ``w_``, each read only by the instruction that
  wrote it.
* **observers** — compiled with the ``observed`` flag, the same emitters
  also call the interpreter's ``memory_observer(kind, address, inst)``
  on every load and store (after the address checks, before the
  invalid-address trap: the walker's order) and its
  ``edge_observer(src, dst)`` on every CFG edge (before the phi move).
  Without the flag not one character of the source changes.

The compiler is imported where a function is compiled
(:meth:`~repro.interp.engine.ExecutionEngine.compiled`) or a tail is
rendered; a process that only adopts plans from the artifact cache
never imports it.
"""

from __future__ import annotations

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
from ..ir.module import Function
from ..ir.ranges import fits, result_range, span_of
from ..ir.types import ArrayType, IntType, StructType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
)
from .engine import EPLAN_VERSION, _int_instruction, _shape
from .interp import INSTRUCTION_COSTS, INTRINSIC_COSTS, _SEGMENT_MARKER_CYCLES
from .semantics import InterpError

_TERMINATORS = (Branch, CondBranch, Switch, Ret, Unreachable)

#: How deep a block may run in place: the levels of in-place blocks and
#: of the branches they sit under, counted from their dispatch leaf.  A
#: block past it is a leaf of its own.  It bounds both the indentation
#: of the source (CPython refuses 100 levels) and the compiler's own
#: recursion along a chain of blocks.
_NESTING_CAP = 32

#: The most counters (the entry's and one per CFG edge) a frame's exit
#: adds into its function's profile totals one statement each; a frame
#: with more hands them to one ``_tally`` call.  Half the registry's
#: functions have at most 5 counters and nine in ten at most 12, so the
#: unrolled form covers the small, often-called functions without
#: lengthening the source of the large ones: ``compile()`` of the
#: generated code does not measurably grow.  Both forms stay because
#: the statements are faster: 0.35–0.5 µs less per frame than the call
#: (1 to 13 counters, CPython 3.11), which is 11 against 53 ms of
#: profile cost per training pass over the registry.
_UNROLLED_COUNTERS = 8

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


def _is_copy(inst) -> bool:
    """A cast that passes its operand through: it has no local, and
    what reads it reads the operand."""
    return isinstance(inst, Cast) and inst.opcode in _COPY_CASTS


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
    bind specs for :func:`_namespace`.  ``observed`` adds the observer
    calls; it changes nothing else."""

    def __init__(self, fn: Function, observed: bool = False):
        self.fn = fn
        self.observed = observed
        self._unique = 0
        #: (name, spec) pairs for every process-specific object the
        #: generated code reads from its namespace.
        self.binds: list[tuple[str, tuple]] = []
        self._global_names: dict[int, str] = {}
        self._cell_names: dict[int, str] = {}
        #: (source block, target block) -> its counter's number; 0 is
        #: the function entry.
        self.edges: dict[tuple[int, int], int] = {}
        #: local -> the ``(at, steps, cycles)`` site of the load, or of
        #: the integer instruction whose operands may not be ints, that
        #: assigns it (see :func:`_fault`).
        self._sites: dict[str, tuple[int, int, int]] = {}
        #: ids of the pointers whose address test the current block ran.
        self._tested: set[int] = set()
        #: id of a fused ``icmp`` -> its test, read by its branch.
        self._tests: dict[int, str] = {}
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
        #: Indices of the blocks rendered so far (each is rendered once),
        #: and of the leaves of the dispatch tree, which :meth:`source`
        #: fills.
        self._rendered: set[int] = set()
        self.leaves: list[int] = []
        preds: dict[int, set[int]] = {}  # id(block) -> its predecessors
        nslots = 0
        for arg in fn.args:
            self.slots[id(arg)] = nslots
            nslots += 1
        for bi, block in enumerate(fn.blocks):
            self._block_index[id(block)] = bi
            for inst in block.instructions:
                if not (inst.type.is_void() or _is_copy(inst)):
                    self.slots[id(inst)] = nslots
                    nslots += 1
                if isinstance(inst, Alloca):
                    self._has_allocs = True
                elif isinstance(inst, (Load, Store)):
                    self._has_memory = True
            nphis, runs = _split_units(block)
            self._nphis.append(nphis)
            # The terminator the code runs: what follows it is dead.
            term = runs[-1][-1] if runs[-1] else None
            if isinstance(term, _TERMINATORS):
                for target in term.successors():
                    preds.setdefault(id(target), set()).add(bi)
            first = len(self.units)
            position = nphis
            for ui, run in enumerate(runs):
                self.units.append((bi, 0 if ui else nphis, position, run))
                position += len(run)
            self._block_units.append(range(first, len(self.units)))
        #: The blocks that may run in place: every one but the entry
        #: whose one predecessor is not itself.
        self._in_place = {
            bi for bi, block in enumerate(fn.blocks)
            if bi and len(p := preds.get(id(block), ())) == 1 and bi not in p
        }

    # -- small helpers ---------------------------------------------------------

    def _bind(self, prefix: str, spec: tuple) -> str:
        self._unique += 1
        name = f"{prefix}{self._unique}"
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
        if _is_copy(v):
            return self._expr(v.value)
        raise InterpError(f"cannot evaluate {v!r}")

    def _operand(self, v, scratch: str, lines: list[str], tested=False) -> str:
        """``v`` as an expression to read more than once: a local, a
        literal or a bound name as it is.  A global's address, itself an
        expression, is copied to ``scratch`` — and so is anything but a
        name when its ``__class__`` is ``tested``."""
        expr = self._expr(v)
        if expr.startswith("st.globals[") or tested and not expr.isidentifier():
            lines.append(f"{scratch} = {expr}")
            return scratch
        return expr

    def _inst(self, inst) -> str:
        """The instruction object itself, bound by position."""
        block = inst.parent
        return self._bind("_X", (
            "inst", self._block_index[id(block)], block.instructions.index(inst),
        ))

    def _cell(self, callee: Function) -> str:
        """The name of the cell a direct call to ``callee`` goes through."""
        name = self._cell_names.get(id(callee))
        if name is None:
            name = self._bind("_D", ("direct", callee.name))
            self._cell_names[id(callee)] = name
        return name

    def _holds_int(self, v) -> bool:
        """True when the operand is provably a Python int at run time,
        so the checks for the other things a value can be are dead."""
        return id(v) in self._known or isinstance(
            v, (ConstantInt, ConstantNull, UndefValue, GlobalVariable)
        )

    # -- instruction bodies ----------------------------------------------------
    #
    # Each emitter returns body lines.  ``site`` is where a raise in the
    # instruction stands: ``(at, steps, cycles)``, its position in the
    # block and the not-yet-executed remainder of its unit.  A unit
    # charges its whole cost up front, so a raise must sync without that
    # remainder to stay byte-identical with the reference interpreter.
    # A tail passes None: it accounts per instruction and sets ``at``.
    # Scratch values live in ``a_``, ``b_``, ``r_``, ``t_`` and ``w_``,
    # each read only by the instruction that wrote it.

    @staticmethod
    def _raise(indent: str, site, error: str) -> list[str]:
        """Raise the exception ``error`` (an expression) at ``site``."""
        if site is None:
            return [f"{indent}raise {error}"]
        at, steps, cycles = site
        room = f"room + {steps}" if steps else "room"
        dc = f"dc - {cycles}" if cycles else "dc"
        return [
            f"{indent}at = {at}",
            f"{indent}raise _trap(st, {room}, {dc}, {error})",
        ]

    def _emit(self, inst, site) -> list[str]:
        if isinstance(inst, BinaryOp):
            return self._emit_binary(inst, site)
        if isinstance(inst, ICmp):
            return self._emit_icmp(inst, site)
        if isinstance(inst, FCmp):
            sym = _FCMP_SYMBOLS[inst.predicate]
            a, b = self._expr(inst.lhs), self._expr(inst.rhs)
            return [f"{self._expr(inst)} = 1 if ({a}) {sym} ({b}) else 0"]
        if isinstance(inst, Alloca):
            size = inst.allocated_type.size_in_slots()
            return [
                f"a_ = st.memory.allocate({size}, 'stack')",
                "allocs.append(a_)",
                f"{self._expr(inst)} = a_.base",
            ]
        if isinstance(inst, Load):
            return self._emit_load(inst, site)
        if isinstance(inst, Store):
            return self._emit_store(inst, site)
        if isinstance(inst, ElemPtr):
            return self._emit_elem_ptr(inst, site)
        if isinstance(inst, Select):
            c = self._expr(inst.condition)
            t = self._expr(inst.true_value)
            f = self._expr(inst.false_value)
            return [f"{self._expr(inst)} = ({t}) if ({c}) else ({f})"]
        if isinstance(inst, Cast):
            return self._emit_cast(inst, site)
        # Mirrors the reference walker's "cannot execute" arm (also hit
        # by a phi that is not in leading position).
        name = self._inst(inst)
        return self._raise(
            "", site, f"InterpError('cannot execute %r' % ({name},))"
        )

    @staticmethod
    def _wrap(
        target: str, raw: str, width: int, is_int: bool, in_range=False
    ) -> list[str]:
        """Inline ``wrap_int``.  A ``raw`` that is an int whenever it
        evaluates (``is_int``: its operands are, or it raises on
        anything else) is one statement with an in-range fast path, or
        no wrap when it is ``in_range`` of every int operand (as
        :mod:`repro.ir.ranges` proves it).  Any other
        masks first, so a float raises the walker's ``TypeError`` there,
        then adjusts the sign."""
        full = 1 << width
        half = full >> 1
        mask = full - 1
        if in_range:
            return [f"{target} = {raw}"]
        if is_int:
            return [
                f"{target} = w_ if {-half} <= (w_ := {raw}) < {half} "
                f"else (w_ + {half} & {mask}) - {half}"
            ]
        return [
            f"{target} = {raw} & {mask}",
            f"{target} = {target} - {full} if {target} >= {half} else {target}",
        ]

    def _emit_binary(self, inst, site):
        op = inst.opcode
        d = self._expr(inst)
        if op.startswith("f"):
            a = self._expr(inst.lhs)
            if op == "fdiv":
                lines: list[str] = []
                b = self._operand(inst.rhs, "b_", lines)
                return lines + [f"{d} = ({a}) / {b} if {b} != 0 else _INF"]
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            return [f"{d} = ({a}) {sym} ({self._expr(inst.rhs)})"]
        ty = inst.type
        assert isinstance(ty, IntType)
        w = ty.width
        ints = self._holds_int(inst.lhs) and self._holds_int(inst.rhs)
        rhs = inst.rhs.value if isinstance(inst.rhs, ConstantInt) else None
        in_range = fits(
            result_range(op, span_of(inst.lhs, w), span_of(inst.rhs, w), w), w
        )
        if op in ("sdiv", "srem"):
            # Truncate toward zero (C semantics) in exact integer
            # arithmetic: a float quotient is wrong above 2**53.
            sym = "//" if op == "sdiv" else "%"
            lines = []
            a = self._operand(inst.lhs, "a_", lines)
            b = self._operand(inst.rhs, "b_", lines)
            if not rhs:
                noun = "division" if op == "sdiv" else "remainder"
                lines.append(f"if {b} == 0:")
                lines += self._raise(
                    "    ", site, f"InterpError('{noun} by zero')"
                )
            # Whether the signs differ: ``^`` tells, and raises on
            # anything but ints; by a positive constant, an int
            # dividend's own sign tells.
            if ints and rhs and rhs > 0:
                sign = f"{a} >= 0"
            else:
                sign = f"({a} ^ {b}) >= 0"
            raw = f"({a} {sym} {b} if {sign} else -(-{a} {sym} {b}))"
            return lines + self._wrap(d, raw, w, True, in_range)
        template = _BINARY_EXPRS.get(op)
        if template is None:
            return self._raise(
                "", site, f"InterpError('unknown binary op {op}')"
            )
        a, b = self._expr(inst.lhs), self._expr(inst.rhs)
        raw = template.format(a=a, b=b, w=w, m=(1 << w) - 1)
        # Only ``+``, ``-`` and ``*`` take a float without complaint.
        is_int = ints or op not in ("add", "sub", "mul")
        return self._wrap(d, raw, w, is_int, in_range)

    def _compare(self, inst, a: str, b: str) -> str:
        """``icmp``'s test of the operand expressions ``a`` and ``b``."""
        pred = inst.predicate
        if pred[0] != "u":
            return f"({a}) {_ICMP_SYMBOLS[pred]} ({b})"
        width = (
            inst.lhs.type.width if isinstance(inst.lhs.type, IntType) else 64
        )
        mask = (1 << width) - 1
        sym = _ICMP_SYMBOLS["s" + pred[1:]]
        return f"({a}) & {mask} {sym} ({b}) & {mask}"

    def _emit_icmp(self, inst, site):
        d = self._expr(inst)
        lines: list[str] = []
        checks = []
        operands = []
        for v, scratch in ((inst.lhs, "a_"), (inst.rhs, "b_")):
            if self._holds_int(v):
                operands.append(self._expr(v))
            else:
                operands.append(self._operand(v, scratch, lines, tested=True))
                checks.append(f"{operands[-1]}.__class__ is _FunctionAddress")
        a, b = operands
        test = f"1 if {self._compare(inst, a, b)} else 0"
        if not checks:
            return [f"{d} = {test}"]
        lines.append("if " + " or ".join(checks) + ":")
        lines.append(f"    r_ = _fa_cmp({inst.predicate!r}, {a}, {b})")
        lines.append("    if r_ < 0:")
        lines += self._raise(
            "        ",
            site,
            "InterpError('ordered comparison of function pointers')",
        )
        lines.append(f"    {d} = r_")
        lines.append("else:")
        lines.append(f"    {d} = {test}")
        return lines

    def _fuses(self, inst, following) -> bool:
        """An ``icmp`` of two ints that only the branch ``following`` it
        reads: the branch tests it in place, and it has no local."""
        return (
            isinstance(inst, ICmp)
            and isinstance(following, CondBranch)
            and following.condition is inst
            and inst.num_uses() == 1
            and self._holds_int(inst.lhs)
            and self._holds_int(inst.rhs)
        )

    def _address(self, pointer, site, lines: list[str], reads=1) -> str:
        """The expression of ``pointer`` as a checked address, mirroring
        ``Interpreter._as_address``; the check is elided for an operand
        that provably holds an int.  A global's address, an expression,
        is copied to ``a_`` when the caller ``reads`` it twice.  A pointer
        is tested at its first use in a block only: every later use
        there runs after that test passed."""
        if self._holds_int(pointer) or id(pointer) in self._tested:
            if reads > 1:
                return self._operand(pointer, "a_", lines)
            return self._expr(pointer)
        self._tested.add(id(pointer))
        a = self._operand(pointer, "a_", lines, tested=True)
        lines.append(f"if {a}.__class__ is not int:")
        lines += self._raise("    ", site, f"_bad_address({a})")
        return a

    def _observe_access(self, kind: str, inst, a: str) -> list[str]:
        """The memory observer's call on the checked address ``a``."""
        if not self.observed:
            return []
        return [f"_MO({kind!r}, {a}, {self._inst(inst)})"]

    def _emit_load(self, inst, site):
        """One line, whose ``KeyError`` the trap table maps to ``site``;
        a tail (no site) catches it in place."""
        lines: list[str] = []
        a = self._address(inst.pointer, site, lines)
        lines += self._observe_access("load", inst, a)
        d = self._expr(inst)
        if site is not None:
            self._sites[d] = site
            return lines + [f"{d} = mem[{a}]"]
        return lines + [
            "try:",
            f"    {d} = mem[{a}]",
            "except KeyError:",
            f"    raise MemoryTrap('load from invalid address %d' % {a}) from None",
        ]

    def _emit_store(self, inst, site):
        lines: list[str] = []
        a = self._address(inst.pointer, site, lines, reads=2)
        lines += self._observe_access("store", inst, a)
        lines.append(f"if {a} in mem:")
        lines.append(f"    mem[{a}] = {self._expr(inst.value)}")
        lines.append("else:")
        lines += self._raise(
            "    ", site, f"MemoryTrap('store to invalid address %d' % {a})"
        )
        return lines

    def _emit_elem_ptr(self, inst, site):
        lines: list[str] = []
        a = self._address(inst.base, site, lines)
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
                    "", site, f"InterpError('bad elem_ptr into {current}')"
                )
        if constant or not terms:
            terms.append(str(constant))
        lines.append(f"{self._expr(inst)} = {a} + " + " + ".join(terms))
        return lines

    def _emit_call(self, inst, site):
        """A call ends its unit: the frame's accounting is written back
        before it (the callee and the intrinsics account on ``st``) and
        read again after.  A defined callee is called through its cell;
        a known intrinsic's cost joins the sync, where the walker
        charges it too; a region marker is then code (:meth:`_marker`),
        and any other intrinsic's handler comes from ``st.INTRINSICS``.
        An indirect call, counted by target into the block profile, and
        an unknown external go through ``st.call_function``."""
        args = [self._expr(a) for a in inst.args]
        listed = "[" + ", ".join(args) + "]"
        store = "" if inst.type.is_void() else f"{self._expr(inst)} = "
        callee = inst.called_function()
        lines: list[str] = []
        counted = []
        if callee is None:
            t = self._operand(inst.callee, "t_", lines, tested=True)
            lines.append(f"if {t}.__class__ is not _FunctionAddress:")
            lines += self._raise(
                "    ",
                site,
                f"MemoryTrap('indirect call to non-function %r' % ({t},))",
            )
            counted = [
                "if st.block_profile is not None:",
                f"    st.block_profile.indirect[{t}.fn] += 1",
            ]
            call = f"st.call_function({t}.fn, {listed})"
        elif not callee.is_declaration():
            call = f"{self._cell(callee)}[0](" + ", ".join(["st", *args]) + ")"
        elif callee.name in INTRINSIC_COSTS:
            if INTRINSIC_COSTS[callee.name]:
                lines.append(f"dc += {INTRINSIC_COSTS[callee.name]}")
            marker = self._marker(callee.name, inst.args, store)
            if marker is not None:
                return lines + [*_SYNC, *marker, "dc = 0"]
            call = f"st.INTRINSICS[{callee.name!r}][1](st, {listed})"
        else:
            target = self._bind("_F", ("callee", callee.name))
            call = f"st.call_function({target}, {listed})"
        return lines + [
            *_SYNC,
            f"at = {site[0]}",
            *counted,
            store + call,
            "room = limit - result.steps",
            "dc = 0",
        ]

    def _marker(self, name: str, args, store: str) -> list[str] | None:
        """The region intrinsic ``name`` as code that runs after the
        call's sync, or None for any other intrinsic and for a queue or
        segment id that is not a constant.  Each mirrors its handler in
        :mod:`repro.interp.interp`, which stays the spec: it updates the
        open region's record, or the interpreter's queues, the same way.
        It calls nothing that can unwind through the frame but the
        empty-queue ``InterpError``, so it sets no ``at``, and it leaves
        the step count as it is, so ``room`` is not read back."""
        first = args[0] if args else None
        qid = first.value if isinstance(first, ConstantInt) else None
        if name == "helix_iter_boundary":
            lines = [
                "r_ = st.region",
                "if r_ is not None:",
                "    t_ = result.cycles",
                "    r_.iteration_cycles.append(t_ - r_.iteration_start)",
                "    r_.iteration_start = t_",
                "    r_.segment_cycles.append({})",
            ]
        elif name == "helix_seq_end":
            lines = [
                "r_ = st.region",
                "if r_ is not None and r_.open_segments:",
                "    a_, b_ = r_.open_segments.pop()",
                "    w_ = r_.segment_cycles[-1]",
                "    w_[a_] = w_.get(a_, 0) + max(0, result.cycles - b_ - "
                f"{_SEGMENT_MARKER_CYCLES})",
            ]
        elif qid is None:
            return None
        elif name == "helix_seq_begin":
            lines = [
                "r_ = st.region",
                "if r_ is not None:",
                f"    r_.open_segments.append(({qid}, result.cycles))",
            ]
        elif name in ("queue_push_i64", "queue_push_f64") and len(args) > 1:
            lines = [
                f"t_ = st._queues.get({qid})",
                f"if t_ is None: t_ = st._queues[{qid}] = _deque()",
                f"t_.append({self._expr(args[1])})",
                "r_ = st.region",
                "if r_ is not None: r_.queued[-1] += 1",
            ]
        elif name in ("queue_pop_i64", "queue_pop_f64"):
            error = repr(f"pop from empty queue {qid}")
            return [
                f"t_ = st._queues.get({qid})",
                f"if not t_: raise InterpError({error})",
                store + "t_.popleft()",
            ]
        else:
            return None
        if store:  # a marker's handler returns None
            lines.append(store + "None")
        return lines

    def _emit_cast(self, inst, site):
        if _is_copy(inst):
            return []  # its uses read its operand
        d = self._expr(inst)
        op = inst.opcode
        v = self._expr(inst.value)
        if op in ("trunc", "sext"):
            return self._wrap(
                d, f"({v})", inst.type.width, self._holds_int(inst.value)
            )
        if op == "zext":
            width = inst.value.type.width
            unwrapped = result_range(op, span_of(inst.value, width), None, width)
            return self._wrap(
                d, f"({v}) & {(1 << width) - 1}", inst.type.width, True,
                fits(unwrapped, inst.type.width),
            )
        if op == "sitofp":
            return [f"{d} = float({v})"]
        if op == "fptosi":
            return self._wrap(d, f"int({v})", inst.type.width, True)
        return self._raise("", site, f"InterpError('unknown cast {op}')")

    # -- control flow ----------------------------------------------------------

    def _edge(self, src: int, target, depth: int) -> list[str]:
        """Take the CFG edge from block ``src``: bump its counter, tell
        the edge observer, move the target's phis, set the block index.
        A target whose one predecessor is ``src`` then runs in place,
        unless the edge already nests ``depth`` levels deep in its leaf
        (see :data:`_NESTING_CAP`)."""
        dst = self._block_index[id(target)]
        counter = self.edges.setdefault((src, dst), len(self.edges) + 1)
        lines = [f"e{counter} += 1"]
        if self.observed:
            lines.append(f"_EO(_BB[{src}], _BB[{dst}])")
        phis = target.instructions[:self._nphis[dst]]
        if phis:
            pred = self.fn.blocks[src]
            try:
                values = [
                    self._expr(phi.incoming_value_for(pred)) for phi in phis
                ]
            except KeyError as error:  # a broken edge: the walker's error
                return lines + [
                    f"raise _trap(st, room, dc, KeyError({error.args[0]!r}))"
                ]
            lines.append(
                ", ".join(map(self._expr, phis)) + " = " + ", ".join(values)
            )
        lines.append(f"b = {dst}")
        if (
            dst in self._in_place
            and dst not in self._rendered
            and depth < _NESTING_CAP
        ):
            lines += self._block(dst, depth + 1)
        return lines

    def _tree(self, var: str, leaves: list[tuple], lo=0, hi=None):
        """``leaves``, ``(key, lines)`` pairs in key order, as a binary
        tree of ``if var < key`` that runs the lines of ``var``'s key."""
        if hi is None:
            hi = len(leaves)
        if hi - lo == 1:
            return leaves[lo][1]
        mid = (lo + hi) // 2
        return [
            f"if {var} < {leaves[mid][0]}:",
            *("    " + line for line in self._tree(var, leaves, lo, mid)),
            "else:",
            *("    " + line for line in self._tree(var, leaves, mid, hi)),
        ]

    def _emit_terminator(self, inst, src: int, site, depth: int) -> list[str]:
        if isinstance(inst, Ret):
            value = "None" if inst.value is None else self._expr(inst.value)
            return [*_SYNC, f"return {value}"]
        if isinstance(inst, Unreachable):
            return self._raise(
                "", site, "InterpError('executed unreachable')"
            )
        if isinstance(inst, Branch):
            return self._edge(src, inst.target, depth)
        if isinstance(inst, CondBranch):
            if inst.true_block is inst.false_block:
                return self._edge(src, inst.true_block, depth)
            test = self._tests.get(id(inst.condition))
            true = self._edge(src, inst.true_block, depth + 1)
            false = self._edge(src, inst.false_block, depth + 1)
            return [
                f"if {test or self._expr(inst.condition)}:",
                *("    " + line for line in true),
                "else:",
                *("    " + line for line in false),
            ]
        assert isinstance(inst, Switch)
        # One arm per distinct target; the first case of a value wins.
        arms = {id(inst.default): inst.default}
        table = {}
        for const, target in inst.cases():
            arms.setdefault(id(target), target)
            table.setdefault(const.value, list(arms).index(id(target)))
        depth += (len(arms) - 1).bit_length()  # the levels of its tree
        leaves = [self._edge(src, target, depth) for target in arms.values()]
        if len(leaves) == 1:
            return leaves[0]
        name = self._bind("_SW", ("const", table))
        return [
            f"t_ = {name}.get({self._expr(inst.value)}, 0)",
            *self._tree("t_", list(enumerate(leaves))),
        ]

    # -- function assembly -----------------------------------------------------

    @staticmethod
    def _cost(inst) -> int:
        return INSTRUCTION_COSTS.get(inst.opcode, 1)

    def _block(self, bi: int, depth: int = 0) -> list[str]:
        """One block, ``depth`` levels into its leaf: per unit the
        charge, the tail site, the body."""
        self._rendered.add(bi)
        lines: list[str] = []
        inst = None
        self._tested.clear()
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
            for index, inst in enumerate(run):
                steps -= 1
                cycles -= self._cost(inst)
                site = (position + index + 1, steps, cycles)
                if isinstance(inst, _TERMINATORS):
                    lines += self._emit_terminator(inst, bi, site, depth)
                elif isinstance(inst, Call):
                    lines += self._emit_call(inst, site)
                elif index + 1 < len(run) and self._fuses(inst, run[index + 1]):
                    a, b = self._expr(inst.lhs), self._expr(inst.rhs)
                    self._tests[id(inst)] = self._compare(inst, a, b)
                else:
                    lines += self._emit(inst, site)
                    if _int_instruction(inst) and not all(
                        map(self._holds_int, inst.operands)
                    ):
                        self._sites[self._expr(inst)] = site
        if not isinstance(inst, _TERMINATORS):
            name = self.fn.blocks[bi].name
            error = f"AssertionError({f'block %{name} fell through'!r})"
            lines.append(f"raise _trap(st, room, dc, {error})")
        return lines

    def source(self) -> str:
        """The generated source of ``fn``, one ``def _fn``.  Rendering it
        fills ``binds``, ``edges`` and ``leaves``: one compiler renders
        it once."""
        fn = self.fn
        blocks = range(len(fn.blocks))
        # The leaves: the blocks that cannot run in place, then any
        # block those left unrendered — past the nesting cap, behind a
        # broken edge, or on an unreachable cycle.
        leaves = {}
        for bi in [*(b for b in blocks if b not in self._in_place), *blocks]:
            if bi not in self._rendered:
                leaves[bi] = self._block(bi)
        self.leaves = sorted(leaves)
        body = self._tree("b", sorted(leaves.items()))
        counters = [f"e{k}" for k in range(1, len(self.edges) + 1)]
        params = "".join(f", x{i}=None" for i in range(len(fn.args)))
        lines = [
            f"def _fn(st{params}, *_extra):",
            "    result = st.result",
            "    limit = st.step_limit",
            "    room = limit - result.steps",
            "    " + " = ".join(["dc", "at", "b", *counters]) + " = 0",
        ]
        if self.observed:  # read per frame: the namespace is per function
            lines.append("    _MO = st.memory_observer or _ignore")
            lines.append("    _EO = st.edge_observer or _ignore")
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
        ]
        # A load's invalid address raises KeyError, and an integer
        # instruction given a float TypeError, on the line that assigns
        # its local: the trap table maps those lines to their sites.
        sites = {}
        if self._sites:
            for lineno, line in enumerate(lines, 1):
                site = self._sites.get(line.lstrip().partition(" ")[0])
                if site is not None:
                    sites[lineno] = site
        if sites:
            name = self._bind("_TS", ("const", sites))
            lines += [
                "    except (TypeError, KeyError) as error:",
                f"        _fault(st, room, dc, _BB[b], error, {name})",
                "        raise",
            ]
        lines.append("    finally:")
        # The exit calls nothing unless the frame owns stack or a
        # profile is being taken.  The sum goes in slices: CPython's
        # compiler recurses once per ``+`` of an expression.
        terms = ["1", *counters]
        for start in range(0, len(terms), 64):
            lines.append(
                "        st.blocks_compiled += "
                + " + ".join(terms[start:start + 64])
            )
        if self._has_allocs:
            lines.append("        _release(st, allocs)")
        if len(terms) <= _UNROLLED_COUNTERS:
            lines += [
                "        if st.block_profile is not None:",
                "            t_ = st.block_profile.totals[_E]",
                *(f"            t_[{k}] += {term}" for k, term in enumerate(terms)),
            ]
        else:
            lines += [
                "        if st.block_profile is not None:",
                "            _tally(st.block_profile, _E, ("
                + "".join(f"{term}, " for term in terms) + "))",
            ]
        lines.append("")
        return "\n".join(lines)

    def compile(self):
        """The plan and code object of ``fn`` (see :func:`hydrate_function`)."""
        code = compile(self.source(), f"<engine:{self.fn.name}>", "exec")
        plan = {
            "version": EPLAN_VERSION,
            "shape": _shape(self.fn),
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
                lines += self._emit(inst, None)
        return "\n".join(lines) + "\n", self.binds, self.fn.blocks[bi]


