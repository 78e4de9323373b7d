"""The compiled execution engine: the runtime of generated code.

Every IR function runs as one generated Python function, which
:mod:`repro.interp.compiler` lowers it to (its docstring says what that
code does).  This module holds what the code needs to run: the helpers
it calls, the namespace its bind specs resolve into (:func:`_namespace`),
the one wiring step of a plan and its code object, for a compile and a
cache hydration alike (:func:`hydrate_function`), and the per-module
cache of compiled functions (:class:`ExecutionEngine`).  A process that
only adopts plans from the artifact cache imports neither the compiler
nor the reference walker.

Compiled functions are cached in a module-versioned
:class:`ExecutionEngine`, keyed by ``id(fn)`` with a strong reference to
the Function — the same keying discipline as the PDG shards.  The engine
hangs off its module (``Module.engine``, reached through
:func:`engine_for`), so the two are collected together; invalidation is
wired into ``Noelle.invalidate(fn)`` and the transactional pass
manager's rollback path via
:func:`invalidate_module`, which also re-arms (one function) or drops
(all) the cells direct calls go through, so a rolled-back module never
executes stale code.

This engine is the one executor a program runs on.  The tree-walking
interpreter is its reference, built only by an explicit
``engine="reference"``.
"""

from __future__ import annotations

from collections import deque
from operator import add

from ..ir.instructions import INT_BINARY_OPS, BinaryOp, Cast, ICmp, Load
from ..ir.module import Function, Module
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

#: Version of the serializable compilation plan (see
#: :func:`hydrate_function`); bump on any change to plan structure,
#: bind specs, or the generated-source conventions they index into.
EPLAN_VERSION = 9


class EnginePlanError(Exception):
    """A serialized compilation plan does not match this function (stale
    cache entry, version skew, or corrupt data) — callers treat it as a
    cache miss and recompile."""


_MODES = ("compiled", "reference")


def engine_mode(explicit: str | None = None) -> str:
    """Resolve the engine mode: ``compiled`` unless ``reference`` is
    asked for explicitly."""
    mode = explicit or "compiled"
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
    """Write a frame's accounting locals back to ``st``."""
    result = st.result
    result.steps = st.step_limit - room
    result.cycles += dc
    st.weighted_cycles += dc * st.clock_period


def _trap(st, room: int, dc: int, error: Exception) -> Exception:
    """A cold raise site's one call: sync, with the cost of the
    instructions after the site taken out of ``room`` and ``dc``, and
    hand back ``error`` to raise."""
    _sync(st, room, dc)
    return error


def _bad_address(value) -> MemoryTrap:
    """The trap of an address that is not an int, in the words of
    ``Interpreter._as_address``."""
    if value.__class__ is _FunctionAddress:
        return MemoryTrap("dereference of a function pointer")
    return MemoryTrap(f"non-integer address {value!r}")


def _int_instruction(inst) -> bool:
    """True for the instructions that stop with an ``OperandTrap`` when
    an operand is not an int: the integer binary ops, the unsigned
    ``icmp`` (the signed ones compare anything) and the integer casts."""
    if isinstance(inst, BinaryOp):
        return inst.opcode in INT_BINARY_OPS
    if isinstance(inst, ICmp):
        return inst.predicate[0] == "u"
    return isinstance(inst, Cast) and inst.opcode in INT_TO_INT_CASTS


def _fault(st, room: int, dc: int, block, error, sites) -> None:
    """A ``TypeError`` or ``KeyError`` caught by a frame: when the
    frame's own code raised it on a line of ``sites`` (line -> the
    ``(at, steps, cycles)`` of a load or an integer instruction), raise
    the trap of that instruction from its site — a load's ``KeyError``
    is its invalid address, an integer instruction's ``TypeError`` its
    ``OperandTrap``; else return, and the frame re-raises ``error``."""
    tb = error.__traceback__
    site = sites.get(tb.tb_lineno) if tb.tb_next is None else None
    if site is None:
        return
    at, steps, cycles = site
    inst = block.instructions[at - 1]
    if inst.__class__ is Load:
        if not isinstance(error, KeyError):
            return
        trap = MemoryTrap(f"load from invalid address {error.args[0]}")
    elif isinstance(error, TypeError):
        trap = _operand_trap(inst)
    else:
        return
    _sync(st, room + steps, dc - cycles)
    _partial(st, block, at)
    raise trap from None


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


def _release(st, allocs) -> None:
    """Free a frame's stack on its exit, normal or not."""
    for alloc in allocs:
        if alloc.alive:
            st.memory.release(alloc.base)


class EdgeTable(tuple):
    """A compiled function's CFG edges as ``(src, dst)`` block pairs, in
    the order of its frames' counters: ``(None, entry)`` first, then
    edge ``k`` of the plan at position ``k``.  Hashed by identity, it
    keys the function's totals in a
    :class:`~repro.interp.interp.BlockProfile` at the cost of a pointer."""

    __slots__ = ()
    __hash__ = object.__hash__


def _tally(profile, table, counts) -> None:
    """Add a frame's edge counters (``counts[0]`` is the entry's literal
    1) into its function's totals in ``profile``: the exit of a frame
    with too many counters to add one statement each."""
    totals = profile.totals[table]
    totals[:] = map(add, totals, counts)


def _ignore(*_event) -> None:
    """What observed code calls in place of an observer that is unset."""


_HELPERS = {
    "InterpError": InterpError,
    "MemoryTrap": MemoryTrap,
    "ExitProgram": ExitProgram,
    "_FunctionAddress": _FunctionAddress,
    "_fa_cmp": _fa_cmp,
    "_trap": _trap,
    "_bad_address": _bad_address,
    "_fault": _fault,
    "_charge": _charge,
    "_partial": _partial,
    "_release": _release,
    "_tally": _tally,
    "_ignore": _ignore,
    "_deque": deque,
    "_INF": float("inf"),
}


def _namespace(
    engine: "ExecutionEngine", fn: Function, binds, observed: bool = False
):
    """The namespace generated code executes against: the helpers plus
    every bind spec re-resolved against ``fn``'s module, a direct callee
    to its cell for ``observed`` code or for the other.  Returns it with
    the keep-alive references for objects whose ``id()`` it holds (id
    reuse would be fatal)."""
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
        elif kind in ("fa", "callee", "direct"):
            target = module.functions.get(spec[1])
            if target is None:
                raise EnginePlanError(
                    f"plan references unknown function @{spec[1]}"
                )
            if kind == "fa":
                ns[name] = engine.address_of(target)
            elif kind == "callee":
                ns[name] = target
            elif target.is_declaration():
                raise EnginePlanError(
                    f"plan calls @{spec[1]} directly, which has no body"
                )
            else:
                ns[name] = engine.cell(target, observed)
        else:
            raise EnginePlanError(f"unknown bind spec {spec!r}")
    return ns, refs


class CompiledFunction:
    """A function lowered to one generated Python function."""

    __slots__ = (
        "engine", "fn", "observed", "func", "refs", "plan", "code", "tails",
    )

    def __init__(self, engine, fn, refs, plan, code, observed=False):
        self.engine = engine
        self.fn = fn
        #: Compiled with the observer calls (tails are rendered with them).
        self.observed = observed
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
            from .compiler import _Compiler

            source, binds, block = _Compiler(self.fn, self.observed).tail(key)
            code = compile(source, f"<engine:{self.fn.name}:tail>", "exec")
            # A namespace of its own: the names a fresh compiler binds
            # are not the ones the function's code was compiled against.
            ns, _refs = _namespace(self.engine, self.fn, binds, self.observed)
            entry = self.tails[key] = (code, ns, block)
            STATS.count("engine.slow_segments")
        code, ns, block = entry
        try:
            exec(code, ns, frame)
        except MemoryTrap:
            _partial(st, block, frame["at"])
            raise
        except TypeError:
            # ``at`` names the instruction that raised it: a tail sets
            # it before each one.
            inst = block.instructions[frame["at"] - 1]
            if not _int_instruction(inst):
                raise
            _partial(st, block, frame["at"])
            raise _operand_trap(inst) from None
        raise AssertionError("a tail ended under the step limit")


def _shape(fn: Function) -> tuple:
    """What a plan must agree with ``fn`` on to be wired to it."""
    return tuple(len(block.instructions) for block in fn.blocks)


def hydrate_function(
    engine: "ExecutionEngine", fn: Function, plan: dict, code,
    observed: bool = False,
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
        ns, refs = _namespace(engine, fn, plan["binds"], observed)
        blocks = fn.blocks
        ns["_BB"] = tuple(blocks)
        ns["_E"] = EdgeTable((
            (None, blocks[0]),
            *((blocks[src], blocks[dst]) for src, dst in plan["edges"]),
        ))
        cf = CompiledFunction(engine, fn, refs, plan, code, observed)
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

    Observed code (:meth:`call_observed`) lives in a table of its own,
    ``observed``: invalidated with ``functions``, never adopted from
    the artifact cache and never published to it.

    Each table has its cells (:meth:`cell`): what a direct call in that
    table's code goes through.  Whatever replaces or drops a function's
    code re-arms its cells, so a caller that stays compiled never calls
    stale code; a full invalidation drops every cell with the code that
    named them.
    """

    def __init__(self) -> None:
        self.functions: dict[int, CompiledFunction] = {}
        self.observed: dict[int, CompiledFunction] = {}
        #: id(fn) -> ``fn``'s cell, for ``functions`` / ``observed`` code.
        self.cells: dict[int, list] = {}
        self.observed_cells: dict[int, list] = {}
        self.version = 0
        self._addresses: dict[int, _FunctionAddress] = {}

    def cell(self, fn: Function, observed: bool = False) -> list:
        """The cell direct calls to ``fn`` go through: ``[entry, fn]``,
        ``entry(st, *args)`` being ``fn``'s compiled ``func`` — until the
        first call through it, a trampoline that compiles ``fn`` and
        fills the cell.  ``fn`` pins the id the cell is keyed by."""
        cells = self.observed_cells if observed else self.cells
        cell = cells.get(id(fn))
        if cell is None:
            cell = cells[id(fn)] = [None, fn]
            self._arm(cell, observed)
        return cell

    def _arm(self, cell: list, observed: bool) -> None:
        def trampoline(st, *args):
            func = cell[0] = self.compiled(cell[1], observed).func
            return func(st, *args)

        cell[0] = trampoline

    def _rearm(self, fn: Function) -> None:
        """Put trampolines back into ``fn``'s cells: its code changed."""
        for cells, observed in ((self.cells, False), (self.observed_cells, True)):
            cell = cells.get(id(fn))
            if cell is not None:
                self._arm(cell, observed)

    def address_of(self, fn: Function) -> _FunctionAddress:
        """A canonical function-pointer value per Function (semantics
        only need name equality, but sharing avoids churn)."""
        address = self._addresses.get(id(fn))
        if address is None:
            address = _FunctionAddress(fn)
            self._addresses[id(fn)] = address
        return address

    def compiled(self, fn: Function, observed: bool = False) -> CompiledFunction:
        table = self.observed if observed else self.functions
        cf = table.get(id(fn))
        if cf is None:
            from .compiler import _Compiler

            with STATS.timer("engine.compile"):
                plan, code = _Compiler(fn, observed).compile()
                cf = hydrate_function(self, fn, plan, code, observed)
            table[id(fn)] = cf
            STATS.count("engine.compiles")
            STATS.count("engine.blocks_lowered", len(fn.blocks))
        return cf

    def adopt(self, fn: Function, plan: dict, code) -> CompiledFunction:
        """Install a cached compilation plan instead of compiling.

        Raises :class:`EnginePlanError` when the plan is stale — the
        caller falls back to :meth:`compiled`.
        """
        cf = hydrate_function(self, fn, plan, code)
        self.functions[id(fn)] = cf
        self._rearm(fn)
        STATS.count("engine.hydrations")
        return cf

    def invalidate(self, fn: Function | None = None) -> None:
        """Drop one function's code (``fn``) or everything (None)."""
        tables = (self.functions, self.observed)
        if fn is not None:
            for table in tables:
                if table.pop(id(fn), None) is not None:
                    STATS.count("engine.invalidations")
            self._rearm(fn)
            return
        for table in tables:
            if table:
                STATS.count("engine.invalidations", len(table))
            table.clear()
        self.cells.clear()
        self.observed_cells.clear()
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

    def call_observed(self, st, fn: Function, args: list[object]):
        """:meth:`call` on the code that calls ``st``'s observers."""
        cf = self.observed.get(id(fn))
        if cf is None:
            cf = self.compiled(fn, observed=True)
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
