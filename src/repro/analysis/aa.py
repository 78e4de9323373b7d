"""Alias analysis interfaces and the LLVM-grade *basic* implementation.

Two alias analyses power the repository, mirroring the paper's setup:

* :class:`BasicAliasAnalysis` — the stand-in for LLVM's stateless AA:
  intraprocedural rules about allocas, globals, and constant-offset
  ``elem_ptr``, with no interprocedural reasoning.  This is what the
  "vanilla LLVM" baseline tools get.
* :class:`repro.analysis.pointsto.AndersenAliasAnalysis` — the stand-in for
  SCAF/SVF: whole-module inclusion-based points-to.  This is what powers
  NOELLE's PDG, and the precision gap between the two is what Figure 3
  measures.
"""

from __future__ import annotations

import enum

from ..ir.instructions import Alloca, Call, Cast, ElemPtr, Instruction, Load, Phi, Select
from ..ir.intrinsics import ALLOCATOR_INTRINSICS, INTRINSICS, PURE_INTRINSICS
from ..ir.module import Function
from ..ir.values import Argument, ConstantInt, ConstantNull, GlobalVariable, Value
from ..perf import STATS
from ..robust.faults import checkpoint as _fault_checkpoint


class AliasResult(enum.Enum):
    NO_ALIAS = "no"
    MAY_ALIAS = "may"
    MUST_ALIAS = "must"


class ModRefResult(enum.Flag):
    NO_MOD_REF = 0
    REF = enum.auto()
    MOD = enum.auto()
    MOD_REF = REF | MOD


class AliasAnalysis:
    """Interface every alias analysis implements.

    A subclass answers a pointer pair in `_alias_uncached`; the base
    class memoizes those answers in an :class:`AliasMemo` and counts every
    query under ``queries_counter`` (and each one the memo answered under
    ``hits_counter``).  A PDG shard build reads the memo directly, asks
    `answer` for the pairs it does not hold, and adds its query counts
    once per shard; every query visits the ``alias_query`` fault site.
    """

    #: The ``aa.<name>.*`` counters this analysis reports under.
    queries_counter: str
    hits_counter: str

    def __init__(self) -> None:
        self.memo = AliasMemo()

    def alias(self, a: Value, b: Value) -> AliasResult:
        """How the pointers ``a`` and ``b`` may overlap."""
        return self.alias_addresses(Address(a), Address(b))

    def alias_addresses(self, a: "Address", b: "Address") -> AliasResult:
        """`alias` for pointers whose `Address` the caller derived once
        for many queries; the answer is the same either way."""
        _fault_checkpoint("alias_query")
        STATS.count(self.queries_counter)
        key = AliasMemo.key_of(a, b)
        cached = self.memo.verdicts.get(key)
        if cached is not None:
            STATS.count(self.hits_counter)
            return cached
        return self.answer(a, b, key)

    def answer(self, a: "Address", b: "Address", key) -> AliasResult:
        """Answer a pair the memo does not hold (``key`` is its
        `AliasMemo.key_of`), and memoize the answer."""
        result = self._alias_uncached(a, b)
        self.memo.store(key, result, a, b)
        return result

    def _alias_uncached(self, a: "Address", b: "Address") -> AliasResult:
        raise NotImplementedError

    def mod_ref(self, inst: Instruction, ptr: Value) -> ModRefResult:
        """May ``inst`` read (REF) / write (MOD) the memory ``ptr`` points to?"""
        raise NotImplementedError


class AliasMemo:
    """Memoizes symmetric alias queries keyed by underlying-object pairs.

    When the two pointers derive from *different* underlying objects, the
    alias verdict is a pure function of the object pair (both the
    identified-object rules and the points-to-set intersection only look
    at the roots), so one cache entry answers every pointer pair rooted
    there.  When both pointers share one underlying object, the verdict
    depends on their offsets, so the entry is keyed by the concrete value
    pair instead.

    Keys are ``id()`` pairs, smaller id first; the memo pins a strong
    reference to every keyed value so a garbage-collected instruction can
    never recycle an id into a stale hit.  Verdicts and pins live in two
    flat dicts, so an entry adds no object the cyclic collector has to
    traverse.  The memo stays valid across per-function PDG
    invalidation: dependence facts for surviving values cannot be
    weakened by in-place transformation (new values get fresh ids and
    therefore fresh, conservatively computed entries).

    The underlying objects come from the pointers' `Address`: a PDG
    shard build derives each memory instruction's once, computes
    `key_of` from the ids it keeps, and reads ``verdicts`` itself; any
    other query goes through `AliasAnalysis.alias_addresses`.
    """

    __slots__ = ("verdicts", "_pinned")

    def __init__(self) -> None:
        #: key -> verdict.
        self.verdicts: dict[tuple[int, int], AliasResult] = {}
        #: id -> value, for every value an id of a key names.
        self._pinned: dict[int, Value] = {}

    @staticmethod
    def key_of(a: "Address", b: "Address") -> tuple[int, int]:
        """The cache key of the pair: its two pins' ids, smaller first."""
        if a.obj is b.obj:
            ka, kb = id(a.pointer), id(b.pointer)
        else:
            ka, kb = id(a.obj), id(b.obj)
        return (ka, kb) if ka <= kb else (kb, ka)

    def store(self, key, result: AliasResult, a: "Address", b: "Address") -> None:
        self.verdicts[key] = result
        pins = (a.pointer, b.pointer) if a.obj is b.obj else (a.obj, b.obj)
        for pin in pins:
            self._pinned[id(pin)] = pin


def strip_pointer_casts(value: Value) -> Value:
    """Look through bitcasts and zero-offset elem_ptr to the base pointer."""
    while True:
        if isinstance(value, Cast) and value.opcode == "bitcast":
            value = value.value
        elif isinstance(value, ElemPtr) and value.has_all_zero_indices():
            value = value.base
        else:
            return value


_UNKNOWN = object()


class Address:
    """A pointer as alias queries see it: the pointer, its casts stripped,
    its underlying object, and (on first use) its constant slot offset
    from that object.  Derived once per pointer that takes part in many
    queries (a PDG shard build does it once per memory instruction)."""

    __slots__ = ("pointer", "stripped", "obj", "_offset")

    def __init__(self, pointer: Value):
        self.pointer = pointer
        self.stripped = strip_pointer_casts(pointer)
        self.obj = underlying_object(self.stripped)
        self._offset = _UNKNOWN

    def offset(self) -> int | None:
        """`_constant_slot_offset` of the pointer."""
        if self._offset is _UNKNOWN:
            self._offset = _constant_slot_offset(self.stripped)
        return self._offset


def underlying_object(value: Value) -> Value:
    """Walk to the base allocation a pointer is derived from, if traceable.

    Returns an :class:`Alloca`, :class:`GlobalVariable`, allocator
    :class:`Call`, or the first value the walk cannot see through
    (argument, load, phi, ...).
    """
    while True:
        value = strip_pointer_casts(value)
        if isinstance(value, ElemPtr):
            value = value.base
        else:
            return value


def is_identified_object(value: Value) -> bool:
    """True for values known to be distinct allocations."""
    if isinstance(value, (Alloca, GlobalVariable)):
        return True
    return is_allocator_call(value)


def is_allocator_call(value: Value) -> bool:
    if not isinstance(value, Call):
        return False
    callee = value.called_function()
    return callee is not None and callee.name in ALLOCATOR_INTRINSICS


def _alloca_does_not_escape(alloca: Alloca) -> bool:
    """Conservative no-escape check: the address never leaves the function.

    Traces direct uses through casts/elem_ptr.  Stores *of* the pointer,
    calls taking the pointer, and returns of it count as escapes.
    """
    from ..ir.instructions import Ret, Store

    worklist: list[Value] = [alloca]
    seen: set[int] = set()
    while worklist:
        value = worklist.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        for user in value.users():
            if isinstance(user, Load):
                continue
            if isinstance(user, Store):
                if user.value is value:
                    return False  # address stored somewhere
                continue
            if isinstance(user, (Cast, ElemPtr, Phi, Select)):
                worklist.append(user)
                continue
            if isinstance(user, (Call, Ret)):
                return False
            # icmp of pointers and other benign uses do not leak memory.
    return True


class BasicAliasAnalysis(AliasAnalysis):
    """Intraprocedural, stateless alias rules — the LLVM-grade baseline."""

    queries_counter = "aa.basic.queries"
    hits_counter = "aa.basic.memo_hits"

    def _alias_uncached(self, a: Address, b: Address) -> AliasResult:
        if a.stripped is b.stripped:
            return AliasResult.MUST_ALIAS
        if isinstance(a.stripped, ConstantNull) or isinstance(b.stripped, ConstantNull):
            return AliasResult.NO_ALIAS

        obj_a, obj_b = a.obj, b.obj
        if obj_a is obj_b:
            # The addresses keep the original pointers: their pointee
            # types carry the access sizes the range-overlap refinement
            # needs.
            return self._same_object_alias(a, b)

        # Two distinct identified allocations never overlap.
        if is_identified_object(obj_a) and is_identified_object(obj_b):
            return AliasResult.NO_ALIAS

        # A non-escaping alloca cannot alias memory reached from outside the
        # function (arguments, globals, loaded pointers).
        for mine, other in ((obj_a, obj_b), (obj_b, obj_a)):
            if isinstance(mine, Alloca) and _alloca_does_not_escape(mine):
                if isinstance(other, (Argument, Load, GlobalVariable)) or isinstance(
                    other, Call
                ):
                    return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def _same_object_alias(self, address_a: Address,
                           address_b: Address) -> AliasResult:
        """Refine aliasing of two pointers into the same base object.

        When both pointers sit at a compile-time slot offset from the base,
        their access ranges either coincide (must), overlap (may), or are
        disjoint (no alias).
        """
        offset_a = address_a.offset()
        offset_b = address_b.offset()
        if offset_a is None or offset_b is None:
            return AliasResult.MAY_ALIAS
        a, b = address_a.pointer, address_b.pointer
        size_a = a.type.pointee.size_in_slots() if a.type.is_pointer() else 1
        size_b = b.type.pointee.size_in_slots() if b.type.is_pointer() else 1
        if offset_a == offset_b and size_a == size_b:
            return AliasResult.MUST_ALIAS
        if offset_a + size_a <= offset_b or offset_b + size_b <= offset_a:
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def mod_ref(self, inst: Instruction, ptr: Value) -> ModRefResult:
        from ..ir.instructions import Load as LoadInst, Store as StoreInst

        if isinstance(inst, LoadInst):
            if self.alias(inst.pointer, ptr) is AliasResult.NO_ALIAS:
                return ModRefResult.NO_MOD_REF
            return ModRefResult.REF
        if isinstance(inst, StoreInst):
            if self.alias(inst.pointer, ptr) is AliasResult.NO_ALIAS:
                return ModRefResult.NO_MOD_REF
            return ModRefResult.MOD
        if isinstance(inst, Call):
            return self.call_mod_ref(inst, ptr)
        return ModRefResult.NO_MOD_REF

    def call_mod_ref(self, call: Call, ptr: Value) -> ModRefResult:
        callee = call.called_function()
        if callee is not None and callee.name in PURE_INTRINSICS:
            return ModRefResult.NO_MOD_REF
        if callee is not None and callee.name in ALLOCATOR_INTRINSICS:
            return ModRefResult.NO_MOD_REF  # fresh memory only
        # A call cannot touch a non-escaping local allocation unless the
        # pointer is passed to it (escape analysis already covers that).
        obj = underlying_object(ptr)
        if isinstance(obj, Alloca) and _alloca_does_not_escape(obj):
            return ModRefResult.NO_MOD_REF
        return ModRefResult.MOD_REF


def _constant_slot_offset(pointer: Value) -> int | None:
    """Slot offset of ``pointer`` from its underlying object, if constant.

    Walks chains of constant-index ``elem_ptr`` (through bitcasts); returns
    None as soon as a variable index appears.
    """
    offset = 0
    while True:
        pointer = strip_pointer_casts(pointer)
        if not isinstance(pointer, ElemPtr):
            return offset
        current = pointer.base.type.pointee
        indices = pointer.indices
        first = indices[0]
        if not isinstance(first, ConstantInt):
            return None
        offset += first.value * current.size_in_slots()
        for index in indices[1:]:
            if not isinstance(index, ConstantInt):
                return None
            if current.is_array():
                offset += index.value * current.element.size_in_slots()
                current = current.element
            elif current.is_struct():
                offset += current.field_offset(index.value)
                current = current.fields[index.value]
            else:
                return None
        pointer = pointer.base
