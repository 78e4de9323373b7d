"""Whole-module inclusion-based (Andersen-style) points-to analysis.

This is the repository's stand-in for the external alias analyses NOELLE
integrates (SCAF, SVF): an interprocedural, flow-insensitive, inclusion-based
points-to solver over the entire module.  It resolves:

* which allocations each pointer may reference (alias queries),
* which functions an indirect call may invoke (the complete call graph), and
* which objects escape to unmodeled external code.

Objects are named by allocation site: one object per ``alloca``, per global
variable, per ``malloc`` call site, plus one object per function (so
function pointers resolve).  A distinguished *unknown* object stands for
memory created or reached by unmodeled externals.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.instructions import (
    Alloca,
    Call,
    Cast,
    ElemPtr,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.intrinsics import ALLOCATOR_INTRINSICS, INTRINSICS
from ..ir.module import Function, Module
from ..ir.values import Argument, GlobalVariable, Value
from ..perf import STATS
from ..robust.faults import checkpoint as _fault_checkpoint
from .aa import (
    Address,
    AliasAnalysis,
    AliasResult,
    BasicAliasAnalysis,
    ModRefResult,
    strip_pointer_casts,
)


class MemoryObject:
    """An abstract allocation site."""

    __slots__ = ("kind", "site", "name")

    def __init__(self, kind: str, site: object, name: str):
        self.kind = kind  # "alloca" | "global" | "heap" | "function" | "unknown"
        self.site = site
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<obj {self.kind}:{self.name}>"


class PointsToAnalysis:
    """Solved Andersen points-to information for one module."""

    def __init__(self, module: Module):
        self.module = module
        self.unknown = MemoryObject("unknown", None, "<unknown>")
        #: id(Value) -> set of MemoryObject the value may point to.
        self._pts: dict[int, set[MemoryObject]] = defaultdict(set)
        #: id(MemoryObject) -> set of MemoryObject stored inside it.
        self._contents: dict[int, set[MemoryObject]] = defaultdict(set)
        self._objects: dict[int, MemoryObject] = {}
        self._object_of_site: dict[int, MemoryObject] = {}
        self._copy_edges: dict[int, list[Value]] = defaultdict(list)
        self._load_edges: dict[int, list[Value]] = defaultdict(list)
        self._store_edges: dict[int, list[Value]] = defaultdict(list)
        self._value_by_id: dict[int, Value] = {}
        self._indirect_calls: list[Call] = []
        self._wired_call_targets: set[tuple[int, int]] = set()
        self._escaped: set[int] = set()
        STATS.count("pointsto.solves")
        with STATS.timer("pointsto.solve"):
            self._solve()

    # -- public queries ----------------------------------------------------------
    def points_to(self, value: Value) -> set[MemoryObject]:
        """The abstract objects ``value`` may point to."""
        value = strip_pointer_casts(value)
        if isinstance(value, ElemPtr):
            # Field-insensitive: a derived pointer targets the same objects.
            return self.points_to(value.base)
        return self._pts.get(id(value), set())

    def object_for_site(self, site: Value) -> MemoryObject | None:
        """The allocation object named after ``site``, if it is one."""
        return self._object_of_site.get(id(site))

    def callees_of(self, call: Call) -> list[Function]:
        """Possible targets of a call (singleton for direct calls)."""
        direct = call.called_function()
        if direct is not None:
            return [direct]
        targets = []
        for obj in self.points_to(call.callee):
            if obj.kind == "function":
                targets.append(obj.site)
        return targets

    def escapes(self, obj: MemoryObject) -> bool:
        """True if the object may be reached by unmodeled external code."""
        return id(obj) in self._escaped or obj.kind == "unknown"

    def may_alias(self, a: Value, b: Value) -> bool:
        pa, pb = self.points_to(a), self.points_to(b)
        if not pa or not pb:
            # No information (e.g. integer-to-pointer casts): stay safe.
            return True
        if self.unknown in pa or self.unknown in pb:
            return True
        return not pa.isdisjoint(pb)

    # -- constraint generation ------------------------------------------------------
    def _object(self, kind: str, site: object, name: str) -> MemoryObject:
        obj = MemoryObject(kind, site, name)
        self._objects[id(obj)] = obj
        if isinstance(site, Value):
            self._object_of_site[id(site)] = obj
        return obj

    def _note(self, value: Value) -> None:
        self._value_by_id[id(value)] = value

    def _add_pts(self, value: Value, obj: MemoryObject, worklist: list[Value]) -> None:
        pts = self._pts[id(value)]
        if obj not in pts:
            pts.add(obj)
            worklist.append(value)

    def _solve(self) -> None:
        worklist: list[Value] = []
        self._generate_base_constraints(worklist)
        basic = 0
        while worklist:
            value = worklist.pop()
            pts = self._pts[id(value)]
            # Copy edges: targets include everything value points to.
            for target in self._copy_edges.get(id(value), ()):
                target_pts = self._pts[id(target)]
                new = pts - target_pts
                if new:
                    target_pts |= new
                    worklist.append(target)
            # Load edges: result <- contents of each pointee.
            for result in self._load_edges.get(id(value), ()):
                result_pts = self._pts[id(result)]
                for obj in pts:
                    new = self._contents[id(obj)] - result_pts
                    if new:
                        result_pts |= new
                        worklist.append(result)
            # Store edges: contents of each pointee <- stored value's pts.
            for stored in self._store_edges.get(id(value), ()):
                stored_pts = self._pts[id(stored)]
                for obj in pts:
                    contents = self._contents[id(obj)]
                    new = stored_pts - contents
                    if new:
                        contents |= new
                        self._reflow_contents(obj, worklist)
            # Newly discovered indirect call targets.
            self._wire_indirect_calls(worklist)
            # Escape propagation happens at the end (it is monotone too).
            basic += 1
        self._propagate_escapes()

    def _reflow_contents(self, obj: MemoryObject, worklist: list[Value]) -> None:
        """Contents of ``obj`` changed: re-push loads that read from it."""
        for value_id, value in self._value_by_id.items():
            if obj in self._pts.get(value_id, ()):  # value may point at obj
                if self._load_edges.get(value_id):
                    worklist.append(value)

    def _generate_base_constraints(self, worklist: list[Value]) -> None:
        for gv in self.module.globals.values():
            obj = self._object("global", gv, gv.name)
            self._note(gv)
            self._add_pts(gv, obj, worklist)
        for fn in self.module.functions.values():
            obj = self._object("function", fn, fn.name)
            self._note(fn)
            self._add_pts(fn, obj, worklist)
        # Global initializers that reference functions/globals seed contents.
        for gv in self.module.globals.values():
            init = gv.initializer
            if init is None:
                continue
            gv_obj = self._object_of_site[id(gv)]
            for target in self._initializer_pointers(init):
                target_obj = self._object_of_site.get(id(target))
                if target_obj is not None:
                    self._contents[id(gv_obj)].add(target_obj)
        for fn in self.module.functions.values():
            for arg in fn.args:
                self._note(arg)
            for inst in fn.instructions():
                self._generate_for_instruction(fn, inst, worklist)

    def _initializer_pointers(self, init) -> list[Value]:
        from ..ir.values import ConstantArray

        if isinstance(init, (GlobalVariable, Function)):
            return [init]
        if isinstance(init, ConstantArray):
            result = []
            for element in init.elements:
                result.extend(self._initializer_pointers(element))
            return result
        return []

    def _generate_for_instruction(
        self, fn: Function, inst: Instruction, worklist: list[Value]
    ) -> None:
        self._note(inst)
        if isinstance(inst, Alloca):
            obj = self._object("alloca", inst, f"{fn.name}.{inst.name}")
            self._add_pts(inst, obj, worklist)
        elif isinstance(inst, (Phi, Select)):
            sources = (
                [v for v, _ in inst.incoming()]
                if isinstance(inst, Phi)
                else [inst.true_value, inst.false_value]
            )
            for source in sources:
                if source.type.is_pointer():
                    self._copy_edges[id(source)].append(inst)
        elif isinstance(inst, Cast):
            if inst.type.is_pointer() and inst.value.type.is_pointer():
                self._copy_edges[id(inst.value)].append(inst)
            elif inst.type.is_pointer():
                # inttoptr: anything — model as unknown.
                self._add_pts(inst, self.unknown, worklist)
        elif isinstance(inst, ElemPtr):
            self._copy_edges[id(inst.base)].append(inst)
        elif isinstance(inst, Load):
            if inst.type.is_pointer():
                self._load_edges[id(inst.pointer)].append(inst)
        elif isinstance(inst, Store):
            if inst.value.type.is_pointer():
                self._store_edges[id(inst.pointer)].append(inst.value)
        elif isinstance(inst, Call):
            self._generate_for_call(fn, inst, worklist)

    def _generate_for_call(self, fn: Function, call: Call, worklist: list[Value]) -> None:
        callee = call.called_function()
        if callee is None:
            self._indirect_calls.append(call)
            return
        if callee.is_declaration():
            self._model_external_call(call, callee, worklist)
            return
        self._wire_call(call, callee)

    def _wire_call(self, call: Call, callee: Function) -> None:
        key = (id(call), id(callee))
        if key in self._wired_call_targets:
            return
        self._wired_call_targets.add(key)
        for actual, formal in zip(call.args, callee.args):
            if actual.type.is_pointer():
                self._copy_edges[id(actual)].append(formal)
                self._note(formal)
        if call.type.is_pointer():
            for block in callee.blocks:
                term = block.terminator
                if isinstance(term, Ret) and term.value is not None:
                    self._copy_edges[id(term.value)].append(call)

    def _wire_indirect_calls(self, worklist: list[Value]) -> None:
        for call in self._indirect_calls:
            for obj in list(self._pts.get(id(call.callee), ())):
                if obj.kind != "function":
                    continue
                target: Function = obj.site
                if target.is_declaration():
                    self._model_external_call(call, target, worklist)
                    continue
                key = (id(call), id(target))
                if key in self._wired_call_targets:
                    continue
                self._wire_call(call, target)
                # Seed flow along the new edges.
                for actual, formal in zip(call.args, target.args):
                    if actual.type.is_pointer() and self._pts.get(id(actual)):
                        worklist.append(actual)
                for block in target.blocks:
                    term = block.terminator
                    if isinstance(term, Ret) and term.value is not None:
                        if self._pts.get(id(term.value)):
                            worklist.append(term.value)

    def _model_external_call(
        self, call: Call, callee: Function, worklist: list[Value]
    ) -> None:
        key = (id(call), id(callee))
        if key in self._wired_call_targets:
            return
        self._wired_call_targets.add(key)
        if callee.name in ALLOCATOR_INTRINSICS:
            obj = self._object("heap", call, f"heap.{callee.name}.{id(call) & 0xFFFF:x}")
            self._add_pts(call, obj, worklist)
            return
        if callee.name in INTRINSICS:
            # Modeled intrinsics neither capture nor return pointers
            # (malloc handled above); pointer args are read-only buffers.
            return
        # Truly unknown external: pointer arguments escape; a pointer return
        # may be anything.
        for actual in call.args:
            if actual.type.is_pointer():
                for obj in self._pts.get(id(actual), ()):
                    self._escaped.add(id(obj))
        if call.type.is_pointer():
            self._add_pts(call, self.unknown, worklist)

    def _propagate_escapes(self) -> None:
        """An escaped object leaks everything stored inside it."""
        changed = True
        while changed:
            changed = False
            for obj_id in list(self._escaped):
                for inner in self._contents.get(obj_id, ()):
                    if id(inner) not in self._escaped:
                        self._escaped.add(id(inner))
                        changed = True


class AndersenAliasAnalysis(AliasAnalysis):
    """Alias analysis backed by module-wide points-to, refined locally.

    Plays the role of SCAF/SVF in the paper: the PDG built with this AA
    disproves far more memory dependences than the basic one.
    """

    queries_counter = "aa.andersen.queries"
    hits_counter = "aa.andersen.memo_hits"

    def __init__(self, module: Module):
        super().__init__()
        self.module = module
        self.pointsto = PointsToAnalysis(module)
        self._basic = BasicAliasAnalysis()

    def _alias_uncached(self, a: Address, b: Address) -> AliasResult:
        # The basic rules first, as a query of their own: it visits the
        # fault site and counts under ``aa.basic``, but skips the basic
        # memo, which could never answer it — this analysis's memo, keyed
        # the same, already answers every pair asked twice.
        _fault_checkpoint("alias_query")
        STATS.count(self._basic.queries_counter)
        basic = self._basic._alias_uncached(a, b)
        if basic in (AliasResult.NO_ALIAS, AliasResult.MUST_ALIAS):
            return basic
        # A pointer's points-to set is its underlying object's.
        if not self.pointsto.may_alias(a.obj, b.obj):
            return AliasResult.NO_ALIAS
        return AliasResult.MAY_ALIAS

    def mod_ref(self, inst: Instruction, ptr: Value) -> ModRefResult:
        if isinstance(inst, Load):
            if self.alias(inst.pointer, ptr) is AliasResult.NO_ALIAS:
                return ModRefResult.NO_MOD_REF
            return ModRefResult.REF
        if isinstance(inst, Store):
            if self.alias(inst.pointer, ptr) is AliasResult.NO_ALIAS:
                return ModRefResult.NO_MOD_REF
            return ModRefResult.MOD
        if isinstance(inst, Call):
            return self._call_mod_ref(inst, ptr)
        return ModRefResult.NO_MOD_REF

    def _call_mod_ref(self, call: Call, ptr: Value) -> ModRefResult:
        from .modref import FunctionEffects  # local import: modref builds on us

        basic = self._basic.call_mod_ref(call, ptr)
        if basic is ModRefResult.NO_MOD_REF:
            return basic
        effects = self._effects()
        return effects.call_mod_ref(call, ptr)

    _effects_cache: "object | None" = None

    def _effects(self):
        from .modref import ModRefAnalysis

        if self._effects_cache is None:
            self._effects_cache = ModRefAnalysis(self.module, self.pointsto)
        return self._effects_cache
