"""Interprocedural Mod/Ref summaries built on points-to.

For every defined function, computes the sets of abstract memory objects it
may read and may write, transitively through calls (including indirect ones
resolved by points-to).  Calls can then answer precise mod/ref queries:
a call only clobbers ``ptr`` if its callee-set's write set intersects the
objects ``ptr`` may point to.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.instructions import Call, Load, Store
from ..ir.intrinsics import ALLOCATOR_INTRINSICS, INTRINSICS, PURE_INTRINSICS
from ..ir.module import Function, Module
from ..ir.values import Value
from .aa import ModRefResult
from .pointsto import MemoryObject, PointsToAnalysis


class FunctionEffects:
    """The memory footprint of one function."""

    def __init__(self) -> None:
        self.reads: set[MemoryObject] = set()
        self.writes: set[MemoryObject] = set()
        #: True when the function may touch memory we cannot name
        #: (unknown external calls).
        self.unknown = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<effects reads={len(self.reads)} writes={len(self.writes)} "
            f"unknown={self.unknown}>"
        )


class ModRefAnalysis:
    """Module-wide Mod/Ref summaries with a fixpoint over the call graph."""

    def __init__(self, module: Module, pointsto: PointsToAnalysis):
        self.module = module
        self.pointsto = pointsto
        self.effects: dict[int, FunctionEffects] = {}
        self._solve()

    def _solve(self) -> None:
        for fn in self.module.functions.values():
            self.effects[id(fn)] = self._initial_effects(fn)
        changed = True
        while changed:
            changed = False
            for fn in self.module.defined_functions():
                summary = self.effects[id(fn)]
                for inst in fn.instructions():
                    if isinstance(inst, Call):
                        if self._absorb_call(summary, inst):
                            changed = True

    def _initial_effects(self, fn: Function) -> FunctionEffects:
        summary = FunctionEffects()
        if fn.is_declaration():
            if fn.name in PURE_INTRINSICS or fn.name in ALLOCATOR_INTRINSICS:
                pass  # no visible memory effects
            elif fn.name in INTRINSICS:
                pass  # modeled intrinsics (I/O, OS hooks) touch no program memory
            else:
                summary.unknown = True
            return summary
        for inst in fn.instructions():
            if isinstance(inst, Load):
                self._absorb_access(summary.reads, summary, inst.pointer)
            elif isinstance(inst, Store):
                self._absorb_access(summary.writes, summary, inst.pointer)
        return summary

    def _absorb_access(
        self, bucket: set[MemoryObject], summary: FunctionEffects, ptr: Value
    ) -> None:
        objects = self.pointsto.points_to(ptr)
        if not objects:
            summary.unknown = True
            return
        for obj in objects:
            if obj.kind == "unknown":
                summary.unknown = True
            else:
                bucket.add(obj)

    def _absorb_call(self, summary: FunctionEffects, call: Call) -> bool:
        changed = False
        for callee in self.pointsto.callees_of(call):
            callee_summary = self.effects.get(id(callee))
            if callee_summary is None:
                continue
            if callee_summary.unknown and not summary.unknown:
                summary.unknown = True
                changed = True
            new_reads = callee_summary.reads - summary.reads
            if new_reads:
                summary.reads |= new_reads
                changed = True
            new_writes = callee_summary.writes - summary.writes
            if new_writes:
                summary.writes |= new_writes
                changed = True
        if not self.pointsto.callees_of(call) and call.is_indirect():
            # Unresolved indirect call: be conservative.
            if not summary.unknown:
                summary.unknown = True
                changed = True
        return changed

    # -- queries -----------------------------------------------------------------
    def function_effects(self, fn: Function) -> FunctionEffects | None:
        """``fn``'s summary; None for a function defined after the solve.

        A *declaration* first seen after the solve (a runtime intrinsic a
        pass declared) is summarized on demand: what a declaration
        touches follows from its name alone.
        """
        summary = self.effects.get(id(fn))
        if summary is None and fn.is_declaration():
            summary = self.effects[id(fn)] = self._initial_effects(fn)
        return summary

    def call_mod_ref(self, call: Call, ptr: Value) -> ModRefResult:
        """May this call read/write the memory ``ptr`` points to?"""
        targets = self.pointsto.callees_of(call)
        if not targets:
            return ModRefResult.MOD_REF
        ptr_objects = self.pointsto.points_to(ptr)
        if not ptr_objects or any(o.kind == "unknown" for o in ptr_objects):
            return ModRefResult.MOD_REF
        result = ModRefResult.NO_MOD_REF
        for callee in targets:
            summary = self.function_effects(callee)
            if summary is None or summary.unknown:
                # Unknown externals may touch escaped objects only.
                if any(self.pointsto.escapes(o) for o in ptr_objects):
                    return ModRefResult.MOD_REF
                continue
            if summary.reads & ptr_objects:
                result |= ModRefResult.REF
            if summary.writes & ptr_objects:
                result |= ModRefResult.MOD
        return result
