"""CARAT on NOELLE (Section 3, "CARAT").

CARAT (Suchy et al. [PLDI'20]) replaces virtual-memory protection with
compiler- and runtime-based address translation: every memory instruction
that cannot be proven safe at compile time is *guarded* with a runtime
check.  The compiler's job is to prove away and de-duplicate as many
guards as possible.

NOELLE abstractions used (Table 4 row "CARAT"): PDG + aSCCDAG + INV find
the memory instructions needing guards and those whose address is loop
invariant (guard once, outside), DFE removes guards dominated by an
earlier guard of the same location, L + LB + IV merge per-iteration guards
of affine accesses into one range guard in the pre-header, and SCD places
the guard calls.
"""

from __future__ import annotations

from ..analysis.aa import underlying_object
from ..analysis.scev import SCEVAddRec, SCEVConstant, ScalarEvolution
from ..core.dataflow import DataFlowEngine, DataFlowProblem
from ..core.induction import InductionVariableManager
from ..core.loopbuilder import LoopBuilder
from ..core.noelle import Noelle
from ..core.pdg import pointer_operand
from .. import ir
from ..ir.intrinsics import declare_intrinsic


def emit_guard(
    builder: ir.IRBuilder,
    guard: ir.Function,
    pointer: ir.Value,
    extent: ir.Value | None = None,
    name: str = "guard.ptr",
) -> None:
    """``carat_guard(pointer, extent)`` at the builder's position;
    ``extent`` defaults to the size of the pointee."""
    if extent is None:
        extent = ir.const_int(max(pointer.type.pointee.size_in_slots(), 1))
    cast = builder.cast("bitcast", pointer, ir.PointerType(ir.I8), name)
    builder.call(guard, [cast, extent])


class CARATStats:
    def __init__(self) -> None:
        self.candidates = 0
        self.proven_safe = 0
        self.hoisted = 0
        self.merged = 0
        self.deduplicated = 0
        self.guards_inserted = 0
        #: Guards of INV-proven invariant addresses that stay in place
        #: because the address computation has not been hoisted yet;
        #: running LICM first turns these into pre-header guards.
        self.invariant_unhoisted = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CARAT {self.guards_inserted} guards from {self.candidates} "
            f"candidates (safe={self.proven_safe} hoisted={self.hoisted} "
            f"dedup={self.deduplicated})>"
        )


class CARAT:
    """The memory-guard injection and optimization custom tool."""

    name = "carat"

    def __init__(self, noelle: Noelle):
        self.noelle = noelle

    def run(self) -> CARATStats:
        stats = CARATStats()
        for fn in list(self.noelle.module.defined_functions()):
            if fn.metadata.get("noelle.task"):
                continue
            self.run_on_function(fn, stats)
        return stats

    def run_on_function(self, fn: ir.Function, stats: CARATStats) -> None:
        self._stats_invariant_unhoisted = 0
        guard = declare_intrinsic(self.noelle.module, "carat_guard")
        info = self.noelle.loop_info(fn)
        dom = self.noelle.dominators(fn)
        available = self._available_checked_pointers(fn)
        #: pointer value id -> first guard instruction (dedup via dominance).
        guarded: dict[int, ir.Instruction] = {}
        plan: list[tuple[ir.Instruction, ir.Value, ir.BasicBlock | None]] = []
        for block in fn.blocks:
            for inst in list(block.instructions):
                pointer = pointer_operand(inst)
                if pointer is None:
                    continue
                stats.candidates += 1
                if self._statically_safe(pointer):
                    stats.proven_safe += 1
                    continue
                anchor = guarded.get(id(pointer))
                if anchor is not None and dom.dominates(anchor, inst):
                    stats.deduplicated += 1
                    continue
                if id(pointer) in available.in_of(inst):
                    # DFE: an earlier access already validated this exact
                    # pointer on *every* path reaching here.
                    stats.deduplicated += 1
                    continue
                merged = self._affine_range_guard(info, inst, pointer)
                if merged is not None:
                    stats.merged += 1
                    plan.append(merged)
                    guarded[id(pointer)] = inst
                    continue
                hoist_target = self._loop_invariant_target(info, inst, pointer)
                if hoist_target is not None:
                    stats.hoisted += 1
                plan.append((inst, pointer, hoist_target))
                guarded[id(pointer)] = inst
        for entry in plan:
            if callable(entry):
                entry(guard)
            else:
                inst, pointer, hoist_target = entry
                self._insert_guard(guard, inst, pointer, hoist_target)
            stats.guards_inserted += 1
        stats.invariant_unhoisted += self._stats_invariant_unhoisted
        self.noelle.invalidate(fn)

    # -- analysis -----------------------------------------------------------------------
    def _available_checked_pointers(self, fn: ir.Function):
        """DFE: forward must-analysis of pointers already validated.

        A load or store validates its pointer (it would have trapped
        otherwise); ``free`` invalidates everything it may release.  The
        intersection meet means a pointer is "available" only when checked
        on every incoming path — exactly the guard-elision condition.
        """
        def gen(inst: ir.Instruction) -> set:
            pointer = pointer_operand(inst)
            return {id(pointer)} if pointer is not None else set()

        def kill(inst: ir.Instruction) -> set:
            if isinstance(inst, ir.Call):
                callee = inst.called_function()
                if callee is not None and callee.name == "free":
                    # Conservatively drop every fact: the freed region may
                    # be any of them.
                    return set(all_pointer_ids)
            return set()

        all_pointer_ids: set[int] = set()
        for inst in fn.instructions():
            pointer = pointer_operand(inst)
            if pointer is not None:
                all_pointer_ids.add(id(pointer))
        problem = DataFlowProblem("forward", gen, kill, meet="intersection")
        return DataFlowEngine().run(fn, problem)

    def _statically_safe(self, pointer: ir.Value) -> bool:
        """In-bounds accesses to identified allocations need no guard."""
        base = underlying_object(pointer)
        if isinstance(base, ir.GlobalVariable):
            return self._constant_in_bounds(pointer, base.allocated_type)
        if isinstance(base, ir.Alloca):
            return self._constant_in_bounds(pointer, base.allocated_type)
        return False

    @staticmethod
    def _constant_in_bounds(pointer: ir.Value, allocated: ir.Type) -> bool:
        if not isinstance(pointer, ir.ElemPtr):
            return not isinstance(pointer, ir.Instruction) or isinstance(
                pointer, (ir.Alloca,)
            )
        current: ir.Type = pointer.base.type.pointee
        indices = pointer.indices
        first = indices[0]
        if not isinstance(first, ir.ConstantInt) or first.value != 0:
            return False
        for index in indices[1:]:
            if not isinstance(index, ir.ConstantInt):
                return False
            if current.is_array():
                if not 0 <= index.value < current.count:
                    return False
                current = current.element
            elif current.is_struct():
                current = current.fields[index.value]
            else:
                return False
        return True

    def _affine_range_guard(self, info, inst: ir.Instruction, pointer: ir.Value):
        """Merge the per-iteration guards of an affine access (L + IV + LB).

        For ``a[i]`` with ``i = {c0, +, s}`` governed by ``i < bound``, one
        range guard of ``a[c0 .. bound)`` in the pre-header replaces the
        per-iteration point guards.  Returns a deferred-insertion closure,
        or None when the access is not a recognizable affine walk.
        """
        loop = info.loop_of(inst.parent)
        if loop is None or not isinstance(pointer, ir.ElemPtr):
            return None
        base = pointer.base
        if isinstance(base, ir.Instruction) and loop.contains(base):
            return None  # the base itself varies per iteration
        indices = pointer.indices
        scev = ScalarEvolution(loop)
        variable_positions = [
            i
            for i, index in enumerate(indices)
            if not isinstance(index, ir.ConstantInt)
        ]
        if len(variable_positions) != 1:
            return None
        position = variable_positions[0]
        evolution = scev.evolution_of(indices[position])
        if not isinstance(evolution, SCEVAddRec):
            return None
        if not isinstance(evolution.start, SCEVConstant):
            return None
        step = evolution.constant_step()
        if step is None or step <= 0:
            return None
        # The loop must be governed by a compare against an invariant bound.
        ivs = InductionVariableManager(loop)
        governing = ivs.governing_iv()
        if governing is None or governing.exit_compare is None:
            return None
        compare = governing.exit_compare
        if compare.predicate not in ("slt", "sle", "ult", "ule"):
            return None
        bound = None
        for operand in (compare.lhs, compare.rhs):
            if isinstance(operand, ir.ConstantInt):
                bound = operand
            elif not (isinstance(operand, ir.Instruction) and loop.contains(operand)):
                bound = operand
        if bound is None:
            return None
        # LB: create the canonical pre-header the range guard lives in.
        fn = inst.function()
        pre_header = LoopBuilder(fn).ensure_pre_header(loop)
        start_value = evolution.start.value
        stride_ty = pointer.type.pointee

        def insert(guard_fn: ir.Function) -> None:
            builder = ir.IRBuilder()
            builder.position_before(pre_header.terminator)
            start_indices: list[ir.Value] = []
            for i, index in enumerate(indices):
                if i == position:
                    start_indices.append(ir.const_int(start_value))
                else:
                    start_indices.append(index)
            first = builder.elem_ptr(base, start_indices, "guard.base")
            span = builder.sub(bound, ir.const_int(start_value), "guard.span")
            extent = builder.mul(
                span, ir.const_int(max(stride_ty.size_in_slots(), 1)), "guard.extent"
            )
            emit_guard(builder, guard_fn, first, extent)

        return insert

    def _loop_invariant_target(
        self, info, inst: ir.Instruction, pointer: ir.Value
    ) -> ir.BasicBlock | None:
        """If the address is invariant in the enclosing loop, guard it once
        in the pre-header instead of every iteration (INV + LB).

        Addresses *computed inside* the loop still qualify when INV proves
        them invariant — but then the computation itself must be hoisted
        too, so this fast path only claims the ready-to-hoist cases:
        out-of-loop addresses and in-loop addresses LICM already moved.
        """
        loop = info.loop_of(inst.parent)
        if loop is None:
            return None
        if isinstance(pointer, ir.Instruction) and loop.contains(pointer):
            # INV (Algorithm 2): invariant in-loop addresses could be
            # hoisted with their computation; non-invariant ones never.
            invariants = self.noelle.loop_of(loop).invariants
            if invariants.is_invariant(pointer):
                # Invariant but not hoisted: the guard must stay with the
                # in-loop address; LICM-before-CARAT unlocks the hoist.
                self._stats_invariant_unhoisted += 1
            return None
        entries = loop.entries()
        if len(entries) == 1 and len(entries[0].successors()) == 1:
            return entries[0]
        return None

    # -- mechanics ----------------------------------------------------------------------
    def _insert_guard(
        self,
        guard: ir.Function,
        inst: ir.Instruction,
        pointer: ir.Value,
        hoist_target: ir.BasicBlock | None,
    ) -> None:
        builder = ir.IRBuilder()
        builder.position_before(
            inst if hoist_target is None else hoist_target.terminator
        )
        emit_guard(builder, guard, pointer)
