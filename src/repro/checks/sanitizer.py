"""The memory sanitizer: use-before-init and static out-of-bounds.

Two analyses, both built on existing abstractions rather than ad-hoc
walks:

* **use-before-init** — a forward *must-be-initialized* problem on the
  DFE (intersection meet from TOP, empty at entry): an alloca id is in
  the set when every path from the entry stores to it first.  A load
  whose underlying object is a local alloca not in its IN set may read
  uninitialized storage.  Stores gen the allocas they may write (via
  ``underlying_object``, falling back to Andersen points-to); calls gen
  every alloca they may mod (per the AA's mod/ref) so interprocedural
  initialization does not produce false positives.  Findings are
  WARNINGs, not ERRORs: the reference machine zero-initializes memory,
  so the read is deterministic — just almost certainly unintended.

* **out-of-bounds** — constant-folds ``elem_ptr`` index chains against
  the statically known allocation type of a direct alloca/global base.
  A non-zero leading index (stepping off a single object) or a constant
  array index outside ``[0, count)`` is flagged: ERROR when the address
  feeds a load/store directly, WARNING when it is only computed.

  Under ``NOELLE_DEPTEST=1`` the constant fold is upgraded to a
  *symbolic range proof*: an array index that is an affine recurrence of
  the enclosing loop is bounded by its SCEV range over the derived trip
  count, and a range escaping ``[0, count)`` is flagged (WARNING — the
  escaping iteration may be guarded) even though no single index is
  constant.  Indices already wrapped by a provably in-range ``srem``
  fold away and are proven safe by the same machinery.
"""

from __future__ import annotations

from ..analysis.aa import ModRefResult, underlying_object
from ..analysis.deptest import deptest_enabled
from ..analysis.scev import SCEVAddRec, ScalarEvolution
from ..ir.instructions import Alloca, Call, Cast, ElemPtr, Load, Store
from ..ir.types import ArrayType, StructType
from ..ir.values import ConstantInt, GlobalVariable
from .base import Checker, register_checker
from .diagnostics import Diagnostic


@register_checker
class MemorySanitizer(Checker):
    """Flag use-before-init of allocas and statically OOB elem_ptrs."""

    name = "sanitizer"

    def run(self, module, noelle) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for fn in module.defined_functions():
            diagnostics.extend(self._check_use_before_init(fn, noelle))
            diagnostics.extend(self._check_bounds(fn, noelle))
        return diagnostics

    # -- use-before-init -----------------------------------------------------------
    def _check_use_before_init(self, fn, noelle) -> list[Diagnostic]:
        from ..core.dataflow import DataFlowProblem

        allocas = [i for i in fn.instructions() if isinstance(i, Alloca)]
        if not allocas:
            return []
        local_ids = {id(a) for a in allocas}
        aa = noelle.alias_analysis()
        pts = noelle.points_to()

        def initialized_by(inst) -> set:
            if isinstance(inst, Store):
                root = underlying_object(inst.pointer)
                if isinstance(root, Alloca) and id(root) in local_ids:
                    return {id(root)}
                targets = pts.points_to(inst.pointer)
                if not targets or any(o.kind == "unknown" for o in targets):
                    return set(local_ids)  # could write anything: stay quiet
                return {
                    id(o.site)
                    for o in targets
                    if o.kind == "alloca" and id(o.site) in local_ids
                }
            if isinstance(inst, Call):
                return {
                    id(a)
                    for a in allocas
                    if aa.mod_ref(inst, a) is not ModRefResult.NO_MOD_REF
                }
            return set()

        problem = DataFlowProblem(
            "forward", initialized_by, lambda inst: set(), meet="intersection"
        )
        result = noelle.dataflow_engine().run(fn, problem)
        diagnostics = []
        for inst in fn.instructions():
            if not isinstance(inst, Load):
                continue
            root = underlying_object(inst.pointer)
            if not (isinstance(root, Alloca) and id(root) in local_ids):
                continue
            if id(root) not in result.in_of(inst):
                diagnostics.append(
                    Diagnostic(
                        self.name,
                        "warning",
                        f"load {inst.ref()} may read alloca "
                        f"{root.ref()} before it is initialized",
                        function=fn.name,
                        location=inst.ref(),
                    )
                )
        return diagnostics

    # -- static bounds -------------------------------------------------------------
    def _check_bounds(self, fn, noelle) -> list[Diagnostic]:
        diagnostics = []
        range_of = deptest_enabled() and _recurrence_ranges(fn, noelle)
        for inst in fn.instructions():
            if not isinstance(inst, ElemPtr):
                continue
            finding = _out_of_bounds(inst, range_of)
            if finding is None:
                continue
            problem, constant = finding
            # The escaping iterations of a range may be guarded inside
            # the loop, so a range proof never claims more than a WARNING.
            severity = (
                "error" if constant and _directly_dereferenced(inst)
                else "warning"
            )
            diagnostics.append(
                Diagnostic(
                    self.name,
                    severity,
                    f"elem_ptr {inst.ref()} is statically out of bounds: "
                    f"{problem}",
                    function=fn.name,
                    location=inst.ref(),
                )
            )
        return diagnostics


def _recurrence_ranges(fn, noelle):
    """``range_of(elem_ptr, index)``: the index's SCEV range over the
    iterations of the elem_ptr's loop, or None."""
    engines: dict = {}

    def range_of(inst: ElemPtr, index) -> tuple[int, int] | None:
        loop = noelle.loop_info(fn).loop_of(inst.parent)
        if loop is None:
            return None
        if loop not in engines:
            engines[loop] = ScalarEvolution(loop)
        evolution = engines[loop].evolution_of(index)
        if not isinstance(evolution, SCEVAddRec):
            return None
        return engines[loop].addrec_range(evolution, index.type.width)

    return range_of


def _out_of_bounds(inst: ElemPtr, range_of) -> tuple[str, bool] | None:
    """(description, found by a constant index) of the OOB condition, or
    None for in-bounds/unknown.  Each array index is asked for its range:
    a point for a constant, else ``range_of``'s when there is one.  A
    constant finding anywhere in the chain wins over a range finding."""
    base = inst.base
    while isinstance(base, Cast):
        base = base.value
    if not isinstance(base, (Alloca, GlobalVariable)):
        return None  # derived pointer: allocation extent unknown here
    allocated = base.allocated_type
    first = inst.indices[0]
    if isinstance(first, ConstantInt) and first.value != 0:
        return (
            f"leading index {first.value} steps off the single "
            f"{allocated} object {base.ref()}",
            True,
        )
    escaping = None
    current = allocated
    for index in inst.indices[1:]:
        if isinstance(current, ArrayType):
            span = None
            if isinstance(index, ConstantInt):
                span = (index.value, index.value)
            elif range_of and escaping is None:
                span = range_of(inst, index)
            if span and not 0 <= span[0] <= span[1] < current.count:
                if isinstance(index, ConstantInt):
                    return (
                        f"index {index.value} outside [0, {current.count}) "
                        f"of {current} in {base.ref()}",
                        True,
                    )
                escaping = (
                    f"index range [{span[0]}, {span[1]}] over the loop's "
                    f"iterations escapes [0, {current.count}) of "
                    f"{current} in {base.ref()}",
                    False,
                )
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, ConstantInt):
                break  # verifier rejects this; don't double-report
            if not 0 <= index.value < len(current.fields):
                break
            current = current.fields[index.value]
        else:
            break  # scalar level: nothing left to index
    return escaping


def _directly_dereferenced(inst: ElemPtr) -> bool:
    for user in inst.users():
        if isinstance(user, Load) and user.pointer is inst:
            return True
        if isinstance(user, Store) and user.pointer is inst:
            return True
    return False
