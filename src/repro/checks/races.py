"""The static race detector for parallelized IR.

For every parallel construct emitted by DOALL/HELIX/DSWP the checker
proves, with the same abstractions the parallelizers used (per-function
PDG shards, loop-carried classification, Andersen points-to), that
conflicting memory accesses across concurrently-executing iterations or
stages are either absent or covered by the construct's synchronization:

* **DOALL** promises *no* cross-iteration memory dependence at all —
  any loop-carried memory data edge left in the task's loop is a finding;
* **HELIX** serializes code inside sequential segments — a loop-carried
  memory data edge is fine iff both endpoints execute under a common
  ``helix_seq_begin/end`` segment id, and a finding otherwise;
* **DSWP** isolates stages except for the value queues — conflicting
  accesses in two different stage functions (which run concurrently)
  are findings unless points-to/AA proves them disjoint.

Constructs are found from the IR alone, as every tool finds generated
code (:func:`repro.ir.intrinsics.find_parallel_constructs`); metadata
plays no part.

Severity policy (calibrated against the dynamic oracle, see
``tests/checks/test_differential.py``): a *must*-alias unsynchronized
dependence is an ERROR (the conflict provably happens), a *may* edge is
a WARNING (the abstraction could not disprove it; on the registry
workloads these are SCEV imprecision after chunking, and the oracle
confirms they do not materialize).

Under ``NOELLE_DEPTEST=1`` the symbolic dependence tests
(:mod:`repro.analysis.deptest`) sharpen both directions: loop-carried
may-edges the tests disprove never reach the checker (the WARNING is
dropped as proven safe by the shared LoopDG refinement), and a surviving
edge whose iteration distance the tests *proved* is upgraded to an ERROR
in a DOALL task — DOALL promises zero carried dependences, so a proven
distance is a definite race.  HELIX keeps the WARNING severity (the
distance is reported) because cross-iteration conflicts there are only
races when no sequential segment covers them across cores.
"""

from __future__ import annotations

from ..analysis.aa import AliasResult, ModRefResult, underlying_object
from ..ir.instructions import Alloca, Call, Cast, ElemPtr, Load, Store
from ..ir.intrinsics import calls_parallel_runtime, find_parallel_constructs
from ..ir.module import Function
from ..ir.values import ConstantInt
from .base import Checker, register_checker
from .diagnostics import Diagnostic

def _called_name(inst) -> str | None:
    if not isinstance(inst, Call):
        return None
    callee = inst.called_function()
    return callee.name if callee is not None else None


def segment_spans(fn: Function) -> dict[int, frozenset]:
    """Map each instruction id to the HELIX segment ids covering it.

    Segments are bracketed by ``helix_seq_begin(id)``/``helix_seq_end(id)``
    marker calls whose spans never cross a block boundary (the transform
    emits them per block), so a linear per-block scan suffices.
    """
    spans: dict[int, frozenset] = {}
    for block in fn.blocks:
        active: list[int] = []
        for inst in block.instructions:
            name = _called_name(inst)
            if name == "helix_seq_begin":
                seg = inst.args[0]
                active.append(seg.value if isinstance(seg, ConstantInt) else -1)
            spans[id(inst)] = frozenset(active)
            if name == "helix_seq_end" and active:
                active.pop()
    return spans


def _address_root(inst):
    """The pointer operand's underlying object, if the access has one."""
    if isinstance(inst, (Load, Store)):
        return underlying_object(inst.pointer)
    return None


def _address_is_private(root, fn: Function) -> bool:
    """True when ``root`` is an alloca of ``fn`` whose address never
    leaves the function — per-invocation storage no other core/stage can
    reach, so accesses to it cannot race."""
    if not isinstance(root, Alloca):
        return False
    block = getattr(root, "parent", None)
    if block is None or block.parent is not fn:
        return False
    worklist = [root]
    seen = {id(root)}
    while worklist:
        value = worklist.pop()
        for user in value.users():
            if isinstance(user, (ElemPtr, Cast)):
                if id(user) not in seen:
                    seen.add(id(user))
                    worklist.append(user)
            elif isinstance(user, Load):
                continue
            elif isinstance(user, Store):
                if user.value is value:
                    return False  # address stored somewhere
            else:
                return False  # call argument, phi, return, comparison, ...
    return True


def _env_field_path(pointer, fn: Function) -> tuple | None:
    """Constant index path of an env-struct access, or None.

    DSWP stage functions receive the shared environment as their first
    argument; two accesses rooted at it are provably disjoint when their
    index chains differ at a position where both are constant (distinct
    struct fields / reduction slots).  Returns the flattened constant
    prefix (None entries mark non-constant levels).
    """
    if not fn.args:
        return None
    env = fn.args[0]
    chain: list = []
    value = pointer
    while isinstance(value, (ElemPtr, Cast)):
        if isinstance(value, Cast):
            value = value.value
            continue
        level = []
        for index in value.indices:
            level.append(index.value if isinstance(index, ConstantInt) else None)
        chain = level + chain
        value = value.base
    if value is not env or not chain:
        return None
    return tuple(chain)


def _env_paths_disjoint(path_a: tuple, path_b: tuple) -> bool:
    for a, b in zip(path_a, path_b):
        if a is not None and b is not None and a != b:
            return True
    return False


@register_checker
class RaceChecker(Checker):
    """Prove dispatched parallel regions free of unsynchronized conflicts."""

    name = "races"

    def run(self, module, noelle) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for construct in find_parallel_constructs(module):
            if construct.kind in ("doall", "helix"):
                diagnostics.extend(self._check_loop_construct(construct, noelle))
            else:
                diagnostics.extend(self._check_dswp(construct, noelle))
        return diagnostics

    # -- DOALL / HELIX: loop-carried edges of the task loop ------------------------
    def _check_loop_construct(self, construct, noelle) -> list[Diagnostic]:
        task = construct.task
        spans = segment_spans(task) if construct.kind == "helix" else None
        findings: dict[frozenset, Diagnostic] = {}
        for natural in noelle.loop_info(task).loops():
            if natural.parent is not None:
                continue  # carried deps of inner loops stay within one iteration
            ldg = noelle.pdg().loop_dependence_graph(natural)
            for edge in ldg.loop_carried_edges():
                if not edge.is_memory or not edge.is_data():
                    continue
                src, dst = edge.src.value, edge.dst.value
                if calls_parallel_runtime(src) or calls_parallel_runtime(dst):
                    continue
                root_src = _address_root(src)
                root_dst = _address_root(dst)
                if (
                    isinstance(root_src, Alloca)
                    and root_src is root_dst
                    and natural.contains(root_src)
                ):
                    continue  # fresh allocation every iteration: private
                if (
                    _address_is_private(root_src, task)
                    and _address_is_private(root_dst, task)
                ):
                    continue  # per-invocation (= per-core) storage
                if spans is not None:
                    common = (
                        spans.get(id(src), frozenset())
                        & spans.get(id(dst), frozenset())
                    )
                    if common:
                        continue  # serialized by a shared sequential segment
                severity = "error" if edge.is_must else "warning"
                distance = edge.distance
                if distance is not None and construct.kind == "doall":
                    # The dependence-test engine proved the conflict and
                    # its iteration distance; a DOALL loop promises no
                    # carried dependence at all, so this is definite.
                    severity = "error"
                key = frozenset((id(src), id(dst)))
                previous = findings.get(key)
                if previous is not None and previous.severity == "error":
                    continue
                suffix = (
                    "outside any sequential segment"
                    if construct.kind == "helix"
                    else "in a DOALL loop (which promises none)"
                )
                if distance is not None:
                    suffix += f" (proven iteration distance {distance})"
                findings[key] = Diagnostic(
                    self.name,
                    severity,
                    f"loop-carried {edge.data_kind} memory dependence "
                    f"between {_describe(src)} and {_describe(dst)} {suffix}",
                    function=task.name,
                    location=_location(src),
                    pass_name=construct.kind,
                )
        return list(findings.values())

    # -- DSWP: cross-stage conflicts -----------------------------------------------
    def _check_dswp(self, construct, noelle) -> list[Diagnostic]:
        aa = noelle.alias_analysis()
        stage_memory = [
            (index, fn, self._memory_instructions(fn))
            for index, fn in construct.stages
        ]
        findings: dict[frozenset, Diagnostic] = {}
        for i in range(len(stage_memory)):
            index_a, fn_a, insts_a = stage_memory[i]
            for j in range(i + 1, len(stage_memory)):
                index_b, fn_b, insts_b = stage_memory[j]
                for a in insts_a:
                    for b in insts_b:
                        if not (a.may_write_memory() or b.may_write_memory()):
                            continue
                        verdict = self._conflict(a, fn_a, b, fn_b, aa)
                        if verdict is None:
                            continue
                        key = frozenset((id(a), id(b)))
                        previous = findings.get(key)
                        if previous is not None and previous.severity == "error":
                            continue
                        findings[key] = Diagnostic(
                            self.name,
                            verdict,
                            f"stages {index_a} and {index_b} may access the "
                            f"same memory without a queue: {_describe(a)} in "
                            f"@{fn_a.name} vs {_describe(b)} in @{fn_b.name}",
                            function=fn_a.name,
                            location=_location(a),
                            pass_name="dswp",
                        )
        return list(findings.values())

    @staticmethod
    def _memory_instructions(fn: Function) -> list:
        result = []
        for inst in fn.instructions():
            if not inst.touches_memory() or calls_parallel_runtime(inst):
                continue
            result.append(inst)
        return result

    @staticmethod
    def _conflict(a, fn_a, b, fn_b, aa) -> str | None:
        """Severity of the cross-stage conflict, or None when disproved."""
        pointer_a = a.pointer if isinstance(a, (Load, Store)) else None
        pointer_b = b.pointer if isinstance(b, (Load, Store)) else None
        if pointer_a is not None and _address_is_private(
            underlying_object(pointer_a), fn_a
        ):
            return None
        if pointer_b is not None and _address_is_private(
            underlying_object(pointer_b), fn_b
        ):
            return None
        if pointer_a is not None and pointer_b is not None:
            path_a = _env_field_path(pointer_a, fn_a)
            path_b = _env_field_path(pointer_b, fn_b)
            if (
                path_a is not None
                and path_b is not None
                and _env_paths_disjoint(path_a, path_b)
            ):
                return None  # distinct environment fields
            result = aa.alias(pointer_a, pointer_b)
            if result is AliasResult.NO_ALIAS:
                return None
            if result is AliasResult.MUST_ALIAS:
                return "error"
            if path_a is not None and path_b is not None and path_a == path_b:
                # Same constant env field from two stages: a definite
                # conflict even if the AA only answers "may".
                return "error"
            return "warning"
        # At least one call: fall back to mod/ref against the other pointer.
        if isinstance(a, Call) and pointer_b is not None:
            if aa.mod_ref(a, pointer_b) is ModRefResult.NO_MOD_REF:
                return None
            return "warning"
        if isinstance(b, Call) and pointer_a is not None:
            if aa.mod_ref(b, pointer_a) is ModRefResult.NO_MOD_REF:
                return None
            return "warning"
        return "warning"  # call/call: conservative


def _describe(inst) -> str:
    if isinstance(inst, Load):
        return f"load {inst.ref()}"
    if isinstance(inst, Store):
        return f"store to {inst.pointer.ref()}"
    name = _called_name(inst)
    if name is not None:
        return f"call @{name}"
    return inst.opcode


def _location(inst) -> str:
    if getattr(inst, "name", ""):
        return f"%{inst.name}"
    block = getattr(inst, "parent", None)
    return f"{inst.opcode} in %{block.name}" if block is not None else inst.opcode
