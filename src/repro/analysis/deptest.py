"""Symbolic loop dependence tests over affine subscripts (DESIGN.md §14).

For two memory accesses in a loop whose addresses linearize to affine
functions of the iteration number — ``base + const + syms + stride*i`` in
slot units, derived by :mod:`repro.analysis.scev` through the ``elem_ptr``
chain — the classic array dependence tests decide whether executions from
different iterations can touch the same slots:

* **ZIV** (zero index variable): both strides zero — the offsets either
  coincide every iteration or never.
* **strong SIV**: equal non-zero strides — a conflict forces an exact
  iteration distance ``(const_a - const_b) / stride``; a non-integer
  distance, or one at least the trip count, disproves it.
* **GCD**: different strides — any conflict satisfies a linear
  Diophantine equation, so a residue ``const_b - const_a`` indivisible by
  ``gcd(stride_a, stride_b)`` disproves it; otherwise the iteration-range
  bounds (SCEV range × trip count) may still separate the accesses.

Verdicts are :data:`PROVEN_INDEPENDENT`, :data:`PROVEN_DEPENDENT` (with
the dependence distance when unique), or :data:`UNKNOWN`.  Two scopes
with different soundness obligations:

* ``scope="loop"`` answers *can iterations of one execution of this loop
  conflict* — symbolic loop-invariant offset parts may cancel (the same
  symbols have the same values within one execution).  This refines
  loop-carried classification, DOALL legality, and the race checker.
* ``scope="function"`` answers *can these instructions ever touch common
  memory* — the proof must be invocation-independent, so only fully
  constant affine forms qualify (symbols may change between loop
  executions, re-aligning the accesses).  This prunes PDG shard edges.

The default loop dependence graph consults only the linearizer
(:meth:`DependenceTester.intra_iteration`): an edge whose endpoints
linearize to the same object, symbols, constant and non-zero stride — at
least both access sizes in magnitude — is intra-iteration, the
distance-0 case of strong SIV.  The tests themselves refine loop-carried edges and prune
PDG shard edges only under ``NOELLE_DEPTEST=1`` (read dynamically, like
``NOELLE_STATS``).
"""

from __future__ import annotations

import os
from math import gcd

from ..ir.instructions import Cast, ElemPtr, Instruction, Load, Store
from ..ir.ranges import affine_range
from ..ir.types import ArrayType, StructType
from ..ir.values import ConstantInt, Value
from ..perf import STATS
from .loopinfo import NaturalLoop
from .scev import (
    SCEV,
    SCEVAddRec,
    SCEVConstant,
    ScalarEvolution,
    _Sym,
    evolution_is_invariant,
)

#: Verdict kinds.
PROVEN_INDEPENDENT = "independent"
PROVEN_DEPENDENT = "dependent"
UNKNOWN = "unknown"


def deptest_enabled() -> bool:
    """True when symbolic dependence testing is on (``NOELLE_DEPTEST=1``)."""
    return os.environ.get("NOELLE_DEPTEST", "") not in ("", "0")


class DepVerdict:
    """Outcome of one dependence test."""

    __slots__ = ("kind", "distance", "reason")

    def __init__(self, kind: str, distance: int | None = None, reason: str = ""):
        self.kind = kind
        #: For PROVEN_DEPENDENT with a unique solution: the iteration
        #: distance d such that b's conflicting iteration is a's plus d.
        self.distance = distance
        self.reason = reason

    @property
    def is_independent(self) -> bool:
        return self.kind == PROVEN_INDEPENDENT

    @property
    def is_dependent(self) -> bool:
        return self.kind == PROVEN_DEPENDENT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        distance = f" d={self.distance}" if self.distance is not None else ""
        return f"<DepVerdict {self.kind}{distance} ({self.reason})>"


_INDEPENDENT = "independent"


class AffineAccess:
    """One access linearized to ``base + const + syms + stride*i`` slots."""

    __slots__ = ("inst", "base", "const", "syms", "stride", "size", "intra_key")

    def __init__(self, inst, base, const: int, syms, stride: int, size: int):
        self.inst = inst
        self.base = base
        self.const = const
        #: Canonical symbolic offset: tuple of (SCEV, coefficient) in
        #: printed order — SCEV nodes compare structurally, so equal
        #: symbolic offsets from two accesses cancel exactly.
        self.syms = syms
        self.stride = stride
        #: Slots the access touches ([const.., const+size) at iteration 0).
        self.size = size
        #: Equal keys prove two accesses conflict only within one
        #: iteration (strong SIV at distance 0): a stride at least the
        #: access size keeps each iteration's slots apart.  None when the
        #: stride is zero or shorter than the access.
        self.intra_key = (
            (base, const, syms, stride)
            if stride != 0 and abs(stride) >= size
            else None
        )

    def describe(self) -> str:
        parts = [str(self.const)]
        for sym, coefficient in self.syms:
            parts.append(f"{coefficient}*{sym!r}")
        if self.stride:
            parts.append(f"{self.stride}*i")
        return f"{self.base.ref()}[{' + '.join(parts)}] size {self.size}"


class _Affine:
    """Mutable affine accumulator: const + sym coefficients + stride."""

    __slots__ = ("const", "syms", "stride")

    def __init__(self) -> None:
        self.const = 0
        self.syms: dict[SCEV, int] = {}
        self.stride = 0

    def add(self, scev: SCEV | None, loop: NaturalLoop, scale: int) -> bool:
        """Add ``scale`` times the evolution's constant, symbolic-invariant
        and stride parts; False when it is not affine around ``loop``."""
        if isinstance(scev, SCEVConstant):
            self.const += scev.value * scale
            return True
        if isinstance(scev, SCEVAddRec):
            step = scev.constant_step()
            if scev.loop is not loop or step is None:
                return False
            stride = self.stride
            if not self.add(scev.start, loop, scale) or self.stride != stride:
                return False  # the start must not move with the loop
            self.stride += step * scale
            return True
        if isinstance(scev, _Sym) and scev.opcode in ("add", "sub"):
            rhs_scale = -scale if scev.opcode == "sub" else scale
            return self.add(scev.lhs, loop, scale) and self.add(
                scev.rhs, loop, rhs_scale
            )
        if isinstance(scev, _Sym) and scev.opcode == "mul":
            for const, other in ((scev.lhs, scev.rhs), (scev.rhs, scev.lhs)):
                if isinstance(const, SCEVConstant):
                    return self.add(other, loop, scale * const.value)
            # fall through: an opaque invariant product is one symbol
        if evolution_is_invariant(scev):
            total = self.syms.get(scev, 0) + scale
            if total:
                self.syms[scev] = total
            else:
                self.syms.pop(scev, None)
            return True
        return False

    def canonical_syms(self) -> tuple:
        if not self.syms:
            return ()
        # By printed form, which names no address: the order is stable
        # across runs.  Two distinct symbols print alike only if their
        # values share a name; the hash then breaks the tie, so equal
        # symbol sets still give equal tuples.
        return tuple(
            sorted(
                self.syms.items(),
                key=lambda item: (repr(item[0]), hash(item[0])),
            )
        )


class DependenceTester:
    """ZIV / strong-SIV / GCD dependence tests for one loop's accesses."""

    def __init__(self, loop: NaturalLoop):
        self.loop = loop
        self.scev = ScalarEvolution(loop)
        self._accesses: dict[int, AffineAccess | None] = {}
        #: instruction id -> its access's ``intra_key``: an access takes
        #: part in one pair per memory edge of a loop dependence graph.
        self._intra_keys: dict[int, tuple | None] = {}
        #: Pin id-keyed instructions (the alias-memo convention).
        self._pinned: dict[int, Instruction] = {}

    @property
    def trip(self) -> int | None:
        """The loop's trip count, derived on first use (SCEV caches it)."""
        return self.scev.trip_count()

    # -- access linearization ------------------------------------------------------
    def access_of(self, inst: Instruction) -> AffineAccess | None:
        """The affine slot-offset form of a load/store address, or None."""
        cached = self._accesses.get(id(inst))
        if cached is not None or id(inst) in self._accesses:
            return cached
        self._pinned[id(inst)] = inst
        result = self._linearize(inst)
        self._accesses[id(inst)] = result
        return result

    def _linearize(self, inst: Instruction) -> AffineAccess | None:
        if isinstance(inst, Load):
            pointer = inst.pointer
        elif isinstance(inst, Store):
            pointer = inst.pointer
        else:
            return None
        size = (
            pointer.type.pointee.size_in_slots()
            if pointer.type.is_pointer()
            else 1
        )
        offset = _Affine()
        while True:
            # The walk of ``aa.underlying_object``: through bitcasts and
            # elem_ptrs to the base object.
            while isinstance(pointer, Cast):
                if pointer.opcode != "bitcast":
                    return None  # a pointer made from an integer
                pointer = pointer.value
            if not isinstance(pointer, ElemPtr):
                break
            current = pointer.base.type.pointee
            indices = pointer.indices
            if not self._add_index(offset, indices[0], current.size_in_slots()):
                return None
            for index in indices[1:]:
                if isinstance(current, ArrayType):
                    scale = current.element.size_in_slots()
                    if not self._add_index(offset, index, scale):
                        return None
                    current = current.element
                elif isinstance(current, StructType):
                    if not isinstance(index, ConstantInt):
                        return None
                    if not 0 <= index.value < len(current.fields):
                        return None
                    offset.const += current.field_offset(index.value)
                    current = current.fields[index.value]
                else:
                    return None
            pointer = pointer.base
        return AffineAccess(
            inst, pointer, offset.const, offset.canonical_syms(),
            offset.stride, size,
        )

    def _add_index(self, offset: _Affine, index: Value, scale: int) -> bool:
        if isinstance(index, ConstantInt):
            offset.const += index.value * scale
            return True
        evolution = self.scev.evolution_of(index)
        # A narrow index's evolution is its value only while it fits the
        # index's width (the i64 one is assumed not to wrap).
        width = index.type.width
        if width < 64 and not (
            isinstance(evolution, SCEVAddRec)
            and self.scev.addrec_range(evolution, width) is not None
        ):
            return False
        return offset.add(evolution, self.loop, scale)

    def intra_iteration(self, a: Instruction, b: Instruction) -> bool:
        """True when ``a`` and ``b`` can touch common slots only within
        one iteration: their ``intra_key``s are equal.  Calls and
        non-affine addresses answer False."""
        key = self._intra_key(a)
        return key is not None and key == self._intra_key(b)

    def _intra_key(self, inst: Instruction) -> tuple | None:
        try:
            return self._intra_keys[id(inst)]
        except KeyError:
            access = self.access_of(inst)
            key = self._intra_keys[id(inst)] = (
                None if access is None else access.intra_key
            )
            return key

    # -- the tests ----------------------------------------------------------------
    def test_pair(
        self, a: Instruction, b: Instruction, scope: str = "loop"
    ) -> DepVerdict:
        """Dependence verdict for accesses ``a`` and ``b`` (see module doc).

        ``scope="loop"`` quantifies over iteration pairs of one loop
        execution; ``scope="function"`` additionally requires the proof
        to hold across executions (fully constant affine forms only).
        """
        STATS.count("deptest.pairs_tested")
        verdict = self._test_pair(a, b, scope)
        if verdict.is_independent:
            STATS.count("deptest.proven_independent")
        elif verdict.is_dependent:
            STATS.count("deptest.proven_dependent")
        else:
            STATS.count("deptest.unknown")
        return verdict

    def _test_pair(self, a: Instruction, b: Instruction, scope: str) -> DepVerdict:
        access_a = self.access_of(a)
        access_b = self.access_of(b)
        if access_a is None or access_b is None:
            return DepVerdict(UNKNOWN, reason="non-affine access")
        if access_a.base is not access_b.base:
            return DepVerdict(UNKNOWN, reason="different base objects")
        if scope == "function":
            if access_a.syms or access_b.syms:
                return DepVerdict(
                    UNKNOWN, reason="symbolic offset is not invocation-independent"
                )
        elif access_a.syms != access_b.syms:
            return DepVerdict(UNKNOWN, reason="symbolic offsets do not cancel")
        # From here the symbolic parts cancel: the offset difference is
        # delta + stride_b*j - stride_a*i with everything constant.
        delta = access_b.const - access_a.const
        stride_a, stride_b = access_a.stride, access_b.stride
        size_a, size_b = access_a.size, access_b.size
        if stride_a == 0 and stride_b == 0:
            return self._ziv(delta, size_a, size_b)
        if stride_a == stride_b:
            return self._strong_siv(delta, stride_a, size_a, size_b)
        return self._gcd(access_a, access_b, delta)

    @staticmethod
    def _ziv(delta: int, size_a: int, size_b: int) -> DepVerdict:
        # Same slots every iteration, or never: ranges [0, size_a) and
        # [delta, delta+size_b) around the common offset.  An overlap
        # conflicts at *every* iteration pair, so no distance is claimed.
        if -size_b < delta < size_a:
            return DepVerdict(PROVEN_DEPENDENT, reason="ZIV overlap")
        return DepVerdict(PROVEN_INDEPENDENT, reason="ZIV disjoint")

    def _strong_siv(
        self, delta: int, stride: int, size_a: int, size_b: int
    ) -> DepVerdict:
        # Conflict between iterations i (a) and j (b) iff
        # delta + stride*(j - i) lands in (-size_b, size_a).  Enumerate
        # the offsets in that window on a's residue class.
        distances = []
        trip = self.trip
        for offset in range(-(size_b - 1), size_a):
            if (offset - delta) % stride == 0:
                distance = (offset - delta) // stride
                if trip is not None and abs(distance) >= trip:
                    continue  # farther apart than the loop ever runs
                distances.append(distance)
        if not distances:
            return DepVerdict(PROVEN_INDEPENDENT, reason="SIV no distance")
        if len(distances) == 1:
            return DepVerdict(
                PROVEN_DEPENDENT, distance=distances[0], reason="strong SIV"
            )
        return DepVerdict(UNKNOWN, reason="SIV multiple distances")

    def _gcd(
        self, access_a: AffineAccess, access_b: AffineAccess, delta: int
    ) -> DepVerdict:
        divisor = gcd(abs(access_a.stride), abs(access_b.stride))
        if divisor > 1:
            hit = any(
                (offset - delta) % divisor == 0
                for offset in range(-(access_b.size - 1), access_a.size)
            )
            if not hit:
                return DepVerdict(PROVEN_INDEPENDENT, reason="GCD residue")
        range_a = self._range(access_a)
        range_b = self._range(access_b)
        if range_a is not None and range_b is not None:
            low_a, high_a = range_a
            low_b, high_b = range_b
            if high_a < low_b or high_b < low_a:
                return DepVerdict(PROVEN_INDEPENDENT, reason="ranges disjoint")
        return DepVerdict(UNKNOWN, reason="GCD inconclusive")

    def _range(self, access: AffineAccess) -> tuple[int, int] | None:
        """Inclusive slot range the access spans over all iterations."""
        if access.syms:
            return None
        # Slot offsets are unbounded integers: no width to leave.
        span = affine_range(
            access.const, access.stride, self.trip if access.stride else 1
        )
        if span is None:
            return None
        return (span[0], span[1] + access.size - 1)

    # -- consumers' shapes ---------------------------------------------------------
    def carried(
        self, a: Instruction, b: Instruction
    ) -> tuple[bool, int | None]:
        """(may the dependence cross iterations, known distance).

        ``(False, None)`` means proven intra-iteration-only (or absent
        entirely); ``(True, d)`` keeps the edge with an exact distance;
        ``(True, None)`` is the conservative answer.
        """
        with STATS.timer("deptest.query"):
            verdict = self.test_pair(a, b, scope="loop")
        if verdict.is_independent:
            return (False, None)
        if verdict.is_dependent:
            if verdict.distance == 0:
                return (False, None)  # same iteration only: not carried
            return (True, verdict.distance)
        return (True, None)

    def proves_no_dependence(self, a: Instruction, b: Instruction) -> bool:
        """Invocation-independent disjointness (PDG shard pruning)."""
        with STATS.timer("deptest.query"):
            return self.test_pair(a, b, scope="function").is_independent


class FunctionDepTest:
    """Function-scope dependence tester: one lazy tester per loop.

    Used during PDG shard construction; rebuilt with the shard, so warm
    invalidation semantics are untouched.
    """

    def __init__(self, fn):
        self.fn = fn
        self._info = None
        self._testers: dict[int, DependenceTester] = {}
        #: Pin id-keyed loops alongside their testers.
        self._pinned: dict[int, NaturalLoop] = {}

    def _loop_info(self):
        if self._info is None:
            from .loopinfo import LoopInfo

            self._info = LoopInfo(self.fn)
        return self._info

    def _common_loop(self, a: Instruction, b: Instruction) -> NaturalLoop | None:
        info = self._loop_info()
        loop = info.loop_of(a.parent)
        while loop is not None and not loop.contains(b):
            loop = loop.parent
        return loop

    def proves_independent(self, a: Instruction, b: Instruction) -> bool:
        """Can the pair be proven disjoint in every execution?"""
        if not isinstance(a, (Load, Store)) or not isinstance(b, (Load, Store)):
            return False
        loop = self._common_loop(a, b)
        if loop is None:
            return False
        tester = self._testers.get(id(loop))
        if tester is None:
            tester = DependenceTester(loop)
            self._testers[id(loop)] = tester
            self._pinned[id(loop)] = loop
        return tester.proves_no_dependence(a, b)
