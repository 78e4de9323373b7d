"""Scalar evolution — symbolic evolutions of loop values.

The engine recognizes affine add-recurrences ``{start, +, step}`` around a
given loop, folds constants symbolically, combines evolutions under
add/sub/mul, and keeps loop-invariant values as opaque symbolic unknowns —
which is exactly what the induction variable abstraction, the IV stepper,
DOALL's chunking, and the dependence-test engine
(:mod:`repro.analysis.deptest`) need.  NOELLE re-implements LLVM's scalar
evolution with user-controlled lifetime (Section 2.2); these objects are
plain values, reproducing that behaviour.

Beyond recurrence recognition the engine derives *trip counts* from loop
exit compares (``trip_count``), bounds an add-recurrence's value range
over those iterations (``addrec_range``), and folds ``srem`` by a
constant away when the dividend's range provably stays inside
``[0, modulus)`` — the form every generated workload's subscripts take.
Their arithmetic is :mod:`repro.ir.ranges`, under its width rule: a
closed form is the value only while it fits the IR type's width, so no
trip count or range is claimed for a recurrence that wraps first.  A
64-bit one with an unknown trip is assumed not to wrap (MiniC's ``int``
is ``i64``, and C leaves signed overflow undefined).

Every SCEV node compares *structurally*: two independently-derived
evolutions of the same shape are equal and hash together, so they can key
memo tables and cancel against each other in dependence subscripts.  A
``SCEVUnknown`` keys by the underlying ``Value``'s own equality (identity
for instructions, structural for constants) — the same convention the
alias memo uses — so structurally identical invariant operands reached
through different query paths compare equal.
"""

from __future__ import annotations

from ..ir.instructions import BinaryOp, CmpInst, CondBranch, Instruction, Phi
from ..ir.ranges import affine_range, first_exit
from ..ir.values import ConstantInt, Value
from .loopinfo import NaturalLoop

#: Sentinel distinguishing "not computed yet" from a computed ``None``.
_UNSET = object()


class SCEV:
    """Base class of symbolic scalar evolutions."""


class SCEVConstant(SCEV):
    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return f"{self.value}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SCEVConstant) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("scev-const", self.value))


class SCEVUnknown(SCEV):
    """A loop-invariant value we cannot decompose further.

    Equality keys on the wrapped ``Value`` itself (not ``id``): values
    with structural equality (constants) compare structurally, while
    instructions and arguments keep identity semantics.  The node holds a
    strong reference to the value, so the key can never be recycled.
    """

    def __init__(self, value: Value):
        self.value = value

    def __repr__(self) -> str:
        return f"unknown({self.value.ref()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SCEVUnknown) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("scev-unknown", self.value))


class SCEVAddRec(SCEV):
    """An affine recurrence ``{start, +, step}`` over a loop."""

    def __init__(self, start: SCEV, step: SCEV, loop: NaturalLoop):
        self.start = start
        self.step = step
        self.loop = loop

    def constant_step(self) -> int | None:
        return self.step.value if isinstance(self.step, SCEVConstant) else None

    def constant_start(self) -> int | None:
        return (
            self.start.value if isinstance(self.start, SCEVConstant) else None
        )

    def __repr__(self) -> str:
        return f"{{{self.start!r}, +, {self.step!r}}}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SCEVAddRec)
            and other.loop is self.loop
            and other.start == self.start
            and other.step == self.step
        )

    def __hash__(self) -> int:
        return hash(("scev-addrec", self.start, self.step, id(self.loop)))


class _Sym(SCEV):
    """A symbolic combination kept opaque (enough for IV purposes)."""

    def __init__(self, opcode: str, lhs: SCEV, rhs: SCEV):
        self.opcode = opcode
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.opcode} {self.rhs!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Sym)
            and other.opcode == self.opcode
            and other.lhs == self.lhs
            and other.rhs == self.rhs
        )

    def __hash__(self) -> int:
        return hash(("scev-sym", self.opcode, self.lhs, self.rhs))


class ScalarEvolution:
    """Per-loop symbolic evolution analysis.

    ``x srem m`` by a positive constant evolves as ``x`` whenever ``x``'s
    range over the loop provably stays inside ``[0, m)``, so subscripts
    behind the modulo guards generated programs carry stay affine.
    """

    def __init__(self, loop: NaturalLoop):
        self.loop = loop
        self._cache: dict[int, SCEV | None] = {}
        #: Strong references pinning every id-keyed value (the alias-memo
        #: convention: an id key must never outlive its object).
        self._pinned: dict[int, Value] = {}
        self._trip: object = _UNSET

    def evolution_of(self, value: Value) -> SCEV | None:
        """The evolution of ``value`` around this loop, or None if unknown."""
        cached = self._cache.get(id(value))
        if cached is not None or id(value) in self._cache:
            return cached
        # Break cycles (mutually recursive phis) by pre-seeding None.
        self._cache[id(value)] = None
        self._pinned[id(value)] = value
        result = self._compute(value)
        self._cache[id(value)] = result
        return result

    def _compute(self, value: Value) -> SCEV | None:
        if isinstance(value, ConstantInt):
            return SCEVConstant(value.value)
        if not isinstance(value, Instruction) or not self.loop.contains(value):
            return SCEVUnknown(value)
        if isinstance(value, Phi):
            return self._phi_recurrence(value)
        if isinstance(value, BinaryOp) and value.opcode in ("add", "sub", "mul"):
            lhs = self.evolution_of(value.lhs)
            rhs = self.evolution_of(value.rhs)
            if lhs is None or rhs is None:
                return None
            return self._combine(value.opcode, lhs, rhs)
        if isinstance(value, BinaryOp) and value.opcode == "srem":
            return self._srem_evolution(value)
        return None

    def _phi_recurrence(self, phi: Phi) -> SCEV | None:
        if phi.parent is not self.loop.header:
            return None
        start: SCEV | None = None
        step: SCEV | None = None
        for incoming, pred in phi.incoming():
            if self.loop.contains_block(pred):
                step = self._step_from_latch_value(phi, incoming)
                if step is None:
                    return None
            else:
                if start is not None:
                    return None  # multiple entry edges: not canonical
                start = self.evolution_of(incoming) or SCEVUnknown(incoming)
        if start is None or step is None:
            return None
        return SCEVAddRec(start, step, self.loop)

    def _step_from_latch_value(self, phi: Phi, latch_value: Value) -> SCEV | None:
        """Match ``latch_value == phi (+|-) loop-invariant-step``."""
        if not isinstance(latch_value, BinaryOp):
            return None
        if latch_value.opcode == "add":
            if latch_value.lhs is phi:
                other = latch_value.rhs
            elif latch_value.rhs is phi:
                other = latch_value.lhs
            else:
                return None
            return self._invariant_scev(other)
        if latch_value.opcode == "sub" and latch_value.lhs is phi:
            inv = self._invariant_scev(latch_value.rhs)
            if isinstance(inv, SCEVConstant):
                return SCEVConstant(-inv.value)
            return None
        return None

    def _invariant_scev(self, value: Value) -> SCEV | None:
        if isinstance(value, ConstantInt):
            return SCEVConstant(value.value)
        if isinstance(value, Instruction) and self.loop.contains(value):
            return None
        return SCEVUnknown(value)

    def _combine(self, opcode: str, lhs: SCEV, rhs: SCEV) -> SCEV | None:
        if isinstance(lhs, SCEVConstant) and isinstance(rhs, SCEVConstant):
            if opcode == "add":
                return SCEVConstant(lhs.value + rhs.value)
            if opcode == "sub":
                return SCEVConstant(lhs.value - rhs.value)
            return SCEVConstant(lhs.value * rhs.value)
        if isinstance(lhs, SCEVAddRec) and self._is_invariant(rhs):
            if opcode == "add":
                return SCEVAddRec(_add(lhs.start, rhs), lhs.step, lhs.loop)
            if opcode == "sub":
                return SCEVAddRec(_sub(lhs.start, rhs), lhs.step, lhs.loop)
            if opcode == "mul":
                return SCEVAddRec(
                    _mul(lhs.start, rhs), _mul(lhs.step, rhs), lhs.loop
                )
        if isinstance(rhs, SCEVAddRec) and self._is_invariant(lhs):
            if opcode == "add":
                return SCEVAddRec(_add(rhs.start, lhs), rhs.step, rhs.loop)
            if opcode == "sub":
                # inv - {s, +, d}  ==  {inv - s, +, -d}
                return SCEVAddRec(
                    _sub(lhs, rhs.start), _neg(rhs.step), rhs.loop
                )
            if opcode == "mul":
                return SCEVAddRec(
                    _mul(rhs.start, lhs), _mul(rhs.step, lhs), rhs.loop
                )
        if isinstance(lhs, SCEVAddRec) and isinstance(rhs, SCEVAddRec):
            if lhs.loop is rhs.loop and opcode == "add":
                return SCEVAddRec(
                    _add(lhs.start, rhs.start), _add(lhs.step, rhs.step), lhs.loop
                )
            if lhs.loop is rhs.loop and opcode == "sub":
                return SCEVAddRec(
                    _sub(lhs.start, rhs.start), _sub(lhs.step, rhs.step), lhs.loop
                )
        # Invariant (x) invariant stays invariant — loop bounds like
        # ``n - width - 1`` recomputed in the header are still constant
        # across iterations.
        if self._is_invariant(lhs) and self._is_invariant(rhs):
            if opcode == "add":
                return _add(lhs, rhs)
            if opcode == "sub":
                return _sub(lhs, rhs)
            return _mul(lhs, rhs)
        return None

    def _srem_evolution(self, value: BinaryOp) -> SCEV | None:
        """``x srem m`` folds to ``x`` when x provably stays in [0, m)."""
        if not isinstance(value.rhs, ConstantInt):
            return None
        modulus = value.rhs.value
        if modulus <= 0:
            return None
        lhs = self.evolution_of(value.lhs)
        if isinstance(lhs, SCEVConstant):
            return SCEVConstant(_srem(lhs.value, modulus))
        if isinstance(lhs, SCEVAddRec):
            bounds = self.addrec_range(lhs, value.type.width)
            if bounds is not None:
                low, high = bounds
                if 0 <= low and high < modulus:
                    return lhs
            return None
        if lhs is not None and self._is_invariant(lhs):
            return _Sym("srem", lhs, SCEVConstant(modulus))
        return None

    @staticmethod
    def _is_invariant(scev: SCEV) -> bool:
        return evolution_is_invariant(scev)

    # -- trip counts ---------------------------------------------------------------
    def trip_count(self) -> int | None:
        """How many times the loop body executes, when statically known.

        Derived from the loop's exit compares: the unique exiting block's
        conditional branch must compare an affine recurrence with constant
        start and step against a constant bound, with a predicate that
        forces the exit the first time it fails.  Returns None for
        multi-exit loops, symbolic bounds, non-monotone exits, or an exit
        recurrence that wraps before it fails.
        """
        if self._trip is _UNSET:
            self._trip = self._compute_trip_count()
        return self._trip  # type: ignore[return-value]

    def _compute_trip_count(self) -> int | None:
        exiting = self.loop.exiting_blocks()
        if len(exiting) != 1:
            return None
        block = exiting[0]
        term = block.terminator
        if not isinstance(term, CondBranch):
            return None
        compare = term.condition
        if not isinstance(compare, CmpInst) or compare.opcode != "icmp":
            return None
        in_true = self.loop.contains_block(term.true_block)
        in_false = self.loop.contains_block(term.false_block)
        if in_true == in_false:
            return None
        continues_on_true = in_true
        fail_index = self._first_failing_iteration(compare, continues_on_true)
        if fail_index is None:
            return None
        # A header test cuts iteration ``fail_index`` before its body runs;
        # a latch test has already run the body of the iteration it ends.
        # Latch membership must win when the block is both (a single-block
        # test-last loop): the terminator sits after the body, so the
        # failing iteration's body has already executed.
        if block in self.loop.latches():
            return fail_index + 1
        if block is self.loop.header:
            return fail_index
        return None

    def _first_failing_iteration(
        self, compare: CmpInst, continues_on_true: bool
    ) -> int | None:
        """First iteration i >= 0 where the continue condition fails.

        The compare's IV-side operand evaluates to ``start + step*i`` in
        iteration i (its add-recurrence around this loop) until it leaves
        the operands' width, so the first failure is a closed form when
        the predicate is monotone and nothing wraps before it.
        """
        predicate, start, step, bound = self._normalized_exit(compare) or (
            None, None, None, None
        )
        if predicate is None:
            return None
        if not continues_on_true:
            predicate = _NEGATED_PREDICATE.get(predicate)
            if predicate is None:
                return None
        width = compare.lhs.type.width
        return first_exit(predicate, start, step, bound, width)

    def _normalized_exit(self, compare: CmpInst):
        """(predicate, start, step, bound) with the recurrence on the left."""
        lhs = self.evolution_of(compare.lhs)
        rhs = self.evolution_of(compare.rhs)
        for mine, other, predicate in (
            (lhs, rhs, compare.predicate),
            (rhs, lhs, _SWAPPED_PREDICATE.get(compare.predicate)),
        ):
            if predicate is None:
                continue
            if not isinstance(mine, SCEVAddRec) or mine.loop is not self.loop:
                continue
            start = mine.constant_start()
            step = mine.constant_step()
            if start is None or step is None:
                continue
            if not isinstance(other, SCEVConstant):
                continue
            return predicate, start, step, other.value
        return None

    # -- value ranges --------------------------------------------------------------
    def addrec_range(
        self, addrec: SCEVAddRec, width: int
    ) -> tuple[int, int] | None:
        """Inclusive (min, max) of the recurrence over the loop's iterations.

        Needs a constant start and step plus a known trip count.  None
        when any is unknown, the loop provably never runs, or a value
        leaves ``width`` bits (the width of the IR value it evolves).
        """
        if addrec.loop is not self.loop:
            return None
        start = addrec.constant_start()
        step = addrec.constant_step()
        if start is None or step is None:
            return None
        return affine_range(start, step, self.trip_count(), width)


#: icmp predicate under operand swap (a pred b  <=>  b pred' a).
_SWAPPED_PREDICATE = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
}

#: icmp predicate negation (continue-on-false exits re-use the closed forms).
_NEGATED_PREDICATE = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
}


def _srem(value: int, modulus: int) -> int:
    """Truncated (C-style) signed remainder."""
    remainder = abs(value) % abs(modulus)
    return -remainder if value < 0 else remainder


def _add(a: SCEV, b: SCEV) -> SCEV:
    if isinstance(a, SCEVConstant) and isinstance(b, SCEVConstant):
        return SCEVConstant(a.value + b.value)
    if isinstance(a, SCEVConstant) and a.value == 0:
        return b
    if isinstance(b, SCEVConstant) and b.value == 0:
        return a
    return _Sym("add", a, b)


def _sub(a: SCEV, b: SCEV) -> SCEV:
    if isinstance(a, SCEVConstant) and isinstance(b, SCEVConstant):
        return SCEVConstant(a.value - b.value)
    if isinstance(b, SCEVConstant) and b.value == 0:
        return a
    if a == b:
        return SCEVConstant(0)
    return _Sym("sub", a, b)


def _mul(a: SCEV, b: SCEV) -> SCEV:
    if isinstance(a, SCEVConstant) and isinstance(b, SCEVConstant):
        return SCEVConstant(a.value * b.value)
    for const, other in ((a, b), (b, a)):
        if isinstance(const, SCEVConstant):
            if const.value == 0:
                return SCEVConstant(0)
            if const.value == 1:
                return other
    return _Sym("mul", a, b)


def _neg(a: SCEV) -> SCEV:
    return _sub(SCEVConstant(0), a)


def evolution_is_invariant(scev: SCEV | None) -> bool:
    """True when the evolution provably takes the same value every
    iteration (constants, out-of-loop values, and combinations thereof)."""
    if isinstance(scev, (SCEVConstant, SCEVUnknown)):
        return True
    if isinstance(scev, _Sym):
        return evolution_is_invariant(scev.lhs) and evolution_is_invariant(
            scev.rhs
        )
    return False
