"""The dynamic race oracle: ground truth for the static race detector.

A :class:`RaceOracle` is a :class:`~repro.runtime.machine.ParallelMachine`
that records every load/store executed inside a parallel region (via the
interpreter's ``memory_observer`` hook, which forces the reference
walker) and attributes each access to its *concurrency unit*:

* DOALL — the worker core (``task(env, core, n)`` argument);
* DSWP — the pipeline stage (``task(env, stage, n)`` argument);
* HELIX — the loop iteration, counted by the ``helix_iter_boundary``
  markers (iterations land on cores round-robin, so two different
  iterations may run concurrently).

After each region the access log is scanned for conflicts: the same
address touched by two different units with at least one write.  For
HELIX, a conflict is exempt when every conflicting access pair executed
under a common sequential segment id (the segment serializes them); no
exemption exists for DOALL (which promises independence) or DSWP
(queues are value channels, not memory).

One modeling correction keeps the oracle faithful: the HELIX region
executes as a *single* sequential call with core id 0, so any address
derived from the core-id argument (per-core reduction slots) would
falsely collide across iterations — in a real run each core addresses
its own slot.  Accesses whose pointer is data-dependent on the core-id
argument without passing through a phi (i.e. not via the chunked
induction variable) are therefore ignored for HELIX regions.

The differential contract this oracle anchors (see
``tests/checks/test_differential.py``): every race it observes must be
covered by a static race-checker diagnostic — the static detector may
over-approximate (warnings the oracle never confirms) but must never
miss an observed race.
"""

from __future__ import annotations

from ..interp.interp import dispatched_task, intrinsic_table
from ..ir.instructions import Call, Load, Phi, Store
from ..ir.module import Function
from ..runtime.machine import ParallelMachine

_DISPATCH_KINDS = {
    "noelle_dispatch_doall": "doall",
    "noelle_dispatch_helix": "helix",
    "noelle_dispatch_dswp": "dswp",
}


class DynamicRace:
    """One observed unsynchronized conflict."""

    __slots__ = ("kind", "task", "address", "unit_a", "unit_b")

    def __init__(self, kind, task, address, unit_a, unit_b):
        self.kind = kind      # "doall" | "helix" | "dswp"
        self.task = task      # task/selector function name
        self.address = address
        self.unit_a = unit_a  # e.g. ("core", 3), ("iter", 17), ("stage", 1)
        self.unit_b = unit_b

    def __str__(self) -> str:
        return (
            f"{self.kind} region @{self.task}: address {self.address} "
            f"touched by {self.unit_a[0]} {self.unit_a[1]} and "
            f"{self.unit_b[0]} {self.unit_b[1]} with a write"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DynamicRace {self}>"


class _Region:
    """Access log of one in-flight parallel dispatch."""

    __slots__ = ("kind", "task", "iteration", "current_unit", "accesses")

    def __init__(self, kind: str, task: Function):
        self.kind = kind
        self.task = task
        self.iteration = 0
        self.current_unit = None
        # address -> unit -> [set of read segment-sets, set of write ones]
        self.accesses: dict[int, dict[tuple, list[set]]] = {}


class RaceOracle(ParallelMachine):
    """ParallelMachine that logs per-unit memory accesses and finds races."""

    def __init__(self, module, **kwargs):
        kwargs.setdefault("engine", "reference")
        super().__init__(module, **kwargs)
        self.memory_observer = self._observe
        self.races: list[DynamicRace] = []
        self._region: _Region | None = None
        self._core_derived: dict[int, set[int]] = {}

    # -- region lifecycle ----------------------------------------------------------
    def _dispatch(self, name: str, args: list[object]) -> object:
        region = _Region(_DISPATCH_KINDS[name], dispatched_task(args))
        outer, self._region = self._region, region
        try:
            return ParallelMachine.INTRINSICS[name][1](self, args)
        finally:
            self._region = outer
            self._evaluate(region)

    def _helix_iter_boundary(self, args: list[object]) -> None:
        if self._region is not None and self._region.kind == "helix":
            self._region.iteration += 1
        super()._helix_iter_boundary(args)

    def call_function(self, fn: Function, args: list[object]) -> object:
        region = self._region
        if region is not None and fn is region.task:
            previous = region.current_unit
            if region.kind == "doall":
                region.current_unit = ("core", int(args[1]))
            elif region.kind == "dswp":
                region.current_unit = ("stage", int(args[1]))
            else:
                region.current_unit = "helix"  # resolved per access
            try:
                return super().call_function(fn, args)
            finally:
                region.current_unit = previous
        return super().call_function(fn, args)

    # -- observation ---------------------------------------------------------------
    def _observe(self, kind: str, address: int, inst) -> None:
        region = self._region
        if region is None or region.current_unit is None:
            return
        if region.kind == "helix":
            if id(inst) in self._core_derived_accesses(region.task):
                return  # per-core storage; see the module docstring
            unit = ("iter", region.iteration)
            segments = frozenset(seg for seg, _ in self._segment_stack)
        else:
            unit = region.current_unit
            segments = frozenset()
        slot = region.accesses.setdefault(address, {})
        reads, writes = slot.setdefault(unit, [set(), set()])
        (writes if kind == "store" else reads).add(segments)

    def _core_derived_accesses(self, task: Function) -> set[int]:
        cached = self._core_derived.get(id(task))
        if cached is not None:
            return cached
        accesses: set[int] = set()
        if len(task.args) >= 2:
            tainted = {id(task.args[1])}
            changed = True
            while changed:
                changed = False
                for inst in task.instructions():
                    if id(inst) in tainted or isinstance(inst, (Phi, Load, Call)):
                        continue
                    if any(id(op) in tainted for op in inst.operands):
                        tainted.add(id(inst))
                        changed = True
            for inst in task.instructions():
                if isinstance(inst, (Load, Store)) and id(inst.pointer) in tainted:
                    accesses.add(id(inst))
        self._core_derived[id(task)] = accesses
        return accesses

    # -- conflict evaluation --------------------------------------------------------
    def _evaluate(self, region: _Region) -> None:
        for address, by_unit in region.accesses.items():
            race = self._first_conflict(region, address, by_unit)
            if race is not None:
                self.races.append(race)

    @staticmethod
    def _first_conflict(region, address, by_unit):
        """The first conflicting unit pair on ``address``, if any.

        One :class:`DynamicRace` per racy address is enough ground truth
        for the differential test; enumerating every unit pair would be
        quadratic in the iteration count for a racy accumulator.
        """
        units = list(by_unit.items())
        for i in range(len(units)):
            unit_a, (reads_a, writes_a) = units[i]
            for j in range(i + 1, len(units)):
                unit_b, (reads_b, writes_b) = units[j]
                if not writes_a and not writes_b:
                    continue
                if region.kind == "helix" and _segments_cover(
                    reads_a, writes_a, reads_b, writes_b
                ):
                    continue
                return DynamicRace(
                    region.kind, region.task.name, address, unit_a, unit_b
                )
        return None


def _logged(name: str):
    return lambda st, args: st._dispatch(name, args)


RaceOracle.INTRINSICS = intrinsic_table(ParallelMachine.INTRINSICS, {
    **{name: _logged(name) for name in _DISPATCH_KINDS},
    "helix_iter_boundary": RaceOracle._helix_iter_boundary,
})


def _segments_cover(reads_a, writes_a, reads_b, writes_b) -> bool:
    """True when every conflicting access pair shares a segment id."""
    for segs_a in writes_a:
        for segs_b in reads_b | writes_b:
            if not (segs_a & segs_b):
                return False
    for segs_b in writes_b:
        for segs_a in reads_a:
            if not (segs_a & segs_b):
                return False
    return True
