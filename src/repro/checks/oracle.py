"""The dynamic race oracle: ground truth for the static race detector.

A :class:`RaceOracle` is a :class:`~repro.runtime.machine.ParallelMachine`
that records every load/store executed inside a parallel region (via the
interpreter's ``memory_observer`` hook, which runs on the compiled
engine like any other execution) and attributes each access to its
*concurrency unit*, which the open region's record
(:attr:`~repro.interp.interp.ParallelExecution.unit`) names:

* DOALL — the worker core (``task(env, core, n)`` argument);
* DSWP — the pipeline stage (``task(env, stage, n)`` argument);
* HELIX — the loop iteration, counted by the ``helix_iter_boundary``
  markers (iterations land on cores round-robin, so two different
  iterations may run concurrently).

When a region closes its access log is scanned for conflicts: the same
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

from ..interp.interp import ParallelExecution
from ..ir.instructions import Call, Load, Phi, Store
from ..ir.module import Function
from ..runtime.machine import ParallelMachine

#: What a region's unit is called in a :class:`DynamicRace`.
_UNIT_NAMES = {"doall": "core", "dswp": "stage", "helix": "iter"}


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


class RaceOracle(ParallelMachine):
    """ParallelMachine that logs per-unit memory accesses and finds races."""

    def __init__(self, module, **kwargs):
        super().__init__(module, **kwargs)
        self.memory_observer = self._observe
        self.races: list[DynamicRace] = []
        # region -> address -> unit -> [set of read segment-sets, set of
        # write ones], for the regions not yet evaluated.
        self._logs: dict[ParallelExecution, dict] = {}
        self._core_derived: dict[int, set[int]] = {}

    # -- region lifecycle ----------------------------------------------------------
    def _close_region(self, region: ParallelExecution) -> None:
        super()._close_region(region)
        accesses = self._logs.pop(region, None)
        if accesses is not None:
            self._evaluate(region, accesses)

    def run(self, *args, **kwargs):
        try:
            return super().run(*args, **kwargs)
        finally:
            # A trap, exit() or the step limit ends regions that never
            # close; they are evaluated here.
            for region, accesses in reversed(list(self._logs.items())):
                self._evaluate(region, accesses)
            self._logs.clear()

    # -- observation ---------------------------------------------------------------
    def _observe(self, kind: str, address: int, inst) -> None:
        region = self.region
        if region is None:
            return
        if region.kind == "helix":
            if id(inst) in self._core_derived_accesses(region.task):
                return  # per-core storage; see the module docstring
            segments = frozenset(seg for seg, _ in region.open_segments)
        else:
            segments = frozenset()
        accesses = self._logs.get(region)
        if accesses is None:
            accesses = self._logs[region] = {}
        slot = accesses.setdefault(address, {})
        unit = (_UNIT_NAMES[region.kind], region.unit)
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
    def _evaluate(self, region: ParallelExecution, accesses: dict) -> None:
        for address, by_unit in accesses.items():
            race = _first_conflict(region, address, by_unit)
            if race is not None:
                self.races.append(race)


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
