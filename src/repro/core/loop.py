"""The canonical loop abstraction (Table 1, "L").

``Loop`` bundles the loop structure (LS) with the loop's dependence graph
(computed from the PDG), its aSCCDAG, its invariants (INV), its induction
variables (IV), and its reduction descriptors (RD) — each computed lazily,
preserving NOELLE's demand-driven promise even inside one loop object.
A loop owns exactly one LDG: the aSCCDAG and INV are both derived from
it.  ``Noelle`` hands every tool the same ``Loop`` for as long as the
function's PDG shard lives, so each of these is computed once per
function version however many tools ask.
"""

from __future__ import annotations

from ..analysis.loopinfo import NaturalLoop
from ..perf import STATS
from .induction import InductionVariableManager
from .invariants import InvariantManager
from .loopstructure import LoopStructure
from .pdg import PDG, LoopDG
from .sccdag import SCCDAG


class Loop:
    """One loop with every loop-centric abstraction attached."""

    def __init__(self, natural_loop: NaturalLoop, pdg: PDG):
        #: ``structure.loop_id`` is assigned by ``Noelle.loops()``.
        self.structure = LoopStructure(natural_loop)
        self.pdg = pdg
        self._natural = natural_loop
        self._ldg: LoopDG | None = None
        self._sccdag: SCCDAG | None = None
        self._invariants: InvariantManager | None = None
        self._ivs: InductionVariableManager | None = None

    # -- demand-driven sub-abstractions ---------------------------------------------
    @property
    def dependence_graph(self) -> LoopDG:
        if self._ldg is None:
            STATS.count("loop.ldg_builds")
            with STATS.timer("loop.build_ldg"):
                self._ldg = self.pdg.loop_dependence_graph(self._natural)
        return self._ldg

    @property
    def sccdag(self) -> SCCDAG:
        if self._sccdag is None:
            self._sccdag = SCCDAG(self.dependence_graph, self._natural)
        return self._sccdag

    @property
    def invariants(self) -> InvariantManager:
        if self._invariants is None:
            self._invariants = InvariantManager(
                self._natural, self.dependence_graph
            )
        return self._invariants

    @property
    def induction_variables(self) -> InductionVariableManager:
        if self._ivs is None:
            self._ivs = InductionVariableManager(self._natural, self.sccdag)
        return self._ivs

    @property
    def natural_loop(self) -> NaturalLoop:
        return self._natural

    # -- convenience queries ------------------------------------------------------------
    def governing_iv(self):
        return self.induction_variables.governing_iv()

    def reductions(self):
        """Reduction descriptors of all reducible SCCs."""
        return [
            scc.reduction for scc in self.sccdag.sccs if scc.reduction is not None
        ]

    def live_ins(self):
        return self.dependence_graph.live_in_values()

    def live_outs(self):
        return self.dependence_graph.live_out_values()

    def is_doall(self) -> bool:
        """No sequential SCC and no carried control hazard: DOALL-able."""
        for scc in self.sccdag.sccs:
            if scc.is_sequential():
                return False
        return True

    def invalidate(self) -> None:
        """Drop cached sub-abstractions after the loop body was transformed."""
        self._ldg = None
        self._sccdag = None
        self._invariants = None
        self._ivs = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header=%{self.structure.header.name}>"
