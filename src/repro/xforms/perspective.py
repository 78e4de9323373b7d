"""Perspective on NOELLE (Section 3, "Perspective").

Perspective (Apostolakis et al. [ASPLOS'20]) is a *speculative* DOALL
parallelizer that minimizes speculation and privatization costs: instead
of blanket memory speculation, it plans the cheapest set of "remedies"
that make a loop DOALL — dropping may-dependences the profile says never
manifest, paying a per-access validation cost only where needed.

The paper's port (Table 3, "PERS") replaced Perspective's in-house PDG
and SCC machinery with NOELLE's abstractions while keeping the planner
tool-specific — hence the modest 33.2% LoC reduction compared to the >90%
of the simpler tools.  This module mirrors that split: the *planner*
(remedy selection) is local code; the dependence facts, SCCs, boundary,
task generation, and dispatch all come from the NOELLE layer.
"""

from __future__ import annotations

from ..core.loop import Loop
from ..core.noelle import Noelle
from ..core.pdg import pointer_operand
from .. import ir
from ..ir.intrinsics import declare_intrinsic
from .carat import emit_guard
from .doall import DOALL
from .parallelizer_common import LoopTechnique, ParallelizationError


class Remedy:
    """One planned remedy for a blocking dependence."""

    SPECULATE = "speculate"  # drop the dep; validate accesses at runtime

    def __init__(self, kind: str, edge, cost: int):
        self.kind = kind
        self.edge = edge
        self.cost = cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<remedy {self.kind} cost={self.cost}>"


class Perspective(LoopTechnique):
    """Speculative DOALL with minimal-cost remedy planning."""

    name = "perspective"

    #: Per-iteration validation cost of one speculated access (cycles).
    VALIDATION_COST = 6

    def __init__(self, noelle: Noelle, default_cores: int = 12):
        self.noelle = noelle
        self._doall = DOALL(noelle, default_cores)

    # -- planning ------------------------------------------------------------------------
    def remedies(self, loop: Loop) -> list[Remedy]:
        """The cheapest remedy set making ``loop`` DOALL.

        Only *apparent* (may) dependences can be speculated away, and only
        when the profile never observed them manifest; *actual* (must)
        dependences are real and kill the plan (unless they form a
        reduction, which DOALL handles natively).
        """
        remedies: list[Remedy] = []
        for scc in loop.sccdag.sccs:
            if not scc.is_sequential():
                continue
            for edge in scc.carried_edges:
                if not edge.is_memory:
                    raise ParallelizationError(
                        "a register recurrence cannot be speculated"
                    )
                if edge.is_must:
                    raise ParallelizationError(
                        "a proven dependence would misspeculate"
                    )
                remedies.append(
                    Remedy(Remedy.SPECULATE, edge, self.VALIDATION_COST)
                )
        if not remedies:
            raise ParallelizationError(
                "nothing to speculate: plain DOALL already works"
            )
        return remedies

    def plan(self, loop: Loop):
        """(remedies, DOALL's boundary with the remedied edges excluded)."""
        remedies = self.remedies(loop)
        # The Perspective planner's check: validating every iteration
        # must cost less than running it (a rough per-iteration compare).
        if sum(r.cost for r in remedies) >= loop.structure.num_instructions():
            raise ParallelizationError("validation costs more than the loop body")
        speculated = frozenset(id(r.edge) for r in remedies)
        return remedies, self._doall.plan(loop, speculated)

    # -- transformation ---------------------------------------------------------------------
    def apply(self, loop: Loop, plan) -> ir.Call:
        """Validate the speculated accesses, then DOALL."""
        remedies, boundary = plan
        # Runtime validation: each speculated access gets a validation call
        # (the misspeculation detector's footprint — cost, not recovery;
        # recovery needs checkpointing the paper delegates to its runtime).
        validator = declare_intrinsic(self.noelle.module, "carat_guard")
        builder = ir.IRBuilder()
        instrumented: set[int] = set()
        for remedy in remedies:
            for inst in (remedy.edge.src.value, remedy.edge.dst.value):
                pointer = pointer_operand(inst)
                if pointer is None or id(inst) in instrumented:
                    continue
                instrumented.add(id(inst))
                builder.position_before(inst)
                emit_guard(builder, validator, pointer, name="spec.ptr")
        return self._doall.apply(loop, boundary)
