"""The DOALL parallelizing custom tool (Section 3, "DOALL").

Parallelizes loops with no loop-carried data dependences (reductions
allowed) by distributing iterations round-robin across cores.  Built
entirely from NOELLE abstractions: the aSCCDAG decides legality, PDG/ENV
organize the boundary, LB+T generate the task, IV+IVS implement the
iteration chunking, RD handles reductions — the few hundred lines the
paper's Table 3 advertises.
"""

from __future__ import annotations

from .. import ir
from ..core.loop import Loop
from ..core.noelle import Noelle
from .parallelizer_common import (
    LoopBoundary,
    ParallelizationError,
    build_environment,
    chunk_cloned_loop,
    clone_loop_into_task,
    finish_task_with_reductions,
    replace_loop_with_dispatch,
    run_rounds,
)

#: Exit predicates compatible with round-robin chunking (a core may step
#: past the bound, so equality tests are unsafe).
CHUNKABLE_PREDICATES = ("slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")


class DOALL:
    """The DOALL technique."""

    name = "doall"

    def __init__(self, noelle: Noelle, default_cores: int = 12):
        self.noelle = noelle
        self.default_cores = default_cores

    # -- selection -----------------------------------------------------------------
    def can_parallelize(self, loop: Loop) -> bool:
        try:
            self._check(loop)
            return True
        except ParallelizationError:
            return False

    def _check(self, loop: Loop) -> LoopBoundary:
        for scc in loop.sccdag.sccs:
            if scc.is_sequential():
                raise ParallelizationError(
                    "loop has a sequential SCC (loop-carried dependence)"
                )
        iv = loop.governing_iv()
        if iv is None:
            raise ParallelizationError("no governing induction variable")
        if iv.constant_step() is None:
            raise ParallelizationError("governing IV has a non-constant step")
        if iv.exit_compare is None or iv.exit_compare.predicate not in (
            CHUNKABLE_PREDICATES
        ):
            raise ParallelizationError("exit condition is not chunkable")
        exiting = loop.structure.exiting_blocks()
        if len(exiting) != 1:
            raise ParallelizationError("loop has multiple exits")
        boundary = LoopBoundary(loop)
        if not boundary.only_reduction_live_outs():
            raise ParallelizationError(
                "loop has live-outs that are not reductions"
            )
        return boundary

    # -- transformation -------------------------------------------------------------
    def parallelize(self, loop: Loop) -> ir.Call:
        """Parallelize ``loop`` in place; returns the dispatch call."""
        boundary = self._check(loop)
        fn = loop.structure.function
        env = build_environment(self.noelle, boundary, "doall.env")
        skeleton = clone_loop_into_task(
            self.noelle, boundary, env,
            f"{loop.structure.function.name}.doall.task",
        )
        chunk_cloned_loop(skeleton)
        finish_task_with_reductions(self.noelle, skeleton, boundary, env)
        skeleton.task.function.metadata["noelle.parallel"] = "doall"
        ir.verify_function(skeleton.task.function)
        call = replace_loop_with_dispatch(
            self.noelle, boundary, env, skeleton.task,
            "noelle_dispatch_doall", self.default_cores,
        )
        ir.verify_function(fn)
        return call

    # -- whole-program driver -------------------------------------------------------------
    def run(
        self,
        minimum_hotness: float = 0.0,
        max_rounds: int = 10,
        only_loop_id: int | None = None,
    ) -> int:
        """Parallelize every eligible (hot) loop; returns how many."""
        return run_rounds(self, minimum_hotness, max_rounds, only_loop_id)
