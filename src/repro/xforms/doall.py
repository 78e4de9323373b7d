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
from .parallelizer_common import (
    LoopBoundary,
    LoopTechnique,
    ParallelizationError,
    build_environment,
    chunk_cloned_loop,
    chunkable_boundary,
    clone_loop_into_task,
    finish_task_with_reductions,
    replace_loop_with_dispatch,
)


class DOALL(LoopTechnique):
    """The DOALL technique."""

    name = "doall"

    def plan(
        self, loop: Loop, speculated: frozenset[int] = frozenset()
    ) -> LoopBoundary:
        """The loop's boundary, when no dependence orders its iterations.

        ``speculated`` holds the ids of carried edges a caller removes by
        other means (Perspective validates them at run time).
        """
        for scc in loop.sccdag.sccs:
            if scc.is_sequential() and any(
                id(edge) not in speculated for edge in scc.carried_edges
            ):
                raise ParallelizationError(
                    "loop has a sequential SCC (loop-carried dependence)"
                )
        return chunkable_boundary(loop)

    def apply(self, loop: Loop, boundary: LoopBoundary) -> ir.Call:
        fn = loop.structure.function
        env = build_environment(self.noelle, boundary, "doall.env")
        skeleton = clone_loop_into_task(
            self.noelle, boundary, env, f"{fn.name}.doall.task"
        )
        chunk_cloned_loop(skeleton)
        finish_task_with_reductions(skeleton, boundary)
        ir.verify_function(skeleton.task.function)
        call = replace_loop_with_dispatch(
            self.noelle, boundary, env, skeleton.task,
            "noelle_dispatch_doall", self.num_cores,
        )
        ir.verify_function(fn)
        return call
