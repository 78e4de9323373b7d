"""The gcc/icc auto-parallelization stand-in for Figure 5.

Production auto-parallelizers (``gcc -ftree-parallelize-loops``,
``icc -parallel``) are famously conservative: they parallelize a loop only
when (a) its shape matches the canonical countable form their induction
machinery recognizes (the do-while / bottom-tested form after loop
rotation *with provable bounds*), and (b) their dependence analysis — a
local, intraprocedural one — proves every memory access independent.

This baseline reproduces those restrictions on purpose:

* governing IV detection uses the LLVM-style do-while matcher
  (:mod:`repro.baselines.induction_llvm`);
* dependences come from a PDG built with *basic* alias analysis only;
* any may-dependence, any call, any irregular bound rejects the loop.

On while-shaped, pointer-based MiniBench/PARSEC-style loops it therefore
parallelizes (almost) nothing — which is exactly why gcc and icc sit at
1.0x in the paper's Figure 5.
"""

from __future__ import annotations

from ..analysis.aa import BasicAliasAnalysis
from ..core.loop import Loop
from ..core.noelle import Noelle
from ..ir.instructions import Call
from ..ir.intrinsics import generated_functions, is_generated_loop
from ..ir.module import Module
from ..xforms.doall import DOALL
from ..xforms.parallelizer_common import ParallelizationError
from .induction_llvm import find_governing_iv_llvm


class ConservativeParallelizer:
    """gcc/icc-grade DOALL: weak analysis, rigid shape requirements."""

    name = "gcc-icc-baseline"

    def __init__(self, module: Module, num_cores: int = 12):
        self.module = module
        self.num_cores = num_cores
        # The whole point: the baseline sees only basic AA.
        self._weak_noelle = Noelle(module)
        self._weak_noelle._aa = BasicAliasAnalysis()

    # -- selection ----------------------------------------------------------------------
    def can_parallelize(self, loop: Loop) -> bool:
        return self._reject_reason(loop) is None

    def _reject_reason(self, loop: Loop) -> str | None:
        natural = loop.natural_loop
        # (a) shape: the do-while pattern matcher must find the governing IV.
        if find_governing_iv_llvm(natural) is None:
            return "loop shape not recognized (no bottom-tested governing IV)"
        # (b) calls defeat the local dependence analysis outright.
        for inst in natural.instructions():
            if isinstance(inst, Call):
                callee = inst.called_function()
                if callee is None or "pure" not in callee.attributes:
                    return "loop contains an opaque call"
        # (c) every memory dependence must be disproved by basic AA.
        loop_dg = loop.dependence_graph
        for edge in loop_dg.edges():
            if edge.is_data() and edge.is_memory and edge.is_loop_carried:
                return "possible loop-carried memory dependence"
        # (d) no reductions either: gcc/icc handle only explicit OpenMP
        # reductions; auto-par rejects scalar cycles.
        for scc in loop.sccdag.sccs:
            if scc.is_sequential() or scc.is_reducible():
                return "scalar cycle (no reduction support)"
        return None

    # -- driver -------------------------------------------------------------------------
    def run(self) -> int:
        """Attempt to parallelize every outermost loop; returns successes."""
        parallelized = 0
        doall = DOALL(self._weak_noelle, self.num_cores)
        generated = generated_functions(self._weak_noelle.module)
        for loop in self._weak_noelle.loops():
            fn = loop.structure.function
            if fn in generated or is_generated_loop(loop.natural_loop.instructions()):
                continue
            if loop.structure.depth() != 1:
                continue
            if not self.can_parallelize(loop):
                continue
            try:
                doall.parallelize(loop)
                parallelized += 1
                self._weak_noelle.invalidate(fn)
            except ParallelizationError:
                continue
        return parallelized

    def report(self) -> list[tuple[str, str | None]]:
        """(loop header, rejection reason) per outermost loop — for the
        Figure 5 analysis of *why* the baseline stays at 1.0x."""
        rows = []
        for loop in self._weak_noelle.loops():
            if loop.structure.depth() != 1:
                continue
            rows.append((loop.structure.header.name, self._reject_reason(loop)))
        return rows
