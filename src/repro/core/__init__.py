"""repro.core — the NOELLE abstraction layer (the paper's Table 1).

One module per abstraction:

========================  ==========================================
Abstraction (paper name)  Module
========================  ==========================================
PDG                       :mod:`repro.core.pdg` (+ :mod:`depgraph`)
aSCCDAG                   :mod:`repro.core.sccdag`
Call graph (CG)           :mod:`repro.core.callgraph`
Environment (ENV)         :mod:`repro.core.environment`
Task (T)                  :mod:`repro.core.task`
Data-flow engine (DFE)    :mod:`repro.core.dataflow`
Loop structure (LS)       :mod:`repro.core.loopstructure`
Profiler (PRO)            :mod:`repro.core.profiler`
Scheduler (SCD)           :mod:`repro.core.scheduler`
Invariant (INV)           :mod:`repro.core.invariants`
Induction variable (IV)   :mod:`repro.core.induction`
IV stepper (IVS)          :mod:`repro.core.ivstepper`
Reduction (RD)            :mod:`repro.core.reduction`
Loop (L)                  :mod:`repro.core.loop`
Forest (FR)               :mod:`repro.core.forest`
Loop builder (LB)         :mod:`repro.core.loopbuilder`
Islands (ISL)             :mod:`repro.core.islands`
Architecture (AR)         :mod:`repro.core.architecture`
IDs / metadata            :mod:`repro.core.metadata`
========================  ==========================================

:class:`repro.core.noelle.Noelle` is the demand-driven facade tying them
together, and the one name this package exports.  Everything else is
imported from its module (``from repro.core.pdg import PDG``): importing
the package loads the facade and what a loaded module needs (the PDG,
loops and their analyses), never the transform-only abstractions —
call graph, environments, tasks, data-flow engine, scheduler, loop
builder, partitioner, islands, IV stepper, reductions — which load when
something builds them.
"""

from .noelle import Noelle

__all__ = ["Noelle"]
