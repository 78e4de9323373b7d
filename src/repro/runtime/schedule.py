"""The machine model: what one parallel region costs on an architecture.

An executor runs a parallel region's units in order and records raw
facts — a :class:`~repro.interp.interp.ParallelExecution`: cycles per
DOALL core or DSWP stage, values queued per stage, and for HELIX the
cycles of every iteration and of every sequential segment in it.
:func:`schedule` prices such a record on an
:class:`~repro.core.architecture.ArchitectureDescription`, as the
paper's tools consume ``noelle-arch``'s description of the machine.  It
is a pure function of the two, so one execution can be priced on many
architectures:

* **DOALL** — the slowest core, plus fork/join overhead.
* **DSWP** — the slowest stage (steady-state throughput), one latency
  per stage boundary to fill the pipeline, and every value a stage
  queued paying bandwidth [Ottoni et al., MICRO'05].
* **HELIX** — iteration ``i`` runs on core ``i % N``, and each of its
  sequential segments waits for the same segment of iteration ``i-1``
  plus one signal latency [Campanoni et al., CGO'12].  A core's clock
  only grows, so the wall time is the latest core's clock, and an
  iteration with no segment only adds its cycles to its core: with no
  segment anywhere the wall time is ``max(sum(iteration_cycles[c::N])
  for c in range(N))``.  Otherwise only the iterations with segments are
  replayed event by event; the cost grows with the segments, not the
  iterations.

A record whose price would beat its work spread over its cores, such as
a HELIX record whose iterations closed in a nested region, is refused.
"""

from __future__ import annotations

from itertools import compress, count

#: One-time cost of waking a worker core (thread-pool hand-off).
FORK_OVERHEAD = 1500
#: Cost of joining one worker at the end of a parallel invocation.
JOIN_OVERHEAD = 300


class UnpricedRegion(ValueError):
    """A record whose price would beat its work spread over its cores."""


def schedule(execution, architecture) -> int:
    """Modeled wall-clock cycles of ``execution`` on ``architecture``,
    fork and join included."""
    kind = execution.kind
    if kind == "doall":
        wall = max(execution.unit_cycles, default=0)
    elif kind == "dswp":
        wall = _dswp(execution, architecture)
    elif kind == "helix":
        wall = _helix(execution, architecture.default_latency)
    else:
        raise ValueError(f"unknown parallel region kind {kind!r}")
    wall += FORK_OVERHEAD + JOIN_OVERHEAD * execution.num_cores
    if wall * max(1, execution.num_cores) < execution.sequential_cycles:
        raise UnpricedRegion(
            f"{kind} region of {execution.sequential_cycles} cycles "
            f"({len(execution.iteration_cycles)} iteration(s) closed) cannot "
            f"run in {wall} cycles on {execution.num_cores} core(s)")
    return wall


def _dswp(execution, architecture) -> int:
    # Steady-state pipeline: throughput bound by the slowest stage;
    # one pipeline-fill latency per stage boundary.
    wall = max(execution.unit_cycles, default=0)
    wall += architecture.default_latency * max(0, execution.num_cores - 1)
    # Per-value communication: each forwarded value pays bandwidth.
    return wall + int(sum(execution.queued) / architecture.default_bandwidth)


def _helix(execution, latency: int) -> int:
    """The HELIX schedule over the measured per-iteration costs.

    Iteration ``i`` runs on core ``i % N``.  Its parallel portion starts
    when the core frees up; each sequential segment additionally waits
    for the same segment of iteration ``i-1`` plus one signal latency.
    Between two iterations with segments, a core's iterations with none
    run back to back: their cycles are added as one slice sum.
    """
    num_cores = max(1, execution.num_cores)
    costs = execution.iteration_cycles
    segment_cycles = execution.segment_cycles
    if len(costs) != len(segment_cycles):
        raise ValueError(
            f"{len(costs)} iteration(s) but {len(segment_cycles)} "
            f"segment record(s)"
        )
    core_free = [0] * num_cores
    # core -> the first of its iterations not yet on its clock
    pending = list(range(num_cores))
    segment_done: dict[int, int] = {}
    for index in compress(count(), segment_cycles):
        segments = segment_cycles[index]
        core = index % num_cores
        clock = core_free[core] + sum(costs[pending[core]:index:num_cores])
        pending[core] = index + num_cores
        # Parallel half runs as soon as the core is free; split around
        # the segments pessimistically as parallel-then-sequential.
        clock += max(0, costs[index] - sum(segments.values()))
        for seg_id in sorted(segments):
            ready = segment_done.get(seg_id, 0)
            if ready:
                ready += latency  # the signal must travel between cores
            clock = max(clock, ready)
            clock += segments[seg_id]
            segment_done[seg_id] = clock
        core_free[core] = clock
    return max(
        free + sum(costs[first::num_cores])
        for free, first in zip(core_free, pending)
    )
