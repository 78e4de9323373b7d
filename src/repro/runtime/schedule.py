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
* **HELIX** — a discrete-event replay: iteration ``i`` runs on core
  ``i % N``, and each of its sequential segments waits for the same
  segment of iteration ``i-1`` plus one signal latency [Campanoni et
  al., CGO'12].
"""

from __future__ import annotations

#: One-time cost of waking a worker core (thread-pool hand-off).
FORK_OVERHEAD = 1500
#: Cost of joining one worker at the end of a parallel invocation.
JOIN_OVERHEAD = 300


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
    return wall + FORK_OVERHEAD + JOIN_OVERHEAD * execution.num_cores


def _dswp(execution, architecture) -> int:
    # Steady-state pipeline: throughput bound by the slowest stage;
    # one pipeline-fill latency per stage boundary.
    wall = max(execution.unit_cycles, default=0)
    wall += architecture.default_latency * max(0, execution.num_cores - 1)
    # Per-value communication: each forwarded value pays bandwidth.
    return wall + int(sum(execution.queued) / architecture.default_bandwidth)


def _helix(execution, latency: int) -> int:
    """Replay the HELIX schedule over the measured per-iteration costs.

    Iteration ``i`` runs on core ``i % N``.  Its parallel portion starts
    when the core frees up; each sequential segment additionally waits
    for the same segment of iteration ``i-1`` plus one signal latency.
    """
    num_cores = max(1, execution.num_cores)
    core_free = [0] * num_cores
    segment_done: dict[int, int] = {}
    finish = 0
    for index, (cost, segments) in enumerate(
        zip(execution.iteration_cycles, execution.segment_cycles, strict=True)
    ):
        core = index % num_cores
        sequential = sum(segments.values())
        # Parallel half runs as soon as the core is free; split around
        # the segments pessimistically as parallel-then-sequential.
        clock = core_free[core] + max(0, cost - sequential)
        for seg_id in sorted(segments):
            ready = segment_done.get(seg_id, 0)
            if ready:
                ready += latency  # the signal must travel between cores
            clock = max(clock, ready)
            clock += segments[seg_id]
            segment_done[seg_id] = clock
        core_free[core] = clock
        finish = max(finish, clock)
    return finish
