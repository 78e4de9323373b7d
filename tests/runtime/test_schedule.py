"""The machine model on hand-built records: every expected number below
is worked out in the comments, with no module and no interpreter.  The
HELIX schedule is also checked against a replay of every iteration on
seeded random records."""

import random

import pytest

from repro.core.architecture import ArchitectureDescription
from repro.runtime import (
    FORK_OVERHEAD,
    JOIN_OVERHEAD,
    ParallelExecution,
    UnpricedRegion,
    schedule,
)


def record(kind, num_cores, **facts):
    execution = ParallelExecution(kind, None, num_cores)
    for name, value in facts.items():
        setattr(execution, name, value)
    return execution


def arch(latency=40, bandwidth=8.0):
    return ArchitectureDescription(
        12, default_latency=latency, default_bandwidth=bandwidth
    )


def test_doall_is_the_slowest_core_plus_fork_and_join():
    execution = record("doall", 3, unit_cycles=[100, 250, 175])
    # max 250 + fork 1500 + 3 joins of 300
    assert schedule(execution, arch()) == 250 + 1500 + 900 == 2650
    assert execution.sequential_cycles == 525
    # No latency, no bandwidth: DOALL communicates nothing.
    assert schedule(execution, arch(latency=640, bandwidth=1.0)) == 2650


def test_doall_without_cores_is_overhead_only():
    assert schedule(record("doall", 0), arch()) == 1500


def test_dswp_counts_the_middle_stages_traffic():
    # Stage 0 pushes 50 values; stage 1 pops those 50 and pushes 50 of
    # its own, so the queues never grow while it runs; stage 2 only pops.
    execution = record(
        "dswp", 3, unit_cycles=[400, 900, 300], queued=[50, 50, 0]
    )
    # slowest stage 900 + 2 boundaries x latency 40
    # + int(100 values / 8 per cycle) = 12, + fork 1500 + 3 joins
    assert schedule(execution, arch()) == 900 + 80 + 12 + 1500 + 900 == 3392
    # Priced without the middle stage's pushes: int(50 / 8) = 6.
    execution.queued = [50, 0, 0]
    assert schedule(execution, arch()) == 3386


def test_dswp_pays_latency_per_stage_boundary():
    execution = record("dswp", 4, unit_cycles=[10, 10, 10, 10], queued=[0] * 4)
    # 10 + 3 x 100 + 0 + 1500 + 4 x 300
    assert schedule(execution, arch(latency=100)) == 3010


def helix_record():
    # Four iterations of 100 cycles on two cores, each with segment 0
    # (20 cycles) and segment 1 (30 cycles): 50 parallel cycles each.
    return record(
        "helix", 2,
        unit_cycles=[400],
        iteration_cycles=[100] * 4,
        segment_cycles=[{0: 20, 1: 30} for _ in range(4)],
    )


def test_helix_replays_the_signal_chain():
    # latency 10; (core, start, segment 0 span, segment 1 span):
    #   i0  core 0  0+50=50    seg0 50->70     seg1 70->100
    #   i1  core 1  0+50=50    seg0 70+10=80->100
    #                          seg1 100+10=110->140
    #   i2  core 0  100+50=150 seg0 max(150, 100+10)->170
    #                          seg1 max(170, 140+10)->200
    #   i3  core 1  140+50=190 seg0 max(190, 170+10)->210
    #                          seg1 max(210, 200+10)->240
    assert schedule(helix_record(), arch(latency=10)) == 240 + 1500 + 600


def test_helix_latency_lengthens_the_chain():
    # latency 100: the segments' chain dominates once the iterations
    # wrap around the two cores.
    #   i0  core 0  50         seg0 ->70       seg1 ->100
    #   i1  core 1  50         seg0 170->190   seg1 200->230
    #   i2  core 0  100+50=150 seg0 290->310   seg1 330->360
    #   i3  core 1  230+50=280 seg0 410->430   seg1 460->490
    assert schedule(helix_record(), arch(latency=100)) == 490 + 1500 + 600


def test_helix_on_one_core_still_signals():
    execution = helix_record()
    execution.num_cores = 1
    # With no latency one core runs the iterations back to back: 4 x 100.
    assert schedule(execution, arch(latency=0)) == 400 + 1500 + 300
    # Every signal pays the latency, even to the same core; at latency 100
    # it outlasts the 50 parallel cycles that would hide it:
    #   i0  50             seg0 ->70       seg1 ->100
    #   i1  100+50=150     seg0 170->190   seg1 200->230
    #   i2  230+50=280     seg0 290->310   seg1 330->360
    #   i3  360+50=410     seg0 410->430   seg1 460->490
    assert schedule(execution, arch(latency=100)) == 490 + 1500 + 300


def test_helix_needs_one_segment_dict_per_iteration():
    execution = helix_record()
    execution.segment_cycles.pop()
    with pytest.raises(ValueError):
        schedule(execution, arch())


def test_helix_record_that_closed_no_iteration_is_refused():
    # Its one unit ran 40 000 cycles, but every iteration boundary fired
    # in a region nested inside it.  Priced at fork and join alone,
    # 1500 + 8 x 300 = 3900 cycles, its 8 cores could do 31 200 cycles of
    # work: fewer than it did.
    execution = record(
        "helix", 8, unit_cycles=[40_000], segment_cycles=[]
    )
    with pytest.raises(UnpricedRegion, match=r"0 iteration\(s\) closed"):
        schedule(execution, arch())


def test_helix_loop_that_ran_no_iteration_is_priced():
    # A zero-trip loop: its task tests the exit and returns.  Fork and
    # join cover those cycles on any core count.
    execution = record("helix", 8, unit_cycles=[40], segment_cycles=[])
    assert schedule(execution, arch()) == 1500 + 8 * 300
    execution.num_cores = 1
    assert schedule(execution, arch()) == 1500 + 300


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown parallel region kind"):
        schedule(record("spmd", 2), arch())


def replayed_helix(execution, latency):
    """The HELIX schedule as a discrete-event replay of every iteration:
    the spec :func:`schedule` must agree with."""
    num_cores = max(1, execution.num_cores)
    core_free = [0] * num_cores
    segment_done = {}
    finish = 0
    for index, (cost, segments) in enumerate(
        zip(execution.iteration_cycles, execution.segment_cycles, strict=True)
    ):
        core = index % num_cores
        sequential = sum(segments.values())
        clock = core_free[core] + max(0, cost - sequential)
        for seg_id in sorted(segments):
            ready = segment_done.get(seg_id, 0)
            if ready:
                ready += latency
            clock = max(clock, ready)
            clock += segments[seg_id]
            segment_done[seg_id] = clock
        core_free[core] = clock
        finish = max(finish, clock)
    return finish


def random_helix_record(rng, num_cores, density):
    """Up to 80 iterations; each has segments with probability
    ``density``, and its cycles may fall short of its segments'."""
    iterations = rng.randrange(81)
    segment_cycles = [
        {
            seg_id: rng.randrange(60)
            for seg_id in rng.sample(range(4), rng.randint(1, 3))
        }
        if rng.random() < density else {}
        for _ in range(iterations)
    ]
    return record(
        "helix", num_cores,
        iteration_cycles=[rng.randrange(200) for _ in range(iterations)],
        segment_cycles=segment_cycles,
    )


@pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
@pytest.mark.parametrize("latency", [0, 1, 20, 500])
def test_helix_equals_the_replay_of_every_iteration(latency, density):
    rng = random.Random(f"{latency}/{density}")
    for _ in range(150):
        execution = random_helix_record(rng, rng.randint(1, 24), density)
        overhead = FORK_OVERHEAD + JOIN_OVERHEAD * execution.num_cores
        assert schedule(execution, arch(latency=latency)) == (
            replayed_helix(execution, latency) + overhead
        )
