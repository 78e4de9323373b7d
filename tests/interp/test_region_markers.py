"""The region intrinsics are code in the engine, and the walker's
handlers are their spec.

``helix_iter_boundary``, ``helix_seq_begin``/``helix_seq_end`` and the
four queue operations are emitted inline by the engine; the walker calls
its handlers.  On hand-written IR the two must agree on steps, cycles,
output, the trap and every region record: at every step limit of a
HELIX region, and on a queue popped empty, with the queue id a constant
(inline code) or a register (the handler).  The registry workloads are
compared the same way after HELIX and DSWP in
``test_observers.py::test_workload_on_the_machine_after``.
"""

import pytest

from repro.interp import InterpError
from repro.ir import parse_module
from repro.runtime.machine import ParallelMachine

#: Five iterations on two cores, each adding ``3i`` to ``@acc`` inside
#: sequential segment 0.
HELIX_IR = """
@acc = global i64 0

define @task(i64* %env, i64 %core, i64 %num_cores) -> void {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %v = mul i64 %i, i64 3
  call void @helix_seq_begin(i64 0)
  %old = load i64, i64* %env
  %sum = add i64 %old, i64 %v
  store i64 %sum, i64* %env
  call void @helix_seq_end(i64 0)
  %next = add i64 %i, i64 1
  call void @helix_iter_boundary()
  %more = icmp slt i64 %next, i64 5
  br i1 %more, label %loop, label %done
done:
  ret void
}

define @main() -> i64 {
entry:
  call void @noelle_dispatch_helix(void (i64*, i64, i64)* @task, i64* @acc, i64 2)
  %r = load i64, i64* @acc
  call void @print_int(i64 %r)
  ret i64 %r
}

declare @print_int(i64 %arg0) -> void io

declare @helix_seq_begin(i64 %arg0) -> void parallel

declare @helix_seq_end(i64 %arg0) -> void parallel

declare @helix_iter_boundary() -> void parallel

declare @noelle_dispatch_helix(...) -> void parallel
"""

#: Stage 0 pushes two ints on queue 3 and a double on queue 4; stage 1
#: pops them, stores the ints' sum, then pops queue ``QID`` once more.
DSWP_IR = """
@out = global i64 0

define @stage(i64* %env, i64 %stage, i64 %stages) -> void {
entry:
  %first = icmp eq i64 %stage, i64 0
  br i1 %first, label %produce, label %consume
produce:
  call void @queue_push_i64(i64 3, i64 7)
  call void @queue_push_f64(i64 4, double 2.5)
  call void @queue_push_i64(i64 3, i64 8)
  ret void
consume:
  %a = call i64 @queue_pop_i64(i64 3)
  %f = call double @queue_pop_f64(i64 4)
  %b = call i64 @queue_pop_i64(i64 3)
  %s = add i64 %a, i64 %b
  store i64 %s, i64* %env
  %qid = add i64 %stage, i64 2
  %c = call i64 @queue_pop_i64(i64 QID)
  ret void
}

define @main() -> i64 {
entry:
  call void @noelle_dispatch_dswp(void (i64*, i64, i64)* @stage, i64* @out, i64 2)
  %r = load i64, i64* @out
  ret i64 %r
}

declare @queue_push_i64(i64 %arg0, i64 %arg1) -> void parallel

declare @queue_push_f64(i64 %arg0, double %arg1) -> void parallel

declare @queue_pop_i64(i64 %arg0) -> i64 parallel

declare @queue_pop_f64(i64 %arg0) -> double parallel

declare @noelle_dispatch_dswp(...) -> void parallel
"""


def facts(module, engine, **options):
    """Everything the walker and the engine must agree on."""
    machine = ParallelMachine(module, engine=engine, **options)
    raised = None
    try:
        machine.run()
    except InterpError as error:  # StepLimitExceeded, an empty queue
        raised = f"{type(error).__name__}: {error}"
    result = machine.result
    return {
        "raised": raised,
        "trapped": result.trapped,
        "output": result.output,
        "steps": result.steps,
        "cycles": result.cycles,
        "records": [
            (e.kind, e.num_cores, e.unit_cycles, e.queued,
             e.iteration_cycles, e.segment_cycles)
            for e in result.parallel_executions
        ],
    }


def test_helix_region_records_alike():
    module = parse_module(HELIX_IR)
    walked = facts(module, "reference")
    assert walked["raised"] is None and walked["output"] == [30]
    (record,) = walked["records"]
    assert record[4] and all(segments for segments in record[5])
    assert facts(module, None) == walked


def test_every_step_limit_of_a_helix_region():
    module = parse_module(HELIX_IR)
    total = facts(module, "reference")["steps"]
    for limit in range(1, total + 1):
        walked = facts(module, "reference", step_limit=limit)
        assert facts(module, None, step_limit=limit) == walked, limit
        if limit < total:
            assert walked["raised"].startswith("StepLimitExceeded")


@pytest.mark.parametrize("qid", ["3", "%qid"])
def test_pop_from_an_empty_queue(qid):
    module = parse_module(DSWP_IR.replace("QID", qid))
    walked = facts(module, "reference")
    assert walked["raised"] == "InterpError: pop from empty queue 3"
    assert facts(module, None) == walked


def test_queues_record_alike():
    # Without the last pop the region closes: stage 0 pushed 3 values.
    module = parse_module(
        DSWP_IR.replace("  %c = call i64 @queue_pop_i64(i64 QID)\n", "")
    )
    walked = facts(module, "reference")
    assert walked["raised"] is None and walked["records"][0][3] == [3, 0]
    assert facts(module, None) == walked
