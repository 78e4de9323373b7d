"""Satellite: every registry workload passes the full checker suite
before and after the HELIX pipeline, and the HELIX binary prints what
the sequential program prints on each executor, built explicitly."""

import pytest

from repro.checks import has_errors, run_checkers
from repro.robust.passmanager import PassManager
from repro.tools.pipeline import execute, helix_pipeline, outputs_equivalent
from repro.workloads.registry import all_workloads, get


@pytest.mark.parametrize("engine", ["compiled", "reference"])
@pytest.mark.parametrize("workload", [w.name for w in all_workloads()])
def test_checker_suite_clean_before_and_after_helix(workload, engine):
    descriptor = get(workload)
    module = descriptor.compile()
    before = run_checkers(module)
    assert not has_errors(before), [str(d) for d in before]
    sequential = execute(module)

    parallel = helix_pipeline([descriptor.source], num_cores=4,
                              pass_manager=PassManager(None, fault_plan=None))
    after = run_checkers(parallel)
    assert not has_errors(after), [str(d) for d in after]
    result = execute(parallel, num_cores=4, engine=engine)
    assert result.trapped is None
    assert outputs_equivalent(
        result.output + [result.return_value],
        sequential.output + [sequential.return_value],
    )
