"""The training run and the machine run share one code table.

A profiled run executes the same compiled code as a plain one, so after
``parallelize`` (training run, ``rm-lc-dependences``, a technique) the
machine run compiles only the functions the passes changed or created:
everything else kept the code the training run compiled.  A profile-only
code variant would make the machine run compile every function it
enters again.
"""

import pytest

from repro.ir.printer import print_function
from repro.perf import STATS
from repro.runtime.machine import ParallelMachine
from repro.tools import pipeline
from repro.workloads import get


@pytest.mark.parametrize(
    "workload, technique, expected",
    [
        ("bitcount", "dswp", [
            "main", "main.dswp.stage0", "main.dswp.stage1",
            "main.dswp.stage2", "main.dswp.task",
        ]),
        ("crc32", "doall", ["make_table", "make_table.doall.task"]),
        ("sha", "helix", ["fill", "fill.helix.task"]),
    ],
)
def test_machine_run_compiles_only_what_the_passes_touched(
    workload, technique, expected, monkeypatch
):
    # An injected fault would roll the technique back.
    monkeypatch.delenv("NOELLE_FAULTS", raising=False)
    module = get(workload).compile()
    noelle = pipeline.load(module)
    before = {fn.name: print_function(fn) for fn in module.defined_functions()}
    _, parallelized = pipeline.parallelize(noelle, technique)
    assert parallelized > 0
    touched = sorted(
        fn.name for fn in module.defined_functions()
        if before.get(fn.name) != print_function(fn)
    )
    assert touched == expected
    compiles = STATS.get("engine.compiles")
    result = ParallelMachine(module, num_cores=8).run()
    assert result.trapped is None
    assert STATS.get("engine.compiles") - compiles == len(touched)
