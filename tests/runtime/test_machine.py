"""Simulated-machine tests: dispatch timing models and the cores knob."""

import os

import pytest

from repro.core import Noelle
from repro.core.architecture import ArchitectureDescription
from repro.core.profiler import Profiler
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.runtime import FORK_OVERHEAD, ParallelMachine, schedule
from repro.serve.protocol import EXIT_TRAP
from repro.tools import remove_loop_carried_dependences
from repro.tools.cli import main
from repro.tools.pipeline import execute, load_program
from repro.xforms import DOALL, DSWP, HELIX
from tests.conftest import outputs_match

DOALL_SOURCE = """
int a[1500];
int main() {
  int i;
  for (i = 0; i < 1500; i = i + 1) { a[i] = (i * 29 + 1) % 77; }
  print_int(a[1000]);
  return a[1000];
}
"""


def prepare(source, technique, cores=8):
    module = compile_source(source)
    noelle = Noelle(module)
    noelle.attach_profile(Profiler(module).profile())
    remove_loop_carried_dependences(noelle)
    if technique == "doall":
        DOALL(noelle, cores).run()
    elif technique == "helix":
        HELIX(noelle, cores).run()
    else:
        DSWP(noelle).run()
    return module


class TestDoallModel:
    def test_wall_time_is_max_plus_overhead(self):
        module = prepare(DOALL_SOURCE, "doall")
        machine = ParallelMachine(module, num_cores=4)
        machine.run()
        execution = [e for e in machine.executions if e.kind == "doall"][0]
        assert schedule(execution, machine.architecture) < execution.sequential_cycles
        assert schedule(execution, machine.architecture) > FORK_OVERHEAD

    def test_more_cores_less_wall_time(self):
        results = {}
        for cores in (2, 8):
            module = prepare(DOALL_SOURCE, "doall")
            machine = ParallelMachine(module, num_cores=cores)
            machine.run()
            execution = [e for e in machine.executions if e.kind == "doall"][0]
            results[cores] = schedule(execution, machine.architecture)
        assert results[8] < results[2]

    def test_single_core_close_to_sequential(self):
        baseline = Interpreter(compile_source(DOALL_SOURCE)).run()
        module = prepare(DOALL_SOURCE, "doall")
        machine = ParallelMachine(module, num_cores=1)
        result = machine.run()
        # Overheads only: within 25% of sequential.
        assert result.cycles < baseline.cycles * 1.25

    def test_cores_knob_written_to_global(self):
        module = prepare(DOALL_SOURCE, "doall", cores=12)
        machine = ParallelMachine(module, num_cores=3)
        result = machine.run()
        execution = [e for e in machine.executions if e.kind == "doall"][0]
        assert execution.num_cores == 3
        baseline = Interpreter(compile_source(DOALL_SOURCE)).run()
        assert outputs_match(result.output, baseline.output)


    @pytest.mark.parametrize("cores", [0, -3])
    def test_no_cores_is_refused(self, cores):
        # A region on no core would run none of its units.
        with pytest.raises(ValueError, match="num_cores must be >= 1"):
            ParallelMachine(compile_source(DOALL_SOURCE), num_cores=cores)


class TestHelixModel:
    HISTOGRAM = """
int hist[16];
int main() {
  int i; int c = 0;
  for (i = 0; i < 600; i = i + 1) {
    int b = (i * 11 + 3) % 16;
    int w = (i * i) % 53;
    hist[b] = hist[b] + 1;
    c = c + w;
  }
  print_int(c);
  print_int(hist[2]);
  return c;
}
"""

    def test_in_order_semantics(self):
        baseline = Interpreter(compile_source(self.HISTOGRAM)).run()
        module = prepare(self.HISTOGRAM, "helix")
        result = ParallelMachine(module, num_cores=6).run()
        assert outputs_match(result.output, baseline.output)

    def test_sequential_segments_recorded(self):
        module = prepare(self.HISTOGRAM, "helix")
        machine = ParallelMachine(module, num_cores=6)
        machine.run()
        execution = [e for e in machine.executions if e.kind == "helix"][0]
        # The histogram segment serializes; speedup exists but is partial.
        assert schedule(execution, machine.architecture) < execution.sequential_cycles

    def test_latency_sensitivity(self):
        module = prepare(self.HISTOGRAM, "helix")
        machine = ParallelMachine(module, num_cores=6)
        machine.run()
        execution = [e for e in machine.executions if e.kind == "helix"][0]
        wall = {
            latency: schedule(execution, ArchitectureDescription(
                12, default_latency=latency
            ))
            for latency in (10, 200)
        }
        # Slower interconnect -> longer sequential-segment chain.
        assert wall[200] > wall[10]


class TestDswpModel:
    PIPELINE = """
int main() {
  int i; int s = 0;
  for (i = 0; i < 500; i = i + 1) {
    int x = (i * 17 + 3) % 101;
    int y = (x * x + 9) % 97;
    s = s + y;
  }
  print_int(s);
  return s;
}
"""

    def test_pipeline_semantics(self):
        baseline = Interpreter(compile_source(self.PIPELINE)).run()
        module = prepare(self.PIPELINE, "dswp")
        result = ParallelMachine(module).run()
        assert outputs_match(result.output, baseline.output)

    def test_wall_time_bounded_by_slowest_stage(self):
        module = prepare(self.PIPELINE, "dswp")
        machine = ParallelMachine(module)
        machine.run()
        execution = [e for e in machine.executions if e.kind == "dswp"][0]
        assert schedule(execution, machine.architecture) < execution.sequential_cycles

    def test_every_push_is_traffic(self):
        """The middle stage pops a value per iteration and pushes one:
        the queues never grow while it runs, but it forwards 500 values."""
        module = prepare(self.PIPELINE, "dswp")
        machine = ParallelMachine(module)
        machine.run()
        execution = [e for e in machine.executions if e.kind == "dswp"][0]
        assert execution.queued == [500, 500, 0]


@pytest.mark.parametrize("source, technique", [
    (DOALL_SOURCE, "doall"),
    (TestHelixModel.HISTOGRAM, "helix"),
    (TestDswpModel.PIPELINE, "dswp"),
])
def test_execute_once_schedule_many(source, technique):
    """One run priced at each latency gives the cycles of a fresh
    machine run at that latency."""
    module = prepare(source, technique)
    machine = ParallelMachine(module, num_cores=6)
    result = machine.run()
    # Cycles outside the regions, then each region at its schedule.
    outside = result.cycles - sum(
        schedule(e, machine.architecture) for e in machine.executions
    )
    assert {e.kind for e in machine.executions} == {technique}
    for latency in (5, 40, 640):
        arch = ArchitectureDescription(12, default_latency=latency)
        priced = outside + sum(schedule(e, arch) for e in machine.executions)
        fresh = ParallelMachine(module, architecture=arch, num_cores=6).run()
        assert priced == fresh.cycles
        assert fresh.output == result.output


class TestBaseInterpreterFallback:
    def test_parallel_intrinsics_work_without_machine(self):
        """The plain interpreter gives sequential reference semantics."""
        baseline = Interpreter(compile_source(DOALL_SOURCE)).run()
        module = prepare(DOALL_SOURCE, "doall")
        result = Interpreter(module).run()
        assert result.trapped is None
        assert outputs_match(result.output, baseline.output)

    @pytest.mark.parametrize("source, technique", [
        (DOALL_SOURCE, "doall"),
        (TestHelixModel.HISTOGRAM, "helix"),
        (TestDswpModel.PIPELINE, "dswp"),
    ])
    def test_same_regions_as_the_machine(self, source, technique):
        """Both run a region the same way and record the same facts;
        only the machine charges the schedule."""
        module = prepare(source, technique)
        plain = Interpreter(module).run()
        machine = ParallelMachine(module)
        priced = machine.run()

        def facts(result):
            return [
                (e.kind, e.num_cores, e.unit_cycles, e.queued,
                 e.iteration_cycles, e.segment_cycles)
                for e in result.parallel_executions
            ]

        assert facts(plain) and facts(plain) == facts(priced)
        assert priced.cycles - plain.cycles == sum(
            schedule(e, machine.architecture) - e.sequential_cycles
            for e in machine.executions
        )


FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "swaptions_helix_dswp.ir"
)


def test_a_region_the_model_cannot_price_is_a_trap(capsys):
    """HELIX around DSWP, IR the tools do not build (the HELIX task's loop
    split into DSWP stages): the HELIX record closes no iteration, and
    its price would beat its work."""
    result = execute(load_program(FIXTURE), num_cores=8)
    assert result.trap_kind == "UnpricedRegion"
    assert result.output == []
    assert main(["run", FIXTURE, "--cores", "8"]) == EXIT_TRAP
    err = capsys.readouterr().err
    assert err.startswith("TRAP: helix region of ") and err.count("\n") == 1
