"""Observers run on the compiled engine, and see what the walker sees.

An interpreter with a ``memory_observer`` or an ``edge_observer`` set
runs the engine's *observed* code.  Against the reference walker, every
run here must give the identical memory-event list ``(kind, address,
inst)``, the identical edge-event list, and the same ``steps``,
``cycles``, ``output`` and region records — on the 21 registry
workloads (sequential, and on the simulated machine after DOALL, HELIX
and DSWP, where the unobserved product code must match too), the
seven fuzz families, the four programs that unwind through partial blocks, and
every step limit of one small loop — while not one block runs on the
walker (``engine.blocks_reference`` +0).
"""

from array import array

import pytest

from repro.frontend import compile_source
from repro.fuzz.gen import SHAPES, generate_program
from repro.interp import InterpError, Interpreter
from repro.interp.engine import engine_for, invalidate_module
from repro.perf import STATS
from repro.runtime.machine import ParallelMachine
from repro.tools import pipeline
from repro.workloads import all_workloads, get
from tests.core.test_profile_equivalence import PARTIAL_BLOCK_SOURCES

WORKLOADS = [w.name for w in all_workloads()]
FUZZ_SEEDS = range(4)
_KINDS = {"load": 0, "store": 1}

#: A loop with a call, phis, loads and stores: small enough to stop at
#: every step of its run.
SMALL_LOOP = """
int buf[8];
int bump(int x) { buf[x % 8] = buf[x % 8] + x; return buf[x % 8]; }
int main() {
  int s = 0;
  for (int i = 0; i < 6; i = i + 1) { s = s + bump(i) + buf[i]; }
  print_int(s);
  return s;
}
"""


class Trace:
    """Every event of one observed run, flattened into integer arrays:
    ``memory`` holds (kind, address, id(inst)) triples, ``edges``
    (id(src), id(dst)) pairs — identities, so both runs must share the
    module."""

    def __init__(self):
        self.memory = array("q")
        self.edges = array("q")

    def on_access(self, kind, address, inst):
        self.memory.extend((_KINDS[kind], address, id(inst)))

    def on_edge(self, src, dst):
        self.edges.extend((id(src), id(dst)))


def observed_run(module, engine, machine=Interpreter, **options):
    """Everything the two executors must agree on, as one dict."""
    trace = Trace()
    interp = machine(module, engine=engine, **options)
    interp.memory_observer = trace.on_access
    interp.edge_observer = trace.on_edge
    raised = None
    try:
        interp.run()
    except InterpError as error:  # StepLimitExceeded, a bad edge, ...
        raised = f"{type(error).__name__}: {error}"
    result = interp.result
    return {
        "raised": raised,
        "trapped": result.trapped,
        "output": result.output,
        "return_value": result.return_value,
        "steps": result.steps,
        "cycles": result.cycles,
        "records": region_records(result),
        "memory": trace.memory,
        "edges": trace.edges,
    }


def _first_difference(a, b) -> int:
    for index, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return index
    return min(len(a), len(b))


def assert_observed_alike(module, machine=Interpreter, **options):
    walked = observed_run(module, "reference", machine, **options)
    before = STATS.get("engine.blocks_reference")
    compiled = observed_run(module, None, machine, **options)
    assert STATS.get("engine.blocks_reference") == before, "walker ran"
    for key in ("memory", "edges"):
        assert compiled[key] == walked[key], (
            f"{key} events diverge at element "
            f"{_first_difference(compiled[key], walked[key])} of "
            f"{len(walked[key])} (compiled has {len(compiled[key])})"
        )
    assert compiled == walked
    return walked


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_sequential(name):
    run = assert_observed_alike(get(name).compile())
    assert run["trapped"] is None and len(run["edges"]) > 0


def region_records(result) -> list[tuple]:
    """Every field of every :class:`ParallelExecution` of a run."""
    return [
        (e.kind, e.num_cores, e.unit_cycles, e.queued,
         e.iteration_cycles, e.segment_cycles)
        for e in result.parallel_executions
    ]


@pytest.mark.parametrize("technique", pipeline.TECHNIQUES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_on_the_machine_after(name, technique, monkeypatch):
    """Also the product code, unobserved, whose region markers are
    inline: the walker's run records every region the same way."""
    # The parallelized input is built with no fault plan armed: an
    # injected fault would roll the technique back.
    monkeypatch.delenv("NOELLE_FAULTS", raising=False)
    module = get(name).compile()
    _, count = pipeline.parallelize(pipeline.load(module), technique)
    assert count > 0
    run = assert_observed_alike(module, ParallelMachine)
    assert run["trapped"] is None
    compiled = ParallelMachine(module)
    compiled.run()
    result = compiled.result
    assert region_records(result) == run["records"]
    assert (result.output, result.steps, result.cycles) == (
        run["output"], run["steps"], run["cycles"]
    )


@pytest.mark.parametrize("family", SHAPES)
def test_fuzz_family(family):
    for seed in FUZZ_SEEDS:
        program = generate_program(seed, family=family)
        module = compile_source(program.source, program.name)
        assert_observed_alike(module, step_limit=2_000_000)


@pytest.mark.parametrize("name", sorted(PARTIAL_BLOCK_SOURCES))
def test_partial_block_program(name):
    assert_observed_alike(compile_source(PARTIAL_BLOCK_SOURCES[name], name))


def test_every_step_limit_of_a_small_loop():
    module = compile_source(SMALL_LOOP, "small_loop")
    full = assert_observed_alike(module)
    assert full["raised"] is None and full["steps"] > 100
    for limit in range(1, full["steps"] + 1):
        run = assert_observed_alike(module, step_limit=limit)
        assert (run["raised"] is None) == (limit == full["steps"]), limit


class TestObservedCode:
    """Where observed code lives, and when it runs."""

    def test_kept_apart_from_the_product_code(self):
        module = compile_source(SMALL_LOOP, "apart")
        interp = Interpreter(module)
        interp.memory_observer = lambda *event: None
        interp.run()
        engine = engine_for(module)
        # ``functions`` is all the artifact cache publishes.
        assert engine.functions == {} and len(engine.observed) == 2

    def test_every_invalidation_drops_it(self):
        module = compile_source(SMALL_LOOP, "dropped")
        interp = Interpreter(module)
        interp.edge_observer = lambda src, dst: None
        interp.run()
        Interpreter(module).run()
        engine = engine_for(module)
        invalidate_module(module, module.functions["bump"])
        assert [cf.fn.name for cf in engine.observed.values()] == ["main"]
        assert [cf.fn.name for cf in engine.functions.values()] == ["main"]
        invalidate_module(module)
        assert engine.observed == {} and engine.functions == {}

    def test_clearing_the_observers_runs_the_product_code(self):
        module = compile_source(SMALL_LOOP, "cleared")
        events = []
        interp = Interpreter(module)
        interp.memory_observer = lambda *event: events.append(event)
        interp.memory_observer = None
        interp.run()
        engine = engine_for(module)
        assert events == [] and engine.observed == {}
        assert len(engine.functions) == 2

    def test_one_observer_alone(self):
        module = compile_source(SMALL_LOOP, "alone")
        kinds = []
        interp = Interpreter(module)
        interp.memory_observer = lambda kind, address, inst: kinds.append(kind)
        result = interp.run()
        assert result.output == [int(result.return_value)]
        assert set(kinds) == {"load", "store"}
