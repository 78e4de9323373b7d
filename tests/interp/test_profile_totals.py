"""The compiled engine's profile totals against the walker's counts.

A compiled frame adds its edge counters into its function's totals in
the run's :class:`BlockProfile` when it exits, and ``Interpreter.run``
folds the totals into ``edges`` once, when the run ends; the walker
counts into ``edges`` per block.  Whatever stops a run, every profile
must read the same on both executors, also for frames whose exit adds
their counters one statement each and frames above that bound.
"""

import marshal
import pickle

import pytest

from repro.frontend import compile_source
from repro.interp import Interpreter, InterpError, StepLimitExceeded
from repro.interp.compiler import _UNROLLED_COUNTERS, _Compiler
from repro.interp.engine import engine_for
from repro.interp.interp import BlockProfile
from repro.ir import parse_module, print_module
from repro.workloads import get

ENGINES = ("reference", "compiled")

#: ``route`` has more counters than its exit unrolls; ``small`` fewer.
#: Both run in frames of their own many times, recursively too.
ROUTE_SOURCE = """
int a[8];

int small(int x) {
  if (x > 2) { return x - 1; }
  return x + 1;
}

int route(int k, int depth) {
  int s = 0;
  if (k % 7 == 0) { s = s + 1; }
  if (k % 5 == 1) { s = s + 2; }
  if (k % 3 == 2) { s = s + 3; }
  if (k % 2 == 0) { s = s + small(k); }
  if (k % 11 == 4) { s = s + 5; }
  if (depth > 0) { s = s + route(k + 3, depth - 1); }
  a[k % 8] = s;
  return s;
}

int main() {
  int t = 0;
  for (int i = 0; i < 40; i = i + 1) {
    t = t + route(i, i % 4);
    if (a[i % 8] > 100) { exit(3); }
  }
  print_int(t);
  return t;
}
"""

#: ``exit()`` three frames deep, in the middle of each caller's block.
EXIT_SOURCE = """
int a[4];
int deep(int k) {
  a[1] = k;
  if (k > 4) { exit(7); }
  a[2] = k;
  return k + 1;
}
int mid(int k) {
  int r = deep(k) + 3;
  a[3] = r;
  return r;
}
int main() {
  int s = 0;
  for (int i = 0; i < 9; i = i + 1) {
    s = s + mid(i);
    a[0] = s;
  }
  print_int(s);
  return s;
}
"""

#: A store past the array in a recursive callee, after its own call.
TRAP_SOURCE = """
int a[4];
int walk(int k) {
  if (k == 0) { return 0; }
  int r = walk(k - 1) + 1;
  a[r] = k;
  return r;
}
int main() {
  int s = walk(6);
  print_int(s);
  return s;
}
"""


def _counters(fn) -> int:
    """How many counters ``fn``'s frames add at exit: the entry's and
    one per CFG edge."""
    compiler = _Compiler(fn)
    compiler.compile()
    return 1 + len(compiler.edges)


def _listing(profile: BlockProfile) -> tuple:
    """A profile's edges (non-zero, by function and block name), partial
    frames and indirect-call counts, in one comparable form."""
    def name(block):
        return "" if block is None else f"{block.parent.name}.{block.name}"

    edges = sorted(
        (name(src), name(dst), taken)
        for src, targets in profile.edges.items()
        for dst, taken in targets.items()
        if taken
    )
    partial = [(name(block), at) for block, at in profile.partial]
    indirect = sorted((fn.name, n) for fn, n in profile.indirect.items())
    return edges, partial, indirect


def _profiled(module, engine, step_limit=50_000_000, observe=False):
    """One profiled run: how it ended, its result, and its profile."""
    interp = Interpreter(module, step_limit=step_limit, engine=engine)
    profile = interp.block_profile = BlockProfile()
    events = []
    if observe:
        interp.memory_observer = lambda kind, address, inst: events.append(
            (kind, address)
        )
        interp.edge_observer = lambda src, dst: events.append(
            (src.name, dst.name)
        )
    raised = None
    try:
        interp.run()
    except (StepLimitExceeded, InterpError) as error:
        raised = f"{type(error).__name__}: {error}"
    result = interp.result
    assert not profile.totals, "the run's end folds every total"
    return (
        raised, result.output, result.return_value, result.trapped,
        result.steps, result.cycles, len(events), _listing(profile),
    )


def _agree(module, **options):
    reference = _profiled(module, "reference", **options)
    assert _profiled(module, "compiled", **options) == reference
    return reference


def test_recursive_function_above_the_bound():
    """deepsjeng's ``evaluate``: recursive, above the unroll bound."""
    module = get("deepsjeng").compile()
    evaluate = module.functions["evaluate"]
    assert _counters(evaluate) == 13 > _UNROLLED_COUNTERS
    reference = _agree(module)
    edges = reference[-1][0]
    assert ("", "evaluate." + evaluate.entry.name, 9331) in edges


def test_frames_on_both_sides_of_the_bound():
    module = compile_source(ROUTE_SOURCE, "route")
    assert _counters(module.functions["route"]) > _UNROLLED_COUNTERS
    assert _counters(module.functions["small"]) <= _UNROLLED_COUNTERS
    engine = engine_for(module)
    reference = _agree(module)
    assert reference[0] is None and reference[3] is None
    # Above the bound the exit calls the list helper; below it does not.
    for name, tallies in (("route", True), ("small", False)):
        func = engine.compiled(module.functions[name]).func
        assert ("_tally" in func.__code__.co_names) is tallies
    # The same code adopted as a cache hydration would: its edge table
    # is bound by the one wiring step too.
    text = print_module(module)
    twin = parse_module(text)
    for fn in module.defined_functions():
        cf = engine.compiled(fn)
        engine_for(twin).adopt(
            twin.functions[fn.name],
            pickle.loads(pickle.dumps(cf.plan)),
            marshal.loads(marshal.dumps(cf.code)),
        )
    assert _profiled(twin, "compiled") == reference


@pytest.mark.parametrize("source", [EXIT_SOURCE, TRAP_SOURCE])
def test_unwinding_frames_add_their_counters(source):
    """A memory trap and an ``exit()`` unwind through frames: each adds
    what it counted and records its partial position."""
    reference = _agree(compile_source(source, "unwind"))
    assert reference[-1][1], "the run stopped mid-block"


def test_step_limit_inside_a_tail():
    """Runs cut at every budget around calls and returns: the frames a
    tail's ``StepLimitExceeded`` unwinds through add their counters."""
    module = compile_source(ROUTE_SOURCE, "route")
    full = _profiled(module, "reference")[4]
    for limit in (1, 2, 7, 30, 31, 32, 33, 150, 151, full // 2, full - 1):
        reference = _agree(module, step_limit=limit)
        assert reference[0].startswith("StepLimitExceeded")


def test_observed_code_under_a_profile():
    module = compile_source(ROUTE_SOURCE, "route")
    reference = _agree(module, observe=True)
    assert reference[6] > 0
    # The observed and the plain code of one function keep apart totals
    # and fold into the same counts.
    assert _profiled(module, "compiled") == (*reference[:6], 0, reference[7])


def test_totals_never_leak_between_profiles():
    """Two profiled runs of one module share its compiled code and its
    edge tables, never a total: each reads what one run counts, also
    after a run stopped by its step limit and a plain run between."""
    module = compile_source(ROUTE_SOURCE, "route")
    reference = _profiled(module, "reference")
    first = _profiled(module, "compiled")
    _profiled(module, "compiled", step_limit=500)
    Interpreter(module).run()
    second = _profiled(module, "compiled")
    assert first == second == reference
    # A profile kept across two runs adds them, as the walker's does.
    for engine in ENGINES:
        profile = BlockProfile()
        for _ in range(2):
            interp = Interpreter(module, engine=engine)
            interp.block_profile = profile
            interp.run()
        edges = _listing(profile)[0]
        assert edges == [
            (src, dst, 2 * taken) for src, dst, taken in reference[-1][0]
        ]
