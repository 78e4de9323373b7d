"""``gc_paused``: the cyclic collector stays off inside bulk builders and
comes back on whatever way they end."""

import gc
import threading

import pytest

from repro.core.noelle import Noelle
from repro.frontend import compile_source
from repro.ir import print_module
from repro.perf import gc_paused
from repro.robust.faults import FaultPlan
from repro.robust.passmanager import PassManager

SOURCE = """
int a[64];
int b[64];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 3; b[i] = a[i] + 1; }
  for (i = 0; i < 64; i = i + 1) { s = s + b[i]; }
  print_int(s);
  return 0;
}
"""


def test_nested_use_resumes_only_at_the_outermost_exit():
    assert gc.isenabled()
    with gc_paused:
        assert not gc.isenabled()
        with gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_decorated_function_runs_paused():
    @gc_paused
    def build():
        return gc.isenabled()

    assert build() is False
    assert gc.isenabled()


def test_exit_by_exception_resumes():
    with pytest.raises(KeyError):
        with gc_paused:
            with gc_paused:
                raise KeyError("inside the builder")
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled():
    gc.disable()
    try:
        with gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_two_overlapping_threads_leave_it_enabled():
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    seen = {}

    def first():
        with gc_paused:
            first_in.set()
            assert second_in.wait(10)
        first_out.set()

    def second():
        assert first_in.wait(10)
        with gc_paused:
            second_in.set()
            assert first_out.wait(10)
            # The first thread left; this one is still building.
            seen["inside"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"inside": False}
    assert gc.isenabled()


class _RecordingPlan(FaultPlan):
    """A plan that notes whether the collector ran when it fired."""

    collector_on_when_fired = None

    def note(self, site: str) -> None:
        if not self.fired and site == self.site:
            if self.counts[site] + 1 == self.trigger:
                self.collector_on_when_fired = gc.isenabled()
        super().note(site)


def test_a_fault_inside_a_paused_shard_build_rolls_back_and_resumes():
    module = compile_source(SOURCE, "prog")
    before = print_module(module)
    plan = _RecordingPlan("alias_query", 1)
    manager = PassManager(Noelle(module), fault_plan=plan, checks=False)
    result = manager.run_registered("licm")
    assert plan.fired
    # The first alias query is asked while the PDG shard builds.
    assert plan.collector_on_when_fired is False
    assert result.rolled_back
    assert result.error.kind == "InjectedFault"
    assert print_module(module) == before
    assert gc.isenabled()
