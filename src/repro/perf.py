"""Lightweight performance instrumentation for the NOELLE layer.

Named counters and timers with near-zero overhead, threaded through the
expensive paths of the abstraction layer (points-to solving, PDG shard
construction, alias-query memoization, transform pipelines) and the
execution engine (``engine.compiles``, the ``engine.compile`` timer,
``engine.cache_hits`` — entries through ``ExecutionEngine.call`` that
found their code compiled: run entries, dispatched tasks and indirect
calls, never a direct call, which goes through its callee's cell —
``engine.invalidations``,
``engine.slow_segments`` — charge units whose per-instruction tail was
rendered because a run crossed its step limit inside them, zero for a
run that stays under its limit — and the
``engine.blocks_compiled`` / ``engine.blocks_reference`` split showing
which engine actually executed each run's blocks — the first is kept on
the interpreter and added once per ``Interpreter.run``, the second
counts only runs on a walker built explicitly with
``engine="reference"``, since observed runs compile too), plus the artifact
cache (``cache.hits`` / ``cache.misses`` for content-addressed module
lookups, ``cache.bytes_read`` / ``cache.bytes_written``,
``cache.pdg_shards_hydrated`` / ``cache.engine_plans_hydrated``,
``cache.pdg_shard_reads`` / ``cache.engine_plan_reads`` — artifact
files read, only those of functions that hold no shard or code yet, so
zero shard reads when every shard came with the module —
``cache.evictions`` (whole entries and single artifact files, a bad
file included) / ``cache.poisoned``, and the
``cache.hydrate_module`` / ``cache.hydrate_pdg`` / ``engine.hydrate`` /
``cache.publish`` timers), plus the symbolic dependence-test engine
(``deptest.pairs_tested`` with its
``deptest.proven_independent`` / ``deptest.proven_dependent`` /
``deptest.unknown`` verdict split, ``deptest.pdg_pairs_pruned`` /
``deptest.pdg_edges_pruned`` for PDG memory edges removed under
``NOELLE_DEPTEST=1``, ``deptest.carried_disproved`` for memory edges
the default loop dependence graph leaves carried and the tests then
prove intra-iteration or absent — a pair the default graph's distance-0
match already keeps within one iteration is never counted — and the
``deptest.query`` timer around carried-dependence queries), plus the
loop abstractions (``loop.ldg_builds`` — loop dependence graphs
constructed, at most one per loop per function version — under the
``loop.build_ldg`` timer; ``loop.cache_hits`` — times ``Noelle.loops()``
/ ``loop_forest()`` / ``loop_of()`` served a function's ``Loop``
objects from the facade instead of minting them;
``loop.ldg_out_maps`` — loop dependence graphs whose out-map a query
filled, zero on a compile that runs only LICM and DOALL; the
``sccdag.build`` timer; ``sccdag.edge_builds`` — aSCCDAGs whose edges
between SCCs were created, which only ``edges()``,
``topological_order()`` and per-value queries (DSWP's partitioner) do;
and the ``loop.invariants`` timer around Algorithm 2's walk over a
whole loop), plus ``pdg.embedded_stale`` — times ``noelle-load``
declined an embedded PDG because the module no longer prints as it did
when the shards were computed.  The printed table ends with three rows
no code counts: ``gc.gen0.passes`` / ``gc.gen1.passes`` /
``gc.gen2.passes``, the cyclic collector's passes per generation since
the process started, read from ``gc.get_stats()`` when the table is
printed (a full collection is a ``gen2`` pass).  Two ways to see the
numbers:

* set ``NOELLE_STATS=1`` in the environment — a table is printed to
  stderr when the process exits;
* pass ``--stats`` to the ``repro-noelle`` CLI — the table is printed
  after the command finishes.

Counters are always live (they are plain integer increments and several
tests assert on them, e.g. that per-function PDG invalidation rebuilds
only the mutated shard).  Timers are also always live; they only wrap
coarse-grained units (a whole shard build, a whole points-to solve), so
the two ``perf_counter`` calls per measurement are noise.

``gc_paused`` keeps CPython's cyclic collector off while a bulk builder
runs.  The collector starts a pass after a fixed number of container
allocations, so a builder that allocates a large live structure pays
for passes that re-walk every live object and can find no garbage.
The builders that allocate such a structure and leave no reference
cycle behind run under it: a PDG shard build (``pdgbuilder.build_shard``)
and a shard adoption (``PDG.adopt_shard``, for both carriers), a loop's
dependence graph (``Loop.dependence_graph``) and aSCCDAG
(``Loop.sccdag``), and the two module readers (``ir.parse_module``,
``ir.read_module``).  The front end is not paused: mem2reg and
simplify leave cyclic IR garbage, which a paused collector would let
pile up.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
import threading
import time
from contextlib import ContextDecorator, contextmanager
from typing import Iterator, TextIO


class PerfStats:
    """A registry of named counters and accumulated timers."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        #: name -> [calls, total_seconds]
        self.timers: dict[str, list[float]] = {}

    # -- counters ---------------------------------------------------------------------
    # A PDG shard build adds its ``aa.*`` query and memo-hit counts and its
    # ``deptest.pdg_*`` prunings once per shard, when its pair loop ends.
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- timers -----------------------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            entry = self.timers.get(name)
            if entry is None:
                self.timers[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    def total_seconds(self, name: str) -> float:
        entry = self.timers.get(name)
        return entry[1] if entry is not None else 0.0

    # -- lifecycle ---------------------------------------------------------------------
    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()

    def snapshot(self) -> dict[str, int]:
        """A copy of the counters (for before/after assertions in tests)."""
        return dict(self.counters)

    # -- reporting ---------------------------------------------------------------------
    def report(self, stream: TextIO | None = None) -> None:
        stream = stream if stream is not None else sys.stderr
        if not self.counters and not self.timers:
            return
        print("\n=== NOELLE perf stats ===", file=stream)
        if self.timers:
            width = max(len(n) for n in self.timers)
            print(f"{'timer'.ljust(width)}  {'calls':>8s}  {'total':>10s}",
                  file=stream)
            for name in sorted(self.timers):
                calls, total = self.timers[name]
                print(f"{name.ljust(width)}  {int(calls):8d}  {total:9.4f}s",
                      file=stream)
        if self.counters:
            width = max(len(n) for n in self.counters)
            print(f"{'counter'.ljust(width)}  {'value':>12s}", file=stream)
            for name in sorted(self.counters):
                print(f"{name.ljust(width)}  {self.counters[name]:12d}",
                      file=stream)
        print(f"{'collector'.ljust(14)}  {'passes':>12s}", file=stream)
        for generation, stats in enumerate(gc.get_stats()):
            name = f"gc.gen{generation}.passes"
            print(f"{name.ljust(14)}  {stats['collections']:12d}", file=stream)


#: The process-wide stats registry every subsystem reports into.
STATS = PerfStats()


class _CollectorPause(ContextDecorator):
    """Keeps the cyclic collector off while a bulk builder runs.

    Re-entrant and shared by every thread: the outermost entry disables
    the collector if it was enabled, and the exit that brings the depth
    back to zero enables it again, whether the block ended normally or
    by an exception.  A collector that was already off stays off.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


#: ``with gc_paused:`` (or ``@gc_paused``) around code that allocates a
#: large live structure and leaves no reference cycle behind.
gc_paused = _CollectorPause()


def stats_enabled() -> bool:
    """True when the user asked for a stats report (``NOELLE_STATS=1``)."""
    return os.environ.get("NOELLE_STATS", "") not in ("", "0")


if stats_enabled():  # pragma: no cover - exercised via subprocess in CI
    atexit.register(STATS.report)
