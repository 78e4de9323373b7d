"""Lightweight performance instrumentation for the NOELLE layer.

Named counters and timers with near-zero overhead, threaded through the
expensive paths of the abstraction layer (points-to solving, PDG shard
construction, alias-query memoization, transform pipelines) and the
execution engine (``engine.compiles``, the ``engine.compile`` timer,
``engine.cache_hits``, ``engine.invalidations``,
``engine.slow_segments`` — charge units whose per-instruction tail was
rendered because a run crossed its step limit inside them, zero for a
run that stays under its limit — and the
``engine.blocks_compiled`` / ``engine.blocks_reference`` split showing
which engine actually executed each run's blocks), plus the artifact
cache (``cache.hits`` / ``cache.misses`` for content-addressed module
lookups, ``cache.bytes_read`` / ``cache.bytes_written``,
``cache.pdg_shards_hydrated`` / ``cache.engine_plans_hydrated``,
``cache.evictions`` / ``cache.poisoned``, and the
``cache.hydrate_module`` / ``cache.hydrate_pdg`` / ``engine.hydrate`` /
``cache.publish`` timers), plus the symbolic dependence-test engine
(``deptest.pairs_tested`` with its
``deptest.proven_independent`` / ``deptest.proven_dependent`` /
``deptest.unknown`` verdict split, ``deptest.pdg_pairs_pruned`` /
``deptest.pdg_edges_pruned`` for PDG memory edges removed under
``NOELLE_DEPTEST=1``, ``deptest.carried_disproved`` for loop-carried
classifications refuted by a proven distance, and the
``deptest.query`` timer around carried-dependence queries), plus the
loop abstractions (``loop.ldg_builds`` — loop dependence graphs
constructed, at most one per loop per function version — under the
``loop.build_ldg`` timer; ``loop.cache_hits`` — times ``Noelle.loops()``
/ ``loop_forest()`` / ``loop_of()`` served a function's ``Loop``
objects from the facade instead of minting them; the ``sccdag.build``
timer; and the ``loop.invariants`` timer around Algorithm 2's walk over
a whole loop), plus ``pdg.embedded_stale`` — times ``noelle-load``
declined an embedded PDG because the module no longer prints as it did
when the shards were computed.  Two ways to see the numbers:

* set ``NOELLE_STATS=1`` in the environment — a table is printed to
  stderr when the process exits;
* pass ``--stats`` to the ``repro-noelle`` CLI — the table is printed
  after the command finishes.

Counters are always live (they are plain integer increments and several
tests assert on them, e.g. that per-function PDG invalidation rebuilds
only the mutated shard).  Timers are also always live; they only wrap
coarse-grained units (a whole shard build, a whole points-to solve), so
the two ``perf_counter`` calls per measurement are noise.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from contextlib import contextmanager
from typing import Iterator, TextIO


class PerfStats:
    """A registry of named counters and accumulated timers."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        #: name -> [calls, total_seconds]
        self.timers: dict[str, list[float]] = {}

    # -- counters ---------------------------------------------------------------------
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


#: The process-wide stats registry every subsystem reports into.
STATS = PerfStats()


def stats_enabled() -> bool:
    """True when the user asked for a stats report (``NOELLE_STATS=1``)."""
    return os.environ.get("NOELLE_STATS", "") not in ("", "0")


if stats_enabled():  # pragma: no cover - exercised via subprocess in CI
    atexit.register(STATS.report)
