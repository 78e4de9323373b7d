"""Workload ``cache_coldwarm``: the artifact cache's write path beside
its read path.

Fresh child processes (``load_child.py``) bring the 21 registry
programs plus the ``bigmod`` module from IR text to engine-ready.  One
round is three children:

* ``nocache`` — ``NOELLE_CACHE_DIR`` unset: parse the text, compute
  everything;
* ``cold``    — an empty cache directory: miss, compute, **publish**
  (the write path);
* ``warm``    — the directory the cold child just filled: **hydrate**
  ``.nir`` module, PDG shards and engine plans (the read path).

Child wall time is taken from outside and includes interpreter start
and ``import repro``, as a CLI user pays them.  A ``.nir``/store change
that speeds hydrating by slowing publishing, or adds overhead to a
miss, shows as ``load_warm_s`` down and ``load_cold_s`` /
``load_nocache_s`` up.  The hydrated module must print byte-identically
to the text it came from.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import bigmod
from common import HERE, SRC_DIR
from measure import Sampler, median, ratio

from repro.frontend import compile_source
from repro.ir import print_module, read_module, write_module
from repro.workloads import all_workloads

STAGES = ("load_nocache_s", "load_cold_s", "load_warm_s")
PHASES = ("nocache", "cold", "warm")

#: IR instructions of the bigmod module in the corpus (same size as in
#: ``bigmod_analysis``).
BIGMOD_INSTS = 6000
CHILD = os.path.join(HERE, "load_child.py")
CHILD_TIMEOUT_S = 150.0


class State:
    def __init__(self, seed: int, scratch: str):
        self.scratch = scratch
        self.ir_dir = os.path.join(scratch, f"ir-{time.monotonic_ns()}")
        os.makedirs(self.ir_dir)
        sources = {w.name: w.source for w in all_workloads()}
        sources["bigmod"] = bigmod.generate(seed, BIGMOD_INSTS)
        self.modules = {}
        self.digests = {}
        for name, source in sources.items():
            module = compile_source(source, name)
            text = print_module(module)
            with open(os.path.join(self.ir_dir, f"{name}.ir"), "w") as handle:
                handle.write(text)
            self.modules[name] = module
            self.digests[name] = hashlib.sha256(text.encode()).hexdigest()
        self.rounds = 0
        self.children_peak_mb = 0.0


def prepare(seed: int, scratch: str) -> State:
    return State(seed, scratch)


def peak_rss_mb(state: State) -> float:
    """Largest peak RSS among the children (the processes doing the
    work)."""
    return state.children_peak_mb


def _child(state: State, rec, phase: str, cache_dir: str | None) -> dict:
    """Run one child; its wall time is measured here, from outside."""
    env = dict(os.environ)
    if cache_dir is not None:
        # The only NOELLE_* variable the benchmark ever sets.
        env["NOELLE_CACHE_DIR"] = cache_dir
    clock = rec.clock
    report = None
    with Sampler(clock) as speed, rec.span("tools.child", item=phase):
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, CHILD, SRC_DIR, state.ir_dir,
             "1" if rec.tracing else "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=state.scratch,
        )
        try:
            out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            out, err = process.communicate()
        end = time.perf_counter()
        if process.returncode == 0:
            report = json.loads(out.decode().strip().splitlines()[-1])
            # The child's own spans, placed on this process's time axis
            # (its script ended just before ``end``).
            origin = end - report["elapsed_s"]
            rec.add("tools.import", origin, origin + report["import_s"],
                    phase=phase)
            for name, item, first, last in report["spans"]:
                rec.add(name, origin + first, origin + last, item=item,
                        phase=phase)
    if report is not None:
        state.children_peak_mb = max(
            state.children_peak_mb, report["peak_rss_mb"]
        )
    return {
        "phase": phase,
        "wall": end - start,
        "seconds": clock.calibrated(end - start, speed.slice_s),
        "report": report,
        "stderr": err.decode()[-400:],
    }


def _right(state: State, child: dict) -> bool:
    report = child["report"]
    if report is None or report["digests"] != state.digests:
        return False
    counters = report["counters"]
    if child["phase"] == "warm":
        return (
            counters.get("cache.hits", 0) == len(state.digests)
            and counters.get("cache.misses", 0) == 0
            and counters.get("engine.compiles", 0) == 0
            and counters.get("pdg.shard_builds", 0) == 0
        )
    if child["phase"] == "cold":
        return counters.get("cache.misses", 0) == len(state.digests)
    return True


def _round(state: State, rec) -> dict:
    cache_dir = os.path.join(state.scratch, f"cache-{state.rounds}")
    state.rounds += 1
    children = {
        "nocache": _child(state, rec, "nocache", None),
        "cold": _child(state, rec, "cold", cache_dir),
        "warm": _child(state, rec, "warm", cache_dir),
    }
    failed = [phase for phase, child in children.items()
              if not _right(state, child)]
    return {
        "ops": {
            "nocache": (children["nocache"]["seconds"], 0.0, 0.0),
            "cold": (0.0, children["cold"]["seconds"], 0.0),
            "warm": (0.0, 0.0, children["warm"]["seconds"]),
        },
        "wall_s": sum(child["seconds"] for child in children.values()),
        "attempted": len(PHASES),
        "failed": len(failed),
        "children": children,
    }


def warm_up(state: State, rec) -> None:
    """One text-path child: it fills the file cache (sources, corpus) and,
    where the interpreter writes them, the ``.pyc`` files every later
    child starts from."""
    child = _child(state, rec, "nocache", None)
    if not _right(state, child):
        raise RuntimeError(
            "cache_coldwarm warm-up load failed: " + child["stderr"]
        )


def repeat(state: State, rec, index: int) -> dict:
    return _round(state, rec)


def named_metrics(state: State, repeats: list[dict], stages) -> dict:
    return {name: (value, "s") for name, value in zip(STAGES, stages)}


def _nir_probe(state: State, rec) -> dict:
    """Binary IR encode/decode of the whole corpus through the public
    ``write_module`` / ``read_module`` (inside the cache they are part
    of publish and hydrate)."""
    start = time.perf_counter()
    with rec.span("ir.nir_encode"):
        blobs = [write_module(module) for module in state.modules.values()]
    middle = time.perf_counter()
    with rec.span("ir.nir_decode"):
        for blob in blobs:
            read_module(blob)
    return {
        "ir.nir_encode_s": middle - start,
        "ir.nir_decode_s": time.perf_counter() - middle,
        "ir.nir_bytes": sum(len(blob) for blob in blobs),
        "ir.text_bytes": sum(
            os.path.getsize(os.path.join(state.ir_dir, name))
            for name in os.listdir(state.ir_dir)
        ),
    }


def layer_metrics(state: State, rec, repeats: list[dict]) -> dict:
    """Seconds: median over the rounds of what each phase's child
    reported; counts: the last round's children (they repeat exactly)."""
    last = repeats[-1]["children"]

    def seconds(phase, span=None, timer=None):
        values = []
        for repeat in repeats:
            child = repeat["children"][phase]
            if timer is not None:
                values.append(child["report"]["timers"].get(timer, 0.0))
            else:
                values.append(sum(
                    end - start
                    for name, _item, start, end in child["report"]["spans"]
                    if name == span
                ))
        return median(values)

    def counter(phase, name):
        return last[phase]["report"]["counters"].get(name, 0)

    with rec.span("probe"):
        metrics = _nir_probe(state, rec)
    hits, misses = counter("warm", "cache.hits"), counter("warm", "cache.misses")
    metrics.update({
        # interpreter start + import repro: the child's wall minus what
        # its script accounted for, plus its imports
        "tools.import_s": median(
            child["wall"] - child["report"]["elapsed_s"]
            + child["report"]["import_s"]
            for repeat in repeats for child in repeat["children"].values()
        ),
        "ir.parse_s": seconds("nocache", span="ir.parse"),
        "ir.verify_s": seconds("nocache", span="ir.verify"),
        "core.pdg_materialize_s": seconds("nocache", span="core.pdg_materialize"),
        "core.pdg_shard_builds": counter("nocache", "pdg.shard_builds"),
        "analysis.pointsto_s": seconds("nocache", timer="pointsto.solve"),
        "analysis.pointsto_solves": counter("nocache", "pointsto.solves"),
        "interp.engine_compile_s": seconds("nocache", timer="engine.compile"),
        "interp.engine_compiles": counter("nocache", "engine.compiles"),
        "cache.hydrate_module_s": seconds("warm", timer="cache.hydrate_module"),
        "cache.hydrate_pdg_s": seconds("warm", timer="cache.hydrate_pdg"),
        "cache.engine_hydrate_s": seconds("warm", timer="engine.hydrate"),
        "cache.bytes_read": counter("warm", "cache.bytes_read"),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.pdg_shards_hydrated": counter("warm", "cache.pdg_shards_hydrated"),
        "cache.engine_plans_hydrated": counter(
            "warm", "cache.engine_plans_hydrated"),
        "cache.publish_s": seconds("cold", timer="cache.publish"),
        "cache.bytes_written": counter("cold", "cache.bytes_written"),
        "cache.misses": counter("cold", "cache.misses"),
        "cache.poisoned": sum(counter(p, "cache.poisoned") for p in PHASES),
    })
    return metrics
