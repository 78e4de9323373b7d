"""Artifact cache: cross-process warm cold-starts vs the text-IR path.

Measures what ``NOELLE_CACHE_DIR`` buys a *fresh process* and records it
in ``BENCH_cache.json`` at the repository root:

* **cold vs warm load** — child processes bring all 21 workloads to
  "engine ready" (parse + PDG materialized + every function compiled).
  The cold child parses textual IR and computes everything; the warm
  child hydrates the binary module, PDG shards, and engine plans from a
  cache populated by an earlier process.  The headline claim: warm is
  about 4x faster than the text path (4.0-4.7x measured, gated at 3x:
  EXPERIMENTS.md "Compile only what runs").
* **serve kill-recovery** — a seeded ``serve_kill`` destroys a worker's
  resident session; recovery (recompile + rerun on the replacement
  worker) is timed without and with a shared cache.
* **corpus fan-out** — ``run_corpus(jobs=2)`` twice against one shared
  cache directory: the second pass must hit the cache and agree on
  every outcome.
* **figure byte-identity** — fig3/fig4/fig5 computed in subprocesses
  with the cache disabled and enabled must produce byte-identical JSON.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_cache.py``;
add ``--smoke`` to skip the performance assertions) or under pytest
with the rest of the benchmark suite.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.workloads import all_workloads, get

SRC_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"
)
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_cache.json"
)

#: Child: bring every .ir module in a directory to "engine ready"
#: (module + PDG + compiled code), timing only that work.  With
#: NOELLE_CACHE_DIR set it goes through the artifact cache (and
#: publishes back, populating the cache on the first pass).
_LOAD_CHILD = r"""
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
from repro import cache
from repro.core.noelle import Noelle
from repro.interp.engine import engine_for
from repro.ir import parse_module, verify_module
from repro.perf import STATS

ir_dir = sys.argv[2]
use_cache = cache.enabled()
total = 0.0
pairs = []
for fname in sorted(os.listdir(ir_dir)):
    with open(os.path.join(ir_dir, fname)) as handle:
        text = handle.read()
    start = time.perf_counter()
    if use_cache:
        module = cache.load_ir_text(text, fname)
        noelle = Noelle(module)
        cache.attach(noelle)
    else:
        module = parse_module(text, fname)
        verify_module(module)
        noelle = Noelle(module)
    noelle.pdg().materialize()
    engine = engine_for(module)
    for fn in module.defined_functions():
        engine.compiled(fn)
    total += time.perf_counter() - start
    if use_cache:
        cache.publish_artifacts(module, noelle)
    pairs.append((module, noelle))
print(json.dumps({
    "load_s": total,
    "modules": len(pairs),
    "engine_compiles": STATS.get("engine.compiles"),
    "engine_hydrations": STATS.get("engine.hydrations"),
    "pdg_shard_builds": STATS.get("pdg.shard_builds"),
    "pdg_shards_hydrated": STATS.get("cache.pdg_shards_hydrated"),
    "cache_hits": STATS.get("cache.hits"),
    "cache_misses": STATS.get("cache.misses"),
}))
"""

#: Child: compute fig3/fig4/fig5(subset) and print canonical JSON.
_FIGURES_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.experiments import fig3_dependences, fig4_invariants
from repro.experiments.speedups import fig5_speedups
from repro.workloads import get

figures = {
    "fig3": fig3_dependences(),
    "fig4": fig4_invariants(),
    "fig5": fig5_speedups(
        [get("blackscholes"), get("crc32")], techniques=("doall", "helix")
    ),
}
print(json.dumps(figures, sort_keys=True))
"""


def _run_child(script: str, args: list, env_overrides: dict) -> dict:
    env = dict(os.environ)
    env.pop("NOELLE_CACHE_DIR", None)
    env.pop("NOELLE_STATS", None)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", script, SRC_DIR] + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_ir_corpus(directory: str) -> int:
    from repro.frontend.codegen import compile_source
    from repro.ir import print_module

    count = 0
    for workload in all_workloads():
        module = compile_source(workload.source, workload.name)
        path = os.path.join(directory, f"{workload.name}.ir")
        with open(path, "w") as handle:
            handle.write(print_module(module))
        count += 1
    return count


#: Child loads per configuration.  A module load is 1-20 ms of wall
#: clock in a fresh process: one descheduling moves a single-shot total
#: by more than the margin of the claim, and noise only ever adds,
#: so the fastest child of each configuration is the one compared.
LOAD_SAMPLES = 5


def _bench_loads(scratch: str) -> dict:
    ir_dir = os.path.join(scratch, "ir")
    os.makedirs(ir_dir)
    n = _write_ir_corpus(ir_dir)
    # Each miss publishes into an empty cache of its own; the warm
    # loads all hydrate from the first.
    cache_dirs = [
        os.path.join(scratch, f"cache{sample}") for sample in range(LOAD_SAMPLES)
    ]

    colds, misses, warms = [], [], []
    for cache_dir in cache_dirs:
        # Interleaved, so a slow phase of the runner hits every
        # configuration.
        colds.append(_run_child(_LOAD_CHILD, [ir_dir], {}))
        misses.append(_run_child(
            _LOAD_CHILD, [ir_dir], {"NOELLE_CACHE_DIR": cache_dir}
        ))
        warms.append(_run_child(
            _LOAD_CHILD, [ir_dir], {"NOELLE_CACHE_DIR": cache_dirs[0]}
        ))
    for run in colds + misses + warms:
        assert run["modules"] == n, run
    for warm in warms:
        # the warm child must have hydrated, not recomputed
        assert warm["cache_hits"] == n, warm
        assert warm["cache_misses"] == 0, warm
        assert warm["engine_compiles"] == 0, warm
        assert warm["pdg_shard_builds"] == 0, warm
    cold, miss, warm = (
        min(run["load_s"] for run in runs) for runs in (colds, misses, warms)
    )
    return {
        "workloads": n,
        "load_samples": LOAD_SAMPLES,
        "cold_load_s": cold,
        "miss_load_s": miss,
        "warm_load_s": warm,
        "warm_speedup": cold / warm,
        "miss_overhead": miss / cold,
        "warm_engine_hydrations": warms[0]["engine_hydrations"],
        "warm_pdg_shards_hydrated": warms[0]["pdg_shards_hydrated"],
    }


class _Client:
    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


def _serve_recovery(cache_dir: str | None) -> float:
    """Boot a daemon, kill its worker, time the session's recovery."""
    from repro.serve.daemon import create_server, serve_forever

    source = get("crc32").source
    saved = os.environ.get("NOELLE_CACHE_DIR")
    if cache_dir is None:
        os.environ.pop("NOELLE_CACHE_DIR", None)
    else:
        os.environ["NOELLE_CACHE_DIR"] = cache_dir
    try:
        server = create_server(port=0, workers=1)
        thread = threading.Thread(
            target=serve_forever, args=(server,), daemon=True
        )
        thread.start()
        client = _Client(server)
        try:
            status, _ = client.post("/compile", {
                "session": "s", "name": "m", "source": source,
            })
            assert status == 200
            status, _ = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200
            status, body = client.post("/run", {
                "session": "s", "name": "m", "faults": "serve_kill:1",
            })
            assert status == 502 and body["error"]["kind"] == "WorkerCrashed"
            start = time.perf_counter()
            status, _ = client.post("/compile", {
                "session": "s", "name": "m", "source": source,
            })
            assert status == 200
            status, body = client.post("/run", {"session": "s", "name": "m"})
            recovery = time.perf_counter() - start
            assert status == 200 and body["result"]["exit_code"] == 0
            return recovery
        finally:
            server.shutdown()
            thread.join(timeout=30)
    finally:
        if saved is None:
            os.environ.pop("NOELLE_CACHE_DIR", None)
        else:
            os.environ["NOELLE_CACHE_DIR"] = saved


def _bench_serve_recovery(scratch: str) -> dict:
    cache_dir = os.path.join(scratch, "serve_cache")
    # median-of-3: a single fork+recompile sample is noisy
    cold = statistics.median(_serve_recovery(None) for _ in range(3))
    warm = statistics.median(
        _serve_recovery(cache_dir) for _ in range(3)
    )
    return {
        "recovery_cold_ms": cold * 1e3,
        "recovery_warm_ms": warm * 1e3,
        "recovery_speedup": cold / warm,
    }


#: Child: run a slice of the micro-test corpus through the harness.
_CORPUS_CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.perf import STATS
from repro.testing.harness import ToolConfig, build_corpus, run_corpus

tests = build_corpus()[:12]
configs = [ToolConfig("licm+dead", ["licm", "dead"])]
start = time.perf_counter()
outcomes = run_corpus(configs, tests, jobs=2)
elapsed = time.perf_counter() - start
print(json.dumps({
    "seconds": elapsed,
    "results": [[o.test.name, o.passed] for o in outcomes],
    "cache_hits": STATS.get("cache.hits"),
}))
"""


def _bench_corpus(scratch: str) -> dict:
    cache_dir = os.path.join(scratch, "corpus_cache")
    cold = _run_child(_CORPUS_CHILD, [], {"NOELLE_CACHE_DIR": cache_dir})
    warm = _run_child(_CORPUS_CHILD, [], {"NOELLE_CACHE_DIR": cache_dir})
    assert cold["results"] == warm["results"], "corpus outcomes changed"
    assert all(passed for _name, passed in warm["results"]), warm["results"]
    return {
        "corpus_pairs": len(cold["results"]),
        "corpus_cold_s": cold["seconds"],
        "corpus_warm_s": warm["seconds"],
        "corpus_speedup": cold["seconds"] / warm["seconds"],
    }


def _bench_figures(scratch: str) -> dict:
    cache_dir = os.path.join(scratch, "fig_cache")
    without = _run_child(_FIGURES_CHILD, [], {})
    populate = _run_child(
        _FIGURES_CHILD, [], {"NOELLE_CACHE_DIR": cache_dir}
    )
    with_warm = _run_child(
        _FIGURES_CHILD, [], {"NOELLE_CACHE_DIR": cache_dir}
    )
    identical = (
        json.dumps(without, sort_keys=True)
        == json.dumps(populate, sort_keys=True)
        == json.dumps(with_warm, sort_keys=True)
    )
    return {"figures_identical": identical}


def run_bench() -> dict:
    scratch = tempfile.mkdtemp(prefix="bench_cache_")
    try:
        results = {}
        results.update(_bench_loads(scratch))
        results.update(_bench_serve_recovery(scratch))
        results.update(_bench_corpus(scratch))
        results.update(_bench_figures(scratch))
        return results
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(results: dict) -> None:
    rows = [
        ("workloads", str(results["workloads"])),
        ("cold load (text path)", f"{results['cold_load_s']*1e3:.1f} ms"),
        ("first miss (+publish)", f"{results['miss_load_s']*1e3:.1f} ms"),
        ("warm load (cache hit)", f"{results['warm_load_s']*1e3:.1f} ms"),
        ("warm speedup", f"{results['warm_speedup']:.1f}x"),
        ("serve recovery cold", f"{results['recovery_cold_ms']:.1f} ms"),
        ("serve recovery warm", f"{results['recovery_warm_ms']:.1f} ms"),
        ("corpus fan-out cold", f"{results['corpus_cold_s']:.2f} s"),
        ("corpus fan-out warm", f"{results['corpus_warm_s']:.2f} s"),
        ("figures byte-identical", str(results["figures_identical"])),
    ]
    width = max(len(label) for label, _ in rows)
    print("\n=== Artifact cache ===")
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def write_results(results: dict, path=RESULT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def assert_claims(results: dict) -> None:
    # The tentpole claim: warm cross-process load (module + PDG +
    # engine ready) is several times faster than the text-IR cold
    # path: it measures 4.0-4.7x, and 3x leaves room for a runner's
    # noise without letting hydration degrade to a recompile.
    assert results["warm_speedup"] >= 3.0, results
    # Publishing on a miss must not blow up the cold path.
    assert results["miss_overhead"] < 3.0, results
    # fig3/fig4/fig5 do not depend on whether the cache is enabled.
    assert results["figures_identical"], results
    # The warm corpus pass must not be slower than the cold one by more
    # than scheduling noise.
    assert results["corpus_speedup"] > 0.8, results


def test_cache(benchmark, tmp_path):
    from conftest import run_once

    results = run_once(benchmark, run_bench)
    report(results)
    # The tracked root file is rewritten only by a standalone run.
    write_results(results, tmp_path / "BENCH_cache.json")
    assert_claims(results)


if __name__ == "__main__":
    outcome = run_bench()
    report(outcome)
    write_results(outcome)
    # Byte-identity is a correctness property, not a timing claim: it
    # must hold even when --smoke skips the wall-clock assertions.
    assert outcome["figures_identical"], outcome
    if "--smoke" not in sys.argv[1:]:
        assert_claims(outcome)
    print(f"\nwrote {os.path.normpath(RESULT_PATH)}")
