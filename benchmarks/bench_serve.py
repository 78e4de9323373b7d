"""Compiler-as-a-service daemon: throughput, latency, and recovery.

Boots a real ``repro-noelle serve`` daemon (HTTP front end, supervised
worker process) and records its request-level behaviour in
``BENCH_serve.json`` at the repository root:

* **requests/sec and p50/p99 latency** — a stream of warm ``run``
  requests against one session, the daemon's steady state;
* **warm vs cold** — the first ``run`` on a fresh session (pays module
  compilation inside the worker) against the warm steady state, the
  request-level form of the paper's build-once-amortize-everywhere
  economics;
* **recovery after an injected worker kill** — a seeded ``serve_kill``
  fault ``os._exit``'s the worker mid-request; we verify the failed
  request came back as a structured error referencing a crash bundle
  and time how long until the same session is served successfully
  again (replacement worker + re-warm).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_serve.py``;
add ``--smoke`` to skip the performance assertions, e.g. on loaded CI
runners) or under pytest with the rest of the benchmark suite.
"""

import json
import os
import statistics
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

from repro.serve.daemon import create_server, serve_forever
from repro.workloads import get

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serve.json"
)
WORKLOAD = "crc32"
WARM_REQUESTS = 60
COLD_SESSIONS = 5
#: Interleaved (cold batch, warm batch) samples behind ``warm_over_cold``.
SAMPLES = 3


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


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_bench() -> dict:
    source = get(WORKLOAD).source
    crash_dir = tempfile.mkdtemp(prefix="bench_serve_crash_")
    server = create_server(port=0, workers=1, crash_dir=crash_dir)
    thread = threading.Thread(
        target=serve_forever, args=(server,), daemon=True
    )
    thread.start()
    client = _Client(server)
    try:
        status, _ = client.post("/compile", {
            "session": "hot", "name": "m", "source": source,
        })
        assert status == 200
        status, _ = client.post("/run", {"session": "hot", "name": "m"})
        assert status == 200
        cold_means, warm_means, warm_latencies = [], [], []
        stream_seconds = 0.0
        for sample in range(SAMPLES):
            # -- cold: first run on a fresh session pays compilation ----------
            cold_latencies = []
            for index in range(COLD_SESSIONS):
                session = f"cold{sample}.{index}"
                status, _ = client.post("/compile", {
                    "session": session, "name": "m", "source": source,
                })
                assert status == 200
                start = time.perf_counter()
                status, body = client.post("/run", {
                    "session": session, "name": "m",
                })
                cold_latencies.append(time.perf_counter() - start)
                assert status == 200 and body["result"]["warm"] is False
            cold_means.append(statistics.fmean(cold_latencies))

            # -- warm steady state ---------------------------------------------
            latencies = []
            stream_start = time.perf_counter()
            for _ in range(WARM_REQUESTS // SAMPLES):
                start = time.perf_counter()
                status, body = client.post("/run", {
                    "session": "hot", "name": "m",
                })
                latencies.append(time.perf_counter() - start)
                assert status == 200 and body["result"]["warm"] is True
                assert body["meta"]["engine_compiles"] == 0
            stream_seconds += time.perf_counter() - stream_start
            warm_means.append(statistics.fmean(latencies))
            warm_latencies.extend(latencies)

        # -- recovery after an injected worker kill ----------------------------
        status, body = client.post("/run", {
            "session": "hot", "name": "m", "faults": "serve_kill:1",
        })
        assert status == 502, body
        assert body["error"]["kind"] == "WorkerCrashed"
        bundle = body["error"].get("bundle")
        assert bundle and os.path.exists(
            os.path.join(bundle, "report.json")
        ), body
        recovery_start = time.perf_counter()
        status, _ = client.post("/compile", {
            "session": "hot", "name": "m", "source": source,
        })
        assert status == 200
        status, body = client.post("/run", {"session": "hot", "name": "m"})
        recovery_s = time.perf_counter() - recovery_start
        assert status == 200 and body["result"]["exit_code"] == 0

        # the session re-warms after recovery
        status, body = client.post("/run", {"session": "hot", "name": "m"})
        assert status == 200 and body["result"]["warm"] is True

        stats = server.supervisor.stats()
    finally:
        server.shutdown()
        thread.join(timeout=30)

    # Noise only ever adds to a latency: of the interleaved cold/warm
    # samples, the least disturbed of each side is compared.
    warm_mean = min(warm_means)
    cold_mean = min(cold_means)
    return {
        "workload": WORKLOAD,
        "warm_requests": len(warm_latencies),
        "samples": SAMPLES,
        "requests_per_sec": len(warm_latencies) / stream_seconds,
        "p50_ms": _percentile(warm_latencies, 0.50) * 1e3,
        "p99_ms": _percentile(warm_latencies, 0.99) * 1e3,
        "cold_mean_ms": cold_mean * 1e3,
        "warm_mean_ms": warm_mean * 1e3,
        "warm_over_cold": cold_mean / warm_mean,
        "recovery_ms": recovery_s * 1e3,
        "worker_restarts": stats["serve"]["restarts"],
        "requests_total": stats["serve"]["requests"],
        "errors_total": stats["serve"]["errors"],
        # Exactly one error is deliberate: the seeded serve_kill above.
        # Anything beyond it would be a real service failure.
        "errors_injected": 1,
        "errors_unexpected": stats["serve"]["errors"] - 1,
    }


def report(results: dict) -> None:
    rows = [
        ("throughput (warm run)", f"{results['requests_per_sec']:.1f} req/s"),
        ("latency p50 / p99",
         f"{results['p50_ms']:.2f} / {results['p99_ms']:.2f} ms"),
        ("cold first run", f"{results['cold_mean_ms']:.2f} ms"),
        ("warm steady state", f"{results['warm_mean_ms']:.2f} ms"),
        ("warm-over-cold", f"{results['warm_over_cold']:.2f}x"),
        ("recovery after kill", f"{results['recovery_ms']:.2f} ms"),
        ("worker restarts", str(results["worker_restarts"])),
        ("errors (injected/unexpected)",
         f"{results['errors_injected']}/{results['errors_unexpected']}"),
    ]
    width = max(len(label) for label, _ in rows)
    print("\n=== Serve daemon ===")
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def write_results(results: dict, path=RESULT_PATH) -> None:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def assert_claims(results: dict) -> None:
    # Warm requests ride the resident module's compiled-code cache: the
    # steady state must beat the cold first run (measured ~1.3x on a
    # small workload, where HTTP overhead dominates; the margin absorbs
    # loaded CI runners).
    assert results["warm_over_cold"] >= 1.05, results
    # Exactly one worker was killed and replaced, and recovery
    # (replacement + recompile + rerun) completed in bounded time.
    assert results["worker_restarts"] == 1, results
    assert results["recovery_ms"] < 30_000, results
    # The injected kill must be the *only* error the daemon saw.
    assert results["errors_unexpected"] == 0, results


def test_serve_daemon(benchmark, tmp_path):
    from conftest import run_once

    results = run_once(benchmark, run_bench)
    report(results)
    # The tracked root file is rewritten only by a standalone run.
    write_results(results, tmp_path / "BENCH_serve.json")
    assert_claims(results)


if __name__ == "__main__":
    outcome = run_bench()
    report(outcome)
    write_results(outcome)
    if "--smoke" not in sys.argv[1:]:
        assert_claims(outcome)
    print(f"\nwrote {os.path.normpath(RESULT_PATH)}")
