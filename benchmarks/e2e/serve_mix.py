"""Workload ``serve_mix``: the same engine behind a service.

``repro-noelle serve --workers 1`` runs in its own process (daemon,
worker and this client then fit the two cores of the sandbox), with no
cache directory.  The load is a **closed loop with two client
threads**: callers of a compile service wait for their reply, so each
thread sends its next request only when the previous one has been
answered; there is no rate sweep.  Each thread owns three sessions,
bound by the seed to six small registry programs, and plays one fixed
script per session and round:

    compile -> run x6 -> parallelize(helix) -> run x6 -> check

(15 requests; 90 per round).  Rounds repeat until the time budget is
spent, so counts repeat exactly.  The work is done by the daemon and
its worker, so the runner's speed is sampled by a thread of this
process while a round runs (``measure.Sampler``).

What it shows that the in-process workloads bypass: HTTP -> queue ->
pipe -> worker transport and warm sessions.  An engine gain shows here
only in proportion to the engine's share of a request; and because
both clients share one worker, a shorter worker op also shortens the
other client's queue wait inside ``serve.transport_ms``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time

from common import NUM_CORES, SRC_DIR, load_expected, matches_expected
from measure import (
    Recorder, Sampler, median, peak_rss_mb as rss_of, percentile, ratio,
)

from repro.workloads import get


CLIENTS = 2
SESSIONS_PER_CLIENT = 3
RUNS_PER_HALF = 6
#: Small programs (profile + run well under 0.2 s each), so that a
#: round is a few seconds and the latency sample is in the hundreds.
PROGRAMS = ("crc32", "basicmath", "canneal", "lbm", "bodytrack", "imagick")
MODULE = "m"
#: The reply's ``meta.seconds`` (time inside the worker) becomes a child
#: span of the request, named after the layer that does most of that
#: op's work; the request's self time is then transport (HTTP + queue +
#: pipe) and the layer totals show the engine's share of a request.
WORKER_SPAN = {
    "compile": "frontend.serve_compile",
    "run": "interp.serve_run",
    "parallelize": "xforms.serve_parallelize",
    "check": "serve.worker_check",
}
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class State:
    def __init__(self, seed: int, scratch: str):
        programs = list(PROGRAMS)
        random.Random(seed).shuffle(programs)
        #: sessions[client] = [(session name, program name), ...]
        self.sessions = [
            [
                (f"c{client}s{slot}", programs[client * SESSIONS_PER_CLIENT + slot])
                for slot in range(SESSIONS_PER_CLIENT)
            ]
            for client in range(CLIENTS)
        ]
        self.sources = {name: get(name).source for name in PROGRAMS}
        self.expected = {name: load_expected(name) for name in PROGRAMS}
        self.rounds = 0
        self.log_path = os.path.join(scratch, f"serve-{time.monotonic_ns()}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--workers", "1", "--port", "0"],
            stdout=self.log, stderr=self.log, env=env, cwd=scratch,
        )
        try:
            self.host, self.port = self._wait_for_address()
            self._wait_healthy()
            self._warm()
        except BaseException:
            self.stop()
            raise

    def _warm(self) -> None:
        """One checked script per client, so that the worker has imported
        and initialised everything before the first measured round.  It
        is part of `prepare` — and so of every one of the set-ups whose
        median is ``setup_s`` — because a single warm-up round made
        ``setup_s`` swing by a quarter from run to run."""
        off = Recorder("serve_mix", tracing=False, clock=None)
        for client in range(CLIENTS):
            replies = []
            _client(self, off, client, -1, replies, sessions=1)
            if not all(reply["ok"] for reply in replies):
                raise RuntimeError("serve_mix warm-up had a failed request")

    def _wait_for_address(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        host, port = line.split("http://")[1].strip().split(":")
                        return host, int(port)
            time.sleep(0.02)
        with open(self.log_path) as handle:
            raise RuntimeError("serve daemon did not start: " + handle.read()[-800:])

    def _wait_healthy(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, body = self.get("/healthz")
                if status == 200 and body["status"] == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("serve daemon never became healthy")

    def _request(self, method: str, path: str, payload=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def get(self, path: str):
        return self._request("GET", path)

    def post(self, path: str, payload: dict):
        return self._request("POST", path, payload)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.post("/shutdown", {})
            except (OSError, ValueError):
                pass
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def prepare(seed: int, scratch: str) -> State:
    return State(seed, scratch)


def release(state: State) -> None:
    state.stop()


def peak_rss_mb(state: State) -> float:
    """Peak RSS of the serve worker (the process doing the work)."""
    _status, stats = state.get("/stats")
    return rss_of(stats["workers"][0]["pid"])


# -- one script -----------------------------------------------------------------

def _script(state: State, session: str, program: str, generation: int):
    """(op, payload, kind) triples of one script.  ``generation`` pads
    the source so that consecutive scripts of a session differ: the
    daemon keeps the resident (by now parallelized) module when it is
    sent the very same text again."""
    source = state.sources[program] + "\n" * (generation % 2)
    base = {"session": session, "name": MODULE}
    run = {**base, "cores": NUM_CORES}
    yield "compile", {**base, "source": source}, "compile"
    for half in ("parallelize", "check"):
        # The first run of a half pays engine compilation (the module is
        # new, or was just rewritten); the other five must not.
        yield "run", run, "first_run"
        for _ in range(RUNS_PER_HALF - 1):
            yield "run", run, "warm_run"
        if half == "parallelize":
            yield (half, {**base, "technique": "helix", "cores": NUM_CORES},
                   half)
        else:
            yield half, base, half


def _reply_right(kind: str, result: dict, meta: dict, expected: dict) -> bool:
    if kind == "compile":
        return result["warm"] is False
    if kind == "parallelize":
        return not result["rolled_back"] and result["degraded"] is None
    if kind == "check":
        return result["ok"] is True
    return (
        result["exit_code"] == 0
        and matches_expected(result["output"], result["return_value"], expected)
        and (kind == "first_run" or meta["engine_compiles"] == 0)
    )


def _client(state: State, rec, client: int, generation: int, out: list,
            sessions: int = SESSIONS_PER_CLIENT) -> None:
    """One client thread's part of a round: the scripts of its (first
    ``sessions``) sessions, one request at a time."""
    for session, program in state.sessions[client][:sessions]:
        expected = state.expected[program]
        for op, payload, kind in _script(state, session, program, generation):
            start = time.perf_counter()
            with rec.span("serve.request", op=op, item=program):
                try:
                    status, body = state.post("/" + op, payload)
                except (OSError, ValueError) as error:
                    status, body = 0, {"ok": False, "error": str(error)}
                end = time.perf_counter()
                meta = body.get("meta") or {}
                worker_s = float(meta.get("seconds", 0.0))
                rec.add(WORKER_SPAN[op], end - worker_s, end, op=op)
            out.append({
                "op": op,
                "wall": end - start,
                "worker_s": worker_s,
                "ok": (
                    status == 200 and body.get("ok") is True
                    and _reply_right(kind, body["result"], meta, expected)
                ),
                "warm_compiles": (
                    meta.get("engine_compiles", 0) if kind == "warm_run" else 0
                ),
            })


def _round(state: State, rec) -> dict:
    clock = rec.clock
    generation = state.rounds
    state.rounds += 1
    records = [[] for _ in range(CLIENTS)]
    threads = [
        threading.Thread(
            target=_client, args=(state, rec, client, generation, records[client])
        )
        for client in range(CLIENTS)
    ]
    with Sampler(clock) as speed:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    wall_s = clock.calibrated(wall, speed.slice_s)
    requests = [r for per_client in records for r in per_client]
    for request in requests:
        request["seconds"] = request["wall"] * (wall_s / wall)
    return {
        "requests": requests,
        "wall_s": wall_s,
        "attempted": len(requests),
        "failed": sum(1 for r in requests if not r["ok"]),
    }


def warm_up(state: State, rec) -> None:
    """Nothing left to do: `prepare` warmed the worker (`State._warm`)."""


def repeat(state: State, rec, index: int) -> dict:
    return _round(state, rec)


def stage_values(repeats: list[dict]) -> tuple:
    latencies = [r["seconds"] for rep in repeats for r in rep["requests"]]
    requests = sum(rep["attempted"] for rep in repeats)
    wall = sum(rep["wall_s"] for rep in repeats)
    return (
        median(latencies),
        percentile(latencies, 0.95),
        wall / requests,
    )


def named_metrics(state: State, repeats: list[dict], stages) -> dict:
    latencies = [r["seconds"] for rep in repeats for r in rep["requests"]]
    return {
        "lat_p50_ms": (stages[0] * 1e3, "ms"),
        "lat_p95_ms": (stages[1] * 1e3, "ms"),
        "req_per_s": (1.0 / stages[2], "1/s"),
        "latency_samples": (len(latencies), "count"),
    }


def layer_metrics(state: State, rec, repeats: list[dict]) -> dict:
    requests = [r for rep in repeats for r in rep["requests"]]
    _status, stats = state.get("/stats")

    def p50_ms(op):
        return median(r["wall"] for r in requests if r["op"] == op) * 1e3

    wall = sum(
        s.seconds for s in rec.spans if s.name == "repeat"
    )
    return {
        "serve.compile.p50_ms": p50_ms("compile"),
        "serve.run.p50_ms": p50_ms("run"),
        "serve.parallelize.p50_ms": p50_ms("parallelize"),
        "serve.check.p50_ms": p50_ms("check"),
        "serve.lat_p99_ms": percentile([r["wall"] for r in requests], 0.99) * 1e3,
        "serve.worker_op_ms.p50": median(r["worker_s"] for r in requests) * 1e3,
        "serve.transport_ms.p50": median(
            r["wall"] - r["worker_s"] for r in requests) * 1e3,
        "serve.req_per_s": ratio(len(requests), wall),
        "serve.retries": stats["serve"].get("retries", 0),
        "serve.errors": stats["serve"].get("errors", 0),
        "serve.warm_engine_compiles": sum(r["warm_compiles"] for r in requests),
    }
