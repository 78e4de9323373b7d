"""The ``repro-noelle serve`` daemon: HTTP front end and supervisor.

A :class:`ThreadingHTTPServer` accepts JSON requests and hands each one
to the :class:`Supervisor`, which owns a fixed set of worker slots.
Sessions are routed to slots by a stable hash, so one session's
requests always land on the same worker and find its caches warm.

The supervision contract, end to end:

* a request runs under a wall-clock **deadline**; a worker that does
  not reply in time is killed and replaced, and the client receives a
  structured ``DeadlineExceeded`` error;
* a worker that **dies mid-request** (crash, OOM kill, injected
  ``serve_kill`` fault) is detected through its process sentinel, a
  crash bundle is written, a replacement takes over the slot, and the
  client receives a structured ``WorkerCrashed`` error — the daemon
  itself never goes down with a worker;
* **transient** failures (a worker dead at dispatch time, an injected
  ``serve_flaky`` fault) are retried with bounded exponential backoff
  plus jitter;
* repeated failures trip a per-(session, op) **circuit breaker** and
  later requests are served *degraded* (reference engine / sequential /
  advisory) until a half-open probe of the full path succeeds.

``GET /healthz`` and ``GET /stats`` surface liveness and the
:mod:`repro.perf` counters; ``POST /shutdown`` stops the daemon cleanly
(used by the CI smoke job to assert no orphan workers).
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..perf import STATS
from ..robust.diagnostics import CrashBundle, TransformError
from .pool import Worker, WorkerCrashed, WorkerTimeout, describe_exit
from .protocol import (
    DEGRADED_MODES,
    OPS,
    ProtocolError,
    error_record,
    service_error,
    status_for_error,
    validate_request,
)
from .resilience import CircuitBreaker, RetryPolicy
from .session import configure_worker, execute_job

#: Default per-request wall-clock deadline (seconds).
DEFAULT_DEADLINE_S = 30.0

#: Largest request body the daemon will read (a bound on outside input).
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Slot:
    """One worker slot: the process, its lock, and its history."""

    def __init__(self, index: int):
        self.index = index
        self.worker: Worker | None = None
        #: Serializes requests routed to this slot (session affinity
        #: means same-session requests are naturally ordered).
        self.lock = threading.Lock()
        self.restarts = 0
        self.generation = 0
        #: Artifact-cache totals accumulated from this slot's replies.
        self.cache_hits = 0
        self.cache_misses = 0


class Supervisor:
    """Owns the worker slots and the full robustness pipeline."""

    def __init__(
        self,
        num_workers: int = 2,
        deadline_s: float = DEFAULT_DEADLINE_S,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        crash_dir: str | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.deadline_s = deadline_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.crash_dir = crash_dir
        self._slots = [_Slot(i) for i in range(num_workers)]
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._state_lock = threading.Lock()
        self._bundle_count = 0
        self.started_at = time.monotonic()
        #: Authoritative service metrics (perf.STATS mirrors them).
        self.metrics = {
            "requests": 0, "ok": 0, "errors": 0, "retries": 0,
            "restarts": 0, "deadline_kills": 0, "degraded": 0,
            "bundles": 0, "rejected": 0,
        }
        for slot in self._slots:
            self._start_worker(slot)

    # -- worker lifecycle ------------------------------------------------------

    def _start_worker(self, slot: _Slot) -> None:
        slot.worker = Worker(
            execute_job,
            name=f"slot{slot.index}g{slot.generation}",
            initializer=configure_worker,
            init_args=(slot.generation == 0,),
        )
        slot.generation += 1

    def _replace_worker(self, slot: _Slot, reason: str) -> None:
        worker = slot.worker
        if worker is not None:
            worker.kill()
        self._start_worker(slot)
        slot.restarts += 1
        self._count("restarts")
        STATS.count("serve.restarts")

    def _count(self, name: str, n: int = 1) -> None:
        with self._state_lock:
            self.metrics[name] += n

    # -- request handling ------------------------------------------------------

    def _slot_for(self, session: str) -> _Slot:
        return self._slots[zlib.crc32(session.encode()) % len(self._slots)]

    def _breaker(self, session: str, op: str) -> CircuitBreaker:
        with self._state_lock:
            breaker = self._breakers.get((session, op))
            if breaker is None:
                breaker = CircuitBreaker(
                    self.breaker_threshold, self.breaker_cooldown_s
                )
                self._breakers[(session, op)] = breaker
            return breaker

    def handle(self, payload: object, op: str | None = None) -> tuple[int, dict]:
        """One request in, ``(http_status, response_dict)`` out.  Never
        raises: every failure becomes a structured error response."""
        started = time.perf_counter()
        self._count("requests")
        STATS.count("serve.requests")
        try:
            request = validate_request(payload, op=op)
        except ProtocolError as error:
            self._count("rejected")
            record = error_record(error, include_traceback=False)
            return 400, {"ok": False, "error": record, "meta": {}}

        session, op_name = request["session"], request["op"]
        breaker = self._breaker(session, op_name)
        degraded = None
        if not breaker.allow():
            degraded = DEGRADED_MODES.get(op_name)
            if degraded is None:
                # compile has no degraded mode: shed with a retryable
                # error instead of pretending.
                self._count("errors")
                record = service_error(
                    "CircuitOpen",
                    f"circuit for ({session}, {op_name}) is open and "
                    f"{op_name} has no degraded mode",
                    retryable=True,
                )
                return 503, {"ok": False, "error": record, "meta": {
                    "session": session, "op": op_name,
                }}
            request = dict(request, mode=degraded)
            self._count("degraded")
            STATS.count("serve.degraded")

        if self.crash_dir is not None:
            request.setdefault("crash_dir", self.crash_dir)

        slot = self._slot_for(session)
        attempts = 0
        with slot.lock:
            while True:
                attempts += 1
                status, value = self._dispatch(slot, request)
                if status == "ok":
                    break
                if degraded is None:
                    if value.get("scope") == "service":
                        breaker.record_failure()
                    else:
                        # A request-scope error (bad IR, missing entry,
                        # a program trap) means the service path itself
                        # worked — client mistakes must not trip the
                        # breaker and degrade later requests.
                        breaker.record_success()
                if self.retry_policy.should_retry(attempts, value):
                    self._count("retries")
                    STATS.count("serve.retries")
                    time.sleep(self.retry_policy.delay_s(attempts))
                    continue
                break

        meta = {
            "session": session,
            "op": op_name,
            "worker": slot.index,
            "attempts": attempts,
            "degraded": degraded,
            "seconds": time.perf_counter() - started,
        }
        if status == "ok":
            if degraded is None:
                breaker.record_success()
            self._count("ok")
            meta.update(value.get("meta", {}))
            with self._state_lock:
                slot.cache_hits += meta.get("cache_hits", 0) or 0
                slot.cache_misses += meta.get("cache_misses", 0) or 0
            return 200, {"ok": True, "result": value["result"], "meta": meta}
        self._count("errors")
        STATS.count("serve.errors")
        if value.get("scope") == "service":
            value["bundle"] = self._write_bundle(request, value)
        return status_for_error(value), {
            "ok": False, "error": value, "meta": meta,
        }

    def _dispatch(self, slot: _Slot, request: dict):
        """Send one job to the slot's worker; returns ``("ok", reply)``
        or ``("error", record)``.  Handles death and deadlines."""
        worker = slot.worker
        if worker is None or not worker.alive:
            self._replace_worker(slot, "dead-at-dispatch")
            worker = slot.worker
        deadline = request.get("deadline_s") or self.deadline_s
        try:
            worker.submit(request)
        except (BrokenPipeError, OSError):
            self._replace_worker(slot, "broken-pipe-at-dispatch")
            return "error", service_error(
                "WorkerUnavailable",
                f"worker slot {slot.index} was dead at dispatch; "
                f"a replacement was started",
                retryable=True,
            )
        try:
            return worker.recv(timeout=deadline)
        except WorkerTimeout:
            self._count("deadline_kills")
            STATS.count("serve.deadline_kills")
            self._replace_worker(slot, "deadline")
            return "error", service_error(
                "DeadlineExceeded",
                f"request exceeded its {deadline:g}s deadline; the "
                f"worker was killed and replaced",
            )
        except WorkerCrashed as crash:
            self._replace_worker(slot, "crash")
            return "error", service_error(
                "WorkerCrashed",
                f"worker slot {slot.index} died mid-request "
                f"({describe_exit(crash.exitcode)}); "
                f"a replacement was started",
                exitcode=crash.exitcode,
            )

    def _write_bundle(self, request: dict, record: dict) -> str | None:
        """Crash-bundle a service-scope failure (reusing the transform
        bundle format: the request stands in for the pre-pass IR)."""
        error = TransformError(
            f"serve-{request.get('op', '?')}",
            "serve",
            record.get("kind", "ServiceError"),
            record.get("message", ""),
            traceback_text=record.get("traceback", ""),
            fault=request.get("faults"),
        )
        with self._state_lock:
            index = self._bundle_count
            self._bundle_count += 1
        ir_text = request.get("ir") or ""
        bundle = CrashBundle(index, error.pass_name, ir_text, error)
        self._count("bundles")
        if self.crash_dir is None:
            return None
        try:
            return str(bundle.write(self.crash_dir))
        except OSError:  # pragma: no cover - unwritable crash dir
            return None

    # -- introspection ---------------------------------------------------------

    def healthz(self) -> dict:
        workers = [s.worker is not None and s.worker.alive for s in self._slots]
        return {
            "status": "ok" if all(workers) else "degraded",
            "workers_alive": sum(workers),
            "workers_total": len(self._slots),
            "uptime_s": time.monotonic() - self.started_at,
        }

    def stats(self) -> dict:
        with self._state_lock:
            metrics = dict(self.metrics)
            breakers = {
                f"{session}/{op}": breaker.snapshot()
                for (session, op), breaker in self._breakers.items()
            }
        return {
            "serve": metrics,
            "workers": [
                {
                    "slot": slot.index,
                    "pid": slot.worker.pid if slot.worker else None,
                    "alive": bool(slot.worker and slot.worker.alive),
                    "jobs": slot.worker.jobs if slot.worker else 0,
                    "restarts": slot.restarts,
                    "cache_hits": slot.cache_hits,
                    "cache_misses": slot.cache_misses,
                }
                for slot in self._slots
            ],
            "breakers": breakers,
            "perf_counters": STATS.snapshot(),
            "uptime_s": time.monotonic() - self.started_at,
        }

    def stop(self, grace_s: float = 5.0) -> int:
        """Stop every worker; returns how many needed force-termination."""
        stubborn = 0
        for slot in self._slots:
            worker = slot.worker
            if worker is None:
                continue
            alive_before = worker.alive
            worker.stop(grace_s=grace_s)
            if alive_before and worker.process.exitcode is None:
                stubborn += 1  # pragma: no cover - never joined
            slot.worker = None
        return stubborn


class NoelleServer(ThreadingHTTPServer):
    """The daemon's HTTP server (one handler thread per request)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, supervisor: Supervisor, verbose: bool = False):
        super().__init__(address, _Handler)
        self.supervisor = supervisor
        self.verbose = verbose


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-noelle-serve/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _respond(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reject(self, status: int, kind: str, message: str) -> None:
        """Answer at the front door: no worker ever sees the request.
        The body may be unread (its extent unknown, even), so the
        connection is not reused."""
        self.close_connection = True
        self._respond(status, {"ok": False, "error": {
            "kind": kind, "message": message,
            "scope": "request", "retryable": False,
        }})

    def do_GET(self):  # noqa: N802 - stdlib naming
        supervisor = self.server.supervisor
        if self.path == "/healthz":
            health = supervisor.healthz()
            self._respond(200 if health["status"] == "ok" else 503, health)
        elif self.path == "/stats":
            self._respond(200, supervisor.stats())
        else:
            self._reject(404, "NotFound", f"no route {self.path}")

    def do_POST(self):  # noqa: N802 - stdlib naming
        if self.path == "/shutdown":
            self._respond(200, {"ok": True, "result": "shutting down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        path_op = self.path.lstrip("/")
        op = path_op if path_op in OPS else None
        if op is None and self.path not in ("/api", "/"):
            self._reject(404, "NotFound", f"no route {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if not 0 <= length <= MAX_BODY_BYTES:
                raise ValueError(f"not in [0, {MAX_BODY_BYTES}]")
        except ValueError as error:
            self._reject(400, "BadRequest", f"invalid Content-Length: {error}")
            return
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as error:
            self._reject(400, "BadRequest", f"invalid JSON body: {error}")
            return
        status, body = self.server.supervisor.handle(payload, op=op)
        self._respond(status, body)


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    deadline_s: float = DEFAULT_DEADLINE_S,
    max_attempts: int = 3,
    breaker_threshold: int = 3,
    breaker_cooldown_s: float = 5.0,
    crash_dir: str | None = None,
    verbose: bool = False,
    retry_policy: RetryPolicy | None = None,
) -> NoelleServer:
    """A bound, ready-to-run daemon (``port=0`` picks a free port)."""
    supervisor = Supervisor(
        num_workers=workers,
        deadline_s=deadline_s,
        retry_policy=retry_policy or RetryPolicy(max_attempts=max_attempts),
        breaker_threshold=breaker_threshold,
        breaker_cooldown_s=breaker_cooldown_s,
        crash_dir=crash_dir,
    )
    return NoelleServer((host, port), supervisor, verbose=verbose)


def serve_forever(server: NoelleServer) -> int:
    """Serve until :meth:`shutdown` (or /shutdown); then stop the
    workers.  Returns the number of workers that had to be force-killed
    (0 means a fully clean shutdown, no orphans)."""
    try:
        server.serve_forever()
    finally:
        stubborn = server.supervisor.stop()
        server.server_close()
    return stubborn
