"""Supervised worker processes.

Two consumers share this module:

* the serve daemon keeps a fixed set of long-lived, session-affine
  :class:`Worker` processes (warm caches live inside them) and replaces
  any that crash, hang, or are killed;
* :func:`supervised_map` fans a batch of independent items over a
  short-lived pool — the hardened backend of ``run_corpus(jobs=N)`` and
  ``fig5_speedups(jobs=N)``.  Unlike ``multiprocessing.Pool.map`` (which
  can hang the whole batch when a worker dies abruptly), a dead worker
  here costs exactly the item it was holding: that item comes back as a
  structured :class:`TaskResult` error, a replacement worker is spawned,
  and every other result returns in order.

The wire format between parent and worker is one duplex pipe per
worker: the parent sends a picklable payload, the worker replies
``("ok", value)`` or ``("error", record)`` where ``record`` is a
:func:`~repro.serve.protocol.error_record`.  Death is observed through
the process sentinel / pipe EOF, never inferred from silence — silence
is bounded separately by deadlines.
"""

from __future__ import annotations

import collections
import multiprocessing
import signal
import time
from multiprocessing import connection

from ..perf import STATS
from .protocol import error_record

#: Sent to a worker to make it exit its loop cleanly.
SHUTDOWN = "__noelle_serve_shutdown__"

class WorkerTimeout(RuntimeError):
    """No reply within the deadline (the worker may be wedged)."""


class WorkerCrashed(RuntimeError):
    """The worker process exited without replying."""

    def __init__(self, name: str, exitcode: int | None):
        super().__init__(
            f"worker {name} died mid-request ({describe_exit(exitcode)})"
        )
        self.worker_name = name
        self.exitcode = exitcode


def describe_exit(exitcode: int | None) -> str:
    if exitcode is None:
        return "exit status unknown"
    if exitcode < 0:
        try:
            signame = signal.Signals(-exitcode).name
        except ValueError:
            signame = f"signal {-exitcode}"
        return f"killed by {signame}"
    return f"exit code {exitcode}"


def _worker_loop(conn, runner, initializer, init_args):
    """Body of one worker process: payloads in, (status, value) out."""
    try:
        if initializer is not None:
            initializer(*init_args)
        while True:
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                return
            if payload == SHUTDOWN:
                return
            try:
                reply = ("ok", runner(payload))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:
                reply = ("error", error_record(error))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    except KeyboardInterrupt:
        pass


class Worker:
    """One supervised worker process with a duplex request pipe."""

    def __init__(self, runner, name="worker", initializer=None,
                 init_args=(), context=None):
        # The platform's default start method: fork on Linux, so workers
        # inherit the warm imports.
        ctx = context if context is not None else multiprocessing.get_context()
        self.name = name
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_loop,
            args=(child_conn, runner, initializer, init_args),
            name=f"noelle-serve-{name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: Jobs completed (for /stats).
        self.jobs = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    def submit(self, payload) -> None:
        """Send one job; raises on a broken pipe (worker already dead)."""
        self.conn.send(payload)

    def recv(self, timeout: float | None = None):
        """One reply tuple; :class:`WorkerTimeout` on deadline,
        :class:`WorkerCrashed` when the process exited instead of replying."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_for = None
            if deadline is not None:
                wait_for = max(0.0, deadline - time.monotonic())
            ready = connection.wait(
                [self.conn, self.process.sentinel], timeout=wait_for
            )
            if not ready:
                raise WorkerTimeout(
                    f"worker {self.name} gave no reply within {timeout:g}s"
                )
            if self.conn in ready:
                try:
                    reply = self.recv_nowait()
                except (EOFError, OSError):
                    self.process.join(timeout=5.0)
                    raise WorkerCrashed(self.name, self.process.exitcode)
                self.jobs += 1
                return reply
            # Only the sentinel fired: the process is gone and the pipe
            # holds no reply (a reply would have made the pipe ready).
            self.process.join(timeout=5.0)
            raise WorkerCrashed(self.name, self.process.exitcode)

    def recv_nowait(self):
        return self.conn.recv()

    def kill(self) -> None:
        """Terminate immediately (deadline enforcement)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(timeout=2.0)
        self.conn.close()

    def stop(self, grace_s: float = 5.0) -> None:
        """Shut down cleanly; escalates to terminate after the grace."""
        try:
            self.conn.send(SHUTDOWN)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class TaskResult:
    """Outcome of one item of a :func:`supervised_map` batch."""

    __slots__ = ("index", "ok", "value", "error")

    def __init__(self, index: int, ok: bool, value=None, error=None):
        self.index = index
        self.ok = ok
        #: The runner's return value (ok) or None.
        self.value = value
        #: A structured error record (see protocol.error_record) or None.
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = "ok" if self.ok else self.error.get("kind", "error")
        return f"<TaskResult #{self.index} {detail}>"


def supervised_map(
    runner,
    items,
    jobs: int,
    task_timeout_s: float | None = None,
    context=None,
    max_respawns: int | None = None,
) -> list[TaskResult]:
    """Run ``runner(item)`` for every item over ``jobs`` worker processes.

    Results come back in input order.  A worker that dies abruptly
    (killed, OOM) or exceeds ``task_timeout_s`` costs only the item it
    held — that item's :class:`TaskResult` carries a structured error —
    and a replacement worker keeps draining the batch; the pool never
    hangs and never loses the other results.  Runner exceptions are
    captured per item the same way (the worker survives those).
    """
    items = list(items)
    if not items:
        return []
    jobs = max(1, min(jobs, len(items)))
    ctx = context if context is not None else multiprocessing.get_context()
    if max_respawns is None:
        max_respawns = len(items) + jobs
    results: list[TaskResult | None] = [None] * len(items)
    pending = collections.deque(range(len(items)))
    spawned = 0
    workers: list[Worker] = []
    idle: list[Worker] = []
    inflight: dict[Worker, tuple[int, float]] = {}

    def spawn() -> Worker | None:
        nonlocal spawned
        if spawned and spawned - jobs >= max_respawns:
            return None  # respawn budget exhausted (pathological runner)
        worker = Worker(runner, name=f"map-{spawned}", context=ctx)
        spawned += 1
        workers.append(worker)
        if spawned > jobs:
            STATS.count("serve.pool.respawns")
        return worker

    def fail(index: int, record: dict) -> None:
        results[index] = TaskResult(index, False, error=record)
        STATS.count("serve.pool.failed_items")

    for _ in range(jobs):
        idle.append(spawn())

    try:
        while pending or inflight:
            # Dispatch pending items onto live idle workers.
            while pending and idle:
                worker = idle.pop()
                if not worker.alive:
                    replacement = spawn()
                    if replacement is not None:
                        idle.append(replacement)
                    continue
                index = pending.popleft()
                try:
                    worker.submit(items[index])
                except (BrokenPipeError, OSError):
                    # Died while idle: the item never started — requeue.
                    pending.appendleft(index)
                    replacement = spawn()
                    if replacement is not None:
                        idle.append(replacement)
                    continue
                inflight[worker] = (index, time.monotonic())
            if not inflight:
                if pending:
                    # Every worker is dead and the respawn budget is
                    # gone: fail the remainder structurally, never hang.
                    while pending:
                        fail(pending.popleft(), {
                            "kind": "WorkerUnavailable",
                            "message": "worker respawn budget exhausted",
                            "scope": "service",
                            "retryable": False,
                        })
                break

            timeout = None
            if task_timeout_s is not None:
                oldest = min(started for _, started in inflight.values())
                timeout = max(0.0, oldest + task_timeout_s - time.monotonic())
            waitables = [w.conn for w in inflight] + [w.sentinel for w in inflight]
            ready = connection.wait(waitables, timeout=timeout)
            ready_set = set(ready)

            finished: list[Worker] = []
            for worker, (index, started) in list(inflight.items()):
                if worker.conn in ready_set:
                    try:
                        status, value = worker.recv_nowait()
                    except (EOFError, OSError):
                        worker.process.join(timeout=5.0)
                        fail(index, error_record(
                            WorkerCrashed(worker.name, worker.process.exitcode),
                            scope="service",
                            include_traceback=False,
                        ))
                        finished.append(worker)
                        continue
                    worker.jobs += 1
                    if status == "ok":
                        results[index] = TaskResult(index, True, value=value)
                    else:
                        fail(index, value)
                    finished.append(worker)
                    idle.append(worker)
                elif worker.sentinel in ready_set:
                    worker.process.join(timeout=5.0)
                    fail(index, error_record(
                        WorkerCrashed(worker.name, worker.process.exitcode),
                        scope="service",
                        include_traceback=False,
                    ))
                    finished.append(worker)
                elif (
                    task_timeout_s is not None
                    and time.monotonic() - started > task_timeout_s
                ):
                    worker.kill()
                    fail(index, {
                        "kind": "DeadlineExceeded",
                        "message": (
                            f"item #{index} exceeded its "
                            f"{task_timeout_s:g}s deadline"
                        ),
                        "scope": "service",
                        "retryable": False,
                    })
                    finished.append(worker)
            for worker in finished:
                inflight.pop(worker, None)
    finally:
        for worker in workers:
            worker.stop(grace_s=2.0)
    assert all(result is not None for result in results)
    return results
