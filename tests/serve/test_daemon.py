"""End-to-end daemon tests over real HTTP with real worker processes.

This is where the fault-injection stress lives: injected ``serve_kill``
faults genuinely ``os._exit`` a supervised worker mid-request, and the
assertions are the ISSUE's acceptance criteria — the affected request
returns a structured error referencing a crash bundle, the daemon keeps
serving, and a replacement worker picks the session back up.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serve.daemon import create_server, serve_forever
from repro.serve.resilience import RetryPolicy
from repro.workloads import registry

pytestmark = pytest.mark.timeout(300)

#: A program slow enough (tens of millions of reference-interpreter
#: steps) to blow any sub-second deadline, for the deadline-kill test.
SLOW_SOURCE = """
int main() {
  int i = 0;
  int s = 0;
  while (i < 30000000) {
    s = s + i;
    i = i + 1;
  }
  return s;
}
"""


class Client:
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

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@contextmanager
def serving(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("deadline_s", 60.0)
    server = create_server(port=0, **kwargs)
    thread = threading.Thread(
        target=serve_forever, args=(server,), daemon=True
    )
    thread.start()
    try:
        yield Client(server), server
    finally:
        server.shutdown()
        thread.join(timeout=30)


def _compile(client, session="s", name="m", source=None):
    status, body = client.post("/compile", {
        "session": session, "name": name,
        "source": source if source is not None
        else registry.get("crc32").source,
    })
    assert status == 200, body
    return body


class TestLifecycle:
    def test_compile_run_check_parallelize_and_warm_reuse(self, tmp_path):
        with serving(crash_dir=str(tmp_path)) as (client, _server):
            _compile(client)
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["ok"]
            assert body["result"]["exit_code"] == 0
            assert body["result"]["warm"] is False

            # Same session, same worker: caches must be warm now.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200
            assert body["result"]["warm"] is True
            assert body["meta"]["engine_compiles"] == 0

            status, body = client.post("/parallelize", {
                "session": "s", "name": "m", "technique": "doall",
            })
            assert status == 200
            assert body["result"]["parallelized"] >= 1

            status, body = client.post("/check", {"session": "s", "name": "m"})
            assert status == 200
            assert body["result"]["errors"] == 0

    def test_healthz_stats_and_routing(self):
        with serving() as (client, _server):
            status, health = client.get("/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["workers_alive"] == 1

            status, stats = client.get("/stats")
            assert status == 200
            assert stats["serve"]["requests"] == 0
            assert stats["workers"][0]["alive"] is True
            assert "perf_counters" in stats

            assert client.get("/nope")[0] == 404
            assert client.post("/nope", {})[0] == 404

    def test_bad_requests_are_rejected_at_the_front_door(self):
        with serving() as (client, server):
            status, body = client.post("/compile", {"name": "m"})
            assert status == 400
            assert body["error"]["kind"] == "ProtocolError"

            request = urllib.request.Request(
                client.base + "/run", data=b"{not json",
                headers={"Content-Type": "application/json"}, method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    status = response.status
            except urllib.error.HTTPError as error:
                status, body = error.code, json.loads(error.read())
            assert status == 400
            assert body["error"]["kind"] == "BadRequest"
            # Neither bad request consumed a worker.
            assert server.supervisor.stats()["workers"][0]["jobs"] == 0


    def test_malformed_content_length_is_a_400(self):
        """A header the daemon cannot size the body from is answered,
        not dropped: 400 BadRequest, nothing read, no traceback."""
        import socket

        from repro.serve.daemon import MAX_BODY_BYTES

        def raw_post(address, content_length):
            with socket.create_connection(address, timeout=30) as sock:
                sock.sendall(
                    b"POST /run HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + content_length + b"\r\n\r\n{}"
                )
                # Read exactly the reply: the daemon then closes with our
                # body unread, which may reset rather than end the stream.
                reply = sock.makefile("rb")
                status = int(reply.readline().split()[1])
                headers = {}
                while (line := reply.readline().strip()):
                    key, _, value = line.partition(b":")
                    headers[key.lower()] = value.strip()
                return status, json.loads(
                    reply.read(int(headers[b"content-length"]))
                )

        with serving() as (client, server):
            address = server.server_address[:2]
            for header in (b"abc", b"-5", str(MAX_BODY_BYTES + 1).encode()):
                status, body = raw_post(address, header)
                assert status == 400, (header, body)
                assert body["ok"] is False
                assert body["error"]["kind"] == "BadRequest"
                assert body["error"]["scope"] == "request"
                assert "Content-Length" in body["error"]["message"]
            assert server.supervisor.stats()["workers"][0]["jobs"] == 0
            # A new connection is served as if nothing had happened.
            _compile(client)
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["result"]["exit_code"] == 0

    def test_bad_minic_is_a_400_not_a_500(self):
        with serving() as (client, _server):
            for source, kind in (
                ("int main( {", "SyntaxErrorMiniC"),
                ("int main() { return $; }", "LexError"),
                ("int main() { return x; }", "CodegenError"),
            ):
                status, body = client.post("/compile", {
                    "session": "s", "name": "m", "source": source,
                })
                assert status == 400, body
                assert body["error"]["kind"] == kind
                assert body["error"]["scope"] == "request"
            status, body = client.get("/healthz")
            assert status == 200 and body["status"] == "ok"


class TestFaultInjectionStress:
    """Seeded faults kill workers mid-request; the daemon survives."""

    def test_injected_kill_returns_structured_error_with_bundle(
        self, tmp_path
    ):
        with serving(crash_dir=str(tmp_path)) as (client, server):
            _compile(client)
            before = server.supervisor.stats()
            pid_before = before["workers"][0]["pid"]

            status, body = client.post("/run", {
                "session": "s", "name": "m", "faults": "serve_kill:1",
            })
            assert status == 502
            # One kill is one restart and one error, nothing collateral.
            after = server.supervisor.stats()["serve"]
            assert after["restarts"] == before["serve"]["restarts"] + 1
            assert after["errors"] == before["serve"]["errors"] + 1
            error = body["error"]
            assert error["kind"] == "WorkerCrashed"
            assert error["scope"] == "service"
            assert "exit code 86" in error["message"]
            # The crash bundle referenced by the error exists on disk.
            bundle_dir = Path(error["bundle"])
            assert (bundle_dir / "report.json").is_file()
            report = json.loads((bundle_dir / "report.json").read_text())
            assert report["error"]["kind"] == "WorkerCrashed"
            assert report["error"]["fault"] == "serve_kill:1"

            # The daemon is still up, with a replacement worker.
            status, health = client.get("/healthz")
            assert status == 200 and health["status"] == "ok"
            pid_after = server.supervisor.stats()["workers"][0]["pid"]
            assert pid_after != pid_before

            # The replacement lost the session state (documented:
            # graceful cold restart) — recompiling re-warms it.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 400  # structured, not a hang or a 500
            assert "compile it first" in body["error"]["message"]
            _compile(client)
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["result"]["exit_code"] == 0
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["result"]["warm"] is True

    def test_flaky_fault_is_retried_transparently(self):
        with serving() as (client, server):
            _compile(client)
            status, body = client.post("/run", {
                "session": "s", "name": "m", "faults": "serve_flaky:1",
            })
            assert status == 200 and body["ok"], body
            assert body["meta"]["attempts"] == 2
            assert server.supervisor.stats()["serve"]["retries"] == 1

    def test_deadline_kills_the_worker_and_serving_continues(self):
        with serving(deadline_s=60.0) as (client, server):
            _compile(client, name="slow", source=SLOW_SOURCE)
            started = time.monotonic()
            status, body = client.post("/run", {
                "session": "s", "name": "slow", "engine": "reference",
                "deadline_s": 1.0,
            })
            elapsed = time.monotonic() - started
            assert status == 504
            assert body["error"]["kind"] == "DeadlineExceeded"
            assert elapsed < 30.0  # killed, not waited out
            assert server.supervisor.stats()["serve"]["deadline_kills"] == 1
            # Follow-up on a fresh worker works.
            _compile(client)
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["ok"]


class TestDegradation:
    def test_breaker_opens_and_serves_degraded(self):
        with serving(
            breaker_threshold=2,
            breaker_cooldown_s=3600.0,
            retry_policy=RetryPolicy(max_attempts=1),
        ) as (client, _server):
            _compile(client)
            # Two service-scope failures on (s, run) open the breaker.
            # (Distinct specs: a fired spec is consumed per worker.)
            for spec in ("serve_flaky:1", "serve_flaky:2"):
                status, body = client.post("/run", {
                    "session": "s", "name": "m", "faults": spec,
                })
                assert status == 503, body
                assert body["error"]["kind"] == "TransientServeError"
            # Third request: degraded to the reference walker, not failed.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["ok"]
            assert body["meta"]["degraded"] == "reference"
            assert body["result"]["engine"] == "reference"
            # compile has no degraded mode: the base capability still
            # works because its (session, op) breaker is separate.
            status, body = client.post("/compile", {
                "session": "s", "name": "m2",
                "source": registry.get("crc32").source,
            })
            assert status == 200

    def test_half_open_probe_recloses_the_breaker(self):
        with serving(
            breaker_threshold=1,
            breaker_cooldown_s=0.2,
            retry_policy=RetryPolicy(max_attempts=1),
        ) as (client, _server):
            _compile(client)
            status, body = client.post("/run", {
                "session": "s", "name": "m", "faults": "serve_flaky:1",
            })
            assert not body["ok"]
            time.sleep(0.3)
            # Cooldown elapsed: this is the half-open full-path probe.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200
            assert body["meta"]["degraded"] is None
            # Probe succeeded: the breaker is closed again.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["meta"]["degraded"] is None

    def test_request_errors_do_not_trip_the_breaker(self):
        with serving(breaker_threshold=2) as (client, _server):
            _compile(client)
            # Client mistakes, repeated beyond the threshold...
            for _ in range(4):
                status, body = client.post("/run", {
                    "session": "s", "name": "m", "entry": "nope",
                })
                assert status == 400
            # ...must not degrade a correct request.
            status, body = client.post("/run", {"session": "s", "name": "m"})
            assert status == 200 and body["meta"]["degraded"] is None


class TestShutdown:
    def test_shutdown_leaves_no_orphan_workers(self):
        server = create_server(port=0, workers=2)
        thread = threading.Thread(
            target=serve_forever, args=(server,), daemon=True
        )
        thread.start()
        client = Client(server)
        _compile(client)
        pids = [w["pid"] for w in server.supervisor.stats()["workers"]]
        assert all(pids)

        status, body = client.post("/shutdown", {})
        assert status == 200 and body["ok"]
        thread.join(timeout=30)
        assert not thread.is_alive()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(_pid_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        for pid in pids:
            assert not _pid_alive(pid), f"orphan worker pid {pid}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True
