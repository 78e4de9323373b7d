"""Supervised workers: death, deadlines, and order preservation.

The abrupt-death tests use ``os._exit`` inside the worker — the closest
userspace stand-in for an OOM kill: no exception, no cleanup, no reply.
They must run only inside a worker process, never in-process.
"""

import multiprocessing
import os
import time

import pytest

from repro.serve.pool import (
    TaskResult,
    Worker,
    WorkerCrashed,
    WorkerTimeout,
    describe_exit,
    supervised_map,
)

pytestmark = pytest.mark.timeout(120)

#: The monkeypatch-based tests rely on fork inheritance (the patched
#: function is a closure, which spawn could not pickle).
_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="requires the fork start method",
)


# -- runners (module level so they survive any start method) -------------------

def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def _exit_on_13(x):
    if x == 13:
        os._exit(86)  # abrupt death: no exception, no reply
    return x


def _sleep_on_5(x):
    if x == 5:
        time.sleep(60.0)
    return x


class TestSupervisedMap:
    def test_empty(self):
        assert supervised_map(_square, [], jobs=4) == []

    def test_order_preserved(self):
        results = supervised_map(_square, list(range(20)), jobs=4)
        assert [r.index for r in results] == list(range(20))
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [x * x for x in range(20)]

    def test_runner_exception_is_per_item(self):
        results = supervised_map(_fail_on_odd, list(range(6)), jobs=2)
        for result in results:
            if result.index % 2:
                assert not result.ok
                assert result.error["kind"] == "ValueError"
                assert f"odd input {result.index}" in result.error["message"]
            else:
                assert result.ok
                assert result.value == result.index

    def test_abrupt_worker_death_costs_only_its_item(self):
        items = list(range(12)) + [13] + list(range(20, 26))
        results = supervised_map(_exit_on_13, items, jobs=3)
        assert len(results) == len(items)
        by_item = {item: r for item, r in zip(items, results)}
        dead = by_item[13]
        assert not dead.ok
        assert dead.error["kind"] == "WorkerCrashed"
        assert dead.error["scope"] == "service"
        assert "exit code 86" in dead.error["message"]
        for item, result in by_item.items():
            if item != 13:
                assert result.ok, f"item {item}: {result.error}"
                assert result.value == item

    def test_task_deadline_kills_the_worker_not_the_batch(self):
        items = [0, 1, 5, 3]
        results = supervised_map(_sleep_on_5, items, jobs=2,
                                 task_timeout_s=1.0)
        by_item = {item: r for item, r in zip(items, results)}
        assert not by_item[5].ok
        assert by_item[5].error["kind"] == "DeadlineExceeded"
        for item in (0, 1, 3):
            assert by_item[item].ok

    def test_jobs_larger_than_items(self):
        results = supervised_map(_square, [3], jobs=16)
        assert len(results) == 1 and results[0].value == 9


class TestWorker:
    def test_round_trip(self):
        worker = Worker(_square, name="t")
        try:
            worker.submit(7)
            status, value = worker.recv(timeout=30.0)
            assert (status, value) == ("ok", 49)
            assert worker.jobs == 1
        finally:
            worker.stop()
        assert not worker.alive

    def test_runner_error_comes_back_structured(self):
        worker = Worker(_fail_on_odd, name="t")
        try:
            worker.submit(3)
            status, record = worker.recv(timeout=30.0)
            assert status == "error"
            assert record["kind"] == "ValueError"
            assert record["retryable"] is False
        finally:
            worker.stop()

    def test_death_mid_request_raises_worker_crashed(self):
        worker = Worker(_exit_on_13, name="t")
        try:
            worker.submit(13)
            with pytest.raises(WorkerCrashed) as excinfo:
                worker.recv(timeout=30.0)
            assert excinfo.value.exitcode == 86
        finally:
            worker.stop()

    def test_timeout_raises_without_killing(self):
        worker = Worker(_sleep_on_5, name="t")
        try:
            worker.submit(5)
            with pytest.raises(WorkerTimeout):
                worker.recv(timeout=0.2)
            assert worker.alive  # the policy decision to kill is the caller's
        finally:
            worker.kill()
        assert not worker.alive

    def test_stop_is_idempotent_on_dead_worker(self):
        worker = Worker(_square, name="t")
        worker.kill()
        worker.stop()  # must not raise
        assert not worker.alive


class TestDescribeExit:
    def test_signals_and_codes(self):
        assert describe_exit(0) == "exit code 0"
        assert describe_exit(86) == "exit code 86"
        assert "SIGKILL" in describe_exit(-9)
        assert describe_exit(None) == "exit status unknown"


class TestHardenedHarness:
    """run_corpus(jobs=N) / fig5_speedups(jobs=N) never hang on death."""

    def test_run_corpus_parallel_matches_sequential(self):
        from repro.testing.corpus import build_corpus
        from repro.testing.harness import ToolConfig, run_corpus

        tests = build_corpus()[:3]
        configs = [ToolConfig("licm", ["licm"])]
        parallel = run_corpus(configs, tests=tests, jobs=3)
        sequential = run_corpus(configs, tests=tests)
        assert [(o.test.name, o.passed) for o in parallel] == [
            (o.test.name, o.passed) for o in sequential
        ]
        assert all(o.passed for o in parallel)

    @_fork_only
    def test_run_corpus_survives_worker_death(self, monkeypatch):
        import repro.testing.harness as harness

        tests = harness.build_corpus()[:3]
        configs = [harness.ToolConfig("plain", [])]
        victim = tests[1].name
        monkeypatch.setattr(
            harness, "_run_pair", _make_pair_killer(victim)
        )
        outcomes = harness.run_corpus(configs, tests=tests, jobs=2)
        assert len(outcomes) == 3
        by_name = {o.test.name: o for o in outcomes}
        assert not by_name[victim].passed
        assert "WorkerCrashed" in by_name[victim].detail
        for test in tests:
            if test.name != victim:
                assert by_name[test.name].passed

    @_fork_only
    def test_fig5_speedups_surfaces_dead_rows(self, monkeypatch):
        import repro.experiments.speedups as speedups
        from repro.workloads import registry

        workloads = registry.suite("mibench")[:2]
        victim = workloads[0].name
        monkeypatch.setattr(
            speedups, "_fig5_row", _make_row_killer(victim)
        )
        rows = speedups.fig5_speedups(
            workloads, num_cores=4, techniques=("doall",), jobs=2
        )
        assert len(rows) == 2
        assert rows[0]["benchmark"] == victim
        assert rows[0]["error"]["kind"] == "WorkerCrashed"
        assert "doall" in rows[1] and rows[1]["doall"] > 0


def _make_pair_killer(victim_name):
    from repro.testing.harness import run_micro_test

    def killer(pair):
        test, config = pair
        if test.name == victim_name:
            os._exit(86)
        return run_micro_test(test, config)

    return killer


def _make_row_killer(victim_name):
    from repro.experiments.speedups import _fig5_row as real_row

    def killer(task):
        if task[0].name == victim_name:
            os._exit(86)
        return real_row(task)

    return killer
