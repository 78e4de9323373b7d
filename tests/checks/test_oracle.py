"""The dynamic race oracle: observation, attribution, exemptions."""

import pytest

from repro.checks.oracle import RaceOracle
from repro.frontend import compile_source
from repro.interp import Interpreter, StepLimitExceeded
from tests.checks.fixtures import (
    DOALL_SOURCE,
    HELIX_KERNEL_SOURCE,
    TASK_NAME,
    build_helix_fixture,
    drop_sequential_segments,
    parallelize_source,
)
from tests.conftest import outputs_match


def test_memory_observer_sees_every_access():
    module = compile_source(DOALL_SOURCE)
    seen = []
    interpreter = Interpreter(module)
    interpreter.memory_observer = lambda kind, address, inst: seen.append(kind)
    result = interpreter.run()
    assert result.trapped is None
    assert "store" in seen and "load" in seen


def test_clean_helix_runs_race_free():
    module, _ = build_helix_fixture()
    oracle = RaceOracle(module, num_cores=4)
    result = oracle.run()
    assert result.trapped is None
    assert oracle.races == []
    sequential = Interpreter(compile_source(HELIX_KERNEL_SOURCE)).run()
    assert outputs_match(result.output, sequential.output, rel=1e-6)


def test_clean_doall_runs_race_free():
    module, _, count = parallelize_source(DOALL_SOURCE, "doall")
    assert count >= 1
    oracle = RaceOracle(module, num_cores=4)
    result = oracle.run()
    assert result.trapped is None
    assert oracle.races == []


def test_seeded_bug_produces_observed_races():
    module, noelle = build_helix_fixture()
    drop_sequential_segments(module, noelle)
    oracle = RaceOracle(module, num_cores=4)
    result = oracle.run()
    assert result.trapped is None
    assert oracle.races
    race = oracle.races[0]
    assert race.kind == "helix"
    assert race.task == TASK_NAME
    assert race.unit_a != race.unit_b
    assert "touched by" in str(race)


def test_one_race_per_address_keeps_the_log_bounded():
    # The seeded accumulator is touched by every iteration; reporting a
    # single conflict per racy address (not every unit pair) keeps the
    # oracle's output linear in the number of racy addresses.
    module, noelle = build_helix_fixture()
    drop_sequential_segments(module, noelle)
    oracle = RaceOracle(module, num_cores=4)
    oracle.run()
    addresses = [race.address for race in oracle.races]
    assert len(addresses) == len(set(addresses))


def test_region_cut_short_is_still_evaluated():
    # The step limit stops the run inside the racy HELIX region, so the
    # region never closes; the races it showed are reported anyway.
    module, noelle = build_helix_fixture()
    drop_sequential_segments(module, noelle)
    full = RaceOracle(module, num_cores=4)
    full.run()
    oracle = RaceOracle(module, num_cores=4, step_limit=full.result.steps * 3 // 4)
    with pytest.raises(StepLimitExceeded):
        oracle.run()
    assert oracle.executions == []
    assert oracle.races
    assert {race.kind for race in oracle.races} == {"helix"}
