"""Campaign driver: fan-out, bundles, fixtures, locked report schema."""

import json

import pytest

from repro.fuzz.driver import (
    SEED_STRIDE,
    _write_bundle,
    _write_fixture,
    run_campaign,
    run_case,
)
from repro.robust.diagnostics import CrashBundle

REPORT_KEYS = {"index", "pass", "module_ir", "error", "diagnostics"}
ERROR_KEYS = {"pass", "phase", "kind", "message", "fault", "seconds", "traceback"}


def _fake_record(seed: int = 3) -> dict:
    case = run_case(seed, oracles=())
    program_seed = seed
    from repro.fuzz.gen import generate_program

    program = generate_program(program_seed)
    return {
        "oracle": "engine",
        "detail": "synthetic divergence for schema tests",
        "name": program.name,
        "family": program.family,
        "seed": program_seed,
        "choices": list(program.choices),
        "technique": case.technique,
        "source": program.source,
    }


class TestCampaign:
    def test_sequential_campaign_is_clean(self):
        report = run_campaign(seed=1, count=3, jobs=1)
        assert report.ok, report.summary()
        assert report.cases_run == 3
        assert "OK" in report.summary()

    @pytest.mark.slow
    def test_parallel_campaign_matches_sequential(self):
        seq = run_campaign(seed=2, count=4, jobs=1)
        par = run_campaign(seed=2, count=4, jobs=2)
        assert seq.ok and par.ok
        assert seq.cases_run == par.cases_run == 4

    def test_case_seeds_are_strided(self):
        report = run_campaign(seed=5, count=1, jobs=1)
        assert report.ok
        case = run_case(5 * SEED_STRIDE)
        assert case.seed == 5 * SEED_STRIDE

    def test_progress_callback_fires_per_case(self):
        ticks = []
        run_campaign(
            seed=1,
            count=2,
            jobs=1,
            oracles=("engine",),
            progress=lambda done, total, found: ticks.append((done, total)),
        )
        assert ticks == [(1, 2), (2, 2)]


class TestBundleSchema:
    def test_fuzz_bundle_report_matches_locked_schema(self, tmp_path):
        record = _fake_record()
        path = _write_bundle(record, tmp_path, index=0)
        report = json.loads(
            (tmp_path / "000-fuzz-engine" / "report.json").read_text()
        )
        assert set(report.keys()) == REPORT_KEYS
        assert set(report["error"].keys()) == ERROR_KEYS
        assert report["pass"] == "fuzz-engine"
        assert report["error"]["phase"] == "fuzz"
        assert report["error"]["kind"] == "Divergence"
        # Round-trips through the bundle reader like any crash bundle.
        bundle = CrashBundle.read(path)
        assert bundle.error.message == record["detail"]

    def test_bundle_carries_program_and_trace(self, tmp_path):
        record = _fake_record()
        path = _write_bundle(record, tmp_path, index=0)
        from pathlib import Path

        bundle_dir = Path(path)
        assert (bundle_dir / "program.mc").read_text() == record["source"]
        trace = json.loads((bundle_dir / "trace.json").read_text())
        assert trace["choices"] == record["choices"]
        assert trace["technique"] == record["technique"]

    def test_fixture_payload_is_replayable(self, tmp_path):
        record = _fake_record()
        path = _write_fixture(record, tmp_path)
        payload = json.loads(open(path).read())
        assert set(payload.keys()) == {
            "name",
            "oracle",
            "technique",
            "seed",
            "family",
            "choices",
            "source",
            "detail",
        }
        from repro.fuzz.gen import program_from_choices

        assert (
            program_from_choices(payload["choices"]).source
            == payload["source"]
        )
