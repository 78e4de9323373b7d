"""The fuzz campaign driver.

Generates ``count`` programs from a base seed, cross-checks each with
the four differential oracles, and for every divergence: minimizes the
decision trace, writes a crash bundle (the locked ``report.json``
schema from :mod:`repro.robust.diagnostics`, plus the MiniC source and
the decision trace alongside), and emits a regression-fixture JSON
ready to commit under ``tests/fuzz/regressions/``.

``jobs=N`` fans cases out over the supervised worker pool
(:func:`repro.serve.pool.supervised_map`): deterministic order, a
crashed worker costs one case.  With ``NOELLE_CACHE_DIR`` set, workers
share compiled artifacts through the content-addressed cache.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from ..robust.diagnostics import CrashBundle, TransformError
from .gen import GeneratedProgram, generate_program, program_from_choices
from .minimize import minimize_choices
from .oracles import ORACLES, run_oracles, technique_for

#: Spread per-case seeds so campaigns with different base seeds do not
#: re-explore the same programs.
SEED_STRIDE = 1_000_003


class FuzzCaseResult:
    """Outcome of one generated program under the oracles (picklable)."""

    def __init__(self, seed: int, name: str, family: str, technique: str):
        self.seed = seed
        self.name = name
        self.family = family
        self.technique = technique
        #: Divergence dicts (oracle, detail, seed, choices, ...).
        self.divergences: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.divergences


def _run_case_payload(payload: tuple) -> FuzzCaseResult:
    """Worker body (module-level so it pickles)."""
    seed, oracles, family = payload
    return run_case(seed, oracles=oracles, family=family)


def run_case(
    seed: int,
    oracles: tuple[str, ...] = ORACLES,
    family: str | None = None,
) -> FuzzCaseResult:
    """Generate one program and run the requested oracles over it."""
    program = generate_program(seed, family=family)
    technique = technique_for(program)
    case = FuzzCaseResult(seed, program.name, program.family, technique)
    for divergence in run_oracles(program, oracles=oracles, technique=technique):
        record = divergence.to_dict()
        record["technique"] = technique
        record["source"] = program.source
        case.divergences.append(record)
    return case


class CampaignReport:
    """Everything a campaign produced."""

    def __init__(self, base_seed: int, count: int):
        self.base_seed = base_seed
        self.count = count
        self.cases_run = 0
        self.worker_failures: list[str] = []
        #: Divergence records, minimized when minimization was on.
        self.divergences: list[dict] = []
        self.bundle_paths: list[str] = []
        self.fixture_paths: list[str] = []
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.worker_failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return (
            f"fuzz campaign [{status}]: {self.cases_run}/{self.count} "
            f"cases, {len(self.divergences)} divergence(s), "
            f"{len(self.worker_failures)} worker failure(s), "
            f"{self.seconds:.1f}s"
        )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", text).strip("-") or "case"


def _minimize_record(record: dict) -> dict:
    """Shrink the decision trace behind one divergence record."""
    oracle = record["oracle"]
    technique = record.get("technique")
    family = None  # campaign programs draw their family from the trace

    def still_fails(choices) -> bool:
        program = program_from_choices(choices, family=family)
        program.seed = record.get("seed")
        found = run_oracles(
            program, oracles=(oracle,), technique=technique
        )
        return any(d.oracle == oracle for d in found)

    minimized = minimize_choices(
        record["choices"], still_fails, family=family
    )
    program = program_from_choices(minimized, family=family)
    program.seed = record.get("seed")
    record = dict(record)
    record["choices"] = list(minimized)
    record["source"] = program.source
    found = run_oracles(program, oracles=(oracle,), technique=technique)
    for div in found:
        if div.oracle == oracle:
            record["detail"] = div.detail
            break
    return record


def _write_bundle(record: dict, crash_dir, index: int) -> str:
    """Persist a divergence as a crash bundle (locked report schema)."""
    ir_text = ""
    try:
        from ..frontend.codegen import compile_source
        from ..ir import print_module

        module = compile_source(record["source"], record["name"])
        ir_text = print_module(module)
    except Exception:
        ir_text = "; module did not compile; see program.mc\n"
    error = TransformError(
        pass_name=f"fuzz-{record['oracle']}",
        phase="fuzz",
        kind="Divergence",
        message=record["detail"],
        fault=f"seed={record.get('seed')}",
    )
    bundle = CrashBundle(index, f"fuzz-{record['oracle']}", ir_text, error)
    path = bundle.write(crash_dir)
    (path / "program.mc").write_text(record["source"])
    (path / "trace.json").write_text(
        json.dumps(
            {
                "seed": record.get("seed"),
                "family": record.get("family"),
                "technique": record.get("technique"),
                "choices": record["choices"],
            },
            indent=2,
        )
        + "\n"
    )
    return str(path)


def _write_fixture(record: dict, fixtures_dir) -> str:
    directory = Path(fixtures_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = _slug(
        f"{record['oracle']}-{record.get('technique', 'any')}-"
        f"seed{record.get('seed')}"
    )
    path = directory / f"{stem}.json"
    payload = {
        "name": record["name"],
        "oracle": record["oracle"],
        "technique": record.get("technique"),
        "seed": record.get("seed"),
        "family": record.get("family"),
        "choices": record["choices"],
        "source": record["source"],
        "detail": record["detail"],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


class UnknownOracleError(ValueError):
    """A campaign was asked for an oracle :data:`ORACLES` does not name."""


def run_campaign(
    seed: int,
    count: int,
    jobs: int | None = None,
    oracles: tuple[str, ...] = ORACLES,
    crash_dir=None,
    fixtures_dir=None,
    minimize: bool = True,
    progress=None,
) -> CampaignReport:
    """Fuzz ``count`` programs derived from ``seed``.

    Case ``i`` uses program seed ``seed * SEED_STRIDE + i``, so distinct
    base seeds explore disjoint program spaces while staying perfectly
    reproducible.  :class:`UnknownOracleError` before any case runs when
    ``oracles`` names one that :data:`ORACLES` does not.
    """
    unknown = [name for name in oracles if name not in ORACLES]
    if unknown:
        raise UnknownOracleError(
            f"unknown oracle(s) {', '.join(unknown)}; "
            f"expected a subset of {', '.join(ORACLES)}"
        )
    report = CampaignReport(seed, count)
    started = time.monotonic()
    payloads = [
        (seed * SEED_STRIDE + index, tuple(oracles), None)
        for index in range(count)
    ]
    raw_records: list[dict] = []
    if jobs is not None and jobs > 1 and len(payloads) > 1:
        from ..serve.pool import supervised_map

        for payload, task in zip(
            payloads, supervised_map(_run_case_payload, payloads, jobs)
        ):
            report.cases_run += 1
            if task.ok:
                raw_records.extend(task.value.divergences)
            else:
                report.worker_failures.append(
                    f"seed {payload[0]}: "
                    f"{task.error.get('kind', 'unknown')}: "
                    f"{task.error.get('message', '')}"
                )
            if progress is not None:
                progress(report.cases_run, count, len(raw_records))
    else:
        for payload in payloads:
            case = _run_case_payload(payload)
            report.cases_run += 1
            raw_records.extend(case.divergences)
            if progress is not None:
                progress(report.cases_run, count, len(raw_records))
    for index, record in enumerate(raw_records):
        if minimize:
            record = _minimize_record(record)
        report.divergences.append(record)
        if crash_dir is not None:
            report.bundle_paths.append(_write_bundle(record, crash_dir, index))
        if fixtures_dir is not None:
            report.fixture_paths.append(_write_fixture(record, fixtures_dir))
    report.seconds = time.monotonic() - started
    return report
