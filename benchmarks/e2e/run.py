"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

runs one workload, checks every output against an independent
reference, prints every metric by name with its unit, and ends with the
one JSON line the benchmark contract asks for.  ``--regen-expected``
rewrites ``expected/<program>.json`` from the reference walker.

Protocol of one run (same for all four workloads):

1. scrub ``NOELLE_*`` from the environment, fingerprint the runner;
2. set-up: import the workload, run ``prepare`` SETUP_REPEATS times
   (inputs, reference outputs, daemon start) and keep the median, then
   one warm-up pass; ``setup_s`` is import + that median + warm-up;
3. measure: whole repeats of the workload's fixed work until
   ``--seconds`` have passed (at least MIN_REPEATS); every timing is
   taken per operation, the median over the repeats kept, and the
   operations summed — one slow phase of a noisy runner then spoils one
   sample of an operation, not the whole sum.  Seconds are calibrated
   (``measure.Clock``): wall seconds scaled by the runner's speed as
   measured right before and after the operation;
4. ``--trace 0`` reports the end-to-end metrics with tracing off;
   ``--trace 1`` first times UNTRACED_REPEATS with tracing off, then
   records spans, writes Chrome trace-event JSON under ``.bench_e2e/``
   and reports the per-layer metrics (seconds there are wall seconds,
   as in the trace file).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import measure  # noqa: E402

WORKLOADS = ("suite_flow", "bigmod_analysis", "serve_mix", "cache_coldwarm")
SETUP_REPEATS = 3
MIN_REPEATS = 3
#: Repeats a traced run times with tracing off, for trace.overhead_ratio.
UNTRACED_REPEATS = 1
TRACED_MIN_REPEATS = 2
DEFAULT_SECONDS = 20
DEFAULT_SEED = 1


def stage_values(repeats: list[dict]) -> tuple:
    """Per stage: for every operation the median over the repeats, summed
    over the operations."""
    keys = list(repeats[0]["ops"])
    width = len(repeats[0]["ops"][keys[0]])
    return tuple(
        sum(
            measure.median(repeat["ops"][key][stage] for repeat in repeats)
            for key in keys
        )
        for stage in range(width)
    )


def _measure(workload, state, rec, seconds: float, minimum: int) -> list[dict]:
    repeats = []
    start = time.perf_counter()
    while len(repeats) < minimum or time.perf_counter() - start < seconds:
        # Every repeat starts from the same heap: what the previous one
        # left behind would otherwise make each collection dearer.
        gc.collect()
        rec.context = {"repeat": len(repeats)}
        with rec.span("repeat"):
            repeats.append(workload.repeat(state, rec, len(repeats)))
    rec.context = {}
    return repeats


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    removed = measure.scrub_environment()
    from common import ROOT, SCRATCH_ROOT

    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH_ROOT)
    # Children and library code that ask for a temp file stay inside the
    # checkout too.
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    finger = measure.fingerprint(ROOT)
    finger["scrubbed"] = removed
    clock = measure.Clock()
    off = measure.Recorder(name, tracing=False, clock=clock)
    named = {}
    state = None
    try:
        lap = measure.Lap(clock)
        workload = importlib.import_module(name)
        # Optional hooks: a workload that starts no process has nothing
        # to release, and its own process is the one doing the work.
        release = getattr(workload, "release", lambda state: None)
        peak_rss_mb = getattr(
            workload, "peak_rss_mb", lambda state: measure.peak_rss_mb()
        )
        import_s = lap.lap()
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                release(state)
                state = None
                lap.lap()
            state = workload.prepare(seed, scratch)
            prepare_s.append(lap.lap())
        workload.warm_up(state, off)
        setup_s = import_s + measure.median(prepare_s) + lap.lap()
        # What set-up left alive (imports, inputs, references) is not
        # scanned again by every collection of the measured repeats.
        gc.collect()
        gc.freeze()

        if not trace:
            section = "end_to_end"
            repeats = _measure(workload, state, off, seconds, MIN_REPEATS)
            stages = getattr(workload, "stage_values", stage_values)(repeats)
            named = workload.named_metrics(state, repeats, stages)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(state),
                "stage1_s": stages[0],
                "stage2_s": stages[1],
                "stage3_s": stages[2],
            }
        else:
            section = "per_layer"
            start = time.perf_counter()
            plain = _measure(workload, state, off, 0.0, UNTRACED_REPEATS)
            rec = measure.Recorder(name, tracing=True, clock=clock)
            left = seconds - (time.perf_counter() - start)
            repeats = _measure(workload, state, rec, left, TRACED_MIN_REPEATS)
            metrics = _traced_metrics(workload, state, rec, repeats, plain)
            path = os.path.join(SCRATCH_ROOT, f"trace-{name}-{seed}.json")
            measure.write_chrome_trace(rec.spans, path, finger)
            print(f"trace: {os.path.relpath(path, ROOT)} "
                  f"({len(rec.spans)} spans)")
    finally:
        if state is not None:
            release(state)
        shutil.rmtree(scratch, ignore_errors=True)

    finger["calib_s"] = measure.median(clock.slices)
    finger["calibrated_per_wall"] = measure.ratio(
        clock.calibrated_s, clock.raw_s
    )
    reported = _declared(metrics, section)
    print(f"workload {name}  seed {seed}  repeats {len(repeats)}")
    print("fingerprint " + json.dumps(finger, sort_keys=True))
    for label, (value, unit) in named.items():
        print(f"  {label:32s} {value:.6g} {unit}")
    for label in sorted(metrics):
        print(f"  {label:32s} {metrics[label]:.6g} {reported[label]['unit']}")
    failed = sum(repeat["failed"] for repeat in repeats)
    return {
        "correct": failed == 0,
        "attempted": sum(repeat["attempted"] for repeat in repeats),
        "failed": failed,
        "metrics": reported,
    }


def _traced_metrics(workload, state, rec, repeats, plain) -> dict:
    """The workload's per-layer metrics plus what the trace itself says:
    self time per layer and repeat (wall seconds, as in the trace file),
    how much of the wall time the layer spans cover, and what tracing
    cost."""
    values = workload.layer_metrics(state, rec, repeats)
    roots = [s for s in rec.spans if s.name == "repeat"]
    layers = measure.layer_self_seconds(
        rec.spans, keep=lambda span: "repeat" in span.tags
    )
    for glue in ("repeat", "flow"):
        layers.pop(glue, None)
    for layer, seconds in layers.items():
        values[f"layer.{layer}.self_s"] = seconds / len(roots)
    # Concurrent clients each have their own spans, so their self times
    # add up to the wall time once per client.
    wall = sum(s.seconds for s in roots) * getattr(workload, "CLIENTS", 1)
    values["trace.wall_s"] = measure.median(s.seconds for s in roots)
    values["trace.unattributed_s"] = (wall - sum(layers.values())) / len(roots)
    values["trace.self_time_coverage"] = measure.ratio(
        sum(layers.values()), wall
    )
    values["trace.overhead_ratio"] = measure.ratio(
        measure.median(repeat["wall_s"] for repeat in repeats),
        measure.median(repeat["wall_s"] for repeat in plain),
    )
    # per repeat, so that it repeats exactly whatever the time budget
    values["trace.spans"] = sum(
        1 for span in rec.spans if "repeat" in span.tags
    ) / len(roots)
    values["env.calib_s"] = measure.median(rec.clock.slices)
    return values


def _declared(metrics: dict, section: str) -> dict:
    """``metrics`` as the contract's {name: {value, unit}}, with exactly
    the names ``BENCHMARK.json`` declares for ``section``.  A name that is
    not declared is a bug in the benchmark; an end-to-end metric must be
    measured on every workload; a layer this workload never enters
    reads 0."""
    from common import ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {e["name"]: e for e in json.load(handle)[section]}
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(metrics))
    if section == "end_to_end" and missing:
        raise SystemExit(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": metrics.get(name, 0), "unit": entry["unit"]}
        for name, entry in declared.items()
    }


def regen_expected() -> None:
    """Record every registry program's reference output: the tree-walking
    reference interpreter on the untransformed module."""
    measure.scrub_environment()
    from common import expected_path

    from repro.frontend import compile_source
    from repro.interp import Interpreter
    from repro.workloads import all_workloads

    for workload in all_workloads():
        module = compile_source(workload.source, workload.name)
        result = Interpreter(
            module, step_limit=workload.step_limit, engine="reference"
        ).run()
        if result.trapped is not None:
            raise SystemExit(f"{workload.name}: {result.trapped}")
        record = {
            "program": workload.name,
            "engine": "reference",
            "output": result.output,
            "return_value": result.return_value,
            "cycles": result.cycles,
            "steps": result.steps,
        }
        with open(expected_path(workload.name), "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded {workload.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_expected:
        regen_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
