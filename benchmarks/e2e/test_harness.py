"""Tier-1 checks of the end-to-end benchmark's own machinery (< 5 s).

The workloads themselves are not run here (they take minutes); what is
checked is what a wrong number would hide behind: the statistics, the
self-time derivation, the declared metric names, the generator's
determinism and that counts repeat exactly.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import bigmod  # noqa: E402
import measure  # noqa: E402
from common import ROOT  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: A quoted per-layer metric name in the benchmark's sources.
EMITTED_RE = re.compile(
    r'"((?:frontend|opt|ir|analysis|core|xforms|robust|interp|runtime|cache'
    r'|serve|tools|trace|env)\.[A-Za-z0-9_.]+)"\s*[:\]]'
)
LAYERS = ("frontend", "opt", "ir", "analysis", "core", "xforms", "robust",
          "interp", "runtime", "cache", "serve", "tools")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- statistics -----------------------------------------------------------------

def test_median_and_percentile():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 2, 3]) == 2.5
    samples = list(range(1, 101))
    assert measure.percentile(samples, 0.50) == 50
    assert measure.percentile(samples, 0.95) == 95
    assert measure.percentile(samples, 1.0) == 100
    assert measure.percentile([7], 0.95) == 7
    assert measure.percentile([5, 1, 3], 0.5) == 3
    with pytest.raises(ValueError):
        measure.median([])
    with pytest.raises(ValueError):
        measure.percentile([1], 0.0)


def test_geomean_and_ratio():
    assert measure.geomean([2, 8]) == pytest.approx(4.0)
    assert measure.ratio(1, 0) == 0.0


# -- spans ----------------------------------------------------------------------

def _tree():
    """root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]."""
    def span(name, start, end, parent):
        made = measure.Span(name, start, parent, 0, {"repeat": 0})
        made.end = end
        return made

    return [
        span("repeat", 0.0, 10.0, None),
        span("core.a", 1.0, 4.0, 0),
        span("ir.a1", 2.0, 3.0, 1),
        span("xforms.b", 5.0, 9.0, 0),
    ]


def test_self_time_is_span_minus_children():
    spans = _tree()
    assert measure.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert measure.layer_self_seconds(spans) == {
        "repeat": 3.0, "core": 2.0, "ir": 1.0, "xforms": 4.0,
    }


def test_attributed_seconds_move_to_their_layer():
    spans = _tree()
    spans[3].attributed["core.loops"] = 1.5
    layers = measure.layer_self_seconds(spans)
    assert layers["xforms"] == 2.5
    assert layers["core"] == 3.5
    assert sum(layers.values()) == 10.0
    assert measure.span_seconds(spans, "core.loops") == 1.5
    assert measure.span_seconds(spans, "xforms.b") == 4.0


def test_recorder_parents_and_off_switch(tmp_path):
    clock = measure.Clock()
    off = measure.Recorder("w", tracing=False, clock=clock)
    with off.span("core.x"):
        pass
    assert off.spans == []
    rec = measure.Recorder("w", tracing=True, clock=clock)
    rec.context = {"repeat": 3}
    with rec.span("repeat"):
        with rec.span("core.x", item="p"):
            rec.add("ir.y", 0.0, 1.0)
    assert [s.parent for s in rec.spans] == [None, 0, 1]
    assert rec.spans[1].tags == {"workload": "w", "repeat": 3, "item": "p"}
    path = tmp_path / "trace.json"
    measure.write_chrome_trace(rec.spans, str(path), {"k": "v"})
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["repeat", "core.x", "ir.y"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_clock_scales_by_runner_speed():
    clock = measure.Clock()
    first, second = clock.mark(), clock.mark()
    first.slice_s = second.slice_s = 2 * measure.REFERENCE_SLICE_S
    # a runner half as fast as the reference: 4 wall seconds count as 2
    assert clock.scale(4.0, first, second) == pytest.approx(2.0)


def test_environment_scrub():
    environ = {"NOELLE_ENGINE": "reference", "NOELLE_CACHE_DIR": "/x", "HOME": "h"}
    assert measure.scrub_environment(environ) == [
        "NOELLE_CACHE_DIR", "NOELLE_ENGINE",
    ]
    assert environ == {"HOME": "h"}


# -- BENCHMARK.json --------------------------------------------------------------

def test_declared_names_units_and_caps(declared):
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declared[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert measure.NAME_RE.match(name), name
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT_RE.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in declared["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = [e for e in declared["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_runner_and_declaration_agree(declared):
    """Every name the runner emits is declared, and the other way round."""
    import run

    assert tuple(w["name"] for w in declared["workloads"]) == run.WORKLOADS
    assert {e["name"] for e in declared["end_to_end"]} == {
        "setup_s", "peak_rss_mb", "stage1_s", "stage2_s", "stage3_s",
    }
    emitted = {f"layer.{layer}.self_s" for layer in LAYERS}
    for fname in sorted(os.listdir(HERE)):
        if fname.endswith(".py") and fname != os.path.basename(__file__):
            with open(os.path.join(HERE, fname)) as handle:
                emitted.update(EMITTED_RE.findall(handle.read()))
    assert emitted == {e["name"] for e in declared["per_layer"]}


# -- generator and exact counts -------------------------------------------------

def test_bigmod_is_deterministic_and_sized():
    from repro.frontend import compile_source

    source = bigmod.generate(7, 1500)
    assert source == bigmod.generate(7, 1500)
    assert source != bigmod.generate(8, 1500)
    # the seed shuffles a fixed multiset of statement counts
    assert source.count(";\n") == bigmod.generate(8, 1500).count(";\n")
    module = compile_source(source, "bigmod")
    assert 0.8 * 1500 <= module.num_instructions() <= 1.2 * 1500


def _counts(metrics: dict) -> dict:
    return {
        name: value for name, value in metrics.items()
        if isinstance(value, int)
    }


def test_counts_repeat_exactly(declared, monkeypatch):
    """Two traced passes of the same work report the same counts, and
    every name they report is declared."""
    import bigmod_analysis
    import suite_flow

    names = {e["name"] for e in declared["per_layer"]}
    clock = measure.Clock()

    monkeypatch.setattr(bigmod_analysis, "TARGET_INSTS", 700)
    monkeypatch.setattr(bigmod_analysis, "REQUERY_CYCLES", 2)
    big = bigmod_analysis.prepare(3, "")
    suite = suite_flow.prepare(3, "")
    suite.programs = [w for w in suite.programs if w.name == "basicmath"]
    monkeypatch.setattr(suite_flow, "SAMPLE", ("basicmath",))

    def traced(workload, state):
        rec = measure.Recorder("t", tracing=True, clock=clock)
        rec.context = {"repeat": 0}
        with rec.span("repeat"):
            outcome = workload.repeat(state, rec, 0)
        assert outcome["failed"] == 0
        return workload.layer_metrics(state, rec, [outcome])

    for workload, state in ((bigmod_analysis, big), (suite_flow, suite)):
        first, second = traced(workload, state), traced(workload, state)
        assert set(first) <= names
        assert _counts(first) and _counts(first) == _counts(second)
