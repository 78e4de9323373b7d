"""Static race detector: construct discovery, segments, verdicts."""

from repro.checks import run_checkers
from repro.checks.races import segment_spans
from repro.ir import Switch, parse_module, print_module
from repro.ir.intrinsics import find_parallel_constructs
from tests.checks.fixtures import (
    DOALL_SOURCE,
    PIPELINE_SOURCE,
    TASK_NAME,
    build_helix_fixture,
    drop_sequential_segments,
    parallelize_source,
    segment_marker_calls,
)


class TestDiscovery:
    def test_helix_construct_found_structurally(self):
        module, _ = build_helix_fixture()
        constructs = find_parallel_constructs(module)
        helix = [c for c in constructs if c.kind == "helix"]
        assert len(helix) == 1
        assert helix[0].task.name == TASK_NAME
        assert helix[0].host.name == "kernel"
        assert helix[0].stages == []
        # Each sequential segment is one helix_seq_begin id in the task.
        segment_ids = {
            call.args[0].value
            for call in segment_marker_calls(helix[0].task)
            if call.called_function().name == "helix_seq_begin"
        }
        assert len(segment_ids) >= 1

    def test_doall_construct_found_structurally(self):
        module, _, count = parallelize_source(DOALL_SOURCE, "doall")
        assert count >= 1
        doall = [c for c in find_parallel_constructs(module)
                 if c.kind == "doall"]
        assert len(doall) == count
        for construct in doall:
            assert construct.call.called_function().name == "noelle_dispatch_doall"
            assert construct.stages == []

    def test_dswp_stages_recovered_from_selector(self):
        module, _, count = parallelize_source(PIPELINE_SOURCE, "dswp", stages=3)
        assert count >= 1
        dswp = [c for c in find_parallel_constructs(module) if c.kind == "dswp"]
        assert dswp
        construct = dswp[0]
        assert len(construct.stages) >= 1
        # The stage index is the selector's switch case that calls it.
        (switch,) = [
            inst for inst in construct.task.instructions()
            if isinstance(inst, Switch)
        ]
        called = {
            const.value: block.instructions[0].called_function()
            for const, block in switch.cases()
        }
        assert construct.stages == sorted(called.items())
        assert len({fn.name for _, fn in construct.stages}) == len(called)

    def test_discovery_survives_print_parse_roundtrip(self):
        # Metadata does not round-trip through the printer; structural
        # discovery (dispatch callees, the selector switch) must.
        module, _ = build_helix_fixture()
        reparsed = parse_module(print_module(module), "roundtrip")
        constructs = find_parallel_constructs(reparsed)
        assert [c.kind for c in constructs] == ["helix"]
        assert constructs[0].task.name == TASK_NAME


class TestSegments:
    def test_spans_cover_the_marked_instructions(self):
        module, _ = build_helix_fixture()
        task = module.get_function(TASK_NAME)
        markers = segment_marker_calls(task)
        assert len(markers) >= 2  # at least one begin/end pair
        spans = segment_spans(task)
        assert any(span for span in spans.values())

    def test_spans_empty_after_markers_are_dropped(self):
        module, noelle = build_helix_fixture()
        task = drop_sequential_segments(module, noelle)
        assert segment_marker_calls(task) == []
        assert all(not span for span in segment_spans(task).values())


class TestVerdicts:
    def test_correct_helix_has_no_errors(self):
        module, noelle = build_helix_fixture()
        diagnostics = run_checkers(module, noelle)
        assert not any(d.severity == "error" for d in diagnostics), [
            str(d) for d in diagnostics
        ]

    def test_dropped_segments_are_an_error(self):
        module, noelle = build_helix_fixture()
        drop_sequential_segments(module, noelle)
        diagnostics = run_checkers(module, noelle)
        errors = [d for d in diagnostics
                  if d.checker == "races" and d.severity == "error"]
        assert errors, [str(d) for d in diagnostics]
        finding = errors[0]
        assert finding.pass_name == "helix"
        assert finding.function == TASK_NAME
        assert "loop-carried" in finding.message
        assert "sequential segment" in finding.message

    def test_parallelized_doall_has_no_errors(self):
        module, noelle, count = parallelize_source(DOALL_SOURCE, "doall")
        assert count >= 1
        diagnostics = run_checkers(module, noelle)
        assert not any(d.severity == "error" for d in diagnostics), [
            str(d) for d in diagnostics
        ]

    def test_parallelized_dswp_has_no_errors(self):
        module, noelle, count = parallelize_source(
            PIPELINE_SOURCE, "dswp", stages=3
        )
        assert count >= 1
        diagnostics = run_checkers(module, noelle)
        assert not any(d.severity == "error" for d in diagnostics), [
            str(d) for d in diagnostics
        ]
