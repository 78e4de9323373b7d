"""The evaluation's qualitative claims hold on workload subsets (the full
sweeps live in benchmarks/)."""

import hashlib
import json

import pytest

from repro.experiments import (
    ALL_ABSTRACTIONS,
    USAGE_MATRIX,
    abstraction_usage_counts,
    fig3_dependences,
    fig4_invariants,
    fig5_speedups,
    governing_iv_counts,
    spec_speedups,
    table1,
    table2,
    table3,
    table4,
)
from repro.robust import faults
from repro.workloads import get


SUBSET = [get(n) for n in ("susan", "fluidanimate", "crc32", "x264", "lbm")]


class TestTables:
    def test_table1_every_abstraction_implemented(self):
        rows = table1()
        by_name = {r["abstraction"]: r for r in rows}
        for name in ("PDG", "aSCCDAG", "Loop builder (LB)", "Scheduler (SCD)"):
            assert by_name[name]["loc"] > 0
        assert by_name["TOTAL"]["loc"] > 1500

    def test_table2_tools_exist(self):
        rows = table2()
        assert all(r["loc"] > 0 for r in rows)

    def test_table3_loc_reduction_shape(self):
        rows = table3()
        by_tool = {r["tool"]: r for r in rows}
        # The paper's headline: 33.2%–99.2% reductions.  Our measured and
        # modeled reductions must all be positive, and the simple tools
        # (DEAD, LICM) must reduce much more than the complex port (PERS
        # in the paper).
        for row in rows:
            assert row["reduction_pct"] > 25.0, row
        assert by_tool["LICM"]["llvm_kind"] == "measured"
        assert by_tool["DEAD"]["reduction_pct"] > 85.0
        # Parallelizers built almost entirely from the layer.
        assert by_tool["HELIX"]["reduction_pct"] > 80.0

    def test_table4_every_abstraction_used_by_multiple_tools(self):
        counts = abstraction_usage_counts()
        for abstraction, count in counts.items():
            assert count >= 2, f"{abstraction} used by only {count} tool(s)"
        matrix = table4()
        assert len(matrix) == 10  # ten custom tools

    def test_table4_matches_actual_imports(self):
        """The declared usage matrix is consistent with the modules'
        actual imports from repro.core."""
        import os

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        module_of_tool = {
            "HELIX": "xforms/helix.py",
            "DSWP": "xforms/dswp.py",
            "DOALL": "xforms/doall.py",
            "LICM": "xforms/licm.py",
            "DEAD": "xforms/dead.py",
            "TIME": "xforms/timesqueezer.py",
            "COOS": "xforms/coos.py",
            "PRVJ": "xforms/prvjeeves.py",
            "CARAT": "xforms/carat.py",
            "PERS": "xforms/perspective.py",
        }
        evidence = {
            # live_ins/live_outs are PDG queries (LoopDG internal/external
            # nodes); LoopBoundary is the shared wrapper around them.
            "PDG": ["pdg()", "dependence_graph", "pdg.", "live_ins",
                    "LoopBoundary"],
            "CG": ["call_graph", "callgraph"],
            "aSCCDAG": ["sccdag"],
            "DFE": ["dataflow", "DataFlow", "liveness"],
            "SCD": ["scheduler"],
            "LB": ["loop_builder", "loopbuilder", "clone_loop_into_task",
                   "LoopBuilder", "replace_loop_with_dispatch"],
            "ISL": ["islands"],
            "IV": ["governing_iv", "InductionVariable"],
            "IVS": ["chunk_cloned_loop", "IVStepper",
                    "InductionVariableStepper"],
            "INV": ["invariants", "is_invariant"],
            "FR": ["forest", "Forest"],
            "RD": ["reduction"],
            "ENV": ["environment", "build_environment"],
            "T": ["Task", "task"],
            "AR": ["architecture"],
            "PRO": ["profile", "Profiler", "hotness"],
            "LS": ["loop_info", "structure", "LoopStructure", "loops()"],
            "L": ["noelle.loops", "loop_of", "Loop", "natural_loop"],
        }
        for tool, declared in USAGE_MATRIX.items():
            path = os.path.join(root, module_of_tool[tool])
            with open(path) as handle:
                text = handle.read()
            # Direct dependencies leave textual evidence; shared helpers
            # (parallelizer_common) carry the rest.
            if "parallelizer_common" in text:
                with open(os.path.join(root, "xforms/parallelizer_common.py")) as h:
                    text += h.read()
            for abstraction, needles in evidence.items():
                if abstraction in declared:
                    assert any(n.lower() in text.lower() for n in needles), (
                        f"{tool} declares {abstraction} but shows no use"
                    )


class TestFigures:
    def test_fig3_noelle_disproves_more(self):
        rows = fig3_dependences(SUBSET)
        for row in rows:
            assert row["noelle_pct"] >= row["llvm_pct"]
        assert any(r["noelle_pct"] > r["llvm_pct"] + 10 for r in rows)

    def test_fig4_noelle_finds_more_invariants(self):
        rows = fig4_invariants(SUBSET)
        total_llvm = sum(r["llvm_invariants"] for r in rows)
        total_noelle = sum(r["noelle_invariants"] for r in rows)
        assert total_noelle > total_llvm

    def test_governing_ivs_shape(self):
        counts = governing_iv_counts(SUBSET)
        # NOELLE finds nearly all; LLVM a small minority — the 385-vs-11
        # shape of Section 4.3.
        assert counts["noelle_total"] >= 0.8 * counts["loops_total"]
        assert counts["llvm_total"] < 0.3 * counts["noelle_total"]


#: sha256 of ``json.dumps(rows, sort_keys=True)`` of each experiment over
#: its full default workload set, with the default PDG.  "Every figure is
#: byte-identical" is this test passing unedited.
FIGURE_DIGESTS = {
    "fig3_dependences": "12074603b8576d91274d7f08b8bae78a85f6975d9d96869bdf5b57f29c9d85ab",
    "fig4_invariants": "f03ceee2f92da724d2a8580aafb61d442fa5f1c4a9987b2f82155ced37eae38e",
    "governing_iv_counts": "825ba34ea92198a10b9b059ae05ca56616d3e13f1d2a624eb602a3c840a01ffe",
    "fig5_speedups": "d38c2fe8c8a52cb00b9e68b509a2f51cc956e7ba887dd5622ef796df66a3b139",
    "spec_speedups": "dbf7715a95faddac845aa6f377253ca5140d334b6365018fadbdb107ee0eb8b7",
}


@pytest.mark.skipif(
    faults.enabled_in_env(),
    reason="a rolled-back parallelization changes Figure 5's rows",
)
def test_every_figure_is_byte_identical(monkeypatch):
    monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
    experiments = (fig3_dependences, fig4_invariants, governing_iv_counts,
                   fig5_speedups, spec_speedups)
    digests = {
        experiment.__name__: hashlib.sha256(
            json.dumps(experiment(), sort_keys=True).encode()
        ).hexdigest()
        for experiment in experiments
    }
    assert digests == FIGURE_DIGESTS


@pytest.mark.slow
class TestSpeedups:
    def test_fig5_subset(self):
        rows = fig5_speedups(
            [get("susan"), get("crc32")], num_cores=12,
            techniques=("gcc", "doall", "helix"),
        )
        by_name = {r["benchmark"]: r for r in rows}
        # gcc-style baseline: no benefit.
        for row in rows:
            assert row["gcc"] <= 1.05
            for technique in ("gcc", "doall", "helix"):
                assert row[f"{technique}_correct"], row
        # The DOALL-able image filter gains; crc32 stays flat (the paper's
        # callout).
        assert by_name["susan"]["doall"] > by_name["susan"]["gcc"]
        assert by_name["crc32"]["doall"] < 1.6

