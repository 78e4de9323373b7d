"""Differential oracles: clean on healthy seeds, loud on planted bugs."""

import pytest

from repro.fuzz.driver import run_case
from repro.fuzz.gen import GeneratedProgram, generate_program
from repro.fuzz.oracles import (
    ORACLES,
    TECHNIQUES,
    binio_divergence,
    deptest_divergence,
    run_oracles,
    technique_for,
    transform_divergences,
)
from repro.robust import faults


class TestOracleRotation:
    def test_technique_rotation_covers_all(self):
        seen = {technique_for(generate_program(s)) for s in range(6)}
        assert seen == set(TECHNIQUES)

    def test_technique_is_deterministic(self):
        program = generate_program(9)
        assert technique_for(program) == technique_for(program)


class TestOraclesClean:
    def test_healthy_seeds_have_no_divergences(self):
        for seed in range(4):
            case = run_case(seed)
            assert case.ok, case.divergences

    def test_every_family_passes_all_oracles(self):
        from repro.fuzz.gen import SHAPES

        for index, family in enumerate(SHAPES):
            program = generate_program(100 + index, family=family)
            program.seed = 100 + index
            divergences = run_oracles(program, oracles=ORACLES)
            assert not divergences, (family, [d.detail for d in divergences])


DEPTEST_DEMO = GeneratedProgram(
    name="deptest_demo",
    source="""
int a[32];
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    a[i + 3] = a[i] + 1;
  }
  return a[12];
}
""",
    family="carried",
    choices=(),
    seed=0,
)


class TestDeptestOracle:
    def test_clean_on_generated_seeds(self):
        for seed in range(6):
            program = generate_program(seed)
            assert deptest_divergence(program) is None, (seed, program.family)

    def test_true_distance_validates(self):
        # The demo's store a[i+3] / load a[i] pair carries distance -3
        # (load at iteration j reads what the store wrote at j - 3);
        # the dynamic trace must agree, so the oracle stays silent.
        assert deptest_divergence(DEPTEST_DEMO) is None

    def test_catches_a_lying_independence_claim(self, monkeypatch):
        from repro.analysis import deptest as deptest_module

        def liar(self, a, b, scope="loop"):
            return deptest_module.DepVerdict(
                deptest_module.PROVEN_INDEPENDENT, reason="planted lie"
            )

        monkeypatch.setattr(
            deptest_module.DependenceTester, "test_pair", liar
        )
        divergence = deptest_divergence(DEPTEST_DEMO)
        assert divergence is not None
        assert divergence.oracle == "deptest"
        assert "touched address" in divergence.detail

    def test_catches_a_wrong_distance(self, monkeypatch):
        from repro.analysis import deptest as deptest_module

        real = deptest_module.DependenceTester.test_pair

        def skewed(self, a, b, scope="loop"):
            verdict = real(self, a, b, scope)
            if verdict.is_dependent and verdict.distance not in (None, 0):
                verdict.distance += 1  # off-by-one distance claim
            return verdict

        monkeypatch.setattr(
            deptest_module.DependenceTester, "test_pair", skewed
        )
        divergence = deptest_divergence(DEPTEST_DEMO)
        assert divergence is not None
        assert "conflicts at gap" in divergence.detail


class TestOraclesDetect:
    def test_binio_catches_mangled_round_trip(self, monkeypatch):
        """A printer that mangles the module header must be flagged.

        This is the planted version of the real bug this oracle found:
        the parser used to drop the printer's ``; module NAME`` header,
        so print -> parse -> print was not a fixpoint.
        """
        from repro.fuzz import oracles as oracles_module
        from repro.ir import print_module as real_print

        def lossy_print(module):
            text = real_print(module)
            return text.replace("; module ", "; module mangled_", 1)

        monkeypatch.setattr(oracles_module, "print_module", lossy_print)
        program = generate_program(3)
        program.seed = 3
        divergence = binio_divergence(program)
        assert divergence is not None
        assert divergence.oracle == "binio"

    @pytest.mark.skipif(
        faults.enabled_in_env(), reason="an armed fault explains any rollback"
    )
    def test_parallel_catches_an_unexplained_rollback(self, monkeypatch):
        """A technique that emits invalid IR is rolled back by the pass
        manager, and the program still prints the right values — which
        is exactly how DSWP hid a misplaced push for ten PRs."""
        from repro.xforms.doall import DOALL

        real_apply = DOALL.apply

        def unterminated(self, loop, plan):
            call = real_apply(self, loop, plan)
            call.parent.terminator.erase_from_parent()
            return call

        monkeypatch.setattr(DOALL, "apply", unterminated)
        program = GeneratedProgram(
            name="fill",
            source="""
int a[400];
int main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { a[i] = i * 3; }
  return a[5];
}
""",
            family="doall",
            choices=(),
            seed=0,
        )
        divergences = transform_divergences(program, "doall")
        assert [d.oracle for d in divergences] == ["parallel"]
        assert "rolled back" in divergences[0].detail
        assert "VerificationError" in divergences[0].detail

    def test_divergence_records_carry_provenance(self):
        program = generate_program(17)
        program.seed = 17
        # Healthy program: empty result still exercises the record path
        # via run_case, which attaches technique + source when present.
        case = run_case(17, oracles=("engine",))
        assert case.ok
        assert case.technique in TECHNIQUES
        assert case.family == program.family
