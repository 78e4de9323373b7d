"""The symbolic dependence-test engine (DESIGN.md §14).

Unit-level: SCEV node identity, symbolic folding, trip counts, srem
range proofs, and the ZIV / strong-SIV / GCD verdict hierarchy.  The
differential validation against dynamic executions lives in
tests/analysis/test_deptest_differential.py and the fuzz oracle.
"""

from repro import ir
from repro.analysis.deptest import (
    PROVEN_DEPENDENT,
    PROVEN_INDEPENDENT,
    UNKNOWN,
    DependenceTester,
    FunctionDepTest,
    _Affine,
    deptest_enabled,
)
from repro.analysis.loopinfo import LoopInfo
from repro.analysis.scev import (
    SCEVAddRec,
    SCEVConstant,
    SCEVUnknown,
    ScalarEvolution,
)
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir.instructions import Load, Store
from tests.conftest import WRAPPING_INDEX_IR, WRAPPING_TRIP_IR


def loop_of(source, fn_name="main", loop_index=0):
    module = compile_source(source)
    fn = module.get_function(fn_name)
    return module, LoopInfo(fn).loops()[loop_index]


def make_tester(source, **kwargs):
    module, loop = loop_of(source, **kwargs)
    return module, loop, DependenceTester(loop)


def loop_accesses(loop):
    loads = [i for i in loop.instructions() if isinstance(i, Load)]
    stores = [i for i in loop.instructions() if isinstance(i, Store)]
    return loads, stores


class TestSCEVUnknownIdentity:
    """SCEVUnknown keys by the wrapped Value, not ``id(value)``."""

    def test_structurally_equal_constants_compare_equal(self):
        a = SCEVUnknown(ir.const_int(7))
        b = SCEVUnknown(ir.const_int(7))
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_values_compare_unequal(self):
        assert SCEVUnknown(ir.const_int(7)) != SCEVUnknown(ir.const_int(8))

    def test_usable_as_memo_key(self):
        memo = {SCEVUnknown(ir.const_int(3)): "cached"}
        assert memo[SCEVUnknown(ir.const_int(3))] == "cached"

    def test_instruction_operands_keep_identity_semantics(self, count_loop):
        _, _, values = count_loop
        # Two unknowns over the same instruction object are equal ...
        assert SCEVUnknown(values["acc_next"]) == SCEVUnknown(values["acc_next"])
        # ... but distinct instructions never unify.
        assert SCEVUnknown(values["acc_next"]) != SCEVUnknown(values["i_next"])


class TestSymbolicFolding:
    def test_addrec_sub_addrec_cancels_to_invariant(self):
        # a[i + 2] - computed as (i + 2) - i would cancel; here we check
        # the engine-level fold directly through derived expressions:
        # j = i + n; d = j - i  ==>  {n, +, 0}-like invariant n.
        module, loop = loop_of(
            """
int main(int n) {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) {
    int j = i + n;
    int d = j - i;
    s = s + d;
  }
  return s;
}
"""
        )
        scev = ScalarEvolution(loop)
        subs = [
            inst
            for inst in loop.instructions()
            if isinstance(inst, ir.BinaryOp) and inst.opcode == "sub"
        ]
        assert subs
        evolution = scev.evolution_of(subs[0])
        # (i + n) - i is the loop-invariant n: an addrec with step 0 of
        # start n, which the fold reduces to the SCEVUnknown for n.
        assert evolution is not None
        if isinstance(evolution, SCEVAddRec):
            assert evolution.constant_step() == 0
        else:
            assert isinstance(evolution, SCEVUnknown)

    def test_mul_by_invariant_scales_step(self):
        module, loop = loop_of(
            """
int a[500];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { a[i * 3 + 2] = i; }
  return a[0];
}
"""
        )
        scev = ScalarEvolution(loop)
        adds = [
            inst
            for inst in loop.instructions()
            if isinstance(inst, ir.BinaryOp) and inst.opcode == "add"
        ]
        evolutions = [scev.evolution_of(inst) for inst in adds]
        addrecs = [e for e in evolutions if isinstance(e, SCEVAddRec)]
        assert any(
            e.constant_step() == 3 and e.constant_start() == 2 for e in addrecs
        )


class TestTripCounts:
    def scev_for(self, source):
        _, loop = loop_of(source)
        return ScalarEvolution(loop)

    def test_upward_slt(self):
        scev = self.scev_for(
            "int main() { int i; int s = 0;"
            " for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"
        )
        assert scev.trip_count() == 10

    def test_downward_sgt(self):
        scev = self.scev_for(
            "int main() { int i; int s = 0;"
            " for (i = 10; i > 0; i = i - 1) { s = s + i; } return s; }"
        )
        assert scev.trip_count() == 10

    def test_strided_rounds_up(self):
        scev = self.scev_for(
            "int main() { int i; int s = 0;"
            " for (i = 0; i < 100; i = i + 7) { s = s + 1; } return s; }"
        )
        assert scev.trip_count() == 15  # ceil(100 / 7)

    def test_nonzero_start(self):
        scev = self.scev_for(
            "int main() { int i; int s = 0;"
            " for (i = 3; i < 10; i = i + 1) { s = s + 1; } return s; }"
        )
        assert scev.trip_count() == 7

    def test_test_last_loop_counts_the_run_body(self):
        # In a do-while the single block is header AND latch; the test
        # sits after the body, so the failing iteration already ran.
        # (Found by the deptest fuzz oracle: trip 1 here let srem fold
        # a wrapping subscript and fabricate an independence proof.)
        scev = self.scev_for(
            "int main() { int i; int s = 0;"
            " i = 0; do { s = s + i; i = i + 1; } while (i < 2);"
            " return s; }"
        )
        assert scev.trip_count() == 2

    def test_symbolic_bound_is_unknown(self):
        scev = self.scev_for(
            "int main(int n) { int i; int s = 0;"
            " for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }"
        )
        assert scev.trip_count() is None

    def test_addrec_range_over_trip(self):
        _, loop = loop_of(
            "int a[64]; int main() { int i;"
            " for (i = 2; i < 12; i = i + 3) { a[i] = 1; } return a[2]; }"
        )
        scev = ScalarEvolution(loop)
        phi = next(iter(loop.header.phis()))
        evolution = scev.evolution_of(phi)
        assert isinstance(evolution, SCEVAddRec)
        # i takes 2, 5, 8, 11 — trip 4, range [2, 11].
        assert scev.trip_count() == 4
        assert scev.addrec_range(evolution, 64) == (2, 11)

    def test_wrapping_narrow_iv_has_no_trip_and_no_range(self):
        # 100, 110, 120, then 130 wraps to -126 < 126: the body runs 105
        # times, not the closed form's 3.
        module = ir.parse_module(WRAPPING_TRIP_IR)
        loop = LoopInfo(module.get_function("main")).loops()[0]
        scev = ScalarEvolution(loop)
        assert scev.trip_count() is None
        phi = next(iter(loop.header.phis()))
        assert scev.addrec_range(scev.evolution_of(phi), 8) is None
        # The load of iteration k+3 reads iteration k's store.
        loads, stores = loop_accesses(loop)
        verdict = DependenceTester(loop).test_pair(loads[0], stores[0])
        assert not verdict.is_independent


class TestNarrowIndices:
    def test_index_that_wraps_is_not_linearized(self):
        # The trip is unknown, yet the i8 indices wrap after 86
        # iterations: their slot offsets are not 151 + 3*i and 150 + 3*i.
        module = ir.parse_module(WRAPPING_INDEX_IR)
        assert Interpreter(module).run().return_value == 602
        loop = LoopInfo(module.get_function("main")).loops()[0]
        tester = DependenceTester(loop)
        assert tester.trip is None
        loads, stores = loop_accesses(loop)
        assert tester.access_of(loads[0]) is None
        assert tester.test_pair(loads[0], stores[0]).kind == UNKNOWN

    def test_index_that_fits_over_the_trip_is_linearized(self):
        # 0, 10, ..., 120 exits on 120 without wrapping; %j spans
        # [-30, 80].
        source = WRAPPING_TRIP_IR.replace("[ 100,", "[ 0,")
        module = ir.parse_module(source.replace("i8 126", "i8 120"))
        loop = LoopInfo(module.get_function("main")).loops()[0]
        tester = DependenceTester(loop)
        assert tester.trip == 12
        loads, stores = loop_accesses(loop)
        assert tester.access_of(loads[0]).describe() == (
            "@a[120 + 10*i] size 1"
        )
        verdict = tester.test_pair(loads[0], stores[0])
        assert verdict.kind == PROVEN_DEPENDENT
        assert verdict.distance == -3


class TestSremFolding:
    SOURCE = """
int a[16];
int main() {{
  int i;
  for (i = 0; i < {bound}; i = i + 1) {{ a[i % 16] = i; }}
  return a[0];
}}
"""

    def evolution_of_index(self, source):
        module, loop = loop_of(source)
        scev = ScalarEvolution(loop)
        srems = [
            inst
            for inst in loop.instructions()
            if isinstance(inst, ir.BinaryOp) and inst.opcode == "srem"
        ]
        assert srems
        return scev.evolution_of(srems[0])

    def test_in_range_modulo_folds_away(self):
        evolution = self.evolution_of_index(self.SOURCE.format(bound=10))
        assert isinstance(evolution, SCEVAddRec)
        assert evolution.constant_step() == 1

    def test_wrapping_modulo_does_not_fold(self):
        # i reaches 17 > 15: the modulo genuinely wraps, so folding it
        # away would be unsound — the engine must refuse.
        evolution = self.evolution_of_index(self.SOURCE.format(bound=18))
        assert not isinstance(evolution, SCEVAddRec)

    def test_fold_does_not_depend_on_the_deptest_flag(self, monkeypatch):
        # The default loop dependence graph reads these evolutions too.
        monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
        evolution = self.evolution_of_index(self.SOURCE.format(bound=10))
        assert isinstance(evolution, SCEVAddRec)


class TestSymbolOrder:
    """Symbolic terms sort by printed form, not by identity hashes."""

    SOURCE = (
        "int a[100];"
        " int f(int n, int m) {{ int i;"
        "  for (i = 0; i < 10; i = i + 1) {{ a[{store}] = a[{load}] + 1; }}"
        "  return a[0]; }}"
        " int main() {{ return f(1, 2); }}"
    )

    def accesses(self, store, load):
        module = compile_source(self.SOURCE.format(store=store, load=load))
        loop = LoopInfo(module.get_function("f")).loops()[0]
        tester = DependenceTester(loop)
        loads, stores = loop_accesses(loop)
        return tester.access_of(stores[0]), tester.access_of(loads[0])

    def test_either_source_order_prints_one_form(self):
        store, load = self.accesses("n + m + i", "m + n + i")
        expected = "@a[0 + 1*unknown(%m) + 1*unknown(%n) + 1*i] size 1"
        assert store.describe() == load.describe() == expected
        assert store.syms == load.syms

    def test_insertion_order_does_not_reach_the_canonical_form(self):
        store, _ = self.accesses("n - m + i", "i")
        (first, c1), (second, c2) = store.syms
        assert (repr(first), c1, repr(second), c2) == (
            "unknown(%m)", -1, "unknown(%n)", 1
        )
        forward, backward = _Affine(), _Affine()
        forward.syms = {first: c1, second: c2}
        backward.syms = {second: c2, first: c1}
        assert forward.canonical_syms() == backward.canonical_syms()


class TestLazyTrip:
    def test_trip_count_is_derived_on_first_use(self, monkeypatch):
        calls = []
        original = ScalarEvolution._compute_trip_count

        def counting(self):
            calls.append(self.loop)
            return original(self)

        monkeypatch.setattr(ScalarEvolution, "_compute_trip_count", counting)
        _, loop, tester = make_tester(
            "int a[100]; int main() { int i;"
            " for (i = 0; i < 50; i = i + 1) { a[i] = a[i] + 1; }"
            " return a[0]; }"
        )
        loads, stores = loop_accesses(loop)
        assert tester.access_of(loads[0]).intra_key is not None
        assert tester.access_of(loads[0]).intra_key == (
            tester.access_of(stores[0]).intra_key
        )
        assert calls == []
        assert tester.trip == 50
        assert tester.trip == 50
        assert len(calls) == 1


class TestVerdicts:
    def test_ziv_disjoint_constants(self):
        _, loop, tester = make_tester(
            "int a[8]; int main() { int i; int s = 0;"
            " for (i = 0; i < 5; i = i + 1) { a[0] = i; s = s + a[5]; }"
            " return s; }"
        )
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_INDEPENDENT

    def test_ziv_overlap_has_no_distance(self):
        _, loop, tester = make_tester(
            "int a[8]; int main() { int i; int s = 0;"
            " for (i = 0; i < 5; i = i + 1) { a[3] = i; s = s + a[3]; }"
            " return s; }"
        )
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_DEPENDENT
        # Every iteration pair conflicts: claiming a unique distance
        # (even 0) would be refuted dynamically.
        assert verdict.distance is None

    def test_strong_siv_distance(self):
        _, loop, tester = make_tester(
            "int a[32]; int main() { int i; int s = 0;"
            " for (i = 0; i < 10; i = i + 1) { a[i + 3] = a[i] + 1; }"
            " return s; }"
        )
        loads, stores = loop_accesses(loop)
        # store a[i+3] at iteration i conflicts with load a[j] at j = i+3.
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_DEPENDENT
        assert verdict.distance == 3
        # And the reverse orientation proves the negated distance.
        assert tester.test_pair(loads[0], stores[0]).distance == -3

    def test_strong_siv_trip_filter_proves_independence(self):
        _, loop, tester = make_tester(
            "int a[64]; int main() { int i; int s = 0;"
            " for (i = 0; i < 10; i = i + 1) { a[i + 20] = a[i] + 1; }"
            " return s; }"
        )
        loads, stores = loop_accesses(loop)
        # Distance 20 >= trip 10: no two live iterations can meet.
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_INDEPENDENT

    def test_same_subscript_store_is_distance_zero(self):
        _, loop, tester = make_tester(
            "int a[16]; int main() { int i;"
            " for (i = 0; i < 10; i = i + 1) { a[i] = a[i] + 1; }"
            " return a[0]; }"
        )
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_DEPENDENT
        assert verdict.distance == 0
        # Distance 0 is intra-iteration: not loop-carried.
        assert tester.carried(stores[0], loads[0]) == (False, None)

    def test_gcd_parity_disproves(self):
        _, loop, tester = make_tester(
            "int a[64]; int main() { int i;"
            " for (i = 0; i < 10; i = i + 1) { a[2 * i] = a[2 * i + 1] + 1; }"
            " return a[0]; }"
        )
        loads, stores = loop_accesses(loop)
        # Even slots written, odd slots read: strides are equal (strong
        # SIV) with a non-integer distance — proven independent.
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == PROVEN_INDEPENDENT

    def test_srem_wrapping_subscript_is_unknown(self):
        _, loop, tester = make_tester(
            "int a[16]; int main() { int i;"
            " for (i = 0; i < 18; i = i + 1) { a[i % 16] = a[(i + 3) % 16]; }"
            " return a[0]; }"
        )
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0])
        assert verdict.kind == UNKNOWN

    def test_carried_maps_independent_to_absent(self):
        _, loop, tester = make_tester(
            "int a[8]; int b[8]; int main() { int i;"
            " for (i = 0; i < 5; i = i + 1) { a[i] = b[i] + 1; }"
            " return a[0]; }"
        )
        loads, stores = loop_accesses(loop)
        # Different base objects: unknown, conservative answer.
        assert tester.test_pair(stores[0], loads[0]).kind == UNKNOWN
        assert tester.carried(stores[0], loads[0]) == (True, None)


class TestScopes:
    SOURCE = """
int a[64];
int main(int k) {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    a[i + k + 2] = a[i + k] + 1;
  }
  return a[0];
}
"""

    def test_loop_scope_cancels_symbols(self):
        _, loop, tester = make_tester(self.SOURCE)
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0], scope="loop")
        assert verdict.kind == PROVEN_DEPENDENT
        assert verdict.distance == 2

    def test_function_scope_refuses_symbols(self):
        # k may differ between invocations, re-aligning the accesses:
        # the invocation-independent proof must not fire.
        _, loop, tester = make_tester(self.SOURCE)
        loads, stores = loop_accesses(loop)
        verdict = tester.test_pair(stores[0], loads[0], scope="function")
        assert verdict.kind == UNKNOWN
        assert not tester.proves_no_dependence(stores[0], loads[0])

    def test_function_scope_proves_constant_forms(self):
        module = compile_source(
            "int a[64]; int main() { int i;"
            " for (i = 0; i < 10; i = i + 1) { a[i + 20] = a[i] + 1; }"
            " return a[0]; }"
        )
        fn = module.get_function("main")
        fdt = FunctionDepTest(fn)
        loads = [i for i in fn.instructions() if isinstance(i, Load)]
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        assert fdt.proves_independent(stores[0], loads[0])

    def test_function_scope_needs_a_common_loop(self):
        module = compile_source(
            "int a[8]; int main() { int i; int s = 0;"
            " for (i = 0; i < 5; i = i + 1) { a[i] = i; }"
            " s = a[7]; return s; }"
        )
        fn = module.get_function("main")
        fdt = FunctionDepTest(fn)
        loads = [i for i in fn.instructions() if isinstance(i, Load)]
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        # The load sits outside the loop: no common loop, no proof.
        assert not fdt.proves_independent(stores[0], loads[0])


class TestFlagGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("NOELLE_DEPTEST", raising=False)
        assert not deptest_enabled()
        monkeypatch.setenv("NOELLE_DEPTEST", "0")
        assert not deptest_enabled()

    def test_enabled_by_flag(self, monkeypatch):
        monkeypatch.setenv("NOELLE_DEPTEST", "1")
        assert deptest_enabled()
