"""Forest (FR), deterministic IDs, metadata, and profiler (PRO) tests."""

import gc
import weakref

from repro.core import Noelle
from repro.core.forest import Forest
from repro.core.metadata import IDAssigner, clean_noelle_metadata
from repro.core.profiler import Profiler, embed_profile, read_embedded_counts
from repro.frontend import compile_source


class TestForest:
    def _forest(self):
        forest = Forest()
        forest.add("root")
        forest.add("child1", "root")
        forest.add("child2", "root")
        forest.add("grandchild", "child1")
        return forest

    def test_structure(self):
        forest = self._forest()
        assert [r.value for r in forest.roots] == ["root"]
        assert forest.num_nodes() == 4
        assert forest.node_of("grandchild").depth() == 2
        assert {n.value for n in forest.leaves()} == {"child2", "grandchild"}

    def test_bottom_up_order(self):
        forest = self._forest()
        order = [n.value for n in forest.bottom_up()]
        assert order == ["grandchild", "child1", "child2", "root"]
        # LICM hoists in this order: it is the recursive post-order.
        for forest in self._hand_built():
            order = [n.value for n in forest.bottom_up()]
            assert order == self._recursive_post_order(forest)

    def test_remove_reconnects_children(self):
        forest = self._forest()
        forest.remove("child1")
        # grandchild is adopted by root.
        grandchild = forest.node_of("grandchild")
        assert grandchild.parent.value == "root"
        assert forest.num_nodes() == 3

    def test_remove_root_promotes_children(self):
        forest = self._forest()
        forest.remove("root")
        root_values = {r.value for r in forest.roots}
        assert root_values == {"child1", "child2"}
        assert forest.node_of("child1").parent is None

    def test_remove_unknown_is_noop(self):
        forest = self._forest()
        forest.remove("not-there")
        assert forest.num_nodes() == 4

    @staticmethod
    def _recursive_post_order(forest):
        """Children before parents, by recursion."""
        order = []

        def visit(node):
            for child in node.children:
                visit(child)
            order.append(node.value)

        for root in forest.roots:
            visit(root)
        return order

    def _hand_built(self):
        single = Forest()
        single.add("only")
        wide = Forest()
        for value, parent in (
            ("r0", None), ("r0.a", "r0"), ("r0.b", "r0"),
            ("r1", None), ("r1.a", "r1"), ("r1.b", "r1"), ("r1.c", "r1"),
            ("r1.b.x", "r1.b"), ("r1.b.y", "r1.b"), ("r1.b.x.1", "r1.b.x"),
            ("r2", None), ("r2.a", "r2"),
        ):
            wide.add(value, parent)
        dissolved = self._forest()
        dissolved.add("grandchild2", "child1")
        dissolved.add("child3", "root")
        dissolved.remove("child1")
        return [Forest(), single, self._forest(), wide, dissolved]

    def test_bottom_up_of_a_deep_chain(self):
        chain = list(range(5000))
        forest = Forest()
        forest.add(chain[0])
        for depth in range(1, len(chain)):
            forest.add(chain[depth], chain[depth - 1])
        order = [n.value for n in forest.bottom_up()]
        assert order == chain[::-1]
        assert forest.node_of(chain[-1]).depth() == 4999

    def test_a_dropped_forest_is_freed_by_refcount(self):
        forest = self._forest()
        node = forest.node_of("grandchild")
        assert node.parent is forest.node_of("child1")
        ref = weakref.ref(forest.node_of("root"))
        gc.collect()
        gc.disable()
        try:
            del forest, node
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()


SOURCE = """
int work(int x) { return x * 2 + 1; }
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 25; i = i + 1) {
    s = s + work(i);
  }
  return s;
}
"""


class TestIDs:
    def test_deterministic_across_builds(self):
        a = compile_source(SOURCE)
        b = compile_source(SOURCE)
        ids_a = IDAssigner(a)
        ids_b = IDAssigner(b)
        # Same program, same traversal: the Nth instruction gets ID N.
        for n in range(a.num_instructions()):
            inst_a = ids_a.instruction_by_id(n)
            inst_b = ids_b.instruction_by_id(n)
            assert inst_a.opcode == inst_b.opcode

    def test_roundtrip(self):
        module = compile_source(SOURCE)
        ids = IDAssigner(module)
        for fn in module.defined_functions():
            for inst in fn.instructions():
                ident = ids.id_of_instruction(inst)
                assert ids.instruction_by_id(ident) is inst

    def test_ids_write_nothing_into_the_ir(self):
        module = compile_source(SOURCE)
        IDAssigner(module)
        assert module.metadata == {}
        assert all(fn.metadata == {} for fn in module.functions.values())

    def test_clean_metadata(self):
        module = compile_source(SOURCE)
        embed_profile(module, Profiler(module).profile())
        module.metadata["custom.tag"] = 1
        module.get_function("work").metadata["noelle.task"] = True
        removed = clean_noelle_metadata(module)
        assert removed == 2
        assert module.metadata == {"custom.tag": 1}
        assert all(fn.metadata == {} for fn in module.functions.values())


class TestProfiler:
    def test_counts_and_hotness(self):
        module = compile_source(SOURCE)
        profile = Profiler(module).profile()
        noelle = Noelle(module)
        loop = noelle.loop_info(module.get_function("main")).loops()[0]
        assert profile.loop_invocations(loop) == 1
        assert profile.loop_total_iterations(loop) == 25
        assert profile.average_iterations_per_invocation(loop) == 25.0
        # The loop (with its callee) dominates the run.
        assert profile.loop_hotness(loop) > 0.8

    def test_function_statistics(self):
        module = compile_source(SOURCE)
        profile = Profiler(module).profile()
        work = module.get_function("work")
        main = module.get_function("main")
        assert profile.function_invocations(work) == 25
        assert profile.function_invocations(main) == 1
        assert profile.average_callee_invocations(main, work) == 25.0

    def test_branch_probability(self):
        module = compile_source(SOURCE)
        profile = Profiler(module).profile()
        main = module.get_function("main")
        header = [b for b in main.blocks if "cond" in b.name][0]
        body = [b for b in main.blocks if "body" in b.name][0]
        exit_block = [b for b in main.blocks if "end" in b.name][0]
        p_body = profile.branch_probability(header, body)
        p_exit = profile.branch_probability(header, exit_block)
        assert p_body > 0.9
        assert abs(p_body + p_exit - 1.0) < 1e-9

    def test_embed_and_read_back(self):
        module = compile_source(SOURCE)
        profile = Profiler(module).profile()
        embed_profile(module, profile)
        assert read_embedded_counts(module) == {
            id(i): profile.count_of(i)
            for fn in module.defined_functions()
            for i in fn.instructions()
        }
        # One module record; a function edited since is skipped.
        work = module.get_function("work")
        work.blocks[0].instructions[0].erase_from_parent()
        counts = read_embedded_counts(module)
        assert not any(id(i) in counts for i in work.instructions())
        main = module.get_function("main")
        assert all(id(i) in counts for i in main.instructions())

    def test_inclusive_hotness_includes_callees(self):
        module = compile_source(SOURCE)
        profile = Profiler(module).profile()
        main = module.get_function("main")
        loop = Noelle(module).loop_info(main).loops()[0]
        own = profile.weight_of_instructions(list(loop.instructions()))
        inclusive = profile.inclusive_weight_of_instructions(
            list(loop.instructions())
        )
        assert inclusive > own
