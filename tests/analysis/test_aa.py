"""Alias analysis tests: basic AA rules and Andersen points-to."""

from repro import ir
from repro.ir.builder import build_function
from repro.analysis.aa import AliasResult, BasicAliasAnalysis, ModRefResult
from repro.analysis.pointsto import AndersenAliasAnalysis, PointsToAnalysis
from repro.frontend import compile_source


def find_inst(module, fn_name, predicate):
    for inst in module.get_function(fn_name).instructions():
        if predicate(inst):
            return inst
    raise AssertionError("instruction not found")


class TestBasicAA:
    def setup_method(self):
        self.aa = BasicAliasAnalysis()
        self.module = ir.Module("m")
        self.fn = self.module.add_function("f", ir.FunctionType(ir.VOID, []))
        self.builder, _ = build_function(self.fn)

    def test_distinct_allocas_no_alias(self):
        a = self.builder.alloca(ir.I64, "a")
        b = self.builder.alloca(ir.I64, "b")
        assert self.aa.alias(a, b) is AliasResult.NO_ALIAS

    def test_same_pointer_must_alias(self):
        a = self.builder.alloca(ir.I64, "a")
        assert self.aa.alias(a, a) is AliasResult.MUST_ALIAS

    def test_distinct_globals_no_alias(self):
        g1 = self.module.add_global("g1", ir.I64)
        g2 = self.module.add_global("g2", ir.I64)
        assert self.aa.alias(g1, g2) is AliasResult.NO_ALIAS

    def test_alloca_vs_global_no_alias(self):
        a = self.builder.alloca(ir.I64, "a")
        g = self.module.add_global("g", ir.I64)
        assert self.aa.alias(a, g) is AliasResult.NO_ALIAS

    def test_null_never_aliases(self):
        a = self.builder.alloca(ir.I64, "a")
        null = ir.ConstantNull(ir.PointerType(ir.I64))
        assert self.aa.alias(a, null) is AliasResult.NO_ALIAS

    def test_gep_constant_indices(self):
        arr = self.builder.alloca(ir.ArrayType(ir.I64, 10), "arr")
        p0 = self.builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(0)], "p0")
        p1 = self.builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(1)], "p1")
        p0b = self.builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(0)], "p0b")
        assert self.aa.alias(p0, p1) is AliasResult.NO_ALIAS
        assert self.aa.alias(p0, p0b) is AliasResult.MUST_ALIAS

    def test_gep_variable_index_may_alias(self):
        arr = self.builder.alloca(ir.ArrayType(ir.I64, 10), "arr")
        index = self.builder.add(ir.const_int(0), ir.const_int(1), "i")
        p_var = self.builder.elem_ptr(arr, [ir.const_int(0), index], "pv")
        p0 = self.builder.elem_ptr(arr, [ir.const_int(0), ir.const_int(0)], "p0")
        assert self.aa.alias(p_var, p0) is AliasResult.MAY_ALIAS

    def test_two_arguments_may_alias(self):
        module = ir.Module("m2")
        ptr_ty = ir.PointerType(ir.I64)
        fn = module.add_function("g", ir.FunctionType(ir.VOID, [ptr_ty, ptr_ty]), ["p", "q"])
        aa = BasicAliasAnalysis()
        assert aa.alias(fn.args[0], fn.args[1]) is AliasResult.MAY_ALIAS

    def test_nonescaping_alloca_vs_argument(self):
        module = ir.Module("m3")
        ptr_ty = ir.PointerType(ir.I64)
        fn = module.add_function("g", ir.FunctionType(ir.VOID, [ptr_ty]), ["p"])
        builder, _ = build_function(fn)
        local = builder.alloca(ir.I64, "local")
        builder.store(ir.const_int(1), local)
        builder.ret()
        aa = BasicAliasAnalysis()
        assert aa.alias(local, fn.args[0]) is AliasResult.NO_ALIAS

    def test_escaping_alloca_vs_argument(self):
        module = ir.Module("m4")
        ptr_ty = ir.PointerType(ir.I64)
        sink = module.declare_function("sink", ir.FunctionType(ir.VOID, [ptr_ty]))
        fn = module.add_function("g", ir.FunctionType(ir.VOID, [ptr_ty]), ["p"])
        builder, _ = build_function(fn)
        local = builder.alloca(ir.I64, "local")
        builder.call(sink, [local])  # escapes!
        builder.ret()
        aa = BasicAliasAnalysis()
        assert aa.alias(local, fn.args[0]) is AliasResult.MAY_ALIAS


class TestAndersen:
    def test_distinct_arrays_proven_by_pointsto(self):
        source = """
int a[10];
int b[10];
void kernel(int *p, int *q) {
  int i;
  for (i = 0; i < 10; i = i + 1) { q[i] = p[i] + 1; }
}
int main() { kernel(a, b); return b[0]; }
"""
        module = compile_source(source)
        basic = BasicAliasAnalysis()
        andersen = AndersenAliasAnalysis(module)
        kernel = module.get_function("kernel")
        p, q = kernel.args
        # Basic AA cannot distinguish two pointer arguments...
        assert basic.alias(p, q) is AliasResult.MAY_ALIAS
        # ...but whole-module points-to proves them disjoint.
        assert andersen.alias(p, q) is AliasResult.NO_ALIAS

    def test_same_array_through_both_args(self):
        source = """
int a[10];
void kernel(int *p, int *q) { q[0] = p[0]; }
int main() { kernel(a, a); return a[0]; }
"""
        module = compile_source(source)
        andersen = AndersenAliasAnalysis(module)
        kernel = module.get_function("kernel")
        p, q = kernel.args
        assert andersen.alias(p, q) is AliasResult.MAY_ALIAS

    def test_malloc_sites_distinct(self):
        source = """
int main() {
  int *p = (int *)malloc(4);
  int *q = (int *)malloc(4);
  p[0] = 1;
  q[0] = 2;
  return p[0] + q[0];
}
"""
        module = compile_source(source)
        andersen = AndersenAliasAnalysis(module)
        stores = [i for i in module.get_function("main").instructions()
                  if isinstance(i, ir.Store)]
        assert andersen.alias(stores[0].pointer, stores[1].pointer) is (
            AliasResult.NO_ALIAS
        )

    def test_indirect_call_targets(self):
        source = """
int selector = 1;
int inc(int x) { return x + 1; }
int dec(int x) { return x - 1; }
int main() {
  int (*op)(int);
  if (selector) { op = inc; } else { op = dec; }
  return op(5);
}
"""
        module = compile_source(source)
        pts = PointsToAnalysis(module)
        call = find_inst(module, "main", lambda i: isinstance(i, ir.Call) and i.is_indirect())
        targets = {f.name for f in pts.callees_of(call)}
        assert targets == {"inc", "dec"}

    def test_escape_to_unknown_external(self):
        module = ir.Module("esc")
        ptr_ty = ir.PointerType(ir.I64)
        unknown = module.declare_function("mystery", ir.FunctionType(ir.VOID, [ptr_ty]))
        fn = module.add_function("main", ir.FunctionType(ir.I64, []))
        builder, _ = build_function(fn)
        local = builder.alloca(ir.I64, "x")
        builder.call(unknown, [local])
        loaded = builder.load(local, "v")
        builder.ret(loaded)
        pts = PointsToAnalysis(module)
        obj = pts.object_for_site(local)
        assert obj is not None and pts.escapes(obj)

    def test_mod_ref_through_calls(self):
        source = """
int counter = 0;
int other = 0;
void bump() { counter = counter + 1; }
int main() {
  bump();
  return counter + other;
}
"""
        module = compile_source(source)
        andersen = AndersenAliasAnalysis(module)
        call = find_inst(module, "main", lambda i: isinstance(i, ir.Call))
        counter = module.get_global("counter")
        other = module.get_global("other")
        assert andersen.mod_ref(call, counter) & ModRefResult.MOD
        assert andersen.mod_ref(call, other) is ModRefResult.NO_MOD_REF

    def test_global_function_table(self):
        source = """
int one() { return 1; }
int two() { return 2; }
int (*table_entry)(void) = one;
int main() {
  int (*f)(void);
  f = table_entry;
  return f();
}
"""
        module = compile_source(source)
        pts = PointsToAnalysis(module)
        call = find_inst(module, "main", lambda i: isinstance(i, ir.Call) and i.is_indirect())
        targets = {f.name for f in pts.callees_of(call)}
        assert "one" in targets
