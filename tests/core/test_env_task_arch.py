"""Environment, Task, and Architecture abstraction tests."""

from repro import ir
from repro.ir.builder import build_function
from repro.core.architecture import ArchitectureDescription
from repro.core.environment import EnvironmentBuilder
from repro.core.task import Task, make_task_function
from repro.interp import Interpreter


class TestEnvironment:
    def _module_with_env(self):
        module = ir.Module("env")
        builder = EnvironmentBuilder(module)
        fake_int = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2), "a")
        fake_float = ir.BinaryOp("fadd", ir.const_float(1), ir.const_float(2), "b")
        env = builder.create([fake_int, fake_float], [fake_int], "testenv")
        return module, builder, env, fake_int, fake_float

    def test_layout(self):
        module, _, env, fi, ff = self._module_with_env()
        assert env.num_fields() == 3
        assert env.num_live_outs() == 1
        assert env.field_index(fi) == 0
        assert env.field_index(ff) == 1
        assert env.struct.fields == [ir.I64, ir.DOUBLE, ir.I64]

    def test_unique_struct_names(self):
        module = ir.Module("env2")
        builder = EnvironmentBuilder(module)
        a = builder.create([], [], "env")
        b = builder.create([], [], "env")
        assert a.struct.name != b.struct.name

    def test_roundtrip_through_memory(self):
        """Store a live-in, load it back inside a 'task'."""
        module = ir.Module("envrt")
        envb = EnvironmentBuilder(module)
        fn = module.add_function("main", ir.FunctionType(ir.I64, []))
        builder, _ = build_function(fn)
        seed = builder.add(ir.const_int(20), ir.const_int(22), "seed")
        env = envb.create([seed], [], "rt")
        env_ptr = envb.allocate(builder, env)
        envb.store_live_ins(builder, env, env_ptr)
        loaded = envb.load_field(builder, env, env_ptr, seed, "back")
        builder.ret(loaded)
        ir.verify_module(module)
        assert Interpreter(module).run().return_value == 42


class TestTask:
    def test_signature(self):
        module = ir.Module("t")
        envb = EnvironmentBuilder(module)
        env = envb.create([], [], "taskenv")
        task_fn = make_task_function(module, env, "worker")
        assert [a.name for a in task_fn.args] == ["env", "core_id", "num_cores"]
        assert task_fn.function_type.ret.is_void()
        assert task_fn.function_type.params[0] == env.pointer_type()

    def test_name_uniquing(self):
        module = ir.Module("t2")
        envb = EnvironmentBuilder(module)
        env = envb.create([], [], "e")
        a = make_task_function(module, env, "worker")
        b = make_task_function(module, env, "worker")
        assert a.name != b.name

    def test_clone_lookup(self):
        module = ir.Module("t3")
        envb = EnvironmentBuilder(module)
        env = envb.create([], [], "e")
        task = Task(make_task_function(module, env, "w"), env)
        original = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2))
        clone = ir.BinaryOp("add", ir.const_int(1), ir.const_int(2))
        task.clones[id(original)] = clone
        assert task.clone_of(original) is clone
        assert task.clone_of(clone) is None


class TestArchitecture:
    def test_haswell_like_matches_paper_platform(self):
        arch = ArchitectureDescription.haswell_like()
        assert arch.num_physical_cores == 12
        assert arch.smt_ways == 2
        assert arch.num_logical_cores == 24

    def test_latency_symmetric_and_zero_self(self):
        arch = ArchitectureDescription(4)
        assert arch.latency(1, 1) == 0
        assert arch.latency(0, 3) == arch.latency(3, 0)
        assert arch.latency(0, 3) > 0

    def test_numa_penalty(self):
        arch = ArchitectureDescription(8, numa_nodes=2)
        same_node = arch.latency(0, 1)
        cross_node = arch.latency(0, 7)
        assert arch.numa_node_of(0) != arch.numa_node_of(7)
        assert cross_node > same_node

    def test_smt_mapping(self):
        arch = ArchitectureDescription(4, smt_ways=2)
        assert arch.physical_core_of(0) == arch.physical_core_of(4)

    def test_measured_overrides(self):
        arch = ArchitectureDescription(4)
        arch.set_latency(0, 1, 7)
        assert arch.latency(0, 1) == 7
        assert arch.latency(1, 0) == 7
        arch.set_bandwidth(0, 1, 2.5)
        assert arch.bandwidth(1, 0) == 2.5

    def test_infinite_self_bandwidth(self):
        arch = ArchitectureDescription(2)
        assert arch.bandwidth(0, 0) == float("inf")
