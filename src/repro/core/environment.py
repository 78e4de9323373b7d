"""The environment abstraction (Table 1, "ENV").

An *environment* carries the values flowing into and out of a task: the
live-ins and live-outs of the code region the task executes.  Conceptually
it is the paper's "array of pointers of variables"; here it is materialized
as a struct — one typed field per variable — allocated by the dispatching
code.  Tasks receive a pointer to it, load their live-ins from it, and
store their live-outs back, which is exactly the explicit value forwarding
the parallelizers need.

:class:`EnvironmentBuilder` creates, modifies, and queries environments
(the paper's *Environment Builder*).
"""

from __future__ import annotations

from .. import ir
from ..ir.builder import IRBuilder


class Environment:
    """The live-in/live-out layout of one task."""

    def __init__(self, struct: ir.StructType, live_ins: list[ir.Value],
                 live_outs: list[ir.Value]):
        self.struct = struct
        self.live_ins = list(live_ins)
        self.live_outs = list(live_outs)
        #: Field index of each value inside the struct.
        self.index_of: dict[int, int] = {}
        for index, value in enumerate(self.live_ins + self.live_outs):
            # A value that is both live-in and live-out keeps its first slot.
            self.index_of.setdefault(id(value), index)

    def num_fields(self) -> int:
        return len(self.live_ins) + self.num_live_outs()

    def num_live_outs(self) -> int:
        return len(self.live_outs)

    def field_index(self, value: ir.Value) -> int:
        return self.index_of[id(value)]

    def pointer_type(self) -> ir.PointerType:
        return ir.PointerType(self.struct)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Environment %{self.struct.name}: {len(self.live_ins)} in, "
            f"{len(self.live_outs)} out>"
        )


class EnvironmentBuilder:
    """Creates environments and the IR that populates/consumes them."""

    _counter = 0

    def __init__(self, module: ir.Module):
        self.module = module

    def create(
        self, live_ins: list[ir.Value], live_outs: list[ir.Value], name_hint: str = "env"
    ) -> Environment:
        """Define the environment struct type for the given boundary."""
        EnvironmentBuilder._counter += 1
        struct_name = f"{name_hint}.{EnvironmentBuilder._counter}"
        fields = [v.type for v in live_ins] + [v.type for v in live_outs]
        struct = self.module.add_struct(struct_name, fields)
        return Environment(struct, live_ins, live_outs)

    # -- caller side -------------------------------------------------------------
    def allocate(self, builder: IRBuilder, env: Environment) -> ir.Value:
        """Allocate one environment instance at the builder's position."""
        return builder.alloca(env.struct, "env")

    def store_live_ins(
        self, builder: IRBuilder, env: Environment, env_ptr: ir.Value
    ) -> None:
        """Populate the live-in fields from the surrounding code's values."""
        for value in env.live_ins:
            self.store_field(builder, env, env_ptr, value, value)

    def store_field(
        self,
        builder: IRBuilder,
        env: Environment,
        env_ptr: ir.Value,
        key: ir.Value,
        value: ir.Value,
    ) -> None:
        index = env.field_index(key)
        field_ptr = builder.elem_ptr(
            env_ptr, [ir.const_int(0), ir.const_int(index)], f"env.f{index}"
        )
        builder.store(value, field_ptr)

    def load_field(
        self,
        builder: IRBuilder,
        env: Environment,
        env_ptr: ir.Value,
        key: ir.Value,
        name: str = "env.load",
    ) -> ir.Value:
        index = env.field_index(key)
        field_ptr = builder.elem_ptr(
            env_ptr, [ir.const_int(0), ir.const_int(index)], f"env.f{index}"
        )
        return builder.load(field_ptr, name)
