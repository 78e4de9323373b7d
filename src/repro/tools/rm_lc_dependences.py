"""``noelle-rm-lc-dependences`` — remove loop-carried data dependences.

Applies enabling transformations that erase loop-carried *memory*
dependences so the downstream parallelizers see cleaner aSCCDAGs.  The
workhorse implemented here is **in-loop scalar promotion**: an accumulator
kept in a memory cell (``*p += x`` style, or a global scalar updated every
iteration) creates a carried load/store cycle; when the cell provably has
no other readers or writers during the loop, the cell is promoted to a
register phi around the loop — after which the cycle is a *register*
reduction that RD recognizes and DOALL/HELIX parallelize.
"""

from __future__ import annotations

from ..analysis.aa import AliasResult
from ..analysis.loopinfo import LoopInfo, NaturalLoop
from ..core.noelle import Noelle
from .. import ir
from ..ir.builder import IRBuilder


def remove_loop_carried_dependences(noelle: Noelle) -> int:
    """Run the enabling transformations module-wide; returns rewrites."""
    promoted = 0
    for fn in list(noelle.module.defined_functions()):
        fn_promoted = 0
        changed = True
        while changed:
            changed = False
            info = LoopInfo(fn)
            for loop in info.loops():
                if _promote_scalar_cell(noelle, fn, loop):
                    fn_promoted += 1
                    changed = True
                    break  # loop info is stale
        if fn_promoted:
            # Promotion rewrote only this function: drop its shard and
            # loop info, keep the whole-module analyses warm.
            noelle.invalidate(fn)
            promoted += fn_promoted
    return promoted


class RemoveLoopCarriedDependences:
    """The tool as the pass manager runs every pass: built, then ``run``."""

    def __init__(self, noelle: Noelle):
        self.noelle = noelle

    def run(self) -> int:
        return remove_loop_carried_dependences(self.noelle)


def _promote_scalar_cell(noelle: Noelle, fn: ir.Function, loop: NaturalLoop) -> bool:
    """Find one promotable memory accumulator in ``loop`` and promote it."""
    aa = noelle.alias_analysis()
    loads: dict[int, list[ir.Load]] = {}
    stores: dict[int, list[ir.Store]] = {}
    pointers: dict[int, ir.Value] = {}
    calls: list[ir.Call] = []
    for inst in loop.instructions():
        if isinstance(inst, ir.Load):
            loads.setdefault(id(inst.pointer), []).append(inst)
            pointers[id(inst.pointer)] = inst.pointer
        elif isinstance(inst, ir.Store):
            stores.setdefault(id(inst.pointer), []).append(inst)
            pointers[id(inst.pointer)] = inst.pointer
        elif isinstance(inst, ir.Call):
            calls.append(inst)
    from ..analysis.aa import ModRefResult

    for ptr_id, pointer in pointers.items():
        if ptr_id not in loads or ptr_id not in stores:
            continue
        if isinstance(pointer, ir.Instruction) and loop.contains(pointer):
            continue  # the address itself varies inside the loop
        if not _cell_is_private(aa, pointer, pointers.values(), loop):
            continue
        # Calls in the loop must be unable to observe or clobber the cell.
        if any(
            aa.mod_ref(call, pointer) is not ModRefResult.NO_MOD_REF
            for call in calls
        ):
            continue
        if not _single_block_pattern(loads[ptr_id], stores[ptr_id], loop):
            continue
        _promote(fn, loop, pointer, loads[ptr_id], stores[ptr_id])
        return True
    return False


def _cell_is_private(aa, pointer: ir.Value, all_pointers, loop: NaturalLoop) -> bool:
    """No other pointer used in the loop may alias the cell."""
    for other in all_pointers:
        if other is pointer:
            continue
        if aa.alias(pointer, other) is not AliasResult.NO_ALIAS:
            return False
    return True


def _single_block_pattern(
    loads: list[ir.Load], stores: list[ir.Store], loop: NaturalLoop
) -> bool:
    """Canonical accumulator: one load, one later store, same block, and
    that block executes once per iteration (it dominates the latch —
    approximated here by being the header's unique in-loop successor or
    the header itself)."""
    if len(loads) != 1 or len(stores) != 1:
        return False
    load, store = loads[0], stores[0]
    if load.parent is not store.parent:
        return False
    block = load.parent
    if block.instructions.index(load) > block.instructions.index(store):
        return False
    from ..analysis.dominators import DominatorTree

    fn = block.parent
    dom = DominatorTree(fn)
    return all(
        dom.dominates_block(block, latch) for latch in loop.latches()
    )


def _promote(
    fn: ir.Function,
    loop: NaturalLoop,
    pointer: ir.Value,
    loads: list[ir.Load],
    stores: list[ir.Store],
) -> None:
    """Rewrite the cell into a register phi around the loop."""
    from ..core.loopbuilder import LoopBuilder

    load, store = loads[0], stores[0]
    lb = LoopBuilder(fn)
    pre = lb.ensure_pre_header(loop)
    exits = lb.ensure_dedicated_exits(loop)

    # Initial value: read the cell once before the loop.
    builder = IRBuilder()
    builder.position_before(pre.terminator)
    initial = builder.load(pointer, "promoted.init")

    # The carried value: a phi in the header.
    phi = loop.header.insert(0, ir.Phi(load.type, "promoted"))
    phi.add_incoming(initial, pre)
    for latch in loop.latches():
        phi.add_incoming(store.value, latch)

    load.replace_all_uses_with(phi)
    stored_value = store.value
    store_block = store.parent
    load.erase_from_parent()
    store.erase_from_parent()

    # Write the final value back once per exit.  The cell's content at an
    # exit is the last executed store: if the exit test runs *before* the
    # update (header exit), that is the phi; if the update dominates the
    # exiting branch (latch exit), it is the stored value.
    from ..analysis.dominators import DominatorTree

    dom = DominatorTree(fn)
    for exit_block in exits:
        exiting_preds = exit_block.predecessors()
        exit_builder = IRBuilder()
        first = exit_block.first_non_phi()
        if first is not None:
            exit_builder.position_before(first)
        else:
            exit_builder.position_at_end(exit_block)
        use_stored = all(
            pred.terminator is not None
            and id(pred) in {id(b) for b in loop.blocks}
            and dom.dominates_block(store_block, pred)
            for pred in exiting_preds
        )
        exit_builder.store(stored_value if use_stored else phi, pointer)
    ir.verify_function(fn)
