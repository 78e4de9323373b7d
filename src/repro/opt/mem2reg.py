"""Promote memory to registers (LLVM's ``mem2reg``).

Standard SSA construction: promotable allocas (scalar, only directly loaded
and stored) get phi nodes at iterated dominance frontiers, then a renaming
walk over the dominator tree replaces loads with reaching definitions.

This pass makes the frontend output analyzable: without it every local
variable round-trips through memory and no loop has SSA induction phis.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..analysis.dominators import DominatorTree
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import UndefValue, Value


def promote_allocas_module(module: Module) -> int:
    """Run mem2reg on every defined function; returns promoted-alloca count."""
    total = 0
    for fn in module.defined_functions():
        total += promote_allocas(fn)
    return total


def promote_allocas(fn: Function) -> int:
    """Promote all promotable allocas of ``fn`` to SSA values."""
    remove_unreachable_blocks(fn)
    promotable = [
        inst
        for inst in fn.entry.instructions
        if isinstance(inst, Alloca) and _is_promotable(inst)
    ]
    # Also consider allocas outside the entry (rare, from transformations).
    for block in fn.blocks[1:]:
        for inst in block.instructions:
            if isinstance(inst, Alloca) and _is_promotable(inst):
                promotable.append(inst)
    if not promotable:
        return 0
    dom = DominatorTree(fn)
    frontier = dom.dominance_frontier()
    phi_sites: dict[int, dict[int, Phi]] = {}  # id(alloca) -> {id(block): phi}
    for alloca in promotable:
        phi_sites[id(alloca)] = _insert_phis(alloca, dom, frontier)
    _rename(fn, dom, promotable, phi_sites)
    for alloca in promotable:
        for use in list(alloca.uses):
            user = use.user
            if isinstance(user, (Load, Store)) and user.parent is not None:
                user.erase_from_parent()
        alloca.erase_from_parent()
    _prune_dead_phis(fn)
    return len(promotable)


def _is_promotable(alloca: Alloca) -> bool:
    if not alloca.allocated_type.is_scalar():
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Load):
            continue
        if isinstance(user, Store) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


def _insert_phis(
    alloca: Alloca, dom: DominatorTree, frontier: dict[int, set[int]]
) -> dict[int, Phi]:
    def_blocks: list[BasicBlock] = []
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Store) and user.parent is not None:
            def_blocks.append(user.parent)
    phis: dict[int, Phi] = {}
    worklist = list(def_blocks)
    processed: set[int] = set()
    while worklist:
        block = worklist.pop()
        for frontier_id in frontier.get(id(block), ()):
            if frontier_id in phis:
                continue
            frontier_block = dom.block_by_id(frontier_id)
            phi = frontier_block.insert(
                0, Phi(alloca.allocated_type, f"{alloca.name}.phi")
            )
            phis[frontier_id] = phi
            if frontier_id not in processed:
                processed.add(frontier_id)
                worklist.append(frontier_block)
    return phis


def _rename(
    fn: Function,
    dom: DominatorTree,
    allocas: list[Alloca],
    phi_sites: dict[int, dict[int, Phi]],
) -> None:
    alloca_ids = {id(a): a for a in allocas}
    #: phi -> the alloca it materializes (to wire incoming values).
    phi_owner: dict[int, Alloca] = {}
    for alloca_id, sites in phi_sites.items():
        for phi in sites.values():
            phi_owner[id(phi)] = alloca_ids[alloca_id]

    entry_state: dict[int, Value] = {
        id(a): UndefValue(a.allocated_type) for a in allocas
    }
    # Iterative pre-order walk of the dominator tree carrying value stacks.
    stack: list[tuple[BasicBlock, dict[int, Value]]] = [(fn.entry, entry_state)]
    while stack:
        block, incoming_state = stack.pop()
        state = dict(incoming_state)
        for inst in list(block.instructions):
            if isinstance(inst, Phi) and id(inst) in phi_owner:
                state[id(phi_owner[id(inst)])] = inst
            elif isinstance(inst, Load):
                alloca = alloca_ids.get(id(inst.pointer))
                if alloca is not None:
                    inst.replace_all_uses_with(state[id(alloca)])
            elif isinstance(inst, Store):
                alloca = alloca_ids.get(id(inst.pointer))
                if alloca is not None:
                    state[id(alloca)] = inst.value
        for succ in block.successors():
            for phi in succ.phis():
                owner = phi_owner.get(id(phi))
                if owner is None:
                    continue
                if not any(pred is block for _, pred in phi.incoming()):
                    phi.add_incoming(state[id(owner)], block)
        for child in dom.children.get(id(block), []):
            stack.append((child, state))


def _prune_dead_phis(fn: Function) -> None:
    """Drop dead phis, including cycles of phis only feeding each other."""
    all_phis: list[Phi] = []
    for block in fn.blocks:
        all_phis.extend(block.phis())
    phi_ids = {id(p) for p in all_phis}
    # A phi is live iff some non-phi user (transitively) needs it.
    live: set[int] = set()
    worklist: list[Phi] = []
    for phi in all_phis:
        if any(not isinstance(u, Phi) or id(u) not in phi_ids for u in phi.users()):
            live.add(id(phi))
            worklist.append(phi)
    while worklist:
        phi = worklist.pop()
        for value, _ in phi.incoming():
            if isinstance(value, Phi) and id(value) in phi_ids and id(value) not in live:
                live.add(id(value))
                worklist.append(value)
    for phi in all_phis:
        if id(phi) not in live:
            phi.erase_from_parent()
    # Collapse trivial phis (single distinct incoming value).
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for phi in list(block.phis()):
                values = {id(v) for v, _ in phi.incoming() if v is not phi}
                if len(values) == 1:
                    only = next(v for v, _ in phi.incoming() if v is not phi)
                    phi.replace_all_uses_with(only)
                    phi.erase_from_parent()
                    changed = True