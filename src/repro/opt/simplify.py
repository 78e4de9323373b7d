"""Clean-up passes: constant folding, DCE, and CFG simplification.

A small subset of LLVM's ``instcombine`` + ``simplifycfg`` + ``dce`` —
enough to keep frontend output tidy (no dead casts, folded literal
arithmetic, merged straight-line blocks) without disturbing loop shapes,
which the evaluation depends on.
"""

from __future__ import annotations

from ..analysis.cfg import remove_unreachable_blocks
from ..ir.instructions import (
    BinaryOp,
    Branch,
    Cast,
    CondBranch,
    ICmp,
    Instruction,
    Phi,
    Select,
)
from ..ir.module import Function, Module
from ..ir.types import IntType
from ..ir.values import ConstantInt, Value, eval_binary, eval_cast, eval_icmp


def simplify_module(module: Module) -> bool:
    changed = False
    for fn in module.defined_functions():
        changed |= simplify_function(fn)
    return changed


def simplify_function(fn: Function) -> bool:
    """Iterate local simplifications to a fixpoint."""
    any_change = False
    while True:
        changed = False
        changed |= fold_constants(fn)
        changed |= eliminate_dead_code(fn)
        changed |= simplify_branches(fn)
        changed |= merge_straightline_blocks(fn)
        if not changed:
            return any_change
        any_change = True


def fold_constants(fn: Function) -> bool:
    changed = False
    for block in fn.blocks:
        for inst in list(block.instructions):
            folded = _fold(inst)
            if folded is not None:
                inst.replace_all_uses_with(folded)
                inst.erase_from_parent()
                changed = True
    return changed


def _fold(inst: Instruction) -> Value | None:
    if isinstance(inst, BinaryOp):
        lhs, rhs = inst.lhs, inst.rhs
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            try:
                return ConstantInt(
                    inst.type,
                    eval_binary(inst.opcode, lhs.value, rhs.value, inst.type),
                )
            except (ZeroDivisionError, NotImplementedError):
                return None  # left for the executor to trap on
        # Algebraic identities.
        if isinstance(rhs, ConstantInt) and rhs.value == 0 and inst.opcode in (
            "add",
            "sub",
            "or",
            "xor",
            "shl",
            "ashr",
        ):
            return lhs
        if isinstance(lhs, ConstantInt) and lhs.value == 0 and inst.opcode == "add":
            return rhs
        if isinstance(rhs, ConstantInt) and rhs.value == 1 and inst.opcode in (
            "mul",
            "sdiv",
        ):
            return lhs
        if isinstance(lhs, ConstantInt) and lhs.value == 1 and inst.opcode == "mul":
            return rhs
    elif isinstance(inst, ICmp):
        # icmp ne (zext i1 %x), 0  ->  %x   (the canonical condition chain)
        if (
            inst.predicate == "ne"
            and isinstance(inst.rhs, ConstantInt)
            and inst.rhs.value == 0
            and isinstance(inst.lhs, Cast)
            and inst.lhs.opcode == "zext"
            and inst.lhs.value.type == IntType(1)
        ):
            return inst.lhs.value
        if isinstance(inst.lhs, ConstantInt) and isinstance(inst.rhs, ConstantInt):
            outcome = eval_icmp(
                inst.predicate,
                inst.lhs.value,
                inst.rhs.value,
                inst.lhs.type.width,
            )
            return ConstantInt(IntType(1), outcome)
    elif isinstance(inst, Cast):
        value = inst.value
        if (
            isinstance(value, ConstantInt)
            and inst.type.is_integer()
            and inst.opcode in ("sext", "trunc", "zext")
        ):
            return ConstantInt(
                inst.type,
                eval_cast(inst.opcode, value.value, value.type, inst.type),
            )
        if inst.opcode == "bitcast" and inst.type == value.type:
            return value
    elif isinstance(inst, Select):
        if isinstance(inst.condition, ConstantInt):
            return inst.true_value if inst.condition.value else inst.false_value
        if inst.true_value is inst.false_value:
            return inst.true_value
    return None


def eliminate_dead_code(fn: Function) -> bool:
    """Remove unused side-effect-free instructions (reverse order)."""
    changed = False
    again = True
    while again:
        again = False
        for block in fn.blocks:
            for inst in reversed(list(block.instructions)):
                if inst.has_side_effects() or inst.may_read_memory():
                    continue
                if isinstance(inst, Phi):
                    continue  # handled by mem2reg's phi pruning
                if not inst.is_used():
                    inst.erase_from_parent()
                    changed = True
                    again = True
    return changed


def simplify_branches(fn: Function) -> bool:
    """Turn cond_br on a constant into an unconditional branch."""
    changed = False
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, CondBranch) and isinstance(term.condition, ConstantInt):
            taken = term.true_block if term.condition.value else term.false_block
            dead = term.false_block if term.condition.value else term.true_block
            if dead is not taken:
                for phi in dead.phis():
                    phi.remove_incoming(block)
            term.erase_from_parent()
            block.append(Branch(taken))
            changed = True
    if changed:
        remove_unreachable_blocks(fn)
    return changed


def merge_straightline_blocks(fn: Function) -> bool:
    """Merge B into A when A->B is the only edge in and out.

    Skips loop headers' shapes implicitly: a header has two predecessors so
    it is never merged into its pre-header.
    """
    changed = False
    for block in list(fn.blocks):
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        succ = term.target
        if succ is block or succ is fn.entry:
            continue
        preds = succ.predecessors()
        if len(preds) != 1 or preds[0] is not block:
            continue
        if list(succ.phis()):
            # Single-predecessor phis are trivial; collapse them first.
            for phi in list(succ.phis()):
                value = phi.incoming_value_for(block)
                phi.replace_all_uses_with(value)
                phi.erase_from_parent()
        term.erase_from_parent()
        for inst in list(succ.instructions):
            inst.move_to_end(block)
        # Successor phis must now see `block` as the predecessor.
        new_term = block.terminator
        if new_term is not None:
            for next_succ in new_term.successors():
                for phi in next_succ.phis():
                    for i in range(1, len(phi.operands), 2):
                        if phi.operands[i] is succ:
                            phi.set_operand(i, block)
        succ.remove_from_parent()
        changed = True
    return changed
