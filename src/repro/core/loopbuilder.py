"""The loop builder abstraction (Table 1, "LB").

LB is to loops what ``IRBuilder`` is to instructions: the mechanism layer
for creating, modifying, and deleting loops.  It provides:

* canonicalization — pre-header creation, dedicated exits;
* hoisting — moving an instruction to the pre-header (LICM's mechanism);
* region cloning — copying a loop body into another function with value
  remapping (how the parallelizers build task bodies);
* loop splitting — dividing an iteration space into sub-loops, and
  first-iteration peeling built on it;
* shape conversion — both directions: while→do-while (rotation behind an
  entry guard) and do-while→while (peel one body copy, then move the test
  into a fresh pre-iteration header).
"""

from __future__ import annotations

from ..analysis.cfg import split_edge
from ..analysis.loopinfo import LoopInfo, NaturalLoop
from .. import ir
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CmpInst,
    CondBranch,
    ElemPtr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    TerminatorInst,
    Unreachable,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import Value


class LoopBuilder:
    """Loop-level transformation mechanisms for one function."""

    def __init__(self, fn: Function):
        self.fn = fn

    # -- canonicalization -----------------------------------------------------------
    def ensure_pre_header(self, loop: NaturalLoop) -> BasicBlock:
        """Guarantee a unique out-of-loop predecessor of the header."""
        entries = loop.entries()
        if len(entries) == 1 and len(entries[0].successors()) == 1:
            return entries[0]
        if len(entries) == 1:
            return split_edge(entries[0], loop.header)
        # Multiple entries: funnel them through a fresh block.
        pre = self.fn.add_block(f"{loop.header.name}.preheader")
        for phi in loop.header.phis():
            funnel = pre.insert(0, Phi(phi.type, f"{phi.name}.pre"))
            for value, pred in list(phi.incoming()):
                if not loop.contains_block(pred):
                    funnel.add_incoming(value, pred)
                    phi.remove_incoming(pred)
            phi.add_incoming(funnel, pre)
        pre.append(Branch(loop.header))
        for entry in entries:
            term = entry.terminator
            assert term is not None
            term.replace_successor(loop.header, pre)
        return pre

    def ensure_dedicated_exits(self, loop: NaturalLoop) -> list[BasicBlock]:
        """Make every exit block reachable only from inside the loop."""
        result = []
        for exit_block in loop.exit_blocks():
            outside_preds = [
                p for p in exit_block.predecessors() if not loop.contains_block(p)
            ]
            if outside_preds:
                for exiting in exit_block.predecessors():
                    if loop.contains_block(exiting):
                        result.append(split_edge(exiting, exit_block))
            else:
                result.append(exit_block)
        return result

    # -- hoisting ----------------------------------------------------------------------
    def hoist_to_pre_header(self, loop: NaturalLoop, inst: Instruction) -> None:
        """Move ``inst`` to the loop pre-header (used by LICM)."""
        pre = self.ensure_pre_header(loop)
        inst.move_to_end(pre)

    # -- cloning ------------------------------------------------------------------------
    def clone_blocks_into(
        self,
        target_fn: Function,
        blocks: list[BasicBlock],
        value_map: dict[int, Value],
        suffix: str = "clone",
    ) -> dict[int, BasicBlock]:
        """Clone ``blocks`` into ``target_fn``, rewriting operands.

        ``value_map`` maps id(original value) -> replacement; it is extended
        with every cloned instruction and block.  Operands with no mapping
        are kept as-is (constants, globals, and intentional live-ins).
        Returns the block mapping.
        """
        block_map: dict[int, BasicBlock] = {}
        for block in blocks:
            clone = target_fn.add_block(f"{block.name}.{suffix}")
            block_map[id(block)] = clone
            value_map[id(block)] = clone
        phis_to_fix: list[tuple[Phi, Phi]] = []
        for block in blocks:
            clone_block = block_map[id(block)]
            for inst in block.instructions:
                clone = self._clone_instruction(inst, value_map)
                clone_block.append(clone)
                value_map[id(inst)] = clone
                if isinstance(inst, Phi):
                    phis_to_fix.append((inst, clone))
        # Phi incoming values may be defined later in the region: wire them
        # after all clones exist.
        for original, clone in phis_to_fix:
            for value, pred in original.incoming():
                mapped_pred = value_map.get(id(pred))
                if not isinstance(mapped_pred, BasicBlock):
                    continue  # edge from outside the cloned region
                mapped_value = value_map.get(id(value), value)
                clone.add_incoming(mapped_value, mapped_pred)
        # Rewire operand references that were cloned after their users.
        for block in blocks:
            clone_block = block_map[id(block)]
            for inst in clone_block.instructions:
                if isinstance(inst, Phi):
                    continue
                for index, operand in enumerate(inst.operands):
                    mapped = value_map.get(id(operand))
                    if mapped is not None and mapped is not operand:
                        inst.set_operand(index, mapped)
        return block_map

    def _clone_instruction(
        self, inst: Instruction, value_map: dict[int, Value]
    ) -> Instruction:
        def m(value: Value) -> Value:
            return value_map.get(id(value), value)

        if isinstance(inst, BinaryOp):
            clone = BinaryOp(inst.opcode, m(inst.lhs), m(inst.rhs), inst.name)
        elif isinstance(inst, ICmp):
            clone = ICmp(inst.predicate, m(inst.lhs), m(inst.rhs), inst.name)
        elif isinstance(inst, FCmp):
            clone = FCmp(inst.predicate, m(inst.lhs), m(inst.rhs), inst.name)
        elif isinstance(inst, Alloca):
            clone = Alloca(inst.allocated_type, inst.name)
        elif isinstance(inst, Load):
            clone = Load(m(inst.pointer), inst.name)
        elif isinstance(inst, Store):
            clone = Store(m(inst.value), m(inst.pointer))
        elif isinstance(inst, ElemPtr):
            clone = ElemPtr(m(inst.base), [m(i) for i in inst.indices], inst.name)
        elif isinstance(inst, Call):
            clone = Call(m(inst.callee), [m(a) for a in inst.args], inst.name)
        elif isinstance(inst, Phi):
            clone = Phi(inst.type, inst.name)  # incoming wired by caller
        elif isinstance(inst, Select):
            clone = Select(
                m(inst.condition), m(inst.true_value), m(inst.false_value), inst.name
            )
        elif isinstance(inst, Cast):
            clone = Cast(inst.opcode, m(inst.value), inst.type, inst.name)
        elif isinstance(inst, Branch):
            clone = Branch(m(inst.target))
        elif isinstance(inst, CondBranch):
            clone = CondBranch(
                m(inst.condition), m(inst.true_block), m(inst.false_block)
            )
        elif isinstance(inst, Switch):
            clone = Switch(
                m(inst.value),
                m(inst.default),
                [(c, m(b)) for c, b in inst.cases()],
            )
        elif isinstance(inst, Ret):
            clone = Ret(m(inst.value) if inst.value is not None else None)
        elif isinstance(inst, Unreachable):
            clone = Unreachable()
        else:  # pragma: no cover - all instruction kinds covered above
            raise TypeError(f"cannot clone {inst!r}")
        return clone

    # -- splitting -----------------------------------------------------------------------
    def split_loop(self, loop: NaturalLoop, governing_iv, split_point: Value):
        """Split the iteration space of ``loop`` at ``split_point``.

        Produces a first loop running iterations with IV < split_point and a
        second loop (the original) running the rest.  Requires a governing
        IV with an entry edge through a pre-header.  Returns the new loop's
        header block.
        """
        pre = self.ensure_pre_header(loop)
        value_map: dict[int, Value] = {}
        block_map = self.clone_blocks_into(self.fn, loop.blocks, value_map, "split")
        first_header = block_map[id(loop.header)]
        # The clone's exit edges all go to the original pre-header target;
        # retarget them to a staging block that then enters the second loop.
        stage = self.fn.add_block(f"{loop.header.name}.stage")
        for block in loop.blocks:
            clone = block_map[id(block)]
            term = clone.terminator
            assert term is not None
            for succ in term.successors():
                if id(succ) not in {id(b) for b in block_map.values()}:
                    term.replace_successor(succ, stage)
        stage.append(Branch(loop.header))
        # First loop exits when IV reaches split_point instead of its bound.
        cloned_cmp = value_map.get(id(governing_iv.exit_compare))
        if isinstance(cloned_cmp, CmpInst):
            iv_side = 0 if _produced_by(cloned_cmp.lhs, value_map, governing_iv) else 1
            cloned_cmp.set_operand(1 - iv_side, split_point)
        # The pre-header now enters the first loop.
        pre_term = pre.terminator
        assert pre_term is not None
        pre_term.replace_successor(loop.header, first_header)
        # First-loop phis start from the original entry values; the original
        # loop's phis must now start from the first loop's final values.
        for phi in list(loop.header.phis()):
            cloned_phi = value_map[id(phi)]
            assert isinstance(cloned_phi, Phi)
            entry_value = None
            for value, inc_pred in list(phi.incoming()):
                if not loop.contains_block(inc_pred):
                    entry_value = value
                    phi.remove_incoming(inc_pred)
            assert entry_value is not None
            # Wire the entry edge of the cloned loop.
            cloned_phi.add_incoming(entry_value, pre)
            # The second loop starts where the first stopped.
            phi.add_incoming(cloned_phi, stage)
        return first_header

    # -- shape conversion ----------------------------------------------------------------
    def while_to_do_while(self, loop: NaturalLoop) -> BasicBlock | None:
        """Rotate a canonical while-shaped loop into do-while form.

        The loop must have a single latch, exit only through the header, and
        a header containing just phis, side-effect-free computation feeding
        the exit test, and the test itself (with no other in-loop users).
        The rotation installs an entry guard in the pre-header, moves the
        phis into the first body block (the new header), re-tests in the
        latch, and deletes the old header.  Returns the guard block, or
        None when the loop does not match.
        """
        header = loop.header
        term = header.terminator
        if not isinstance(term, CondBranch):
            return None
        latches = loop.latches()
        if len(latches) != 1 or latches[0] is header:
            return None
        latch = latches[0]
        in_body = (
            term.true_block if loop.contains_block(term.true_block) else term.false_block
        )
        exit_block = (
            term.false_block if loop.contains_block(term.true_block) else term.true_block
        )
        exits_on_true = term.true_block is exit_block
        if loop.contains_block(exit_block) or in_body is exit_block:
            return None
        if len(in_body.predecessors()) != 1:
            return None  # the body head must be private to the header
        for block in loop.blocks:
            if block is not header and any(
                not loop.contains_block(s) for s in block.successors()
            ):
                return None  # extra exits: leave the loop alone
        phis = list(header.phis())
        computations = [
            i for i in header.instructions if not isinstance(i, Phi) and i is not term
        ]
        for inst in computations:
            if inst.may_write_memory() or isinstance(inst, Call):
                return None
            for user in inst.users():
                if isinstance(user, Instruction) and user.parent is not header:
                    return None  # computation escapes the header
        live_out_phis = [
            p
            for p in phis
            if any(
                isinstance(u, Instruction) and not loop.contains(u)
                for u in p.users()
            )
        ]
        pre = self.ensure_pre_header(loop)
        if len(exit_block.predecessors()) != 1:
            exit_block = split_edge(header, exit_block)
            term = header.terminator  # split_edge rewired the branch

        entry_map: dict[int, Value] = {}
        latch_map: dict[int, Value] = {}
        for phi in phis:
            entry_map[id(phi)] = phi.incoming_value_for(pre)
            latch_map[id(phi)] = phi.incoming_value_for(latch)

        # Guard in the pre-header: recompute the test with entry values.
        pre.terminator.erase_from_parent()
        for inst in computations:
            clone = self._clone_instruction(inst, entry_map)
            pre.append(clone)
            entry_map[id(inst)] = clone
        guard_cond = entry_map.get(id(term.condition), term.condition)
        if exits_on_true:
            pre.append(CondBranch(guard_cond, exit_block, in_body))
        else:
            pre.append(CondBranch(guard_cond, in_body, exit_block))

        # Re-test in the latch with the next-iteration values.
        latch.terminator.erase_from_parent()
        for inst in computations:
            clone = self._clone_instruction(inst, latch_map)
            latch.append(clone)
            latch_map[id(inst)] = clone
        latch_cond = latch_map.get(id(term.condition), term.condition)
        if exits_on_true:
            latch.append(CondBranch(latch_cond, exit_block, in_body))
        else:
            latch.append(CondBranch(latch_cond, in_body, exit_block))

        # Move the phis into the new header (the body head).
        for phi in reversed(phis):
            entry_value = entry_map[id(phi)]
            latch_value = latch_map[id(phi)]
            phi.drop_all_operands()
            phi.move_before(in_body.instructions[0])
            phi.add_incoming(entry_value, pre)
            phi.add_incoming(latch_value, latch)

        # Pre-existing exit phis fed by the header: split their header edge
        # into the two new edges (guard and latch), mapping the values.
        for exit_phi in exit_block.phis():
            for value, pred in list(exit_phi.incoming()):
                if pred is header:
                    exit_phi.remove_incoming(header)
                    exit_phi.add_incoming(entry_map.get(id(value), value), pre)
                    exit_phi.add_incoming(latch_map.get(id(value), value), latch)

        # Values observed after the loop: merge guard/latch views at the exit.
        for phi in live_out_phis:
            exit_phi = exit_block.insert(0, Phi(phi.type, f"{phi.name}.lcssa"))
            for user in list(phi.users()):
                if isinstance(user, Instruction) and not loop.contains(user):
                    if user is exit_phi:
                        continue
                    for index, operand in enumerate(user.operands):
                        if operand is phi:
                            user.set_operand(index, exit_phi)
            exit_phi.add_incoming(entry_map[id(phi)], pre)
            exit_phi.add_incoming(latch_map[id(phi)], latch)

        # Delete the old header.
        header.erase()
        return pre

    def peel_first_iteration(self, loop: NaturalLoop, governing_iv) -> BasicBlock:
        """Peel one iteration off the front of a counted loop.

        Implemented as an iteration-space split at ``start + step`` (the
        governing IV must have a constant start and step): the first
        sub-loop runs exactly one iteration; the original loop continues
        from the second.  Returns the peeled copy's header.
        """
        from ..ir.values import ConstantInt

        start = governing_iv.start
        step = governing_iv.constant_step()
        if not isinstance(start, ConstantInt) or step is None:
            raise ValueError("peeling needs a constant start and step")
        split_point = ir.ConstantInt(start.type, start.value + step)
        return self.split_loop(loop, governing_iv, split_point)

    def do_while_to_while(self, loop: NaturalLoop) -> BasicBlock | None:
        """Translate a canonical do-while loop into while form.

        ``do { B } while (c)`` becomes ``B; while (c) { B }``: one peeled
        body copy runs unconditionally (preserving the at-least-once
        semantics), then the test moves into a fresh header evaluated
        *before* each remaining iteration.  Requirements mirror
        :meth:`while_to_do_while`: a single latch that is the only exiting
        block, with its test computation local to the latch.  Returns the
        new header, or None when the loop does not match.
        """
        latches = loop.latches()
        if len(latches) != 1:
            return None
        latch = latches[0]
        exiting = loop.exiting_blocks()
        if len(exiting) != 1 or exiting[0] is not latch:
            return None  # not do-while shaped
        term = latch.terminator
        if not isinstance(term, CondBranch):
            return None
        header = loop.header
        in_loop = (
            term.true_block
            if loop.contains_block(term.true_block)
            else term.false_block
        )
        exit_block = (
            term.false_block
            if loop.contains_block(term.true_block)
            else term.true_block
        )
        if in_loop is not header or loop.contains_block(exit_block):
            return None
        condition = term.condition
        if (
            isinstance(condition, Instruction)
            and loop.contains(condition)
            and condition.parent is not latch
        ):
            return None  # condition computed across blocks: unsupported
        phis = list(header.phis())
        computations = [
            i
            for i in latch.instructions
            if not isinstance(i, (Phi, TerminatorInst))
            and any(
                isinstance(u, Instruction) and (u is term or u.parent is latch)
                for u in i.users()
            )
        ]
        # Every latch computation feeding the test must be latch-local and
        # free of side effects (it will be re-evaluated in the new header).
        needed: set[int] = set()
        worklist: list[Instruction] = [term.condition] if isinstance(
            term.condition, Instruction
        ) else []
        while worklist:
            inst = worklist.pop()
            if id(inst) in needed or inst.parent is not latch:
                continue
            needed.add(id(inst))
            for operand in inst.operands:
                if isinstance(operand, Instruction):
                    worklist.append(operand)
        latch_values = {
            id(phi.incoming_value_for(latch)) for phi in phis
        }
        # Chain instructions that ARE a phi's latch value need no
        # re-evaluation: at the new header they are the moved phis.
        condition_chain = [
            i
            for i in latch.instructions
            if id(i) in needed
            and not isinstance(i, Phi)
            and id(i) not in latch_values
        ]
        chain_ids = {id(i) for i in condition_chain}
        # Every value the condition needs must be re-expressible at the new
        # header: a chain member, a header phi, or a phi's latch value.  A
        # control-merging phi in the latch (e.g. a short-circuit result)
        # cannot be re-evaluated.
        header_phi_ids = {id(p) for p in header.phis()}
        for inst in latch.instructions:
            if id(inst) not in needed:
                continue
            if id(inst) in chain_ids or id(inst) in latch_values:
                continue
            if isinstance(inst, Phi) and id(inst) in header_phi_ids:
                continue
            return None
        for inst in condition_chain:
            if inst.may_write_memory() or inst.may_read_memory():
                return None  # re-evaluation could change behaviour
            # The re-evaluated chain may only consume values available in
            # the new header: other chain members, the phis' latch values
            # (which become the moved phis), or values from outside the
            # loop.
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    continue
                if id(operand) in chain_ids or id(operand) in latch_values:
                    continue
                if not loop.contains(operand):
                    continue
                if isinstance(operand, Phi) and operand.parent is header:
                    continue  # header phis become the moved phis
                return None

        # Live-outs must be expressible at the exits after restructuring:
        # header phis, phi latch values, or condition-chain values.
        latch_value_ids = {
            id(phi.incoming_value_for(latch)) for phi in phis
        }
        phi_ids = {id(p) for p in phis}
        for inst in loop.instructions():
            for user in inst.users():
                if isinstance(user, Instruction) and not loop.contains(user):
                    if (
                        id(inst) not in phi_ids
                        and id(inst) not in latch_value_ids
                        and id(inst) not in chain_ids
                    ):
                        return None  # unsupported live-out shape

        pre = self.ensure_pre_header(loop)
        if len(exit_block.predecessors()) != 1:
            exit_block = split_edge(latch, exit_block)
            term = latch.terminator
        live_outs: list[Instruction] = []
        seen_live: set[int] = set()
        for inst in loop.instructions():
            for user in inst.users():
                if isinstance(user, Instruction) and not loop.contains(user):
                    if id(inst) not in seen_live:
                        seen_live.add(id(inst))
                        live_outs.append(inst)
                    break

        # 1. Peel: clone the whole body once, entered from the pre-header.
        entry_values = {
            id(phi): phi.incoming_value_for(pre) for phi in phis
        }
        value_map: dict[int, Value] = {}
        block_map = self.clone_blocks_into(self.fn, loop.blocks, value_map, "peel")
        peeled_header = block_map[id(header)]
        pre.terminator.erase_from_parent()
        pre.append(Branch(peeled_header))
        # Peeled phis collapse to their single (entry) value.
        for phi in phis:
            clone = value_map[id(phi)]
            if isinstance(clone, Phi):
                clone.replace_all_uses_with(entry_values[id(phi)])
                clone.erase_from_parent()

        # 2. New header: phis + re-evaluated test before each iteration.
        # The peeled latch's back edge is the new header's entry edge.
        peeled_latch = block_map[id(latch)]
        peeled_term = peeled_latch.terminator
        peeled_term.replace_successor(block_map[id(header)], new_header_ref := (
            self.fn.add_block(f"{header.name}.while")
        ))
        new_header = new_header_ref
        latch_map: dict[int, Value] = {}
        for phi in phis:
            latch_value = phi.incoming_value_for(latch)
            entry_value = value_map.get(id(latch_value), latch_value)
            moved = new_header.append(Phi(phi.type, f"{phi.name}.w"))
            latch_map[id(phi)] = latch_value
            phi.replace_all_uses_with(moved)
            phi.erase_from_parent()
            moved.add_incoming(entry_value, peeled_latch)
            moved.add_incoming(latch_value, latch)
        # 3. Test in the new header over the phi values.
        test_map: dict[int, Value] = {}
        moved_of: dict[int, Phi] = {}
        for phi, moved in zip(phis, list(new_header.phis())):
            test_map[id(latch_map[id(phi)])] = moved
            test_map[id(phi)] = moved  # direct phi uses in the chain
            moved_of[id(phi)] = moved
        for inst in condition_chain:
            clone = self._clone_instruction(inst, test_map)
            new_header.append(clone)
            test_map[id(inst)] = clone
        condition = test_map.get(id(term.condition), term.condition)
        exits_on_true = term.true_block is exit_block
        if exits_on_true:
            new_header.append(CondBranch(condition, exit_block, header))
        else:
            new_header.append(CondBranch(condition, header, exit_block))
        # 4. The latch now jumps unconditionally to the new header.
        term.erase_from_parent()
        latch.append(Branch(new_header))
        # 5. Pre-existing exit phis: edges now come from the new header and
        # the peeled latch instead of the original latch.
        for phi in exit_block.phis():
            for value, pred in list(phi.incoming()):
                if pred is latch:
                    phi.remove_incoming(latch)
                    phi.add_incoming(test_map.get(id(value), value), new_header)
                    phi.add_incoming(value_map.get(id(value), value), peeled_latch)
        # 6. Live-outs: at the exit, a loop value is reachable through two
        # paths — the peel (its clone) or the new header (its moved-phi /
        # re-evaluated-chain equivalent).  Merge them with exit phis.
        transform_block_ids = {id(new_header)}
        transform_block_ids.update(id(b) for b in block_map.values())
        for inst in live_outs:
            at_new_header = test_map.get(id(inst))
            if at_new_header is None and isinstance(inst, Phi):
                continue  # original phis were fully replaced already
            if at_new_header is None:
                continue
            at_peel = value_map.get(id(inst), inst)
            exit_phi = exit_block.insert(0, Phi(inst.type, f"{inst.name}.out"))
            for user in list(inst.users()):
                if not isinstance(user, Instruction) or user is exit_phi:
                    continue
                if loop.contains(user):
                    continue
                if user.parent is not None and id(user.parent) in (
                    transform_block_ids
                ):
                    continue  # the new header / peel are loop machinery
                for index, operand in enumerate(user.operands):
                    if operand is inst:
                        user.set_operand(index, exit_phi)
            exit_phi.add_incoming(at_new_header, new_header)
            exit_phi.add_incoming(at_peel, peeled_latch)
        ir.verify_function(self.fn)
        return new_header


def _produced_by(value: Value, value_map: dict[int, Value], iv) -> bool:
    """Is ``value`` the clone of the IV's SCC output feeding the compare?"""
    candidates = {id(value_map.get(id(iv.phi), iv.phi))}
    for inst in iv.update_instructions():
        candidates.add(id(value_map.get(id(inst), inst)))
    return id(value) in candidates
