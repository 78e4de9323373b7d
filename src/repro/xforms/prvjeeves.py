"""PRVJeeves on NOELLE (Section 3, "PRVJeeves").

Selects the pseudo-random value generator (PRVG) per use site of a
randomized program (Leonard & Campanoni [CGO'20]).  Generators trade
statistical quality for speed; the tool keeps the expensive, high-quality
generator only where the program's *use* of the random value demands it.

NOELLE abstractions used (Table 4 row "PRVJ"): PDG+CG+DFE find the PRVG
allocations and uses and the data flow from generator to consumer, PRO
prunes the design space to hot call sites, L+LB+INV+IV recognize uses
inside loops (the hot case), and SCD places the rewritten uses.
"""

from __future__ import annotations

from ..core.noelle import Noelle
from ..interp.engine import invalidate_module
from .. import ir
from ..ir.intrinsics import declare_intrinsic

#: The design space: generator name -> (cost rank, quality rank).
#: Lower cost is faster; higher quality passes more statistical tests.
GENERATORS = {
    "rand_lcg": (1, 1),
    "rand_xorshift": (2, 2),
    "rand_pcg": (3, 3),
    "rand_mt": (4, 4),
}

#: The program's default generator (libc ``rand``) and its quality.
DEFAULT_GENERATOR = "rand"
DEFAULT_QUALITY = 4


class PRVJeeves:
    """The PRVG-selection custom tool."""

    name = "prvjeeves"

    def __init__(self, noelle: Noelle, hotness_threshold: float = 0.01):
        self.noelle = noelle
        #: Call sites colder than this fraction of the run are left alone
        #: (PRO prunes the design space).
        self.hotness_threshold = hotness_threshold

    def run(self) -> dict[str, int]:
        """Re-select generators; returns {generator name: sites}."""
        module = self.noelle.module
        profile = self.noelle.profile()
        pdg = self.noelle.pdg()
        selected: dict[str, int] = {}
        for fn in list(module.defined_functions()):
            for inst in list(fn.instructions()):
                if not isinstance(inst, ir.Call):
                    continue
                callee = inst.called_function()
                if callee is None or callee.name != DEFAULT_GENERATOR:
                    continue
                if profile is not None and profile.total_weight > 0:
                    hotness = profile.hotness([inst])
                    if hotness < self.hotness_threshold:
                        continue  # cold: not worth the risk or the churn
                quality = self._required_quality(inst, pdg)
                generator = self._cheapest_with_quality(quality)
                if generator == DEFAULT_GENERATOR:
                    continue
                replacement = declare_intrinsic(module, generator)
                inst.set_operand(0, replacement)
                selected[generator] = selected.get(generator, 0) + 1
            invalidate_module(module, fn)
        return selected

    # -- quality requirements ----------------------------------------------------------
    def _required_quality(self, call: ir.Call, pdg) -> int:
        """How statistically demanding are this value's consumers?

        The PDG walk classifies the use sites the paper distinguishes:
        values feeding floating-point mathematics (Monte-Carlo estimation)
        need a high-quality generator; values feeding cheap integer
        decisions (hash seeds, branching, array shuffling) tolerate a
        fast one.
        """
        demand = 1
        worklist: list[ir.Instruction] = [call]
        seen: set[int] = set()
        depth = 0
        while worklist and depth < 10_000:
            depth += 1
            inst = worklist.pop()
            if id(inst) in seen:
                continue
            seen.add(id(inst))
            for edge in pdg.dependents_of(inst):
                consumer = edge.dst.value
                if not isinstance(consumer, ir.Instruction):
                    continue
                if isinstance(consumer, ir.Cast) and consumer.opcode == "sitofp":
                    demand = max(demand, 3)
                if consumer.opcode in ("fmul", "fdiv", "fadd", "fsub"):
                    demand = max(demand, 3)
                if isinstance(consumer, ir.Call):
                    target = consumer.called_function()
                    if target is not None and target.name in (
                        "sqrt", "exp", "log", "pow", "sin", "cos",
                    ):
                        demand = max(demand, 4)
                worklist.append(consumer)
        return demand

    @staticmethod
    def _cheapest_with_quality(quality: int) -> str:
        candidates = [
            (cost, name)
            for name, (cost, q) in GENERATORS.items()
            if q >= quality
        ]
        if not candidates:
            return DEFAULT_GENERATOR
        return min(candidates)[1]
