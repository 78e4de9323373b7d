"""The SCCDAG partitioner (Section 2.2, "Other abstractions").

Groups the nodes of an aSCCDAG into ordered partitions subject to the
constraints parallelization techniques need:

* **co-location** — SCCs connected by memory dependences must share a
  partition (queues forward registers, not memory);
* **orientation** — partitions respect the DAG's topological order, so
  inter-partition dependences all point forward (DSWP's pipeline);
* **balance** — partitions receive roughly equal cycle weight.

DSWP consumes this directly for its stage assignment; HELIX's
sequential-segment merging is the degenerate one-partition-per-SCC case.
"""

from __future__ import annotations

from ..interp.interp import INSTRUCTION_COSTS
from ..ir.instructions import Instruction
from .sccdag import SCC, SCCDAG


class SCCDAGPartitioner:
    """Builds constraint-respecting, balanced partitions of an aSCCDAG."""

    def __init__(self, sccdag: SCCDAG, exclude: set[int] | None = None):
        self.sccdag = sccdag
        #: ids of instructions excluded from partitioning (e.g. the control
        #: skeleton a technique replicates everywhere).
        self.exclude = exclude or set()

    # -- constraint groups -----------------------------------------------------------
    def colocated_groups(self) -> list[list[Instruction]]:
        """SCC members merged along memory edges, in topological order."""
        candidates: list[tuple[SCC, list[Instruction]]] = []
        for scc in self.sccdag.sccs:
            members = [
                i for i in scc.instructions if id(i) not in self.exclude
            ]
            if members:
                candidates.append((scc, members))
        parent: dict[int, int] = {id(s): id(s) for s, _ in candidates}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.sccdag.edges():
            if not edge.is_memory:
                continue
            a, b = id(edge.src.value), id(edge.dst.value)
            if a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        topo = {id(s): k for k, s in enumerate(self.sccdag.topological_order())}
        members_of: dict[int, list[Instruction]] = {}
        rank_of: dict[int, int] = {}
        for scc, members in candidates:
            root = find(id(scc))
            members_of.setdefault(root, []).extend(members)
            rank = topo.get(id(scc), 0)
            rank_of[root] = min(rank_of.get(root, rank), rank)
        ordered = sorted(members_of.items(), key=lambda kv: rank_of[kv[0]])
        return [members for _, members in ordered]

    # -- balanced assignment ------------------------------------------------------------
    def partition(self, max_partitions: int) -> list[list[Instruction]]:
        """Contiguous, load-balanced assignment of groups to partitions."""
        groups = self.colocated_groups()
        count = min(max_partitions, len(groups))
        if count == 0:
            return []
        costs = [
            sum(INSTRUCTION_COSTS.get(i.opcode, 1) for i in group)
            for group in groups
        ]
        target = sum(costs) / count
        partitions: list[list[Instruction]] = [[] for _ in range(count)]
        index = 0
        running = 0
        for group, cost in zip(groups, costs):
            if index < count - 1 and running >= target and partitions[index]:
                index += 1
                running = 0
            partitions[index].extend(group)
            running += cost
        return [p for p in partitions if p]
