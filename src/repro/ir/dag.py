"""Data-dependency DAG over a circuit's gate list.

Quantum IR has only data dependencies: two gates conflict exactly when they
share a qubit.  The scheduler (Section VI) needs, for every gate, the set of
gates that must complete first, and a way to walk the program in
"earliest ready gate first" order.  This module provides both.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.ir.circuit import Circuit


class DependencyDAG:
    """Gate-level dependency graph for a :class:`~repro.ir.circuit.Circuit`.

    Nodes are gate indices (positions in the circuit's gate list).  An edge
    ``i -> j`` means gate ``j`` uses a qubit last touched by gate ``i`` and
    therefore cannot start before ``i`` finishes.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        num_gates = len(circuit)
        # Dense index-keyed adjacency (every gate has an entry; most have one
        # or two edges) -- lists beat defaultdicts in this hot constructor.
        predecessors: List[List[int]] = [[] for _ in range(num_gates)]
        successors: List[List[int]] = [[] for _ in range(num_gates)]
        last_use: Dict[int, int] = {}
        for index, gate in enumerate(circuit):
            for qubit in gate.qubits:
                prev = last_use.get(qubit)
                if prev is not None:
                    predecessors[index].append(prev)
                    successors[prev].append(index)
                last_use[qubit] = index
        self._predecessors = predecessors
        self._successors = successors
        self._num_gates = num_gates

    # ------------------------------------------------------------------ #
    @property
    def num_gates(self) -> int:
        """Number of nodes (gates) in the DAG."""

        return self._num_gates

    def predecessors(self, index: int) -> Tuple[int, ...]:
        """Gate indices that must finish before gate ``index`` may start."""

        return tuple(self._predecessors[index])

    def successors(self, index: int) -> Tuple[int, ...]:
        """Gate indices that directly depend on gate ``index``."""

        return tuple(self._successors[index])

    @property
    def successor_lists(self) -> List[List[int]]:
        """Every gate's successor list, indexed by gate (read-only).

        The shared internal lists, without the per-call copy of
        :meth:`successors`: for hot loops that walk the whole DAG.
        """

        return self._successors

    def roots(self) -> List[int]:
        """Gates with no predecessors (ready at time zero)."""

        return [i for i in range(self._num_gates) if not self._predecessors[i]]

    def in_degrees(self) -> List[int]:
        """In-degree per gate index; useful for ready-list scheduling."""

        return [len(preds) for preds in self._predecessors]

    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """A topological order of gate indices (Kahn's algorithm).

        Ties are broken by picking the smallest ready index, which makes the
        result identical to the original gate list (dependencies always point
        backwards in program order) -- a useful invariant checked by tests.
        """

        in_degree = self.in_degrees()
        ready = [i for i in range(self._num_gates) if in_degree[i] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in self._successors[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != self._num_gates:
            raise RuntimeError("dependency graph has a cycle; IR is malformed")
        return order

    def ready_frontier(self, completed: Set[int]) -> List[int]:
        """Gates whose predecessors are all in ``completed`` and that are not
        themselves completed.  This is the "ready list" of the earliest-ready-
        gate-first heuristic."""

        frontier = []
        for index in range(self._num_gates):
            if index in completed:
                continue
            if all(p in completed for p in self._predecessors[index]):
                frontier.append(index)
        return frontier

    def layers(self) -> List[List[int]]:
        """Partition gates into ASAP layers (all gates in a layer are
        mutually independent)."""

        level: Dict[int, int] = {}
        for index in self.topological_order():
            preds = self._predecessors[index]
            level[index] = 1 + max((level[p] for p in preds), default=-1)
        grouped: Dict[int, List[int]] = defaultdict(list)
        for index, lev in level.items():
            grouped[lev].append(index)
        return [sorted(grouped[lev]) for lev in sorted(grouped)]

    def critical_path_length(self, weights: Sequence[float] = None) -> float:
        """Length of the longest dependency chain.

        ``weights`` optionally gives a duration per gate index; the default
        counts every gate as 1.
        """

        if weights is None:
            weights = [1.0] * self._num_gates
        finish: Dict[int, float] = {}
        for index in self.topological_order():
            start = max((finish[p] for p in self._predecessors[index]), default=0.0)
            finish[index] = start + weights[index]
        return max(finish.values(), default=0.0)

    def iter_program_order(self) -> Iterator[int]:
        """Iterate gate indices in original program order."""

        return iter(range(self._num_gates))
