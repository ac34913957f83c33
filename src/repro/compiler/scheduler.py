"""Gate scheduling order: earliest ready gate first (paper Section VI).

The scheduler walks the circuit's dependency DAG and repeatedly picks a gate
whose predecessors have all been emitted.  Among ready gates it prefers

1. gates that are *local* (both operands already co-located in one trap) --
   they cost no communication and executing them first cannot increase the
   shuttle count of the remaining gates;
2. earlier program order (the "earliest ready gate").

The preference function is injected so the compile loop can describe locality
against its live placement state without the scheduler importing it.

Implementation: ready gates live in a *two-tier heap* -- one min-heap of
locally-executable gates and one of gates that would need communication.
``next_gate`` pops the smallest local gate, falling back to the smallest
remote gate, in O(log W) for ready-list width W.  Single-qubit gates,
measurements and barriers are local by definition, so they enter the local
tier without a locality probe; only two-qubit gates are classified.  Their
locality only changes when one of their operands moves between traps, so the
compile loop reports shuttled qubits via :meth:`note_qubits_moved` and only
the affected gates are re-classified (lazy invalidation: the entry in the
stale tier is skipped when it surfaces).  Unlocking successors walks the
DAG's shared successor lists, and completion is a counter.  The compile loop
passes in the circuit's memoised DAG and operand table, so repeated compiles
of one circuit build neither.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set

from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.ir.gate import GateKind


class GateScheduler:
    """Iterator over gate indices in earliest-ready-gate-first order."""

    def __init__(self, circuit: Circuit,
                 is_local: Optional[Callable[[int], bool]] = None,
                 two_qubit_operands: Optional[Dict[int, tuple]] = None,
                 dag: Optional[DependencyDAG] = None) -> None:
        self.circuit = circuit
        self.dag = dag if dag is not None else DependencyDAG(circuit)
        #: Locality probe, consulted for two-qubit gates only.
        self._is_local = is_local or (lambda index: True)
        self._remaining_preds = self.dag.in_degrees()
        self._successors = self.dag.successor_lists
        self._num_gates = self.dag.num_gates
        self._num_emitted = 0
        #: Per-gate "already handed to mark_done" flags.
        self._emitted = bytearray(self._num_gates)
        #: Ready gate indices (the union of both heap tiers, without stale
        #: duplicates).
        self._ready: Set[int] = set()
        #: Current locality classification of every ready gate.
        self._local_flag: Dict[int, bool] = {}
        #: Two-qubit ready gates indexed by operand qubit, for invalidation.
        self._by_qubit: Dict[int, Set[int]] = {}
        self._local_heap: List[int] = []
        self._remote_heap: List[int] = []
        #: Operand qubits of every two-qubit gate (locality can only change
        #: for these); computed once instead of re-classifying gate names, or
        #: supplied by a caller that already has the table (the compile loop).
        if two_qubit_operands is None:
            two_qubit_operands = {
                index: gate.qubits for index, gate in enumerate(circuit.gates)
                if gate.kind is GateKind.TWO_QUBIT
            }
        self._two_qubit_operands = two_qubit_operands
        for index, degree in enumerate(self._remaining_preds):
            if degree == 0:
                self._push_ready(index)

    # ------------------------------------------------------------------ #
    def _push_ready(self, index: int) -> None:
        """Classify a newly-ready gate and push it into the right tier."""

        self._ready.add(index)
        operands = self._two_qubit_operands.get(index)
        if operands is None:
            self._local_flag[index] = True
            heapq.heappush(self._local_heap, index)
            return
        local = bool(self._is_local(index))
        self._local_flag[index] = local
        if local:
            heapq.heappush(self._local_heap, index)
        else:
            heapq.heappush(self._remote_heap, index)
        by_qubit = self._by_qubit
        for qubit in operands:
            members = by_qubit.get(qubit)
            if members is None:
                by_qubit[qubit] = {index}
            else:
                members.add(index)

    def note_qubits_moved(self, qubits) -> None:
        """Re-classify ready gates whose operand ``qubits`` changed traps.

        The compile loop calls this after emitting the shuttles of a gate;
        only gates touching a moved qubit can flip between the local and
        remote tiers.  Entries left behind in the old tier become stale and
        are skipped when popped.
        """

        for qubit in qubits:
            for index in self._by_qubit.get(qubit, ()):
                local = bool(self._is_local(index))
                if local == self._local_flag[index]:
                    continue
                self._local_flag[index] = local
                if local:
                    heapq.heappush(self._local_heap, index)
                else:
                    heapq.heappush(self._remote_heap, index)

    def _valid_top(self, heap: List[int], want_local: bool) -> Optional[int]:
        """Smallest non-stale entry of ``heap``, discarding stale heads."""

        while heap:
            index = heap[0]
            if index in self._ready and self._local_flag[index] == want_local:
                return index
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return bool(self._ready)

    @property
    def num_emitted(self) -> int:
        """Gates already handed out."""

        return self._num_emitted

    def done(self) -> bool:
        """Whether every gate has been scheduled."""

        return self._num_emitted == self._num_gates

    def ready_gates(self) -> List[int]:
        """Currently ready gate indices, in program order."""

        return sorted(self._ready)

    def next_gate(self) -> int:
        """Pop the next gate to compile.

        The smallest-index local ready gate wins; if no ready gate is local,
        the smallest-index ready gate overall (which then sits at the top of
        the remote tier).
        """

        if not self._ready:
            raise RuntimeError("no ready gates; scheduling is complete or stuck")
        chosen = self._valid_top(self._local_heap, want_local=True)
        if chosen is None:
            chosen = self._valid_top(self._remote_heap, want_local=False)
        if chosen is None:  # pragma: no cover - defensive; _ready is non-empty
            raise RuntimeError("scheduler heaps out of sync with ready set")
        heap = self._local_heap if self._local_flag[chosen] else self._remote_heap
        heapq.heappop(heap)
        self._ready.discard(chosen)
        del self._local_flag[chosen]
        operands = self._two_qubit_operands.get(chosen)
        if operands is not None:
            for qubit in operands:
                self._by_qubit[qubit].discard(chosen)
        return chosen

    def mark_done(self, index: int) -> None:
        """Record that ``index`` has been emitted; unlock its successors."""

        if self._emitted[index]:
            raise ValueError(f"gate {index} already marked done")
        self._emitted[index] = 1
        self._num_emitted += 1
        remaining = self._remaining_preds
        for successor in self._successors[index]:
            count = remaining[successor] - 1
            remaining[successor] = count
            if not count:
                self._push_ready(successor)

    def schedule(self) -> List[int]:
        """Convenience: the full schedule as a list of gate indices."""

        order = []
        while not self.done():
            index = self.next_gate()
            order.append(index)
            self.mark_done(index)
        return order
