"""ProgramBuilder: appends primitive operations and tracks dependencies.

Dependencies emitted per operation are

* the last operation touching each involved ion (data/transport order), and
* the last operation touching each involved trap (chain-structure and serial
  gate execution order within a trap; the paper notes gates in a single trap
  execute serially).

Shuttle moves through segments and junctions involve no trap, so independent
shuttles remain free to overlap; the simulator adds segment/junction
exclusivity on top of these dependencies.

Most operations touch one ion (single-qubit gates, measurements and every
shuttle primitive), so they have at most two dependencies; those are ordered
directly instead of through a set and a sort.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MergeOp,
    MeasureOp,
    MoveOp,
    Operation,
    SplitOp,
    SwapGateOp,
)


class ProgramBuilder:
    """Accumulates operations with automatic dependency bookkeeping."""

    def __init__(self) -> None:
        self.operations: List[Operation] = []
        self._last_for_ion: Dict[int, int] = {}
        self._last_for_trap: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.operations)

    def _dependencies(self, ions: Iterable[int], traps: Iterable[str]) -> Tuple[int, ...]:
        last_for_ion = self._last_for_ion
        last_for_trap = self._last_for_trap
        deps = {
            last_for_ion[ion] for ion in ions if ion in last_for_ion
        }
        for trap in traps:
            if trap in last_for_trap:
                deps.add(last_for_trap[trap])
        if len(deps) > 1:
            return tuple(sorted(deps))
        return tuple(deps)

    def _one_ion_dependencies(self, ion: int, trap: Optional[str]) -> Tuple[int, ...]:
        """``_dependencies((ion,), (trap,))`` for a one-ion op (no trap for
        ``None``): at most two ids, deduplicated and ascending."""

        by_ion = self._last_for_ion.get(ion)
        by_trap = None if trap is None else self._last_for_trap.get(trap)
        if by_ion is None:
            return () if by_trap is None else (by_trap,)
        if by_trap is None or by_trap == by_ion:
            return (by_ion,)
        return (by_ion, by_trap) if by_ion < by_trap else (by_trap, by_ion)

    def _register(self, op: Operation, ions: Iterable[int], traps: Iterable[str]) -> Operation:
        self.operations.append(op)
        for ion in ions:
            self._last_for_ion[ion] = op.op_id
        for trap in traps:
            self._last_for_trap[trap] = op.op_id
        return op

    def _register_one_ion(self, op: Operation, ion: int, trap: Optional[str]) -> Operation:
        self.operations.append(op)
        self._last_for_ion[ion] = op.op_id
        if trap is not None:
            self._last_for_trap[trap] = op.op_id
        return op

    @property
    def next_id(self) -> int:
        """The op_id the next emitted operation will receive."""

        return len(self.operations)

    # ------------------------------------------------------------------ #
    # Emission helpers, one per primitive
    # ------------------------------------------------------------------ #
    def gate(self, *, trap: str, ions: Tuple[int, ...], qubits: Tuple[int, ...],
             name: str, chain_length: int, ion_distance: int = 0) -> GateOp:
        """Emit a single- or two-qubit gate inside ``trap``."""

        if len(ions) == 1:
            ion = ions[0]
            op = GateOp(
                op_id=self.next_id,
                dependencies=self._one_ion_dependencies(ion, trap),
                trap=trap, ions=ions, qubits=qubits, name=name,
                chain_length=chain_length, ion_distance=ion_distance,
            )
            return self._register_one_ion(op, ion, trap)
        op = GateOp(
            op_id=self.next_id,
            dependencies=self._dependencies(ions, [trap]),
            trap=trap, ions=ions, qubits=qubits, name=name,
            chain_length=chain_length, ion_distance=ion_distance,
        )
        return self._register(op, ions, [trap])

    def swap_gate(self, *, trap: str, ions: Tuple[int, int],
                  qubits: Tuple[Optional[int], Optional[int]],
                  chain_length: int, ion_distance: int) -> SwapGateOp:
        """Emit a gate-based SWAP (GS reordering)."""

        op = SwapGateOp(
            op_id=self.next_id,
            dependencies=self._dependencies(ions, [trap]),
            trap=trap, ions=ions, qubits=qubits,
            chain_length=chain_length, ion_distance=ion_distance,
        )
        return self._register(op, ions, [trap])

    def measure(self, *, trap: str, ion: int, qubit: int) -> MeasureOp:
        """Emit a measurement."""

        op = MeasureOp(
            op_id=self.next_id,
            dependencies=self._one_ion_dependencies(ion, trap),
            trap=trap, ion=ion, qubit=qubit,
        )
        return self._register_one_ion(op, ion, trap)

    def split(self, *, trap: str, ion: int, chain_size: int, side: str) -> SplitOp:
        """Emit a split of ``ion`` off ``trap``'s chain."""

        op = SplitOp(
            op_id=self.next_id,
            dependencies=self._one_ion_dependencies(ion, trap),
            trap=trap, ion=ion, chain_size=chain_size, side=side,
        )
        return self._register_one_ion(op, ion, trap)

    def move(self, *, ion: int, segment: str, length: int,
             from_node: str, to_node: str) -> MoveOp:
        """Emit a move through one segment."""

        op = MoveOp(
            op_id=self.next_id,
            dependencies=self._one_ion_dependencies(ion, None),
            ion=ion, segment=segment, length=length,
            from_node=from_node, to_node=to_node,
        )
        return self._register_one_ion(op, ion, None)

    def cross_junction(self, *, ion: int, junction: str, degree: int) -> JunctionCrossOp:
        """Emit a junction crossing."""

        op = JunctionCrossOp(
            op_id=self.next_id,
            dependencies=self._one_ion_dependencies(ion, None),
            ion=ion, junction=junction, junction_degree=degree,
        )
        return self._register_one_ion(op, ion, None)

    def merge(self, *, trap: str, ion: int, side: str) -> MergeOp:
        """Emit a merge of a travelling ion into ``trap``."""

        op = MergeOp(
            op_id=self.next_id,
            dependencies=self._one_ion_dependencies(ion, trap),
            trap=trap, ion=ion, side=side,
        )
        return self._register_one_ion(op, ion, trap)

    def ion_swap(self, *, trap: str, ions: Tuple[int, int], chain_size: int) -> IonSwapOp:
        """Emit a physical swap of two adjacent ions (one IS hop)."""

        op = IonSwapOp(
            op_id=self.next_id,
            dependencies=self._dependencies(ions, [trap]),
            trap=trap, ions=ions, chain_size=chain_size,
        )
        return self._register(op, ions, [trap])
