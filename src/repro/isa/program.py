"""QCCDProgram: the compiled executable.

A program is the output of :func:`repro.compiler.compile_circuit`: an ordered
operation list with explicit dependencies, plus the initial placement of
program qubits onto physical ions and traps.  The order is a valid execution
order (every dependency points backwards); the simulator may overlap
operations that have no dependency and no resource conflict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.isa.operations import OpKind, Operation, SplitOp


@dataclass(frozen=True)
class InitialPlacement:
    """Where everything starts.

    Attributes
    ----------
    qubit_to_ion:
        Program qubit index -> physical ion id.
    ion_to_trap:
        Physical ion id -> trap name holding it at time zero.
    trap_chains:
        Trap name -> tuple of ion ids in chain order (head to tail).
    """

    qubit_to_ion: Dict[int, int]
    ion_to_trap: Dict[int, str]
    trap_chains: Dict[str, Tuple[int, ...]]

    def __post_init__(self) -> None:
        ions_in_chains = [ion for chain in self.trap_chains.values() for ion in chain]
        if len(ions_in_chains) != len(set(ions_in_chains)):
            raise ValueError("an ion appears in more than one trap chain")
        chain_set = set(ions_in_chains)
        for ion, trap in self.ion_to_trap.items():
            if ion not in chain_set:
                raise ValueError(f"ion {ion} has a trap but no chain position")
            if ion not in self.trap_chains.get(trap, ()):
                raise ValueError(f"ion {ion} not in the chain of its trap {trap}")
        for qubit, ion in self.qubit_to_ion.items():
            if ion not in self.ion_to_trap:
                raise ValueError(f"qubit {qubit} mapped to unplaced ion {ion}")

    def trap_of_qubit(self, qubit: int) -> str:
        """Trap initially holding ``qubit``."""

        return self.ion_to_trap[self.qubit_to_ion[qubit]]

    def occupancy(self) -> Dict[str, int]:
        """Initial number of ions per trap."""

        return {trap: len(chain) for trap, chain in self.trap_chains.items()}


@dataclass
class QCCDProgram:
    """A compiled QCCD executable."""

    operations: List[Operation]
    placement: InitialPlacement
    circuit_name: str = "circuit"
    device_name: str = "device"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for index, op in enumerate(self.operations):
            if op.op_id != index:
                raise ValueError(
                    f"operation at position {index} has op_id {op.op_id}; ids must be dense"
                )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __getitem__(self, index: int) -> Operation:
        return self.operations[index]

    def op_counts(self) -> Dict[OpKind, int]:
        """Histogram of operation kinds."""

        return dict(Counter(op.kind for op in self.operations))

    def count(self, kind: OpKind) -> int:
        """Number of operations of a given kind."""

        return sum(1 for op in self.operations if op.kind is kind)

    @property
    def num_two_qubit_gates(self) -> int:
        """Application-level entangling gates (excludes reordering swaps)."""

        return self.count(OpKind.GATE_2Q)

    @property
    def num_shuttles(self) -> int:
        """Number of trap-to-trap ion shuttles (counted as splits that leave a
        trap toward another trap, i.e. every SplitOp).

        Counted once per operation list: the count is memoised against the
        identity of ``operations``, like the simulator's lowering cache, so
        the sweeps that ask for it per design point do not rescan every op.
        """

        cached = getattr(self, "_num_shuttles", None)
        if cached is not None and cached[0] is self.operations:
            return cached[1]
        count = sum(1 for op in self.operations if isinstance(op, SplitOp))
        self._num_shuttles = (self.operations, count)
        return count

    @property
    def num_communication_ops(self) -> int:
        """Number of operations that exist purely for communication."""

        return sum(1 for op in self.operations if op.kind.is_communication)

    def communication_summary(self) -> Dict[str, int]:
        """Compact summary used by reports and the regression tests."""

        counts = self.op_counts()
        return {
            "splits": counts.get(OpKind.SPLIT, 0),
            "moves": counts.get(OpKind.MOVE, 0),
            "merges": counts.get(OpKind.MERGE, 0),
            "junction_crossings": counts.get(OpKind.JUNCTION, 0),
            "swap_gates": counts.get(OpKind.SWAP_GATE, 0),
            "ion_swaps": counts.get(OpKind.ION_SWAP, 0),
        }

    def validate(self) -> None:
        """Structural sanity checks used by tests and by the simulator.

        Thin wrapper over :func:`repro.analyze.verifier.quick_validate` --
        the cheap structural subset of the static verifier (placement
        consistency, referenced-ion existence, dependency ranges) that every
        compile pays for.  The full symbolic replay lives behind
        :func:`repro.analyze.verify_program` / ``repro check``; this method
        stays the one entry point so there is a single source of truth for
        program legality.
        """

        from repro.analyze.verifier import quick_validate

        quick_validate(self).raise_if_errors(ValueError)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"QCCDProgram({self.circuit_name!r} on {self.device_name!r}, "
                f"{len(self.operations)} ops)")
