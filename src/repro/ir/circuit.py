"""Circuit: an ordered list of gates over ``num_qubits`` program qubits.

Circuits in this toolflow are always fully unrolled (Section VI of the paper):
no loops, no classical control.  The class therefore stays deliberately
simple -- an immutable-ish gate list with builder helpers, statistics used by
the experiment tables, and a lowering pass to the trapped-ion native set.

Facts derived from the gate list alone (the compiler's lowering, operand
tables and dependency DAG) are memoised on the circuit through
:meth:`Circuit.derived` and dropped by :meth:`Circuit.append`, the only path
that mutates the gate list.  A sweep that compiles one circuit for many
architectures therefore derives them once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.ir.gate import Gate, GateKind

_T = TypeVar("_T")


class Circuit:
    """A gate-level quantum program.

    Parameters
    ----------
    num_qubits:
        Number of program qubits.  Gates may only reference indices in
        ``[0, num_qubits)``.
    gates:
        Optional initial gate sequence.
    name:
        Optional human-readable name (used in reports and tables).
    """

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None,
                 name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: List[Gate] = []
        #: Memoised facts derived from the gate list (see :meth:`derived`).
        self._derived: Dict[str, object] = {}
        for gate in gates or ():
            self.append(gate)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def append(self, gate: Gate) -> "Circuit":
        """Append ``gate`` after validating its qubit indices."""

        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate} references qubit >= num_qubits ({self.num_qubits})"
            )
        self._gates.append(gate)
        if self._derived:
            self._derived = {}
        return self

    def derived(self, key: str, build: Callable[["Circuit"], _T]) -> _T:
        """``build(self)``, computed once per gate list and memoised under ``key``.

        For facts that depend on the gates alone.  :meth:`append` drops every
        memoised fact, so a mutated circuit never serves a stale one.  Callers
        must treat the returned object as read-only.
        """

        try:
            return self._derived[key]
        except KeyError:
            value = build(self)
            self._derived[key] = value
            return value

    def __getstate__(self) -> dict:
        # The memo is a cache: rebuilt on demand, never shipped to workers.
        state = self.__dict__.copy()
        state["_derived"] = {}
        return state

    def add(self, name: str, *qubits: int, params: Sequence[float] = ()) -> "Circuit":
        """Convenience builder: ``circuit.add("cx", 0, 1)``."""

        return self.append(Gate(name, tuple(qubits), tuple(params)))

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        """Append every gate in ``gates``."""

        for gate in gates:
            self.append(gate)
        return self

    def compose(self, other: "Circuit", qubit_offset: int = 0) -> "Circuit":
        """Append another circuit, shifting its qubits by ``qubit_offset``."""

        if other.num_qubits + qubit_offset > self.num_qubits:
            raise ValueError("composed circuit does not fit")
        for gate in other.gates:
            self.append(Gate(gate.name,
                             tuple(q + qubit_offset for q in gate.qubits),
                             gate.params))
        return self

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Return a shallow copy (gates are immutable, so sharing is safe)."""

        return Circuit(self.num_qubits, self._gates, name or self.name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def gates(self) -> Tuple[Gate, ...]:
        """The gate sequence as an immutable tuple."""

        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    @property
    def num_gates(self) -> int:
        """Total gate count, including measurements."""

        return len(self._gates)

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of entangling gates (the metric reported in Table II)."""

        return sum(1 for g in self._gates if g.is_two_qubit)

    @property
    def num_single_qubit_gates(self) -> int:
        """Number of single-qubit gates."""

        return sum(1 for g in self._gates if g.is_single_qubit)

    @property
    def num_measurements(self) -> int:
        """Number of measurement operations."""

        return sum(1 for g in self._gates if g.is_measurement)

    def gate_counts(self) -> Dict[str, int]:
        """Histogram of gate names."""

        return dict(Counter(g.name for g in self._gates))

    def two_qubit_pairs(self) -> List[Tuple[int, int]]:
        """Ordered list of (q0, q1) pairs touched by entangling gates."""

        return [(g.qubits[0], g.qubits[1]) for g in self._gates if g.is_two_qubit]

    def interaction_counts(self) -> Dict[Tuple[int, int], int]:
        """Undirected interaction histogram ``{(min, max): count}``.

        This is what the mapper uses to estimate communication affinity
        between program qubits.
        """

        counts: Dict[Tuple[int, int], int] = defaultdict(int)
        for a, b in self.two_qubit_pairs():
            key = (a, b) if a < b else (b, a)
            counts[key] += 1
        return dict(counts)

    def qubits_used(self) -> List[int]:
        """Sorted list of qubit indices referenced by at least one gate."""

        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return sorted(used)

    def depth(self) -> int:
        """Circuit depth counting every gate as one time step."""

        frontier = [0] * self.num_qubits
        for gate in self._gates:
            if gate.kind is GateKind.BARRIER:
                level = max(frontier[q] for q in gate.qubits)
                for q in gate.qubits:
                    frontier[q] = level
                continue
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def two_qubit_depth(self) -> int:
        """Depth counting only entangling gates."""

        frontier = [0] * self.num_qubits
        for gate in self._gates:
            if not gate.is_two_qubit:
                continue
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def communication_distance_histogram(self) -> Dict[int, int]:
        """Histogram of |q0 - q1| over entangling gates.

        Used to characterise the communication pattern column of Table II
        (nearest neighbour, short range, long range, all distances).
        """

        histogram: Dict[int, int] = defaultdict(int)
        for a, b in self.two_qubit_pairs():
            histogram[abs(a - b)] += 1
        return dict(histogram)

    def mean_interaction_distance(self) -> float:
        """Average |q0 - q1| over entangling gates (0.0 if there are none)."""

        pairs = self.two_qubit_pairs()
        if not pairs:
            return 0.0
        return sum(abs(a - b) for a, b in pairs) / len(pairs)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def with_measurements(self) -> "Circuit":
        """Return a copy with a final measurement on every used qubit.

        If the circuit already measures a qubit, no duplicate is added.
        """

        measured = {g.qubits[0] for g in self._gates if g.is_measurement}
        result = self.copy()
        for qubit in self.qubits_used():
            if qubit not in measured:
                result.add("measure", qubit)
        return result

    def lowered(self) -> "Circuit":
        """Lower to the trapped-ion native set: {1q rotations, MS-class 2q}.

        The paper treats every two-qubit gate as one Molmer-Sorensen
        interaction plus single-qubit corrections (Section VII.A, [76]).  We
        therefore rewrite SWAP as three MS-class gates and leave every other
        recognised two-qubit name in place (they are all one MS each).
        """

        gates: List[Gate] = []
        for gate in self._gates:
            if gate.is_two_qubit and gate.name.lower() == "swap":
                a, b = gate.qubits
                gates.append(Gate("cx", (a, b)))
                gates.append(Gate("cx", (b, a)))
                gates.append(Gate("cx", (a, b)))
            else:
                gates.append(gate)
        result = Circuit(self.num_qubits, name=self.name)
        # Every gate is either taken from this (already validated) circuit or
        # references the same qubits, so skip the per-append range checks.
        result._gates = gates
        return result

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "Circuit":
        """Return a copy with qubit indices renumbered through ``mapping``."""

        new_n = num_qubits if num_qubits is not None else self.num_qubits
        return Circuit(new_n, (g.remap(mapping) for g in self._gates), self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
                f"gates={self.num_gates}, twoq={self.num_two_qubit_gates})")
