"""The Table II benchmark suite and scaled-down variants.

:func:`table2_suite` builds every application at the parameters the paper
evaluates (Table II).  :func:`scaled_suite` builds structurally identical
circuits at a reduced qubit count so that the test suite and the default
benchmark harness stay fast; the full-scale suite is used by the figure
reproduction scripts and the EXPERIMENTS.md runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.apps.adder import cuccaro_adder_circuit
from repro.apps.bv import bernstein_vazirani_circuit
from repro.apps.qaoa import qaoa_circuit
from repro.apps.qft import qft_circuit
from repro.apps.squareroot import squareroot_circuit
from repro.apps.supremacy import supremacy_circuit
from repro.ir.circuit import Circuit

#: Canonical application names, in the order of Table II.
APPLICATION_NAMES = ("Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV")

#: Communication pattern column of Table II.
COMMUNICATION_PATTERNS = {
    "Supremacy": "Nearest neighbor gates",
    "QAOA": "Nearest neighbor gates",
    "SquareRoot": "Short and long-range gates",
    "QFT": "All distances",
    "Adder": "Short range gates",
    "BV": "Short and long-range gates",
}

#: Qubit and two-qubit gate counts the paper reports (for EXPERIMENTS.md).
PAPER_TABLE2 = {
    "Supremacy": {"qubits": 64, "two_qubit_gates": 560},
    "QAOA": {"qubits": 64, "two_qubit_gates": 1260},
    "SquareRoot": {"qubits": 78, "two_qubit_gates": 1028},
    "QFT": {"qubits": 64, "two_qubit_gates": 4032},
    "Adder": {"qubits": 64, "two_qubit_gates": 545},
    "BV": {"qubits": 64, "two_qubit_gates": 64},
}


def build_application(name: str, num_qubits: int = None) -> Circuit:
    """Build one application by name, optionally at a non-default size.

    ``num_qubits`` scales the instance: it is the total qubit count for every
    application except SquareRoot, where it is rounded to the nearest feasible
    ladder size.
    """

    # Only ``None`` selects the paper size: a zero or negative size is an
    # input error for the generators to reject, not a request for 64 qubits.
    size = 64 if num_qubits is None else num_qubits
    builders: Dict[str, Callable[[], Circuit]] = {
        "Supremacy": lambda: supremacy_circuit(size),
        "QAOA": lambda: qaoa_circuit(size),
        "SquareRoot": lambda: squareroot_circuit(_search_register(num_qubits)),
        "QFT": lambda: qft_circuit(size),
        "Adder": lambda: cuccaro_adder_circuit(_even(size)),
        "BV": lambda: bernstein_vazirani_circuit(size),
    }
    try:
        return builders[name]()
    except KeyError:
        valid = ", ".join(APPLICATION_NAMES)
        raise ValueError(f"unknown application {name!r}; expected one of {valid}")


def _search_register(num_qubits) -> int:
    """Search-register size for SquareRoot given a total qubit budget."""

    if num_qubits is None:
        return 40
    if num_qubits < 1:
        raise ValueError(f"SquareRoot needs a positive qubit count, got {num_qubits}")
    # total = n + (n - 2)  =>  n = (total + 2) / 2
    return max(3, (num_qubits + 2) // 2)


def _even(num_qubits: int) -> int:
    """Round down to an even number (the adder needs 2n + 2 qubits)."""

    return num_qubits if num_qubits % 2 == 0 else num_qubits - 1


def table2_suite() -> Dict[str, Circuit]:
    """Every Table II application at the paper's parameters."""

    return {name: build_application(name) for name in APPLICATION_NAMES}


def scaled_suite(num_qubits: int = 16) -> Dict[str, Circuit]:
    """Structurally identical applications at a reduced size.

    QAOA and Supremacy keep their layer structure, QFT/BV/Adder shrink with
    the register, and SquareRoot uses a smaller search register.  Useful for
    fast tests and the default benchmark harness.
    """

    if num_qubits < 8:
        raise ValueError("scaled suite needs at least 8 qubits")
    return {
        "Supremacy": supremacy_circuit(num_qubits, cycles=8),
        "QAOA": qaoa_circuit(num_qubits, layers=4),
        "SquareRoot": squareroot_circuit(max(4, (num_qubits + 2) // 2)),
        "QFT": qft_circuit(num_qubits),
        "Adder": cuccaro_adder_circuit(_even(num_qubits)),
        "BV": bernstein_vazirani_circuit(num_qubits),
    }


def application_summary(circuits: Dict[str, Circuit] = None) -> List[Dict[str, object]]:
    """Rows of Table II for a suite (defaults to the full-scale suite)."""

    circuits = circuits or table2_suite()
    rows = []
    for name in APPLICATION_NAMES:
        if name not in circuits:
            continue
        circuit = circuits[name]
        rows.append({
            "application": name,
            "qubits": circuit.num_qubits,
            "two_qubit_gates": circuit.num_two_qubit_gates,
            "communication_pattern": COMMUNICATION_PATTERNS[name],
            "paper_qubits": PAPER_TABLE2[name]["qubits"],
            "paper_two_qubit_gates": PAPER_TABLE2[name]["two_qubit_gates"],
        })
    return rows
