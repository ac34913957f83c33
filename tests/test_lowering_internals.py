"""Internals of the cold compile -> lower -> simulate path.

* The simulator's columnar lowering (:class:`repro.sim.engine.OpColumns`)
  holds, at every index, exactly the fields of that operation, for every
  operation type (GS and IS reordering, linear and junction topologies).
* The per-circuit compile facts memoised on a :class:`Circuit` are dropped by
  ``append``: recompiling a mutated circuit equals compiling a fresh copy.
* ``QCCDProgram.num_shuttles`` is memoised per operation list and equals the
  number of splits.
"""

from __future__ import annotations

import pytest

from repro.apps import qft_circuit, scaled_suite
from repro.compiler import compile_circuit
from repro.hardware import build_device
from repro.ir.circuit import Circuit
from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MeasureOp,
    MergeOp,
    MoveOp,
    OpKind,
    SplitOp,
    SwapGateOp,
)
from repro.isa.program import QCCDProgram
from repro.sim.engine import _CODE_TO_KIND, OpColumns, _op_columns

#: Column -> the op attribute it mirrors, and its filler for op types that
#: have no such attribute.
FIELD_COLUMNS = {
    "traps": ("trap", ""),
    "ions": ("ion", -1),
    "chain_lengths": ("chain_length", 0),
    "ion_distances": ("ion_distance", 0),
    "chain_sizes": ("chain_size", 0),
    "lengths": ("length", 0),
    "junction_degrees": ("junction_degree", 0),
}


def _programs():
    suite = scaled_suite(16)
    for topology, reorder in (("L4", "GS"), ("L4", "IS"), ("G2x2", "GS")):
        device = build_device(topology, trap_capacity=8, reorder=reorder,
                              num_qubits=16)
        for name in ("QFT", "Supremacy"):
            circuit = suite[name].with_measurements()
            yield f"{topology}-{reorder}-{name}", compile_circuit(circuit, device)


PROGRAMS = dict(_programs())


def test_programs_cover_every_op_type():
    seen = {type(op) for program in PROGRAMS.values() for op in program}
    assert seen == {GateOp, SwapGateOp, MeasureOp, SplitOp, MoveOp,
                    JunctionCrossOp, MergeOp, IonSwapOp}


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_every_column_equals_the_op_field(key):
    program = PROGRAMS[key]
    columns = _op_columns(program)
    assert len(columns) == len(program)
    for index, op in enumerate(program):
        assert _CODE_TO_KIND[columns.codes[index]] is op.kind
        assert columns.deps[index] == op.dependencies
        assert columns.is_comm[index] == op.kind.is_communication
        assert len(op.resources) == 1
        assert columns.resource_names[columns.rids[index]] == op.resources[0]
        for column, (field, filler) in FIELD_COLUMNS.items():
            assert getattr(columns, column)[index] == getattr(op, field, filler), \
                f"{key} op {index} ({type(op).__name__}): column {column}"


@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_resource_ids_are_dense_in_first_use_order(key):
    columns = _op_columns(PROGRAMS[key])
    first_use = []
    for rid in columns.rids:
        if rid not in first_use:
            first_use.append(rid)
    assert first_use == list(range(len(columns.resource_names)))


def test_columns_are_cached_per_operation_list():
    program = PROGRAMS["L4-GS-QFT"]
    assert _op_columns(program) is _op_columns(program)
    copy = QCCDProgram(operations=list(program.operations),
                       placement=program.placement)
    assert _op_columns(copy) is not _op_columns(program)


def test_unknown_operation_type_is_rejected():
    class Bogus:
        dependencies = ()

    with pytest.raises(TypeError, match="Bogus"):
        OpColumns([Bogus()])


# --------------------------------------------------------------------------- #
# Per-circuit compile facts
# --------------------------------------------------------------------------- #
def test_append_after_compile_invalidates_the_memoised_facts():
    device = build_device("L3", trap_capacity=6, reorder="GS", num_qubits=12)
    circuit = qft_circuit(12)
    first = compile_circuit(circuit, device)
    assert circuit._derived  # the compile memoised its facts
    circuit.add("cx", 0, 11)
    assert "compile.lowered" not in circuit._derived
    circuit.add("swap", 3, 9)
    circuit.add("measure", 5)

    recompiled = compile_circuit(circuit, device)
    fresh = compile_circuit(circuit.copy(), device)
    assert repr(recompiled.operations) == repr(fresh.operations)
    assert recompiled.placement == fresh.placement
    assert recompiled.metadata == fresh.metadata
    assert len(recompiled) > len(first)


def test_repeated_compiles_share_facts_and_agree():
    device = build_device("L3", trap_capacity=6, reorder="IS", num_qubits=12)
    circuit = qft_circuit(12)
    first = compile_circuit(circuit, device)
    facts = circuit._derived["compile.lowered"]
    second = compile_circuit(circuit, device)
    assert circuit._derived["compile.lowered"] is facts
    assert repr(first.operations) == repr(second.operations)


def test_derived_is_recomputed_after_append():
    circuit = Circuit(3).add("h", 0)
    calls = []

    def count_gates(c):
        calls.append(1)
        return len(c)

    assert circuit.derived("n", count_gates) == 1
    assert circuit.derived("n", count_gates) == 1
    circuit.add("cx", 0, 2)
    assert circuit.derived("n", count_gates) == 2
    assert len(calls) == 2


def test_pickled_circuit_drops_the_memo():
    import pickle

    circuit = qft_circuit(8)
    circuit.derived("n", len)
    clone = pickle.loads(pickle.dumps(circuit))
    assert clone._derived == {}
    assert clone.gates == circuit.gates


# --------------------------------------------------------------------------- #
# num_shuttles
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("key", sorted(PROGRAMS))
def test_num_shuttles_equals_split_count(key):
    program = PROGRAMS[key]
    assert program.num_shuttles == program.count(OpKind.SPLIT)
    assert program.num_shuttles == sum(isinstance(op, SplitOp) for op in program)


def test_num_shuttles_follows_a_replaced_operation_list():
    program = PROGRAMS["L4-GS-QFT"]
    splits = program.num_shuttles
    assert splits > 0
    program_copy = QCCDProgram(operations=list(program.operations),
                               placement=program.placement)
    assert program_copy.num_shuttles == splits
    first_split = next(i for i, op in enumerate(program_copy)
                       if isinstance(op, SplitOp))
    program_copy.operations = program_copy.operations[:first_split]
    assert program_copy.num_shuttles == 0
