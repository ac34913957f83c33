"""Simulation engine: replay a compiled program on a candidate device.

The engine conceptually evaluates three models -- durations (gate-time model
for the selected MS implementation, Table I shuttling times), noise (heating
and fidelity accumulation in program order) and timing (start/finish times
under dependency and exclusive-resource constraints).  The seed implementation
ran them as three separate passes over the operation objects, plus a *fourth*
pass (a second timing pass with communication durations zeroed) for the
computation/communication breakdown of Figure 6b.

This implementation makes a single dispatch-table-driven pass over a
*columnar lowering* of the program (:class:`OpColumns`): one list per field
-- integer kind code, dependency tuple, the op's one exclusive resource
interned to an int, trap, ion and the annotations the models need -- built
once per program and cached on it.  Re-simulating the same program under a
different gate implementation (the Figure 8 fan-out) therefore skips all of
the isinstance/property dispatch, and a compiled program adds a dozen lists,
not one object per op, for the garbage collector to track.  The fused loop
advances the real timeline, the zero-communication timeline (for the
Figure 6b breakdown), the per-trap busy accounting and the heating/fidelity
state together.  Every arithmetic expression matches the seed implementation
operation for operation, so all metrics are bit-identical to the three-pass
engine (the determinism golden tests assert this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.hardware.device import QCCDDevice
from repro.isa.operations import (
    GateOp,
    IonSwapOp,
    JunctionCrossOp,
    MergeOp,
    MeasureOp,
    MoveOp,
    OpKind,
    SplitOp,
    SwapGateOp,
)
from repro.isa.program import QCCDProgram
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import gate_time
from repro.models.heating import HeatingModel
from repro.obs.trace import span
from repro.sim.results import OperationRecord, SimulationResult

# --------------------------------------------------------------------------- #
# Columnar per-op lowering
# --------------------------------------------------------------------------- #
#: Integer kind codes used by the dispatch loops (cheaper than enum identity).
_GATE_1Q, _GATE_2Q, _SWAP_GATE, _MEASURE, _SPLIT, _MERGE, _MOVE, _JUNCTION, _ION_SWAP = range(9)

_CODE_TO_KIND: Dict[int, OpKind] = {
    _GATE_1Q: OpKind.GATE_1Q,
    _GATE_2Q: OpKind.GATE_2Q,
    _SWAP_GATE: OpKind.SWAP_GATE,
    _MEASURE: OpKind.MEASURE,
    _SPLIT: OpKind.SPLIT,
    _MERGE: OpKind.MERGE,
    _MOVE: OpKind.MOVE,
    _JUNCTION: OpKind.JUNCTION,
    _ION_SWAP: OpKind.ION_SWAP,
}

#: Codes whose operations exist purely to move state between traps (mirrors
#: :meth:`OpKind.is_communication`).
_COMM_CODES = frozenset({_SWAP_GATE, _SPLIT, _MERGE, _MOVE, _JUNCTION, _ION_SWAP})


class OpColumns:
    """Columnar, device-independent view of a program: one list per field.

    Index ``i`` of every column describes operation ``i``.  Fields an op
    type does not have hold a neutral filler (``""``, ``-1`` for ``ions``,
    ``0`` otherwise).

    Attributes
    ----------
    codes:
        Integer kind code (``_GATE_1Q`` ... ``_ION_SWAP``).
    deps:
        ``op.dependencies``.
    rids:
        The op's one exclusive resource (``op.resources[0]``), interned:
        ``resource_names[rids[i]]`` is its name.
    is_comm:
        Whether the op exists only for communication.
    traps:
        ``op.trap`` (``""`` for moves and junction crossings).
    ions:
        ``op.ion`` for single-ion ops (``-1`` for gates and ion swaps).
    chain_lengths, ion_distances:
        Gate and gate-swap annotations.
    chain_sizes:
        Split and ion-swap annotation.
    lengths:
        Move segment length.
    junction_degrees:
        Junction-crossing degree.
    resource_names:
        Interned resource names, in order of first use.
    """

    __slots__ = ("codes", "deps", "rids", "is_comm", "traps", "ions",
                 "chain_lengths", "ion_distances", "chain_sizes", "lengths",
                 "junction_degrees", "resource_names")

    def __init__(self, operations) -> None:
        count = len(operations)
        codes = [0] * count
        rids = [0] * count
        traps = [""] * count
        ions = [-1] * count
        chain_lengths = [0] * count
        ion_distances = [0] * count
        chain_sizes = [0] * count
        lengths = [0] * count
        junction_degrees = [0] * count
        intern: Dict[str, int] = {}
        for index, op in enumerate(operations):
            cls = type(op)
            if cls is GateOp:
                codes[index] = _GATE_2Q if len(op.ions) == 2 else _GATE_1Q
                resource = traps[index] = op.trap
                chain_lengths[index] = op.chain_length
                ion_distances[index] = op.ion_distance
            elif cls is SwapGateOp:
                codes[index] = _SWAP_GATE
                resource = traps[index] = op.trap
                chain_lengths[index] = op.chain_length
                ion_distances[index] = op.ion_distance
            elif cls is MeasureOp:
                codes[index] = _MEASURE
                resource = traps[index] = op.trap
                ions[index] = op.ion
            elif cls is SplitOp:
                codes[index] = _SPLIT
                resource = traps[index] = op.trap
                ions[index] = op.ion
                chain_sizes[index] = op.chain_size
            elif cls is MergeOp:
                codes[index] = _MERGE
                resource = traps[index] = op.trap
                ions[index] = op.ion
            elif cls is MoveOp:
                codes[index] = _MOVE
                resource = op.segment
                ions[index] = op.ion
                lengths[index] = op.length
            elif cls is JunctionCrossOp:
                codes[index] = _JUNCTION
                resource = op.junction
                ions[index] = op.ion
                junction_degrees[index] = op.junction_degree
            elif cls is IonSwapOp:
                codes[index] = _ION_SWAP
                resource = traps[index] = op.trap
                chain_sizes[index] = op.chain_size
            else:
                raise TypeError(f"unknown operation type: {cls.__name__}")
            rid = intern.get(resource)
            if rid is None:
                rid = intern[resource] = len(intern)
            rids[index] = rid
        self.codes = codes
        self.deps = [op.dependencies for op in operations]
        self.rids = rids
        self.is_comm = [code in _COMM_CODES for code in codes]
        self.traps = traps
        self.ions = ions
        self.chain_lengths = chain_lengths
        self.ion_distances = ion_distances
        self.chain_sizes = chain_sizes
        self.lengths = lengths
        self.junction_degrees = junction_degrees
        self.resource_names: Tuple[str, ...] = tuple(intern)

    def __len__(self) -> int:
        return len(self.codes)


def _op_columns(program: QCCDProgram) -> OpColumns:
    """Lower ``program`` to :class:`OpColumns`; cached on the program.

    The cache key is the identity of the operation list, so the (immutable
    in practice) program can be re-simulated under many devices without
    re-lowering.
    """

    cached = getattr(program, "_sim_columns", None)
    if cached is not None and cached[0] is program.operations:
        return cached[1]
    program._sim_durations = {}
    columns = OpColumns(program.operations)
    program._sim_columns = (program.operations, columns)
    return columns


def _durations(program: QCCDProgram, columns: OpColumns,
               device: QCCDDevice) -> List[float]:
    """Duration of every operation under the device's performance models.

    Two-qubit gate times are memoised by ``(ion_distance, chain_length)`` --
    the gate-time formulas are pure, and large circuits revisit a handful of
    distinct geometries thousands of times.  The whole duration list is
    additionally memoised per (gate implementation, physical model): in the
    Figure 8 fan-out the same program is re-simulated under several devices
    that differ only in those two (hashable, frozen) inputs.
    """

    memo = getattr(program, "_sim_durations", None)
    if memo is not None:
        key = (device.gate, device.model)
        durations = memo.get(key)
        if durations is not None:
            return durations

    shuttle = device.model.shuttle
    single = device.model.single_qubit
    gate = device.gate
    single_gate_time = single.gate_time
    measurement_time = single.measurement_time
    split_time = shuttle.split
    merge_time = shuttle.merge
    move_segment = shuttle.move_segment
    ion_swap_time = shuttle.split + shuttle.ion_rotation + shuttle.merge
    ms_cache: Dict[Tuple[int, int], float] = {}
    junction_cache: Dict[int, float] = {}

    ion_distances = columns.ion_distances
    chain_lengths = columns.chain_lengths
    durations: List[float] = []
    append = durations.append
    for index, code in enumerate(columns.codes):
        if code == _GATE_2Q or code == _SWAP_GATE:
            key = (ion_distances[index], chain_lengths[index])
            one_ms = ms_cache.get(key)
            if one_ms is None:
                one_ms = gate_time(gate, distance=key[0], chain_length=key[1])
                ms_cache[key] = one_ms
            append(one_ms if code == _GATE_2Q else SwapGateOp.MS_GATES_PER_SWAP * one_ms)
        elif code == _GATE_1Q:
            append(single_gate_time)
        elif code == _MEASURE:
            append(measurement_time)
        elif code == _SPLIT:
            append(split_time)
        elif code == _MERGE:
            append(merge_time)
        elif code == _MOVE:
            append(move_segment * columns.lengths[index])
        elif code == _JUNCTION:
            degree = columns.junction_degrees[index]
            value = junction_cache.get(degree)
            if value is None:
                value = shuttle.junction_time(degree)
                junction_cache[degree] = value
            append(value)
        else:  # _ION_SWAP
            append(ion_swap_time)
    if memo is not None:
        memo[(device.gate, device.model)] = durations
    return durations


# --------------------------------------------------------------------------- #
# Noise accumulator
# --------------------------------------------------------------------------- #
class _NoiseState:
    """Mutable accumulator for the heating/fidelity bookkeeping."""

    def __init__(self, program: QCCDProgram, device: QCCDDevice) -> None:
        self.trap_energy: Dict[str, float] = {
            trap.name: 0.0 for trap in device.topology.traps
        }
        self.transit_energy: Dict[int, float] = {}
        self.occupancy: Dict[str, int] = {trap.name: 0 for trap in device.topology.traps}
        for trap_name, chain in program.placement.trap_chains.items():
            self.occupancy[trap_name] = len(chain)
        self.peak_occupancy: Dict[str, int] = dict(self.occupancy)
        self.log_fidelity: float = 0.0
        self.op_fidelities: List[float] = []
        self.background_error: float = 0.0
        self.motional_error: float = 0.0
        self.num_ms_gates: int = 0
        self.max_energy: float = 0.0

    def bump_energy(self, trap: str, value: float) -> None:
        self.trap_energy[trap] = value
        if value > self.max_energy:
            self.max_energy = value

    def bump_occupancy(self, trap: str, delta: int) -> None:
        self.occupancy[trap] += delta
        if self.occupancy[trap] > self.peak_occupancy[trap]:
            self.peak_occupancy[trap] = self.occupancy[trap]


# --------------------------------------------------------------------------- #
# The fused pass
# --------------------------------------------------------------------------- #
def simulate(program: QCCDProgram, device: QCCDDevice, *,
             keep_timeline: bool = False,
             with_breakdown: bool = True) -> SimulationResult:
    """Simulate ``program`` on ``device`` and return the metrics.

    Parameters
    ----------
    keep_timeline:
        Also record a per-operation (start, finish, fidelity) timeline.
    with_breakdown:
        Also advance the zero-communication timeline that produces the
        computation versus communication time split of Figure 6b.
    """

    with span("sim.simulate", circuit=program.circuit_name,
              ops=len(program), gate=device.gate.value):
        return _simulate(program, device, keep_timeline=keep_timeline,
                         with_breakdown=with_breakdown)


def _simulate(program: QCCDProgram, device: QCCDDevice, *,
              keep_timeline: bool, with_breakdown: bool) -> SimulationResult:
    columns = _op_columns(program)
    resource_names = columns.resource_names
    durations = _durations(program, columns, device)
    num_ops = len(columns)
    num_resources = len(resource_names)
    codes = columns.codes
    all_deps = columns.deps
    rids = columns.rids
    all_is_comm = columns.is_comm
    traps = columns.traps
    ions = columns.ions

    heating = HeatingModel(device.model.heating)
    fidelity_model = FidelityModel(device.model.fidelity)
    noise = _NoiseState(program, device)
    fidelity_params = fidelity_model.params
    min_fidelity = fidelity_params.min_fidelity
    error_rate = fidelity_params.background_heating_rate
    background_rate = device.model.heating.background_rate
    single_qubit_fid = fidelity_model.single_qubit_fidelity()
    measurement_fid = fidelity_model.measurement_fidelity()
    instability_cache: Dict[int, float] = {}
    trap_energy = noise.trap_energy
    transit_energy = noise.transit_energy
    ms_per_swap = SwapGateOp.MS_GATES_PER_SWAP
    # Log-fidelity accumulation inlined into the loop (a method call per op
    # is measurable at sweep scale).  Appending 1.0 without touching the
    # accumulator is exact: log(1.0) == +0.0 and x + 0.0 == x for every
    # value the accumulator can take (0.0 or a negative sum or -inf).
    log_fid = 0.0
    neg_inf = -math.inf
    log = math.log
    op_fidelities: List[float] = []
    fid_append = op_fidelities.append

    finish: List[float] = [0.0] * num_ops
    free_at: List[float] = [0.0] * num_resources
    finish_c: List[float] = [0.0] * num_ops if with_breakdown else []
    free_c: List[float] = [0.0] * num_resources
    gate_busy: List[float] = [0.0] * num_resources
    comm_busy: List[float] = [0.0] * num_resources

    op_count_by_code = [0] * 9
    first_seen_codes: List[int] = []

    for index in range(num_ops):
        code = codes[index]
        deps = all_deps[index]
        rid = rids[index]
        duration = durations[index]
        is_comm = all_is_comm[index]
        if not op_count_by_code[code]:
            first_seen_codes.append(code)
        op_count_by_code[code] += 1

        # --- real timeline -------------------------------------------- #
        # Every op occupies exactly one resource, whose free time is >= 0.
        ready = 0.0
        for dep in deps:
            value = finish[dep]
            if value > ready:
                ready = value
        avail = free_at[rid]
        start = ready if ready >= avail else avail
        end = start + duration
        finish[index] = end
        free_at[rid] = end
        if is_comm:
            comm_busy[rid] += duration
        else:
            gate_busy[rid] += duration

        # --- zero-communication timeline (Figure 6b breakdown) -------- #
        if with_breakdown:
            cduration = 0.0 if is_comm else duration
            ready = 0.0
            for dep in deps:
                value = finish_c[dep]
                if value > ready:
                    ready = value
            avail = free_c[rid]
            cstart = ready if ready >= avail else avail
            cend = cstart + cduration
            finish_c[index] = cend
            free_c[rid] = cend

        # --- noise ----------------------------------------------------- #
        if code == _GATE_2Q or code == _SWAP_GATE:
            # Anomalous (background) heating of the chain accumulated since
            # the start of the execution; added to the shuttling-induced
            # energy for the gate error but reported separately (Figure 6f
            # tracks shuttling-induced energy only).
            background_energy = background_rate * (end - duration)
            trap = traps[index]
            if code == _GATE_2Q:
                one_ms = duration
                repetitions = 1
            else:
                one_ms = duration / ms_per_swap
                repetitions = ms_per_swap
            chain_length = columns.chain_lengths[index]
            instability = instability_cache.get(chain_length)
            if instability is None:
                instability = fidelity_model.laser_instability(chain_length)
                instability_cache[chain_length] = instability
            # Inlined FidelityModel.two_qubit_error / two_qubit_fidelity
            # (equation 1): any change there must be mirrored here, and the
            # legacy-engine A/B in bench_pipeline_scale.py will catch drift.
            background = error_rate * one_ms
            motional = instability * (2.0 * (trap_energy[trap] + background_energy) + 1.0)
            noise.background_error += background * repetitions
            noise.motional_error += motional * repetitions
            noise.num_ms_gates += repetitions
            total = background + motional
            clamped = 1.0 - total
            if clamped > 1.0:
                clamped = 1.0
            if clamped < min_fidelity:
                clamped = min_fidelity
            fid = clamped ** repetitions
            if fid <= 0.0:
                log_fid = neg_inf
            elif log_fid != neg_inf:
                log_fid += log(fid)
            fid_append(fid)
        elif code == _GATE_1Q:
            if single_qubit_fid <= 0.0:
                log_fid = neg_inf
            elif log_fid != neg_inf:
                log_fid += log(single_qubit_fid)
            fid_append(single_qubit_fid)
        elif code == _MEASURE:
            if measurement_fid <= 0.0:
                log_fid = neg_inf
            elif log_fid != neg_inf:
                log_fid += log(measurement_fid)
            fid_append(measurement_fid)
        elif code == _SPLIT:
            trap = traps[index]
            remaining, split_off = heating.split(trap_energy[trap], columns.chain_sizes[index], 1)
            noise.bump_energy(trap, remaining)
            transit_energy[ions[index]] = split_off
            noise.bump_occupancy(trap, -1)
            fid_append(1.0)
        elif code == _MERGE:
            trap = traps[index]
            incoming = transit_energy.pop(ions[index], 0.0)
            noise.bump_energy(trap, heating.merge(trap_energy[trap], incoming))
            noise.bump_occupancy(trap, +1)
            fid_append(1.0)
        elif code == _MOVE:
            current = transit_energy.get(ions[index], 0.0)
            transit_energy[ions[index]] = heating.move(current, columns.lengths[index])
            fid_append(1.0)
        elif code == _JUNCTION:
            current = transit_energy.get(ions[index], 0.0)
            transit_energy[ions[index]] = heating.cross_junction(current)
            fid_append(1.0)
        else:  # _ION_SWAP
            # One IS hop: split the pair off, rotate, merge back.  Net effect
            # on the chain energy is +3*k1 (two sub-chains gain k1 at the
            # split and the merge adds another k1); derived through the model
            # so any parameter change stays consistent.
            trap = traps[index]
            energy = trap_energy[trap]
            remaining, pair = heating.split(energy, columns.chain_sizes[index], 2)
            noise.bump_energy(trap, heating.merge(remaining, pair))
            fid_append(1.0)

    noise.log_fidelity = log_fid
    noise.op_fidelities = op_fidelities

    makespan = max(finish, default=0.0)
    if with_breakdown:
        computation_time = max(finish_c, default=0.0)
    else:
        computation_time = makespan
    communication_time = max(0.0, makespan - computation_time)

    # Dicts build from the topology's ordered trap tuple (never the set:
    # iteration order must not be hash-dependent); the set serves membership
    # tests only.
    trap_gate_busy: Dict[str, float] = {
        trap.name: 0.0 for trap in device.topology.traps
    }
    trap_comm_busy: Dict[str, float] = dict(trap_gate_busy)
    trap_names = {trap.name for trap in device.topology.traps}
    for rid, name in enumerate(resource_names):
        if name in trap_names:
            trap_gate_busy[name] = gate_busy[rid]
            trap_comm_busy[name] = comm_busy[rid]

    op_counts = {
        _CODE_TO_KIND[code]: op_count_by_code[code] for code in first_seen_codes
    }

    timeline: Optional[List[OperationRecord]] = None
    if keep_timeline:
        op_fidelities = noise.op_fidelities
        timeline = [
            OperationRecord(
                op_id=index,
                kind=_CODE_TO_KIND[codes[index]],
                start=finish[index] - durations[index],
                finish=finish[index],
                fidelity=op_fidelities[index],
            )
            for index in range(num_ops)
        ]

    num_ms = noise.num_ms_gates
    return SimulationResult(
        duration=makespan,
        fidelity=SimulationResult.fidelity_from_log(noise.log_fidelity),
        log_fidelity=noise.log_fidelity,
        computation_time=computation_time,
        communication_time=communication_time,
        op_counts=op_counts,
        mean_background_error=noise.background_error / num_ms if num_ms else 0.0,
        mean_motional_error=noise.motional_error / num_ms if num_ms else 0.0,
        total_background_error=noise.background_error,
        total_motional_error=noise.motional_error,
        max_motional_energy=noise.max_energy,
        final_trap_energies=dict(noise.trap_energy),
        peak_occupancy=dict(noise.peak_occupancy),
        num_shuttles=op_count_by_code[_SPLIT],
        num_ms_gates=num_ms,
        trap_gate_busy_time=trap_gate_busy,
        trap_comm_busy_time=trap_comm_busy,
        timeline=timeline,
        circuit_name=program.circuit_name,
        device_name=program.device_name,
    )
