"""Batched variant simulation: one plan, many (gate x physical-model) variants.

The DSE fan-outs evaluate thousands of *near-identical* simulations: the same
compiled :class:`~repro.isa.program.QCCDProgram` under different two-qubit
gate implementations (the Figure 8 axis) or different physical-model
parameter vectors (the heating/fidelity ablations).  The serial engine
(:func:`repro.sim.engine.simulate`) re-walks the full fused loop once per
variant, recomputing a dependency/resource timeline that is byte-identical
across most of the fan-out.

This module lowers a program once into a :class:`BatchPlan` -- built on the
serial engine's columnar lowering (:class:`~repro.sim.engine.OpColumns`),
with merged dependency/resource predecessor lists and the model-facing
fidelity and heating schedules -- and then evaluates a whole axis of
variants against it:

* **Merged predecessors.**  In the serial engine an operation waits on its
  dependencies (``finish``) and on its exclusive resources (``free_at``).
  Because operations are visited in program order, the resource term is
  simply the finish time of the *previous operation in program order using
  that resource* -- a fact of the op stream, not of any duration vector.  The
  plan therefore merges dependencies and per-resource predecessors into one
  deduplicated predecessor entry per op (a bare int in the common
  single-predecessor case), and a timeline walk reduces to
  ``finish[i] = max(finish[p] for p in preds[i]) + dur[i]``.
* **Duration-vector dedup.**  The timeline depends on the duration vector
  alone, so it is walked once per *distinct* vector and cached on the plan:
  variants that only change heating/fidelity parameters (and gate variants
  whose clamped gate times collide) skip the walk entirely and re-accumulate
  log-fidelity over the cached finish times.
* **Shared heating trajectory.**  Chain-energy accounting depends only on the
  op stream and the heating constants ``k1``/``k2``/``k_junction`` -- never
  on durations -- so the trajectory (per-gate chain energies, final trap
  energies, peak occupancy) is computed once per distinct heating vector and
  shared by every gate variant.
* **Reduced noise pass.**  Per variant only the fidelity-bearing ops are
  visited: two-qubit/SWAP gates evaluate equation (1) against the cached
  finish times and trajectory energies; single-qubit gates and measurements
  add a precomputed constant log-fidelity.  The accumulated totals are
  memoised per (timeline, trajectory, fidelity-parameter) combination, so
  re-evaluating an already-seen variant (a warm re-sweep, a resumed run)
  skips even this pass.
* **No device churn.**  Variants are evaluated from ``(gate, model)`` pairs
  directly: :func:`simulate_gate_variants` never constructs the per-variant
  :class:`~repro.hardware.device.QCCDDevice` copies (and their topology
  re-validation) that a serial ``device.with_gate(...)`` loop pays for.

Every arithmetic expression mirrors :func:`repro.sim.engine.simulate`
operation for operation, so batch results are **bit-identical** to the serial
engine (``tests/test_sim_batch.py`` asserts this across the application
suite, both reorder methods, all four gate implementations and the ablation
parameter grids; the determinism goldens then pin both engines to the seed).

The batch path does not produce per-operation timelines; callers that need
``keep_timeline=True`` fall back to the serial engine
(:func:`~repro.toolflow.parallel.execute_task` does this automatically).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.hardware.device import QCCDDevice
from repro.isa.program import QCCDProgram
from repro.models.fidelity import FidelityModel
from repro.models.gate_times import GateImplementation
from repro.models.heating import HeatingModel
from repro.obs.trace import span
from repro.sim.engine import (
    _CODE_TO_KIND,
    _GATE_1Q,
    _GATE_2Q,
    _ION_SWAP,
    _JUNCTION,
    _MEASURE,
    _MERGE,
    _MOVE,
    _SPLIT,
    _SWAP_GATE,
    OpColumns,
    _durations,
    _op_columns,
)
from repro.sim.results import SimulationResult

#: Sentinels in the fidelity schedule for ops whose fidelity is a constant of
#: the model (everything else is a gate tuple).
_FID_1Q = -1
_FID_MEASURE = -2

#: Tags in the heating schedule (gate snapshots plus the energy-moving ops).
_H_SNAPSHOT, _H_SPLIT, _H_MERGE, _H_MOVE, _H_JUNCTION, _H_ION_SWAP = range(6)

_MS_PER_SWAP = 3  # SwapGateOp.MS_GATES_PER_SWAP; asserted at import below


def _merged_predecessors(columns: OpColumns) -> List[Union[int, Tuple[int, ...]]]:
    """Dependency + resource predecessors per op, deduplicated.

    The resource predecessor of op ``i`` is the previous op in program order
    using its resource (exactly what ``free_at[rid]`` holds when the serial
    engine reaches ``i``).  Predecessor indices ``>= i`` are dropped: the
    serial engine reads their still-unset finish time of ``0.0`` there,
    which contributes nothing to the running max.  Single-predecessor entries
    (the overwhelmingly common case) are stored as bare ints so the timeline
    walk skips the max loop entirely; multi-predecessor entries are ascending
    tuples.
    """

    last_user: Dict[int, int] = {}
    merged: List[Union[int, Tuple[int, ...]]] = []
    append = merged.append
    for index, (deps, rid) in enumerate(zip(columns.deps, columns.rids)):
        prev = last_user.get(rid)
        last_user[rid] = index
        if not deps:
            append(() if prev is None else prev)
            continue
        # Fast paths for the builder's ascending one- and two-dependency
        # tuples; anything else takes the general set-and-sort path.
        if len(deps) == 1 and deps[0] < index:
            dep = deps[0]
            if prev is None or prev == dep:
                append(dep)
            else:
                append((dep, prev) if dep < prev else (prev, dep))
            continue
        if len(deps) == 2 and deps[0] < deps[1] < index:
            low, high = deps
            if prev is None or prev == low or prev == high:
                append(deps)
            elif prev < low:
                append((prev, low, high))
            elif prev < high:
                append((low, prev, high))
            else:
                append((low, high, prev))
            continue
        preds = {dep for dep in deps if dep < index}
        if prev is not None:
            preds.add(prev)
        if len(preds) == 1:
            append(preds.pop())
        else:
            append(tuple(sorted(preds)))
    return merged


class _Timeline:
    """Finish times and derived timing metrics of one duration vector."""

    __slots__ = ("finish", "makespan", "computation_time", "communication_time",
                 "trap_gate_busy", "trap_comm_busy")

    def __init__(self, finish, makespan, computation_time, communication_time,
                 trap_gate_busy, trap_comm_busy) -> None:
        self.finish = finish
        self.makespan = makespan
        self.computation_time = computation_time
        self.communication_time = communication_time
        self.trap_gate_busy = trap_gate_busy
        self.trap_comm_busy = trap_comm_busy


class _Trajectory:
    """Heating state shared by every variant with the same heating constants."""

    __slots__ = ("gate_energies", "final_trap_energies", "peak_occupancy",
                 "max_energy")

    def __init__(self, gate_energies, final_trap_energies, peak_occupancy,
                 max_energy) -> None:
        self.gate_energies = gate_energies
        self.final_trap_energies = final_trap_energies
        self.peak_occupancy = peak_occupancy
        self.max_energy = max_energy


class _DeviceView:
    """The slice of a device that :func:`repro.sim.engine._durations` reads.

    Lets the batch engine price one (gate, model) variant without building a
    full :class:`~repro.hardware.device.QCCDDevice` copy (whose constructor
    re-validates the topology).  The duration memo key ``(gate, model)``
    matches a real device's, so serial and batch runs share the memo.
    """

    __slots__ = ("gate", "model")

    def __init__(self, gate, model) -> None:
        self.gate = gate
        self.model = model


class BatchPlan:
    """Struct-of-arrays lowering of one compiled program, with variant caches.

    Built once per program (and cached on it, keyed by the identity of the
    operation list like the serial engine's column cache), then reused by
    every batch-simulation call.  The plan owns the memo layers shared across
    variants:

    * duration vectors per (gate, shuttle, single-qubit) parameter slot;
    * timelines per distinct duration vector (:meth:`timeline_for`);
    * heating trajectories per distinct ``(k1, k2, k_junction)`` vector;
    * accumulated noise totals per (timeline, trajectory, fidelity
      parameters, background rate) combination;
    * validated :class:`~repro.models.fidelity.FidelityModel` instances per
      parameter set (construction implies validation, so invalid parameters
      still raise exactly like the serial engine).
    """

    def __init__(self, program: QCCDProgram) -> None:
        columns = _op_columns(program)
        self.operations = program.operations
        self.columns = columns
        self.resource_names = columns.resource_names
        self.num_ops = len(columns)
        self.preds = _merged_predecessors(columns)
        self.is_comm = columns.is_comm

        traps = columns.traps
        ions = columns.ions
        chain_sizes = columns.chain_sizes
        op_count_by_code = [0] * 9
        first_seen: List[int] = []
        chain_lengths: List[int] = []
        cl_index: Dict[int, int] = {}
        fid_items: List[object] = []
        heat_items: List[Tuple] = []
        for index, code in enumerate(columns.codes):
            if not op_count_by_code[code]:
                first_seen.append(code)
            op_count_by_code[code] += 1
            if code == _GATE_2Q or code == _SWAP_GATE:
                chain_length = columns.chain_lengths[index]
                slot = cl_index.get(chain_length)
                if slot is None:
                    slot = len(chain_lengths)
                    cl_index[chain_length] = slot
                    chain_lengths.append(chain_length)
                reps = 1 if code == _GATE_2Q else _MS_PER_SWAP
                fid_items.append((index, slot, reps))
                heat_items.append((_H_SNAPSHOT, traps[index]))
            elif code == _GATE_1Q:
                fid_items.append(_FID_1Q)
            elif code == _MEASURE:
                fid_items.append(_FID_MEASURE)
            elif code == _SPLIT:
                heat_items.append((_H_SPLIT, traps[index], ions[index],
                                   chain_sizes[index]))
            elif code == _MERGE:
                heat_items.append((_H_MERGE, traps[index], ions[index]))
            elif code == _MOVE:
                heat_items.append((_H_MOVE, ions[index], columns.lengths[index]))
            elif code == _JUNCTION:
                heat_items.append((_H_JUNCTION, ions[index]))
            else:  # _ION_SWAP
                heat_items.append((_H_ION_SWAP, traps[index], chain_sizes[index]))

        self.fid_items = fid_items
        self.heat_items = heat_items
        self.chain_lengths = chain_lengths
        self.op_counts = {_CODE_TO_KIND[code]: op_count_by_code[code]
                          for code in first_seen}
        self.num_shuttles = op_count_by_code[_SPLIT]

        #: (gate, shuttle, single_qubit) -> (durations, timeline)
        self._duration_slots: Dict[Tuple, Tuple[List[float], _Timeline]] = {}
        #: duration tuple -> _Timeline (content-keyed: equal vectors dedup).
        self._timelines: Dict[Tuple[float, ...], _Timeline] = {}
        #: (k1, k2, k_junction, trap names) -> _Trajectory
        self._trajectories: Dict[Tuple, _Trajectory] = {}
        #: trap names -> per-trap (name, gate op ids, comm op ids) busy lists.
        self._busy_lists: Dict[Tuple[str, ...], List[Tuple]] = {}
        #: (timeline id, trajectory id, fidelity params, background rate) ->
        #: (log_fid, background_total, motional_total, num_ms).  The id keys
        #: are stable: the plan holds every timeline/trajectory forever.
        self._noise_memo: Dict[Tuple, Tuple] = {}
        #: fidelity params -> validated FidelityModel.
        self._fidelity_models: Dict[object, FidelityModel] = {}

        self.timelines_built = 0
        self.timeline_hits = 0
        self.trajectories_built = 0
        self.trajectory_hits = 0
        self.variants_evaluated = 0

    # ------------------------------------------------------------------ #
    def _busy_for(self, trap_names: Tuple[str, ...]) -> List[Tuple]:
        lists = self._busy_lists.get(trap_names)
        if lists is None:
            members = set(trap_names)
            per_rid: Dict[int, Tuple[str, List[int], List[int]]] = {}
            for rid, name in enumerate(self.resource_names):
                if name in members:
                    per_rid[rid] = (name, [], [])
            for index, (rid, is_comm) in enumerate(
                    zip(self.columns.rids, self.is_comm)):
                entry = per_rid.get(rid)
                if entry is not None:
                    entry[2 if is_comm else 1].append(index)
            lists = list(per_rid.values())
            self._busy_lists[trap_names] = lists
        return lists

    def timeline_for(self, durations: Sequence[float],
                     trap_names: Tuple[str, ...]) -> _Timeline:
        """The (cached) timeline of one duration vector.

        Equal vectors -- however they were produced -- return the *same*
        timeline object; this is the duration-vector dedup that lets
        fidelity/heating-only variants skip the walk.
        """

        key = tuple(durations)
        timeline = self._timelines.get(key)
        if timeline is not None:
            self.timeline_hits += 1
            return timeline
        self.timelines_built += 1

        # Zero-communication durations for the Figure 6b breakdown: the
        # serial engine adds the zeroed duration too, and x + 0.0 == x for
        # every value the accumulator can take (all finish times are >= 0.0).
        cdur = [0.0 if comm else dur
                for comm, dur in zip(self.is_comm, durations)]
        finish: List[float] = []
        finish_c: List[float] = []
        fin_append = finish.append
        fin_c_append = finish_c.append
        for preds, duration, cduration in zip(self.preds, durations, cdur):
            if preds.__class__ is int:
                ready = finish[preds]
                ready_c = finish_c[preds]
            else:
                ready = 0.0
                ready_c = 0.0
                for p in preds:
                    value = finish[p]
                    if value > ready:
                        ready = value
                    value = finish_c[p]
                    if value > ready_c:
                        ready_c = value
            fin_append(ready + duration)
            fin_c_append(ready_c + cduration)

        makespan = max(finish, default=0.0)
        computation_time = max(finish_c, default=0.0)
        communication_time = max(0.0, makespan - computation_time)

        # Busy accounting: the serial engine adds durations in op order into
        # per-resource slots; summing each trap's op list in order is the
        # same addition sequence.  Only trap resources are reported.
        trap_gate_busy = {name: 0.0 for name in trap_names}
        trap_comm_busy = dict(trap_gate_busy)
        for name, gate_ids, comm_ids in self._busy_for(trap_names):
            total = 0.0
            for index in gate_ids:
                total += durations[index]
            trap_gate_busy[name] = total
            total = 0.0
            for index in comm_ids:
                total += durations[index]
            trap_comm_busy[name] = total

        timeline = _Timeline(finish, makespan, computation_time,
                             communication_time, trap_gate_busy, trap_comm_busy)
        self._timelines[key] = timeline
        return timeline

    def trajectory_for(self, program: QCCDProgram, heating_params,
                       trap_names: Tuple[str, ...]) -> _Trajectory:
        """The (cached) heating trajectory of one heating-constant vector.

        Keyed by ``(k1, k2, k_junction)`` -- the only constants the
        split/merge/move accounting reads -- so variants that differ in the
        background rate (or any fidelity parameter) share the trajectory.
        """

        key = (heating_params.k1, heating_params.k2, heating_params.k_junction,
               trap_names)
        trajectory = self._trajectories.get(key)
        if trajectory is not None:
            self.trajectory_hits += 1
            return trajectory
        self.trajectories_built += 1

        heating = HeatingModel(heating_params)
        trap_energy: Dict[str, float] = {name: 0.0 for name in trap_names}
        transit_energy: Dict[int, float] = {}
        occupancy: Dict[str, int] = {name: 0 for name in trap_names}
        for trap_name, chain in program.placement.trap_chains.items():
            occupancy[trap_name] = len(chain)
        peak_occupancy = dict(occupancy)
        max_energy = 0.0
        gate_energies: List[float] = []

        heating_split = heating.split
        heating_merge = heating.merge
        for item in self.heat_items:
            tag = item[0]
            if tag == _H_SNAPSHOT:
                gate_energies.append(trap_energy[item[1]])
            elif tag == _H_SPLIT:
                _, trap, ion, chain_size = item
                remaining, split_off = heating_split(trap_energy[trap],
                                                     chain_size, 1)
                trap_energy[trap] = remaining
                if remaining > max_energy:
                    max_energy = remaining
                transit_energy[ion] = split_off
                occupancy[trap] -= 1
            elif tag == _H_MERGE:
                _, trap, ion = item
                incoming = transit_energy.pop(ion, 0.0)
                merged = heating_merge(trap_energy[trap], incoming)
                trap_energy[trap] = merged
                if merged > max_energy:
                    max_energy = merged
                count = occupancy[trap] + 1
                occupancy[trap] = count
                if count > peak_occupancy[trap]:
                    peak_occupancy[trap] = count
            elif tag == _H_MOVE:
                _, ion, length = item
                transit_energy[ion] = heating.move(
                    transit_energy.get(ion, 0.0), length)
            elif tag == _H_JUNCTION:
                ion = item[1]
                transit_energy[ion] = heating.cross_junction(
                    transit_energy.get(ion, 0.0))
            else:  # _H_ION_SWAP
                _, trap, chain_size = item
                remaining, pair = heating_split(trap_energy[trap], chain_size, 2)
                merged = heating_merge(remaining, pair)
                trap_energy[trap] = merged
                if merged > max_energy:
                    max_energy = merged

        trajectory = _Trajectory(gate_energies, trap_energy, peak_occupancy,
                                 max_energy)
        self._trajectories[key] = trajectory
        return trajectory

    def stats(self) -> Dict[str, int]:
        """Cumulative cache counters of this plan."""

        return {
            "variants": self.variants_evaluated,
            "timelines_built": self.timelines_built,
            "timeline_hits": self.timeline_hits,
            "trajectories_built": self.trajectories_built,
            "trajectory_hits": self.trajectory_hits,
        }


def batch_plan(program: QCCDProgram) -> BatchPlan:
    """The program's batch plan, built on first use and cached on it."""

    plan = getattr(program, "_batch_plan", None)
    if plan is not None and plan.operations is program.operations:
        return plan
    plan = BatchPlan(program)
    program._batch_plan = plan
    return plan


def _noise_pass(plan: BatchPlan, durations: Sequence[float],
                finish: Sequence[float], gate_energies: Sequence[float],
                fidelity_model: FidelityModel, background_rate: float):
    """Per-variant fidelity accumulation over the cached finish times.

    Mirrors the noise arm of the serial fused loop exactly; only the
    fidelity-bearing ops are visited, and the per-op fidelity list is not
    materialised (it only feeds ``keep_timeline``, which the batch path does
    not produce).
    """

    params = fidelity_model.params
    min_fidelity = params.min_fidelity
    error_rate = params.background_heating_rate
    single_qubit_fid = fidelity_model.single_qubit_fidelity()
    measurement_fid = fidelity_model.measurement_fidelity()
    # log() of a constant is a constant: accumulating the precomputed value
    # is the same addition the serial engine performs per op.
    log = math.log
    neg_inf = -math.inf
    log_1q = log(single_qubit_fid) if single_qubit_fid > 0.0 else None
    log_measure = log(measurement_fid) if measurement_fid > 0.0 else None
    instability = [fidelity_model.laser_instability(length)
                   for length in plan.chain_lengths]

    log_fid = 0.0
    background_total = 0.0
    motional_total = 0.0
    num_ms = 0
    gate_pos = 0
    for item in plan.fid_items:
        if item.__class__ is int:
            if item == _FID_1Q:
                if log_1q is None:
                    log_fid = neg_inf
                elif log_fid != neg_inf:
                    log_fid += log_1q
            else:
                if log_measure is None:
                    log_fid = neg_inf
                elif log_fid != neg_inf:
                    log_fid += log_measure
            continue
        index, slot, repetitions = item
        duration = durations[index]
        end = finish[index]
        background_energy = background_rate * (end - duration)
        one_ms = duration if repetitions == 1 else duration / _MS_PER_SWAP
        background = error_rate * one_ms
        motional = instability[slot] * (
            2.0 * (gate_energies[gate_pos] + background_energy) + 1.0)
        gate_pos += 1
        background_total += background * repetitions
        motional_total += motional * repetitions
        num_ms += repetitions
        total = background + motional
        clamped = 1.0 - total
        if clamped > 1.0:
            clamped = 1.0
        if clamped < min_fidelity:
            clamped = min_fidelity
        # clamped ** 1 is exact (IEEE pow(x, 1) == x); skip the call.
        fid = clamped if repetitions == 1 else clamped ** repetitions
        if fid <= 0.0:
            log_fid = neg_inf
        elif log_fid != neg_inf:
            log_fid += log(fid)

    return log_fid, background_total, motional_total, num_ms


def _evaluate(plan: BatchPlan, program: QCCDProgram, gate, model,
              trap_names: Tuple[str, ...],
              with_breakdown: bool) -> SimulationResult:
    """Evaluate one (gate, physical-model) variant against the plan."""

    # The serial engine validates both noise models on entry (via the
    # HeatingModel/FidelityModel constructors); keep the same contract even
    # when every heavy structure comes from a cache.
    heating_params = model.heating
    heating_params.validate()
    fidelity_model = plan._fidelity_models.get(model.fidelity)
    if fidelity_model is None:
        fidelity_model = FidelityModel(model.fidelity)
        plan._fidelity_models[model.fidelity] = fidelity_model

    slot_key = (gate, model.shuttle, model.single_qubit)
    slot = plan._duration_slots.get(slot_key)
    if slot is None:
        durations = _durations(program, plan.columns, _DeviceView(gate, model))
        timeline = plan.timeline_for(durations, trap_names)
        plan._duration_slots[slot_key] = (durations, timeline)
    else:
        durations, timeline = slot
        plan.timeline_hits += 1
    trajectory = plan.trajectory_for(program, heating_params, trap_names)

    noise_key = (id(timeline), id(trajectory), model.fidelity,
                 heating_params.background_rate)
    noise = plan._noise_memo.get(noise_key)
    if noise is None:
        noise = _noise_pass(plan, durations, timeline.finish,
                            trajectory.gate_energies, fidelity_model,
                            heating_params.background_rate)
        plan._noise_memo[noise_key] = noise
    log_fid, background_total, motional_total, num_ms = noise

    plan.variants_evaluated += 1
    makespan = timeline.makespan
    if with_breakdown:
        computation_time = timeline.computation_time
        communication_time = timeline.communication_time
    else:
        computation_time = makespan
        communication_time = 0.0
    return SimulationResult(
        duration=makespan,
        fidelity=SimulationResult.fidelity_from_log(log_fid),
        log_fidelity=log_fid,
        computation_time=computation_time,
        communication_time=communication_time,
        op_counts=dict(plan.op_counts),
        mean_background_error=background_total / num_ms if num_ms else 0.0,
        mean_motional_error=motional_total / num_ms if num_ms else 0.0,
        total_background_error=background_total,
        total_motional_error=motional_total,
        max_motional_energy=trajectory.max_energy,
        final_trap_energies=dict(trajectory.final_trap_energies),
        peak_occupancy=dict(trajectory.peak_occupancy),
        num_shuttles=plan.num_shuttles,
        num_ms_gates=num_ms,
        trap_gate_busy_time=dict(timeline.trap_gate_busy),
        trap_comm_busy_time=dict(timeline.trap_comm_busy),
        timeline=None,
        circuit_name=program.circuit_name,
        device_name=program.device_name,
    )


def _run_specs(program: QCCDProgram, specs: Sequence[Tuple],
               trap_names: Tuple[str, ...], with_breakdown: bool,
               stats: Optional[Dict[str, int]]) -> List[SimulationResult]:
    """Shared driver: evaluate ``(gate, model)`` specs, tracking counters."""

    had_plan = getattr(program, "_batch_plan", None) is not None and \
        program._batch_plan.operations is program.operations
    with span("sim.batch.plan", reused=had_plan,
              circuit=program.circuit_name):
        plan = batch_plan(program)
    timelines_before = plan.timelines_built
    hits_before = plan.timeline_hits

    with span("sim.batch.variants", circuit=program.circuit_name,
              variants=len(specs)) as trace:
        results = [_evaluate(plan, program, gate, model, trap_names,
                             with_breakdown)
                   for gate, model in specs]
        trace.set(timelines=plan.timelines_built - timelines_before,
                  timeline_hits=plan.timeline_hits - hits_before)

    if stats is not None:
        stats["plans"] = stats.get("plans", 0) + (0 if had_plan else 1)
        stats["plan_reuses"] = stats.get("plan_reuses", 0) + (1 if had_plan else 0)
        stats["variants"] = stats.get("variants", 0) + len(results)
        stats["timelines"] = stats.get("timelines", 0) + \
            (plan.timelines_built - timelines_before)
        stats["timeline_hits"] = stats.get("timeline_hits", 0) + \
            (plan.timeline_hits - hits_before)
    return results


def _trap_names(device: QCCDDevice) -> Tuple[str, ...]:
    return tuple(trap.name for trap in device.topology.traps)


def simulate_batch(program: QCCDProgram, devices: Sequence[QCCDDevice], *,
                   with_breakdown: bool = True,
                   stats: Optional[Dict[str, int]] = None,
                   ) -> List[SimulationResult]:
    """Simulate ``program`` under every device variant, in one shared pass.

    Every device must target the same topology as the program was compiled
    for (gate implementation and physical-model parameters are free to vary;
    that is the fan-out).  Results are bit-identical to calling
    :func:`repro.sim.engine.simulate` once per device, in order.

    Parameters
    ----------
    with_breakdown:
        As in the serial engine: when ``False`` the computation versus
        communication split collapses to the makespan.
    stats:
        Optional counter dictionary (e.g. ``ProgramCache.batch``);
        plan/timeline activity for this call is accumulated into it under
        the keys ``plans``/``plan_reuses``/``variants``/``timelines``/
        ``timeline_hits``.
    """

    devices = list(devices)
    if not devices:
        return []
    first_topology = devices[0].topology
    trap_names = _trap_names(devices[0])
    for device in devices[1:]:
        if device.topology is not first_topology and \
                _trap_names(device) != trap_names:
            raise ValueError(
                "simulate_batch variants must share the compiled program's "
                f"topology; got {device.topology.name!r} after "
                f"{first_topology.name!r}")
    return _run_specs(program,
                      [(device.gate, device.model) for device in devices],
                      trap_names, with_breakdown, stats)


def simulate_gate_variants(program: QCCDProgram, device: QCCDDevice,
                           gates: Sequence[str], *,
                           stats: Optional[Dict[str, int]] = None,
                           ) -> List[SimulationResult]:
    """Batch-simulate one compiled program under several gate implementations.

    The Figure 8 fan-out: the compiled operation stream is shared, only gate
    durations and fidelities differ per variant.  Bit-identical with
    simulating ``device.with_gate(gate)`` per entry, but without constructing
    any per-variant device.
    """

    specs = [(GateImplementation.from_name(gate), device.model)
             for gate in gates]
    return _run_specs(program, specs, _trap_names(device), True, stats)


def simulate_model_variants(program: QCCDProgram, device: QCCDDevice,
                            models: Sequence, *,
                            stats: Optional[Dict[str, int]] = None,
                            ) -> List[SimulationResult]:
    """Batch-simulate one compiled program under several physical models.

    The ablation-bench fan-out: heating/fidelity parameter vectors that share
    the gate implementation reuse one timeline (the duration vector is
    unchanged) and, when only fidelity parameters differ, one heating
    trajectory as well.
    """

    specs = [(device.gate, model) for model in models]
    return _run_specs(program, specs, _trap_names(device), True, stats)


def _assert_swap_constant() -> None:
    from repro.isa.operations import SwapGateOp

    if SwapGateOp.MS_GATES_PER_SWAP != _MS_PER_SWAP:  # pragma: no cover
        raise AssertionError(
            "repro.sim.batch hard-codes MS_GATES_PER_SWAP; update _MS_PER_SWAP")


_assert_swap_constant()
