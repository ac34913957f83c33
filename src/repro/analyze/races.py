"""Schedule race detector: replay resource claims symbolically.

The detector computes two symbolic schedules from the op stream -- no
device, no durations model, unit time per op unless the caller supplies
durations -- and flags double-booked hardware:

* **Dependency-only schedule** (``RC001``): every op starts as soon as its
  *declared* dependencies finish.  If two ops then overlap on the same trap,
  the compiler emitted a program whose correctness relies on the engines'
  implicit program-order resource serialization rather than on an explicit
  dependency -- exactly the class of bug a pass-pipeline rewrite could
  introduce silently.  Segments and junctions are exempt here by design:
  the builder deliberately carries no cross-route dependency for them and
  both engines serialize them through ``free_at`` / merged predecessors.
* **Merged dependency+resource schedule** (``RC002``/``RC003``): the exact
  predecessor relation :func:`repro.sim.batch._merged_predecessors` lowers
  to.  Under it, *no* resource may ever be double-booked and no op may start
  before a declared dependency finishes; a finding means the lowering itself
  (or an injected predecessor table, via the ``predecessors`` hook used by
  the mutation-corpus tests) is broken.

Both schedules are list-scheduling forward passes, O(ops + deps); the
overlap scan sorts each resource's claim intervals, O(claims log claims).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analyze.diagnostics import Report, diag
from repro.isa.program import QCCDProgram
from repro.sim.batch import _merged_predecessors
from repro.sim.engine import OpColumns, _op_columns

Predecessors = Sequence[Union[int, Tuple[int, ...]]]


def detect_races(program: QCCDProgram, *,
                 durations: Optional[Sequence[float]] = None,
                 predecessors: Optional[Predecessors] = None) -> Report:
    """Run the RC001/RC002/RC003 checks over ``program``.

    ``durations`` replaces the default unit duration per op (the checks are
    about ordering, not absolute time, so units suffice -- but a device's
    real durations can be threaded through for fidelity).  ``predecessors``
    replaces the merged predecessor table for the RC002/RC003 schedule; the
    mutation-corpus tests use it to model a corrupted lowering.
    """

    report = Report()
    columns = _op_columns(program)
    resource_names = columns.resource_names
    count = len(columns)
    if count == 0:
        return report
    if durations is None:
        durations = [1.0] * count
    elif len(durations) != count:
        raise ValueError(f"expected {count} durations, got {len(durations)}")

    trap_resources = _trap_resources(columns)

    # --- RC001: dependency-only schedule, trap overlap ------------------- #
    dep_start, dep_finish = _schedule_by_deps(columns.deps, durations)
    for rid, claims in _claims_by_resource(columns.rids, dep_start, dep_finish):
        if rid not in trap_resources:
            continue
        for earlier, later in _overlaps(claims):
            report.add(diag(
                "RC001",
                f"ops {earlier} and {later} overlap on trap "
                f"{resource_names[rid]} under the dependency-only "
                f"schedule",
                location=f"op {later}",
                hint=f"add a dependency from op {later} on op {earlier} "
                     f"(the builder's last-op-per-trap rule) so the order "
                     f"does not rely on implicit resource serialization"))

    # --- RC002/RC003: merged dep+resource schedule ----------------------- #
    merged = predecessors if predecessors is not None \
        else _merged_predecessors(columns)
    if len(merged) != count:
        raise ValueError(f"expected {count} predecessor entries, "
                         f"got {len(merged)}")
    start, finish = _schedule_by_predecessors(merged, durations)
    for rid, claims in _claims_by_resource(columns.rids, start, finish):
        for earlier, later in _overlaps(claims):
            report.add(diag(
                "RC002",
                f"ops {earlier} and {later} overlap on "
                f"{resource_names[rid]} under the merged "
                f"dependency+resource schedule",
                location=f"op {later}",
                hint="the sim/batch lowering would double-book this "
                     "resource; the predecessor table is missing the "
                     "last-user edge"))
    for index, deps in enumerate(columns.deps):
        for dep in deps:
            if 0 <= dep < index and start[index] < finish[dep] - 1e-12:
                report.add(diag(
                    "RC003",
                    f"op {index} starts at {start[index]:g} before its "
                    f"declared dependency op {dep} finishes at "
                    f"{finish[dep]:g}",
                    location=f"op {index}",
                    hint="the schedule drops a declared dependency edge; "
                         "every dep must appear among the op's "
                         "predecessors"))
    return report


def _trap_resources(columns: OpColumns) -> frozenset:
    """Interned ids of resources that are traps (vs segments/junctions)."""

    trap_names = {trap for trap in columns.traps if trap}
    return frozenset(rid for rid, name in enumerate(columns.resource_names)
                     if name in trap_names)


def _schedule_by_deps(all_deps, durations) -> Tuple[List[float], List[float]]:
    start = [0.0] * len(all_deps)
    finish = [0.0] * len(all_deps)
    for index, deps in enumerate(all_deps):
        begin = 0.0
        for dep in deps:
            if 0 <= dep < index and finish[dep] > begin:
                begin = finish[dep]
        start[index] = begin
        finish[index] = begin + durations[index]
    return start, finish


def _schedule_by_predecessors(merged: Predecessors,
                              durations) -> Tuple[List[float], List[float]]:
    start = [0.0] * len(merged)
    finish = [0.0] * len(merged)
    for index, preds in enumerate(merged):
        begin = 0.0
        if isinstance(preds, int):
            if 0 <= preds < index:
                begin = finish[preds]
        else:
            for pred in preds:
                if 0 <= pred < index and finish[pred] > begin:
                    begin = finish[pred]
        start[index] = begin
        finish[index] = begin + durations[index]
    return start, finish


def _claims_by_resource(rids, start, finish):
    """Yield ``(rid, [(start, finish, op_index), ...])`` per resource."""

    claims: Dict[int, List[Tuple[float, float, int]]] = {}
    for index, rid in enumerate(rids):
        claims.setdefault(rid, []).append((start[index], finish[index], index))
    for rid in sorted(claims):
        yield rid, claims[rid]


def _overlaps(claims: List[Tuple[float, float, int]]):
    """Yield ``(earlier_op, later_op)`` for every overlapping claim pair.

    Claims are half-open intervals ``[start, finish)``; touching endpoints
    (one op starting exactly when another finishes) are not overlaps.  Each
    op is reported at most once per resource -- against the claim it first
    collides with -- so a single missing edge yields one finding, not a
    quadratic cascade.
    """

    ordered = sorted(claims)
    frontier_finish = -1.0
    frontier_op = -1
    for begin, end, index in ordered:
        if begin < frontier_finish - 1e-12:
            yield frontier_op, index
        if end > frontier_finish:
            frontier_finish = end
            frontier_op = index
