"""Parallel, memoized execution of design-space sweeps.

The paper's figures are large sweeps: every (application x capacity x
topology x gate x reorder) point runs the full compile->simulate pipeline.
This module adds the two throughput layers the sweep drivers share:

* :class:`ProgramCache` -- a compiled-program memo keyed by the *compile
  relevant* inputs: the circuit's structural fingerprint plus (topology,
  capacity, reorder, buffer, mapping, routing, lowering).  The two-qubit gate
  implementation is deliberately **not** part of the key: it changes only
  durations and fidelities, never the compiled operation sequence, which is
  exactly the sharing :func:`~repro.toolflow.runner.run_gate_variants`
  exploits for Figure 8.  With the cache, *every* sweep (capacity, topology,
  microarchitecture) shares compilations the same way -- including across
  separate sweeps in one session.
* :func:`run_tasks` -- a deterministic sweep executor.  ``jobs=1`` (the
  default) runs in-process against a shared cache; ``jobs>1`` fans tasks out
  to a ``ProcessPoolExecutor`` whose workers each keep a process-local cache
  (their cache/batch counters are merged back into the caller's cache so the
  CLI summary stays meaningful).  Results always come back in
  task-submission order, so the produced record list is byte-for-byte
  independent of the worker count.

Gate fan-outs (``SweepTask.gates``) are simulated through the batch engine
(:func:`repro.sim.batch.simulate_gate_variants`): one struct-of-arrays plan per
compiled program, one timeline walk per distinct duration vector, and a
reduced per-variant noise pass -- bit-identical to serial
:func:`~repro.sim.engine.simulate` (golden-tested).  Tasks that need a
per-operation timeline (``keep_timeline=True``) fall back to the serial
engine, which is the only path that materialises one.

Physical-model parameters are allowed to differ between cache hits: the
compiler never reads them (they only drive simulation), which is asserted by
the toolflow tests.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from dataclasses import replace

from repro.analyze.runtime import checks_enabled, verify_or_raise
from repro.compiler.compile import CompilerOptions, compile_circuit
from repro.hardware.device import QCCDDevice
from repro.models.gate_times import GateImplementation
from repro.io.fingerprint import circuit_fingerprint
from repro.ir.circuit import Circuit
from repro.isa.program import QCCDProgram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    current_span_ref,
    current_tracer,
    enable_tracing,
    span,
)
from repro.sim.batch import simulate_gate_variants
from repro.sim.engine import simulate
from repro.toolflow.config import ArchitectureConfig
from repro.toolflow.runner import ExperimentRecord


class ProgramCache:
    """Memo of compiled programs, shared across sweep points.

    The cached device is the one the program was compiled for; requests for a
    different gate implementation receive ``device.with_gate(...)`` copies,
    mirroring :func:`~repro.toolflow.runner.run_gate_variants`.

    Counters live in a :class:`~repro.obs.metrics.MetricsRegistry` (one per
    cache by default, so separate sweeps count independently) under the
    names ``cache.hits``, ``cache.misses`` and ``cache.batch.*`` -- the
    same names worker telemetry and the ``--trace`` manifest report.
    :meth:`stats` presents them under the legacy flat keys, so the printed
    sweep summary is byte-stable.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._programs: Dict[Tuple, Tuple[QCCDProgram, QCCDDevice]] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        #: Batch-simulation activity against programs of this cache, in the
        #: key scheme of :func:`repro.sim.batch.simulate_batch`'s ``stats``
        #: parameter (``plans``/``plan_reuses``/``variants``/``timelines``/
        #: ``timeline_hits``) -- a dict facade over ``cache.batch.*``
        #: registry counters.
        self.batch = self.metrics.dict_view("cache.batch.")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def __len__(self) -> int:
        return len(self._programs)

    @staticmethod
    def key_for(circuit: Circuit, config: ArchitectureConfig,
                options: Optional[CompilerOptions] = None) -> Tuple:
        """The compile-relevant identity of a sweep point.

        Excludes the gate implementation (it does not affect compilation) and
        the physical model parameters (the compiler never reads them).
        """

        options = options or CompilerOptions()
        return (
            circuit_fingerprint(circuit),
            config.topology,
            config.trap_capacity,
            config.reorder,
            config.buffer_ions,
            options.mapping,
            options.routing,
            options.lower_to_native,
        )

    def get_or_compile(self, circuit: Circuit, config: ArchitectureConfig,
                       options: Optional[CompilerOptions] = None,
                       ) -> Tuple[QCCDProgram, QCCDDevice]:
        """Return the compiled ``(program, device)`` for a sweep point.

        On a hit the stored program is returned with a device carrying the
        requested gate implementation; on a miss the circuit is compiled and
        stored.
        """

        key = self.key_for(circuit, config, options)
        entry = self._programs.get(key)
        if entry is not None:
            self._hits.inc()
            program, device = entry
            # The cached program is valid for any gate implementation and any
            # physical-model parameters (neither affects compilation), but the
            # *device* handed back must carry the requested ones -- they drive
            # the simulation.
            gate = GateImplementation.from_name(config.gate)
            if device.gate is not gate or device.model != config.model:
                device = replace(device, gate=gate, model=config.model, name="")
            return program, device
        self._misses.inc()
        device = config.build_device(circuit.num_qubits)
        program = compile_circuit(circuit, device, options)
        self._programs[key] = (program, device)
        return program, device

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters, distinct compilations held, batch activity.

        The ``batch_*`` keys count batch-engine work done against programs
        compiled through this cache: plans built (one per program) versus
        reused across tasks, variants evaluated, and timeline walks performed
        versus skipped thanks to duration-vector dedup.
        """

        stats = {"hits": self.hits, "misses": self.misses,
                 "entries": len(self._programs)}
        batch = self.batch
        stats["batch_plans"] = batch.get("plans", 0)
        stats["batch_plan_reuses"] = batch.get("plan_reuses", 0)
        stats["batch_variants"] = batch.get("variants", 0)
        stats["batch_timelines"] = batch.get("timelines", 0)
        stats["batch_timeline_hits"] = batch.get("timeline_hits", 0)
        return stats

    def counters_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter movement since a previous :meth:`stats` snapshot.

        ``entries`` is excluded: it is the size of this process's memo, not a
        monotone counter, so deltas across processes are not meaningful.
        """

        now = self.stats()
        return {key: now[key] - before.get(key, 0)
                for key in now if key != "entries"}

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Fold a :meth:`counters_delta` from a pool worker into this cache.

        Lets ``jobs>1`` sweeps report aggregate cache/batch activity even
        though worker processes keep private memos (their *entries* stay
        process-local and are not merged).
        """

        self._hits.inc(delta.get("hits", 0))
        self._misses.inc(delta.get("misses", 0))
        batch = self.batch
        for stat_key, raw_key in (("batch_plans", "plans"),
                                  ("batch_plan_reuses", "plan_reuses"),
                                  ("batch_variants", "variants"),
                                  ("batch_timelines", "timelines"),
                                  ("batch_timeline_hits", "timeline_hits")):
            value = delta.get(stat_key, 0)
            if value:
                batch[raw_key] = batch.get(raw_key, 0) + value


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: compile once, simulate one or more gates.

    ``gates`` is ``None`` for a plain :func:`run_experiment`-style point; a
    tuple of gate implementation names produces one record per gate from the
    single compilation (the Figure 8 fan-out).
    """

    circuit: Circuit
    config: ArchitectureConfig
    gates: Optional[Tuple[str, ...]] = None
    options: Optional[CompilerOptions] = None
    keep_timeline: bool = False


def execute_task(task: SweepTask, cache: ProgramCache) -> List[ExperimentRecord]:
    """Run one task against ``cache``; mirrors the serial runner drivers.

    Every record carries ``wall_s``, the wall-clock cost of producing it: its
    simulation share plus an even share of the task's compile time (zero on a
    cache hit).  The DSE store persists these timings, which is what drives
    ``dse status --eta`` and the dispatcher's progress watch.

    Gate fan-outs run through :func:`repro.sim.batch.simulate_gate_variants`
    -- one shared plan/timeline pass for the whole ``gates`` tuple,
    bit-identical to the per-gate serial loop -- and each record's ``wall_s``
    is an even
    apportionment of the batch's measured wall time.  ``keep_timeline=True``
    falls back to serial :func:`~repro.sim.engine.simulate`, the only engine
    that materialises per-operation timelines.
    """

    with span("sweep.task", app=task.circuit.name,
              gates=len(task.gates) if task.gates else 1):
        return _execute_task(task, cache)


def _execute_task(task: SweepTask, cache: ProgramCache) -> List[ExperimentRecord]:
    compile_start = perf_counter()
    program, device = cache.get_or_compile(task.circuit, task.config, task.options)
    if checks_enabled():
        # Covers the cache-hit path (a fresh compile already verified); the
        # per-program memo makes repeat hits free.
        verify_or_raise(program, device)
    compile_s = perf_counter() - compile_start
    program_size = len(program)
    num_shuttles = program.num_shuttles
    records: List[ExperimentRecord] = []
    if task.gates is None:
        sim_start = perf_counter()
        result = simulate(program, device, keep_timeline=task.keep_timeline)
        sim_s = perf_counter() - sim_start
        records.append(ExperimentRecord(
            application=task.circuit.name,
            config=task.config,
            result=result,
            program_size=program_size,
            num_shuttles=num_shuttles,
            wall_s=compile_s + sim_s,
        ))
        return records
    compile_share = compile_s / len(task.gates)
    if task.keep_timeline:
        for gate in task.gates:
            variant_device = device.with_gate(gate)
            sim_start = perf_counter()
            result = simulate(program, variant_device, keep_timeline=True)
            sim_s = perf_counter() - sim_start
            records.append(ExperimentRecord(
                application=task.circuit.name,
                config=task.config.with_updates(gate=gate),
                result=result,
                program_size=program_size,
                num_shuttles=num_shuttles,
                wall_s=compile_share + sim_s,
            ))
        return records
    sim_start = perf_counter()
    results = simulate_gate_variants(program, device, task.gates,
                                     stats=cache.batch)
    sim_share = (perf_counter() - sim_start) / len(task.gates)
    for gate, result in zip(task.gates, results):
        records.append(ExperimentRecord(
            application=task.circuit.name,
            config=task.config.with_updates(gate=gate),
            result=result,
            program_size=program_size,
            num_shuttles=num_shuttles,
            wall_s=compile_share + sim_share,
        ))
    return records


# ---------------------------------------------------------------------------
# Worker-side state for the process pool.  Each worker process lazily creates
# one cache and reuses it for every task it receives, so compilations are
# shared within a worker even though processes cannot share the parent cache.
# ---------------------------------------------------------------------------
_WORKER_CACHE: Optional[ProgramCache] = None


def _pool_tracer_init(trace_id: Optional[str],
                      parent_ref: Optional[str]) -> None:
    """Pool-child initializer: join the parent's trace, if it has one.

    Runs once per worker process.  When the parent traced the sweep, every
    child arms a tracer under the same root ``trace_id`` with the parent's
    open span as its cross-process ``parent_ref`` -- so ``sweep.task``
    spans executed in pool children appear in the merged trace instead of
    silently vanishing into untraced processes.
    """

    if trace_id is not None:
        enable_tracing(trace_id=trace_id, parent_ref=parent_ref)


def _worker_execute(task: SweepTask,
                    ) -> Tuple[List[ExperimentRecord], Dict[str, int],
                               Optional[List[Dict[str, object]]]]:
    """Execute one task in a pool worker.

    Returns the records, the worker cache's counter movement for this task
    (so the parent process can aggregate cache/batch statistics across
    workers; the memo itself stays process-local), and -- when the pool
    initializer armed a tracer -- the spans this task produced, drained
    into the self-contained shard schema so the parent can adopt them.
    """

    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ProgramCache()
    before = _WORKER_CACHE.stats()
    records = execute_task(task, _WORKER_CACHE)
    spans: Optional[List[Dict[str, object]]] = None
    tracer = current_tracer()
    if tracer is not None and (tracer.spans or tracer.foreign):
        from repro.obs.distributed import drain_records

        spans = drain_records(tracer)
    return records, _WORKER_CACHE.counters_delta(before), spans


def iter_tasks(tasks: Sequence[SweepTask], *, jobs: int = 1,
               cache: Optional[ProgramCache] = None):
    """Execute sweep ``tasks``, yielding per-task record lists in task order.

    The streaming counterpart of :func:`run_tasks`: each task's records are
    yielded as soon as that task (and every task before it) has finished, so
    consumers can checkpoint incrementally -- the DSE experiment store
    persists each design point the moment it completes, which is what makes
    killed sweeps resumable at point granularity.

    When the parent has tracing enabled, pool children join the same trace
    (root ``trace_id`` + the parent's open span as ``parent_ref``) through
    the pool initializer and ship their span records home with each task's
    results, so a ``--jobs N`` sweep traces its ``sweep.task`` spans just
    like a serial one.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes serially in-process --
        no pickling, shared ``cache``.  Larger values fan out to a process
        pool; yield order is still the submission order, so results are
        deterministic regardless of ``jobs``.
    cache:
        Compiled-program cache for the serial path (one is created when not
        given).  Pool workers always use process-local caches -- the
        parameter primes nothing across processes by design -- but their
        hit/miss and batch counters are merged back into ``cache`` as each
        task's records are yielded, so a summary printed from it covers the
        whole run regardless of ``jobs``.
    """

    tasks = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be a positive integer")
    if jobs == 1 or len(tasks) <= 1:
        cache = cache if cache is not None else ProgramCache()
        for task in tasks:
            yield execute_task(task, cache)
        return
    tracer = current_tracer()
    initargs = ((tracer.trace_id, current_span_ref())
                if tracer is not None else (None, None))
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             initializer=_pool_tracer_init,
                             initargs=initargs) as pool:
        chunksize = max(1, len(tasks) // (4 * jobs))
        for records, delta, spans in pool.map(_worker_execute, tasks,
                                              chunksize=chunksize):
            if cache is not None:
                cache.merge_counters(delta)
            if spans and tracer is not None:
                from repro.obs.distributed import adopt_exported

                adopt_exported(tracer, spans)
            yield records


def run_tasks(tasks: Sequence[SweepTask], *, jobs: int = 1,
              cache: Optional[ProgramCache] = None) -> List[List[ExperimentRecord]]:
    """Execute sweep ``tasks``, returning per-task record lists in task order.

    See :func:`iter_tasks` (this is its materialised form).
    """

    return list(iter_tasks(tasks, jobs=jobs, cache=cache))


def flatten(per_task_records: List[List[ExperimentRecord]]) -> List[ExperimentRecord]:
    """Concatenate per-task record lists into one flat record list."""

    return [record for records in per_task_records for record in records]
