"""Paper-scale benchmark of the QCCD toolflow: compile, simulate, DSE fleet.

Run from the repository root::

    python3 paperbench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0

Workloads (``README.md`` beside this file says why each exists):

* ``paper_sweep``   -- the Figure 8 space plus the grid half of Figure 7
  (324 points, 108 compilations), cold cache and fresh store per job.
* ``model_resweep`` -- 36 programs compiled in set-up, then re-evaluated
  under one new heating model per job (180 points: a 4-gate fan-out space
  and an FM-only space).
* ``fleet_small``   -- one user job is ``python -m repro dse dispatch
  --workers 1`` into a fresh on-disk store plus ``python -m repro dse
  export`` (288 points at 16 qubits).

Each run repeats whole jobs for about ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics, with times normalized to a
reference host speed (:class:`HostProbe`); with ``--trace 1`` it
alternates untraced and traced jobs and reports per-layer metrics from
benchmark-owned spans (:mod:`tracing`).  Every job's results are digested
and checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every point is correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import ROOT as ROOT_SPAN
from tracing import Tracer, layer_of, span_totals

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".paperbench_work"
GOLDEN = REPO / "tests" / "data" / "golden_determinism.json"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("paper_sweep", "model_resweep", "fleet_small")
GATES = ("AM1", "AM2", "PM", "FM")
#: In-process set-up repetitions; ``setup_s`` takes the fastest.
SETUPS = 3
#: ``peak_rss_mb`` is the high-water mark after this many jobs (or all).
RSS_AFTER_JOBS = 16
#: Fresh-interpreter import probes per measurement, spread over the set-up
#: repetitions when they measure ``setup_s``.
IMPORT_PROBES = 6
#: Per-child time limit, far above a healthy job.
CHILD_TIMEOUT_S = 90.0

#: Entry points wrapped in a traced job: span name -> attribute(s) where the
#: program looks them up.
TRACED = {
    "hardware.build_device": ["repro.toolflow.config:ArchitectureConfig.build_device"],
    "compiler.compile": ["repro.toolflow.parallel:compile_circuit"],
    "isa.validate": ["repro.isa.program:QCCDProgram.validate"],
    "isa.num_shuttles": ["repro.isa.program:QCCDProgram.num_shuttles"],
    "toolflow.cache": ["repro.toolflow.parallel:ProgramCache.get_or_compile"],
    "sim.simulate": ["repro.toolflow.parallel:simulate"],
    "sim.batch": ["repro.toolflow.parallel:simulate_gate_variants",
                  "repro.sim.batch:simulate_model_variants"],
    "io.fingerprint": ["repro.dse.runner:design_point_fingerprint"],
    "dse.runner": ["repro.dse.runner:DSERunner.evaluate"],
    "dse.store.add": ["repro.dse.store:ExperimentStore.add"],
}
#: Wrapped during set-up.
TRACED_SETUP = {"apps.build": ["repro.apps.suite:build_application"]}
#: Layers whose self time makes up an in-process job.
LAYERS = ("hardware", "compiler", "isa", "toolflow", "sim", "io", "dse", "bench")


class ProgramMissing(RuntimeError):
    """The program under test is not importable from this checkout."""


def import_program() -> None:
    """Import the program's modules into this module's namespace."""

    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    global suite, DesignSpace, DSERunner, ExperimentStore, ProgramCache
    global PhysicalModel, QCCDProgram, compile_for
    global result_metrics_hex, simulate, telemetry_summary
    try:
        from repro.apps import suite
        from repro.dse.dispatch import telemetry_summary
        from repro.dse.runner import DSERunner
        from repro.dse.space import DesignSpace
        from repro.dse.store import ExperimentStore
        from repro.io.fingerprint import result_metrics_hex
        from repro.isa.program import QCCDProgram
        from repro.models.params import PhysicalModel
        from repro.sim.engine import simulate
        from repro.toolflow.parallel import ProgramCache
        from repro.toolflow.runner import compile_for
    except ImportError as exc:
        raise ProgramMissing(str(exc)) from exc


# --------------------------------------------------------------------------- #
# Inputs: every generated input is a function of the seed alone.
# --------------------------------------------------------------------------- #
def heating_multipliers(rng: random.Random) -> Tuple[float, float, float]:
    """k1/k2/k_junction multipliers, log-uniform in [0.1, 10]."""

    return tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))


def seed_heating(workload: str, seed: int) -> Tuple[float, float, float]:
    """The heating model of a ``paper_sweep`` or ``fleet_small`` run.

    Seed 0 is the paper's model.  Other seeds draw a heating model and never
    change application sizes: regression checks compare runs made with
    different seeds, and a few qubits more or less on QFT alone moves a sweep's
    throughput by tens of percent, while the heating constants change every
    result but not the work.
    """

    if seed == 0:
        return (1.0, 1.0, 1.0)
    return heating_multipliers(random.Random(f"{workload}:{seed}"))


def model_multipliers(seed: int, job: int) -> Tuple[float, float, float]:
    """The heating model of ``model_resweep`` job ``job``."""

    return heating_multipliers(random.Random(f"model_resweep:{seed}:{job}"))


#: Application size of every ``fleet_small`` point.
FLEET_QUBITS = 16


def heated_model(multipliers) -> "PhysicalModel":
    base = PhysicalModel()
    k1, k2, kj = multipliers
    heating = replace(base.heating, k1=base.heating.k1 * k1,
                      k2=base.heating.k2 * k2,
                      k_junction=base.heating.k_junction * kj)
    return replace(base, heating=heating)


def digest(entries) -> str:
    """Order-independent digest of ``(key, payload)`` pairs, sorted by key."""

    sha = hashlib.sha256()
    for key, payload in sorted(entries, key=lambda item: item[0]):
        sha.update(json.dumps([key, payload], sort_keys=True).encode())
    return sha.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
#: Kernel time of the reference host that timed metrics are normalized to:
#: a quiet 2-vCPU Intel Xeon VM.
REFERENCE_KERNEL_S = 0.016


def _kernel() -> int:
    """A fixed pure-Python mix of dict, list and tuple work."""

    table, items, acc = {}, [], 0
    for i in range(15000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        acc += len(items) & 7
    items.sort()
    return acc + sum(table.values())


class ProcessStateChanged(RuntimeError):
    """The program left state behind that would slow the host-speed kernel."""


class HostProbe:
    """Host speed, from a fixed kernel timed around each measured segment.

    On a shared host the same code runs up to 1.6x slower for minutes at a
    time, under other tenants' load.  The kernel's time follows that drift
    closely for work done in this process.  A segment's normalized time is
    its wall time scaled by :data:`REFERENCE_KERNEL_S` over the mean kernel
    time just before and just after it.  A disabled probe runs no kernel and
    leaves times as they are: for traced jobs, and for ``fleet_small``, whose
    work runs in child processes that the kernel does not track.

    The kernel runs in the program's process, so process-wide state the
    program leaves behind would slow the kernel too and be divided out.  The
    garbage collector is switched off around it; a second thread or a
    profile or trace hook makes the probe raise
    :class:`ProcessStateChanged`, which fails the job instead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self._before: Optional[float] = None

    def kernel_s(self) -> float:
        if threading.active_count() != 1:
            raise ProcessStateChanged(
                f"{threading.active_count()} threads are running; the "
                "host-speed kernel would share the interpreter with them")
        if sys.getprofile() is not None or sys.gettrace() is not None:
            raise ProcessStateChanged("a profile or trace hook is installed; "
                                      "it would slow the host-speed kernel")
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage-collector settings stay out
        try:
            started = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def start(self) -> None:
        if self.enabled:
            self._before = self.kernel_s()

    def normalize(self, wall: float) -> float:
        """Normalized time of a segment that just took ``wall`` seconds."""

        if not self.enabled:
            return wall
        after = self.kernel_s()
        normalized = wall * REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after
        return normalized


# --------------------------------------------------------------------------- #
# One job's outcome
# --------------------------------------------------------------------------- #
@dataclass
class Job:
    wall_s: float
    points: int
    #: ``wall_s`` normalized to the reference host speed (see HostProbe).
    norm_s: float = 0.0
    #: High-water RSS (MB) of this process, or of its largest child for
    #: ``fleet_small``, when the job ended.
    rss_mb: float = 0.0
    digest: str = ""
    failed: int = 0
    #: Simulated work: points, ops, shuttles, MS gates, simulated seconds.
    work: Dict[str, float] = field(default_factory=dict)
    #: ProgramCache counter movement during the job.
    cache: Dict[str, int] = field(default_factory=dict)
    #: fleet_small only: subprocess walls and telemetry.
    parts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    traced: bool = False


def record_work(records) -> Dict[str, float]:
    """Simulated-work counts of evaluated records."""

    return {
        "points": len(records),
        "ops": sum(record.program_size for record in records),
        "shuttles": sum(record.num_shuttles for record in records),
        "ms_gates": sum(record.result.num_ms_gates for record in records),
        "sim_s": math.fsum(record.result.duration_seconds for record in records),
    }


def stats_delta(cache, before: Dict[str, int]) -> Dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in cache.stats().items()}


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class PaperSweep:
    """Figure 8 (L6, 4 gates x GS/IS) plus Figure 7's G2x3 FM-GS half."""

    name = "paper_sweep"
    host_normalized = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.heating = seed_heating(self.name, seed)
        self.golden = json.loads(GOLDEN.read_text())["paper"]
        self.checked_golden = 0

    def setup(self) -> None:
        self.circuits = suite.table2_suite()
        common = dict(apps=tuple(self.circuits), capacities=(14, 18, 22, 26, 30, 34),
                      model=heated_model(self.heating))
        self.spaces = (
            DesignSpace(topologies=("L6",), gates=GATES, reorders=("GS", "IS"),
                        **common),
            DesignSpace(topologies=("G2x3",), gates=("FM",), reorders=("GS",),
                        **common),
        )
        self.points = sum(space.size for space in self.spaces)

    def run(self, index: int, probe) -> Tuple[Job, object]:
        cache = ProgramCache()
        store = ExperimentStore()
        evaluated, wall, norm = [], 0.0, 0.0
        for space in self.spaces:
            runner = DSERunner(space, store, circuits=self.circuits, cache=cache)
            points, results = list(space.points()), []
            # One evaluate call per (topology, capacity, reorder) block, so the
            # host speed is probed every half second or so.
            for _, block in itertools.groupby(points, key=lambda p: (
                    p.config.topology, p.config.trap_capacity, p.config.reorder)):
                started = time.perf_counter()
                results += runner.evaluate(list(block))
                elapsed = time.perf_counter() - started
                wall += elapsed
                norm += probe.normalize(elapsed)
            evaluated.append((runner, points, results))
        return Job(wall, sum(len(p) for _, p, _ in evaluated), norm,
                   cache=stats_delta(cache, {})), evaluated

    def check(self, job: Job, evaluated, index: int) -> None:
        entries, records = [], []
        for runner, points, results in evaluated:
            for point, record in zip(points, results):
                metrics = result_metrics_hex(record.result)
                entries.append((runner.fingerprint(point), metrics))
                records.append(record)
                job.failed += self._golden_mismatch(point, metrics)
        job.digest = digest(entries)
        job.work = record_work(records)
        if index == 0:
            job.failed += self._serial_recheck(evaluated)

    def _golden_mismatch(self, point, metrics) -> int:
        config = point.config
        if (config.topology, config.trap_capacity, config.gate) != ("L6", 22, "FM"):
            return 0
        if self.seed != 0:
            return 0
        self.checked_golden += 1
        expected = self.golden[f"L6-cap22-{config.reorder}"][point.app]["metrics"]
        return int(metrics != expected)

    def _serial_recheck(self, evaluated) -> int:
        """Recompute one seed-chosen point per application serially."""

        rng = random.Random(f"recheck:{self.seed}")
        runner, points, results = evaluated[0]
        failed = 0
        for app in self.circuits:
            choices = [i for i, point in enumerate(points) if point.app == app]
            i = rng.choice(choices)
            program, device = compile_for(self.circuits[app], points[i].config)
            serial = result_metrics_hex(simulate(program, device))
            failed += int(serial != result_metrics_hex(results[i].result))
        return failed


class ModelResweep:
    """36 programs compiled in set-up; one new heating model per job."""

    name = "model_resweep"
    host_normalized = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _spaces(self, model):
        apps = tuple(self.circuits)
        common = dict(apps=apps, topologies=("L6", "G2x3"),
                      capacities=(14, 22, 30), reorders=("GS",), model=model)
        return (("fanout", DesignSpace(gates=GATES, **common)),
                ("fm", DesignSpace(gates=("FM",), **common)))

    def setup(self) -> None:
        # The fan-out under the paper's own model compiles all 36 programs
        # and builds their batch plans, so timed jobs see only the model
        # change.
        self.circuits = suite.table2_suite()
        self.cache = ProgramCache()
        spaces = dict(self._spaces(PhysicalModel()))
        self.points = sum(space.size for space in spaces.values())
        DSERunner(spaces["fanout"], ExperimentStore(), circuits=self.circuits,
                  cache=self.cache).evaluate_space()

    def run(self, index: int, probe) -> Tuple[Job, object]:
        model = heated_model(model_multipliers(self.seed, index))
        before = self.cache.stats()
        started = time.perf_counter()
        evaluated = []
        for tag, space in self._spaces(model):
            runner = DSERunner(space, ExperimentStore(), circuits=self.circuits,
                               cache=self.cache)
            evaluated.append((tag, runner, list(space.points()),
                              runner.evaluate_space()))
        wall = time.perf_counter() - started
        return Job(wall, sum(len(p) for _, _, p, _ in evaluated), probe.normalize(wall),
                   cache=stats_delta(self.cache, before)), evaluated

    def check(self, job: Job, evaluated, index: int) -> None:
        entries, records, by_tag = [], [], {}
        for tag, runner, points, results in evaluated:
            for point, record in zip(points, results):
                key = runner.fingerprint(point)
                metrics = result_metrics_hex(record.result)
                entries.append((f"{tag}:{key}", metrics))
                by_tag.setdefault(tag, {})[key] = metrics
                records.append(record)
        job.digest = digest(entries)
        job.work = record_work(records)
        # The FM points of the batched fan-out must equal the serially
        # simulated FM-only space bit for bit.
        for key, metrics in by_tag["fm"].items():
            job.failed += 2 * int(by_tag["fanout"].get(key) != metrics)


class FleetSmall:
    """Back-to-back ``dse dispatch --workers 1`` + ``dse export`` user jobs."""

    name = "fleet_small"
    host_normalized = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.heating = seed_heating(self.name, seed)
        self.work_dir = WORK / f"fleet-{os.getpid()}"
        self.first_export: Optional[bytes] = None
        self.expected_rows = None

    def setup(self) -> None:
        self.space = DesignSpace(
            apps=tuple(suite.APPLICATION_NAMES), qubits=(FLEET_QUBITS,),
            topologies=("L4", "G2x2"), capacities=(6, 8, 10), gates=GATES,
            reorders=("GS", "IS"), model=heated_model(self.heating))
        self.points = self.space.size
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.space_file = self.work_dir / "space.json"
        self.space_file.write_text(json.dumps(self.space.to_dict(), sort_keys=True))

    def run(self, index: int, probe) -> Tuple[Job, object]:
        store = self.work_dir / f"job{index}"
        export = self.work_dir / f"job{index}.json"
        started = time.perf_counter()
        dispatch = run_child(["dse", "dispatch", "--space", str(self.space_file),
                              "--workers", "1", "--store", str(store)])
        dispatched = time.perf_counter()
        exported = run_child(["dse", "export", "--store", str(store),
                              "--output", str(export)])
        finished = time.perf_counter()
        job = Job(finished - started, self.space.size,
                  probe.normalize(finished - started),
                  parts={"dispatch_s": dispatched - started,
                         "export_s": finished - dispatched})
        return job, (store, export, dispatch, exported)

    def check(self, job: Job, outcome, index: int) -> None:
        store_dir, export, dispatch, exported = outcome
        if dispatch.returncode != 0 or exported.returncode != 0:
            job.failed = job.points
            job.notes.append(f"job {index}: dispatch exit {dispatch.returncode}, "
                             f"export exit {exported.returncode}: "
                             f"{(dispatch.stderr + exported.stderr)[-400:]}")
            return
        data = export.read_bytes()
        job.digest = hashlib.sha256(data).hexdigest()[:16]
        if self.first_export is None:
            self.first_export = data
        elif data != self.first_export:
            job.failed = job.points
            job.notes.append(f"job {index}: export differs from job 0")
        rows = json.loads(data)["rows"]
        if self.expected_rows is None:
            self.expected_rows = self._in_process_rows()
        job.failed = max(job.failed, sum(
            int(row != self.expected_rows.get(row["fingerprint"])) for row in rows)
            + max(0, job.points - len(rows)))
        job.work = {
            "points": len(rows),
            "ops": sum(row["program_ops"] for row in rows),
            "shuttles": sum(row["shuttles"] for row in rows),
            "ms_gates": sum(int(row["metrics"]["num_ms_gates"]) for row in rows),
            "sim_s": math.fsum(row["metrics"]["duration_s"] for row in rows),
        }
        reload_started = time.perf_counter()
        store = ExperimentStore(store_dir)
        reloaded = store.export_rows()
        job.parts["reload_s"] = time.perf_counter() - reload_started
        job.parts["skipped_lines"] = store.skipped_lines
        store.close()
        if json.loads(json.dumps(reloaded)) != rows:
            job.failed = job.points
            job.notes.append(f"job {index}: reloaded store differs from export")
        workers = telemetry_summary(store_dir).values()
        job.parts["worker_busy_s"] = math.fsum(w["wall_s"] for w in workers)
        for key in ("claims", "renewals", "lost"):
            job.parts[key] = sum(w[key] for w in workers)
        marker = " (respawned "
        line = next((l for l in dispatch.stdout.splitlines() if marker in l), "")
        job.parts["respawned"] = int(line.split(marker)[1].split()[0]) if line else -1
        shutil.rmtree(store_dir, ignore_errors=True)
        export.unlink()

    def _in_process_rows(self) -> Dict[str, dict]:
        """The same space evaluated in this process, as canonical export rows."""

        store = ExperimentStore()
        DSERunner(self.space, store).evaluate_space()
        return {row["fingerprint"]: row
                for row in json.loads(json.dumps(store.export_rows()))}

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: List[str]) -> subprocess.CompletedProcess:
    """Run ``python -m repro <args>`` in its own process group, and reap it."""

    proc = subprocess.Popen([sys.executable, "-m", "repro", *args], cwd=REPO,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s"
    finally:
        try:  # a worker the dispatcher left behind shares its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


#: Standard-library modules the program does not import.  Importing them in
#: a fresh interpreter is the same kind of work as the program's imports
#: (reading, unmarshalling and running module code), and no change to the
#: program can move it.
REFERENCE_MODULES = ("asyncio, unittest, http.server, sqlite3, tarfile, pydoc, "
                     "optparse, ftplib, imaplib, smtplib, mailbox, xmlrpc.client, "
                     "wave, plistlib, configparser, tomllib, cmd, pdb")
#: Import time of :data:`REFERENCE_MODULES` on the reference host of
#: :data:`REFERENCE_KERNEL_S`.
REFERENCE_IMPORT_S = 0.12


def import_probe(statement: str, program: bool = True) -> float:
    """Wall time of ``statement`` in a fresh interpreter, timed inside it.

    Without ``program`` the interpreter runs isolated (``-I``), so neither
    the program's sources nor the environment can reach it.
    """

    setup = f"sys.path.insert(0, {str(HERE)!r}); " if program else ""
    code = (f"import sys, time; {setup}"
            f"t = time.perf_counter(); {statement}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, *([] if program else ["-I"]), "-c", code],
                         cwd=REPO, env=child_env(), capture_output=True, text=True,
                         check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
#: name -> unit of every per-layer metric.
PER_LAYER_UNITS = {
    "cli.import_s": "s", "apps.build_s": "s",
    "hardware.build_device_s": "s", "hardware.build_device.calls": "count",
    "compiler.compile_s": "s", "compiler.compile.calls": "count",
    "compiler.us_per_op": "us/op", "compiler.ops": "count",
    "compiler.shuttles": "count",
    "isa.validate_s": "s", "isa.num_shuttles_s": "s",
    "isa.num_shuttles.calls": "count",
    "toolflow.cache.hit_ratio": "ratio", "toolflow.cache.lookups": "count",
    "sim.simulate_s": "s", "sim.simulate.calls": "count",
    "sim.simulate.us_per_op": "us/op",
    "sim.batch_s": "s", "sim.batch.variants": "count",
    "sim.batch.timeline_hit_ratio": "ratio", "sim.batch.plan_reuse_ratio": "ratio",
    "io.fingerprint_s": "s", "io.fingerprint.calls": "count",
    "dse.runner.self_s": "s", "dse.store.add_s": "s", "dse.store.rows": "count",
    "dse.store.reload_s": "s", "dse.store.skipped_lines": "count",
    "dse.export_s": "s", "dse.dispatch.worker_busy_s": "s",
    "dse.dispatch.overhead_s": "s", "dse.dispatch.claims": "count",
    "dse.dispatch.renewals": "count", "dse.dispatch.lost": "count",
    "dse.dispatch.respawned": "count",
    "work.points": "count", "work.ops": "count", "work.shuttles": "count",
    "work.ms_gates": "count", "work.sim_s": "s", "work.host_us_per_op": "us/op",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_frac": "ratio",
    "host.kernel_ms": "ms", "raw.points_per_s": "1/s", "raw.job_s.p50": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "share.dse.dispatch_overhead": "ratio", "share.dse.worker_busy": "ratio",
    "share.dse.export": "ratio",
}


def ratio(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


def work_metrics(job: Job) -> Dict[str, Optional[float]]:
    work = job.work
    metrics = {f"work.{key}": value for key, value in work.items()}
    metrics["work.host_us_per_op"] = ratio(1e6 * job.wall_s, work.get("ops", 0))
    return metrics


def in_process_layers(tracer: Tracer, traced: List[Job], untraced: List[Job],
                      setups: int) -> Dict[str, Optional[float]]:
    """Per-job layer metrics from the spans of the traced jobs.

    Set-up wraps only ``apps.build`` and traced jobs only :data:`TRACED`, so
    every other span name lies inside a job.
    """

    totals = span_totals(tracer.spans)
    n = len(traced)
    tallies = tracer.tallies

    def total(name):
        row = totals.get(name)
        return row["total_s"] / n if row else None

    def calls(name):
        row = totals.get(name)
        return row["calls"] / n if row else None

    cache = {key: sum(job.cache.get(key, 0) for job in traced)
             for key in ("hits", "misses", "batch_plans", "batch_plan_reuses",
                         "batch_timelines", "batch_timeline_hits")}
    wall = statistics.median(job.wall_s for job in traced)
    root_wall = totals[ROOT_SPAN]["total_s"] / n
    metrics = {
        "apps.build_s": (totals["apps.build"]["total_s"] / setups
                         if "apps.build" in totals else None),
        "hardware.build_device_s": total("hardware.build_device"),
        "hardware.build_device.calls": calls("hardware.build_device"),
        "compiler.compile_s": total("compiler.compile"),
        "compiler.compile.calls": calls("compiler.compile"),
        "compiler.ops": tallies["compiler.ops"] / n if "compiler.compile" in totals else None,
        "compiler.shuttles": (tallies["compiler.shuttles"] / n
                              if "compiler.compile" in totals else None),
        "isa.validate_s": total("isa.validate"),
        "isa.num_shuttles_s": total("isa.num_shuttles"),
        "isa.num_shuttles.calls": calls("isa.num_shuttles"),
        "toolflow.cache.lookups": calls("toolflow.cache"),
        "toolflow.cache.hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "sim.simulate_s": total("sim.simulate"),
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.batch_s": total("sim.batch"),
        "sim.batch.variants": (tallies["sim.batch.variants"] / n
                               if "sim.batch" in totals else None),
        "sim.batch.timeline_hit_ratio": ratio(
            cache["batch_timeline_hits"],
            cache["batch_timelines"] + cache["batch_timeline_hits"]),
        "sim.batch.plan_reuse_ratio": ratio(
            cache["batch_plan_reuses"], cache["batch_plans"] + cache["batch_plan_reuses"]),
        "io.fingerprint_s": total("io.fingerprint"),
        "io.fingerprint.calls": calls("io.fingerprint"),
        "dse.runner.self_s": (totals["dse.runner"]["self_s"] / n
                              if "dse.runner" in totals else None),
        "dse.store.add_s": total("dse.store.add"),
        "dse.store.rows": tallies["dse.store.rows"] / n if "dse.store.add" in totals else None,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": (statistics.median(job.wall_s for job in untraced)
                                  if untraced else None),
    }
    if metrics["compiler.compile_s"] and tallies["compiler.ops"]:
        metrics["compiler.us_per_op"] = 1e6 * metrics["compiler.compile_s"] * n / tallies["compiler.ops"]
    if metrics["sim.simulate_s"] and tallies["sim.simulate.ops"]:
        metrics["sim.simulate.us_per_op"] = 1e6 * metrics["sim.simulate_s"] * n / tallies["sim.simulate.ops"]
    if metrics["trace.untraced_wall_s"]:
        metrics["trace.overhead_frac"] = wall / metrics["trace.untraced_wall_s"] - 1.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in totals.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += row["self_s"] / n
    for layer, self_s in layer_self.items():
        metrics[f"share.{layer}"] = ratio(self_s, root_wall)
    return metrics


def fleet_layers(jobs: List[Job]) -> Dict[str, Optional[float]]:
    """Per-job fleet metrics, measured from outside the child processes."""

    def median(key):
        return statistics.median(job.parts[key] for job in jobs)

    overhead = [job.parts["dispatch_s"] - job.parts["worker_busy_s"] for job in jobs]
    job_s = math.fsum(job.wall_s for job in jobs)
    return {
        "dse.store.reload_s": median("reload_s"),
        "dse.store.skipped_lines": max(job.parts["skipped_lines"] for job in jobs),
        "dse.export_s": median("export_s"),
        "dse.dispatch.worker_busy_s": median("worker_busy_s"),
        "dse.dispatch.overhead_s": statistics.median(overhead),
        **{f"dse.dispatch.{key}": median(key)
           for key in ("claims", "renewals", "lost", "respawned")},
        "share.dse.dispatch_overhead": math.fsum(overhead) / job_s,
        "share.dse.worker_busy": math.fsum(j.parts["worker_busy_s"] for j in jobs) / job_s,
        "share.dse.export": math.fsum(j.parts["export_s"] for j in jobs) / job_s,
        "trace.wall_s": statistics.median(job.wall_s for job in jobs),
    }


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def install(tracer: Tracer, targets: Dict[str, List[str]]) -> None:
    num_shuttles = QCCDProgram.num_shuttles.fget  # unwrapped, for tallies

    def on_compile(tallies, args, program):
        tallies["compiler.ops"] += len(program)
        tallies["compiler.shuttles"] += num_shuttles(program)

    def on_simulate(tallies, args, result):
        tallies["sim.simulate.ops"] += len(args[0])

    def on_batch(tallies, args, results):
        tallies["sim.batch.variants"] += len(results)

    def on_add(tallies, args, added):
        tallies["dse.store.rows"] += int(bool(added))

    hooks = {"compiler.compile": on_compile, "sim.simulate": on_simulate,
             "sim.batch": on_batch, "dse.store.add": on_add}
    for name, attrs in targets.items():
        for attr in attrs:
            tracer.wrap(attr, name, hooks.get(name))


def timed_setup(workload, tracer: Optional[Tracer]) -> Tuple[float, float, str]:
    """Set-up time: the program's imports plus building the workload's inputs.

    This process has the imports already, so they are probed in fresh
    interpreters, interleaved with :data:`SETUPS` in-process builds.  On a
    shared host the import time drifts by 20% or more within a minute.  So
    each program import is paired with an import of
    :data:`REFERENCE_MODULES` in another fresh interpreter just before it,
    and the import time counts as :data:`REFERENCE_IMPORT_S` times the
    median ratio of the pairs, which follows the drift.  The fastest build
    counts: noise on a shared host only adds time, and the host-speed kernel
    over-corrects a build (it slows 1.8x when a build slows 1.35x).
    Returns the set-up time with normalized imports, the wall-clock set-up
    time, and a line with every sample.
    """

    imports, references, builds = [], [], []
    for _ in range(SETUPS):
        for _ in range(IMPORT_PROBES // SETUPS):
            references.append(import_probe(f"import {REFERENCE_MODULES}",
                                           program=False))
            imports.append(import_probe("import run; run.import_program()"))
        if tracer is not None:
            install(tracer, TRACED_SETUP)
        started = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.restore()
    import_s = REFERENCE_IMPORT_S * statistics.median(
        program / reference for program, reference in zip(imports, references))
    samples = (f"set-up samples (s): imports {fmt(imports)}, references "
               f"{fmt(references)}, normalized {import_s:.3f}; builds {fmt(builds)}")
    return (import_s + min(builds), statistics.median(imports) + min(builds),
            samples)


def fmt(values: List[float]) -> str:
    return " ".join(f"{value:.3f}" for value in values)


def peak_rss_mb(workload) -> float:
    who = (resource.RUSAGE_CHILDREN if isinstance(workload, FleetSmall)
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_jobs(workload, seconds: float, tracer: Optional[Tracer], probe: HostProbe):
    """Repeat jobs (untraced, or untraced/traced pairs) for about ``seconds``.

    Returns the jobs in the order they ran, which is their index order.
    A new round starts only while the run would end no later than half a
    round past ``seconds``; at least one round runs.
    """

    jobs, rounds = [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced_job in ((False, True) if tracer is not None else (False,)):
            index = len(jobs)
            if traced_job:
                job_probe = HostProbe(enabled=False)  # its root span times it whole
                install(tracer, TRACED)
                root = tracer.open(ROOT_SPAN)
            else:
                job_probe = probe
            job_started = time.perf_counter()
            try:
                job_probe.start()
                job, outcome = workload.run(index, job_probe)
            except Exception:  # a raising job counts as failed points
                wall = time.perf_counter() - job_started
                job = Job(wall, workload.points, wall, failed=workload.points,
                          notes=[f"job {index} raised: {traceback.format_exc()}"])
                outcome = None
            finally:
                if traced_job:
                    tracer.close(root)
                    tracer.restore()
            if outcome is not None:
                try:
                    workload.check(job, outcome, index)
                except Exception:
                    job.failed = job.points
                    job.notes.append(f"job {index} check raised: {traceback.format_exc()}")
            job.traced = traced_job
            job.rss_mb = peak_rss_mb(workload)
            jobs.append(job)
        rounds.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if elapsed >= seconds - statistics.median(rounds) / 2:
            return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = {"paper_sweep": PaperSweep, "model_resweep": ModelResweep,
                "fleet_small": FleetSmall}[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    probe = HostProbe(enabled=workload.host_normalized)
    try:
        setup_s, setup_raw_s, setup_samples = timed_setup(workload, tracer)
        # fleet_small's layers are measured from outside its children, so
        # its jobs run untraced.
        jobs = run_jobs(
            workload, args.seconds, None if isinstance(workload, FleetSmall) else tracer,
            probe)
        probe_s = (statistics.median(import_probe("import repro.cli")
                                     for _ in range(IMPORT_PROBES))
                   if tracer is not None else None)
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()
    untraced = [job for job in jobs if not job.traced]
    traced = [job for job in jobs if job.traced]

    # -- correctness ---------------------------------------------------------
    reference = json.loads(REFERENCE.read_text()).get(args.workload)
    for index, job in enumerate(jobs):
        expected = expected_digest(args.workload, args.seed, index, reference, jobs)
        if expected and job.digest != expected and not job.failed:
            job.failed = job.points
            job.notes.append(f"job {index}: digest {job.digest} != {expected}")
    attempted = sum(job.points for job in jobs)
    failed = sum(min(job.failed, job.points) for job in jobs)
    notes = [note for job in jobs for note in job.notes]

    # -- metrics -------------------------------------------------------------
    points = sum(job.points for job in untraced)
    raw = {"points_per_s": points / math.fsum(job.wall_s for job in untraced),
           "job_s.p50": statistics.median(job.wall_s for job in untraced),
           "setup_s": setup_raw_s}
    if args.trace == 0:
        # model_resweep's memos grow with every new model, so the high-water
        # mark is taken after a fixed number of jobs, not at the end of a
        # run whose length in jobs depends on host speed.
        rss_job = untraced[min(RSS_AFTER_JOBS, len(untraced)) - 1]
        metrics = {
            "points_per_s": (points / math.fsum(job.norm_s for job in untraced), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_job.rss_mb, "MB"),
            "job_s.p50": (statistics.median(job.norm_s for job in untraced), "s"),
        }
        unmeasured = []
    else:
        layers = {"cli.import_s": probe_s,
                  "host.kernel_ms": (1e3 * statistics.median(probe.samples)
                                     if probe.samples else None),
                  "raw.points_per_s": raw["points_per_s"],
                  "raw.job_s.p50": raw["job_s.p50"]}
        layers.update(work_metrics(jobs[0]))
        if args.workload == "fleet_small":
            layers.update(fleet_layers(jobs))
        else:
            layers.update(in_process_layers(tracer, traced, untraced, SETUPS))
            trace_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            WORK.mkdir(exist_ok=True)
            tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                      "run_id": f"{os.getpid()}-{time.time():.0f}",
                                      "jobs": len(traced), "missing": tracer.missing})
            print(f"spans: {trace_file.relative_to(REPO)} ({len(tracer.spans)} spans)")
        unmeasured = sorted(name for name in PER_LAYER_UNITS if layers.get(name) is None)
        metrics = {name: (layers.get(name) or 0.0, unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        if tracer is not None and tracer.missing:
            print("missing entry points: " + ", ".join(tracer.missing))

    # -- report --------------------------------------------------------------
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(jobs)} jobs ({len(traced)} traced), {attempted} points attempted")
    print("inputs: " + json.dumps(describe_inputs(args.workload, args.seed,
                                                  len(jobs)), sort_keys=True))
    print("digests: " + " ".join(job.digest for job in jobs))
    print(setup_samples)
    print("job walls (s): " + fmt([job.wall_s for job in jobs]))
    print("normalized (s): " + fmt([job.norm_s for job in jobs]))
    if isinstance(workload, PaperSweep):
        print(f"golden points checked: {workload.checked_golden}")
    if jobs:
        work = jobs[0].work
        print("work per job: " + " ".join(f"{k}={v!r}" for k, v in sorted(work.items()))
              + f" host_us_per_op={work_metrics(jobs[0])['work.host_us_per_op']}")
    print(f"failed_frac = {failed / attempted!r} frac ({failed}/{attempted})")
    kernel = (f"{statistics.median(probe.samples) * 1e3:.3f} ms" if probe.samples
              else "not run")
    print(f"host kernel median {kernel} (reference {REFERENCE_KERNEL_S * 1e3:g} ms); "
          "wall-clock values: " + ", ".join(f"{k} {v!r}" for k, v in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value!r} {unit}")
    if unmeasured:
        print("unmeasured: " + ", ".join(unmeasured))
    for note in notes[:20]:
        print(f"FAILED: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def expected_digest(workload: str, seed: int, index: int, reference,
                    jobs: List[Job]) -> Optional[str]:
    """The digest job ``index`` must have, if one is known.

    At seed 0 the committed reference (one digest, or one per job for
    ``model_resweep``); at other seeds ``paper_sweep`` repeats identical
    work, so every job must match the first.
    """

    if seed == 0 and isinstance(reference, list):
        return reference[index] if index < len(reference) else None
    if seed == 0 and reference:
        return reference
    if workload == "paper_sweep" and index > 0:
        return jobs[0].digest
    return None


def describe_inputs(workload: str, seed: int, jobs: int) -> Dict[str, object]:
    """The generated inputs of a run, for printing and for the self-tests."""

    if workload == "model_resweep":
        return {"models": [model_multipliers(seed, job) for job in range(jobs)]}
    return {"heating": seed_heating(workload, seed)}

if __name__ == "__main__":
    sys.exit(main())
