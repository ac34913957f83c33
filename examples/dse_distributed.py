#!/usr/bin/env python3
"""Distributed design-space exploration: the shard-lease dispatcher.

PR 2 made sharded studies *mergeable* (every ``--shard i/N`` run appends its
own file to the store directory); the dispatcher makes them *coordinated*:
a ledger of lease files inside the store directory decides which worker owns
which shard, heartbeats keep a lease alive, and an expired lease -- a
SIGKILLed worker -- is reclaimed by the survivors.  No daemon, no database:
any shared filesystem is a cluster.

Quickstart (default mode)::

    python examples/dse_distributed.py          # 3 local workers, 24 points

This partitions a small study into leased shards, runs three worker
processes, watches progress with the stored per-point ``wall_s`` timings
(the same numbers behind ``repro dse status --eta``), and shows the
per-machine command lines you would run instead for a remote launch.

Smoke mode (used by CI)::

    python examples/dse_distributed.py --smoke

runs the dispatcher's crash-recovery guarantee end to end: a 48-point space
on 3 workers, one worker SIGKILLed mid-run, its shard reclaimed through
lease expiry -- then asserts the merged store's ``dse export`` output is
**byte-identical** to a single-process run of the same space, and exits
non-zero if it is not.
"""

import argparse
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.cli import main as repro_main
from repro.dse import DesignSpace, Dispatcher, DSERunner, ExperimentStore
from repro.dse.dispatch import format_eta


def export_bytes(store_dir: Path, output: Path) -> bytes:
    """Canonical ``dse export`` of a store, via the real CLI."""

    code = repro_main(["dse", "export", "--store", str(store_dir),
                       "--output", str(output)])
    if code != 0:
        raise SystemExit(f"export of {store_dir} failed with exit code {code}")
    return output.read_bytes()


def quickstart(workdir: Path) -> None:
    # 2 apps x 3 capacities x 4 gates = 24 points, all at 8 qubits.
    space = DesignSpace(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                        capacities=(6, 8, 10),
                        gates=("AM1", "AM2", "PM", "FM"))
    store_dir = workdir / "study"
    dispatcher = Dispatcher(space, store_dir, workers=3, shards=6,
                            ttl_s=30.0, poll_s=0.2)
    print(f"Dispatching {space.size} points as {dispatcher.shards} leased "
          f"shards to {dispatcher.workers} local workers...")

    def report(progress):
        leases = progress["leases"]
        print(f"  {progress['points_done']:3d}/{progress['points_total']} "
              f"points | shards done {leases['done']}/{dispatcher.shards}, "
              f"active {leases['active']} | ETA {format_eta(progress['eta_s'])}")

    summary = dispatcher.run(timeout_s=600.0, on_progress=report,
                             progress_interval_s=0.5)
    print(f"Dispatch complete: {summary['points']} points in "
          f"{summary['elapsed_s']:.1f} s")

    print("\nFor remote machines, prepare with --print-only and run one of "
          "these per host\n(each host must mount the store directory):")
    for line in dispatcher.command_lines():
        print(f"  {line}")

    print("\nStore status (note the per-shard files and wall_s timings):")
    repro_main(["dse", "status", "--store", str(store_dir), "--eta"])


def smoke(workdir: Path, trace: Path = None) -> int:
    """CI scenario: 3 workers, one SIGKILLed, export must match serial."""

    space = DesignSpace(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                        capacities=(6, 8, 10),
                        gates=("AM1", "AM2", "PM", "FM"),
                        reorders=("GS", "IS"))
    if trace is not None:
        # Tracing covers the serial golden run (compile/sim/dse spans) and
        # the dispatch coordination; the byte-diff below then doubles as
        # the traces-are-a-side-channel check -- the *traced* serial run's
        # export is what the dispatched export must match.
        from repro.obs import enable_tracing

        enable_tracing()
    print(f"[smoke] golden single-process run of {space.size} points...")
    with ExperimentStore(workdir / "serial") as store:
        DSERunner(space, store=store).evaluate_space()
    golden = export_bytes(workdir / "serial", workdir / "serial.json")

    store_dir = workdir / "dispatched"
    dispatcher = Dispatcher(space, store_dir, workers=3, shards=8,
                            ttl_s=2.0, throttle_s=0.05, poll_s=0.1,
                            respawn=False)
    dispatcher.prepare()
    procs = [dispatcher.spawn_worker() for _ in range(3)]
    victim = procs[0]
    try:
        # Kill worker 0 once it holds a lease, so its shard must be
        # reclaimed by the survivors through lease expiry.
        suffix = f"pid{victim.pid}"
        victim_shards = []
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and not victim_shards:
            victim_shards = [name for name in dispatcher.ledger.work_names()
                             if (dispatcher.ledger.owner_of(name) or "")
                             .endswith(suffix)]
            time.sleep(0.02)
        if not victim_shards:
            print("[smoke] FAIL: victim worker never claimed a shard")
            return 1
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(f"[smoke] SIGKILLed worker {victim.pid} holding "
              f"shard(s) {victim_shards}")

        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline and not dispatcher.ledger.all_done():
            time.sleep(0.2)
        if not dispatcher.ledger.all_done():
            print("[smoke] FAIL: shards not reclaimed/completed in time")
            return 1
        for proc in procs[1:]:
            proc.wait(timeout=60.0)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    for name in victim_shards:
        status = dispatcher.ledger.status_of(name)[0]
        print(f"[smoke] victim {name}: {status}")
        if status != "done":
            print("[smoke] FAIL: victim shard was not reclaimed")
            return 1

    if trace is not None:
        code = _check_fleet_trace(workdir, store_dir, trace)
        if code != 0:
            return code

    print("[smoke] worker telemetry:")
    repro_main(["dse", "status", "--store", str(store_dir), "--workers"])

    dispatched = export_bytes(store_dir, workdir / "dispatched.json")
    if dispatched != golden:
        print("[smoke] FAIL: dispatched export differs from the serial "
              "golden export")
        return 1
    print(f"[smoke] OK: dispatched export is byte-identical to the serial "
          f"run ({len(golden)} bytes, {space.size} points)")

    code = straggler_smoke(workdir, space, golden)
    if code != 0:
        return code
    return 0


def _check_fleet_trace(workdir: Path, store_dir: Path, trace: Path) -> int:
    """Validate the distributed-tracing guarantees on the smoke's fleet.

    The workers joined this process's trace through the environment
    (``spawn_worker`` stamped the context) and flushed span shards into
    the store -- the SIGKILLed one included, up to its last atomic flush.
    Checks: the merged trace carries spans from at least two worker pids
    under one root trace id, validates as Chrome trace JSON with process
    metadata, profiles into a fleet-wide critical path, and the standalone
    ``repro trace merge`` is deterministic (byte-identical across runs).
    """

    import json

    from repro.obs import (
        adopt_shards,
        build_profile,
        current_tracer,
        disable_tracing,
        validate_chrome_trace,
        write_trace,
    )

    tracer = current_tracer()
    info = adopt_shards(tracer, store_dir)
    disable_tracing()
    worker_pids = {record["pid"] for record in tracer.foreign}
    if len(worker_pids) < 2:
        print(f"[smoke] FAIL: expected trace shards from >= 2 worker "
              f"pids, got {sorted(worker_pids)}")
        return 1
    trace_ids = {record["trace_id"] for record in tracer.foreign}
    if trace_ids != {tracer.trace_id}:
        print(f"[smoke] FAIL: worker spans carry foreign trace ids "
              f"{sorted(trace_ids)} != {tracer.trace_id}")
        return 1
    paths = write_trace(trace, tracer)
    payload = json.loads(Path(paths["trace"]).read_text())
    events = validate_chrome_trace(payload)
    if events == 0:
        print("[smoke] FAIL: the trace recorded no spans")
        return 1
    if not any(e["ph"] == "M" for e in payload["traceEvents"]):
        print("[smoke] FAIL: fleet trace lacks process metadata events")
        return 1
    skipped = sum(info["skipped"].values())
    print(f"[smoke] trace: {paths['trace']} validates as Chrome trace "
          f"JSON ({events} events; {info['spans']} worker spans from "
          f"{len(worker_pids)} pids, {skipped} shard lines skipped)")

    profile = build_profile(tracer.records())
    critical = profile["critical_path"]
    if not critical:
        print("[smoke] FAIL: fleet profile has no critical path")
        return 1
    steps = " -> ".join(step["name"] for step in critical)
    print(f"[smoke] fleet critical path: {steps}")

    # The standalone merger must be deterministic: merging the same shard
    # set twice writes byte-identical bundles.
    merges = []
    for k in (1, 2):
        out = workdir / f"merged{k}.json"
        code = repro_main(["trace", "merge", "--store", str(store_dir),
                           "--output", str(out)])
        if code != 0:
            print(f"[smoke] FAIL: repro trace merge exited with {code}")
            return 1
        merges.append(out.read_bytes()
                      + out.with_suffix(".spans.jsonl").read_bytes())
    if merges[0] != merges[1]:
        print("[smoke] FAIL: repeated trace merges are not byte-identical")
        return 1
    print("[smoke] OK: repro trace merge is deterministic "
          "(byte-identical across runs)")
    return 0


def straggler_smoke(workdir: Path, space: DesignSpace, golden: bytes) -> int:
    """A SIGSTOPped worker must be flagged *before* its lease expires.

    SIGKILL (above) tests the recovery path -- the lease expires and the
    shard is reclaimed.  A hung-but-alive worker is worse: it renews
    nothing, produces nothing, and without the timeline monitor nobody
    notices until the lease budget runs out.  ``detect_stragglers`` flags
    it at half the TTL; this phase pins that the flag fires while the
    worker's heartbeat age is still inside the lease budget, then SIGCONTs
    the worker and checks the run still completes byte-identically.
    """

    from repro.obs.timeline import FleetMonitor

    store_dir = workdir / "straggler"
    ttl_s = 4.0
    dispatcher = Dispatcher(space, store_dir, workers=2, shards=8,
                            ttl_s=ttl_s, throttle_s=0.05, poll_s=0.1,
                            respawn=False)
    dispatcher.prepare()
    procs = [dispatcher.spawn_worker() for _ in range(2)]
    victim = procs[0]
    monitor = FleetMonitor(store_dir, ttl_s=ttl_s)
    stopped = False
    try:
        suffix = f"pid{victim.pid}"
        victim_owner = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and victim_owner is None:
            for name in dispatcher.ledger.work_names():
                owner = dispatcher.ledger.owner_of(name)
                if owner and owner.endswith(suffix):
                    victim_owner = owner
                    break
            time.sleep(0.02)
        if victim_owner is None:
            print("[smoke] FAIL: straggler victim never claimed a shard")
            return 1
        victim.send_signal(signal.SIGSTOP)
        stopped = True
        print(f"[smoke] SIGSTOPped worker {victim.pid} "
              f"(owner {victim_owner}, lease TTL {ttl_s:.0f}s)")

        flagged_age = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and flagged_age is None:
            snapshot = monitor.snapshot()
            reasons = snapshot["stragglers"].get(victim_owner, [])
            if any("stalled" in reason for reason in reasons):
                flagged_age = snapshot["workers"][victim_owner][
                    "last_seen_age_s"]
                break
            time.sleep(0.1)
        if flagged_age is None:
            print("[smoke] FAIL: stopped worker was never flagged "
                  "as a straggler")
            return 1
        if flagged_age >= ttl_s:
            print(f"[smoke] FAIL: straggler flagged only after lease "
                  f"expiry ({flagged_age:.1f}s >= {ttl_s:.0f}s)")
            return 1
        print(f"[smoke] straggler flagged at heartbeat age "
              f"{flagged_age:.1f}s -- inside the {ttl_s:.0f}s lease budget")

        victim.send_signal(signal.SIGCONT)
        stopped = False
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline and not dispatcher.ledger.all_done():
            time.sleep(0.2)
        if not dispatcher.ledger.all_done():
            print("[smoke] FAIL: straggler run did not complete")
            return 1
        for proc in procs:
            proc.wait(timeout=60.0)
    finally:
        monitor.close()
        for proc in procs:
            if proc.poll() is None:
                if stopped and proc is victim:
                    proc.send_signal(signal.SIGCONT)
                proc.kill()
                proc.wait()

    print("[smoke] fleet dashboard (repro dse top --once):")
    code = repro_main(["dse", "top", "--store", str(store_dir), "--once"])
    if code != 0:
        print(f"[smoke] FAIL: dse top exited with code {code}")
        return 1

    resumed = export_bytes(store_dir, workdir / "straggler.json")
    if resumed != golden:
        print("[smoke] FAIL: straggler run's export differs from the "
              "serial golden export")
        return 1
    print("[smoke] OK: SIGSTOP/SIGCONT run is byte-identical to the "
          "serial run")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="kill-one-worker recovery check (used by CI); "
                             "exits non-zero if the reclaimed run's export "
                             "differs from the serial golden export")
    parser.add_argument("--trace", type=Path, default=None, metavar="OUT.JSON",
                        help="with --smoke: trace the whole fleet (workers "
                             "join via the environment and flush span "
                             "shards), merge the shards, and validate the "
                             "fleet Chrome trace, critical path and "
                             "deterministic `repro trace merge`")
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="dse_distributed_"))
    try:
        if args.smoke:
            return smoke(workdir, trace=args.trace)
        quickstart(workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
