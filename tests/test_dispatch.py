"""Tests for the shard-lease dispatcher (repro.dse.dispatch).

Covers the lease lifecycle the dispatcher is built on -- claim contention,
heartbeat renewal, expiry-based reclaim of a killed worker's shard -- plus
the worker loop, the dispatch manifest, the ETA estimate, the CLI surface,
and the ISSUE's acceptance scenario: a 3-worker dispatched run of a
48-point space with one worker SIGKILLed mid-run whose merged store exports
byte-identically to a single-process run of the same space.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.dse import (
    DSERunner,
    DesignSpace,
    Dispatcher,
    ExperimentStore,
    LeaseLost,
    ShardLedger,
    estimate_eta_s,
    make_strategy,
    read_manifest,
    run_proposer,
    run_worker,
    write_manifest,
)
from repro.dse.dispatch import WorkerTelemetry, open_ledger, telemetry_summary

#: A fast 4-point space evaluated entirely with 8-qubit circuits.
TINY_SPACE = dict(apps=("QFT", "BV"), qubits=(8,), topologies=("L3",),
                  capacities=(6,), gates=("AM1", "FM"), reorders=("GS",))

def _backdate(path: Path, by_s: float = 3600.0) -> None:
    """Rewind a lease file's mtime, simulating a worker that stopped
    heartbeating ``by_s`` seconds ago (e.g. SIGKILLed)."""

    past = time.time() - by_s
    os.utime(path, (past, past))


def _export(store_dir: Path, output: Path) -> bytes:
    assert main(["dse", "export", "--store", str(store_dir),
                 "--output", str(output)]) == 0
    return output.read_bytes()


# --------------------------------------------------------------------------- #
class TestShardLedger:
    """The grid ledger's lease lifecycle, through name-keyed LeaseDir calls."""

    def test_claim_contention_single_winner(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 3)
        assert ledger.claim("shard-1of3", "worker-a") is True
        assert ledger.claim("shard-1of3", "worker-b") is False
        assert ledger.owner_of("shard-1of3") == "worker-a"
        assert ledger.status_of("shard-1of3")[0] == "active"

    def test_heartbeat_renewal_defers_expiry(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 1, ttl_s=10.0)
        assert ledger.claim("shard-1of1", "worker-a")
        # One tick from expiring:
        _backdate(ledger.lease_path("shard-1of1"), by_s=9.5)
        assert ledger.renew("shard-1of1", "worker-a") is True
        status, _, age_s = ledger.status_of("shard-1of1")
        assert status == "active"
        assert age_s < 1.0  # the heartbeat reset the clock

    def test_expired_lease_is_reclaimed_by_takeover(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 2, ttl_s=5.0)
        assert ledger.claim("shard-1of2", "dead-worker")
        _backdate(ledger.lease_path("shard-1of2"))
        assert ledger.status_of("shard-1of2")[0] == "expired"
        assert ledger.claim("shard-1of2", "survivor") is True
        assert ledger.owner_of("shard-1of2") == "survivor"
        # The dead worker's heartbeat now fails: it must stop working.
        assert ledger.renew("shard-1of2", "dead-worker") is False
        assert ledger.renew("shard-1of2", "survivor") is True

    def test_fresh_lease_cannot_be_taken_over(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 1, ttl_s=3600.0)
        assert ledger.claim("shard-1of1", "worker-a")
        assert ledger.claim("shard-1of1", "worker-b") is False
        assert ledger.owner_of("shard-1of1") == "worker-a"

    def test_release_marks_done_and_blocks_reclaim(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 2, ttl_s=5.0)
        assert ledger.claim("shard-2of2", "worker-a")
        ledger.release("shard-2of2", "worker-a", done=True)
        assert ledger.status_of("shard-2of2")[0] == "done"
        assert not ledger.lease_path("shard-2of2").exists()
        # Done shards are never claimable again, even for another owner.
        assert ledger.claim("shard-2of2", "worker-b") is False
        assert ledger.status_counts()["done"] == 1
        assert not ledger.all_done()

    def test_renew_without_lease_fails(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 1)
        assert ledger.renew("shard-1of1", "worker-a") is False

    def test_read_paths_do_not_create_the_directory(self, tmp_path):
        # `dse status --eta` inspects the ledger of stores it only queries
        # (possibly on a read-only mount): reads must not mkdir.
        lease_dir = tmp_path / "leases"
        ledger = ShardLedger(lease_dir, 2)
        assert ledger.status_counts() == {"open": 2, "active": 0,
                                          "expired": 0, "done": 0}
        assert ledger.owner_of("shard-1of2") is None
        assert not ledger.all_done()
        assert not lease_dir.exists()
        assert ledger.claim("shard-1of2", "worker-a")  # first write creates it
        assert lease_dir.exists()

    def test_next_claim_partitions_workers(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 3)
        claimed = [ledger.claim_next(owner) for owner in ("a", "b", "c")]
        assert sorted(claimed) == ledger.work_names() == \
            ["shard-1of3", "shard-2of3", "shard-3of3"]
        for name in claimed:
            assert ledger.shard(name).count == 3
        assert ledger.claim_next("d") is None  # everything leased

    def test_states_and_counts(self, tmp_path):
        ledger = ShardLedger(tmp_path / "leases", 4, ttl_s=5.0)
        ledger.claim("shard-1of4", "a")
        ledger.claim("shard-2of4", "b")
        _backdate(ledger.lease_path("shard-2of4"))
        ledger.claim("shard-3of4", "c")
        ledger.release("shard-3of4", "c", done=True)
        assert ledger.status_counts() == {"open": 1, "active": 1,
                                          "expired": 1, "done": 1}

    def test_index_and_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1"):
            ShardLedger(tmp_path / "leases", 0)
        with pytest.raises(ValueError, match="positive"):
            ShardLedger(tmp_path / "leases", 1, ttl_s=0.0)
        ledger = ShardLedger(tmp_path / "leases", 2)
        with pytest.raises(ValueError, match="1..2"):
            ledger.shard("shard-3of2")


# --------------------------------------------------------------------------- #
class TestManifest:
    def test_round_trip(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        path = write_manifest(tmp_path / "store", space, shards=4,
                              ttl_s=12.0, jobs=2)
        assert path.name == "dispatch.json"
        manifest = read_manifest(tmp_path / "store")
        assert manifest["shards"] == 4
        assert manifest["ttl_s"] == 12.0
        assert manifest["jobs"] == 2
        assert DesignSpace.from_dict(manifest["space"]) == space

    def test_reprepare_same_space_retunes_ttl(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        write_manifest(tmp_path / "store", space, shards=4, ttl_s=12.0)
        write_manifest(tmp_path / "store", space, shards=4, ttl_s=30.0)
        assert read_manifest(tmp_path / "store")["ttl_s"] == 30.0

    def test_conflicting_redefinition_rejected(self, tmp_path):
        write_manifest(tmp_path / "store", DesignSpace(**TINY_SPACE), shards=4)
        with pytest.raises(ValueError, match="different dispatch"):
            write_manifest(tmp_path / "store", DesignSpace(**TINY_SPACE),
                           shards=8)
        other = dict(TINY_SPACE, capacities=(8,))
        with pytest.raises(ValueError, match="different dispatch"):
            write_manifest(tmp_path / "store", DesignSpace(**other), shards=4)

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(ValueError, match="no dispatch manifest"):
            read_manifest(tmp_path / "store")


# --------------------------------------------------------------------------- #
class TestEta:
    def test_nothing_pending_is_zero(self):
        assert estimate_eta_s(0, [1.0], 4) == 0.0

    def test_no_timings_is_unknown_not_zero(self):
        assert estimate_eta_s(10, [], 2) is None

    def test_mean_rate_split_across_workers(self):
        assert estimate_eta_s(4, [2.0, 4.0], 2) == pytest.approx(6.0)
        assert estimate_eta_s(4, [2.0, 4.0], 1) == pytest.approx(12.0)
        # Zero active workers never divides by zero.
        assert estimate_eta_s(4, [3.0], 0) == pytest.approx(12.0)


# --------------------------------------------------------------------------- #
class TestWorkerLoop:
    def test_single_worker_completes_all_shards(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=3, ttl_s=60.0)
        summary = run_worker(store_dir, owner="solo")
        assert sorted(summary["completed"]) == \
            ["shard-1of3", "shard-2of3", "shard-3of3"]
        assert summary["lost"] == []
        assert ShardLedger.for_store(store_dir, 3).all_done()
        assert len(ExperimentStore(store_dir)) == space.size

    def test_dead_workers_expired_shard_is_reclaimed_and_finished(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=3, ttl_s=5.0)
        ledger = ShardLedger.for_store(store_dir, 3, ttl_s=5.0)
        # A worker claimed shard 2, then was SIGKILLed: the lease stops
        # renewing and ages past the TTL.
        assert ledger.claim("shard-2of3", "dead-worker")
        _backdate(ledger.lease_path("shard-2of3"))
        summary = run_worker(store_dir, owner="survivor")
        assert "shard-2of3" in summary["completed"]
        assert ledger.all_done()
        assert len(ExperimentStore(store_dir)) == space.size

    def test_reclaimed_shard_replays_partial_results(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        store_dir = tmp_path / "store"
        write_manifest(store_dir, space, shards=1, ttl_s=5.0)
        ledger = ShardLedger.for_store(store_dir, 1, ttl_s=5.0)
        # The dead worker evaluated (and flushed) part of its shard before
        # dying; the reclaiming worker must replay those rows, not redo them.
        from repro.dse.runner import Shard
        with ExperimentStore(store_dir, writer="shard-1of1") as store:
            partial = DSERunner(space, store=store, shard=Shard(1, 1))
            partial.evaluate(list(space.points())[:2])
        assert ledger.claim("shard-1of1", "dead-worker")
        _backdate(ledger.lease_path("shard-1of1"))
        run_worker(store_dir, owner="survivor")
        merged = ExperimentStore(store_dir)
        assert len(merged) == space.size
        # Every fingerprint appears exactly once across the shard files.
        lines = []
        for path in sorted(store_dir.glob("*.jsonl")):
            lines += [json.loads(line)["fingerprint"]
                      for line in path.read_text().splitlines() if line]
        assert len(lines) == len(set(lines)) == space.size

    @pytest.mark.parametrize("mode", ["grid", "adaptive"])
    def test_lease_reclaimed_mid_unit(self, mode, tmp_path, monkeypatch):
        """The loop's LeaseLost branch, in both dispatch modes.

        Worker A's first unit is taken over (by backdating A's lease and
        claiming it for a thief) right after A claims it, so A's first
        heartbeat finds the lease gone mid-unit.  A must emit
        ``lease_lost`` and write no ``.done`` for the unit; worker B, run
        when A reports the loss, reclaims the thief's expired lease and
        completes the run, whose export matches a serial run byte for byte.
        """

        import threading

        space = DesignSpace(**TINY_SPACE)
        strategy = {"name": "bayes", "seed": 5, "metric": "fidelity",
                    "batch_size": 2}
        with ExperimentStore(tmp_path / "serial") as store:
            runner = DSERunner(space, store=store)
            if mode == "grid":
                runner.evaluate_space()
            else:
                runner.run(make_strategy("bayes", seed=5, batch_size=2))
        serial = _export(tmp_path / "serial", tmp_path / "serial.json")

        store_dir = tmp_path / "dispatched"
        if mode == "grid":
            # One shard holding every point: two task groups, so A's
            # heartbeat after the first one finds the lease gone.
            write_manifest(store_dir, space, shards=1, ttl_s=60.0)
        else:
            write_manifest(store_dir, space, mode="adaptive",
                           strategy=strategy, ttl_s=60.0)
        manifest = read_manifest(store_dir)
        ledger = open_ledger(store_dir, manifest)
        stolen = []
        emit = WorkerTelemetry.emit

        def spy(telemetry, event, **fields):
            emit(telemetry, event, **fields)
            if telemetry.owner != "worker-a":
                return
            if event == "claim" and not stolen:
                stolen.append(fields["work"])
                _backdate(ledger.lease_path(stolen[0]))
                assert ledger.claim(stolen[0], "thief")
                _backdate(ledger.lease_path(stolen[0]))  # thief dies too
            elif event == "lease_lost":
                run_worker(store_dir, owner="worker-b", idle_wait_s=0.02)

        monkeypatch.setattr(WorkerTelemetry, "emit", spy)
        proposer = None
        if mode == "adaptive":
            proposer = threading.Thread(
                target=run_proposer, args=(store_dir,),
                kwargs=dict(poll_s=0.02))
            proposer.start()
        summary = run_worker(store_dir, owner="worker-a", idle_wait_s=0.02)
        if proposer is not None:
            proposer.join(timeout=120.0)
            assert not proposer.is_alive()

        assert summary["lost"] == stolen
        assert stolen[0] not in summary["completed"]
        workers = telemetry_summary(store_dir)
        assert workers["worker-a"]["lost"] == 1
        done = json.loads(ledger.done_path(stolen[0]).read_text())
        assert done["owner"] == "worker-b"
        assert ledger.all_done()
        assert _export(store_dir, tmp_path / "dispatched.json") == serial

    def test_heartbeat_lease_lost_aborts_mid_evaluation(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        beats = []

        def heartbeat():
            beats.append(1)
            raise LeaseLost("reclaimed")

        with ExperimentStore(tmp_path / "store") as store:
            runner = DSERunner(space, store=store, heartbeat=heartbeat)
            with pytest.raises(LeaseLost):
                runner.evaluate_space()
        # The rows persisted before the abort survive for the new owner.
        assert beats == [1]
        assert 0 < len(ExperimentStore(tmp_path / "store")) < space.size


# --------------------------------------------------------------------------- #
class TestDispatcherLocal:
    def test_dispatched_run_matches_serial_export(self, tmp_path):
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(tmp_path / "serial") as store:
            DSERunner(space, store=store).evaluate_space()
        serial = _export(tmp_path / "serial", tmp_path / "serial.json")

        dispatcher = Dispatcher(space, tmp_path / "dispatched", workers=2,
                                shards=3, ttl_s=30.0, poll_s=0.1)
        summary = dispatcher.run(timeout_s=120.0)
        assert summary["complete"] is True
        assert summary["points"] == space.size
        dispatched = _export(tmp_path / "dispatched",
                             tmp_path / "dispatched.json")
        assert dispatched == serial

    def test_kill_one_worker_shard_reclaimed_export_identical(self):
        """The acceptance scenario: 48 points, 3 workers, one SIGKILLed.

        The killed worker's leased shard must be reclaimed through lease
        expiry by the survivors, and the merged store must export
        byte-identically to a single-process run of the same space.  The
        scenario lives in ``examples/dse_distributed.py --smoke`` (also the
        CI ``dispatch-smoke`` job); this test drives that single source of
        truth rather than duplicating it.
        """

        import subprocess
        import sys

        repo_root = Path(__file__).resolve().parents[1]
        env = os.environ.copy()
        src = str(repo_root / "src")
        env["PYTHONPATH"] = (src if "PYTHONPATH" not in env
                             else src + os.pathsep + env["PYTHONPATH"])
        result = subprocess.run(
            [sys.executable, str(repo_root / "examples" / "dse_distributed.py"),
             "--smoke"],
            capture_output=True, text=True, env=env, timeout=600.0)
        assert result.returncode == 0, \
            f"smoke failed:\n{result.stdout}\n{result.stderr}"
        assert "SIGKILLed worker" in result.stdout
        assert "byte-identical to the serial run" in result.stdout


# --------------------------------------------------------------------------- #
class TestDispatchCli:
    def test_print_only_writes_manifest_and_commands(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["dse", "dispatch", "--apps", "QFT,BV", "--qubits", "8",
                     "--topologies", "L3", "--capacities", "6",
                     "--gates", "AM1,FM", "--store", str(store),
                     "--workers", "2", "--shards", "3",
                     "--print-only"]) == 0
        out = capsys.readouterr().out
        assert "4 points -> 3 leased shards" in out
        assert out.count("repro dse worker --store") == 2
        manifest = read_manifest(store)
        assert manifest["shards"] == 3

    def test_worker_cli_joins_prepared_dispatch(self, capsys, tmp_path):
        store = tmp_path / "store"
        write_manifest(store, DesignSpace(**TINY_SPACE), shards=2, ttl_s=60.0)
        assert main(["dse", "worker", "--store", str(store),
                     "--owner", "cli-worker"]) == 0
        out = capsys.readouterr().out
        assert "worker cli-worker" in out
        assert len(ExperimentStore(store)) == 4

    def test_worker_cli_without_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no dispatch manifest"):
            main(["dse", "worker", "--store", str(tmp_path / "store")])

    def test_status_eta_from_manifest(self, capsys, tmp_path):
        store = tmp_path / "store"
        write_manifest(store, DesignSpace(**TINY_SPACE), shards=2, ttl_s=60.0)
        run_worker(store, owner="solo")
        assert main(["dse", "status", "--store", str(store), "--eta"]) == 0
        out = capsys.readouterr().out
        assert "rows carry wall_s" in out
        assert "ETA: 0 pending points" in out

    def test_status_eta_with_space_and_workers(self, capsys, tmp_path):
        store = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(store) as open_store:
            DSERunner(space, store=open_store).evaluate(
                list(space.points())[:2])
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space.to_dict()))
        assert main(["dse", "status", "--store", str(store), "--eta",
                     "--space", str(space_file), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2/4 points completed, 2 pending" in out
        assert "ETA: 2 pending points / 2 active worker(s)" in out

    def test_status_eta_without_space_or_manifest_fails(self, capsys, tmp_path):
        store = tmp_path / "store"
        space = DesignSpace(**TINY_SPACE)
        with ExperimentStore(store) as open_store:
            DSERunner(space, store=open_store).evaluate(
                list(space.points())[:1])
        assert main(["dse", "status", "--store", str(store), "--eta"]) == 1
        assert "provide --space" in capsys.readouterr().err
