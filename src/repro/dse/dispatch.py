"""Filesystem-coordinated dispatch of a DSE run to a fleet of workers.

The shared store directory is the only coordination medium -- no daemon, no
database -- so a fleet runs on any shared filesystem (NFS scratch space, a
laptop's tmpdir, a CI runner).  A dispatch comes in one of two modes, named
by the ``mode`` of its manifest (``<store>/dispatch.json``), and both run
through the same machinery:

* ``"shards"`` (grid) -- the space is partitioned into M static
  fingerprint-hash shards; a :class:`ShardLedger` leases shard ``i`` of
  ``M`` as the work unit ``shard-<i>of<M>``.
* ``"adaptive"`` -- a strategy proposer writes signed proposal parts, which
  a :class:`~repro.dse.adaptive.protocol.ProposalLedger` leases by name.

Both ledgers are :class:`LeaseDir` subclasses: name-keyed lease files with
atomic create-via-hardlink claims, heartbeat mtime renewal, expiry-based
takeover-by-rename (how a SIGKILLed worker's unit gets re-leased) and
``.done`` markers.  On top of that:

* :func:`run_worker` -- the one worker loop, behind ``repro dse worker``.
  It asks the manifest's ledger for a unit *name* (``claim_next``), runs
  the ledger's per-unit evaluation step with a heartbeat after every
  persisted task group, releases the unit as done, and repeats; when units
  remain but none is claimable it waits for a lease to expire rather than
  stranding a dead worker's unit.  Telemetry, trace shards and lease-loss
  handling live here once for both modes.
* :class:`Dispatcher` -- the one fleet driver behind ``repro dse
  dispatch``: writes the manifest, spawns N local workers (or prints the
  per-machine command lines), reaps and respawns them, shuts them down and
  adopts their trace shards.  The mode only supplies the wait step: a grid
  dispatch polls ``all_done()``, an adaptive one runs the proposer.
* :func:`open_ledger` and :func:`fleet_progress` -- the single place a
  manifest's mode is read: its ledger, and its progress snapshot (points
  done/total/pending, lease counts and an ETA driven by the per-point
  ``wall_s`` timings the store rows record), shared by
  :meth:`Dispatcher.progress`, ``dse status --eta`` and ``dse top``.

Correctness leans on two properties rather than on perfect mutual
exclusion: evaluation is **idempotent** (results are deterministic) and the
store **dedups by fingerprint**, so the worst a lease race can cost is
duplicated work, never wrong or duplicated data.  A dispatched run's merged
store therefore exports byte-identically to a single-process run of the
same space or strategy (see
:meth:`~repro.dse.store.ExperimentStore.export_rows`).
"""

from __future__ import annotations

import json
import os
import shlex
import socket
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dse.runner import DSERunner, Shard
from repro.dse.space import DesignSpace
from repro.dse.store import ExperimentStore
from repro.obs.distributed import (
    TraceContext,
    TraceShardWriter,
    adopt_shards,
)
from repro.obs.trace import (
    current_span_name,
    current_span_ref,
    current_tracer,
    span,
)

#: Subdirectory of the store directory holding lease and done files.
LEASE_DIR = "leases"

#: Subdirectory of the store directory holding per-worker telemetry JSONL.
#: A subdirectory, not the store root: the store ingests every top-level
#: ``*.jsonl`` as experiment rows, so telemetry must live one level down.
TELEMETRY_DIR = "telemetry"

#: Dispatch manifest file name inside the store directory.
MANIFEST_NAME = "dispatch.json"

#: Default lease time-to-live.  A worker heartbeats after every completed
#: task group -- one compilation plus a simulation per folded gate variant
#: -- so the TTL must exceed the wall time of the slowest *task group*, not
#: just the slowest point, by a comfortable margin; expiry within that
#: margin makes another worker redo the shard (harmlessly, but twice).
DEFAULT_TTL_S = 60.0

#: Telemetry rotation threshold: when a worker's active event log exceeds
#: this many bytes, it is rotated to a numbered segment (and old segments
#: are compacted into a summary row), bounding per-worker telemetry at
#: roughly ``(keep_segments + 1) * max_bytes`` however long the fleet runs.
DEFAULT_TELEMETRY_MAX_BYTES = 1 << 20

#: Raw (uncompacted) rotated segments kept per worker before the oldest is
#: folded into the cumulative summary segment.
DEFAULT_TELEMETRY_KEEP_SEGMENTS = 2


class LeaseLost(RuntimeError):
    """A worker's heartbeat found its lease reclaimed by another worker.

    Raised out of the heartbeat hook to abort the unit mid-evaluation; the
    rows persisted so far stay in the store (deduped by fingerprint), so the
    new owner replays them instead of recomputing.
    """


def _live_phase() -> Dict[str, str]:
    """``{"phase": <open span name>}`` for a telemetry event, or ``{}``.

    Workers stamp their innermost open span onto heartbeat-style telemetry
    events; ``dse top`` shows it as the worker's live phase.  Empty when
    tracing is disabled or no span is open, so untraced runs emit exactly
    the pre-tracing telemetry schema.
    """

    name = current_span_name()
    return {"phase": name} if name else {}


def default_owner() -> str:
    """Default lease-owner identity: host plus pid (unique per worker)."""

    return f"{socket.gethostname()}-pid{os.getpid()}"


def _filename_safe(owner: str) -> str:
    """An owner string reduced to filename-safe characters (temp names)."""

    return "".join(c if c.isalnum() or c in "-._" else "_" for c in owner)


class LeaseClock:
    """Single time source for every lease stamp and age computation.

    Lease freshness is ``now - st_mtime``: one side of that subtraction
    comes from the filesystem, so the other side must be the matching wall
    clock -- and every write to the mtime must come from the same source,
    or ages drift by whatever skew separates the readings.  Routing all of
    it (claim stamps, heartbeats, expiry checks, status ages) through one
    clock object keeps the arithmetic coherent and makes the whole lease
    lifecycle drivable by a fake clock in tests: pass ``now_fn`` and both
    the stamps written *and* the ages computed follow it.
    """

    def __init__(self, now_fn: Callable[[], float] = time.time) -> None:
        self._now = now_fn

    def now(self) -> float:
        return float(self._now())

    def touch(self, path) -> None:
        """Stamp ``path``'s mtime with this clock's current reading."""

        now = self.now()
        os.utime(path, times=(now, now))

    def age(self, path) -> float:
        """Seconds since ``path``'s mtime (clamped non-negative)."""

        return max(0.0, self.now() - os.stat(path).st_mtime)


class LeaseDir:
    """Name-keyed lease files with atomic claim/renew/release semantics.

    The coordination primitive of both dispatch modes: :class:`ShardLedger`
    and the adaptive :class:`~repro.dse.adaptive.protocol.ProposalLedger`
    subclass it, each naming its units in :meth:`work_names`, and the
    worker loop talks to either through :meth:`claim_next`, :meth:`renew`,
    :meth:`release`, :meth:`all_done` and :meth:`status_counts`.  Every
    unit of work is a *name*; ``<name>.lease`` holds the current owner,
    ``<name>.done`` marks completion.  All operations go through atomic
    filesystem primitives:

    * **claim** -- the owner payload is written to a private temp file and
      hardlinked to the lease name; ``os.link`` fails if the lease exists,
      so exactly one contender wins a fresh claim.  An *expired* lease is
      taken over by ``os.replace`` (atomic rename) followed by a read-back
      ownership check, so concurrent takeovers resolve to the single owner
      whose rename landed last.
    * **renew** -- a heartbeat bumps the lease file's mtime; expiry is
      ``now - mtime > ttl_s``.  A SIGKILLed worker stops heartbeating and
      its work becomes claimable after one TTL.
    * **release** -- writes the ``.done`` marker (atomic rename) before
      dropping the lease, so work can never report done-and-claimable.

    The remaining races (takeover read-back window, renew-after-reclaim)
    can only duplicate work, which the experiment store's fingerprint dedup
    absorbs; they cannot corrupt results.

    The directory is created lazily by the write paths (claim/release) so
    that read-only inspection -- ``dse status --eta`` on a store the user
    only queries, possibly on a read-only mount -- never mutates the store.
    Read paths treat a missing directory as all-open.
    """

    def __init__(self, directory, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.directory = Path(directory)
        self.ttl_s = float(ttl_s)
        self.clock = clock if clock is not None else LeaseClock()

    # ------------------------------------------------------------------ #
    def lease_path(self, name: str) -> Path:
        return self.directory / f"{name}.lease"

    def done_path(self, name: str) -> Path:
        return self.directory / f"{name}.done"

    # ------------------------------------------------------------------ #
    def claim(self, name: str, owner: str) -> bool:
        """Try to lease ``name`` for ``owner``; True iff it succeeded.

        Fresh work is claimed by atomic link; work whose lease expired
        (dead worker) is taken over by atomic rename.  Done and
        actively-leased work is never claimable.
        """

        self.directory.mkdir(parents=True, exist_ok=True)
        if self.done_path(name).exists():
            return False
        lease = self.lease_path(name)
        # Fast path: a held-and-fresh lease is the common case while idle
        # workers poll; answer it with one stat instead of churning temp
        # files on the shared filesystem.  The atomic link below still has
        # the final word on races.
        try:
            if self.clock.age(lease) <= self.ttl_s:
                return False
        except FileNotFoundError:
            pass
        payload = json.dumps({"owner": owner, "work": name,
                              "claimed_at": self.clock.now()},
                             sort_keys=True) + "\n"
        # The temp name must be unique per *owner*, not per pid: two hosts
        # sharing the store over NFS can easily collide on pid alone.
        tmp = self.directory / f".claim-{name}.{_filename_safe(owner)}.tmp"
        tmp.write_text(payload)
        try:
            try:
                os.link(tmp, lease)  # atomic create: fails iff already leased
                # Stamp through the clock so the lease's birth heartbeat
                # comes from the same source as every later age check (the
                # link inherits the temp file's write-time mtime otherwise).
                self.clock.touch(lease)
                return True
            except FileExistsError:
                if not self._expired(lease):
                    return False
                os.replace(tmp, lease)  # atomic takeover of an expired lease
                self.clock.touch(lease)
                # Concurrent takeovers all rename successfully; the last
                # rename wins, so confirm ownership by reading back.  The
                # residual window only risks duplicated (idempotent,
                # deduped) work.
                return self.owner_of(name) == owner
        finally:
            tmp.unlink(missing_ok=True)

    def _expired(self, lease: Path) -> bool:
        try:
            age = self.clock.age(lease)
        except FileNotFoundError:
            # Released between the link attempt and now; a later claim pass
            # will take it fresh.
            return False
        return age > self.ttl_s

    def renew(self, name: str, owner: str) -> bool:
        """Heartbeat: refresh ``owner``'s lease mtime; False if it was lost."""

        if self.owner_of(name) != owner:
            return False
        try:
            self.clock.touch(self.lease_path(name))
        except FileNotFoundError:
            return False
        return True

    def release(self, name: str, owner: str, *, done: bool = True) -> None:
        """Drop ``owner``'s lease; with ``done=True`` mark the work complete.

        The done marker is written (atomically) before the lease is removed,
        so work can never report done-and-claimable.
        """

        self.directory.mkdir(parents=True, exist_ok=True)
        if done:
            tmp = self.directory / f".done-{name}.{_filename_safe(owner)}.tmp"
            tmp.write_text(json.dumps({"owner": owner,
                                       "finished_at": self.clock.now()},
                                      sort_keys=True) + "\n")
            os.replace(tmp, self.done_path(name))
        if self.owner_of(name) == owner:
            self.lease_path(name).unlink(missing_ok=True)

    def owner_of(self, name: str) -> Optional[str]:
        """The owner recorded in a lease file, or ``None``."""

        try:
            payload = json.loads(self.lease_path(name).read_text())
            return payload.get("owner")
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def is_done(self, name: str) -> bool:
        return self.done_path(name).exists()

    def status_of(self, name: str) -> Tuple[str, Optional[str], Optional[float]]:
        """``(status, owner, age_s)`` of one unit of work.

        ``status`` is one of ``"open"`` (unclaimed), ``"active"`` (leased,
        heartbeat fresh), ``"expired"`` (claimable by takeover) or
        ``"done"`` (never claimable again).
        """

        if self.is_done(name):
            return "done", None, None
        try:
            age = self.clock.age(self.lease_path(name))
        except FileNotFoundError:
            return "open", None, None
        status = "expired" if age > self.ttl_s else "active"
        return status, self.owner_of(name), age

    # ------------------------------------------------------------------ #
    # The ledger protocol of the worker loop (subclasses name the units).
    # ------------------------------------------------------------------ #
    def work_names(self) -> List[str]:
        """Every unit of work this ledger leases, in claim-scan order."""

        raise NotImplementedError

    def claim_next(self, owner: str) -> Optional[str]:
        """Claim the first available unit for ``owner``; its name or ``None``.

        The scan starts at an owner-dependent offset, so N workers hitting
        an empty ledger at once mostly claim N different units on the first
        pass instead of stampeding the first one.
        """

        names = self.work_names()
        offset = zlib.crc32(owner.encode()) % len(names) if names else 0
        for name in names[offset:] + names[:offset]:
            if self.claim(name, owner):
                return name
        return None

    def status_counts(self) -> Dict[str, int]:
        """How many units are ``open``/``active``/``expired``/``done``."""

        counts = {"open": 0, "active": 0, "expired": 0, "done": 0}
        for name in self.work_names():
            counts[self.status_of(name)[0]] += 1
        return counts

    def all_done(self) -> bool:
        """True once every unit is done (the worker loop's exit test)."""

        return all(self.is_done(name) for name in self.work_names())


class ShardLedger(LeaseDir):
    """The grid-mode ledger: shard ``i`` of ``N`` is the unit ``shard-<i>of<N>``.

    Lives in ``<store>/leases/``; see :class:`LeaseDir` for the atomicity
    and crash-recovery discipline.  Its per-unit step evaluates one
    fingerprint-hash :class:`~repro.dse.runner.Shard` of the space.
    """

    def __init__(self, directory, count: int, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        if count < 1:
            raise ValueError("shard count must be at least 1")
        super().__init__(directory, ttl_s=ttl_s, clock=clock)
        self.count = int(count)
        shards = [Shard(index, self.count) for index in range(1, count + 1)]
        self._shards = {shard.name: shard for shard in shards}

    @classmethod
    def for_store(cls, store_dir, count: int, *, ttl_s: float = DEFAULT_TTL_S,
                  clock: Optional[LeaseClock] = None) -> "ShardLedger":
        """The ledger living inside an experiment-store directory."""

        return cls(Path(store_dir) / LEASE_DIR, count, ttl_s=ttl_s, clock=clock)

    def work_names(self) -> List[str]:
        return list(self._shards)

    def shard(self, name: str) -> Shard:
        """The :class:`~repro.dse.runner.Shard` a unit name stands for."""

        try:
            return self._shards[name]
        except KeyError:
            raise ValueError(f"{name!r} is not one of shards "
                             f"1..{self.count}") from None

    @contextmanager
    def evaluator(self, store_dir, space: DesignSpace, owner: str,
                  **runner_options) -> Iterator[Callable]:
        """The per-unit step of the worker loop: evaluate one leased shard.

        Each shard gets a *fresh* store load, so a reclaimed shard replays
        the rows other workers (including a dead one) flushed so far
        instead of recomputing them.  The writer file is per-(shard,
        owner): after a takeover, an alive-but-slow previous owner may
        still flush one in-flight group before its next heartbeat notices
        the loss, and two processes appending to one file over NFS can tear
        each other's rows.  Separate files close that window; directory
        union and fingerprint dedup merge them losslessly.
        """

        def evaluate(name: str, heartbeat: Callable[[], None]) -> Dict:
            writer = f"{name}-{_filename_safe(owner)}"
            with ExperimentStore(store_dir, writer=writer) as store:
                runner = DSERunner(space, store=store, shard=self.shard(name),
                                   heartbeat=heartbeat, **runner_options)
                with span("dse.shard", shard=name, owner=owner):
                    runner.evaluate_space()
            return runner.stats

        yield evaluate


# --------------------------------------------------------------------------- #
# Worker telemetry: append-only JSONL event logs under <store>/telemetry/.
# --------------------------------------------------------------------------- #
class WorkerTelemetry:
    """One worker's append-only event log inside the store directory.

    Each worker owns exactly one *active* file,
    ``<store>/telemetry/<owner>.jsonl``, and only ever appends to it -- the
    same single-writer-per-file discipline the experiment store uses, so no
    cross-process locking is needed.  Events record the lease lifecycle
    (claims, heartbeat renewals, losses, completions) and worker
    start/exit, each stamped by the shared :class:`LeaseClock`;
    :func:`telemetry_summary` folds the directory union into a per-worker
    fleet view for ``repro dse status --workers``.

    **Rotation/compaction** keeps long-lived fleets bounded: once the
    active file exceeds ``max_bytes`` it is renamed to
    ``<owner>.seg<k>.jsonl`` (atomic; segment numbers only ever grow), and
    once more than ``keep_segments`` raw segments accumulate, the oldest
    are folded -- together with any previous summary -- into one
    cumulative ``event: "summary"`` row in ``<owner>.seg0.jsonl`` and
    unlinked.  The summary row carries the folded claim/renew/loss/done
    counters, point/wall totals and ``folded_through`` (the highest raw
    segment it accounts for), so readers can consume summaries and
    surviving raw segments together without double counting.  All of this
    happens inside the single writer, so the discipline holds.
    """

    def __init__(self, store_dir, owner: str, *,
                 clock: Optional[LeaseClock] = None,
                 max_bytes: Optional[int] = DEFAULT_TELEMETRY_MAX_BYTES,
                 keep_segments: int = DEFAULT_TELEMETRY_KEEP_SEGMENTS) -> None:
        self.owner = owner
        self.clock = clock if clock is not None else LeaseClock()
        self.directory = Path(store_dir) / TELEMETRY_DIR
        self.stem = _filename_safe(owner)
        self.path = self.directory / f"{self.stem}.jsonl"
        self.max_bytes = max_bytes
        self.keep_segments = max(1, int(keep_segments))

    def emit(self, event: str, **fields) -> None:
        """Append one event record (creates the directory lazily)."""

        self.directory.mkdir(parents=True, exist_ok=True)
        record = {"t": self.clock.now(), "owner": self.owner, "event": event}
        record.update(fields)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self.max_bytes is not None and \
                self.path.stat().st_size > self.max_bytes:
            self._rotate()

    # ------------------------------------------------------------------ #
    def _segment_path(self, k: int) -> Path:
        return self.directory / f"{self.stem}.seg{k}.jsonl"

    def _raw_segments(self) -> List[int]:
        """Existing raw segment numbers for this worker, ascending."""

        numbers = []
        prefix = f"{self.stem}.seg"
        for path in self.directory.glob(f"{prefix}*.jsonl"):
            digits = path.name[len(prefix):-len(".jsonl")]
            if digits.isdigit() and int(digits) > 0:
                numbers.append(int(digits))
        return sorted(numbers)

    def _summary_row(self) -> Optional[Dict[str, object]]:
        """The current cumulative summary row (from ``seg0``), if any."""

        for record in _parse_telemetry_file(self._segment_path(0)):
            if record.get("event") == "summary":
                return record
        return None

    def _rotate(self) -> None:
        """Rotate the active file out and compact surplus raw segments."""

        summary = self._summary_row()
        folded_through = int(summary.get("folded_through", 0)) if summary \
            else 0
        segments = self._raw_segments()
        next_k = max(segments + [folded_through]) + 1
        os.replace(self.path, self._segment_path(next_k))
        segments.append(next_k)
        surplus = segments[:-self.keep_segments] \
            if len(segments) > self.keep_segments else []
        if surplus:
            self._compact(summary, surplus)

    def _compact(self, summary: Optional[Dict[str, object]],
                 segments: Sequence[int]) -> None:
        """Fold ``segments`` (and the prior summary) into ``seg0``."""

        totals = _new_fold()
        folded = 0
        if summary is not None:
            _fold_event(totals, summary)
            folded = int(summary.get("folded") or 0)
        for k in segments:
            for record in _parse_telemetry_file(self._segment_path(k)):
                _fold_event(totals, record)
                folded += 1
        totals.update({"owner": self.owner, "event": "summary",
                       "t": totals["t"] or 0.0, "folded": folded,
                       "folded_through": max(segments)})
        target = self._segment_path(0)
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(json.dumps(totals, sort_keys=True) + "\n",
                           encoding="utf-8")
        os.replace(scratch, target)
        # Only after the summary durably covers them may the raw segments
        # go; a crash between these steps leaves both readable, and the
        # ``folded_through`` guard keeps readers from counting twice.
        for k in segments:
            try:
                self._segment_path(k).unlink()
            except OSError:
                pass


#: Telemetry event -> the counter it bumps in a folded row.  A compaction
#: ``summary`` row carries the cumulative counters under these same names.
_EVENT_COUNTERS = {"claim": "claims", "renew": "renews",
                   "lease_lost": "lost", "done": "done"}

#: Per-``done`` totals, with their types, accumulated alongside the counts.
_DONE_TOTALS = {"points": int, "replayed": int, "wall_s": float}


def _new_fold() -> Dict[str, object]:
    """An empty per-worker fold (see :func:`_fold_event`)."""

    row: Dict[str, object] = dict.fromkeys(_EVENT_COUNTERS.values(), 0)
    row.update({key: kind() for key, kind in _DONE_TOTALS.items()})
    row.update({"alive": None, "last_event": None, "t": None,
                "first_t": None})
    return row


def _fold_event(row: Dict[str, object], record: Dict[str, object]) -> str:
    """Fold one telemetry record into a worker's running accounting.

    The one event fold behind both telemetry compaction and
    :func:`telemetry_summary`: lease events bump their counter (a ``done``
    also adds its points, replays and wall time), ``worker_start`` /
    ``worker_exit`` set ``alive``, and a compaction ``summary`` row adds
    its cumulative totals.  ``t`` / ``first_t`` track the latest and
    earliest timestamps seen.  Returns the event the record stands for --
    for a summary, the last event it folded.
    """

    event = record.get("event")
    if event in ("done", "summary"):
        for key, kind in _DONE_TOTALS.items():
            row[key] += kind(record.get(key) or 0)
    if event in _EVENT_COUNTERS:
        row[_EVENT_COUNTERS[event]] += 1
    elif event in ("worker_start", "worker_exit"):
        row["alive"] = event == "worker_start"
    elif event == "summary":
        for key in _EVENT_COUNTERS.values():
            row[key] += int(record.get(key) or 0)
        if record.get("alive") is not None:
            row["alive"] = bool(record["alive"])
        event = record.get("last_event") or event
    row["last_event"] = event
    t = record.get("t")
    if isinstance(t, (int, float)):
        row["t"] = float(t) if row["t"] is None else max(row["t"], float(t))
    first = record.get("first_t", t)
    if isinstance(first, (int, float)) and \
            (row["first_t"] is None or first < row["first_t"]):
        row["first_t"] = float(first)
    return event


def _parse_telemetry_file(path: Path) -> List[Dict[str, object]]:
    """Parse one telemetry JSONL file, skipping torn or garbled lines."""

    records: List[Dict[str, object]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _telemetry_segment(name: str) -> Optional[Tuple[str, int]]:
    """``(stem, k)`` when ``name`` is a rotated ``<stem>.seg<k>.jsonl``."""

    if not name.endswith(".jsonl"):
        return None
    base = name[:-len(".jsonl")]
    stem, dot, seg = base.rpartition(".")
    if dot and seg.startswith("seg") and seg[len("seg"):].isdigit():
        return stem, int(seg[len("seg"):])
    return None


def read_telemetry(store_dir) -> List[Dict[str, object]]:
    """All telemetry events of a store, ordered by timestamp.

    Torn or garbled lines (a live worker's in-flight append) are skipped,
    mirroring the store's tolerance for its own tail lines.  Rotated
    segments are read transparently; compacted history appears as
    cumulative ``event: "summary"`` rows (sorted at the timestamp of the
    last event they folded), and raw segments a summary already accounts
    for (``k <= folded_through``) are skipped so nothing is counted twice.
    """

    directory = Path(store_dir) / TELEMETRY_DIR
    events: List[Dict[str, object]] = []
    if not directory.is_dir():
        return events
    paths = sorted(directory.glob("*.jsonl"))
    # Summary segments first: their folded_through markers gate which raw
    # segments still carry unfolded history.
    folded: Dict[str, int] = {}
    for path in paths:
        segment = _telemetry_segment(path.name)
        if segment is None or segment[1] != 0:
            continue
        for record in _parse_telemetry_file(path):
            events.append(record)
            through = record.get("folded_through")
            if isinstance(through, int):
                folded[segment[0]] = max(folded.get(segment[0], 0), through)
    for path in paths:
        segment = _telemetry_segment(path.name)
        if segment is not None:
            if segment[1] == 0:
                continue  # summary rows were ingested above
            if segment[1] <= folded.get(segment[0], 0):
                continue  # already folded into the stem's summary
        events.extend(_parse_telemetry_file(path))
    events.sort(key=lambda r: (r.get("t") or 0.0, str(r.get("owner", ""))))
    return events


def telemetry_summary(store_dir, *,
                      now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
    """Fold the telemetry logs into one row per worker.

    Each row counts lease claims, heartbeat renewals, losses and completed
    work units, accumulates evaluated/replayed point totals and shard wall
    time (throughput = points / wall_s), and reports the age of the
    worker's most recent event (``last_seen_age_s``) -- the fleet-level
    analogue of a lease heartbeat age.  ``alive`` tracks worker_start /
    worker_exit markers; a worker that died without its exit marker shows
    ``alive`` with a growing ``last_seen_age_s``.  ``phase`` is the
    worker's live open span (stamped on heartbeat events by traced
    workers; ``None`` for untraced runs or between work units).
    """

    folds: Dict[str, Dict[str, object]] = {}
    phases: Dict[str, Optional[str]] = {}
    for record in read_telemetry(store_dir):
        owner = record.get("owner")
        if not isinstance(owner, str) or not owner:
            continue
        event = _fold_event(folds.setdefault(owner, _new_fold()), record)
        if "phase" in record:
            phase = record["phase"]
            phases[owner] = phase if isinstance(phase, str) else None
        elif event in ("done", "lease_lost", "worker_exit"):
            phases[owner] = None  # the work unit's span closed with it
    if now is None:
        now = LeaseClock().now()
    workers: Dict[str, Dict[str, object]] = {}
    for owner, fold in folds.items():
        last = fold["t"]
        workers[owner] = {
            "claims": fold["claims"], "renewals": fold["renews"],
            "lost": fold["lost"], "done": fold["done"],
            "points": fold["points"], "replayed": fold["replayed"],
            "wall_s": fold["wall_s"], "alive": bool(fold["alive"]),
            "last_event": fold["last_event"], "phase": phases.get(owner),
            "last_seen_age_s": (max(0.0, now - last)
                                if last is not None else None),
        }
    return workers


# --------------------------------------------------------------------------- #
# Dispatch manifest: the one file a worker needs to join a run.
# --------------------------------------------------------------------------- #
def _make_manifest(space: DesignSpace, *, shards: Optional[int] = None,
                   ttl_s: float = DEFAULT_TTL_S, jobs: int = 1,
                   throttle_s: float = 0.0, mode: str = "shards",
                   strategy: Optional[Dict[str, object]] = None) -> Dict:
    """The manifest describing one dispatch (see :func:`write_manifest`)."""

    from repro.io.serialization import SCHEMA_VERSION

    if mode not in ("shards", "adaptive"):
        raise ValueError(f"unknown dispatch mode {mode!r}; "
                         f"expected 'shards' or 'adaptive'")
    if mode == "shards" and shards is None:
        raise ValueError("shards-mode dispatch needs a shard count")
    if mode == "adaptive" and strategy is None:
        raise ValueError("adaptive-mode dispatch needs a strategy spec")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "space": space.to_dict(),
        "mode": mode,
        "ttl_s": float(ttl_s),
        "jobs": int(jobs),
        "throttle_s": float(throttle_s),
    }
    if shards is not None:
        manifest["shards"] = int(shards)
    if strategy is not None:
        manifest["strategy"] = dict(strategy)
    return manifest


def write_manifest(store_dir, space: DesignSpace, **settings) -> Path:
    """Write ``<store>/dispatch.json`` describing the run (atomic replace).

    A worker pointed at the store directory reads everything it needs from
    this manifest: the space, the coordination ``mode`` (``"shards"`` --
    static fingerprint-hash shards, the default and the only pre-v3 mode --
    or ``"adaptive"`` -- workers lease proposal batches written by a
    strategy proposer, see :mod:`repro.dse.adaptive.protocol`), the shard
    count (shards mode), the strategy spec (adaptive mode), the lease TTL
    and the per-worker ``jobs``; ``settings`` are the keyword arguments of
    :func:`_make_manifest`.  Re-preparing an existing dispatch is allowed
    only if the space, mode, shard count and strategy are unchanged (the
    work partition must stay stable across resumes); TTL/jobs/throttle may
    be retuned.
    """

    manifest = _make_manifest(space, **settings)
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    path = store_dir / MANIFEST_NAME
    if path.exists():
        existing = read_manifest(store_dir)
        if (existing.get("space") != manifest["space"]
                or existing.get("mode", "shards") != manifest["mode"]
                or existing.get("shards") != manifest.get("shards")
                or existing.get("strategy") != manifest.get("strategy")):
            raise ValueError(
                f"{path} already describes a different dispatch (space, "
                f"mode, shard count or strategy differs); use a fresh store "
                f"directory, or delete the manifest to redefine the run")
    tmp = store_dir / f".{MANIFEST_NAME}.{default_owner()}.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def read_manifest(store_dir) -> Dict:
    """Load and validate the dispatch manifest of a store directory."""

    from repro.io.serialization import check_schema_version

    path = Path(store_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(
            f"no dispatch manifest at {path}; run `repro dse dispatch` "
            f"(or Dispatcher.prepare) before starting workers")
    except json.JSONDecodeError as err:
        raise ValueError(f"corrupt dispatch manifest at {path}: {err}") from err
    check_schema_version(manifest, source=str(path))
    return manifest


# --------------------------------------------------------------------------- #
# The manifest's mode: its ledger and its progress.  The only place the mode
# is read.
# --------------------------------------------------------------------------- #
def _is_adaptive(manifest: Dict) -> bool:
    return manifest.get("mode", "shards") == "adaptive"


def _mode_fields(manifest: Dict) -> Dict[str, object]:
    """The mode (plus a grid's shard count) for telemetry and span attrs."""

    fields: Dict[str, object] = {"mode": manifest.get("mode", "shards")}
    if "shards" in manifest:
        fields["shards"] = manifest["shards"]
    return fields


def open_ledger(store_dir, manifest: Dict, *, ttl_s: Optional[float] = None,
                clock: Optional[LeaseClock] = None) -> LeaseDir:
    """The lease ledger a dispatch manifest coordinates through.

    A :class:`ShardLedger` for a grid manifest, a
    :class:`~repro.dse.adaptive.protocol.ProposalLedger` for an adaptive
    one.  ``ttl_s`` defaults to the manifest's.
    """

    if ttl_s is None:
        ttl_s = float(manifest.get("ttl_s", DEFAULT_TTL_S))
    if _is_adaptive(manifest):
        from repro.dse.adaptive.protocol import ProposalLedger

        return ProposalLedger(store_dir, ttl_s=ttl_s, clock=clock)
    return ShardLedger.for_store(store_dir, manifest["shards"], ttl_s=ttl_s,
                                 clock=clock)


def _evaluation_budget(space_size: int,
                       strategy: Dict[str, object]) -> Optional[int]:
    """Points an adaptive strategy evaluates at most, or ``None``.

    The spec's ``max_evals`` when given, else the proposer's own default
    (``bayes``: a quarter of the grid, ``ehvi``/``parego``: half).  A
    multi-fidelity ladder has no fixed budget -- its rung sizes depend on
    results -- hence ``None``.
    """

    if strategy.get("max_evals") is not None:
        return int(strategy["max_evals"])
    batch_size = int(strategy.get("batch_size", 4))
    if strategy.get("name") == "bayes":
        from repro.dse.adaptive.propose import default_max_evals

        return default_max_evals(space_size, batch_size)
    if strategy.get("name") in ("ehvi", "parego"):
        from repro.dse.moo.propose import default_moo_max_evals

        return default_moo_max_evals(space_size, batch_size)
    return None


def fleet_progress(store: ExperimentStore, manifest: Dict,
                   ledger: LeaseDir) -> Dict[str, object]:
    """One progress snapshot of a dispatched store.

    ``points_done`` counts store rows (a dispatch store is dedicated to one
    study).  ``points_total`` is the grid size for a grid dispatch; for an
    adaptive one it is the strategy's evaluation budget (capped at the
    grid), the stored row count once the proposer has marked the run
    complete, or ``None`` when the strategy has no fixed budget -- then
    ``points_pending`` and ``eta_s`` are ``None`` too.  ``leases`` counts
    the ledger's units by status; the ETA spreads the pending points'
    mean recorded ``wall_s`` over the actively leasing workers.
    """

    done = len(store)
    total: Optional[int] = DesignSpace.from_dict(manifest["space"]).size
    if _is_adaptive(manifest):
        if ledger.read_complete() is not None:
            total = done
        else:
            budget = _evaluation_budget(total, manifest["strategy"])
            total = None if budget is None else min(total, budget)
    counts = ledger.status_counts()
    pending = None if total is None else max(0, total - done)
    return {
        "points_done": done,
        "points_total": total,
        "points_pending": pending,
        "leases": counts,
        "eta_s": (None if pending is None else
                  estimate_eta_s(pending, store.wall_timings(),
                                 max(1, counts["active"]))),
    }


# --------------------------------------------------------------------------- #
# Worker loop
# --------------------------------------------------------------------------- #
def run_worker(store_dir, *, owner: Optional[str] = None,
               jobs: Optional[int] = None, circuits=None,
               idle_wait_s: Optional[float] = None) -> Dict[str, object]:
    """Lease and evaluate work units from ``store_dir`` until the run completes.

    The one worker loop of both dispatch modes, behind ``repro dse
    worker``: the manifest names the ledger (:func:`open_ledger`), and the
    loop asks it for a unit name, runs the ledger's per-unit step (a grid
    shard, or an adaptive proposal part) with a heartbeat after every
    persisted task group, releases the unit as done, and repeats.  A
    heartbeat that finds the lease reclaimed raises :class:`LeaseLost`,
    which abandons the unit without marking it done.  When units remain but
    none is claimable (all actively leased), the worker waits for a lease
    to expire rather than exiting and stranding a dead worker's unit.

    One :class:`~repro.toolflow.parallel.ProgramCache` is shared across all
    units this worker runs, so gate variants split across units still
    compile once per worker.

    Returns ``{"owner", "completed", "lost"}``: the names of the units
    finished, and of those aborted because the lease was reclaimed
    mid-evaluation.
    """

    from repro.toolflow.parallel import ProgramCache

    store_dir = Path(store_dir)
    manifest = read_manifest(store_dir)
    space = DesignSpace.from_dict(manifest["space"])
    ledger = open_ledger(store_dir, manifest)
    owner = owner or default_owner()
    jobs = int(manifest.get("jobs", 1)) if jobs is None else int(jobs)
    throttle_s = float(manifest.get("throttle_s", 0.0))
    if idle_wait_s is None:
        idle_wait_s = max(0.05, min(1.0, ledger.ttl_s / 4))

    telemetry = WorkerTelemetry(store_dir, owner, clock=ledger.clock)
    # Join the dispatcher's trace when it stamped one into our environment:
    # spans recorded here flush crash-safely to this worker's shard file,
    # which the dispatcher merges into one fleet trace after the run.
    trace_ctx = TraceContext.from_env()
    shard_writer = None
    if trace_ctx is not None:
        trace_ctx.arm()
        shard_writer = TraceShardWriter(store_dir, owner)
    telemetry.emit("worker_start", **_mode_fields(manifest), jobs=jobs,
                   pid=os.getpid())
    cache = ProgramCache()
    completed: List[str] = []
    lost: List[str] = []
    seen_counters: Dict[str, int] = {}

    def counters_delta() -> Dict[str, int]:
        """Metrics-counter movement since the previous ``done`` event.

        Shipping the *delta* per completion (rather than the running total
        only at exit) is what lets the timeline attribute cache hits and
        misses to the bucket they happened in -- and summing the deltas
        reproduces the exit totals exactly, because counters are integers.
        """

        current = cache.metrics.counters()
        moved = {name: value - seen_counters.get(name, 0)
                 for name, value in current.items()
                 if value != seen_counters.get(name, 0)}
        seen_counters.clear()
        seen_counters.update(current)
        return moved

    with ledger.evaluator(store_dir, space, owner, jobs=jobs, cache=cache,
                          circuits=circuits) as evaluate:
        while True:
            name = ledger.claim_next(owner)
            if name is None:
                if ledger.all_done():
                    break
                # Unfinished units are all actively leased (one may belong
                # to a dead worker), or an adaptive proposer has not yet
                # written the next batch: wait instead of exiting.
                time.sleep(idle_wait_s)
                continue
            telemetry.emit("claim", work=name, **_live_phase())
            started = time.perf_counter()

            def heartbeat(name: str = name) -> None:
                if not ledger.renew(name, owner):
                    raise LeaseLost(f"lease on {name} was reclaimed from "
                                    f"{owner}")
                telemetry.emit("renew", work=name, **_live_phase())
                if throttle_s:
                    time.sleep(throttle_s)

            try:
                stats = evaluate(name, heartbeat)
            except LeaseLost:
                lost.append(name)
                telemetry.emit("lease_lost", work=name)
                if shard_writer is not None:
                    shard_writer.flush(current_tracer())
                continue
            ledger.release(name, owner, done=True)
            completed.append(name)
            telemetry.emit("done", work=name,
                           points=stats.get("evaluated", 0),
                           replayed=stats.get("reused", 0),
                           wall_s=round(time.perf_counter() - started, 6),
                           counters=counters_delta())
            if shard_writer is not None:
                # Flush after every completed unit: a SIGKILL later costs
                # only the spans since this point, and the shard file is
                # always a complete atomic snapshot (never a torn append).
                shard_writer.flush(current_tracer())
    telemetry.emit("worker_exit", completed=len(completed), lost=len(lost),
                   counters=cache.metrics.counters())
    if shard_writer is not None:
        shard_writer.flush(current_tracer())
    return {"owner": owner, "completed": completed, "lost": lost}


def worker_argv(store_dir) -> List[str]:
    """argv of one ``repro dse worker`` process for a store.

    The single source of truth for the worker launch command: local spawns
    (:func:`spawn_worker_process`) and the printed remote command lines
    both derive from it, so they cannot drift apart.
    """

    return [sys.executable, "-m", "repro", "dse", "worker",
            "--store", str(store_dir)]


def spawn_worker_process(store_dir) -> subprocess.Popen:
    """Start one local ``repro dse worker`` subprocess against a store.

    The worker reads everything else from the dispatch manifest, so the same
    spawn works for shard-mode and adaptive-mode runs.  ``repro`` is made
    importable through the subprocess environment.  When this process has
    tracing enabled, the trace context (root id + the currently-open span
    as the worker's cross-process parent) rides along in the same
    environment, so worker spans join the dispatcher's trace.
    """

    env = os.environ.copy()
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else package_root + os.pathsep + existing)
    tracer = current_tracer()
    if tracer is not None:
        TraceContext.from_tracer(tracer,
                                 parent_ref=current_span_ref()).stamp(env)
    return subprocess.Popen(worker_argv(store_dir), env=env)


# --------------------------------------------------------------------------- #
# Progress / ETA
# --------------------------------------------------------------------------- #
def estimate_eta_s(pending: int, timings: Sequence[float],
                   active_workers: int) -> Optional[float]:
    """Remaining wall seconds from stored per-point timings.

    ``pending`` points at the mean recorded ``wall_s`` per point, divided by
    the number of workers actively evaluating.  Returns ``0.0`` when nothing
    is pending and ``None`` when no row has recorded a timing yet (rows
    written before schema v2 carry none -- unknown is not zero).
    """

    if pending <= 0:
        return 0.0
    if not timings:
        return None
    mean = sum(timings) / len(timings)
    return pending * mean / max(1, active_workers)


def format_eta(eta_s: Optional[float]) -> str:
    """Human-readable ETA (``"unknown"`` when no timings exist yet)."""

    if eta_s is None:
        return "unknown (no per-point timings recorded yet)"
    if eta_s >= 120.0:
        return f"{eta_s / 60.0:.1f} min"
    return f"{eta_s:.1f} s"


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
class _Abort(Exception):
    """The dispatcher's wait step gave up (timeout, or no worker left)."""


class Dispatcher:
    """Drive a fleet of local workers through one dispatch, grid or adaptive.

    Parameters
    ----------
    space:
        The design space to evaluate.
    store_dir:
        Experiment-store directory shared by all workers.  Should be
        dedicated to this study: progress accounting assumes every row in
        it belongs to ``space``.
    strategy:
        ``None`` (default) for a grid dispatch of every point in leased
        shards.  Otherwise an adaptive strategy spec (``{"name": "bayes",
        "seed": ..., ...}``): the proposal loop runs in this process and
        each batch is split into ``parts`` leased slices (default: one per
        worker).  The resolved evaluation budget is recorded in the
        manifest so progress tooling never has to construct a proposer.
    workers:
        Local worker processes to run (ignored by :meth:`command_lines`,
        which targets remote launch).
    shards:
        Grid lease granularity; defaults to ``4 * workers`` so workers stay
        busy through the tail and a worker death forfeits at most one shard
        of fresh progress.
    ttl_s:
        Lease time-to-live; must exceed the slowest task group's wall time
        -- one compile plus all its folded gate-variant simulations --
        since heartbeats fire once per completed task group.
    jobs:
        Process-pool width *inside* each worker (total parallelism is
        ``workers x jobs``).
    throttle_s:
        Optional sleep per heartbeat inside workers -- a load limiter for
        shared machines, also used by the CI smokes to widen the kill
        window.  Default 0.
    poll_s:
        Seconds between the dispatcher's completion (or result) polls.
    respawn / max_respawns:
        Replace workers that exited non-zero (up to ``max_respawns``,
        default ``workers``) while unfinished work remains.
    """

    def __init__(self, space: DesignSpace, store_dir, *,
                 strategy: Optional[Dict[str, object]] = None,
                 workers: int = 2, shards: Optional[int] = None,
                 ttl_s: float = DEFAULT_TTL_S, jobs: int = 1,
                 throttle_s: float = 0.0, poll_s: float = 0.2,
                 respawn: bool = True, max_respawns: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.space = space
        self.store_dir = Path(store_dir)
        self.workers = int(workers)
        self.strategy = None
        if strategy is None:
            self.shards = int(shards) if shards is not None else 4 * self.workers
            if self.shards < 1:
                raise ValueError("need at least one shard")
        elif shards is not None:
            raise ValueError("shards apply to grid dispatches only; an "
                             "adaptive dispatch splits each proposal batch "
                             "into parts instead")
        else:
            self.shards = None
            self.strategy = dict(strategy)
            self.strategy.setdefault("parts", self.workers)
            if self.strategy.get("max_evals") is None:
                budget = _evaluation_budget(space.size, self.strategy)
                if budget is not None:
                    self.strategy["max_evals"] = budget
        self.ttl_s = float(ttl_s)
        self.jobs = int(jobs)
        self.throttle_s = float(throttle_s)
        self.poll_s = float(poll_s)
        self.respawn = respawn
        self.max_respawns = (self.workers if max_respawns is None
                             else int(max_respawns))
        self.respawned = 0
        self._settings = dict(
            shards=self.shards, ttl_s=self.ttl_s, jobs=self.jobs,
            throttle_s=self.throttle_s, strategy=self.strategy,
            mode="shards" if self.strategy is None else "adaptive")
        self.manifest = _make_manifest(space, **self._settings)
        self.ledger = open_ledger(self.store_dir, self.manifest)
        self._procs: List[subprocess.Popen] = []
        self._progress_store: Optional[ExperimentStore] = None

    # ------------------------------------------------------------------ #
    def prepare(self) -> Path:
        """Write the dispatch manifest; workers can join once this returns."""

        return write_manifest(self.store_dir, self.space, **self._settings)

    def command_lines(self) -> List[str]:
        """Shell commands for launching the fleet on remote machines.

        Every machine that mounts the store directory runs the same worker
        command; workers coordinate purely through the ledger, so any
        number may join or die at any time.  An adaptive dispatch adds one
        ``repro dse propose`` line, first, for wherever the proposer should
        live.  Derived from :func:`worker_argv` with a portable ``python``
        in place of this machine's interpreter path.
        """

        def command(argv: List[str]) -> str:
            return " ".join(shlex.quote(arg) for arg in ["python"] + argv)

        worker = worker_argv(self.store_dir)[1:]
        lines = [command(worker)] * self.workers
        if self.strategy is not None:
            lines.insert(0, command(worker[:3] + ["propose"] + worker[4:]))
        return lines

    def spawn_worker(self) -> subprocess.Popen:
        """Start one local worker subprocess (repro importable via env)."""

        return spawn_worker_process(self.store_dir)

    # ------------------------------------------------------------------ #
    def progress(self) -> Dict[str, object]:
        """One :func:`fleet_progress` snapshot plus the per-worker telemetry.

        The store view is kept open across snapshots and refreshed with the
        incremental :meth:`~repro.dse.store.ExperimentStore.reload`, so a
        progress tick costs O(rows appended since the last tick) -- not a
        full re-parse of the directory.
        """

        if self._progress_store is None:
            self._progress_store = ExperimentStore(self.store_dir)
        else:
            self._progress_store.reload()
        snapshot = fleet_progress(self._progress_store, self.manifest,
                                  self.ledger)
        snapshot["workers"] = telemetry_summary(self.store_dir)
        return snapshot

    def _reap_and_respawn(self) -> None:
        """Replace workers that died abnormally, within the respawn budget."""

        for proc in list(self._procs):
            if proc.poll() is None or proc.returncode == 0:
                continue
            self._procs.remove(proc)
            if (self.respawn and self.respawned < self.max_respawns
                    and not self.ledger.all_done()):
                self.respawned += 1
                self._procs.append(self.spawn_worker())

    def run(self, *, timeout_s: Optional[float] = None,
            on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
            progress_interval_s: float = 2.0) -> Dict[str, object]:
        """Prepare, spawn local workers, and wait until the run completes.

        Dead workers' units are reclaimed by the survivors through lease
        expiry; workers that *exited* abnormally are additionally respawned
        (the reclaim still happens through the ledger -- respawn just keeps
        N workers pulling).  Returns a summary dictionary (for an adaptive
        dispatch it also carries the proposer's ``batches``,
        ``evaluations``, ``best`` and, for multi-objective strategies,
        ``frontier``); ``complete`` is False when the run timed out or
        every worker stopped with work unfinished and the respawn budget
        exhausted.
        """

        # The dispatch span is the cross-process parent traced workers hang
        # their root spans under (spawn_worker_process stamps the open span
        # into their environment).
        with span("dse.dispatch", workers=self.workers,
                  **_mode_fields(self.manifest)) as trace:
            summary = self._run(timeout_s=timeout_s, on_progress=on_progress,
                                progress_interval_s=progress_interval_s)
            trace.set(complete=summary["complete"], points=summary["points"],
                      respawned=summary["respawned"])
        tracer = current_tracer()
        if tracer is not None:
            # The workers joined this trace and flushed their spans to
            # shard files; fold them in so the ordinary --trace flush
            # writes one fleet trace.
            summary["trace"] = adopt_shards(tracer, self.store_dir)
        return summary

    def _run(self, *, timeout_s: Optional[float],
             on_progress: Optional[Callable[[Dict[str, object]], None]],
             progress_interval_s: float) -> Dict[str, object]:
        self.prepare()
        started = time.monotonic()
        self._procs = [self.spawn_worker() for _ in range(self.workers)]
        last_report = -float("inf")

        def tick() -> None:
            """One wait poll: timeout, respawn, fleet liveness, progress."""

            nonlocal last_report
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                raise _Abort
            self._reap_and_respawn()
            if not any(proc.poll() is None for proc in self._procs):
                # Every worker exited (cleanly or beyond the respawn
                # budget) with work unfinished: nobody is left to do it.
                raise _Abort
            if (on_progress is not None
                    and time.monotonic() - last_report >= progress_interval_s):
                last_report = time.monotonic()
                on_progress(self.progress())

        outcome: Dict[str, object] = {}
        try:
            outcome = self._wait(tick)
            complete = True
        except _Abort:
            complete = self.ledger.all_done()
        finally:
            # Workers exit by themselves once the run is done; anything
            # still running after a grace period (timeout/abort paths) is
            # terminated so the dispatcher never leaks processes.
            deadline = time.monotonic() + max(5.0, 20 * self.poll_s)
            for proc in self._procs:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        snapshot = self.progress()
        if on_progress is not None:
            on_progress(snapshot)
        outcome.update({
            "complete": complete,
            "elapsed_s": time.monotonic() - started,
            "respawned": self.respawned,
            "points": snapshot["points_done"],
            "points_total": snapshot["points_total"],
            "leases": snapshot["leases"],
        })
        return outcome

    def _wait(self, tick: Callable[[], None]) -> Dict[str, object]:
        """The mode's wait step; ``tick`` raises :class:`_Abort` to give up.

        A grid dispatch polls the ledger until every shard is done.  An
        adaptive dispatch runs the proposal loop, which ticks on every
        result poll, and returns its summary -- with the per-batch proposer
        trace under ``proposals`` (``trace`` names the merged fleet trace).
        """

        if self.strategy is None:
            while not self.ledger.all_done():
                tick()
                time.sleep(self.poll_s)
            return {}
        from repro.dse.adaptive.protocol import run_proposer

        outcome = run_proposer(self.store_dir, manifest=self.manifest,
                               poll_s=self.poll_s, tick=tick)
        outcome["proposals"] = outcome.pop("trace")
        return outcome
