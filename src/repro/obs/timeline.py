"""Windowed time-series aggregation over fleet telemetry (``repro dse top``).

PR 7 gave every dispatched worker an append-only event log under
``<store>/telemetry/`` and folded the directory into per-worker *totals*
(:func:`repro.dse.dispatch.telemetry_summary`).  Totals answer "how much
happened"; a live fleet needs "how much is happening *now*" -- so this
module turns the same event logs into fixed-width time-series buckets:

* :class:`TelemetryReader` -- an incremental, O(new-rows) reader over the
  telemetry directory, the same stat-skip / byte-offset / rescan-on-shrink
  discipline as :meth:`repro.dse.store.ExperimentStore.reload`.  Rotated
  segments and compacted summary rows (see
  :class:`repro.dse.dispatch.WorkerTelemetry`) are read transparently.
* :func:`fold_timeline` -- deterministic aggregation of an event list into
  per-worker and fleet-wide bucket series (points, wall_s, claims, losses,
  heartbeats, cache hits/misses).  Same events in, byte-identical series
  out, regardless of how the events were split across worker files.
* :func:`detect_stragglers` -- a worker whose rolling points/s falls
  ``k * MAD`` below the fleet median, or whose last telemetry event is
  older than a fraction of the lease TTL, is flagged *before* its lease
  expires -- the early-warning analogue of lease reclaim.
* :func:`render_top` -- one dashboard frame (pure text, deterministic for
  a fixed snapshot), which ``repro dse top`` re-renders in place.

All wall-clock readings go through the injectable
:class:`~repro.dse.dispatch.LeaseClock`, so every series and frame is
drivable by a fake clock in tests -- no sleeps, no real fleets.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import span

__all__ = [
    "DEFAULT_BUCKET_S",
    "DEFAULT_WINDOW_BUCKETS",
    "FleetMonitor",
    "TelemetryReader",
    "detect_stragglers",
    "fold_timeline",
    "render_top",
    "rolling_rates",
]

#: Default width of one aggregation bucket.
DEFAULT_BUCKET_S = 5.0

#: Default trailing window (in buckets) for rolling rates and sparklines.
DEFAULT_WINDOW_BUCKETS = 12

#: Straggler rate test: flag a worker whose rolling points/s falls this
#: many MADs below the fleet median.
DEFAULT_MAD_K = 3.0

#: Straggler heartbeat test: flag a worker whose last telemetry event is
#: older than this fraction of the lease TTL.  Below 1.0 by design -- the
#: whole point is to flag a stalled (e.g. SIGSTOPped) worker *before* its
#: lease expires and the reclaim machinery kicks in.
DEFAULT_STALL_FRACTION = 0.5

#: Fields accumulated per bucket (all integers except wall_s).
_BUCKET_FIELDS = ("points", "replayed", "wall_s", "claims", "renews",
                  "losses", "done", "cache_hits", "cache_misses")


def _event_sort_key(record: Dict[str, object]) -> Tuple:
    """A total, content-only ordering of telemetry events.

    ``(t, owner)`` alone is not total (a fake clock can stamp several
    events identically); the canonical JSON of the record breaks ties, so
    float accumulation order -- and therefore the folded series bytes --
    is a pure function of the event *set*.
    """

    t = record.get("t")
    return (float(t) if isinstance(t, (int, float)) else 0.0,
            str(record.get("owner", "")),
            json.dumps(record, sort_keys=True, default=str))


class TelemetryReader:
    """Incremental reader of ``<store>/telemetry/*.jsonl`` event logs.

    :meth:`poll` stats every telemetry file and parses only bytes appended
    since the previous poll (torn trailing lines are left for the next
    poll); unchanged files are never opened.  Any shrunk or vanished file
    -- rotation replaced the active log, compaction rewrote or deleted a
    segment -- triggers a full rescan, which is when the
    summary-row/segment dedup guard (``folded_through``) re-applies.  The
    cumulative-summary segment (``*.seg0.jsonl``) is rewritten in place by
    compaction, so any change to it also forces a rescan.
    """

    def __init__(self, store_dir) -> None:
        from repro.dse.dispatch import TELEMETRY_DIR

        self.directory = Path(store_dir) / TELEMETRY_DIR
        self._events: List[Dict[str, object]] = []
        self._offsets: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._summary_sigs: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> List[Dict[str, object]]:
        """Every ingested event, in the canonical content ordering."""

        return list(self._events)

    @staticmethod
    def _is_summary_file(name: str) -> bool:
        return name.endswith(".seg0.jsonl")

    @staticmethod
    def _segment_of(name: str) -> Optional[Tuple[str, int]]:
        """``(stem, k)`` when ``name`` is ``<stem>.seg<k>.jsonl``."""

        if not name.endswith(".jsonl"):
            return None
        base = name[:-len(".jsonl")]
        stem, dot, seg = base.rpartition(".")
        if dot and seg.startswith("seg") and seg[len("seg"):].isdigit():
            return stem, int(seg[len("seg"):])
        return None

    def poll(self) -> int:
        """Ingest newly appended events; returns how many were added."""

        if not self.directory.is_dir():
            if self._events or self._offsets:
                self._reset()
            return 0
        paths = sorted(self.directory.glob("*.jsonl"))
        names = {path.name for path in paths}
        if self._needs_rescan(paths, names):
            return self._rescan(paths)
        added = 0
        for path in paths:
            name = path.name
            if self._is_summary_file(name):
                continue  # unchanged, or the rescan above caught it
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size <= self._offsets.get(name, 0):
                continue
            added += self._consume(path, self._offsets.get(name, 0))
        if added:
            self._events.sort(key=_event_sort_key)
        return added

    def _needs_rescan(self, paths: Sequence[Path], names) -> bool:
        for name in self._offsets:
            if name not in names:
                return True
        for path in paths:
            name = path.name
            try:
                stat = path.stat()
            except OSError:
                return True
            if self._is_summary_file(name):
                sig = (stat.st_size, stat.st_mtime_ns)
                if sig != self._summary_sigs.get(name):
                    return True
            elif stat.st_size < self._offsets.get(name, 0):
                return True
        return False

    def _reset(self) -> None:
        self._events.clear()
        self._offsets.clear()
        self._sizes.clear()
        self._summary_sigs.clear()

    def _rescan(self, paths: Sequence[Path]) -> int:
        self._reset()
        # Summary segments first: their ``folded_through`` marker says
        # which raw segments they already account for, so reading a
        # summary *and* the raw segment it folded can never double count.
        folded: Dict[str, int] = {}
        for path in paths:
            if not self._is_summary_file(path.name):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            self._summary_sigs[path.name] = (stat.st_size, stat.st_mtime_ns)
            for record in _parse_lines(path):
                self._events.append(record)
                through = record.get("folded_through")
                stem = path.name[:-len(".seg0.jsonl")]
                if isinstance(through, int):
                    folded[stem] = max(folded.get(stem, 0), through)
        for path in paths:
            name = path.name
            if self._is_summary_file(name):
                continue
            segment = self._segment_of(name)
            if segment is not None and segment[1] <= folded.get(segment[0], 0):
                continue  # already folded into the stem's summary row
            self._consume(path, 0)
        self._events.sort(key=_event_sort_key)
        return len(self._events)

    def _consume(self, path: Path, start: int) -> int:
        """Parse newline-terminated records of ``path`` from byte ``start``."""

        try:
            with open(path, "rb") as handle:
                handle.seek(start)
                data = handle.read()
        except OSError:
            return 0
        cut = data.rfind(b"\n") + 1  # 0 when the chunk holds no newline
        added = 0
        for line in data[:cut].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn or garbled line: a live writer's in-flight append
            if isinstance(record, dict):
                self._events.append(record)
                added += 1
        self._offsets[path.name] = start + cut
        return added


def _parse_lines(path: Path) -> List[Dict[str, object]]:
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


# --------------------------------------------------------------------------- #
# Folding events into fixed-width buckets
# --------------------------------------------------------------------------- #
def _empty_bucket() -> Dict[str, object]:
    bucket = {field: 0 for field in _BUCKET_FIELDS}
    bucket["wall_s"] = 0.0
    return bucket


def fold_timeline(events: Sequence[Dict[str, object]], *,
                  bucket_s: float = DEFAULT_BUCKET_S,
                  origin_t: Optional[float] = None,
                  until_t: Optional[float] = None) -> Dict[str, object]:
    """Fold telemetry events into per-worker and fleet-wide bucket series.

    Buckets are fixed-width (``bucket_s`` seconds) and anchored at
    ``origin_t`` -- by default the earliest event timestamp floored to a
    bucket boundary, so the series is a pure function of the events.
    ``until_t`` (usually the lease clock's *now*) extends the range so a
    stalled fleet shows trailing zero buckets instead of freezing at its
    last event.

    Per bucket: ``points`` / ``replayed`` / ``wall_s`` (from ``done``
    events), ``claims`` / ``renews`` / ``losses`` / ``done`` counts, and
    ``cache_hits`` / ``cache_misses`` from the per-``done`` metrics
    counter deltas workers ship since this PR.  Compacted ``summary`` rows
    represent history older than any live bucket and fold into the
    ``compacted`` totals instead of spiking one bucket.

    Determinism: events are processed in the canonical content ordering
    (:func:`_event_sort_key`), so the same event set yields byte-identical
    series no matter how it was split across worker files, ``--jobs``
    values or shard layouts.
    """

    if bucket_s <= 0:
        raise ValueError("bucket_s must be positive")
    with span("obs.timeline.fold", events=len(events)):
        ordered = sorted(events, key=_event_sort_key)
        stamped = [record for record in ordered
                   if isinstance(record.get("t"), (int, float))
                   and isinstance(record.get("owner"), str)]
        timeline: Dict[str, object] = {
            "bucket_s": float(bucket_s),
            "origin_t": None,
            "num_buckets": 0,
            "fleet": [],
            "workers": {},
            "compacted": {},
        }
        live = [record for record in stamped
                if record.get("event") != "summary"]
        if live:
            first_t = min(float(record["t"]) for record in live)
            last_t = max(float(record["t"]) for record in live)
            if until_t is not None:
                last_t = max(last_t, float(until_t))
            origin = (math.floor(first_t / bucket_s) * bucket_s
                      if origin_t is None else float(origin_t))
            count = max(1, math.floor((last_t - origin) / bucket_s) + 1)
        elif origin_t is not None:
            origin = float(origin_t)
            count = 1
        else:
            origin = None
            count = 0
        timeline["origin_t"] = origin
        timeline["num_buckets"] = count
        fleet = [_empty_bucket() for _ in range(count)]
        workers: Dict[str, List[Dict[str, object]]] = {}
        compacted: Dict[str, Dict[str, object]] = {}
        for record in stamped:
            owner = record["owner"]
            if record.get("event") == "summary":
                totals = compacted.setdefault(owner, _empty_bucket())
                for field, key in (("points", "points"),
                                   ("replayed", "replayed"),
                                   ("wall_s", "wall_s"),
                                   ("claims", "claims"),
                                   ("renews", "renews"),
                                   ("losses", "lost"),
                                   ("done", "done")):
                    value = record.get(key)
                    if isinstance(value, (int, float)):
                        totals[field] += value
                continue
            index = math.floor((float(record["t"]) - origin) / bucket_s)
            if not 0 <= index < count:
                index = max(0, min(count - 1, index))
            series = workers.setdefault(
                owner, [_empty_bucket() for _ in range(count)])
            for bucket in (series[index], fleet[index]):
                _fold_event(bucket, record)
        timeline["fleet"] = fleet
        timeline["workers"] = {owner: workers[owner]
                               for owner in sorted(workers)}
        timeline["compacted"] = {owner: compacted[owner]
                                 for owner in sorted(compacted)}
        return timeline


def _fold_event(bucket: Dict[str, object], record: Dict[str, object]) -> None:
    event = record.get("event")
    if event == "claim":
        bucket["claims"] += 1
    elif event == "renew":
        bucket["renews"] += 1
    elif event == "lease_lost":
        bucket["losses"] += 1
    elif event == "done":
        bucket["done"] += 1
        bucket["points"] += int(record.get("points") or 0)
        bucket["replayed"] += int(record.get("replayed") or 0)
        bucket["wall_s"] += float(record.get("wall_s") or 0.0)
        counters = record.get("counters")
        if isinstance(counters, dict):
            bucket["cache_hits"] += int(counters.get("cache.hits") or 0)
            bucket["cache_misses"] += int(counters.get("cache.misses") or 0)


def rolling_rates(timeline: Dict[str, object], *,
                  window: int = DEFAULT_WINDOW_BUCKETS) -> Dict[str, float]:
    """Per-worker points/s over the trailing ``window`` buckets."""

    count = timeline["num_buckets"]
    if not count:
        return {}
    take = max(1, min(int(window), count))
    window_s = take * timeline["bucket_s"]
    return {owner: sum(bucket["points"] for bucket in series[-take:]) / window_s
            for owner, series in timeline["workers"].items()}


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


# --------------------------------------------------------------------------- #
# Straggler / stall detection
# --------------------------------------------------------------------------- #
def detect_stragglers(workers: Dict[str, Dict[str, object]], *,
                      ttl_s: float,
                      timeline: Optional[Dict[str, object]] = None,
                      window: int = DEFAULT_WINDOW_BUCKETS,
                      k: float = DEFAULT_MAD_K,
                      stall_fraction: float = DEFAULT_STALL_FRACTION,
                      ) -> Dict[str, List[str]]:
    """Flag workers that are stalling or falling behind the fleet.

    ``workers`` is a :func:`repro.dse.dispatch.telemetry_summary` mapping.
    Two independent tests, both tuned to fire *before* the lease machinery
    would (so an operator sees the straggler while its lease is still
    active):

    * **stall** -- an alive worker whose last telemetry event is older
      than ``stall_fraction * ttl_s`` (a SIGSTOPped or wedged process
      stops emitting long before its lease's TTL runs out);
    * **slow** -- with at least three alive workers, one whose rolling
      points/s over the trailing ``window`` buckets falls more than
      ``k`` median-absolute-deviations below the fleet median (the MAD is
      floored at 10% of the median so a perfectly uniform fleet never
      flags its slowest member over noise).

    Returns ``{owner: [reason, ...]}`` for the flagged workers only.
    """

    if ttl_s <= 0:
        raise ValueError("ttl_s must be positive")
    flags: Dict[str, List[str]] = {}
    alive = {owner: row for owner, row in workers.items()
             if row.get("alive")}
    budget_s = stall_fraction * ttl_s
    for owner in sorted(alive):
        age = alive[owner].get("last_seen_age_s")
        if isinstance(age, (int, float)) and age > budget_s:
            flags.setdefault(owner, []).append(
                f"stalled: last event {age:.1f}s ago "
                f"(> {budget_s:.1f}s of the {ttl_s:.0f}s lease budget)")
    if timeline is not None and len(alive) >= 3:
        rates = {owner: rate
                 for owner, rate in rolling_rates(timeline,
                                                  window=window).items()
                 if owner in alive}
        if len(rates) >= 3:
            median = _median(list(rates.values()))
            mad = _median([abs(rate - median) for rate in rates.values()])
            spread = max(mad, 0.1 * median)
            threshold = median - k * spread
            if median > 0:
                for owner in sorted(rates):
                    if rates[owner] < threshold:
                        flags.setdefault(owner, []).append(
                            f"slow: {rates[owner]:.3f} points/s vs fleet "
                            f"median {median:.3f} (k={k:g} MADs below)")
    return flags


# --------------------------------------------------------------------------- #
# FleetMonitor: the stateful snapshot assembler behind `repro dse top`
# --------------------------------------------------------------------------- #
class FleetMonitor:
    """Incremental fleet snapshots of one dispatched store directory.

    Owns the persistent pieces a live dashboard needs -- the incremental
    :class:`TelemetryReader` and an open experiment-store view refreshed
    with the O(new-rows) ``reload()`` -- so each :meth:`snapshot` tick
    costs new rows, not a directory re-parse.  Works on any dispatched
    store from the outside (manifest + ledgers + telemetry), no
    :class:`~repro.dse.dispatch.Dispatcher` object required, so ``dse
    top`` can watch a fleet some other process (or machine) launched.

    Every timestamp flows through the injectable ``clock``
    (:class:`~repro.dse.dispatch.LeaseClock`), so a fake clock drives the
    whole dashboard in tests.
    """

    def __init__(self, store_dir, *,
                 bucket_s: float = DEFAULT_BUCKET_S,
                 window: int = DEFAULT_WINDOW_BUCKETS,
                 ttl_s: Optional[float] = None,
                 k: float = DEFAULT_MAD_K,
                 stall_fraction: float = DEFAULT_STALL_FRACTION,
                 clock=None) -> None:
        from repro.dse.dispatch import (DEFAULT_TTL_S, LeaseClock, open_ledger,
                                        read_manifest)

        self.store_dir = Path(store_dir)
        self.bucket_s = float(bucket_s)
        self.window = int(window)
        self.k = float(k)
        self.stall_fraction = float(stall_fraction)
        self.clock = clock if clock is not None else LeaseClock()
        self.reader = TelemetryReader(store_dir)
        try:
            self.manifest: Optional[Dict[str, object]] = \
                read_manifest(self.store_dir)
        except ValueError:
            self.manifest = None
        if ttl_s is not None:
            self.ttl_s = float(ttl_s)
        elif self.manifest is not None:
            self.ttl_s = float(self.manifest.get("ttl_s", DEFAULT_TTL_S))
        else:
            self.ttl_s = DEFAULT_TTL_S
        self.ledger = (open_ledger(self.store_dir, self.manifest,
                                   ttl_s=self.ttl_s, clock=self.clock)
                       if self.manifest is not None else None)
        self._store = None

    def _progress(self) -> Dict[str, object]:
        """The :func:`~repro.dse.dispatch.fleet_progress` of the store
        (just ``points_done`` for an undispatched one)."""

        from repro.dse.dispatch import fleet_progress
        from repro.dse.store import ExperimentStore

        try:
            if self._store is None:
                self._store = ExperimentStore(self.store_dir)
            else:
                self._store.reload()
        except (OSError, ValueError):
            return {}
        if self.manifest is None:
            return {"points_done": len(self._store)}
        return fleet_progress(self._store, self.manifest, self.ledger)

    def snapshot(self) -> Dict[str, object]:
        """Poll everything and assemble one :func:`render_top` snapshot."""

        from repro.dse.dispatch import telemetry_summary

        self.reader.poll()
        now = self.clock.now()
        timeline = fold_timeline(self.reader.events, bucket_s=self.bucket_s,
                                 until_t=now)
        workers = telemetry_summary(self.store_dir, now=now)
        stragglers = detect_stragglers(workers, ttl_s=self.ttl_s,
                                       timeline=timeline, window=self.window,
                                       k=self.k,
                                       stall_fraction=self.stall_fraction)
        return {
            "store": str(self.store_dir),
            "progress": self._progress(),
            "workers": workers,
            "timeline": timeline,
            "stragglers": stragglers,
            "ttl_s": self.ttl_s,
        }

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None


# --------------------------------------------------------------------------- #
# The `dse top` frame
# --------------------------------------------------------------------------- #
def render_top(snapshot: Dict[str, object], *,
               window: int = DEFAULT_WINDOW_BUCKETS,
               width: int = 100) -> str:
    """Render one ``dse top`` frame from an assembled snapshot.

    ``snapshot`` carries ``store`` (label), ``progress`` (the
    :func:`~repro.dse.dispatch.fleet_progress` points/leases/eta dict, may
    be partial), ``workers``
    (the telemetry summary), ``timeline`` (:func:`fold_timeline` output),
    ``stragglers`` (:func:`detect_stragglers` output) and ``ttl_s``.  Pure
    text in, pure text out: a fixed snapshot renders byte-identically,
    which is what the determinism tests pin.
    """

    from repro.visualize.ascii_chart import ascii_sparkline

    progress = snapshot.get("progress") or {}
    workers = snapshot.get("workers") or {}
    timeline = snapshot.get("timeline") or fold_timeline([])
    stragglers = snapshot.get("stragglers") or {}
    bucket_s = timeline["bucket_s"]
    count = timeline["num_buckets"]
    take = max(1, min(int(window), count)) if count else 0
    lines: List[str] = []

    header = f"repro dse top -- {snapshot.get('store', '?')}"
    done = progress.get("points_done")
    total = progress.get("points_total")
    if done is not None and total is not None:
        header += f" -- {done}/{total} points"
        pending = progress.get("points_pending")
        if pending:
            header += f" ({pending} pending)"
    leases = progress.get("leases")
    if leases:
        header += (f" | leases {leases.get('done', 0)} done"
                   f" / {leases.get('active', 0)} active"
                   f" / {leases.get('expired', 0)} expired"
                   f" / {leases.get('open', 0)} open")
    eta_s = progress.get("eta_s")
    if eta_s is not None:
        from repro.dse.dispatch import format_eta

        header += f" | ETA {format_eta(eta_s)}"
    lines.append(header[:width])

    fleet = timeline["fleet"][-take:] if take else []
    window_s = take * bucket_s if take else 0.0
    points = sum(bucket["points"] for bucket in fleet)
    hits = sum(bucket["cache_hits"] for bucket in fleet)
    misses = sum(bucket["cache_misses"] for bucket in fleet)
    wall = sum(bucket["wall_s"] for bucket in fleet)
    rate = points / window_s if window_s else 0.0
    per_point = wall / points if points else None
    hit_rate = hits / (hits + misses) if (hits + misses) else None
    fleet_line = (f"fleet: {rate:.3f} points/s over the last "
                  f"{window_s:.0f}s")
    if per_point is not None:
        fleet_line += f" | {per_point:.3f} wall_s/point"
    if hit_rate is not None:
        fleet_line += f" | cache hit rate {100 * hit_rate:.1f}%"
    fleet_line += (f" | {sum(b['claims'] for b in fleet)} claims, "
                   f"{sum(b['losses'] for b in fleet)} losses")
    lines.append(fleet_line[:width])
    if fleet:
        spark = ascii_sparkline([bucket["points"] for bucket in fleet])
        lines.append(f"points/bucket ({bucket_s:g}s): [{spark}]")

    rates = rolling_rates(timeline, window=window) if count else {}
    lines.append("")
    lines.append(f"workers ({len(workers)}):")
    name_width = max([len(owner) for owner in workers], default=6)
    for owner in sorted(workers):
        row = workers[owner]
        state = "alive " if row.get("alive") else "exited"
        age = row.get("last_seen_age_s")
        age_note = f"{age:6.1f}s" if isinstance(age, (int, float)) else "  never"
        series = timeline["workers"].get(owner)
        spark = (ascii_sparkline([b["points"] for b in series[-take:]])
                 if series and take else "")
        phase = row.get("phase")
        phase_note = f"  in {phase}" if isinstance(phase, str) and phase else ""
        flag_note = ""
        if owner in stragglers:
            flag_note = "  ** STRAGGLER: " + "; ".join(stragglers[owner])
        lines.append(
            f"  {owner:<{name_width}} {state} last {age_note}"
            f"  {rates.get(owner, 0.0):7.3f} pts/s"
            f"  {row.get('done', 0)} done/{row.get('lost', 0)} lost"
            f"/{row.get('claims', 0)} claims"
            f"{phase_note}  [{spark}]{flag_note}")
    if not workers:
        lines.append("  (no telemetry yet -- is this store dispatched?)")
    compacted = timeline.get("compacted") or {}
    if compacted:
        folded_points = sum(t["points"] for t in compacted.values())
        lines.append(f"  (+{folded_points} points in compacted history "
                     f"across {len(compacted)} worker log(s))")
    return "\n".join(lines)
