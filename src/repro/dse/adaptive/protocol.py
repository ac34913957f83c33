"""The proposal side of an adaptive dispatch: signed proposals and the proposer.

Static grid shards fix every point before any result exists, while an
adaptive search must *see* results to choose its next points.  An adaptive
dispatch therefore splits into two roles over the shared store directory:

* The **proposer** (one process: ``repro dse propose``, or the wait step of
  :class:`~repro.dse.dispatch.Dispatcher` with a strategy) writes numbered,
  *signed* proposal files into ``<store>/proposals/`` -- atomic temp-write
  + rename, a SHA-256 content signature over the canonical payload so a
  torn or tampered proposal is detected rather than half-read.  Each
  logical batch is split into ``parts`` leaseable slices so the whole
  worker fleet shares it.  The proposer then watches the experiment store
  (incremental :meth:`~repro.dse.store.ExperimentStore.reload`, O(new
  rows) per tick) until every point of the outstanding batch has a row,
  ingests the objective values, and emits the next batch.  A signed
  ``complete.json`` marker ends the run and records the best point.
* **Workers** run the one worker loop, :func:`repro.dse.dispatch.run_worker`.
  :class:`ProposalLedger` is the :class:`~repro.dse.dispatch.LeaseDir` it
  leases proposal parts from (atomic claim, heartbeat renewal, expiry-based
  takeover of a SIGKILLed worker's part, done markers), and its per-unit
  step evaluates one part's points with the part's provenance stamped on
  the rows.

Crash recovery needs the ledger alone: a killed worker's part expires and
is re-leased; a killed proposer restarts, replays its own proposal files
in order (regenerating each batch deterministically and verifying it
against the stored files), re-ingests their results from the store and
continues where it stopped.  Because proposals are a pure function of
(space, strategy, seed, ingested values) and evaluation is deterministic,
a dispatched adaptive run -- even with kills on either side -- exports
byte-identically to a single-process run of the same strategy.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.dse.adaptive.propose import ProposalBatch, make_proposer
from repro.dse.dispatch import (
    DEFAULT_TTL_S,
    LeaseClock,
    LeaseDir,
    _filename_safe,
    default_owner,
    open_ledger,
    read_manifest,
)
from repro.dse.pareto import objective_value
from repro.dse.runner import DSERunner
from repro.dse.space import DesignSpace, point_from_spec
from repro.dse.store import ExperimentStore, row_to_record
from repro.obs.trace import span as _span

#: Subdirectory of the store directory holding the proposal ledger.
PROPOSAL_DIR = "proposals"

#: File name of the proposer's end-of-run marker.
COMPLETE_NAME = "complete.json"


class ProposalTampered(ValueError):
    """A proposal file failed its content-signature check."""


def _signature(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a payload, signature field excluded."""

    body = {key: value for key, value in payload.items() if key != "signature"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ProposalLedger(LeaseDir):
    """The ``proposals/`` directory: signed proposal files plus lease files.

    Part ``p`` of logical batch ``n`` lives in
    ``batch-<n:06d>-part<p:02d>.json``; its lease and done marker use the
    same name, so the claim/heartbeat/takeover discipline is the inherited
    :class:`~repro.dse.dispatch.LeaseDir` one, shared with the grid's shard
    ledger.  All writes are atomic (private temp file + ``os.replace``)
    and all payloads carry a content signature checked on read.
    """

    def __init__(self, store_dir, *, ttl_s: float = DEFAULT_TTL_S,
                 clock: Optional[LeaseClock] = None) -> None:
        self.store_dir = Path(store_dir)
        super().__init__(self.store_dir / PROPOSAL_DIR, ttl_s=ttl_s,
                         clock=clock)

    # ------------------------------------------------------------------ #
    @staticmethod
    def work_name(number: int, part: int) -> str:
        return f"batch-{number:06d}-part{part:02d}"

    def work_path(self, name: str) -> Path:
        return self.directory / f"{name}.json"

    def work_names(self) -> List[str]:
        """Every proposal part present, in (batch, part) order."""

        if not self.directory.exists():
            return []
        return sorted(path.stem for path in self.directory.glob("batch-*.json"))

    def batch_numbers(self) -> List[int]:
        """Logical batch numbers present, ascending."""

        numbers = {int(name.split("-")[1]) for name in self.work_names()}
        return sorted(numbers)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _slices(batch: ProposalBatch, parts: int) -> List[Tuple[int, slice]]:
        """The contiguous per-part slices of one logical batch.

        Contiguity keeps enumeration-adjacent points together, which is
        what lets a worker fold gate variants into one compilation.
        """

        count = len(batch.keys)
        parts = max(1, min(int(parts), count))
        base, extra = divmod(count, parts)
        slices = []
        start = 0
        for part in range(1, parts + 1):
            stop = start + base + (1 if part <= extra else 0)
            slices.append((part, slice(start, stop)))
            start = stop
        return slices

    def _part_payload(self, batch: ProposalBatch, meta: Dict[str, object],
                      parts: int, part: int, span: slice) -> Dict[str, object]:
        from repro.io.serialization import SCHEMA_VERSION

        payload = {
            "schema_version": SCHEMA_VERSION,
            "batch": batch.number,
            "part": part,
            "parts": parts,
            "keys": list(batch.keys[span]),
            "points": [point.spec() for point in batch.points[span]],
            "rung": batch.rung,
            "proxy_qubits": batch.proxy_qubits,
        }
        payload.update(meta)
        payload["signature"] = _signature(payload)
        return payload

    def _write_part(self, payload: Dict[str, object]) -> Path:
        name = self.work_name(payload["batch"], payload["part"])
        path = self.work_path(name)
        tmp = self.directory / \
            f".{path.name}.{_filename_safe(default_owner())}.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def write_batch(self, batch: ProposalBatch, meta: Dict[str, object], *,
                    parts: int = 1) -> List[Path]:
        """Persist one logical batch as up to ``parts`` leaseable slices.

        Every slice is individually signed and written atomically (private
        temp file + rename).
        """

        self.directory.mkdir(parents=True, exist_ok=True)
        return [self._write_part(self._part_payload(batch, meta, parts,
                                                    part, span))
                for part, span in self._slices(batch, parts)]

    def verify_or_repair_batch(self, batch: ProposalBatch,
                               meta: Dict[str, object], *,
                               parts: int = 1) -> None:
        """Reconcile stored parts of a batch with the regenerated one.

        The proposer-restart path: a proposer killed between the per-part
        renames of :meth:`write_batch` leaves a logical batch with some
        parts missing.  Parts that exist must match the regenerated slice
        byte-for-byte in content (keys and points) -- anything else means
        the ledger belongs to a different (space, strategy, seed) and is a
        hard error.  Missing or torn parts are simply (re)written, which is
        idempotent: the regenerated content is identical to what the dead
        proposer would have written.
        """

        self.directory.mkdir(parents=True, exist_ok=True)
        for part, span in self._slices(batch, parts):
            expected = self._part_payload(batch, meta, parts, part, span)
            name = self.work_name(batch.number, part)
            if self.work_path(name).exists():
                try:
                    stored = self.read_work(name)
                except ProposalTampered:
                    stored = None  # torn copy: rewrite below
                if stored is not None:
                    if (stored["keys"] != expected["keys"]
                            or stored["points"] != expected["points"]):
                        raise ValueError(
                            f"proposal ledger in {self.directory} does not "
                            f"match this (space, strategy, seed): batch "
                            f"{batch.number} part {part} differs; was the "
                            f"store produced by a different run?")
                    continue
            self._write_part(expected)

    def read_work(self, name: str) -> Dict[str, object]:
        """Load and signature-check one proposal part."""

        from repro.io.serialization import check_schema_version

        path = self.work_path(name)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"no proposal part {name} at {path}")
        except json.JSONDecodeError as err:
            raise ProposalTampered(f"{path}: unparseable proposal "
                                   f"({err})") from err
        if payload.get("signature") != _signature(payload):
            raise ProposalTampered(
                f"{path}: signature mismatch -- the proposal was torn or "
                f"tampered with; delete it to let the proposer rewrite it")
        check_schema_version(payload, source=str(path))
        return payload

    @staticmethod
    def batch_from_payload(payload: Dict[str, object]) -> ProposalBatch:
        """Rebuild a (part-sized) :class:`ProposalBatch` from a payload."""

        return ProposalBatch(
            number=payload["batch"],
            keys=tuple(payload["keys"]),
            points=tuple(point_from_spec(spec) for spec in payload["points"]),
            rung=payload.get("rung"),
            proxy_qubits=payload.get("proxy_qubits"),
        )

    def read_logical_batch(self, number: int) -> Dict[str, object]:
        """The merged payload of every part of one logical batch."""

        names = [name for name in self.work_names()
                 if int(name.split("-")[1]) == number]
        if not names:
            raise ValueError(f"no proposal batch {number} in {self.directory}")
        merged: Dict[str, object] = {"batch": number, "keys": [], "points": []}
        for name in names:
            payload = self.read_work(name)
            merged["keys"].extend(payload["keys"])
            merged["points"].extend(payload["points"])
            merged["rung"] = payload.get("rung")
            merged["proxy_qubits"] = payload.get("proxy_qubits")
        return merged

    # ------------------------------------------------------------------ #
    @contextmanager
    def evaluator(self, store_dir, space: DesignSpace, owner: str,
                  **runner_options) -> Iterator[Callable]:
        """The per-unit step of the worker loop: evaluate one proposal part.

        One store view (writer ``adaptive-<owner>``) persists across the
        worker's parts and is refreshed with the incremental ``reload``
        before each, so rows flushed by other workers (including a dead
        worker's partial part) replay instead of recomputing.  Rows carry
        the part's provenance exactly like the in-process strategy driver
        stamps it, so serial and dispatched runs persist identical rows.
        """

        with ExperimentStore(
                store_dir, writer=f"adaptive-{_filename_safe(owner)}") as store:

            def evaluate(name: str, heartbeat: Callable[[], None]) -> Dict:
                payload = self.read_work(name)
                points = [point_from_spec(spec) for spec in payload["points"]]
                store.reload()
                runner = DSERunner(space, store=store, heartbeat=heartbeat,
                                   **runner_options)
                runner.provenance = {
                    key: payload.get(key) for key in
                    ("strategy", "seed", "rung", "proxy_qubits")}
                if payload.get("objectives") is not None:
                    runner.provenance["objectives"] = payload["objectives"]
                with _span("dse.part", part=name, owner=owner,
                           points=len(points)):
                    runner.evaluate(points)
                return runner.stats

            yield evaluate

    # ------------------------------------------------------------------ #
    @property
    def complete_path(self) -> Path:
        return self.directory / COMPLETE_NAME

    def write_complete(self, payload: Dict[str, object]) -> Path:
        from repro.io.serialization import SCHEMA_VERSION

        body = {"schema_version": SCHEMA_VERSION}
        body.update(payload)
        body["signature"] = _signature(body)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / \
            f".{COMPLETE_NAME}.{_filename_safe(default_owner())}.tmp"
        tmp.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.complete_path)
        return self.complete_path

    def read_complete(self) -> Optional[Dict[str, object]]:
        try:
            payload = json.loads(self.complete_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("signature") != _signature(payload):
            return None  # torn write in flight; treat as not-yet-complete
        return payload

    def all_done(self) -> bool:
        """True when the run is complete and every proposal part is done."""

        return self.read_complete() is not None and super().all_done()


# --------------------------------------------------------------------------- #
# Proposer side
# --------------------------------------------------------------------------- #
def run_proposer(store_dir, *, manifest: Optional[Dict] = None,
                 poll_s: float = 0.2,
                 tick: Optional[Callable[[], None]] = None) -> Dict[str, object]:
    """Drive an adaptive run's proposal loop to completion.

    Requires an adaptive-mode dispatch manifest in ``store_dir`` (written
    by ``repro dse dispatch --strategy bayes ...`` or by
    :meth:`~repro.dse.dispatch.Dispatcher.prepare` given a strategy).
    Existing proposal files are replayed first -- each logical batch is
    regenerated from the deterministic proposer and verified against the
    stored files, so a restarted proposer continues exactly where its
    predecessor was killed.
    ``tick`` (if given) is invoked on every wait poll; raising from it
    aborts the loop (the dispatcher uses this for timeouts and worker
    respawn).

    Returns ``{"batches", "evaluations", "best", "trace"}`` where ``best``
    echoes the complete-marker payload.
    """

    store_dir = Path(store_dir)
    manifest = manifest if manifest is not None else read_manifest(store_dir)
    ledger = open_ledger(store_dir, manifest)
    if not isinstance(ledger, ProposalLedger):
        raise ValueError(
            f"store {store_dir} is not an adaptive dispatch; prepare it "
            f"with `repro dse dispatch --strategy bayes ...` first")
    space = DesignSpace.from_dict(manifest["space"])
    strategy_spec = dict(manifest["strategy"])
    parts = int(strategy_spec.pop("parts", 1))
    proposer = make_proposer(space, strategy_spec)
    store = ExperimentStore(store_dir)
    # Fingerprint-only runner: builds and memoises circuits to key the
    # store, but never evaluates anything (the workers do).
    index = DSERunner(space, store=store)
    existing = set(ledger.batch_numbers())
    meta = {"strategy": proposer.strategy_name, "seed": proposer.seed,
            "metric": proposer.metric}
    if hasattr(proposer, "objectives"):
        # Multi-objective runs: the objective list rides in every proposal
        # part so workers stamp it into row provenance exactly like the
        # in-process strategy driver does -- serial and dispatched runs of
        # one study then persist identical raw rows, not only identical
        # canonical exports.
        meta["objectives"] = list(proposer.objectives)

    trace: List[Dict[str, object]] = []
    while True:
        with _span("dse.propose.batch") as batch_span:
            batch = proposer.next_batch()
            if batch is None:
                break
            batch_span.set(batch=batch.number, points=len(batch.keys))
            if batch.number in existing:
                # Replay: verify the stored parts against the regenerated
                # batch and rewrite any the dead proposer did not get to (a
                # kill can land between the per-part renames of write_batch).
                ledger.verify_or_repair_batch(batch, meta, parts=parts)
            else:
                ledger.write_batch(batch, meta, parts=parts)
        with _span("dse.propose.await", batch=batch.number,
                   points=len(batch.keys)):
            values = _await_batch(store, index, batch, proposer,
                                  poll_s=poll_s, tick=tick)
        proposer.ingest(batch, values)
        trace.append(proposer.trace_entry(batch))

    best = proposer.best()
    best_payload = None
    if best is not None:
        key, value = best
        best_payload = {"key": key, "value": value,
                        "point": proposer.candidates[key].spec()}
    complete = {
        "batches": len(trace),
        "evaluations": proposer.evaluations,
        "best": best_payload,
    }
    if hasattr(proposer, "frontier"):
        # Multi-objective runs: the complete marker records the Pareto
        # archive (key, canonical objective values, point spec), so the
        # frontier of a finished dispatched run is readable without
        # reconstructing a proposer.
        complete["objectives"] = list(proposer.objectives)
        complete["frontier"] = [
            {"key": key, "values": list(vector),
             "point": proposer.candidates[key].spec()}
            for key, vector in proposer.frontier()]
    ledger.write_complete(complete)
    summary = dict(complete)
    summary["trace"] = trace
    return summary


def _await_batch(store: ExperimentStore, index: DSERunner,
                 batch: ProposalBatch, proposer, *, poll_s: float,
                 tick: Optional[Callable[[], None]]) -> List[object]:
    """Block until every point of ``batch`` has a store row; return values.

    Scalar proposers get one :func:`~repro.dse.pareto.objective_value` per
    point; multi-objective proposers (an ``objectives`` attribute) get the
    full :func:`~repro.dse.moo.objectives.objective_vector` -- exactly what
    the in-process strategy drivers feed ``ingest``, so the proposal
    sequence is identical either way.
    """

    fingerprints = [index.fingerprint(point) for point in batch.points]
    while any(fp not in store for fp in fingerprints):
        if tick is not None:
            tick()
        time.sleep(poll_s)
        store.reload()  # incremental: O(rows appended since last poll)
    records = [row_to_record(store.get(fp)) for fp in fingerprints]
    objectives = getattr(proposer, "objectives", None)
    if objectives is not None:
        from repro.dse.moo.objectives import objective_vector

        return [objective_vector(record, objectives) for record in records]
    return [objective_value(record, proposer.metric) for record in records]
