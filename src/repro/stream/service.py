"""Ingestion service: bounded queue, quarantine, journal-then-apply.

The :class:`StreamService` is the write path of the streaming auditor.
Batches move through it in a strict order chosen so a crash at any point
leaves a recoverable journal:

1. **enqueue** — :meth:`submit` parks the batch in a bounded FIFO; a full
   queue raises :class:`~repro.errors.BackpressureError` so producers
   back off instead of the service buffering unboundedly;
2. **validate** — the whole batch is checked against the current state
   (sequential overlay semantics) *before* anything is journalled; poison
   deltas are quarantined to the dead-letter segment with their typed
   error and never reach the journal;
3. **journal** — the surviving deltas are fsynced into the
   :class:`~repro.stream.journal.DeltaLog` under the sha chain;
4. **apply** — only after the append is durable does the in-memory
   auditor fold the batch and advance the **watermark** (the seq of the
   last fully-applied batch).  Readers trust state only up to the
   watermark, so a crash between journal and apply is invisible: restart
   replays the journalled batch and the watermark catches up.

That window is the ``stream.journalled`` crash point (key: batch id),
drilled by :mod:`repro.stream.chaos`.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Sequence

from repro.crashpoint import crashpoint
from repro.errors import BackpressureError, DeltaError, StreamError
from repro.obs import trace as obs
from repro.stream.deltas import Delta, delta_from_record, deltas_from_records
from repro.stream.engine import StreamAuditor
from repro.stream.journal import DeltaLog, StreamConfig
from repro.stream.monitor import AlarmEvent

DEAD_QUARANTINED = "quarantined"
DEAD_REQUEUED = "requeued"
DEAD_DEAD = "dead"


class StreamService:
    """Durable ingestion front of one stream directory."""

    def __init__(self, log: DeltaLog, auditor: StreamAuditor):
        self.log = log
        self.auditor = auditor
        self._queue: deque[tuple[str, list[Delta]]] = deque()
        self._dead_seq = len(self.log.dead_letters())
        self._n_outstanding = len(self.log.outstanding_dead_letters())

    # -- lifecycle ---------------------------------------------------------------
    @classmethod
    def create(cls, directory: str | Path, config: StreamConfig) -> "StreamService":
        """Initialise a fresh stream directory (journal genesis) and open it."""
        log = DeltaLog.create(directory, config)
        return cls(log, StreamAuditor(config))

    @classmethod
    def open(
        cls, directory: str | Path, allow_empty: bool = False
    ) -> tuple["StreamService", object]:
        """Recover the journal and replay it into a live service.

        Returns ``(service, recovery_report)``.  ``allow_empty`` is the
        ingest path's opt-in: a journal with zero committed batches is a
        fine starting point for writing but an error for reading.
        """
        log, report = DeltaLog.recover(directory, allow_empty=allow_empty)
        auditor = StreamAuditor.from_journal(log)
        return cls(log, auditor), report

    def close(self) -> None:
        """Release the journal's file handle."""
        self.log.close()

    # -- write path --------------------------------------------------------------
    def submit(self, batch_id: str, deltas: Sequence[Delta]) -> bool:
        """Queue one batch for ingestion; ``False`` if it is a known duplicate.

        Duplicate ids (already journalled, or already queued) are skipped
        idempotently — a producer retrying after a timeout must not
        double-apply.  A full queue raises
        :class:`~repro.errors.BackpressureError` without enqueueing.
        """
        batch_id = str(batch_id)
        if batch_id in self.auditor.applied_ids or self.log.has_batch(batch_id):
            obs.count("stream.duplicate_batches")
            return False
        if any(batch_id == queued_id for queued_id, _ in self._queue):
            obs.count("stream.duplicate_batches")
            return False
        if len(self._queue) >= self.log.config.queue_limit:
            raise BackpressureError(
                f"ingestion queue is full ({self.log.config.queue_limit} "
                f"batches); retry batch {batch_id!r} after a drain"
            )
        self._queue.append((batch_id, list(deltas)))
        obs.gauge_set("stream.queue_depth", len(self._queue))
        return True

    def drain(self) -> list[AlarmEvent]:
        """Ingest every queued batch in FIFO order; returns new alarm events."""
        events: list[AlarmEvent] = []
        while self._queue:
            batch_id, deltas = self._queue.popleft()
            events.extend(self._ingest_one(batch_id, deltas))
            obs.gauge_set("stream.queue_depth", len(self._queue))
        return events

    def ingest(
        self, batches: Sequence[tuple[str, Sequence[Delta]]]
    ) -> list[AlarmEvent]:
        """Submit-and-drain convenience for a pre-collected batch list."""
        events: list[AlarmEvent] = []
        for batch_id, deltas in batches:
            if self.submit(batch_id, deltas):
                events.extend(self.drain())
        return events

    def _ingest_one(self, batch_id: str, deltas: list[Delta]) -> list[AlarmEvent]:
        with obs.span("stream.batch", id=batch_id, n=len(deltas)):
            valid, poison = self.auditor.validate_batch(deltas)
            for delta, error in poison:
                self._quarantine(batch_id, delta, error)
            if not valid:
                obs.count("stream.empty_batches")
                return []
            seq = self.log.append_batch(
                batch_id, [d.to_record() for d in valid]
            )
            crashpoint("stream.journalled", batch_id)
            return self.auditor.apply_batch(seq, batch_id, valid)

    # -- quarantine --------------------------------------------------------------
    def _quarantine(
        self, batch_id: str, delta: Delta, error: DeltaError, attempts: int = 1
    ) -> None:
        self._dead_seq += 1
        self.log.append_dead_letter(
            {
                "id": f"dl-{self._dead_seq}",
                "batch": batch_id,
                "delta": delta.to_record(),
                "error": str(error),
                "attempts": attempts,
                "status": DEAD_QUARANTINED,
            }
        )
        self._n_outstanding += 1
        obs.count("stream.quarantined_deltas")
        obs.gauge_set("stream.dead_letter_depth", self._n_outstanding)

    def retry_dead_letters(self) -> dict[str, int]:
        """Re-validate quarantined deltas against the *current* state.

        A delta poisoned by ordering (a delete that raced its insert) can
        become valid later; one that keeps failing burns its retry budget
        and is marked dead.  Returns ``{"requeued": n, "dead": n,
        "requarantined": n}``.  Requeued deltas enter the normal write
        path under a fresh batch id, so the journal never holds a record
        of a delta that did not apply.
        """
        outcome = {"requeued": 0, "dead": 0, "requarantined": 0}
        obs.gauge_set(
            "stream.dead_letter_retry_budget", self.log.config.retry_budget
        )
        retried: list[Delta] = []
        for entry in self.log.outstanding_dead_letters():
            delta = delta_from_record(entry["delta"])
            attempts = int(entry["attempts"])
            try:
                self.auditor.state.validate(delta)
            except DeltaError as error:
                if attempts >= self.log.config.retry_budget:
                    self.log.append_dead_letter(
                        {**entry, "status": DEAD_DEAD, "error": str(error)}
                    )
                    outcome["dead"] += 1
                else:
                    self.log.append_dead_letter(
                        {
                            **entry,
                            "attempts": attempts + 1,
                            "error": str(error),
                            "status": DEAD_QUARANTINED,
                        }
                    )
                    outcome["requarantined"] += 1
            else:
                self.log.append_dead_letter({**entry, "status": DEAD_REQUEUED})
                retried.append(delta)
                outcome["requeued"] += 1
        self._n_outstanding -= outcome["requeued"] + outcome["dead"]
        for status, n in outcome.items():
            obs.count(f"stream.dead_letters_{status}", n)
        obs.gauge_set("stream.dead_letter_depth", self._n_outstanding)
        if retried:
            retry_id = f"retry-{self.auditor.watermark}-{self._dead_seq}"
            if self.submit(retry_id, retried):
                self.drain()
        return outcome

    # -- maintenance -------------------------------------------------------------
    def compact(self) -> None:
        """Fold the journal into a fresh generation seeded with current state."""
        with obs.span("stream.compact"):
            self.log.compact(
                self.auditor.export_rows(),
                self.auditor.state.next_row_id,
                self.auditor.state.n_alive,
                self.auditor.monitor.export_active(),
                self.auditor.monitor.events_dropped
                + len(self.auditor.monitor.events),
            )

    def maybe_compact(self) -> bool:
        """Compact when the live generation exceeds ``compact_bytes``."""
        limit = self.log.config.compact_bytes
        if limit is None or self.log.generation_bytes() < limit:
            return False
        self.compact()
        return True

    # -- read path ---------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot of the service for the CLI (JSON-safe, no wall-clock)."""
        return {
            "watermark": self.auditor.watermark,
            "n_batches": self.auditor.n_batches,
            "next_row": self.auditor.state.next_row_id,
            "n_alive": self.auditor.state.n_alive,
            "n_positive": self.auditor.state.n_alive_positive,
            "n_biased": len(self.auditor.reports()),
            "active_alarms": len(self.auditor.monitor.active()),
            "queue_depth": len(self._queue),
            "generation_bytes": self.log.generation_bytes(),
            "segments": self.log.segment_names(),
            "digest": self.auditor.digest(),
        }


def read_batches_file(path: str | Path) -> list[tuple[str, list[Delta]]]:
    """Parse a batches JSONL file: ``{"id": ..., "deltas": [[tag, ...], ...]}``.

    The CLI's wire format for ``repro stream ingest``.  Malformed lines
    raise :class:`~repro.errors.StreamError` (the file, unlike a live
    stream, is trusted input — a broken file is an operator error, not a
    poison delta to quarantine).
    """
    batches: list[tuple[str, list[Delta]]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamError(
                f"{path}:{lineno}: not valid JSON ({exc.msg})"
            ) from exc
        if (
            not isinstance(payload, dict)
            or "id" not in payload
            or not isinstance(payload.get("deltas"), list)
        ):
            raise StreamError(
                f'{path}:{lineno}: each line must be {{"id": ..., '
                '"deltas": [...]}'
            )
        batches.append(
            (str(payload["id"]), deltas_from_records(payload["deltas"]))
        )
    return batches
