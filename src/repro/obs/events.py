"""Typed, schema-versioned JSONL campaign events.

An :class:`EventLog` appends one JSON object per line to a file.  Every
record carries ``schema_version`` and ``event``; the event types emitted
by a campaign are

* ``campaign_started`` — configuration echo (name, faults, seed,
  iterations, partitions, workers) plus a wall-clock ``ts``;
* ``reference_run`` — once per run, after the fault-free reference:
  its ``instructions`` and, when the run collects metrics, the
  ``payload_bytes`` one worker initialisation would ship;
* ``experiment_finished`` — one per experiment, **deterministic** (no
  timestamp): plan ``index``, fault target (partition/element/bit),
  ``injection_time``, outcome ``category``, detecting ``mechanism``,
  ``detected_iteration``, ``detection_latency`` (instructions from
  injection to the detection event), ``early_exit_iteration`` (the
  boundary where simulation stopped and the reference output tail was
  spliced in: the state hash re-converged, or every differing bit is
  provably never read again), ``timed_out``, ``instructions`` executed
  and ``pruned`` (the outcome was predicted by def/use pruning instead
  of simulated).  Because the
  payload is a pure function of the experiment, serial and parallel
  campaigns produce identical records;
* ``worker_chunk_done`` — a worker process finished its plan slice;
* ``worker_heartbeat`` — periodic liveness/throughput report from the
  execution loop (``ts``, ``pid``, ``worker`` submission id, ``done``/
  ``total`` within the current chunk, ``seconds`` busy so far and
  ``throughput`` in experiments/s); the live status layer
  (``repro.obs.status``) folds these into per-worker health;
* ``campaign_finished`` — wall time plus per-category outcome counts;
* ``span`` — one per tracer span (name, depth, seconds).

Recovery events (see ``docs/robustness.md``) appear only when the
crash-safety machinery acts:

* ``campaign_resumed`` — a run continued a stored campaign
  (``campaign_id``, ``completed`` experiment count);
* ``campaign_aborted`` — the run was interrupted after flushing its
  in-flight results (``campaign_id``, ``completed``);
* ``chunk_requeued`` — a worker chunk failed and was retried, split, or
  both (``experiments``, ``attempt``, ``killed``, ``reason``);
* ``experiment_quarantined`` — one experiment crossed its crash budget
  and was recorded with ``provenance='quarantined'`` (``index``);
* ``worker_pool_rebuilt`` — the process pool broke and was respawned;
* ``serial_fallback`` — pool rebuilds were exhausted and the remaining
  chunks ran in the parent (``experiments``);
* ``worker_pool_respawned`` — a warm pool built for an incompatible
  payload was torn down before the run (``reason``).

Work-queue events (the lease-based dispatch layer shared by every
campaign's chunk loop and the campaign service, see
:mod:`repro.goofi.workqueue`):

* ``lease_granted`` — a job was leased to a worker (``job``, ``lease``,
  ``worker``, ``experiments``, ``attempt``, ``suspect``);
* ``lease_expired`` — a lease missed its heartbeat deadline and the job
  was requeued (``job``, ``expiries``, and ``worker`` when known);
* ``job_state`` — a queue job changed state on failure handling
  (``job``, ``state`` of ``requeued``/``split``/``exhausted``,
  ``attempt``, ``experiments``).

Data-plane diagnostics (``docs/performance.md``) are schedule-dependent,
so the status reports them but the metrics registry (whose
serial/parallel equality is a tested invariant) does not:

* ``dataplane_stats`` — delta-restore counters drained after one
  chunk (``worker``, ``restore_words_touched``,
  ``delta_replay_iterations``, ``full_restores``);
* ``chunk_resized`` — the locality-aware scheduler adapted its chunk
  size to the measured worker throughput (``size``, ``rate``).

Worker processes never share a file descriptor: each chunk writes its
own ``<path>.shard<N>`` file, and the parent merges the shards into the
main log (:func:`merge_event_shards`).
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Dict, Iterable, List, Optional

from repro.errors import ObservabilityError

#: Version stamped into (and required of) every event record.
SCHEMA_VERSION = 1

#: The event types a campaign emits.
EVENT_TYPES = (
    "campaign_started",
    "experiment_finished",
    "worker_chunk_done",
    "worker_heartbeat",
    "campaign_finished",
    "span",
    "campaign_resumed",
    "campaign_aborted",
    "chunk_requeued",
    "experiment_quarantined",
    "worker_pool_rebuilt",
    "serial_fallback",
    "worker_pool_respawned",
    # No longer emitted; kept so event logs written before equivalence
    # collapse was removed still parse.
    "equivalence_collapse",
    "dataplane_stats",
    "chunk_resized",
    "lease_granted",
    "lease_expired",
    "job_state",
    "reference_run",
)


class EventLog:
    """An append-only JSONL sink for campaign events.

    ``mode`` is ``"w"`` (truncate — a fresh campaign) or ``"a"``
    (append — a resumed campaign continues the original run's log, so
    the combined file carries the full event history).  Appending to a
    file whose last line was torn by a crash is safe for readers: the
    incremental follower (:mod:`repro.obs.follow`) tolerates a partial
    line mid-stream, and a new record always starts after the previous
    write's trailing newline.
    """

    def __init__(self, path: str, mode: str = "w"):
        if mode not in ("w", "a"):
            raise ObservabilityError(f"event log mode must be 'w' or 'a', not {mode!r}")
        self.path = path
        self._file: Optional[IO[str]] = open(path, mode, encoding="utf-8")
        # A torn final line (crash mid-write) must not swallow the next
        # record: appending starts on a fresh line.
        if mode == "a" and self._file.tell() > 0:
            with open(path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                if probe.read(1) != b"\n":
                    self._file.write("\n")

    def emit(self, event: str, **payload: object) -> None:
        """Append one event record (``schema_version`` added automatically)."""
        if event not in EVENT_TYPES:
            raise ObservabilityError(f"unknown event type {event!r}")
        self.emit_record({"schema_version": SCHEMA_VERSION, "event": event, **payload})

    def emit_record(self, record: Dict[str, object]) -> None:
        """Append a pre-built record verbatim (used by the shard merge)."""
        if self._file is None:
            raise ObservabilityError(f"event log {self.path} is closed")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def now() -> float:
    """Wall-clock timestamp used by the non-deterministic events."""
    return time.time()


def parse_event_line(line: str, where: str) -> Optional[Dict[str, object]]:
    """Parse and validate one JSONL event line (``None`` for blank lines).

    ``where`` prefixes error messages, conventionally ``path:line``.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ObservabilityError(f"{where}: not an object")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ObservabilityError(
            f"{where}: schema_version {version!r} (supported: {SCHEMA_VERSION})"
        )
    if record.get("event") not in EVENT_TYPES:
        raise ObservabilityError(f"{where}: unknown event {record.get('event')!r}")
    return record


def read_events(path: str) -> List[Dict[str, object]]:
    """Parse an event file, validating schema version and event types."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            record = parse_event_line(line, f"{path}:{line_number}")
            if record is not None:
                events.append(record)
    return events


def merge_event_shards(log: EventLog, shard_paths: Iterable[str]) -> int:
    """Merge worker shard files into ``log`` in plan order.

    Records carrying a plan ``index`` (``experiment_finished``) are
    re-ordered by it, so shards that each hold a slice of the plan merge
    into one plan-order sequence.  Records without an
    ``index`` (e.g. ``worker_heartbeat`` liveness reports) are appended
    *after* the experiment block, preserving their shard order — sorting
    them under a default key would splice timestamped diagnostics into
    the deterministic experiment sequence at position 0.  Shards are
    deleted after a successful merge.  Returns the number of merged
    records.
    """
    merged: List[Dict[str, object]] = []
    shard_paths = list(shard_paths)
    for shard in shard_paths:
        merged.extend(read_events(shard))
    # Sort is stable: experiment records order by plan index, everything
    # else keeps its relative (numeric shard, emission) order at the end.
    merged.sort(key=lambda record: (0, record["index"]) if "index" in record else (1, 0))
    for record in merged:
        log.emit_record(record)
    for shard in shard_paths:
        os.remove(shard)
    return len(merged)
