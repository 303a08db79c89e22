"""Campaign status: the one fold of a campaign's event stream.

:class:`CampaignStatusReducer` folds ``repro.obs.events`` records into a
:class:`CampaignStatus`, and every metric surface reads that status:
``repro obs status``/``watch`` render it, ``repro obs`` (the post-hoc
summary, :mod:`repro.obs.summary`) renders it at more length, and
:func:`repro.obs.export.status_registry` turns it into the
:class:`~repro.obs.metrics.MetricsRegistry` behind ``campaign
--metrics`` and the Prometheus export.  The reducer is incremental:
feed it records as a follower (:mod:`repro.obs.follow`) delivers them —
or as the campaign emits them (``Telemetry(metrics=True)``) — and take
a snapshot whenever one is needed.

The accounting is **idempotent** where the stream can replay records:
worker shard files are merged back into the main event log when chunks
complete, so a live follower sees ``experiment_finished`` and
``worker_heartbeat`` records twice.  Experiments are counted by distinct
plan ``index`` and heartbeats keyed by ``(pid, submission)`` with
monotone progress, so re-folding merged records changes nothing.

A campaign resumed *without* the original event log (the pre-append-mode
behaviour, or a log lost with its machine) still reports correct totals:
``campaign_resumed`` carries the completed count, and any completed
experiments not present in the stream itself are added as an offset.
Rates (throughput, ETA) count only the experiments the current run
finished, over the current run's time.

Alongside the reducer live the per-campaign **manifest** helpers: a
small JSON sidecar (``<events>.manifest.json``) recording the campaign's
identity (config fingerprint, seed, campaign id) and artifact paths, so
a service can map an event stream back to its database row without
parsing the stream first.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DETECTION_LATENCY_BUCKETS,
    INSTRUCTIONS_BUCKETS,
    Histogram,
)

#: Version stamped into every ``manifest.json``.
MANIFEST_VERSION = 1

#: Seconds without a heartbeat/timestamped event before a worker (or the
#: whole campaign) is reported as stalled.
DEFAULT_STALL_AFTER = 60.0


@dataclass
class WorkerHealth:
    """Point-in-time health of one worker process.

    Attributes:
        pid: the worker's OS process id (a serial campaign's chunks
            run in the parent and report its pid).
        state: ``active`` (heartbeat within the stall window), ``stalled``
            (campaign still running but the worker went quiet), or
            ``done`` (the campaign ended).
        last_seen_ts: wall-clock time of the last heartbeat.
        age_seconds: staleness of that heartbeat at snapshot time.
        chunks: chunk submissions this worker has reported on.
        experiments: experiments it has completed (summed across chunks).
        chunk_done/chunk_total: progress within its latest chunk.
        throughput: experiments/s reported by the latest heartbeat.
    """

    pid: int
    state: str
    last_seen_ts: float
    age_seconds: Optional[float]
    chunks: int
    experiments: int
    chunk_done: int
    chunk_total: int
    throughput: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "pid": self.pid,
            "state": self.state,
            "last_seen_ts": self.last_seen_ts,
            "age_seconds": self.age_seconds,
            "chunks": self.chunks,
            "experiments": self.experiments,
            "chunk_done": self.chunk_done,
            "chunk_total": self.chunk_total,
            "throughput": self.throughput,
        }


@dataclass
class CampaignStatus:
    """One snapshot of a (possibly still running) campaign.

    ``done`` counts every completed experiment — simulated, pruned and
    resumed alike.  ``started_ts``, ``elapsed_seconds`` and
    ``throughput`` describe the current run (the latest
    ``campaign_started``): the rate counts only experiments this run
    finished, and an ended campaign is anchored at its last event, so
    its rate stops moving.  ``eta_seconds`` extrapolates the remainder
    at that rate and is ``None`` until a rate exists (or once the
    campaign ended).

    The per-experiment aggregates fold ``experiment_finished`` records:
    ``partition_counts`` (partition → category → count),
    ``mechanism_counts``, ``pruned_counts`` (prediction → count; a
    pruned record's category *is* its prediction) and, over the
    simulated (not pruned, not quarantined) records, ``early_exits``,
    ``timeouts`` and the ``detection_latency``/``instructions``
    histograms.  ``simulated`` counts every record not pruned.
    """

    name: str = "campaign"
    seed: Optional[int] = None
    state: str = "unknown"
    total: int = 0
    done: int = 0
    resumed: int = 0
    workers: int = 1
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    started_ts: Optional[float] = None
    last_event_ts: Optional[float] = None
    elapsed_seconds: Optional[float] = None
    throughput: Optional[float] = None
    eta_seconds: Optional[float] = None
    wall_seconds: Optional[float] = None
    worker_health: List[WorkerHealth] = field(default_factory=list)
    requeued_chunks: int = 0
    retried_experiments: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    restore_words_touched: int = 0
    delta_replay_iterations: int = 0
    full_restores: int = 0
    dataplane_reports: int = 0
    chunks_resized: int = 0
    leases_granted: int = 0
    stale_leases: int = 0
    jobs_requeued: int = 0
    jobs_split: int = 0
    jobs_exhausted: int = 0
    partition_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    mechanism_counts: Dict[str, int] = field(default_factory=dict)
    pruned_counts: Dict[str, int] = field(default_factory=dict)
    simulated: int = 0
    early_exits: int = 0
    timeouts: int = 0
    detection_latency: Histogram = field(
        default_factory=lambda: Histogram(DETECTION_LATENCY_BUCKETS)
    )
    instructions: Histogram = field(
        default_factory=lambda: Histogram(INSTRUCTIONS_BUCKETS)
    )
    reference_instructions: Optional[int] = None
    reference_payload_bytes: Optional[int] = None
    spans: List[Dict[str, object]] = field(default_factory=list)
    manifest: Optional[Dict[str, object]] = None

    @property
    def pruned(self) -> int:
        return sum(self.pruned_counts.values())

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (the ``repro obs status --json`` payload)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "remaining": self.remaining,
            "pruned": self.pruned,
            "resumed": self.resumed,
            "workers": self.workers,
            "outcomes": dict(sorted(self.outcome_counts.items())),
            "started_ts": self.started_ts,
            "last_event_ts": self.last_event_ts,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "eta_seconds": self.eta_seconds,
            "wall_seconds": self.wall_seconds,
            "worker_health": [health.to_dict() for health in self.worker_health],
            "recovery": {
                "requeued_chunks": self.requeued_chunks,
                "retried_experiments": self.retried_experiments,
                "quarantined": self.quarantined,
                "pool_rebuilds": self.pool_rebuilds,
                "serial_fallbacks": self.serial_fallbacks,
            },
            "dataplane": {
                "restore_words_touched": self.restore_words_touched,
                "delta_replay_iterations": self.delta_replay_iterations,
                "full_restores": self.full_restores,
                "reports": self.dataplane_reports,
                "chunks_resized": self.chunks_resized,
            },
            "queue": {
                "leases_granted": self.leases_granted,
                "stale_leases": self.stale_leases,
                "jobs_requeued": self.jobs_requeued,
                "jobs_split": self.jobs_split,
                "jobs_exhausted": self.jobs_exhausted,
            },
            "manifest": self.manifest,
        }


class _WorkerState:
    """Mutable per-pid heartbeat accumulator (reducer internal)."""

    __slots__ = ("pid", "last_ts", "throughput", "chunk_done", "chunk_total", "per_chunk")

    def __init__(self, pid: int):
        self.pid = pid
        self.last_ts = 0.0
        self.throughput: Optional[float] = None
        self.chunk_done = 0
        self.chunk_total = 0
        self.per_chunk: Dict[int, int] = {}

    def fold(self, record: Dict[str, object]) -> None:
        submission = int(record.get("worker", 0))
        done = int(record.get("done", 0))
        previous = self.per_chunk.get(submission, 0)
        # Replayed (shard-then-merge) heartbeats never move progress
        # backwards; only a genuinely newer report updates the display.
        if done > previous:
            self.per_chunk[submission] = done
        ts = float(record.get("ts", 0.0))
        if ts >= self.last_ts:
            self.last_ts = ts
            throughput = record.get("throughput")
            self.throughput = float(throughput) if throughput is not None else None
            self.chunk_done = max(done, previous)
            self.chunk_total = int(record.get("total", 0))


def _bump(counts: Dict[str, int], key: str) -> None:
    counts[key] = counts.get(key, 0) + 1


class CampaignStatusReducer:
    """Fold campaign events, in any interleaving, into live status.

    Call :meth:`fold` (one record) or :meth:`fold_many` as records
    arrive, then :meth:`status` for a snapshot.  Unknown event types are
    ignored, so a newer writer does not break an older reader.
    """

    def __init__(self, stall_after: float = DEFAULT_STALL_AFTER):
        self.stall_after = stall_after
        self._status = CampaignStatus()
        self._seen_indices: set = set()
        self._resumed_offset = 0
        # Experiments completed before the current run started (the
        # appended log's earlier runs, or a resume's completed count):
        # the rate leaves them out.
        self._run_base = 0
        self._quarantined: set = set()
        self._workers: Dict[int, _WorkerState] = {}
        # Shard-then-merge replays ``dataplane_stats`` records; key them
        # so the summed counters stay exact (same idempotence rule as
        # experiments and heartbeats above).
        self._seen_dataplane: set = set()
        # Lease events are keyed too: a service campaign's log survives
        # worker crashes and repairs, so the same grant/expiry may be
        # folded more than once.
        self._seen_leases: set = set()
        self._seen_expiries: set = set()

    # -- folding ---------------------------------------------------------------
    def fold_many(self, records: Sequence[Dict[str, object]]) -> None:
        for record in records:
            self.fold(record)

    def fold(self, record: Dict[str, object]) -> None:
        status = self._status
        kind = record.get("event")
        ts = record.get("ts")
        if ts is not None:
            ts = float(ts)
            if status.last_event_ts is None or ts > status.last_event_ts:
                status.last_event_ts = ts
        if kind == "campaign_started":
            status.name = str(record.get("name", status.name))
            status.total = int(record.get("faults", status.total))
            status.workers = int(record.get("workers", status.workers))
            seed = record.get("seed")
            status.seed = int(seed) if seed is not None else status.seed
            if ts is not None and ts != status.started_ts:
                # A new run (a replayed record repeats its run's ts).
                status.started_ts = ts
                self._run_base = len(self._seen_indices) + self._resumed_offset
            status.state = "running"
        elif kind == "experiment_finished":
            self._fold_experiment(record)
        elif kind == "worker_heartbeat":
            pid = int(record.get("pid", 0))
            state = self._workers.get(pid)
            if state is None:
                state = self._workers[pid] = _WorkerState(pid)
            state.fold(record)
        elif kind == "reference_run":
            status.reference_instructions = int(record.get("instructions", 0))
            payload = record.get("payload_bytes")
            if payload is not None:
                status.reference_payload_bytes = int(payload)
        elif kind == "campaign_resumed":
            completed = int(record.get("completed", 0))
            status.resumed = completed
            self._run_base = completed
            # With the original log appended-to, the completed
            # experiments are already in the stream; a resume running
            # against a fresh log only has this count — make up the
            # difference so ``done`` is exact either way.
            self._resumed_offset = max(
                self._resumed_offset, completed - len(self._seen_indices)
            )
            status.state = "running"
        elif kind == "campaign_aborted":
            status.state = "aborted"
        elif kind == "campaign_finished":
            status.state = "finished"
            status.wall_seconds = float(record.get("wall_seconds", 0.0))
        elif kind == "span":
            status.spans.append(record)
        elif kind == "chunk_requeued":
            status.requeued_chunks += 1
            status.retried_experiments += int(record.get("experiments", 0))
        elif kind == "experiment_quarantined":
            status.quarantined += 1
            self._quarantined.add(record.get("index"))
        elif kind == "worker_pool_rebuilt":
            status.pool_rebuilds += 1
        elif kind == "serial_fallback":
            status.serial_fallbacks += 1
        elif kind == "dataplane_stats":
            key = (record.get("worker"), record.get("ts"))
            if key in self._seen_dataplane:
                return
            self._seen_dataplane.add(key)
            status.dataplane_reports += 1
            status.restore_words_touched += int(
                record.get("restore_words_touched", 0)
            )
            status.delta_replay_iterations += int(
                record.get("delta_replay_iterations", 0)
            )
            status.full_restores += int(record.get("full_restores", 0))
        elif kind == "chunk_resized":
            status.chunks_resized += 1
        elif kind == "lease_granted":
            key = (record.get("job"), record.get("lease"))
            if key in self._seen_leases:
                return
            self._seen_leases.add(key)
            status.leases_granted += 1
        elif kind == "lease_expired":
            key = (record.get("job"), record.get("expiries"))
            if key in self._seen_expiries:
                return
            self._seen_expiries.add(key)
            status.stale_leases += 1
        elif kind == "job_state":
            state = record.get("state")
            if state == "requeued":
                status.jobs_requeued += 1
            elif state == "split":
                status.jobs_split += 1
            elif state == "exhausted":
                status.jobs_exhausted += 1

    def _fold_experiment(self, record: Dict[str, object]) -> None:
        index = record.get("index")
        if index in self._seen_indices:
            return  # shard record re-read after the merge
        self._seen_indices.add(index)
        status = self._status
        category = str(record.get("category"))
        _bump(status.outcome_counts, category)
        _bump(
            status.partition_counts.setdefault(str(record.get("partition")), {}),
            category,
        )
        mechanism = record.get("mechanism")
        if mechanism is not None:
            _bump(status.mechanism_counts, str(mechanism))
        if record.get("pruned"):
            _bump(status.pruned_counts, category)
            return
        status.simulated += 1
        if index in self._quarantined:
            return  # a stand-in result: nothing was observed
        instructions = record.get("instructions")
        if instructions is not None:
            status.instructions.observe(instructions)
        latency = record.get("detection_latency")
        if latency is not None:
            status.detection_latency.observe(latency)
        if record.get("early_exit_iteration") is not None:
            status.early_exits += 1
        if record.get("timed_out"):
            status.timeouts += 1

    # -- snapshots -------------------------------------------------------------
    def status(self, now: Optional[float] = None) -> CampaignStatus:
        """A point-in-time snapshot.

        ``now`` anchors staleness (stall detection) and the elapsed/ETA
        extrapolation of a running campaign; without it the latest event
        timestamp is used, so a post-mortem fold of an aborted log
        reports the state *as of* the abort rather than flagging
        everything stalled.  An ended (finished or aborted) campaign is
        always anchored at its last event.
        """
        status = self._status
        status.done = len(self._seen_indices) + self._resumed_offset
        if status.state == "stalled":
            # Derived below from this snapshot's ``now``, never folded:
            # a worker that reports again un-stalls the campaign.
            status.state = "running"
        running = status.state == "running"
        basis = now
        if basis is None or status.state in ("finished", "aborted"):
            basis = status.last_event_ts
        if status.started_ts is not None and basis is not None:
            status.elapsed_seconds = max(0.0, basis - status.started_ts)
        run_done = status.done - self._run_base
        status.throughput = None
        if status.state == "finished" and status.wall_seconds is not None:
            if status.wall_seconds:
                status.throughput = run_done / status.wall_seconds
        elif status.elapsed_seconds:
            status.throughput = run_done / status.elapsed_seconds
        if running and status.throughput:
            status.eta_seconds = status.remaining / status.throughput
        else:
            status.eta_seconds = None
        status.worker_health = []
        stalled_workers = 0
        for pid in sorted(self._workers):
            state = self._workers[pid]
            age = None
            if basis is not None and state.last_ts:
                age = max(0.0, basis - state.last_ts)
            if not running:
                health_state = "done"
            elif age is not None and age > self.stall_after:
                health_state = "stalled"
                stalled_workers += 1
            else:
                health_state = "active"
            status.worker_health.append(
                WorkerHealth(
                    pid=pid,
                    state=health_state,
                    last_seen_ts=state.last_ts,
                    age_seconds=age,
                    chunks=len(state.per_chunk),
                    experiments=sum(state.per_chunk.values()),
                    chunk_done=state.chunk_done,
                    chunk_total=state.chunk_total,
                    throughput=state.throughput,
                )
            )
        # The whole campaign is stalled when it claims to be running but
        # every known worker went quiet (quarantine candidates for the
        # service layer) — or, with no heartbeats at all, when the stream
        # itself went quiet.
        if running and now is not None:
            quiet = (
                status.last_event_ts is not None
                and now - status.last_event_ts > self.stall_after
            )
            if self._workers:
                if stalled_workers == len(self._workers):
                    status.state = "stalled"
            elif quiet:
                status.state = "stalled"
        return status


def campaign_status(
    events: Sequence[Dict[str, object]],
    now: Optional[float] = None,
    stall_after: float = DEFAULT_STALL_AFTER,
) -> CampaignStatus:
    """Fold a full record sequence into one :class:`CampaignStatus`."""
    reducer = CampaignStatusReducer(stall_after=stall_after)
    reducer.fold_many(events)
    return reducer.status(now=now)


def render_status(status: CampaignStatus) -> str:
    """The human-readable ``repro obs status``/``watch`` panel."""
    lines: List[str] = []
    header = f"Campaign {status.name}"
    if status.seed is not None:
        header += f" (seed {status.seed})"
    header += f" — {status.state}"
    lines.append(header)
    percent = 100.0 * status.done / status.total if status.total else 0.0
    progress = f"  progress    {status.done}/{status.total} ({percent:.1f}%)"
    extras = []
    if status.pruned:
        extras.append(f"{status.pruned} pruned")
    if status.resumed:
        extras.append(f"{status.resumed} resumed")
    if extras:
        progress += f"  [{', '.join(extras)}]"
    lines.append(progress)
    if status.throughput is not None:
        rate = f"  throughput  {status.throughput:.2f} experiments/s"
        if status.eta_seconds is not None:
            rate += f" — ETA {status.eta_seconds:.0f} s"
        elif status.wall_seconds is not None:
            rate += f" — finished in {status.wall_seconds:.2f} s"
        lines.append(rate)
    if status.outcome_counts:
        counts = ", ".join(
            f"{category} {count}"
            for category, count in sorted(status.outcome_counts.items())
        )
        lines.append(f"  outcomes    {counts}")
    if status.worker_health:
        lines.append("  workers")
        for health in status.worker_health:
            chunk = (
                f"chunk {health.chunk_done}/{health.chunk_total}"
                if health.chunk_total
                else "-"
            )
            rate = (
                f"{health.throughput:.2f} exp/s"
                if health.throughput is not None
                else "-"
            )
            age = (
                f"seen {health.age_seconds:.1f} s ago"
                if health.age_seconds is not None
                else "never seen"
            )
            lines.append(
                f"    pid {health.pid:<8} {health.state:<8} {chunk:<16}"
                f" {rate:<14} {age}  ({health.experiments} experiments,"
                f" {health.chunks} chunks)"
            )
    recovery = []
    if status.requeued_chunks:
        recovery.append(
            f"{status.requeued_chunks} requeued chunks"
            f" ({status.retried_experiments} retried)"
        )
    if status.quarantined:
        recovery.append(f"{status.quarantined} quarantined")
    if status.pool_rebuilds:
        recovery.append(f"{status.pool_rebuilds} pool rebuilds")
    if status.serial_fallbacks:
        recovery.append(f"{status.serial_fallbacks} serial fallbacks")
    if recovery:
        lines.append(f"  recovery    {', '.join(recovery)}")
    queue = []
    if status.leases_granted:
        queue.append(f"{status.leases_granted} leases granted")
    if status.stale_leases:
        queue.append(f"{status.stale_leases} stale leases expired")
    if status.jobs_split:
        queue.append(f"{status.jobs_split} jobs split")
    if status.jobs_exhausted:
        queue.append(f"{status.jobs_exhausted} jobs exhausted")
    if queue:
        lines.append(f"  queue       {', '.join(queue)}")
    if status.dataplane_reports or status.chunks_resized:
        plane = (
            f"{status.restore_words_touched} words touched,"
            f" {status.delta_replay_iterations} delta replays,"
            f" {status.full_restores} full restores"
        )
        if status.chunks_resized:
            plane += f", {status.chunks_resized} chunk resizes"
        lines.append(f"  data plane  {plane}")
    if status.state == "aborted":
        manifest = status.manifest or {}
        campaign_id = manifest.get("campaign_id")
        hint = "resumable"
        if campaign_id is not None:
            hint += f" — repro campaign ... --resume {campaign_id}"
        lines.append(f"  {hint}")
    return "\n".join(lines)


# -- per-campaign manifest ------------------------------------------------------
def manifest_path_for(events_path: str) -> str:
    """The manifest sidecar path for an event log."""
    return events_path + ".manifest.json"


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Atomically write a campaign manifest (``manifest_version`` added).

    Written via a same-directory temp file + ``os.replace`` so a live
    status poll never reads a half-written manifest.
    """
    payload = {"manifest_version": MANIFEST_VERSION, **manifest}
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp = tempfile.mkstemp(prefix=".manifest-", dir=directory)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as file:
            json.dump(payload, file, sort_keys=True, indent=2)
            file.write("\n")
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


def read_manifest(path: str) -> Dict[str, object]:
    """Read and validate a campaign manifest."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ObservabilityError(f"{path}: not an object")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ObservabilityError(
            f"{path}: manifest_version {version!r} (supported: {MANIFEST_VERSION})"
        )
    return manifest
