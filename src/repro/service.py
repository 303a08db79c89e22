"""Campaign-as-a-service: a crash-tolerant async campaign job layer.

:class:`CampaignService` turns whole campaigns into lease-based queue
jobs (:mod:`repro.goofi.workqueue`).  A client calls
:meth:`~CampaignService.submit_campaign` and gets a campaign id back
immediately; detached queue workers (``repro serve``) lease submissions,
run them with streamed persistence, and heartbeat their lease while the
campaign makes progress.  The layout under the service root is::

    <root>/service.db                  the shared work queue
    <root>/campaign-000001/results.db  streamed experiment rows
    <root>/campaign-000001/events.jsonl  telemetry (obs-compatible)
    <root>/campaign-000001/summary.txt   final outcome table

Crash tolerance is lease-shaped: a worker that is SIGKILLed mid-campaign
simply stops heartbeating, the lease expires, and the next worker to
poll the queue requeues and re-leases the job.  The re-leasing worker
resumes from the campaign database (the PR 5 fingerprint-checked resume
path) and *repairs* the event log first (:func:`repair_event_log`):
the log's flush cadence differs from the database's, so after a kill
the two disagree — the repaired log rebuilds every
``experiment_finished`` record from the database rows, which the resume
path treats as the source of truth.  ``experiment_finished`` payloads
are pure functions of the experiment, so the repaired sequence is
byte-identical to an uninterrupted run's.

Failure taxonomy → queue action:

=========================  =============================================
observation                action
=========================  =============================================
campaign finished          ``ack`` — job done, summary written
cancel requested           worker aborts at its next heartbeat,
                           ``finish_cancel`` — job cancelled
operator SIGINT/SIGTERM    campaign flushed and marked aborted,
                           ``release`` — job back to pending untouched
campaign/database error    ``nack(defer=True)`` — requeued with backoff,
                           failed after ``max_chunk_retries`` attempts
worker SIGKILL / crash     nothing (worker is gone); lease expires and
                           the job requeues with ``expiries + 1``
=========================  =============================================
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    AbortRequested,
    CampaignAborted,
    CampaignError,
    DatabaseError,
    ServiceError,
)
from repro.goofi.campaign import CampaignConfig, ScifiCampaign
from repro.goofi.database import CampaignDatabase
from repro.goofi.recovery import RecoveryPolicy, config_fingerprint
from repro.goofi.workqueue import WorkQueue
from repro.obs import CampaignStatusReducer, Telemetry
from repro.obs.events import SCHEMA_VERSION, now as event_now

#: The queue topic campaign submissions live under.
CAMPAIGN_TOPIC = "campaigns"


@dataclass
class ServiceSubmission:
    """One queued campaign: the configuration plus its worker count."""

    config: CampaignConfig
    workers: int = 1


def repair_event_log(path: str, db: CampaignDatabase, campaign_id: int) -> int:
    """Rebuild a crashed campaign's ``experiment_finished`` records.

    The event log flushes on the heartbeat cadence while the database
    flushes on its own batch size, so after a SIGKILL the two disagree.
    The database is the resume path's source of truth, so the log is
    rewritten to match it: every stored experiment row becomes an
    ``experiment_finished`` record (in plan order — identical to what a
    clean run emits, because the payload is a pure function of the
    experiment), while non-experiment records (campaign_started,
    heartbeats, recovery events) are kept in their original order.  A
    possibly-torn final line is dropped rather than guessed at.
    Atomic: written to a temp file and renamed over ``path``.  Returns
    the number of experiment records reconstructed.
    """
    kept: List[str] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of a killed writer
                if not isinstance(record, dict):
                    continue
                if record.get("event") in ("experiment_finished", "campaign_finished"):
                    continue
                kept.append(json.dumps(record, sort_keys=True))
    finished = [
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "event": "experiment_finished",
                **payload,
            },
            sort_keys=True,
        )
        for payload in db.finished_event_records(campaign_id)
    ]
    temp = path + ".repair"
    with open(temp, "w", encoding="utf-8") as handle:
        for line in kept + finished:
            handle.write(line + "\n")
    os.replace(temp, path)
    return len(finished)


def _resumable_campaign(
    db: CampaignDatabase, config: CampaignConfig
) -> Optional[int]:
    """The newest stored campaign this configuration can resume, if any."""
    fingerprint = config_fingerprint(config)
    best: Optional[int] = None
    for campaign_id, _name, _faults in db.list_campaigns():
        if db.campaign_status(campaign_id) not in ("running", "aborted"):
            continue
        if db.campaign_fingerprint(campaign_id) != fingerprint:
            continue
        if best is None or campaign_id > best:
            best = campaign_id
    return best


class CampaignService:
    """Submit, run, watch and cancel campaigns through a shared queue.

    Every client and every worker opens the service on the same
    ``root`` directory; the queue database under it is the single
    coordination point.  The service object is cheap — open one per
    client call or per worker loop.
    """

    def __init__(self, root: str, policy: Optional[RecoveryPolicy] = None):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.policy = policy or RecoveryPolicy()
        self.queue = WorkQueue(
            path=os.path.join(root, "service.db"), policy=self.policy
        )

    def close(self) -> None:
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- client side -----------------------------------------------------------
    def campaign_dir(self, campaign_id: int) -> str:
        return os.path.join(self.root, f"campaign-{campaign_id:06d}")

    def events_path(self, campaign_id: int) -> str:
        return os.path.join(self.campaign_dir(campaign_id), "events.jsonl")

    def submit_campaign(self, config: CampaignConfig, workers: int = 1) -> int:
        """Queue a campaign; returns its service-wide campaign id.

        The id is the queue job id — stable across worker crashes,
        requeues and resumes, and the handle :meth:`status` and
        :meth:`cancel` take.
        """
        submission = ServiceSubmission(config=config, workers=workers)
        # A campaign submission is opaque to the idempotent-ack layer
        # (``indices=[]``): completion is per-job, not per-plan-index.
        return self.queue.enqueue(
            [submission], topic=CAMPAIGN_TOPIC, indices=[]
        )

    def status_snapshot(self, campaign_id: int):
        """``(job_state, CampaignStatus | None)`` for one campaign.

        The job state always exists (status, attempt/expiry budgets, the
        live lease with its staleness); the campaign status is folded
        from ``events.jsonl`` and is ``None`` until a worker has started
        the campaign.
        """
        state = self._job_state(campaign_id)
        events = self.events_path(campaign_id)
        status = None
        if os.path.exists(events):
            reducer = CampaignStatusReducer()
            with open(events, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail of a live (or killed) writer
                    if isinstance(record, dict):
                        reducer.fold(record)
            status = reducer.status(now=time.time())
        return state, status

    def status(self, campaign_id: int) -> Dict[str, object]:
        """Queue-side job state folded with the campaign's live telemetry."""
        state, snapshot = self.status_snapshot(campaign_id)
        return {
            "campaign_id": campaign_id,
            "job": state,
            "campaign": snapshot.to_dict() if snapshot is not None else None,
        }

    def list_campaigns(self) -> List[Dict[str, object]]:
        """Queue state of every submitted campaign, oldest first."""
        return self.queue.list_jobs(CAMPAIGN_TOPIC)

    def cancel(self, campaign_id: int) -> str:
        """Cancel a campaign; returns the resulting job status.

        Pending submissions cancel immediately; a leased (running) one
        is flagged, and its worker aborts — flushing in-flight results
        so the campaign stays resumable — at the next heartbeat.
        """
        try:
            return self.queue.request_cancel(campaign_id)
        except DatabaseError as exc:
            raise ServiceError(str(exc)) from exc

    def _job_state(self, campaign_id: int) -> Dict[str, object]:
        try:
            return self.queue.job_state(campaign_id)
        except DatabaseError as exc:
            raise ServiceError(str(exc)) from exc

    # -- worker side -----------------------------------------------------------
    def run_once(
        self,
        worker: str,
        ttl: float = 30.0,
        kill_after: Optional[int] = None,
    ) -> Optional[str]:
        """Lease and run one campaign submission to completion.

        Returns ``None`` when the queue had nothing to lease, otherwise
        the job outcome: ``'done'``, ``'cancelled'``, ``'requeued'``
        (transient failure, will retry) or ``'failed'`` (retry budget
        exhausted).  Operator interrupts (SIGINT/SIGTERM) release the
        lease untouched and re-raise.

        ``kill_after`` is the chaos hook: the worker SIGKILLs its own
        process once that many experiments are done — no cleanup, no
        lease release, exactly like a machine loss.
        """
        job = self.queue.lease(worker, ttl=ttl, topic=CAMPAIGN_TOPIC)
        if job is None:
            return None
        submission: ServiceSubmission = job.items[0]
        cdir = self.campaign_dir(job.job_id)
        os.makedirs(cdir, exist_ok=True)
        events_path = os.path.join(cdir, "events.jsonl")
        db = CampaignDatabase(os.path.join(cdir, "results.db"))
        try:
            resume_id = _resumable_campaign(db, submission.config)
            if resume_id is not None:
                repair_event_log(events_path, db, resume_id)
            # Metrics and tracer stay off: the service's status surface
            # is the event stream itself, folded on demand by
            # status_snapshot.
            telemetry = Telemetry(
                events_path,
                metrics=False,
                tracer=False,
                append=resume_id is not None,
            )
            expiries = int(self.queue.job_state(job.job_id)["expiries"])
            if expiries:
                # This lease exists because a predecessor's expired;
                # surface that in the campaign's own stream so `repro
                # status` counts it even though the dead worker could
                # not write anything.
                telemetry.events.emit(
                    "lease_expired",
                    ts=event_now(),
                    job=job.job_id,
                    worker=worker,
                    expiries=expiries,
                )

            heartbeat_every = max(1, self.policy.heartbeat_every)

            def progress(done: int, _total: int, _outcome) -> None:
                if kill_after is not None and done >= kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)
                if done % heartbeat_every == 0:
                    self.queue.heartbeat(job.lease_id, ttl=ttl)
                    if self.queue.cancel_requested(job.job_id):
                        raise AbortRequested("cancel")

            campaign = ScifiCampaign(submission.config, database=db)
            try:
                result = campaign.run(
                    progress=progress,
                    workers=submission.workers,
                    telemetry=telemetry,
                    resume_from=resume_id,
                )
            except CampaignAborted as exc:
                if exc.reason == "cancel":
                    self.queue.finish_cancel(job.lease_id)
                    return "cancelled"
                # Operator interrupt: the campaign flushed and marked
                # itself aborted; hand the job back untouched so another
                # worker resumes it.
                self.queue.release(job.lease_id)
                raise
            except (CampaignError, DatabaseError):
                verdict = self.queue.nack(
                    job.lease_id, killed=False, defer=True
                )
                return "failed" if verdict.action == "exhausted" else "requeued"
            finally:
                telemetry.close()
            self.queue.ack(job.lease_id)
            self._write_summary(cdir, result)
            return "done"
        finally:
            db.close()

    def serve(
        self,
        worker: str,
        ttl: float = 30.0,
        poll: float = 0.5,
        once: bool = False,
        kill_after: Optional[int] = None,
    ) -> int:
        """Worker loop: lease and run submissions until drained or forever.

        With ``once`` the loop exits as soon as the topic has no
        outstanding work; otherwise it polls every ``poll`` seconds.
        Returns the number of jobs this worker resolved.
        """
        resolved = 0
        while True:
            outcome = self.run_once(worker, ttl=ttl, kill_after=kill_after)
            if outcome is not None:
                resolved += 1
                continue
            if self.queue.outstanding(CAMPAIGN_TOPIC) == 0 and once:
                return resolved
            time.sleep(poll)

    @staticmethod
    def _write_summary(cdir: str, result) -> None:
        from repro.analysis import render_outcome_table

        summary = result.summary()
        text = render_outcome_table(summary)
        severe = summary.severe_share_of_value_failures()
        text += f"\nsevere share of value failures: {severe.format()}\n"
        with open(os.path.join(cdir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def service_status_lines(service: CampaignService) -> List[str]:
    """Human one-liners for ``repro status`` without ``--campaign``."""
    lines: List[str] = []
    jobs = service.list_campaigns()
    if not jobs:
        return ["no campaigns submitted"]
    for state in jobs:
        lease = state.get("lease")
        holder = ""
        if isinstance(lease, dict):
            stale = " (stale)" if lease.get("stale") else ""
            holder = f" leased by {lease.get('worker')}{stale}"
        flags = []
        if state.get("expiries"):
            flags.append(f"expiries={state['expiries']}")
        if state.get("failures"):
            flags.append(f"failures={state['failures']}")
        if state.get("cancel_requested") and state.get("status") != "cancelled":
            flags.append("cancel requested")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"campaign {state['job_id']}: {state['status']}{holder}{suffix}"
        )
    return lines
