"""Lease-based SQLite work queue for campaign execution.

The campaign's chunk-dispatch bookkeeping lives here as a durable,
inspectable queue, so the *same* failure semantics serve two
deployments:

* **campaign mode** — the campaign's chunk loop
  (:meth:`~repro.goofi.campaign.ScifiCampaign._execute`) enqueues plan
  chunks and leases them on behalf of its executor, a
  ``ProcessPoolExecutor`` pool or the in-process one of a serial run
  (which keeps the same verbs in a plain-Python :class:`MemoryQueue`).
  The queue is the bookkeeping substrate (attempts, suspect flags,
  kill/failure budgets, idempotent acks); the loop owns scheduling
  order and backoff sleeps.
* **service mode** — ``repro serve`` workers in separate processes
  lease whole campaigns from a shared queue file
  (:mod:`repro.service`).  Leases carry heartbeat deadlines; a worker
  that dies by SIGKILL simply stops heartbeating, its lease expires,
  and the job is requeued for the next worker to resume.

Failure taxonomy → queue action (see ``docs/robustness.md``):

========================  =========================================
observation               action
========================  =========================================
worker exception          ``nack(killed=False)`` → requeue/split
worker process death      ``nack(killed=True)`` → requeue as suspect
missed heartbeats         ``expire_due`` → requeue, ``attempt + 1``
budget exhausted          ``nack`` returns ``exhausted`` → caller
                          quarantines (chunk) or fails the job
cancel requested          ``request_cancel`` → pending jobs cancel
                          immediately, leased jobs at the worker's
                          next heartbeat poll
========================  =========================================

Acks are **idempotent by plan index**: ``job_acks`` records which
``(topic, plan_index)`` pairs have been counted, and :meth:`WorkQueue.ack`
returns only the newly acked indices — a worker that acks and dies (or
a lease that expired under a worker which then finished anyway) can
never double-count an experiment.

A chunk that repeatedly fails is bisected with
:func:`~repro.goofi.recovery.split_chunk` to isolate the poison
experiment; a chunk that was in flight when the pool broke is requeued
``suspect`` so the dispatcher re-runs it in isolation and a repeat kill
has certain attribution (only certain kills count toward quarantine —
see the suspect-isolation rationale in ``docs/robustness.md``).

The queue schema (``jobs``/``leases``/``job_acks``) is part of the
campaign database since schema v6, so a file-backed campaign's chunk
queue lives next to its results; a standalone queue file (the service's
``service.db``) carries only these three tables.
"""

from __future__ import annotations

import itertools
import json
import math
import pickle
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DatabaseError
from repro.goofi.recovery import RecoveryPolicy, backoff_seconds, split_chunk

#: Milliseconds a writer waits on a locked queue before failing.
BUSY_TIMEOUT_MS = 5_000

#: The queue tables, shared with :mod:`repro.goofi.database` (schema
#: v6): ``CREATE IF NOT EXISTS`` keeps both owners idempotent.
QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    topic TEXT NOT NULL,
    payload BLOB NOT NULL,
    plan_indices TEXT NOT NULL DEFAULT '[]',
    status TEXT NOT NULL DEFAULT 'pending',
    attempt INTEGER NOT NULL DEFAULT 0,
    suspect INTEGER NOT NULL DEFAULT 0,
    kills INTEGER NOT NULL DEFAULT 0,
    failures INTEGER NOT NULL DEFAULT 0,
    expiries INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    available_at REAL NOT NULL DEFAULT 0.0,
    created_at REAL,
    done_at REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_topic_status
    ON jobs(topic, status, available_at, id);
CREATE TABLE IF NOT EXISTS leases (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id INTEGER NOT NULL REFERENCES jobs(id),
    worker TEXT NOT NULL,
    granted_at REAL NOT NULL,
    deadline REAL NOT NULL,
    heartbeat_at REAL NOT NULL,
    released TEXT
);
CREATE INDEX IF NOT EXISTS idx_leases_open ON leases(released, deadline);
CREATE TABLE IF NOT EXISTS job_acks (
    topic TEXT NOT NULL,
    plan_index INTEGER NOT NULL,
    job_id INTEGER NOT NULL,
    acked_at REAL NOT NULL,
    PRIMARY KEY (topic, plan_index)
);
"""


@dataclass
class LeasedJob:
    """One job claimed by a worker, valid until ``deadline``."""

    job_id: int
    lease_id: int
    topic: str
    items: List
    attempt: int
    suspect: bool
    worker: str
    deadline: float


@dataclass
class NackOutcome:
    """What the queue decided about a failed job.

    ``action`` is ``'requeued'`` (same job, ``attempt + 1``),
    ``'split'`` (two new half-size jobs replace it) or ``'exhausted'``
    (a single-item job crossed its kill/failure budget; the caller owns
    the consequence — chunk dispatchers quarantine the experiment,
    the service marks the campaign job failed).  ``delay`` is the
    capped exponential backoff for the attempt that just failed; in
    campaign mode the chunk loop sleeps it (so tests can inject a no-op
    sleep), in service mode it is baked into ``available_at`` instead
    (``defer=True``).
    """

    action: str
    delay: float
    attempt: int
    items: List
    suspect: bool
    job_ids: List[int] = field(default_factory=list)


@dataclass
class ExpiredLease:
    """One lease whose heartbeat deadline passed (job requeued)."""

    lease_id: int
    job_id: int
    worker: str
    deadline: float
    expiries: int


def nack_verdict(
    size: int,
    killed: bool,
    certain: bool,
    kills: int,
    failures: int,
    policy: RecoveryPolicy,
) -> Tuple[str, int, int]:
    """Decide a failed job's fate; returns ``(action, kills, failures)``.

    Only certain failures of single-item jobs count toward the policy's
    budgets — ``quarantine_after`` kills or ``max_chunk_retries``
    failures — and crossing one makes the job ``'exhausted'``.  Any
    other multi-item job is ``'split'``, any other single-item job
    ``'requeued'``.  Both queue implementations decide through here.
    """
    if size == 1 and certain:
        kills += killed
        failures += not killed
        if (
            kills >= policy.quarantine_after
            if killed
            else failures >= policy.max_chunk_retries
        ):
            return "exhausted", kills, failures
    return ("split" if size > 1 else "requeued"), kills, failures


class WorkQueue:
    """A lease-based work queue over SQLite.

    Args:
        path: queue database file; ``None`` opens a private in-memory
            queue (the default for campaigns run without a database).
        policy: the :class:`~repro.goofi.recovery.RecoveryPolicy` whose
            backoff curve and kill/failure budgets drive ``nack``.
        conn: share an existing connection instead of opening one —
            used by in-memory campaign databases, where a second
            ``:memory:`` connection would see a different database.
        clock: injectable time source (tests drive lease expiry with a
            fake clock instead of sleeping).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
        conn: Optional[sqlite3.Connection] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.policy = policy or RecoveryPolicy()
        self.clock = clock
        self._owns_conn = conn is None
        if conn is not None:
            self._conn = conn
        else:
            self.path = path or ":memory:"
            # ``check_same_thread=False``: service workers may share one
            # queue object across threads; every statement runs inside
            # its own short transaction.
            self._conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000.0,
                check_same_thread=False,
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(QUEUE_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        """Close the connection (a no-op for shared connections)."""
        if self._owns_conn:
            self._conn.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- producing -------------------------------------------------------------
    def enqueue(
        self,
        items: Sequence,
        topic: str = "work",
        indices: Optional[Sequence[int]] = None,
        attempt: int = 0,
        suspect: bool = False,
        delay: float = 0.0,
    ) -> int:
        """Add one job holding ``items`` (any picklable sequence).

        ``indices`` are the plan indices the job completes (used for
        idempotent acks); by default they are taken from items shaped
        like ``(plan_index, fault)`` pairs, and a job whose items are
        opaque (e.g. a whole campaign submission) acks no indices.
        Returns the job id.
        """
        if indices is None:
            try:
                indices = [int(index) for index, _payload in items]
            except (TypeError, ValueError):
                indices = []
        now = self.clock()
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO jobs (topic, payload, plan_indices, status,"
                " attempt, suspect, available_at, created_at)"
                " VALUES (?, ?, ?, 'pending', ?, ?, ?, ?)",
                (
                    topic,
                    pickle.dumps(list(items)),
                    json.dumps(list(indices)),
                    int(attempt),
                    1 if suspect else 0,
                    now + max(0.0, delay),
                    now,
                ),
            )
        return int(cursor.lastrowid)

    # -- consuming -------------------------------------------------------------
    def lease(
        self,
        worker: str,
        ttl: Optional[float] = None,
        topic: str = "work",
        suspect_only: bool = False,
        job_id: Optional[int] = None,
    ) -> Optional[LeasedJob]:
        """Claim the oldest available job for ``worker``; None when empty.

        The lease must be :meth:`heartbeat`-ed (or resolved) within
        ``ttl`` seconds or :meth:`expire_due` requeues the job.  Due
        leases of the topic are expired before claiming, so one polling
        worker is enough to keep the topic live.  ``job_id`` targets a
        specific pending job (the dispatcher uses it to lease the chunk
        it just drew from the reservoir, not an arbitrary requeue);
        ``suspect_only`` restricts the claim to suspect jobs.
        """
        self.expire_due(topic=topic)
        now = self.clock()
        ttl = self.policy.lease_ttl if ttl is None else ttl
        where = "topic = ? AND status = 'pending' AND available_at <= ?"
        params: List = [topic, now]
        if suspect_only:
            where += " AND suspect = 1"
        if job_id is not None:
            where += " AND id = ?"
            params.append(job_id)
        while True:
            row = self._conn.execute(
                f"SELECT id, payload, attempt, suspect FROM jobs WHERE {where}"
                " ORDER BY available_at, id LIMIT 1",
                params,
            ).fetchone()
            if row is None:
                return None
            candidate, payload, attempt, suspect = row
            with self._conn:
                claimed = self._conn.execute(
                    "UPDATE jobs SET status = 'leased'"
                    " WHERE id = ? AND status = 'pending'",
                    (candidate,),
                ).rowcount
                if not claimed:
                    continue  # another worker won the race; try the next
                cursor = self._conn.execute(
                    "INSERT INTO leases (job_id, worker, granted_at,"
                    " deadline, heartbeat_at) VALUES (?, ?, ?, ?, ?)",
                    (candidate, worker, now, now + ttl, now),
                )
            return LeasedJob(
                job_id=int(candidate),
                lease_id=int(cursor.lastrowid),
                topic=topic,
                items=pickle.loads(payload),
                attempt=int(attempt),
                suspect=bool(suspect),
                worker=worker,
                deadline=now + ttl,
            )

    def heartbeat(self, lease_id: int, ttl: Optional[float] = None) -> None:
        """Extend a live lease's deadline by ``ttl`` from now."""
        ttl = self.policy.lease_ttl if ttl is None else ttl
        now = self.clock()
        with self._conn:
            updated = self._conn.execute(
                "UPDATE leases SET heartbeat_at = ?, deadline = ?"
                " WHERE id = ? AND released IS NULL",
                (now, now + ttl, lease_id),
            ).rowcount
        if not updated:
            raise DatabaseError(f"lease {lease_id} is not live")

    def expire_due(
        self, topic: Optional[str] = None, now: Optional[float] = None
    ) -> List[ExpiredLease]:
        """Requeue every job whose lease missed its heartbeat deadline.

        The expired lease is closed (``released = 'expired'``) and the
        job goes back to ``pending`` with ``attempt`` and ``expiries``
        bumped — immediately available, since the worker holding it is
        presumed dead, not failing.
        """
        now = self.clock() if now is None else now
        query = (
            "SELECT l.id, l.job_id, l.worker, l.deadline FROM leases l"
            " JOIN jobs j ON j.id = l.job_id"
            " WHERE l.released IS NULL AND l.deadline < ?"
        )
        params: List = [now]
        if topic is not None:
            query += " AND j.topic = ?"
            params.append(topic)
        expired: List[ExpiredLease] = []
        with self._conn:
            for lease_id, job_id, worker, deadline in self._conn.execute(
                query, params
            ).fetchall():
                self._conn.execute(
                    "UPDATE leases SET released = 'expired' WHERE id = ?",
                    (lease_id,),
                )
                self._conn.execute(
                    "UPDATE jobs SET status = 'pending', attempt = attempt + 1,"
                    " expiries = expiries + 1, available_at = ?"
                    " WHERE id = ? AND status = 'leased'",
                    (now, job_id),
                )
                expiries = self._conn.execute(
                    "SELECT expiries FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()[0]
                expired.append(
                    ExpiredLease(
                        lease_id=int(lease_id),
                        job_id=int(job_id),
                        worker=str(worker),
                        deadline=float(deadline),
                        expiries=int(expiries),
                    )
                )
        return expired

    # -- resolving -------------------------------------------------------------
    def _lease_job(self, lease_id: int) -> Tuple[int, str]:
        row = self._conn.execute(
            "SELECT l.job_id, j.topic FROM leases l JOIN jobs j"
            " ON j.id = l.job_id WHERE l.id = ?",
            (lease_id,),
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no lease with id {lease_id}")
        return int(row[0]), str(row[1])

    def ack(
        self, lease_id: int, indices: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Complete a leased job; returns the *newly* acked plan indices.

        Idempotent by ``(topic, plan_index)``: indices another job (or
        an earlier incarnation of this one) already acked are filtered
        out, so the caller records each experiment exactly once no
        matter how leases expired and overlapped.
        """
        job_id, topic = self._lease_job(lease_id)
        now = self.clock()
        if indices is None:
            stored = self._conn.execute(
                "SELECT plan_indices FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            indices = json.loads(stored[0]) if stored else []
        newly: List[int] = []
        with self._conn:
            for index in indices:
                inserted = self._conn.execute(
                    "INSERT OR IGNORE INTO job_acks"
                    " (topic, plan_index, job_id, acked_at)"
                    " VALUES (?, ?, ?, ?)",
                    (topic, int(index), job_id, now),
                ).rowcount
                if inserted:
                    newly.append(int(index))
            self._conn.execute(
                "UPDATE jobs SET status = 'done', done_at = ? WHERE id = ?",
                (now, job_id),
            )
            self._conn.execute(
                "UPDATE leases SET released = 'acked'"
                " WHERE id = ? AND released IS NULL",
                (lease_id,),
            )
            # A done job's items are never read again — unless a worker
            # still holds a later lease on it (an expired lease whose
            # worker finished anyway), whose nack re-reads them.
            self._conn.execute(
                "UPDATE jobs SET payload = X'' WHERE id = ? AND NOT EXISTS"
                " (SELECT 1 FROM leases WHERE job_id = ? AND released IS NULL)",
                (job_id, job_id),
            )
        return newly

    def nack(
        self,
        lease_id: int,
        killed: bool,
        certain: bool = True,
        reason: str = "",
        defer: bool = False,
    ) -> NackOutcome:
        """Fail a leased job: requeue, split, or declare it exhausted.

        ``killed`` says the worker process died (vs an ordinary
        exception); ``certain`` says the failure is attributable to
        this job (a pool break with several chunks in flight is not).
        Only certain failures of single-item jobs count toward the
        policy's quarantine thresholds — ``quarantine_after`` kills or
        ``max_chunk_retries`` failures — after which the job is marked
        ``failed`` and ``'exhausted'`` is returned with the items for
        the caller to quarantine.  Multi-item jobs are bisected into
        two fresh jobs to isolate the poison experiment.  ``defer``
        bakes the backoff delay into ``available_at`` (service mode);
        without it the job is immediately available and the caller owns
        the sleep (campaign mode, where tests inject a no-op sleep).
        """
        job_id, topic = self._lease_job(lease_id)
        row = self._conn.execute(
            "SELECT payload, attempt, suspect, kills, failures"
            " FROM jobs WHERE id = ?",
            (job_id,),
        ).fetchone()
        payload, attempt, suspect, kills, failures = row
        items = pickle.loads(payload)
        now = self.clock()
        delay = backoff_seconds(int(attempt), self.policy)
        new_suspect = bool(suspect) or killed
        action, kills, failures = nack_verdict(
            len(items), killed, certain, kills, failures, self.policy
        )
        with self._conn:
            self._conn.execute(
                "UPDATE leases SET released = 'nacked'"
                " WHERE id = ? AND released IS NULL",
                (lease_id,),
            )
            self._conn.execute(
                "UPDATE jobs SET kills = ?, failures = ? WHERE id = ?",
                (kills, failures, job_id),
            )
            if action != "requeued":
                self._conn.execute(
                    "UPDATE jobs SET status = ?, done_at = ? WHERE id = ?",
                    ("failed" if action == "exhausted" else "split", now, job_id),
                )
        job_ids = [job_id]
        if action == "split":
            job_ids = [
                self.enqueue(
                    half,
                    topic=topic,
                    attempt=int(attempt) + 1,
                    suspect=new_suspect,
                    delay=delay if defer else 0.0,
                )
                for half in split_chunk(items)
            ]
        elif action == "requeued":
            with self._conn:
                self._conn.execute(
                    "UPDATE jobs SET status = 'pending', attempt = attempt + 1,"
                    " suspect = ?, available_at = ? WHERE id = ?",
                    (1 if new_suspect else 0, now + (delay if defer else 0.0), job_id),
                )
        return NackOutcome(
            action=action,
            delay=delay,
            attempt=int(attempt) + 1,
            items=items,
            suspect=new_suspect,
            job_ids=job_ids,
        )

    def release(self, lease_id: int) -> None:
        """Return a leased job to ``pending`` untouched (no attempt bump).

        Used when the *submission* failed — e.g. the process pool turned
        out broken before the chunk ever ran — so the job keeps its
        place at the front of the queue.
        """
        job_id, _topic = self._lease_job(lease_id)
        with self._conn:
            self._conn.execute(
                "UPDATE leases SET released = 'released'"
                " WHERE id = ? AND released IS NULL",
                (lease_id,),
            )
            self._conn.execute(
                "UPDATE jobs SET status = 'pending'"
                " WHERE id = ? AND status = 'leased'",
                (job_id,),
            )

    # -- cancellation ----------------------------------------------------------
    def request_cancel(self, job_id: int) -> str:
        """Cancel a job: pending jobs cancel now, leased ones get flagged.

        Returns the resulting job status (``'cancelled'`` immediately,
        or the current status with ``cancel_requested`` set — the
        leasing worker polls :meth:`cancel_requested` at its heartbeat
        cadence and aborts).
        """
        with self._conn:
            cancelled = self._conn.execute(
                "UPDATE jobs SET status = 'cancelled', cancel_requested = 1,"
                " done_at = ? WHERE id = ? AND status = 'pending'",
                (self.clock(), job_id),
            ).rowcount
            if not cancelled:
                flagged = self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                ).rowcount
                if not flagged:
                    raise DatabaseError(f"no job with id {job_id}")
        row = self._conn.execute(
            "SELECT status FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return str(row[0])

    def cancel_requested(self, job_id: int) -> bool:
        """Whether a cancel was requested for this job."""
        row = self._conn.execute(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        return bool(row and row[0])

    def finish_cancel(self, lease_id: int) -> None:
        """A leased worker honoured a cancel: close lease and job."""
        job_id, _topic = self._lease_job(lease_id)
        with self._conn:
            self._conn.execute(
                "UPDATE leases SET released = 'cancelled'"
                " WHERE id = ? AND released IS NULL",
                (lease_id,),
            )
            self._conn.execute(
                "UPDATE jobs SET status = 'cancelled', done_at = ?"
                " WHERE id = ?",
                (self.clock(), job_id),
            )

    # -- inspection and bulk operations ----------------------------------------
    def pending(self, topic: str = "work") -> int:
        """Pending (available or deferred) jobs in a topic."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE topic = ? AND status = 'pending'",
            (topic,),
        ).fetchone()
        return int(row[0])

    def outstanding(self, topic: str = "work") -> int:
        """Jobs not yet resolved (pending or leased)."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE topic = ?"
            " AND status IN ('pending', 'leased')",
            (topic,),
        ).fetchone()
        return int(row[0])

    def stale_leases(self, topic: Optional[str] = None) -> int:
        """Leases that have expired over the queue's lifetime."""
        query = (
            "SELECT COUNT(*) FROM leases l JOIN jobs j ON j.id = l.job_id"
            " WHERE l.released = 'expired'"
        )
        params: List = []
        if topic is not None:
            query += " AND j.topic = ?"
            params.append(topic)
        return int(self._conn.execute(query, params).fetchone()[0])

    def job_state(self, job_id: int) -> Dict[str, object]:
        """One job's queue-side state (status, budgets, lease)."""
        row = self._conn.execute(
            "SELECT topic, status, attempt, suspect, kills, failures,"
            " expiries, cancel_requested, created_at, done_at"
            " FROM jobs WHERE id = ?",
            (job_id,),
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no job with id {job_id}")
        (
            topic, status, attempt, suspect, kills, failures,
            expiries, cancel_requested, created_at, done_at,
        ) = row
        lease = self._conn.execute(
            "SELECT worker, deadline, heartbeat_at FROM leases"
            " WHERE job_id = ? AND released IS NULL"
            " ORDER BY id DESC LIMIT 1",
            (job_id,),
        ).fetchone()
        state: Dict[str, object] = {
            "job_id": int(job_id),
            "topic": str(topic),
            "status": str(status),
            "attempt": int(attempt),
            "suspect": bool(suspect),
            "kills": int(kills),
            "failures": int(failures),
            "expiries": int(expiries),
            "cancel_requested": bool(cancel_requested),
            "created_at": created_at,
            "done_at": done_at,
            "lease": None,
        }
        if lease is not None:
            worker, deadline, heartbeat_at = lease
            state["lease"] = {
                "worker": str(worker),
                "deadline": float(deadline),
                "heartbeat_at": float(heartbeat_at),
                "stale": float(deadline) < self.clock(),
            }
        return state

    def list_jobs(self, topic: str = "work") -> List[Dict[str, object]]:
        """Every job in a topic, oldest first (service listings)."""
        rows = self._conn.execute(
            "SELECT id FROM jobs WHERE topic = ? ORDER BY id", (topic,)
        ).fetchall()
        return [self.job_state(int(row[0])) for row in rows]

    def purge(self, topic: str = "work") -> None:
        """Delete a topic's jobs, leases and acks (fresh dispatch run)."""
        with self._conn:
            self._conn.execute(
                "DELETE FROM leases WHERE job_id IN"
                " (SELECT id FROM jobs WHERE topic = ?)",
                (topic,),
            )
            self._conn.execute("DELETE FROM jobs WHERE topic = ?", (topic,))
            self._conn.execute("DELETE FROM job_acks WHERE topic = ?", (topic,))


@dataclass
class _MemoryJob:
    items: List
    attempt: int = 0
    suspect: bool = False
    kills: int = 0
    failures: int = 0
    leased: bool = False


class MemoryQueue:
    """The chunk loop's queue verbs over plain Python objects.

    A campaign run wholly in-process never loses a chunk to a dead
    worker, and the chunk loop purges its topic at every start, so a
    SQLite queue's durability, lease deadlines and ack ledger buy it
    nothing.  This queue decides nacks through :func:`nack_verdict`
    like :class:`WorkQueue`, and a requeued job goes behind the jobs
    already waiting, as its fresh ``available_at`` puts it in SQLite —
    but it holds the caller's own items (no pickled copies) and drops a
    job once it is resolved.  A job's lease id is its job id, leases
    never expire and ``topic`` is only echoed back.  Splits partition a
    job's items, so no plan index is ever acked twice.
    """

    def __init__(self, policy: RecoveryPolicy):
        self.policy = policy
        # Unresolved jobs in lease order.
        self._jobs: Dict[int, _MemoryJob] = {}
        self._ids = itertools.count(1)

    def close(self) -> None:
        pass

    def purge(self, topic: str = "work") -> None:
        self._jobs.clear()

    def pending(self, topic: str = "work") -> int:
        return sum(not job.leased for job in self._jobs.values())

    def enqueue(
        self, items: Sequence, topic: str = "work", attempt: int = 0,
        suspect: bool = False,
    ) -> int:
        job_id = next(self._ids)
        self._jobs[job_id] = _MemoryJob(list(items), attempt, suspect)
        return job_id

    def lease(
        self, worker: str, topic: str = "work", suspect_only: bool = False,
        job_id: Optional[int] = None,
    ) -> Optional[LeasedJob]:
        for candidate, job in self._jobs.items():
            if job.leased or (suspect_only and not job.suspect):
                continue
            if job_id in (None, candidate):
                job.leased = True
                return LeasedJob(
                    candidate, candidate, topic, job.items, job.attempt,
                    job.suspect, worker, math.inf,
                )
        return None

    def ack(self, lease_id: int, indices: Sequence[int]) -> List[int]:
        del self._jobs[lease_id]
        return list(indices)

    def nack(
        self, lease_id: int, killed: bool, certain: bool = True, reason: str = ""
    ) -> NackOutcome:
        job = self._jobs.pop(lease_id)
        delay = backoff_seconds(job.attempt, self.policy)
        job.attempt += 1
        job.suspect = job.suspect or killed
        action, job.kills, job.failures = nack_verdict(
            len(job.items), killed, certain, job.kills, job.failures, self.policy
        )
        job_ids = [lease_id]
        if action == "split":
            job_ids = [
                self.enqueue(half, attempt=job.attempt, suspect=job.suspect)
                for half in split_chunk(job.items)
            ]
        elif action == "requeued":
            job.leased = False
            self._jobs[lease_id] = job
        return NackOutcome(
            action, delay, job.attempt, job.items, job.suspect, job_ids
        )
