"""Unit tests for the lease-based SQLite work queue.

The queue is the dispatch substrate shared by the in-process chunk
dispatcher and the campaign service; these tests drive it directly —
enqueue/lease/ack/nack semantics, heartbeat-deadline expiry (with an
injected clock, no sleeping), the kill/failure budgets, cancellation
and the bulk operations.
"""

import os

import pytest

from repro.errors import DatabaseError
from repro.goofi import RecoveryPolicy, WorkQueue


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _policy(**kw):
    kw.setdefault("sleep", lambda _s: None)
    return RecoveryPolicy(**kw)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(clock):
    with WorkQueue(policy=_policy(), clock=clock) as q:
        yield q


def _pairs(*indices):
    """Items shaped like the dispatcher's ``(plan_index, fault)`` pairs."""
    return [(i, f"fault-{i}") for i in indices]


def test_enqueue_lease_ack_roundtrip(queue):
    job_id = queue.enqueue(_pairs(0, 1, 2))
    assert queue.pending() == 1
    job = queue.lease("w0")
    assert job.job_id == job_id
    assert job.items == _pairs(0, 1, 2)
    assert job.attempt == 0 and not job.suspect
    # Leased, so nothing is pending but the job is still outstanding.
    assert queue.pending() == 0
    assert queue.outstanding() == 1
    assert queue.ack(job.lease_id) == [0, 1, 2]
    assert queue.outstanding() == 0
    assert queue.job_state(job_id)["status"] == "done"


def test_ack_is_idempotent_by_plan_index(queue):
    first = queue.enqueue(_pairs(0, 1))
    queue.enqueue(_pairs(1, 2))
    job = queue.lease("w0", job_id=first)
    assert queue.ack(job.lease_id) == [0, 1]
    other = queue.lease("w0")
    # Index 1 was already acked by the first job; only 2 is new.
    assert queue.ack(other.lease_id) == [2]


def test_lease_returns_none_when_empty(queue):
    assert queue.lease("w0") is None


def test_lease_respects_deferred_availability(queue, clock):
    queue.enqueue(_pairs(0), delay=5.0)
    assert queue.lease("w0") is None
    clock.advance(5.0)
    assert queue.lease("w0") is not None


def test_missed_heartbeat_expires_lease_and_requeues(queue, clock):
    job_id = queue.enqueue(_pairs(0, 1))
    job = queue.lease("w0", ttl=10.0)
    clock.advance(11.0)
    expired = queue.expire_due()
    assert [e.job_id for e in expired] == [job_id]
    assert expired[0].worker == "w0"
    assert expired[0].expiries == 1
    assert queue.stale_leases() == 1
    # The job is immediately available again, attempt bumped.
    takeover = queue.lease("w1")
    assert takeover.job_id == job_id
    assert takeover.attempt == 1
    # The dead worker's lease is gone: its heartbeat and ack must fail.
    with pytest.raises(DatabaseError):
        queue.heartbeat(job.lease_id)


def test_heartbeat_extends_deadline(queue, clock):
    queue.enqueue(_pairs(0))
    job = queue.lease("w0", ttl=10.0)
    clock.advance(8.0)
    queue.heartbeat(job.lease_id, ttl=10.0)
    clock.advance(8.0)  # past the original deadline, within the renewed
    assert queue.expire_due() == []
    assert queue.ack(job.lease_id) == [0]


def test_lease_implicitly_expires_due_leases(queue, clock):
    queue.enqueue(_pairs(0))
    queue.lease("w0", ttl=10.0)
    clock.advance(11.0)
    # A polling worker leasing the topic is enough — no separate reaper.
    takeover = queue.lease("w1", ttl=10.0)
    assert takeover is not None and takeover.attempt == 1


def test_nack_splits_multi_item_jobs(queue, clock):
    queue.enqueue(_pairs(0, 1, 2, 3))
    job = queue.lease("w0")
    verdict = queue.nack(job.lease_id, killed=False, defer=True)
    assert verdict.action == "split"  # multi-item jobs bisect
    assert len(verdict.job_ids) == 2
    assert verdict.delay > 0
    # ``defer`` bakes the backoff into availability: nothing to lease
    # until the delay elapses.
    assert queue.lease("w0") is None
    clock.advance(verdict.delay)
    halves = [queue.lease("w0"), queue.lease("w0")]
    assert all(h is not None and h.attempt == 1 for h in halves)
    assert sorted(i for h in halves for i, _f in h.items) == [0, 1, 2, 3]


def test_nack_single_item_kill_budget_exhausts(queue):
    policy = queue.policy
    queue.enqueue(_pairs(7))
    outcomes = []
    for _ in range(policy.quarantine_after):
        job = queue.lease("w0")
        outcomes.append(queue.nack(job.lease_id, killed=True).action)
    assert outcomes[:-1] == ["requeued"] * (policy.quarantine_after - 1)
    assert outcomes[-1] == "exhausted"
    assert queue.job_state(job.job_id)["status"] == "failed"
    assert queue.pending() == 0


def test_nack_failure_budget_separate_from_kills(queue, clock):
    policy = queue.policy
    queue.enqueue(_pairs(7))
    for attempt in range(policy.max_chunk_retries):
        job = queue.lease("w0")
        verdict = queue.nack(job.lease_id, killed=False, defer=True)
        clock.advance(verdict.delay)
    assert verdict.action == "exhausted"
    assert attempt == policy.max_chunk_retries - 1


def test_uncertain_kills_do_not_count_toward_quarantine(queue):
    queue.enqueue(_pairs(7))
    for _ in range(5):
        job = queue.lease("w0")
        verdict = queue.nack(job.lease_id, killed=True, certain=False)
        assert verdict.action == "requeued"
    state = queue.job_state(job.job_id)
    assert state["kills"] == 0


def test_release_returns_job_untouched(queue):
    queue.enqueue(_pairs(0))
    job = queue.lease("w0")
    queue.release(job.lease_id)
    again = queue.lease("w1")
    assert again.job_id == job.job_id
    assert again.attempt == 0  # a failed submission is not a failed run


def test_suspect_only_lease(queue):
    queue.enqueue(_pairs(0))
    queue.enqueue(_pairs(1), suspect=True)
    job = queue.lease("w0", suspect_only=True)
    assert job.suspect and [i for i, _f in job.items] == [1]
    assert queue.lease("w0", suspect_only=True) is None


def test_targeted_lease_by_job_id(queue):
    queue.enqueue(_pairs(0))
    wanted = queue.enqueue(_pairs(1))
    job = queue.lease("w0", job_id=wanted)
    assert job.job_id == wanted


def test_cancel_pending_job_is_immediate(queue):
    job_id = queue.enqueue(_pairs(0))
    assert queue.request_cancel(job_id) == "cancelled"
    assert queue.lease("w0") is None


def test_cancel_leased_job_flags_for_the_worker(queue):
    job_id = queue.enqueue(_pairs(0))
    job = queue.lease("w0")
    assert queue.request_cancel(job_id) == "leased"
    assert queue.cancel_requested(job_id)
    queue.finish_cancel(job.lease_id)
    assert queue.job_state(job_id)["status"] == "cancelled"


def test_cancel_unknown_job_raises(queue):
    with pytest.raises(DatabaseError):
        queue.request_cancel(999)


def test_purge_clears_topic(queue):
    queue.enqueue(_pairs(0), topic="a")
    queue.enqueue(_pairs(0), topic="b")
    queue.purge("a")
    assert queue.pending("a") == 0
    assert queue.pending("b") == 1


def test_topics_are_isolated(queue):
    queue.enqueue(_pairs(0), topic="a")
    assert queue.lease("w0", topic="b") is None
    job = queue.lease("w0", topic="a")
    assert job is not None
    # Acks are per-topic too: the same plan index in another topic
    # is not shadowed.
    queue.ack(job.lease_id)
    other = queue.enqueue(_pairs(0), topic="b")
    job_b = queue.lease("w0", topic="b")
    assert queue.ack(job_b.lease_id) == [0]


def test_two_workers_race_for_one_job(queue):
    queue.enqueue(_pairs(0))
    first = queue.lease("w0")
    second = queue.lease("w1")
    assert first is not None
    assert second is None


def test_job_state_reports_live_lease(queue, clock):
    job_id = queue.enqueue(_pairs(0))
    queue.lease("w0", ttl=10.0)
    state = queue.job_state(job_id)
    assert state["status"] == "leased"
    assert state["lease"]["worker"] == "w0"
    assert not state["lease"]["stale"]
    clock.advance(11.0)
    assert queue.job_state(job_id)["lease"]["stale"]


def test_opaque_items_ack_no_indices(queue):
    # Service submissions are single opaque payloads, not index pairs.
    queue.enqueue([{"config": "whole campaign"}], indices=[])
    job = queue.lease("w0")
    assert queue.ack(job.lease_id) == []
    assert queue.job_state(job.job_id)["status"] == "done"


def test_file_backed_queue_survives_reopen(tmp_path):
    path = os.path.join(tmp_path, "queue.db")
    with WorkQueue(path=path, policy=_policy()) as queue:
        queue.enqueue(_pairs(0, 1))
    with WorkQueue(path=path, policy=_policy()) as queue:
        job = queue.lease("w0")
        assert job is not None and job.items == _pairs(0, 1)


def test_acked_job_drops_its_payload(queue):
    queue.enqueue(_pairs(0, 1))
    job = queue.lease("w0")
    queue.ack(job.lease_id)
    (size,) = queue._conn.execute("SELECT length(payload) FROM jobs").fetchone()
    assert size == 0


def test_ack_keeps_the_payload_a_later_lease_still_needs(queue, clock):
    # w0's lease expires and w1 takes the job over; w0 then finishes
    # anyway and acks.  w1 still holds a live lease, so its nack must
    # still find the items.
    queue.enqueue(_pairs(0, 1))
    stale = queue.lease("w0", ttl=10.0)
    clock.advance(11.0)
    takeover = queue.lease("w1", ttl=10.0)
    assert queue.ack(stale.lease_id) == [0, 1]
    verdict = queue.nack(takeover.lease_id, killed=False)
    assert [i for i, _f in verdict.items] == [0, 1]


class TickingClock:
    """A clock that moves on at every reading, as ``time.time`` does."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        self.now += 0.001
        return self.now


def _drive(queue):
    """Run a poison-and-kill scenario through ``queue``; log every step.

    Index 2 always raises, index 5 always kills its worker, and the
    first run of index 4 dies in an unattributable pool break.
    """
    queue.enqueue(_pairs(0, 1, 2, 3))
    queue.enqueue(_pairs(4))
    queue.enqueue(_pairs(5), suspect=True)
    log = []
    broke_4 = False
    while True:
        job = queue.lease("w0", suspect_only=True) or queue.lease("w0")
        if job is None:
            break
        indices = [i for i, _f in job.items]
        log.append(("lease", indices, job.attempt, job.suspect, queue.pending()))
        if 2 in indices or 5 in indices:
            verdict = queue.nack(job.lease_id, killed=5 in indices)
        elif indices == [4] and not broke_4:
            broke_4 = True
            verdict = queue.nack(job.lease_id, killed=True, certain=False)
        else:
            log.append(("ack", queue.ack(job.lease_id, indices)))
            continue
        log.append((
            verdict.action, verdict.attempt, verdict.suspect,
            [i for i, _f in verdict.items], len(verdict.job_ids), verdict.delay,
        ))
    return log


def test_memory_queue_decides_like_the_sqlite_queue():
    from repro.goofi.workqueue import MemoryQueue

    with WorkQueue(policy=_policy(), clock=TickingClock()) as sqlite_queue:
        expected = _drive(sqlite_queue)
    assert _drive(MemoryQueue(_policy())) == expected
    actions = [entry[0] for entry in expected]
    assert {"split", "requeued", "exhausted", "ack"} <= set(actions)
    assert actions.count("exhausted") == 2  # index 2 and index 5


def test_memory_queue_hands_out_the_callers_items():
    from repro.goofi.workqueue import MemoryQueue

    queue = MemoryQueue(_policy())
    items = _pairs(0, 1)
    queue.enqueue(items)
    job = queue.lease("w0")
    assert all(a is b for a, b in zip(job.items, items))
    assert queue.lease("w1") is None  # leased jobs are not handed out twice
    assert queue.ack(job.lease_id, [0, 1]) == [0, 1]
    assert queue.pending() == 0 and queue.lease("w0") is None
