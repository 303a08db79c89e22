"""Tests for the campaign service: lease-based async campaign jobs.

Covers the submit/run/status/cancel lifecycle, event-log repair after a
torn write, the retry/exhaustion path for failing campaigns, worker
SIGKILL resilience (lease expiry, requeue, resume to a byte-identical
event sequence and summary) and two concurrent clients sharing one
service root.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import ServiceError
from repro.goofi import CampaignConfig, CampaignDatabase, RecoveryPolicy
from repro.service import (
    CAMPAIGN_TOPIC,
    CampaignService,
    repair_event_log,
    service_status_lines,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _service(root, **policy_kw):
    policy_kw.setdefault("sleep", lambda _s: None)
    policy_kw.setdefault("backoff_base", 0.0)  # instant retries in tests
    return CampaignService(str(root), policy=RecoveryPolicy(**policy_kw))


def _config(workload, **kw):
    kw.setdefault("faults", 12)
    kw.setdefault("iterations", 30)
    return CampaignConfig(workload=workload, name="Algorithm I", **kw)


def _read_events(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_submit_run_status_roundtrip(tmp_path, algorithm_i_compiled):
    with _service(tmp_path) as service:
        campaign_id = service.submit_campaign(_config(algorithm_i_compiled))
        assert service.status(campaign_id)["job"]["status"] == "pending"
        assert service.run_once("w0") == "done"
        status = service.status(campaign_id)
        assert status["job"]["status"] == "done"
        assert status["campaign"]["state"] == "finished"
        assert status["campaign"]["done"] == 12
        summary_path = os.path.join(
            service.campaign_dir(campaign_id), "summary.txt"
        )
        with open(summary_path, "r", encoding="utf-8") as handle:
            assert "Algorithm I" in handle.read()
        # Nothing left to lease.
        assert service.run_once("w0") is None


def test_status_lines_and_unknown_campaign(tmp_path, algorithm_i_compiled):
    with _service(tmp_path) as service:
        assert service_status_lines(service) == ["no campaigns submitted"]
        campaign_id = service.submit_campaign(_config(algorithm_i_compiled))
        lines = service_status_lines(service)
        assert lines == [f"campaign {campaign_id}: pending"]
        with pytest.raises(ServiceError):
            service.status(campaign_id + 7)
        with pytest.raises(ServiceError):
            service.cancel(campaign_id + 7)


def test_cancel_pending_submission(tmp_path, algorithm_i_compiled):
    with _service(tmp_path) as service:
        campaign_id = service.submit_campaign(_config(algorithm_i_compiled))
        assert service.cancel(campaign_id) == "cancelled"
        assert service.run_once("w0") is None
        assert service.status(campaign_id)["job"]["status"] == "cancelled"


def test_cancel_mid_run_aborts_at_heartbeat(tmp_path, algorithm_i_compiled):
    with _service(tmp_path, heartbeat_every=2) as service:
        campaign_id = service.submit_campaign(
            _config(algorithm_i_compiled, faults=30)
        )
        # The cancel lands after submission but before the worker picks
        # the job up — exactly what a client racing a worker produces.
        # (``request_cancel`` on a pending job would cancel it outright,
        # so flag the row directly to model the mid-run case.)
        service.queue._conn.execute(
            "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (campaign_id,)
        )
        service.queue._conn.commit()
        assert service.run_once("w0") == "cancelled"
        status = service.status(campaign_id)
        assert status["job"]["status"] == "cancelled"
        # The campaign flushed before aborting: the partial results are
        # on disk and the campaign row is marked aborted, not lost.
        db = CampaignDatabase(
            os.path.join(service.campaign_dir(campaign_id), "results.db")
        )
        try:
            campaigns = db.list_campaigns()
            assert len(campaigns) == 1
            assert db.campaign_status(campaigns[0][0]) == "aborted"
        finally:
            db.close()


def test_failing_campaign_retries_then_fails(tmp_path, algorithm_i_compiled):
    with _service(tmp_path) as service:
        # A partition restriction matching nothing raises CampaignError
        # at run time — a deterministic "campaign cannot run" failure.
        campaign_id = service.submit_campaign(
            _config(algorithm_i_compiled, partitions=["no-such-partition"])
        )
        outcomes = []
        for _ in range(service.policy.max_chunk_retries):
            outcomes.append(service.run_once("w0"))
        assert outcomes[:-1] == ["requeued"] * (len(outcomes) - 1)
        assert outcomes[-1] == "failed"
        assert service.status(campaign_id)["job"]["status"] == "failed"
        assert service.run_once("w0") is None


def test_repair_event_log_rebuilds_from_database(tmp_path, algorithm_i_compiled):
    # Run a full campaign to get a database and a pristine log ...
    with _service(tmp_path) as service:
        campaign_id = service.submit_campaign(_config(algorithm_i_compiled))
        assert service.run_once("w0") == "done"
        events_path = service.events_path(campaign_id)
        pristine = _read_events(events_path)
        finished = [e for e in pristine if e["event"] == "experiment_finished"]
        # ... then tear it the way a SIGKILL does: drop the tail and cut
        # the last remaining line mid-record.
        with open(events_path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        torn = lines[: len(lines) // 2]
        torn[-1] = torn[-1][: len(torn[-1]) // 2]
        with open(events_path, "w", encoding="utf-8") as handle:
            handle.writelines(torn)
        db = CampaignDatabase(
            os.path.join(service.campaign_dir(campaign_id), "results.db")
        )
        try:
            stored_id = db.list_campaigns()[0][0]
            rebuilt = repair_event_log(events_path, db, stored_id)
        finally:
            db.close()
        assert rebuilt == len(finished)
        repaired = [
            e
            for e in _read_events(events_path)
            if e["event"] == "experiment_finished"
        ]
        assert repaired == finished


def test_sigkilled_worker_leaves_byte_identical_campaign(
    tmp_path, algorithm_i_compiled
):
    """The acceptance criterion: SIGKILL a leased worker mid-campaign,
    let the lease expire, run a second worker, and the final events and
    summary are byte-identical to an uninterrupted run's."""
    faults, iterations = 60, 60
    clean_root = tmp_path / "clean"
    with _service(clean_root) as service:
        clean_id = service.submit_campaign(
            _config(algorithm_i_compiled, faults=faults, iterations=iterations)
        )
        assert service.run_once("w0") == "done"
        clean_events = service.events_path(clean_id)
        clean_summary = os.path.join(
            service.campaign_dir(clean_id), "summary.txt"
        )

    chaos_root = tmp_path / "chaos"
    with _service(chaos_root) as service:
        chaos_id = service.submit_campaign(
            _config(algorithm_i_compiled, faults=faults, iterations=iterations)
        )
    # The victim runs in its own interpreter and SIGKILLs itself at 40
    # experiments — past the database's flush point but out of step with
    # the event log's, so resume exercises the log repair.  No cleanup,
    # no lease release: a machine loss.
    script = (
        "from repro.service import CampaignService\n"
        "from repro.goofi import RecoveryPolicy\n"
        f"service = CampaignService({str(chaos_root)!r},"
        " policy=RecoveryPolicy(heartbeat_every=10))\n"
        "service.run_once('victim', ttl=1.0, kill_after=40)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    victim = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True
    )
    assert victim.returncode == -signal.SIGKILL
    time.sleep(1.1)  # let the 1s lease pass its deadline

    with _service(chaos_root) as service:
        assert service.run_once("rescuer", ttl=30.0) == "done"
        status = service.status(chaos_id)
        assert status["job"]["status"] == "done"
        assert status["job"]["expiries"] == 1
        # The takeover is visible in the campaign's own event stream.
        assert status["campaign"]["queue"]["stale_leases"] >= 1
        chaos_events = service.events_path(chaos_id)
        chaos_summary = os.path.join(
            service.campaign_dir(chaos_id), "summary.txt"
        )

    def finished_lines(path):
        with open(path, "rb") as handle:
            return [l for l in handle if b'"experiment_finished"' in l]

    assert finished_lines(chaos_events) == finished_lines(clean_events)
    with open(clean_summary, "rb") as a, open(chaos_summary, "rb") as b:
        assert a.read() == b.read()


def test_two_concurrent_clients_one_service_root(tmp_path, algorithm_i_compiled):
    """Two submissions, two workers, one root: both campaigns complete
    with correct, non-interleaved per-campaign results and a live
    status for each."""
    with _service(tmp_path) as client:
        first = client.submit_campaign(_config(algorithm_i_compiled, faults=10))
        second = client.submit_campaign(
            _config(algorithm_i_compiled, faults=14, seed=77)
        )

    def work(name):
        with _service(tmp_path) as service:
            service.serve(name, once=True, poll=0.05)

    threads = [
        threading.Thread(target=work, args=(f"worker-{i}",)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    with _service(tmp_path) as client:
        for campaign_id, faults in ((first, 10), (second, 14)):
            status = client.status(campaign_id)
            assert status["job"]["status"] == "done"
            assert status["campaign"]["state"] == "finished"
            assert status["campaign"]["done"] == faults
            assert status["campaign"]["total"] == faults
        assert client.queue.outstanding(CAMPAIGN_TOPIC) == 0


def test_serial_worker_outlasting_ttl_keeps_its_lease(
    tmp_path, algorithm_i_compiled, monkeypatch
):
    """A serial campaign that runs longer than its lease TTL renews the
    lease while it runs, so a second worker polling the queue never
    finds it expired and never runs the job a second time."""
    from repro.goofi.target import TargetSystem

    original = TargetSystem.run_experiment

    def slow_experiment(self, fault, early_exit=True):
        time.sleep(0.005)
        return original(self, fault, early_exit)

    monkeypatch.setattr(TargetSystem, "run_experiment", slow_experiment)
    ttl = 0.5
    with _service(tmp_path, heartbeat_every=5) as service:
        # 300 faults at >= 5 ms each: about three TTLs of injection.
        campaign_id = service.submit_campaign(
            _config(algorithm_i_compiled, faults=300, iterations=20)
        )
        finished = threading.Event()
        polled = []

        def poll():
            with _service(tmp_path) as rival:
                while not finished.is_set():
                    polled.append(rival.run_once("rival", ttl=ttl))
                    time.sleep(0.05)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            assert service.run_once("w0", ttl=ttl) == "done"
        finally:
            finished.set()
            poller.join(timeout=60)
        assert not poller.is_alive()
        state = service.status(campaign_id)["job"]
        assert state["status"] == "done"
        assert state["expiries"] == 0
        assert polled and set(polled) == {None}
