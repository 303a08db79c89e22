"""Chaos tests for the crash-safe campaign machinery.

Covers the three robustness layers (``docs/robustness.md``): streaming
persistence (every classified outcome durable when its chunk finishes),
checkpoint/resume (an interrupted campaign continues to a bit-identical
summary) and worker-failure recovery (requeue with backoff, bisection,
quarantine, pool rebuild, serial fallback).  Worker crashes are injected
deterministically through :class:`~repro.goofi.recovery.ChaosSpec`.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.errors import CampaignAborted, CampaignError
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    ChaosSpec,
    RecoveryPolicy,
    ScifiCampaign,
    backoff_seconds,
    config_fingerprint,
    workload_digest,
)
from repro.goofi.pool import ReferencePool, WorkerPayload
from repro.goofi.recovery import ResultSink, check_fingerprint, split_chunk
from repro.obs import Telemetry, campaign_status, read_events


def _policy(**kw):
    """A test policy: no real sleeping, generous pool-rebuild budget
    (bisecting an exit-mode poison costs one rebuild per kill)."""
    kw.setdefault("sleep", lambda _s: None)
    kw.setdefault("max_pool_rebuilds", 10)
    return RecoveryPolicy(**kw)


def _config(workload, **kw):
    kw.setdefault("faults", 12)
    kw.setdefault("iterations", 30)
    kw.setdefault("recovery", _policy())
    return CampaignConfig(workload=workload, **kw)


def _sigterm_is_default() -> bool:
    """Run in a pool worker: its SIGTERM disposition is the default."""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


def _outcome_key(result):
    """The bit-identity witness: per-experiment partition + full Outcome
    (a frozen dataclass, so equality covers category, mechanism, first
    failure iteration and max deviation)."""
    return [
        (run.fault.target.partition, outcome)
        for run, outcome in zip(result.experiments, result.outcomes)
    ]


@pytest.fixture(scope="module")
def clean_key(algorithm_i_compiled):
    """The uninterrupted serial run every chaos variant must match."""
    result = ScifiCampaign(_config(algorithm_i_compiled)).run()
    return _outcome_key(result)


# -- memory and image fault models --------------------------------------------
@pytest.mark.parametrize(
    "partitions",
    [["memory"], ["code-image", "data-image"]],
    ids=["memory", "image"],
)
class TestFaultModelCampaigns:
    """Memory and program-image campaigns run through the same plan,
    pool, persistence and resume path as scan-chain ones, so they share
    its guarantee: every way of running gives the same outcomes."""

    ARGS = ["campaign", "--faults", "16", "--iterations", "30"]

    def test_parallel_matches_serial(self, algorithm_i_compiled, partitions):
        config = _config(algorithm_i_compiled, faults=16, partitions=partitions)
        serial = ScifiCampaign(config).run()
        parallel = ScifiCampaign(config).run(workers=2)
        assert _outcome_key(parallel) == _outcome_key(serial)
        assert {run.fault.target.partition for run in serial.experiments} <= set(
            partitions
        )
        for a, b in zip(serial.experiments, parallel.experiments):
            assert list(a.outputs) == list(b.outputs)
            assert a.instructions_executed == b.instructions_executed

    def test_abort_after_then_resume_matches_clean(
        self, tmp_path, capsys, partitions
    ):
        from repro.cli import main

        args = self.ARGS + ["--partitions", *partitions]
        assert main(args) == 0
        clean = capsys.readouterr().out
        db = str(tmp_path / "resume.db")
        assert main(args + ["--database", db, "--abort-after", "6"]) == 130
        capsys.readouterr()
        with CampaignDatabase(db) as database:
            assert database.campaign_status(1) == "aborted"
            assert len(database.completed_experiments(1)) >= 6
        # The remainder runs on the worker pool.
        resume = ["--database", db, "--resume", "1", "--workers", "2"]
        assert main(args + resume) == 0
        resumed = capsys.readouterr().out
        assert resumed.replace(f"stored in {db}\n", "") == clean


# -- policy unit tests ---------------------------------------------------------
class TestPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RecoveryPolicy(backoff_base=0.1, backoff_cap=0.5)
        delays = [backoff_seconds(attempt, policy) for attempt in range(6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays == sorted(delays)
        assert delays[-1] == pytest.approx(0.5)

    def test_split_chunk_bisects(self):
        first, second = split_chunk([(0, "a"), (1, "b"), (2, "c")])
        assert first == [(0, "a")]
        assert second == [(1, "b"), (2, "c")]

    def test_split_chunk_refuses_singletons(self):
        with pytest.raises(CampaignError):
            split_chunk([(0, "a")])

    def test_workload_digest_is_stable(self, algorithm_i_compiled):
        assert workload_digest(algorithm_i_compiled) == workload_digest(
            algorithm_i_compiled
        )

    def test_fingerprint_mismatch_names_field(self, algorithm_i_compiled):
        stored = config_fingerprint(_config(algorithm_i_compiled))
        current = config_fingerprint(_config(algorithm_i_compiled, seed=7))
        with pytest.raises(CampaignError, match="seed"):
            check_fingerprint(stored, current)

    def test_fingerprint_ignores_outcome_invariant_flags(
        self, algorithm_i_compiled
    ):
        plain = config_fingerprint(_config(algorithm_i_compiled))
        tweaked = config_fingerprint(
            _config(algorithm_i_compiled, early_exit=False, prune=True)
        )
        assert plain == tweaked

    def test_fingerprint_survives_json_roundtrip(self, algorithm_i_compiled):
        fingerprint = config_fingerprint(_config(algorithm_i_compiled))
        check_fingerprint(json.loads(json.dumps(fingerprint)), fingerprint)


# -- streaming persistence -----------------------------------------------------
class TestStreaming:
    def test_file_database_uses_wal(self, tmp_path):
        with CampaignDatabase(str(tmp_path / "c.db")) as db:
            mode = db._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert str(mode).lower() == "wal"

    def test_aborted_campaign_keeps_streamed_rows(self, algorithm_i_compiled):
        db = CampaignDatabase(":memory:")

        def killer(done, _total, _outcome):
            if done >= 5:
                raise KeyboardInterrupt

        with pytest.raises(CampaignAborted) as info:
            ScifiCampaign(_config(algorithm_i_compiled), database=db).run(
                progress=killer
            )
        assert info.value.campaign_id == 1
        assert db.campaign_status(1) == "aborted"
        stored = db.completed_experiments(1)
        assert len(stored) == 5
        assert sorted(stored) == list(range(5))

    def test_sink_batches_into_transactions(self, algorithm_i_compiled):
        """Small batch size still persists everything, in plan order."""
        db = CampaignDatabase(":memory:")
        config = _config(
            algorithm_i_compiled,
            faults=7,
            recovery=_policy(db_batch=2),
        )
        result = ScifiCampaign(config, database=db).run()
        assert db.campaign_status(1) == "complete"
        assert db.load_summary(1).records == result.summary().records


# -- checkpoint / resume -------------------------------------------------------
class TestResume:
    def _interrupt(self, workload, db, after, workers=1):
        def killer(done, _total, _outcome):
            if done >= after:
                raise KeyboardInterrupt

        with pytest.raises(CampaignAborted):
            ScifiCampaign(_config(workload), database=db).run(
                progress=killer, workers=workers
            )

    def test_serial_resume_is_bit_identical(self, algorithm_i_compiled, clean_key):
        db = CampaignDatabase(":memory:")
        self._interrupt(algorithm_i_compiled, db, after=5)
        resumed = ScifiCampaign(_config(algorithm_i_compiled), database=db).run(
            resume_from=1
        )
        assert _outcome_key(resumed) == clean_key
        assert db.campaign_status(1) == "complete"
        # The database view matches too, in plan order.
        summary = db.load_summary(1)
        assert [
            (r.partition, r.outcome) for r in summary.records
        ] == clean_key

    def test_parallel_resume_is_bit_identical(
        self, algorithm_i_compiled, clean_key
    ):
        db = CampaignDatabase(":memory:")
        self._interrupt(algorithm_i_compiled, db, after=6, workers=4)
        resumed = ScifiCampaign(_config(algorithm_i_compiled), database=db).run(
            resume_from=1, workers=4
        )
        assert _outcome_key(resumed) == clean_key
        assert [
            (r.partition, r.outcome) for r in db.load_summary(1).records
        ] == clean_key

    def test_resume_counts_and_events(self, algorithm_i_compiled, tmp_path):
        db = CampaignDatabase(":memory:")
        self._interrupt(algorithm_i_compiled, db, after=5)
        completed = len(db.completed_experiments(1))
        path = str(tmp_path / "resume.jsonl")
        with Telemetry(events_path=path) as telemetry:
            ScifiCampaign(_config(algorithm_i_compiled), database=db).run(
                resume_from=1, telemetry=telemetry
            )
            counter = telemetry.metrics.counter("resumed_experiments")
            assert counter.value == completed
        summary = campaign_status(read_events(path))
        assert summary.resumed == completed
        assert summary.done == 12
        # The resumed run's event log covers only the remainder.
        assert sum(summary.outcome_counts.values()) == 12 - completed

    def test_abort_emits_event_and_flushes(self, algorithm_i_compiled, tmp_path):
        db = CampaignDatabase(":memory:")
        path = str(tmp_path / "abort.jsonl")

        def killer(done, _total, _outcome):
            if done >= 4:
                raise KeyboardInterrupt

        with Telemetry(events_path=path) as telemetry:
            with pytest.raises(CampaignAborted):
                ScifiCampaign(
                    _config(algorithm_i_compiled), database=db
                ).run(progress=killer, telemetry=telemetry)
        events = read_events(path)
        aborted = [e for e in events if e["event"] == "campaign_aborted"]
        assert len(aborted) == 1
        assert aborted[0]["campaign_id"] == 1
        assert aborted[0]["completed"] == 4
        assert campaign_status(events).state == "aborted"

    def test_parallel_abort_and_resume_keeps_the_event_history(
        self, tmp_path, capsys
    ):
        """A pool run aborted mid-campaign and resumed leaves the event
        log an uninterrupted serial run writes: every experiment_finished
        record, once, in plan order — the same prefix the database
        stored when the abort hit."""
        from repro.cli import main

        args = ["campaign", "--faults", "40", "--iterations", "60"]
        clean_path = str(tmp_path / "clean.jsonl")
        assert main(args + ["--events", clean_path]) == 0
        db = str(tmp_path / "r.db")
        path = str(tmp_path / "r.jsonl")
        run = args + ["--workers", "2", "--database", db, "--events", path]
        assert main(run + ["--abort-after", "15"]) == 130
        with CampaignDatabase(db) as database:
            stored = sorted(database.completed_experiments(1))
        aborted = [
            e["index"]
            for e in read_events(path)
            if e["event"] == "experiment_finished"
        ]
        assert aborted == stored == list(range(15))
        assert main(run + ["--resume", "1"]) == 0
        capsys.readouterr()

        def finished(events_path):
            return [
                e
                for e in read_events(events_path)
                if e["event"] == "experiment_finished"
            ]

        assert finished(path) == finished(clean_path)
        assert campaign_status(read_events(path)).done == 40

    def test_resume_refuses_config_mismatch(self, algorithm_i_compiled):
        db = CampaignDatabase(":memory:")
        self._interrupt(algorithm_i_compiled, db, after=5)
        with pytest.raises(CampaignError, match="seed"):
            ScifiCampaign(
                _config(algorithm_i_compiled, seed=7), database=db
            ).run(resume_from=1)

    def test_resume_requires_database(self, algorithm_i_compiled):
        with pytest.raises(CampaignError, match="database"):
            ScifiCampaign(_config(algorithm_i_compiled)).run(resume_from=1)

    def test_cli_resume_errors_are_clean(self, tmp_path):
        """Resume refusals surface as SystemExit messages, not
        tracebacks (the CLI's user-error convention)."""
        from repro.cli import main

        db = str(tmp_path / "cli.db")
        base = ["campaign", "--faults", "3", "--iterations", "20",
                "--database", db]
        assert main(base) == 0
        with pytest.raises(SystemExit, match="mismatch on faults"):
            main(["campaign", "--faults", "5", "--iterations", "20",
                  "--database", db, "--resume", "1"])
        with pytest.raises(SystemExit, match="no campaign with id 99"):
            main(base + ["--resume", "99"])

    def test_resume_with_pruning_enabled(self, algorithm_i_compiled, clean_key):
        """The pruned remainder (non-contiguous indices) resumes to the
        same summary as the unpruned clean run."""
        db = CampaignDatabase(":memory:")
        self._interrupt(algorithm_i_compiled, db, after=5)
        resumed = ScifiCampaign(
            _config(algorithm_i_compiled, prune=True), database=db
        ).run(resume_from=1)
        assert [
            (run.fault.target.partition, outcome)
            for run, outcome in zip(resumed.experiments, resumed.outcomes)
        ] == clean_key


# -- worker-failure recovery ---------------------------------------------------
class TestWorkerRecovery:
    def test_worker_exception_retries_and_completes(
        self, algorithm_i_compiled, clean_key, tmp_path
    ):
        chaos = ChaosSpec(
            marker_dir=str(tmp_path), crashes={3: 1, 7: 2}, mode="raise"
        )
        path = str(tmp_path / "raise.jsonl")
        with Telemetry(events_path=path) as telemetry:
            result = ScifiCampaign(
                _config(algorithm_i_compiled, chaos=chaos)
            ).run(workers=2, telemetry=telemetry)
            assert telemetry.metrics.counter("retries").value >= 3
            assert telemetry.metrics.counter("requeued_chunks").value >= 3
        assert _outcome_key(result) == clean_key
        summary = campaign_status(read_events(path))
        assert summary.requeued_chunks >= 3
        assert summary.quarantined == 0
        assert summary.done == 12

    def test_worker_kill_rebuilds_pool_and_completes(
        self, algorithm_i_compiled, clean_key, tmp_path
    ):
        chaos = ChaosSpec(marker_dir=str(tmp_path), crashes={5: 1}, mode="exit")
        path = str(tmp_path / "exit.jsonl")
        with Telemetry(events_path=path) as telemetry:
            result = ScifiCampaign(
                _config(algorithm_i_compiled, chaos=chaos)
            ).run(workers=2, telemetry=telemetry)
        assert _outcome_key(result) == clean_key
        summary = campaign_status(read_events(path))
        assert summary.pool_rebuilds >= 1
        assert summary.requeued_chunks >= 1
        assert summary.done == 12

    def test_poison_experiment_is_quarantined(
        self, algorithm_i_compiled, clean_key, tmp_path
    ):
        """An experiment that kills every worker that touches it ends up
        quarantined; every other experiment still matches the clean run."""
        chaos = ChaosSpec(marker_dir=str(tmp_path), crashes={6: 99}, mode="exit")
        db = CampaignDatabase(":memory:")
        path = str(tmp_path / "poison.jsonl")
        with Telemetry(events_path=path) as telemetry:
            result = ScifiCampaign(
                _config(algorithm_i_compiled, chaos=chaos), database=db
            ).run(workers=2, telemetry=telemetry)
            assert (
                telemetry.metrics.counter("quarantined_experiments").value == 1
            )
        assert result.experiments[6].quarantined
        key = _outcome_key(result)
        assert [k for i, k in enumerate(key) if i != 6] == [
            k for i, k in enumerate(clean_key) if i != 6
        ]
        assert ("quarantined", 1) in db.provenance_counts(1)
        summary = campaign_status(read_events(path))
        assert summary.quarantined == 1
        # No experiment was silently dropped.
        assert len(result.experiments) == 12

    def test_pool_exhaustion_carries_on_in_process(
        self, algorithm_i_compiled, clean_key, tmp_path, capfd
    ):
        """With no pool rebuilds allowed, the first worker kill moves the
        rest of the campaign into the parent.  Exit-mode chaos models a
        worker kill, so the second crash of experiment 5 is dropped
        there instead of killing the parent.  The broken pool's
        surviving worker is stopped with SIGTERM and exits quietly: it
        does not run the campaign's own SIGTERM handler."""
        chaos = ChaosSpec(marker_dir=str(tmp_path), crashes={5: 2}, mode="exit")
        path = str(tmp_path / "fallback.jsonl")
        config = _config(
            algorithm_i_compiled,
            chaos=chaos,
            recovery=_policy(max_pool_rebuilds=0),
        )
        with Telemetry(events_path=path) as telemetry:
            result = ScifiCampaign(config).run(workers=2, telemetry=telemetry)
        assert _outcome_key(result) == clean_key
        assert not any(run.quarantined for run in result.experiments)
        # One crash claimed in a worker; the parent never crashed.
        assert (tmp_path / "crash-5-0").exists()
        assert not (tmp_path / "crash-5-1").exists()
        events = read_events(path)
        fallbacks = [e for e in events if e["event"] == "serial_fallback"]
        assert len(fallbacks) == 1 and fallbacks[0]["experiments"] >= 1
        # Every chunk leased after the fallback ran in this process.
        after = events[events.index(fallbacks[0]) :]
        local = {e["worker"] for e in after if e["event"] == "lease_granted"}
        beats = [
            e
            for e in events
            if e["event"] == "worker_heartbeat" and e["worker"] in local
        ]
        assert local and {b["pid"] for b in beats} == {os.getpid()}
        summary = campaign_status(events)
        assert summary.serial_fallbacks == 1
        assert summary.pool_rebuilds == 0
        assert summary.done == 12
        assert "AbortRequested" not in capfd.readouterr().err

    def test_workers_do_not_inherit_the_sigterm_handler(
        self, short_reference_target
    ):
        """Workers fork while a campaign's SIGTERM handler is installed;
        they must not keep it, or a SIGTERM from the executor raises
        AbortRequested inside them."""
        target = short_reference_target
        payload = WorkerPayload(
            workload=target.workload,
            iterations=target.iterations,
            watchdog_factor=target.watchdog_factor,
            environment_factory=type(target.environment),
            reference=target.reference,
        )
        previous = signal.signal(
            signal.SIGTERM, ScifiCampaign._handle_sigterm
        )
        pool = ReferencePool(1)
        try:
            pool.prepare(payload)
            assert pool.submit(_sigterm_is_default).result(timeout=60)
        finally:
            pool.close()
            signal.signal(signal.SIGTERM, previous)

    def test_serial_chaos_retries_then_quarantines(
        self, algorithm_i_compiled, clean_key, tmp_path
    ):
        """The serial path has the same retry/quarantine semantics: a
        transient crash is retried, a persistent one is quarantined."""
        chaos = ChaosSpec(
            marker_dir=str(tmp_path), crashes={2: 1, 9: 99}, mode="raise"
        )
        db = CampaignDatabase(":memory:")
        with Telemetry() as telemetry:
            result = ScifiCampaign(
                _config(algorithm_i_compiled, chaos=chaos), database=db
            ).run(telemetry=telemetry)
            assert telemetry.metrics.counter("retries").value >= 1
            assert (
                telemetry.metrics.counter("quarantined_experiments").value == 1
            )
        key = _outcome_key(result)
        assert key[2] == clean_key[2]  # retried to the real outcome
        assert result.experiments[9].quarantined
        assert ("quarantined", 1) in db.provenance_counts(1)

    def test_quarantined_campaign_resumes_identically(
        self, algorithm_i_compiled, tmp_path
    ):
        """A resumed campaign reproduces quarantined stand-ins bit for
        bit instead of re-running the poison experiment."""
        markers_a = tmp_path / "a"
        markers_b = tmp_path / "b"
        markers_a.mkdir()
        markers_b.mkdir()
        db = CampaignDatabase(":memory:")
        poisoned = ScifiCampaign(
            _config(
                algorithm_i_compiled,
                chaos=ChaosSpec(str(markers_a), crashes={1: 99}, mode="raise"),
            ),
            database=db,
        ).run()
        db2 = CampaignDatabase(":memory:")

        def killer(done, _total, _outcome):
            if done >= 7:
                raise KeyboardInterrupt

        with pytest.raises(CampaignAborted):
            ScifiCampaign(
                _config(
                    algorithm_i_compiled,
                    chaos=ChaosSpec(str(markers_b), crashes={1: 99}, mode="raise"),
                ),
                database=db2,
            ).run(progress=killer)
        # Fresh markers: without resume the poison would crash again, but
        # its stand-in is already stored, so no chaos budget is touched.
        resumed = ScifiCampaign(
            _config(algorithm_i_compiled), database=db2
        ).run(resume_from=1)
        assert _outcome_key(resumed) == _outcome_key(poisoned)
        assert resumed.experiments[1].quarantined


# -- chaos spec parsing --------------------------------------------------------
class TestPoolLifetime:
    """A pooled campaign owns its pool for one run and stops every
    worker before ``run`` returns or raises."""

    def test_completed_run_leaves_no_worker(self, algorithm_i_compiled):
        before = set(multiprocessing.active_children())
        ScifiCampaign(_config(algorithm_i_compiled)).run(workers=2)
        assert set(multiprocessing.active_children()) <= before

    def test_aborted_run_leaves_no_worker(self, algorithm_i_compiled):
        def interrupt(done, _total, _outcome):
            if done >= 4:
                raise KeyboardInterrupt

        before = set(multiprocessing.active_children())
        with pytest.raises(CampaignAborted):
            ScifiCampaign(_config(algorithm_i_compiled)).run(
                progress=interrupt, workers=2
            )
        assert set(multiprocessing.active_children()) <= before

    def test_rebuilt_pool_leaves_no_worker(self, algorithm_i_compiled, tmp_path):
        chaos = ChaosSpec(marker_dir=str(tmp_path), crashes={5: 1}, mode="exit")
        before = set(multiprocessing.active_children())
        ScifiCampaign(_config(algorithm_i_compiled, chaos=chaos)).run(workers=2)
        assert set(multiprocessing.active_children()) <= before


class TestChaosSpec:
    def test_plain_mapping(self, tmp_path):
        spec = ChaosSpec.from_json('{"3": 1}', str(tmp_path))
        assert spec.crashes == {3: 1}
        assert spec.mode == "raise"

    def test_full_form(self, tmp_path):
        spec = ChaosSpec.from_json(
            '{"crashes": {"3": 1, "11": 2}, "mode": "exit"}', str(tmp_path)
        )
        assert spec.crashes == {3: 1, 11: 2}
        assert spec.mode == "exit"

    def test_bad_mode_refused(self, tmp_path):
        with pytest.raises(CampaignError):
            ChaosSpec.from_json('{"crashes": {}, "mode": "segv"}', str(tmp_path))


class TestResultSink:
    def test_none_campaign_is_noop(self):
        sink = ResultSink(object(), None, batch_size=2)
        sink.add(0, None, None)
        sink.flush()
        assert sink.stored == 0
