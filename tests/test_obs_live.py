"""Tests for the live observability layer: following, status, export.

Covers the streaming pieces added for ``repro obs status|watch|export``:
append/resume-safe event logs, the partial-line-tolerant follower, the
idempotent status reducer with worker health and stall detection, the
campaign manifest sidecar, the registry built from the status and its
Prometheus export, and the CLI
surface — including the end-to-end abort → live poll → resume →
bit-identical-log scenario.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.goofi import CampaignConfig, ScifiCampaign
from repro.goofi.recovery import RecoveryPolicy
from repro.obs import (
    CampaignFollower,
    CampaignStatusReducer,
    EventFollower,
    EventLog,
    MetricsRegistry,
    Telemetry,
    campaign_status,
    manifest_path_for,
    merge_event_shards,
    parse_metric_key,
    prometheus_text,
    read_events,
    read_manifest,
    render_status,
    status_registry,
    write_manifest,
)


def _config(workload, faults=10, iterations=25, seed=3, **kwargs):
    return CampaignConfig(
        workload=workload,
        name="obs-live-test",
        faults=faults,
        seed=seed,
        iterations=iterations,
        **kwargs,
    )


def _emit_line(path, record, newline=True):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + ("\n" if newline else ""))


def _record(event, **payload):
    payload.update(event=event, schema_version=1)
    return payload


class TestEventLogAppend:
    def test_append_mode_preserves_existing_records(self, tmp_path):
        """Satellite regression: mode='w' used to truncate the original
        log when a resumed campaign reopened it."""
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("campaign_started", name="first", faults=2, workers=1)
        with EventLog(path, mode="a") as log:
            log.emit("campaign_resumed", completed=1)
        kinds = [record["event"] for record in read_events(path)]
        assert kinds == ["campaign_started", "campaign_resumed"]

    def test_write_mode_still_truncates(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("campaign_started", name="first", faults=2, workers=1)
        with EventLog(path, mode="w") as log:
            log.emit("campaign_started", name="second", faults=2, workers=1)
        events = read_events(path)
        assert len(events) == 1 and events[0]["name"] == "second"

    def test_append_repairs_torn_final_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(_record("campaign_started", name="x", faults=1))
                + "\n"
            )
            handle.write('{"event": "experi')  # crashed mid-write
        with EventLog(path, mode="a") as log:
            log.emit("campaign_resumed", completed=0)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["event"] == "campaign_resumed"

    def test_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ObservabilityError):
            EventLog(str(tmp_path / "e.jsonl"), mode="r")


class TestShardMergeNonExperimentRecords:
    def test_heartbeats_survive_merge_after_experiments(self, tmp_path):
        """Satellite: index-less records used to sort to position 0;
        they now follow the deterministic experiment block in shard
        order."""
        main_log = EventLog(str(tmp_path / "events.jsonl"))
        main_log.emit("campaign_started", name="m", faults=4, workers=2)
        shard0 = str(tmp_path / "events.jsonl.shard0")
        shard1 = str(tmp_path / "events.jsonl.shard1")
        with EventLog(shard0) as log:
            log.emit("experiment_finished", index=2, category="detected")
            log.emit(
                "worker_heartbeat", ts=1.0, pid=11, worker=0, done=1, total=2
            )
        with EventLog(shard1) as log:
            log.emit("experiment_finished", index=0, category="latent")
            log.emit(
                "worker_heartbeat", ts=2.0, pid=12, worker=1, done=1, total=2
            )
        merge_event_shards(main_log, [shard0, shard1])
        main_log.close()

        events = read_events(main_log.path)
        kinds = [record["event"] for record in events]
        assert kinds == [
            "campaign_started",
            "experiment_finished",
            "experiment_finished",
            "worker_heartbeat",
            "worker_heartbeat",
        ]
        # Experiments in plan order, heartbeats in shard order after them.
        assert [e["index"] for e in events[1:3]] == [0, 2]
        assert [e["pid"] for e in events[3:]] == [11, 12]
        assert not os.path.exists(shard0) and not os.path.exists(shard1)


class TestEventFollower:
    def test_partial_line_held_until_newline_arrives(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        follower = EventFollower(path)
        assert follower.poll() == []  # file does not exist yet

        _emit_line(path, _record("campaign_started", name="f", faults=3))
        torn = json.dumps(_record("experiment_finished", index=0, category="detected"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn[:20])
        first = follower.poll()
        assert [r["event"] for r in first] == ["campaign_started"]
        assert follower.pending_partial

        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn[20:] + "\n")
        second = follower.poll()
        assert [r["event"] for r in second] == ["experiment_finished"]
        assert not follower.pending_partial
        assert follower.poll() == []

    def test_truncated_file_is_reread_from_start(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _emit_line(path, _record("campaign_started", name="old", faults=9))
        _emit_line(path, _record("campaign_aborted", completed=1))
        follower = EventFollower(path)
        assert len(follower.poll()) == 2

        os.remove(path)  # a fresh campaign reuses the path
        _emit_line(path, _record("campaign_started", name="new", faults=2))
        records = follower.poll()
        assert [r["name"] for r in records] == ["new"]

    def test_campaign_follower_tails_live_shards(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _emit_line(path, _record("campaign_started", name="c", faults=4, workers=2))
        shard = path + ".shard0"
        _emit_line(shard, _record("experiment_finished", index=0, category="detected"))
        follower = CampaignFollower(path)
        kinds = [r["event"] for r in follower.poll()]
        assert kinds == ["campaign_started", "experiment_finished"]

        # The shard is merged (deleted) and its records land in the main
        # log: the reducer dedupes, the follower just forgets the shard.
        os.remove(shard)
        _emit_line(path, _record("experiment_finished", index=0, category="detected"))
        assert [r["event"] for r in follower.poll()] == ["experiment_finished"]
        assert follower.poll() == []


class TestCampaignStatusReducer:
    def _stream(self):
        records = [
            _record(
                "campaign_started",
                ts=1000.0,
                name="live",
                faults=100,
                seed=7,
                workers=2,
            )
        ]
        for index in range(40):
            records.append(
                _record(
                    "experiment_finished",
                    index=index,
                    category="detected" if index % 2 else "overwritten",
                    pruned=index < 4,
                )
            )
        records.append(
            _record(
                "worker_heartbeat",
                ts=1010.0,
                pid=11,
                worker=0,
                done=20,
                total=50,
                seconds=10.0,
                throughput=2.0,
            )
        )
        records.append(
            _record(
                "worker_heartbeat",
                ts=1012.0,
                pid=12,
                worker=1,
                done=20,
                total=50,
                seconds=12.0,
                throughput=1.7,
            )
        )
        return records

    def test_progress_eta_and_worker_health(self):
        status = campaign_status(self._stream(), now=1020.0)
        assert status.state == "running"
        assert status.total == 100 and status.done == 40 and status.remaining == 60
        assert status.pruned == 4
        assert status.outcome_counts == {"detected": 20, "overwritten": 20}
        assert status.elapsed_seconds == pytest.approx(20.0)
        assert status.throughput == pytest.approx(2.0)
        assert status.eta_seconds == pytest.approx(30.0)
        assert [h.pid for h in status.worker_health] == [11, 12]
        assert all(h.state == "active" for h in status.worker_health)
        assert status.worker_health[0].chunk_done == 20

    def test_folding_is_idempotent_over_replayed_records(self):
        """Shard records re-read after the end-of-run merge must not
        move any number."""
        records = self._stream()
        once = campaign_status(records, now=1020.0).to_dict()
        twice = campaign_status(records + records, now=1020.0).to_dict()
        assert once == twice

    def test_stalled_worker_and_campaign(self):
        status = campaign_status(self._stream(), now=1200.0, stall_after=60.0)
        assert all(h.state == "stalled" for h in status.worker_health)
        assert status.state == "stalled"

    def test_stall_clears_when_a_worker_reports_again(self):
        """``watch`` reuses one reducer: a stalled snapshot must not
        stick once the worker heartbeats again."""
        reducer = CampaignStatusReducer(stall_after=60.0)
        reducer.fold_many(self._stream())
        assert reducer.status(now=1200.0).state == "stalled"
        for pid in (11, 12):
            reducer.fold(
                _record(
                    "worker_heartbeat",
                    ts=1201.0,
                    pid=pid,
                    worker=pid - 11,
                    done=30,
                    total=50,
                    seconds=20.0,
                    throughput=1.5,
                )
            )
        status = reducer.status(now=1202.0)
        assert status.state == "running"
        assert [h.state for h in status.worker_health] == ["active", "active"]
        assert status.eta_seconds is not None

    def test_heartbeat_free_quiet_stream_stalls(self):
        records = [_record("campaign_started", ts=1000.0, name="q", faults=10)]
        assert campaign_status(records, now=1001.0).state == "running"
        assert campaign_status(records, now=2000.0).state == "stalled"

    def test_aborted_log_keeps_abort_state(self):
        records = self._stream() + [_record("campaign_aborted", completed=40)]
        status = campaign_status(records, now=99999.0)
        assert status.state == "aborted"
        assert status.eta_seconds is None
        assert all(h.state == "done" for h in status.worker_health)

    def test_resume_offset_without_original_log(self):
        """A resume against a fresh log only carries the completed count."""
        records = [
            _record("campaign_started", ts=1.0, name="r", faults=50),
            _record("campaign_resumed", completed=30),
            _record("experiment_finished", index=30, category="detected"),
        ]
        status = campaign_status(records)
        assert status.done == 31 and status.resumed == 30

    def test_resume_offset_with_appended_log_does_not_double_count(self):
        records = [
            _record("campaign_started", ts=1.0, name="r", faults=50),
            _record("experiment_finished", index=0, category="detected"),
            _record("experiment_finished", index=1, category="latent"),
            _record("campaign_resumed", completed=2),
            _record("experiment_finished", index=2, category="detected"),
        ]
        status = campaign_status(records)
        assert status.done == 3 and status.resumed == 2

    def test_finished_campaign_uses_wall_clock_rate(self):
        records = self._stream() + [
            _record("campaign_finished", wall_seconds=8.0, experiments=40)
        ]
        status = campaign_status(records, now=99999.0)
        assert status.state == "finished"
        assert status.throughput == pytest.approx(40 / 8.0)
        assert status.eta_seconds is None

    def test_ended_campaign_rate_stops_at_its_last_event(self):
        """A poll long after an abort or finish must not stretch the
        run: elapsed time and throughput stay as of the last event."""
        aborted = self._stream() + [
            _record("campaign_aborted", ts=1020.0, completed=40)
        ]
        early = campaign_status(aborted, now=1021.0)
        late = campaign_status(aborted, now=5000.0)
        assert late.elapsed_seconds == pytest.approx(20.0)
        assert late.throughput == pytest.approx(2.0)
        assert late.to_dict() == early.to_dict()
        finished = self._stream() + [
            _record("campaign_finished", ts=1020.0, wall_seconds=8.0)
        ]
        assert campaign_status(finished, now=5000.0).elapsed_seconds == (
            pytest.approx(20.0)
        )

    def test_resumed_run_rate_counts_only_its_own_experiments(self):
        """On an appended log, the rate covers the current run: the
        experiments it finished, over the time since it started."""
        first = [_record("campaign_started", ts=1000.0, name="r", faults=40)]
        first += [
            _record("experiment_finished", index=i, category="detected")
            for i in range(15)
        ]
        first.append(_record("campaign_aborted", ts=1010.0, completed=15))
        second = [
            _record("campaign_started", ts=2000.0, name="r", faults=40),
            _record("campaign_resumed", ts=2001.0, completed=15),
        ]
        second += [
            _record("experiment_finished", index=i, category="detected")
            for i in range(15, 25)
        ]
        running = campaign_status(first + second, now=2005.0)
        assert running.state == "running"
        assert running.done == 25 and running.resumed == 15
        assert running.started_ts == 2000.0
        assert running.elapsed_seconds == pytest.approx(5.0)
        assert running.throughput == pytest.approx(10 / 5.0)
        assert running.eta_seconds == pytest.approx(15 / 2.0)
        tail = [
            _record("experiment_finished", index=i, category="detected")
            for i in range(25, 40)
        ]
        tail.append(_record("campaign_finished", ts=2010.0, wall_seconds=5.0))
        finished = campaign_status(first + second + tail, now=9999.0)
        assert finished.done == 40
        assert finished.throughput == pytest.approx(25 / 5.0)
        # A resume against a fresh log carries only the completed count.
        fresh = campaign_status(second + tail, now=9999.0)
        assert fresh.done == 40
        assert fresh.throughput == pytest.approx(25 / 5.0)

    def test_render_mentions_resume_hint_when_aborted(self):
        records = self._stream() + [_record("campaign_aborted", completed=40)]
        status = campaign_status(records)
        status.manifest = {"campaign_id": 9}
        panel = render_status(status)
        assert "aborted" in panel and "--resume 9" in panel


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = manifest_path_for(str(tmp_path / "events.jsonl"))
        write_manifest(path, {"status": "running", "campaign_id": 3})
        manifest = read_manifest(path)
        assert manifest["status"] == "running"
        assert manifest["campaign_id"] == 3
        assert manifest["manifest_version"] == 1

    def test_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "m.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"manifest_version": 99}, handle)
        with pytest.raises(ObservabilityError):
            read_manifest(path)


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("experiments", category="detected", partition="cache").inc(3)
        registry.counter("experiments", category="latent", partition="cache").inc()
        registry.gauge("reference_instructions").set(1234)
        registry.histogram("latency", buckets=(10, 100)).observe(5)
        registry.histogram("latency", buckets=(10, 100)).observe(500)
        return registry

    def test_parse_metric_key_round_trip(self):
        assert parse_metric_key("plain") == ("plain", {})
        assert parse_metric_key("n{a=1,b=x}") == ("n", {"a": "1", "b": "x"})
        with pytest.raises(ObservabilityError):
            parse_metric_key("n{a=1")

    def test_prometheus_text_families(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_experiments_total counter" in text
        assert (
            'repro_experiments_total{category="detected",partition="cache"} 3'
            in text
        )
        assert "repro_reference_instructions 1234" in text
        assert 'repro_latency_bucket{le="10"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        assert "repro_latency_sum 505" in text
        assert "repro_latency_count 2" in text

    def test_registry_from_events_dedupes_replayed_records(self):
        records = [
            _record(
                "experiment_finished",
                index=0,
                category="overwritten",
                partition="cache",
                pruned=True,
            ),
            _record(
                "experiment_finished",
                index=1,
                category="detected",
                partition="cache",
                mechanism="BUS ERROR",
                detection_latency=0,
                early_exit_iteration=None,
                timed_out=False,
                instructions=420,
                pruned=False,
            ),
        ]
        registry = status_registry(campaign_status(records + records))
        counters = {key: c.value for key, c in registry.counters.items()}
        assert counters == {
            "experiments{category=overwritten,partition=cache}": 1,
            "experiments{category=detected,partition=cache}": 1,
            "detections{mechanism=BUS ERROR}": 1,
            "pruned_experiments{prediction=overwritten}": 1,
            "simulated_experiments": 1,
        }
        latency = registry.histograms["detection_latency_instructions"]
        assert latency.count == 1 and latency.counts[0] == 1
        assert registry.histograms["instructions_per_experiment"].total == 420

    def test_quarantined_stand_in_stays_out_of_the_histograms(self):
        records = [
            _record("experiment_quarantined", index=3),
            _record(
                "experiment_finished",
                index=3,
                category="severe",
                partition="cache",
                timed_out=True,
                instructions=0,
                pruned=False,
            ),
        ]
        registry = status_registry(campaign_status(records), progress=False)
        counters = {key: c.value for key, c in registry.counters.items()}
        assert counters["simulated_experiments"] == 1
        assert counters["quarantined_experiments"] == 1
        assert "timeouts" not in counters
        assert registry.histograms == {}

    def test_status_metrics_gauges(self):
        records = [
            _record("campaign_started", ts=1.0, name="g", faults=10, workers=1),
            _record("experiment_finished", index=0, category="detected"),
        ]
        registry = status_registry(campaign_status(records, now=2.0))
        assert registry.gauges["campaign_experiments_total"].value == 10
        assert registry.gauges["campaign_experiments_done"].value == 1
        assert registry.gauges["campaign_state"].value == 1  # running
        assert registry.gauges["campaign_outcomes{category=detected}"].value == 1


class TestHeartbeatEmission:
    def test_serial_campaign_emits_heartbeats(self, algorithm_i_compiled, tmp_path):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        # Fixed four-experiment chunks, so the sequence does not depend on
        # the measured throughput: chunks of 4, 4 and 2.
        config = _config(
            algorithm_i_compiled,
            recovery=RecoveryPolicy(
                heartbeat_every=3, min_chunk_size=4, max_chunk_size=4
            ),
        )
        ScifiCampaign(config).run(telemetry=telemetry)
        telemetry.close()
        beats = [
            record
            for record in read_events(path)
            if record["event"] == "worker_heartbeat"
        ]
        # The chunk runner heartbeats every third experiment and at chunk
        # end, counting within its chunk, like a one-worker pool's.
        assert [(b["worker"], b["done"], b["total"]) for b in beats] == [
            (1, 3, 4),
            (1, 4, 4),
            (2, 3, 4),
            (2, 4, 4),
            (3, 2, 2),
        ]
        assert all(b["pid"] == os.getpid() for b in beats)

    def test_parallel_campaign_heartbeats_carry_worker_pids(
        self, algorithm_i_compiled, tmp_path
    ):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        ScifiCampaign(_config(algorithm_i_compiled)).run(
            workers=2, telemetry=telemetry
        )
        telemetry.close()
        events = read_events(path)
        beats = [r for r in events if r["event"] == "worker_heartbeat"]
        assert beats  # at least one per chunk (chunk-end beat)
        assert all(b["done"] == b["total"] for b in beats)
        status = campaign_status(events)
        assert status.done == 10 and status.state == "finished"
        assert sum(h.experiments for h in status.worker_health) == 10

    def test_manifest_written_and_complete(self, algorithm_i_compiled, tmp_path):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        ScifiCampaign(_config(algorithm_i_compiled)).run(telemetry=telemetry)
        telemetry.close()
        manifest = read_manifest(manifest_path_for(path))
        assert manifest["status"] == "complete"
        assert manifest["faults"] == 10
        assert manifest["artifacts"]["events"] == path
        assert manifest["fingerprint"]["seed"] == 3


class TestObsCliLive:
    def test_status_json_on_partial_log(self, capsys, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _emit_line(
            path,
            _record(
                "campaign_started", ts=1.0, name="cli", faults=8, seed=5, workers=1
            ),
        )
        _emit_line(path, _record("experiment_finished", index=0, category="detected"))
        _emit_line(
            path,
            _record(
                "worker_heartbeat",
                ts=2.0,
                pid=77,
                worker=0,
                done=1,
                total=8,
                seconds=1.0,
                throughput=1.0,
            ),
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "experiment_fin')  # torn live tail
        assert main(["obs", "status", "--events", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] in ("running", "stalled")
        assert payload["done"] == 1 and payload["total"] == 8
        assert payload["worker_health"][0]["pid"] == 77

    def test_status_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["obs", "status", "--events", str(tmp_path / "nope.jsonl")])

    def test_summary_strerror_none_reports_exception(self, tmp_path, monkeypatch):
        """Satellite: OSError without strerror used to print 'None'."""
        import repro.cli as cli

        def boom(_path):
            raise OSError("event log unreadable")

        monkeypatch.setattr(cli, "read_events", boom)
        with pytest.raises(SystemExit, match="event log unreadable"):
            main(["obs", "--events", str(tmp_path / "e.jsonl")])

    def test_summary_merges_multiple_event_files_and_globs(
        self, capsys, tmp_path
    ):
        for index, name in enumerate(("a.jsonl", "b.jsonl")):
            path = str(tmp_path / name)
            _emit_line(
                path,
                _record(
                    "campaign_started", ts=1.0, name="multi", faults=2, workers=1
                ),
            )
            _emit_line(
                path,
                _record(
                    "experiment_finished",
                    index=index,
                    category="detected",
                    partition="cache",
                ),
            )
        assert main(["obs", "--events", str(tmp_path / "*.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "2 experiments" in out
        capsys.readouterr()
        assert (
            main(
                [
                    "obs",
                    "--events",
                    str(tmp_path / "a.jsonl"),
                    "--events",
                    str(tmp_path / "b.jsonl"),
                ]
            )
            == 0
        )
        assert "2 experiments" in capsys.readouterr().out

    def test_watch_once_renders_single_frame(self, capsys, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _emit_line(
            path,
            _record("campaign_started", ts=1.0, name="w", faults=4, workers=1),
        )
        assert main(["obs", "watch", "--events", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "Campaign w" in out and "progress" in out

    def test_export_prometheus_from_events(self, capsys, tmp_path):
        path = str(tmp_path / "events.jsonl")
        _emit_line(
            path,
            _record("campaign_started", ts=1.0, name="e", faults=4, workers=1),
        )
        _emit_line(
            path,
            _record(
                "experiment_finished",
                index=0,
                category="detected",
                partition="cache",
                mechanism="BUS ERROR",
            ),
        )
        assert main(["obs", "export", "--events", path]) == 0
        out = capsys.readouterr().out
        assert "repro_campaign_experiments_done 1" in out
        assert 'repro_experiments_total{category="detected",partition="cache"} 1' in out

    def test_export_requires_some_input(self):
        with pytest.raises(SystemExit, match="provide --events"):
            main(["obs", "export"])

    def test_export_snapshot_to_file(self, capsys, tmp_path):
        """The export writes the metrics of one status snapshot of the
        event log to ``--output``."""
        path = str(tmp_path / "events.jsonl")
        _emit_line(
            path,
            _record("campaign_started", ts=1.0, name="f", faults=5, workers=1),
        )
        for index in range(5):
            _emit_line(
                path,
                _record(
                    "experiment_finished",
                    index=index,
                    category="detected",
                    partition="cache",
                ),
            )
        output = str(tmp_path / "metrics.json")
        assert (
            main(
                [
                    "obs",
                    "export",
                    "--events",
                    path,
                    "--format",
                    "json",
                    "--output",
                    output,
                ]
            )
            == 0
        )
        assert f"metrics written to {output}" in capsys.readouterr().out
        payload = json.load(open(output, encoding="utf-8"))
        counters = payload["metrics"]["counters"]
        assert counters["experiments{category=detected,partition=cache}"] == 5
        assert payload["metrics"]["gauges"]["campaign_experiments_done"] == 5


class TestAbortResumeLogIdentity:
    def test_resumed_log_matches_uninterrupted_run(self, capsys, tmp_path):
        """The acceptance scenario: abort mid-run, poll live status,
        resume appending to the same log, and require the merged
        ``experiment_finished`` sequence to be byte-identical to an
        uninterrupted run's."""
        database = str(tmp_path / "c.db")
        events = str(tmp_path / "events.jsonl")
        base = [
            "campaign",
            "--algorithm",
            "I",
            "--faults",
            "16",
            "--iterations",
            "25",
            "--seed",
            "3",
            "--database",
            database,
            "--events",
            events,
        ]
        assert main(base + ["--abort-after", "6"]) == 130
        capsys.readouterr()

        assert main(["obs", "status", "--events", events, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "aborted"
        assert payload["done"] == 6 and payload["remaining"] == 10
        assert payload["manifest"]["status"] == "aborted"
        campaign_id = payload["manifest"]["campaign_id"]
        assert campaign_id is not None

        assert main(base + ["--resume", str(campaign_id)]) == 0
        capsys.readouterr()
        assert main(["obs", "status", "--events", events, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "finished"
        assert payload["done"] == 16 and payload["resumed"] == 6
        assert payload["manifest"]["status"] == "complete"

        clean = str(tmp_path / "clean.jsonl")
        assert (
            main(
                [
                    "campaign",
                    "--algorithm",
                    "I",
                    "--faults",
                    "16",
                    "--iterations",
                    "25",
                    "--seed",
                    "3",
                    "--events",
                    clean,
                ]
            )
            == 0
        )
        capsys.readouterr()

        def finished_lines(path):
            return [
                line
                for line in open(path, encoding="utf-8")
                if json.loads(line).get("event") == "experiment_finished"
            ]

        resumed = finished_lines(events)
        uninterrupted = finished_lines(clean)
        assert len(resumed) == 16
        assert resumed == uninterrupted
