"""Tests for the observability layer: metrics, tracing, events, CLI."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.goofi import CampaignConfig, CampaignDatabase, ScifiCampaign
from repro.goofi.database import DB_SCHEMA_VERSION
from repro.obs.export import status_registry
from repro.obs import (
    EventLog,
    MetricsRegistry,
    SCHEMA_VERSION,
    Telemetry,
    Tracer,
    campaign_status,
    read_events,
    render_events_summary,
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("experiments", category="detected").inc()
        registry.counter("experiments", category="detected").inc(2)
        registry.gauge("reference_instructions").set(1234)
        h = registry.histogram("latency", buckets=(10, 100))
        for value in (5, 50, 500):
            h.observe(value)
        assert registry.counter("experiments", category="detected").value == 3
        assert registry.gauge("reference_instructions").value == 1234
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.minimum == 5 and h.maximum == 500
        assert h.mean == pytest.approx(555 / 3)

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("c", b="2", a="1").inc()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counters["c{a=1,b=2}"].value == 2

    def test_counters_reject_decrements(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc(-1)

    def test_dict_round_trip(self):
        """``to_dict`` is the export's JSON payload: it survives JSON."""
        registry = MetricsRegistry()
        registry.counter("c", kind="x").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h", buckets=(1, 10)).observe(3)
        payload = registry.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_render_lists_instruments(self):
        registry = MetricsRegistry()
        registry.counter("experiments", category="latent").inc(5)
        h = registry.histogram("h", buckets=(10, 100))
        for value in (0, 3, 50):
            h.observe(value)
        text = registry.render()
        assert "experiments{category=latent}" in text
        assert "5" in text
        # The first bucket includes its lower values: 0 is counted there.
        assert "    [0, 10]: 2" in text
        assert "    (10, 100]: 1" in text
        assert "(0, 10]" not in text


class TestTracer:
    def test_spans_nest_and_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [(s.name, s.depth) for s in tracer.spans] == [
            ("outer", 0),
            ("inner", 1),
        ]
        assert all(s.seconds is not None and s.seconds >= 0 for s in tracer.spans)
        assert "inner" in tracer.render()


class TestEventLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("campaign_started", name="t", faults=2, workers=1)
            log.emit("experiment_finished", index=0, category="latent")
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "campaign_started",
            "experiment_finished",
        ]
        assert all(e["schema_version"] == SCHEMA_VERSION for e in events)
        assert events[1]["index"] == 0

    def test_unknown_event_type_rejected(self, tmp_path):
        with EventLog(str(tmp_path / "e.jsonl")) as log:
            with pytest.raises(ObservabilityError):
                log.emit("not_an_event")

    def test_read_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version": 99, "event": "span"}\n')
        with pytest.raises(ObservabilityError):
            read_events(str(path))

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            read_events(str(path))


def _config(workload, faults=10, iterations=25, seed=3):
    return CampaignConfig(
        workload=workload,
        name="obs-test",
        faults=faults,
        seed=seed,
        iterations=iterations,
    )


class TestCampaignTelemetry:
    def test_serial_events_match_summary(self, algorithm_i_compiled, tmp_path):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        result = ScifiCampaign(_config(algorithm_i_compiled)).run(telemetry=telemetry)
        telemetry.close()

        events = read_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_started"
        assert kinds.count("experiment_finished") == 10
        assert "campaign_finished" in kinds
        assert kinds.count("span") >= 5

        # Per-outcome event counts exactly match the printed summary.
        summary = result.summary()
        finished = [e for e in events if e["event"] == "campaign_finished"][0]
        for category, count in finished["outcomes"].items():
            matching = [
                o for o in result.outcomes if o.category.value == category
            ]
            assert len(matching) == count
        per_event = {}
        for e in events:
            if e["event"] == "experiment_finished":
                per_event[e["category"]] = per_event.get(e["category"], 0) + 1
        assert sum(per_event.values()) == summary.total()
        detected = per_event.get("detected", 0)
        assert detected == summary.count_detected()

    def test_parallel_telemetry_equals_serial(self, algorithm_i_compiled, tmp_path):
        """The acceptance bar: identical aggregate telemetry for
        workers=1 and workers>1 on the same seed."""
        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        t_serial = Telemetry(events_path=serial_path)
        t_parallel = Telemetry(events_path=parallel_path)
        config = _config(algorithm_i_compiled, faults=12)
        ScifiCampaign(config).run(telemetry=t_serial)
        ScifiCampaign(config).run(workers=3, telemetry=t_parallel)
        t_serial.close()
        t_parallel.close()

        # The folded metrics are deterministic: workers == serial.
        assert t_parallel.metrics.to_dict() == t_serial.metrics.to_dict()

        # Experiment events are deterministic and identical in plan order.
        def experiment_records(path):
            return [
                e for e in read_events(path) if e["event"] == "experiment_finished"
            ]

        assert experiment_records(parallel_path) == experiment_records(serial_path)
        # No shard files left behind.
        assert list(tmp_path.glob("*.shard*")) == []

    def test_progress_fires_in_parallel_runs(self, algorithm_i_compiled):
        calls = []
        config = _config(algorithm_i_compiled, faults=8, iterations=20)
        ScifiCampaign(config).run(
            workers=2,
            progress=lambda done, total, outcome: calls.append(
                (done, total, outcome.category)
            ),
        )
        assert [c[0] for c in calls] == list(range(1, 9))
        assert all(total == 8 for _, total, _ in calls)

    def test_metrics_instrument_target_and_edm(self, algorithm_i_compiled):
        telemetry = Telemetry()
        result = ScifiCampaign(_config(algorithm_i_compiled, faults=15)).run(
            telemetry=telemetry
        )
        registry = telemetry.metrics
        histogram = registry.histograms["instructions_per_experiment"]
        assert histogram.count == 15
        detected = result.summary().count_detected()
        latency = registry.histograms.get("detection_latency_instructions")
        if detected:
            assert latency is not None and latency.count == detected
            detections = sum(
                c.value
                for key, c in registry.counters.items()
                if key.startswith("detections{")
            )
            assert detections == detected
        assert registry.gauges["reference_instructions"].value is not None

    def test_disabled_telemetry_leaves_no_trace(self, algorithm_i_compiled):
        campaign = ScifiCampaign(_config(algorithm_i_compiled, faults=3))
        result = campaign.run()
        assert not hasattr(campaign.target, "metrics")
        assert len(result.outcomes) == 3


class TestShardMergeOrdering:
    """Regression: shard paths must merge in numeric worker order.

    ``sorted()`` over the bare paths is lexicographic, which puts
    ``shard10`` before ``shard2`` as soon as there are ten workers; the
    merge's plan-index sort is *stable*, so any records sharing an index
    key would then interleave in the wrong order.
    """

    def test_equal_index_records_keep_numeric_worker_order(self, tmp_path):
        from repro.obs.events import merge_event_shards

        workers = 12
        shards = []
        for worker in range(workers):
            shard = str(tmp_path / f"events.jsonl.shard{worker}")
            with EventLog(shard) as log:
                # No ``index`` field: every record sorts under the same
                # key, so only the shard order decides the outcome.
                log.emit("worker_chunk_done", worker=worker, experiments=1)
            shards.append((worker, shard))
        lexicographic = sorted(path for _worker, path in shards)
        numeric = [path for worker, path in sorted(shards)]
        assert lexicographic != numeric  # the bug this guards against

        merged_path = str(tmp_path / "merged.jsonl")
        log = EventLog(merged_path)
        merge_event_shards(log, numeric)
        log.close()
        order = [e["worker"] for e in read_events(merged_path)]
        assert order == list(range(workers))

    def test_twelve_worker_merge_is_reproducible(
        self, algorithm_i_compiled, tmp_path
    ):
        """Same seed, workers=12: the merged experiment records are in
        plan order and byte-identical across repeated runs."""

        def run(path):
            with Telemetry(events_path=path) as telemetry:
                ScifiCampaign(
                    _config(algorithm_i_compiled, faults=24, iterations=20)
                ).run(workers=12, telemetry=telemetry)
            with open(path, "r", encoding="utf-8") as handle:
                return [
                    line
                    for line in handle
                    if '"event": "experiment_finished"' in line
                ]

        first = run(str(tmp_path / "first.jsonl"))
        second = run(str(tmp_path / "second.jsonl"))
        assert first == second
        indices = [json.loads(line)["index"] for line in first]
        assert indices == list(range(24))


class TestEventSummary:
    def test_summarize_and_render(self, algorithm_i_compiled, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Telemetry(events_path=path) as telemetry:
            result = ScifiCampaign(_config(algorithm_i_compiled, faults=15)).run(
                workers=2, telemetry=telemetry
            )
        events = read_events(path)
        status = campaign_status(events)
        assert status.done == 15
        assert status.workers == 2
        assert sum(status.outcome_counts.values()) == 15
        assert status.wall_seconds is not None
        assert {s["name"] for s in status.spans} >= {
            "campaign",
            "reference_run",
            "injection",
        }
        text = render_events_summary(events)
        assert "Outcomes" in text
        assert "Phase timings" in text
        assert "Per-partition rates" in text
        if result.summary().count_detected():
            assert "Detection latency" in text

    def test_empty_stream_rejected(self):
        with pytest.raises(ObservabilityError):
            render_events_summary([])

    def test_old_pool_respawn_event_still_folds(self, algorithm_i_compiled, tmp_path):
        """Logs written while warm pools were reused across campaigns may
        hold ``worker_pool_respawned``; nothing emits it now, and every
        reader folds it as a no-op."""
        path = str(tmp_path / "events.jsonl")
        with Telemetry(events_path=path) as telemetry:
            ScifiCampaign(_config(algorithm_i_compiled)).run(telemetry=telemetry)
        events = read_events(path)
        assert "worker_pool_respawned" not in {e["event"] for e in events}
        old = list(events)
        old.insert(
            1,
            {
                "schema_version": SCHEMA_VERSION,
                "event": "worker_pool_respawned",
                "ts": events[0]["ts"],
                "reason": "reference",
            },
        )
        with open(path, "w", encoding="utf-8") as handle:
            for record in old:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        assert read_events(path) == old
        assert campaign_status(old).to_dict() == campaign_status(events).to_dict()
        assert status_registry(campaign_status(old)).to_dict() == status_registry(
            campaign_status(events)
        ).to_dict()
        assert render_events_summary(old) == render_events_summary(events)


class TestObsCli:
    def test_campaign_events_metrics_workers(self, capsys, tmp_path):
        path = str(tmp_path / "events.jsonl")
        code = main(
            [
                "campaign",
                "--algorithm",
                "I",
                "--faults",
                "8",
                "--iterations",
                "25",
                "--seed",
                "3",
                "--workers",
                "2",
                "--events",
                path,
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Coverage" in out
        assert "Metrics" in out
        assert "Phase timings" in out
        assert f"events written to {path}" in out
        assert read_events(path)

        code = main(["obs", "--events", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Campaign telemetry" in out
        assert "8 experiments" in out
        assert "Outcomes" in out


class TestDatabaseMigration:
    OLD_SCHEMA = """
    CREATE TABLE campaigns (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        name TEXT NOT NULL,
        faults INTEGER NOT NULL,
        seed INTEGER NOT NULL,
        iterations INTEGER NOT NULL,
        partition_sizes TEXT NOT NULL,
        wall_seconds REAL NOT NULL
    );
    CREATE TABLE experiments (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
        partition TEXT NOT NULL,
        element TEXT NOT NULL,
        bit INTEGER NOT NULL,
        time INTEGER NOT NULL,
        category TEXT NOT NULL,
        mechanism TEXT,
        first_failure_iteration INTEGER,
        max_deviation REAL NOT NULL,
        early_exit_iteration INTEGER,
        timed_out INTEGER NOT NULL,
        instructions_executed INTEGER NOT NULL
    );
    """

    def _create_v1_database(self, path):
        conn = sqlite3.connect(path)
        conn.executescript(self.OLD_SCHEMA)
        conn.execute(
            "INSERT INTO campaigns (name, faults, seed, iterations,"
            " partition_sizes, wall_seconds) VALUES ('old', 5, 1, 10, '{}', 0.5)"
        )
        conn.commit()
        conn.close()

    def test_migration_on_open(self, tmp_path):
        path = str(tmp_path / "old.db")
        self._create_v1_database(path)
        with CampaignDatabase(path) as db:
            rows = db._conn.execute(
                "SELECT name, schema_version, created_at FROM campaigns"
            ).fetchall()
        assert rows == [("old", 1, None)]

    def test_new_rows_carry_version_and_timestamp(
        self, algorithm_i_compiled, tmp_path
    ):
        path = str(tmp_path / "new.db")
        self._create_v1_database(path)
        config = _config(algorithm_i_compiled, faults=5, iterations=20)
        with CampaignDatabase(path) as db:
            ScifiCampaign(config, database=db).run()
            version, created_at = db._conn.execute(
                "SELECT schema_version, created_at FROM campaigns"
                " WHERE name = 'obs-test'"
            ).fetchone()
        assert version == DB_SCHEMA_VERSION
        assert created_at is not None and "T" in created_at

    def test_fresh_database_has_current_schema(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        with CampaignDatabase(path):
            pass
        conn = sqlite3.connect(path)
        columns = {row[1] for row in conn.execute("PRAGMA table_info(campaigns)")}
        conn.close()
        assert {"schema_version", "created_at"} <= columns
