"""Observability for fault-injection campaigns.

Everything a campaign reports flows through one event stream:

* :class:`EventLog` — schema-versioned JSONL event records, safe for
  worker processes via per-worker shard files;
* :class:`CampaignStatusReducer` — the one fold of that stream into a
  :class:`CampaignStatus` (progress, health, outcome counts per class
  and mechanism, histograms, recovery counters);
* :func:`status_registry` — the one function that builds a
  :class:`MetricsRegistry` from a status: ``repro campaign --metrics``
  and the Prometheus export (:func:`prometheus_text`) both read it;
* :class:`Tracer` — nested ``span("injection")``-style phase timings.

:class:`Telemetry` bundles them for
:meth:`repro.goofi.campaign.ScifiCampaign.run`.  Everything is opt-in: a
campaign run without a telemetry bundle takes one ``is None`` branch
per hook and allocates nothing.
"""

from repro.obs.events import (
    EVENT_TYPES,
    EventLog,
    SCHEMA_VERSION,
    merge_event_shards,
    parse_event_line,
    read_events,
)
from repro.obs.export import parse_metric_key, prometheus_text, status_registry
from repro.obs.follow import CampaignFollower, EventFollower
from repro.obs.metrics import (
    Counter,
    DETECTION_LATENCY_BUCKETS,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    INSTRUCTIONS_BUCKETS,
    MetricsRegistry,
)
from repro.obs.status import (
    CampaignStatus,
    CampaignStatusReducer,
    DEFAULT_STALL_AFTER,
    WorkerHealth,
    campaign_status,
    manifest_path_for,
    read_manifest,
    render_status,
    write_manifest,
)
from repro.obs.summary import render_events_summary
from repro.obs.telemetry import (
    Telemetry,
    campaign_finished_event,
    campaign_started_event,
    experiment_event,
    heartbeat_event,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "CampaignFollower",
    "CampaignStatus",
    "CampaignStatusReducer",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_STALL_AFTER",
    "DETECTION_LATENCY_BUCKETS",
    "EVENT_TYPES",
    "EventFollower",
    "EventLog",
    "Gauge",
    "Histogram",
    "INSTRUCTIONS_BUCKETS",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "Span",
    "Telemetry",
    "Tracer",
    "WorkerHealth",
    "campaign_finished_event",
    "campaign_started_event",
    "campaign_status",
    "experiment_event",
    "heartbeat_event",
    "manifest_path_for",
    "merge_event_shards",
    "parse_event_line",
    "parse_metric_key",
    "prometheus_text",
    "read_events",
    "read_manifest",
    "render_events_summary",
    "render_status",
    "status_registry",
    "write_manifest",
]
