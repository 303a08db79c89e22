"""Metrics from the event fold, and their Prometheus text rendering.

:func:`status_registry` is the one function that builds a
:class:`~repro.obs.metrics.MetricsRegistry`: it turns a
:class:`~repro.obs.status.CampaignStatus` — the fold of a campaign's
event stream — into counters, histograms and gauges.  ``repro campaign
--metrics`` prints the registry built from the records the campaign
emitted; ``repro obs export`` builds it from event files and adds the
progress gauges (``campaign_*``) of the status snapshot, then
:func:`prometheus_text` renders it in the Prometheus text exposition
format (version 0.0.4), with the repository's ``name{a=b}`` instrument
keys mapped onto ``repro_``-prefixed metric families and proper label
escaping.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.status import CampaignStatus

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key (``name{a=1,b=2}`` or ``name``) back apart."""
    if "{" not in key:
        return key, {}
    if not key.endswith("}"):
        raise ObservabilityError(f"malformed metric key {key!r}")
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in inner[:-1].split(","):
        if not pair:
            continue
        label, sep, value = pair.partition("=")
        if not sep:
            raise ObservabilityError(f"malformed metric key {key!r}")
        labels[label] = value
    return name, labels


def _metric_name(name: str, prefix: str) -> str:
    return prefix + _NAME_SANITIZE.sub("_", name)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_SANITIZE.sub("_", label)}="{_escape_label_value(str(value))}"'
        for label, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters are exported as ``<prefix><name>_total``, gauges as
    ``<prefix><name>`` and histograms as the conventional
    ``_bucket``/``_sum``/``_count`` triple with cumulative ``le``
    buckets.  Families are sorted by name so the output is stable for
    tests and diffs.
    """
    lines: List[str] = []

    grouped: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for key, counter in registry.counters.items():
        name, labels = parse_metric_key(key)
        grouped.setdefault(name, []).append((labels, counter.value))
    for name in sorted(grouped):
        family = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {family} counter")
        for labels, value in grouped[name]:
            lines.append(f"{family}{_label_text(labels)} {_format_value(value)}")

    gauge_grouped: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for key, gauge in registry.gauges.items():
        if gauge.value is None:
            continue
        name, labels = parse_metric_key(key)
        gauge_grouped.setdefault(name, []).append((labels, gauge.value))
    for name in sorted(gauge_grouped):
        family = _metric_name(name, prefix)
        lines.append(f"# TYPE {family} gauge")
        for labels, value in gauge_grouped[name]:
            lines.append(f"{family}{_label_text(labels)} {_format_value(value)}")

    histogram_grouped: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
    for key, histogram in registry.histograms.items():
        name, labels = parse_metric_key(key)
        histogram_grouped.setdefault(name, []).append((labels, histogram))
    for name in sorted(histogram_grouped):
        family = _metric_name(name, prefix)
        lines.append(f"# TYPE {family} histogram")
        for labels, histogram in histogram_grouped[name]:
            cumulative = 0
            for bound, count in zip(histogram.buckets, histogram.counts):
                cumulative += count
                lines.append(
                    f"{family}_bucket"
                    f"{_label_text(labels, {'le': _format_value(bound)})}"
                    f" {cumulative}"
                )
            lines.append(
                f"{family}_bucket{_label_text(labels, {'le': '+Inf'})}"
                f" {histogram.count}"
            )
            lines.append(
                f"{family}_sum{_label_text(labels)} {_format_value(histogram.total)}"
            )
            lines.append(f"{family}_count{_label_text(labels)} {histogram.count}")
    return "\n".join(lines) + "\n"


# -- metrics from a status ------------------------------------------------------
#: The state gauge's encoding of :attr:`CampaignStatus.state`.
_STATE_VALUES = {"running": 1, "finished": 2, "aborted": 3, "stalled": 4}


def status_registry(status: CampaignStatus, progress: bool = True) -> MetricsRegistry:
    """The metrics of one campaign status snapshot.

    Always: the per-experiment counters and histograms folded from
    ``experiment_finished``, the recovery counters, and the reference
    gauges.  These are deterministic for a plan, so serial and parallel
    runs build identical registries.  ``progress`` adds the
    ``campaign_*`` gauges of the snapshot itself (progress, rate, ETA,
    worker health), which depend on time and schedule.
    """
    registry = MetricsRegistry()
    for partition, counts in status.partition_counts.items():
        for category, count in counts.items():
            registry.counter(
                "experiments", partition=partition, category=category
            ).inc(count)
    for mechanism, count in status.mechanism_counts.items():
        registry.counter("detections", mechanism=mechanism).inc(count)
    for prediction, count in status.pruned_counts.items():
        registry.counter("pruned_experiments", prediction=prediction).inc(count)
    for name, value in (
        ("simulated_experiments", status.simulated),
        ("early_exits", status.early_exits),
        ("timeouts", status.timeouts),
        ("resumed_experiments", status.resumed),
        ("quarantined_experiments", status.quarantined),
        ("requeued_chunks", status.requeued_chunks),
        ("retries", status.retried_experiments),
        ("worker_pool_rebuilds", status.pool_rebuilds),
        ("serial_fallbacks", status.serial_fallbacks),
    ):
        if value:
            registry.counter(name).inc(value)
    for name, histogram in (
        ("detection_latency_instructions", status.detection_latency),
        ("instructions_per_experiment", status.instructions),
    ):
        if histogram.count:
            registry.histograms[name] = replace(
                histogram, counts=list(histogram.counts)
            )
    if status.reference_instructions is not None:
        registry.gauge("reference_instructions").set(status.reference_instructions)
    if status.reference_payload_bytes is not None:
        registry.gauge("reference_payload_bytes").set(status.reference_payload_bytes)
    if not progress:
        return registry
    registry.gauge("campaign_experiments_total").set(status.total)
    registry.gauge("campaign_experiments_done").set(status.done)
    registry.gauge("campaign_experiments_pruned").set(status.pruned)
    registry.gauge("campaign_experiments_resumed").set(status.resumed)
    registry.gauge("campaign_workers").set(status.workers)
    registry.gauge("campaign_state").set(_STATE_VALUES.get(status.state, 0))
    if status.throughput is not None:
        registry.gauge("campaign_throughput_experiments_per_second").set(
            status.throughput
        )
    if status.eta_seconds is not None:
        registry.gauge("campaign_eta_seconds").set(status.eta_seconds)
    if status.elapsed_seconds is not None:
        registry.gauge("campaign_elapsed_seconds").set(status.elapsed_seconds)
    stalled = sum(1 for health in status.worker_health if health.state == "stalled")
    if status.worker_health:
        registry.gauge("campaign_workers_stalled").set(stalled)
    for category, count in status.outcome_counts.items():
        registry.gauge("campaign_outcomes", category=category).set(count)
    return registry
