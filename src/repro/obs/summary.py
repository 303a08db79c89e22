"""Post-hoc analysis of a campaign event file (``repro obs``).

Reads the JSONL stream an instrumented campaign produced and renders the
analysis-phase view: outcome counts, per-partition effectiveness rates,
the phase-timing table from the recorded spans, and a detection-latency
histogram drawn with the repository's :func:`ascii_chart`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.asciiplot import ascii_chart
from repro.errors import ObservabilityError
from repro.obs.metrics import DETECTION_LATENCY_BUCKETS


@dataclass
class EventSummary:
    """Aggregates extracted from one campaign event stream."""

    name: str = "campaign"
    faults: int = 0
    workers: int = 1
    seed: Optional[int] = None
    wall_seconds: Optional[float] = None
    experiments: int = 0
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    partition_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    mechanism_counts: Dict[str, int] = field(default_factory=dict)
    detection_latencies: List[int] = field(default_factory=list)
    spans: List[Dict[str, object]] = field(default_factory=list)
    worker_chunks: int = 0
    heartbeats: int = 0
    requeued_chunks: int = 0
    retried_experiments: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    resumed_experiments: int = 0
    aborted: bool = False
    #: Delta data-plane counters summed over every ``dataplane_stats``
    #: event (one per chunk); zero when the campaign
    #: ran with the legacy full-copy plane.
    restore_words_touched: int = 0
    delta_replay_iterations: int = 0
    full_restores: int = 0
    dataplane_reports: int = 0
    #: Locality-scheduler chunk-size adaptations.
    chunks_resized: int = 0


def summarize_events(events: Sequence[Dict[str, object]]) -> EventSummary:
    """Fold a parsed event stream into an :class:`EventSummary`."""
    if not events:
        raise ObservabilityError("event stream is empty")
    summary = EventSummary()
    for record in events:
        kind = record["event"]
        if kind == "campaign_started":
            summary.name = str(record.get("name", summary.name))
            summary.faults = int(record.get("faults", 0))
            summary.workers = int(record.get("workers", 1))
            seed = record.get("seed")
            summary.seed = int(seed) if seed is not None else None
        elif kind == "experiment_finished":
            summary.experiments += 1
            category = str(record["category"])
            summary.outcome_counts[category] = (
                summary.outcome_counts.get(category, 0) + 1
            )
            partition = str(record["partition"])
            per = summary.partition_counts.setdefault(partition, {})
            per[category] = per.get(category, 0) + 1
            mechanism = record.get("mechanism")
            if mechanism is not None:
                summary.mechanism_counts[str(mechanism)] = (
                    summary.mechanism_counts.get(str(mechanism), 0) + 1
                )
            latency = record.get("detection_latency")
            if latency is not None:
                summary.detection_latencies.append(int(latency))
        elif kind == "worker_chunk_done":
            summary.worker_chunks += 1
        elif kind == "worker_heartbeat":
            summary.heartbeats += 1
        elif kind == "campaign_finished":
            summary.wall_seconds = float(record["wall_seconds"])
        elif kind == "span":
            summary.spans.append(record)
        elif kind == "chunk_requeued":
            summary.requeued_chunks += 1
            summary.retried_experiments += int(record.get("experiments", 0))
        elif kind == "experiment_quarantined":
            summary.quarantined += 1
        elif kind == "worker_pool_rebuilt":
            summary.pool_rebuilds += 1
        elif kind == "serial_fallback":
            summary.serial_fallbacks += 1
        elif kind == "campaign_resumed":
            summary.resumed_experiments += int(record.get("completed", 0))
        elif kind == "campaign_aborted":
            summary.aborted = True
        elif kind == "dataplane_stats":
            summary.dataplane_reports += 1
            summary.restore_words_touched += int(
                record.get("restore_words_touched", 0)
            )
            summary.delta_replay_iterations += int(
                record.get("delta_replay_iterations", 0)
            )
            summary.full_restores += int(record.get("full_restores", 0))
        elif kind == "chunk_resized":
            summary.chunks_resized += 1
    return summary


def _latency_chart(latencies: Sequence[int]) -> str:
    """Bucket the latencies and draw counts-per-bucket as an ASCII chart."""
    bounds = list(DETECTION_LATENCY_BUCKETS)
    counts = [0] * (len(bounds) + 1)
    for latency in latencies:
        for i, bound in enumerate(bounds):
            if latency <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    # X axis: bucket index (log-spaced bounds render unreadably as raw
    # instruction counts); the labels under the chart list the bounds.
    positions = list(range(len(counts)))
    chart = ascii_chart(
        positions,
        [counts],
        ["detections per latency bucket"],
        title="Detection latency (instructions from injection to detection)",
        height=12,
        y_min=0.0,
        x_label="latency bucket",
    )
    bound_labels = ", ".join(
        f"{i}:≤{bound:g}" for i, bound in enumerate(bounds)
    ) + f", {len(bounds)}:>{bounds[-1]:g}"
    return chart + "\nbucket bounds: " + bound_labels


def render_events_summary(events: Sequence[Dict[str, object]]) -> str:
    """The full ``repro obs`` report for a parsed event stream."""
    summary = summarize_events(events)
    lines: List[str] = []
    header = f"Campaign telemetry: {summary.name}"
    if summary.seed is not None:
        header += f" (seed {summary.seed})"
    lines.append(header)
    meta = f"{summary.experiments} experiments"
    if summary.faults:
        meta += f" of {summary.faults} planned"
    meta += f", {summary.workers} worker(s)"
    if summary.worker_chunks:
        meta += f", {summary.worker_chunks} chunk(s)"
    if summary.heartbeats:
        meta += f", {summary.heartbeats} heartbeat(s)"
    if summary.wall_seconds is not None:
        meta += f", {summary.wall_seconds:.2f} s wall"
    lines.append(meta)

    lines.append("")
    lines.append("Outcomes")
    total = summary.experiments or 1
    for category in sorted(summary.outcome_counts):
        count = summary.outcome_counts[category]
        lines.append(f"  {category:<28} {count:>8d}  {100.0 * count / total:6.2f}%")

    if summary.partition_counts:
        lines.append("")
        lines.append("Per-partition rates")
        for partition in sorted(summary.partition_counts):
            per = summary.partition_counts[partition]
            part_total = sum(per.values())
            detected = per.get("detected", 0)
            failures = sum(
                count
                for category, count in per.items()
                if category.startswith(("severe", "minor"))
            )
            lines.append(
                f"  {partition:<12} {part_total:>8d} experiments"
                f"  detected {100.0 * detected / part_total:6.2f}%"
                f"  value failures {100.0 * failures / part_total:6.2f}%"
            )

    recovery_acted = (
        summary.requeued_chunks
        or summary.quarantined
        or summary.pool_rebuilds
        or summary.serial_fallbacks
        or summary.resumed_experiments
        or summary.aborted
    )
    if recovery_acted:
        lines.append("")
        lines.append("Recovery")
        if summary.resumed_experiments:
            lines.append(
                f"  resumed experiments            {summary.resumed_experiments:>8d}"
            )
        if summary.requeued_chunks:
            lines.append(
                f"  requeued chunks                {summary.requeued_chunks:>8d}"
                f"  ({summary.retried_experiments} experiments retried)"
            )
        if summary.pool_rebuilds:
            lines.append(
                f"  worker pool rebuilds           {summary.pool_rebuilds:>8d}"
            )
        if summary.serial_fallbacks:
            lines.append(
                f"  serial fallbacks               {summary.serial_fallbacks:>8d}"
            )
        if summary.quarantined:
            lines.append(
                f"  quarantined experiments        {summary.quarantined:>8d}"
            )
        if summary.aborted:
            lines.append("  campaign aborted (resumable)")

    if summary.dataplane_reports or summary.chunks_resized:
        lines.append("")
        lines.append("Data plane")
        lines.append(
            f"  restore words touched          {summary.restore_words_touched:>8d}"
        )
        lines.append(
            f"  delta replay iterations        {summary.delta_replay_iterations:>8d}"
        )
        lines.append(
            f"  full restores                  {summary.full_restores:>8d}"
        )
        if summary.chunks_resized:
            lines.append(
                f"  scheduler chunk resizes        {summary.chunks_resized:>8d}"
            )

    if summary.mechanism_counts:
        lines.append("")
        lines.append("Detection mechanisms")
        for mechanism, count in sorted(
            summary.mechanism_counts.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"  {mechanism:<32} {count:>8d}")

    if summary.spans:
        lines.append("")
        lines.append("Phase timings")
        for span in summary.spans:
            label = "  " * (int(span.get("depth", 0)) + 1) + str(span["name"])
            seconds = span.get("seconds")
            rendered = f"{float(seconds):.4f} s" if seconds is not None else "(open)"
            lines.append(f"{label:<40} {rendered:>12}")

    if summary.detection_latencies:
        lines.append("")
        lines.append(_latency_chart(summary.detection_latencies))
    return "\n".join(lines)
