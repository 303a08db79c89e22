"""Post-hoc report of a campaign event stream (``repro obs``).

Folds the stream with :class:`~repro.obs.status.CampaignStatusReducer`
— the one fold every metric surface reads — and renders the
analysis-phase view of the resulting
:class:`~repro.obs.status.CampaignStatus`: outcome counts, per-partition
effectiveness rates, recovery and data-plane counters, the phase-timing
table from the recorded spans, and the detection-latency histogram
drawn with the repository's :func:`ascii_chart`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.asciiplot import ascii_chart
from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram
from repro.obs.status import campaign_status


def _latency_chart(histogram: Histogram) -> str:
    """Draw the detection-latency histogram's counts per bucket."""
    bounds = histogram.buckets
    # X axis: bucket index (log-spaced bounds render unreadably as raw
    # instruction counts); the labels under the chart list the bounds.
    chart = ascii_chart(
        list(range(len(histogram.counts))),
        [histogram.counts],
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
    if not events:
        raise ObservabilityError("event stream is empty")
    status = campaign_status(events)
    lines: List[str] = []
    header = f"Campaign telemetry: {status.name}"
    if status.seed is not None:
        header += f" (seed {status.seed})"
    lines.append(header)
    meta = f"{status.done} experiments"
    if status.total:
        meta += f" of {status.total} planned"
    meta += f", {status.workers} worker(s)"
    chunks = sum(health.chunks for health in status.worker_health)
    if chunks:
        meta += f", {chunks} chunk(s)"
    if status.wall_seconds is not None:
        meta += f", {status.wall_seconds:.2f} s wall"
    lines.append(meta)

    lines.append("")
    lines.append("Outcomes")
    total = sum(status.outcome_counts.values()) or 1
    for category in sorted(status.outcome_counts):
        count = status.outcome_counts[category]
        lines.append(f"  {category:<28} {count:>8d}  {100.0 * count / total:6.2f}%")

    if status.partition_counts:
        lines.append("")
        lines.append("Per-partition rates")
        for partition in sorted(status.partition_counts):
            per = status.partition_counts[partition]
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

    recovery = [
        ("resumed experiments", status.resumed, ""),
        (
            "requeued chunks",
            status.requeued_chunks,
            f"  ({status.retried_experiments} experiments retried)",
        ),
        ("worker pool rebuilds", status.pool_rebuilds, ""),
        ("serial fallbacks", status.serial_fallbacks, ""),
        ("quarantined experiments", status.quarantined, ""),
    ]
    aborted = status.state == "aborted"
    if aborted or any(count for _label, count, _note in recovery):
        lines.append("")
        lines.append("Recovery")
        for label, count, note in recovery:
            if count:
                lines.append(f"  {label:<30} {count:>8d}{note}")
        if aborted:
            lines.append("  campaign aborted (resumable)")

    if status.dataplane_reports or status.chunks_resized:
        lines.append("")
        lines.append("Data plane")
        lines.append(
            f"  restore words touched          {status.restore_words_touched:>8d}"
        )
        lines.append(
            f"  delta replay iterations        {status.delta_replay_iterations:>8d}"
        )
        lines.append(
            f"  full restores                  {status.full_restores:>8d}"
        )
        if status.chunks_resized:
            lines.append(
                f"  scheduler chunk resizes        {status.chunks_resized:>8d}"
            )

    if status.mechanism_counts:
        lines.append("")
        lines.append("Detection mechanisms")
        for mechanism, count in sorted(
            status.mechanism_counts.items(), key=lambda item: (-item[1], item[0])
        ):
            lines.append(f"  {mechanism:<32} {count:>8d}")

    if status.spans:
        lines.append("")
        lines.append("Phase timings")
        for span in status.spans:
            label = "  " * (int(span.get("depth", 0)) + 1) + str(span["name"])
            seconds = span.get("seconds")
            rendered = f"{float(seconds):.4f} s" if seconds is not None else "(open)"
            lines.append(f"{label:<40} {rendered:>12}")

    if status.detection_latency.count:
        lines.append("")
        lines.append(_latency_chart(status.detection_latency))
    return "\n".join(lines)
