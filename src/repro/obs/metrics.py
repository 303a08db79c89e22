"""Campaign metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the numeric half of the observability
layer, holding three instrument kinds:

* **counters** — monotonically increasing event counts (experiments per
  outcome category, detections per mechanism, early exits, timeouts);
* **gauges** — last-observed values (reference-run instruction count);
* **histograms** — fixed-bucket distributions (detection latency in
  instructions, dynamic instructions per experiment).

Instruments are identified by a name plus optional labels; the same
``name{label=value}`` key always resolves to the same instrument.
Campaign code does not record into a registry directly: every registry
is built from one fold of the campaign's event stream
(:func:`repro.obs.export.status_registry` over a
:class:`~repro.obs.status.CampaignStatus`), so serial and parallel runs,
the ``--metrics`` print and the Prometheus export agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Upper bucket bounds (dynamic instructions between injection and the
#: detection event) for the detection-latency histogram.  Roughly
#: logarithmic: the paper's EDMs mostly fire within a few hundred
#: instructions, while control-flow and data errors can simmer for
#: whole iterations.
DETECTION_LATENCY_BUCKETS: Tuple[float, ...] = (
    10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0,
    10_000.0, 30_000.0, 100_000.0, 300_000.0,
)

#: Upper bucket bounds for the instructions-per-experiment histogram
#: (early exits finish in thousands; full 650-iteration runs in hundreds
#: of thousands).
INSTRUCTIONS_BUCKETS: Tuple[float, ...] = (
    1_000.0, 3_000.0, 10_000.0, 30_000.0,
    100_000.0, 300_000.0, 1_000_000.0,
)

#: Fallback bounds for ad-hoc histograms created without explicit buckets.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
)


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """The registry key for ``name`` with ``labels`` (sorted, stable)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        if amount < 0:
            raise ObservabilityError("counters only increase")
        self.value += amount


@dataclass
class Gauge:
    """A last-observed value."""

    value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record ``value`` as the current observation."""
        self.value = float(value)


@dataclass
class Histogram:
    """A fixed-bucket distribution.

    ``buckets`` holds ascending upper bounds; ``counts`` has one slot per
    bound plus a final overflow slot.  Count, sum, min and max are kept
    exactly.
    """

    buckets: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ObservabilityError("histogram buckets must be ascending and non-empty")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        elif len(self.counts) != len(self.buckets) + 1:
            raise ObservabilityError("histogram counts must match buckets + overflow")

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of the recorded samples (None when empty)."""
        return self.total / self.count if self.count else None


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument access ----------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name``/``labels``, created on first use."""
        key = metric_key(name, labels)
        instrument = self.counters.get(key)
        if instrument is None:
            instrument = self.counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name``/``labels``, created on first use."""
        key = metric_key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            instrument = self.gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """The histogram for ``name``/``labels``, created on first use.

        ``buckets`` fixes the bounds at creation; later calls may omit it
        but must not disagree with the existing bounds.
        """
        key = metric_key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
            instrument = self.histograms[key] = Histogram(buckets=bounds)
        elif buckets is not None and tuple(float(b) for b in buckets) != instrument.buckets:
            raise ObservabilityError(
                f"histogram {key!r} already exists with buckets {instrument.buckets!r}"
            )
        return instrument

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A picklable/JSON-able snapshot of every instrument."""
        return {
            "counters": {k: c.value for k, c in self.counters.items()},
            "gauges": {k: g.value for k, g in self.gauges.items()},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                }
                for k, h in self.histograms.items()
            },
        }

    # -- rendering -------------------------------------------------------------
    def render(self) -> str:
        """A fixed-width text dump of every instrument, sorted by key."""
        lines: List[str] = ["Metrics"]
        for key in sorted(self.counters):
            lines.append(f"  {key:<58} {self.counters[key].value:>12d}")
        for key in sorted(self.gauges):
            value = self.gauges[key].value
            rendered = "-" if value is None else f"{value:.6g}"
            lines.append(f"  {key:<58} {rendered:>12}")
        for key in sorted(self.histograms):
            h = self.histograms[key]
            mean = f"{h.mean:.1f}" if h.mean is not None else "-"
            lines.append(
                f"  {key:<58} {h.count:>12d}  (mean {mean}, "
                f"min {h.minimum if h.minimum is not None else '-'}, "
                f"max {h.maximum if h.maximum is not None else '-'})"
            )
            # The first bucket holds everything up to its bound, the
            # minimum included (a latency-0 detection is counted there).
            low = "[0" if h.minimum is not None and h.minimum >= 0 else "(-inf"
            for bound, count in zip(h.buckets, h.counts):
                if count:
                    lines.append(f"    {low}, {bound:g}]: {count}")
                low = f"({bound:g}"
            if h.counts[-1]:
                lines.append(f"    ({h.buckets[-1]:g}, inf): {h.counts[-1]}")
        return "\n".join(lines)
