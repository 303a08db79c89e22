"""The telemetry bundle handed to a campaign run.

:class:`Telemetry` groups what a campaign run can record — a
:class:`~repro.obs.trace.Tracer`, an optional
:class:`~repro.obs.events.EventLog`, and a
:class:`~repro.obs.status.CampaignStatusReducer` folding the events the
run emits into its metrics — behind one object that campaign code can
treat uniformly.  A campaign run with ``telemetry=None`` (the default)
takes a single ``is None`` branch per hook, so the instrumented code
paths cost nothing when observability is off.

The per-experiment payload helpers live here (not as methods) so the
campaign's plan-order recorder and the chunk runner (in a pool worker
or in-process) share one definition of each payload.
"""

from __future__ import annotations

import glob
import os
from contextlib import nullcontext
from typing import ContextManager, Dict, Optional

from repro.obs.events import EventLog, now
from repro.obs.export import status_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.status import CampaignStatusReducer, manifest_path_for
from repro.obs.trace import Tracer


class Telemetry:
    """Metrics + tracing + events for one campaign run.

    Args:
        events_path: JSONL event-file destination (None: no event log).
        metrics: fold every event the run emits into a
            :class:`~repro.obs.status.CampaignStatusReducer`, read back
            as :attr:`metrics` (default True).
        tracer: collect phase spans (default True).
        append: open the event log in append mode — a resumed campaign
            continues the original run's log instead of truncating it,
            so the combined file holds the campaign's full history.
    """

    def __init__(
        self,
        events_path: Optional[str] = None,
        metrics: bool = True,
        tracer: bool = True,
        append: bool = False,
    ):
        self.reducer: Optional[CampaignStatusReducer] = (
            CampaignStatusReducer() if metrics else None
        )
        self.tracer: Optional[Tracer] = Tracer() if tracer else None
        self.events: Optional[EventLog] = (
            EventLog(events_path, mode="a" if append else "w") if events_path else None
        )
        self._finished = False

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The run's metrics, built from the fold of what it emitted:
        the deterministic families only (counters, histograms, reference
        gauges), so serial and parallel runs of one plan build equal
        registries.  ``None`` when metrics are off."""
        if self.reducer is None:
            return None
        return status_registry(self.reducer.status(), progress=False)

    def span(self, name: str) -> ContextManager:
        """A tracer span, or a null context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def emit(self, event: str, **payload: object) -> None:
        """Emit an event: fold it into the metrics and write it to the
        event log, whichever is on."""
        if self.reducer is not None:
            self.reducer.fold({"event": event, **payload})
        if self.events is not None:
            self.events.emit(event, **payload)

    def shard_path(self, worker_index: int) -> Optional[str]:
        """The shard file a worker process should write, if events are on."""
        if self.events is None:
            return None
        return f"{self.events.path}.shard{worker_index}"

    @property
    def manifest_path(self) -> Optional[str]:
        """The campaign manifest sidecar path, if events are on."""
        if self.events is None:
            return None
        return manifest_path_for(self.events.path)

    def remove_stale_shards(self) -> int:
        """Delete leftover shard files from an earlier (aborted) run.

        A crashed parallel campaign can leave partial ``.shard<N>``
        files behind; a new run over the same events path must not let a
        live status poll (or the end-of-run merge) pick up their stale
        records.  Returns the number removed.
        """
        if self.events is None:
            return 0
        stale = glob.glob(glob.escape(self.events.path) + ".shard*")
        for path in stale:
            try:
                os.remove(path)
            except OSError:
                pass
        return len(stale)

    def checkpoint(self) -> None:
        """Make the live telemetry surface current: flush the event log.

        Campaign code calls this at chunk boundaries, which is
        what makes ``repro obs status``/``watch`` able to read a running
        campaign — without the flush, buffered events would sit in this
        process until the run ended.
        """
        if self.events is not None:
            self.events.flush()

    def finish(self) -> None:
        """Emit the tracer's spans and flush the event log.

        Idempotent: campaign runs call it in a ``finally``-style path so
        a crashed or aborted campaign still flushes its events for
        post-mortem ``repro obs`` — spans are emitted once, the flush
        happens every time.
        """
        if self.events is None:
            return
        if not self._finished:
            self._finished = True
            if self.tracer is not None:
                for span in self.tracer.spans:
                    self.events.emit(
                        "span",
                        name=span.name,
                        depth=span.depth,
                        seconds=span.seconds,
                    )
        self.events.flush()

    def close(self) -> None:
        """Close the event log (idempotent)."""
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# -- shared payload helpers (campaign recorder and chunk runner) ---------------
def experiment_event(index: int, run, outcome) -> Dict[str, object]:
    """The deterministic ``experiment_finished`` payload for one run."""
    detection_latency = None
    if run.detection is not None:
        detection_latency = run.detection.instruction_index - run.fault.time
    return {
        "index": index,
        "partition": run.fault.target.partition,
        "element": run.fault.target.element,
        "bit": run.fault.target.bit,
        "injection_time": run.fault.time,
        "category": outcome.category.value,
        "mechanism": outcome.mechanism,
        "detected_iteration": run.detected_iteration,
        "detection_latency": detection_latency,
        "early_exit_iteration": run.early_exit_iteration,
        "timed_out": run.timed_out,
        "instructions": run.instructions_executed,
        "pruned": getattr(run, "predicted", False),
    }


def heartbeat_event(
    worker: int, done: int, total: int, seconds: float
) -> Dict[str, object]:
    """The ``worker_heartbeat`` payload for one liveness report.

    Emitted by the chunk runner into its chunk's shard every
    ``RecoveryPolicy.heartbeat_every`` experiments and at chunk end,
    carrying chunk progress and throughput — whether the chunk ran in a
    pool worker or, for a serial campaign, in the parent.  ``pid``
    identifies the reporting process across chunk submissions, which is
    what the status reducer keys per-worker health on.
    """
    return {
        "ts": now(),
        "pid": os.getpid(),
        "worker": worker,
        "done": done,
        "total": total,
        "seconds": seconds,
        "throughput": (done / seconds) if seconds > 0 else None,
    }


def campaign_started_event(config, workers: int) -> Dict[str, object]:
    """The ``campaign_started`` payload for a campaign configuration."""
    return {
        "ts": now(),
        "name": config.name,
        "faults": config.faults,
        "seed": config.seed,
        "iterations": config.iterations,
        "partitions": list(config.partitions) if config.partitions else None,
        "workers": workers,
    }


def campaign_finished_event(outcomes, wall_seconds: float) -> Dict[str, object]:
    """The ``campaign_finished`` payload: wall time + outcome counts."""
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.category.value] = counts.get(outcome.category.value, 0) + 1
    return {
        "ts": now(),
        "wall_seconds": wall_seconds,
        "experiments": len(outcomes),
        "outcomes": counts,
    }
