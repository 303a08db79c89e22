"""Campaign orchestration: configuration, set-up, injection, analysis.

:class:`ScifiCampaign` drives a full fault-injection campaign against
the simulated CPU, following the paper's §3.3 flow and producing a
Tables 2/3-ready :class:`~repro.analysis.report.CampaignSummary`.  The
configured partitions pick the fault model — scan-chain flips (SCIFI),
stored-RAM flips or pre-runtime image faults — and only the set-up's
plan sampler depends on it: every model runs through the same
injection, persistence, recovery and telemetry path.

Every campaign runs its live plan through one execution loop
(:meth:`ScifiCampaign._execute`): plan chunks dispatched through a
lease-based work queue (:mod:`repro.goofi.workqueue`) to an executor —
a :class:`~repro.goofi.pool.ReferencePool` of worker processes, or for
a serial run the :class:`~repro.goofi.pool.InProcessExecutor` against
the campaign's own target.  The same queue semantics serve the
multi-process campaign service (:mod:`repro.service`).

Execution is crash-safe end to end (``docs/robustness.md``), and every
rule is written once, in that loop: failed chunks are requeued with
capped exponential backoff and bisected to isolate poison experiments
(the queue's ``nack``), a broken process pool is rebuilt (and once the
rebuilds run out, the loop carries on in-process), repeat offenders are
recorded with ``provenance='quarantined'`` instead of aborting the run,
one recorder streams every result into the database and the event log
in plan order, SIGINT and SIGTERM flush the recorded results and mark
the campaign ``aborted``, and ``run(resume_from=...)`` continues an
interrupted campaign to a summary and event history bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.classify import Outcome, classify_experiment
from repro.analysis.report import CampaignSummary, ClassifiedExperiment
from repro.errors import AbortRequested, CampaignAborted, CampaignError
from repro.faults.models import (
    CACHE_PARTITION,
    CODE_PARTITION,
    DATA_PARTITION,
    MEMORY_PARTITION,
    REGISTER_PARTITION,
    FaultDescriptor,
    LocationSpace,
    sample_fault_plan,
)
from repro.goofi.database import CampaignDatabase
from repro.goofi.environment import EngineEnvironment
from repro.goofi.memfault import memory_words, sample_memory_faults
from repro.goofi.pool import (
    InProcessExecutor,
    ReferencePool,
    WorkerPayload,
    worker_target,
)
from repro.goofi.prerun import image_words, sample_image_faults
from repro.goofi.pruning import preclassify_pairs, synthesize_run
from repro.goofi.recovery import (
    ChaosSpec,
    RecoveryPolicy,
    ResultSink,
    chaos_maybe_crash,
    check_fingerprint,
    config_fingerprint,
    quarantined_run,
)
from repro.goofi.target import ExperimentRun, ReferenceRun, TargetSystem
from repro.goofi.workqueue import LeasedJob, MemoryQueue, WorkQueue
from repro.obs.events import EventLog, merge_event_shards, now
from repro.obs.status import write_manifest
from repro.obs.telemetry import (
    Telemetry,
    campaign_finished_event,
    campaign_started_event,
    experiment_event,
    heartbeat_event,
)
from repro.plant.profiles import ITERATIONS
from repro.tcc.codegen import CompiledProgram


@dataclass
class CampaignConfig:
    """Set-up phase parameters (§3.3.2).

    Attributes:
        workload: the compiled workload to inject into.
        name: campaign label used in summaries and the database.
        faults: number of fault-injection experiments.
        seed: RNG seed for the uniform location/time sampling.
        iterations: loop iterations per experiment (paper: 650).
        partitions: the fault model and where it injects.  Scan-chain
            partitions (default: all — ``cache`` and ``registers``);
            ``["memory"]`` for stored-RAM bit flips at iteration
            boundaries; or ``["code-image"]`` / ``["code-image",
            "data-image"]`` for pre-runtime program-image faults.  One
            list never mixes fault models.
        watchdog_factor: experiment watchdog as a multiple of the longest
            fault-free iteration.
        early_exit: enable the provably-safe early termination when the
            faulted state re-converges to the reference.
        prune: record the reference run's def/use access trace and skip
            simulating faults whose outcome it proves (overwritten before
            the next read, or never touched again) — the predicted
            experiments classify identically to simulated ones, see
            ``docs/performance.md``.  Off by default.
        batch_size: live faults simulated concurrently through one
            shared dispatch loop (each on its own lane of CPU/cache/
            environment state); ``1`` (default) pins the classic one-
            at-a-time execution.  Proven outcome-invariant by the
            golden-equivalence gate.
        delta_dataplane: store the reference as a base snapshot plus
            per-iteration deltas and restore experiment state by
            unwinding an undo log of the touched words (see
            ``docs/performance.md``); ``False`` pins the legacy
            full-copy snapshot/restore plane.  Outcome-invariant, gated
            by the golden-equivalence suite.
        environment_factory: builds the environment simulator.
        recovery: retry/backoff/quarantine policy of the crash-safety
            machinery (``docs/robustness.md``); never affects outcomes,
            only how failures are survived.
        chaos: optional deterministic worker-crash injection used by the
            chaos tests and the CI smoke; ``None`` in production.
    """

    workload: CompiledProgram
    name: str = "campaign"
    faults: int = 500
    seed: int = 2001
    iterations: int = ITERATIONS
    partitions: Optional[List[str]] = None
    watchdog_factor: float = 10.0
    early_exit: bool = True
    prune: bool = False
    batch_size: int = 1
    delta_dataplane: bool = True
    environment_factory: Callable[[], EngineEnvironment] = EngineEnvironment
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    chaos: Optional[ChaosSpec] = None

    def __post_init__(self) -> None:
        if self.faults <= 0:
            raise CampaignError("faults must be positive")
        if self.iterations <= 0:
            raise CampaignError("iterations must be positive")
        if self.batch_size <= 0:
            raise CampaignError("batch_size must be positive")


#: The fault model each partition name belongs to.
_FAULT_MODELS = {
    CACHE_PARTITION: "scan-chain",
    REGISTER_PARTITION: "scan-chain",
    MEMORY_PARTITION: "memory",
    CODE_PARTITION: "image",
    DATA_PARTITION: "image",
}


def fault_model(partitions: Optional[List[str]]) -> str:
    """The one fault model a ``partitions`` list names: ``"scan-chain"``,
    ``"memory"`` or ``"image"``.  A :class:`CampaignError` for unknown
    names, mixed models, or data-image faults without code-image ones
    (the image sampler always draws code words).  A campaign checks this
    before its reference run; the CLI checks it before building one."""
    if not partitions:
        return "scan-chain"
    unknown = [name for name in partitions if name not in _FAULT_MODELS]
    if unknown:
        raise CampaignError(
            f"unknown partition(s) {unknown!r}; choose from "
            f"{sorted(_FAULT_MODELS)}"
        )
    models = {_FAULT_MODELS[name] for name in partitions}
    if len(models) > 1:
        raise CampaignError(
            f"partitions {list(partitions)!r} mix fault models "
            f"({', '.join(sorted(models))}); run one campaign per model"
        )
    model = models.pop()
    if model == "image" and CODE_PARTITION not in partitions:
        raise CampaignError("image faults need code-image (data-image is optional)")
    return model


@dataclass
class CampaignResult:
    """All experiments of one campaign, classified.

    Attributes:
        config: the campaign configuration.
        experiments: raw per-experiment observations.  For a resumed
            campaign, experiments completed before the interruption are
            reconstructed from the database (fault, termination fields
            and outcome, but no output trace).
        outcomes: §4.1 classification per experiment (same order).
        reference_outputs: the golden output sequence.
        partition_sizes: injectable bits per partition.
        wall_seconds: total injection-phase wall time (this run only).
    """

    config: CampaignConfig
    experiments: List[ExperimentRun]
    outcomes: List[Outcome]
    reference_outputs: List[float]
    partition_sizes: dict
    wall_seconds: float = 0.0

    def summary(self) -> CampaignSummary:
        """Aggregate into a Tables 2/3-ready summary."""
        records = [
            ClassifiedExperiment(partition=run.fault.target.partition, outcome=outcome)
            for run, outcome in zip(self.experiments, self.outcomes)
        ]
        return CampaignSummary(
            records=records,
            partition_sizes=self.partition_sizes,
            name=self.config.name,
        )


def _null_span(_name: str):
    """The zero-overhead stand-in for a tracer span."""
    return nullcontext()


def _run_chunk(args, target: Optional[TargetSystem] = None):
    """Run one chunk of the live plan and return its classified results.

    Top-level (picklable) by necessity.  In a pool worker it runs against
    the process-wide target system built by the pool initializer from
    the golden run the parent computed once and shipped, so no per-chunk
    reference run happens here; a serial campaign's
    :class:`~repro.goofi.pool.InProcessExecutor` passes the campaign's
    own ``target`` instead, and drops ``'exit'``-mode chaos, which
    models a worker kill and must never take down the parent.
    ``chunk`` carries ``(plan index, fault)`` pairs.  With
    ``batch_size > 1`` the chunk is cut into groups of that size and
    each group runs through the target's shared-dispatch batch engine —
    outcome-identical to one-at-a-time execution, just cheaper per
    instruction.

    The parent records every result (database row, ``experiment_finished``
    event, progress), so a chunk keeps only what is local to the process
    that ran it.  With events on, the chunk writes a shard file of
    its own — worker processes never share a file descriptor — holding a
    ``worker_heartbeat`` every ``heartbeat_every`` experiments and at
    chunk end (flushed, so a live ``repro obs status`` poll sees
    per-worker progress and throughput while the chunk runs) and the
    chunk's ``dataplane_stats``.

    Returns ``(results, seconds)`` where ``results`` holds
    ``(plan index, run, outcome)`` triples.
    """
    (
        chunk,
        submission_id,
        shard_path,
        early_exit,
        chaos,
        heartbeat_every,
        batch_size,
    ) = args
    if target is None:
        target = worker_target()
    elif chaos is not None and chaos.mode == "exit":
        chaos = None
    events = EventLog(shard_path) if shard_path else None
    started = time.perf_counter()
    results = []
    # A worker process outlives this chunk, and so does the campaign's
    # own target; reset the per-chunk batch size afterwards so it does
    # not leak into the next chunk or phase.
    previous_batch = target.batch_size
    target.batch_size = max(1, int(batch_size))
    try:
        reference_outputs = np.asarray(target.reference.outputs, dtype=float)
        group_size = target.batch_size
        for start in range(0, len(chunk), group_size):
            group = chunk[start : start + group_size]
            for index, _fault in group:
                chaos_maybe_crash(chaos, index)
            runs = target.run_experiment_batch(
                [fault for _index, fault in group], early_exit
            )
            for (index, _fault), run in zip(group, runs):
                outcome = ScifiCampaign._classify(run, reference_outputs)
                results.append((index, run, outcome))
                done = len(results)
                if events is not None and (
                    done == len(chunk)
                    or (heartbeat_every and done % heartbeat_every == 0)
                ):
                    events.emit(
                        "worker_heartbeat",
                        **heartbeat_event(
                            worker=submission_id,
                            done=done,
                            total=len(chunk),
                            seconds=time.perf_counter() - started,
                        ),
                    )
                    events.flush()
        # Delta-restore counters accumulated over this chunk.  These are
        # schedule-dependent (they vary with chunk composition), so they
        # travel as shard events and stay out of the metrics registry,
        # whose serial/parallel equality is a tested invariant.
        stats = target.take_dataplane_stats()
        if events is not None and stats is not None:
            events.emit("dataplane_stats", ts=now(), worker=submission_id, **stats)
    finally:
        target.batch_size = previous_batch
        if events is not None:
            events.close()
    return results, time.perf_counter() - started


class ScifiCampaign:
    """A fault-injection campaign (§3.3.1): scan-chain implemented
    (SCIFI) by default, or memory/pre-runtime image faults when the
    configured partitions say so."""

    def __init__(
        self,
        config: CampaignConfig,
        database: Optional[CampaignDatabase] = None,
    ):
        self.config = config
        self.database = database
        self.target = TargetSystem(
            workload=config.workload,
            environment=config.environment_factory(),
            iterations=config.iterations,
            watchdog_factor=config.watchdog_factor,
            batch_size=config.batch_size,
            environment_factory=config.environment_factory,
            delta_dataplane=config.delta_dataplane,
        )
        # Streaming-persistence state of the in-flight run, used by the
        # abort path to flush and mark the campaign resumable.
        self._sink: Optional[ResultSink] = None
        self._campaign_id: Optional[int] = None
        self._workers: int = 1

    def _sample_plan(
        self, model: str, reference: ReferenceRun
    ) -> Tuple[List[FaultDescriptor], Dict[str, int]]:
        """The seeded fault plan and the injectable bits per partition,
        drawn by the sampler of fault model ``model``."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        if model == "memory":
            plan = sample_memory_faults(self.target, config.faults, rng)
            words = memory_words(self.target.cpu.layout)
            return plan, {MEMORY_PARTITION: 32 * len(words)}
        if model == "image":
            include_data = DATA_PARTITION in config.partitions
            plan = sample_image_faults(
                config.workload, config.faults, rng, include_data
            )
            sizes: Dict[str, int] = {}
            for partition, _address in image_words(config.workload, include_data):
                sizes[partition] = sizes.get(partition, 0) + 32
            return plan, sizes
        space = self.target.scan_chain.location_space()
        if config.partitions:
            space = LocationSpace(
                [t for t in space if t.partition in config.partitions]
            )
        plan = sample_fault_plan(
            space=space,
            total_instructions=reference.total_instructions,
            count=config.faults,
            rng=rng,
        )
        return plan, {
            partition: space.partition_size(partition)
            for partition in space.partitions
        }

    def run(
        self,
        progress: Optional[Callable[[int, int, Outcome], None]] = None,
        workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        resume_from: Optional[int] = None,
    ) -> CampaignResult:
        """Execute the campaign: reference run, sampling, injection, analysis.

        Args:
            progress: optional callback ``(done, total, outcome)`` invoked
                for each experiment in plan order, as the plan-order
                prefix of results completes.
            workers: number of worker processes.  ``1`` (default) runs
                the chunks in this process; ``N > 1`` fans them out over
                a pool of N processes that lives for this run.  Either
                way the live plan runs through the same lease-queue
                chunk loop, in adaptively sized chunks drawn on demand
                (see ``docs/performance.md``), and the results are
                bit-identical (every experiment is independent and fully
                determined by its fault).
            telemetry: optional :class:`~repro.obs.Telemetry` bundle.
                When given, the run records phase spans and JSONL
                events, and folds its events into metrics; worker shards
                are merged so serial and parallel runs report identical
                aggregate telemetry.  ``None`` (default) is a no-op.
            resume_from: continue the stored campaign with this database
                id: its completed experiments are reloaded, the fault
                plan is re-derived from the stored seed/config (refusing
                on any outcome-relevant mismatch) and only the remainder
                is simulated.  The resumed summary is bit-identical to
                an uninterrupted run's.  Requires a database.

        Raises:
            CampaignAborted: the run was interrupted (SIGINT, SIGTERM or
                an :class:`~repro.errors.AbortRequested` raised from the
                progress callback); in-flight results were flushed and
                the campaign row (if any) is marked ``aborted`` — pass
                its id back as ``resume_from`` to continue.  The
                exception's ``reason`` says which (``"sigint"``,
                ``"sigterm"``, or the requested reason such as
                ``"cancel"``), which the CLI maps to distinct exit
                codes.
        """
        config = self.config
        if resume_from is not None and self.database is None:
            raise CampaignError("resume_from requires a campaign database")
        span = telemetry.span if telemetry is not None else _null_span
        if telemetry is not None:
            telemetry.emit(
                "campaign_started", **campaign_started_event(config, workers)
            )

        self._sink = None
        self._campaign_id = None
        # A SIGINT (operator Ctrl-C) or SIGTERM (service supervisor
        # stopping a worker) must stop the campaign *between* database
        # commits: the handlers raise KeyboardInterrupt (SIGTERM through
        # the AbortRequested subclass, so the reason survives), and the
        # abort path below flushes in-flight results and marks the
        # campaign resumable.
        previous_handlers: List[Tuple[int, object]] = []
        for signum, handler in (
            (signal.SIGINT, self._handle_sigint),
            (signal.SIGTERM, self._handle_sigterm),
        ):
            try:
                previous_handlers.append((signum, signal.signal(signum, handler)))
            except ValueError:
                pass  # not in the main thread

        try:
            result = self._run_phases(
                progress, workers, telemetry, span, resume_from
            )
        except KeyboardInterrupt as exc:
            reason = getattr(exc, "reason", None) or "sigint"
            campaign_id = self._abort(telemetry, reason=reason)
            hint = (
                f" — resume with run(resume_from={campaign_id})"
                if campaign_id is not None
                else ""
            )
            raise CampaignAborted(
                f"campaign interrupted{hint}",
                campaign_id=campaign_id,
                reason=reason,
            ) from None
        except BaseException:
            # Flush whatever telemetry and results exist so post-mortem
            # `repro obs` works, mark the campaign resumable, re-raise.
            self._abort(telemetry, reason="error")
            raise
        finally:
            for signum, previous in previous_handlers:
                try:
                    signal.signal(signum, previous)
                except (ValueError, TypeError):
                    pass
            self._sink = None
        return result

    @staticmethod
    def _handle_sigint(_signum, _frame) -> None:
        raise KeyboardInterrupt

    @staticmethod
    def _handle_sigterm(_signum, _frame) -> None:
        raise AbortRequested("sigterm")

    def _abort(
        self, telemetry: Optional[Telemetry], reason: str = "sigint"
    ) -> Optional[int]:
        """Best-effort cleanup on interruption: flush streamed results,
        mark the campaign row aborted (resumable), flush telemetry.

        Never raises — the caller is already propagating the original
        failure.
        """
        campaign_id = self._campaign_id
        sink = self._sink
        stored = 0
        if sink is not None:
            try:
                sink.flush()
            except Exception:
                pass
            stored = sink.stored
        if campaign_id is not None and self.database is not None:
            try:
                self.database.abort_campaign(campaign_id)
            except Exception:
                pass
        if telemetry is not None:
            try:
                telemetry.emit(
                    "campaign_aborted",
                    ts=now(),
                    campaign_id=campaign_id,
                    completed=stored,
                    reason=reason,
                )
                telemetry.finish()
            except Exception:
                pass
            try:
                self._write_manifest(telemetry, "aborted", self._workers)
            except Exception:
                pass
        return campaign_id

    def _write_manifest(
        self,
        telemetry: Optional[Telemetry],
        status: str,
        workers: int,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """(Re)write the campaign's ``manifest.json`` sidecar.

        The manifest maps the event stream back to its identity and
        artifacts — config fingerprint, seed, campaign id, event log and
        database paths — so ``repro obs status`` (and the service tier
        above it) can correlate a log with its stored results without
        parsing either.
        """
        if telemetry is None or telemetry.manifest_path is None:
            return
        config = self.config
        write_manifest(
            telemetry.manifest_path,
            {
                "status": status,
                "name": config.name,
                "seed": config.seed,
                "faults": config.faults,
                "iterations": config.iterations,
                "workers": workers,
                "fingerprint": config_fingerprint(config),
                "campaign_id": self._campaign_id,
                "wall_seconds": wall_seconds,
                "updated_ts": now(),
                "artifacts": {
                    "events": telemetry.events.path,
                    "database": (
                        self.database.path if self.database is not None else None
                    ),
                },
            },
        )

    def _run_phases(
        self,
        progress,
        workers: int,
        telemetry: Optional[Telemetry],
        span,
        resume_from: Optional[int],
    ) -> CampaignResult:
        config = self.config
        model = fault_model(config.partitions)
        with span("campaign"):
            with span("reference_run"):
                reference = self.target.run_reference(record_access=config.prune)
                if telemetry is not None:
                    costs = {"instructions": reference.total_instructions}
                    if telemetry.reducer is not None:
                        # What one worker initialisation would ship;
                        # measured here, not in the worker fan-out, so
                        # serial and parallel runs report it alike.
                        costs["payload_bytes"] = len(pickle.dumps(reference))
                    telemetry.emit("reference_run", ts=now(), **costs)
            with span("set_up"):
                plan, partition_sizes = self._sample_plan(model, reference)

            # Open (or reopen) the campaign row; completed experiments of
            # a resumed campaign are reloaded and never re-simulated.
            resumed_results: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
            campaign_id: Optional[int] = None
            if self.database is not None:
                fingerprint = config_fingerprint(config)
                if resume_from is not None:
                    with span("resume"):
                        resumed_results = self._load_resume_state(
                            resume_from, fingerprint, plan
                        )
                        campaign_id = resume_from
                        if telemetry is not None:
                            telemetry.emit(
                                "campaign_resumed",
                                ts=now(),
                                campaign_id=campaign_id,
                                completed=len(resumed_results),
                            )
                else:
                    campaign_id = self.database.begin_campaign(
                        config, partition_sizes, fingerprint
                    )
            sink = ResultSink(self.database, campaign_id, config.recovery.db_batch)
            self._sink = sink
            self._campaign_id = campaign_id
            self._workers = workers
            if telemetry is not None:
                # Leftover shards of an earlier aborted run over the same
                # path would feed stale records to live status polls (and
                # the end-of-run merge); the manifest makes the fresh run
                # discoverable before its first experiment lands.
                telemetry.remove_stale_shards()
                self._write_manifest(telemetry, "running", workers)
                telemetry.checkpoint()

            # Pre-classify the remainder against the def/use liveness
            # map: predicted experiments are synthesised from the
            # reference and never enter the injection loop below.
            remaining: List[Tuple[int, FaultDescriptor]] = [
                (i, fault)
                for i, fault in enumerate(plan)
                if i not in resumed_results
            ]
            results = dict(resumed_results)
            live_plan: List[Tuple[int, FaultDescriptor]] = remaining
            if config.prune:
                with span("pruning"):
                    liveness = self.target.liveness
                    if liveness is None:
                        raise CampaignError(
                            "pruning requested but no liveness map recorded"
                        )
                    pruned = preclassify_pairs(remaining, liveness)
                    live_plan = pruned.live
                    reference_outputs = np.asarray(reference.outputs, dtype=float)
                    for index, fault, classification in pruned.predicted:
                        run = synthesize_run(fault, classification, reference)
                        results[index] = (
                            run,
                            self._classify(run, reference_outputs),
                        )

            started = time.perf_counter()
            with span("injection"):
                self._execute(
                    live_plan,
                    len(plan),
                    results,
                    resumed_results,
                    workers,
                    telemetry,
                    progress,
                    sink,
                )
            wall = time.perf_counter() - started
            experiments = [results[i][0] for i in range(len(plan))]
            outcomes = [results[i][1] for i in range(len(plan))]

            with span("analysis"):
                result = CampaignResult(
                    config=config,
                    experiments=experiments,
                    outcomes=outcomes,
                    reference_outputs=list(reference.outputs),
                    partition_sizes=partition_sizes,
                    wall_seconds=wall,
                )
                if self.database is not None:
                    sink.flush()
                    self.database.finish_campaign(campaign_id, wall)

        if telemetry is not None:
            telemetry.emit(
                "campaign_finished", **campaign_finished_event(outcomes, wall)
            )
            telemetry.finish()
            self._write_manifest(telemetry, "complete", workers, wall_seconds=wall)
        return result

    def _load_resume_state(
        self,
        campaign_id: int,
        fingerprint: Dict[str, object],
        plan: List[FaultDescriptor],
    ) -> Dict[int, Tuple[ExperimentRun, Outcome]]:
        """Reload a stored campaign's completed experiments.

        Refuses when the stored configuration fingerprint diverges from
        the current one, and cross-checks every stored fault against the
        re-derived plan — any drift means the stored indices would not
        identify the same experiments.
        """
        check_fingerprint(
            self.database.campaign_fingerprint(campaign_id), fingerprint
        )
        stored = self.database.completed_experiments(campaign_id)
        resumed: Dict[int, Tuple[ExperimentRun, Outcome]] = {}
        for index, experiment in stored.items():
            if index >= len(plan):
                raise CampaignError(
                    f"stored experiment index {index} exceeds the plan "
                    f"({len(plan)} faults) — cannot resume"
                )
            fault = plan[index]
            if (
                fault.target.partition != experiment.partition
                or fault.target.element != experiment.element
                or fault.target.bit != experiment.bit
                or fault.time != experiment.time
            ):
                raise CampaignError(
                    f"stored experiment {index} ({experiment.partition}/"
                    f"{experiment.element}[{experiment.bit}]@t={experiment.time}) "
                    f"does not match the re-derived plan ({fault.label()}) "
                    "— cannot resume"
                )
            run = ExperimentRun(
                fault=fault,
                outputs=[],
                early_exit_iteration=experiment.early_exit_iteration,
                timed_out=experiment.timed_out,
                instructions_executed=experiment.instructions_executed,
                predicted=experiment.provenance == "predicted",
                quarantined=experiment.provenance == "quarantined",
            )
            resumed[index] = (run, experiment.outcome)
        self.database.reopen_campaign(campaign_id)
        return resumed

    # -- execution -------------------------------------------------------------
    def _execute(
        self,
        live_plan: List[Tuple[int, FaultDescriptor]],
        total: int,
        results: Dict[int, Tuple[ExperimentRun, Outcome]],
        resumed: Dict[int, Tuple[ExperimentRun, Outcome]],
        workers: int,
        telemetry: Optional[Telemetry],
        progress,
        sink: ResultSink,
    ) -> None:
        """Simulate ``live_plan`` through the lease-queue chunk loop.

        ``results`` already maps the resumed and predicted plan indices
        to their pairs; the loop adds every simulated and quarantined
        one.  One loop serves every campaign: ``workers > 1`` runs the
        chunks on a :class:`~repro.goofi.pool.ReferencePool` that this
        call spawns and closes, ``1`` on an
        :class:`~repro.goofi.pool.InProcessExecutor` against this
        campaign's own target.

        **Schedule.**  The live plan is cut into plan-order windows of
        ``config.iterations`` entries (about one per reference
        boundary), and each window runs in injection-time order, so
        consecutive experiments restore to nearby boundaries (the delta
        cursor's cheap path).  Chunks are cut from that order on demand,
        never across a window's end, and sized so one costs about
        ``target_chunk_seconds`` at the measured throughput — small
        chunks near the end keep the straggler tail short.

        **Recovery.**  Chunk dispatch runs through a lease-based work
        queue.  A pooled run uses the SQLite
        :class:`~repro.goofi.workqueue.WorkQueue`, in the campaign
        database when there is one (so the queue tables are inspectable
        next to the results), else a private in-memory one.  A run that
        starts in-process uses a :class:`~repro.goofi.workqueue.MemoryQueue`
        — no chunk of it can die with a worker, and the topic is purged
        at every start, so SQLite would add only copies and statements.
        Both decide a nack through one rule.  A chunk whose run raises
        is nacked: the queue requeues it with capped exponential
        backoff, bisects it to isolate a poison experiment and — once
        one experiment crosses its kill or failure budget — declares it
        exhausted, and it is quarantined here.  A chunk that breaks the
        process pool triggers a pool rebuild (fresh workers from
        ``prepare``); once rebuilds run out, the loop carries on with
        the in-process executor.

        **Recording.**  Results are released in plan order as the
        plan-order prefix completes: each gets its database row, its
        ``experiment_finished`` event (written to the main log and folded
        into the telemetry's metrics) and its ``progress`` call, so the
        stored rows, the event log and the progress count always agree
        on the same prefix — an interrupted run resumes to a complete,
        ordered history.  Resumed results only count toward
        ``progress``.
        """
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        config = self.config
        policy = config.recovery
        reference_outputs = self.target.reference.outputs
        payload = WorkerPayload(
            workload=config.workload,
            iterations=config.iterations,
            watchdog_factor=config.watchdog_factor,
            environment_factory=config.environment_factory,
            reference=self.target.reference,
            delta_dataplane=config.delta_dataplane,
        )
        in_process = InProcessExecutor(self.target)
        process_pool = ReferencePool(workers) if workers > 1 else None
        pool = in_process if process_pool is None else process_pool
        # ``(submission id, path)`` pairs; ordered numerically before the
        # merge.  Sorting the bare paths would be lexicographic —
        # ``shard10`` before ``shard2`` — as soon as submissions reach 10.
        shards: List[Tuple[int, str]] = []
        released = 0

        if process_pool is None:
            work = MemoryQueue(policy)
        elif self.database is not None:
            work = self.database.work_queue(policy)
        else:
            work = WorkQueue(policy=policy)
        topic = f"campaign-{self._campaign_id or 0}-chunks"
        # Stale rows from an earlier aborted run over the same campaign
        # would replay already-completed chunks; this run re-derives its
        # remaining plan from the results table instead.
        work.purge(topic)
        lease_worker = f"pool-{os.getpid()}"
        window = config.iterations
        reservoir = deque(
            sorted(live_plan[start : start + window], key=lambda item: item[1].time)
            for start in range(0, len(live_plan), window)
        )
        chunk_size = max(
            policy.min_chunk_size,
            min(
                policy.max_chunk_size,
                max(1, len(live_plan) // (pool.workers * 8)),
            ),
        )
        active: Dict[object, Tuple[LeasedJob, int, Optional[str]]] = {}
        submission = 0
        rebuilds = 0

        def emit(event: str, **payload_kv) -> None:
            if telemetry is not None:
                telemetry.emit(event, **payload_kv)

        def release_prefix() -> None:
            """Record every result of the completed plan-order prefix."""
            nonlocal released
            while released < total and released in results:
                index = released
                run, outcome = results[index]
                if index not in resumed:
                    sink.add(index, run, outcome)
                    if telemetry is not None:
                        telemetry.emit(
                            "experiment_finished",
                            **experiment_event(index, run, outcome),
                        )
                released += 1
                if progress is not None:
                    progress(released, total, outcome)

        def quarantine(index, fault) -> None:
            run = quarantined_run(fault, reference_outputs)
            results[index] = (run, self._classify(run, reference_outputs))
            emit(
                "experiment_quarantined",
                ts=now(),
                index=index,
                partition=fault.target.partition,
                element=fault.target.element,
                bit=fault.target.bit,
                injection_time=fault.time,
            )

        def handle_failure(
            job: LeasedJob,
            shard,
            killed: bool,
            reason: str,
            certain: bool = True,
        ):
            """Nack one failed job: the queue requeues, splits or — once
            a single experiment crosses its kill/failure budget —
            declares it exhausted, at which point it is quarantined here.

            ``certain`` says the failure is attributable to this job
            (an ordinary exception always is; a pool break only when the
            job was alone in flight).  Only certain failures count
            toward a single experiment's quarantine thresholds.
            """
            if shard is not None and os.path.exists(shard):
                os.remove(shard)  # discard the failed chunk's partial events
            verdict = work.nack(
                job.lease_id, killed=killed, certain=certain, reason=reason
            )
            if verdict.action == "exhausted":
                index, fault = verdict.items[0]
                quarantine(index, fault)
                return
            emit(
                "chunk_requeued",
                ts=now(),
                experiments=len(job.items),
                attempt=job.attempt,
                killed=killed,
                reason=reason,
            )
            emit(
                "job_state",
                ts=now(),
                job=job.job_id,
                state=verdict.action,
                attempt=verdict.attempt,
                experiments=len(job.items),
                suspect=verdict.suspect,
            )
            # The loop owns the backoff sleep (the queue leaves the
            # requeued job immediately available), so tests can inject a
            # no-op sleep.
            policy.sleep(verdict.delay)

        def submit_job(job: LeasedJob) -> bool:
            """Submit one leased job; False when the pool turned out broken."""
            nonlocal submission
            submission += 1
            shard = (
                telemetry.shard_path(submission) if telemetry is not None else None
            )
            args = (
                job.items,
                submission,
                shard,
                config.early_exit,
                config.chaos,
                policy.heartbeat_every,
                config.batch_size,
            )
            try:
                future = pool.submit(_run_chunk, args)
            except BrokenProcessPool:
                # The job never ran: hand its lease back untouched so it
                # keeps its place at the front of the queue.
                work.release(job.lease_id)
                return False
            active[future] = (job, submission, shard)
            emit(
                "lease_granted",
                ts=now(),
                job=job.job_id,
                lease=job.lease_id,
                worker=submission,
                experiments=len(job.items),
                attempt=job.attempt,
                suspect=job.suspect,
            )
            return True

        try:
            if process_pool is not None:
                process_pool.prepare(payload)
            release_prefix()
            while work.pending(topic) or reservoir or active:
                broken = False
                # Suspect jobs (in flight during an earlier pool break —
                # a break takes down *every* in-flight future, so which
                # chunk killed the worker is unknowable from the
                # exception alone) run in isolation, one in flight at a
                # time, so a repeat break has certain attribution; only
                # certain kills count toward quarantine.  Without this,
                # innocent experiments that happened to share the pool
                # with a poison one would accumulate its kills and get
                # quarantined alongside it.
                while not broken and not active:
                    job = work.lease(
                        lease_worker, topic=topic, suspect_only=True
                    )
                    if job is None:
                        break
                    broken = not submit_job(job)
                if not active:
                    while not broken:
                        job = work.lease(lease_worker, topic=topic)
                        if job is None:
                            break
                        broken = not submit_job(job)
                # Draw fresh chunks from the schedule to keep every
                # worker busy — but never alongside a suspect, whose
                # isolation is what makes a repeat pool break
                # attributable.  Chunks enter the queue as they are
                # drawn (a targeted lease keeps an older requeued job
                # from being claimed in their place).
                if not broken and not any(
                    entry[0].suspect for entry in active.values()
                ):
                    while reservoir and not broken and len(active) < pool.workers:
                        # A window is recorded as soon as its last
                        # chunk is in.
                        items = reservoir[0][:chunk_size]
                        del reservoir[0][:chunk_size]
                        if not reservoir[0]:
                            reservoir.popleft()
                        job_id = work.enqueue(items, topic=topic)
                        job = work.lease(
                            lease_worker, topic=topic, job_id=job_id
                        )
                        if job is None:
                            break
                        broken = not submit_job(job)
                if active and not broken:
                    in_flight = len(active)
                    done_set, _pending = concurrent.futures.wait(
                        list(active), return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in done_set:
                        job, chunk_submission, shard = active.pop(future)
                        try:
                            chunk_result, seconds = future.result()
                        except BrokenProcessPool:
                            broken = True
                            handle_failure(
                                job,
                                shard,
                                killed=True,
                                reason="worker process died (pool broken)",
                                certain=in_flight == 1,
                            )
                            continue
                        except Exception as exc:
                            handle_failure(
                                job, shard, killed=False, reason=repr(exc)
                            )
                            continue
                        # The ack is idempotent by plan index: only newly
                        # acked indices are recorded, so a result that
                        # arrives twice (e.g. a future that completed in
                        # the same instant its pool broke and was
                        # requeued) counts once.
                        newly = set(
                            work.ack(
                                job.lease_id,
                                [i for i, _run, _outcome in chunk_result],
                            )
                        )
                        for index, run, outcome in chunk_result:
                            if index in newly:
                                results[index] = (run, outcome)
                        if chunk_result and seconds > 0:
                            # Throughput feedback: aim the next chunk at
                            # ~target_chunk_seconds of work.
                            rate = len(chunk_result) / seconds
                            new_size = max(
                                policy.min_chunk_size,
                                min(
                                    policy.max_chunk_size,
                                    int(rate * policy.target_chunk_seconds),
                                ),
                            )
                            if new_size != chunk_size:
                                chunk_size = new_size
                                emit(
                                    "chunk_resized",
                                    ts=now(),
                                    size=new_size,
                                    rate=rate,
                                )
                        if shard is not None:
                            shards.append((chunk_submission, shard))
                        emit(
                            "worker_chunk_done",
                            ts=time.time(),
                            worker=chunk_submission,
                            experiments=len(chunk_result),
                            seconds=seconds,
                        )
                    release_prefix()
                    sink.flush()
                    if telemetry is not None:
                        # Chunk boundary: flush the event log so status
                        # polls see this chunk.
                        telemetry.checkpoint()
                if broken:
                    # The pool is unusable: every in-flight chunk is
                    # lost.  Requeue them as suspects (any of them may
                    # have killed the worker) and rebuild, carrying on
                    # in this process when the budget is out.
                    for future, (job, _sub, shard) in list(active.items()):
                        future.cancel()
                        handle_failure(
                            job,
                            shard,
                            killed=True,
                            reason="chunk lost to a broken worker pool",
                            certain=False,
                        )
                    active.clear()
                    rebuilds += 1
                    rebuilt = False
                    if rebuilds <= policy.max_pool_rebuilds:
                        emit("worker_pool_rebuilt", ts=now(), rebuilds=rebuilds)
                        try:
                            process_pool.prepare(payload)
                            rebuilt = True
                        except Exception:
                            rebuilt = False
                    if not rebuilt:
                        emit(
                            "serial_fallback",
                            ts=now(),
                            experiments=total - len(results),
                        )
                        pool = in_process
        except BaseException:
            # Interrupted (SIGINT) or crashed mid-injection: splice the
            # completed chunks' worker records into the main log before
            # propagating, so a post-mortem `repro obs` sees them.
            try:
                self._merge_worker_shards(telemetry, shards)
            except Exception:
                pass
            raise
        finally:
            if process_pool is not None:
                process_pool.close()
            work.close()
        self._merge_worker_shards(telemetry, shards)

    @staticmethod
    def _merge_worker_shards(
        telemetry: Optional[Telemetry], shards: List[Tuple[int, str]]
    ) -> None:
        """Splice completed worker shards into the main event log.

        Consumes ``shards`` so a second call (e.g. the normal-path merge
        after an exception-path merge already ran) is a no-op.
        """
        if telemetry is not None and telemetry.events is not None and shards:
            merge_event_shards(
                telemetry.events, [path for _index, path in sorted(shards)]
            )
            shards.clear()
            telemetry.events.flush()

    @staticmethod
    def _classify(
        run: ExperimentRun, reference_outputs: Sequence[float]
    ) -> Outcome:
        """Classify one result.  Callers classifying many results pass
        the reference outputs as one float array, so no call converts
        them again; a predicted run delivers exactly the reference
        outputs (:func:`synthesize_run`), so it is classified against
        that array instead of materialising its own view of it."""
        detected_by = (
            run.detection.mechanism.value if run.detection is not None else None
        )
        return classify_experiment(
            observed=reference_outputs if run.predicted else run.outputs,
            reference=reference_outputs,
            detected_by=detected_by,
            final_state_differs=run.final_state_differs,
        )
