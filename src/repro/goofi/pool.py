"""A worker pool that shares one golden reference run.

The campaign computes its :class:`~repro.goofi.target.ReferenceRun`
once in the parent, and :class:`ReferencePool` ships it to each worker
process through the executor *initializer*, so the payload is pickled
once per process rather than once per task and no worker re-executes
the reference.  A pool lives for one campaign run.
:class:`InProcessExecutor` offers the same surface in the calling
process, so serial campaigns run through the same chunk loop.
"""

from __future__ import annotations

import signal
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import CampaignError
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import ReferenceRun, TargetSystem
from repro.tcc.codegen import CompiledProgram


@dataclass
class WorkerPayload:
    """Everything a worker needs to build its target system once."""

    workload: CompiledProgram
    iterations: int
    watchdog_factor: float
    environment_factory: Callable[[], EngineEnvironment]
    #: The parent's golden run, adopted by every worker.
    reference: ReferenceRun
    #: Selects the worker target's snapshot/restore data plane (delta
    #: checkpoints + undo-log cursors vs legacy full copies).
    delta_dataplane: bool = True


#: Per-process state, populated by :func:`_initialize_worker`.
_WORKER_TARGET: Optional[TargetSystem] = None


def _initialize_worker(payload: WorkerPayload) -> None:
    """Executor initializer: build this process's target system.

    The worker only loads the program (the loader also derives the
    control-flow signature successors the SIG checks need) and adopts
    the parent's checkpoints; experiments then start from restored
    snapshots.
    """
    global _WORKER_TARGET
    # A forked worker inherits the campaign's SIGTERM handler, which
    # raises AbortRequested.  The executor stops the survivors of a
    # broken pool with SIGTERM; they should just exit.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    target = TargetSystem(
        workload=payload.workload,
        environment=payload.environment_factory(),
        iterations=payload.iterations,
        watchdog_factor=payload.watchdog_factor,
        environment_factory=payload.environment_factory,
        delta_dataplane=payload.delta_dataplane,
    )
    target.cpu.load(payload.workload.program)
    target.reference = payload.reference
    _WORKER_TARGET = target


def worker_target() -> TargetSystem:
    """The calling worker process's target system."""
    if _WORKER_TARGET is None:
        raise CampaignError("not inside an initialised pool worker")
    return _WORKER_TARGET


class ReferencePool:
    """A process pool whose workers adopt one :class:`WorkerPayload`.

    A pooled campaign owns its pool for exactly one run: it spawns the
    workers with :meth:`prepare`, submits its chunks and closes the pool
    when the run ends.
    """

    def __init__(self, workers: int):
        if workers <= 0:
            raise CampaignError("workers must be positive")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None

    def prepare(self, payload: WorkerPayload) -> None:
        """Spawn fresh workers initialised with ``payload``.

        Any current executor is shut down first.  A worker process death
        leaves ``ProcessPoolExecutor`` permanently broken (every later
        submit raises ``BrokenProcessPool``), so the campaign's recovery
        loop calls this again to replace it and requeue the lost chunks.
        """
        self.close()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(payload,),
        )

    def submit(self, fn, *args) -> Future:
        """Submit a task; :meth:`prepare` must have been called."""
        if self._executor is None:
            raise CampaignError("pool.prepare() must come before submit()")
        return self._executor.submit(fn, *args)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


class InProcessExecutor:
    """The :class:`ReferencePool` submit surface, run in the calling process.

    A serial campaign (and a campaign whose pool rebuilds ran out) drives
    the same chunk loop through this executor: :meth:`submit` runs the
    task at once against ``target`` — passed as the ``target`` keyword,
    in place of a worker's :func:`worker_target` — and returns a
    completed future.  An ``Exception`` is set on the future like a
    worker's failure; ``KeyboardInterrupt`` propagates to the caller.
    """

    workers = 1

    def __init__(self, target: TargetSystem):
        self.target = target

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, target=self.target))
        except Exception as exc:
            future.set_exception(exc)
        return future
