"""A persistent worker pool that shares one golden reference run.

Before this module existed, every campaign worker re-executed the full
651-iteration golden reference before touching its first fault — pure
redundancy, since the reference is deterministic and identical across
workers.  :class:`ReferencePool` instead computes the
:class:`~repro.goofi.target.ReferenceRun` once in the parent and ships
its snapshots/hashes/outputs to each worker process through the executor
*initializer*, so the payload is pickled once per process rather than
once per task.  The pool is deliberately long-lived: campaigns of any
fault model (scan-chain, memory, pre-runtime image) and a
pruning-validation re-run can all reuse the same warm workers, as long
as their payloads are compatible (:meth:`ReferencePool.prepare`
re-initialises the pool only when they are not).
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
    #: checkpoints + undo-log cursors vs legacy full copies).  Shipped
    #: explicitly so a golden-equivalence validation comparing the two
    #: planes never reuses the other leg's warm workers.
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


def _factories_equivalent(a, b) -> bool:
    """Whether two environment factories build interchangeable workers.

    Identity is sufficient but not necessary: the common factories are
    module-level classes or functions, and a caller that rebuilds an
    equal configuration (``dataclasses.replace``, a re-import, a fresh
    ``functools.partial``) hands over a *different object* naming the
    *same behaviour*.  Comparing the importable identity — module plus
    qualname — keeps the warm pool in those cases.  Factories without a
    stable importable identity (lambdas, local functions: their
    qualname contains ``<lambda>`` or ``<locals>``, so one name can
    cover many distinct behaviours) only ever match by identity.
    """
    if a is b:
        return True
    fingerprint = (
        getattr(a, "__module__", None),
        getattr(a, "__qualname__", None),
    )
    if fingerprint != (
        getattr(b, "__module__", None),
        getattr(b, "__qualname__", None),
    ):
        return False
    if fingerprint[0] is None or fingerprint[1] is None:
        return False
    return "<lambda>" not in fingerprint[1] and "<locals>" not in fingerprint[1]


def _references_equivalent(a: ReferenceRun, b: ReferenceRun) -> bool:
    """Two golden runs are interchangeable when their observable record
    matches — deterministic runs of the same workload always do, so a
    re-run keeps the warm pool — and both or neither carry the liveness
    table.  Workers run the dead-divergence exit exactly when their
    adopted reference has one, so a plain campaign never inherits it
    from a pruned one's workers, nor a pruned campaign loses it."""
    return a is b or (
        a.hashes == b.hashes
        and a.instructions_at == b.instructions_at
        and a.outputs == b.outputs
        and (a.boundary_liveness is None) == (b.boundary_liveness is None)
    )


class ReferencePool:
    """A reusable process pool initialised with a :class:`WorkerPayload`.

    Usage::

        with ReferencePool(workers=4) as pool:
            campaign_a.run(workers=4, pool=pool)
            campaign_b.run(workers=4, pool=pool)   # workers stay warm
    """

    def __init__(self, workers: int):
        if workers <= 0:
            raise CampaignError("workers must be positive")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._payload: Optional[WorkerPayload] = None
        #: Why the last :meth:`prepare` had to tear down a warm pool
        #: (the incompatible payload field), or ``None``.
        self.last_respawn_reason: Optional[str] = None
        #: Bumped every time a fresh executor is spawned.  Futures from
        #: generation N are worthless once generation N+1 exists; the
        #: dispatch loop uses this to tell a result from the current
        #: pool apart from a straggler of a torn-down one.
        self.generation: int = 0

    def _incompatibility(self, payload: WorkerPayload) -> Optional[str]:
        """The first payload field that makes the warm workers unusable,
        or ``None`` when they are compatible."""
        current = self._payload
        if current is None:
            return "uninitialised"
        if current.workload is not payload.workload:
            return "workload"
        if current.iterations != payload.iterations:
            return "iterations"
        if current.watchdog_factor != payload.watchdog_factor:
            return "watchdog_factor"
        if not _factories_equivalent(
            current.environment_factory, payload.environment_factory
        ):
            return "environment_factory"
        if current.delta_dataplane != payload.delta_dataplane:
            return "delta_dataplane"
        if not _references_equivalent(current.reference, payload.reference):
            return "reference"
        return None

    def _compatible(self, payload: WorkerPayload) -> bool:
        return self._payload is not None and self._incompatibility(payload) is None

    def prepare(self, payload: WorkerPayload) -> bool:
        """Ensure the pool's workers are initialised for ``payload``.

        A no-op when the current workers are already compatible; an
        incompatible payload shuts the pool down and spawns fresh
        workers.  Returns ``True`` exactly when a *warm* pool had to be
        torn down (a forced respawn — :attr:`last_respawn_reason` then
        names the offending payload field), ``False`` for a no-op or a
        cold first spawn.
        """
        respawn = False
        if self._executor is not None:
            reason = self._incompatibility(payload)
            if reason is None:
                return False
            respawn = True
            self.last_respawn_reason = reason
        self.close()
        self._payload = payload
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(payload,),
        )
        self.generation += 1
        return respawn

    def submit(self, fn, *args) -> Future:
        """Submit a task; :meth:`prepare` must have been called."""
        if self._executor is None:
            raise CampaignError("pool.prepare() must come before submit()")
        return self._executor.submit(fn, *args)

    def rebuild(self, payload: WorkerPayload) -> None:
        """Replace a broken executor with fresh workers for ``payload``.

        A worker process death leaves ``ProcessPoolExecutor`` permanently
        broken (every later submit raises ``BrokenProcessPool``); the
        campaign's recovery loop calls this to spawn a new pool and
        requeue the lost chunks.
        """
        self.close()
        self.prepare(payload)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._payload = None

    def __enter__(self) -> "ReferencePool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InProcessExecutor:
    """The :class:`ReferencePool` surface, run in the calling process.

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

    def prepare(self, _payload: WorkerPayload) -> bool:
        return False

    def rebuild(self, _payload: WorkerPayload) -> None:
        pass

    def close(self) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, target=self.target))
        except Exception as exc:
            future.set_exception(exc)
        return future
