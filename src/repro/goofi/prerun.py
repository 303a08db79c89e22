"""Pre-runtime software-implemented fault injection (SWIFI, §3.3.1).

Besides scan-chain injection, GOOFI supports *pre-runtime SWIFI*: the
fault is planted in the program image before execution starts — a bit
flipped in an instruction word or an initialised data word — modelling a
corrupted load image or a persistent memory fault.  The whole run then
executes with the mutation in place.

Compared to SCIFI, pre-runtime faults skew heavily toward detected
errors (an instruction-word flip usually produces an illegal opcode,
register field or wild branch on first execution) and permanent value
failures (a corrupted constant or control-law instruction is wrong on
*every* iteration) — the bench `bench_ablation_prerun_swifi` quantifies
both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.classify import Outcome, classify_experiment
from repro.analysis.report import CampaignSummary, ClassifiedExperiment
from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi.environment import EngineEnvironment
from repro.goofi.pool import ReferencePool, WorkerPayload, worker_payload, worker_target
from repro.goofi.target import ExperimentRun, ReferenceRun, TargetSystem
from repro.tcc.codegen import CompiledProgram
from repro.thor.cpu import StepResult
from repro.thor.memory import WORD

#: Partition labels for image faults.
CODE_PARTITION = "code-image"
DATA_PARTITION = "data-image"


@dataclass(frozen=True)
class ImageFault:
    """One bit of the loaded program image, flipped before the run.

    Attributes:
        partition: :data:`CODE_PARTITION` or :data:`DATA_PARTITION`.
        address: word address in the target's memory.
        bit: bit position within the word.
    """

    partition: str
    address: int
    bit: int

    def label(self) -> str:
        """Human-readable description."""
        return f"{self.partition}@{self.address:#x}[{self.bit}]"


def sample_image_faults(
    workload: CompiledProgram,
    count: int,
    rng: np.random.Generator,
    include_data: bool = True,
) -> List[ImageFault]:
    """Uniformly sample image faults over the workload's code (and
    initialised data/rodata) words."""
    if count <= 0:
        raise CampaignError("count must be positive")
    program = workload.program
    locations: List[ImageFault] = []
    for i in range(len(program.code)):
        address = program.entry + i * WORD
        for bit in range(32):
            locations.append(ImageFault(CODE_PARTITION, address, bit))
    if include_data:
        for address in program.data:
            for bit in range(32):
                locations.append(ImageFault(DATA_PARTITION, address, bit))
    indices = rng.integers(0, len(locations), size=count)
    return [locations[int(i)] for i in indices]


def _execute_image_fault(
    workload: CompiledProgram,
    iterations: int,
    environment_factory,
    watchdog_factor: float,
    reference: ReferenceRun,
    fault: ImageFault,
    early_exit: bool = True,
) -> ExperimentRun:
    """Execute one full run with the image mutation in place.

    Module-level so campaign workers can call it against their shipped
    reference.  Unlike SCIFI there is no checkpoint restart: the
    mutation exists from the first instruction, so the entire run is
    re-executed on a fresh target system.
    """
    target = TargetSystem(
        workload,
        environment=environment_factory(),
        iterations=iterations,
        watchdog_factor=watchdog_factor,
    )
    cpu = target.cpu
    env = target.environment
    cpu.load(workload.program)
    env.reset()
    target._warm_start_workload()
    # Plant the image fault before the first instruction runs.
    mutated = cpu.memory.peek(fault.address) ^ (1 << fault.bit)
    cpu.memory.poke(fault.address, mutated)
    cpu.ir = cpu.memory.fetch_word(cpu.pc)  # refresh the prefetch
    env.write_inputs(cpu.memory.mmio)

    descriptor = FaultDescriptor(
        FaultTarget(fault.partition, f"{fault.address:#x}", fault.bit), 0
    )
    outputs: List[float] = []
    watchdog = int(reference.max_iteration_instructions * watchdog_factor) + 500
    run = ExperimentRun(fault=descriptor, outputs=outputs)
    for k in range(iterations):
        result = cpu.run(watchdog)
        run.instructions_executed = cpu.instruction_index
        if result is StepResult.DETECTED:
            run.detection = cpu.detection
            run.detected_iteration = k
            return run
        if result is not StepResult.YIELD:
            run.timed_out = True
            held = outputs[-1] if outputs else env.initial_throttle()
            while len(outputs) < iterations:
                outputs.append(held)
            run.final_state_differs = True
            return run
        outputs.append(env.exchange(cpu.memory.mmio))
        if early_exit and target.boundary_hash() == reference.hashes[k + 1]:
            outputs.extend(reference.outputs[k + 1 :])
            run.early_exit_iteration = k + 1
            run.final_state_differs = False
            return run
    # The planted bit is itself a state difference, so an image fault
    # that was never overwritten counts as latent — the §4.1 scheme's
    # intent for surviving corruption.
    run.final_state_differs = target.boundary_hash() != reference.hashes[-1]
    return run


def _prerun_chunk(args):
    """Pool-worker entry point: run one slice of an image-fault plan.

    Uses the worker's shipped golden reference (outputs, hashes and the
    watchdog-sizing iteration cost); each experiment still builds its
    own fresh target, exactly as the serial path does.
    """
    chunk, early_exit = args
    payload = worker_payload()
    reference = worker_target().reference
    results = []
    for index, fault in chunk:
        run = _execute_image_fault(
            payload.workload,
            payload.iterations,
            payload.environment_factory,
            payload.watchdog_factor,
            reference,
            fault,
            early_exit=early_exit,
        )
        outcome = classify_experiment(
            observed=run.outputs,
            reference=reference.outputs,
            detected_by=(run.detection.mechanism.value if run.detection else None),
            final_state_differs=run.final_state_differs,
        )
        results.append((index, run, outcome))
    return results


class PreRuntimeCampaign:
    """A pre-runtime SWIFI campaign against a compiled workload."""

    def __init__(
        self,
        workload: CompiledProgram,
        iterations: int = 650,
        environment_factory=EngineEnvironment,
        watchdog_factor: float = 10.0,
        name: str = "pre-runtime SWIFI",
    ):
        self.workload = workload
        self.iterations = iterations
        self.environment_factory = environment_factory
        self.watchdog_factor = watchdog_factor
        self.name = name
        # The golden target provides the reference outputs and hashes.
        self._target = TargetSystem(
            workload,
            environment=environment_factory(),
            iterations=iterations,
            watchdog_factor=watchdog_factor,
        )
        self._reference = self._target.run_reference()

    @property
    def reference_outputs(self) -> List[float]:
        """The golden output sequence."""
        return list(self._reference.outputs)

    def run_experiment(
        self, fault: ImageFault, early_exit: bool = True
    ) -> ExperimentRun:
        """Execute one full run with the image mutation in place.

        Unlike SCIFI there is no checkpoint restart: the mutation exists
        from the first instruction, so the entire run is re-executed.
        The early-exit hash splice still applies — if the mutated system
        ever reaches a state identical to the golden run's at the same
        boundary, the remainder is provably identical, so the reference
        output suffix is spliced in.  That happens only for mutations
        whose effect is erased — e.g. a flipped *data* word overwritten
        before first use; a *code* word flip keeps the image (and thus
        the state hash) different forever, so the splice never fires for
        it.  ``early_exit=False`` disables the splice (a test asserts
        outcomes are unchanged by it).
        """
        return _execute_image_fault(
            self.workload,
            self.iterations,
            self.environment_factory,
            self.watchdog_factor,
            self._reference,
            fault,
            early_exit=early_exit,
        )

    def _payload(self) -> WorkerPayload:
        """The pool payload for this campaign's workers — identical in
        shape to the SCIFI one, so a warm pool carries over between the
        two phases."""
        return WorkerPayload(
            workload=self.workload,
            iterations=self.iterations,
            watchdog_factor=self.watchdog_factor,
            environment_factory=self.environment_factory,
            reference=self._reference,
        )

    def run(
        self,
        faults: int,
        seed: int = 2001,
        include_data: bool = True,
        progress=None,
        workers: int = 1,
        pool: Optional[ReferencePool] = None,
    ) -> "PreRuntimeResult":
        """Run a whole campaign and classify every experiment.

        ``workers > 1`` (or an explicit ``pool``) deals the plan into
        strided slices executed by pool workers sharing this campaign's
        golden reference; results are reassembled into plan order, so
        they are identical to the serial run's.
        """
        rng = np.random.default_rng(seed)
        plan = sample_image_faults(self.workload, faults, rng, include_data)
        if pool is not None:
            workers = pool.workers
        if workers > 1:
            by_index = self._run_parallel(plan, workers, pool, progress)
            experiments = [by_index[i][0] for i in range(len(plan))]
            outcomes = [by_index[i][1] for i in range(len(plan))]
        else:
            experiments = []
            outcomes = []
            for i, fault in enumerate(plan):
                run = self.run_experiment(fault)
                outcome = classify_experiment(
                    observed=run.outputs,
                    reference=self._reference.outputs,
                    detected_by=(
                        run.detection.mechanism.value if run.detection else None
                    ),
                    final_state_differs=run.final_state_differs,
                )
                experiments.append(run)
                outcomes.append(outcome)
                if progress is not None:
                    progress(i + 1, len(plan), outcome)
        return PreRuntimeResult(
            name=self.name,
            experiments=experiments,
            outcomes=outcomes,
            reference_outputs=list(self._reference.outputs),
        )

    def _run_parallel(self, plan, workers, pool, progress):
        """Fan the plan out over shared-reference pool workers.

        A chunk whose worker fails (an exception or a process death) is
        re-executed serially in this process — one bad worker never
        loses any experiment, let alone the whole campaign.
        """
        from concurrent.futures import as_completed

        own_pool = pool is None
        if pool is None:
            pool = ReferencePool(workers)
        indexed = list(enumerate(plan))
        slices = [indexed[i::workers] for i in range(workers)]
        by_index = {}
        lost = []
        done = 0
        try:
            pool.prepare(self._payload())
            futures = {
                pool.submit(_prerun_chunk, (chunk, True)): chunk
                for chunk in slices
                if chunk
            }
            for future in as_completed(futures):
                try:
                    chunk_result = future.result()
                except Exception:
                    lost.append(futures[future])
                    continue
                for index, run, outcome in chunk_result:
                    by_index[index] = (run, outcome)
                    done += 1
                    if progress is not None:
                        progress(done, len(plan), outcome)
        finally:
            if own_pool:
                pool.close()
        for chunk in lost:
            for index, fault in chunk:
                if index in by_index:
                    continue
                run = self.run_experiment(fault)
                outcome = classify_experiment(
                    observed=run.outputs,
                    reference=self._reference.outputs,
                    detected_by=(
                        run.detection.mechanism.value if run.detection else None
                    ),
                    final_state_differs=run.final_state_differs,
                )
                by_index[index] = (run, outcome)
                done += 1
                if progress is not None:
                    progress(done, len(plan), outcome)
        return by_index


@dataclass
class PreRuntimeResult:
    """All experiments of a pre-runtime campaign."""

    name: str
    experiments: List[ExperimentRun]
    outcomes: List[Outcome]
    reference_outputs: List[float]

    def summary(self) -> CampaignSummary:
        """Aggregate into a table-ready summary."""
        records = [
            ClassifiedExperiment(
                partition=run.fault.target.partition, outcome=outcome
            )
            for run, outcome in zip(self.experiments, self.outcomes)
        ]
        return CampaignSummary(records, partition_sizes={}, name=self.name)
