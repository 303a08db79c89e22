"""The target system: CPU + workload + environment, with checkpointing.

:class:`TargetSystem` executes the closed loop the paper describes: the
workload runs on the simulated CPU, exchanging reference/speed/throttle
with the :class:`~repro.goofi.environment.EngineEnvironment` at every
yield.  It provides

* :meth:`run_reference` — the fault-free golden execution, recording the
  output sequence, a full restorable snapshot at every iteration
  boundary, a state hash per boundary and the dynamic instruction count
  (used to map sampled injection times to boundaries);
* :meth:`run_experiment` — one fault-injection experiment: restore the
  boundary checkpoint, replay to the injection instruction, apply the
  fault (a scan-chain bit flip, a stored-RAM bit flip or a program-image
  mutation, by the fault's partition), then run to the termination
  condition.  Every fault model runs through this one loop.

Early exit: when the faulted run's full state hash equals the reference
hash at the same boundary, every subsequent instruction is determined to
be identical, so the reference output suffix is spliced in.  When the
reference was recorded with liveness, a run that is still diverged is
also probed at 1, 2, 4, 8, ... iterations after the injection: if none
of its differing bits is read again in the reference trace from that
boundary on (:class:`~repro.faults.liveness.BoundaryLiveness`), its
future is the reference's too, and it stops there with the final-state
verdict the surviving bits imply (the dead-divergence exit).  Tests
verify that disabling early exit yields identical outcomes.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import CampaignError
from repro.faults.liveness import (
    FULL_MASK,
    LATENT_CODE,
    LIVE_CODE,
    BoundaryLiveness,
    LivenessMap,
    traced_memory_ranges,
    traces_from_log,
)
from repro.faults.models import (
    CACHE_PARTITION,
    CODE_PARTITION,
    DATA_PARTITION,
    MEMORY_PARTITION,
    REGISTER_PARTITION,
    FaultDescriptor,
)
from repro.goofi.dataplane import (
    CheckpointStore,
    DeltaRecorder,
    MachineCursor,
    SplicedOutputs,
)
from repro.goofi.environment import EngineEnvironment
from repro.tcc.codegen import CompiledProgram
from repro.plant.engine import EngineModel
from repro.thor.cache import LINES
from repro.thor.cpu import CPU, PSW_MASK, AccessLog, BatchEngine, StepResult
from repro.thor.edm import DetectionEvent
from repro.thor.isa import NUM_GPRS
from repro.thor.scanchain import ScanChain


def _hash_state(cpu: CPU, environment: EngineEnvironment) -> bytes:
    """Incremental full-state boundary digest.

    The code and rodata images almost never change between boundaries
    (code is write-protected; only fault injection or a restore touches
    them), so a blake2b hasher pre-fed with that prefix is cached on the
    memory map, keyed by the regions' mutation versions, and merely
    *copied* per boundary.  The volatile remainder — registers, cache,
    data/stack RAM, MMIO, environment — is always hashed live; the
    data/stack byte images themselves come from the regions'
    version-keyed packed caches, so an untouched region costs one dict
    probe instead of a repack.  Any version change (poke,
    ``corrupt_word_bit``, restore) invalidates the prefix and falls back
    to a full rebuild.  Digests are bit-identical to
    :func:`_hash_state_fresh` by construction (same byte order, same
    content) — an equivalence test enforces it.
    """
    memory = cpu.memory
    key = (memory.code.version, memory.rodata.version)
    cached = memory.hash_prefix_cache
    if cached is None or cached[0] != key:
        prefix = hashlib.blake2b(digest_size=16)
        prefix.update(memory.code.state_bytes())
        prefix.update(memory.rodata.state_bytes())
        cached = (key, prefix)
        memory.hash_prefix_cache = cached
    digest = cached[1].copy()
    digest.update(cpu.register_state_bytes())
    digest.update(cpu.cache.state_bytes())
    digest.update(memory.data.state_bytes())
    digest.update(memory.stack.state_bytes())
    digest.update(memory.mmio.state_bytes())
    digest.update(environment.state_bytes())
    return digest.digest()


def _hash_state_fresh(cpu: CPU, environment: EngineEnvironment) -> bytes:
    """:func:`_hash_state` rebuilt entirely from the live state, with no
    cached prefix or packed images — the oracle of the
    digest-equivalence tests."""
    memory = cpu.memory
    digest = hashlib.blake2b(digest_size=16)
    digest.update(memory.code.pack_fresh())
    digest.update(memory.rodata.pack_fresh())
    digest.update(cpu.register_state_bytes())
    digest.update(cpu.cache.state_bytes())
    digest.update(memory.data.pack_fresh())
    digest.update(memory.stack.pack_fresh())
    digest.update(memory.mmio.state_bytes())
    digest.update(environment.state_bytes())
    return digest.digest()


@dataclass
class ReferenceRun:
    """The golden execution of the workload.

    Attributes:
        outputs: delivered throttle per iteration.
        hashes: full-state hash at every iteration boundary
            (``hashes[k]`` is the state before iteration ``k`` executes;
            there are ``iterations + 1`` entries).
        snapshots: restorable state per boundary (same indexing).  With
            the delta data plane this is a
            :class:`~repro.goofi.dataplane.CheckpointStore` — one base
            snapshot plus per-boundary deltas — that still answers
            ``snapshots[k]``/``len(snapshots)`` with legacy full
            snapshot dicts; otherwise a plain list of them.
        instructions_at: dynamic instruction count at each boundary.
        total_instructions: instruction count of the whole run.
        max_iteration_instructions: the longest iteration, used to size
            the experiment watchdog.
        boundary_liveness: the def/use verdict of every traced element
            at every boundary, for the dead-divergence exit; recorded by
            ``run_reference(record_access=True)``, ``None`` otherwise.
    """

    outputs: List[float]
    hashes: List[bytes]
    snapshots: "List[Dict[str, object]] | CheckpointStore"
    instructions_at: List[int]
    total_instructions: int
    max_iteration_instructions: int
    boundary_liveness: Optional[BoundaryLiveness] = None

    def locate(self, instruction_time: int) -> int:
        """Boundary index whose iteration contains ``instruction_time``."""
        if not 0 <= instruction_time < self.total_instructions:
            raise CampaignError(
                f"injection time {instruction_time} outside the run "
                f"(0..{self.total_instructions - 1})"
            )
        # instructions_at is sorted ascending; the rightmost boundary at
        # or before instruction_time owns the iteration it falls in.
        return bisect_right(self.instructions_at, instruction_time) - 1


@dataclass
class ExperimentRun:
    """Raw observations of one fault-injection experiment.

    Attributes:
        fault: the injected fault.
        outputs: the delivered output sequence (spliced/held as needed so
            its length always equals the reference's, except for detected
            experiments, where delivery stopped at the detection).
        detection: the hardware detection that terminated the run, if any.
        detected_iteration: iteration during which the detection fired.
        final_state_differs: final state differs from the reference's.
        early_exit_iteration: boundary where simulation stopped and the
            reference output tail was spliced in — the state re-converged
            to the reference hash there, or every bit still differing is
            provably never read again (None if the run went to the end).
        timed_out: the workload stopped yielding and the watchdog expired.
        instructions_executed: dynamic instructions actually simulated.
        predicted: the run was synthesised from the reference by the
            def/use pruning (no simulation happened).
        quarantined: the experiment repeatedly crashed its worker and
            was recorded with a conservative stand-in result instead of
            a simulation (``provenance='quarantined'`` in the database).
    """

    fault: FaultDescriptor
    outputs: List[float]
    detection: Optional[DetectionEvent] = None
    detected_iteration: Optional[int] = None
    final_state_differs: bool = False
    early_exit_iteration: Optional[int] = None
    timed_out: bool = False
    instructions_executed: int = 0
    predicted: bool = False
    quarantined: bool = False


#: Trace keys of the register file (r0..r7, sp), the PSW/MAR/MDR latches
#: and the cache line fields, in the order the probe below diffs them.
_REG_KEYS = tuple((REGISTER_PARTITION, f"r{i}") for i in range(NUM_GPRS)) + (
    (REGISTER_PARTITION, "sp"),
)
_PSW_KEY = (REGISTER_PARTITION, "psw")
_MAR_KEY = (REGISTER_PARTITION, "mar")
_MDR_KEY = (REGISTER_PARTITION, "mdr")
_CACHE_FIELDS = tuple(
    (array, tuple((CACHE_PARTITION, f"line{line}.{element}") for line in range(LINES)))
    for array, element in (
        ("data", "data"),
        ("tags", "tag"),
        ("valid", "valid"),
        ("dirty", "dirty"),
    )
)
#: RAM regions whose words the recording reference run traces.
_TRACED_RAMS = ("rodata", "data", "stack")


def _dead_divergence(
    cpu: CPU,
    environment: EngineEnvironment,
    reference: ReferenceRun,
    boundary: int,
) -> Optional[bool]:
    """Whether a diverged run's future is provably the reference's.

    Diffs the machine at iteration boundary ``boundary`` against the
    reference snapshot there and looks every differing bit up in
    :attr:`ReferenceRun.boundary_liveness`.  This is def/use pruning's
    invariant applied at ``boundary`` to the whole diff set: while no
    differing bit is read, the run executes the reference's instructions
    with the reference's values, so an overwrite erases its bit and an
    untouched bit survives to the end.

    Returns ``None`` when the run must keep simulating — something the
    access trace does not cover differs (code, MMIO, environment, pc,
    ir, signature latch, halt flag; ``ALWAYS_LIVE`` and the untraced
    regions), or some differing bit is live.  Otherwise returns the
    run's final-state verdict: ``True`` when some differing bit is
    latent, ``False`` when every one is overwritten.  A parity-only
    difference counts as a difference in its word.
    """
    table = reference.boundary_liveness
    snapshot = reference.snapshots[boundary]
    ref = snapshot["cpu"]
    memory = cpu.memory
    ref_memory = ref["memory"]
    if (
        cpu.pc != ref["pc"]
        or cpu.ir != ref["ir"]
        or cpu.last_signature != ref["last_signature"]
        or cpu.halted != ref["halted"]
        or memory.mmio.registers != ref_memory["mmio"]
        or memory.code.packed() != ref_memory["code"]
        # repr tells -0.0 from 0.0, which == does not.
        or repr(environment.snapshot()) != repr(snapshot["env"])
    ):
        return None

    diffs: List[tuple] = []
    for key, value, ref_value in zip(_REG_KEYS, cpu.regs, ref["regs"]):
        if value != ref_value:
            diffs.append((key, value ^ ref_value))
    psw_diff = cpu.psw ^ ref["psw"]
    if psw_diff & ~PSW_MASK:
        return None
    if psw_diff:
        diffs.append((_PSW_KEY, psw_diff))
    if cpu.mar != ref["mar"]:
        diffs.append((_MAR_KEY, cpu.mar ^ ref["mar"]))
    if cpu.mdr != ref["mdr"]:
        diffs.append((_MDR_KEY, cpu.mdr ^ ref["mdr"]))
    cache = cpu.cache
    ref_cache = ref["cache"]
    for array, keys in _CACHE_FIELDS:
        values = getattr(cache, array)
        ref_values = ref_cache[array]
        if values != ref_values:
            for key, value, ref_value in zip(keys, values, ref_values):
                if value != ref_value:
                    diffs.append((key, value ^ ref_value))
    for name in _TRACED_RAMS:
        ram = getattr(memory, name)
        ref_packed = ref_memory[name]
        if ram.packed() == ref_packed:
            continue
        ref_words = ram._struct.unpack(ref_packed[0])
        ref_parity = ref_packed[1]
        for i, (word, ref_word) in enumerate(zip(ram.words, ref_words)):
            if word != ref_word or ram.parity[i] != ref_parity[i]:
                diffs.append(
                    (
                        (MEMORY_PARTITION, ram.base + 4 * i),
                        (word ^ ref_word) or FULL_MASK,
                    )
                )

    latent = False
    for key, diff in diffs:
        code = table.verdict(key, diff, boundary)
        if code == LIVE_CODE:
            return None
        if code == LATENT_CODE:
            latent = True
    return latent


def _exit_verdict(
    digest: bytes,
    cpu: CPU,
    environment: EngineEnvironment,
    reference: ReferenceRun,
    boundary: int,
    injected_at: int,
) -> Optional[bool]:
    """The early-exit check at one boundary of a faulted run whose state
    hashes to ``digest`` there.

    ``None``: keep simulating.  Otherwise the run stops here with the
    reference output tail spliced in, and the returned value is its
    ``final_state_differs``.  The hash is compared every time; the
    dead-divergence probe runs only when the reference carries a
    liveness table, at 1, 2, 4, 8, ... iterations after the injection
    iteration and before the last boundary — at most ten probes in a
    650-iteration window.
    """
    if digest == reference.hashes[boundary]:
        return False
    distance = boundary - injected_at
    if (
        reference.boundary_liveness is None
        or distance & (distance - 1)
        or boundary >= len(reference.outputs)
    ):
        return None
    return _dead_divergence(cpu, environment, reference, boundary)


def _inject(cpu: CPU, scan_chain: ScanChain, fault: FaultDescriptor) -> None:
    """Apply ``fault`` to the seated machine, by each target's partition.

    Scan-chain bits are flipped through the chain.  A ``memory`` target
    flips the stored RAM bit without updating its parity, so the next
    checked read raises DATA ERROR.  An image target (``code-image`` or
    ``data-image``, seated at boundary 0) rewrites the word with fresh
    parity, as a corrupted load image would hold it, and refetches the
    prefetched instruction in case the word is the one at ``pc``.
    """
    for target in fault.targets:
        partition = target.partition
        if partition == MEMORY_PARTITION:
            cpu.memory.corrupt_word_bit(int(target.element, 16), target.bit)
        elif partition == CODE_PARTITION or partition == DATA_PARTITION:
            memory = cpu.memory
            address = int(target.element, 16)
            memory.poke(address, memory.peek(address) ^ (1 << target.bit))
            cpu.ir = memory.fetch_word(cpu.pc)
        else:
            scan_chain.flip(target)


def hold_last_output(
    run: ExperimentRun, environment: EngineEnvironment, iterations: int
) -> None:
    """End ``run`` as timed out: the workload stopped delivering outputs
    (it halted, or an iteration overran the watchdog budget), so the
    actuator holds its last command until the ``iterations`` window
    ends, and the final state counts as different."""
    outputs = run.outputs
    run.timed_out = True
    held = outputs[-1] if outputs else environment.initial_throttle()
    while len(outputs) < iterations:
        outputs.append(held)
    run.final_state_differs = True


#: Workload variables primed when the run starts at an operating point
#: (Figure 3 begins already tracking 2000 rpm).  Actuator-valued state
#: (the integral part and its backups) is set to the steady throttle;
#: measurement-valued state (a PID's previous-measurement and backup) is
#: set to the initial reference speed.
WARM_STATE_NAMES = ("x", "x_old", "u_old")
WARM_MEASUREMENT_NAMES = ("y_prev", "yp_old")


@dataclass
class _Lane:
    """One batch lane: an independent machine + environment replica.

    The lanes of a batch differ only in mutable state (registers, PSW,
    cache line arrays, RAM images, engine state) — the program, decode
    tables and reference data are shared — so a :class:`TargetSystem`
    holding K lanes is the structure-of-arrays form of K faulty
    executions, all driven through one :class:`BatchEngine` loop.
    """

    cpu: CPU
    environment: EngineEnvironment
    scan_chain: ScanChain
    #: Delta-data-plane seat cursor; ``None`` when the lane's owner runs
    #: the full-copy path.
    cursor: Optional[MachineCursor] = None


class TargetSystem:
    """The complete fault-injection target."""

    def __init__(
        self,
        workload: CompiledProgram,
        environment: Optional[EngineEnvironment] = None,
        iterations: int = 650,
        watchdog_factor: float = 10.0,
        warm_start: bool = True,
        batch_size: int = 1,
        environment_factory: Optional[Callable[[], EngineEnvironment]] = None,
        delta_dataplane: bool = True,
    ):
        if iterations <= 0:
            raise CampaignError("iterations must be positive")
        self.workload = workload
        self.environment = environment if environment is not None else EngineEnvironment()
        self.iterations = iterations
        self.watchdog_factor = watchdog_factor
        self.warm_start = warm_start
        #: Lanes per :meth:`run_experiment_batch` call; 1 disables
        #: batching (every experiment runs on the primary machine).
        self.batch_size = max(1, int(batch_size))
        #: Builds additional environment replicas for batch lanes.  When
        #: ``None``, plain :class:`EngineEnvironment` instances are
        #: cloned structurally; custom environment subclasses without a
        #: factory make :meth:`run_experiment_batch` fall back to
        #: serial per-fault execution.
        self.environment_factory = environment_factory
        self.batch_engine = BatchEngine()
        self._lane_pool: List[_Lane] = []
        self._lanes_unavailable = False
        self.cpu = CPU()
        self.scan_chain = ScanChain(self.cpu)
        #: ``False`` pins this target to the classic full-copy
        #: snapshot/restore data plane (the golden-equivalence
        #: baseline); ``True`` stores the reference as base + deltas and
        #: seats experiments through an undo-log cursor.  Outcome
        #: invariant by construction.
        self.delta_dataplane = bool(delta_dataplane)
        self._cursor: Optional[MachineCursor] = (
            MachineCursor(self.cpu, self.environment)
            if self.delta_dataplane
            else None
        )
        self.reference: Optional[ReferenceRun] = None
        #: Def/use liveness of the reference run, populated by
        #: :meth:`run_reference` with ``record_access=True`` (used by the
        #: campaign's fault pruning); ``None`` otherwise.
        self.liveness: Optional[LivenessMap] = None

    def boundary_hash(self) -> bytes:
        """The full-state digest at the current iteration boundary."""
        return _hash_state(self.cpu, self.environment)

    def _warm_start_workload(self) -> None:
        """Prime the controller-state globals to the steady operating point."""
        addresses = self.workload.variable_addresses
        values = {name: self.environment.initial_throttle() for name in WARM_STATE_NAMES}
        initial_speed = self.environment.reference.value(0.0)
        values.update({name: initial_speed for name in WARM_MEASUREMENT_NAMES})
        for name, value in values.items():
            if name in addresses:
                bits = struct.unpack("<I", struct.pack("<f", value))[0]
                self.cpu.memory.poke(addresses[name], bits)

    # -- golden execution ------------------------------------------------------
    def run_reference(self, record_access: bool = False) -> ReferenceRun:
        """Execute the workload fault-free and record all checkpoints.

        With ``record_access=True`` the run additionally keeps a
        compact :class:`~repro.thor.cpu.AccessLog` (executed words, one
        register template per word, the cacheable data accesses), from
        which the def/use access trace of every injectable state element
        (plus the tracked data-space memory words) is derived offline
        into :attr:`liveness` for the campaign's fault pruning, and into
        the reference's :attr:`~ReferenceRun.boundary_liveness` table for
        the dead-divergence exit.  Recording changes nothing about the
        reference's execution — the log only observes.
        """
        cpu = self.cpu
        env = self.environment
        cpu.load(self.workload.program)
        env.reset()
        if self.warm_start:
            self._warm_start_workload()
        env.write_inputs(cpu.memory.mmio)

        # Attach after load(): the loader's pokes are initial state, not
        # architectural accesses.
        log: Optional[AccessLog] = None
        if record_access:
            log = cpu.access_log = AccessLog(cpu.instruction_index)

        if self._cursor is not None:
            # load() replaced the memory map; any armed undo log died
            # with it, and the new reference invalidates the rest.
            self._cursor.invalidate()
        outputs: List[float] = []
        hashes: List[bytes] = [self.boundary_hash()]
        delta_recorder: Optional[DeltaRecorder] = (
            DeltaRecorder(cpu, env) if self.delta_dataplane else None
        )
        snapshots: List[Dict[str, object]] = (
            [] if delta_recorder is not None else [self._snapshot()]
        )
        instructions_at: List[int] = [0]
        max_iteration = 0
        # Generous budget for the golden run; it must always yield.
        budget = 1_000_000
        try:
            for k in range(self.iterations):
                before = cpu.instruction_index
                result = cpu.run(budget)
                if result is not StepResult.YIELD:
                    raise CampaignError(
                        f"reference run failed at iteration {k}: {result} "
                        f"{cpu.detection}"
                    )
                iteration_cost = cpu.instruction_index - before
                max_iteration = max(max_iteration, iteration_cost)
                outputs.append(env.exchange(cpu.memory.mmio))
                hashes.append(self.boundary_hash())
                if delta_recorder is not None:
                    delta_recorder.record()
                else:
                    snapshots.append(self._snapshot())
                instructions_at.append(cpu.instruction_index)
        finally:
            cpu.access_log = None
        boundary_liveness: Optional[BoundaryLiveness] = None
        if log is not None:
            self.liveness = LivenessMap(
                traces_from_log(log),
                cpu.instruction_index,
                traced_memory_ranges(cpu.layout),
            )
            boundary_liveness = self.liveness.boundary_table(instructions_at)
        self.reference = ReferenceRun(
            outputs=outputs,
            hashes=hashes,
            snapshots=(
                delta_recorder.finish() if delta_recorder is not None else snapshots
            ),
            instructions_at=instructions_at,
            total_instructions=cpu.instruction_index,
            max_iteration_instructions=max_iteration,
            boundary_liveness=boundary_liveness,
        )
        return self.reference

    def _snapshot(self) -> Dict[str, object]:
        return {
            "cpu": self.cpu.snapshot(),
            "env": self.environment.snapshot(),
        }

    def _restore(self, snapshot: Dict[str, object]) -> None:
        self.cpu.restore(snapshot["cpu"])  # type: ignore[arg-type]
        self.environment.restore(snapshot["env"])  # type: ignore[arg-type]

    def restore_boundary(self, boundary: int) -> None:
        """Seat the primary machine at reference boundary ``boundary``.

        The supported entry point for snapshot consumers (detail replay,
        lockstep): with the delta data plane it costs O(touched state)
        between consecutive calls, without it a legacy full restore.
        """
        reference = self.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        self._seat(self._cursor, self.cpu, self.environment, reference, boundary)

    def _seat(
        self,
        cursor: Optional[MachineCursor],
        cpu: CPU,
        environment: EngineEnvironment,
        reference: ReferenceRun,
        boundary: int,
    ) -> None:
        """Put one machine at a reference boundary.

        Seat costs accumulate on the cursor (drained by
        :meth:`take_dataplane_stats`): they depend on the visit
        schedule, so they stay out of the per-experiment record.
        """
        if cursor is None:
            snapshot = reference.snapshots[boundary]
            cpu.restore(snapshot["cpu"])  # type: ignore[arg-type]
            environment.restore(snapshot["env"])  # type: ignore[arg-type]
            return
        cursor.begin(reference, boundary)

    def take_dataplane_stats(self) -> Optional[Dict[str, int]]:
        """Drain the accumulated seat-cost counters of every cursor
        (primary machine + batch lanes); ``None`` when the delta data
        plane is off."""
        if not self.delta_dataplane:
            return None
        cursors = [self._cursor] + [
            lane.cursor for lane in self._lane_pool if lane.cursor is not None
        ]
        touched = replayed = full = 0
        for cursor in cursors:
            if cursor is None:
                continue
            t, r, f = cursor.take_stats()
            touched += t
            replayed += r
            full += f
        return {
            "restore_words_touched": touched,
            "delta_replay_iterations": replayed,
            "full_restores": full,
        }

    # -- one experiment -----------------------------------------------------------
    def watchdog_budget(self) -> int:
        """Instructions one iteration of a faulted run may execute before
        it counts as timed out: ``watchdog_factor`` times the reference's
        longest iteration, plus a fixed margin."""
        return (
            int(self.reference.max_iteration_instructions * self.watchdog_factor)
            + 500
        )

    def run_experiment(
        self, fault: FaultDescriptor, early_exit: bool = True
    ) -> ExperimentRun:
        """Inject one fault and observe the run to its termination."""
        reference = self.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        start_iteration = reference.locate(fault.time)
        cpu = self.cpu
        env = self.environment
        self._seat(self._cursor, cpu, env, reference, start_iteration)

        # Replay the fault-free prefix of the injection iteration in one
        # call of the execution loop.  It enters the loop below the
        # public ``run``, so whatever observes ``CPU.run`` sees the
        # faulted suffix only, as it did when the prefix was stepped.
        replay = fault.time - reference.instructions_at[start_iteration]
        if replay:
            result = cpu._run(replay)
            if result is not StepResult.OK:
                raise CampaignError(
                    f"detection during fault-free replay: {cpu.detection}"
                )

        _inject(cpu, self.scan_chain, fault)

        outputs: List[float] = (
            SplicedOutputs(reference.outputs, start_iteration)
            if self.delta_dataplane
            else list(reference.outputs[:start_iteration])
        )
        spliced = self.delta_dataplane
        watchdog = self.watchdog_budget()
        run = ExperimentRun(fault=fault, outputs=outputs)

        for k in range(start_iteration, self.iterations):
            result = cpu.run(watchdog)
            run.instructions_executed = cpu.instruction_index
            if result is StepResult.DETECTED:
                run.detection = cpu.detection
                run.detected_iteration = k
                return run
            if result is not StepResult.YIELD:
                # HALTED, or OK with the watchdog budget exhausted.
                hold_last_output(run, env, self.iterations)
                return run
            outputs.append(env.exchange(cpu.memory.mmio))
            verdict = (
                _exit_verdict(
                    self.boundary_hash(), cpu, env, reference, k + 1, start_iteration
                )
                if early_exit
                else None
            )
            if verdict is not None:
                if spliced:
                    outputs.splice_tail(k + 1)
                else:
                    outputs.extend(reference.outputs[k + 1 :])
                run.early_exit_iteration = k + 1
                run.final_state_differs = verdict
                return run
        run.final_state_differs = self.boundary_hash() != reference.hashes[-1]
        return run

    # -- batched experiments -------------------------------------------------------
    def _clone_environment(self) -> Optional[EngineEnvironment]:
        if self.environment_factory is not None:
            return self.environment_factory()
        env = self.environment
        if type(env) is EngineEnvironment:
            # The profiles are stateless lookup tables and the engine's
            # mutable state is overwritten by every snapshot restore, so
            # a structural clone behaves identically.
            return EngineEnvironment(
                engine=EngineModel(env.engine.params),
                reference=env.reference,
                load=env.load,
                warm_start=env.warm_start,
            )
        return None

    def _lanes(self, count: int) -> Optional[List[_Lane]]:
        """Up to ``count`` ready lanes, or None when the environment
        cannot be replicated (no factory, custom subclass)."""
        if self._lanes_unavailable:
            return None
        while len(self._lane_pool) < count:
            env = self._clone_environment()
            if env is None:
                self._lanes_unavailable = True
                return None
            cpu = CPU()
            cpu.fast_dispatch = self.cpu.fast_dispatch
            cpu.load(self.workload.program)
            self._lane_pool.append(
                _Lane(
                    cpu=cpu,
                    environment=env,
                    scan_chain=ScanChain(cpu),
                    cursor=(
                        MachineCursor(cpu, env) if self.delta_dataplane else None
                    ),
                )
            )
        return self._lane_pool[:count]

    def run_experiment_batch(
        self, faults: List[FaultDescriptor], early_exit: bool = True
    ) -> List[ExperimentRun]:
        """Run several experiments through one shared dispatch loop.

        Up to :attr:`batch_size` faults execute concurrently, each on
        its own lane (private registers/cache/RAM/engine state), with
        every lane's next control iteration dispatched through the same
        :class:`BatchEngine`.  Interleaving iterations of independent
        lanes changes nothing observable per experiment — results are
        identical, field for field, to :meth:`run_experiment` run
        serially; only the order of global detection-listener callbacks
        across *different* experiments changes (all consumers aggregate
        per experiment or order-insensitively).
        """
        reference = self.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        faults = list(faults)
        lanes = (
            self._lanes(min(self.batch_size, len(faults)))
            if self.batch_size > 1 and len(faults) > 1
            else None
        )
        if not lanes:
            return [self.run_experiment(fault, early_exit) for fault in faults]

        engine = self.batch_engine
        iterations = self.iterations
        watchdog = self.watchdog_budget()
        results: List[Optional[ExperimentRun]] = [None] * len(faults)
        free = list(lanes)
        next_index = 0
        # Active slots: [lane, result_index, run, outputs, k,
        # start_iteration] per in-flight experiment, stepped round-robin
        # one iteration at a time so the lanes share the dispatch loop's
        # warm state.
        active: List[List[object]] = []

        spliced = self.delta_dataplane

        def _start(lane: _Lane, index: int) -> List[object]:
            fault = faults[index]
            start_iteration = reference.locate(fault.time)
            self._seat(
                lane.cursor, lane.cpu, lane.environment, reference, start_iteration
            )
            replay = fault.time - reference.instructions_at[start_iteration]
            if replay:
                result = engine.run(lane.cpu, replay)
                if result is not StepResult.OK:
                    raise CampaignError(
                        f"detection during fault-free replay: {lane.cpu.detection}"
                    )
            _inject(lane.cpu, lane.scan_chain, fault)
            outputs: List[float] = (
                SplicedOutputs(reference.outputs, start_iteration)
                if spliced
                else list(reference.outputs[:start_iteration])
            )
            run = ExperimentRun(fault=fault, outputs=outputs)
            return [lane, index, run, outputs, start_iteration, start_iteration]

        while active or next_index < len(faults):
            while free and next_index < len(faults):
                active.append(_start(free.pop(), next_index))
                next_index += 1
            for slot in list(active):
                lane = slot[0]
                run = slot[2]
                outputs = slot[3]
                k = slot[4]
                cpu = lane.cpu
                env = lane.environment
                done = False
                result = engine.run(cpu, watchdog)
                run.instructions_executed = cpu.instruction_index
                if result is StepResult.DETECTED:
                    run.detection = cpu.detection
                    run.detected_iteration = k
                    done = True
                elif result is not StepResult.YIELD:
                    hold_last_output(run, env, iterations)
                    done = True
                else:
                    outputs.append(env.exchange(cpu.memory.mmio))
                    verdict = (
                        _exit_verdict(
                            _hash_state(cpu, env), cpu, env, reference, k + 1, slot[5]
                        )
                        if early_exit
                        else None
                    )
                    if verdict is not None:
                        if spliced:
                            outputs.splice_tail(k + 1)
                        else:
                            outputs.extend(reference.outputs[k + 1 :])
                        run.early_exit_iteration = k + 1
                        run.final_state_differs = verdict
                        done = True
                    elif k + 1 >= iterations:
                        run.final_state_differs = (
                            _hash_state(cpu, env) != reference.hashes[-1]
                        )
                        done = True
                    else:
                        slot[4] = k + 1
                if done:
                    results[slot[1]] = run  # type: ignore[index]
                    active.remove(slot)
                    free.append(lane)
        return results  # type: ignore[return-value]
