"""The CPU core: registers, execute loop, error-detection mechanisms.

Architectural and micro-architectural state (the "Registers" partition of
the paper's Tables 2/3, 426 injectable bits):

* ``r0..r7`` — general-purpose registers (8 x 32 bits),
* ``sp`` — stack pointer (32),
* ``pc`` — program counter (32),
* ``psw`` — 10-bit status word (``Z N C V`` flags in bits 0–3, reserved
  bits 4–6, supervisor mode ``M`` in bit 7, reserved 8–9),
* ``ir`` — instruction register (32); the next instruction is prefetched
  into IR at the end of the previous one, so a bit-flip injected at an
  instruction boundary corrupts the instruction about to execute,
* ``mar`` / ``mdr`` — memory address/data latches of the load-store path
  (32 + 32).

Detections freeze the CPU (the experiment's termination condition) and
are reported as :class:`~repro.thor.edm.DetectionEvent` values.

Dispatch
--------

The ISA is specified once, per opcode, in :mod:`repro.thor.semantics`.
At import this module generates two interpreters from it, with
identical observable behaviour:

* **the traced step** (:meth:`CPU._traced_step`): decode, check, trace
  and execute one instruction with every recorder hook, through
  :class:`~repro.thor.cache.DataCache`'s hooked ``read``/``write`` and
  the checked :class:`~repro.thor.memory.MemoryMap` paths.  It runs
  whenever a recorder or trace hook is attached (they must observe
  every access in order) or :attr:`CPU.fast_dispatch` is off.
* **the table-driven loop** (:meth:`CPU.run`): words are predecoded
  into flat ``(arm, o1, o2, o3)`` entries in :data:`_ENTRIES`, keyed by
  the raw word (a corrupted IR dispatches through its own entry), and
  executed inline over the CPU's state hoisted into locals, with the
  cache hit inlined and :func:`_miss_read`/:func:`_miss_write` called on
  a miss.  Every non-privileged opcode has an arm, tested in the order
  of the measured dynamic mix (:data:`~repro.thor.semantics.MEASURED_MIX`:
  ST, LD, SIG, BR, FCMP, FMUL, BLT, ...; only 18 opcodes execute on the
  paper's references, ST and LD 65% of them).  Privileged and illegal
  opcodes and register fields outside the register file get a generic
  entry that runs one traced step, so detection order and detail
  strings are the traced step's own.

The generated source is registered with :mod:`linecache` under
:data:`_GENERATED_FILE`, so tracebacks, profilers and
``inspect.getsource`` show its lines.  :meth:`CPU.step`, reference
runs, prefix replay, faulted suffixes and batch lanes all run the loop.

Access logging
--------------

A recording reference run (def/use liveness, :mod:`repro.faults.liveness`)
also runs on the table-driven loop, with an :class:`AccessLog` attached
as :attr:`CPU.access_log`.  The log keeps only what the offline
derivation needs, in ``array`` buffers: the word of every executed
instruction, and the time, address and direction of every cacheable
data access.  The loop binds three of its locals to the log — the entry
lookup, which reports each word, and the two cache miss calls, which
every cacheable access takes because no line reads as valid — so an
unlogged run pays one ``if`` per :meth:`CPU.run` call and nothing per
instruction.  The register, PSW, MAR and MDR accesses of a word are the
same on every execution that does not detect, so they are captured once
per word, as a *template*: a word's first execution takes the generic
entry, i.e. one traced step with the log as its recorder.  Logging thus
adds no per-opcode code of its own.
"""

from __future__ import annotations

import ast
import enum
import linecache
import struct
import textwrap
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.thor.cache import DataCache
from repro.thor.edm import (
    DetectionEvent,
    HardwareDetection,
    Mechanism,
    raise_detection,
)
from repro.thor.isa import (  # the PSW flags are re-exported
    FLAG_C,
    FLAG_M,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    NUM_GPRS,
    REGISTER_NAMES,
    SP_INDEX,
)
from repro.thor.memory import MemoryLayout, MemoryMap, WORD, _parity
from repro.thor.program import Program
from repro.thor.semantics import (
    CONSTANTS,
    MEASURED_MIX,
    SPEC,
    SPEC_BY_CODE,
    OpSpec,
    float_result,
)

PSW_BITS = 10
PSW_MASK = (1 << PSW_BITS) - 1

_U32 = 0xFFFFFFFF

_STRUCT_I = struct.Struct("<I")
_STRUCT_F = struct.Struct("<f")

#: Register-file image: r0..r7 + sp, pc, psw, ir, mar, mdr, signature,
#: halted flag — one struct keeps :meth:`CPU.register_state_bytes`
#: byte-identical to the per-field serialisation it replaces.
_REG_STATE_STRUCT = struct.Struct("<9IIHIIIi?")


class StepResult(enum.Enum):
    """Outcome of one :meth:`CPU.step` call."""

    OK = "ok"
    YIELD = "yield"
    HALTED = "halted"
    DETECTED = "detected"


@dataclass
class TraceEntry:
    """One detail-mode trace record (GOOFI's detail logging)."""

    index: int
    pc: int
    word: int
    mnemonic: str


class CPU:
    """The simulated processor (one core, data cache, Table 1 EDMs).

    :meth:`_run` (the table-driven loop) and :meth:`_traced_step` are
    generated from :mod:`repro.thor.semantics` below the class.
    """

    #: Class-level default; tests set ``cpu.fast_dispatch = False`` to run
    #: every instruction through the traced step, the oracle the
    #: table-driven loop is compared against.
    fast_dispatch: bool = True

    def __init__(self, layout: MemoryLayout = MemoryLayout()):
        self.layout = layout
        self.memory = MemoryMap(layout)
        self.cache = DataCache()
        self.regs: List[int] = [0] * (NUM_GPRS + 1)  # r0..r7 + sp
        self.pc = layout.code_base
        self.psw = 0
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        #: Control-flow checking state (part of the non-injectable
        #: state elements, like the ~750 Thor elements outside the
        #: 2250-element sample).
        self.last_signature: Optional[int] = None
        self.signature_successors: Dict[int, frozenset] = {}
        self.instruction_index = 0
        self.detection: Optional[DetectionEvent] = None
        self.halted = False
        self.last_svc: Optional[int] = None
        #: Optional detail-mode hook, called with a TraceEntry per step.
        self.trace_hook = None
        #: Optional access-trace recorder (duck-typed
        #: :class:`repro.faults.liveness.AccessRecorder`, the hooked
        #: oracle of the access log); ``None`` otherwise so the hooks
        #: cost a single identity check.
        self.recorder = None
        #: Optional :class:`AccessLog`, attached during a recording
        #: reference run; ``None`` otherwise.  Never attached together
        #: with :attr:`recorder`: the log's traced steps use that slot.
        self.access_log: Optional[AccessLog] = None

    # -- program loading ------------------------------------------------------
    def load(self, program: Program) -> None:
        """Load a program image and reset execution state."""
        program.check_fits(self.layout)
        self.memory = MemoryMap(self.layout)
        self.cache = DataCache()
        for i, word in enumerate(program.code):
            self.memory.poke(self.layout.code_base + i * WORD, word)
        for address, word in program.data.items():
            self.memory.poke(address, word)
        self.signature_successors = {
            k: frozenset(v) for k, v in program.signature_successors.items()
        }
        self.regs = [0] * (NUM_GPRS + 1)
        self.regs[SP_INDEX] = self.layout.stack_top
        self.psw = 0  # user mode
        self.pc = program.entry
        self.mar = 0
        self.mdr = 0
        self.last_signature = None
        self.instruction_index = 0
        self.detection = None
        self.halted = False
        self.last_svc = None
        # Prefetch the first instruction.
        self.ir = self.memory.fetch_word(self.pc)

    # -- the execute loop ------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute one instruction; freeze on detections.

        Returns :data:`StepResult.YIELD` when an ``SVC`` executed (the
        service number is left in :attr:`last_svc`); the environment
        exchange happens outside and execution resumes with the next
        :meth:`step` call.
        """
        return self._run(1)

    def run(self, max_instructions: int) -> StepResult:
        """Step until yield/halt/detection or the instruction budget ends."""
        return self._run(max_instructions)

    def _freeze(self, event: HardwareDetection) -> StepResult:
        """Record a detection at the current pc/instruction index."""
        self.detection = DetectionEvent(
            mechanism=event.mechanism,
            pc=self.pc,
            instruction_index=self.instruction_index,
            detail=event.detail,
        )
        return StepResult.DETECTED

    # -- state access -------------------------------------------------------------
    def register_state_bytes(self) -> bytes:
        """Registers + PSW + latches, for run-state hashing."""
        sig = -1 if self.last_signature is None else self.last_signature
        return _REG_STATE_STRUCT.pack(
            *self.regs,
            self.pc,
            self.psw & PSW_MASK,
            self.ir,
            self.mar,
            self.mdr,
            sig,
            self.halted,
        )

    def state_bytes(self) -> bytes:
        """Full target-system state (CPU + cache + memory)."""
        return (
            self.register_state_bytes()
            + self.cache.state_bytes()
            + self.memory.state_bytes()
        )

    def snapshot(self) -> Dict[str, object]:
        """A restorable copy of the full target-system state."""
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "psw": self.psw,
            "ir": self.ir,
            "mar": self.mar,
            "mdr": self.mdr,
            "last_signature": self.last_signature,
            "instruction_index": self.instruction_index,
            "halted": self.halted,
            "cache": self.cache.snapshot(),
            "memory": self.memory.snapshot(),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.regs[:] = snapshot["regs"]  # type: ignore[arg-type]
        self.pc = snapshot["pc"]  # type: ignore[assignment]
        self.psw = snapshot["psw"]  # type: ignore[assignment]
        self.ir = snapshot["ir"]  # type: ignore[assignment]
        self.mar = snapshot["mar"]  # type: ignore[assignment]
        self.mdr = snapshot["mdr"]  # type: ignore[assignment]
        self.last_signature = snapshot["last_signature"]  # type: ignore[assignment]
        self.instruction_index = snapshot["instruction_index"]  # type: ignore[assignment]
        self.halted = snapshot["halted"]  # type: ignore[assignment]
        self.detection = None
        self.cache.restore(snapshot["cache"])  # type: ignore[arg-type]
        self.memory.restore(snapshot["memory"])  # type: ignore[arg-type]

# ---------------------------------------------------------------------------
# The dispatch table
# ---------------------------------------------------------------------------

#: One predecoded entry: ``(arm, o1, o2, o3)``, the arm's operands being
#: the spec's register fields, immediate and derived constants in order.
_Entry = Tuple[int, int, int, int]

_ENTRIES: Dict[int, _Entry] = {}
_ENTRIES_CAP = 65536

#: Arm 0 runs one traced step.
_GENERIC_ENTRY: _Entry = (0, 0, 0, 0)


def _no_arm(*_fields: int) -> _Entry:
    """The operands of an opcode without an arm: privileged or illegal."""
    return _GENERIC_ENTRY


def _entry(word: int) -> _Entry:
    """Predecode ``word`` into the process-wide table: its arm's entry,
    or the generic entry for privileged and illegal opcodes and for
    register fields outside the register file."""
    operands = _OPERANDS.get(word >> 24, _no_arm)
    imm = word & 0xFFFF
    entry = operands(
        (word >> 20) & 15, (word >> 16) & 15, (word >> 12) & 15, imm, (imm ^ 0x8000) - 0x8000
    )
    if len(_ENTRIES) < _ENTRIES_CAP:
        _ENTRIES[word] = entry
    return entry


def _traced_field(recorder, index: int, write: bool) -> int:
    """A register field on the traced step: INSTRUCTION ERROR outside
    the register file, then the recorded access."""
    if index > SP_INDEX:
        raise_detection(Mechanism.INSTRUCTION_ERROR, f"register field {index}")
    if recorder is not None:
        (recorder.reg_write if write else recorder.reg_read)(REGISTER_NAMES[index])
    return index


def _write_back(cache, memory, line: int) -> None:
    """Write a valid dirty line back, with the delegated checks of
    :meth:`MemoryMap.write_data_word` flattened out for RAM victims."""
    victim = (cache.tags[line] << 7) | (line << 2)
    cache.writebacks += 1
    layout = memory.layout
    if layout.data_base <= victim < layout.data_base + layout.data_size:
        ram = memory.data
    elif layout.stack_base <= victim < layout.stack_base + layout.stack_size:
        ram = memory.stack
    else:
        # Corrupted tags send write-backs anywhere: keep the fully
        # checked path (protected regions, MMIO, unmapped space).
        memory.write_data_word(victim, int(cache.data[line]))
        return
    i = (victim - ram.base) >> 2
    value = cache.data[line] & _U32
    undo = ram.undo
    if undo is not None and i not in undo:
        undo[i] = (ram.words[i], ram.parity[i])
    ram.words[i] = value
    ram.parity[i] = _parity(value)
    ram.version += 1


def _miss_read(cache, memory, address: int, line: int, tag: int) -> int:
    """:meth:`DataCache.read`'s miss path for a known-cacheable address
    with no recorder attached, with the region scans and per-call
    rechecks of the calls it delegates to flattened out.  Mutation
    order matches the original exactly — including what is (and is not)
    updated when the victim write-back or the refill read raises a
    detection."""
    cache.misses += 1
    valid = cache.valid
    dirty = cache.dirty
    if valid[line] and dirty[line]:
        _write_back(cache, memory, line)
    valid[line] = 0
    dirty[line] = 0
    if address % WORD:
        raise_detection(Mechanism.ADDRESS_ERROR, f"unaligned {address:#x}")
    layout = memory.layout
    if layout.data_base <= address < layout.data_base + layout.data_size:
        ram = memory.data
    elif layout.stack_base <= address < layout.stack_base + layout.stack_size:
        ram = memory.stack
    else:
        ram = memory.rodata
    i = (address - ram.base) >> 2
    value = ram.words[i]
    if _parity(value) != ram.parity[i]:
        raise_detection(Mechanism.DATA_ERROR, f"parity at {address:#x}")
    cache.data[line] = value
    cache.tags[line] = tag
    valid[line] = 1
    return value


def _miss_write(
    cache, memory, address: int, value: int, line: int, tag: int
) -> None:
    """:meth:`DataCache.write`'s miss path (write-allocate, no refill)
    for a known-cacheable address with no recorder attached."""
    cache.misses += 1
    if cache.valid[line] and cache.dirty[line]:
        _write_back(cache, memory, line)
    cache.tags[line] = tag
    cache.valid[line] = 1
    cache.data[line] = value & _U32
    cache.dirty[line] = 1


#: The line-valid bits a logging run's loop sees: every cacheable access
#: takes the miss call, which the log replaces with its own.
_NO_VALID_LINES = (0,) * 32

#: One template entry: ``(register element, is_write, bit mask)``.
TemplateEntry = Tuple[str, bool, int]


class AccessLog:
    """The compact def/use log of one run on the table-driven loop.

    Attached as :attr:`CPU.access_log` (see "Access logging" in the
    module docstring).  :mod:`repro.faults.liveness` derives every
    element's access trace from it offline.  Instruction ``i`` of the
    run (counting from :attr:`start`) executed ``words[i - start]``.

    Attributes:
        start: the instruction index the log starts at.
        words: the word of every executed instruction, in order.
        access_times: per cacheable data access, the position in
            :attr:`words` of the instruction that made it.
        access_addresses: per cacheable data access, its address.
        access_writes: per cacheable data access, 1 for a write.
        templates: per executed word, the register, PSW, MAR and MDR
            accesses of one execution of it, in order, as the traced
            step's recorder hooks reported them.
    """

    __slots__ = (
        "start",
        "words",
        "access_times",
        "access_addresses",
        "access_writes",
        "templates",
        "now",
        "_entries",
        "_template",
    )

    def __init__(self, start: int = 0) -> None:
        self.start = start
        self.words = array("I")
        self.access_times = array("q")
        self.access_addresses = array("q")
        self.access_writes = array("B")
        self.templates: Dict[int, Tuple[TemplateEntry, ...]] = {}
        #: Set by the traced step's recorder protocol; the log times accesses
        #: by their position in :attr:`words` instead.
        self.now = 0
        #: Table entries of the words whose template is captured.
        self._entries: Dict[int, _Entry] = {}
        self._template: List[TemplateEntry] = []

    # -- the table loop's locals ------------------------------------------------
    def entry(self, word: int) -> _Entry:
        """The loop's entry lookup: log ``word``, or send a word without
        a template to the generic arm, which runs :meth:`step`."""
        entry = self._entries.get(word)
        if entry is None:
            return _GENERIC_ENTRY
        self.words.append(word)
        return entry

    def read(self, cache, memory, address: int, line: int, tag: int) -> int:
        """The loop's read-miss call: log the access, then make it (the
        loop's hit check, else its miss path)."""
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(0)
        if cache.valid[line] and cache.tags[line] == tag:
            cache.hits += 1
            return cache.data[line]
        return _miss_read(cache, memory, address, line, tag)

    def write(
        self, cache, memory, address: int, value: int, line: int, tag: int
    ) -> None:
        """The loop's write-miss call: log the access, then make it."""
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(1)
        if cache.valid[line] and cache.tags[line] == tag:
            cache.hits += 1
            cache.data[line] = value
            cache.dirty[line] = 1
        else:
            _miss_write(cache, memory, address, value, line, tag)

    def step(self, cpu: "CPU") -> StepResult:
        """Run one traced step with this log as the recorder: log the
        word and its data access, and capture the word's template.
        Detections propagate."""
        word = cpu.ir & _U32
        self.words.append(word)
        template: List[TemplateEntry] = []
        self._template = template
        cpu.recorder = self
        try:
            result = cpu._traced_step()
        finally:
            cpu.recorder = None
        self.templates[word] = tuple(template)
        entry = _ENTRIES.get(word) or _entry(word)
        if entry is not _GENERIC_ENTRY:
            self._entries[word] = entry
        return result

    # -- the traced step's recorder protocol, during step() -------------------
    def reg_read(self, element: str, mask: int = _U32) -> None:
        self._template.append((element, False, mask))

    def reg_write(self, element: str, mask: int = _U32) -> None:
        self._template.append((element, True, mask))

    def data_access(self, address: int, is_write: bool) -> None:
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(1 if is_write else 0)


class BatchEngine:
    """The dispatch loop batch lanes run through.

    Callers keep K independent :class:`CPU` lanes (plus their
    caches/memories) and feed each lane's next execution slice through
    :meth:`run`; the loop itself is :meth:`CPU.run`, shared by every
    un-traced execution.
    """

    __slots__ = ()

    def run(self, cpu: CPU, max_instructions: int) -> StepResult:
        """Run one lane until yield/halt/detection or budget end."""
        return cpu.run(max_instructions)


# ---------------------------------------------------------------------------
# The interpreters, generated from the specification
# ---------------------------------------------------------------------------

#: The pseudo-filename the generated source is registered under.
_GENERATED_FILE = "<repro.thor.cpu: interpreters generated from repro.thor.semantics>"

_FLAG_BITS = {"z": FLAG_Z, "n": FLAG_N, "c": FLAG_C, "v": FLAG_V, "m": FLAG_M}

_PREFETCH = "word = fc_get(pc, -1)\nif word < 0:\n    word = fetch(pc)\nir = word\n"

#: The table loop's scalar state, written back at every exit.
_SAVE = """\
self.pc = pc
self.psw = psw
self.ir = ir
self.mar = mar
self.mdr = mdr
self.last_signature = last_sig
self.instruction_index = index
"""


def _bind(name: str, expression: str) -> Tuple[str, str]:
    """``(statement, variable)``: ``expression`` bound to ``name``, or
    used as it is when it is a variable already."""
    if expression.isidentifier():
        return "", expression
    return f"{name} = {expression}\n", name


def _block(text: str) -> str:
    return textwrap.indent(text, "    ")


class _Primitives:
    """How one interpreter expands a spec body's primitives (see
    :mod:`repro.thor.semantics`).  Expression primitives return an
    expression; statement primitives return statements and take an
    assigned variable as their first argument."""

    #: Recorder calls for the MAR/MDR writes and the SP read.
    LATCHES = SP_READ = ""

    def __init__(self, spec: OpSpec):
        self.spec = spec

    def FLOAT(self, bits: str) -> str:
        return f"unpack_f(pack_i({bits}))[0]"

    def _flags(self, flags: Dict[str, str]) -> str:
        """The new flag bits, as one expression."""
        terms = []
        for name, condition in flags.items():
            bit = _FLAG_BITS[name]
            if not bit & self.spec.psw_write:
                raise ValueError(f"{self.spec.opcode.name}: FLAGS({name}=) outside psw_write")
            terms.append(str(bit) if condition == "True" else f"({bit} if {condition} else 0)")
        return " | ".join(terms)

    def LOAD(self, target: str, address: str, stack: bool = False) -> str:
        bind, a = _bind("address", address)
        read = self._read(target, a, stack)
        return f"{bind}{self.LATCHES}mar = {a}\n{read}mdr = {target}\n"

    def STORE(self, address: str, value: str) -> str:
        bind_a, a = _bind("address", address)
        bind_v, v = _bind("value", value)
        write = self._write(a, v)
        return f"{bind_a}{bind_v}{self.LATCHES}mar = {a}\nmdr = {v}\n{write}"

    def _stack_pointer(self, sp: str) -> str:
        return (
            f"{self.SP_READ}sp = {sp}\n"
            "if sp % 4 or not stack_base <= sp <= stack_top:\n"
            '    raise_detection(Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack")\n'
        )

    def PUSH(self, value: str) -> str:
        return self._stack_pointer("(regs[8] - 4) & 0xFFFFFFFF") + self.STORE("sp", value)

    def POP(self, target: str, empty: str) -> str:
        return (
            self._stack_pointer("regs[8]")
            + f"if sp >= stack_top:\n    raise_detection(Mechanism.STORAGE_ERROR, {empty})\n"
            + self.LOAD(target, "sp", stack=True)
        )

    def JUMP(self, target: str) -> str:
        bind, t = _bind("target", target)
        return (
            f"{bind}if not code_base <= {t} < code_end:\n"
            f'    raise_detection(Mechanism.JUMP_ERROR, f"target {{{t}:#x}} outside code")\n'
            + self._end_at(t)
        )


class _Fast(_Primitives):
    """The table loop's expansions: operands come from the entry, state
    from the hoisted locals, the cache hit is inline."""

    def READ(self, field: str) -> str:
        return f"regs[{field}]"

    def WRITE(self, field: str, value: str) -> str:
        return f"regs[{field}] = {value}"

    def FLAGS(self, **flags: str) -> str:
        return f"psw = (psw & ~{self.spec.psw_write}) | {self._flags(flags)}"

    @staticmethod
    def _line(address: str, hit: str, miss: str) -> str:
        return (
            f"line = ({address} >> 2) & 31\ntag = ({address} >> 7) & 0x7FFFFF\n"
            f"if cache_valid[line] and cache_tags[line] == tag:\n"
            f"    hits += 1\n{_block(hit)}else:\n    {miss}\n"
        )

    @staticmethod
    def _cacheable(a: str, access: str, uncached: str) -> str:
        return (
            f"if data_base <= {a} < data_end or stack_base <= {a} < stack_top"
            f" or rodata_base <= {a} < rodata_end:\n{_block(access)}"
            f"else:\n    {uncached}\n"
        )

    def _read(self, target: str, a: str, stack: bool) -> str:
        # A stack pointer past the checks addresses the stack: cacheable.
        read = self._line(
            a, f"{target} = cache_data[line]\n",
            f"{target} = miss_read(cache, memory, {a}, line, tag)",
        )
        return read if stack else self._cacheable(a, read, f"{target} = read_word({a})")

    def _write(self, a: str, v: str) -> str:
        write = self._line(
            a, f"cache_data[line] = {v}\ncache_dirty[line] = 1\n",
            f"miss_write(cache, memory, {a}, {v}, line, tag)",
        )
        return self._cacheable(a, write, f"write_word({a}, {v})")

    def _end_at(self, target: str) -> str:
        return f"index += 1\npc = {target}\n{_PREFETCH}continue\n"

    def YIELD(self, service: str) -> str:
        return (
            f"self.last_svc = {service}\nindex += 1\npc = (pc + 4) & 0xFFFFFFFF\n"
            f"{_PREFETCH}{_SAVE}cache.hits += hits\nreturn StepResult.YIELD\n"
        )


class _Traced(_Primitives):
    """The traced step's expansions: checked register fields, recorder
    calls, the hooked cache and the checked memory map."""

    LATCHES = (
        "if recorder is not None:\n"
        "    recorder.reg_write('mar')\n    recorder.reg_write('mdr')\n"
    )
    SP_READ = "if recorder is not None:\n    recorder.reg_read('sp')\n"

    def READ(self, field: str) -> str:
        return f"regs[_traced_field(recorder, {field}, False)]"

    def WRITE(self, field: str, value: str) -> str:
        # The value is computed (and may detect) before the field check.
        return f"regs[_traced_field(recorder, {field}, True)] = {value}"

    def FLAGS(self, **flags: str) -> str:
        mask = self.spec.psw_write
        return (
            f"bits = {self._flags(flags)}\n"
            f"if recorder is not None:\n    recorder.reg_write('psw', {mask})\n"
            f"psw = (psw & ~{mask}) | bits\n"
        )

    @staticmethod
    def _cacheable(a: str, is_write: bool, access: str, uncached: str) -> str:
        return (
            f"if memory.is_cacheable({a}):\n"
            f"    if recorder is not None:\n        recorder.data_access({a}, {is_write})\n"
            f"    {access}\nelse:\n    {uncached}\n"
        )

    def _read(self, target: str, a: str, stack: bool) -> str:
        return self._cacheable(
            a, False, f"{target} = cache.read({a}, memory)",
            f"{target} = memory.read_data_word({a})",
        )

    def _write(self, a: str, v: str) -> str:
        return self._cacheable(
            a, True, f"cache.write({a}, {v}, memory)", f"memory.write_data_word({a}, {v})"
        )

    def _end_at(self, target: str) -> str:
        return f"next_pc = {target}\n"

    def YIELD(self, service: str) -> str:
        return f"self.last_svc = {service}\nstep_result = StepResult.YIELD\n"

    def HALT(self) -> str:
        return "self.halted = True\nself.instruction_index += 1\nreturn StepResult.HALTED\n"


_EXPRESSIONS = frozenset({"READ", "FLOAT"})
_STATEMENTS = frozenset({"WRITE", "FLAGS", "LOAD", "STORE", "PUSH", "POP", "JUMP", "YIELD", "HALT"})


class _Expand(ast.NodeTransformer):
    """Expand a body's primitives, rename its operands and inline the
    named constants of :data:`CONSTANTS` (the primitives' expansions
    are written with literals)."""

    def __init__(self, primitives: Optional[_Primitives], rename: Dict[str, str]):
        self.primitives = primitives
        self.rename = rename

    def visit_Name(self, node: ast.Name) -> ast.AST:
        name = self.rename.get(node.id)
        if name is not None:
            return ast.copy_location(ast.Name(name, node.ctx), node)
        if node.id in CONSTANTS and isinstance(node.ctx, ast.Load):
            return ast.copy_location(ast.Constant(CONSTANTS[node.id]), node)
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        name = getattr(node.func, "id", None)
        if name not in _EXPRESSIONS:
            return node
        expansion = getattr(self.primitives, name)(*map(ast.unparse, node.args))
        return ast.parse(expansion, mode="eval").body

    def visit_Expr(self, node: ast.Expr) -> object:
        return self._statement(node, [])

    def visit_Assign(self, node: ast.Assign) -> object:
        return self._statement(node, [ast.unparse(target) for target in node.targets])

    def _statement(self, node: ast.stmt, targets: List[str]) -> object:
        self.generic_visit(node)
        call = node.value
        name = getattr(getattr(call, "func", None), "id", None)
        if name not in _STATEMENTS:
            return node
        arguments = targets + [ast.unparse(arg) for arg in call.args]
        keywords = {k.arg: ast.unparse(k.value) for k in call.keywords}
        return ast.parse(getattr(self.primitives, name)(*arguments, **keywords)).body


def _inline(source: str) -> str:
    """``source`` with the named constants of :data:`CONSTANTS` inlined."""
    return ast.unparse(_Expand(None, {}).visit(ast.parse(source)))


def _arm(spec: OpSpec, primitives: _Primitives, rename: Dict[str, str], prologue: str) -> str:
    """``prologue`` and ``spec``'s body, expanded, indented as one arm."""
    tree = _Expand(primitives, rename).visit(ast.parse(prologue + spec.body))
    return _block(ast.unparse(tree) + "\n")


def _fill(template: str, **blocks: str) -> str:
    """Replace each ``$NAME`` line of ``template`` by ``blocks[NAME]``
    at that line's indentation."""
    out = []
    for line in template.splitlines(True):
        name = line.strip()
        indent = line[: len(line) - len(line.lstrip())]
        out.append(textwrap.indent(blocks[name[1:]], indent) if name[:1] == "$" else line)
    return "".join(out)


def _generate_interpreters() -> str:
    """The source of :meth:`CPU._run`, :meth:`CPU._traced_step` and the
    predecoder's :data:`_OPERANDS`, generated from :data:`SPEC`.  The
    arms are tested in the order of :data:`MEASURED_MIX`, then ISA order."""
    rank = {opcode: i for i, opcode in enumerate(MEASURED_MIX)}
    fast_arms: List[str] = []
    traced_arms: List[str] = []
    operands: List[str] = []
    for spec in sorted(SPEC, key=lambda spec: rank.get(spec.opcode, len(rank))):
        name, code = spec.opcode.name, int(spec.opcode)
        prologue = "".join(f"{operand} = {expr}\n" for operand, expr in spec.operands)
        if spec.psw_read:
            prologue = (
                f"if recorder is not None:\n"
                f"    recorder.reg_read('psw', {spec.psw_read})\n{prologue}"
            )
        traced_arms.append(
            f"{'elif' if traced_arms else 'if'} op == {code:#04x}:  # {name}\n"
            + _arm(spec, _Traced(spec), {}, prologue)
        )
        if spec.privileged:
            continue
        # The entry carries the register fields, the immediate the body
        # reads and the derived operands, as o1..o3.
        arm = len(fast_arms) + 1
        body_names = {n.id for n in ast.walk(ast.parse(spec.body)) if isinstance(n, ast.Name)}
        slots = list(spec.fields) + [n for n in ("imm", "simm") if n in body_names]
        slots += [operand for operand, _ in spec.operands]
        if len(slots) > 3:
            raise ValueError(f"{name}: more than three operands {slots}")
        fast_arms.append(
            f"{'elif' if fast_arms else 'if'} op == {arm}:  # {name} {' '.join(slots)}\n"
            + _arm(spec, _Fast(spec), {s: f"o{i}" for i, s in enumerate(slots, 1)}, "")
        )
        derived = dict(spec.operands)
        values = [derived.get(slot, slot) for slot in slots] + ["0"] * (3 - len(slots))
        entry = f"({arm}, {', '.join(values)})"
        if spec.fields:
            entry += f" if {' and '.join(f'{f} <= 8' for f in spec.fields)} else _GENERIC_ENTRY"
        operands.append(
            f"{code:#04x}: lambda rd, rs1, rs2, imm, simm: {_inline(entry)},  # {name}\n"
        )
    return (
        "_OPERANDS = {\n" + _block("".join(operands)) + "}\n"
        + _fill(_RUN_TEMPLATE, ARMS="".join(fast_arms), SAVE=_SAVE)
        + _fill(_STEP_TEMPLATE, ARMS="".join(traced_arms))
    )


_RUN_TEMPLATE = '''

def _run(self, max_instructions):
    """:meth:`run`'s body: the traced step when tracing, the table-driven
    loop otherwise.  :meth:`step` and fault-free prefix replay enter here
    directly, so a profiler wrapping :meth:`run` times reference runs and
    faulted suffixes only."""
    if self.detection is not None:
        return StepResult.DETECTED
    if self.halted:
        return StepResult.HALTED
    self.last_svc = None
    log = self.access_log
    execute = self._traced_step if log is None else partial(log.step, self)
    if (
        self.recorder is not None
        or self.trace_hook is not None
        or not self.fast_dispatch
    ):
        try:
            for _ in range(max_instructions):
                result = execute()
                if result is not StepResult.OK:
                    return result
        except HardwareDetection as event:
            return self._freeze(event)
        return StepResult.OK

    # The table-driven loop.  Machine state is hoisted into locals for
    # the call: ``regs`` and the cache line lists are mutated in place,
    # so they need no write-back; scalars are saved at every exit.
    # Nothing inside the loop leaves a recorder or trace hook attached (a
    # logging run's traced steps attach the log for their own instruction
    # only), so the check above holds throughout.  Prefetches go through
    # a temporary (``word``): a fetch that detects leaves ``ir`` holding
    # the executed word, as the traced step does.
    regs = self.regs
    pc = self.pc
    psw = self.psw
    ir = self.ir & 0xFFFFFFFF
    mar = self.mar
    mdr = self.mdr
    last_sig = self.last_signature
    index = self.instruction_index
    successors = self.signature_successors

    memory = self.memory
    cache = self.cache
    layout = self.layout
    cache_valid = cache.valid
    cache_tags = cache.tags
    cache_data = cache.data
    cache_dirty = cache.dirty
    miss_read = _miss_read
    miss_write = _miss_write
    read_word = memory.read_data_word
    write_word = memory.write_data_word
    fetch = memory.fetch_word_cached
    fc_get = memory.fetch_cache.get
    hits = 0

    code_base = layout.code_base
    code_end = code_base + layout.code_size
    rodata_base = layout.rodata_base
    rodata_end = rodata_base + layout.rodata_size
    data_base = layout.data_base
    data_end = data_base + layout.data_size
    stack_base = layout.stack_base
    stack_top = layout.stack_top

    entries_get = _ENTRIES.get
    build = _entry
    unpack_f = _STRUCT_F.unpack
    pack_i = _STRUCT_I.pack
    if log is not None:
        # Logging (see "Access logging" in the module docstring): the
        # log's entry lookup reports every word, and with no line reading
        # as valid every cacheable access takes the log's miss calls.
        entries_get = log.entry
        cache_valid = _NO_VALID_LINES
        miss_read = log.read
        miss_write = log.write

    try:
        for _ in range(max_instructions):
            entry = entries_get(ir)
            if entry is None:
                entry = build(ir)
            op, o1, o2, o3 = entry
            $ARMS
            else:  # arm 0: one traced step
                $SAVE
                try:
                    result = execute()
                finally:
                    pc = self.pc
                    psw = self.psw
                    ir = self.ir
                    mar = self.mar
                    mdr = self.mdr
                    last_sig = self.last_signature
                    index = self.instruction_index
                if result is not StepResult.OK:
                    cache.hits += hits
                    return result
                continue
            index += 1
            pc = (pc + 4) & 0xFFFFFFFF
            word = fc_get(pc, -1)
            if word < 0:
                word = fetch(pc)
            ir = word
    except HardwareDetection as event:
        $SAVE
        cache.hits += hits
        return self._freeze(event)
    $SAVE
    cache.hits += hits
    return StepResult.OK
'''

_STEP_TEMPLATE = '''

def _traced_step(self):
    """One instruction with every hook: decode, check, trace, execute
    and prefetch.  The recorder sees each access the specification
    makes, in order.  Detections propagate as
    :class:`HardwareDetection`."""
    recorder = self.recorder
    if recorder is not None:
        recorder.now = self.instruction_index
    word = self.ir & 0xFFFFFFFF
    op = word >> 24
    spec = SPEC_BY_CODE.get(op)
    if spec is None:
        raise_detection(Mechanism.INSTRUCTION_ERROR, f"illegal opcode {op:#x}")
    if spec.privileged:
        if recorder is not None:
            recorder.reg_read("psw", FLAG_M)
        if not self.psw & FLAG_M:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR,
                f"privileged {spec.opcode.name} in user mode",
            )
    if self.trace_hook is not None:
        self.trace_hook(
            TraceEntry(self.instruction_index, self.pc, word, spec.opcode.name)
        )
    rd = (word >> 20) & 15
    rs1 = (word >> 16) & 15
    rs2 = (word >> 12) & 15
    imm = word & 0xFFFF
    simm = (imm ^ 0x8000) - 0x8000
    regs = self.regs
    pc = self.pc
    psw = self.psw
    mar = self.mar
    mdr = self.mdr
    last_sig = self.last_signature
    successors = self.signature_successors
    memory = self.memory
    cache = self.cache
    layout = self.layout
    code_base = layout.code_base
    code_end = code_base + layout.code_size
    stack_base = layout.stack_base
    stack_top = layout.stack_top
    unpack_f = _STRUCT_F.unpack
    pack_i = _STRUCT_I.pack
    next_pc = (pc + 4) & 0xFFFFFFFF
    step_result = StepResult.OK
    try:
        $ARMS
    finally:
        self.psw = psw
        self.mar = mar
        self.mdr = mdr
        self.last_signature = last_sig
    self.instruction_index += 1
    self.pc = next_pc
    self.ir = memory.fetch_word(next_pc)
    return step_result
'''

_GENERATED_SOURCE = _generate_interpreters()
linecache.cache[_GENERATED_FILE] = (
    len(_GENERATED_SOURCE),
    None,
    _GENERATED_SOURCE.splitlines(True),
    _GENERATED_FILE,
)
# Defines _OPERANDS, _run and _traced_step in this module's namespace.
exec(compile(_GENERATED_SOURCE, _GENERATED_FILE, "exec"), globals())
for _method in (_run, _traced_step):  # noqa: F821
    _method.__qualname__ = f"CPU.{_method.__name__}"
    setattr(CPU, _method.__name__, _method)
