"""Cross-cutting property tests on the system's safety invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import GuardedPIController, PIController
from repro.core import ControllerGuard, throttle_range_assertion
from repro.faults import flip_float_bit
from repro.thor.assembler import assemble
from repro.thor.cpu import CPU, PSW_MASK, StepResult
from repro.thor.isa import IMMEDIATE_OPCODES, SP_INDEX, Opcode, decode
from repro.thor.memory import EXTERNAL_BUS_BASE, WORD, MemoryLayout


class TestGuardSafetyInvariants:
    @given(
        corrupted=st.floats(allow_nan=True, allow_infinity=True),
        reference=st.floats(0.0, 8000.0),
        measured=st.floats(0.0, 8000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_state_in_range_after_any_corruption(
        self, corrupted, reference, measured
    ):
        """Whatever value lands in x, after one guarded step the state is
        back inside the physical range and the output is deliverable."""
        controller = GuardedPIController()
        controller.warm_start(2000.0, 2000.0, 12.0)
        controller.step(2000.0, 2000.0)
        controller.x = corrupted
        output = controller.step(reference, measured)
        assert 0.0 <= controller.x <= 70.0 or controller.x == controller.x_old
        assert 0.0 <= output <= 70.0
        assert output == output  # never NaN

    @given(
        corrupted=st.floats(allow_nan=True, allow_infinity=True),
        bit=st.integers(0, 31),
    )
    @settings(max_examples=100, deadline=None)
    def test_generic_guard_output_always_physical(self, corrupted, bit):
        guard = ControllerGuard(
            PIController(),
            state_assertions=[throttle_range_assertion()],
            output_assertions=[throttle_range_assertion()],
        )
        guard.warm_start(2000.0, 2000.0, 12.0)
        guard.step(2000.0, 2000.0)
        guard.controller.x = corrupted
        output = guard.step(2000.0, 2000.0)
        assert 0.0 <= output <= 70.0

    @given(
        bit=st.integers(0, 31),
        iteration=st.integers(1, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_guarded_never_worse_peak_deviation_for_state_flips(
        self, bit, iteration
    ):
        """For any single bit flip in x at any iteration, the guarded
        controller's worst output deviation never exceeds the plain
        controller's (the recovery can only help or do nothing)."""
        def run(controller):
            controller.reset()
            controller.warm_start(2000.0, 2000.0, 12.0)
            outputs = []
            y = 2000.0
            for k in range(100):
                if k == iteration:
                    state = controller.state_vector()
                    state[0] = flip_float_bit(state[0], bit)
                    controller.set_state_vector(state)
                outputs.append(controller.step(2000.0, y))
            return np.asarray(outputs)

        golden = np.full(100, 12.0)
        plain_dev = np.nanmax(np.abs(run(PIController()) - golden))
        guarded_dev = np.nanmax(np.abs(run(GuardedPIController()) - golden))
        assert guarded_dev <= plain_dev + 1e-9


class TestDeterminismInvariants:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_snapshot_restore_replays_identically(self, seed):
        """From any reachable CPU state, snapshot + N steps is
        reproducible exactly after restore."""
        rng = np.random.default_rng(seed)
        source = "loop: ldi r1, 3\nadd r2, r2, r1\nsvc 0\nbr loop"
        cpu = CPU()
        cpu.load(assemble(source))
        warmup = int(rng.integers(0, 50))
        for _ in range(warmup):
            cpu.step()
        snapshot = cpu.snapshot()
        steps = int(rng.integers(1, 60))
        for _ in range(steps):
            cpu.step()
        after = cpu.state_bytes()
        cpu.restore(snapshot)
        for _ in range(steps):
            cpu.step()
        assert cpu.state_bytes() == after

    def test_campaign_plan_independent_of_execution_order(self):
        """Sampling draws before execution: the plan for a seed is a pure
        function of (space, total instructions, count)."""
        from repro.faults.models import sample_fault_plan
        from repro.thor.scanchain import ScanChain

        space = ScanChain(CPU()).location_space()
        plan_a = sample_fault_plan(space, 5000, 30, np.random.default_rng(5))
        plan_b = sample_fault_plan(space, 5000, 30, np.random.default_rng(5))
        assert plan_a == plan_b


# -- the table-driven loop against the reference chain -------------------------
_LAYOUT = MemoryLayout()
_NOP_PROGRAM = assemble("nop")
_CODE_END = _LAYOUT.code_base + _LAYOUT.code_size
_U32 = 0xFFFFFFFF

#: Addresses mixed into registers and cache tags: every region and its
#: edges, the null page, unaligned, unmapped, external-bus and
#: out-of-space addresses.
_ADDRESSES = (
    0x0, 0x80, _LAYOUT.code_base, _CODE_END - WORD, _CODE_END,
    _LAYOUT.rodata_base, _LAYOUT.rodata_base + _LAYOUT.rodata_size - WORD,
    _LAYOUT.data_base, _LAYOUT.data_base + 0x40, _LAYOUT.data_base + 0x80,
    _LAYOUT.data_base + _LAYOUT.data_size - WORD,
    _LAYOUT.data_base + _LAYOUT.data_size,
    _LAYOUT.stack_base, _LAYOUT.stack_base + WORD,
    _LAYOUT.stack_top - 2 * WORD, _LAYOUT.stack_top - WORD, _LAYOUT.stack_top,
    _LAYOUT.mmio_base, _LAYOUT.mmio_base + WORD,
    _LAYOUT.data_base + 2, 0x5000, EXTERNAL_BUS_BASE, 1 << 30, _U32 - 3,
)

#: Stack pointers around the stack region's edges.
_STACK_POINTERS = (
    _LAYOUT.stack_top,
    _LAYOUT.stack_top - WORD,
    _LAYOUT.stack_top - 2,
    _LAYOUT.stack_base + WORD,
    _LAYOUT.stack_base,
    _LAYOUT.stack_base - WORD,
)

#: Float bit patterns at the EDM boundaries: zeros, ones, infinities,
#: NaN, the largest finite, the smallest normal, a denormal, and the
#: integer extremes.
_FLOAT_BITS = (
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000, 0xFF800000,
    0x7FC00000, 0x7F7FFFFF, 0x00800000, 0x00000001, 0x7FFFFFFF, _U32,
    0x4F000000, 0x1F800000,
)

#: Word addresses of the cacheable regions (rodata, data, stack).
_CACHEABLE = tuple(
    address
    for base, size in (
        (_LAYOUT.rodata_base, _LAYOUT.rodata_size),
        (_LAYOUT.data_base, _LAYOUT.data_size),
        (_LAYOUT.stack_base, _LAYOUT.stack_size),
    )
    for address in range(base, base + size, WORD)
)

#: Register and cache-data values (cacheable addresses weighted double,
#: so loads and stores reach the cache paths).
_VALUES = st.one_of(
    st.sampled_from(_CACHEABLE),
    st.sampled_from(_CACHEABLE),
    st.sampled_from(_ADDRESSES),
    st.sampled_from(_FLOAT_BITS),
    st.integers(0, 16),
    st.integers(0, _U32),
)

#: Register fields: mostly inside the register file, sometimes beyond
#: ``sp`` (reachable only under faults).
_FIELDS = st.sampled_from(list(range(9)) * 4 + list(range(9, 16)))

#: Immediates: small word offsets either way (memory displacements and
#: branch offsets that stay near their base), and arbitrary ones.
_IMMEDIATES = st.one_of(
    st.sampled_from([0, 2, 4, 8, 0x40, 0xFFFF, 0xFFFC, 0xFFF8]),
    st.integers(0, 0xFFFF),
)

#: Cache tags: those of the cacheable regions (hits, in-range victims)
#: and arbitrary corrupted ones.
_TAGS = st.one_of(
    st.sampled_from(sorted({(address >> 7) & 0x7FFFFF for address in _CACHEABLE})),
    st.integers(0, (1 << 23) - 1),
)


@st.composite
def _words(draw):
    """Well-formed words of every opcode, single-bit corruptions of
    them, and arbitrary (mostly illegal) words."""
    opcode = draw(
        st.one_of(
            st.sampled_from(list(Opcode)),
            # A third of the words access memory (the cache paths are
            # where the loop inlines most), a third are system ops: the
            # ones the loop hands to the reference chain, SVC, and the
            # control-flow signature check.
            st.sampled_from(
                [Opcode.LD, Opcode.ST, Opcode.PUSH, Opcode.POP, Opcode.CALL, Opcode.RET]
            ),
            st.sampled_from(
                [Opcode.SVC, Opcode.HALT, Opcode.WFI, Opcode.SETMODE, Opcode.SIG]
            ),
        )
    )
    word = (
        (int(opcode) << 24)
        | (draw(_FIELDS) << 20)
        | (draw(_FIELDS) << 16)
        | (draw(_FIELDS) << 12)
    )
    if opcode in IMMEDIATE_OPCODES:
        word = (word & 0xFFFF0000) | draw(_IMMEDIATES)
    kind = draw(st.sampled_from(("clean", "clean", "clean", "flipped", "random")))
    if kind == "flipped":
        word ^= 1 << draw(st.integers(0, 31))
    elif kind == "random":
        word = draw(st.integers(0, _U32))
    return word


def _accessed(word, regs):
    """The data address ``word`` would access, if any."""
    instruction = decode(word)
    if instruction is None:
        return None
    op = instruction.opcode
    if op in (Opcode.LD, Opcode.ST) and instruction.rs1 <= SP_INDEX:
        return (regs[instruction.rs1] + instruction.simm()) & _U32
    if op in (Opcode.PUSH, Opcode.CALL):
        return (regs[SP_INDEX] - WORD) & _U32
    if op in (Opcode.POP, Opcode.RET):
        return regs[SP_INDEX]
    return None


@st.composite
def _machines(draw):
    """One instruction word and the machine state it executes in."""
    word = draw(_words())
    stack_pointers = st.sampled_from(_STACK_POINTERS)
    regs = draw(st.lists(_VALUES, min_size=8, max_size=8)) + [
        draw(st.one_of(stack_pointers, stack_pointers, _VALUES))
    ]
    # The line the instruction accesses is drawn explicitly (a hit, a
    # clean or dirty miss, a corrupted tag); the other 31 are filled
    # from a drawn seed, which keeps the example short enough for the
    # search to vary the word and registers.
    fill = random.Random(draw(st.integers(0, 2**32 - 1)))
    region_tags = sorted({(a >> 7) & 0x7FFFFF for a in _CACHEABLE})
    lines = [
        (
            fill.random() < 0.5,
            fill.random() < 0.5,
            fill.choice(region_tags)
            if fill.random() < 0.7
            else fill.getrandbits(23),
            fill.getrandbits(32),
        )
        for _ in range(32)
    ]
    address = _accessed(word, regs)
    if address is not None:
        hit_tag = (address >> 7) & 0x7FFFFF
        case = draw(st.sampled_from(("hit", "hit", "victim", "corrupt", "invalid")))
        if case == "hit":
            tag = hit_tag
        elif case == "victim":
            # A dirty line of another cacheable address: written back.
            tag = draw(st.sampled_from(region_tags).filter(lambda t: t != hit_tag))
        else:
            tag = draw(st.integers(0, (1 << 23) - 1))
        lines[(address >> 2) & 31] = (
            case != "invalid",
            case != "hit" or draw(st.booleans()),
            tag,
            draw(_VALUES),
        )
    return {
        "word": word,
        "pc": _LAYOUT.code_base + WORD * draw(st.integers(0, 511)),
        "regs": regs,
        "psw": draw(st.integers(0, PSW_MASK)),
        "mar": draw(st.integers(0, _U32)),
        "mdr": draw(st.integers(0, _U32)),
        "lines": lines,
        "ram": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(("rodata", "data", "stack")),
                    st.integers(0, 71),
                    _VALUES,
                    st.one_of(st.none(), st.integers(0, 31)),
                ),
                max_size=12,
            )
        ),
        "successors": draw(st.sampled_from([{}, {1: {2}, 2: {1, 3}, 3: {1}}])),
        "last_signature": draw(st.sampled_from([None, 1, 2, 3, 7])),
        "undo": draw(st.booleans()),
    }


def _machine(spec, fast):
    cpu = CPU(_LAYOUT)
    cpu.load(_NOP_PROGRAM)
    cpu.fast_dispatch = fast
    cpu.signature_successors = {
        k: frozenset(v) for k, v in spec["successors"].items()
    }
    cpu.last_signature = spec["last_signature"]
    memory = cpu.memory
    for region, index, value, bit in spec["ram"]:
        ram = getattr(memory, region)
        address = ram.base + WORD * (index % len(ram.words))
        memory.poke(address, value)
        if bit is not None:
            # Stored bit flipped without a parity update: DATA ERROR on read.
            memory.corrupt_word_bit(address, bit)
    if spec["undo"]:
        for ram in (memory.rodata, memory.data, memory.stack):
            ram.undo = {}
    memory.poke(spec["pc"], spec["word"])
    cache = cpu.cache
    for line, (valid, dirty, tag, data) in enumerate(spec["lines"]):
        cache.valid[line] = int(valid)
        cache.dirty[line] = int(dirty)
        cache.tags[line] = tag
        cache.data[line] = data
    cpu.regs[:] = spec["regs"]
    cpu.pc = spec["pc"]
    cpu.ir = spec["word"]
    cpu.psw = spec["psw"]
    cpu.mar = spec["mar"]
    cpu.mdr = spec["mdr"]
    return cpu


def _observed(cpu, result):
    detection = cpu.detection
    memory = cpu.memory
    cache = cpu.cache
    return {
        "result": result,
        "registers": cpu.register_state_bytes(),
        "instruction_index": cpu.instruction_index,
        "last_svc": cpu.last_svc,
        "cache": cache.state_bytes(),
        "counters": (cache.hits, cache.misses, cache.writebacks),
        "memory": memory.state_bytes(),
        "undo": [ram.undo for ram in (memory.rodata, memory.data, memory.stack)],
        "detection": None
        if detection is None
        else (
            detection.mechanism,
            detection.detail,
            detection.pc,
            detection.instruction_index,
        ),
    }


class TestTableLoopMatchesReferenceChain:
    @given(spec=_machines())
    @settings(max_examples=1000, deadline=None)
    def test_one_instruction_agrees_field_for_field(self, spec):
        """One instruction through ``CPU.run(1)``'s table-driven loop
        leaves exactly the state, counters and detection the reference
        chain (``fast_dispatch=False``) leaves — for corrupted and
        illegal words, privileged ops in user mode, register fields
        beyond ``sp``, cache misses with dirty victims and corrupted
        tags, unaligned/unmapped/parity-corrupted accesses and SVC
        yields alike."""
        fast = _machine(spec, fast=True)
        reference = _machine(spec, fast=False)
        assert _observed(fast, fast.run(1)) == _observed(
            reference, reference.run(1)
        )

    def test_detecting_prefetch_keeps_the_executed_word(self):
        """The last code word (pc 0x17fc, a NOP) executes, and the
        prefetch of the next word — rodata at 0x1800, stored bit flipped
        without a parity update — raises DATA ERROR.  Both loops must
        leave the executed word in ``ir`` (the table loop once stored its
        ``-1`` miss sentinel there, which ``register_state_bytes`` cannot
        pack)."""
        nop = 0x01000000
        last = _LAYOUT.code_base + _LAYOUT.code_size - WORD
        assert last == 0x17FC and _LAYOUT.rodata_base == 0x1800
        spec = {
            "word": nop,
            "pc": last,
            "regs": [0] * 8 + [_LAYOUT.stack_top],
            "psw": 0,
            "mar": 0,
            "mdr": 0,
            "lines": [(False, False, 0, 0)] * 32,
            "ram": [("rodata", 0, 0x12345678, 3)],
            "successors": {},
            "last_signature": None,
            "undo": False,
        }
        fast = _machine(spec, fast=True)
        reference = _machine(spec, fast=False)
        fast_result = fast.run(1)
        reference_result = reference.run(1)
        assert fast_result is StepResult.DETECTED
        assert fast.ir == reference.ir == nop
        assert _observed(fast, fast_result) == _observed(
            reference, reference_result
        )
