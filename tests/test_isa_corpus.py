"""Pinned digests of the ISA's observable semantics.

Every defined opcode is pinned by one sha256 over a seeded corpus of
one-instruction machines, and every undefined opcode byte by one more.
A case's digest input is the state :func:`tests.test_properties._observed`
reads after ``CPU.run(1)`` (registers, latches, cache lines and
counters, RAM, undo log, detection and its detail string) and every
access a hooked :class:`~repro.faults.liveness.AccessRecorder` sees when
the same instruction runs on the traced step.  Both interpreters must
reproduce the pinned literals: the table-driven loop
(``fast_dispatch=True``) and the traced step (``fast_dispatch=False``).

The corpus is drawn the way the property test's ``_machines`` strategy
draws, but from a seeded :class:`random.Random`, so it is the same on
every run and independent of the interpreters' own definition: the
literals were computed on hand-written interpreters, and any change to
an opcode's results, flags, detection order, detail strings, cache
counters or recorded access masks changes a digest.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, List

import pytest

from repro.faults.liveness import AccessRecorder, traced_memory_ranges
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import TargetSystem
from repro.thor.isa import IMMEDIATE_OPCODES, Instruction, Opcode, decode, encode
from repro.thor.cpu import PSW_MASK

from tests.test_liveness_log import hooked_reference
from tests.test_properties import (
    _ADDRESSES,
    _CACHEABLE,
    _FLOAT_BITS,
    _LAYOUT,
    _STACK_POINTERS,
    _U32,
    _accessed,
    _machine,
    _observed,
)

#: Random machines in the corpus (besides the opcode sweep).
RANDOM_CASES = 10_000

#: Register-field values of the sweep: inside the file, ``sp`` and
#: beyond it.
SWEEP_FIELDS = (0, 7, 8, 9, 15)

_FIELDS = list(range(9)) * 4 + list(range(9, 16))
_IMMEDIATES = (0, 2, 4, 8, 0x40, 0xFFFF, 0xFFFC, 0xFFF8)
_REGION_TAGS = sorted({(address >> 7) & 0x7FFFFF for address in _CACHEABLE})
_MEMORY_OPCODES = (
    Opcode.LD, Opcode.ST, Opcode.PUSH, Opcode.POP, Opcode.CALL, Opcode.RET
)
_SYSTEM_OPCODES = (
    Opcode.SVC, Opcode.HALT, Opcode.WFI, Opcode.SETMODE, Opcode.SIG
)

#: Opcodes swept over every pair of EDM boundary operands (rs1, rs2).
_PAIR_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.CMP, Opcode.FADD, Opcode.FSUB,
    Opcode.FMUL, Opcode.FDIV, Opcode.FCMP, Opcode.CHK,
)

#: Opcodes swept over every EDM boundary operand (rs1).
_SINGLE_OPCODES = (Opcode.ITOF, Opcode.FTOI, Opcode.FNEG, Opcode.MOV)

#: sha256 per opcode mnemonic (``"illegal"``: every undefined byte).
PINNED: Dict[str, str] = {
    "ADD": "94d627ca630dd77172e99c268eb98de70a2dd6a5df3b1083589cc396ba173af7",
    "ADDI": "3a70af4cc9bb5f3410e6d675c2f4269bff769333ed98f1fbadb53b4a5768e2b7",
    "AND": "10569e9f69974c0fd19a55bf147c5eda808e3cd19660285cc6e9fca3d5d88048",
    "BEQ": "da0c32c7a749f6c06445a95b54b6e80e02b932c3671b48845a561e2fb3b1da63",
    "BGE": "e996e48264b6bb9c5adebf5ec8339355e5a3da1891be9a8c214df7380abe0aa3",
    "BGT": "c14d6e7371b5e9495e507b0c8569817d1b5f3f303371648a8e5c30141c38f9c4",
    "BLE": "a92dc13880dbf0093996bd0a73cf3b6f35f509add69029c8b35c61d1d928b0f4",
    "BLT": "55eee793c10ce06b234c76b97a8c03b41baabbc8cb75d78e7623f33130362a29",
    "BNE": "0ea6d7ab313313dc34f66999ec1694d13f2471a52bfcb50cbb51cac3b7fc7f56",
    "BR": "8c04478ce18b55e4c38893d94c6fd2380b4ac7ba2b4c34f6a3e1a8f1237cdd3b",
    "BVS": "b3a7ca947329fb5249aba1d531075441e3568e25ac3aacd9e73b00b632ab9305",
    "CALL": "1fecb66fe3d6bcc65aca7fc3cc4bba4154a0807a23f7bcae7b530dac82e711b7",
    "CHK": "68faa0736c10bd5a23b0541be81dc763111693f8fbbc62d561c8cd8d585c6a31",
    "CMP": "977572ceb72d01fbe6d72a60578ac3886347dde90b1d2c23f70830e11ddd1b13",
    "DIV": "1129457092c24bf70010940de14fa9e786a1906b61f1022f65bf1567ca19d160",
    "FADD": "69922b975cc9a53fd4e791c89ad355d820962d875b3987170f8a5feb8167db4f",
    "FCMP": "b5836d6fc20a39e795f3910660959dfbebc3f8a0d4785fc8551a2305ddcdaa45",
    "FDIV": "33101fab70d569bf8c731988b6ad33f922545751619605c6dd2e3d397aad7ff6",
    "FMUL": "b92aa2db3923d1937d82a254c344817ea4d8e94cc6e0ecf1bb6b077328fd6256",
    "FNEG": "4d1776c150524446a0b1d6ea0df4b66cd3cca08bd6e5b24264b61ade971877e1",
    "FSUB": "8f4ab4f21adbc958891e38960466501d8e22b9b77fcb530fcbf0ce192ad5b342",
    "FTOI": "5a559cdbd206dd237dfe7ade146eb526dd636659551a8403b3ce2e46e45fa9cd",
    "HALT": "d48d7fd7a41c09b5fb9065527a94207e7492c24cb5be6e5ae6efead5d30bfe98",
    "ITOF": "001a027f9cbec2db9e52339ebd265f589687dfae5b5d7bd746f16a59cae1bf09",
    "JR": "b12c7c0ef4f0edb8c0a00d41dc1143e4c387a82ba0dce5be8dca011d28ff7796",
    "LD": "06223214c9d8308ae974bd6afc1acfcb088ada6aa1c7e8ab9499bd636b16634a",
    "LDI": "d77b0e63b01e5507153868699d168667e6ea191b3122ba12ce0e8dea27a5f173",
    "LUI": "473ac096ce7899909d06edce065ffceefa1a2ff94aa227295475898652bc6abc",
    "MOV": "cb5e2276f74dda58ea59b9e2a96f37df3b9e2b6b047c1d9b2eced3a4da38a5d0",
    "MUL": "60829dc9704fb41a1c5c13da40db91c629eafedfb000e6e0e517c646c25e7478",
    "NOP": "7b77449593222ac70b2864e9094c1ec1d3da05f8246631989e932ab48d309b55",
    "OR": "eff4a9af9cbd2feeb184eef3c4658ed2ac599e9bd9e415d3b4179fdb879efa49",
    "ORI": "12c61296781f4cbe8b00013fce09c4ace6b331da0418fa16704c4a5c51412b61",
    "POP": "17dff80aa2e37b8a8ab84eac7da017dc5f57090bd22e0136ce392f2f4a874aa4",
    "PUSH": "ce1f03ddd8aa7e01ae5519a40076ecdf2f763e6471d07bbb6a775ecc7937bf6c",
    "RET": "9f0698e616ec6f6e9f8ed1cc357a6448d11491f652f7a0d363262a588e493394",
    "SETMODE": "0cfe1dcbb393d7a97ed2816384745c06bdca980cb0bc57e76a0d5ca458b4af62",
    "SHL": "ebd7310cef7372a6a62286a658145e6d583c3f424f81be37e3097e31e57bc576",
    "SHR": "c3f7b0f6cd231657c110cd4b0b0d401897aca48f137a0a03670dad3343a914c4",
    "SIG": "8d4ec2a4993ea5c7580400fc52247001febf157c005944622549a73f55d5bc29",
    "ST": "227d29d0083c8d7aa49e13ea56de281559f9a8600ce56bcf0316e0887050bddd",
    "SUB": "e82a40b1600c346692339d7078011ce4e64955a5e9974283c30cad2be89fca2b",
    "SVC": "4185c7352028314ddc1d1f19bad14a309a6bd18b0fd497d8b3ee35301c9ee4c0",
    "WFI": "3bec97835477b30c2bfa1861328ee99becddcff8e333a761c96a44bd3e668e65",
    "XOR": "52c780ca8ba083e1537b73f87062bd0904bcc1dbf522623d742c7d078ed1c9e0",
    "illegal": "dd2cec0e432e174be06889b5545bfd234c7d66bfb80d4b3009cd6bb372323e25",
}

#: sha256 of the hooked recorder's traces and data accesses over
#: 60-iteration Algorithm I and Algorithm II references.
PINNED_REFERENCE_TRACES = (
    "f82d1496f6827aea377636db96227fba6a1f506c6c1e5394d7d3d19011e41ac0"
)


def _value(rng: random.Random) -> int:
    kind = rng.randrange(6)
    if kind < 2:
        return rng.choice(_CACHEABLE)
    if kind == 2:
        return rng.choice(_ADDRESSES)
    if kind == 3:
        return rng.choice(_FLOAT_BITS)
    if kind == 4:
        return rng.randint(0, 16)
    return rng.getrandbits(32)


def _immediate(rng: random.Random) -> int:
    return rng.choice(_IMMEDIATES) if rng.random() < 0.5 else rng.getrandbits(16)


def _random_word(rng: random.Random) -> int:
    group = rng.randrange(3)
    if group == 0:
        opcode = rng.choice(list(Opcode))
    elif group == 1:
        opcode = rng.choice(_MEMORY_OPCODES)
    else:
        opcode = rng.choice(_SYSTEM_OPCODES)
    word = (
        (int(opcode) << 24)
        | (rng.choice(_FIELDS) << 20)
        | (rng.choice(_FIELDS) << 16)
        | (rng.choice(_FIELDS) << 12)
    )
    if opcode in IMMEDIATE_OPCODES:
        word = (word & 0xFFFF0000) | _immediate(rng)
    kind = rng.choice(("clean", "clean", "clean", "flipped", "random"))
    if kind == "flipped":
        word ^= 1 << rng.randrange(32)
    elif kind == "random":
        word = rng.getrandbits(32)
    return word


def _spec(rng: random.Random, word: int) -> dict:
    """The machine ``word`` executes in, drawn as ``_machines`` draws."""
    sp = rng.choice(_STACK_POINTERS) if rng.random() < 2 / 3 else _value(rng)
    regs = [_value(rng) for _ in range(8)] + [sp]
    lines = [
        (
            rng.random() < 0.5,
            rng.random() < 0.5,
            rng.choice(_REGION_TAGS) if rng.random() < 0.7 else rng.getrandbits(23),
            rng.getrandbits(32),
        )
        for _ in range(32)
    ]
    address = _accessed(word, regs)
    if address is not None:
        hit_tag = (address >> 7) & 0x7FFFFF
        case = rng.choice(("hit", "hit", "victim", "corrupt", "invalid"))
        if case == "hit":
            tag = hit_tag
        elif case == "victim":
            tag = rng.choice([t for t in _REGION_TAGS if t != hit_tag])
        else:
            tag = rng.getrandbits(23)
        lines[(address >> 2) & 31] = (
            case != "invalid",
            case != "hit" or rng.random() < 0.5,
            tag,
            _value(rng),
        )
    return {
        "word": word,
        "pc": _LAYOUT.code_base + 4 * rng.randrange(512),
        "regs": regs,
        "psw": rng.randint(0, PSW_MASK),
        "mar": rng.getrandbits(32),
        "mdr": rng.getrandbits(32),
        "lines": lines,
        "ram": [
            (
                rng.choice(("rodata", "data", "stack")),
                rng.randrange(72),
                _value(rng),
                None if rng.random() < 0.5 else rng.randrange(32),
            )
            for _ in range(rng.randrange(13))
        ],
        "successors": rng.choice([{}, {1: {2}, 2: {1, 3}, 3: {1}}]),
        "last_signature": rng.choice([None, 1, 2, 3, 7]),
        "undo": rng.random() < 0.5,
    }


def _corpus() -> List[dict]:
    """The random machines; every opcode byte under the swept register
    fields (all field triples for defined opcodes; undefined bytes
    detect before reading a field); and the arithmetic opcodes over the
    EDM boundary operands (zeros, infinities, NaN, the smallest normal,
    a denormal, the integer extremes)."""
    rng = random.Random(2001)
    specs = [_spec(rng, _random_word(rng)) for _ in range(RANDOM_CASES)]
    sweep = random.Random(29)
    for byte in range(256):
        defined = decode(byte << 24) is not None
        triples = (
            itertools.product(SWEEP_FIELDS, repeat=3)
            if defined
            else ((f, f, f) for f in SWEEP_FIELDS)
        )
        for rd, rs1, rs2 in triples:
            low = sweep.choice((0, 2, 4, 8, 0x40, 0xFFC, 0xFF8))
            word = (byte << 24) | (rd << 20) | (rs1 << 16) | (rs2 << 12) | low
            specs.append(_spec(sweep, word))
    for opcode in _PAIR_OPCODES + _SINGLE_OPCODES:
        pairs = (
            itertools.product(_FLOAT_BITS, repeat=2)
            if opcode in _PAIR_OPCODES
            else ((x, 0) for x in _FLOAT_BITS)
        )
        word = encode(Instruction(opcode, rd=3, rs1=1, rs2=2))
        for x, y in pairs:
            spec = _spec(sweep, word)
            spec["regs"][1:3] = [x, y]
            specs.append(spec)
    return specs


def _stable(observed: dict) -> bytes:
    """``observed`` as digest input, with its enums replaced by their
    names so the ``repr`` is the same on every Python version."""
    stable = dict(observed, result=observed["result"].name)
    if observed["detection"] is not None:
        mechanism, *rest = observed["detection"]
        stable["detection"] = (mechanism.name, *rest)
    return repr(stable).encode()


def _hooked(spec: dict) -> bytes:
    """Every access a recorder on the CPU, cache and memory hooks sees
    while the instruction runs on the traced step."""
    cpu = _machine(spec, fast=True)
    recorder = AccessRecorder()
    for base, end in traced_memory_ranges(cpu.layout):
        recorder.track_memory_range(base, end - base)
    cpu.recorder = cpu.cache.recorder = cpu.memory.recorder = recorder
    cpu.run(1)
    return repr((recorder.traces, recorder.data_accesses)).encode()


def _group(word: int) -> str:
    instruction = decode(word & _U32)
    return "illegal" if instruction is None else instruction.opcode.name


def corpus_digests() -> Dict[bool, Dict[str, str]]:
    """Per-opcode digests of the corpus under each ``fast_dispatch``."""
    hashers = {fast: {} for fast in (True, False)}
    for spec in _corpus():
        group = _group(spec["word"])
        hooked = _hooked(spec)
        for fast, groups in hashers.items():
            cpu = _machine(spec, fast)
            observed = _stable(_observed(cpu, cpu.run(1)))
            hasher = groups.get(group)
            if hasher is None:
                hasher = groups[group] = hashlib.sha256()
            hasher.update(observed)
            hasher.update(hooked)
    return {
        fast: {group: h.hexdigest() for group, h in sorted(groups.items())}
        for fast, groups in hashers.items()
    }


def reference_traces_digest(workloads, fast: bool) -> str:
    """Digest of the hooked recorder's view of 60-iteration references."""
    hasher = hashlib.sha256()
    for workload in workloads:
        target = TargetSystem(
            workload=workload, environment=EngineEnvironment(), iterations=60
        )
        target.cpu.fast_dispatch = fast
        reference, recorder = hooked_reference(target)
        hasher.update(repr(reference.outputs).encode())
        hasher.update(repr(recorder.traces).encode())
        hasher.update(repr(recorder.data_accesses).encode())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def digests() -> Dict[bool, Dict[str, str]]:
    return corpus_digests()


def test_corpus_covers_every_opcode(digests):
    assert set(digests[True]) == {op.name for op in Opcode} | {"illegal"}


@pytest.mark.parametrize("fast", [True, False], ids=["table-loop", "traced-step"])
@pytest.mark.parametrize("group", sorted(op.name for op in Opcode) + ["illegal"])
def test_opcode_semantics_pinned(digests, fast, group):
    assert digests[fast][group] == PINNED[group]


@pytest.mark.parametrize("fast", [True, False], ids=["table-loop", "traced-step"])
def test_reference_traces_pinned(algorithm_i_compiled, algorithm_ii_compiled, fast):
    workloads = (algorithm_i_compiled, algorithm_ii_compiled)
    assert reference_traces_digest(workloads, fast) == PINNED_REFERENCE_TRACES
