"""A Thor-like 32-bit CPU simulator with scan-chain fault injection.

The paper injects bit-flips into ~2250 state elements of the Thor CPU
(Saab Ericsson Space): its register file and its 128-byte data cache.
This package provides a simulator with the same injectable surface:

* :mod:`repro.thor.isa` — a 32-bit fixed-width instruction set with
  integer and IEEE-754 single-precision float operations,
* :mod:`repro.thor.semantics` — the one specification per opcode that
  the encoding, both interpreters, the assembler and the disassembler
  read,
* :mod:`repro.thor.memory` — the memory map (null page, protected code,
  data, stack, memory-mapped I/O) with per-word parity (DATA ERROR),
* :mod:`repro.thor.cache` — a 128-byte direct-mapped write-back data
  cache (32 lines x 4 bytes; 1824 injectable bits incl. tags),
* :mod:`repro.thor.cpu` — the core: 8 GPRs, SP, PC, PSW, IR, MAR, MDR
  (426 injectable bits) and the Table 1 error-detection mechanisms,
* :mod:`repro.thor.scanchain` — read/write access to every injectable
  state-element bit, mirroring Thor's scan chains,
* :mod:`repro.thor.assembler` — a two-pass assembler with control-flow
  signature support,
* :mod:`repro.thor.comparator` — the master/slave comparator of Table 1
  (implemented, unused in the campaigns — as in the paper).
"""

from repro.thor.assembler import assemble
from repro.thor.comparator import ComparatorMismatch, MasterSlavePair
from repro.thor.cpu import CPU, StepResult
from repro.thor.cache import DataCache
from repro.thor.debug import DebugInterface, StopEvent, StopReason
from repro.thor.disassembler import (
    disassemble_instruction,
    disassemble_program,
    disassemble_word,
    reassemble_source,
)
from repro.thor.edm import DetectionEvent, Mechanism
from repro.thor.isa import Instruction, Opcode, decode, encode
from repro.thor.memory import MemoryMap, MemoryLayout
from repro.thor.profiler import ProfileReport, Profiler, render_profile
from repro.thor.program import Program
from repro.thor.scanchain import ScanChain

__all__ = [
    "assemble",
    "disassemble_instruction",
    "disassemble_program",
    "disassemble_word",
    "reassemble_source",
    "CPU",
    "StepResult",
    "DataCache",
    "DetectionEvent",
    "Mechanism",
    "Instruction",
    "Opcode",
    "decode",
    "encode",
    "MemoryMap",
    "MemoryLayout",
    "Program",
    "ScanChain",
    "Profiler",
    "ProfileReport",
    "render_profile",
    "DebugInterface",
    "StopEvent",
    "StopReason",
    "MasterSlavePair",
    "ComparatorMismatch",
]
