"""The target system's memory map.

Regions (word-aligned, 30-bit physical address space):

* **null page** — the low addresses; any data access raises ACCESS CHECK
  ("attempt to follow a null pointer").
* **code** — the loaded program; write-protected (writes raise ADDRESS
  ERROR), fetched directly (the data cache caches data only).
* **data** — RAM for globals; cached, parity-protected.
* **stack** — RAM for the task's stack; cached, parity-protected; the
  stack-discipline bounds are enforced by the CPU (STORAGE ERROR).
* **mmio** — memory-mapped I/O exchanging reference/speed/throttle with
  the environment simulator; never cached.

Any access beyond the 30-bit space or into a protected region raises
ADDRESS ERROR; an in-space access that hits no region raises BUS ERROR
(the external bus times out).  RAM keeps one parity bit per word,
recomputed on every write and verified on every read: flipping stored
data *without* updating parity (the memory fault model) surfaces as
DATA ERROR, the paper's "uncorrectable error in data read from memory".

Dirty tracking
--------------

Each RAM region carries a :attr:`_Ram.version` counter, bumped by every
mutation (write, restore, parity-preserving corruption).  The packed
byte image used for run-state hashing is cached per version, so a
boundary hash repacks only the regions that changed since the previous
boundary — code and rodata almost never do.  Snapshots reuse the same
packed images: they are immutable ``bytes``, so the 651 reference
checkpoints share storage and pickle compactly for shipping to campaign
workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import MachineError
from repro.thor.edm import Mechanism, raise_detection

#: Physical address space size: 30 bits (23-bit cache tags + 5-bit index
#: + 2-bit byte offset).
ADDRESS_SPACE = 1 << 30

#: Addresses from here up to the space limit sit on the external
#: expansion bus; nothing answers there, so accesses time out with BUS
#: ERROR.  Unmapped addresses *below* this line are non-existing memory
#: flagged by the MMU as ADDRESS ERROR.
EXTERNAL_BUS_BASE = 1 << 29

WORD = 4


@dataclass(frozen=True)
class MemoryLayout:
    """Base addresses and sizes of all regions (bytes, word multiples)."""

    null_top: int = 0x100
    code_base: int = 0x1000
    code_size: int = 0x800
    rodata_base: int = 0x1800
    rodata_size: int = 0x80
    data_base: int = 0x2000
    data_size: int = 0x120
    stack_base: int = 0x3000
    stack_size: int = 0x100
    mmio_base: int = 0x4000
    mmio_size: int = 0x40

    def __post_init__(self) -> None:
        regions = [
            (self.code_base, self.code_size),
            (self.rodata_base, self.rodata_size),
            (self.data_base, self.data_size),
            (self.stack_base, self.stack_size),
            (self.mmio_base, self.mmio_size),
        ]
        last_end = self.null_top
        for base, size in regions:
            if base % WORD or size % WORD or size <= 0:
                raise MachineError("regions must be positive word multiples")
            if base < last_end:
                raise MachineError("memory regions overlap or are out of order")
            last_end = base + size
        if last_end > ADDRESS_SPACE:
            raise MachineError("layout exceeds the physical address space")

    @property
    def stack_top(self) -> int:
        """Initial stack pointer (stack grows downwards)."""
        return self.stack_base + self.stack_size


def _parity(value: int) -> int:
    """Even-parity bit of a 32-bit value."""
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


class _Ram:
    """A parity-protected word-array RAM region.

    Words and parity bits live in plain Python lists (the hot read/write
    paths pay no scalar-boxing cost), serialised little-endian so the
    byte image is identical to the former ``numpy.uint32``/``uint8``
    layout on every platform.
    """

    def __init__(self, base: int, size: int):
        count = size // WORD
        self.base = base
        self.limit = base + count * WORD
        self.words: List[int] = [0] * count
        self.parity: List[int] = [0] * count
        #: Mutation counter consumed by the packed-image cache.
        self.version = 0
        #: Optional undo log: ``{index: (old_word, old_parity)}`` armed
        #: by the delta data plane (:mod:`repro.goofi.dataplane`) before
        #: a faulty execution.  Every first mutation of a word records
        #: its prior value, so the experiment can be unwound by writing
        #: back only the touched set instead of unpacking the full
        #: region.  A wholesale :meth:`restore` sets it back to ``None``
        #: — the poison signal that tells a cursor its log no longer
        #: describes the live state.
        self.undo: "Dict[int, Tuple[int, int]] | None" = None
        self._struct = struct.Struct(f"<{count}I")
        self._packed: Tuple[int, bytes, bytes] = (0, b"\x00" * (count * WORD), b"\x00" * count)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit

    def index(self, address: int) -> int:
        return (address - self.base) // WORD

    def read(self, address: int) -> int:
        i = (address - self.base) // WORD
        value = self.words[i]
        if _parity(value) != self.parity[i]:
            raise_detection(Mechanism.DATA_ERROR, f"parity at {address:#x}")
        return value

    def write(self, address: int, value: int) -> None:
        i = (address - self.base) // WORD
        value &= 0xFFFFFFFF
        undo = self.undo
        if undo is not None and i not in undo:
            undo[i] = (self.words[i], self.parity[i])
        self.words[i] = value
        self.parity[i] = _parity(value)
        self.version += 1

    # -- serialisation ---------------------------------------------------------
    def packed(self) -> Tuple[bytes, bytes]:
        """``(words, parity)`` byte images, cached until the next mutation."""
        cached = self._packed
        if cached[0] != self.version:
            cached = (
                self.version,
                self._struct.pack(*self.words),
                bytes(self.parity),
            )
            self._packed = cached
        return cached[1], cached[2]

    def pack_fresh(self) -> bytes:
        """Serialise from the authoritative lists, bypassing the version
        cache (the uncached-hash baseline and its equivalence test)."""
        return self._struct.pack(*self.words) + bytes(self.parity)

    def state_bytes(self) -> bytes:
        words, parity = self.packed()
        return words + parity

    def snapshot(self) -> Tuple[bytes, bytes]:
        """A restorable (and compactly picklable) copy of the region."""
        return self.packed()

    def restore(self, snapshot: Tuple[bytes, bytes]) -> None:
        words, parity = snapshot
        # In place: steady-state restores reuse the existing lists
        # instead of allocating fresh ones per call.
        self.words[:] = self._struct.unpack(words)
        self.parity[:] = parity
        self.version += 1
        # A wholesale overwrite invalidates any armed undo log.
        self.undo = None
        # The snapshot bytes *are* the packed image — prime the cache.
        self._packed = (self.version, words, parity)


class MMIODevice:
    """The environment-exchange registers.

    Word offsets from the MMIO base:

    ==== =========================================================
    0x00 input registers (float bits, written by the host); the
         engine task uses 0x00 = reference r, 0x04 = speed y
    0x1C ITERATION — loop iteration counter (CPU increments)
    0x20 output registers (float bits, CPU writes); the engine
         task uses 0x20 = commanded throttle u_lim
    ==== =========================================================
    """

    INPUT_BASE = 0x00
    REFERENCE = 0x00
    SPEED = 0x04
    ITERATION = 0x1C
    OUTPUT_BASE = 0x20
    THROTTLE = 0x20

    def __init__(self, size: int):
        self.size = size
        self.registers: Dict[int, int] = {}

    def read(self, offset: int) -> int:
        return self.registers.get(offset, 0)

    def write(self, offset: int, value: int) -> None:
        self.registers[offset] = value & 0xFFFFFFFF

    def state_bytes(self) -> bytes:
        """Deterministic serialisation used by run-state hashing."""
        items = sorted(self.registers.items())
        return b"".join(
            offset.to_bytes(4, "little") + value.to_bytes(4, "little")
            for offset, value in items
        )


class MemoryMap:
    """The complete physical memory of the target system."""

    def __init__(self, layout: MemoryLayout = MemoryLayout()):
        self.layout = layout
        self.code = _Ram(layout.code_base, layout.code_size)
        self.rodata = _Ram(layout.rodata_base, layout.rodata_size)
        self.data = _Ram(layout.data_base, layout.data_size)
        self.stack = _Ram(layout.stack_base, layout.stack_size)
        self.mmio = MMIODevice(layout.mmio_size)
        #: Parity-verified code-region fetches, keyed by address.  Code
        #: is write-protected, so entries stay valid until an unchecked
        #: mutation (poke / corrupt_word_bit / restore) clears the cache.
        self.fetch_cache: Dict[int, int] = {}
        #: ``((code_version, rodata_version), hasher)`` — a blake2b
        #: hasher pre-fed with the code+rodata image, copied by the
        #: incremental boundary hash (:func:`repro.goofi.target._hash_state`)
        #: and invalidated whenever either region's version moves.
        self.hash_prefix_cache = None
        #: Optional access-trace recorder (duck-typed
        #: :class:`repro.faults.liveness.AccessRecorder`).  Only the
        #: cacheable data space (rodata/data/stack) is recorded: code
        #: words are touched by every instruction fetch and MMIO changes
        #: under the environment's feet, so neither is prunable.
        self.recorder = None

    # -- region predicates ---------------------------------------------------
    def _region_rams(self) -> Tuple[_Ram, ...]:
        return (self.code, self.rodata, self.data, self.stack)

    def in_mmio(self, address: int) -> bool:
        """True if the address lies in the MMIO region."""
        return self.layout.mmio_base <= address < self.layout.mmio_base + self.layout.mmio_size

    def is_cacheable(self, address: int) -> bool:
        """Rodata, data and stack go through the data cache; MMIO/code
        (instruction fetches) do not."""
        return (
            self.data.contains(address)
            or self.stack.contains(address)
            or self.rodata.contains(address)
        )

    def in_stack(self, address: int) -> bool:
        """True if the address lies in the stack region."""
        return self.stack.contains(address)

    # -- checked accesses (raise HardwareDetection) ------------------------------
    def _check_common(self, address: int) -> None:
        if address % WORD:
            raise_detection(Mechanism.ADDRESS_ERROR, f"unaligned {address:#x}")
        if not 0 <= address < ADDRESS_SPACE:
            raise_detection(Mechanism.ADDRESS_ERROR, f"outside space {address:#x}")

    def _unmapped(self, address: int, what: str) -> None:
        if address >= EXTERNAL_BUS_BASE:
            raise_detection(Mechanism.BUS_ERROR, f"{what} time-out {address:#x}")
        raise_detection(Mechanism.ADDRESS_ERROR, f"non-existing memory {address:#x}")

    def read_data_word(self, address: int) -> int:
        """A checked data read (LD path and cache refills)."""
        self._check_common(address)
        if address < self.layout.null_top:
            raise_detection(Mechanism.ACCESS_CHECK, f"null pointer {address:#x}")
        if self.in_mmio(address):
            return self.mmio.read(address - self.layout.mmio_base)
        for ram in self._region_rams():
            if ram.contains(address):
                if self.recorder is not None and self.is_cacheable(address):
                    self.recorder.mem_read(address)
                return ram.read(address)
        self._unmapped(address, "read")
        raise AssertionError("unreachable")

    def write_data_word(self, address: int, value: int) -> None:
        """A checked data write (ST path and cache write-backs)."""
        self._check_common(address)
        if address < self.layout.null_top:
            raise_detection(Mechanism.ACCESS_CHECK, f"null pointer {address:#x}")
        if self.in_mmio(address):
            self.mmio.write(address - self.layout.mmio_base, value)
            return
        if self.code.contains(address) or self.rodata.contains(address):
            raise_detection(Mechanism.ADDRESS_ERROR, f"write to protected {address:#x}")
        for ram in (self.data, self.stack):
            if ram.contains(address):
                if self.recorder is not None:
                    self.recorder.mem_write(address)
                ram.write(address, value)
                return
        self._unmapped(address, "write")

    def fetch_word(self, address: int) -> int:
        """A checked instruction fetch (no null-page exemption: fetching
        from the null page means the PC followed a null pointer)."""
        self._check_common(address)
        if address < self.layout.null_top:
            raise_detection(Mechanism.ACCESS_CHECK, f"fetch from null page {address:#x}")
        if self.in_mmio(address):
            return self.mmio.read(address - self.layout.mmio_base)
        for ram in self._region_rams():
            if ram.contains(address):
                return ram.read(address)
        self._unmapped(address, "fetch")
        raise AssertionError("unreachable")

    def fetch_word_cached(self, address: int) -> int:
        """:meth:`fetch_word` with memoisation for code-region fetches.

        The first fetch of a code word runs every check (alignment,
        mapping, parity); subsequent fetches of the same address return
        the verified value directly.  Unchecked mutations clear the
        cache, so a corrupted code word is always re-verified.
        """
        value = self.fetch_cache.get(address, -1)
        if value >= 0:
            return value
        value = self.fetch_word(address)
        if self.code.contains(address):
            self.fetch_cache[address] = value
        return value

    # -- unchecked access (loader / injector / logger) -----------------------------
    def poke(self, address: int, value: int) -> None:
        """Write a word without checks, updating parity (loader use)."""
        for ram in self._region_rams():
            if ram.contains(address):
                ram.write(address, value)
                self.fetch_cache.clear()
                return
        if self.in_mmio(address):
            self.mmio.write(address - self.layout.mmio_base, value)
            return
        raise MachineError(f"poke outside RAM/MMIO: {address:#x}")

    def peek(self, address: int) -> int:
        """Read a word without checks or parity verification."""
        for ram in self._region_rams():
            if ram.contains(address):
                return ram.words[ram.index(address)]
        if self.in_mmio(address):
            return self.mmio.read(address - self.layout.mmio_base)
        raise MachineError(f"peek outside RAM/MMIO: {address:#x}")

    def corrupt_word_bit(self, address: int, bit: int) -> None:
        """Flip one stored RAM bit *without* updating parity.

        This is the memory fault model: the next parity-checked read of
        the word raises DATA ERROR.
        """
        if not 0 <= bit < 32:
            raise MachineError(f"bit {bit} outside a 32-bit word")
        for ram in self._region_rams():
            if ram.contains(address):
                i = ram.index(address)
                undo = ram.undo
                if undo is not None and i not in undo:
                    undo[i] = (ram.words[i], ram.parity[i])
                ram.words[i] = ram.words[i] ^ (1 << bit)
                ram.version += 1
                self.fetch_cache.clear()
                return
        raise MachineError(f"corrupt outside RAM: {address:#x}")

    # -- state serialisation ------------------------------------------------------
    def state_bytes(self) -> bytes:
        """All RAM contents + parity + MMIO, for run-state hashing."""
        parts: List[bytes] = []
        for ram in self._region_rams():
            parts.append(ram.state_bytes())
        parts.append(self.mmio.state_bytes())
        return b"".join(parts)

    def state_bytes_fresh(self) -> bytes:
        """:meth:`state_bytes` rebuilt from scratch, ignoring the packed
        caches — the honest baseline the incremental hash is tested
        against."""
        parts: List[bytes] = []
        for ram in self._region_rams():
            parts.append(ram.pack_fresh())
        parts.append(self.mmio.state_bytes())
        return b"".join(parts)

    def snapshot(self) -> Dict[str, object]:
        """A restorable copy of all memory state."""
        return {
            "code": self.code.snapshot(),
            "rodata": self.rodata.snapshot(),
            "data": self.data.snapshot(),
            "stack": self.stack.snapshot(),
            "mmio": dict(self.mmio.registers),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        for name in ("code", "rodata", "data", "stack"):
            getattr(self, name).restore(snapshot[name])
        self.mmio.registers = dict(snapshot["mmio"])  # type: ignore[arg-type]
        self.fetch_cache.clear()
