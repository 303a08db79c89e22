"""The 128-byte direct-mapped write-back data cache.

Geometry mirrors the paper's injectable cache surface: 32 lines of one
32-bit word each (128 bytes of data), with a 23-bit tag, a valid bit and
a dirty bit per line — 57 bits x 32 lines = 1824 injectable state
elements, the paper's cache partition size.

Address split (30-bit physical space):
``tag[29:7] | index[6:2] | byte[1:0]``.

The cache is write-back and write-allocate.  Because a line is exactly
one word, a write miss allocates without a refill read.  Evicting a dirty
line writes it back to the address reconstructed from the *stored* tag —
so a bit-flip in a tag sends the write-back to the wrong address, which
usually lies outside the small RAM regions and raises ADDRESS/BUS ERROR,
the dominant detected outcome for cache faults in the paper's Table 2.
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.thor.memory import MemoryMap

LINES = 32
LINE_BYTES = 4
INDEX_BITS = 5
TAG_BITS = 23
OFFSET_BITS = 2

#: Injectable bits per line: 32 data + 23 tag + valid + dirty.
BITS_PER_LINE = 32 + TAG_BITS + 1 + 1

#: Total injectable cache bits (the paper's 1824 cache state elements).
TOTAL_BITS = LINES * BITS_PER_LINE

_WORDS_STRUCT = struct.Struct(f"<{LINES}I")


def split_address(address: int) -> "tuple[int, int]":
    """``(tag, index)`` of a word address."""
    index = (address >> OFFSET_BITS) & (LINES - 1)
    tag = (address >> (OFFSET_BITS + INDEX_BITS)) & ((1 << TAG_BITS) - 1)
    return tag, index


def line_address(tag: int, index: int) -> int:
    """Reconstruct the word address a (tag, index) pair names."""
    return (tag << (OFFSET_BITS + INDEX_BITS)) | (index << OFFSET_BITS)


class DataCache:
    """Direct-mapped write-back cache in front of data/stack RAM.

    Line state lives in plain Python lists — the hit path is two list
    reads and an integer compare, with none of the scalar boxing a
    ``numpy`` array would add per access.  The serialised byte layout
    (little-endian uint32 data/tags, uint8 valid/dirty) is unchanged.
    """

    def __init__(self) -> None:
        self.data: List[int] = [0] * LINES
        self.tags: List[int] = [0] * LINES
        self.valid: List[int] = [0] * LINES
        self.dirty: List[int] = [0] * LINES
        #: Statistics, reset with :meth:`reset_stats`.
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: Optional access-trace recorder (duck-typed
        #: :class:`repro.faults.liveness.AccessRecorder`); ``None``
        #: outside a recording reference run.  The recording calls
        #: mirror the *exact* reads the logic below performs — including
        #: the hit-check's short circuit (the tag is only consulted on
        #: valid lines), which is what makes tag bits of invalid lines
        #: provably overwritten by the refill.
        self.recorder = None

    # -- core operations -------------------------------------------------------
    def _evict(self, index: int, memory: MemoryMap) -> None:
        """Write back the line at ``index`` if it is valid and dirty."""
        recorder = self.recorder
        if recorder is not None:
            recorder.cache_read(index, "valid")
            if self.valid[index]:
                recorder.cache_read(index, "dirty")
                if self.dirty[index]:
                    recorder.cache_read(index, "tag")
                    recorder.cache_read(index, "data")
        if self.valid[index] and self.dirty[index]:
            victim_address = line_address(int(self.tags[index]), index)
            self.writebacks += 1
            memory.write_data_word(victim_address, int(self.data[index]))
        self.valid[index] = 0
        self.dirty[index] = 0
        if recorder is not None:
            recorder.cache_write(index, "valid")
            recorder.cache_write(index, "dirty")

    def read(self, address: int, memory: MemoryMap) -> int:
        """Read a cached word, refilling on a miss."""
        index = (address >> OFFSET_BITS) & (LINES - 1)
        tag = (address >> (OFFSET_BITS + INDEX_BITS)) & ((1 << TAG_BITS) - 1)
        recorder = self.recorder
        if recorder is not None:
            recorder.cache_read(index, "valid")
            if self.valid[index]:
                recorder.cache_read(index, "tag")
        if self.valid[index] and self.tags[index] == tag:
            self.hits += 1
            if recorder is not None:
                recorder.cache_read(index, "data")
            return self.data[index]
        self.misses += 1
        self._evict(index, memory)
        value = memory.read_data_word(address)
        self.data[index] = value
        self.tags[index] = tag
        self.valid[index] = 1
        self.dirty[index] = 0
        if recorder is not None:
            recorder.cache_write(index, "data")
            recorder.cache_write(index, "tag")
            recorder.cache_write(index, "valid")
            recorder.cache_write(index, "dirty")
        return value

    def write(self, address: int, value: int, memory: MemoryMap) -> None:
        """Write a cached word (write-allocate, no refill for full lines)."""
        index = (address >> OFFSET_BITS) & (LINES - 1)
        tag = (address >> (OFFSET_BITS + INDEX_BITS)) & ((1 << TAG_BITS) - 1)
        recorder = self.recorder
        if recorder is not None:
            recorder.cache_read(index, "valid")
            if self.valid[index]:
                recorder.cache_read(index, "tag")
        if not (self.valid[index] and self.tags[index] == tag):
            self.misses += 1
            self._evict(index, memory)
            self.tags[index] = tag
            self.valid[index] = 1
            if recorder is not None:
                recorder.cache_write(index, "tag")
                recorder.cache_write(index, "valid")
        else:
            self.hits += 1
        self.data[index] = value & 0xFFFFFFFF
        self.dirty[index] = 1
        if recorder is not None:
            recorder.cache_write(index, "data")
            recorder.cache_write(index, "dirty")

    def flush(self, memory: MemoryMap) -> None:
        """Write back all dirty lines and invalidate the cache."""
        for index in range(LINES):
            self._evict(index, memory)

    def invalidate(self) -> None:
        """Drop all lines without writing anything back."""
        self.valid = [0] * LINES
        self.dirty = [0] * LINES
        if self.recorder is not None:
            for index in range(LINES):
                self.recorder.cache_write(index, "valid")
                self.recorder.cache_write(index, "dirty")

    def reset_stats(self) -> None:
        """Zero the hit/miss/writeback counters."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- state access ----------------------------------------------------------
    def state_bytes(self) -> bytes:
        """Deterministic serialisation for run-state hashing.

        Always rebuilt from the live lists: tests and the scan chain
        mutate the arrays in place, so this surface carries no cache of
        its own (it is 32 lines — packing is cheap)."""
        return (
            _WORDS_STRUCT.pack(*[w & 0xFFFFFFFF for w in self.data])
            + _WORDS_STRUCT.pack(*[t & 0xFFFFFFFF for t in self.tags])
            + bytes(b & 0xFF for b in self.valid)
            + bytes(b & 0xFF for b in self.dirty)
        )

    def snapshot(self) -> Dict[str, List[int]]:
        """A restorable copy of the cache arrays."""
        return {
            "data": list(self.data),
            "tags": list(self.tags),
            "valid": list(self.valid),
            "dirty": list(self.dirty),
        }

    def restore(self, snapshot: Dict[str, List[int]]) -> None:
        """Restore arrays captured by :meth:`snapshot` (in place, so
        steady-state restores allocate nothing)."""
        self.data[:] = snapshot["data"]
        self.tags[:] = snapshot["tags"]
        self.valid[:] = snapshot["valid"]
        self.dirty[:] = snapshot["dirty"]
