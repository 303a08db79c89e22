"""Def/use liveness of injectable state, from the reference access trace.

DETOx-style fault pruning (Lenz & Schirmeier, "Scientific fault
injection with def/use pruning") rests on one invariant: until the first
*read* of a faulted bit, a faulted run executes exactly like the
reference run — no computed value, address or branch depends on the
corrupted bit, so the reference run's access trace applies verbatim to
the faulted run up to that read.  Therefore a sampled fault whose bit is

* **written before it is next read** (a full overwrite whose value does
  not derive from the bit) is provably *overwritten*: the state
  re-converges to the reference at the overwrite and every later
  instruction is identical;
* **never accessed again** is provably *latent*: the flip survives to
  the final state (every scan-chain bit is part of the final-state
  hash) while all outputs match the reference;
* **read first** must be simulated (*live*) — only execution can tell
  whether the read turns into a detection, a value failure or nothing.

The same invariant holds from any instant on, for any set of differing
bits, not only for the flip at the injection instant.  A faulted run that
is still diverged at iteration boundary ``k`` executes exactly like the
reference from ``k`` on if every differing bit is overwritten or never
touched again in the reference trace from ``k`` on (and everything the
trace does not cover is equal).  :class:`BoundaryLiveness` precomputes
that verdict for every traced element at every boundary, so
``TargetSystem`` can stop such a run mid-window and splice in the
reference's output tail (the dead-divergence exit).

Trace, then analyse (as FAIL* does): a recording reference run
(``TargetSystem.run_reference(record_access=True)``) runs on the CPU's
table-driven loop with a :class:`~repro.thor.cpu.AccessLog` attached,
which keeps the executed instruction words, one register-access
template per word (captured through the traced step's recorder
hooks) and the cacheable data-access stream.  :func:`traces_from_log`
derives every element's trace from that offline:

* registers, PSW, MAR and MDR — each executed instruction contributes
  its word's template at its dynamic index;
* cache fields and memory words — the address stream is replayed line
  by line through the direct-mapped cache's hook semantics.  Every
  access leaves its own tag in its line and only writes set ``dirty``,
  so each access's hit, refill and write-back follow from the line's
  previous access alone, and the replay is a handful of array passes.

Accesses carry a bit mask so partial-element writes (the PSW's flag
bits) prune correctly.  Memory accesses are keyed by *integer* address
internally; the conversion to :mod:`repro.goofi.memfault`'s hex element
naming happens once per query, at the
:class:`~repro.faults.models.FaultTarget` boundary.  :class:`LivenessMap`
keeps each element's trace as numpy arrays (:class:`KeyTrace`) and
answers the classification query with a binary search.

:class:`AccessRecorder` is the hooked oracle the derivation is tested
against: attached to the CPU, the data cache and the memory map, it
records every access through the no-op-by-default hooks as it happens.

Conservatism rules (they only cost pruning opportunities, never
correctness): an access whose effect on a bit is uncertain is recorded
as a read; read-modify-write sequences record at least the read first;
elements the recorder does not cover at all classify as live.
"""

from __future__ import annotations

import enum
import pickle
import zlib
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.faults.models import (
    CACHE_PARTITION,
    MEMORY_PARTITION,
    REGISTER_PARTITION,
    FaultDescriptor,
    FaultTarget,
)
from repro.thor.cache import INDEX_BITS, LINES, OFFSET_BITS, TAG_BITS
from repro.thor.cpu import AccessLog
from repro.thor.memory import MemoryLayout

#: Mask covering every bit of a full-word element.
FULL_MASK = 0xFFFFFFFF

#: Elements whose liveness cannot be derived from the recorded trace:
#: the PC is read by the injected instruction itself (to compute the
#: next PC and the prefetch address), and the IR holds the instruction
#: the injected instruction decodes — its prefetch *write* is recorded
#: at the successor's index, before the flip it would have to erase.
#: Both are read at the injection instant, so they are always live.
ALWAYS_LIVE = frozenset(
    {
        (REGISTER_PARTITION, "pc"),
        (REGISTER_PARTITION, "ir"),
    }
)

#: Internal trace keys: registers/cache use the scan chain's element
#: names; memory uses the integer word address.
TraceKey = Tuple[str, Union[str, int]]

#: Pre-built trace keys for the cache hooks (avoids per-access string
#: formatting on the hot path); names match the scan chain's.
_CACHE_KEYS: Tuple[Dict[str, TraceKey], ...] = tuple(
    {
        "data": (CACHE_PARTITION, f"line{line}.data"),
        "tag": (CACHE_PARTITION, f"line{line}.tag"),
        "valid": (CACHE_PARTITION, f"line{line}.valid"),
        "dirty": (CACHE_PARTITION, f"line{line}.dirty"),
    }
    for line in range(LINES)
)


class Liveness(enum.Enum):
    """Pre-classification of one sampled fault."""

    LIVE = "live"
    OVERWRITTEN = "overwritten"
    LATENT = "latent"


#: One trace entry: (dynamic instruction index, is_write, bit mask).
AccessEntry = Tuple[int, bool, int]

#: Verdict codes of a :class:`BoundaryLiveness` row, one byte per
#: boundary: the :class:`Liveness` a flip of the element would get there.
LIVE_CODE = 0
OVERWRITTEN_CODE = 1
LATENT_CODE = 2


def traced_memory_ranges(layout: MemoryLayout) -> Tuple[Tuple[int, int], ...]:
    """``(base, end)`` of the RAM regions a recording reference covers:
    the cacheable data space (rodata, data, stack).  Code words are
    touched by every instruction fetch and MMIO changes under the
    environment's feet, so neither is prunable."""
    return tuple(
        (base, base + size)
        for base, size in (
            (layout.rodata_base, layout.rodata_size),
            (layout.data_base, layout.data_size),
            (layout.stack_base, layout.stack_size),
        )
    )


class AccessRecorder:
    """Collects per-element access traces through the hooks (the oracle).

    The CPU drives :attr:`now` (the dynamic instruction index) once per
    instruction; every hook appends ``(now, is_write, mask)`` to the
    accessed element's trace, preserving within-instruction order.  A
    *write* entry asserts that the masked bits were overwritten with a
    value independent of their previous contents.
    """

    __slots__ = ("now", "traces", "memory_ranges", "data_accesses")

    def __init__(self) -> None:
        self.now = 0
        self.traces: Dict[TraceKey, List[AccessEntry]] = {}
        #: ``(base, end)`` address ranges whose words the memory hooks
        #: cover; data-space faults outside them classify as live.
        self.memory_ranges: List[Tuple[int, int]] = []
        #: ``(now, address, is_write)`` of every cacheable data access
        #: the CPU made: the stream an access log replays.
        self.data_accesses: List[Tuple[int, int, bool]] = []

    def track_memory_range(self, base: int, size: int) -> None:
        """Declare one RAM region as covered by the memory hooks."""
        self.memory_ranges.append((base, base + size))

    # -- hook entry points (duck-typed from thor; keep them lean) ----------
    def reg_read(self, element: str, mask: int = FULL_MASK) -> None:
        key = (REGISTER_PARTITION, element)
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, False, mask))

    def reg_write(self, element: str, mask: int = FULL_MASK) -> None:
        key = (REGISTER_PARTITION, element)
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, True, mask))

    def data_access(self, address: int, is_write: bool) -> None:
        self.data_accesses.append((self.now, address, is_write))

    def cache_read(self, line: int, field: str) -> None:
        key = _CACHE_KEYS[line][field]
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, False, FULL_MASK))

    def cache_write(self, line: int, field: str) -> None:
        key = _CACHE_KEYS[line][field]
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, True, FULL_MASK))

    def mem_read(self, address: int) -> None:
        key = (MEMORY_PARTITION, address)
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, False, FULL_MASK))

    def mem_write(self, address: int) -> None:
        key = (MEMORY_PARTITION, address)
        trace = self.traces.get(key)
        if trace is None:
            trace = self.traces[key] = []
        trace.append((self.now, True, FULL_MASK))


class KeyTrace(NamedTuple):
    """One element's access trace, in time order."""

    #: Dynamic instruction index of each access (ascending).
    times: np.ndarray
    #: Whether each access overwrites the bits its mask covers (bool).
    writes: np.ndarray
    #: Bit mask of each access, or ``None`` when every access covers
    #: the full word.
    masks: Optional[np.ndarray] = None


def _key_trace(entries: Sequence[AccessEntry]) -> KeyTrace:
    table = np.array(entries, dtype=np.int64).reshape(-1, 3)
    masks = table[:, 2]
    return KeyTrace(
        table[:, 0].copy(),
        table[:, 1].astype(bool),
        None if bool((masks == FULL_MASK).all()) else masks.copy(),
    )


# -- the offline derivation ----------------------------------------------------
def traces_from_log(log: AccessLog) -> Dict[TraceKey, KeyTrace]:
    """Every element's access trace, derived from a compact access log;
    equal, entry for entry, to what :class:`AccessRecorder` records over
    the same run."""
    traces = _register_traces(log)
    traces.update(_cache_traces(log))
    return traces


def _time_dtype(end: int) -> type:
    """Trace times as int32 while the run's instruction indices fit."""
    return np.int32 if end < 2**31 else np.int64


def _register_traces(log: AccessLog) -> Dict[TraceKey, KeyTrace]:
    """Each executed instruction's word template, at its dynamic index,
    one register element at a time."""
    words = np.asarray(log.words, dtype=np.uint32)
    unique, which = np.unique(words, return_inverse=True)
    # Per element, the template entries of every word, grouped by word.
    per_element: Dict[str, Tuple[List[int], List[bool], List[int]]] = {}
    for owner, word in enumerate(unique.tolist()):
        for element, is_write, mask in log.templates[word]:
            owners, writes, masks = per_element.setdefault(element, ([], [], []))
            owners.append(owner)
            writes.append(is_write)
            masks.append(mask)
    end = log.start + len(words)
    indices = np.arange(log.start, end, dtype=_time_dtype(end))
    traces: Dict[TraceKey, KeyTrace] = {}
    for element, (owners, writes, masks) in per_element.items():
        # Instruction i contributes output entries [ends[i] - per[i],
        # ends[i]), copied from its word's slice of the entries.
        sizes = np.bincount(owners, minlength=len(unique))
        per = sizes[which]
        ends = np.cumsum(per)
        slot = np.repeat(
            (np.cumsum(sizes) - sizes)[which] - (ends - per), per
        ) + np.arange(ends[-1])
        mask = np.asarray(masks, dtype=np.uint32)
        traces[(REGISTER_PARTITION, element)] = KeyTrace(
            np.repeat(indices, per),
            np.asarray(writes, dtype=bool)[slot],
            None if bool((mask == FULL_MASK).all()) else mask[slot],
        )
    return traces


# Replay patterns: what one access finds in its line.
_READ_HIT, _WRITE_HIT, _MISS_EMPTY, _MISS_CLEAN, _MISS_DIRTY = range(5)

#: Per cache field and replay pattern, the is_write flags of the hook
#: calls :class:`~repro.thor.cache.DataCache` makes on that field, in
#: order (-1 pads).  A miss is the same for reads and writes: check
#: (valid, and the tag of a valid line), evict (valid, and of a valid
#: line dirty, and of a dirty one tag and data), then fill (tag, valid,
#: data, dirty).
_FIELD_FLAGS: Dict[str, np.ndarray] = {
    field: np.array(
        [list(row) + [-1] * (4 - len(row)) for row in rows], dtype=np.int8
    )
    for field, rows in {
        #        read hit  write hit  empty         clean         dirty
        "valid": ((0,),    (0,),      (0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1)),
        "tag":   ((0,),    (0,),      (1,),         (0, 1),       (0, 0, 1)),
        "data":  ((0,),    (1,),      (1,),         (1,),         (0, 1)),
        "dirty": ((),      (1,),      (1, 1),       (0, 1, 1),    (0, 1, 1)),
    }.items()
}


def _cache_traces(log: AccessLog) -> Dict[TraceKey, KeyTrace]:
    """Replay the logged cacheable accesses through the direct-mapped
    cache, from the empty cache a loaded program starts with: the
    cache-field and memory-word traces.

    Per line, in time order: an access hits when the line's previous
    access had the same tag (every access leaves its own tag, and only a
    line never accessed is invalid); the line is dirty when its last
    write came after its last read miss.  A miss on a dirty line writes
    the old word back (a write-back into rodata would detect, so a
    finished reference has none outside data and stack); a read miss
    refills from memory.
    """
    count = len(log.access_times)
    if not count:
        return {}
    addresses = np.asarray(log.access_addresses, dtype=np.int64)
    order = np.argsort((addresses >> OFFSET_BITS) & (LINES - 1), kind="stable")
    address = addresses[order]
    time = np.asarray(log.access_times, dtype=np.int64)[order].astype(
        _time_dtype(log.start + len(log.words))
    ) + log.start
    write = np.asarray(log.access_writes, dtype=bool)[order]
    del order
    line = ((address >> OFFSET_BITS) & (LINES - 1)).astype(np.int8)
    tag = (address >> (OFFSET_BITS + INDEX_BITS)) & ((1 << TAG_BITS) - 1)
    position = np.arange(count, dtype=np.int32)

    first = np.ones(count, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    previous_tag = np.roll(tag, 1)
    hit = ~first & (tag == previous_tag)
    # A write leaves the line dirty, a read miss clean, a read hit as
    # it was: the dirty bit an access finds is the write flag of the
    # line's last earlier access that was not a read hit.
    settles = np.maximum.accumulate(np.where(write | ~hit, position, -1))
    settled = np.empty_like(settles)
    settled[0] = -1
    settled[1:] = settles[:-1]
    line_start = np.maximum.accumulate(np.where(first, position, 0))
    dirty = (settled >= line_start) & write[settled]
    pattern = np.where(
        hit,
        np.where(write, _WRITE_HIT, _READ_HIT),
        np.where(first, _MISS_EMPTY, np.where(dirty, _MISS_DIRTY, _MISS_CLEAN)),
    ).astype(np.int8)
    del settles, settled, line_start, dirty

    traces: Dict[TraceKey, KeyTrace] = {}
    line_cuts = np.arange(LINES + 1)
    for field, table in _FIELD_FLAGS.items():
        flags = table[pattern]
        keep = flags >= 0
        field_times = np.broadcast_to(time[:, None], flags.shape)[keep]
        field_writes = flags[keep] == 1
        cuts = np.searchsorted(
            np.broadcast_to(line[:, None], flags.shape)[keep], line_cuts
        )
        for index in range(LINES):
            lo, hi = cuts[index], cuts[index + 1]
            if lo < hi:
                traces[_CACHE_KEYS[index][field]] = KeyTrace(
                    field_times[lo:hi], field_writes[lo:hi]
                )

    written_back = pattern == _MISS_DIRTY
    refilled = ~hit & ~write
    victim = (previous_tag[written_back] << (OFFSET_BITS + INDEX_BITS)) | (
        line[written_back].astype(np.int64) << OFFSET_BITS
    )
    word = np.concatenate((victim, address[refilled]))
    word_time = np.concatenate((time[written_back], time[refilled]))
    word_write = np.arange(len(word)) < len(victim)
    by_word = np.lexsort((word_time, word))
    word, word_time = word[by_word], word_time[by_word]
    word_write = word_write[by_word]
    starts = np.flatnonzero(np.diff(word, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(word)]):
        traces[(MEMORY_PARTITION, int(word[lo]))] = KeyTrace(
            word_time[lo:hi], word_write[lo:hi]
        )
    return traces


def _target_trace_key(target: FaultTarget) -> Optional[TraceKey]:
    """Map a FaultTarget to the internal trace key, or None if the
    element name cannot be parsed (memory elements use hex naming)."""
    if target.partition == MEMORY_PARTITION:
        try:
            return (MEMORY_PARTITION, int(target.element, 16))
        except ValueError:
            return None
    return (target.partition, target.element)


class LivenessMap:
    """Answers "what happens to this bit after time t?" for one run."""

    def __init__(
        self,
        traces: Mapping[TraceKey, KeyTrace],
        total_instructions: int,
        memory_ranges: Iterable[Tuple[int, int]] = (),
    ):
        self._traces = dict(traces)
        self.total_instructions = total_instructions
        self._memory_ranges = tuple(memory_ranges)
        #: Partial-mask elements (the PSW): per bit some access covers,
        #: the times and write flags of the accesses covering it.
        self._bits: Dict[TraceKey, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {}
        for key, trace in self._traces.items():
            if trace.masks is None:
                continue
            covered = int(np.bitwise_or.reduce(trace.masks))
            per_bit = {}
            for bit in range(covered.bit_length()):
                if covered >> bit & 1:
                    picked = (trace.masks >> bit & 1).astype(bool)
                    per_bit[bit] = (trace.times[picked], trace.writes[picked])
            self._bits[key] = per_bit

    @classmethod
    def from_recorder(
        cls, recorder: AccessRecorder, total_instructions: int
    ) -> "LivenessMap":
        """Freeze a finished hooked recorder into a queryable map."""
        return cls(
            {key: _key_trace(trace) for key, trace in recorder.traces.items()},
            total_instructions=total_instructions,
            memory_ranges=recorder.memory_ranges,
        )

    def _covers(self, target: FaultTarget) -> bool:
        if target.partition in (REGISTER_PARTITION, CACHE_PARTITION):
            return True
        if target.partition == MEMORY_PARTITION:
            try:
                address = int(target.element, 16)
            except ValueError:
                return False
            return any(base <= address < end for base, end in self._memory_ranges)
        return False

    def classify(self, target: FaultTarget, time: int) -> Liveness:
        """Pre-classify a single-bit flip of ``target`` just before the
        instruction at dynamic index ``time`` executes."""
        key = (target.partition, target.element)
        if key in ALWAYS_LIVE or not self._covers(target):
            return Liveness.LIVE
        trace_key = _target_trace_key(target)
        trace = self._traces.get(trace_key)  # type: ignore[arg-type]
        if trace is None:
            # The element is covered by the hooks but the reference run
            # never touched it: the flip survives to the final state.
            return Liveness.LATENT
        times, writes = trace.times, trace.writes
        per_bit = self._bits.get(trace_key)  # type: ignore[arg-type]
        if per_bit is not None:
            if target.bit not in per_bit:
                return Liveness.LATENT
            times, writes = per_bit[target.bit]
        first = int(times.searchsorted(time))
        if first == len(times):
            return Liveness.LATENT
        return Liveness.OVERWRITTEN if writes[first] else Liveness.LIVE

    def classify_fault(self, fault: FaultDescriptor) -> Liveness:
        """Pre-classify a (possibly multi-bit) fault descriptor.

        Sound for multi-bit faults because a corrupted bit can only
        influence another element's overwrite value through a *read*,
        which would classify that bit as live: any live bit forces
        simulation, otherwise any surviving (latent) bit makes the whole
        fault latent, else every bit is erased.
        """
        combined = Liveness.OVERWRITTEN
        for target in fault.targets:
            liveness = self.classify(target, fault.time)
            if liveness is Liveness.LIVE:
                return Liveness.LIVE
            if liveness is Liveness.LATENT:
                combined = Liveness.LATENT
        return combined

    def boundary_table(self, boundaries: Sequence[int]) -> "BoundaryLiveness":
        """:meth:`classify` of every traced element at every instant of
        ``boundaries`` (ascending), as one verdict byte per instant.

        Full-mask elements get one row; elements written or read through
        a partial mask (the PSW) get one row per bit any access covers.
        Each row is one ``searchsorted`` of the boundaries into the
        element's times and one gather of the write flags found there.
        """
        bounds = np.asarray(boundaries, dtype=np.int64)
        rows: Dict[TraceKey, bytes] = {}
        bit_rows: Dict[TraceKey, Dict[int, bytes]] = {}
        for key, trace in self._traces.items():
            per_bit = self._bits.get(key)
            if per_bit is None:
                rows[key] = _verdict_row(trace.times, trace.writes, bounds)
            else:
                bit_rows[key] = {
                    bit: _verdict_row(times, writes, bounds)
                    for bit, (times, writes) in per_bit.items()
                }
        return BoundaryLiveness(rows, bit_rows, self._memory_ranges)

    def trace(self, target: FaultTarget) -> List[AccessEntry]:
        """The recorded access trace of one element (for diagnostics)."""
        trace_key = _target_trace_key(target)
        trace = self._traces.get(trace_key) if trace_key is not None else None
        if trace is None:
            return []
        times = trace.times.tolist()
        masks = (
            trace.masks.tolist() if trace.masks is not None else [FULL_MASK] * len(times)
        )
        return list(zip(times, trace.writes.tolist(), masks))


def _verdict_row(
    times: np.ndarray, writes: np.ndarray, bounds: np.ndarray
) -> bytes:
    """One verdict byte per boundary: the kind of the first access at or
    after it (every entry covers the bit), or latent."""
    first = np.searchsorted(times, bounds)
    codes = np.full(len(bounds), LATENT_CODE, dtype=np.uint8)
    inside = first < len(times)
    # A write flag is 1 or 0: OVERWRITTEN_CODE or LIVE_CODE.
    codes[inside] = writes[first[inside]]
    return codes.tobytes()


class BoundaryLiveness:
    """Per-boundary liveness verdicts of the reference run's elements.

    Built once by :meth:`LivenessMap.boundary_table` and carried on the
    :class:`~repro.goofi.target.ReferenceRun`, so pool workers receive it
    with the reference they already adopt.  ``verdict`` answers
    :meth:`LivenessMap.classify_fault`'s question for a set of differing
    bits of one element at one boundary.
    """

    def __init__(
        self,
        rows: Dict[TraceKey, bytes],
        bit_rows: Dict[TraceKey, Dict[int, bytes]],
        memory_ranges: Tuple[Tuple[int, int], ...],
    ):
        #: Full-mask elements: one verdict byte per boundary.
        self.rows = rows
        #: Partial-mask elements: one row per bit some access covers.
        self.bit_rows = bit_rows
        self.memory_ranges = memory_ranges

    # Rows are long runs of three byte values, so zlib shrinks the table
    # (~128 KB on Algorithm I) to ~2 KB on its way to pool workers.
    def __getstate__(self) -> bytes:
        return zlib.compress(
            pickle.dumps((self.rows, self.bit_rows, self.memory_ranges))
        )

    def __setstate__(self, blob: bytes) -> None:
        self.rows, self.bit_rows, self.memory_ranges = pickle.loads(
            zlib.decompress(blob)
        )

    def verdict(self, key: TraceKey, diff: int, boundary: int) -> int:
        """Combined verdict code of the bits set in ``diff`` of element
        ``key`` at ``boundary``: live if any bit is, else latent if any
        bit is, else overwritten (the multi-bit rule of
        :meth:`LivenessMap.classify_fault`).  Covered but never-traced
        elements are latent; memory words outside the recorded ranges
        are live."""
        if key[0] == MEMORY_PARTITION and not any(
            base <= key[1] < end for base, end in self.memory_ranges  # type: ignore[operator]
        ):
            return LIVE_CODE
        row = self.rows.get(key)
        if row is not None:
            return row[boundary]
        per_bit = self.bit_rows.get(key)
        if per_bit is None:
            return LATENT_CODE
        combined = OVERWRITTEN_CODE
        for bit in range(diff.bit_length()):
            if diff >> bit & 1:
                row = per_bit.get(bit)
                code = LATENT_CODE if row is None else row[boundary]
                if code == LIVE_CODE:
                    return LIVE_CODE
                if code == LATENT_CODE:
                    combined = LATENT_CODE
        return combined
