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

:class:`AccessRecorder` collects the per-element access trace during
``TargetSystem.run_reference(record_access=True)`` through no-op-by-
default hooks in the CPU, the data cache and the memory map.  Accesses
carry a bit mask so partial-element writes (the PSW's flag bits) prune
correctly.  Memory accesses are keyed by *integer* address internally —
the hooks run once per data access of the reference run, so per-access
``f"{addr:#x}"`` formatting is pure hot-path waste; the conversion to
:mod:`repro.goofi.memfault`'s hex element naming happens once per
query, at the :class:`~repro.faults.models.FaultTarget` boundary.
:class:`LivenessMap` answers the classification query with a binary
search over each element's trace.

Conservatism rules (they only cost pruning opportunities, never
correctness): an access whose effect on a bit is uncertain is recorded
as a read; read-modify-write sequences record at least the read first;
elements the recorder does not cover at all classify as live.
"""

from __future__ import annotations

import enum
import pickle
import zlib
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults.models import (
    CACHE_PARTITION,
    MEMORY_PARTITION,
    REGISTER_PARTITION,
    FaultDescriptor,
    FaultTarget,
)
from repro.thor.cache import LINES

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


class AccessRecorder:
    """Collects per-element access traces during a reference run.

    The CPU drives :attr:`now` (the dynamic instruction index) once per
    instruction; every hook appends ``(now, is_write, mask)`` to the
    accessed element's trace, preserving within-instruction order.  A
    *write* entry asserts that the masked bits were overwritten with a
    value independent of their previous contents.
    """

    __slots__ = ("now", "traces", "memory_ranges")

    def __init__(self) -> None:
        self.now = 0
        self.traces: Dict[TraceKey, List[AccessEntry]] = {}
        #: ``(base, end)`` address ranges whose words the memory hooks
        #: cover; data-space faults outside them classify as live.
        self.memory_ranges: List[Tuple[int, int]] = []

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
        traces: Dict[TraceKey, List[AccessEntry]],
        total_instructions: int,
        memory_ranges: Iterable[Tuple[int, int]] = (),
    ):
        self._traces = traces
        self._times = {key: [e[0] for e in trace] for key, trace in traces.items()}
        self.total_instructions = total_instructions
        self._memory_ranges = tuple(memory_ranges)

    @classmethod
    def from_recorder(
        cls, recorder: AccessRecorder, total_instructions: int
    ) -> "LivenessMap":
        """Freeze a finished recorder into a queryable map."""
        return cls(
            traces=recorder.traces,
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
        times = self._times.get(trace_key)
        if times is None:
            # The element is covered by the hooks but the reference run
            # never touched it: the flip survives to the final state.
            return Liveness.LATENT
        trace = self._traces[trace_key]
        bit = 1 << target.bit
        for i in range(bisect_left(times, time), len(trace)):
            _t, is_write, mask = trace[i]
            if mask & bit:
                return Liveness.OVERWRITTEN if is_write else Liveness.LIVE
        return Liveness.LATENT

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
        The traces hold ~0.7 M entries on Algorithm I, so every pass
        over one runs in C: a ``searchsorted`` per element, then one
        entry lookup per boundary.  Only the register hooks take a mask,
        so only register traces are scanned for partial ones.
        """
        bounds = np.asarray(boundaries, dtype=np.int64)
        rows: Dict[TraceKey, bytes] = {}
        bit_rows: Dict[TraceKey, Dict[int, bytes]] = {}
        for key, trace in self._traces.items():
            masks = (
                set(map(_MASK, trace))
                if key[0] == REGISTER_PARTITION
                else {FULL_MASK}
            )
            if masks == {FULL_MASK}:
                rows[key] = _verdict_row(self._times[key], trace, bounds)
                continue
            covered = 0
            for mask in masks:
                covered |= mask
            per_bit: Dict[int, bytes] = {}
            for bit in range(covered.bit_length()):
                flag = 1 << bit
                if covered & flag:
                    entries = [e for e in trace if e[2] & flag]
                    per_bit[bit] = _verdict_row(
                        [e[0] for e in entries], entries, bounds
                    )
            bit_rows[key] = per_bit
        return BoundaryLiveness(rows, bit_rows, self._memory_ranges)

    def trace(self, target: FaultTarget) -> List[AccessEntry]:
        """The recorded access trace of one element (for diagnostics)."""
        trace_key = _target_trace_key(target)
        if trace_key is None:
            return []
        return list(self._traces.get(trace_key, ()))


_MASK = itemgetter(2)
_IS_WRITE = itemgetter(1)
#: Stands past a trace's end; its "is_write" field is the latent code.
_END_OF_TRACE = (0, LATENT_CODE, FULL_MASK)


def _verdict_row(
    times: List[int], trace: List[AccessEntry], bounds: "np.ndarray"
) -> bytes:
    """One verdict byte per boundary: the kind of the first access at or
    after it (every entry of ``trace`` covers the bit), or latent."""
    first = np.searchsorted(
        np.fromiter(times, dtype=np.int64, count=len(times)), bounds
    ).tolist()
    # is_write is a bool: True/False are OVERWRITTEN_CODE/LIVE_CODE.
    padded = trace + [_END_OF_TRACE]
    return bytes(map(_IS_WRITE, map(padded.__getitem__, first)))


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
