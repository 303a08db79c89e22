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
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.faults.models import FaultDescriptor, FaultTarget
from repro.thor.cache import LINES

#: Partition names, matching :mod:`repro.thor.scanchain` and
#: :mod:`repro.goofi.memfault`.
REGISTER_PARTITION = "registers"
CACHE_PARTITION = "cache"
MEMORY_PARTITION = "memory"

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

    def trace(self, target: FaultTarget) -> List[AccessEntry]:
        """The recorded access trace of one element (for diagnostics)."""
        trace_key = _target_trace_key(target)
        if trace_key is None:
            return []
        return list(self._traces.get(trace_key, ()))
