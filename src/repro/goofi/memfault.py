"""Memory fault injection: bit-flips in stored RAM words.

The CPU campaigns flip *processor* state; this fault model flips bits in
main-memory words mid-run without updating the stored parity — the
fault the DATA ERROR mechanism ("uncorrectable error in data read from
memory") exists for.  It completes the fault-model inventory: every
Table 1 mechanism now has a campaign-grade injection path.

A memory fault is a :class:`~repro.faults.models.FaultDescriptor` in
the ``memory`` partition, applied at an iteration boundary: its element
is the word address, its time the boundary's instruction count.  A
campaign with ``partitions=["memory"]`` samples them with
:func:`sample_memory_faults`, and ``TargetSystem.run_experiment`` seats
the boundary and flips the stored bit, so memory campaigns run through
the same loop, pool, persistence and pruning as scan-chain ones.

Outcomes split three ways:

* the corrupted word is *read* before being overwritten → DATA ERROR
  (parity mismatch) terminates the run;
* the word is *overwritten* first (parity recomputed) → non-effective;
* the word is never touched again → latent.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import CampaignError
from repro.faults.models import MEMORY_PARTITION, FaultDescriptor, FaultTarget
from repro.goofi.target import ReferenceRun, TargetSystem
from repro.thor.memory import WORD, MemoryLayout


def memory_words(layout: MemoryLayout) -> List[int]:
    """Every injectable word address: data RAM, then stack RAM."""
    words: List[int] = []
    for base, size in (
        (layout.data_base, layout.data_size),
        (layout.stack_base, layout.stack_size),
    ):
        words.extend(range(base, base + size, WORD))
    return words


def memory_fault(
    reference: ReferenceRun, address: int, bit: int, iteration: int
) -> FaultDescriptor:
    """The fault that flips stored bit ``bit`` of the RAM word at
    ``address`` just before iteration ``iteration`` of ``reference``."""
    if not 0 <= iteration < len(reference.outputs):
        raise CampaignError("fault iteration outside the run")
    return FaultDescriptor(
        FaultTarget(MEMORY_PARTITION, f"{address:#x}", bit),
        reference.instructions_at[iteration],
    )


def sample_memory_faults(
    target: TargetSystem,
    count: int,
    rng: np.random.Generator,
) -> List[FaultDescriptor]:
    """Uniformly sample RAM faults over data+stack words and iterations
    of ``target``'s reference run."""
    if count <= 0:
        raise CampaignError("count must be positive")
    reference = target.reference
    if reference is None:
        raise CampaignError("run_reference() must come first")
    words = memory_words(target.cpu.layout)
    return [
        memory_fault(
            reference,
            address=int(words[int(rng.integers(0, len(words)))]),
            bit=int(rng.integers(0, 32)),
            iteration=int(rng.integers(0, target.iterations)),
        )
        for _ in range(count)
    ]
