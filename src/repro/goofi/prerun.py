"""Pre-runtime software-implemented fault injection (SWIFI, §3.3.1).

Besides scan-chain injection, GOOFI supports *pre-runtime SWIFI*: the
fault is planted in the program image before execution starts — a bit
flipped in an instruction word or an initialised data word — modelling a
corrupted load image or a persistent memory fault.  The whole run then
executes with the mutation in place.

An image fault is a :class:`~repro.faults.models.FaultDescriptor` in the
``code-image`` or ``data-image`` partition at time 0: its element is the
word address.  A campaign with ``partitions=["code-image"]`` (or
``["code-image", "data-image"]``) samples them with
:func:`sample_image_faults`, and ``TargetSystem.run_experiment`` seats
boundary 0 — the freshly loaded, warm-started image — and rewrites the
word there, so image campaigns run through the same loop, pool,
persistence and early exit as scan-chain ones.  A code-word flip keeps
the image, and therefore the state hash, different for the whole run,
so only mutations whose effect is erased (a data word overwritten
before first use) ever take the early exit.

Compared to SCIFI, pre-runtime faults skew heavily toward detected
errors (an instruction-word flip usually produces an illegal opcode,
register field or wild branch on first execution) and permanent value
failures (a corrupted constant or control-law instruction is wrong on
*every* iteration) — the bench `bench_ablation_prerun_swifi` quantifies
both effects.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import CampaignError
from repro.faults.models import (
    CODE_PARTITION,
    DATA_PARTITION,
    FaultDescriptor,
    FaultTarget,
)
from repro.tcc.codegen import CompiledProgram
from repro.thor.memory import WORD


def image_fault(partition: str, address: int, bit: int) -> FaultDescriptor:
    """The fault that flips bit ``bit`` of the image word at ``address``
    (``partition`` is ``code-image`` or ``data-image``) before the run."""
    return FaultDescriptor(FaultTarget(partition, f"{address:#x}", bit), 0)


def image_words(
    workload: CompiledProgram, include_data: bool = True
) -> List[Tuple[str, int]]:
    """Every injectable ``(partition, word address)`` of the image: the
    code words, then (with ``include_data``) the initialised data and
    rodata words."""
    program = workload.program
    words = [
        (CODE_PARTITION, program.entry + i * WORD) for i in range(len(program.code))
    ]
    if include_data:
        words.extend((DATA_PARTITION, address) for address in program.data)
    return words


def sample_image_faults(
    workload: CompiledProgram,
    count: int,
    rng: np.random.Generator,
    include_data: bool = True,
) -> List[FaultDescriptor]:
    """Uniformly sample image faults over the workload's code (and
    initialised data/rodata) bits."""
    if count <= 0:
        raise CampaignError("count must be positive")
    words = image_words(workload, include_data)
    indices = rng.integers(0, 32 * len(words), size=count)
    return [
        image_fault(*words[int(i) // 32], int(i) % 32) for i in indices
    ]
