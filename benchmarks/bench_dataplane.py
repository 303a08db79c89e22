"""Benchmark: the delta data plane.

Measures the three layers of the dirty-tracked data plane against the
legacy full-copy baseline (``delta_dataplane=False``) and gates:

1. the pickled per-worker reference payload is >= 5x smaller,
2. golden equivalence — identical outcomes and summary tables across
   the planes, serial, parallel *and* resumed-after-abort,
3. campaign wall-clock (serial and workers=4, both planes) stays at
   parity or better.

**Honest expectation on wall-clock:** the simulated machine's whole
architectural state is a few KB, and after the in-place restore work
the legacy plane restores it with C-speed bulk slice assignment in
~25 µs — about 0.3% of a mean experiment.  A Python-level O(touched)
undo walk cannot beat a C-level O(state) copy at this state size, so
at the default 500-fault campaign the delta plane's wall-clock
contribution is parity within measurement noise (the undo-capture tax
on the write path cancels against the locality-sorted seats and the
shared-output views).  Its real wins at this scale are the ~6.7x
smaller per-worker reference payload and the O(footprint) cost model,
which is what makes paper-scale campaigns on realistically sized
machine states tractable: the machinery is validated here and pays off
at a different operating point.  The wall-clock gate is
therefore a *parity floor*, not a speedup claim; the payload and
equivalence gates stay hard.

Both timed legs run warm (``repro.goofi.pruning._warm_up``), and the
parallel legs use separately warmed pools — the data-plane flag is part
of the worker payload, so one leg can never reuse the other's workers.
The snapshot lands in ``results/BENCH_dataplane.json``.
"""

import json
import pickle
import time

import numpy as np
import pytest

from _common import bench_faults, bench_iterations, emit

from repro.analysis.report import render_outcome_table
from repro.errors import CampaignAborted
from repro.goofi import CampaignConfig, CampaignDatabase, ScifiCampaign
from repro.goofi.pool import ReferencePool
from repro.goofi.pruning import _warm_up, replace
from repro.goofi.target import TargetSystem
from repro.workloads import compile_algorithm_i

WORKERS = 4

#: Gates at the default 500-fault / 650-iteration size.  CI runs a
#: downsized campaign (REPRO_BENCH_FAULTS / _ITERATIONS); fewer
#: iterations mean fewer deltas to amortise the one base snapshot over,
#: so the payload ratio gates lower there.  The equivalence gates stay
#: hard at every size.
FULL_SIZE_PAYLOAD_GATE = 5.0
REDUCED_SIZE_PAYLOAD_GATE = 3.0
#: Wall-clock parity floors (see the module docstring): the delta plane
#: must not *cost* campaign time.  Measured serial ratios hover around
#: 0.95-1.1x at the default size and ~1.1x at the CI size (shorter
#: experiments amortise less fixed restore cost, favouring the delta
#: plane); the floors leave head-room for the single-core CI runner's
#: ±6% run-to-run noise.
FULL_SIZE_SPEEDUP_FLOOR = 0.85
REDUCED_SIZE_SPEEDUP_FLOOR = 0.9


def _configs():
    base = CampaignConfig(
        workload=compile_algorithm_i(),
        name="dataplane bench",
        faults=bench_faults(),
        iterations=bench_iterations(),
        seed=2001,
    )
    # Candidate: delta checkpoints + undo-log restore (the default).
    # Baseline: the classic full-copy plane.  Both legs execute live
    # faults in injection-time order.
    return base, replace(base, delta_dataplane=False)


def _payload_bytes(delta: bool) -> int:
    """Size of the reference payload a worker initializer receives."""
    target = TargetSystem(
        compile_algorithm_i(),
        iterations=bench_iterations(),
        delta_dataplane=delta,
    )
    return len(pickle.dumps(target.run_reference()))


def _restore_cost_us(delta: bool, samples: int = 200) -> float:
    """Mean restore_boundary cost (µs) over a time-sorted schedule with
    injection-style dirtying between seats."""
    target = TargetSystem(
        compile_algorithm_i(),
        iterations=bench_iterations(),
        delta_dataplane=delta,
    )
    target.run_reference()
    rng = np.random.default_rng(7)
    boundaries = np.sort(rng.integers(0, target.iterations, size=samples))
    space = target.scan_chain.location_space()
    layout = target.cpu.layout
    elapsed = 0.0
    for boundary in boundaries:
        start = time.perf_counter()
        target.restore_boundary(int(boundary))
        elapsed += time.perf_counter() - start
        # Dirty the machine the way an experiment would (untimed).
        target.scan_chain.flip(space[int(rng.integers(len(space)))])
        target.cpu.memory.corrupt_word_bit(
            layout.data_base + 4 * int(rng.integers(layout.data_size // 4)), 5
        )
        target.cpu.run(2000)
    return elapsed / samples * 1e6


def _equivalent(a, b) -> bool:
    return a.outcomes == b.outcomes and render_outcome_table(
        a.summary()
    ) == render_outcome_table(b.summary())


def _timed(config, **kwargs):
    start = time.perf_counter()
    result = ScifiCampaign(config).run(**kwargs)
    return result, time.perf_counter() - start


def _resumed_outcomes(config):
    """Abort a campaign a third of the way in, resume it to completion."""
    abort_after = max(2, config.faults // 3)

    def killer(done, _total, _outcome):
        if done >= abort_after:
            raise KeyboardInterrupt

    db = CampaignDatabase(":memory:")
    with pytest.raises(CampaignAborted):
        ScifiCampaign(config, database=db).run(progress=killer)
    return ScifiCampaign(config, database=db).run(resume_from=1)


def _measure():
    candidate_config, baseline_config = _configs()

    payload = {
        "candidate_bytes": _payload_bytes(delta=True),
        "baseline_bytes": _payload_bytes(delta=False),
    }
    restore = {
        "candidate_us_per_restore": round(_restore_cost_us(delta=True), 1),
        "baseline_us_per_restore": round(_restore_cost_us(delta=False), 1),
    }

    _warm_up(candidate_config, 1, None)
    candidate_serial, candidate_seconds = _timed(candidate_config)
    baseline_serial, baseline_seconds = _timed(baseline_config)

    with ReferencePool(workers=WORKERS) as pool:
        _warm_up(candidate_config, WORKERS, pool)
        candidate_parallel, candidate_par_seconds = _timed(
            candidate_config, workers=WORKERS, pool=pool
        )
    with ReferencePool(workers=WORKERS) as pool:
        _warm_up(baseline_config, WORKERS, pool)
        baseline_parallel, baseline_par_seconds = _timed(
            baseline_config, workers=WORKERS, pool=pool
        )

    equivalence = {
        "serial": _equivalent(candidate_serial, baseline_serial),
        "parallel": _equivalent(candidate_parallel, baseline_serial),
        "resumed": _equivalent(
            _resumed_outcomes(candidate_config), baseline_serial
        ),
    }
    wall = {
        "candidate_serial_seconds": round(candidate_seconds, 3),
        "baseline_serial_seconds": round(baseline_seconds, 3),
        "candidate_parallel_seconds": round(candidate_par_seconds, 3),
        "baseline_parallel_seconds": round(baseline_par_seconds, 3),
    }
    return payload, restore, wall, equivalence


def test_dataplane_speedup(benchmark):
    payload, restore, wall, equivalence = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    full_size = bench_faults() >= 500 and bench_iterations() >= 650
    payload_gate = (
        FULL_SIZE_PAYLOAD_GATE if full_size else REDUCED_SIZE_PAYLOAD_GATE
    )
    speedup_floor = (
        FULL_SIZE_SPEEDUP_FLOOR if full_size else REDUCED_SIZE_SPEEDUP_FLOOR
    )
    payload_ratio = payload["baseline_bytes"] / payload["candidate_bytes"]
    speedup = (
        wall["baseline_serial_seconds"] / wall["candidate_serial_seconds"]
    )
    snapshot = {
        "faults": bench_faults(),
        "iterations": bench_iterations(),
        "workers": WORKERS,
        "payload": {**payload, "ratio": round(payload_ratio, 2),
                    "gate": payload_gate},
        "restore": restore,
        "wall_clock": {**wall, "serial_speedup": round(speedup, 2),
                       "parity_floor": speedup_floor},
        "equivalence": equivalence,
    }
    emit("BENCH_dataplane.json", json.dumps(snapshot, indent=2, sort_keys=True))

    # Golden equivalence first: a faster wrong answer is no answer.
    assert all(equivalence.values()), snapshot
    assert payload_ratio >= payload_gate, snapshot
    # Parity floor, not a speedup claim — see the module docstring.
    assert speedup >= speedup_floor, snapshot
