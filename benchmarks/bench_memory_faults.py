"""Memory-fault campaign: the DATA ERROR mechanism at work.

Completes the fault-model inventory beyond the paper's CPU flips: bits
flipped in stored RAM words (with stale parity) model particle strikes
in main memory.  The finding: under a write-back cache, most RAM
corruption is *masked* — dirty evictions rewrite the word and its parity
before anything reads it — and everything that is read surfaces as
DATA ERROR.  No silent wrong results.
"""

from _common import bench_faults, emit

from repro.analysis import OutcomeCategory
from repro.faults.models import MEMORY_PARTITION
from repro.goofi import CampaignConfig, ScifiCampaign
from repro.workloads import compile_algorithm_i

ITERATIONS = 300


def _run():
    config = CampaignConfig(
        workload=compile_algorithm_i(),
        name="memory faults",
        faults=max(bench_faults(), 300),
        seed=29,
        iterations=ITERATIONS,
        partitions=[MEMORY_PARTITION],
    )
    return ScifiCampaign(config).run().summary()


def test_memory_faults(benchmark):
    summary = benchmark.pedantic(_run, rounds=1, iterations=1)
    n = summary.total()
    lines = [
        "RAM single-bit faults (stale parity) against Algorithm I",
        f"faults: {n}",
        f"latent (never touched again):     {summary.count_category(OutcomeCategory.LATENT):>5}",
        f"overwritten (healed by eviction): {summary.count_category(OutcomeCategory.OVERWRITTEN):>5}",
        f"detected (DATA ERROR on read):    {summary.count_detected():>5}",
        f"undetected wrong results:         {summary.count_value_failures():>5}",
    ]
    emit("memory_faults.txt", "\n".join(lines))

    assert summary.count_value_failures() == 0
    for mechanism in summary.mechanisms():
        assert mechanism == "DATA ERROR"
