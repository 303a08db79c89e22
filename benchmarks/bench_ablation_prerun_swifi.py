"""Extension study: pre-runtime SWIFI vs scan-chain SCIFI.

GOOFI supports both techniques (§3.3.1).  Pre-runtime faults corrupt the
program image before execution (a bad load image / persistent memory
fault); SCIFI corrupts live CPU state mid-run (a transient particle
strike).  The outcome mixes differ characteristically:

* image faults are *persistent*: a corrupted instruction or constant is
  wrong on every iteration, so value failures (and severe ones) are far
  more frequent than under transient state faults;
* image faults in code trip the decode/fetch checks (INSTRUCTION /
  ADDRESS / CONTROL FLOW errors) on their first execution;
* SCIFI faults are mostly benign (overwritten) because most live state
  is short-lived.
"""

from _common import bench_faults, emit, run_cached_campaign

from repro.faults.models import CODE_PARTITION, DATA_PARTITION
from repro.goofi import CampaignConfig, ScifiCampaign
from repro.workloads import compile_algorithm_i

ITERATIONS = 300


def _run_all():
    config = CampaignConfig(
        workload=compile_algorithm_i(),
        name="pre-runtime SWIFI",
        faults=min(max(bench_faults() // 4, 60), 250),
        seed=17,
        iterations=ITERATIONS,
        partitions=[CODE_PARTITION, DATA_PARTITION],
    )
    image = ScifiCampaign(config).run()
    scifi = run_cached_campaign("I")
    return image.summary(), scifi.summary()


def test_ablation_prerun_swifi(benchmark):
    image, scifi = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = ["Extension: pre-runtime SWIFI (image faults) vs SCIFI (state faults)"]
    lines.append(
        f"{'technique':<26}{'n':>6}{'non-eff%':>10}{'detected%':>11}"
        f"{'VF%':>8}{'severe%':>9}"
    )
    for summary in (image, scifi):
        n = summary.total()
        lines.append(
            f"{summary.name:<26}{n:>6d}"
            f"{100.0 * summary.count_non_effective() / n:>9.1f}%"
            f"{100.0 * summary.count_detected() / n:>10.1f}%"
            f"{100.0 * summary.count_value_failures() / n:>7.1f}%"
            f"{100.0 * summary.count_severe() / n:>8.2f}%"
        )
    lines.append("")
    lines.append("image-fault detections by mechanism:")
    for mechanism in image.mechanisms():
        lines.append(f"  {mechanism:<26}{image.count_mechanism(mechanism):>5d}")
    emit("ablation_prerun_swifi.txt", "\n".join(lines))

    # The characteristic difference: an image fault is *persistent* — a
    # corrupted instruction or constant is wrong on every iteration — so
    # pre-runtime campaigns produce far more (and more severe) value
    # failures than transient live-state faults.
    assert (
        image.count_value_failures() / image.total()
        > scifi.count_value_failures() / scifi.total()
    )
    assert (
        image.count_severe() / image.total()
        >= scifi.count_severe() / scifi.total()
    )
