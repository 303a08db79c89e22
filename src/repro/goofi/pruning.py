"""Fault-plan pruning from the reference run's def/use liveness.

Given the :class:`~repro.faults.liveness.LivenessMap` recorded during
``run_reference(record_access=True)``, :func:`preclassify_plan` splits a
sampled fault plan into

* **live** faults — the bit is read before any full overwrite, so only
  simulation can tell the outcome; and
* **predicted** faults — the bit is provably overwritten (written with an
  independent value before its next read) or provably latent (never
  touched again), so the experiment's result is known without running it.

:func:`synthesize_run` turns a predicted fault into an
:class:`~repro.goofi.target.ExperimentRun` that classifies — through the
ordinary §4.1 classifier — into exactly the :class:`Outcome` the
simulation would have produced: reference outputs with an unchanged
final state for *overwritten*, reference outputs with a differing final
state for *latent*.  Because :class:`Outcome` is a frozen dataclass,
predicted and simulated outcomes compare equal, which is what lets
:func:`validate_pruning` assert full per-experiment equivalence.

:func:`validate_pruning` first runs a small throwaway warm-up campaign
so both timed legs see identical warm-start conditions — process pool
spawned, dispatch tables built — instead of the first leg silently
paying the cold-start tax (which used to bias the reported wall-clock
ratio *against* pruning).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.analysis.classify import Outcome
from repro.analysis.report import render_outcome_table
from repro.errors import CampaignError
from repro.faults.liveness import Liveness, LivenessMap
from repro.faults.models import FaultDescriptor
from repro.goofi.dataplane import SplicedOutputs
from repro.goofi.target import ExperimentRun, ReferenceRun


@dataclass
class PrunedPlan:
    """A fault plan split by the def/use pre-classification.

    Attributes:
        live: ``(plan index, fault)`` pairs that must be simulated.
        predicted: ``(plan index, fault, classification)`` triples whose
            outcome is provable from the reference trace.
    """

    live: List[Tuple[int, FaultDescriptor]]
    predicted: List[Tuple[int, FaultDescriptor, Liveness]]

    @property
    def total(self) -> int:
        """Size of the original plan."""
        return len(self.live) + len(self.predicted)

    @property
    def reduction(self) -> float:
        """Fraction of experiments that need no simulation."""
        return len(self.predicted) / self.total if self.total else 0.0


def preclassify_plan(
    plan: Sequence[FaultDescriptor], liveness: LivenessMap
) -> PrunedPlan:
    """Split a fault plan into live and predicted experiments."""
    return preclassify_pairs(list(enumerate(plan)), liveness)


def preclassify_pairs(
    pairs: Sequence[Tuple[int, FaultDescriptor]], liveness: LivenessMap
) -> PrunedPlan:
    """:func:`preclassify_plan` over pre-indexed ``(plan index, fault)``
    pairs — the resume path prunes only the not-yet-completed remainder
    of a plan, whose indices are not contiguous."""
    live: List[Tuple[int, FaultDescriptor]] = []
    predicted: List[Tuple[int, FaultDescriptor, Liveness]] = []
    for index, fault in pairs:
        classification = liveness.classify_fault(fault)
        if classification is Liveness.LIVE:
            live.append((index, fault))
        else:
            predicted.append((index, fault, classification))
    return PrunedPlan(live=live, predicted=predicted)


def synthesize_run(
    fault: FaultDescriptor,
    classification: Liveness,
    reference: ReferenceRun,
) -> ExperimentRun:
    """Build the run a predicted fault would have produced.

    An overwritten fault re-converges to the reference, so its outputs
    match and the final state is identical; a latent fault also delivers
    the reference outputs (nothing ever read the bit) but the flip
    survives into the final-state hash.
    """
    if classification is Liveness.LIVE:
        raise CampaignError("live faults must be simulated, not synthesised")
    return ExperimentRun(
        fault=fault,
        # A view over the (immutable) golden outputs: predicted runs
        # deliver the reference trace verbatim, so there is nothing to
        # copy — pickling flattens the view for worker transport.
        outputs=SplicedOutputs(reference.outputs, len(reference.outputs)),
        final_state_differs=classification is Liveness.LATENT,
        predicted=True,
    )


# -- validation ----------------------------------------------------------------
@dataclass
class ValidationReport:
    """Result of running one campaign with and without pruning.

    Attributes:
        faults: plan size.
        simulated: experiments actually simulated in the pruned run.
        predicted: experiments predicted from the liveness map.
        mismatches: ``(plan index, pruned outcome, unpruned outcome)``
            triples where the two runs disagree (must be empty).
        summaries_match: the rendered Tables 2/3 summaries are identical.
        pruned_wall_seconds: injection-phase wall time of the pruned
            (and, with ``batch_size > 1``, batched) leg.
        unpruned_wall_seconds: injection-phase wall time of the plain
            baseline leg.  Both legs run after a throwaway warm-up
            campaign, so neither pays the pool-spawn/predecode
            cold-start tax the other skipped.
    """

    faults: int
    simulated: int
    predicted: int
    mismatches: List[Tuple[int, Outcome, Outcome]]
    summaries_match: bool
    pruned_wall_seconds: float
    unpruned_wall_seconds: float

    @property
    def reduction(self) -> float:
        """Fraction of the plan that was not simulated."""
        return self.predicted / self.faults if self.faults else 0.0

    @property
    def ok(self) -> bool:
        """True when pruning changed nothing observable."""
        return not self.mismatches and self.summaries_match

    def render(self) -> str:
        """Human-readable validation verdict."""
        lines = [
            f"pruning validation over {self.faults} faults:",
            f"  simulated            {self.simulated}",
            f"  predicted            {self.predicted}"
            f"  ({self.reduction:.1%} reduction)",
            f"  outcome mismatches   {len(self.mismatches)}",
            f"  summaries identical  {'yes' if self.summaries_match else 'NO'}",
            f"  wall seconds         {self.pruned_wall_seconds:.2f} pruned"
            f" vs {self.unpruned_wall_seconds:.2f} unpruned",
        ]
        for index, pruned, unpruned in self.mismatches[:10]:
            lines.append(
                f"  MISMATCH at plan index {index}: "
                f"pruned={pruned.category.value} "
                f"unpruned={unpruned.category.value}"
            )
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        lines.append("  verdict              " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


#: Fault count of the throwaway warm-up campaign (scaled up so every
#: pool worker gets at least a couple of chunks to chew on).
_WARMUP_FAULTS = 8


def _warm_up(config, workers: int, pool) -> None:
    """Run a small throwaway campaign before timing anything.

    The first campaign a process (or worker pool) runs pays one-time
    costs the later ones do not: spawning and initialising the pool
    workers, populating the process-wide predecode/dispatch tables,
    importing numpy into each worker.  When ``validate_pruning`` timed
    its first leg cold and its second leg warm, those costs were
    silently billed to whichever leg ran first.  This warm-up pays them
    on a tiny plan (same workload, iterations and watchdog) and its wall
    time is discarded.  With a pool, each timed leg re-forks its workers
    once, because the pruned leg's reference carries the liveness table
    and the plain legs' do not: the two legs pay the same small fork.
    """
    from repro.goofi.campaign import ScifiCampaign

    warm = replace(
        config,
        name=f"{config.name} (warm-up)",
        faults=max(_WARMUP_FAULTS, 2 * workers),
        prune=False,
        chaos=None,
    )
    if pool is not None:
        ScifiCampaign(warm).run(pool=pool)
    else:
        ScifiCampaign(warm).run(workers=workers)


def validate_pruning(config, workers: int = 1) -> ValidationReport:
    """Run one campaign twice — pruned and plain — and compare.

    The pruned leg runs with the configured batch size; the plain
    baseline leg runs unpruned and one experiment at a time
    (``prune=False, batch_size=1``), so ``batch_size > 1`` validates
    pruning and batching together.  The comparison is total:
    per-experiment :class:`Outcome` equality at every plan index plus
    byte-identical rendered summary tables.  Both runs share the seed
    and fault plan, so any difference is a misclassification in the
    pruned leg's shortcuts.  A throwaway warm-up campaign runs first so
    the reported wall-clock ratio compares two equally warm legs.
    """
    from repro.goofi.campaign import ScifiCampaign
    from repro.goofi.pool import ReferencePool

    candidate_config = replace(config, prune=True)
    baseline_config = replace(config, prune=False, batch_size=1)
    if workers > 1:
        # Both runs share one pool.  Their golden runs are
        # value-identical, but only the pruned leg's carries the
        # liveness table, so each leg re-forks the workers once.
        with ReferencePool(workers) as pool:
            _warm_up(candidate_config, workers, pool)
            candidate = ScifiCampaign(candidate_config).run(pool=pool)
            baseline = ScifiCampaign(baseline_config).run(pool=pool)
    else:
        _warm_up(candidate_config, workers, None)
        candidate = ScifiCampaign(candidate_config).run(workers=workers)
        baseline = ScifiCampaign(baseline_config).run(workers=workers)
    mismatches = [
        (index, p, u)
        for index, (p, u) in enumerate(zip(candidate.outcomes, baseline.outcomes))
        if p != u
    ]
    predicted = sum(1 for run in candidate.experiments if run.predicted)
    return ValidationReport(
        faults=len(candidate.experiments),
        simulated=len(candidate.experiments) - predicted,
        predicted=predicted,
        mismatches=mismatches,
        summaries_match=(
            render_outcome_table(candidate.summary())
            == render_outcome_table(baseline.summary())
        ),
        pruned_wall_seconds=candidate.wall_seconds,
        unpruned_wall_seconds=baseline.wall_seconds,
    )
