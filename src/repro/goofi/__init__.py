"""GOOFI — the fault-injection tool (generic, object-oriented, §3).

The tool runs campaigns in the paper's four phases:

1. **configuration** — choose the fault-injection technique and target:
   :class:`ScifiCampaign` (injection into the simulated CPU — scan-chain
   state by default, stored RAM words with ``partitions=["memory"]``, or
   the pre-runtime program image with ``partitions=["code-image",
   "data-image"]``) or :func:`repro.goofi.swifi.run_model_campaign`
   (model-level software injection into Python controllers);
2. **set-up** — choose fault locations, fault model, injection times and
   the number of faults (uniform sampling, seeded);
3. **fault injection** — reference execution first, then one experiment
   per fault: restore the pre-fault checkpoint, replay to the injection
   instruction, apply the fault (a scan-chain flip, a RAM bit flip or an
   image-word mutation), and run to the termination condition
   (detection, 650 iterations, or watchdog);
4. **analysis** — §4.1 classification and Tables 2–4 style summaries,
   optionally persisted to a SQLite database.
"""

from repro.goofi.campaign import CampaignConfig, CampaignResult, ScifiCampaign
from repro.goofi.database import CampaignDatabase
from repro.goofi.detail import PropagationReport, trace_propagation
from repro.goofi.environment import EngineEnvironment
from repro.goofi.lockstep import LockstepTarget
from repro.goofi.memfault import memory_fault, sample_memory_faults
from repro.goofi.prerun import image_fault, sample_image_faults
from repro.goofi.pruning import (
    PrunedPlan,
    ValidationReport,
    preclassify_pairs,
    preclassify_plan,
    synthesize_run,
    validate_pruning,
)
from repro.goofi.recovery import (
    ChaosSpec,
    RecoveryPolicy,
    ResultSink,
    backoff_seconds,
    config_fingerprint,
    workload_digest,
)
from repro.goofi.swifi import (
    ModelFault,
    ModelExperiment,
    run_model_campaign,
    sample_model_faults,
)
from repro.goofi.target import ExperimentRun, ReferenceRun, TargetSystem
from repro.goofi.workqueue import ExpiredLease, LeasedJob, NackOutcome, WorkQueue

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ScifiCampaign",
    "CampaignDatabase",
    "EngineEnvironment",
    "PropagationReport",
    "trace_propagation",
    "LockstepTarget",
    "memory_fault",
    "sample_memory_faults",
    "image_fault",
    "sample_image_faults",
    "PrunedPlan",
    "ValidationReport",
    "preclassify_pairs",
    "preclassify_plan",
    "synthesize_run",
    "validate_pruning",
    "ChaosSpec",
    "RecoveryPolicy",
    "ResultSink",
    "backoff_seconds",
    "config_fingerprint",
    "workload_digest",
    "TargetSystem",
    "ReferenceRun",
    "ExperimentRun",
    "ModelFault",
    "ModelExperiment",
    "run_model_campaign",
    "sample_model_faults",
    "WorkQueue",
    "LeasedJob",
    "NackOutcome",
    "ExpiredLease",
]
