"""The metric surface, pinned to literal values.

Three small Algorithm I campaigns (60 faults, 60 iterations, seed 2001,
pruned): serial, on two workers, and aborted after 15 experiments then
resumed into the same event log.  The expectations below are the
``campaign --metrics`` registries and the ``obs export --events``
families these campaigns produced when each surface was still recorded
by its own path (target hooks, an EDM listener and merged per-chunk
registries for ``--metrics``; a separate event fold for the export).
Both now come from the one :class:`~repro.obs.CampaignStatusReducer`
fold, and must still produce these numbers, except for the differences
spelled out in :func:`_export_now`:

* ``edm_firings`` is gone: it always equalled ``detections``;
* the export labels ``pruned_experiments`` by prediction, and carries
  the families it used to drop although every one of them derives from
  fields ``experiment_finished`` records carry (``early_exits``,
  ``simulated_experiments``, both histograms) plus the reference gauges
  of the ``reference_run`` record.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.goofi import CampaignConfig, CampaignDatabase, ScifiCampaign
from repro.obs import Telemetry

DETECTIONS = {
    "detections{mechanism=ACCESS CHECK}": 1,
    "detections{mechanism=ADDRESS ERROR}": 17,
    "detections{mechanism=BUS ERROR}": 2,
    "detections{mechanism=STORAGE ERROR}": 1,
}
EXPERIMENTS = {
    "experiments{category=detected,partition=cache}": 19,
    "experiments{category=detected,partition=registers}": 2,
    "experiments{category=latent,partition=cache}": 2,
    "experiments{category=minor-insignificant,partition=cache}": 1,
    "experiments{category=minor-transient,partition=registers}": 1,
    "experiments{category=overwritten,partition=cache}": 30,
    "experiments{category=overwritten,partition=registers}": 5,
}
LATENCY_BUCKETS = [
    10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0,
    10000.0, 30000.0, 100000.0, 300000.0,
]
INSTRUCTION_BUCKETS = [1000.0, 3000.0, 10000.0, 30000.0, 100000.0, 300000.0, 1000000.0]
REFERENCE_GAUGES = {"reference_instructions": 7204.0, "reference_payload_bytes": 14009.0}

#: ``campaign --metrics`` of the serial and the two-worker campaign.
FULL_RUN = {
    "counters": {
        **DETECTIONS,
        **EXPERIMENTS,
        "early_exits": 16,
        "pruned_experiments{prediction=latent}": 1,
        "pruned_experiments{prediction=overwritten}": 20,
        "simulated_experiments": 39,
    },
    "gauges": REFERENCE_GAUGES,
    "histograms": {
        "detection_latency_instructions": {
            "buckets": LATENCY_BUCKETS,
            "counts": [4, 8, 9, 0, 0, 0, 0, 0, 0, 0, 0],
            "count": 21,
            "total": 717.0,
            "min": 0.0,
            "max": 96.0,
        },
        "instructions_per_experiment": {
            "buckets": INSTRUCTION_BUCKETS,
            "counts": [4, 7, 28, 0, 0, 0, 0, 0],
            "count": 39,
            "total": 167809.0,
            "min": 388.0,
            "max": 7218.0,
        },
    },
}

#: ``campaign --metrics`` of the resumed run (the 45 experiments left
#: after the abort).
RESUMED_RUN = {
    "counters": {
        "detections{mechanism=ACCESS CHECK}": 1,
        "detections{mechanism=ADDRESS ERROR}": 12,
        "detections{mechanism=BUS ERROR}": 1,
        "detections{mechanism=STORAGE ERROR}": 1,
        "early_exits": 11,
        "experiments{category=detected,partition=cache}": 14,
        "experiments{category=detected,partition=registers}": 1,
        "experiments{category=latent,partition=cache}": 2,
        "experiments{category=minor-insignificant,partition=cache}": 1,
        "experiments{category=minor-transient,partition=registers}": 1,
        "experiments{category=overwritten,partition=cache}": 22,
        "experiments{category=overwritten,partition=registers}": 4,
        "pruned_experiments{prediction=latent}": 1,
        "pruned_experiments{prediction=overwritten}": 16,
        "resumed_experiments": 15,
        "simulated_experiments": 28,
    },
    "gauges": REFERENCE_GAUGES,
    "histograms": {
        "detection_latency_instructions": {
            "buckets": LATENCY_BUCKETS,
            "counts": [2, 8, 5, 0, 0, 0, 0, 0, 0, 0, 0],
            "count": 15,
            "total": 501.0,
            "min": 1.0,
            "max": 96.0,
        },
        "instructions_per_experiment": {
            "buckets": INSTRUCTION_BUCKETS,
            "counts": [3, 5, 20, 0, 0, 0, 0, 0],
            "count": 28,
            "total": 122481.0,
            "min": 429.0,
            "max": 7218.0,
        },
    },
}

#: The deterministic ``obs export --events`` families (everything but
#: the ``campaign_*`` progress gauges) as the separate event fold
#: reported them, per log.
OLD_EXPORT = {
    "serial": {**DETECTIONS, **EXPERIMENTS, "pruned_experiments": 21},
    "w2": {**DETECTIONS, **EXPERIMENTS, "pruned_experiments": 21},
    "resume": {
        **DETECTIONS,
        **EXPERIMENTS,
        "pruned_experiments": 21,
        "resumed_experiments": 15,
    },
}


def _export_now(log: str) -> dict:
    """The export of ``log`` today: the old families, with the listed
    differences applied."""
    counters = dict(OLD_EXPORT[log])
    # Labelled by prediction, like the --metrics counter.
    assert counters.pop("pruned_experiments") == 21
    counters["pruned_experiments{prediction=latent}"] = 1
    counters["pruned_experiments{prediction=overwritten}"] = 20
    # Families the export used to drop: the whole log holds the same 60
    # experiments as an uninterrupted run, so they equal FULL_RUN's.
    counters["early_exits"] = 16
    counters["simulated_experiments"] = 39
    return {
        "counters": counters,
        "gauges": REFERENCE_GAUGES,
        "histograms": FULL_RUN["histograms"],
    }


def _config(workload):
    return CampaignConfig(
        workload=workload,
        name="Algorithm I",
        faults=60,
        seed=2001,
        iterations=60,
        prune=True,
    )


def _export(path):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["obs", "export", "--events", path, "--format", "json"]) == 0
    metrics = json.loads(buffer.getvalue())["metrics"]
    metrics["gauges"] = {
        key: value
        for key, value in metrics["gauges"].items()
        if not key.startswith("campaign_")
    }
    return metrics


@pytest.fixture(scope="module")
def surfaces(algorithm_i_compiled, tmp_path_factory):
    """Run the three campaigns once; ``(metrics, export)`` per log."""
    tmp = tmp_path_factory.mktemp("surface")
    found = {}

    def run(log, workers=1, database=None, resume=None, abort_after=None):
        path = str(tmp / f"{log}.jsonl")

        def progress(done, _total, _outcome):
            if abort_after is not None and done >= abort_after:
                raise KeyboardInterrupt

        with Telemetry(path, tracer=False, append=resume is not None) as telemetry:
            ScifiCampaign(_config(algorithm_i_compiled), database=database).run(
                progress=progress,
                workers=workers,
                telemetry=telemetry,
                resume_from=resume,
            )
        found[log] = (telemetry.metrics.to_dict(), _export(path))

    run("serial")
    run("w2", workers=2)
    with CampaignDatabase(str(tmp / "resume.db")) as database:
        with pytest.raises(Exception, match="interrupted"):
            run("resume", database=database, abort_after=15)
        run("resume", database=database, resume=1)
    return found


class TestPinnedMetricSurface:
    def test_serial_campaign_metrics(self, surfaces):
        assert surfaces["serial"][0] == FULL_RUN

    def test_two_worker_campaign_metrics(self, surfaces):
        assert surfaces["w2"][0] == FULL_RUN

    def test_resumed_campaign_metrics(self, surfaces):
        assert surfaces["resume"][0] == RESUMED_RUN

    @pytest.mark.parametrize("log", ["serial", "w2", "resume"])
    def test_export_families(self, surfaces, log):
        assert surfaces[log][1] == _export_now(log)

    def test_export_equals_metrics_of_an_uninterrupted_run(self, surfaces):
        """One fold: the export of a log carries every deterministic
        family ``--metrics`` reports for the same experiments."""
        assert surfaces["serial"][1] == surfaces["serial"][0]
        resumed = dict(surfaces["resume"][1])
        resumed["counters"] = dict(resumed["counters"])
        assert resumed["counters"].pop("resumed_experiments") == 15
        assert resumed == FULL_RUN
