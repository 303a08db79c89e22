"""Run one campaign of a benchmark workload and report its measurements.

``bench_campaign.py`` starts this script in a fresh interpreter for
every campaign, so each measurement pays the cold start a ``repro
campaign`` user pays::

    python benchmarks/campaign/one_campaign.py SPEC.json

``SPEC.json`` names the workload configuration, the seed, whether to
trace, and where to write the result (a JSON object).  Imports and the
workload's compilation happen before the timer starts; the timed region
is the public entry point only — ``ScifiCampaign(config).run`` or
``CampaignService.submit_campaign`` + ``run_once``.  Everything after
it (outcome digest, a brute-force re-simulation of a few plan entries,
trace analysis) is untimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import resource
import sys
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))


def outcome_digest(rows: List[Tuple[int, str, Optional[str]]]) -> str:
    """sha256 over ``plan index, category, mechanism`` lines in plan order."""
    digest = hashlib.sha256()
    for index, category, mechanism in sorted(rows):
        digest.update(f"{index}\t{category}\t{mechanism or '-'}\n".encode())
    return digest.hexdigest()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _classify(run, reference_outputs):
    from repro.analysis.classify import classify_experiment

    return classify_experiment(
        observed=run.outputs,
        reference=reference_outputs,
        detected_by=run.detection.mechanism.value if run.detection else None,
        final_state_differs=run.final_state_differs,
    )


def brute_force_check(config, faults: Dict[int, object], outcomes: Dict[int, tuple],
                      count: int, seed: int) -> Dict[str, object]:
    """Re-simulate ``count`` plan entries one at a time without early
    exit on a fresh target and compare their outcomes with the
    campaign's — an independent check of every shortcut the campaign
    took (early exit, pruning, batching, workers, persistence)."""
    from repro.goofi.target import TargetSystem

    target = TargetSystem(
        workload=config.workload,
        environment=config.environment_factory(),
        iterations=config.iterations,
        watchdog_factor=config.watchdog_factor,
    )
    reference = target.run_reference()
    picks = sorted(random.Random(seed).sample(sorted(faults), min(count, len(faults))))
    mismatches = []
    for index in picks:
        run = target.run_experiment(faults[index], early_exit=False)
        outcome = _classify(run, reference.outputs)
        expected = (outcome.category.value, outcome.mechanism)
        if tuple(outcomes[index]) != expected:
            mismatches.append(
                {"index": index, "campaign": list(outcomes[index]), "brute_force": list(expected)}
            )
    return {"checked": picks, "mismatches": mismatches}


def reference_costs(config) -> Dict[str, Tuple[float, str]]:
    """What the reference run costs a campaign beyond its own time, on a
    fresh target and unwrapped, so every workload reports it alike:
    recording the access trace that pruning needs (a recording reference
    minus a plain one) and the pickled size of the reference that a
    parallel run ships to each worker."""
    from repro.goofi.target import TargetSystem

    seconds = {}
    for record_access in (True, False):
        target = TargetSystem(workload=config.workload, iterations=config.iterations)
        began = time.perf_counter()
        reference = target.run_reference(record_access=record_access)
        seconds[record_access] = time.perf_counter() - began
    return {
        "liveness.record_s": (seconds[True] - seconds[False], "s"),
        "dataplane.payload_bytes": (len(pickle.dumps(reference)), "B"),
    }


def _phases_from_tracer(tracer) -> Dict[str, float]:
    phases: Dict[str, float] = {}
    for span in tracer.spans:
        if span.depth == 1 and span.seconds is not None:
            phases[span.name] = phases.get(span.name, 0.0) + span.seconds
    return phases


def _read_events(path: str) -> List[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records


def run(spec: Dict[str, object]) -> Dict[str, object]:
    import repro.service
    from repro.analysis import render_outcome_table
    from repro.faults.models import FaultDescriptor, FaultTarget
    from repro.goofi import CampaignConfig, ScifiCampaign
    from repro.goofi.database import CampaignDatabase
    from repro.obs import Telemetry
    from repro.workloads import compile_algorithm_i, compile_algorithm_ii

    import layers

    workload = compile_algorithm_i() if spec["algorithm"] == "I" else compile_algorithm_ii()
    config = CampaignConfig(
        workload=workload,
        name=spec["name"],
        faults=spec["faults"],
        seed=spec["seed"],
        prune=spec["prune"],
        batch_size=spec["batch_size"],
    )
    workers = int(spec["workers"])
    traced = bool(spec["traced"])
    workdir = spec["workdir"]
    os.makedirs(workdir, exist_ok=True)
    spill_dir = os.path.join(workdir, "spans")
    os.makedirs(spill_dir, exist_ok=True)

    def drain_worker() -> None:
        from repro.goofi.pool import worker_target

        worker_target().take_dataplane_stats()

    recorder = layers.SpanRecorder(spill_dir=spill_dir, before_spill=drain_worker)
    telemetry = Telemetry(metrics=False, tracer=True) if traced and not spec["service"] else None
    root = os.path.join(workdir, "service")

    with ExitStack() as stack:
        if traced:
            stack.enter_context(layers.instrument(recorder))
            if spec["service"]:
                # The service builds its own Telemetry with the tracer
                # off; turn it on so the phase spans reach events.jsonl.
                def traced_telemetry(*args, **kwargs):
                    kwargs["tracer"] = True
                    return Telemetry(*args, **kwargs)

                stack.enter_context(layers.replaced(repro.service, "Telemetry", traced_telemetry))
            stack.enter_context(recorder.span("campaign_call"))
        cpu0 = _cpu_seconds()
        started = time.perf_counter()
        if spec["service"]:
            with repro.service.CampaignService(root) as service:
                job = service.submit_campaign(config, workers=workers)
                status = service.run_once("bench")
        else:
            campaign = ScifiCampaign(config)
            result = campaign.run(workers=workers, telemetry=telemetry)
        campaign_s = time.perf_counter() - started
        cpu_s = _cpu_seconds() - cpu0
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    peak_rss_mb = (own_kb + workers * worker_kb) / 1024.0

    faults: Dict[int, object] = {}
    outcomes: Dict[int, tuple] = {}
    quarantined = 0
    if spec["service"]:
        cdir = os.path.join(root, f"campaign-{job:06d}")
        events = _read_events(os.path.join(cdir, "events.jsonl"))
        finished = [e for e in events if e.get("event") == "campaign_finished"]
        injection_s = float(finished[-1]["wall_seconds"]) if finished else campaign_s
        phases = {}
        for record in events:
            if record.get("event") == "span" and record.get("depth") == 1:
                phases[record["name"]] = phases.get(record["name"], 0.0) + record["seconds"]
        database = CampaignDatabase(os.path.join(cdir, "results.db"))
        try:
            (db_id, _name, _faults), = database.list_campaigns()
            for index, row in database.completed_experiments(db_id).items():
                faults[index] = FaultDescriptor(FaultTarget(row.partition, row.element, row.bit), row.time)
                outcomes[index] = (row.outcome.category.value, row.outcome.mechanism)
                quarantined += row.provenance == "quarantined"
        finally:
            database.close()
        done = status == "done"
        table = ""
        if done:
            with open(os.path.join(cdir, "summary.txt"), "r", encoding="utf-8") as handle:
                table = handle.read()
    else:
        injection_s = result.wall_seconds
        phases = _phases_from_tracer(telemetry.tracer) if telemetry is not None else {}
        for index, (experiment, outcome) in enumerate(zip(result.experiments, result.outcomes)):
            faults[index] = experiment.fault
            outcomes[index] = (outcome.category.value, outcome.mechanism)
            quarantined += experiment.quarantined
        summary = result.summary()
        table = (
            render_outcome_table(summary)
            + f"\nsevere share of value failures: {summary.severe_share_of_value_failures().format()}\n"
        )
        done = True

    missing = config.faults - len(outcomes)
    failed = config.faults if not done else quarantined + missing
    report: Dict[str, object] = {
        "workload": spec["workload"],
        "seed": config.seed,
        "faults": config.faults,
        "workers": workers,
        "traced": traced,
        "campaign_s": campaign_s,
        "injection_s": injection_s,
        "setup_s": campaign_s - injection_s,
        "experiments_per_s": config.faults / injection_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "failed_share": failed / config.faults,
        "digest": outcome_digest([(i, c, m) for i, (c, m) in outcomes.items()]),
        "table": table,
    }

    if traced:
        trace = recorder.collect()
        metrics = layers.layer_metrics(trace, phases=phases, faults=config.faults, workers=workers)
        metrics.update(reference_costs(config))
        tree = trace.cost_tree()
        report["layers"] = {name: [value, unit] for name, (value, unit) in metrics.items()}
        report["cost_tree"] = tree
        if spec.get("trace_path"):
            with open(spec["trace_path"], "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": spec["workload"],
                        "seed": config.seed,
                        "faults": config.faults,
                        "campaign_s": campaign_s,
                        "phases": phases,
                        "notes": list(layers.TRACE_NOTES),
                        "cost_tree": tree,
                        "trace": trace.to_dict(),
                    },
                    handle,
                )

    if spec["check"]:
        began = time.perf_counter()
        report["check"] = brute_force_check(config, faults, outcomes, int(spec["check"]), config.seed)
        report["check_s"] = time.perf_counter() - began
    return report


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    report = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
