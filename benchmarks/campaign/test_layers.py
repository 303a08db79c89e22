"""Tests of the campaign benchmark's tracing helper (``layers.py``) and
its correctness gate.

Small campaigns only — these run in seconds::

    PYTHONPATH=src python -m pytest benchmarks/campaign
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import bench_campaign  # noqa: E402
import layers  # noqa: E402
import one_campaign  # noqa: E402
from layers import Span, SpanRecorder, Trace  # noqa: E402


def _spec(tmp_path, name, traced, workload="alg1_serial", faults=50, check=0):
    return bench_campaign.campaign_spec(
        bench_campaign.BY_NAME[workload], 2001, faults, traced,
        str(tmp_path / name), check=check,
    )


def _originals():
    originals = []
    for wrap in layers.LAYER_CALLABLES:
        owner, name = layers._resolve(wrap)
        originals.append((owner, name, vars(owner)[name]))
    return originals


def test_traced_run_matches_untraced_digest(tmp_path):
    plain = one_campaign.run(_spec(tmp_path, "plain", traced=False))
    traced = one_campaign.run(_spec(tmp_path, "traced", traced=True, check=3))
    assert traced["digest"] == plain["digest"]
    assert traced["failed"] == plain["failed"] == 0
    assert traced["check"]["mismatches"] == []
    assert traced["layers"]["target.experiments"][0] == 50
    assert traced["layers"]["classify.calls"][0] == 50


def test_service_run_reads_outcomes_from_the_database(tmp_path):
    direct = one_campaign.run(
        _spec(tmp_path, "direct", traced=False, workload="alg2_service", faults=20)
        | {"service": False}
    )
    service = one_campaign.run(_spec(tmp_path, "service", traced=True, workload="alg2_service", faults=20))
    assert service["digest"] == direct["digest"]
    assert service["layers"]["persist.rows"][0] == 20
    assert service["layers"]["workqueue.leases"][0] == 1
    assert "campaign.injection_s" in service["layers"]


@pytest.mark.parametrize("workload", sorted(bench_campaign.BY_NAME))
def test_every_listed_per_layer_metric_is_measured(tmp_path, workload):
    with open(bench_campaign.BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        listed = {entry["name"] for entry in json.load(handle)["per_layer"]}
    report = one_campaign.run(_spec(tmp_path, workload, traced=True, workload=workload, faults=40))
    values = bench_campaign.with_overhead([report], [report["campaign_s"]])
    assert listed <= set(values)
    # A listed time that reads 0 would mean its layer was never entered.
    assert all(values[name][0] > 0 for name in listed if values[name][1] in ("s", "us"))


def test_every_wrapped_attribute_is_restored(tmp_path):
    originals = _originals()
    with layers.instrument(SpanRecorder()):
        for owner, name, original in originals:
            assert vars(owner)[name] is not original
    for owner, name, original in originals:
        assert vars(owner)[name] is original


def test_attributes_are_restored_after_an_exception():
    originals = _originals()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with layers.instrument(recorder):
            raise RuntimeError("boom")
    for owner, name, original in originals:
        assert vars(owner)[name] is original
    assert not recorder.installed


def test_replaced_restores_after_an_exception():
    import repro.service

    original = repro.service.Telemetry
    with pytest.raises(RuntimeError):
        with layers.replaced(repro.service, "Telemetry", object()):
            raise RuntimeError("boom")
    assert repro.service.Telemetry is original


def test_span_closed_by_an_exception_leaves_the_stack_clean():
    from repro.goofi.workqueue import WorkQueue

    recorder = SpanRecorder()
    with layers.instrument(recorder):
        with pytest.raises(AttributeError):
            WorkQueue.ack(None, 1)
    assert recorder.stack == []
    (span,) = recorder.spans
    assert span.name == "WorkQueue.ack" and span.end >= span.start


def test_self_time_arithmetic_on_a_synthetic_tree():
    pid = 1
    spans = [
        Span(0, "root", 0.0, 10.0, pid=pid),
        Span(1, "a", 1.0, 4.0, parent=0, pid=pid, leaves={"CPU.run": [2, 1.5, 100]}),
        Span(2, "b", 5.0, 9.0, parent=0, pid=pid),
        Span(3, "c", 6.0, 7.0, parent=2, pid=pid),
    ]
    trace = Trace(spans, {pid: {"classify_experiment": [4, 0.25, 0]}}, root_pid=pid)
    assert trace.self_seconds(spans[0]) == pytest.approx(3.0)
    assert trace.self_seconds(spans[1]) == pytest.approx(1.5)
    assert trace.self_seconds(spans[2]) == pytest.approx(3.0)
    assert trace.self_seconds(spans[3]) == pytest.approx(1.0)
    tree = {tuple(node["path"]): node for node in trace.cost_tree()}
    assert tree[("root",)]["seconds"] == pytest.approx(10.0)
    assert tree[("root", "a", "CPU.run")]["calls"] == 2
    assert tree[("root", "b", "c")]["self_seconds"] == pytest.approx(1.0)
    assert tree[("classify_experiment",)]["calls"] == 4
    assert trace.leaf_totals("CPU.run") == [2, 1.5, 100]


def test_prefix_replay_is_derived_between_seat_and_flip():
    pid = 1
    spans = [
        Span(0, "TargetSystem.run_experiment", 0.0, 10.0, pid=pid, experiment=0),
        Span(1, "MachineCursor.begin", 1.0, 2.0, parent=0, pid=pid, experiment=0, n1=500),
        Span(2, "ScanChain.flip", 5.0, 5.5, parent=0, pid=pid, experiment=0, n0=530),
    ]
    trace = Trace(spans, {pid: {}}, root_pid=pid)
    (prefix,) = trace.named(layers.PREFIX_REPLAY)
    assert (prefix.start, prefix.end, prefix.n1 - prefix.n0) == (2.0, 5.0, 30)
    assert trace.self_seconds(spans[0]) == pytest.approx(10.0 - 1.0 - 3.0 - 0.5)


def test_worker_spans_are_merged(tmp_path):
    from repro.goofi import CampaignConfig, ScifiCampaign
    from repro.workloads import compile_algorithm_i

    spill = tmp_path / "spans"
    spill.mkdir()
    recorder = SpanRecorder(spill_dir=str(spill))
    config = CampaignConfig(workload=compile_algorithm_i(), faults=40, seed=7, batch_size=4)
    with layers.instrument(recorder):
        ScifiCampaign(config).run(workers=2)
    trace = recorder.collect()
    assert trace.worker_pids and os.getpid() not in trace.worker_pids
    assert list(spill.iterdir()) == []
    worker_batches = [
        s for s in trace.named("TargetSystem.run_experiment_batch") if s.pid in trace.worker_pids
    ]
    assert sum(s.extra[0] for s in worker_batches) == 40
    metrics = layers.layer_metrics(trace, phases={"injection": 1.0}, faults=40, workers=2)
    assert metrics["target.experiments"][0] == 40
    assert metrics["pool.worker_busy_s"][0] > 0
    assert metrics["workqueue.leases"][0] >= 1


class _FakeRunner:
    """Records the campaigns ``measure`` asks for; each takes 0.3 s."""

    def __init__(self):
        self.calls = []

    def run(self, workload, seed, faults, traced, check=0, trace_path=None, deadline=None):
        self.calls.append((seed, faults, traced))
        time.sleep(0.3)
        return {"campaign_s": 0.3, "digest": "d", "seed": seed, "faults": faults}


def test_every_campaign_of_a_run_uses_one_plan():
    workload = bench_campaign.BY_NAME["alg1_serial"]
    runner = _FakeRunner()
    untraced, traced = bench_campaign.measure(runner, workload, 5, 30, True, runs=3, seconds=None)
    assert (len(untraced), len(traced)) == (3, 3)
    assert runner.calls == [(5, 30, False), (5, 30, True)] * 3

    runner = _FakeRunner()
    untraced, traced = bench_campaign.measure(runner, workload, 6, 30, False, runs=1, seconds=1.05)
    # 0.3 s each: a fourth would end past the time box.
    assert runner.calls == [(6, 30, False)] * 3 and traced == []


def _report(seed, digest, failed=0, faults=100):
    return {"seed": seed, "faults": faults, "digest": digest, "failed": failed}


def test_correctness_gate_flags_every_kind_of_mismatch():
    clean = {
        "alg1_serial": [_report(1, "a"), _report(1, "a")],
        "alg1_fullstack_w2": [_report(1, "a")],
    }
    assert bench_campaign.check_reports(clean) == []
    broken = {
        "alg1_serial": [_report(1, "a"), _report(1, "b"), _report(2, "c", failed=1)],
        "alg1_fullstack_w2": [_report(2, "d")],
    }
    problems = bench_campaign.check_reports(broken)
    assert any("differ between runs of seed 1" in p for p in problems)
    assert any("1 failed experiments" in p for p in problems)
    assert any("digests differ at seed 2" in p for p in problems)


@pytest.mark.parametrize(
    "b, verdict",
    [
        ([10.0, 10.1, 10.2], "ok"),
        ([13.0, 13.1, 13.2], "REGRESSION"),
        ([7.0, 7.1, 7.2], "better"),
        ([6.0, 10.0, 14.0], "unresolved"),
    ],
)
def test_compare_verdicts(b, verdict):
    a = [10.0, 10.1, 10.2]
    qa, qb = bench_campaign.quartiles(a), bench_campaign.quartiles(b)
    assert bench_campaign._verdict("campaign_s", "lower", 0.2, a, b, qa, qb)[0] == verdict


def test_compare_lets_a_small_setup_change_pass():
    a, b = [0.20, 0.20, 0.21], [0.24, 0.24, 0.25]
    qa, qb = bench_campaign.quartiles(a), bench_campaign.quartiles(b)
    assert bench_campaign._verdict("setup_s", "lower", 0.1, a, b, qa, qb)[0] == "ok"
    assert bench_campaign._verdict("campaign_s", "lower", 0.1, a, b, qa, qb)[0] == "REGRESSION"
