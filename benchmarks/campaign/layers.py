"""Span recording around the public callables of each campaign layer.

The traced pass of ``bench_campaign.py`` wraps the callables listed in
:data:`LAYER_CALLABLES` for the duration of one campaign and restores
them afterwards (:func:`instrument`).  Nothing under ``src/`` knows about
it: every span is recorded from outside, at a layer boundary.

Two kinds of wrapper exist:

* a *span* records one :class:`Span` per call — name, start, end,
  parent, pid, the experiment it belongs to, a counter probed at entry
  and exit (``n0``/``n1``) and an optional summary of the return value;
* a *leaf* is called so often (per control iteration) that keeping one
  record per call would cost hundreds of megabytes on a paper-sized
  campaign, so its calls are folded into the innermost open span as
  ``[calls, seconds, probe delta]`` per leaf name.  A leaf calls no
  other span wrapper; a leaf nested in a leaf is folded into the outer.

Worker processes inherit the wrappers over fork.  The recorder resets
itself in each forked worker and writes the worker's spans to
``spans-<pid>.json`` in its spill directory when the worker exits;
:meth:`SpanRecorder.collect` merges those files with the parent's own.

Self time is a span's duration minus its children's and its leaves'.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

SPAN = "span"
LEAF = "leaf"

#: Spans whose id becomes the ``experiment`` of every span inside them.
EXPERIMENT_SPANS = frozenset(
    {"TargetSystem.run_experiment", "TargetSystem.run_experiment_batch"}
)
PREFIX_REPLAY = "prefix_replay"

#: How the batch path and the derived spans show up in a trace.
TRACE_NOTES = (
    "prefix_replay is derived: the gap between the end of an experiment's "
    "seat (MachineCursor.begin) and its first ScanChain.flip; CPU.step is "
    "not wrapped.",
    "On the batch path (run_experiment_batch) lanes replay their prefix "
    "through BatchEngine.run, and the boundary hash is computed without "
    "the public TargetSystem.boundary_hash, so it falls into the self time "
    "of run_experiment_batch.",
    "CPU.run, BatchEngine.run, EngineEnvironment.exchange, "
    "TargetSystem.boundary_hash, classify_experiment, synthesize_run and "
    "EventLog.emit/flush are leaves: their calls are folded into the "
    "enclosing span as [calls, seconds, probe delta].",
)


class Wrap(NamedTuple):
    """One callable to wrap: ``module``'s ``attribute`` (``Class.method``
    or a module-level name)."""

    module: str
    attribute: str
    kind: str
    #: Counter read at entry and exit, e.g. the CPU's instruction index.
    probe: Optional[Callable[[tuple], int]] = None
    #: JSON-able summary of the return value, stored on the span.
    capture: Optional[Callable[[object], object]] = None


def _self_cpu(args: tuple) -> int:
    return args[0].instruction_index


def _lane_cpu(args: tuple) -> int:
    return args[1].instruction_index


def _owner_cpu(args: tuple) -> int:
    return args[0].cpu.instruction_index


def _early_exit(run) -> int:
    return int(run.early_exit_iteration is not None)


def _batch_summary(runs) -> List[int]:
    return [len(runs), sum(run.early_exit_iteration is not None for run in runs)]


#: Every layer boundary the traced pass records, by module.
LAYER_CALLABLES: Tuple[Wrap, ...] = (
    Wrap("repro.goofi.campaign", "ScifiCampaign.run", SPAN),
    Wrap("repro.service", "CampaignService.run_once", SPAN),
    Wrap("repro.goofi.target", "TargetSystem.run_reference", SPAN,
         capture=lambda reference: reference.total_instructions),
    Wrap("repro.goofi.target", "TargetSystem.run_experiment", SPAN,
         capture=_early_exit),
    Wrap("repro.goofi.target", "TargetSystem.run_experiment_batch", SPAN,
         capture=_batch_summary),
    Wrap("repro.goofi.target", "TargetSystem.boundary_hash", LEAF),
    Wrap("repro.goofi.target", "TargetSystem.take_dataplane_stats", SPAN,
         capture=lambda stats: stats),
    Wrap("repro.goofi.dataplane", "MachineCursor.begin", SPAN, probe=_owner_cpu),
    Wrap("repro.thor.scanchain", "ScanChain.flip", SPAN, probe=_owner_cpu),
    Wrap("repro.thor.cpu", "CPU.run", LEAF, probe=_self_cpu),
    Wrap("repro.thor.cpu", "BatchEngine.run", LEAF, probe=_lane_cpu),
    Wrap("repro.goofi.environment", "EngineEnvironment.exchange", LEAF),
    Wrap("repro.goofi.campaign", "preclassify_pairs", SPAN),
    Wrap("repro.goofi.campaign", "synthesize_run", LEAF),
    Wrap("repro.goofi.campaign", "classify_experiment", LEAF),
    Wrap("repro.goofi.pool", "ReferencePool.prepare", SPAN),
    Wrap("repro.goofi.workqueue", "WorkQueue.enqueue", SPAN),
    Wrap("repro.goofi.workqueue", "WorkQueue.lease", SPAN,
         capture=lambda job: int(job is not None)),
    Wrap("repro.goofi.workqueue", "WorkQueue.expire_due", SPAN,
         capture=len),
    Wrap("repro.goofi.workqueue", "WorkQueue.heartbeat", SPAN),
    Wrap("repro.goofi.workqueue", "WorkQueue.ack", SPAN),
    Wrap("repro.goofi.workqueue", "WorkQueue.nack", SPAN),
    Wrap("repro.goofi.recovery", "ResultSink.add", SPAN),
    Wrap("repro.goofi.recovery", "ResultSink.flush", SPAN,
         probe=lambda args: args[0].stored),
    Wrap("repro.obs.events", "EventLog.emit", LEAF),
    Wrap("repro.obs.events", "EventLog.flush", LEAF),
)


class Span:
    """One recorded call (or a span derived from recorded ones)."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "pid", "experiment",
        "n0", "n1", "extra", "leaves",
    )

    def __init__(self, id, name, start, end=None, parent=None, pid=0,
                 experiment=None, n0=0, n1=0, extra=None, leaves=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pid = pid
        self.experiment = experiment
        self.n0 = n0
        self.n1 = n1
        self.extra = extra
        #: leaf name -> [calls, seconds, probe delta]
        self.leaves: Dict[str, list] = leaves if leaves is not None else {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        return cls(**record)


class SpanRecorder:
    """Keeps the spans of one process in memory until :meth:`collect`.

    Args:
        spill_dir: where forked workers write their spans on exit
            (``None``: worker spans are dropped).
        before_spill: called in a worker right before it writes its
            spans, so a last wrapped call (e.g. draining counters) is
            recorded too.
    """

    def __init__(
        self,
        spill_dir: Optional[str] = None,
        before_spill: Optional[Callable[[], object]] = None,
    ):
        self.spill_dir = spill_dir
        self.before_spill = before_spill
        self.installed = False
        self._reset()
        mp_util.register_after_fork(self, SpanRecorder._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        #: Leaf calls made while no span was open.
        self.loose: Dict[str, list] = {}
        self.in_leaf = False

    # -- recording -------------------------------------------------------------
    def open(self, name: str, n0: int = 0) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(
            len(self.spans),
            name,
            0.0,
            parent=parent.id if parent is not None else None,
            pid=self.pid,
            experiment=parent.experiment if parent is not None else None,
            n0=n0,
        )
        if name in EXPERIMENT_SPANS:
            span.experiment = span.id
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, n1: int = 0, extra: object = None) -> None:
        span.end = time.perf_counter()
        span.n1 = n1
        span.extra = extra
        # Pop down to (and including) ``span``: an exception may have
        # skipped the close of a span opened inside it.
        while self.stack:
            if self.stack.pop() is span:
                break

    def leaf(self, name: str, seconds: float, delta: int) -> None:
        leaves = self.stack[-1].leaves if self.stack else self.loose
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [1, seconds, delta]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += delta

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span around the benchmark's own code (e.g. the whole call)."""
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    # -- worker processes ------------------------------------------------------
    def _after_fork(self) -> None:
        """Runs in every worker forked while the wrappers are installed."""
        if not self.installed:
            return
        self._reset()
        if self.spill_dir is not None:
            mp_util.Finalize(None, self.spill, exitpriority=10)

    def spill(self) -> None:
        """Write this worker's spans to the spill directory."""
        if self.before_spill is not None:
            try:
                self.before_spill()
            except Exception:  # the worker's own state may be gone
                pass
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": self.pid,
                    "spans": [span.to_dict() for span in self.spans],
                    "loose": self.loose,
                },
                handle,
            )
        os.replace(path + ".tmp", path)

    def collect(self) -> "Trace":
        """This process's spans plus every spilled worker file (consumed)."""
        spans = list(self.spans)
        loose = {self.pid: {name: list(entry) for name, entry in self.loose.items()}}
        if self.spill_dir is not None:
            for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.json"))):
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                os.remove(path)
                spans.extend(Span.from_dict(item) for item in record["spans"])
                loose[int(record["pid"])] = record["loose"]
        return Trace(spans=spans, loose=loose, root_pid=self.pid)


# -- wrapping ------------------------------------------------------------------
def _resolve(wrap: Wrap) -> Tuple[object, str]:
    owner: object = importlib.import_module(wrap.module)
    *path, name = wrap.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _span_wrapper(recorder: SpanRecorder, wrap: Wrap, fn: Callable) -> Callable:
    name, probe, capture = wrap.attribute, wrap.probe, wrap.capture

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, probe(args) if probe is not None else 0)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, probe(args) if probe is not None else 0)
            raise
        recorder.close(
            span,
            probe(args) if probe is not None else 0,
            capture(result) if capture is not None else None,
        )
        return result

    return wrapper


def _leaf_wrapper(recorder: SpanRecorder, wrap: Wrap, fn: Callable) -> Callable:
    name, probe = wrap.attribute, wrap.probe
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.in_leaf:
            return fn(*args, **kwargs)
        recorder.in_leaf = True
        n0 = probe(args) if probe is not None else 0
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = clock() - start
            recorder.in_leaf = False
            recorder.leaf(
                name, seconds, (probe(args) - n0) if probe is not None else 0
            )

    return wrapper


@contextmanager
def replaced(owner: object, name: str, value: object) -> Iterator[None]:
    """Set ``owner.name`` to ``value`` and restore the original on exit."""
    original = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def instrument(
    recorder: SpanRecorder, wraps: Tuple[Wrap, ...] = LAYER_CALLABLES
) -> Iterator[SpanRecorder]:
    """Wrap every callable in ``wraps`` for the duration of the block.

    Originals are restored on exit, in reverse order, also when the
    block raises.  Only attributes an owner defines itself are wrapped
    (``vars(owner)``), so restoring never shadows an inherited one.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for wrap in wraps:
            owner, name = _resolve(wrap)
            original = vars(owner)[name]
            make = _leaf_wrapper if wrap.kind == LEAF else _span_wrapper
            setattr(owner, name, make(recorder, wrap, original))
            saved.append((owner, name, original))
        recorder.installed = True
        yield recorder
    finally:
        recorder.installed = False
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# -- analysis ------------------------------------------------------------------
class Trace:
    """The merged spans of one campaign (parent process plus workers)."""

    def __init__(self, spans: List[Span], loose: Dict[int, Dict[str, list]], root_pid: int):
        self.spans = spans
        #: pid -> leaf calls made while no span was open in that process.
        self.loose = loose
        self.root_pid = root_pid
        self.worker_pids = sorted(pid for pid in loose if pid != root_pid)
        self._add_prefix_replay()
        self._by_key: Dict[Tuple[int, int], Span] = {(s.pid, s.id): s for s in spans}
        self._children: Dict[Tuple[int, int], List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self._children.setdefault((span.pid, span.parent), []).append(span)

    def parent(self, span: Span) -> Optional[Span]:
        if span.parent is None:
            return None
        return self._by_key.get((span.pid, span.parent))

    def has_ancestor(self, span: Span, names: frozenset) -> bool:
        """Whether a span above ``span`` is named in ``names``."""
        node = self.parent(span)
        while node is not None:
            if node.name in names:
                return True
            node = self.parent(node)
        return False

    def _add_prefix_replay(self) -> None:
        """Derive the fault-free prefix replay of each one-at-a-time
        experiment: the gap between the end of its seat and its first
        flip (``CPU.step`` is deliberately not wrapped).  Batch lanes
        replay through ``BatchEngine.run`` instead, which is recorded."""
        firsts: Dict[Tuple[int, int], Dict[str, Span]] = {}
        parents = {(s.pid, s.id): s for s in self.spans}
        for span in self.spans:
            if span.name not in ("MachineCursor.begin", "ScanChain.flip"):
                continue
            parent = parents.get((span.pid, span.parent))
            if parent is None or parent.name != "TargetSystem.run_experiment":
                continue
            firsts.setdefault((parent.pid, parent.id), {}).setdefault(span.name, span)
        next_id: Dict[int, int] = {}
        for span in self.spans:
            next_id[span.pid] = max(next_id.get(span.pid, 0), span.id + 1)
        for (pid, parent_id), found in firsts.items():
            seat = found.get("MachineCursor.begin")
            flip = found.get("ScanChain.flip")
            if seat is None or flip is None or flip.start < seat.end:
                continue
            self.spans.append(
                Span(
                    next_id[pid], PREFIX_REPLAY, seat.end, flip.start,
                    parent=parent_id, pid=pid, experiment=parent_id,
                    n0=seat.n1, n1=flip.n0,
                )
            )
            next_id[pid] += 1

    def children(self, span: Span) -> List[Span]:
        return self._children.get((span.pid, span.id), [])

    def self_seconds(self, span: Span) -> float:
        """Duration minus the children's durations and the leaves' time."""
        return (
            span.seconds
            - sum(child.seconds for child in self.children(span))
            - sum(entry[1] for entry in span.leaves.values())
        )

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def within(self, names: frozenset) -> List[Span]:
        """Spans that are, or sit below, a span named in ``names``."""
        return [
            span for span in self.spans
            if span.name in names or self.has_ancestor(span, names)
        ]

    def leaf_totals(self, name: str, spans: Optional[List[Span]] = None) -> List[float]:
        """``[calls, seconds, probe delta]`` of one leaf over ``spans``
        (default: every span plus the loose calls)."""
        total = [0, 0.0, 0]
        pools = [s.leaves for s in (self.spans if spans is None else spans)]
        if spans is None:
            pools.extend(self.loose.values())
        for leaves in pools:
            entry = leaves.get(name)
            if entry is not None:
                total[0] += entry[0]
                total[1] += entry[1]
                total[2] += entry[2]
        return total

    def cost_tree(self) -> List[Dict[str, object]]:
        """Spans and leaves aggregated by their path of names.

        Each node: ``path`` (names from the root), ``calls``, ``seconds``
        (inclusive) and ``self_seconds``; worker roots sit under a
        ``workers`` node.  Sorted depth-first, costliest child first.
        """
        paths: Dict[Tuple[int, int], Tuple[str, ...]] = {}

        def path_of(span: Span) -> Tuple[str, ...]:
            key = (span.pid, span.id)
            if key not in paths:
                parent = self.parent(span)
                if parent is not None:
                    prefix = path_of(parent)
                elif span.pid != self.root_pid:
                    prefix = ("workers",)
                else:
                    prefix = ()
                paths[key] = prefix + (span.name,)
            return paths[key]

        nodes: Dict[Tuple[str, ...], List[float]] = {}

        def add(path, calls, seconds, self_seconds):
            node = nodes.setdefault(path, [0, 0.0, 0.0])
            node[0] += calls
            node[1] += seconds
            node[2] += self_seconds

        for span in self.spans:
            path = path_of(span)
            add(path, 1, span.seconds, self.self_seconds(span))
            for name, (calls, seconds, _delta) in span.leaves.items():
                add(path + (name,), calls, seconds, seconds)
        for pid, leaves in self.loose.items():
            prefix = () if pid == self.root_pid else ("workers",)
            for name, (calls, seconds, _delta) in leaves.items():
                add(prefix + (name,), calls, seconds, seconds)
        workers = [p for p in nodes if len(p) == 2 and p[0] == "workers"]
        if workers:
            busy = sum(nodes[p][1] for p in workers)
            nodes[("workers",)] = [len(self.worker_pids), busy, 0.0]

        ordered: List[Dict[str, object]] = []

        def visit(prefix: Tuple[str, ...]) -> None:
            kids = [p for p in nodes if len(p) == len(prefix) + 1 and p[: len(prefix)] == prefix]
            for path in sorted(kids, key=lambda p: -nodes[p][1]):
                calls, seconds, self_seconds = nodes[path]
                ordered.append(
                    {"path": list(path), "calls": int(calls),
                     "seconds": seconds, "self_seconds": self_seconds}
                )
                visit(path)

        visit(())
        return ordered

    def to_dict(self) -> Dict[str, object]:
        return {
            "root_pid": self.root_pid,
            "worker_pids": self.worker_pids,
            "spans": [span.to_dict() for span in self.spans],
            "loose": {str(pid): leaves for pid, leaves in self.loose.items()},
        }


def render_cost_tree(tree: List[Dict[str, object]], wall: float) -> str:
    """Indented text form of :meth:`Trace.cost_tree`, shares of ``wall``."""
    lines = [f"{'layer':<58}{'calls':>9}{'total s':>11}{'self s':>10}{'share':>8}"]
    for node in tree:
        path = node["path"]
        label = "  " * (len(path) - 1) + str(path[-1])
        share = node["seconds"] / wall if wall > 0 else 0.0
        lines.append(
            f"{label:<58}{node['calls']:>9}{node['seconds']:>11.3f}"
            f"{node['self_seconds']:>10.3f}{share:>8.1%}"
        )
    return "\n".join(lines)


def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(
    trace: Trace,
    *,
    phases: Dict[str, float],
    faults: int,
    workers: int,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced campaign.

    ``phases`` are the campaign's own phase spans (``reference_run``,
    ``set_up``, ``pruning``, ``injection``, ``analysis``) in seconds.
    Counts are always reported, as 0 when the campaign bypassed their
    layer; a time is left out when its layer did no work (e.g. pruning
    on a campaign run without it), so a time reads 0 only where its layer
    ran without calling it (``workqueue.heartbeat_s`` on the pool path).
    """
    out: Dict[str, Tuple[float, str]] = {}
    for phase in ("reference_run", "set_up", "pruning", "injection", "analysis"):
        if phase in phases:
            out[f"campaign.{phase}_s"] = (phases[phase], "s")

    experiments = trace.within(EXPERIMENT_SPANS)
    references = trace.named("TargetSystem.run_reference")
    batches = trace.named("TargetSystem.run_experiment_batch")
    # One-at-a-time experiments; a batch that falls back to them is
    # already counted by its own span.
    lone = [
        s for s in trace.named("TargetSystem.run_experiment")
        if not trace.has_ancestor(s, frozenset({"TargetSystem.run_experiment_batch"}))
    ]

    # -- thor.cpu
    if references:
        calls, seconds, instructions = trace.leaf_totals("CPU.run", [references[0]])
        if seconds > 0:
            out["thor.reference_instr_per_s"] = (instructions / seconds, "1/s")
    run_calls = trace.leaf_totals("CPU.run", experiments)
    lane_calls = trace.leaf_totals("BatchEngine.run", experiments)
    if run_calls[1] + lane_calls[1] > 0:
        out["thor.suffix_instr_per_s"] = (
            (run_calls[2] + lane_calls[2]) / (run_calls[1] + lane_calls[1]), "1/s"
        )
    if lane_calls[0]:
        out["thor.batch_engine_s"] = (lane_calls[1], "s")

    # -- goofi.target
    lanes = [s.extra[0] if s.extra else 0 for s in batches]
    early = sum(s.extra for s in lone if s.extra) + sum(s.extra[1] for s in batches if s.extra)
    count = len(lone) + sum(lanes)
    out["target.experiments"] = (count, "count")
    out["target.early_exit_share"] = (early / count if count else 0.0, "ratio")
    # A batch lane's result is ready when its batch returns, so each
    # lane's latency is its batch's duration.
    latencies = [s.seconds * 1e6 for s in lone] + [
        s.seconds * 1e6 for s, n in zip(batches, lanes) for _ in range(n)
    ]
    if latencies:
        out["target.experiment_p50_us"] = (_quantile(latencies, 0.5), "us")
        out["target.experiment_p99_us"] = (_quantile(latencies, 0.99), "us")
    seats = trace.named("MachineCursor.begin")
    if seats:
        micros = [s.seconds * 1e6 for s in seats]
        out["target.seat_s"] = (sum(s.seconds for s in seats), "s")
        out["target.seat_p50_us"] = (_quantile(micros, 0.5), "us")
        out["target.seat_p99_us"] = (_quantile(micros, 0.99), "us")
    prefix = trace.named(PREFIX_REPLAY)
    out["target.prefix_replay_instr"] = (sum(s.n1 - s.n0 for s in prefix), "count")
    if prefix:
        out["target.prefix_replay_s"] = (sum(s.seconds for s in prefix), "s")
    suffix = trace.leaf_totals("CPU.run", lone)
    if suffix[0]:
        out["target.suffix_s"] = (suffix[1], "s")
        out["target.suffix_instr"] = (suffix[2], "count")
    flips = trace.named("ScanChain.flip")
    if flips:
        out["target.inject_s"] = (sum(s.seconds for s in flips), "s")
    hashes = trace.leaf_totals("TargetSystem.boundary_hash", experiments)
    out["target.hash_calls"] = (hashes[0], "count")
    if hashes[0]:
        out["target.hash_s"] = (hashes[1], "s")
    if lone or batches:
        out["target.experiment_self_s"] = (
            sum(trace.self_seconds(s) for s in lone + batches), "s"
        )

    # -- goofi.environment
    exchanges = trace.leaf_totals("EngineEnvironment.exchange")
    out["environment.exchanges"] = (exchanges[0], "count")
    if exchanges[0]:
        out["environment.exchange_s"] = (exchanges[1], "s")

    # -- goofi.dataplane
    stats = [s.extra for s in trace.named("TargetSystem.take_dataplane_stats") if s.extra]
    if stats:
        for key in ("restore_words_touched", "delta_replay_iterations", "full_restores"):
            out[f"dataplane.{key}"] = (sum(int(item.get(key, 0)) for item in stats), "count")

    # -- goofi.pruning
    synthesized = trace.leaf_totals("synthesize_run")
    out["pruning.predicted"] = (synthesized[0], "count")
    out["pruning.predicted_share"] = (synthesized[0] / faults, "ratio")
    preclassify = trace.named("preclassify_pairs")
    if preclassify:
        out["pruning.preclassify_s"] = (sum(s.seconds for s in preclassify), "s")
        out["pruning.synthesize_s"] = (synthesized[1], "s")

    # -- goofi.pool: the executors are the pool workers, or the campaign
    # process itself when it runs serially.
    busy = sum(s.seconds for s in lone + batches)
    if busy > 0:
        out["pool.worker_busy_s"] = (busy, "s")
        injection = phases.get("injection", 0.0)
        if injection > 0:
            out["pool.parallel_efficiency"] = (busy / (workers * injection), "ratio")
    prepares = trace.named("ReferencePool.prepare")
    if prepares:
        out["pool.prepare_s"] = (sum(s.seconds for s in prepares), "s")

    # -- goofi.workqueue
    leases = trace.named("WorkQueue.lease")
    out["workqueue.leases"] = (sum(int(s.extra or 0) for s in leases), "count")
    out["workqueue.nacks"] = (len(trace.named("WorkQueue.nack")), "count")
    out["workqueue.expiries"] = (
        sum(int(s.extra or 0) for s in trace.named("WorkQueue.expire_due")), "count"
    )
    if leases:
        for verb in ("enqueue", "lease", "ack", "heartbeat"):
            out[f"workqueue.{verb}_s"] = (
                sum(s.seconds for s in trace.named(f"WorkQueue.{verb}")), "s"
            )

    # -- goofi.recovery (ResultSink)
    flushes = trace.named("ResultSink.flush")
    rows = sum(s.n1 - s.n0 for s in flushes)
    out["persist.rows"] = (rows, "count")
    if rows:
        out["persist.add_s"] = (
            sum(trace.self_seconds(s) for s in trace.named("ResultSink.add")), "s"
        )
        out["persist.flush_s"] = (sum(s.seconds for s in flushes), "s")

    # -- obs.events
    emits = trace.leaf_totals("EventLog.emit")
    out["obs.events"] = (emits[0], "count")
    if emits[0]:
        out["obs.emit_s"] = (emits[1], "s")
        out["obs.flush_s"] = (trace.leaf_totals("EventLog.flush")[1], "s")

    # -- analysis.classify
    classify = trace.leaf_totals("classify_experiment")
    out["classify.calls"] = (classify[0], "count")
    if classify[0]:
        out["classify.s"] = (classify[1], "s")

    # -- service
    run_once = trace.named("CampaignService.run_once")
    if run_once:
        inner = sum(s.seconds for s in trace.named("ScifiCampaign.run"))
        out["service.overhead_s"] = (sum(s.seconds for s in run_once) - inner, "s")
    return out


def median_metrics(samples: List[Dict[str, Tuple[float, str]]]) -> Dict[str, Tuple[float, str]]:
    """Per-metric median over several campaigns' :func:`layer_metrics`."""
    names: Dict[str, str] = {}
    for sample in samples:
        for name, (_value, unit) in sample.items():
            names.setdefault(name, unit)
    return {
        name: (statistics.median(s[name][0] for s in samples if name in s), unit)
        for name, unit in names.items()
    }
