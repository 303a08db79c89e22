"""One campaign cost tree: end-to-end and per-layer campaign benchmark.

Times the paper's two fixed-size SCIFI campaigns — Algorithm I with
9290 faults, Algorithm II with 2372 — end to end through their public
entry points, and (with ``--trace``) layer by layer, by wrapping each
layer's public callables from outside (``layers.py``).  Every campaign
runs in a fresh interpreter (``one_campaign.py``), one at a time: a
closed loop with one client that submits a campaign and waits for its
classified result.  Outcomes are checked on every run; any mismatch
exits non-zero.  See ``README.md`` for the workloads, the metrics and
how to read a trace.

Usage, from the repository root::

    python benchmarks/campaign/bench_campaign.py [--workload NAME]...
        [--seed 2001] [--runs N | --seconds S] [--trace [0|1]] [--out FILE]
    python benchmarks/campaign/bench_campaign.py --compare A.json B.json

Each workload repeats the campaign of one plan — the ``--seed`` plan —
``--runs`` times, or for ``--seconds`` seconds (at least once).  With
``--trace`` every campaign is followed by a traced twin of the same
plan.  A time-boxed run uses paper-sized campaigns except where one
would not fit in it (``Workload.box_faults``).  With one workload the
last line of standard output is one JSON object with the metrics that
``BENCHMARK.json`` lists: the end-to-end ones, or the per-layer ones
when tracing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(REPO, "src")
RESULTS = os.path.join(HERE, "results")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
PINNED_JSON = os.path.join(HERE, "pinned.json")
PAPER_RUN = os.path.join(REPO, "benchmarks", "results", "paper_sized_run.txt")
ONE_CAMPAIGN = os.path.join(HERE, "one_campaign.py")

#: Plan entries re-simulated brute force (no early exit) per workload.
CHECKED_FAULTS = 8
#: Longest a paper-sized campaign may take.
PAPER_TIMEOUT_S = 1200.0
#: A time-boxed run gives up this long after it started, so it ends
#: well within the 180 s a run may take.
BOXED_DEADLINE_S = 150.0
#: ``--compare`` ignores a ``setup_s`` change smaller than this.
SETUP_FLOOR_S = 0.05


@dataclass(frozen=True)
class Workload:
    """One campaign configuration; the program sees only its config."""

    name: str
    algorithm: str
    #: Paper-sized fault count.
    faults: int
    workers: int
    prune: bool
    batch_size: int
    service: bool
    #: Fault count of a time-boxed campaign, where a paper-sized one
    #: would not fit in a run (README.md shows it keeps the cost tree).
    box_faults: Optional[int] = None

    @property
    def label(self) -> str:
        return f"Algorithm {self.algorithm} (paper-sized run)"


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("alg1_serial", "I", 9290, workers=1, prune=False, batch_size=1,
             service=False, box_faults=2000),
    Workload("alg1_fullstack_w2", "I", 9290, workers=2, prune=True, batch_size=8,
             service=False),
    Workload("alg2_service", "II", 2372, workers=1, prune=False, batch_size=1,
             service=True),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: (name, unit, better) of every end-to-end metric a campaign reports.
#: ``failed_share`` is 0 on a healthy run, so the JSON result line
#: carries it as ``failed``/``attempted`` instead of as a metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("campaign_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("experiments_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_share", "ratio", "lower"),
)


class BenchError(Exception):
    """The benchmark could not produce a trustworthy measurement."""


def load_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- running campaigns -----------------------------------------------------------
def campaign_spec(
    workload: Workload,
    seed: int,
    faults: int,
    traced: bool,
    workdir: str,
    check: int = 0,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """What ``one_campaign.py`` needs to run one campaign of ``workload``."""
    return {
        "workload": workload.name,
        "algorithm": workload.algorithm,
        "name": workload.label,
        "faults": faults,
        "seed": seed,
        "workers": workload.workers,
        "prune": workload.prune,
        "batch_size": workload.batch_size,
        "service": workload.service,
        "traced": traced,
        "check": check,
        "workdir": workdir,
        "trace_path": trace_path,
        "result_path": os.path.join(workdir, "result.json"),
    }


class CampaignRunner:
    """Starts one ``one_campaign.py`` interpreter per campaign, one at a
    time, with every file it writes under ``scratch``."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self._count = itertools.count()

    def run(
        self,
        workload: Workload,
        seed: int,
        faults: int,
        traced: bool,
        check: int = 0,
        trace_path: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        """Run one campaign and return its report.  A campaign still
        running at ``deadline`` (``time.monotonic`` seconds) is stopped
        and the benchmark fails."""
        workdir = os.path.join(self.scratch, f"campaign-{next(self._count)}")
        os.makedirs(workdir)
        spec = campaign_spec(workload, seed, faults, traced, workdir, check, trace_path)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        env = dict(os.environ, TMPDIR=self.scratch, SQLITE_TMPDIR=self.scratch)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        timeout = PAPER_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
        # Its own session, so the campaign's pool workers can be stopped
        # with it if anything goes wrong.
        child = subprocess.Popen(
            [sys.executable, ONE_CAMPAIGN, spec_path],
            stdout=sys.stderr,
            env=env,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload.name} campaign (seed {seed}) timed out") from None
        finally:
            _stop_group(child)
        if code != 0:
            raise BenchError(f"{workload.name} campaign (seed {seed}) exited with {code}")
        report = load_json(spec["result_path"])
        shutil.rmtree(workdir)
        return report


def _stop_group(child: subprocess.Popen) -> None:
    """Kill whatever is left of a campaign's process group and wait
    until it is gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(
    runner: CampaignRunner,
    workload: Workload,
    seed: int,
    faults: int,
    trace: bool,
    runs: int,
    seconds: Optional[float],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Untraced and traced reports of campaigns of one plan (``seed``,
    ``faults``): ``runs`` of them, or with ``seconds`` one and then
    another while the slowest so far would still end within ``seconds``.
    With ``trace`` every campaign is followed at once by its traced
    twin, so host drift between the two stays out of ``trace.overhead``."""
    untraced: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    started = time.monotonic()
    deadline = None if seconds is None else started + BOXED_DEADLINE_S
    slowest = 0.0
    while not untraced or (
        len(untraced) < runs if seconds is None
        else time.monotonic() - started + slowest <= seconds
    ):
        began = time.monotonic()
        first = not untraced
        untraced.append(runner.run(
            workload, seed, faults, traced=False, check=CHECKED_FAULTS if first else 0,
            deadline=deadline,
        ))
        if trace:
            os.makedirs(RESULTS, exist_ok=True)
            traced.append(runner.run(
                workload, seed, faults, traced=True,
                trace_path=os.path.join(RESULTS, f"trace-{workload.name}.json") if first else None,
                deadline=deadline,
            ))
        slowest = max(slowest, time.monotonic() - began)
        print(
            f"{workload.name} seed {seed}, {faults} faults: campaign {len(untraced)} "
            f"{untraced[-1]['campaign_s']:.2f} s, digest {untraced[-1]['digest'][:12]}",
            file=sys.stderr,
        )
    return untraced, traced


# -- correctness -----------------------------------------------------------------
def paper_algorithm_i_block() -> List[str]:
    """The Algorithm I table of ``benchmarks/results/paper_sized_run.txt``."""
    with open(PAPER_RUN, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(next(line for line in lines if line.startswith("=== Algorithm I:"))) + 1
    end = lines.index("", start)
    return [line.rstrip() for line in lines[start:end]]


def check_reports(reports: Dict[str, List[Dict[str, object]]]) -> List[str]:
    """Every correctness problem in a set of campaign reports.

    Runs of one plan must agree; so must ``alg1_serial`` and
    ``alg1_fullstack_w2`` on the same plan (two execution paths).  A
    paper-sized plan at the pinned seed must give the pinned digest, and
    ``alg1_serial``'s table must then equal the Algorithm I block of
    ``paper_sized_run.txt``."""
    pinned = load_json(PINNED_JSON)
    problems: List[str] = []
    for name, runs in reports.items():
        digests: Dict[Tuple[int, int], set] = {}
        for run in runs:
            digests.setdefault((run["seed"], run["faults"]), set()).add(run["digest"])
            if run["failed"]:
                problems.append(f"{name}: {run['failed']} failed experiments (seed {run['seed']})")
            for mismatch in run.get("check", {}).get("mismatches", []):
                problems.append(f"{name}: brute-force re-simulation disagrees: {mismatch}")
        for (run_seed, faults), found in sorted(digests.items()):
            if len(found) > 1:
                problems.append(f"{name}: outcome digests differ between runs of seed {run_seed}")
            elif (run_seed, faults) == (pinned["seed"], BY_NAME[name].faults) and found != {
                pinned["digests"][name]
            }:
                problems.append(f"{name}: digest does not match the pinned seed-{run_seed} digest")
    by_plan: Dict[Tuple[int, int], set] = {}
    for name in ("alg1_serial", "alg1_fullstack_w2"):
        for run in reports.get(name, []):
            by_plan.setdefault((run["seed"], run["faults"]), set()).add(run["digest"])
    for (run_seed, _faults), found in sorted(by_plan.items()):
        if len(found) > 1:
            problems.append(f"alg1_serial and alg1_fullstack_w2 digests differ at seed {run_seed}")
    paper = [
        run for run in reports.get("alg1_serial", [])
        if (run["seed"], run["faults"]) == (pinned["seed"], BY_NAME["alg1_serial"].faults)
    ]
    if paper:
        table = [line.rstrip() for line in paper[0]["table"].splitlines()]
        if table != paper_algorithm_i_block():
            problems.append(
                "alg1_serial: table differs from the Algorithm I block of "
                "benchmarks/results/paper_sized_run.txt"
            )
    return problems


# -- reporting -------------------------------------------------------------------
def summarize(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Per end-to-end metric: samples, median, max and n."""
    summary = {}
    for name, unit, better in END_TO_END:
        samples = [float(run[name]) for run in runs]
        summary[name] = {
            "unit": unit,
            "better": better,
            "samples": samples,
            "median": statistics.median(samples),
            "max": max(samples),
            "n": len(samples),
        }
    return summary


def with_overhead(
    traced: List[Dict[str, object]], untraced_s: List[float]
) -> Dict[str, Tuple[float, str]]:
    """Median per-layer metrics of ``traced`` campaigns plus
    ``trace.overhead``: traced ``campaign_s`` over the untraced one of the
    same plan (``untraced_s``, pairwise), less one."""
    values = layers.median_metrics(
        [{k: tuple(v) for k, v in run["layers"].items()} for run in traced]
    )
    ratios = [run["campaign_s"] / base for run, base in zip(traced, untraced_s)]
    values["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")
    return values


def print_workload(name: str, entry: Dict[str, object]) -> None:
    print(f"\n{name}: seed {entry['seed']}, {entry['faults']} faults, digest {entry['digest']}")
    for metric, stats in entry["end_to_end"].items():
        print(
            f"  {metric:<30} median {stats['median']:>12.4f} {stats['unit']:<5}"
            f" max {stats['max']:>12.4f} {stats['unit']:<5} n={stats['n']}"
        )
    if "per_layer" in entry:
        n = entry["traced_n"]
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<30} {value['value']:>19.6g} {value['unit']:<5} traced n={n}")
        print(f"\ncost tree, {name} ({entry['traced_campaign_s']:.2f} s traced)")
        print(layers.render_cost_tree(entry["cost_tree"], entry["traced_campaign_s"]))


def result_line(
    entry: Dict[str, object], reports: List[Dict[str, object]], problems: List[str]
) -> Dict[str, object]:
    """The JSON result of a one-workload run: the metrics ``BENCHMARK.json``
    lists, end-to-end or (when traced) per-layer ones."""
    spec = load_json(BENCHMARK_JSON)
    if "per_layer" in entry:
        values, wanted = entry["per_layer"], spec["per_layer"]
    else:
        values = {k: {"value": v["median"], "unit": v["unit"]} for k, v in entry["end_to_end"].items()}
        wanted = spec["end_to_end"]
    metrics = {}
    for listed in wanted:
        if listed["name"] in values:
            metrics[listed["name"]] = values[listed["name"]]
        else:
            problems.append(f"metric {listed['name']} was not measured")
    return {
        "correct": not problems,
        "attempted": sum(int(run["faults"]) for run in reports),
        "failed": sum(int(run["failed"]) for run in reports),
        "metrics": metrics,
    }


def bench(args, workloads: List[Workload], runner: CampaignRunner) -> int:
    """Measure every workload, check the outcomes, report."""
    reports: Dict[str, List[Dict[str, object]]] = {}
    out: Dict[str, object] = {
        "schema": 2,
        "seed": args.seed,
        "runs": args.runs if args.seconds is None else None,
        "seconds": args.seconds,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    for workload in workloads:
        faults = workload.faults
        if args.seconds is not None and workload.box_faults is not None:
            faults = workload.box_faults
        untraced, traced = measure(
            runner, workload, args.seed, faults, bool(args.trace), args.runs, args.seconds
        )
        reports[workload.name] = untraced + traced
        entry: Dict[str, object] = {
            "algorithm": workload.algorithm,
            "seed": args.seed,
            "faults": faults,
            "workers": workload.workers,
            "prune": workload.prune,
            "batch_size": workload.batch_size,
            "service": workload.service,
            "digest": untraced[0]["digest"],
            "table": untraced[0]["table"],
            "end_to_end": summarize(untraced),
        }
        if traced:
            values = with_overhead(traced, [run["campaign_s"] for run in untraced])
            entry["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            entry["traced_n"] = len(traced)
            entry["traced_campaign_s"] = traced[0]["campaign_s"]
            entry["cost_tree"] = traced[0]["cost_tree"]
        out["workloads"][workload.name] = entry

    problems = check_reports(reports)
    line = None
    if len(workloads) == 1:
        # A listed metric that was not measured is a problem too.
        line = result_line(out["workloads"][workloads[0].name], reports[workloads[0].name], problems)
    out["problems"] = problems
    for workload in workloads:
        print_workload(workload.name, out["workloads"][workload.name])
    if args.trace:
        print()
        for note in layers.TRACE_NOTES:
            print(f"note: {note}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.out}")
    for problem in problems:
        print(f"MISMATCH: {problem}")
    if line is not None:
        print(json.dumps(line))
    return 1 if problems else 0


# -- comparing two result files ----------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Median, quartiles and n per metric and workload; exit 1 on a regression."""
    a = load_json(path_a)["workloads"]
    b = load_json(path_b)["workloads"]
    bounds = {entry["name"]: float(entry["bound"]) for entry in load_json(BENCHMARK_JSON)["end_to_end"]}
    regressions = 0
    for metric, unit, better in END_TO_END:
        bound = bounds.get(metric, 0.0)
        print(f"\n{metric} ({unit}, {better} is better, bound {bound:.0%})")
        print(
            f"  {'workload':<19} {'A median [q1, q3]':>32} {'n':>3}"
            f" {'B median [q1, q3]':>32} {'n':>3} {'worse by':>8}  verdict"
        )
        for name in [w.name for w in WORKLOADS if w.name in a and w.name in b]:
            samples_a = a[name]["end_to_end"][metric]["samples"]
            samples_b = b[name]["end_to_end"][metric]["samples"]
            qa, qb = quartiles(samples_a), quartiles(samples_b)
            verdict, change = _verdict(metric, better, bound, samples_a, samples_b, qa, qb)
            regressions += verdict == "REGRESSION"
            print(
                f"  {name:<19} {_cell(qa):>32} {len(samples_a):>3}"
                f" {_cell(qb):>32} {len(samples_b):>3} {change:>+8.1%}  {verdict}"
            )
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _verdict(metric, better, bound, samples_a, samples_b, qa, qb) -> Tuple[str, float]:
    """``(verdict, relative change toward worse)`` for B against A."""
    median_a, median_b = qa[1], qb[1]
    if metric == "failed_share":
        return ("REGRESSION" if max(samples_b) > 0 else "ok"), median_b - median_a
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    if metric == "setup_s" and abs(median_b - median_a) <= SETUP_FLOOR_S:
        return "ok", worse
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb) if q[1])
    if better == "lower":
        all_better = max(samples_b) < min(samples_a)
    else:
        all_better = min(samples_b) > max(samples_a)
    if spread > bound:
        return ("better" if all_better else "unresolved"), worse
    if worse > bound:
        return "REGRESSION", worse
    if worse < -bound:
        return "better", worse
    return "ok", worse


# -- command line ----------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2001, help="seed of the fault plan")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--runs", type=int, default=1,
                      help="campaigns per workload (default 1)")
    mode.add_argument("--seconds", type=float,
                      help="repeat campaigns for this long instead (see the module docstring)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="follow every campaign with a traced twin (per-layer metrics)")
    parser.add_argument("--out", help="write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    workloads = [BY_NAME[name] for name in args.workload] if args.workload else list(WORKLOADS)
    # Campaign files stay inside the checkout (ignored by git); the
    # directory is removed at exit.
    os.makedirs(os.path.join(HERE, ".scratch"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".scratch"))
    try:
        return bench(args, workloads, CampaignRunner(scratch))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
