"""SQLite persistence for campaign results.

GOOFI stores all set-up and experiment data in a SQL database (§3.2);
here it is SQLite (standard library), with one row per campaign and one
per experiment.  The analysis phase can re-load stored campaigns into
:class:`~repro.analysis.report.CampaignSummary` objects without re-running
anything.

Since schema v4 the store is also the campaign's crash-safety substrate
(see ``docs/robustness.md``): campaigns carry a lifecycle ``status``
(``running`` / ``complete`` / ``aborted``) and a configuration
fingerprint, experiments carry their plan index, and results stream in
through batched transactions (:meth:`CampaignDatabase.store_experiment_batch`)
as chunks finish — so an interrupted campaign can be resumed from
exactly the experiments already on disk.  Connections run in WAL
journal mode with a busy timeout, making every commit durable against a
process kill and tolerant of a concurrent reader.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from repro.analysis.classify import Outcome, OutcomeCategory
from repro.analysis.report import CampaignSummary, ClassifiedExperiment
from repro.errors import DatabaseError
from repro.goofi.workqueue import QUEUE_SCHEMA, WorkQueue

#: Version stamped into newly stored campaign rows.  Version 1 is the
#: original schema (no version/timestamp columns); version 2 added
#: ``schema_version`` and ``created_at`` — rows migrated from a v1
#: database keep ``schema_version = 1`` and a NULL ``created_at``;
#: version 3 added ``experiments.provenance`` (``'simulated'`` or
#: ``'predicted'`` — whether the outcome came from simulation or from
#: the def/use pruning's prediction), defaulting migrated rows to
#: ``'simulated'``, which is what every earlier version stored;
#: version 4 added crash-safe campaign lifecycle state:
#: ``campaigns.status`` (``'running'``/``'complete'``/``'aborted'`` —
#: migrated rows default to ``'complete'``, since pre-v4 rows were only
#: ever written after a finished campaign), ``campaigns.config_json``
#: (the resume fingerprint; NULL for migrated rows, which therefore
#: refuse to resume), ``experiments.plan_index`` (NULL for migrated
#: rows) plus a uniqueness index on ``(campaign_id, plan_index)``, and
#: the ``'quarantined'`` provenance value for experiments that
#: repeatedly crashed a worker;
#: version 5 added equivalence collapse: the ``'equivalent'``
#: provenance value for experiments replayed from an outcome-equivalent
#: class representative, and ``experiments.representative_index`` (the
#: representative's plan index; NULL for every other provenance and for
#: migrated rows) — collapse is gone and neither is written any more,
#: but old rows still load, resume and report;
#: version 6 made the database the campaign-service substrate: the
#: work-queue tables (``jobs``/``leases``/``job_acks``, see
#: :mod:`repro.goofi.workqueue`), ``experiments.detected_iteration`` and
#: ``experiments.detection_latency`` (NULL for migrated rows) so an
#: ``experiment_finished`` event can be rebuilt bit-for-bit from its row
#: after a worker SIGKILL tore the event log, and ``PRAGMA
#: user_version`` now tracks the schema version (0 in every earlier
#: database, since none of them set it).
DB_SCHEMA_VERSION = 6

#: Milliseconds a writer waits on a locked database before failing.
BUSY_TIMEOUT_MS = 5_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT NOT NULL,
    faults INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    iterations INTEGER NOT NULL,
    partition_sizes TEXT NOT NULL,
    wall_seconds REAL NOT NULL,
    schema_version INTEGER NOT NULL DEFAULT 1,
    created_at TEXT,
    status TEXT NOT NULL DEFAULT 'complete',
    config_json TEXT
);
CREATE TABLE IF NOT EXISTS experiments (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    partition TEXT NOT NULL,
    element TEXT NOT NULL,
    bit INTEGER NOT NULL,
    time INTEGER NOT NULL,
    category TEXT NOT NULL,
    mechanism TEXT,
    first_failure_iteration INTEGER,
    max_deviation REAL NOT NULL,
    early_exit_iteration INTEGER,
    timed_out INTEGER NOT NULL,
    instructions_executed INTEGER NOT NULL,
    provenance TEXT NOT NULL DEFAULT 'simulated',
    plan_index INTEGER,
    representative_index INTEGER,
    detected_iteration INTEGER,
    detection_latency INTEGER
);
"""

#: Guards streaming inserts against double-storing a plan index (NULLs —
#: legacy rows — stay exempt, as SQLite treats them as distinct).
_PLAN_INDEX_UNIQUE = (
    "CREATE UNIQUE INDEX IF NOT EXISTS idx_experiments_campaign_plan"
    " ON experiments(campaign_id, plan_index)"
)

_EXPERIMENT_INSERT = (
    "INSERT INTO experiments (campaign_id, partition, element, bit,"
    " time, category, mechanism, first_failure_iteration,"
    " max_deviation, early_exit_iteration, timed_out,"
    " instructions_executed, provenance, plan_index,"
    " detected_iteration, detection_latency)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


def _provenance(run) -> str:
    """How a stored experiment's outcome was obtained."""
    if getattr(run, "quarantined", False):
        return "quarantined"
    if getattr(run, "predicted", False):
        return "predicted"
    return "simulated"


def _experiment_row(campaign_id: int, plan_index: Optional[int], run, outcome) -> Tuple:
    detection = getattr(run, "detection", None)
    detection_latency = (
        detection.instruction_index - run.fault.time if detection is not None else None
    )
    return (
        campaign_id,
        run.fault.target.partition,
        run.fault.target.element,
        run.fault.target.bit,
        run.fault.time,
        outcome.category.value,
        outcome.mechanism,
        outcome.first_failure_iteration,
        outcome.max_deviation,
        run.early_exit_iteration,
        1 if run.timed_out else 0,
        run.instructions_executed,
        _provenance(run),
        plan_index,
        getattr(run, "detected_iteration", None),
        detection_latency,
    )


@dataclass(frozen=True)
class StoredExperiment:
    """One experiment row as needed to resume a campaign."""

    plan_index: int
    partition: str
    element: str
    bit: int
    time: int
    outcome: Outcome
    early_exit_iteration: Optional[int]
    timed_out: bool
    instructions_executed: int
    provenance: str
    representative_index: Optional[int] = None
    detected_iteration: Optional[int] = None
    detection_latency: Optional[int] = None


class CampaignDatabase:
    """A SQLite-backed store for campaign results."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_MS / 1000.0)
        # WAL keeps committed batches durable across a process kill and
        # lets a post-mortem reader open the file mid-campaign; both
        # pragmas are no-ops for in-memory databases.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.executescript(QUEUE_SCHEMA)
        self._migrate()
        self._conn.execute(_PLAN_INDEX_UNIQUE)
        self._conn.execute(f"PRAGMA user_version = {DB_SCHEMA_VERSION}")
        self._conn.commit()

    def _migrate(self) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves older tables untouched, so
        databases written before :data:`DB_SCHEMA_VERSION` 2 lack the
        ``schema_version``/``created_at`` columns, ones written before
        version 3 lack ``experiments.provenance``, ones written before
        version 4 lack ``campaigns.status``/``config_json`` and
        ``experiments.plan_index``, ones written before version 5
        lack ``experiments.representative_index``, and ones written
        before version 6 lack ``experiments.detected_iteration`` /
        ``detection_latency`` (their queue tables were already created
        by the ``IF NOT EXISTS`` schema above); add them in place.
        Existing rows keep the defaults (version 1, NULL timestamp,
        ``'simulated'`` provenance, ``'complete'`` status, NULL
        fingerprint, plan index and representative index — correct,
        since pre-v4 rows were only written for finished campaigns and
        cannot be resumed, and no pre-v5 row was ever an equivalence
        replay).
        """
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(campaigns)").fetchall()
        }
        if "schema_version" not in columns:
            self._conn.execute(
                "ALTER TABLE campaigns"
                " ADD COLUMN schema_version INTEGER NOT NULL DEFAULT 1"
            )
        if "created_at" not in columns:
            self._conn.execute("ALTER TABLE campaigns ADD COLUMN created_at TEXT")
        if "status" not in columns:
            self._conn.execute(
                "ALTER TABLE campaigns"
                " ADD COLUMN status TEXT NOT NULL DEFAULT 'complete'"
            )
        if "config_json" not in columns:
            self._conn.execute("ALTER TABLE campaigns ADD COLUMN config_json TEXT")
        experiment_columns = {
            row[1]
            for row in self._conn.execute(
                "PRAGMA table_info(experiments)"
            ).fetchall()
        }
        if "provenance" not in experiment_columns:
            self._conn.execute(
                "ALTER TABLE experiments"
                " ADD COLUMN provenance TEXT NOT NULL DEFAULT 'simulated'"
            )
        if "plan_index" not in experiment_columns:
            self._conn.execute(
                "ALTER TABLE experiments ADD COLUMN plan_index INTEGER"
            )
        if "representative_index" not in experiment_columns:
            self._conn.execute(
                "ALTER TABLE experiments ADD COLUMN representative_index INTEGER"
            )
        if "detected_iteration" not in experiment_columns:
            self._conn.execute(
                "ALTER TABLE experiments ADD COLUMN detected_iteration INTEGER"
            )
        if "detection_latency" not in experiment_columns:
            self._conn.execute(
                "ALTER TABLE experiments ADD COLUMN detection_latency INTEGER"
            )

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def work_queue(self, policy=None) -> WorkQueue:
        """A :class:`~repro.goofi.workqueue.WorkQueue` over this database.

        The queue tables live in the campaign database since schema v6,
        so a file-backed campaign's chunk queue survives the process and
        is inspectable next to its results.  The queue shares this
        connection (a second connection to ``:memory:`` would see a
        different database), so closing the database closes the queue.
        """
        return WorkQueue(policy=policy, conn=self._conn)

    def __enter__(self) -> "CampaignDatabase":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- writing ---------------------------------------------------------------
    def begin_campaign(
        self,
        config,
        partition_sizes: Dict[str, int],
        fingerprint: Optional[Dict[str, object]] = None,
    ) -> int:
        """Open a campaign row in ``'running'`` state; experiments then
        stream in through :meth:`store_experiment_batch` and the row is
        closed by :meth:`finish_campaign` (or :meth:`abort_campaign`).

        Returns the new campaign's database id.
        """
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO campaigns (name, faults, seed, iterations,"
                " partition_sizes, wall_seconds, schema_version, created_at,"
                " status, config_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'running', ?)",
                (
                    config.name,
                    config.faults,
                    config.seed,
                    config.iterations,
                    json.dumps(partition_sizes),
                    0.0,
                    DB_SCHEMA_VERSION,
                    datetime.now(timezone.utc).isoformat(),
                    json.dumps(fingerprint, sort_keys=True)
                    if fingerprint is not None
                    else None,
                ),
            )
        return int(cursor.lastrowid)

    def store_experiment_batch(
        self, campaign_id: int, batch: List[Tuple[int, object, object]]
    ) -> None:
        """Persist ``(plan_index, run, outcome)`` triples atomically.

        One explicit transaction per batch: a crash between batches
        loses nothing already committed, a crash mid-batch rolls the
        whole batch back — a campaign row can never reference half an
        insert.
        """
        if not batch:
            return
        rows = [
            _experiment_row(campaign_id, plan_index, run, outcome)
            for plan_index, run, outcome in batch
        ]
        with self._conn:
            self._conn.executemany(_EXPERIMENT_INSERT, rows)

    def finish_campaign(self, campaign_id: int, wall_seconds: float) -> None:
        """Mark a streamed campaign complete, accumulating wall time
        (a resumed campaign's total covers every partial run)."""
        with self._conn:
            self._conn.execute(
                "UPDATE campaigns SET status = 'complete',"
                " wall_seconds = wall_seconds + ? WHERE id = ?",
                (wall_seconds, campaign_id),
            )

    def abort_campaign(self, campaign_id: int) -> None:
        """Mark a campaign aborted (resumable); streamed rows remain."""
        with self._conn:
            self._conn.execute(
                "UPDATE campaigns SET status = 'aborted' WHERE id = ?",
                (campaign_id,),
            )

    def reopen_campaign(self, campaign_id: int) -> None:
        """Flip a campaign back to ``'running'`` at resume time."""
        with self._conn:
            self._conn.execute(
                "UPDATE campaigns SET status = 'running' WHERE id = ?",
                (campaign_id,),
            )

    def store_campaign(self, result) -> int:
        """Persist a whole :class:`~repro.goofi.campaign.CampaignResult`.

        Kept for API compatibility (campaign runs stream incrementally
        instead); the campaign row and every experiment commit in one
        explicit transaction, so a crash mid-store can never leave a
        campaign row with half its experiments.  Returns the campaign id.
        """
        config = result.config
        rows_iter = zip(result.experiments, result.outcomes)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO campaigns (name, faults, seed, iterations,"
                " partition_sizes, wall_seconds, schema_version, created_at,"
                " status)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'complete')",
                (
                    config.name,
                    config.faults,
                    config.seed,
                    config.iterations,
                    json.dumps(result.partition_sizes),
                    result.wall_seconds,
                    DB_SCHEMA_VERSION,
                    datetime.now(timezone.utc).isoformat(),
                ),
            )
            campaign_id = cursor.lastrowid
            self._conn.executemany(
                _EXPERIMENT_INSERT,
                [
                    _experiment_row(campaign_id, plan_index, run, outcome)
                    for plan_index, (run, outcome) in enumerate(rows_iter)
                ],
            )
        return int(campaign_id)

    # -- reading ------------------------------------------------------------------
    def list_campaigns(self) -> List[Tuple[int, str, int]]:
        """All stored campaigns as ``(id, name, faults)`` tuples."""
        cursor = self._conn.execute("SELECT id, name, faults FROM campaigns")
        return [(int(i), str(n), int(f)) for i, n, f in cursor.fetchall()]

    def campaign_status(self, campaign_id: int) -> str:
        """Lifecycle state: ``'running'``, ``'complete'`` or ``'aborted'``."""
        row = self._conn.execute(
            "SELECT status FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no campaign with id {campaign_id}")
        return str(row[0])

    def campaign_fingerprint(self, campaign_id: int) -> Optional[Dict[str, object]]:
        """The stored configuration fingerprint (None pre-v4)."""
        row = self._conn.execute(
            "SELECT config_json FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no campaign with id {campaign_id}")
        return json.loads(row[0]) if row[0] is not None else None

    def completed_experiments(self, campaign_id: int) -> Dict[int, StoredExperiment]:
        """Every streamed experiment of a campaign, keyed by plan index.

        The resume path re-derives the fault plan from the stored seed
        and simulates only the indices missing here.
        """
        cursor = self._conn.execute(
            "SELECT plan_index, partition, element, bit, time, category,"
            " mechanism, first_failure_iteration, max_deviation,"
            " early_exit_iteration, timed_out, instructions_executed,"
            " provenance, representative_index, detected_iteration,"
            " detection_latency FROM experiments"
            " WHERE campaign_id = ? AND plan_index IS NOT NULL"
            " ORDER BY plan_index",
            (campaign_id,),
        )
        completed: Dict[int, StoredExperiment] = {}
        for row in cursor.fetchall():
            (
                plan_index, partition, element, bit, time, category,
                mechanism, first_fail, max_dev, early_exit, timed_out,
                instructions, provenance, representative_index,
                detected_iteration, detection_latency,
            ) = row
            completed[int(plan_index)] = StoredExperiment(
                plan_index=int(plan_index),
                partition=str(partition),
                element=str(element),
                bit=int(bit),
                time=int(time),
                outcome=Outcome(
                    category=OutcomeCategory(category),
                    mechanism=mechanism,
                    first_failure_iteration=first_fail,
                    max_deviation=max_dev,
                ),
                early_exit_iteration=early_exit,
                timed_out=bool(timed_out),
                instructions_executed=int(instructions),
                provenance=str(provenance),
                representative_index=(
                    int(representative_index)
                    if representative_index is not None
                    else None
                ),
                detected_iteration=(
                    int(detected_iteration)
                    if detected_iteration is not None
                    else None
                ),
                detection_latency=(
                    int(detection_latency) if detection_latency is not None else None
                ),
            )
        return completed

    def finished_event_records(self, campaign_id: int) -> List[Dict[str, object]]:
        """Rebuild every ``experiment_finished`` payload from stored rows.

        Since schema v6 a row carries every field of
        :func:`repro.obs.telemetry.experiment_event`, so the service's
        event-log repair can reconstruct records a SIGKILL tore out of
        the log — bit-identical to the originals, because the payload is
        a pure function of the experiment.  Rows are returned in plan
        order; legacy rows without a plan index are skipped.
        """
        cursor = self._conn.execute(
            "SELECT plan_index, partition, element, bit, time, category,"
            " mechanism, early_exit_iteration, timed_out,"
            " instructions_executed, provenance, detected_iteration,"
            " detection_latency FROM experiments"
            " WHERE campaign_id = ? AND plan_index IS NOT NULL"
            " ORDER BY plan_index",
            (campaign_id,),
        )
        records: List[Dict[str, object]] = []
        for row in cursor.fetchall():
            (
                plan_index, partition, element, bit, time, category,
                mechanism, early_exit, timed_out, instructions,
                provenance, detected_iteration, detection_latency,
            ) = row
            records.append(
                {
                    "index": int(plan_index),
                    "partition": str(partition),
                    "element": str(element),
                    "bit": int(bit),
                    "injection_time": int(time),
                    "category": str(category),
                    "mechanism": mechanism,
                    "detected_iteration": detected_iteration,
                    "detection_latency": detection_latency,
                    "early_exit_iteration": early_exit,
                    "timed_out": bool(timed_out),
                    "instructions": int(instructions),
                    "pruned": provenance == "predicted",
                }
            )
        return records

    def load_summary(self, campaign_id: int) -> CampaignSummary:
        """Rebuild a :class:`CampaignSummary` from stored rows.

        Records come back in plan order for streamed (v4) campaigns —
        ordered by the stored plan index, not by insertion — and in
        insertion order for legacy rows without a plan index.
        """
        row = self._conn.execute(
            "SELECT name, partition_sizes FROM campaigns WHERE id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise DatabaseError(f"no campaign with id {campaign_id}")
        name, partition_sizes_json = row
        cursor = self._conn.execute(
            "SELECT partition, category, mechanism, first_failure_iteration,"
            " max_deviation FROM experiments WHERE campaign_id = ?"
            " ORDER BY (plan_index IS NULL), plan_index, id",
            (campaign_id,),
        )
        records = []
        for partition, category, mechanism, first_fail, max_dev in cursor.fetchall():
            outcome = Outcome(
                category=OutcomeCategory(category),
                mechanism=mechanism,
                first_failure_iteration=first_fail,
                max_deviation=max_dev,
            )
            records.append(ClassifiedExperiment(partition=partition, outcome=outcome))
        if not records:
            raise DatabaseError(f"campaign {campaign_id} has no experiments")
        return CampaignSummary(
            records=records,
            partition_sizes=json.loads(partition_sizes_json),
            name=name,
        )

    def mechanism_counts(self, campaign_id: int) -> List[Tuple[str, int]]:
        """Detected-error counts per mechanism (analysis-phase query)."""
        cursor = self._conn.execute(
            "SELECT mechanism, COUNT(*) FROM experiments"
            " WHERE campaign_id = ? AND mechanism IS NOT NULL"
            " GROUP BY mechanism ORDER BY COUNT(*) DESC",
            (campaign_id,),
        )
        return [(str(m), int(c)) for m, c in cursor.fetchall()]

    def provenance_counts(self, campaign_id: int) -> List[Tuple[str, int]]:
        """Experiment counts per provenance (``simulated``/``predicted``/
        ``quarantined``, plus ``equivalent`` in pre-existing rows)."""
        cursor = self._conn.execute(
            "SELECT provenance, COUNT(*) FROM experiments"
            " WHERE campaign_id = ? GROUP BY provenance ORDER BY provenance",
            (campaign_id,),
        )
        return [(str(p), int(c)) for p, c in cursor.fetchall()]
