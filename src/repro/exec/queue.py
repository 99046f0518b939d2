r"""A file/SQLite-backed task queue with atomic claim, leases, heartbeats.

One ``queue.db`` file holds two tables: ``tasks`` (the work) and
``workers`` (who is pulling it).  Every operation opens a fresh
connection and runs one short transaction — claims use ``BEGIN
IMMEDIATE`` so exactly one worker wins a pending row even when several
processes race on the file.  That makes the queue multi-process today
and multi-host-shaped: any process that can open the file (or, later, a
network endpoint speaking the same five verbs) can pull work.

Task lifecycle::

    pending --claim--> leased --complete--> done
       ^                 |   \--fail-----> failed
       |                 |
       +--requeue_expired/release (lease ran out, or owner died)

A lease is a deadline, not a lock: the owning worker extends it with
:meth:`heartbeat` while executing, and a worker that is SIGKILLed simply
stops heartbeating — :meth:`requeue_expired` (driven by the pool's
supervision loop) flips its tasks back to ``pending`` so another worker
re-claims them.  :meth:`complete` and :meth:`heartbeat` are guarded by
``worker AND status='leased'``, so a worker that lost its lease cannot
finish somebody else's re-claimed task; durable effects (the run
record) are deduplicated by the worker against ``records.jsonl`` before
it re-executes.

The queue is *ephemeral per invocation*: runners recreate it from the
durable resume state (``records.jsonl`` / ``sweep.json``) on every
start, so a stale file never resurrects finished work.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

QUEUE_DB_NAME = "queue.db"

#: Task states, in lifecycle order.
PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    task_id        TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    payload        TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    worker         TEXT,
    enqueued_at    REAL NOT NULL,
    claimed_at     REAL,
    lease_deadline REAL,
    finished_at    REAL,
    result         TEXT
);
CREATE INDEX IF NOT EXISTS idx_tasks_status ON tasks (status);
CREATE TABLE IF NOT EXISTS workers (
    worker_id  TEXT PRIMARY KEY,
    pid        INTEGER,
    started_at REAL NOT NULL,
    last_seen  REAL NOT NULL
);
"""

_TASK_COLUMNS = ("task_id", "kind", "payload", "status", "attempts",
                 "worker", "enqueued_at", "claimed_at", "lease_deadline",
                 "finished_at", "result")


@dataclass(frozen=True)
class Task:
    """One row of the queue, payload and result decoded."""

    task_id: str
    kind: str
    payload: dict
    status: str
    attempts: int
    worker: Optional[str]
    enqueued_at: float
    claimed_at: Optional[float]
    lease_deadline: Optional[float]
    finished_at: Optional[float]
    result: Optional[dict]

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Enqueue-to-claim latency of the *latest* claim, if claimed."""
        if self.claimed_at is None:
            return None
        return max(0.0, self.claimed_at - self.enqueued_at)


def _decode(row) -> Task:
    data = dict(zip(_TASK_COLUMNS, row))
    data["payload"] = json.loads(data["payload"])
    if data["result"] is not None:
        try:
            data["result"] = json.loads(data["result"])
        except ValueError:
            data["result"] = None
    return Task(**data)


class TaskQueue:
    """The five verbs (enqueue/claim/heartbeat/complete/fail) plus
    supervision helpers, over one SQLite file."""

    def __init__(self, path: Union[str, Path],
                 busy_timeout_s: float = 30.0):
        self.path = Path(path)
        self.busy_timeout_s = float(busy_timeout_s)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._txn() as cur:
            cur.executescript(_SCHEMA)

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path),
                               timeout=self.busy_timeout_s)
        conn.isolation_level = None  # explicit transactions only
        return conn

    @contextlib.contextmanager
    def _txn(self, immediate: bool = False):
        conn = self._connect()
        try:
            cur = conn.cursor()
            cur.execute("BEGIN IMMEDIATE" if immediate else "BEGIN")
            try:
                yield cur
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
        finally:
            conn.close()

    # -- producing -------------------------------------------------------

    def enqueue(self, kind: str, payload: dict,
                task_id: Optional[str] = None) -> str:
        """Add one pending task; returns its id (FIFO by insert order)."""
        task_id = task_id or uuid.uuid4().hex[:12]
        with self._txn() as cur:
            cur.execute(
                "INSERT INTO tasks (task_id, kind, payload, status, "
                "enqueued_at) VALUES (?, ?, ?, ?, ?)",
                (task_id, str(kind),
                 json.dumps(payload, sort_keys=True), PENDING,
                 time.time()))
        return task_id

    # -- consuming -------------------------------------------------------

    def claim(self, worker: str, lease_s: float) -> Optional[Task]:
        """Atomically lease the oldest pending task, or ``None``.

        ``BEGIN IMMEDIATE`` takes the write lock before the select, so
        two racing workers serialize and each claims a different row.
        """
        now = time.time()
        with self._txn(immediate=True) as cur:
            row = cur.execute(
                "SELECT task_id FROM tasks WHERE status = ? "
                "ORDER BY rowid LIMIT 1", (PENDING,)).fetchone()
            if row is None:
                return None
            cur.execute(
                "UPDATE tasks SET status = ?, worker = ?, "
                "attempts = attempts + 1, claimed_at = ?, "
                "lease_deadline = ? WHERE task_id = ?",
                (LEASED, worker, now, now + float(lease_s), row[0]))
            full = cur.execute(
                f"SELECT {', '.join(_TASK_COLUMNS)} FROM tasks "
                "WHERE task_id = ?", (row[0],)).fetchone()
        return _decode(full)

    def heartbeat(self, task_id: str, worker: str,
                  lease_s: float) -> bool:
        """Extend the lease; ``False`` means the lease was lost."""
        with self._txn() as cur:
            cur.execute(
                "UPDATE tasks SET lease_deadline = ? WHERE task_id = ? "
                "AND worker = ? AND status = ?",
                (time.time() + float(lease_s), task_id, worker, LEASED))
            return cur.rowcount == 1

    def complete(self, task_id: str, worker: str,
                 result: Optional[dict] = None) -> bool:
        """Mark done; ``False`` if this worker no longer owns the task."""
        return self._finish(task_id, worker, DONE, result)

    def fail(self, task_id: str, worker: str,
             error: Optional[str] = None) -> bool:
        """Mark failed (infrastructure error, not a task-level error —
        scenario failures are recorded in the result and ``complete``)."""
        return self._finish(task_id, worker, FAILED,
                            {"error": error} if error else None)

    def _finish(self, task_id: str, worker: str, status: str,
                result: Optional[dict]) -> bool:
        with self._txn() as cur:
            cur.execute(
                "UPDATE tasks SET status = ?, finished_at = ?, "
                "result = ? WHERE task_id = ? AND worker = ? "
                "AND status = ?",
                (status, time.time(),
                 json.dumps(result, sort_keys=True)
                 if result is not None else None,
                 task_id, worker, LEASED))
            return cur.rowcount == 1

    # -- supervision -----------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Flip leases past their deadline back to pending; returns ids."""
        now = time.time() if now is None else now
        with self._txn(immediate=True) as cur:
            rows = cur.execute(
                "SELECT task_id FROM tasks WHERE status = ? "
                "AND lease_deadline < ?", (LEASED, now)).fetchall()
            ids = [r[0] for r in rows]
            if ids:
                cur.execute(
                    "UPDATE tasks SET status = ?, worker = NULL, "
                    "lease_deadline = NULL WHERE status = ? "
                    f"AND lease_deadline < ?", (PENDING, LEASED, now))
        return ids

    def release(self, worker: str) -> List[str]:
        """Requeue every task leased by ``worker`` (it is known dead)."""
        with self._txn(immediate=True) as cur:
            rows = cur.execute(
                "SELECT task_id FROM tasks WHERE status = ? "
                "AND worker = ?", (LEASED, worker)).fetchall()
            ids = [r[0] for r in rows]
            if ids:
                cur.execute(
                    "UPDATE tasks SET status = ?, worker = NULL, "
                    "lease_deadline = NULL WHERE status = ? "
                    "AND worker = ?", (PENDING, LEASED, worker))
        return ids

    # -- reading ---------------------------------------------------------

    def get(self, task_id: str) -> Optional[Task]:
        with self._txn() as cur:
            row = cur.execute(
                f"SELECT {', '.join(_TASK_COLUMNS)} FROM tasks "
                "WHERE task_id = ?", (task_id,)).fetchone()
        return _decode(row) if row is not None else None

    def counts(self) -> Dict[str, int]:
        """status -> row count (absent statuses omitted)."""
        with self._txn() as cur:
            rows = cur.execute(
                "SELECT status, COUNT(*) FROM tasks "
                "GROUP BY status").fetchall()
        return {status: n for status, n in rows}

    def remaining(self) -> int:
        """Tasks not yet finished (pending + leased)."""
        counts = self.counts()
        return counts.get(PENDING, 0) + counts.get(LEASED, 0)

    def finished(self) -> List[Task]:
        """Every done/failed task, in finish order."""
        with self._txn() as cur:
            rows = cur.execute(
                f"SELECT {', '.join(_TASK_COLUMNS)} FROM tasks "
                "WHERE status IN (?, ?) ORDER BY finished_at, rowid",
                (DONE, FAILED)).fetchall()
        return [_decode(r) for r in rows]

    def leased(self) -> List[Task]:
        with self._txn() as cur:
            rows = cur.execute(
                f"SELECT {', '.join(_TASK_COLUMNS)} FROM tasks "
                "WHERE status = ? ORDER BY rowid", (LEASED,)).fetchall()
        return [_decode(r) for r in rows]

    # -- worker registry -------------------------------------------------

    def register_worker(self, worker: str, pid: int) -> None:
        now = time.time()
        with self._txn() as cur:
            cur.execute(
                "INSERT OR REPLACE INTO workers "
                "(worker_id, pid, started_at, last_seen) "
                "VALUES (?, ?, ?, ?)", (worker, int(pid), now, now))

    def worker_seen(self, worker: str) -> None:
        with self._txn() as cur:
            cur.execute(
                "UPDATE workers SET last_seen = ? WHERE worker_id = ?",
                (time.time(), worker))

    def workers(self) -> List[dict]:
        with self._txn() as cur:
            rows = cur.execute(
                "SELECT worker_id, pid, started_at, last_seen "
                "FROM workers ORDER BY started_at").fetchall()
        return [{"worker_id": w, "pid": p, "started_at": s,
                 "last_seen": l} for w, p, s, l in rows]

    def wait_for_fan_out(self, n: int, timeout_s: float = 10.0,
                         poll_s: float = 0.02) -> bool:
        """Fan-out barrier: block while a task is pending and fewer than
        ``n`` workers hold or finished one.

        A worker calls this before its second claim, so every worker
        gets one of the first ``n`` tasks however soon the first of them
        finishes, and a fast starter does not drain the queue while its
        peers are still importing numpy — which matters for fair
        benchmarks and for tests that want the tasks spread across
        processes.  Returns ``False`` on timeout: a worker that died
        before its first claim must not stall the others.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._txn() as cur:
                pending = cur.execute(
                    "SELECT COUNT(*) FROM tasks WHERE status = ?",
                    (PENDING,)).fetchone()[0]
                claimers = cur.execute(
                    "SELECT COUNT(DISTINCT worker) FROM tasks "
                    "WHERE worker IS NOT NULL").fetchone()[0]
            if not pending or claimers >= n:
                return True
            time.sleep(poll_s)
        return False
