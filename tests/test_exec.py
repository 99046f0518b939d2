"""Tests for the repro.exec work-queue executor.

Covers the TaskQueue verbs (atomic claim, leases, ownership guards,
requeue), the fleet-width policy (``default_workers`` /
``REPRO_MAX_WORKERS``), the worker's exactly-once-recording guards, and
the headline fault-tolerance contract: SIGKILL a pool worker mid-task
and the run still completes with no duplicate records.
"""

import os
import signal
import threading
import time

import pytest

from repro.exec import (DEFAULT_WORKERS_ENV, INJECT_DELAY_ENV,
                        QUEUE_DB_NAME, RUN_SEED, TaskQueue, WorkerPool,
                        default_workers, enqueue_seed, claim_loop)
from repro.experiments import Runner, get_scenario
from repro.experiments.store import RECORDS_NAME, append_jsonl, read_jsonl
from repro.obs import TRACE_FILE_NAME
from repro.obs.trace import read_trace, summarize_spans


def tiny_spec(**overrides):
    return get_scenario("offline_accuracy").build_spec(
        tiny=True).replace(**overrides)


# ---------------------------------------------------------------------------
# TaskQueue verbs
# ---------------------------------------------------------------------------

def test_enqueue_claim_fifo(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    ids = [q.enqueue("k", {"i": i}) for i in range(3)]
    first = q.claim("w0", lease_s=30.0)
    assert first.task_id == ids[0]
    assert first.status == "leased"
    assert first.attempts == 1
    assert first.worker == "w0"
    assert first.payload == {"i": 0}
    assert first.queue_wait_s is not None and first.queue_wait_s >= 0.0
    second = q.claim("w1", lease_s=30.0)
    assert second.task_id == ids[1]  # FIFO by insert order
    assert q.counts() == {"leased": 2, "pending": 1}
    assert q.remaining() == 3
    assert q.claim("w2", lease_s=30.0).task_id == ids[2]
    assert q.claim("w3", lease_s=30.0) is None  # drained


def test_complete_is_ownership_guarded(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue("k", {})
    q.claim("w0", lease_s=30.0)
    assert not q.complete(tid, "w1", {"x": 1})  # not the owner
    assert q.complete(tid, "w0", {"x": 1})
    task = q.get(tid)
    assert task.status == "done"
    assert task.result == {"x": 1}
    assert task.finished_at is not None
    assert not q.complete(tid, "w0")  # already finished
    assert [t.task_id for t in q.finished()] == [tid]
    assert q.remaining() == 0


def test_fail_marks_failed_with_error(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue("k", {})
    q.claim("w0", lease_s=30.0)
    assert q.fail(tid, "w0", "boom")
    task = q.get(tid)
    assert task.status == "failed"
    assert task.result == {"error": "boom"}
    assert q.remaining() == 0
    assert [t.status for t in q.finished()] == ["failed"]


def test_lease_expiry_requeues_and_reclaims(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue("k", {})
    q.claim("w0", lease_s=0.05)
    assert q.requeue_expired() == []  # lease still fresh
    time.sleep(0.1)
    assert q.requeue_expired() == [tid]
    task = q.get(tid)
    assert task.status == "pending"
    assert task.worker is None
    # The original owner lost everything: heartbeat and complete refuse.
    assert not q.heartbeat(tid, "w0", 30.0)
    assert not q.complete(tid, "w0")
    reclaimed = q.claim("w1", lease_s=30.0)
    assert reclaimed.task_id == tid
    assert reclaimed.attempts == 2
    assert q.complete(tid, "w1")


def test_heartbeat_extends_lease(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue("k", {})
    q.claim("w0", lease_s=0.2)
    before = q.get(tid).lease_deadline
    assert q.heartbeat(tid, "w0", 30.0)
    assert q.get(tid).lease_deadline > before
    assert not q.heartbeat(tid, "w1", 30.0)  # wrong worker


def test_release_requeues_a_dead_workers_leases(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    ids = [q.enqueue("k", {"i": i}) for i in range(2)]
    q.claim("w0", lease_s=30.0)
    q.claim("w0", lease_s=30.0)
    assert sorted(q.release("w0")) == sorted(ids)
    assert q.counts() == {"pending": 2}
    assert q.release("w0") == []


def test_fan_out_barrier_waits_for_every_worker_to_claim(tmp_path):
    """With a task pending, the barrier holds until ``n`` workers hold or
    finished one; with none pending it passes at once."""
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tids = [q.enqueue("k", {"i": i}) for i in range(3)]
    assert not q.wait_for_fan_out(1, timeout_s=0.05)
    q.claim("w0", lease_s=30.0)
    assert q.complete(tids[0], "w0")
    assert q.wait_for_fan_out(1, timeout_s=0.05)
    assert not q.wait_for_fan_out(2, timeout_s=0.05)
    q.claim("w1", lease_s=30.0)
    assert q.wait_for_fan_out(2, timeout_s=0.05)
    assert not q.wait_for_fan_out(3, timeout_s=0.05)
    q.claim("w0", lease_s=30.0)
    assert q.wait_for_fan_out(3, timeout_s=0.05)  # nothing pending


def test_worker_registry(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    assert q.workers() == []
    q.register_worker("w0", pid=1234)
    (entry,) = q.workers()
    assert entry["worker_id"] == "w0" and entry["pid"] == 1234
    time.sleep(0.01)
    q.worker_seen("w0")
    (entry,) = q.workers()
    assert entry["last_seen"] > entry["started_at"]


# ---------------------------------------------------------------------------
# default_workers policy
# ---------------------------------------------------------------------------

def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv(DEFAULT_WORKERS_ENV, "3")
    assert default_workers() == 3
    assert default_workers(cap=1) == 3  # explicit override beats the cap
    monkeypatch.setenv(DEFAULT_WORKERS_ENV, " 2 ")
    assert default_workers() == 2


def test_default_workers_fallback(monkeypatch):
    monkeypatch.delenv(DEFAULT_WORKERS_ENV, raising=False)
    cpus = os.cpu_count() or 1
    assert default_workers() == cpus
    assert default_workers(cap=1) == 1
    for bad in ("junk", "0", "-4", ""):
        monkeypatch.setenv(DEFAULT_WORKERS_ENV, bad)
        assert default_workers(cap=1) == 1  # invalid values are ignored


# ---------------------------------------------------------------------------
# claim loop + worker guards
# ---------------------------------------------------------------------------

def test_claim_loop_completes_unknown_kind_as_error(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue("no_such_kind", {})
    results = []
    claim_loop(q.path, "w0",
               on_result=lambda t, r: results.append((t.task_id, r)))
    assert results and results[0][0] == tid
    assert results[0][1]["status"] == "error"
    assert q.get(tid).status == "done"  # infrastructure stayed healthy


DROP = object()  # a field the row leaves out


@pytest.mark.parametrize("field,value,text", [
    ("seed", DROP, "'run_seed' payload is missing required field 'seed'"),
    ("run_dir", DROP,
     "'run_seed' payload is missing required field 'run_dir'"),
    ("force", True, "'run_seed' payload has undeclared field 'force'"),
    ("seed", "x", "'run_seed' payload field 'seed' must be int, got str"),
    ("seed", 1.5, "'run_seed' payload field 'seed' must be int, got float"),
    ("seed", True, "'run_seed' payload field 'seed' must be int, got bool"),
    ("run_dir", 5, "'run_seed' payload field 'run_dir' must be str, got int"),
    ("run_dir", None,
     "'run_seed' payload field 'run_dir' must be str, got NoneType"),
], ids=["missing-seed", "missing-run_dir", "extra-force", "seed-str",
        "seed-float", "seed-bool", "run_dir-int", "run_dir-null"])
def test_run_seed_row_off_the_protocol_ends_as_error(tmp_path, field,
                                                     value, text):
    """A corrupt or foreign row is checked when claimed, against
    exec.protocol.MESSAGES and the types of the fields the worker reads
    first: the claim loop returns, the row ends as an error result naming
    the field, and the seed never runs (no record, no run directory)."""
    run_dir = tmp_path / "run"
    payload = {"experiment": "offline_accuracy", "run_id": "r-test",
               "run_dir": str(run_dir), "spec": {}, "seed": 0}
    if value is DROP:
        del payload[field]
    else:
        payload[field] = value
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = q.enqueue(RUN_SEED, payload)
    results = []
    claim_loop(q.path, "w0", on_result=lambda t, r: results.append(r))
    (result,) = results
    assert result["status"] == "error" and result["error"].startswith(text)
    assert q.get(tid).status == "done" and q.remaining() == 0
    assert not run_dir.exists()


def test_run_dir_that_cannot_be_a_directory_ends_as_error(tmp_path):
    """A well-formed row whose run_dir lies under a regular file: the
    claim loop returns, the row ends as an error result naming the field,
    and no lease is left behind."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    run_dir = blocker / "run"
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    tid = enqueue_seed(q, experiment="offline_accuracy", run_id="r-test",
                       run_dir=str(run_dir), spec={}, seed=0)
    results = []
    claim_loop(q.path, "w0", on_result=lambda t, r: results.append(r))
    (result,) = results
    assert result["status"] == "error"
    assert result["error"].startswith(
        f"'run_seed' payload field 'run_dir' {str(run_dir)!r} cannot be "
        f"made a directory")
    assert q.get(tid).status == "done" and q.remaining() == 0
    assert blocker.read_text() == "not a directory"


def test_worker_dedupes_already_recorded_seed(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    append_jsonl(run_dir / RECORDS_NAME,
                 {"seed": 0, "status": "ok", "metrics": {"acc": 1.0}})
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    enqueue_seed(q, experiment="offline_accuracy", run_id="r-test",
                 run_dir=str(run_dir), spec={}, seed=0)
    claim_loop(q.path, "w0")
    (task,) = q.finished()
    assert task.status == "done"
    assert task.result["deduped"] is True
    # No second record was appended: the pre-existing one is the record.
    assert len(read_jsonl(run_dir / RECORDS_NAME)) == 1


def test_pool_inline_streams_results_exactly_once(tmp_path):
    q = TaskQueue(tmp_path / QUEUE_DB_NAME)
    ids = [q.enqueue("no_such_kind", {"i": i}) for i in range(3)]
    done = []
    WorkerPool(q, workers=1).run(
        on_task_done=lambda t, r: done.append(t.task_id))
    assert done == ids  # once each, FIFO
    assert q.remaining() == 0


# ---------------------------------------------------------------------------
# fault tolerance: SIGKILL a pool worker mid-task
# ---------------------------------------------------------------------------

def test_sigkill_worker_mid_task_run_still_completes(tmp_path, monkeypatch):
    """Kill one spawned worker while it holds a lease: the pool must
    requeue the task, a replacement must finish it, and the run must end
    complete with exactly one ok record per seed."""
    monkeypatch.setenv(INJECT_DELAY_ENV, "3.0")
    spec = tiny_spec(seeds=(0, 1), backends=("rate",), n_train=40,
                     n_test=20)
    runner = Runner(out_root=tmp_path, max_workers=2)
    box = {}

    def target():
        try:
            box["result"] = runner.run(spec)
        except BaseException as exc:  # surfaced below
            box["error"] = exc

    th = threading.Thread(target=target)
    th.start()

    # Wait for a spawned worker to hold a lease (it is sleeping inside
    # the injected delay window), then SIGKILL it.
    victim_pid = victim_task = db = None
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and victim_pid is None:
        for candidate in tmp_path.rglob(QUEUE_DB_NAME):
            q = TaskQueue(candidate)
            pids = {w["worker_id"]: w["pid"] for w in q.workers()}
            for task in q.leased():
                pid = pids.get(task.worker)
                if pid and pid != os.getpid():
                    victim_pid, victim_task, db = pid, task.task_id, \
                        candidate
                    break
        time.sleep(0.05)
    assert victim_pid is not None, "no spawned worker ever held a lease"
    os.kill(victim_pid, signal.SIGKILL)

    th.join(timeout=240.0)
    assert not th.is_alive(), "runner did not finish after worker kill"
    assert "error" not in box, box.get("error")
    result = box["result"]
    assert result.status == "complete"

    # Exactly one ok record per seed — at-least-once execution,
    # exactly-once recording.
    per_seed = {}
    for rec in read_jsonl(result.run_dir / RECORDS_NAME):
        per_seed.setdefault(rec["seed"], []).append(rec["status"])
    assert sorted(per_seed) == [0, 1]
    for statuses in per_seed.values():
        assert statuses.count("ok") == 1

    # The queue file persists post-run: the killed task was re-claimed.
    q = TaskQueue(db)
    killed = q.get(victim_task)
    assert killed.status == "done"
    assert killed.attempts >= 2

    # Executor spans made it into the trace with queue-wait attribution.
    records = read_trace(result.run_dir / TRACE_FILE_NAME)
    task_spans = [r for r in records
                  if r.get("kind") == "span" and r["name"] == "task"]
    assert task_spans
    assert all("queue_wait_ms" in s["attrs"] for s in task_spans)
    assert any(s["attrs"].get("attempt", 0) >= 2 for s in task_spans)
    events = {r["name"] for r in records if r.get("kind") == "event"}
    assert {"task_enqueue", "task_claim", "task_done"} <= events
    agg = {e["name"]: e for e in summarize_spans(records)}
    assert agg["task"]["queue_wait_ms"] is not None
