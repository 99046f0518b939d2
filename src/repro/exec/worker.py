"""Queue worker: claim ``run_seed`` tasks, execute, record, repeat.

:func:`worker_main` is the spawn entry point used by
:class:`~repro.exec.pool.WorkerPool`; :func:`claim_loop` is the same
loop callable inline (``workers=1`` and pool-degradation paths).  Every
task executes under a :class:`LeaseKeeper` heartbeat thread, and the
durable effect — the seed's record line in the owning run's
``records.jsonl`` — is guarded twice against requeue races:

* before executing, the worker checks the run directory for an existing
  ``ok`` record of the seed (a requeued task whose first owner finished
  before dying) and returns a ``deduped`` result instead of re-running;
* before appending, it re-asserts lease ownership with a synchronous
  heartbeat, so a worker that lost its lease (and whose task another
  worker now owns) drops its record on the floor.

Together with crash-stop failures (SIGKILL never appends half-work,
appends themselves are single ``O_APPEND`` writes) this gives
at-least-once *execution* but exactly-once *recording* per seed.

Imports from ``repro.experiments`` are deliberately lazy (inside
functions): ``repro.experiments.runner`` imports ``repro.exec``, and
this module completes the cycle if it imports experiments at module
scope.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Optional, Union

from .. import obs
from .protocol import MESSAGES, check_payload
from .queue import Task, TaskQueue

#: Test hook: seconds to sleep inside the task span on a task's *first*
#: attempt, giving kill/preemption tests a deterministic window in which
#: the worker holds a lease but has produced no durable record yet.
INJECT_DELAY_ENV = "REPRO_EXEC_INJECT_DELAY_S"


class LeaseKeeper(threading.Thread):
    """Background heartbeat for one leased task.

    Renews the lease every ``lease_s / 3`` seconds; a failed renewal
    (the lease expired and was re-claimed, or the queue marked the task
    elsewhere) sets :attr:`lost` and stops renewing.
    """

    def __init__(self, queue: TaskQueue, task_id: str, worker: str,
                 lease_s: float):
        super().__init__(daemon=True, name=f"lease-{task_id}")
        self.queue = queue
        self.task_id = task_id
        self.worker = worker
        self.lease_s = float(lease_s)
        self.lost = threading.Event()
        self._stop = threading.Event()

    def run(self) -> None:
        interval = max(0.05, self.lease_s / 3.0)
        while not self._stop.wait(interval):
            try:
                ok = self.queue.heartbeat(self.task_id, self.worker,
                                          self.lease_s)
            except Exception:
                continue  # transient DB contention; retry next tick
            if not ok:
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop.set()


def _inject_delay(attempts: int) -> None:
    raw = os.environ.get(INJECT_DELAY_ENV)
    if not raw or attempts > 1:
        return
    try:
        delay = float(raw)
    except ValueError:
        return
    if delay > 0:
        time.sleep(delay)


def _run_seed(queue: TaskQueue, task: Task, worker_id: str,
              keeper: Optional[LeaseKeeper]) -> dict:
    """Execute one ``run_seed`` task and append its record.

    Returns the small status dict that goes back onto the queue row
    (see ``protocol`` — results are free-form by design).
    """
    from ..experiments.spec import ExperimentSpec
    from ..experiments.store import (CHECKPOINT_DIR_NAME, RECORDS_NAME,
                                     append_jsonl, final_records)

    p = task.payload
    seed = p["seed"]
    run_dir = Path(p["run_dir"])
    queue_parent = p.get("queue_parent")
    wait_ms = round((task.queue_wait_s or 0.0) * 1000.0, 3)

    with obs.trace_bound(obs.trace_path_for(queue.path.parent)):
        with obs.span("task", parent_id=queue_parent, seed=seed,
                      point_id=p.get("point_id"), worker=worker_id,
                      attempt=task.attempts,
                      queue_wait_ms=wait_ms) as tsp:
            obs.event("task_claim", task_id=task.task_id, seed=seed,
                      worker=worker_id, attempt=task.attempts,
                      queue_wait_ms=wait_ms)
            # The run's trace, checkpoints and record all live in run_dir:
            # a row whose run_dir cannot be a directory ends here.
            try:
                run_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                if tsp is not None:
                    tsp.set(status="error")
                obs.event("task_done", task_id=task.task_id, seed=seed,
                          status="error")
                return {"seed": seed, "status": "error",
                        "error": f"'run_seed' payload field 'run_dir' "
                                 f"{p['run_dir']!r} cannot be made a "
                                 f"directory: {exc}"}
            counted = final_records(run_dir, [seed]).get(seed, {})
            if counted.get("status") == "ok":
                result = {"seed": seed, "status": "ok", "deduped": True,
                          "duration_s": 0.0}
                if tsp is not None:
                    tsp.set(status="ok", deduped=True)
                obs.event("task_done", task_id=task.task_id, seed=seed,
                          status="ok", deduped=True)
                return result
            _inject_delay(task.attempts)

            t0 = time.perf_counter()
            kernel_baseline = obs.kernel_profiler.snapshot()
            with obs.trace_bound(obs.trace_path_for(run_dir)):
                with obs.span("seed", parent_id=queue_parent, seed=seed,
                              experiment=p["experiment"]) as sp:
                    try:
                        from ..experiments.scenarios import get_scenario

                        spec = ExperimentSpec.from_dict(p["spec"])
                        scenario = get_scenario(spec.name)
                        payload = dict(scenario.run_seed(
                            spec, seed, run_dir / CHECKPOINT_DIR_NAME))
                        payload.setdefault("series", {})
                        payload.setdefault("checkpoints", {})
                        payload["seed"] = seed
                        payload["duration_s"] = round(
                            time.perf_counter() - t0, 3)
                        if sp is not None:
                            sp.set(duration_s=payload["duration_s"],
                                   metrics=payload.get("metrics", {}))
                    except Exception:
                        payload = {
                            "seed": seed,
                            "status": "error",
                            "error": traceback.format_exc(limit=20),
                            "metrics": {}, "series": {}, "checkpoints": {},
                        }
                        if sp is not None:
                            sp.set(status="error")
                obs.emit_kernel_stats(kernel_baseline)

            record = {
                "experiment": p["experiment"],
                "run_id": p["run_id"],
                "repro_version": p.get("repro_version"),
                **payload,
            }
            record.setdefault("status", "ok")
            status = record["status"]

            # Final ownership check: if the lease is gone, another worker
            # owns (or finished) this task — do not write a duplicate.
            lost = keeper is not None and keeper.lost.is_set()
            if not lost and not queue.heartbeat(
                    task.task_id, worker_id, queue.busy_timeout_s):
                lost = True
            if lost:
                if tsp is not None:
                    tsp.set(status="stale")
                obs.event("task_done", task_id=task.task_id, seed=seed,
                          status="stale")
                return {"seed": seed, "status": "stale",
                        "duration_s": record.get("duration_s", 0.0)}

            append_jsonl(run_dir / RECORDS_NAME, record)
            result = {"seed": seed, "status": status,
                      "duration_s": record.get("duration_s", 0.0)}
            if tsp is not None:
                tsp.set(status=status)
            obs.event("task_done", task_id=task.task_id, seed=seed,
                      status=status,
                      duration_s=record.get("duration_s", 0.0))
    return result


#: The ``run_seed`` fields the worker uses before running the seed, and
#: the JSON type each must have.
_FIELD_TYPES = (("seed", int), ("run_dir", str))


def execute_task(queue: TaskQueue, task: Task, worker_id: str,
                 keeper: Optional[LeaseKeeper]) -> dict:
    """Run one claimed task.  A row :data:`protocol.MESSAGES` does not
    allow, or whose ``seed`` or ``run_dir`` has the wrong type (a corrupt
    or foreign queue file), is not run: it ends as an error result naming
    the kind or the field."""
    try:
        check_payload(MESSAGES, task.kind, task.payload)
        for field, want in _FIELD_TYPES:
            value = task.payload[field]
            if not isinstance(value, want) or isinstance(value, bool):
                raise ValueError(
                    f"{task.kind!r} payload field {field!r} must be "
                    f"{want.__name__}, got {type(value).__name__} "
                    f"{value!r}")
    except ValueError as exc:
        return {"status": "error", "error": str(exc)}
    return _run_seed(queue, task, worker_id, keeper)  # the one kind


def claim_loop(db_path: Union[str, "Path"], worker_id: str,
               lease_s: float = 30.0, poll_s: float = 0.05,
               expected_workers: Optional[int] = None,
               on_result: Optional[Callable[[Task, dict], None]] = None,
               ) -> None:
    """Pull tasks until the queue is drained.

    ``expected_workers`` arms the fan-out barrier
    (:meth:`TaskQueue.wait_for_fan_out`) before this worker's second
    claim, so a fast starter cannot drain the queue while its peers are
    still starting; ``on_result`` fires after each successful
    ``complete`` — the inline (single-process) execution path uses it to
    stream progress without polling the DB.
    """
    queue = TaskQueue(db_path)
    queue.register_worker(worker_id, os.getpid())
    fan_out = expected_workers is not None and expected_workers > 1
    claimed = False
    while True:
        if claimed and fan_out:
            queue.wait_for_fan_out(expected_workers)
            fan_out = False
        task = queue.claim(worker_id, lease_s)
        if task is None:
            if queue.remaining() == 0:
                return
            queue.worker_seen(worker_id)
            time.sleep(poll_s)
            continue
        claimed = True
        keeper = LeaseKeeper(queue, task.task_id, worker_id, lease_s)
        keeper.start()
        try:
            result = execute_task(queue, task, worker_id, keeper)
        finally:
            keeper.stop()
        if keeper.lost.is_set() or result.get("status") == "stale":
            continue
        if queue.complete(task.task_id, worker_id, result):
            if on_result is not None:
                on_result(task, result)
        queue.worker_seen(worker_id)


def worker_main(db_path: str, worker_id: str, lease_s: float,
                poll_s: float, expected_workers: Optional[int]) -> None:
    """Spawn entry point: one process, one :func:`claim_loop`."""
    claim_loop(db_path, worker_id, lease_s=lease_s, poll_s=poll_s,
               expected_workers=expected_workers)
