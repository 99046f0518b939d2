"""Spawn-based worker pool over a :class:`~repro.exec.queue.TaskQueue`.

The pool is a supervisor, not an executor: workers pull their own work
from the queue (:func:`~repro.exec.worker.claim_loop`), so the parent
only watches — draining finished results to a callback, requeuing
expired leases, replacing dead workers, and publishing queue-depth /
lease-expiry metrics.  Killing a worker (or the whole process tree)
therefore loses at most the leases it held, never the queue.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from .. import obs
from .queue import Task, TaskQueue
from .worker import claim_loop, worker_main

#: Env var: hard override of the worker fleet width, fleet-wide (the
#: WorkerPool under both runners and ``python -m repro cluster``
#: resolve their defaults through :func:`default_workers`).
DEFAULT_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_workers(cap: Optional[int] = None) -> int:
    """The one worker-count policy for the whole repo.

    ``REPRO_MAX_WORKERS`` (when set to an integer >= 1) wins outright —
    it is an explicit operator override, so ``cap`` does not apply.
    Otherwise: ``min(os.cpu_count(), cap)``, floor 1.
    """
    raw = os.environ.get(DEFAULT_WORKERS_ENV)
    if raw is not None:
        try:
            value = int(raw.strip())
        except ValueError:
            value = 0
        if value >= 1:
            return value
    workers = os.cpu_count() or 1
    if cap is not None:
        workers = min(workers, int(cap))
    return max(1, workers)


class WorkerPool:
    """Run a queue to empty across ``workers`` spawned processes.

    Parameters
    ----------
    queue:
        The :class:`TaskQueue` to drain (already populated).
    workers:
        Fleet width; ``None`` resolves via :func:`default_workers`
        capped at the queue's remaining task count.  ``<= 1`` runs the
        claim loop inline in this process.
    lease_s / poll_s:
        Task lease length and supervision/claim poll interval.
    max_restarts:
        Dead workers are replaced up to this many times pool-wide
        (default ``2 * workers``); after that, remaining work drains
        inline so the run still completes.
    """

    def __init__(self, queue: TaskQueue, workers: Optional[int] = None,
                 lease_s: float = 30.0, poll_s: float = 0.05,
                 max_restarts: Optional[int] = None):
        if workers is None:
            workers = min(default_workers(), max(1, queue.remaining()))
        self.queue = queue
        self.workers = max(1, int(workers))
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.max_restarts = (2 * self.workers if max_restarts is None
                             else int(max_restarts))
        self._procs = {}  # worker_id -> Process

    # -- public ----------------------------------------------------------

    def run(self, on_task_done: Optional[Callable[[Task, dict], None]] = None,
            progress: Optional[Callable[[str], None]] = None) -> None:
        """Block until the queue is drained; stream results via callback.

        ``on_task_done(task, result)`` fires exactly once per finished
        task (done or failed), in finish order.
        """
        seen = set()
        if self.workers <= 1 or self.queue.remaining() <= 1:
            claim_loop(self.queue.path, "w0", lease_s=self.lease_s,
                       poll_s=self.poll_s,
                       on_result=self._eager(on_task_done, seen))
            self._drain_finished(on_task_done, seen)
            return
        try:
            self._spawn_all()
        except OSError as exc:
            # Sandboxes without spawn support: degrade to inline.
            if progress is not None:
                progress(f"worker spawn unavailable ({exc}); "
                         "running tasks inline")
            claim_loop(self.queue.path, "w0", lease_s=self.lease_s,
                       poll_s=self.poll_s,
                       on_result=self._eager(on_task_done, seen))
            self._drain_finished(on_task_done, seen)
            return
        self._supervise(on_task_done, progress, seen)

    # -- internals -------------------------------------------------------

    @staticmethod
    def _eager(on_task_done, seen):
        if on_task_done is None:
            return None

        def cb(task: Task, result: dict) -> None:
            seen.add(task.task_id)
            on_task_done(task, result)
        return cb

    def _spawn_all(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        for i in range(self.workers):
            wid = f"w{i}"
            proc = ctx.Process(
                target=worker_main,
                args=(str(self.queue.path), wid, self.lease_s,
                      self.poll_s, self.workers),
                daemon=False)
            proc.start()
            self._procs[wid] = proc

    def _supervise(self, on_task_done, progress, seen) -> None:
        restarts = 0
        generation = 0
        while True:
            self._drain_finished(on_task_done, seen)
            remaining = self.queue.remaining()
            obs.gauge("exec_queue_depth", float(remaining))
            if remaining == 0:
                break
            requeued = self.queue.requeue_expired()
            for _ in requeued:
                obs.counter("exec_lease_requeues")
            if requeued and progress is not None:
                progress(f"requeued {len(requeued)} expired lease(s)")
            dead = [(wid, proc) for wid, proc in self._procs.items()
                    if not proc.is_alive()]
            for wid, proc in dead:
                del self._procs[wid]
                released = self.queue.release(wid)
                obs.counter("exec_worker_deaths")
                for _ in released:
                    obs.counter("exec_lease_requeues")
                if progress is not None:
                    progress(f"worker {wid} died (exit {proc.exitcode}); "
                             f"requeued {len(released)} task(s)")
                if restarts < self.max_restarts:
                    restarts += 1
                    generation += 1
                    self._respawn(wid, generation)
                    obs.counter("exec_worker_restarts")
            if not self._procs:
                # Fleet exhausted its restart budget: finish inline so
                # the run completes rather than hanging.
                if progress is not None:
                    progress("all workers dead; draining queue inline")
                self.queue.requeue_expired(now=float("inf"))
                claim_loop(self.queue.path, "w-inline",
                           lease_s=self.lease_s, poll_s=self.poll_s,
                           on_result=self._eager(on_task_done, seen))
            time.sleep(self.poll_s)
        self._drain_finished(on_task_done, seen)
        obs.gauge("exec_queue_depth", 0.0)
        for proc in self._procs.values():
            proc.join(timeout=max(5.0, 2 * self.lease_s))
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        self._procs.clear()

    def _respawn(self, died_wid: str, generation: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        wid = f"{died_wid.split('.')[0]}.{generation}"
        try:
            proc = ctx.Process(
                target=worker_main,
                args=(str(self.queue.path), wid, self.lease_s,
                      self.poll_s, None),
                daemon=False)
            proc.start()
        except OSError:
            return
        self._procs[wid] = proc

    def _drain_finished(self, on_task_done, seen) -> None:
        if on_task_done is None:
            return
        for task in self.queue.finished():
            if task.task_id in seen:
                continue
            seen.add(task.task_id)
            on_task_done(task, task.result or {})
