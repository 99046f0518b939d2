"""The one planner under both runners.

:func:`run_seed_groups` is the whole execution path of a run or a
sweep.  It takes seed groups, one per run that has seeds to execute (a
plain run is one group, a sweep one per unfinished point), enqueues
every outstanding seed as a ``run_seed`` task on one fresh queue, drains
the queue with a :class:`~repro.exec.pool.WorkerPool`, and settles each
group through a callback once its last seed has landed.

This is the only module that calls ``queue.enqueue``; the worker checks
every task it claims against :data:`repro.exec.protocol.MESSAGES`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from .. import obs
from .pool import WorkerPool
from .protocol import RUN_SEED
from .queue import QUEUE_DB_NAME, Task, TaskQueue

if TYPE_CHECKING:  # repro.experiments imports this package
    from ..experiments.store import RunInfo


@dataclasses.dataclass(frozen=True)
class SeedGroup:
    """One run's outstanding seeds, in enqueue order.

    ``run`` is the owning run: its id and directory say where records
    land, and its manifest supplies the spec and version stamp every
    task carries.  ``point_id`` names the sweep point the run belongs to
    (``None`` for a plain run).
    """

    run: RunInfo
    seeds: Sequence[int]
    point_id: Optional[str] = None


def fresh_queue(directory: Path) -> TaskQueue:
    """A new, empty :class:`TaskQueue` at ``<directory>/queue.db``.

    Any stale queue file from a previous (possibly killed) invocation
    is removed first — the durable resume state lives in
    ``records.jsonl`` / the manifests, never in the queue.
    """
    db = Path(directory) / QUEUE_DB_NAME
    for suffix in ("", "-journal", "-wal", "-shm"):
        stale = db.parent / (db.name + suffix)
        if stale.exists():
            stale.unlink()
    return TaskQueue(db)


def enqueue_seed(queue: TaskQueue, *, experiment: str, run_id: str,
                 run_dir: str, spec: dict, seed: int,
                 repro_version: Optional[str] = None,
                 point_id: Optional[str] = None,
                 queue_parent: Optional[str] = None) -> str:
    """Enqueue one ``run_seed`` task; returns its task id."""
    payload = {
        "experiment": experiment,
        "run_id": run_id,
        "run_dir": str(run_dir),
        "spec": spec,
        "seed": int(seed),
        "repro_version": repro_version,
        "point_id": point_id,
        "queue_parent": queue_parent,
    }
    task_id = queue.enqueue(RUN_SEED, payload)
    obs.event("task_enqueue", task_id=task_id, seed=int(seed),
              run_id=run_id, point_id=point_id)
    return task_id


def run_seed_groups(groups: List[SeedGroup], directory: Path, *,
                    max_workers: Optional[int] = None,
                    queue_parent: Optional[str] = None,
                    progress: Optional[Callable[[str], None]] = None,
                    on_settled: Optional[Callable[[SeedGroup], None]] = None,
                    ) -> None:
    """Execute every group's seeds on one queue in ``directory``.

    ``max_workers`` is the fleet width (``None``: the pool's default,
    :func:`~repro.exec.pool.default_workers` capped at the task count);
    ``queue_parent`` is the caller's root span id, which every task
    span links to.  Each result emits one ``seed_finished`` event, one
    ``seeds_finished`` count and one progress line.  ``on_settled(group)``
    fires exactly once per group: straight away when it has no seeds,
    when its last seed's result lands, or after the drain when a
    queue-level failure left it unfinished.
    """
    queue = fresh_queue(directory)
    for group in groups:
        run = group.run
        for seed in group.seeds:
            enqueue_seed(
                queue,
                experiment=run.experiment,
                run_id=run.run_id,
                run_dir=str(run.path),
                spec=run.manifest["spec"],
                seed=seed,
                repro_version=run.manifest.get("repro_version"),
                point_id=group.point_id,
                queue_parent=queue_parent,
            )
    by_run = {group.run.run_id: group for group in groups}
    outstanding = {group.run.run_id: {int(s) for s in group.seeds}
                   for group in groups}

    def settle(group: SeedGroup) -> None:
        if outstanding.pop(group.run.run_id, None) is not None \
                and on_settled is not None:
            on_settled(group)

    def on_done(task: Task, result: dict) -> None:
        group = by_run[task.payload["run_id"]]
        seed = result.get("seed", task.payload.get("seed"))
        status = result.get("status", "error")
        duration = result.get("duration_s")
        point = {} if group.point_id is None else \
            {"point_id": group.point_id}
        obs.event("seed_finished", seed=seed, status=status,
                  duration_s=duration, **point)
        obs.counter("seeds_finished", experiment=group.run.experiment,
                    status=status)
        if progress is not None:
            where = "" if group.point_id is None else \
                f"point {group.point_id} "
            progress(f"{where}seed {seed}: {status} ({duration}s)")
        pending = outstanding.get(group.run.run_id)
        if pending is not None:
            pending.discard(int(seed))
            if not pending:
                settle(group)

    for group in groups:
        if not group.seeds:
            settle(group)
    WorkerPool(queue, workers=max_workers).run(
        on_task_done=on_done, progress=progress)
    for group in groups:
        settle(group)
