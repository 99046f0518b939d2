"""``repro.exec`` — the shared work-queue executor.

One planner under both :class:`~repro.experiments.runner.Runner` and
:class:`~repro.sweeps.runner.SweepRunner`: :func:`run_seed_groups`
takes seed groups (a plain run is one group, a sweep one per unfinished
point), enqueues their ``run_seed`` tasks onto a file/SQLite-backed
:class:`TaskQueue`, drains it with a spawn-based :class:`WorkerPool`
whose workers pull, lease, heartbeat and execute them through the
existing scenario machinery, and settles each group once its last seed
lands.  Results land in the existing ``runs/`` store byte-compatibly.
The queue file is ephemeral per invocation (rebuilt from the durable
resume state each start) but left on disk afterwards for inspection.

See :mod:`repro.exec.protocol` for the task wire format (checked by the
worker on every claimed task) and :mod:`repro.exec.queue` for the
lease/requeue lifecycle that makes preemption (SIGKILL a worker
mid-task) safe.
"""

from .planner import SeedGroup, enqueue_seed, run_seed_groups
from .pool import DEFAULT_WORKERS_ENV, WorkerPool, default_workers
from .protocol import MESSAGES, RUN_SEED
from .queue import QUEUE_DB_NAME, Task, TaskQueue
from .worker import INJECT_DELAY_ENV, claim_loop, worker_main

__all__ = [
    "TaskQueue", "Task", "QUEUE_DB_NAME",
    "WorkerPool", "default_workers", "DEFAULT_WORKERS_ENV",
    "SeedGroup", "run_seed_groups", "enqueue_seed", "claim_loop",
    "worker_main",
    "RUN_SEED", "MESSAGES", "INJECT_DELAY_ENV",
]
