"""Supervised multi-process serving tier.

One front-end HTTP router process fans requests out over per-worker
request/response pipes to N model-worker processes.  Each worker owns its
own :class:`~repro.serve.registry.ModelRegistry`,
:class:`~repro.serve.batcher.MicroBatcher`, and
:class:`~repro.serve.cache.PredictionCache`, self-loaded from a checkpoint
source — workers share nothing, so one crashing cannot corrupt another.

The pieces:

* :class:`WorkerSpec` (:mod:`~repro.cluster.protocol`) — the picklable
  recipe a worker self-loads from; the wire protocol between front end
  and workers lives beside it;
* :mod:`~repro.cluster.worker` — the worker process: pipe receive loop,
  threaded handlers feeding the micro-batcher, heartbeats, in-place
  hot-swap, graceful drain;
* :class:`Supervisor` — spawns workers, watches heartbeats, restarts
  crashed or wedged workers with exponential backoff, and performs
  one-at-a-time rolling hot-swap;
* :class:`ClusterService` — the router: least-loaded dispatch, bounded
  per-worker in-flight admission control (``503`` + ``Retry-After`` on
  overload), quorum ``/healthz``, aggregated ``/metrics``, and the
  ``POST /admin/swap`` control plane.  It duck-types
  :class:`~repro.serve.service.InferenceService`, so the stdlib
  :class:`~repro.serve.http.InferenceHTTPServer` fronts it unchanged.

``python -m repro cluster <checkpoint|run-id> --workers N`` wires it to
the CLI; ``benchmarks/bench_serving_cluster.py`` gates the scaling claim
and ``examples/cluster_quickstart.py`` is the CI smoke driver.
"""

from .frontend import ClusterService
from .protocol import WorkerSpec
from .supervisor import ClusterError, Supervisor, WorkerHandle, backoff_delay

__all__ = [
    "ClusterError", "ClusterService", "Supervisor", "WorkerHandle",
    "WorkerSpec", "backoff_delay",
]
