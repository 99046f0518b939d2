"""The in-process inference service facade.

Glues the serving pieces together behind one ``predict`` call:

1. resolve the request's (model, version) through the
   :class:`~repro.serve.registry.ModelRegistry` (hot-swap aware);
2. probe the :class:`~repro.serve.cache.PredictionCache` — a hit answers
   immediately with zero modeled chip energy;
3. on a miss, submit to that entry's
   :class:`~repro.serve.batcher.MicroBatcher` (one batcher per active
   (name, version), created lazily) and wait for the batched result;
4. record telemetry (latency, queue wait, batch size, cache outcome,
   energy) and fill the cache.

Model hot-swaps invalidate the swapped name's cache entries; requests
already in the old version's batcher finish on the weights they started
on, and the old batcher stays alive for explicitly version-pinned
requests until ``shutdown()`` closes every batcher (in-flight requests
complete; new ones are refused).  One batcher per served (name, version)
is the steady state — its ``workers`` threads each — bounded by the
number of registered versions.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .batcher import MicroBatcher
from .cache import PredictionCache
from .errors import as_input
from .registry import ModelEntry, ModelRegistry
from .telemetry import Telemetry


class InferenceService:
    """Request/response predictions over a registry of batched models.

    Parameters
    ----------
    registry:
        The model registry to serve from (may keep gaining models and
        versions while the service runs).
    max_batch / max_wait_ms / workers:
        Micro-batching knobs for every per-model batcher: each of its
        ``workers`` threads takes every queued request, up to
        ``max_batch``, as soon as it is idle.  No request is held back for
        its batch to fill, so every ``max_wait_ms`` >= 0 is met; it is kept,
        and reported in ``/metrics``, for callers that pass it.  Values
        below 1 (below 0 for ``max_wait_ms``) raise ``ValueError``.
    cache_size:
        LRU prediction-cache capacity (``0`` disables caching).
    """

    def __init__(self, registry: ModelRegistry, max_batch: int = 32,
                 max_wait_ms: float = 5.0, cache_size: int = 1024,
                 workers: int = 1):
        for name, value, low in (("max_batch", max_batch, 1),
                                 ("max_wait_ms", max_wait_ms, 0),
                                 ("workers", workers, 1)):
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.workers = int(workers)
        self.cache = PredictionCache(cache_size)
        self.telemetry = Telemetry()
        self._batchers: Dict[Tuple[str, str], MicroBatcher] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        registry.subscribe(self._on_swap)

    # -- hot-swap plumbing ----------------------------------------------

    def _on_swap(self, name: str, old_version: Optional[str],
                 new_version: str) -> None:
        """Registry activated a new version: drop the name's stale cache.

        The old version's batcher is deliberately left running: a request
        that resolved the old entry moments before the swap must still be
        servable (closing it here would race ``predict`` between
        ``_batcher()`` and ``submit()``), and explicitly version-pinned
        requests keep using it.  ``shutdown()`` closes it with the rest.
        """
        del old_version, new_version
        self.cache.invalidate(name)

    def _batcher(self, entry: ModelEntry) -> MicroBatcher:
        key = (entry.name, entry.version)
        with self._lock:
            if self._closed:
                raise RuntimeError("InferenceService is shut down")
            batcher = self._batchers.get(key)
            if batcher is None:
                batcher = MicroBatcher(
                    entry.model.predict_batch, max_batch=self.max_batch,
                    workers=self.workers)
                self._batchers[key] = batcher
            return batcher

    # -- request path ----------------------------------------------------

    def predict(self, x: np.ndarray, model: Optional[str] = None,
                version: Optional[str] = None, use_cache: bool = True,
                ) -> dict:
        """Answer one single-sample prediction request.

        Returns a JSON-ready dict: ``prediction``, the serving ``model`` /
        ``version``, ``cached``, ``batch_size`` (0 for cache hits),
        ``queue_ms``, ``latency_ms``, and the modeled ``energy_mj``.
        ``x`` must be a 1-D vector of the model's input width, all finite
        numbers; otherwise :class:`~repro.serve.errors.InvalidInput`.
        """
        return self._gather(self._begin([x], model, version, use_cache)[0])

    def _begin(self, X: Sequence, model: Optional[str],
               version: Optional[str], use_cache: bool) -> list:
        """Resolve + cache-probe + batcher-submit requests (non-blocking).

        Every input is checked against the resolved model before any is
        submitted: one malformed input raises
        :class:`~repro.serve.errors.InvalidInput` and leaves no request of
        its list behind in a batcher.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("InferenceService is shut down")
        t0 = time.perf_counter()
        started = []
        try:
            entry = self.registry.resolve(model, version)
            for x in [as_input(x, entry.dims[0]) for x in X]:
                key = self.cache.key(x, entry.name, entry.version)
                hit = self.cache.get(key) if use_cache else None
                started.append(
                    {"t0": t0, "entry": entry, "hit": hit} if hit is not None
                    else {"t0": t0, "entry": entry, "key": key,
                          "future": self._batcher(entry).submit(x)})
        except Exception:
            self.telemetry.record_error()
            raise
        return started

    def _gather(self, state: dict) -> dict:
        """Wait for a begun request and record its telemetry."""
        entry = state["entry"]
        if "hit" in state:
            latency_ms = (time.perf_counter() - state["t0"]) * 1e3
            self.telemetry.record(latency_ms, 0.0, 0, cached=True,
                                  energy_mj=0.0)
            obs.counter("serve_requests", model=entry.name, outcome="hit")
            obs.observe("serve_latency_ms", latency_ms, outcome="hit")
            return self._response(state["hit"], entry, cached=True,
                                  batch_size=0, queue_ms=0.0,
                                  latency_ms=latency_ms, energy_mj=0.0)
        try:
            item = state["future"].result()
        except Exception:
            self.telemetry.record_error()
            obs.counter("serve_requests", model=entry.name, outcome="error")
            raise
        value = int(item.value)
        self.cache.put(state["key"], value)
        latency_ms = (time.perf_counter() - state["t0"]) * 1e3
        self.telemetry.record(latency_ms, item.queue_ms, item.batch_size,
                              cached=False,
                              energy_mj=entry.energy_mj_per_request)
        obs.counter("serve_requests", model=entry.name, outcome="miss")
        obs.observe("serve_latency_ms", latency_ms, outcome="miss")
        return self._response(value, entry, cached=False,
                              batch_size=item.batch_size,
                              queue_ms=item.queue_ms, latency_ms=latency_ms,
                              energy_mj=entry.energy_mj_per_request)

    @staticmethod
    def _response(value, entry: ModelEntry, cached: bool, batch_size: int,
                  queue_ms: float, latency_ms: float,
                  energy_mj: float) -> dict:
        return {
            "prediction": int(value),
            "model": entry.name,
            "version": entry.version,
            "cached": cached,
            "batch_size": batch_size,
            "queue_ms": round(queue_ms, 3),
            "latency_ms": round(latency_ms, 3),
            "energy_mj": energy_mj if not cached else 0.0,
        }

    def predict_many(self, X: Sequence, model: Optional[str] = None,
                     version: Optional[str] = None,
                     use_cache: bool = True) -> list:
        """Predict a whole list: all requests are submitted *before* any is
        awaited, so they coalesce into micro-batches even from a single
        caller thread (a sequential ``predict`` loop dispatches each
        sample alone and waits out one runner call per sample).  A
        malformed input fails the whole list before any is submitted."""
        started = self._begin(X, model, version, use_cache)
        return [self._gather(state) for state in started]

    # -- introspection ---------------------------------------------------

    def pending(self) -> int:
        """Requests queued in batchers but not yet dispatched."""
        with self._lock:
            batchers = list(self._batchers.values())
        return sum(b.pending() for b in batchers)

    def healthz(self) -> dict:
        snap = self.telemetry.snapshot()
        with self._lock:
            closed = self._closed
        return {
            "status": "down" if closed else "ok",
            "models": len(self.registry),
            "requests": snap["requests"],
            "uptime_s": round(snap["uptime_s"], 3),
            "pid": os.getpid(),
        }

    def metrics(self) -> dict:
        """The ``/metrics`` payload: telemetry + cache + model listing.

        Besides the aggregate telemetry, the payload identifies *which*
        process and *which* model versions produced it (``pid``,
        ``uptime_s``, ``active_versions``) — in a cluster, the aggregated
        view needs to attribute load to individual workers, and a bare
        latency histogram cannot.
        """
        payload = self.telemetry.snapshot()
        payload["pid"] = os.getpid()
        payload["cache"] = self.cache.stats()
        payload["models"] = self.registry.models()
        payload["active_versions"] = self.registry.active_versions()
        payload["pending"] = self.pending()
        # Snapshot under the lock: _batcher() inserts and shutdown()'s
        # clear() mutate the dict concurrently with /metrics scrapes.
        with self._lock:
            active_batchers = len(self._batchers)
        payload["batching"] = {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "workers": self.workers,
            "active_batchers": active_batchers,
        }
        payload["obs"] = obs.metrics.snapshot()
        return payload

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain every batcher (in-flight requests finish) and stop.

        Returns ``True`` when every batcher drained — with a ``timeout``,
        ``False`` means at least one close timed out with requests still
        in flight.  The timeout applies per batcher.  Undrained batchers
        stay registered so a later ``shutdown()`` call re-joins them
        instead of vacuously succeeding; only a ``True`` return means the
        drain actually happened.
        """
        with self._lock:
            self._closed = True  # _batcher() refuses new entries from here
            batchers = dict(self._batchers)
        drained = True
        for key, batcher in batchers.items():
            if batcher.close(timeout):
                with self._lock:
                    self._batchers.pop(key, None)
            else:
                drained = False
        return drained

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
