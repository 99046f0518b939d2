"""The cluster front end: routes HTTP requests onto worker processes.

:class:`ClusterService` duck-types :class:`~repro.serve.service.
InferenceService` — ``predict`` / ``predict_many`` / ``healthz`` /
``metrics`` / ``shutdown`` — so the stdlib HTTP layer
(:class:`~repro.serve.http.InferenceHTTPServer`) serves a whole cluster
with the same handler it uses for one in-process service.  What changes is
what happens behind those calls:

* **routing** — each request goes to the *least-loaded* live worker
  (fewest in-flight requests), claimed atomically so two front-end threads
  cannot both land on a "free" slot that only fits one;
* **admission control** — every worker has a bounded in-flight budget;
  when all budgets are full the request is refused with
  :class:`~repro.serve.errors.Overloaded`, which the HTTP layer turns into
  ``503`` + ``Retry-After``.  Shedding load at the door keeps worker
  queues (and therefore p99) bounded instead of letting them grow without
  limit;
* **failure propagation** — a worker dying mid-request fails that request
  loudly (HTTP 500), never silently: accepted requests are either
  answered or errored, a guarantee the supervision tests pin down.  A
  worker's 404 (unknown model) and 400 (malformed input) come back as
  the ``KeyError`` and :class:`~repro.serve.errors.InvalidInput` the
  in-process service raises, so the HTTP layer answers them alike;
* **aggregation** — ``/metrics`` merges the front end's own latency
  telemetry with every worker's full metrics payload, per-slot supervisor
  state, and restart counts; ``/healthz`` reflects worker *quorum*, not
  just front-end liveness;
* **control plane** — ``handle_admin`` exposes ``POST /admin/swap`` for
  rolling hot-swap, keeping single-process servers free of admin routes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import List, Optional, Sequence

from .. import obs
from ..serve.errors import InvalidInput, Overloaded, WorkerDied, as_input
from ..serve.telemetry import Telemetry, merge_batch_histograms
from . import protocol
from .supervisor import Supervisor, WorkerHandle


class ClusterService:
    """InferenceService-shaped facade over a supervised worker pool.

    Parameters
    ----------
    supervisor:
        A started :class:`~repro.cluster.supervisor.Supervisor`.
    max_inflight_per_worker:
        Admission-control bound: requests a single worker may hold
        (queued + executing) before the front end refuses new ones for it.
    request_timeout_s:
        Per-request worker deadline; a worker replaced mid-request fails
        the request well before this fires.
    """

    def __init__(self, supervisor: Supervisor,
                 max_inflight_per_worker: int = 32,
                 request_timeout_s: float = 60.0):
        if max_inflight_per_worker < 1:
            raise ValueError("max_inflight_per_worker must be >= 1")
        self.supervisor = supervisor
        self.max_inflight_per_worker = int(max_inflight_per_worker)
        self.request_timeout_s = float(request_timeout_s)
        self.telemetry = Telemetry()
        self._rejected = 0  # guarded-by: _count_lock
        self._count_lock = threading.Lock()

    # -- routing ---------------------------------------------------------

    def _acquire_worker(self) -> Optional[WorkerHandle]:
        """Claim an in-flight slot on the least-loaded routable worker.

        The inflight read used for ordering is a racy snapshot; the
        ``acquire`` that follows is the atomic admission check, so the
        worst a race costs is slightly suboptimal ordering, never an
        over-admitted worker.
        """
        handles = self.supervisor.live_handles()
        for handle in sorted(handles, key=lambda h: h.inflight):
            if handle.acquire(self.max_inflight_per_worker):
                return handle
        return None

    def _roundtrip(self, kind: str, body: dict) -> dict:
        # A worker can die between acquire() and the pipe write (crash not
        # yet noticed by the supervisor).  When the send itself fails the
        # request provably never reached the worker, so rerouting to
        # another worker is safe; once it is on the wire it must fail
        # loudly instead — it may have been half-handled.
        for _ in range(self.supervisor.n_workers + 1):
            handle = self._acquire_worker()
            if handle is None:
                with self._count_lock:
                    self._rejected += 1
                obs.counter("cluster_rejected")
                raise Overloaded(
                    f"all {len(self.supervisor.live_handles())} live "
                    f"workers at max in-flight "
                    f"({self.max_inflight_per_worker})",
                    retry_after_s=1.0)
            try:
                future = handle.request(kind, body)
            except WorkerDied:
                handle.release()
                continue  # never delivered: safe to try another worker
            except ValueError:  # a message the protocol does not allow
                handle.release()
                raise
            break
        else:
            self.telemetry.record_error()
            raise RuntimeError(
                "every live worker died before the request could be "
                "dispatched")
        try:
            response = future.result(timeout=self.request_timeout_s)
        except WorkerDied:
            # The request was accepted; it must fail loudly, not vanish.
            self.telemetry.record_error()
            raise RuntimeError(
                f"worker {handle.slot} (pid {handle.pid}) died while "
                f"handling the request") from None
        except FutureTimeout:
            self.telemetry.record_error()
            raise RuntimeError(
                f"worker {handle.slot} (pid {handle.pid}) exceeded the "
                f"{self.request_timeout_s:.0f}s request deadline") from None
        finally:
            handle.release()
        if not response.get("ok"):
            error = response.get("error", "worker error")
            self.telemetry.record_error()
            if response.get("status") == 404:
                raise KeyError(error)
            if response.get("status") == 400:
                raise InvalidInput(error)
            raise RuntimeError(error)
        value = response["value"]
        self._stamp(value, handle)
        return value

    @staticmethod
    def _stamp(value, handle: WorkerHandle) -> None:
        """Mark which worker answered — load attribution for clients/tests."""
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, dict):
                item["worker"] = {"slot": handle.slot, "pid": handle.pid}

    # -- data plane (InferenceService-shaped) ----------------------------

    def predict(self, x, model: Optional[str] = None,
                version: Optional[str] = None, use_cache: bool = True,
                ) -> dict:
        t0 = time.perf_counter()
        body = {"input": self._as_input(x),
                "model": model, "version": version, "use_cache": use_cache}
        value = self._roundtrip(protocol.PREDICT, body)
        self._record(value, (time.perf_counter() - t0) * 1e3)
        return value

    def predict_many(self, X: Sequence, model: Optional[str] = None,
                     version: Optional[str] = None,
                     use_cache: bool = True) -> list:
        """A list request stays on one worker: the items are submitted to
        that worker's micro-batcher together, which is the whole point of
        sending them as one request."""
        t0 = time.perf_counter()
        body = {"inputs": [self._as_input(x) for x in X],
                "model": model, "version": version, "use_cache": use_cache}
        values = self._roundtrip(protocol.PREDICT_MANY, body)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        for value in values:
            self._record(value, elapsed_ms / max(1, len(values)))
        return values

    def _as_input(self, x):
        """``x`` as a float array for the pipe.  Anything but numbers fails
        here, counted as an error, before it takes a worker's slot; the
        worker checks the shape and finiteness."""
        try:
            return as_input(x)
        except InvalidInput:
            self.telemetry.record_error()
            raise

    def _record(self, value: dict, latency_ms: float) -> None:
        self.telemetry.record(
            latency_ms, float(value.get("queue_ms", 0.0)),
            int(value.get("batch_size", 0)),
            cached=bool(value.get("cached")),
            energy_mj=float(value.get("energy_mj", 0.0)))

    # -- control plane ---------------------------------------------------

    def handle_admin(self, path: str, request: dict) -> dict:
        """Admin routes; exposing this method is what turns on ``/admin/*``.

        ``POST /admin/swap`` body ``{"source": ..., "store_root": ...}``
        rolls every worker onto the new checkpoint, one at a time.
        """
        if path == "/admin/swap":
            source = request.get("source")
            if not source:
                raise ValueError('body needs "source" (checkpoint stem, '
                                 'directory, or run id)')
            return self.supervisor.rolling_swap(
                str(source), store_root=request.get("store_root"))
        raise KeyError(f"no admin route {path}")

    # -- introspection ---------------------------------------------------

    def healthz(self) -> dict:
        """Quorum-aware liveness: ``ok`` needs >= quorum live workers."""
        live = self.supervisor.live_count()
        if live >= self.supervisor.quorum:
            status = "ok"
        elif live > 0:
            status = "degraded"
        else:
            status = "down"
        snap = self.telemetry.snapshot()
        return {
            "status": status,
            "workers": self.supervisor.n_workers,
            "live_workers": live,
            "quorum": self.supervisor.quorum,
            "restarts": self.supervisor.restarts_total(),
            "requests": snap["requests"],
            "uptime_s": round(snap["uptime_s"], 3),
            "pid": os.getpid(),
        }

    def metrics(self) -> dict:
        """Front-end telemetry + per-worker metrics + supervisor state.

        Worker metrics are fetched over the control plane with a short
        deadline; a worker that cannot answer (dead, wedged, mid-restart)
        appears with its supervisor-side state only — a scrape never
        hangs on a sick worker.
        """
        payload = self.telemetry.snapshot()
        payload["pid"] = os.getpid()
        with self._count_lock:
            payload["rejected_503"] = self._rejected
        payload["admission"] = {
            "max_inflight_per_worker": self.max_inflight_per_worker,
            "capacity": (self.max_inflight_per_worker
                         * self.supervisor.n_workers),
        }
        payload["supervisor"] = {
            "workers": self.supervisor.n_workers,
            "live_workers": self.supervisor.live_count(),
            "quorum": self.supervisor.quorum,
            "restarts": self.supervisor.restarts_total(),
            "uptime_s": round(
                time.monotonic() - self.supervisor.started_at, 3),
            "source": self.supervisor.spec.source,
        }
        workers: List[dict] = []
        futures = []
        for info in self.supervisor.describe():
            handle = None
            for candidate in self.supervisor.live_handles():
                if candidate.slot == info["slot"]:
                    handle = candidate
                    break
            future = None
            if handle is not None:
                try:
                    future = handle.request(protocol.METRICS, {})
                except WorkerDied:
                    future = None
            futures.append((info, future))
        for info, future in futures:
            if future is not None:
                try:
                    response = future.result(timeout=5.0)
                    if response.get("ok"):
                        info["metrics"] = response["value"]
                except Exception:
                    pass  # supervisor-side state still describes the slot
            workers.append(info)
        payload["workers"] = workers
        # Fleet-wide registry view: each worker's obs snapshot (live from
        # the scrape above, else the last heartbeat-shipped one) merged
        # with per-worker labels, plus this front-end process's own.
        snaps, labels = [obs.metrics.snapshot()], [{"process": "frontend"}]
        for info in workers:
            snap = (info.get("metrics") or {}).get("obs") or info.get("obs")
            if snap:
                snaps.append(snap)
                labels.append({"worker": str(info["slot"])})
        payload["obs"] = obs.merge_snapshots(snaps, extra_labels=labels)
        payload["workers_batch_size_histogram"] = merge_batch_histograms(
            [(info.get("metrics") or {}).get("batch_size_histogram")
             for info in workers])
        return payload

    def pending(self) -> int:
        """Requests currently held by workers on behalf of this front end."""
        return sum(h.inflight for h in self.supervisor.live_handles())

    def final_snapshot(self) -> dict:
        """Shutdown-time summary from front-end state only.

        Safe to call after ``shutdown()``/``stop()``: it deliberately
        touches no worker control plane (the workers may already be
        gone), so the CLI can print what the cluster did — served,
        cached, errored, rejected, restarts — instead of discarding it
        with the processes.
        """
        snap = self.telemetry.snapshot()
        with self._count_lock:
            rejected = self._rejected
        return {
            "requests": snap["requests"],
            "cached_requests": snap["cached_requests"],
            "errors": snap["errors"],
            "rejected_503": rejected,
            "restarts": self.supervisor.restarts_total(),
            "uptime_s": round(snap["uptime_s"], 3),
            "latency_ms_p50": round(snap["latency_ms"]["p50"], 3),
            "latency_ms_p99": round(snap["latency_ms"]["p99"], 3),
            "energy_mj_total": round(snap["energy_mj_total"], 6),
        }

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Drain every worker's batchers; True only if all confirmed."""
        return self.supervisor.drain(
            timeout_s=timeout if timeout is not None else 30.0)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.supervisor.stop()
