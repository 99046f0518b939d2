"""The model-worker process: one registry + micro-batcher per process.

``worker_main`` is the spawn target.  It self-loads its models from the
:class:`~repro.cluster.protocol.WorkerSpec`'s checkpoint source (workers
never inherit live objects from the parent), builds a private
:class:`~repro.serve.service.InferenceService` — registry, micro-batcher,
prediction cache, telemetry — and then serves the duplex pipe:

* a receive loop dispatches data-plane requests onto a small thread pool,
  so requests that queue while the micro-batcher's worker is busy
  coalesce into its next batch, as in the single-process server;
* a heartbeat thread reports light load stats every ``heartbeat_s`` —
  the supervisor treats silence as a wedged worker and replaces it;
* ``swap`` loads a new checkpoint *into the running registry* and
  activates it (the PR 3 hot-swap), so a rolling swap never leaves the
  worker without a servable model;
* ``drain`` closes the micro-batchers gracefully (in-flight requests
  finish), answers with the drained bool, and exits.

SIGINT is ignored: a Ctrl-C in the terminal reaches the whole process
group, and the *front end* owns the shutdown choreography — workers only
exit on ``drain``, on a broken pipe (parent died), or on SIGTERM/SIGKILL
from the supervisor replacing them.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .. import obs
from ..persist import checkpoint_paths
from ..serve import InferenceService, ModelRegistry
from ..serve.errors import InvalidInput
from . import protocol
from .protocol import WorkerSpec


class _Worker:
    def __init__(self, conn, spec: WorkerSpec):
        self.conn = conn
        self.spec = spec
        self.started = time.monotonic()
        self.registry = ModelRegistry()
        self.registry.load_source(spec.source, store_root=spec.store_root)
        self.service = InferenceService(
            self.registry, max_batch=spec.max_batch,
            max_wait_ms=spec.max_wait_ms, cache_size=spec.cache_size,
            workers=spec.batch_workers)
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._inflight = 0  # guarded-by: _inflight_lock
        self._inflight_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, spec.handler_threads),
            thread_name_prefix="cluster-handler")

    # -- plumbing --------------------------------------------------------

    def send(self, kind: str, msg_id: int, payload) -> None:
        """Pipe writes come from handler threads and the heartbeat thread;
        ``Connection.send`` is not thread-safe, so serialize them."""
        message = protocol.message(kind, msg_id, payload)
        with self._send_lock:
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                # Parent is gone; the receive loop will see EOF and exit.
                self._stop.set()

    def stats(self) -> dict:
        with self._inflight_lock:
            inflight = self._inflight
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests": self.service.telemetry.requests,
            "errors": self.service.telemetry.errors,
            "pending": self.service.pending(),
            "inflight": inflight,
            "versions": self.registry.active_versions(),
            # Metric shipping rides the heartbeat: the registry snapshot
            # is a plain dict, so the supervisor-side handle just keeps
            # the latest one and the front end merges across workers.
            "obs": obs.metrics.snapshot(),
        }

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.spec.heartbeat_s):
            self.send(protocol.HEARTBEAT, 0, self.stats())

    # -- request handlers ------------------------------------------------

    def _handle_predict(self, kind: str, msg_id: int, body: dict) -> None:
        with self._inflight_lock:
            self._inflight += 1
        try:
            if kind == protocol.PREDICT:
                value = self.service.predict(
                    body["input"], model=body.get("model"),
                    version=body.get("version"),
                    use_cache=body.get("use_cache", True))
            else:
                value = self.service.predict_many(
                    body["inputs"], model=body.get("model"),
                    version=body.get("version"),
                    use_cache=body.get("use_cache", True))
        except KeyError as exc:  # unknown model/version
            self.send(protocol.RESPONSE, msg_id, {
                "ok": False, "status": 404, "error": str(exc.args[0])})
        except InvalidInput as exc:  # not a sample the model takes
            self.send(protocol.RESPONSE, msg_id, {
                "ok": False, "status": 400, "error": str(exc)})
        except Exception as exc:
            self.send(protocol.RESPONSE, msg_id, {
                "ok": False, "status": 500,
                "error": f"{type(exc).__name__}: {exc}"})
        else:
            self.send(protocol.RESPONSE, msg_id,
                      {"ok": True, "value": value})
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _handle_swap(self, msg_id: int, body: dict) -> None:
        """Load ``body["source"]`` and hot-swap it into the registry.

        A single-stem source on a worker serving exactly one name becomes
        a *new version of that name* regardless of the stem's filename —
        that is the rolling-upgrade case, and pinning the name is what
        makes the registry's activate() a hot-swap instead of a second,
        never-resolved model.  Multi-model workers (or directory/run-id
        sources) go through ``load_source`` unchanged: matching names
        version-bump, new names appear alongside.
        """
        source = body["source"]
        try:
            names = set(self.registry.active_versions())
            npz_path, json_path = checkpoint_paths(Path(source))
            if len(names) == 1 and (npz_path.exists() or json_path.exists()):
                self.registry.load(source, name=next(iter(names)))
            else:
                self.registry.load_source(
                    source, store_root=body.get("store_root",
                                                self.spec.store_root))
        except Exception as exc:
            self.send(protocol.RESPONSE, msg_id, {
                "ok": False, "status": 500,
                "error": f"{type(exc).__name__}: {exc}"})
        else:
            self.send(protocol.RESPONSE, msg_id, {
                "ok": True,
                "value": {"versions": self.registry.active_versions()}})

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        self.send(protocol.READY, 0, self.stats())
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="cluster-heartbeat", daemon=True)
        heartbeat.start()
        drain_msg_id = None
        try:
            while not self._stop.is_set():
                try:
                    kind, msg_id, body = self.conn.recv()
                except (EOFError, OSError):
                    break  # parent died: nothing left to serve
                if kind in (protocol.PREDICT, protocol.PREDICT_MANY):
                    self._pool.submit(self._handle_predict, kind, msg_id,
                                      body)
                elif kind == protocol.METRICS:
                    self.send(protocol.RESPONSE, msg_id,
                              {"ok": True, "value": self.service.metrics()})
                elif kind == protocol.SWAP:
                    self._handle_swap(msg_id, body)
                elif kind == protocol.DRAIN:
                    drain_msg_id = msg_id
                    break
                else:  # a declared kind that is not a request
                    self.send(protocol.RESPONSE, msg_id, {
                        "ok": False, "status": 400,
                        "error": f"{kind!r} is not a worker request"})
        finally:
            self._stop.set()
            # Answer everything already accepted before reporting drained:
            # the pool join flushes handler threads into the batchers, the
            # service shutdown drains the batchers themselves.
            self._pool.shutdown(wait=True)
            drained = self.service.shutdown(timeout=30.0)
            if drain_msg_id is not None:
                self.send(protocol.RESPONSE, drain_msg_id,
                          {"ok": True, "value": {"drained": drained}})
            heartbeat.join(timeout=2.0)
            try:
                self.conn.close()
            except OSError:
                pass


def worker_main(conn, spec: WorkerSpec) -> None:
    """Spawn target: build the worker, serve the pipe until drained."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        worker = _Worker(conn, spec)
    except Exception as exc:
        try:
            conn.send(protocol.message(
                protocol.FATAL, 0, {"error": f"{type(exc).__name__}: {exc}"}))
            conn.close()
        except OSError:
            pass
        raise SystemExit(1)
    worker.run()
