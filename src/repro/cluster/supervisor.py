"""Worker lifecycle: spawn, watch, restart with backoff, rolling swap.

The :class:`Supervisor` owns N worker slots.  Each slot holds at most one
live :class:`WorkerHandle` — a spawned process plus the parent end of its
duplex pipe, a reader thread demultiplexing responses/heartbeats, and the
in-flight bookkeeping the front end routes on.  A monitor thread enforces
the supervision policy:

* a worker whose process died (crash, OOM-kill, SIGKILL in tests) is
  detected by the reader's EOF and by ``is_alive()``; every future still
  pending on its pipe fails with :class:`~repro.serve.errors.WorkerDied`
  — the request was accepted, so it must error loudly, never hang;
* a worker whose *heartbeats* stop while the process lives is wedged; it
  is killed and treated like a crash (the heartbeat thread is independent
  of the request handlers, so a stuck model call alone does not trip
  this — only a truly frozen or stopped process does);
* restarts are scheduled with exponential backoff
  (``base * 2**consecutive_failures``, capped), and the failure streak
  resets after a worker stays healthy for a while — a flapping checkpoint
  cannot hot-loop the spawn path;
* a restarted worker self-loads from the *current* spec, so a crash during
  a rolling swap comes back already on the new version.

``rolling_swap`` is the zero-downtime upgrade: one slot at a time is taken
out of routing (``draining``), its in-flight requests are allowed to
finish, the worker hot-swaps in place via its registry, and routing
resumes — at every instant N-1 workers accept traffic, so the only 503s a
client can see are admission-control ones, never absence of the tier.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

import multiprocessing

from .. import obs
from ..serve.errors import WorkerDied
from . import protocol
from .protocol import WorkerSpec
from .worker import worker_main


def backoff_delay(consecutive_failures: int, base_s: float,
                  cap_s: float) -> float:
    """Exponential restart backoff: ``base * 2**(failures-1)``, capped.

    The first restart after a healthy run waits only ``base_s``; each
    consecutive failure doubles the wait up to ``cap_s``.
    """
    if consecutive_failures <= 0:
        return 0.0
    return min(float(cap_s), float(base_s) * 2.0 ** (consecutive_failures - 1))


class ClusterError(RuntimeError):
    """The cluster could not reach a servable state."""


class WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, slot: int, spec: WorkerSpec, ctx):
        self.slot = slot
        self.spec = spec
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=worker_main, args=(child_conn, spec),
            name=f"cluster-worker-{slot}", daemon=True)
        self.process.start()
        # The parent's copy of the child end must close, or the reader
        # would never see EOF when the worker dies.
        child_conn.close()

        self.spawned_at = time.monotonic()
        self.ready_at: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self.stats: dict = {}
        self.fatal_error: Optional[str] = None
        self.draining = False

        self._lock = threading.Lock()
        self._state = "starting"  # guarded-by: _lock ("starting" -> "ready" -> "dead")
        self._ready = threading.Event()
        self._msg_ids = itertools.count(1)
        self._pending: Dict[int, Future] = {}  # guarded-by: _lock
        self._inflight = 0  # guarded-by: _lock
        self.dispatched = 0  # guarded-by: _lock
        self._reader = threading.Thread(
            target=self._read_loop, name=f"cluster-reader-{slot}",
            daemon=True)
        self._reader.start()

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def is_live(self) -> bool:
        with self._lock:
            return self._state == "ready"

    def routable(self) -> bool:
        with self._lock:
            return self._state == "ready" and not self.draining

    def wait_ready(self, timeout: Optional[float]) -> bool:
        return self._ready.wait(timeout)

    def heartbeat_age_s(self) -> Optional[float]:
        last = self.last_heartbeat or self.ready_at
        return None if last is None else time.monotonic() - last

    # -- requests --------------------------------------------------------

    def acquire(self, bound: int) -> bool:
        """Atomically claim one in-flight slot; False when full/not ready."""
        with self._lock:
            if self._state != "ready" or self.draining:
                return False
            if self._inflight >= bound:
                return False
            self._inflight += 1
            self.dispatched += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def request(self, kind: str, payload: dict) -> "Future":
        """Send one request; the future resolves with the response payload.

        The caller owns in-flight accounting (``acquire``/``release``) for
        data-plane requests; control-plane requests (metrics, swap, drain)
        bypass it.  A message :data:`protocol.MESSAGES` does not allow
        raises ``ValueError`` and is not sent.
        """
        future: Future = Future()
        with self._lock:
            if self._state == "dead":
                raise WorkerDied(
                    f"worker {self.slot} (pid {self.pid}) is dead")
            msg_id = next(self._msg_ids)
            message = protocol.message(kind, msg_id, payload)
            self._pending[msg_id] = future
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            with self._lock:
                self._pending.pop(msg_id, None)
            raise WorkerDied(
                f"worker {self.slot} (pid {self.pid}) pipe is closed")
        return future

    # -- reader thread ---------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                kind, msg_id, payload = self.conn.recv()
            except (EOFError, OSError):
                break
            if kind == protocol.RESPONSE:
                with self._lock:
                    future = self._pending.pop(msg_id, None)
                if future is not None:
                    future.set_result(payload)
            elif kind in (protocol.HEARTBEAT, protocol.READY):
                self.last_heartbeat = time.monotonic()
                self.stats = payload
                if kind == protocol.READY:
                    with self._lock:
                        if self._state == "starting":
                            self._state = "ready"
                    self.ready_at = time.monotonic()
                    self._ready.set()
            elif kind == protocol.FATAL:
                self.fatal_error = payload.get("error", "unknown")
        self.mark_dead()

    def mark_dead(self) -> None:
        """Fail every pending request and flip to the terminal state."""
        with self._lock:
            if self._state == "dead":
                return
            self._state = "dead"
            pending = list(self._pending.values())
            self._pending.clear()
            self._inflight = 0
        self._ready.set()  # unblock waiters; they must re-check state
        exc = WorkerDied(f"worker {self.slot} (pid {self.pid}) died with "
                         f"requests in flight")
        for future in pending:
            future.set_exception(exc)

    # -- teardown --------------------------------------------------------

    def kill(self, grace_s: float = 0.5) -> None:
        """Terminate the process (SIGTERM, then SIGKILL) and mark it dead.

        SIGKILL is the fallback because a *stopped* (SIGSTOP'd, i.e.
        wedged-looking) process never handles SIGTERM.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(grace_s)
        try:
            self.conn.close()
        except OSError:
            pass
        self.mark_dead()

    def describe(self) -> dict:
        with self._lock:
            state = "draining" if (self._state == "ready" and self.draining) \
                else self._state
            inflight = self._inflight
            dispatched = self.dispatched
        age = self.heartbeat_age_s()
        return {
            "slot": self.slot,
            "pid": self.pid,
            "state": state,
            "inflight": inflight,
            "dispatched": dispatched,
            "last_heartbeat_age_s": None if age is None else round(age, 3),
            "fatal_error": self.fatal_error,
            **{k: self.stats.get(k) for k in
               ("uptime_s", "requests", "errors", "pending", "versions")},
            # Last heartbeat-shipped metrics snapshot (may trail the
            # worker's live registry by up to one heartbeat interval).
            "obs": self.stats.get("obs"),
        }


class _Slot:
    def __init__(self, index: int):
        self.index = index
        self.handle: Optional[WorkerHandle] = None
        self.restarts = 0
        self.consecutive_failures = 0
        self.next_restart_at: Optional[float] = None
        self.last_error: Optional[str] = None


class Supervisor:
    """Spawns and supervises ``n_workers`` model-worker processes.

    Parameters
    ----------
    spec:
        The worker recipe; mutated only through :meth:`rolling_swap`.
    n_workers:
        Number of worker slots.
    quorum:
        Live workers needed for ``/healthz`` to report ``ok``; defaults to
        a majority (``n_workers // 2 + 1``).
    heartbeat_timeout_s:
        Silence longer than this marks a live process as wedged.
    backoff_base_s / backoff_cap_s:
        Exponential restart backoff bounds.
    backoff_reset_s:
        A worker healthy for this long clears its failure streak.
    start_method:
        ``multiprocessing`` start method; ``spawn`` (the default) is safe
        with the parent's many threads, and workers self-load anyway.
    """

    def __init__(self, spec: WorkerSpec, n_workers: int,
                 quorum: Optional[int] = None,
                 heartbeat_timeout_s: float = 5.0,
                 backoff_base_s: float = 0.5, backoff_cap_s: float = 8.0,
                 backoff_reset_s: Optional[float] = None,
                 start_timeout_s: float = 120.0,
                 start_method: str = "spawn"):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.quorum = (int(quorum) if quorum is not None
                       else self.n_workers // 2 + 1)
        if not 1 <= self.quorum <= self.n_workers:
            raise ValueError(f"quorum {self.quorum} outside "
                             f"[1, {self.n_workers}]")
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.backoff_reset_s = (float(backoff_reset_s)
                                if backoff_reset_s is not None
                                else 10.0 * self.heartbeat_timeout_s)
        self.start_timeout_s = float(start_timeout_s)
        self.started_at = time.monotonic()
        self._ctx = multiprocessing.get_context(start_method)
        self._spec_lock = threading.Lock()
        self._spec = spec  # guarded-by: _spec_lock
        self._slots = [_Slot(i) for i in range(self.n_workers)]
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._swap_lock = threading.Lock()

    @property
    def spec(self) -> WorkerSpec:
        with self._spec_lock:
            return self._spec

    # -- lifecycle -------------------------------------------------------

    def start(self, wait: bool = True) -> "Supervisor":
        for slot in self._slots:
            self._spawn(slot)
        if wait:
            deadline = time.monotonic() + self.start_timeout_s
            for slot in self._slots:
                handle = slot.handle
                assert handle is not None
                handle.wait_ready(max(0.0, deadline - time.monotonic()))
                if not handle.is_live():
                    error = handle.fatal_error or "did not become ready"
                    self.stop()
                    raise ClusterError(
                        f"worker {slot.index} failed to start: {error}")
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True)
        self._monitor.start()
        return self

    def _spawn(self, slot: _Slot) -> None:
        slot.handle = WorkerHandle(slot.index, self.spec, self._ctx)
        slot.next_restart_at = None

    def _monitor_loop(self) -> None:
        poll_s = max(0.02, min(0.25, self.spec.heartbeat_s / 2.0))
        while not self._stopping.wait(poll_s):
            now = time.monotonic()
            for slot in self._slots:
                handle = slot.handle
                if handle is None:
                    continue
                state = handle.state
                if state in ("starting", "ready") and handle.draining:
                    continue  # a drain/swap owns this slot right now
                if state == "ready":
                    age = handle.heartbeat_age_s()
                    if not handle.process.is_alive():
                        self._declare_failed(slot, "process exited")
                    elif age is not None and age > self.heartbeat_timeout_s:
                        self._declare_failed(
                            slot, f"no heartbeat for {age:.1f}s (wedged)")
                    elif (handle.ready_at is not None
                          and now - handle.ready_at > self.backoff_reset_s):
                        slot.consecutive_failures = 0
                elif state == "starting":
                    if not handle.process.is_alive():
                        self._declare_failed(
                            slot, handle.fatal_error or "died during start")
                    elif now - handle.spawned_at > self.start_timeout_s:
                        self._declare_failed(slot, "start timed out")
                elif state == "dead":
                    if slot.next_restart_at is None:
                        # Death noticed by the reader before the monitor:
                        # schedule the restart it would have scheduled.
                        self._declare_failed(
                            slot, handle.fatal_error or "pipe closed")
                    elif now >= slot.next_restart_at:
                        slot.restarts += 1
                        self._spawn(slot)

    def _declare_failed(self, slot: _Slot, reason: str) -> None:
        handle = slot.handle
        slot.last_error = reason
        slot.consecutive_failures += 1
        obs.counter("cluster_worker_failures", slot=slot.index)
        obs.event("worker_failed", slot=slot.index, reason=reason)
        delay = backoff_delay(slot.consecutive_failures,
                              self.backoff_base_s, self.backoff_cap_s)
        slot.next_restart_at = time.monotonic() + delay
        if handle is not None:
            handle.kill()

    # -- routing view ----------------------------------------------------

    def live_handles(self) -> List[WorkerHandle]:
        """Workers currently accepting routed traffic."""
        return [s.handle for s in self._slots
                if s.handle is not None and s.handle.routable()]

    def live_count(self) -> int:
        return sum(1 for s in self._slots
                   if s.handle is not None and s.handle.is_live())

    def restarts_total(self) -> int:
        return sum(s.restarts for s in self._slots)

    def describe(self) -> List[dict]:
        out = []
        for slot in self._slots:
            info = (slot.handle.describe() if slot.handle is not None
                    else {"slot": slot.index, "state": "empty"})
            info["restarts"] = slot.restarts
            if slot.last_error:
                info["last_error"] = slot.last_error
            out.append(info)
        return out

    # -- rolling hot-swap ------------------------------------------------

    def rolling_swap(self, source: str, store_root: Optional[str] = None,
                     drain_timeout_s: float = 30.0,
                     swap_timeout_s: float = 120.0) -> dict:
        """Hot-swap every worker to ``source``, one worker at a time.

        The spec is updated *first*: any worker that crashes mid-swap
        restarts straight onto the new version.  Then each live worker in
        turn is taken out of routing, allowed to finish its in-flight
        requests, told to swap in place, and put back.  Dead slots are
        skipped (their restart path already picks up the new spec).  A
        worker whose swap fails is killed so its supervised restart
        reloads the new checkpoint — the cluster never runs mixed
        versions longer than one restart.
        """
        with self._swap_lock:  # one rolling operation at a time
            with self._spec_lock:
                overrides = {"source": str(source)}
                if store_root is not None:
                    overrides["store_root"] = str(store_root)
                self._spec = self._spec.replace(**overrides)
            swapped, skipped, failed = [], [], []
            versions: Dict[int, dict] = {}
            for slot in self._slots:
                handle = slot.handle
                if handle is None or not handle.is_live():
                    skipped.append(slot.index)
                    continue
                handle.draining = True
                try:
                    deadline = time.monotonic() + drain_timeout_s
                    while handle.inflight > 0 and time.monotonic() < deadline:
                        time.sleep(0.005)
                    response = handle.request(
                        protocol.SWAP,
                        {"source": self.spec.source,
                         "store_root": self.spec.store_root}
                    ).result(timeout=swap_timeout_s)
                except Exception as exc:
                    slot.last_error = f"swap failed: {exc}"
                    failed.append(slot.index)
                    self._declare_failed(slot, slot.last_error)
                    continue
                finally:
                    handle.draining = False
                if response.get("ok"):
                    swapped.append(slot.index)
                    versions[slot.index] = response["value"]["versions"]
                else:
                    slot.last_error = f"swap failed: {response.get('error')}"
                    failed.append(slot.index)
                    self._declare_failed(slot, slot.last_error)
            return {"source": self.spec.source, "swapped": swapped,
                    "skipped": skipped, "failed": failed,
                    "versions": {str(k): v for k, v in versions.items()}}

    # -- shutdown --------------------------------------------------------

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: every worker drains its batchers and exits.

        Returns ``True`` only when every live worker confirmed its drain;
        a ``False`` means at least one worker timed out or died undrained.
        The monitor is stopped first so exiting workers are not "restarted".
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        deadline = time.monotonic() + timeout_s
        live = [slot.handle for slot in self._slots
                if slot.handle is not None and slot.handle.is_live()]
        # Two-phase: take every worker out of routing, then wait for the
        # accepted requests to be answered *before* sending DRAIN.  A
        # front end that passed acquire() may not have written its request
        # to the pipe yet — sending DRAIN immediately would race past it
        # and the worker would exit without answering.
        for handle in live:
            handle.draining = True
        while time.monotonic() < deadline:
            if all(h.inflight == 0 or not h.is_live() for h in live):
                break
            time.sleep(0.01)
        all_drained = True
        futures = []
        for handle in live:
            try:
                futures.append((handle, handle.request(protocol.DRAIN, {})))
            except WorkerDied:
                all_drained = False
        for handle, future in futures:
            try:
                remaining = max(0.1, deadline - time.monotonic())
                response = future.result(timeout=remaining)
                all_drained &= bool(response.get("value", {}).get("drained"))
            except Exception:
                all_drained = False
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.kill()
        return all_drained

    def stop(self) -> None:
        """Hard stop: kill every worker without draining."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.kill()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
