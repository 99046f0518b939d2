"""Work-conserving micro-batching request scheduler.

Single-sample prediction requests arrive concurrently from many client
threads; dispatching each one alone through ``predict_batch`` wastes the
batched engine (a ``(B, n_in)`` block costs barely more than one sample).
The :class:`MicroBatcher` closes the gap without a timer: each of its
``workers`` threads waits for a request, takes it together with whatever
else is already queued (up to ``max_batch``, in arrival order), calls the
runner once, and resolves each request's future with its own row plus
scheduling telemetry (batch size, queue wait).  A batch whose samples
differ in shape is run once per shape, in arrival order, so a
wrong-shaped request fails alone.

So an idle batcher dispatches a lone request at once, and a busy one
coalesces everything that arrived while its workers ran: batches grow
only while every worker is busy, which is when waiting costs nothing.
This is the adaptive batching of Clipper (Crankshaw et al., NSDI 2017)
with the batch size capped instead of tuned.  A request waits only for a
free worker; a deadline flush could not start its batch any sooner.

``close()`` is graceful: no new requests are accepted, everything already
queued is still batched and answered, and the workers are joined.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs


@dataclasses.dataclass(frozen=True)
class ItemResult:
    """What a request's future resolves to."""

    value: object
    batch_size: int
    queue_ms: float


@dataclasses.dataclass
class _Pending:
    x: np.ndarray
    future: Future
    enqueued: float


class MicroBatcher:
    """Accumulates concurrent single-sample requests into batches.

    Parameters
    ----------
    runner:
        ``(B, n_in) array -> length-B sequence`` — typically a model's
        ``predict_batch``.  Called from worker threads; must be thread-safe
        for read-only inference (NumPy forward passes are).
    max_batch:
        The most requests one runner call takes.
    workers:
        Worker threads, each pulling its own batches (batches run
        concurrently when > 1; request order within a batch is always
        arrival order).
    """

    def __init__(self, runner: Callable[[np.ndarray], Sequence],
                 max_batch: int = 32, workers: int = 1):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.max_batch = int(max_batch)
        # One condition guards the queue and the closing flag: submit()
        # checks the flag and enqueues under it, so nothing lands after a
        # worker saw "closing and empty" and exited.
        self._ready = threading.Condition()
        self._queue: Deque[_Pending] = deque()  # guarded-by: _ready
        self._closing = False  # guarded-by: _ready
        self._workers = [
            threading.Thread(target=self._work, daemon=True,
                             name=f"microbatch-worker-{i}")
            for i in range(int(workers))]
        for thread in self._workers:
            thread.start()

    # -- client side -----------------------------------------------------

    def submit(self, x: np.ndarray) -> "Future[ItemResult]":
        """Enqueue one sample; resolves to an :class:`ItemResult`."""
        pending = _Pending(np.asarray(x, dtype=float), Future(),
                           time.monotonic())
        with self._ready:
            if self._closing:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(pending)
            self._ready.notify()
        return pending.future

    def pending(self) -> int:
        """Requests queued but not yet dispatched."""
        with self._ready:
            return len(self._queue)

    # -- worker side -----------------------------------------------------

    def _work(self) -> None:
        while True:
            with self._ready:
                while not self._queue:
                    if self._closing:
                        return
                    self._ready.wait()
                batch = [self._queue.popleft() for _ in
                         range(min(len(self._queue), self.max_batch))]
            # A caller may have cancelled its future while it was queued;
            # the rest are marked running, so none can be cancelled now.
            batch = [p for p in batch
                     if p.future.set_running_or_notify_cancel()]
            if batch:
                obs.counter("serve_batches_dispatched")
                obs.observe("serve_batch_size", len(batch),
                            buckets=(1, 2, 4, 8, 16, 32, 64, 128))
                self._run_batch(batch)

    def _run_batch(self, batch: List[_Pending]) -> None:
        dispatched = time.monotonic()
        try:
            xs = np.stack([p.x for p in batch])
        except ValueError:
            # Mixed shapes: one runner call per shape, in arrival order,
            # so a wrong-shaped request fails alone.
            by_shape: Dict[Tuple[int, ...], List[_Pending]] = {}
            for p in batch:
                by_shape.setdefault(p.x.shape, []).append(p)
            for group in by_shape.values():
                self._run_stacked(group, np.stack([p.x for p in group]),
                              dispatched)
            return
        self._run_stacked(batch, xs, dispatched)

    def _run_stacked(self, batch: List[_Pending], xs: np.ndarray,
                 dispatched: float) -> None:
        try:
            values = self.runner(xs)
            if len(values) != len(batch):
                raise RuntimeError(
                    f"runner returned {len(values)} results for a batch of "
                    f"{len(batch)}")
        except Exception as exc:  # propagate to every caller in the batch
            for p in batch:
                p.future.set_exception(exc)
            return
        for p, value in zip(batch, values):
            p.future.set_result(ItemResult(
                value=value, batch_size=len(batch),
                queue_ms=(dispatched - p.enqueued) * 1e3))

    # -- shutdown --------------------------------------------------------

    def close(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: drain queued requests, then join the workers.

        Requests already submitted are still batched and answered; new
        ``submit`` calls raise.  Safe to call more than once.

        Returns ``True`` when every worker drained and exited within
        ``timeout`` (one deadline shared by all of them; every accepted
        request has its answer), ``False`` when the join timed out with
        requests still in flight — callers that pass a timeout must
        check, not assume the drain happened.
        """
        with self._ready:
            self._closing = True
            self._ready.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._workers:
            thread.join(None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._workers)
