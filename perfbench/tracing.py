"""Spans recorded by the benchmark around calls into the program's layers.

Nothing here edits ``src/``: :class:`Tracer` replaces class attributes and
module attributes with timing wrappers for the duration of a traced pass
and restores them afterwards.  Callers look these attributes up at call
time (``kernels.if_step(...)``, ``self.step(...)``, ``obs.counter(...)``),
so every call made through the program's own code paths is seen.

Each span has a name, start, end, parent and, on the serving path, the
request id the client sent.  Spans stay in memory until the pass ends.
Calls made millions of times (kernels, ``step``, ``propagate``) are
aggregated per (function, parent) instead of kept one by one; a call with
no parent span is always kept so it counts toward coverage.  Self time
is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: (span name, "module:Owner.attr" or "module:attr", hot).  Hot spans are
#: aggregated per (name, parent name) when they have a parent.
LAYERS: Tuple[Tuple[str, str, bool], ...] = (
    ("incremental.run",
     "repro.incremental.protocol:IncrementalOnlineLearner.run", False),
    ("core.network.train_sample",
     "repro.core.network:EMSTDPNetwork.train_sample", False),
    ("core.network.predict_batch",
     "repro.core.network:EMSTDPNetwork.predict_batch", False),
    ("core.neuron.step", "repro.core.neuron:IFLayer.step", True),
    ("core.neuron.step", "repro.core.neuron:SignedErrorLayer.step", True),
    ("core.learning.apply", "repro.core.learning:WeightUpdater.apply", True),
    ("core.kernels.if_step", "repro.core.kernels:if_step", True),
    ("core.kernels.delta_w", "repro.core.kernels:delta_w", True),
    ("core.kernels.cuba_step", "repro.core.kernels:cuba_step", True),
    ("core.kernels.trace_update", "repro.core.kernels:trace_update", True),
    ("core.kernels.sum_of_products",
     "repro.core.kernels:sum_of_products", True),
    ("onchip.trainer.train_sample",
     "repro.onchip.trainer:LoihiEMSTDPTrainer.train_sample", False),
    ("onchip.trainer.infer_batch",
     "repro.onchip.trainer:LoihiEMSTDPTrainer.infer_batch", False),
    ("loihi.runtime.step", "repro.loihi.runtime:Runtime.step", True),
    ("loihi.runtime.step", "repro.loihi.runtime:ShardedRuntime.step", True),
    ("loihi.runtime.learning_epoch",
     "repro.loihi.runtime:Runtime.learning_epoch", True),
    ("loihi.runtime.set_bias", "repro.loihi.runtime:Runtime.set_bias", True),
    ("loihi.runtime.reset", "repro.loihi.runtime:Runtime.reset_state", True),
    ("loihi.runtime.reset", "repro.loihi.runtime:Runtime.reset_traces", True),
    ("loihi.runtime.reset", "repro.loihi.runtime:Runtime.reset_tags", True),
    ("loihi.runtime.reset",
     "repro.loihi.runtime:Runtime.reset_membranes", True),
    ("loihi.synapse.propagate",
     "repro.loihi.synapse:ConnectionGroup.propagate", True),
    ("loihi.compartment.step",
     "repro.loihi.compartment:CompartmentGroup.step", True),
    ("loihi.traces.update", "repro.loihi.traces:TraceState.update", True),
    ("loihi.microcode.apply_all",
     "repro.loihi.microcode:LearningEngine.apply_all", True),
    ("data.load_dataset", "repro.data:load_dataset", False),
    ("models.pretrain", "repro.models.conv:ConvFrontend.pretrain", False),
    ("persist.save", "repro.persist:save_checkpoint", False),
    ("persist.load", "repro.serve.registry:ModelRegistry.load", False),
    ("serve.http.do_POST", "repro.serve.http:_Handler.do_POST", False),
    ("serve.service.predict",
     "repro.serve.service:InferenceService.predict", False),
    ("serve.telemetry.record", "repro.serve.telemetry:Telemetry.record", True),
    ("obs.registry", "repro.obs:counter", True),
    ("obs.registry", "repro.obs:observe", True),
)

#: Header carrying the client's request id into the server's spans.
REQUEST_ID_HEADER = "X-Request-Id"


class _Frame:
    __slots__ = ("name", "start", "child", "id", "request")

    def __init__(self, name: str, start: float, span_id: int,
                 request: Optional[str]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.id = span_id
        self.request = request


class Tracer:
    """Installs span wrappers on :data:`LAYERS` and collects the spans.

    Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit, even when the traced code
    raises.
    """

    def __init__(self):
        #: One dict per kept span: id, name, start, end, parent, parent
        #: name, self time, request id and thread name.
        self.records: List[dict] = []
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggregates: List[Dict[Tuple[str, Optional[str]], list]] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, target, hot in LAYERS:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
                wrapped = self._wrap(name, original, hot)
                if name == "serve.http.do_POST":
                    # The handler thread's spans carry the client's id.
                    wrapped = self._bind_request_id(wrapped)
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run output checks without recording their calls."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- wrappers -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.aggregate = {}
            with self._lock:
                self._aggregates.append(self._local.aggregate)
        return stack

    def _wrap(self, name: str, fn, hot: bool):
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = _Frame(name, perf_counter(), next(tracer._ids),
                           getattr(tracer._local, "request", None))
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                duration = end - frame.start
                if parent is not None:
                    parent.child += duration
                tracer._finish(frame, end, duration, parent, hot)

        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        wrapped.__wrapped__ = fn
        return wrapped

    def _bind_request_id(self, do_post):
        tracer = self

        def wrapped(handler):
            tracer._local.request = handler.headers.get(REQUEST_ID_HEADER)
            try:
                return do_post(handler)
            finally:
                tracer._local.request = None

        wrapped.__wrapped__ = do_post
        return wrapped

    def _finish(self, frame: _Frame, end: float, duration: float,
                parent: Optional[_Frame], hot: bool) -> None:
        self_s = duration - frame.child
        if hot and parent is not None:
            key = (frame.name, parent.name)
            entry = self._local.aggregate.get(key)
            if entry is None:
                self._local.aggregate[key] = [1, duration, self_s]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
            return
        self.records.append({
            "id": frame.id, "name": frame.name,
            "start": frame.start, "end": end,
            "parent": parent.id if parent is not None else None,
            "parent_name": parent.name if parent is not None else None,
            "self_s": self_s, "request": frame.request,
            "thread": threading.current_thread().name,
        })

    # -- summaries ------------------------------------------------------

    def aggregates(self) -> Dict[Tuple[str, Optional[str]], list]:
        """Hot spans folded over threads:
        (name, parent) -> [calls, s, self_s]."""
        out: Dict[Tuple[str, Optional[str]], list] = {}
        with self._lock:
            per_thread = list(self._aggregates)
        for aggregate in per_thread:
            for key, (calls, total, self_s) in list(aggregate.items()):
                entry = out.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
        return out

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost of nested same-name
        spans (``SignedErrorLayer.step`` calls ``IFLayer.step``), so it
        is never counted twice; self time and calls count every span.
        """
        totals: Dict[str, Dict[str, float]] = {}

        def add(name, parent_name, calls, total, self_s):
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0,
                                             "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            if parent_name != name:
                entry["s"] += total

        for rec in self.records:
            add(rec["name"], rec["parent_name"], 1,
                rec["end"] - rec["start"], rec["self_s"])
        for (name, parent_name), (calls, total, self_s) in \
                self.aggregates().items():
            add(name, parent_name, calls, total, self_s)
        return totals

    def covered_s(self, start: float, end: float) -> float:
        """Time in ``[start, end]`` under at least one parentless span."""
        intervals = sorted(
            (max(rec["start"], start), min(rec["end"], end))
            for rec in self.records
            if rec["parent"] is None and rec["end"] > start
            and rec["start"] < end)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (Owner, "attr"); ``"pkg.mod:attr"`` ->
    (module, "attr")."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr
