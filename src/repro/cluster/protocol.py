"""Wire protocol between the cluster front end and its worker processes.

Everything crossing a worker pipe is a plain picklable tuple
``(kind, msg_id, payload)``:

parent -> worker
    ``("predict", id, body)`` / ``("predict_many", id, body)`` — one
    data-plane request (``body`` mirrors the HTTP request dict);
    ``("metrics", id, {})`` — the worker's full ``/metrics`` payload;
    ``("swap", id, {"source": ...})`` — load a new checkpoint and hot-swap
    the served version;
    ``("drain", id, {})`` — drain the micro-batchers, answer with the
    drained bool, and exit.

worker -> parent
    ``("ready", 0, stats)`` — sent once after the checkpoint loaded;
    ``("hb", 0, stats)`` — periodic heartbeat with light load stats;
    ``("fatal", 0, {"error": ...})`` — startup/teardown failure, sent just
    before exiting so the supervisor can surface the cause;
    ``("resp", id, {"ok": True, "value": ...})`` or
    ``("resp", id, {"ok": False, "status": ..., "error": ...})`` — the
    answer to any parent request, matched by ``msg_id``.

Every tuple is built by :func:`message`, which checks it against
:data:`MESSAGES` before it reaches a pipe.

The :class:`WorkerSpec` is the complete, picklable recipe for one worker:
workers never receive live model objects — they *self-load* their models
from the checkpoint source, so a restarted worker is bitwise-equivalent to
its predecessor and the spawn start method needs nothing from the parent's
memory.
"""

from __future__ import annotations

import dataclasses

from ..exec.protocol import check_payload

#: worker -> parent message kinds that are not responses.
READY, HEARTBEAT, FATAL, RESPONSE = "ready", "hb", "fatal", "resp"

#: parent -> worker request kinds.
PREDICT, PREDICT_MANY, METRICS, SWAP, DRAIN = (
    "predict", "predict_many", "metrics", "swap", "drain")

#: Payload contract per message kind.  Each value is either ``None``
#: (payload is free-form, e.g. a stats snapshot) or a pair
#: ``(required_keys, allowed_keys)``: a payload carries every required
#: key and nothing outside the allowed set.  Keep this in lockstep with
#: the prose contract in the module docstring.
MESSAGES = {
    PREDICT: (("input",), ("input", "model", "version", "use_cache")),
    PREDICT_MANY: (("inputs",),
                   ("inputs", "model", "version", "use_cache")),
    METRICS: ((), ()),
    SWAP: (("source",), ("source", "store_root")),
    DRAIN: ((), ()),
    READY: None,      # free-form worker stats snapshot
    HEARTBEAT: None,  # free-form worker stats snapshot
    FATAL: (("error",), ("error",)),
    RESPONSE: (("ok",), ("ok", "value", "status", "error")),
}


def message(kind: str, msg_id: int, payload) -> tuple:
    """The ``(kind, msg_id, payload)`` tuple for a pipe; ``ValueError``
    naming the kind or the field when :data:`MESSAGES` does not allow
    it.  Every send site in the cluster goes through here."""
    check_payload(MESSAGES, kind, payload)
    return (kind, msg_id, payload)


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to serve: picklable and complete.

    ``source`` is anything ``ModelRegistry.load_source`` accepts — a
    checkpoint stem, a directory of checkpoints, or a run id resolved
    against ``store_root``.  The serving knobs mirror
    :class:`~repro.serve.service.InferenceService`; ``handler_threads``
    bounds how many requests one worker decodes/answers concurrently
    (they still coalesce in the worker's micro-batcher).
    """

    source: str
    store_root: str = "runs"
    max_batch: int = 16
    max_wait_ms: float = 5.0
    cache_size: int = 1024
    batch_workers: int = 1
    handler_threads: int = 16
    heartbeat_s: float = 0.5

    def replace(self, **overrides) -> "WorkerSpec":
        return dataclasses.replace(self, **overrides)
