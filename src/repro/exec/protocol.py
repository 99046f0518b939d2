"""Task wire format for the work-queue executor.

Everything crossing the queue is one row ``(kind, payload)``: ``kind``
names the task type, ``payload`` is a JSON object a worker in *another
process* (today) or on *another host* (the shape this is built for) can
execute from alone — no live objects, no references into the enqueuer's
memory.

kinds
    ``("run_seed", payload)`` — execute one seed of one experiment spec
    and append its record to the owning run's ``records.jsonl``.  The
    payload is the complete recipe:

    ``experiment``
        scenario name (the record envelope's ``experiment`` field);
    ``run_id`` / ``run_dir``
        the owning run — workers append records to
        ``<run_dir>/records.jsonl`` and write checkpoints under it;
    ``spec``
        the full :class:`~repro.experiments.spec.ExperimentSpec` as a
        dict (``ExperimentSpec.from_dict`` round-trip);
    ``seed``
        the one seed to execute;
    ``repro_version``
        stamped into the record envelope;
    ``point_id``
        the sweep point this task belongs to (``None`` for plain runs);
    ``queue_parent``
        the enqueuer's root span id — the worker's ``task`` and ``seed``
        spans link to it, stitching per-process trace fragments into one
        tree across the queue boundary.

results (worker -> queue, free-form by design)
    A small JSON status dict: ``{"seed", "status", "duration_s"}`` plus
    ``"deduped": true`` when the worker found the seed's ``ok`` record
    already on disk (a requeued task whose first owner finished before
    dying) and therefore did not re-run it.

The ``MESSAGES`` dict below is the machine-readable half of this
contract.  The queue file outlives its writer, so the worker checks a
claimed row against it (:func:`check_payload`) before running it: a
corrupt or foreign row ends as an error result naming the kind or the
field.  ``cluster/protocol.py`` checks the serving tier's pipe messages
with the same function.
"""

from __future__ import annotations

#: The one task kind the executor runs today.
RUN_SEED = "run_seed"

#: Payload contract per task kind.  Each value is either ``None``
#: (free-form payload) or a pair ``(required_keys, allowed_keys)``: a
#: payload carries every required key and nothing outside the allowed
#: set.  Keep this in lockstep with the prose contract above.
MESSAGES = {
    RUN_SEED: (
        ("experiment", "run_id", "run_dir", "spec", "seed"),
        ("experiment", "run_id", "run_dir", "spec", "seed",
         "repro_version", "point_id", "queue_parent"),
    ),
}


def check_payload(messages: dict, kind, payload) -> None:
    """``ValueError`` naming the kind or the field unless ``payload`` is
    what ``messages[kind]`` declares (see :data:`MESSAGES`)."""
    if kind not in messages:
        raise ValueError(f"message kind {kind!r} is not declared in "
                         f"protocol.MESSAGES")
    spec = messages[kind]
    if spec is None:
        return
    if not isinstance(payload, dict):
        raise ValueError(f"{kind!r} payload is a "
                         f"{type(payload).__name__}, not a dict")
    required, allowed = spec
    for field in required:
        if field not in payload:
            raise ValueError(f"{kind!r} payload is missing required "
                             f"field {field!r}")
    for field in payload:
        if field not in allowed:
            raise ValueError(f"{kind!r} payload has undeclared field "
                             f"{field!r} (allowed: "
                             f"{', '.join(allowed) or 'none'})")
