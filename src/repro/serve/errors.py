"""Serving-layer error types shared by the HTTP front and the cluster tier.

Kept in their own module so the cluster front end (``repro.cluster``) can
raise them without importing the whole in-process service stack, and so the
HTTP handler can map them to status codes without caring which tier raised
them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class InvalidInput(ValueError):
    """A request's input is not a sample the model takes.

    Raised before the request joins a micro-batch, so it fails alone
    instead of failing every request stacked with it.  The HTTP layer
    maps it to ``400 Bad Request``; a cluster worker relays it with status
    400 and the front end raises it again.
    """


def as_input(x, n_in: Optional[int] = None) -> np.ndarray:
    """``x`` as a float array, or :class:`InvalidInput` naming the fault.

    ``x`` must hold numbers, not strings, booleans or objects.  Given
    ``n_in``, it must also be a 1-D vector of ``n_in`` finite values; the
    error names the shape or the first non-finite index.
    """
    try:
        a = np.asarray(x)
    except ValueError as exc:  # ragged nesting
        raise InvalidInput(f"input is not an array: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise InvalidInput(f"input must be numbers, not {x!r:.60}")
    a = a.astype(float, copy=False)
    if n_in is None:
        return a
    if a.shape != (n_in,):
        raise InvalidInput(f"input has shape {a.shape}; the model takes a "
                           f"vector of {n_in} numbers")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise InvalidInput(f"input[{bad[0]}] is {a[bad[0]]}, not a finite "
                           f"number")
    return a


class Overloaded(RuntimeError):
    """The serving tier refused a request under admission control.

    The HTTP layer maps this to ``503 Service Unavailable`` with a
    ``Retry-After`` header of ``retry_after_s`` (rounded up to whole
    seconds, minimum 1 — the header's unit).  Raised by the cluster front
    end when every live worker is at its in-flight bound, or when no live
    worker exists at all (e.g. mid-restart with quorum lost).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class WorkerDied(RuntimeError):
    """A cluster worker process exited with requests still in flight.

    Every pending future on the dead worker's pipe resolves to this; the
    front end surfaces it as a ``500`` (the request was accepted and then
    genuinely lost — admission control cannot retroactively refuse it).
    """
