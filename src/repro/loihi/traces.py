"""Pre- and post-synaptic trace counters.

Loihi's learning engine exposes exponentially filtered spike traces (``x1``,
``x2`` on the presynaptic side, ``y1``..``y3`` on the postsynaptic side).
EMSTDP configures them as *counters* — impulse 1, no decay — so that at the
end of a phase the trace equals the spike count of that phase (the paper's
"built in post-synaptic trace counter" approximation, contribution 2 in the
introduction).  That counter is the only trace modelled here, so every
trace is an integer register, read by the learning engine as it stands.

Traces saturate at 7 bits (127) like the hardware's trace registers.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels

#: Saturation value of a hardware trace register.
TRACE_MAX = 127


class TraceState:
    """The int64 spike-count trace registers of one compartment group,
    ``(replicas, n)``: each network replica keeps its own independent
    trace values, updated by one vectorized call."""

    def __init__(self, n: int, replicas: int = 1):
        self.n = int(n)
        self.replicas = int(replicas)
        self.shape = (self.replicas, self.n)
        self.values = np.zeros(self.shape, dtype=np.int64)

    def update(self, spikes: np.ndarray) -> None:
        """One timestep: count a spike where one occurred, saturating."""
        spikes = np.ascontiguousarray(spikes, dtype=bool)
        if spikes.shape != self.shape:
            raise ValueError(f"spikes must have shape {self.shape}")
        kernels.trace_update(self.values, spikes, TRACE_MAX)

    def reset(self) -> None:
        self.values.fill(0)
