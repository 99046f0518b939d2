"""Synaptic connections with 8-bit integer weights and per-synapse tags.

A :class:`ConnectionGroup` is a dense weight block between two compartment
groups.  Weights are stored as signed 8-bit mantissas; the integer potential
delivered to the destination per presynaptic spike is
``mant * weight_scale`` where ``weight_scale`` translates one mantissa step
into membrane units.  Plastic connections additionally carry a per-synapse
*tag* — the third synaptic variable of Loihi's learning engine, which
EMSTDP uses to hold ``Z = h + h_hat`` (Eq. 12) — and pre/post trace
counters.
"""

from __future__ import annotations


import numpy as np

from .compartment import CompartmentGroup
from .traces import counter_trace

#: Signed 8-bit mantissa range of a synaptic weight.
WEIGHT_MANT_MAX = 127

#: Range of the 8-bit tag variable (stored unsigned in EMSTDP's usage).
TAG_MAX = 255


class ConnectionGroup:
    """Dense synaptic block ``src -> dst``.

    Parameters
    ----------
    src, dst:
        Compartment groups; the weight matrix has shape ``(src.n, dst.n)``.
    weight_mant:
        Integer mantissas in ``[-127, 127]``.
    weight_scale:
        Membrane units delivered per mantissa unit per spike.  The builder
        chooses it so that a full-scale weight equals the intended fraction
        of the destination threshold.
    plastic:
        Allocate tags and trace counters and register with the learning
        engine.
    learning_rule:
        Name of the microcode rule set to apply (resolved by the runtime).
    """

    def __init__(self, src: CompartmentGroup, dst: CompartmentGroup,
                 weight_mant: np.ndarray, weight_scale: int,
                 plastic: bool = False, learning_rule: str = "",
                 name: str = ""):
        weight_mant = np.asarray(weight_mant)
        if weight_mant.shape != (src.n, dst.n):
            raise ValueError(
                f"weight matrix must be ({src.n}, {dst.n}), got {weight_mant.shape}")
        if np.abs(weight_mant).max(initial=0) > WEIGHT_MANT_MAX:
            raise ValueError("weight mantissas exceed the 8-bit range")
        if weight_scale < 1:
            raise ValueError("weight_scale must be a positive integer")
        if src.replicas != dst.replicas:
            raise ValueError(
                f"connection {name or src.name + '->' + dst.name!r}: "
                f"src has {src.replicas} replicas, dst has {dst.replicas}")
        self.src = src
        self.dst = dst
        #: Replica count inherited from the endpoint groups.  Static
        #: connections share one ``(src.n, dst.n)`` weight block across all
        #: replicas (the values never diverge); plastic connections with
        #: ``replicas > 1`` carry an independent ``(replicas, src.n, dst.n)``
        #: weight/tag copy per replica so batched learning matches
        #: sequential per-replica execution bit for bit.
        self.replicas = src.replicas
        weight_mant = weight_mant.astype(np.int64, order="C")
        if plastic and self.replicas > 1:
            weight_mant = np.broadcast_to(
                weight_mant, (self.replicas,) + weight_mant.shape).copy()
        self.weight_mant = weight_mant
        self.weight_scale = int(weight_scale)
        self.plastic = bool(plastic)
        self.learning_rule = learning_rule
        self.name = name or f"{src.name}->{dst.name}"
        tag_shape = self.weight_mant.shape
        self.tag = np.zeros(tag_shape, dtype=np.int64) if plastic else None
        self.pre_trace = counter_trace(src.n, self.replicas) if plastic \
            else None
        self.post_trace = counter_trace(dst.n, self.replicas) if plastic \
            else None
        #: Cumulative number of synaptic events (spike x fan-out), for the
        #: energy model; batched replicas accumulate into the same counter.
        self.syn_events = 0

    @property
    def n_synapses(self) -> int:
        """Logical synapse count (replica copies are the same synapses)."""
        return self.src.n * self.dst.n

    def propagate(self, spikes: np.ndarray) -> np.ndarray:
        """Integer current delivered to ``dst`` for presynaptic ``spikes``.

        ``spikes`` has the source group's state shape: ``(src.n,)`` single
        replica, ``(replicas, src.n)`` batched; the returned current matches
        the destination's state shape.
        """
        spikes = np.asarray(spikes, dtype=bool)
        if not spikes.any():
            return np.zeros(self.dst.state_shape, dtype=np.int64)
        self.syn_events += int(spikes.sum()) * self.dst.n
        pre = spikes.astype(np.int64)
        if self.weight_mant.ndim == 3:  # per-replica plastic weights
            contrib = np.einsum("rs,rsd->rd", pre, self.weight_mant)
        else:
            contrib = pre @ self.weight_mant
        return contrib * self.weight_scale

    def update_traces(self, pre_spikes: np.ndarray,
                      post_spikes: np.ndarray) -> None:
        if not self.plastic:
            return
        self.pre_trace.update(pre_spikes)
        self.post_trace.update(post_spikes)

    def reset_traces(self) -> None:
        if self.plastic:
            self.pre_trace.reset()
            self.post_trace.reset()

    def reset_tag(self) -> None:
        if self.tag is not None:
            self.tag.fill(0)

    def set_weights(self, weight_mant: np.ndarray) -> None:
        """Overwrite mantissas (host reprogramming), with range check.

        A replicated plastic connection also accepts one ``(src.n, dst.n)``
        block, broadcast to every replica — how the batched trainer seeds
        each chunk with the canonical weights.
        """
        weight_mant = np.asarray(weight_mant)
        if weight_mant.shape == (self.src.n, self.dst.n) \
                and self.weight_mant.ndim == 3:
            weight_mant = np.broadcast_to(
                weight_mant, self.weight_mant.shape)
        if weight_mant.shape != self.weight_mant.shape:
            raise ValueError("shape mismatch")
        weight_mant = np.clip(weight_mant, -WEIGHT_MANT_MAX, WEIGHT_MANT_MAX)
        # C order, like every state array the fused runtime loop reads.
        self.weight_mant = weight_mant.astype(np.int64, order="C")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "plastic" if self.plastic else "static"
        return f"<ConnectionGroup {self.name!r} {kind} {self.weight_mant.shape}>"
