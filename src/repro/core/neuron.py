"""Integrate-and-fire neuron primitives used by the reference implementation.

EMSTDP uses the same simple IF neuron in the forward and the feedback path
(Eq. 1 of the paper).  The membrane potential accumulates the weighted input
every timestep; when it crosses the threshold 1 the neuron emits a spike
and the threshold is subtracted ("soft reset"), which makes the spike count
over a window of ``T`` steps equal to ``floor(u / theta)`` where ``u`` is
the total accumulated drive (Eq. 2) — the rate activation the algorithm is
built on.  The membrane is floored at the resting potential 0.  That is the
one neuron :func:`repro.core.kernels.if_step` implements, and the one the
fused ``kernels.spike_present`` loop steps.
"""

from __future__ import annotations

import numpy as np

from . import kernels


class IFLayer:
    """A vectorized layer of the paper's integrate-and-fire neurons.

    All potentials are expressed in *normalized* units where the firing
    threshold is 1.0 and a constant drive of ``r`` per step produces a spike
    rate of ``r`` (for ``0 <= r <= 1``).

    Parameters
    ----------
    n:
        Number of neurons.
    batch_size:
        ``None`` (default) keeps the classic single-sample layout with state
        of shape ``(n,)``.  An integer ``B`` gives every neuron ``B``
        independent copies of its state, shaped ``(B, n)``; :meth:`step`
        then takes and returns ``(B, n)`` arrays.  Each batch row evolves
        exactly as an unbatched layer fed that row would.
    """

    def __init__(self, n: int, batch_size: int = None):
        if n < 1:
            raise ValueError("layer must contain at least one neuron")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for unbatched)")
        self.n = int(n)
        self.batch_size = None if batch_size is None else int(batch_size)
        shape = (self.n,) if self.batch_size is None else (self.batch_size, self.n)
        self._state_shape = shape
        self.v = np.zeros(shape)
        self.spike_count = np.zeros(shape, dtype=np.int64)

    def reset(self) -> None:
        """Clear all state (membrane potential and counters)."""
        self.v.fill(0.0)
        self.spike_count.fill(0)

    def reset_counts(self) -> None:
        """Clear only the spike counters (used at phase boundaries)."""
        self.spike_count.fill(0)

    def step(self, drive: np.ndarray) -> np.ndarray:
        """Advance one timestep with input ``drive`` (normalized units).

        Returns the boolean spike vector for this step.
        """
        drive = np.ascontiguousarray(drive, dtype=float)
        if drive.shape != self._state_shape:
            raise ValueError(
                f"drive must have shape {self._state_shape}, got {drive.shape}")
        # Integrate, spike (with the epsilon margin that keeps grid-exact
        # drives from losing a spike to float accumulation error), soft
        # reset, and floor at the resting potential: a negative membrane
        # would silently store "anti-spikes" that the rate activation
        # floor(u/theta) does not model.  The whole update runs in the
        # selected kernel backend, mutating v in place.
        spikes = kernels.if_step(self.v, drive)
        self.spike_count += spikes
        return spikes


class SignedErrorLayer:
    """A pair of IF populations representing a signed error in two channels.

    The feedback path cannot carry negative spike rates, so the paper uses a
    positive and a negative channel per error neuron (Section III-A,
    Eq. 10).  This helper owns both channels, integrates a *signed* drive and
    reports signed spike output ``(+1, -1, 0)`` per neuron.

    The channels can be gated by the forward-path activity (the
    multi-compartment AND gate): a gated channel integrates normally but
    produces no output spikes while the gate is closed.

    Like :class:`IFLayer`, the pair can carry a leading batch dimension:
    with ``batch_size=B`` both channels hold ``(B, n)`` state and
    :meth:`step` maps ``(B, n)`` signed drives (and gates) to ``(B, n)``
    signed spikes.
    """

    def __init__(self, n: int, batch_size: int = None):
        self.n = int(n)
        self.batch_size = None if batch_size is None else int(batch_size)
        self.pos = IFLayer(n, batch_size=batch_size)
        self.neg = IFLayer(n, batch_size=batch_size)

    def reset(self) -> None:
        self.pos.reset()
        self.neg.reset()

    def step(self, signed_drive: np.ndarray,
             gate: np.ndarray = None) -> np.ndarray:
        """Advance one step; return signed spikes in ``{-1, 0, +1}``.

        ``signed_drive`` feeds the positive channel as-is and the negative
        channel negated.  ``gate`` is a boolean per-neuron mask (the soma
        output is ANDed with it).
        """
        signed_drive = np.ascontiguousarray(signed_drive, dtype=float)
        sp = self.pos.step(signed_drive)
        sn = self.neg.step(-signed_drive)
        if gate is not None:
            gate = np.asarray(gate, dtype=bool)
            self.pos.spike_count -= sp & ~gate
            self.neg.spike_count -= sn & ~gate
            sp = sp & gate
            sn = sn & gate
        return sp.astype(float) - sn.astype(float)

    @property
    def signed_count(self) -> np.ndarray:
        """Signed spike count: positive-channel minus negative-channel."""
        return self.pos.spike_count - self.neg.spike_count


def rate_activation(potential: np.ndarray, T: int) -> np.ndarray:
    """Closed-form IF rate on the ``1/T`` grid: ``floor(p*T)/T`` in [0, 1].

    ``potential`` is the per-step drive in normalized units (threshold = 1).
    This is Eq. (2) of the paper expressed in rates instead of counts.
    """
    p = np.asarray(potential, dtype=float)
    return np.clip(np.floor(p * T + 1e-9), 0, T) / T


def quantize_rate(rate: np.ndarray, T: int) -> np.ndarray:
    """Snap a rate in [0, 1] onto the ``1/T`` grid (toward zero)."""
    r = np.asarray(rate, dtype=float)
    return np.clip(np.floor(r * T + 1e-9), 0, T) / T
