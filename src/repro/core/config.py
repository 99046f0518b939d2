"""Configuration objects for the EMSTDP algorithm.

The same configuration dataclass drives both the full-precision reference
implementation (:mod:`repro.core.network`) and the on-chip implementation
(:mod:`repro.onchip`).  All rate quantities are *normalized*: a spiking rate
of ``1.0`` means one spike per timestep, i.e. ``T`` spikes over a phase of
length ``T``.  Spike counts are therefore always ``rate * T`` and live on the
grid ``{0, 1/T, ..., 1}``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple


#: Feedback wiring styles supported by EMSTDP (Section III-A of the paper).
FEEDBACK_MODES = ("fa", "dfa")

#: Dynamics backends for the reference implementation.
DYNAMICS_MODES = ("rate", "spike")


@dataclasses.dataclass
class EMSTDPConfig:
    """Hyper-parameters of the EMSTDP learning rule.

    Parameters mirror the paper's experimental setup (Section IV-A): phase
    length ``T = 64`` and learning rate ``eta = 2**-3``.

    Attributes
    ----------
    phase_length:
        Number of timesteps ``T`` in each of the two phases.  A full training
        presentation of one sample takes ``2 * T`` steps.
    learning_rate:
        The ``eta`` of Eq. (7)/(12), applied to normalized rates.
    feedback:
        ``"fa"`` for feedback alignment (a fixed random feedback network with
        one error neuron per forward neuron) or ``"dfa"`` for direct feedback
        alignment (errors broadcast straight from the output-layer error
        neurons).
    error_gain:
        Loop gain ``g`` of the output error neurons: the rate of an error
        neuron is ``clip(g * |target - predicted|, 0, 1)`` quantized to the
        ``1/T`` grid.  Values above 1 push the phase-2 rates closer to the
        true targets at the cost of oscillation; the closed loop settles at
        ``g / (1 + g)`` of the raw error for one-to-one correction wiring.
    gate_hidden:
        Apply the surrogate-derivative gate ``h' = [h > 0]`` to hidden-layer
        error neurons (the multi-compartment AND gate of Section III-A).
        The output error neurons are never gated: the paper's loss layer
        (Eq. 6) carries no ``h'`` factor.
    use_bias_neuron:
        Append an always-on (rate 1) bias unit to every trainable layer; its
        outgoing weights are learned with the same local rule, which is how a
        bias can be realised on hardware that only adapts synapses.
    dynamics:
        ``"rate"`` solves the phase fixed points in closed form on the
        ``1/T`` grid (fast, used for long experiments); ``"spike"`` simulates
        every timestep with integrate-and-fire neurons (used to validate that
        the closed form matches the actual dynamics).
    weight_clip:
        Clamp for forward weights, in normalized potential units.  ``None``
        disables clipping (full precision).
    weight_bits:
        If not ``None``, quantize weights to this many bits (signed, uniform
        over ``[-weight_clip, +weight_clip]``) after every update.  The
        on-chip implementation uses 8.
    stochastic_rounding:
        Use stochastic rounding when quantizing weight updates; deterministic
        rounding-to-nearest otherwise.  Essential for small updates to make
        progress on coarse grids.
    seed:
        Seed for all randomness (init, feedback matrices, rounding).
    """

    phase_length: int = 64
    learning_rate: float = 2.0 ** -3
    feedback: str = "dfa"
    error_gain: float = 1.0
    gate_hidden: bool = True
    use_bias_neuron: bool = True
    dynamics: str = "rate"
    weight_clip: Optional[float] = None
    weight_bits: Optional[int] = None
    stochastic_rounding: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.phase_length < 1:
            raise ValueError("phase_length must be >= 1")
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(
                f"feedback must be one of {FEEDBACK_MODES}, got {self.feedback!r}"
            )
        if self.dynamics not in DYNAMICS_MODES:
            raise ValueError(
                f"dynamics must be one of {DYNAMICS_MODES}, got {self.dynamics!r}"
            )
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_bits is not None and self.weight_bits < 2:
            raise ValueError("weight_bits must be >= 2 (one sign bit + magnitude)")
        if self.weight_bits is not None and self.weight_clip is None:
            # A quantization grid needs a finite range.
            raise ValueError("weight_bits requires weight_clip to be set")

    @property
    def T(self) -> int:
        """Alias matching the paper's notation for the phase length."""
        return self.phase_length

    def replace(self, **changes) -> "EMSTDPConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def loihi_default_config(**overrides) -> EMSTDPConfig:
    """Config matching the constraints of the Loihi implementation.

    8-bit weights with stochastic rounding, DFA feedback, and the paper's
    ``T = 64`` / ``eta = 2**-3`` settings.
    """
    base = dict(
        phase_length=64,
        learning_rate=2.0 ** -3,
        feedback="dfa",
        weight_clip=2.0,
        weight_bits=8,
        stochastic_rounding=True,
    )
    base.update(overrides)
    return EMSTDPConfig(**base)


def full_precision_config(**overrides) -> EMSTDPConfig:
    """Config matching the paper's "Python (FP)" software baseline."""
    base = dict(
        phase_length=64,
        learning_rate=2.0 ** -3,
        feedback="dfa",
        weight_clip=None,
        weight_bits=None,
    )
    base.update(overrides)
    return EMSTDPConfig(**base)


def validate_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    """Validate a layer-size tuple ``(n_in, n_h1, ..., n_out)``."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("a network needs at least an input and an output layer")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer sizes must be >= 1, got {dims}")
    return dims
