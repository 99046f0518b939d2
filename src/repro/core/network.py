"""Full-precision reference implementation of EMSTDP.

This is the "Python (FP)" baseline of Table I: the same two-phase, spike
domain algorithm as the chip implementation, but with float weights and no
hardware resource constraints.  Two dynamics backends are provided:

``rate``
    Solves each phase's steady state directly on the ``1/T`` rate grid.
    Phase 2 is a closed loop (error spikes perturb the forward rates, which
    changes the error), solved by fixed-point iteration.  This is the fast
    backend used for the long Table I / Fig. 4 runs.  Its solver
    (:meth:`EMSTDPNetwork.forward_rates` and the two-phase solve) takes one
    sample ``(n,)`` or a block ``(B, n)``: every step is elementwise on the
    grid or a matmul, so the per-sample calls and the batched engine run
    the same code, a 1-D call doing per-sample arithmetic.  Inference and
    phase 1 run one forward (``_RateSolve``) on BLAS products.  The
    weights are frozen within a solve and the phase-2 corrections enter
    after each layer's quantization, so the first layer's drive is
    computed once per solve: one first-layer product instead of
    ``1 + PHASE2_ITERATIONS``.  When the kernel backend provides the
    loop, a training sample (or a minibatch) is then phase 1 plus one
    :func:`repro.core.kernels.rate_phase2` call, which runs every phase-2
    pass and the Eq. (7) write-back, updating the weights in place; it
    reads weight and feedback tables the network binds once and rebinds
    only when an array is replaced.  Otherwise phase 2 runs in
    :func:`rate_phase2_reference` and the write-back in
    ``_apply_updates`` (:class:`~repro.core.learning.WeightUpdater`), the
    NumPy path the call is pinned to byte for byte
    (``tests/test_rate_fused.py``); a single sample goes in as a block of
    one.  Phase 2's products (the feedback product and each corrected
    pass's product into layers >= 1) follow the spike path's rule below,
    row-ordered sums from +0.0, and its clip/quantize chains are the IEEE
    operations of ``rate_activation`` / ``quantize_rate`` in their order;
    ``tests/test_rate_oracle.py`` pins every output bit to the unfused
    solver with those products.

``spike``
    Simulates all ``2*T`` timesteps with explicit integrate-and-fire neurons,
    two-channel error populations, gated error output and per-step
    corrections — the ground truth the rate backend is validated against
    (see ``tests/test_network_equivalence.py``).  Every spike entry point
    runs one batched ``(B, n)`` presentation, a single sample being
    ``B = 1``: one :func:`repro.core.kernels.spike_present` call when the
    kernel backend provides that fused loop, else
    :func:`spike_present_reference`, the per-step NumPy path it is pinned
    to bit for bit (``tests/test_spike_fused.py``).  Each weighted input
    is the sum of the active weight rows in row order from +0.0 —
    event-driven like the chip, and reproducible by a C loop where a BLAS
    mat-vec is not.

The paper trains strictly online (batch size 1, Section IV-A) and
:meth:`EMSTDPNetwork.train_sample` / :meth:`EMSTDPNetwork.train_stream`
reproduce exactly that.  On top of it sits a *batched engine* —
:meth:`EMSTDPNetwork.fit_batch`, :meth:`EMSTDPNetwork.predict_batch` and
:meth:`EMSTDPNetwork.evaluate_batch` — that runs a whole minibatch through
one set of NumPy array ops for both backends.  ``fit_batch`` offers two
update modes:

``update_mode="online"``
    Bit-identical to the sequential per-sample loop: each sample's two-phase
    presentation sees the weights already updated by every earlier sample.
    The weight-update chain is a true data dependency, so this mode
    vectorizes *within* a sample (across neurons and timesteps) but walks
    the batch in order — it is the validated ground truth.

``update_mode="minibatch"``
    Fully vectorized across the batch: one batched two-phase pass with
    frozen weights, per-sample Eq. (7) deltas reduced to their mean
    (classic minibatch SGD) and applied in a single projected write-back.
    This breaks the online dependency chain — a deliberate, documented
    approximation — and is the fast path measured in
    ``benchmarks/bench_batched_throughput.py``.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .config import EMSTDPConfig, validate_dims
from .encoding import (active_class_mask, as_labeled_batch,
                       as_sample_batch, bias_encode, encode_labels,
                       label_indices, quantize_to_bins)
from .feedback import make_dfa_weights, make_fa_weights
from .learning import WeightUpdater
from .loss import predict_class, predict_classes
from .neuron import IFLayer, SignedErrorLayer

#: Damped fixed-point passes the rate engine runs to settle the closed
#: loop of phase 2.
PHASE2_ITERATIONS = 8


def accumulate_rows(spikes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``spikes @ w`` as the spike path defines it, for ``(B, n_rows)``
    spikes in ``{0, 1}`` or signed ``{-1, 0, +1}``, and the rate path's
    phase 2 for rates and corrections.

    Each batch row gets the sum of the rows of ``w`` whose input is
    nonzero, each times its input, in row order, starting from +0.0; a
    signed spike adds or subtracts its row.  ``np.add.accumulate`` adds
    strictly in order (never pairwise) but starts from the first term, so
    a sum of only ``-0.0`` terms comes out ``-0.0``; ``+ 0.0`` makes it
    the +0.0 of a sum started at +0.0 and leaves every other value as it
    is.
    """
    acc = np.zeros((spikes.shape[0], w.shape[1]))
    for b, row in enumerate(spikes):
        active = np.flatnonzero(row)
        if active.size:
            terms = row[active, None] * w[active]
            acc[b] = np.add.accumulate(terms, axis=0)[-1] + 0.0
    return acc


def spike_present_reference(dims, steps, drive, weights, class_mask,
                            target=None, feedback=(), *, fa=False,
                            bias_unit=True, gate_hidden=True,
                            error_gain=1.0):
    """Per-step NumPy reference of :func:`repro.core.kernels.spike_present`.

    Same arguments and result: phase 1 for ``steps`` timesteps, then, given
    a ``target``, phase 2 with membranes carried over; returns each
    phase's per-layer ``(B, n)`` spike counts (``None`` for phase 2
    without a target).  Every population is an :class:`IFLayer` or a
    :class:`SignedErrorLayer` stepped one timestep at a time, and every
    weighted input goes through :func:`accumulate_rows`.
    """
    B = drive.shape[0]
    if B == 0:  # IFLayer needs a batch row; an empty block spikes nowhere
        empty = [np.zeros((0, n), dtype=np.int64) for n in dims]
        return empty, (None if target is None else empty)
    layers = [IFLayer(n, batch_size=B) for n in dims]

    def forward(corrections):
        spikes = layers[0].step(drive).astype(float)
        for i, w in enumerate(weights):
            if bias_unit:
                spikes = np.concatenate([spikes, np.ones((B, 1))], axis=1)
            d = accumulate_rows(spikes, w)
            if corrections is not None:
                d = d + corrections[i]
            spikes = layers[i + 1].step(d).astype(float)
        return spikes

    for _ in range(steps):
        forward(None)
    phase1 = [layer.spike_count.copy() for layer in layers]
    if target is None:
        return phase1, None

    # Phase 2: counters restart, membrane potentials persist.  The chip
    # trainer differs here: it zeroes the forward membranes at the phase
    # boundary (repro.onchip.trainer); bringing that reset to this engine
    # and the C kernel is ROADMAP.md item 1.  The forward-activity gates
    # shut the error channel of a neuron silent in phase 1 (surrogate
    # derivative h' = 0).
    gates = [c > 0 for c in phase1]
    for layer in layers:
        layer.reset_counts()
    label_layer = IFLayer(dims[-1], batch_size=B)
    out_err = SignedErrorLayer(dims[-1], batch_size=B)
    # FA: chained error relay pairs.  DFA: correction dendrite pairs fed
    # straight from the output error — same IF threshold filtering,
    # different feedback topology.
    hidden_err = [SignedErrorLayer(n, batch_size=B) for n in dims[1:-1]]
    # Signed error spikes from the previous step, delivered this step.
    pending_out = np.zeros((B, dims[-1]))
    pending_hidden = [np.zeros((B, n)) for n in dims[1:-1]]
    order = range(len(dims) - 2)
    for _ in range(steps):
        out = forward(pending_hidden + [pending_out * class_mask])
        label = label_layer.step(target).astype(float)
        pending_out = out_err.step(
            error_gain * (label - out * class_mask)) * class_mask
        e_above = pending_out
        for i in (reversed(order) if fa else order):
            d = accumulate_rows(e_above if fa else pending_out, feedback[i])
            pending_hidden[i] = hidden_err[i].step(
                d, gate=gates[i + 1] if gate_hidden else None)
            e_above = pending_hidden[i]
    return phase1, [layer.spike_count for layer in layers]


# The rate solver's chains run in place with the IEEE operations of
# rate_activation / quantize_rate, in their order.  np.clip(v, lo, hi) is
# min(max(v, lo), hi) except that it keeps a -0.0 which np.maximum turns
# into +0.0; each chain says why no such zero reaches its result.  Scalar
# operands are 0-d float64 arrays (``T`` too): NumPy converts a Python
# scalar anew on every call, into the same float64 operand.
_ZERO, _ONE, _EPS, _HALF = (np.array(v) for v in (0.0, 1.0, 1e-9, 0.5))


def _activate(p: np.ndarray, T: np.ndarray) -> np.ndarray:
    """:func:`rate_activation` of a fresh drive ``p``, in place.

    ``floor(p*T + 1e-9)`` is never -0.0 (a sum that rounds to zero is
    +0.0), so its clip to [0, T] is a max and a min.
    """
    np.multiply(p, T, out=p)
    np.add(p, _EPS, out=p)
    np.floor(p, out=p)
    np.maximum(p, _ZERO, out=p)
    np.minimum(p, T, out=p)
    return np.divide(p, T, out=p)


def _requantize(r: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``quantize_rate(np.clip(r, 0, 1), T)``, in place.

    A zero of either sign becomes 1e-9 at ``* T + 1e-9``, so the max may
    drop a sign the clip would keep.  ``quantize_rate``'s own clip to
    [0, T] is left out: for ``r`` in [0, 1], ``floor(r*T + 1e-9)`` is
    already in [0, T].
    """
    np.maximum(r, _ZERO, out=r)
    np.minimum(r, _ONE, out=r)
    np.multiply(r, T, out=r)
    np.add(r, _EPS, out=r)
    np.floor(r, out=r)
    return np.divide(r, T, out=r)


def _signed_error(e: np.ndarray, T: np.ndarray,
                  gate: Optional[np.ndarray] = None) -> np.ndarray:
    """Net rate of an IF error pair, ``e_pos - e_neg``, into ``e[0]``.

    ``e`` stacks the two channels; ``e[0]`` holds the drive ``d`` on entry.
    Both get :func:`repro.core.loss.signed_error_rates`'s quantization of
    ``d`` and ``-d`` in one pass, then the optional 0/1 ``gate``.
    """
    np.negative(e[0], out=e[1])
    _requantize(e, T)
    if gate is not None:
        np.multiply(e, gate, out=e)
    return np.subtract(e[0], e[1], out=e[0])


def _damp(c: np.ndarray, new: np.ndarray) -> None:
    """The damped fixed-point step ``c = c + 0.5 * (new - c)``, in place;
    ``new`` is overwritten."""
    np.subtract(new, c, out=new)
    np.multiply(new, _HALF, out=new)
    np.add(c, new, out=c)


def rate_phase2_reference(dims, T, iterations, drive, h, weights, class_mask,
                          labels, feedback, *, fa=False, bias_unit=True,
                          gate_hidden=True, error_gain=1.0):
    """NumPy reference of :func:`repro.core.kernels.rate_phase2`.

    Same arguments (``weights`` and ``feedback`` as sequences of arrays)
    and result: ``iterations`` damped fixed-point passes of the rate
    engine's phase 2 for a ``(B, n)`` block, starting from the phase-1
    rates ``h`` of layers 1..L and the first layer's pre-correction rates
    ``drive``; returns the phase-2 rates of layers 1..L.  The target is
    ``encode_labels(labels) * class_mask``.  Every chain is the IEEE
    operations of ``rate_activation`` / ``quantize_rate`` in their order,
    and every phase-2 product (the feedback product and each corrected
    pass's layer >= 1 product) goes through :func:`accumulate_rows`.
    """
    T = np.array(float(T))
    mask = class_mask.astype(float)
    target = encode_labels(labels, dims[-1]) * mask
    n_layers = len(dims) - 1
    batch = len(drive)
    # ``gates[i]`` belongs to layer ``i + 1``; a 0/1 float multiplies like
    # the bool it replaces.
    gates = [(r > 0).astype(float) for r in h]
    # Buffers made once: the damped corrections (a correction starts at
    # 0.0, as a scalar 0.0 would: ``0.0 + 0.5 * (d - 0.0)``), the stacked
    # (+, -) error channels of every layer, each hidden layer's input with
    # the bias unit's rate 1 appended, and the phase-2 rates, which start
    # as the phase-1 rates.
    corrections = [np.zeros((batch, n)) for n in dims[1:]]
    channels = [np.empty((2, batch, n)) for n in dims[1:]]
    inputs = [np.ones((batch, n + 1)) for n in dims[1:-1]]
    h_hat = [np.array(r) for r in h]
    e_out = corrections[-1]
    gain = np.array(float(error_gain))
    order = range(n_layers - 1)
    for _ in range(iterations):
        e = channels[-1]
        np.subtract(target, h_hat[-1], out=e[0])
        np.multiply(e[0], gain, out=e[0])
        _signed_error(e, T)
        _damp(e_out, np.multiply(e[0], mask, out=e[0]))
        e_above = e_out
        for i in (reversed(order) if fa else order):
            e = channels[i]
            e[0] = accumulate_rows(e_above if fa else e_out, feedback[i])
            _damp(corrections[i], _signed_error(
                e, T, gates[i] if gate_hidden else None))
            e_above = corrections[i]
        # The corrected forward pass: corrections (signed spike rates)
        # enter after each layer's IF quantization — the effect of
        # one-to-one error spikes carrying a full threshold's worth of
        # charge — so the first layer's drive is the phase-1 one.
        for i, r in enumerate(h_hat):
            if i == 0:
                np.add(drive, corrections[0], out=r)
            else:
                x = h_hat[i - 1]
                if bias_unit:
                    x = inputs[i - 1]
                    x[:, :-1] = h_hat[i - 1]
                r[...] = _activate(accumulate_rows(x, weights[i]), T)
                np.add(r, corrections[i], out=r)
            _requantize(r, T)
        np.multiply(h_hat[-1], mask, out=h_hat[-1])
    return h_hat


def _holds(arrays, table: kernels.ArrayTable) -> bool:
    """Whether ``arrays`` holds exactly the arrays ``table`` bound."""
    return len(arrays) == len(table.arrays) and all(
        map(operator.is_, arrays, table.arrays))


class _RateSolve:
    """One rate solve's fixed part and its phase-1 forward pass.

    Within a solve the weights are frozen, and phase 2 adds its
    corrections only after each layer's IF quantization.  So the quantized
    input ``q0`` and the first layer's pre-correction rates ``drive``,
    ``rate_activation(aug(q0) @ W0)``, are the same in phase 1 and in
    every phase-2 pass: they are computed once, and phase 2 starts from
    ``drive``.
    """

    def __init__(self, net: "EMSTDPNetwork", x):
        self.T = T = np.array(float(net.config.T))
        self.weights = net.weights
        self.mask = net.class_mask.astype(float)
        self.q0 = quantize_to_bins(np.asarray(x, dtype=float), net.config.T)
        self.drive = _activate(net._augment(self.q0) @ self.weights[0], T)
        lead = self.q0.shape[:-1]
        self.inputs = None
        if net._bias:
            self.inputs = [np.empty(lead + (n + 1,)) for n in net.dims[1:-1]]
            for a in self.inputs:
                a[..., -1] = 1.0

    def _input(self, i: int, r: np.ndarray) -> np.ndarray:
        """Layer ``i``'s rates (``i >= 1``) with the bias unit's rate 1
        appended, if the network has one."""
        if self.inputs is None:
            return r
        a = self.inputs[i - 1]
        a[..., :-1] = r
        return a

    def forward(self) -> List[np.ndarray]:
        """Every layer's phase-1 rates ``[q0, r_1, ..., r_L]``."""
        T = self.T
        last = len(self.weights) - 1
        rates = [self.q0]
        for i, w in enumerate(self.weights):
            r = (self.drive if i == 0 else
                 _activate(self._input(i, rates[i]) @ w, T))
            if i == last:
                r = r * self.mask
            rates.append(r)
        return rates


class EMSTDPNetwork:
    """A multilayer SNN trained online with EMSTDP.

    Parameters
    ----------
    dims:
        Layer sizes ``(n_in, n_h1, ..., n_out)``.
    config:
        Algorithm hyper-parameters; see :class:`repro.core.EMSTDPConfig`.
    rng:
        Optional generator; defaults to one seeded from ``config.seed``.

    Attributes
    ----------
    weights:
        The forward weight matrices, ``(dims[i] + bias, dims[i + 1])``.
        Training updates these arrays in place, so take ``.copy()`` or
        :meth:`state_dict` for a snapshot, and do not train a network that
        another thread is serving.  Assigning a new list or array is
        seen at the next training call.
    """

    def __init__(self, dims: Sequence[int], config: Optional[EMSTDPConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.dims = validate_dims(dims)
        self.config = config if config is not None else EMSTDPConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.n_layers = len(self.dims) - 1
        self.n_classes = self.dims[-1]
        self._bias = 1 if self.config.use_bias_neuron else 0

        self.updater = WeightUpdater(
            eta=self.config.learning_rate,
            weight_bits=self.config.weight_bits,
            weight_clip=self.config.weight_clip,
            stochastic_rounding=self.config.stochastic_rounding,
            rng=self.rng,
        )
        self.weights: List[np.ndarray] = []
        for i in range(self.n_layers):
            fan_in = self.dims[i] + self._bias
            limit = np.sqrt(6.0 / fan_in)
            w = self.rng.uniform(-limit, limit, size=(fan_in, self.dims[i + 1]))
            self.weights.append(self.updater.project(w))

        maker = (make_fa_weights if self.config.feedback == "fa"
                 else make_dfa_weights)
        self.feedback_weights = maker(self.dims, self.rng)

        # Masked output classes are "disabled classifier neurons" used by the
        # incremental-learning protocol: they neither fire nor receive error.
        self.class_mask = np.ones(self.n_classes, dtype=bool)

        self.samples_seen = 0
        #: ``(weights, feedback)`` tables of :meth:`_bind`.
        self._bound: Optional[Tuple[kernels.ArrayTable,
                                    kernels.ArrayTable]] = None

    # ------------------------------------------------------------------
    # Forward path
    # ------------------------------------------------------------------

    def _augment(self, rates: np.ndarray) -> np.ndarray:
        """Append the always-on bias unit's rate if enabled (a column of
        ones for a ``(B, n)`` block)."""
        if not self._bias:
            return rates
        return np.concatenate([rates, np.ones(rates.shape[:-1] + (1,))],
                              axis=-1)

    def forward_rates(self, x: np.ndarray) -> List[np.ndarray]:
        """Steady-state (phase-1) rates of every layer given input ``x``
        in [0, 1].

        ``x`` is one sample ``(n_in,)`` or a block ``(B, n_in)``; every
        step is elementwise on the ``1/T`` grid or a matmul, so row ``b``
        of a block's result equals the result for ``x[b]`` alone.
        """
        return _RateSolve(self, x).forward()

    def predict(self, x: np.ndarray) -> int:
        """Class decision from a phase-1 inference pass."""
        return predict_class(self.output_rates(x))

    def output_rates(self, x: np.ndarray) -> np.ndarray:
        """Output-layer rates from a phase-1 inference pass."""
        if self.config.dynamics == "spike":
            return self.output_rates_batch(x)[0]
        return self.forward_rates(x)[-1]

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train_sample(self, x: np.ndarray, label: int,
                     lr_scale: float = 1.0) -> Dict[str, object]:
        """One full 2-phase EMSTDP presentation with a weight update.

        Returns a diagnostics dict with phase-1 rates ``h``, phase-2 rates
        ``h_hat``, the prediction and whether it was correct.
        """
        x = np.asarray(x, dtype=float)
        if self.config.dynamics == "spike":
            h, h_hat = self._spike_two_phase(x, label)
            self._apply_updates(h, h_hat, lr_scale)
        else:
            h, h_hat = self._rate_solve(x, label, lr_scale)
        self.samples_seen += 1
        pred = predict_class(h[-1])
        return {
            "h": h,
            "h_hat": h_hat,
            "prediction": pred,
            "correct": pred == label,
        }

    def _apply_updates(self, h: List[np.ndarray], h_hat: List[np.ndarray],
                       lr_scale: float) -> None:
        """Eq. (7) write-back of one sample's rates, or of a ``(B, n)``
        block's: the mean of its per-sample deltas in one projection.  Each
        result is written into its weight array in place."""
        eta0 = self.updater.eta
        self.updater.eta = eta0 * lr_scale
        try:
            for i, w in enumerate(self._bind()[0].arrays):
                args = (w, h_hat[i + 1], h[i + 1], self._augment(h[i]))
                w[...] = (self.updater.apply(*args) if h[i].ndim == 1 else
                          self.updater.apply_batch(*args, reduction="mean"))
        finally:
            self.updater.eta = eta0

    def _bind(self) -> Tuple[kernels.ArrayTable, kernels.ArrayTable]:
        """The weight and feedback tables :func:`kernels.rate_phase2`
        reads, bound once.

        Binds again only when ``weights``, ``feedback_weights`` or an array
        in them was replaced since (``load_state_dict``, an assignment).
        An array that is not a writable C-contiguous float64 array is first
        replaced in its list by such a copy, once: the kernel reads no
        other layout, and training writes into the weights.
        """
        bound = self._bound
        if bound is not None and _holds(self.weights, bound[0]) \
                and _holds(self.feedback_weights, bound[1]):
            return bound
        for arrays in (self.weights, self.feedback_weights):
            for i, a in enumerate(arrays):
                c = np.ascontiguousarray(a, dtype=float)
                if not c.flags.writeable:
                    c = c.copy()
                if c is not a:
                    arrays[i] = c
        self._bound = bound = (kernels.array_table(self.weights),
                               kernels.array_table(self.feedback_weights))
        return bound

    # -- rate backend ---------------------------------------------------

    def _rate_solve(self, x: np.ndarray, labels,
                    lr_scale: Optional[float] = None
                    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The two-phase rate solve and, given ``lr_scale``, the Eq. (7)
        write-back: per sample for one sample ``x``, the batch mean for a
        block.

        When the backend provides the fused loop, phase 2 and the
        write-back are one :func:`kernels.rate_phase2` call; else phase 2
        is :func:`rate_phase2_reference` and the write-back
        :meth:`_apply_updates`, the reference the fused call is pinned to.
        """
        cfg = self.config
        labels = label_indices(labels, self.n_classes)
        solve = _RateSolve(self, x)
        h = solve.forward()

        # Phase 2 is a closed loop: error spikes raise/lower the forward
        # rates, which in turn changes the error.  The spiking system settles
        # into a limit cycle whose *time average* is the self-consistent
        # solution; plain fixed-point iteration instead oscillates with
        # period 2 (error on / error off).  Damped iteration recovers the
        # time-averaged equilibrium, e.g. for one output neuron
        # ``e = g * (target - h) / (1 + g)``.
        #
        # FA relays the error down a chain of error pairs, top layer first.
        # DFA broadcasts the output error through fixed random D into
        # per-neuron correction *dendrites*.  Like the FA error neurons,
        # the dendrites are integrate-and-fire: corrections below one
        # threshold's worth of charge produce no spikes, which filters the
        # broadcast noise that raw current injection would accumulate into
        # weight drift.  The forward-activity gates shut the error channel
        # of a neuron silent in phase 1 (surrogate derivative h' = 0).
        #
        # Every pass runs in one kernels.rate_phase2 call, on the bound
        # weight tables, when the backend provides it, else in
        # rate_phase2_reference; both take (B, n) blocks and the label
        # indices, so one sample goes in as a block of one.  The tables are
        # bound after phase 1, which reads the weights as they were
        # assigned.
        weights, feedback = self._bind()

        def block(a):
            return a.reshape(-1, a.shape[-1])

        args = (self.dims, cfg.T, PHASE2_ITERATIONS, block(solve.drive),
                [block(r) for r in h[1:]])
        kwargs = dict(fa=cfg.feedback == "fa", bias_unit=bool(self._bias),
                      gate_hidden=cfg.gate_hidden, error_gain=cfg.error_gain)
        fused = kernels.backend_provides("rate_phase2")
        if fused:
            update = None
            if lr_scale is not None:
                up = self.updater
                update = kernels.RateUpdate(
                    np.ascontiguousarray(block(solve.q0)),
                    up.eta * lr_scale, h[0].ndim > 1, up.weight_clip,
                    up.weight_bits, up.rng if up.stochastic_rounding else None)
            h_hat = kernels.rate_phase2(*args, weights, self.class_mask,
                                        labels, feedback, update=update,
                                        **kwargs)
        else:
            h_hat = rate_phase2_reference(*args, weights.arrays,
                                          self.class_mask, labels,
                                          feedback.arrays, **kwargs)
        h_hat = [h[0]] + [r.reshape(hi.shape) for r, hi in zip(h_hat, h[1:])]
        if lr_scale is not None and not fused:
            self._apply_updates(h, h_hat, lr_scale)
        return h, h_hat

    # -- spike backend --------------------------------------------------

    def _spike_two_phase(self, x: np.ndarray, label: int
                         ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """One sample's ``(h, h_hat)``: :meth:`_spike_rates` at B = 1."""
        return tuple([r[0] for r in rates] for rates in
                     self._spike_rates(self._as_batch(x), [label]))

    # ------------------------------------------------------------------
    # Batched engine
    # ------------------------------------------------------------------

    def _as_batch(self, X) -> np.ndarray:
        """Coerce input to a ``(B, n_in)`` float block (1-D becomes B=1)."""
        return as_sample_batch(X, self.dims[0])

    def output_rates_batch(self, X: np.ndarray) -> np.ndarray:
        """Batched phase-1 inference: ``(B, n_out)`` output rates."""
        X = self._as_batch(X)
        if self.config.dynamics == "spike":
            return self._spike_rates(X)[0][-1]
        return self.forward_rates(X)[-1]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Class decisions for a whole batch; equals ``[predict(x) for x in X]``."""
        return predict_classes(self.output_rates_batch(X))

    def evaluate_batch(self, samples, labels, batch_size: int = 256) -> float:
        """Phase-1 accuracy via the vectorized path, chunked to bound memory."""
        X, y = as_labeled_batch(samples, labels, self.dims[0])
        correct = 0
        for lo in range(0, len(X), batch_size):
            preds = self.predict_batch(X[lo:lo + batch_size])
            correct += int(np.sum(preds == y[lo:lo + batch_size]))
        return correct / max(len(X), 1)

    def fit_batch(self, X: np.ndarray, labels, update_mode: str = "online",
                  lr_scale: float = 1.0) -> Dict[str, object]:
        """Train on a minibatch; returns per-sample predictions and accuracy.

        Parameters
        ----------
        X, labels:
            ``(B, n_in)`` samples and ``(B,)`` integer labels.
        update_mode:
            ``"online"`` applies each sample's update in order, with every
            presentation seeing the freshest weights — bit-identical to
            ``for x, y in zip(X, labels): train_sample(x, y)`` (the update
            chain is a data dependency, so the batch is walked
            sequentially).  ``"minibatch"`` runs one vectorized two-phase
            pass with frozen weights and applies the *mean* of the
            per-sample Eq. (7) deltas in a single projected write-back —
            the fast path (see the module docstring for the trade-off).
        lr_scale:
            Temporary learning-rate multiplier, as in :meth:`train_sample`.

        Returns
        -------
        dict with ``"predictions"`` (``(B,)`` int array, phase-1 decisions),
        ``"correct"`` (``(B,)`` bool array) and ``"accuracy"`` (float).
        """
        X, y = as_labeled_batch(X, labels, self.dims[0])
        if update_mode not in ("online", "minibatch"):
            raise ValueError(
                f"update_mode must be 'online' or 'minibatch', got {update_mode!r}")
        # Every label is checked before the first sample trains.
        label_indices(y, self.n_classes)
        if len(X) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return {"predictions": empty, "correct": empty.astype(bool),
                    "accuracy": 0.0}
        if update_mode == "online":
            preds = np.empty(len(X), dtype=np.int64)
            for b in range(len(X)):
                preds[b] = self.train_sample(X[b], int(y[b]),
                                             lr_scale=lr_scale)["prediction"]
        elif update_mode == "minibatch":
            if self.config.dynamics == "spike":
                h, h_hat = self._spike_rates(X, y)
                self._apply_updates(h, h_hat, lr_scale)
            else:
                h, h_hat = self._rate_solve(X, y, lr_scale)
            self.samples_seen += len(X)
            preds = predict_classes(h[-1])
        correct = preds == y
        return {
            "predictions": preds,
            "correct": correct,
            "accuracy": float(np.mean(correct)) if len(X) else 0.0,
        }

    def _spike_rates(self, X: np.ndarray, labels=None
                     ) -> Tuple[List[np.ndarray], Optional[List[np.ndarray]]]:
        """Phase-1 rates ``h`` and, given labels, phase-2 rates ``h_hat``
        of a ``(B, n_in)`` block with frozen weights (``h_hat`` is ``None``
        without labels).

        One fused :func:`kernels.spike_present` call when the backend
        provides it, else the per-step :func:`spike_present_reference`.
        Both get C-ordered float64 operands, the only layout the C loop
        reads: a Fortran-ordered block or an assigned weight view is
        copied.
        """
        cfg = self.config
        T = cfg.T
        target = None
        if labels is not None:
            target = encode_labels(labels, self.n_classes) * self.class_mask
        present = (kernels.spike_present
                   if kernels.backend_provides("spike_present")
                   else spike_present_reference)

        def c_order(arrays):
            return [np.ascontiguousarray(a, dtype=float) for a in arrays]

        counts = present(
            self.dims, T, np.ascontiguousarray(bias_encode(X, T)),
            c_order(self.weights), self.class_mask, target,
            c_order(self.feedback_weights),
            fa=cfg.feedback == "fa", bias_unit=bool(self._bias),
            gate_hidden=cfg.gate_hidden, error_gain=cfg.error_gain)
        h, h_hat = (None if phase is None else
                    [c / T for c in phase[:-1]]
                    + [phase[-1] / T * self.class_mask] for phase in counts)
        return h, h_hat

    # ------------------------------------------------------------------
    # Convenience training / evaluation loops
    # ------------------------------------------------------------------

    def train_stream(self, samples, labels, lr_scale: float = 1.0,
                     progress: Optional[callable] = None) -> float:
        """Single online pass over a stream; returns running accuracy."""
        correct = 0
        total = 0
        for x, y in zip(samples, labels):
            result = self.train_sample(x, int(y), lr_scale=lr_scale)
            correct += int(result["correct"])
            total += 1
            if progress is not None:
                progress(total, correct / total)
        return correct / max(total, 1)

    def evaluate(self, samples, labels) -> float:
        """Phase-1 (inference-only) accuracy over a test set."""
        correct = 0
        total = 0
        for x, y in zip(samples, labels):
            correct += int(self.predict(x) == int(y))
            total += 1
        return correct / max(total, 1)

    # ------------------------------------------------------------------
    # Checkpointing / incremental-learning hooks
    # ------------------------------------------------------------------

    def set_class_mask(self, active_classes: Sequence[int]) -> None:
        """Enable only ``active_classes`` output neurons (IOL step 1);
        ``ValueError`` for a class :func:`active_class_mask` refuses."""
        self.class_mask = active_class_mask(active_classes, self.n_classes)

    def clear_class_mask(self) -> None:
        """Re-enable every output neuron."""
        self.class_mask = np.ones(self.n_classes, dtype=bool)

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of everything needed to restore the model.

        The hyper-parameter config rides along so a checkpoint is
        self-describing: :class:`repro.serve.ModelRegistry` rebuilds the
        exact network (phase length, feedback mode, bias neuron, ...) from
        the checkpoint alone.  ``load_state_dict`` ignores the entry — the
        target object keeps its own config.
        """
        import dataclasses

        return {
            "dims": self.dims,
            "config": dataclasses.asdict(self.config),
            "weights": [w.copy() for w in self.weights],
            "feedback_weights": [b.copy() for b in self.feedback_weights],
            "class_mask": self.class_mask.copy(),
            "samples_seen": self.samples_seen,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Raises ``ValueError`` unless every array has the shape this
        network's dims and config give it: forward weights
        ``(dims[i] + bias, dims[i + 1])``, FA feedback
        ``(dims[i + 2], dims[i + 1])`` or DFA ``(n_out, dims[i + 1])``, and
        an ``(n_out,)`` class mask.
        """
        if tuple(state["dims"]) != self.dims:
            raise ValueError(
                f"checkpoint dims {state['dims']} != network dims {self.dims}")
        dims, fa = self.dims, self.config.feedback == "fa"
        # C order, as the network builds them (fresh copies either way).
        weights = [np.array(w, dtype=float, order="C")
                   for w in state["weights"]]
        feedback = [np.array(b, dtype=float, order="C")
                    for b in state["feedback_weights"]]
        class_mask = np.array(state["class_mask"], dtype=bool)
        for name, got, want in (
                ("weights", weights,
                 [(dims[i] + self._bias, dims[i + 1])
                  for i in range(self.n_layers)]),
                ("feedback_weights", feedback,
                 [(dims[i + 2] if fa else self.n_classes, dims[i + 1])
                  for i in range(self.n_layers - 1)]),
                ("class_mask", [class_mask], [(self.n_classes,)])):
            shapes = [a.shape for a in got]
            if shapes != want:
                raise ValueError(
                    f"checkpoint {name} shapes {shapes} != {want} for this "
                    f"network ({self.config.feedback} feedback, "
                    f"use_bias_neuron={self.config.use_bias_neuron})")
        self.weights = weights
        self.feedback_weights = feedback
        self.class_mask = class_mask
        self.samples_seen = int(state["samples_seen"])
