"""Operation Flow 1: in-hardware learning on the (simulated) chip.

Per training sample the host makes these runtime calls, in this order:

1. ``reset_state``, ``reset_traces``, ``reset_tags``: the previous
   sample's membranes, spike counters, traces and tags are cleared;
2. ``set_bias`` of the input neurons, then of the label neurons: the input,
   quantized to ``T`` bins, is programmed as the *bias* of the input layer
   (one host->chip transaction, Section III-D), and the one-hot label as
   the bias of the label neurons;
3. ``disable`` the error-path soma groups, then ``run(T)``: **phase 1**,
   forward path only — the auxiliary gate compartments stay enabled and
   integrate forward spikes so the ``h'`` gates know who was active;
4. ``learning_epoch("phase1_end")``: microcode ``dt = y1`` stashes the
   phase-1 spike count ``h`` in each synapse's tag; then ``reset_traces``;
5. ``reset_membranes`` of the forward groups (phase-2 counts must not
   inherit the phase-1 residual potential), ``enable`` the error path,
   then ``run(T)``: **phase 2**, where error spikes pull the forward rates
   toward the targets ``h_hat``;
6. ``learning_epoch("phase2_end")``: ``dt = y1`` completes the tag
   (``Z = h + h_hat``), then the Eq. (12) weight rule
   ``dw = 2^(e+1)*y1*x1 - 2^e*t*x1`` fires with stochastic rounding;
7. ``reset_tags``, ``reset_traces``, then ``mark_sample``.

Inference runs phase 1 only: ``reset_state``, ``set_bias`` of the input
neurons, ``disable`` (only on a network that has an error path),
``run(T)`` and ``mark_sample``; the output spike counters are the result.

:meth:`LoihiEMSTDPTrainer._present` is the one place these calls are
made, for a single sample and for a block of samples on a replicated
twin alike.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.encoding import (active_class_mask, as_labeled_batch,
                             as_sample_batch, encode_labels,
                             quantize_to_bins)
from ..loihi.chip import LoihiChip
from ..loihi.energy import EnergyModel, EnergyReport, RunStats
from ..loihi.mapping import Mapping
from ..loihi.microcode import emstdp_rules, phase1_tag_rules
from ..loihi.runtime import Runtime, ShardedRuntime
from ..loihi.synapse import WEIGHT_MANT_MAX
from .builder import OnChipEMSTDP, sync_networks

#: Default replica width of the batched runtime path (``fit_batch`` /
#: ``predict_batch``); chosen so the vectorized step amortizes Python
#: dispatch without replicating more state than a batch typically needs.
DEFAULT_BATCH_REPLICAS = 16


def replica_rngs(seed: int, replicas: int) -> List[np.random.Generator]:
    """The batched twin's per-replica stochastic-rounding streams.

    Replica ``r`` rounds with ``np.random.default_rng((seed + 1, r))``.
    The derivation is part of the public equivalence contract: a
    single-replica trainer built with that same generator and fed replica
    ``r``'s sample reproduces the replica's weights bit for bit (see
    ``tests/test_loihi_batched.py``).
    """
    return [np.random.default_rng((seed + 1, r)) for r in range(replicas)]


def host_reduce_rng(seed: int) -> np.random.Generator:
    """The host-side stream stochastically rounding minibatch write-backs.

    ``np.random.default_rng((seed + 2, 0))`` — disjoint from every replica
    stream, and documented (like :func:`replica_rngs`) so tests can
    reproduce the write-back exactly.  One ``(src.n, dst.n)`` draw is
    consumed per plastic connection per chunk, in connection order.
    """
    return np.random.default_rng((seed + 2, 0))


def eta_exponent(eta: float, weight_clip: float, T: int) -> int:
    """Microcode scale exponent realizing learning rate ``eta``.

    The reference rule operates on normalized rates (``h/T``) and weights
    (step ``clip/127``); the chip rule multiplies raw counts, so the per-
    mantissa scale is ``eta * 127 / (clip * T^2)``, rounded to the nearest
    power of two as the hardware requires.
    """
    scale = eta * WEIGHT_MANT_MAX / (weight_clip * T * T)
    return round(math.log2(scale))


def _checked_mantissas(conn, mant) -> np.ndarray:
    """``mant`` as int64 mantissas, or ``ValueError`` naming ``conn`` if
    it is not one ``(src.n, dst.n)`` block or any entry is non-finite, not
    an integer or beyond ``±WEIGHT_MANT_MAX``: a corrupt checkpoint must
    not load as other weights (broadcast, clipped, truncated, or NaN cast
    to an arbitrary integer)."""
    mant = np.asarray(mant)
    block = (conn.src.n, conn.dst.n)
    if mant.shape != block:
        raise ValueError(
            f"checkpoint weights of connection {conn.name!r} have shape "
            f"{mant.shape}, not {block}")
    if mant.dtype.kind not in "biuf" or not (
            np.isfinite(mant).all() and (mant == np.round(mant)).all()
            and (np.abs(mant) <= WEIGHT_MANT_MAX).all()):
        raise ValueError(
            f"checkpoint weights of connection {conn.name!r} are not "
            f"integer mantissas in [-{WEIGHT_MANT_MAX}, {WEIGHT_MANT_MAX}]")
    return mant.astype(np.int64)


class LoihiEMSTDPTrainer:
    """Drives an :class:`~repro.onchip.builder.OnChipEMSTDP` network."""

    def __init__(self, model: OnChipEMSTDP,
                 rng: Optional[np.random.Generator] = None,
                 chip: Optional[LoihiChip] = None,
                 neurons_per_core: Optional[int] = None,
                 compile_now: bool = True,
                 batch_replicas: Optional[int] = None):
        """``batch_replicas`` caps the replica width of the batched runtime
        path (``None`` = :data:`DEFAULT_BATCH_REPLICAS`; ``1`` routes
        inference through the sequential single-replica loop and makes
        minibatch training process one replica per chunk)."""
        self.model = model
        cfg = model.config
        self.runtime = Runtime(
            model.network,
            rng=rng if rng is not None else np.random.default_rng(cfg.seed + 1),
            stochastic_rounding=cfg.stochastic_rounding)
        clip = cfg.weight_clip if cfg.weight_clip is not None else 2.0
        self.eta_exp = eta_exponent(cfg.learning_rate, clip, cfg.T)
        self.runtime.register_rule("emstdp", {
            "phase1_end": phase1_tag_rules(),
            "phase2_end": emstdp_rules(self.eta_exp),
        })
        #: Error-path groups that only run in phase 2 (soma channels and the
        #: label group).  The auxiliary gate compartments stay enabled in
        #: phase 1 so they can record forward activity.
        self._phase2_names = [n for n in model.error_path_names
                              if "aux" not in n]
        self.mapping: Optional[Mapping] = None
        self._neurons_per_core = neurons_per_core
        if compile_now:
            self.compile(chip, neurons_per_core)
        self._class_mask = np.ones(model.dims[-1], dtype=bool)
        self.samples_trained = 0
        self.batch_replicas = batch_replicas
        self._reduce_rng = host_reduce_rng(cfg.seed)
        #: Replica-width -> (replicated model, sharded runtime) twins of
        #: the canonical network, built lazily by the batched path.
        self._twins: Dict[int, tuple] = {}

    # -- deployment -----------------------------------------------------------

    def compile(self, chip: Optional[LoihiChip] = None,
                neurons_per_core: Optional[int] = None) -> Mapping:
        """Map the network onto chip cores (Operation Flow 1's deploy step)."""
        self.mapping = self.model.network.compile(chip, neurons_per_core)
        return self.mapping

    # -- class masking (incremental learning) -----------------------------------

    def set_class_mask(self, active_classes: Sequence[int]) -> None:
        """Disable the classifier (and error) neurons of inactive classes;
        ``ValueError`` for a class :func:`active_class_mask` refuses."""
        mask = active_class_mask(active_classes, self.model.dims[-1])
        self._class_mask = mask
        net = self.model.network
        net.group(self.model.output_name).mask = mask.copy()
        if self.model.label_name is not None:
            net.group(self.model.label_name).mask = mask.copy()
            net.group("err_out_pos").mask = mask.copy()
            net.group("err_out_neg").mask = mask.copy()

    def clear_class_mask(self) -> None:
        self.set_class_mask(range(self.model.dims[-1]))

    # -- sample-level operations ---------------------------------------------------

    def _require_error_path(self) -> None:
        if self.model.label_name is None:
            raise RuntimeError(
                "this network was built without an error path "
                "(include_error_path=False); it can only run inference")

    def _check_labels(self, labels) -> None:
        """``ValueError``, before any host call, for a label outside the
        output layer (as :func:`encode_labels` reports it) or of a
        masked-out class."""
        y = np.asarray(labels, dtype=np.int64).reshape(-1)
        encode_labels(y, self.model.dims[-1])
        masked = sorted(set(y[~self._class_mask[y]].tolist()))
        if masked:
            raise ValueError(f"labels {masked} are masked out")

    def _present(self, rt: Runtime, model: OnChipEMSTDP, X: np.ndarray,
                 labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Operation Flow 1 for the ``(B, n_in)`` block ``X`` on ``rt``:
        the host calls of the module docstring, phase 1 alone without
        ``labels``; returns the phase-1 output spike counts ``(B, n_out)``.

        ``model`` is the network ``rt`` steps: the canonical one for a
        single sample, or a ``B``-replica twin holding one sample per
        replica.  This is the only code that programs, gates, runs and
        learns on the chip.
        """
        T = model.config.T
        to_bias = model.scales.rate_to_bias
        train = labels is not None
        rt.reset_state(counts=True)
        if train:
            rt.reset_traces()
            rt.reset_tags()
        rt.set_bias(model.input_name, to_bias(quantize_to_bins(X, T)))
        if train:
            rt.set_bias(model.label_name,
                        to_bias(encode_labels(labels, model.dims[-1])))
        if model.label_name is not None:
            rt.disable(self._phase2_names)
        rt.run(T)
        counts = rt.spike_counts(model.output_name)
        if train:
            rt.learning_epoch("phase1_end")
            rt.reset_traces()
            # Phase-boundary membrane reset: phase-2 counts must not inherit
            # the phase-1 residual potential (a systematic +0.5-spike bias).
            # The auxiliary gate compartments are deliberately *not* reset —
            # their membrane is the memory of phase-1 forward activity.
            rt.reset_membranes(model.forward_names)
            rt.enable(self._phase2_names)
            rt.run(T)
            rt.learning_epoch("phase2_end")
            rt.reset_tags()
            rt.reset_traces()
        rt.mark_sample(len(X))
        return counts

    def train_sample(self, x: np.ndarray, label: int) -> Dict[str, object]:
        """One 2T-step training presentation (Operation Flow 1 inner loop)."""
        self._require_error_path()
        self._check_labels(label)
        counts = self._present(self.runtime, self.model, self._as_batch(x),
                               [label])
        self.samples_trained += 1
        h_out = counts[0] / self.model.config.T
        pred = int(np.argmax(h_out))
        return {"h_out": h_out, "prediction": pred, "correct": pred == label}

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Phase-1-only inference; returns output rates."""
        counts = self._present(self.runtime, self.model, self._as_batch(x))
        return counts[0] / self.model.config.T

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.infer(x)))

    # -- batch API (batch-parallel replicated runtime) ---------------------------------
    #
    # The chip itself time-multiplexes samples over one network copy
    # (Operation Flow 1), but nothing stops a deployment from mapping R
    # *independent replicas* of the network onto spare cores and presenting
    # R samples simultaneously — replication trades cores for wall-clock.
    # The batch methods below do exactly that: a lazily built replicated
    # twin (``build_emstdp_network(..., replicas=R)`` + ShardedRuntime)
    # advances all replicas in one vectorized pass, each replica
    # bit-identical to a sequential single-replica run (the equivalence
    # contract of ``tests/test_loihi_batched.py``).  The canonical
    # single-replica network stays the source of truth for weights; twins
    # are re-programmed from it before every chunk.

    def _as_batch(self, X) -> np.ndarray:
        """Coerce input to a ``(B, n_in)`` float block (1-D becomes B=1)."""
        return as_sample_batch(X, self.model.dims[0])

    def _target_replicas(self, batch: int) -> int:
        cap = self.batch_replicas if self.batch_replicas is not None \
            else DEFAULT_BATCH_REPLICAS
        return max(1, min(int(cap), batch))

    def _twin(self, replicas: int):
        """The cached ``replicas``-wide twin: (model, sharded runtime)."""
        entry = self._twins.get(replicas)
        if entry is None:
            model = self.model.replicate(replicas)
            mapping = model.network.compile(
                neurons_per_core=self._neurons_per_core)
            rt = ShardedRuntime(
                model.network, mapping,
                rng=replica_rngs(self.model.config.seed, replicas),
                stochastic_rounding=self.model.config.stochastic_rounding)
            rt.register_rule("emstdp", dict(self.runtime.rulebook["emstdp"]))
            entry = (model, rt)
            self._twins[replicas] = entry
        return entry

    def close(self) -> None:
        """Drop the replicated twins (rebuilt on the next batched call)."""
        self._twins.clear()

    def _fresh_chunk(self, replicas: int):
        """A twin re-programmed with the canonical weights and fresh stats."""
        model_b, rt = self._twin(replicas)
        sync_networks(self.model, model_b)
        rt.stats = RunStats(
            plastic_synapses=model_b.network.n_plastic_synapses())
        return model_b, rt

    def _round_host(self, delta: np.ndarray) -> np.ndarray:
        """Integerize a host-side mean-of-deltas write-back."""
        if not self.model.config.stochastic_rounding:
            return np.round(delta).astype(np.int64)
        floor = np.floor(delta)
        frac = delta - floor
        draw = self._reduce_rng.random(delta.shape)
        return (floor + (draw < frac)).astype(np.int64)

    def fit_batch(self, X, labels,
                  update_mode: str = "online") -> Dict[str, object]:
        """Drop-in for :meth:`EMSTDPNetwork.fit_batch` on the chip.

        ``update_mode="online"`` keeps the paper's strict semantics: each
        2T-step presentation sees the weights updated by every earlier
        sample — bit-identical to looping :meth:`train_sample`.

        ``update_mode="minibatch"`` is the batch-parallel path: up to
        ``batch_replicas`` replicas are programmed with the *same frozen*
        weights and one sample each, every replica runs the full two-phase
        presentation with its own stochastic-rounding stream (bit-identical
        to a sequential run of that replica), and the host then writes back
        ``w0 + round(mean_r(w_r - w0))`` — the chip analogue of the
        reference engine's mean-of-deltas minibatch mode, with the same
        documented break of the online dependency chain.  The fractional
        mean is resolved by stochastic rounding on the
        :func:`host_reduce_rng` stream (round-to-nearest when the config
        disables stochastic rounding): averaged 8-bit deltas are often
        sub-integer, and deterministic rounding would silently discard
        them — the same argument that puts stochastic rounding in the
        chip's own learning engine.
        """
        if update_mode not in ("online", "minibatch"):
            raise ValueError(
                "update_mode must be 'online' or 'minibatch', "
                f"got {update_mode!r}")
        if update_mode == "minibatch":
            self._require_error_path()
        X, y = as_labeled_batch(X, labels, self.model.dims[0])
        self._check_labels(y)
        if update_mode == "online":
            preds = np.array([self.train_sample(x, int(label))["prediction"]
                              for x, label in zip(X, y)], dtype=np.int64)
        else:
            preds = self._fit_minibatch(X, y)
        correct = preds == y
        return {
            "predictions": preds,
            "correct": correct,
            "accuracy": float(np.mean(correct)) if len(X) else 0.0,
        }

    def _fit_minibatch(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Minibatch chunks on the replicated twins; phase-1 predictions."""
        width = self._target_replicas(len(X))
        preds = np.empty(len(X), dtype=np.int64)
        for lo in range(0, len(X), width):
            xb, yb = X[lo:lo + width], y[lo:lo + width]
            model_b, rt = self._fresh_chunk(len(xb))
            w0 = [c.weight_mant.copy()
                  for c in self.model.plastic_connections]
            counts = self._present(rt, model_b, xb, yb)
            for conn_c, conn_b, w_start in zip(
                    self.model.plastic_connections,
                    model_b.plastic_connections, w0):
                delta = (conn_b.weight_mant - w_start).mean(axis=0)
                conn_c.set_weights(w_start + self._round_host(delta))
            preds[lo:lo + len(xb)] = np.argmax(counts, axis=-1)
            self.runtime.stats.merge(rt.stats)
            self.samples_trained += len(xb)
        return preds

    def infer_batch(self, X) -> np.ndarray:
        """Phase-1-only inference for a batch; returns ``(B, n_out)`` rates.

        Runs through the replicated runtime in chunks of up to
        ``batch_replicas`` samples (inference is deterministic, so the
        results equal a sequential :meth:`infer` loop exactly).
        """
        X = self._as_batch(X)
        if len(X) == 0:
            return np.zeros((0, self.model.dims[-1]))
        width = self._target_replicas(len(X))
        if width <= 1:
            return np.stack([self.infer(x) for x in X])
        out = np.empty((len(X), self.model.dims[-1]))
        for lo in range(0, len(X), width):
            xb = X[lo:lo + width]
            model_b, rt = self._fresh_chunk(len(xb))
            out[lo:lo + len(xb)] = (self._present(rt, model_b, xb)
                                    / self.model.config.T)
            self.runtime.stats.merge(rt.stats)
        return out

    def predict_batch(self, X) -> np.ndarray:
        """Class decisions for a batch of samples."""
        rates = self.infer_batch(X)
        return np.argmax(rates, axis=-1).astype(np.int64)

    def evaluate_batch(self, samples, labels, batch_size: int = 256) -> float:
        """Accuracy over a sample block, inferring through the batched
        runtime ``batch_size`` samples at a time."""
        X, y = as_labeled_batch(samples, labels, self.model.dims[0])
        correct = 0
        for lo in range(0, len(X), batch_size):
            preds = self.predict_batch(X[lo:lo + batch_size])
            correct += int(np.sum(preds == y[lo:lo + batch_size]))
        return correct / max(len(X), 1)

    # -- loops -------------------------------------------------------------------------

    def train_stream(self, samples, labels,
                     progress: Optional[callable] = None) -> float:
        """Online single-pass training; returns running accuracy."""
        correct = 0
        total = 0
        for x, y in zip(samples, labels):
            out = self.train_sample(x, int(y))
            correct += int(out["correct"])
            total += 1
            if progress is not None:
                progress(total, correct / max(total, 1))
        return correct / max(total, 1)

    def evaluate(self, samples, labels) -> float:
        correct = 0
        total = 0
        for x, y in zip(samples, labels):
            correct += int(self.predict(x) == int(y))
            total += 1
        return correct / max(total, 1)

    # -- checkpointing ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the chip-resident trainable state.

        The learned parameters live in the plastic connections' 8-bit
        mantissas; everything else about the network (wiring, static
        frontend weights, scale scheme) is reconstructed from the config by
        :func:`repro.onchip.build_emstdp_network`, so a checkpoint restores
        onto a freshly built trainer of the same ``dims``.
        """
        return {
            "dims": tuple(self.model.dims),
            "config": dataclasses.asdict(self.model.config),
            "weight_mant": [c.weight_mant[0].copy()
                            for c in self.model.plastic_connections],
            "class_mask": self._class_mask.copy(),
            "samples_trained": self.samples_trained,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if tuple(int(d) for d in state["dims"]) != tuple(self.model.dims):
            raise ValueError(
                f"checkpoint dims {tuple(state['dims'])} != network dims "
                f"{tuple(self.model.dims)}")
        mants = state["weight_mant"]
        conns = self.model.plastic_connections
        if len(mants) != len(conns):
            raise ValueError(
                f"checkpoint has {len(mants)} plastic connections, "
                f"network has {len(conns)}")
        for conn, mant in zip(conns, mants):
            conn.set_weights(_checked_mantissas(conn, mant))
        mask = np.asarray(state["class_mask"], dtype=bool)
        if mask.shape != (self.model.dims[-1],):
            raise ValueError("class_mask shape does not match output layer")
        self.set_class_mask(list(np.flatnonzero(mask)))
        self.samples_trained = int(state["samples_trained"])

    # -- reporting ----------------------------------------------------------------------

    def energy_report(self, model: Optional[EnergyModel] = None,
                      learning: bool = True) -> EnergyReport:
        """Table II row for the run so far (requires a compiled mapping)."""
        if self.mapping is None:
            raise RuntimeError("compile() the network before asking for energy")
        if model is None:
            model = EnergyModel()
        return model.report(
            self.runtime.stats,
            cores_used=self.mapping.cores_used,
            max_compartments_per_core=self.mapping.max_compartments_sweep_cores,
            compartments=self.model.network.n_compartments(),
            learning=learning,
        )
