"""Input and label encodings.

The paper's key I/O optimisation (Section III-D) is to program the *bias* of
the input-layer neurons with the real-valued input instead of streaming
rate-coded spikes from the host: an IF neuron with constant bias ``i``
integrates ``i`` per step and fires at rate ``floor(i*T/theta)/T``, linearly
proportional to the input, at the cost of a single host→chip write per
sample.  Both encodings are implemented here so their I/O cost and accuracy
can be compared (see ``benchmarks/bench_ablation_input_encoding.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..seeding import as_rng


def as_sample_batch(X, n_features: int) -> np.ndarray:
    """Coerce input to a ``(B, n_features)`` float block.

    A single 1-D sample becomes ``B = 1``; any empty input (e.g. ``[]``)
    becomes ``B = 0`` rather than a bogus ``(1, 0)`` block.  The one
    input-coercion rule for every batch API in the repo (the reference
    network, the on-chip trainer, the backprop baseline).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        if X.size == 0:
            return X.reshape(0, n_features)
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(
            f"expected samples of shape (B, {n_features}), got {X.shape}")
    return X


def as_labeled_batch(X, labels, n_features: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`as_sample_batch` with its ``(B,)`` int64 labels.

    The one sample/label coercion rule for every batch API that takes
    labels; raises ``ValueError`` unless there is one label per sample.
    """
    X = as_sample_batch(X, n_features)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if len(X) != len(y):
        raise ValueError(
            f"samples and labels must have equal length, got {len(X)} "
            f"samples and {len(y)} labels")
    return X, y


def quantize_to_bins(x: np.ndarray, T: int) -> np.ndarray:
    """Quantize real inputs in [0, 1] to the ``T``-level grid of one phase.

    This is the "Quantize x to T bins" step of Operation Flow 1: with a phase
    of ``T`` steps a neuron can only express ``T + 1`` distinct rates, so any
    finer input resolution is unrepresentable.
    """
    x = np.asarray(x, dtype=float)
    if T < 1:
        raise ValueError("T must be >= 1")
    return np.clip(np.round(x * T), 0, T) / T


def bias_encode(x: np.ndarray, T: int) -> np.ndarray:
    """Return the per-step bias drive realizing rate ``quantize_to_bins(x)``.

    In normalized units (threshold 1) the bias equals the desired rate, so
    the encoding is the quantized input itself.  Kept as its own function so
    the on-chip implementation, where bias is an integer mantissa/exponent
    pair, has a single place to translate.
    """
    return quantize_to_bins(x, T)


def rate_encode_spikes(x: np.ndarray, T: int, rng: np.random.Generator = None,
                       deterministic: bool = True) -> np.ndarray:
    """Expand inputs into an explicit ``(T, n)`` spike train.

    ``deterministic`` uses evenly spaced spikes (what an IF neuron with a
    constant bias produces); otherwise each step is an independent Bernoulli
    draw with probability ``x`` (classic Poisson-style rate coding).  The
    deterministic train of ``rate_encode_spikes(x, T)`` sums to exactly
    ``round(x*T)`` spikes.
    """
    x = np.asarray(x, dtype=float)
    q = quantize_to_bins(x, T)
    if deterministic:
        # An IF neuron with constant drive q spikes at steps where the
        # accumulated potential crosses an integer: cumsum crossing pattern.
        steps = np.arange(1, T + 1)[:, None]
        acc = steps * q[None, :] + 1e-9
        train = np.floor(acc) - np.floor(acc - q[None, :])
        return (train > 0).astype(np.int8)
    rng = as_rng(rng)
    return (rng.random((T, x.size)) < q[None, :]).astype(np.int8)


def spike_train_io_events(x: np.ndarray, T: int) -> int:
    """Host→chip events needed to stream ``x`` as an explicit spike train."""
    q = quantize_to_bins(np.asarray(x, dtype=float), T)
    return int(np.round(q * T).sum())


def bias_io_events(x: np.ndarray, T: int) -> int:
    """Host→chip events needed with bias programming: one write per neuron.

    The paper counts this as "communicate with the chip only once for every
    input sample"; per-neuron bias words are written in that single
    transaction.
    """
    return int(np.asarray(x).size)


def encode_label(label: int, n_classes: int, rate: float = 1.0) -> np.ndarray:
    """One-hot target rate vector: the true class fires at ``rate``.

    The label is inserted as a bias on the label neurons (Operation Flow 1),
    so the target spike train ``h_hat`` of Eq. (6) is simply a neuron firing
    at the maximum rate for the true class and silent neurons elsewhere.
    """
    if not 0 <= label < n_classes:
        raise ValueError(f"label {label} out of range for {n_classes} classes")
    if not 0.0 < rate <= 1.0:
        raise ValueError("target rate must be in (0, 1]")
    target = np.zeros(n_classes)
    target[label] = rate
    return target


def label_indices(labels, n_classes: int) -> np.ndarray:
    """``labels`` as a C-contiguous ``(B,)`` int64 array; ``ValueError``
    naming the first label outside ``[0, n_classes)``."""
    labels = np.ascontiguousarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise ValueError(f"label {bad} out of range for {n_classes} classes")
    return labels


def active_class_mask(active_classes, n_classes: int) -> np.ndarray:
    """The ``(n_classes,)`` bool mask enabling ``active_classes``;
    ``ValueError`` naming a class that is not an integer in
    ``[0, n_classes)`` (a bool too: a mask is not a class list), or when
    no class is active."""
    mask = np.zeros(n_classes, dtype=bool)
    for c in active_classes:
        if isinstance(c, (bool, np.bool_)) \
                or not isinstance(c, (int, np.integer)):
            raise ValueError(f"class {c!r} is not an integer")
        if not 0 <= c < n_classes:
            raise ValueError(f"class {c} out of range for {n_classes} "
                             f"classes")
        mask[c] = True
    if not mask.any():
        raise ValueError("at least one class must stay active")
    return mask


def encode_labels(labels: np.ndarray, n_classes: int,
                  rate: float = 1.0) -> np.ndarray:
    """Batched :func:`encode_label`: ``(B,)`` labels -> ``(B, n_classes)``.

    Row ``b`` equals ``encode_label(labels[b], n_classes, rate)``; the whole
    one-hot target block is built in one indexed write so the batched
    engine pays no per-sample Python cost.
    """
    labels = label_indices(labels, n_classes)
    if not 0.0 < rate <= 1.0:
        raise ValueError("target rate must be in (0, 1]")
    targets = np.zeros((labels.size, n_classes))
    targets[np.arange(labels.size), labels] = rate
    return targets
