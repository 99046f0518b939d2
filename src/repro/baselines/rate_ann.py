"""A plain rate ANN trained with true backpropagation.

Not part of the paper's tables — a sanity baseline: EMSTDP is an
*approximation* of backprop, so its accuracy should approach (and not
exceed by much) an equally sized ANN trained with exact gradients on the
same stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.encoding import as_labeled_batch, as_sample_batch


class BackpropMLP:
    """Minimal MLP (ReLU hidden, softmax output), online SGD.

    Mirrors the EMSTDP network's two-level API: ``train_sample`` /
    ``predict`` / ``evaluate`` run the paper's batch-1 online regime, while
    ``train_batch`` / ``predict_batch`` / ``evaluate_batch`` are fully
    vectorized (one GEMM per layer for the whole minibatch, gradients
    averaged) so the baseline's throughput is comparable with the batched
    EMSTDP engine rather than being bottlenecked by Python loops.
    """

    def __init__(self, dims: Sequence[int], lr: float = 0.05, seed: int = 0):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise ValueError("need at least input and output layers")
        self.dims = dims
        self.lr = float(lr)
        rng = np.random.default_rng(seed)
        self.weights = [rng.normal(0, np.sqrt(2.0 / a), size=(a, b))
                        for a, b in zip(dims[:-1], dims[1:])]
        self.biases = [np.zeros(b) for b in dims[1:]]

    def _forward(self, x: np.ndarray):
        acts = [np.asarray(x, dtype=float)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0) if i < len(self.weights) - 1 else z)
        return acts

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self._forward(x)[-1]))

    def train_sample(self, x: np.ndarray, label: int) -> bool:
        acts = self._forward(x)
        logits = acts[-1]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        grad = p.copy()
        grad[label] -= 1.0
        for i in range(len(self.weights) - 1, -1, -1):
            # Propagate through the *pre-update* weights: updating first and
            # then backpropagating through the new weights computes a
            # gradient of nothing in particular (and made the sequential and
            # batched paths disagree even at B = 1).
            prev_grad = (grad @ self.weights[i].T) * (acts[i] > 0) \
                if i > 0 else None
            self.weights[i] -= self.lr * np.outer(acts[i], grad)
            self.biases[i] -= self.lr * grad
            grad = prev_grad
        return int(np.argmax(logits)) == label

    def train_stream(self, xs, ys) -> float:
        correct = sum(self.train_sample(x, int(y)) for x, y in zip(xs, ys))
        return correct / max(len(xs), 1)

    def evaluate(self, xs, ys) -> float:
        correct = sum(self.predict(x) == int(y) for x, y in zip(xs, ys))
        return correct / max(len(xs), 1)

    # -- batched path ------------------------------------------------------

    def _forward_batch(self, X: np.ndarray):
        acts = [as_sample_batch(X, self.dims[0])]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0) if i < len(self.weights) - 1 else z)
        return acts

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._forward_batch(X)[-1], axis=-1).astype(np.int64)

    def train_batch(self, X: np.ndarray, ys) -> float:
        """One minibatch SGD step (mean gradient); returns batch accuracy."""
        X, ys = as_labeled_batch(X, ys, self.dims[0])
        acts = self._forward_batch(X)
        logits = acts[-1]
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = p.copy()
        grad[np.arange(len(ys)), ys] -= 1.0
        grad /= max(len(ys), 1)
        for i in range(len(self.weights) - 1, -1, -1):
            gw = acts[i].T @ grad
            gb = grad.sum(axis=0)
            if i > 0:
                grad = (grad @ self.weights[i].T) * (acts[i] > 0)
            self.weights[i] -= self.lr * gw
            self.biases[i] -= self.lr * gb
        return float(np.mean(np.argmax(logits, axis=1) == ys)) if len(ys) else 0.0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of everything needed to restore the model."""
        return {
            "dims": self.dims,
            "lr": self.lr,
            "weights": [w.copy() for w in self.weights],
            "biases": [b.copy() for b in self.biases],
        }

    def load_state_dict(self, state: dict) -> None:
        if tuple(int(d) for d in state["dims"]) != self.dims:
            raise ValueError(
                f"checkpoint dims {tuple(state['dims'])} != model dims "
                f"{self.dims}")
        self.weights = [np.array(w, dtype=float) for w in state["weights"]]
        self.biases = [np.array(b, dtype=float) for b in state["biases"]]
        self.lr = float(state.get("lr", self.lr))

    def evaluate_batch(self, xs, ys, batch_size: int = 1024) -> float:
        xs, ys = as_labeled_batch(xs, ys, self.dims[0])
        correct = 0
        for lo in range(0, len(xs), batch_size):
            preds = self.predict_batch(xs[lo:lo + batch_size])
            correct += int(np.sum(preds == ys[lo:lo + batch_size]))
        return correct / max(len(xs), 1)
