"""From-scratch numpy CNN used to pretrain the convolutional frontend.

The paper pretrains the two conv layers *offline* with the respective
dataset before mapping them onto the chip ("the convolutional layers are
pretrained offline ... whereas the dense layers are trained from scratch in
the Loihi", Section IV-A) — a transfer-learning setup.  This module is that
offline substrate: im2col convolutions, ReLU, a linear classifier head, and
a plain SGD-with-momentum trainer on softmax cross-entropy.

After pretraining, :class:`ConvFrontend.features` exposes the flattened,
[0, 1]-normalized conv activations used as rate-coded input to the on-chip
dense layers.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .topology import ConvSpec, DenseSpec, parse_topology


def im2col(x: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Patch-extract ``(N, H, W, C)`` into ``(N, OH, OW, k*k*C)`` columns.

    A column holds its patch in (kernel row, kernel column, channel) order.
    """
    n, h, w, c = x.shape
    pad = kernel // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    # (N, OH, OW, C, k, k) windows, copied once in the columns' order.
    windows = sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    cols = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3).copy()
    return cols.reshape(n, oh, ow, kernel * kernel * c), oh, ow


class ConvLayer:
    """One strided convolution + ReLU."""

    def __init__(self, spec: ConvSpec, in_channels: int,
                 rng: np.random.Generator):
        self.spec = spec
        fan_in = spec.kernel * spec.kernel * in_channels
        self.weight = rng.normal(0, np.sqrt(2.0 / fan_in),
                                 size=(fan_in, spec.channels))
        self.bias = np.zeros(spec.channels)
        self._cache = None
        self.v_w = np.zeros_like(self.weight)
        self.v_b = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        cols, oh, ow = im2col(x, self.spec.kernel, self.spec.stride)
        z = cols @ self.weight + self.bias
        out = np.maximum(z, 0.0)
        if train:
            self._cache = (cols, z, x.shape)
        return out

    def backward(self, grad: np.ndarray, lr: float,
                 momentum: float) -> np.ndarray:
        """One SGD step; returns the gradient w.r.t. the layer's input,
        which trains the layer below."""
        g2 = self._update(grad, lr, momentum)
        cols, _, x_shape = self._cache
        # With the weights just updated (LinearLayer uses the old ones).
        dcols = g2 @ self.weight.T
        return self._col2im(dcols.reshape(cols.shape), x_shape)

    def _update(self, grad: np.ndarray, lr: float,
                momentum: float) -> np.ndarray:
        """SGD-with-momentum step from the gradient w.r.t. the output;
        returns it ReLU-masked, one row per output pixel."""
        cols, z, _ = self._cache
        grad = grad * (z > 0)
        n = grad.shape[0]
        g2 = grad.reshape(-1, grad.shape[-1])
        c2 = cols.reshape(-1, cols.shape[-1])
        dw = c2.T @ g2 / n
        db = g2.mean(axis=0) * g2.shape[0] / n
        self.v_w = momentum * self.v_w - lr * dw
        self.v_b = momentum * self.v_b - lr * db
        self.weight += self.v_w
        self.bias += self.v_b
        return g2

    def _col2im(self, dcols: np.ndarray, x_shape) -> np.ndarray:
        n, h, w, c = x_shape
        k, stride = self.spec.kernel, self.spec.stride
        pad = k // 2
        dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
        _, oh, ow, _ = dcols.shape
        idx = 0
        for dr in range(k):
            for dc in range(k):
                dxp[:, dr:dr + stride * oh:stride,
                    dc:dc + stride * ow:stride, :] += \
                    dcols[..., idx * c:(idx + 1) * c]
                idx += 1
        return dxp[:, pad:pad + h, pad:pad + w, :]


class LinearLayer:
    """Dense layer (used as the pretraining classifier head)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = rng.normal(0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.bias = np.zeros(n_out)
        self._cache = None
        self.v_w = np.zeros_like(self.weight)
        self.v_b = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._cache = x
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray, lr: float,
                 momentum: float) -> np.ndarray:
        x = self._cache
        n = grad.shape[0]
        dw = x.T @ grad / n
        db = grad.mean(axis=0)
        dx = grad @ self.weight.T
        self.v_w = momentum * self.v_w - lr * dw
        self.v_b = momentum * self.v_b - lr * db
        self.weight += self.v_w
        self.bias += self.v_b
        return dx


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> Tuple[float, np.ndarray]:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -np.log(p[np.arange(n), labels] + 1e-12).mean()
    grad = p
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad


#: Images per block of an inference pass (``pretrain``'s final pass,
#: ``features``, ``head_accuracy``).
INFERENCE_BLOCK = 64


@dataclasses.dataclass
class PretrainResult:
    train_accuracy: float
    losses: List[float]


class ConvFrontend:
    """The conv stack + throwaway classifier head, trained offline."""

    def __init__(self, topology: str, seed: int = 0):
        self.input_spec, layer_specs = parse_topology(topology)
        self.rng = np.random.default_rng(seed)
        self.conv_layers: List[ConvLayer] = []
        c = self.input_spec.channels
        h, w = self.input_spec.height, self.input_spec.width
        for spec in layer_specs:
            if isinstance(spec, ConvSpec):
                self.conv_layers.append(ConvLayer(spec, c, self.rng))
                h, w = spec.output_hw(h, w)
                c = spec.channels
        self.feature_shape = (h, w, c)
        self.n_features = h * w * c
        dense_units = [s.units for s in layer_specs
                       if isinstance(s, DenseSpec)]
        self.n_classes = dense_units[-1]
        self.head = LinearLayer(self.n_features, self.n_classes, self.rng)
        #: 99th-percentile activation used to normalize features to [0, 1].
        self.feature_scale = 1.0

    def _ensure_nhwc(self, images: np.ndarray) -> np.ndarray:
        x = np.asarray(images, dtype=float)
        if x.ndim == 3:  # (N, H, W) greyscale
            x = x[..., None]
        if x.ndim != 4:
            raise ValueError("images must be (N,H,W) or (N,H,W,C)")
        return x

    def _conv_forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Flattened conv features of ``x``.  A training pass (one
        minibatch) runs whole and caches what ``backward`` reads; an
        inference pass runs :data:`INFERENCE_BLOCK` images at a time, so
        its columns and activations stay one block's size.  An image's
        features are the same bits either way."""
        if train:
            for layer in self.conv_layers:
                x = layer.forward(x, train=True)
            return x.reshape(len(x), -1)
        out = np.empty((len(x), self.n_features))
        for lo in range(0, len(x), INFERENCE_BLOCK):
            block = x[lo:lo + INFERENCE_BLOCK]
            for layer in self.conv_layers:
                block = layer.forward(block)
            out[lo:lo + len(block)] = block.reshape(len(block), -1)
        return out

    def pretrain(self, images: np.ndarray, labels: np.ndarray,
                 epochs: int = 5, batch_size: int = 32, lr: float = 0.05,
                 momentum: float = 0.9) -> PretrainResult:
        """Offline supervised pretraining with SGD + momentum."""
        x = self._ensure_nhwc(images)
        labels = np.asarray(labels, dtype=np.int64)
        losses: List[float] = []
        n = len(x)
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                feats = self._conv_forward(x[idx], train=True)
                logits = self.head.forward(feats, train=True)
                loss, grad = softmax_cross_entropy(logits, labels[idx])
                losses.append(loss)
                dfeat = self.head.backward(grad, lr, momentum)
                dfeat = dfeat.reshape((len(idx),) + self.feature_shape)
                for layer in reversed(self.conv_layers[1:]):
                    dfeat = layer.backward(dfeat, lr, momentum)
                if self.conv_layers:  # the bottom one trains nothing below
                    self.conv_layers[0]._update(dfeat, lr, momentum)
        feats = self._conv_forward(x)
        self.feature_scale = max(float(np.percentile(feats, 99)), 1e-6)
        preds = np.argmax(self.head.forward(feats), axis=1)
        return PretrainResult(
            train_accuracy=float((preds == labels).mean()), losses=losses)

    def features(self, images: np.ndarray) -> np.ndarray:
        """[0, 1]-normalized flattened conv features (spike-rate input)."""
        x = self._ensure_nhwc(images)
        feats = self._conv_forward(x) / self.feature_scale
        return np.clip(feats, 0.0, 1.0)

    def head_accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the offline head (pretraining diagnostic only)."""
        feats = self._conv_forward(self._ensure_nhwc(images))
        preds = np.argmax(self.head.forward(feats), axis=1)
        return float((preds == np.asarray(labels)).mean())
