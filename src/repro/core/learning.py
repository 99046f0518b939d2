"""The EMSTDP local weight-update rule in both its published forms.

Eq. (7) — the algorithmic form:

    dW = eta * (h_hat - h) (x) h_pre

Eq. (12) — the Loihi sum-of-products form, which only uses quantities that
exist at the *end of phase 2* (the pre-trace, the post-trace and the tag):

    dW = 2*eta * h_hat (x) pre  -  eta * Z (x) pre,    Z = h_hat + h

The two are algebraically identical when ``pre`` equals the phase-1
presynaptic count; on the chip ``pre`` is the phase-2 pre-trace (which counts
``h_hat_pre`` instead of ``h_pre``), an approximation this module lets you
measure (see ``tests/test_learning.py`` and the trace ablation bench).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from ..seeding import as_rng
from .quantize import quantize_weights


def delta_w_reference(h_hat_post: np.ndarray, h_post: np.ndarray,
                      h_pre: np.ndarray, eta: float) -> np.ndarray:
    """Eq. (7): ``dW[i, j] = eta * (h_hat[j] - h[j]) * h_pre[i]``.

    All rates normalized to [0, 1]; the result has shape
    ``(len(h_pre), len(h_post))`` matching the forward weight layout
    ``potential = rates_pre @ W``.
    """
    return kernels.delta_w(np.ascontiguousarray(h_hat_post, dtype=float),
                           np.ascontiguousarray(h_post, dtype=float),
                           np.ascontiguousarray(h_pre, dtype=float), eta)


def delta_w_reference_batch(h_hat_post: np.ndarray, h_post: np.ndarray,
                            h_pre: np.ndarray, eta: float,
                            reduction: str = "mean") -> np.ndarray:
    """Batched Eq. (7): the per-sample outer products reduced in one pass.

    ``h_hat_post`` and ``h_post`` are ``(B, n_post)``, ``h_pre`` is
    ``(B, n_pre)``.  The per-sample deltas ``eta * (h_hat_b - h_b) (x)
    pre_b`` are reduced over the batch — ``"mean"`` (minibatch SGD
    semantics) or ``"sum"`` (equivalent to applying every per-sample delta
    against the same frozen weights).  Returns ``(n_pre, n_post)``.

    The reduction accumulates in batch order (sample 0 first) — a defined
    order is part of the kernel contract so the compiled backends can be
    pinned bit-identical to the NumPy reference; a BLAS GEMM's blocked
    summation order could not be reproduced by a plain loop.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    h_hat = np.ascontiguousarray(h_hat_post, dtype=float)
    h = np.ascontiguousarray(h_post, dtype=float)
    pre = np.ascontiguousarray(h_pre, dtype=float)
    if h_hat.ndim != 2 or pre.ndim != 2 or h_hat.shape[0] != pre.shape[0]:
        raise ValueError(
            f"expected (B, n_post) and (B, n_pre) stacks, got {h_hat.shape} "
            f"and {pre.shape}")
    if h_hat.shape[0] == 0:
        # The mean of zero per-sample deltas is undefined (0/0 would NaN
        # the weights); callers must skip the update for an empty batch.
        raise ValueError("cannot reduce an empty batch")
    return kernels.delta_w_batch(h_hat, h, pre, eta,
                                 mean=(reduction == "mean"))


def delta_w_loihi_form(h_hat_post: np.ndarray, z_post: np.ndarray,
                       pre_trace: np.ndarray, eta: float) -> np.ndarray:
    """Eq. (12): ``dW = 2*eta * h_hat (x) pre - eta * Z (x) pre``.

    ``z_post`` is the tag variable ``Z = h_hat + h`` accumulated over both
    phases; ``pre_trace`` is whatever the presynaptic trace holds at the end
    of phase 2.  No engine applies this form per step (the chip runs it as
    microcode), so it is plain NumPy rather than a kernel.
    """
    h_hat = np.asarray(h_hat_post, dtype=float)
    z = np.asarray(z_post, dtype=float)
    pre = np.asarray(pre_trace, dtype=float)
    return pre[:, None] * ((2 * eta) * h_hat - eta * z)[None, :]


class WeightUpdater:
    """Applies EMSTDP updates with optional quantization-aware rounding.

    The updater owns the RNG used for stochastic rounding so repeated runs
    with the same seed are bit-identical.
    """

    def __init__(self, eta: float, weight_bits: Optional[int] = None,
                 weight_clip: Optional[float] = None,
                 stochastic_rounding: bool = True,
                 rng: Optional[np.random.Generator] = None):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.weight_bits = weight_bits
        self.weight_clip = weight_clip
        self.stochastic_rounding = bool(stochastic_rounding)
        self.rng = as_rng(rng)

    def apply(self, w: np.ndarray, h_hat_post: np.ndarray, h_post: np.ndarray,
              h_pre: np.ndarray) -> np.ndarray:
        """Return updated (and re-quantized) weights per Eq. (7)."""
        dw = delta_w_reference(h_hat_post, h_post, h_pre, self.eta)
        return self.project(w + dw)

    def apply_batch(self, w: np.ndarray, h_hat_post: np.ndarray,
                    h_post: np.ndarray, h_pre: np.ndarray,
                    reduction: str = "mean") -> np.ndarray:
        """One projected update from a whole minibatch of rate stacks.

        Unlike looping :meth:`apply` over the batch, the quantization
        projection runs once on the summed/averaged delta — this is the
        ``update_mode="minibatch"`` semantics of the batched engine, where
        a single hardware write-back applies the reduced update.
        """
        dw = delta_w_reference_batch(h_hat_post, h_post, h_pre, self.eta,
                                     reduction=reduction)
        return self.project(w + dw)

    def apply_loihi_form(self, w: np.ndarray, h_hat_post: np.ndarray,
                         z_post: np.ndarray, pre_trace: np.ndarray) -> np.ndarray:
        """Return updated weights per the sum-of-products form, Eq. (12)."""
        dw = delta_w_loihi_form(h_hat_post, z_post, pre_trace, self.eta)
        return self.project(w + dw)

    def project(self, w: np.ndarray) -> np.ndarray:
        """Clip/quantize weights onto the representable grid."""
        return quantize_weights(w, self.weight_bits, self.weight_clip,
                                rng=self.rng, stochastic=self.stochastic_rounding)
