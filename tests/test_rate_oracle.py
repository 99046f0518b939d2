"""The rate engine's bits, pinned to a frozen copy of its solver.

:class:`OracleNetwork` carries the rate solver as it was written before
the first layer's drive was cached and the clip/quantize chains fused:
``forward_rates`` and the two-phase solve (``_frozen_solve``) are
copied verbatim, one ``np.clip`` / ``quantize_rate`` call at a time and
nine first-layer products per solve, with one change: phase 2's products, the feedback
product and each corrected pass's product into layers >= 1, go through
:func:`repro.core.network.accumulate_rows`.  That is the rule the engine
defines for them (row-ordered sums from +0.0 over the nonzero inputs, the
bias row last, as on the spike path), which a compiled loop reproduces,
so the oracle pins that rule rather than agreement with a BLAS product;
phase 1 and inference keep their BLAS products.  A twin pair (same
dims, config and seed) is driven through the same schedule, one network
on the library's solver and one on the oracle, and every output must
have the same bits: phase-1 and phase-2 rates for one sample and for
blocks, inference, minibatch and online ``fit_batch``, and the weights
after ``train_stream``, with and without a class mask.  The
configurations cover both feedback modes, the full-precision and the
8-bit stochastically rounded weights (the rounding generator must be
drawn in the same order), one to three weight layers, no bias neuron,
and phase lengths 64 and 20.  The oracle trains through
its frozen solve followed by the NumPy write-back (``_apply_updates``),
so the library's fused write-back is pinned too.

The twins run on the same machine, so the oracle needs no recorded
digest: BLAS kernels differ across CPUs, but one process's products of
the same operands do not.
"""

import itertools
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core import (EMSTDPNetwork, full_precision_config,
                        loihi_default_config)
from repro.core.encoding import encode_labels, quantize_to_bins
from repro.core.loss import signed_error_rates
from repro.core.network import PHASE2_ITERATIONS, accumulate_rows
from repro.core.neuron import quantize_rate, rate_activation
from repro.data import make_blobs

DIMS = {1: (12, 5), 2: (12, 9, 5), 3: (12, 9, 7, 5)}
CONFIGS = {"fp": full_precision_config, "loihi": loihi_default_config}


def _rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` by the phase-2 rule, for one sample or a block."""
    flat = accumulate_rows(a.reshape(-1, a.shape[-1]), w)
    return flat.reshape(a.shape[:-1] + (w.shape[1],))


class OracleNetwork(EMSTDPNetwork):
    """:class:`EMSTDPNetwork` with the frozen rate solver."""

    def forward_rates(self, x: np.ndarray,
                      corrections: Optional[List[np.ndarray]] = None,
                      ) -> List[np.ndarray]:
        T = self.config.T
        rates = [quantize_to_bins(np.asarray(x, dtype=float), T)]
        for i, w in enumerate(self.weights):
            a = self._augment(rates[i])
            phase2 = corrections is not None and i >= 1
            r = rate_activation(_rows(a, w) if phase2 else a @ w, T)
            if corrections is not None and corrections[i] is not None:
                r = quantize_rate(np.clip(r + corrections[i], 0.0, 1.0), T)
            if i == self.n_layers - 1:
                r = r * self.class_mask
            rates.append(r)
        return rates

    def _frozen_solve(self, x: np.ndarray, labels
                      ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        cfg = self.config
        T = cfg.T
        h = self.forward_rates(x)
        target = encode_labels(labels, self.n_classes).reshape(
            h[-1].shape) * self.class_mask
        gates = [hi > 0 for hi in h]
        fa = cfg.feedback == "fa"
        order = range(self.n_layers - 1)
        h_hat = [hi.copy() for hi in h]
        damping = 0.5
        e_out = np.zeros(h[-1].shape)
        corrections: List[Optional[np.ndarray]] = [None] * self.n_layers
        for _ in range(PHASE2_ITERATIONS):
            e_pos, e_neg = signed_error_rates(target, h_hat[-1], cfg.error_gain, T)
            e_new = (e_pos - e_neg) * self.class_mask
            e_out = e_out + damping * (e_new - e_out)
            corrections[-1] = e_out
            e_above = e_out
            for i in (reversed(order) if fa else order):
                eps = _rows(e_above if fa else e_out, self.feedback_weights[i])
                ep = quantize_rate(np.clip(eps, 0.0, 1.0), T)
                en = quantize_rate(np.clip(-eps, 0.0, 1.0), T)
                if cfg.gate_hidden:
                    ep = ep * gates[i + 1]
                    en = en * gates[i + 1]
                prev = corrections[i] if corrections[i] is not None else 0.0
                corrections[i] = prev + damping * ((ep - en) - prev)
                e_above = corrections[i]
            h_hat = self.forward_rates(x, corrections=corrections)
        return h, h_hat

    def _rate_solve(self, x: np.ndarray, labels,
                    lr_scale: Optional[float] = None
                    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        # Training as it was written: the frozen solve, then the NumPy
        # write-back (the library's fused kernel does both in one call).
        h, h_hat = self._frozen_solve(x, labels)
        if lr_scale is not None:
            self._apply_updates(h, h_hat, lr_scale)
        return h, h_hat


def _inputs(n_in: int, n_classes: int, n: int, seed: int):
    """Blob samples plus edge rows: silent, saturated, out of [0, 1]."""
    X, y = make_blobs(n_in, n_classes, n, seed=seed, noise=0.15)
    X[0] = 0.0
    X[1] = 1.0
    X[2] = np.linspace(-0.2, 1.2, n_in)
    return X, y


def _solves(net, X, y, tag):
    out = {}
    for name, xs, ys in ((f"{tag}_x", X[3], int(y[3])),
                         (f"{tag}_B1", X[3:4], y[3:4]),
                         (f"{tag}_B7", X[:7], y[:7])):
        h, h_hat = net._rate_solve(xs, ys)
        out.update({f"{name}_h{i}": r for i, r in enumerate(h)})
        out.update({f"{name}_h_hat{i}": r for i, r in enumerate(h_hat)})
    return out


def _weights(net, tag):
    return {f"{tag}_w{i}": w.copy() for i, w in enumerate(net.weights)}


def _drive(cls, dims, cfg, X, y):
    """Everything the rate engine computes along one schedule."""
    net = cls(dims, cfg)
    out = _solves(net, X, y, "init")
    out["rates_x"] = net.output_rates(X[3])
    out["rates"] = net.output_rates_batch(X)
    out["predict"] = net.predict_batch(X)
    out["evaluate"] = np.array(net.evaluate_batch(X, y, batch_size=5))
    res = net.fit_batch(X[:8], y[:8], update_mode="minibatch")
    out["minibatch"] = res["predictions"]
    out.update(_weights(net, "minibatch"))
    res = net.fit_batch(X[8:14], y[8:14], update_mode="online")
    out["online"] = res["predictions"]
    out.update(_weights(net, "online"))
    for k in range(14, 18):
        res = net.train_sample(X[k], int(y[k]))
        out.update({f"sample{k}_h{i}": r for i, r in enumerate(res["h"])})
        out.update({f"sample{k}_h_hat{i}": r
                    for i, r in enumerate(res["h_hat"])})
    net.set_class_mask(range(dims[-1] - 2))
    out["masked_acc"] = np.array(
        net.train_stream(X[18:30], y[18:30], lr_scale=0.25))
    out.update(_weights(net, "masked_stream"))
    out.update(_solves(net, X, y, "masked"))
    out["masked_predict"] = net.predict_batch(X)
    res = net.fit_batch(X[30:36], y[30:36], update_mode="minibatch",
                        lr_scale=0.25)
    out["masked_minibatch"] = res["predictions"]
    out.update(_weights(net, "masked_minibatch"))
    net.clear_class_mask()
    out["acc"] = np.array(net.train_stream(X[36:], y[36:]))
    out.update(_weights(net, "stream"))
    out.update(_solves(net, X, y, "final"))
    out["final_rates"] = net.output_rates_batch(X)
    out["final_predict"] = net.predict_batch(X)
    return out


def _assert_same_bits(ref, got):
    assert ref.keys() == got.keys()
    for key, want in ref.items():
        have = got[key]
        assert isinstance(have, np.ndarray), key
        assert (have.dtype, have.shape) == (want.dtype, want.shape), key
        assert np.array_equal(have, want), key
        # Signed zeros and NaN payloads too.
        assert have.tobytes() == want.tobytes(), key


def _check(dims, cfg, n=48, seed=0):
    X, y = _inputs(dims[0], dims[-1], n, seed)
    _assert_same_bits(_drive(OracleNetwork, dims, cfg, X, y),
                      _drive(EMSTDPNetwork, dims, cfg, X, y))


# The ids keep a False slot where the retired gate_output axis stood, so
# each case keeps the name it had while that axis existed.
SOLVER_CASES = [(*combo, T, bias) for combo in itertools.product(
    ("fa", "dfa"), CONFIGS, DIMS)
    for T, bias in ((64, True), (20, True), (64, False))]


@pytest.mark.parametrize(
    "feedback,config,layers,T,bias", SOLVER_CASES,
    ids=["{}-{}-{}-False-{}-{}".format(*case) for case in SOLVER_CASES])
def test_solver_matches_the_oracle(feedback, config, layers, T, bias):
    """T = 64 is the paper's phase; at T = 20 the 1/T grid is not exact in
    binary, so ``floor(r*T + 1e-9)`` needs its 1e-9."""
    cfg = CONFIGS[config](seed=3, feedback=feedback, phase_length=T,
                          use_bias_neuron=bias)
    _check(DIMS[layers], cfg)


@pytest.mark.parametrize("feedback", ["fa", "dfa"])
def test_solver_matches_the_oracle_at_paper_size(feedback):
    """(256, 100, 10), where BLAS runs its blocked kernels."""
    _check((256, 100, 10), full_precision_config(seed=5, feedback=feedback),
           n=40)

