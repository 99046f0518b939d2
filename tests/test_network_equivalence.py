"""Equivalence suite promised by the ``repro.core.network`` docstring.

Two families of guarantees:

1. **rate vs spike** — the closed-form ``rate`` backend is a steady-state
   solution of the explicit ``spike`` simulation, so the two must agree up
   to limit-cycle transients (a few spikes out of ``T``).
2. **batched vs sequential** — the batched engine must be *exactly* the
   per-sample reference: ``output_rates_batch`` (``forward_rates`` of a
   ``(B, n)`` block on the rate backend) row-for-row against one
   ``output_rates`` call per sample, ``predict_batch``
   decision-for-decision, and ``fit_batch`` in online mode
   weight-for-weight (within 1e-9 over a 64-sample run, the acceptance
   gate).
"""

import numpy as np
import pytest

from repro.core import (EMSTDPConfig, EMSTDPNetwork, full_precision_config,
                        loihi_default_config)

from conftest import make_blobs


def small_cfg(**kw):
    base = dict(seed=1, phase_length=32)
    base.update(kw)
    return EMSTDPConfig(**base)


def clone_pair(dims, cfg):
    """Two networks with identical weights/feedback/rng state."""
    a = EMSTDPNetwork(dims, cfg)
    b = EMSTDPNetwork(dims, cfg)
    return a, b


# ----------------------------------------------------------------------
# rate backend vs spike backend
# ----------------------------------------------------------------------

class TestRateVsSpike:
    def test_phase1_rates_agree(self):
        """Closed-form phase-1 rates track the explicit IF simulation."""
        T = 64
        a = EMSTDPNetwork((8, 12, 3), small_cfg(phase_length=T))
        b = EMSTDPNetwork((8, 12, 3),
                          small_cfg(phase_length=T, dynamics="spike"))
        b.load_state_dict(a.state_dict())
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = rng.uniform(0, 1, 8)
            # transients cost at most a few spikes out of T per neuron
            assert np.max(np.abs(a.output_rates(x) - b.output_rates(x))) \
                <= 8.0 / T

    @pytest.mark.parametrize("feedback", ["fa", "dfa"])
    def test_phase2_pulls_toward_target_in_both_backends(self, feedback):
        """Both backends' phase 2 raises the target class, not its rivals."""
        kw = dict(phase_length=64, feedback=feedback)
        a = EMSTDPNetwork((8, 12, 3), small_cfg(**kw))
        b = EMSTDPNetwork((8, 12, 3), small_cfg(dynamics="spike", **kw))
        b.load_state_dict(a.state_dict())
        x = np.full(8, 0.6)
        for net, two_phase in ((a, a._rate_solve), (b, b._spike_two_phase)):
            h, h_hat = two_phase(x, 0)
            assert h_hat[-1][0] >= h[-1][0] - 1e-9
            assert h_hat[-1][1] <= h[-1][1] + 2.0 / 64
            assert h_hat[-1][2] <= h[-1][2] + 2.0 / 64

    def test_both_backends_learn_the_same_task(self, blob_task):
        """Same task, same config: both backends end well above chance.

        The spike backend's limit-cycle noise makes it a slower learner
        than the closed-form rate solution, so this bounds the gap loosely
        rather than demanding equal accuracy.
        """
        xs, ys, tx, ty = blob_task
        accs = {}
        for dynamics in ("rate", "spike"):
            net = EMSTDPNetwork((8, 16, 3), small_cfg(dynamics=dynamics))
            net.train_stream(xs, ys)
            accs[dynamics] = net.evaluate(tx[:100], ty[:100])
        assert accs["rate"] >= 0.55 and accs["spike"] >= 0.55
        assert abs(accs["rate"] - accs["spike"]) <= 0.35


# ----------------------------------------------------------------------
# batched engine vs sequential reference
# ----------------------------------------------------------------------

class TestBatchedVsSequential:
    @pytest.mark.parametrize("dynamics", ["rate", "spike"])
    def test_forward_parity_rowwise(self, dynamics):
        cfg = small_cfg(phase_length=16, dynamics=dynamics)
        net = EMSTDPNetwork((8, 12, 3), cfg)
        X = np.random.default_rng(0).uniform(0, 1, (10, 8))
        batched = net.output_rates_batch(X)
        for b, x in enumerate(X):
            assert np.allclose(batched[b], net.output_rates(x), atol=1e-12)

    @pytest.mark.parametrize("dynamics", ["rate", "spike"])
    def test_predict_batch_identical(self, blob_task, dynamics):
        xs, ys, tx, ty = blob_task
        cfg = small_cfg(phase_length=16, dynamics=dynamics)
        net = EMSTDPNetwork((8, 16, 3), cfg)
        net.fit_batch(tx[:8], ty[:8], update_mode="minibatch")
        sub = tx[:40]
        assert np.array_equal(net.predict_batch(sub),
                              [net.predict(x) for x in sub])
        assert net.evaluate_batch(sub, ty[:40]) == net.evaluate(sub, ty[:40])

    def test_fit_batch_online_reproduces_sequential_64_samples(self):
        """Acceptance gate: 64-sample online run, weights within 1e-9."""
        xs, ys = make_blobs(8, 3, 64, seed=5)
        cfg = full_precision_config(seed=1)  # paper T = 64
        a, b = clone_pair((8, 16, 3), cfg)
        a.fit_batch(xs, ys, update_mode="online")
        for x, y in zip(xs, ys):
            b.train_sample(x, int(y))
        assert a.samples_seen == b.samples_seen == 64
        for wa, wb in zip(a.weights, b.weights):
            assert np.max(np.abs(wa - wb)) < 1e-9

    def test_fit_batch_online_exact_with_quantized_weights(self):
        """Same RNG consumption order => bit-identical stochastic rounding."""
        xs, ys = make_blobs(8, 3, 32, seed=5)
        cfg = loihi_default_config(seed=1, phase_length=32)
        a, b = clone_pair((8, 16, 3), cfg)
        a.fit_batch(xs, ys, update_mode="online")
        for x, y in zip(xs, ys):
            b.train_sample(x, int(y))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("feedback", ["fa", "dfa"])
    def test_spike_online_parity(self, feedback):
        xs, ys = make_blobs(8, 3, 24, seed=5)
        cfg = small_cfg(phase_length=16, dynamics="spike", feedback=feedback)
        a, b = clone_pair((8, 12, 3), cfg)
        a.fit_batch(xs, ys, update_mode="online")
        for x, y in zip(xs, ys):
            b.train_sample(x, int(y))
        for wa, wb in zip(a.weights, b.weights):
            assert np.max(np.abs(wa - wb)) < 1e-9

    def test_minibatch_equals_frozen_weight_mean_update(self):
        """Minibatch mode == mean of per-sample Eq. (7) deltas at frozen W."""
        xs, ys = make_blobs(8, 3, 16, seed=5)
        cfg = small_cfg(stochastic_rounding=False)
        a, b = clone_pair((8, 16, 3), cfg)
        a.fit_batch(xs, ys, update_mode="minibatch")
        deltas = [np.zeros_like(w) for w in b.weights]
        for x, y in zip(xs, ys):
            h, h_hat = b._rate_solve(x, int(y))
            for i in range(b.n_layers):
                deltas[i] += np.outer(b._augment(h[i]), h_hat[i + 1] - h[i + 1])
        for i, w in enumerate(b.weights):
            ref = b.updater.project(w + b.updater.eta * deltas[i] / len(xs))
            assert np.max(np.abs(ref - a.weights[i])) < 1e-9
