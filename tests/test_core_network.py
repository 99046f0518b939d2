"""Integration tests for the full-precision EMSTDP network."""

import numpy as np
import pytest

from repro.core import (EMSTDPConfig, EMSTDPNetwork, full_precision_config,
                        loihi_default_config)

from conftest import make_blobs


def small_cfg(**kw):
    base = dict(seed=1, phase_length=32)
    base.update(kw)
    return EMSTDPConfig(**base)


class TestConstruction:
    def test_weight_shapes_include_bias_row(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg(use_bias_neuron=True))
        assert [w.shape for w in net.weights] == [(9, 16), (17, 3)]

    def test_weight_shapes_without_bias(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg(use_bias_neuron=False))
        assert [w.shape for w in net.weights] == [(8, 16), (16, 3)]

    def test_seed_reproducibility(self):
        a = EMSTDPNetwork((8, 16, 3), small_cfg())
        b = EMSTDPNetwork((8, 16, 3), small_cfg())
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            EMSTDPNetwork((8,), small_cfg())
        with pytest.raises(ValueError):
            EMSTDPNetwork((8, 0, 3), small_cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EMSTDPConfig(feedback="backprop")
        with pytest.raises(ValueError):
            EMSTDPConfig(phase_length=0)
        with pytest.raises(ValueError):
            EMSTDPConfig(weight_bits=8)  # needs weight_clip


class TestLearning:
    @pytest.mark.parametrize("feedback", ["fa", "dfa"])
    def test_learns_blobs(self, blob_task, feedback):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg(feedback=feedback))
        before = net.evaluate(tx, ty)
        net.train_stream(xs, ys)
        after = net.evaluate(tx, ty)
        assert after > before
        assert after >= 0.9

    def test_learns_with_8bit_weights(self, blob_task):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 16, 3),
                            loihi_default_config(seed=1, phase_length=32))
        net.train_stream(xs, ys)
        assert net.evaluate(tx, ty) >= 0.85

    def test_quantized_weights_stay_on_grid(self, blob_task):
        xs, ys, _, _ = blob_task
        cfg = loihi_default_config(seed=1, phase_length=32)
        net = EMSTDPNetwork((8, 16, 3), cfg)
        net.train_stream(xs[:50], ys[:50])
        from repro.core import quant_step
        step = quant_step(cfg.weight_bits, cfg.weight_clip)
        for w in net.weights:
            assert np.allclose(w, np.round(w / step) * step, atol=1e-9)

    def test_three_layer_network_learns(self, blob_task):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 24, 16, 3), small_cfg())
        net.train_stream(xs, ys)
        net.train_stream(xs, ys)
        assert net.evaluate(tx, ty) >= 0.8

    def test_lr_scale_zero_freezes_weights(self, blob_task):
        xs, ys, _, _ = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg(stochastic_rounding=False))
        snapshot = [w.copy() for w in net.weights]
        net.train_stream(xs[:20], ys[:20], lr_scale=0.0)
        for w, s in zip(net.weights, snapshot):
            assert np.array_equal(w, s)

    def test_train_sample_diagnostics(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        out = net.train_sample(np.full(8, 0.5), 1)
        assert set(out) == {"h", "h_hat", "prediction", "correct"}
        assert len(out["h"]) == 3
        assert out["h"][0].shape == (8,)


class TestPhases:
    def test_phase2_moves_output_toward_target(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        x = np.full(8, 0.6)
        h, h_hat = net._rate_solve(x, 0)
        # target class rate must not decrease; rival classes must not rise
        assert h_hat[-1][0] >= h[-1][0]
        assert h_hat[-1][1] <= h[-1][1] + 1e-9
        assert h_hat[-1][2] <= h[-1][2] + 1e-9

    def test_gating_blocks_dead_neuron_errors(self):
        cfg = small_cfg(feedback="fa", gate_hidden=True)
        net = EMSTDPNetwork((8, 16, 3), cfg)
        x = np.zeros(8)  # with zero input only bias drives; most units silent
        h, h_hat = net._rate_solve(x, 0)
        dead = h[1] == 0
        # corrections cannot excite dead hidden neurons through FA
        assert np.all(h_hat[1][dead] <= h[1][dead] + 1e-9)

    def test_rates_always_on_grid(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        T = net.config.T
        h, h_hat = net._rate_solve(np.full(8, 0.37), 2)
        for r in h + h_hat:  # phase-1 and phase-2 rates are grid rates
            assert np.allclose(r * T, np.round(r * T), atol=1e-9)


class TestClassMask:
    def test_masked_classes_never_predicted(self, blob_task):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        net.set_class_mask([0, 2])
        preds = {net.predict(x) for x in tx[:50]}
        assert 1 not in preds

    def test_mask_requires_nonempty(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        with pytest.raises(ValueError):
            net.set_class_mask([])

    def test_clear_mask_restores(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        net.set_class_mask([0])
        net.clear_class_mask()
        assert net.class_mask.all()


class TestCheckpointing:
    def test_state_roundtrip(self, blob_task):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        net.train_stream(xs[:100], ys[:100])
        state = net.state_dict()
        clone = EMSTDPNetwork((8, 16, 3), small_cfg(seed=99))
        clone.load_state_dict(state)
        assert clone.evaluate(tx, ty) == net.evaluate(tx, ty)

    def test_dims_mismatch_rejected(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        other = EMSTDPNetwork((8, 8, 3), small_cfg())
        with pytest.raises(ValueError):
            other.load_state_dict(net.state_dict())

    def test_bias_unit_mismatch_rejected(self):
        """Same dims, no bias row: (8, 16) weights where (9, 16) belong."""
        net = EMSTDPNetwork((8, 16, 3), small_cfg(use_bias_neuron=False))
        other = EMSTDPNetwork((8, 16, 3), small_cfg())
        with pytest.raises(ValueError, match="weights"):
            other.load_state_dict(net.state_dict())
        with pytest.raises(ValueError, match="weights"):
            net.load_state_dict(other.state_dict())

    def test_fortran_ordered_checkpoint_loads_in_c_order(self):
        """A transposed-twice (Fortran-ordered) checkpoint is stored in C
        order, the layout the fused spike loop reads, and predicts the
        same as the checkpoint it came from."""
        net = EMSTDPNetwork((8, 16, 3), small_cfg(dynamics="spike"))
        state = net.state_dict()
        state["weights"] = [np.asfortranarray(w) for w in state["weights"]]
        other = EMSTDPNetwork((8, 16, 3), small_cfg(seed=9, dynamics="spike"))
        other.load_state_dict(state)
        assert all(w.flags.c_contiguous for w in other.weights)
        X = np.random.default_rng(0).uniform(0, 1, (5, 8))
        assert np.array_equal(other.predict_batch(X), net.predict_batch(X))

    def test_class_mask_and_feedback_shapes_rejected(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        state = net.state_dict()
        state["class_mask"] = np.ones(5, dtype=bool)
        with pytest.raises(ValueError, match="class_mask"):
            net.load_state_dict(state)
        # FA feedback of a deeper stack is (16, 12); DFA's is (3, 12).
        fa = EMSTDPNetwork((8, 12, 16, 3), small_cfg(feedback="fa"))
        dfa = EMSTDPNetwork((8, 12, 16, 3), small_cfg(feedback="dfa"))
        before = dfa.state_dict()
        with pytest.raises(ValueError, match="feedback_weights"):
            dfa.load_state_dict(fa.state_dict())
        # A rejected checkpoint leaves the network untouched.
        for a, b in zip(before["feedback_weights"], dfa.feedback_weights):
            assert np.array_equal(a, b)


class TestSpikeBackend:
    def test_spike_phase1_matches_rate_phase1(self):
        """The closed-form rate solution tracks the explicit simulation."""
        cfg_rate = small_cfg(phase_length=64)
        cfg_spike = small_cfg(phase_length=64, dynamics="spike")
        a = EMSTDPNetwork((8, 12, 3), cfg_rate)
        b = EMSTDPNetwork((8, 12, 3), cfg_spike)
        b.load_state_dict(a.state_dict())
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(0, 1, 8)
            ra = a.output_rates(x)
            rb = b.output_rates(x)
            # transients cost at most a few spikes out of T
            assert np.max(np.abs(ra - rb)) <= 8.0 / 64

    def test_spike_backend_learns(self):
        xs, ys = make_blobs(8, 3, 200, seed=0)
        tx, ty = make_blobs(8, 3, 100, seed=1)
        net = EMSTDPNetwork((8, 16, 3), small_cfg(dynamics="spike"))
        before = net.evaluate(tx, ty)
        net.train_stream(xs, ys)
        assert net.evaluate(tx, ty) > before

    @pytest.mark.parametrize("feedback", ["fa", "dfa"])
    def test_spike_two_phase_runs(self, feedback):
        cfg = small_cfg(dynamics="spike", feedback=feedback, phase_length=16)
        net = EMSTDPNetwork((6, 10, 3), cfg)
        out = net.train_sample(np.full(6, 0.5), 1)
        assert 0.0 <= out["h_hat"][-1].max() <= 1.0


class TestConfigFactories:
    def test_loihi_default_has_8bit(self):
        cfg = loihi_default_config()
        assert cfg.weight_bits == 8
        assert cfg.weight_clip is not None

    def test_full_precision_has_no_quantization(self):
        cfg = full_precision_config()
        assert cfg.weight_bits is None

    def test_paper_hyperparameters(self):
        cfg = full_precision_config()
        assert cfg.phase_length == 64
        assert cfg.learning_rate == pytest.approx(2.0 ** -3)
