"""Unit and integration tests for the batched vectorized EMSTDP engine.

Covers the batched primitives (``IFLayer``/``SignedErrorLayer`` with a
leading batch dimension, ``encode_labels``, ``predict_classes``,
``WeightUpdater.apply_batch``), the network-level batch API in both update
modes and both dynamics backends, and the batch APIs threaded through the
on-chip trainer and the backprop baseline.  End-to-end batched-vs-
sequential equivalence lives in ``test_network_equivalence.py``.
"""

import numpy as np
import pytest

from repro.baselines import BackpropMLP
from repro.core import (EMSTDPConfig, EMSTDPNetwork, IFLayer,
                        SignedErrorLayer, WeightUpdater,
                        delta_w_reference, delta_w_reference_batch,
                        encode_label, encode_labels, full_precision_config,
                        loihi_default_config, predict_class, predict_classes)
from repro.data import load_dataset

from conftest import make_blobs


def small_cfg(**kw):
    base = dict(seed=1, phase_length=32)
    base.update(kw)
    return EMSTDPConfig(**base)


# ----------------------------------------------------------------------
# Batched neuron primitives
# ----------------------------------------------------------------------

class TestBatchedIFLayer:
    def test_rows_evolve_like_independent_layers(self):
        B, n, steps = 5, 7, 40
        rng = np.random.default_rng(0)
        drives = rng.uniform(-0.4, 1.2, size=(steps, B, n))
        batched = IFLayer(n, batch_size=B)
        singles = [IFLayer(n) for _ in range(B)]
        for t in range(steps):
            sb = batched.step(drives[t])
            for b, layer in enumerate(singles):
                assert np.array_equal(sb[b], layer.step(drives[t, b]))
        for b, layer in enumerate(singles):
            assert np.array_equal(batched.spike_count[b], layer.spike_count)
            assert np.allclose(batched.v[b], layer.v)

    def test_state_shapes(self):
        layer = IFLayer(4, batch_size=3)
        assert layer.v.shape == (3, 4)
        assert layer.spike_count.shape == (3, 4)

    def test_shape_validation_batched(self):
        layer = IFLayer(4, batch_size=3)
        with pytest.raises(ValueError):
            layer.step(np.zeros(4))  # missing batch dim
        with pytest.raises(ValueError):
            layer.step(np.zeros((2, 4)))  # wrong batch size

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            IFLayer(4, batch_size=0)

    def test_unbatched_default_unchanged(self):
        layer = IFLayer(3)
        assert layer.batch_size is None
        assert layer.v.shape == (3,)
        with pytest.raises(ValueError):
            layer.step(np.zeros(4))


class TestBatchedSignedErrorLayer:
    def test_rows_match_independent_pairs_with_gates(self):
        B, n, steps = 4, 6, 30
        rng = np.random.default_rng(1)
        drives = rng.uniform(-1.0, 1.0, size=(steps, B, n))
        gates = rng.random((B, n)) > 0.3
        batched = SignedErrorLayer(n, batch_size=B)
        singles = [SignedErrorLayer(n) for _ in range(B)]
        for t in range(steps):
            out = batched.step(drives[t], gate=gates)
            for b, pair in enumerate(singles):
                assert np.array_equal(out[b],
                                      pair.step(drives[t, b], gate=gates[b]))
        for b, pair in enumerate(singles):
            assert np.array_equal(batched.signed_count[b], pair.signed_count)


# ----------------------------------------------------------------------
# Batched encodings / readout / updates
# ----------------------------------------------------------------------

class TestBatchedHelpers:
    def test_encode_labels_matches_scalar(self):
        labels = np.array([0, 3, 1, 3])
        batch = encode_labels(labels, 4, rate=0.5)
        for b, lab in enumerate(labels):
            assert np.array_equal(batch[b], encode_label(int(lab), 4, 0.5))

    def test_encode_labels_validation(self):
        with pytest.raises(ValueError):
            encode_labels([0, 4], 4)
        with pytest.raises(ValueError):
            encode_labels([0, 1], 4, rate=0.0)

    def test_predict_classes_matches_scalar(self):
        rates = np.random.default_rng(2).random((6, 5))
        rates[0] = 0.25  # tie row: argmax tie-break must agree
        preds = predict_classes(rates)
        for b in range(len(rates)):
            assert preds[b] == predict_class(rates[b])

    def test_delta_w_batch_matches_looped_outer(self):
        rng = np.random.default_rng(3)
        B, n_pre, n_post = 9, 5, 4
        h_hat = rng.random((B, n_post))
        h = rng.random((B, n_post))
        pre = rng.random((B, n_pre))
        summed = sum(delta_w_reference(h_hat[b], h[b], pre[b], eta=0.125)
                     for b in range(B))
        assert np.allclose(
            delta_w_reference_batch(h_hat, h, pre, eta=0.125, reduction="sum"),
            summed, atol=1e-12)
        assert np.allclose(
            delta_w_reference_batch(h_hat, h, pre, eta=0.125, reduction="mean"),
            summed / B, atol=1e-12)

    def test_delta_w_batch_validation(self):
        with pytest.raises(ValueError):
            delta_w_reference_batch(np.zeros((2, 3)), np.zeros((2, 3)),
                                    np.zeros((2, 4)), 0.1, reduction="max")
        with pytest.raises(ValueError):
            delta_w_reference_batch(np.zeros(3), np.zeros(3), np.zeros(4), 0.1)

    def test_updater_apply_batch_projects_once(self):
        rng = np.random.default_rng(4)
        up = WeightUpdater(eta=0.25, weight_bits=8, weight_clip=2.0,
                           stochastic_rounding=False, rng=rng)
        w = rng.uniform(-1, 1, (5, 4))
        h_hat, h, pre = rng.random((3, 4)), rng.random((3, 4)), rng.random((3, 5))
        got = up.apply_batch(w, h_hat, h, pre)
        ref = up.project(
            w + delta_w_reference_batch(h_hat, h, pre, 0.25, "mean"))
        assert np.array_equal(got, ref)


# ----------------------------------------------------------------------
# Network-level batch API
# ----------------------------------------------------------------------

class TestFitBatch:
    def test_returns_per_sample_results(self, blob_task):
        xs, ys, _, _ = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        out = net.fit_batch(xs[:12], ys[:12], update_mode="minibatch")
        assert out["predictions"].shape == (12,)
        assert out["correct"].shape == (12,)
        assert out["accuracy"] == pytest.approx(np.mean(out["correct"]))
        assert net.samples_seen == 12

    def test_rejects_unknown_mode_and_bad_shapes(self, blob_task):
        xs, ys, _, _ = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        with pytest.raises(ValueError):
            net.fit_batch(xs[:4], ys[:4], update_mode="epoch")
        with pytest.raises(ValueError):
            net.fit_batch(xs[:4], ys[:3])
        with pytest.raises(ValueError):
            net.fit_batch(np.zeros((4, 9)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("dynamics", ["rate", "spike"])
    def test_online_parity_on_mnist_like(self, dynamics):
        """Satellite case: fit(x_i) loop == fit_batch(X) online, MNIST-like."""
        train, _ = load_dataset("mnist_like", n_train=24, n_test=4, side=8)
        dims = (64, 20, 10)
        cfg = small_cfg(phase_length=16, dynamics=dynamics)
        a = EMSTDPNetwork(dims, cfg)
        b = EMSTDPNetwork(dims, cfg)
        out = a.fit_batch(train.flat(), train.labels, update_mode="online")
        seq_preds = [b.train_sample(x, int(y))["prediction"]
                     for x, y in zip(train.flat(), train.labels)]
        assert np.array_equal(out["predictions"], seq_preds)
        for wa, wb in zip(a.weights, b.weights):
            assert np.max(np.abs(wa - wb)) < 1e-9

    def test_minibatch_mode_learns_blobs(self, blob_task):
        xs, ys, tx, ty = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        before = net.evaluate_batch(tx, ty)
        for _ in range(3):
            for lo in range(0, len(xs), 32):
                net.fit_batch(xs[lo:lo + 32], ys[lo:lo + 32],
                              update_mode="minibatch")
        after = net.evaluate_batch(tx, ty)
        assert after > before
        assert after >= 0.6

    def test_minibatch_respects_lr_scale_zero(self, blob_task):
        xs, ys, _, _ = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg(stochastic_rounding=False))
        snapshot = [w.copy() for w in net.weights]
        net.fit_batch(xs[:16], ys[:16], update_mode="minibatch", lr_scale=0.0)
        for w, s in zip(net.weights, snapshot):
            assert np.array_equal(w, s)

    def test_minibatch_respects_class_mask(self, blob_task):
        xs, ys, tx, _ = blob_task
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        net.set_class_mask([0, 2])
        keep = ys != 1
        net.fit_batch(xs[keep][:32], ys[keep][:32], update_mode="minibatch")
        assert 1 not in set(net.predict_batch(tx[:50]).tolist())

    @pytest.mark.parametrize("mode", ["online", "minibatch"])
    @pytest.mark.parametrize("empty", [[], np.zeros((0, 8))])
    def test_empty_batch_is_a_safe_noop(self, mode, empty):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        snapshot = [w.copy() for w in net.weights]
        out = net.fit_batch(empty, [], update_mode=mode)
        assert out["predictions"].shape == (0,)
        assert out["accuracy"] == 0.0
        for w, s in zip(net.weights, snapshot):
            assert np.array_equal(w, s)  # no NaN write-back from a 0/0 mean
        assert net.predict_batch(empty).shape == (0,)
        assert net.evaluate_batch(empty, []) == 0.0

    @pytest.mark.parametrize("dynamics", ["rate", "spike"])
    @pytest.mark.parametrize("mode", ["online", "minibatch"])
    @pytest.mark.parametrize("label", [3, -1])
    def test_bad_label_fails_before_any_sample_trains(self, dynamics, mode,
                                                      label):
        """A label outside the 3 classes at position 2 fails before
        samples 0 and 1 train: nothing counted, every weight byte and the
        generator state unchanged, in both update modes."""
        net = EMSTDPNetwork((8, 6, 3), full_precision_config(
            seed=0, dynamics=dynamics, phase_length=16))
        xs, ys = make_blobs(8, 3, 3, seed=5)
        weights = [w.tobytes() for w in net.weights]
        state = net.rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^label {label} out of range "
                                             f"for 3 classes$"):
            net.fit_batch(xs, [int(ys[0]), int(ys[1]), label],
                          update_mode=mode)
        assert net.samples_seen == 0
        assert [w.tobytes() for w in net.weights] == weights
        assert net.rng.bit_generator.state == state

    def test_delta_w_batch_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            delta_w_reference_batch(np.zeros((0, 3)), np.zeros((0, 3)),
                                    np.zeros((0, 4)), 0.1)

    def test_single_sample_input_promoted_to_batch(self):
        net = EMSTDPNetwork((8, 16, 3), small_cfg())
        out = net.fit_batch(np.full(8, 0.5), [1], update_mode="minibatch")
        assert out["predictions"].shape == (1,)
        assert net.predict_batch(np.full(8, 0.5)).shape == (1,)


# ----------------------------------------------------------------------
# Batch APIs threaded through the other layers
# ----------------------------------------------------------------------

class TestOnChipBatchAPI:
    @pytest.fixture()
    def trainer(self):
        from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network
        cfg = loihi_default_config(seed=1, phase_length=8)
        model = build_emstdp_network((6, 8, 3), cfg)
        return LoihiEMSTDPTrainer(model, neurons_per_core=16)

    def test_train_batch_matches_sample_loop_contract(self, trainer):
        xs, ys = make_blobs(6, 3, 6, seed=2)
        out = trainer.fit_batch(xs, ys, update_mode="online")
        assert out["predictions"].shape == (6,)
        assert out["correct"].dtype == bool
        assert trainer.samples_trained == 6

    def test_fit_batch_alias_and_1d_promotion(self, trainer):
        xs, ys = make_blobs(6, 3, 2, seed=2)
        out = trainer.fit_batch(xs, ys)  # drop-in for EMSTDPNetwork.fit_batch
        assert out["predictions"].shape == (2,)
        out = trainer.fit_batch(xs[0], [int(ys[0])])  # 1-D sample -> B=1
        assert out["predictions"].shape == (1,)
        assert trainer.infer_batch(xs[0]).shape == (1, 3)
        # minibatch mode rides the batch-parallel replicated runtime
        out = trainer.fit_batch(xs, ys, update_mode="minibatch")
        assert out["predictions"].shape == (2,)
        with pytest.raises(ValueError):
            trainer.fit_batch(xs, ys, update_mode="bogus")

    def test_predict_and_evaluate_batch(self, trainer):
        xs, ys = make_blobs(6, 3, 5, seed=3)
        preds = trainer.predict_batch(xs)
        assert np.array_equal(preds, [trainer.predict(x) for x in xs])
        assert trainer.evaluate_batch(xs, ys) == trainer.evaluate(xs, ys)
        assert trainer.infer_batch(xs).shape == (5, 3)


class TestBackpropMLPBatch:
    def test_predict_batch_matches_loop(self):
        xs, _ = make_blobs(8, 3, 30, seed=4)
        mlp = BackpropMLP((8, 16, 3), seed=0)
        assert np.array_equal(mlp.predict_batch(xs),
                              [mlp.predict(x) for x in xs])

    def test_evaluate_batch_matches_loop(self):
        xs, ys = make_blobs(8, 3, 30, seed=4)
        mlp = BackpropMLP((8, 16, 3), seed=0)
        assert mlp.evaluate_batch(xs, ys) == mlp.evaluate(xs, ys)

    def test_train_batch_learns(self):
        xs, ys = make_blobs(8, 3, 300, seed=0)
        tx, ty = make_blobs(8, 3, 100, seed=1)
        mlp = BackpropMLP((8, 16, 3), lr=0.5, seed=0)
        before = mlp.evaluate_batch(tx, ty)
        for _ in range(5):
            for lo in range(0, len(xs), 32):
                mlp.train_batch(xs[lo:lo + 32], ys[lo:lo + 32])
        assert mlp.evaluate_batch(tx, ty) > max(before, 0.8)

    def test_train_batch_validates_lengths(self):
        mlp = BackpropMLP((8, 16, 3), seed=0)
        with pytest.raises(ValueError):
            mlp.train_batch(np.zeros((4, 8)), np.zeros(3, dtype=int))

    def test_evaluate_batch_validates_lengths(self):
        """A label count other than the sample count is rejected, never
        broadcast into an accuracy."""
        xs, _ = make_blobs(8, 3, 10, seed=4)
        mlp = BackpropMLP((8, 16, 3), seed=0)
        for labels in ([1], [1, 2]):
            with pytest.raises(ValueError, match="equal length"):
                mlp.evaluate_batch(xs, labels)

    def test_train_batch_of_one_matches_train_sample(self):
        """Same gradient at B=1: batched and sequential paths agree."""
        xs, ys = make_blobs(8, 3, 10, seed=6)
        a = BackpropMLP((8, 16, 3), lr=0.1, seed=0)
        b = BackpropMLP((8, 16, 3), lr=0.1, seed=0)
        for x, y in zip(xs, ys):
            a.train_sample(x, int(y))
            b.train_batch(x[None, :], [int(y)])
        for wa, wb in zip(a.weights, b.weights):
            assert np.allclose(wa, wb, atol=1e-12)

    def test_empty_input_is_safe(self):
        mlp = BackpropMLP((8, 16, 3), seed=0)
        assert mlp.evaluate_batch([], []) == 0.0
        assert mlp.predict_batch([]).shape == (0,)
        assert mlp.train_batch([], []) == 0.0


class TestIncrementalUsesBatchedEval:
    def test_eval_observed_prefers_evaluate_batch(self):
        from repro.data.synth import Dataset
        from repro.incremental.protocol import IncrementalOnlineLearner

        calls = {"batch": 0, "loop": 0}

        class Probe:
            n_classes = 3

            def evaluate(self, xs, ys):
                calls["loop"] += 1
                return 0.0

            def evaluate_batch(self, xs, ys):
                calls["batch"] += 1
                return 0.0

        xs, ys = make_blobs(4, 3, 30, seed=0)
        data = Dataset(xs, ys, n_classes=3)
        learner = IncrementalOnlineLearner(Probe(), data, data)
        learner._eval_observed([0, 1])
        assert calls == {"batch": 1, "loop": 0}
