"""Integration tests: EMSTDP on the chip simulator."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core import (EMSTDPNetwork, encode_labels, loihi_default_config,
                        quantize_to_bins)
from repro.loihi import Runtime
from repro.onchip import (LoihiEMSTDPTrainer, ScaleScheme,
                          build_emstdp_network, eta_exponent)

from conftest import make_blobs


def small_model(feedback="dfa", T=32, **cfg_overrides):
    cfg = loihi_default_config(seed=1, phase_length=T, feedback=feedback,
                               **cfg_overrides)
    ref = EMSTDPNetwork((8, 16, 3), cfg)
    model = build_emstdp_network(
        (8, 16, 3), cfg,
        initial_weights=[w.copy() for w in ref.weights],
        feedback_weights=[b.copy() for b in ref.feedback_weights])
    return ref, model


def _engine(kind):
    """The reference network or the chip trainer of one small model."""
    ref, model = small_model("dfa")
    return ref if kind == "reference" else LoihiEMSTDPTrainer(model)


@pytest.mark.parametrize("kind", ["reference", "chip"])
class TestClassMaskRule:
    """Both engines take a class list through one rule
    (``encoding.active_class_mask``)."""

    @pytest.mark.parametrize("classes,text", [
        ([-1], "class -1 out of range for 3 classes"),
        ([-4], "class -4 out of range for 3 classes"),
        ([3], "class 3 out of range for 3 classes"),
        ([1.0], "class 1.0 is not an integer"),
        ([True, False, True], "class True is not an integer"),
        (np.array([True, False, True]), "is not an integer"),
        ([], "at least one class must stay active"),
    ], ids=["minus1", "minus4", "n_classes", "float", "bools",
            "bool_array", "empty"])
    def test_bad_class_list_raises_and_keeps_the_mask(self, kind, classes,
                                                      text):
        engine = _engine(kind)
        engine.set_class_mask([0, 2])
        with pytest.raises(ValueError, match=text):
            engine.set_class_mask(classes)
        np.testing.assert_array_equal(engine.state_dict()["class_mask"],
                                      [True, False, True])

    def test_protocol_class_lists_give_the_same_masks(self, kind):
        """The lists ``IncrementalOnlineLearner`` passes (slices of a
        generator's permutation, their sums, ``range``) and the trainer's
        checkpoint restore (``np.flatnonzero``) set the mask that indexing
        a zero mask with them sets."""
        engine = _engine(kind)
        order = list(np.random.default_rng(0).permutation(3))
        for classes in (order[:1], order[1:2], order[:1] + order[1:2],
                        order[2:], order, range(3),
                        list(np.flatnonzero([True, False, True]))):
            expected = np.zeros(3, dtype=bool)
            expected[list(classes)] = True
            engine.set_class_mask(classes)
            np.testing.assert_array_equal(
                engine.state_dict()["class_mask"], expected)


class TestScaleScheme:
    def test_roundtrip(self):
        s = ScaleScheme()
        w = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        back = s.from_mant(s.to_mant(w))
        assert np.max(np.abs(back - w)) <= s.step / 2 + 1e-9

    def test_unit_weight_delivers_threshold(self):
        s = ScaleScheme()
        mant = s.unit_weight_mant(1.0)
        assert abs(mant * s.weight_scale - s.vth) <= s.weight_scale

    def test_rate_to_bias_range(self):
        s = ScaleScheme()
        assert s.rate_to_bias(np.array([0.0]))[0] == 0
        assert s.rate_to_bias(np.array([1.0]))[0] == s.vth
        assert s.rate_to_bias(np.array([2.0]))[0] == s.vth  # clipped

    def test_eta_exponent_paper_settings(self):
        # eta=2^-3, clip=2, T=64 -> 0.125*127/(2*4096) ~= 2^-9
        assert eta_exponent(2.0 ** -3, 2.0, 64) == -9


class TestBuilder:
    def test_dfa_has_no_standalone_error_relays(self):
        _, model = small_model("dfa")
        names = [g.name for g in model.network.groups]
        # dendrites exist but colocate with their forward layer
        dend = model.network.group("dfa0_pos")
        assert dend.colocate == "fwd1"

    def test_fa_has_standalone_error_relays(self):
        _, model = small_model("fa")
        relay = model.network.group("err0_pos")
        assert relay.colocate is None

    def test_dfa_uses_fewer_cores_than_fa(self):
        _, mf = small_model("fa")
        _, md = small_model("dfa")
        tf = LoihiEMSTDPTrainer(mf, neurons_per_core=4)
        td = LoihiEMSTDPTrainer(md, neurons_per_core=4)
        assert td.mapping.cores_used < tf.mapping.cores_used

    def test_inference_only_network_smaller(self):
        cfg = loihi_default_config(seed=1, phase_length=32)
        full = build_emstdp_network((8, 16, 3), cfg)
        inf = build_emstdp_network((8, 16, 3), cfg, include_error_path=False)
        assert inf.network.n_compartments() < full.network.n_compartments()
        assert inf.label_name is None

    def test_weight_shape_validation(self):
        cfg = loihi_default_config(seed=1)
        with pytest.raises(ValueError):
            build_emstdp_network((8, 16, 3), cfg,
                                 initial_weights=[np.zeros((3, 3)),
                                                  np.zeros((17, 3))])

    def test_frontend_layers(self):
        cfg = loihi_default_config(seed=1, phase_length=16)
        mat = np.eye(8) * 0.5
        model = build_emstdp_network(
            (8, 6, 3), cfg, frontend_layers=[(mat, None)])
        assert model.input_name == "frontend0"
        assert model.network.group("frontend1").n == 8

    def test_frontend_dim_mismatch(self):
        cfg = loihi_default_config(seed=1)
        with pytest.raises(ValueError):
            build_emstdp_network((4, 6, 3), cfg,
                                 frontend_layers=[(np.eye(8), None)])


class TestTrainer:
    def test_learns_blobs(self):
        xs, ys = make_blobs(8, 3, 400, seed=0)
        tx, ty = make_blobs(8, 3, 80, seed=1)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        before = trainer.evaluate(tx, ty)
        trainer.train_stream(xs, ys)
        trainer.train_stream(xs, ys)
        after = trainer.evaluate(tx, ty)
        assert after > before
        assert after >= 0.8

    def test_weights_stay_int8(self):
        xs, ys = make_blobs(8, 3, 50, seed=0)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        trainer.train_stream(xs, ys)
        for conn in model.plastic_connections:
            assert np.abs(conn.weight_mant).max() <= 127
            assert conn.weight_mant.dtype.kind == "i"

    def test_inference_only_network_rejects_training(self):
        cfg = loihi_default_config(seed=1, phase_length=16)
        model = build_emstdp_network((8, 16, 3), cfg,
                                     include_error_path=False)
        trainer = LoihiEMSTDPTrainer(model)
        with pytest.raises(RuntimeError):
            trainer.train_sample(np.zeros(8), 0)

    def test_inference_matches_reference(self):
        """Phase-1 rates on chip track the FP reference's rate solution."""
        ref, model = small_model("dfa", T=64)
        trainer = LoihiEMSTDPTrainer(model)
        rng = np.random.default_rng(0)
        agree = 0
        for _ in range(10):
            x = rng.uniform(0, 1, 8)
            agree += int(trainer.predict(x) == ref.predict(x))
        assert agree >= 8

    def test_class_mask(self):
        xs, ys = make_blobs(8, 3, 10, seed=0)
        _, model = small_model("dfa")
        trainer = LoihiEMSTDPTrainer(model)
        trainer.set_class_mask([0, 2])
        with pytest.raises(ValueError):
            trainer.train_sample(xs[0], 1)
        preds = {trainer.predict(x) for x in xs}
        assert 1 not in preds
        trainer.clear_class_mask()
        trainer.train_sample(xs[0], 1)  # no raise

    def test_energy_report_requires_samples(self):
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model)
        with pytest.raises(ValueError):
            trainer.energy_report()

    def test_energy_report_after_training(self):
        xs, ys = make_blobs(8, 3, 5, seed=0)
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model, neurons_per_core=8)
        trainer.train_stream(xs, ys)
        rep = trainer.energy_report()
        assert rep.fps > 0
        assert rep.power_w > 0
        assert rep.cores_used == trainer.mapping.cores_used

    def test_io_is_one_bias_write_per_sample(self):
        """Section III-D: the host programs biases once per sample; no
        spike streaming is involved in the runtime loop."""
        _, model = small_model("dfa", T=16)
        trainer = LoihiEMSTDPTrainer(model)
        writes = []
        original = trainer.runtime.set_bias

        def counting(name, bias):
            writes.append(name)
            return original(name, bias)

        trainer.runtime.set_bias = counting
        trainer.train_sample(np.full(8, 0.5), 1)
        assert sorted(writes) == ["fwd0", "label"]


# ----------------------------------------------------------------------
# Operation Flow 1's host schedule, pinned call by call
# ----------------------------------------------------------------------

#: The Runtime methods the host drives a presentation with.
HOST_CALLS = ("reset_state", "reset_traces", "reset_tags", "set_bias",
              "disable", "run", "learning_epoch", "reset_membranes",
              "enable", "mark_sample")
#: Group names of the DFA (6, 8, 3) network built below.
FORWARD = ["fwd0", "fwd1", "fwd2"]
PHASE2 = ["label", "err_out_pos", "err_out_neg", "corr_out",
          "dfa0_pos", "dfa0_neg"]


def _plain(value):
    """An argument as comparable plain data (arrays and name lists as
    lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class TestOperationFlow1Schedule:
    """Every chip test compares two paths (fused vs per-step, batched vs
    sequential), so a slip made in every path at once would pass them all.
    These pin the host calls themselves to the sequence the
    ``repro.onchip.trainer`` module docstring gives."""

    T = 8

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Records ``(runtime, method, arguments)`` for every host call,
        defaults filled in, so ``mark_sample()`` reads as ``mark_sample(1)``."""
        log = []
        for name in HOST_CALLS:
            real = getattr(Runtime, name)

            def recorder(rt, *args, _name=name, _real=real,
                         _sig=inspect.signature(real), **kw):
                bound = _sig.bind(rt, *args, **kw)
                bound.apply_defaults()
                log.append((rt, _name, [_plain(v) for k, v in
                                        bound.arguments.items()
                                        if k != "self"]))
                return _real(rt, *args, **kw)

            monkeypatch.setattr(Runtime, name, recorder)
        return log

    def trainer(self, include_error_path=True, batch_replicas=3):
        cfg = loihi_default_config(seed=1, phase_length=self.T,
                                   feedback="dfa")
        model = build_emstdp_network((6, 8, 3), cfg,
                                     include_error_path=include_error_path)
        return LoihiEMSTDPTrainer(model, neurons_per_core=16,
                                  batch_replicas=batch_replicas)

    def flow1(self, trainer, X, labels=None):
        """The docstring's calls for one presentation of the block ``X``
        (one sample per replica)."""
        model = trainer.model

        def bias(rates):
            return model.scales.rate_to_bias(rates).tolist()

        inp = ["set_bias", ["fwd0", bias(quantize_to_bins(X, self.T))]]
        if labels is None:
            gate = [["disable", [PHASE2]]] \
                if model.label_name is not None else []
            return ([["reset_state", [True]], inp] + gate
                    + [["run", [self.T]], ["mark_sample", [len(X)]]])
        return [["reset_state", [True]], ["reset_traces", []],
                ["reset_tags", []], inp,
                ["set_bias", ["label", bias(encode_labels(labels, 3))]],
                ["disable", [PHASE2]], ["run", [self.T]],
                ["learning_epoch", ["phase1_end"]], ["reset_traces", []],
                ["reset_membranes", [FORWARD]], ["enable", [PHASE2]],
                ["run", [self.T]], ["learning_epoch", ["phase2_end"]],
                ["reset_tags", []], ["reset_traces", []],
                ["mark_sample", [len(X)]]]

    @staticmethod
    def seen(log, trainer):
        """The log with each runtime named: ``"chip"`` for the trainer's
        own runtime, else the replica width of the twin."""
        return [["chip" if rt is trainer.runtime else rt.network.replicas,
                 name, args] for rt, name, args in log]

    @staticmethod
    def on(where, expected):
        return [[where] + call for call in expected]

    def test_train_sample(self, calls):
        trainer = self.trainer()
        xs, ys = make_blobs(6, 3, 1, seed=0)
        trainer.train_sample(xs[0], int(ys[0]))
        assert self.seen(calls, trainer) == self.on(
            "chip", self.flow1(trainer, xs, ys))

    def test_infer(self, calls):
        trainer = self.trainer()
        xs, _ = make_blobs(6, 3, 1, seed=1)
        trainer.infer(xs[0])
        assert self.seen(calls, trainer) == self.on(
            "chip", self.flow1(trainer, xs))

    def test_minibatch_chunks_of_three_then_one(self, calls):
        trainer = self.trainer(batch_replicas=3)
        xs, ys = make_blobs(6, 3, 4, seed=2)
        trainer.fit_batch(xs, ys, update_mode="minibatch")
        assert self.seen(calls, trainer) == (
            self.on(3, self.flow1(trainer, xs[:3], ys[:3]))
            + self.on(1, self.flow1(trainer, xs[3:], ys[3:])))

    def test_infer_batch(self, calls):
        trainer = self.trainer(batch_replicas=3)
        xs, _ = make_blobs(6, 3, 4, seed=3)
        trainer.infer_batch(xs)
        assert self.seen(calls, trainer) == (
            self.on(3, self.flow1(trainer, xs[:3]))
            + self.on(1, self.flow1(trainer, xs[3:])))

    def test_inference_only_network_never_disables(self, calls):
        trainer = self.trainer(include_error_path=False, batch_replicas=3)
        xs, _ = make_blobs(6, 3, 4, seed=4)
        trainer.infer(xs[0])
        trainer.infer_batch(xs[1:])
        assert self.seen(calls, trainer) == (
            self.on("chip", self.flow1(trainer, xs[:1]))
            + self.on(3, self.flow1(trainer, xs[1:])))
        assert "disable" not in [name for _, name, _ in calls]

    @pytest.mark.parametrize("how", ["train_sample", "online", "minibatch"])
    @pytest.mark.parametrize("label", [3, -1])
    def test_label_out_of_range_fails_before_any_host_call(self, calls,
                                                           label, how):
        """A label outside the 3 classes fails as the reference engine's
        does, before the trainer resets, programs or runs anything: the
        samples before it in a batch are not trained either."""
        trainer = self.trainer()
        xs, ys = make_blobs(6, 3, 3, seed=5)
        weights = [c.weight_mant.copy()
                   for c in trainer.model.plastic_connections]
        stats = dataclasses.replace(trainer.runtime.stats)
        with pytest.raises(ValueError, match=f"^label {label} out of range "
                                             f"for 3 classes$"):
            if how == "train_sample":
                trainer.train_sample(xs[0], label)
            else:
                trainer.fit_batch(xs, [int(ys[0]), int(ys[1]), label],
                                  update_mode=how)
        assert calls == []
        for conn, w in zip(trainer.model.plastic_connections, weights):
            assert np.array_equal(conn.weight_mant, w)
        assert trainer.runtime.stats == stats
