"""Cross-module property-based tests: invariants that must hold for any
input, not just the fixture tasks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (EMSTDPConfig, EMSTDPNetwork, encode_label,
                        signed_error_rates)
from repro.core.learning import delta_w_reference
from repro.loihi import LearningEngine, parse_rule
from repro.onchip import ScaleScheme

unit_floats = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12)


class TestRateInvariants:
    @given(x=unit_floats, label=st.integers(0, 2), T=st.integers(4, 64))
    @settings(max_examples=30, deadline=None)
    def test_all_phase_rates_bounded(self, x, label, T):
        """Every layer's h and h_hat stay on [0, 1] for any input."""
        cfg = EMSTDPConfig(seed=0, phase_length=T)
        net = EMSTDPNetwork((len(x), 6, 3), cfg)
        h, h_hat = net._rate_solve(np.array(x), label)
        for rates in list(h) + list(h_hat):
            assert (rates >= 0).all() and (rates <= 1).all()

    @given(x=unit_floats, label=st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_training_never_breaks_prediction_range(self, x, label):
        cfg = EMSTDPConfig(seed=0, phase_length=16, weight_bits=8,
                           weight_clip=2.0)
        net = EMSTDPNetwork((len(x), 6, 3), cfg)
        net.train_sample(np.array(x), label)
        pred = net.predict(np.array(x))
        assert 0 <= pred < 3
        for w in net.weights:
            assert np.abs(w).max() <= 2.0 + 1e-9

    @given(target_label=st.integers(0, 3), predicted=unit_floats,
           gain=st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_error_channels_never_both_fire(self, target_label, predicted,
                                            gain):
        """A signed error excites exactly one channel per neuron."""
        predicted = np.array(predicted[:4] + [0.0] * (4 - len(predicted[:4])))
        target = encode_label(target_label, 4)
        e_pos, e_neg = signed_error_rates(target, predicted, gain, T=32)
        assert (np.minimum(e_pos, e_neg) == 0).all()
        assert (e_pos >= 0).all() and (e_neg >= 0).all()


class TestUpdateInvariants:
    @given(h=unit_floats, pre=unit_floats)
    @settings(max_examples=30, deadline=None)
    def test_zero_error_zero_update(self, h, pre):
        """h_hat == h must produce exactly no weight change (Eq. 7)."""
        h = np.array(h)
        dw = delta_w_reference(h, h, np.array(pre), eta=0.125)
        assert (dw == 0).all()

    @given(scale=st.integers(-10, 0), h=st.integers(0, 64),
           pre=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_microcode_dw_magnitude_bound(self, scale, h, pre):
        """|dw| <= 2^scale * y1 * x1 for the single-term rule."""
        from repro.loihi import CompartmentPrototype, ConnectionGroup
        from repro.loihi.compartment import CompartmentGroup
        src = CompartmentGroup(1, CompartmentPrototype(), name="s")
        dst = CompartmentGroup(1, CompartmentPrototype(), name="d")
        conn = ConnectionGroup(src, dst, np.zeros((1, 1)), 64, plastic=True)
        conn.post_trace.values[:] = h
        conn.pre_trace.values[:] = pre
        eng = LearningEngine(stochastic_rounding=False)
        eng.apply(parse_rule(f"dw = 2^{scale} * y1 * x1"), conn)
        bound = (2.0 ** scale) * h * pre + 0.5
        assert abs(int(conn.weight_mant[0, 0, 0])) <= min(bound, 127)


class TestScaleSchemeInvariants:
    @given(clip=st.floats(0.5, 8.0),
           w=st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_mant_roundtrip_error_bounded(self, clip, w):
        s = ScaleScheme(weight_clip=clip)
        w = np.array(w)
        back = s.from_mant(s.to_mant(w))
        clipped = np.clip(w, -clip, clip)
        assert np.max(np.abs(back - clipped)) <= s.step / 2 + 1e-9

    @given(rate=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_bias_rate_roundtrip(self, rate):
        """rate -> bias -> realised IF rate agrees to 1/T resolution."""
        s = ScaleScheme()
        bias = int(s.rate_to_bias(np.array([rate]))[0])
        T = 64
        realised = (bias * T // s.vth) / T
        assert abs(realised - rate) <= 1.0 / T + 1.0 / s.vth


class TestDeterminism:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_run(self, seed):
        cfg = EMSTDPConfig(seed=seed, phase_length=16)
        xs = np.random.default_rng(0).uniform(0, 1, (10, 5))
        ys = np.random.default_rng(1).integers(0, 3, 10)
        nets = []
        for _ in range(2):
            net = EMSTDPNetwork((5, 8, 3), cfg)
            net.train_stream(xs, ys)
            nets.append(net)
        for wa, wb in zip(nets[0].weights, nets[1].weights):
            assert np.array_equal(wa, wb)


class TestKernelInvariants:
    """Property-style invariants of the backend-selected hot kernels.

    These run on whatever backend is active (all backends are pinned
    bit-identical by ``tests/test_kernels.py``, so the invariants transfer).
    """

    @given(v0=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16),
           drive=st.floats(-1.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_membrane_reset_only_where_spiked(self, v0, drive):
        """Spikes where v + drive reaches the threshold 1; neurons that do
        not spike just integrate (floored at rest)."""
        from repro.core import kernels
        v = np.array(v0)
        expected_quiet = np.maximum(v + drive, 0.0)
        spikes = kernels.if_step(v, np.full(len(v0), drive))
        assert np.array_equal(spikes, np.array(v0) + drive >= 1.0 - 1e-9)
        assert np.array_equal(v[~spikes], expected_quiet[~spikes])
        # Spiking neurons lost exactly the threshold 1 (soft reset).
        assert np.allclose(v[spikes], expected_quiet[spikes] - 1.0)

    @given(h=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           pre=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           eta=st.floats(1e-3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_dw_zero_when_activity_zero(self, h, pre, eta):
        """No presynaptic activity, or h_hat == h, means exactly dW == 0."""
        from repro.core import kernels
        from repro.core.learning import delta_w_loihi_form
        h = np.array(h)
        pre = np.array(pre)
        assert (kernels.delta_w(h, h, pre, eta) == 0).all()
        assert (kernels.delta_w(h, np.zeros_like(h), np.zeros_like(pre),
                                eta) == 0).all()
        zero = np.zeros_like(h)
        assert (delta_w_loihi_form(zero, zero, pre, eta) == 0).all()

    @given(y1=st.integers(0, 127), t=st.integers(-255, 255))
    @settings(max_examples=30, deadline=None)
    def test_microcode_dw_zero_without_presynaptic_trace(self, y1, t):
        """Every Eq. (12) term carries an x1 factor: x1 == 0 kills dw."""
        from repro.core import kernels
        from repro.loihi import parse_rule as _parse
        rule = _parse("dw = 2^-7 * y1 * x1 - 2^-8 * t * x1")
        dz = kernels.sum_of_products(
            rule, np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.full(2, y1, dtype=np.int64),
            np.full((3, 2), t, dtype=np.int64),
            np.zeros((3, 2), dtype=np.int64))
        assert (dz == 0).all()
