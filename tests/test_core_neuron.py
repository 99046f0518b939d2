"""Unit tests for the IF neuron primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IFLayer, SignedErrorLayer, quantize_rate, rate_activation


class TestIFLayer:
    def test_constant_drive_rate(self):
        """Constant drive r in [0,1] yields spike count floor-close to r*T."""
        layer = IFLayer(1)
        T = 100
        for _ in range(T):
            layer.step(np.array([0.3]))
        assert layer.spike_count[0] == 30

    def test_zero_drive_never_spikes(self):
        layer = IFLayer(4)
        for _ in range(50):
            spikes = layer.step(np.zeros(4))
            assert not spikes.any()
        assert (layer.spike_count == 0).all()

    def test_drive_of_one_spikes_every_step(self):
        layer = IFLayer(2)
        for _ in range(10):
            assert layer.step(np.ones(2)).all()
        assert (layer.spike_count == 10).all()

    def test_negative_drive_clipped_at_rest(self):
        """IF neurons do not integrate below the resting potential."""
        layer = IFLayer(1)
        for _ in range(100):
            layer.step(np.array([-1.0]))
        layer.step(np.array([1.0]))
        assert layer.spike_count[0] == 1  # fires immediately, no stored debt

    def test_soft_reset_preserves_residual(self):
        layer = IFLayer(1)
        layer.step(np.array([1.7]))
        assert layer.v[0] == pytest.approx(0.7)

    def test_reset_counts_keeps_membrane(self):
        layer = IFLayer(1)
        layer.step(np.array([0.6]))
        layer.reset_counts()
        assert layer.spike_count[0] == 0
        assert layer.v[0] == pytest.approx(0.6)

    def test_shape_validation(self):
        layer = IFLayer(3)
        with pytest.raises(ValueError):
            layer.step(np.zeros(4))

    def test_step_converts_outside_input(self):
        """The kernel takes only C-contiguous float64 arrays; the layers
        build one from a strided view, an int array or a list."""
        ref, layer = IFLayer(4), IFLayer(4)
        pair_ref, pair = SignedErrorLayer(4), SignedErrorLayer(4)
        strided = (np.arange(8.0) / 4)[::2]  # 0, 0.5, 1, 1.5
        for drive in (strided, np.array([2, 0, 1, 0], np.int32),
                      [0.5, 1, 0, 2]):
            want = np.array(drive, dtype=float)
            assert np.array_equal(layer.step(drive), ref.step(want))
            assert np.array_equal(pair.step(drive), pair_ref.step(want))
        assert np.array_equal(layer.v, ref.v)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            IFLayer(0)

    @given(rate=st.floats(0.0, 1.0), T=st.integers(1, 128))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_rate_activation(self, rate, T):
        """Spike count over T steps == closed-form floor(rate*T) (Eq. 2)."""
        layer = IFLayer(1)
        for _ in range(T):
            layer.step(np.array([rate]))
        expected = int(np.clip(np.floor(rate * T + 1e-9), 0, T))
        assert abs(int(layer.spike_count[0]) - expected) <= 1


class TestSignedErrorLayer:
    def test_positive_drive_fires_positive_channel(self):
        err = SignedErrorLayer(1)
        out = sum(err.step(np.array([0.5]))[0] for _ in range(10))
        assert out == 5
        assert err.signed_count[0] == 5

    def test_negative_drive_fires_negative_channel(self):
        err = SignedErrorLayer(1)
        out = sum(err.step(np.array([-0.5]))[0] for _ in range(10))
        assert out == -5
        assert err.signed_count[0] == -5

    def test_gate_blocks_output_and_counts(self):
        err = SignedErrorLayer(1)
        for _ in range(10):
            out = err.step(np.array([1.0]), gate=np.array([False]))
            assert out[0] == 0
        assert err.signed_count[0] == 0


class TestRateActivation:
    def test_clip_range(self):
        out = rate_activation(np.array([-0.5, 0.0, 0.5, 1.5]), 10)
        assert out.tolist() == [0.0, 0.0, 0.5, 1.0]

    @given(p=st.floats(-2, 2), T=st.integers(1, 256))
    @settings(max_examples=80, deadline=None)
    def test_on_grid_and_bounded(self, p, T):
        r = rate_activation(np.array([p]), T)[0]
        assert 0.0 <= r <= 1.0
        assert abs(r * T - round(r * T)) < 1e-9

    @given(r=st.floats(0, 1), T=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_quantize_rate_idempotent(self, r, T):
        q1 = quantize_rate(np.array([r]), T)
        q2 = quantize_rate(q1, T)
        assert np.allclose(q1, q2)
