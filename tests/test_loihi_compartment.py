"""Unit tests for integrate-and-fire compartments and multi-compartment
behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loihi import CompartmentGroup, CompartmentPrototype


class TestPrototype:
    def test_vth_mantissa_shift(self):
        proto = CompartmentPrototype(vth_mant=256)
        assert proto.vth == 256 << 6

    def test_validation(self):
        with pytest.raises(ValueError):
            CompartmentPrototype(vth_mant=0)
        with pytest.raises(ValueError):
            CompartmentPrototype(vth_mant=(1 << 17) + 1)

    def test_if_prototype_is_non_leaky(self):
        """No membrane leak: a sub-threshold charge holds, step after
        step, without input."""
        proto = CompartmentPrototype()
        g = CompartmentGroup(1, proto)
        g.step(np.array([[proto.vth - 1]]))
        for _ in range(50):
            g.step(np.zeros((1, 1), dtype=np.int64))
        assert g.v[0, 0] == proto.vth - 1
        assert g.spike_count[0, 0] == 0


class TestIFDynamics:
    def test_constant_bias_rate(self):
        proto = CompartmentPrototype(vth_mant=256)
        g = CompartmentGroup(4, proto)
        g.set_bias(np.full(4, proto.vth // 2))
        for _ in range(64):
            g.step(np.zeros((1, 4), dtype=np.int64))
        assert (g.spike_count == 32).all()

    def test_full_bias_fires_every_step(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(2, proto)
        g.set_bias(np.full(2, proto.vth))
        for _ in range(10):
            assert g.step(np.zeros((1, 2), dtype=np.int64)).all()

    def test_synaptic_input_integration(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(1, proto)
        for _ in range(4):
            g.step(np.array([[proto.vth // 4]]))
        assert g.spike_count[0, 0] == 1

    def test_step_converts_outside_input(self):
        """The kernel takes only C-contiguous int64 arrays; the group
        builds them from a strided view or a list, and from an int32
        bias assigned directly."""
        proto = CompartmentPrototype()
        g = CompartmentGroup(2, proto)
        g.bias = np.array([[proto.vth // 2, 0]], dtype=np.int32)
        g.step(np.array([[proto.vth // 2, 0, 0, 0]])[:, ::2])
        g.step([[0, proto.vth]])
        assert g.spike_count.tolist() == [[1, 1]]

    def test_current_decay_instant_for_if(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(1, proto)
        g.step(np.array([[proto.vth // 2]]))
        g.step(np.array([[0]]))  # current must not persist
        assert g.v[0, 0] == proto.vth // 2

    def test_soft_reset_keeps_residual(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(1, proto)
        g.step(np.array([[proto.vth + 100]]))
        assert g.v[0, 0] == 100

    def test_signed_membrane_vs_floor(self):
        signed = CompartmentGroup(1, CompartmentPrototype(
            floor_at_zero=False))
        floored = CompartmentGroup(1, CompartmentPrototype(
            floor_at_zero=True))
        for g in (signed, floored):
            g.step(np.array([[-5000]]))
        assert signed.v[0, 0] == -5000
        assert floored.v[0, 0] == 0

    def test_disabled_group_holds_state(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(1, proto)
        g.step(np.array([[proto.vth // 2]]))
        g.enabled = False
        for _ in range(5):
            spikes = g.step(np.array([[proto.vth]]))
            assert not spikes.any()
        assert g.v[0, 0] == proto.vth // 2

    def test_mask_silences_compartments(self):
        proto = CompartmentPrototype()
        g = CompartmentGroup(3, proto)
        g.mask = np.array([True, False, True])
        g.set_bias(np.full(3, proto.vth))
        g.step(np.zeros((1, 3), dtype=np.int64))
        assert g.spikes.tolist() == [[True, False, True]]

    @given(rate=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_bias_rate_proportionality(self, rate):
        """Spike count over T steps is proportional to the bias (Eq. in
        Section III-D: h_in = floor(i*T / theta))."""
        proto = CompartmentPrototype(vth_mant=256)
        g = CompartmentGroup(1, proto)
        T = 64
        g.set_bias(np.array([proto.vth * rate // T]))
        for _ in range(T):
            g.step(np.zeros((1, 1), dtype=np.int64))
        expected = (proto.vth * rate // T) * T // proto.vth
        assert abs(int(g.spike_count[0, 0]) - expected) <= 1


class TestMultiCompartment:
    def test_and_gate_blocks_until_aux_active(self):
        proto = CompartmentPrototype()
        aux = CompartmentGroup(1, CompartmentPrototype(
            vth_mant=256, non_spiking=True))
        soma = CompartmentGroup(1, proto)
        soma.gate_group = aux
        soma.set_bias(np.array([proto.vth]))
        soma.step(np.zeros((1, 1), dtype=np.int64))
        assert not soma.spikes.any()  # gate closed
        aux.step(np.array([[100]]))   # forward partner activity
        soma.step(np.zeros((1, 1), dtype=np.int64))
        assert soma.spikes.all()      # gate open

    def test_or_merge_adds_spikes(self):
        proto = CompartmentPrototype()
        dend = CompartmentGroup(1, proto)
        soma = CompartmentGroup(1, proto)
        soma.merge_group = dend
        dend.step(np.array([[proto.vth]]))  # dendrite fires
        soma.step(np.zeros((1, 1), dtype=np.int64))  # soma silent on its own
        assert soma.spikes.all()
        assert soma.spike_count[0, 0] == 1

    def test_merge_respects_mask(self):
        proto = CompartmentPrototype()
        dend = CompartmentGroup(1, proto)
        soma = CompartmentGroup(1, proto)
        soma.merge_group = dend
        soma.mask = np.array([False])
        dend.step(np.array([[proto.vth]]))
        soma.step(np.zeros((1, 1), dtype=np.int64))
        assert not soma.spikes.any()

    def test_aux_active_memory_survives_membrane_reset_of_soma(self):
        proto = CompartmentPrototype()
        aux = CompartmentGroup(1, CompartmentPrototype(
            vth_mant=256, non_spiking=True))
        aux.step(np.array([[500]]))
        assert aux.active().all()
        # phase-boundary reset clears soma but aux holds its charge
        assert aux.v[0, 0] == 500


class TestStateManagement:
    def test_reset_state_keeps_counts(self):
        g = CompartmentGroup(1, CompartmentPrototype())
        g.set_bias(np.array([g.proto.vth]))
        for _ in range(5):
            g.step(np.zeros((1, 1), dtype=np.int64))
        g.reset_state()
        assert g.v[0, 0] == 0
        assert g.spike_count[0, 0] == 5

    def test_reset_membrane_keeps_spike_flags(self):
        g = CompartmentGroup(1, CompartmentPrototype())
        g.set_bias(np.array([g.proto.vth]))
        g.step(np.zeros((1, 1), dtype=np.int64))
        g.reset_membrane()
        assert g.v[0, 0] == 0
        assert g.spikes.all()  # axonal output of last step not rewritten

    def test_bias_shape_check(self):
        g = CompartmentGroup(2, CompartmentPrototype())
        with pytest.raises(ValueError):
            g.set_bias(np.zeros(3))

    def test_min_size(self):
        with pytest.raises(ValueError):
            CompartmentGroup(0, CompartmentPrototype())
