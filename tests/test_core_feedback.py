"""Unit tests for FA/DFA feedback weight generation and resource counts."""

import numpy as np
import pytest

from repro.core import (feedback_neuron_count, feedback_synapse_count,
                        make_dfa_weights, make_fa_weights)

DIMS = (784, 100, 50, 10)


class TestShapes:
    def test_fa_shapes_follow_layer_chain(self):
        rng = np.random.default_rng(0)
        mats = make_fa_weights(DIMS, rng)
        assert [m.shape for m in mats] == [(50, 100), (10, 50)]

    def test_dfa_shapes_broadcast_from_output(self):
        rng = np.random.default_rng(0)
        mats = make_dfa_weights(DIMS, rng)
        assert [m.shape for m in mats] == [(10, 100), (10, 50)]

    def test_single_hidden_layer_fa_equals_dfa_shape(self):
        rng = np.random.default_rng(0)
        fa = make_fa_weights((20, 30, 10), rng)
        dfa = make_dfa_weights((20, 30, 10), rng)
        assert fa[0].shape == dfa[0].shape == (10, 30)

    def test_no_hidden_layers(self):
        rng = np.random.default_rng(0)
        assert make_fa_weights((20, 10), rng) == []
        assert make_dfa_weights((20, 10), rng) == []


class TestStatistics:
    def test_zero_mean_uniform(self):
        rng = np.random.default_rng(7)
        m = make_dfa_weights((10, 2000, 10), rng)[0]
        assert abs(m.mean()) < 0.01
        # uniform: bounded support
        assert np.abs(m).max() <= np.sqrt(3.0 / 10) + 1e-12

    def test_deterministic_given_seed(self):
        a = make_dfa_weights(DIMS, np.random.default_rng(5))
        b = make_dfa_weights(DIMS, np.random.default_rng(5))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)


class TestResourceCounts:
    """DFA's raison d'etre (Section III-A): fewer neurons and synapses."""

    def test_dfa_fewer_synapses_than_fa(self):
        assert (feedback_synapse_count(DIMS, "dfa")
                < feedback_synapse_count(DIMS, "fa"))

    def test_dfa_fewer_error_neurons(self):
        assert (feedback_neuron_count(DIMS, "dfa")
                < feedback_neuron_count(DIMS, "fa"))

    def test_fa_neuron_count_pairs_every_forward_neuron(self):
        # 2 channels x (100 + 50 + 10)
        assert feedback_neuron_count(DIMS, "fa") == 2 * 160

    def test_dfa_neuron_count_output_only(self):
        assert feedback_neuron_count(DIMS, "dfa") == 2 * 10

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            feedback_synapse_count(DIMS, "bp")
        with pytest.raises(ValueError):
            feedback_neuron_count(DIMS, "bp")
