"""Unit tests for synaptic connections and trace counters."""

import numpy as np
import pytest

from repro.loihi import CompartmentPrototype, ConnectionGroup, TraceState
from repro.loihi.compartment import CompartmentGroup


def groups(n_src=3, n_dst=2):
    return (CompartmentGroup(n_src, CompartmentPrototype(), name="a"),
            CompartmentGroup(n_dst, CompartmentPrototype(), name="b"))


class TestConnectionGroup:
    def test_propagate_scales_mantissa(self):
        src, dst = groups()
        w = np.array([[10, 0], [0, 20], [5, 5]])
        conn = ConnectionGroup(src, dst, w, weight_scale=64)
        spikes = np.array([[True, False, True]])
        out = conn.propagate(spikes)
        assert out.tolist() == [[(10 + 5) * 64, 5 * 64]]

    def test_no_spikes_no_events(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.ones((3, 2)), 64)
        conn.propagate(np.zeros((1, 3), dtype=bool))
        assert conn.syn_events == 0

    def test_syn_event_counting(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.ones((3, 2)), 64)
        conn.propagate(np.array([[True, True, False]]))
        assert conn.syn_events == 2 * 2  # 2 spikes x fan-out 2

    def test_weight_range_enforced(self):
        src, dst = groups()
        with pytest.raises(ValueError):
            ConnectionGroup(src, dst, np.full((3, 2), 200), 64)

    def test_shape_enforced(self):
        src, dst = groups()
        with pytest.raises(ValueError):
            ConnectionGroup(src, dst, np.ones((2, 3)), 64)

    def test_plastic_allocates_tag_and_traces(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64, plastic=True)
        assert conn.tag.shape == conn.weight_mant.shape == (1, 3, 2)
        assert conn.pre_trace.n == 3
        assert conn.post_trace.n == 2

    def test_static_has_no_learning_state(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64)
        assert conn.tag is None
        assert conn.pre_trace is None

    def test_set_weights_clips(self):
        src, dst = groups()
        conn = ConnectionGroup(src, dst, np.zeros((3, 2)), 64)
        conn.set_weights(np.full((3, 2), 300))
        assert (conn.weight_mant == 127).all()


class TestTraces:
    def test_counter_counts(self):
        tr = TraceState(2)
        tr.update(np.array([[True, False]]))
        tr.update(np.array([[True, True]]))
        assert tr.values.dtype == np.int64
        assert tr.values.tolist() == [[2, 1]]

    def test_saturation_at_127(self):
        tr = TraceState(1)
        for _ in range(200):
            tr.update(np.array([[True]]))
        assert tr.values[0, 0] == 127

    def test_reset(self):
        tr = TraceState(1)
        tr.update(np.array([[True]]))
        tr.reset()
        assert tr.values[0, 0] == 0

    def test_shape_check(self):
        tr = TraceState(2)
        with pytest.raises(ValueError):
            tr.update(np.array([True]))

    def test_update_converts_outside_input(self):
        """The kernel takes only C-contiguous bool spikes; the trace builds
        them from a strided view or a 0/1 list."""
        tr = TraceState(2)
        tr.update(np.array([[True, False, False, True]])[:, ::2])
        tr.update([[1, 1]])
        assert tr.values.tolist() == [[2, 1]]
