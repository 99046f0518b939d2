"""Integration tests for the SDK builder + runtime execution engine."""

import numpy as np
import pytest

from repro.loihi import (CompartmentPrototype, LoihiChip, Network, Runtime,
                         emstdp_rules, parse_rule)


def tiny_network(replicas=1):
    net = Network("t", replicas=replicas)
    proto = CompartmentPrototype()
    a = net.create_group(4, proto, "a")
    b = net.create_group(2, proto, "b")
    conn = net.connect(a, b, np.full((4, 2), 32), weight_scale=64,
                       plastic=True, learning_rule="r")
    return net, a, b, conn


class TestNetworkBuilder:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.create_group(2, CompartmentPrototype(), "g")
        with pytest.raises(ValueError):
            net.create_group(2, CompartmentPrototype(), "g")

    def test_foreign_groups_rejected(self):
        net1 = Network()
        net2 = Network()
        a = net1.create_group(2, CompartmentPrototype(), "a")
        b = net2.create_group(2, CompartmentPrototype(), "b")
        with pytest.raises(ValueError):
            net1.connect(a, b, np.zeros((2, 2)), 64)

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_fanin_fanout(self, replicas):
        """Counted on one replica's block: a plastic block is
        ``(R, S, D)``, and its replicas are copies of the same synapses."""
        net, a, b, conn = tiny_network(replicas)
        assert conn.weight_mant.shape == (replicas, 4, 2)
        assert net.fanin(b) == 4
        assert net.fanout(a) == 2
        assert net.fanin(a) == 0

    def test_counts(self):
        net, *_ = tiny_network()
        assert net.n_compartments() == 6
        assert net.n_synapses() == 8
        assert net.n_plastic_synapses() == 8

    def test_compile_returns_mapping(self):
        net, *_ = tiny_network()
        mapping = net.compile(LoihiChip())
        assert mapping.cores_used >= 1


class TestRuntime:
    def test_bias_driven_rates(self):
        net, a, b, _ = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        rt.set_bias("a", np.full(4, a.proto.vth // 2))
        rt.run(64)
        assert (rt.spike_counts("a") == 32).all()
        assert rt.stats.steps == 64
        assert rt.stats.spikes > 0

    def test_one_step_conduction_delay(self):
        net, a, b, _ = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        rt.set_bias("a", np.full(4, a.proto.vth))
        rt.run(1)
        # a fires at step 0 but its spikes reach b only at step 1
        assert rt.spike_counts("a").sum() == 4
        assert rt.spike_counts("b").sum() == 0

    def test_disable_enable(self):
        net, a, b, _ = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        rt.set_bias("a", np.full(4, a.proto.vth))
        rt.disable(["a"])
        rt.run(5)
        assert rt.spike_counts("a").sum() == 0
        rt.enable(["a"])
        rt.run(5)
        assert rt.spike_counts("a").sum() == 4 * 5

    def test_learning_epoch_applies_rules(self):
        net, a, b, conn = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0),
                     stochastic_rounding=False)
        rt.register_rule("r", {"end": [parse_rule("dw = 2^0 * y1 * x1")]})
        rt.set_bias("a", np.full(4, a.proto.vth))
        rt.run(8)
        before = conn.weight_mant.copy()
        rt.learning_epoch("end")
        assert (conn.weight_mant >= before).all()
        assert (conn.weight_mant > before).any()
        assert rt.stats.learning_epochs == 1

    def test_epoch_without_rules_is_noop(self):
        net, a, b, conn = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        before = conn.weight_mant.copy()
        rt.learning_epoch("unknown_epoch")
        assert np.array_equal(conn.weight_mant, before)

    def test_reset_state_and_membranes(self):
        net, a, b, _ = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        rt.set_bias("a", np.full(4, a.proto.vth // 3))
        rt.run(2)
        rt.reset_membranes(["a"])
        assert (net.group("a").v == 0).all()
        rt.reset_state()
        assert (rt.spike_counts("a") == 0).all()

    def test_syn_event_accounting(self):
        net, a, b, _ = tiny_network()
        rt = Runtime(net, rng=np.random.default_rng(0))
        rt.set_bias("a", np.full(4, a.proto.vth))
        rt.run(10)
        # 4 presyn spikes/step x fanout 2, delivered from step 1 on; the
        # final step's spikes are still in flight when the run ends
        assert rt.stats.syn_events == 9 * 4 * 2


class TestEndToEndChipLearning:
    def test_emstdp_rule_changes_weights_toward_target(self):
        """Minimal on-chip supervised step: strengthen the co-active pair."""
        net = Network()
        proto = CompartmentPrototype()
        pre = net.create_group(1, proto, "pre")
        post = net.create_group(2, proto, "post")
        conn = net.connect(pre, post, np.array([[20, 20]]), 64,
                           plastic=True, learning_rule="emstdp")
        rt = Runtime(net, rng=np.random.default_rng(0),
                     stochastic_rounding=False)
        rt.register_rule("emstdp", {"phase2_end": emstdp_rules(-6)})
        rt.set_bias("pre", np.array([proto.vth]))
        # phase 1 (h): run and stash tag manually via dt rule at -6 scale
        from repro.loihi import phase1_tag_rules
        rt.rulebook["emstdp"]["phase1_end"] = phase1_tag_rules()
        rt.run(16)
        rt.learning_epoch("phase1_end")
        rt.reset_traces()
        # phase 2 (h_hat): drive post neuron 0 harder via external current
        for _ in range(16):
            rt.network.group("post").step(np.array([[proto.vth, 0]]))
            rt.network.group("pre").step(np.zeros((1, 1), dtype=np.int64))
            for c in net.connections:
                c.update_traces(c.src.spikes, c.dst.spikes)
        rt.learning_epoch("phase2_end")
        assert conn.weight_mant[0, 0, 0] > conn.weight_mant[0, 0, 1]
