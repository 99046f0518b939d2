"""Batch-parallel sharded Loihi runtime: the replica-equivalence contract.

The spine of the batched chip path: a replicated network stepped by the
vectorized runtime must be *bit-identical*, replica by replica — weights
and spike counts — to running each replica through the sequential
single-replica :class:`Runtime` with the same per-replica
stochastic-rounding stream.  Everything else (the trainer's batch API, the
scenario routing, serving) is layered on that guarantee.
"""

import numpy as np
import pytest

from repro.core import EMSTDPNetwork, loihi_default_config
from repro.loihi import (CompartmentPrototype, LoihiChip, Network, Runtime,
                         ShardedRuntime, parse_rule, shard_groups)
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

from conftest import make_blobs

RULES = {"end": [parse_rule("dt = y1"),
                 parse_rule("dw = 2^-6 * y1 * x1 - 2^-7 * t * x1")]}


def plastic_net(replicas):
    net = Network("t", replicas=replicas)
    proto = CompartmentPrototype()
    a = net.create_group(5, proto, "a")
    b = net.create_group(3, proto, "b")
    conn = net.connect(a, b, np.full((5, 3), 30), weight_scale=64,
                       plastic=True, learning_rule="r")
    return net, conn


def drive(rt, biases, steps=16, epochs=2):
    """A bias-driven schedule with interleaved learning epochs."""
    rt.register_rule("r", RULES)
    rt.set_bias("a", biases)
    for _ in range(epochs):
        rt.run(steps)
        rt.learning_epoch("end")
    return rt


class TestReplicaEquivalence:
    REPLICAS = 4
    SEEDS = [11, 12, 13, 14]

    def sequential_reference(self, biases):
        weights, counts = [], []
        for r in range(self.REPLICAS):
            net, conn = plastic_net(1)
            rt = drive(Runtime(net, rng=np.random.default_rng(self.SEEDS[r])),
                       biases[r])
            weights.append(conn.weight_mant[0].copy())
            counts.append((rt.spike_counts("a")[0], rt.spike_counts("b")[0]))
        return weights, counts

    def test_batched_learning_bit_identical_per_replica(self):
        rng = np.random.default_rng(0)
        biases = rng.integers(0, 1 << 14, (self.REPLICAS, 5))
        seq_w, seq_counts = self.sequential_reference(biases)
        net, conn = plastic_net(self.REPLICAS)
        rt = drive(Runtime(net, rng=[np.random.default_rng(s)
                                     for s in self.SEEDS]), biases)
        for r in range(self.REPLICAS):
            assert np.array_equal(conn.weight_mant[r], seq_w[r])
            assert np.array_equal(rt.spike_counts("a")[r], seq_counts[r][0])
            assert np.array_equal(rt.spike_counts("b")[r], seq_counts[r][1])

    def test_sharded_runtime_bit_identical_and_merges_stats(self):
        rng = np.random.default_rng(0)
        biases = rng.integers(0, 1 << 14, (self.REPLICAS, 5))
        seq_w, _ = self.sequential_reference(biases)
        net, conn = plastic_net(self.REPLICAS)
        mapping = net.compile(LoihiChip())
        rt = ShardedRuntime(net, mapping,
                            rng=[np.random.default_rng(s)
                                 for s in self.SEEDS])
        assert len(rt.shards) > 1  # the mapping really is partitioned
        drive(rt, biases)
        for r in range(self.REPLICAS):
            assert np.array_equal(conn.weight_mant[r], seq_w[r])
        merged = rt.merged_shard_stats()
        assert merged.spikes == rt.stats.spikes > 0
        assert merged.syn_events == rt.stats.syn_events > 0
        assert merged.steps == rt.stats.steps == 32

    def test_sharded_matches_plain_runtime_single_replica(self):
        bias = np.random.default_rng(1).integers(0, 1 << 14, 5)
        net_a, conn_a = plastic_net(1)
        drive(Runtime(net_a, rng=np.random.default_rng(3)), bias)
        net_b, conn_b = plastic_net(1)
        mapping = net_b.compile(LoihiChip())
        rt = ShardedRuntime(net_b, mapping, rng=np.random.default_rng(3))
        drive(rt, bias)
        assert np.array_equal(conn_a.weight_mant, conn_b.weight_mant)

    def test_shard_groups_partitions_by_core(self):
        net, _ = plastic_net(1)
        mapping = net.compile(LoihiChip())
        shards = shard_groups(mapping)
        assert sorted(n for shard in shards for n in shard) == ["a", "b"]
        # layer-at-a-time mapping puts a and b on different cores
        assert len(shards) == 2
        # an extra edge (e.g. a gate dependency) fuses them
        assert len(shard_groups(mapping, extra_edges=[("a", "b")])) == 1


class TestTrainerBatchedPath:
    DIMS = (8, 16, 3)
    T = 16

    def fresh(self, batch_replicas=None, seed=1, **kw):
        cfg = loihi_default_config(seed=seed, phase_length=self.T,
                                   feedback="dfa")
        ref = EMSTDPNetwork(self.DIMS, cfg)
        model = build_emstdp_network(
            self.DIMS, cfg,
            initial_weights=[w.copy() for w in ref.weights],
            feedback_weights=[b.copy() for b in ref.feedback_weights])
        return LoihiEMSTDPTrainer(model, batch_replicas=batch_replicas, **kw)

    def test_infer_batch_equals_sequential_infer(self):
        xs, _ = make_blobs(8, 3, 10, seed=0)
        trainer = self.fresh(batch_replicas=4)
        seq = np.stack([trainer.infer(x) for x in xs])
        np.testing.assert_array_equal(trainer.infer_batch(xs), seq)
        assert np.array_equal(trainer.predict_batch(xs),
                              np.argmax(seq, axis=-1))

    def test_fit_batch_minibatch_is_mean_of_sequential_replicas(self):
        """One chunk of R replicas == R pinned-stream sequential trainers."""
        R = 4
        xs, ys = make_blobs(8, 3, R, seed=0)
        batched = self.fresh(batch_replicas=R)
        cfg = batched.model.config
        w0 = [c.weight_mant.copy()
              for c in batched.model.plastic_connections]
        batched.fit_batch(xs, ys, update_mode="minibatch")
        deltas = [np.zeros_like(w) for w in w0]
        for r in range(R):
            seq = self.fresh(rng=np.random.default_rng((cfg.seed + 1, r)))
            seq.train_sample(xs[r], int(ys[r]))
            for i, conn in enumerate(seq.model.plastic_connections):
                deltas[i] += conn.weight_mant - w0[i]
        # Reproduce the host write-back: mean delta, stochastically rounded
        # on the documented host_reduce_rng stream, connection order.
        from repro.onchip.trainer import host_reduce_rng
        host = host_reduce_rng(cfg.seed)
        for i, conn in enumerate(batched.model.plastic_connections):
            mean = deltas[i] / R
            floor = np.floor(mean)
            add = floor + (host.random(mean.shape) < (mean - floor))
            expect = np.clip(w0[i] + add, -127, 127)
            assert np.array_equal(conn.weight_mant,
                                  expect.astype(np.int64)), f"connection {i}"

    def test_fit_batch_online_unchanged_by_batching(self):
        xs, ys = make_blobs(8, 3, 6, seed=2)
        a, b = self.fresh(batch_replicas=4), self.fresh()
        a.fit_batch(xs, ys, update_mode="online")
        for x, y in zip(xs, ys):
            b.train_sample(x, int(y))
        for ca, cb in zip(a.model.plastic_connections,
                          b.model.plastic_connections):
            assert np.array_equal(ca.weight_mant, cb.weight_mant)

    def test_minibatch_learns_blobs(self):
        # Mean-of-deltas averaging makes one update per chunk (classic
        # large-batch behavior), so a modest replica width and a few
        # epochs are the right budget for this task.
        xs, ys = make_blobs(8, 3, 240, seed=0)
        tx, ty = make_blobs(8, 3, 60, seed=1)
        trainer = self.fresh(batch_replicas=4)
        before = trainer.evaluate_batch(tx, ty)
        for _ in range(4):
            trainer.fit_batch(xs, ys, update_mode="minibatch")
        after = trainer.evaluate_batch(tx, ty)
        assert after > before
        assert after >= 0.8

    def test_batched_stats_fold_into_canonical_runtime(self):
        xs, ys = make_blobs(8, 3, 5, seed=3)
        trainer = self.fresh(batch_replicas=8)
        trainer.fit_batch(xs, ys, update_mode="minibatch")
        stats = trainer.runtime.stats
        assert stats.samples == 5
        assert stats.steps == 2 * self.T  # one batched 2T presentation
        assert stats.spikes > 0 and stats.syn_events > 0
        trainer.energy_report()  # enough accounting for a Table II row

    def test_masked_labels_rejected_and_class_mask_respected(self):
        xs, ys = make_blobs(8, 3, 6, seed=4)
        trainer = self.fresh(batch_replicas=4)
        trainer.set_class_mask([0, 2])
        with pytest.raises(ValueError, match="masked"):
            trainer.fit_batch(xs, np.ones(len(xs), dtype=int),
                              update_mode="minibatch")
        assert 1 not in set(trainer.predict_batch(xs).tolist())

    def test_trailing_chunk_of_one_sample(self):
        """Regression: B % batch_replicas == 1 routes a width-1 twin;
        programming it must not explode."""
        xs, ys = make_blobs(8, 3, 5, seed=7)
        trainer = self.fresh(batch_replicas=4)
        seq = np.stack([trainer.infer(x) for x in xs])
        np.testing.assert_array_equal(trainer.infer_batch(xs), seq)
        trainer.fit_batch(xs, ys, update_mode="minibatch")  # no raise
        # batch_replicas=1: minibatch processes one replica per chunk
        lone = self.fresh(batch_replicas=1)
        lone.fit_batch(xs[:2], ys[:2], update_mode="minibatch")
        assert lone.samples_trained == 2

    def test_close_releases_twins(self):
        xs, _ = make_blobs(8, 3, 4, seed=8)
        trainer = self.fresh(batch_replicas=4)
        trainer.infer_batch(xs)
        assert trainer._twins
        trainer.close()
        assert not trainer._twins

    def test_inference_only_network_batches_too(self):
        cfg = loihi_default_config(seed=1, phase_length=self.T)
        model = build_emstdp_network(self.DIMS, cfg,
                                     include_error_path=False)
        trainer = LoihiEMSTDPTrainer(model, batch_replicas=4)
        xs, _ = make_blobs(8, 3, 6, seed=6)
        seq = np.stack([trainer.infer(x) for x in xs])
        np.testing.assert_array_equal(trainer.infer_batch(xs), seq)
        with pytest.raises(RuntimeError):
            trainer.fit_batch(xs, np.zeros(6, dtype=int),
                              update_mode="minibatch")


class TestChipScenarioRouting:
    def test_offline_accuracy_chip_backend_end_to_end(self, tmp_path):
        from repro.experiments import get_scenario

        scenario = get_scenario("offline_accuracy")
        spec = scenario.build_spec(tiny=True).replace(
            backends=("chip",), n_train=40, n_test=16,
            params={"chip_train_limit": 40, "chip_test_limit": 16,
                    "chip_batch_replicas": 8,
                    "chip_update_mode": "minibatch"})
        payload = scenario.run_seed(spec, 0, tmp_path)
        entry = payload["metrics"]["chip"]
        assert {"train_acc", "test_acc", "cores_used", "fps",
                "energy_per_sample_mj"} <= set(entry)
        assert 0.0 <= entry["test_acc"] <= 1.0
        assert (tmp_path / (payload["checkpoints"]["chip"]
                            + ".npz")).exists()

    def test_noise_and_timing_scenarios_accept_chip_backend(self):
        from repro.experiments import get_scenario

        noise = get_scenario("noise_robustness")
        spec = noise.build_spec(tiny=True).replace(
            backends=("chip:dfa",), n_train=24, n_test=12,
            params={"noise_level": 0.3, "noise_kind": "gaussian",
                    "chip_batch_replicas": 8})
        payload = noise.run_seed(spec, 0, None)
        entry = payload["metrics"]["chip:dfa"]
        assert {"noisy_acc", "degradation", "cores_used"} <= set(entry)

        timing = get_scenario("timing_precision")
        tspec = timing.build_spec(tiny=True).replace(
            backends=("chip",), n_train=24, n_test=12, phase_length=8,
            params={"chip_batch_replicas": 8})
        tpayload = timing.run_seed(tspec, 0, None)
        assert tpayload["metrics"]["chip"]["T"] == 8
        assert tpayload["metrics"]["chip"]["energy_mj_per_inference"] > 0

    def test_serve_registry_loads_chip_checkpoint_batched(self, tmp_path):
        from repro.persist import save_checkpoint
        from repro.serve import ModelRegistry

        cfg = loihi_default_config(seed=0, phase_length=8)
        trainer = LoihiEMSTDPTrainer(build_emstdp_network((6, 8, 3), cfg))
        xs, ys = make_blobs(6, 3, 4, seed=0)
        trainer.fit_batch(xs, ys)
        save_checkpoint(trainer, tmp_path / "chip")
        registry = ModelRegistry()
        entry = registry.load(tmp_path / "chip")
        assert entry.model_class == "LoihiEMSTDPTrainer"
        # serving rides the batch-parallel runtime path
        assert entry.model.batch_replicas == 32
        np.testing.assert_array_equal(entry.model.predict_batch(xs),
                                      trainer.predict_batch(xs))
