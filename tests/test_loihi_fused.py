"""Fused ``Runtime.run(T)`` against ``T`` x ``Runtime.step()``, bit for bit.

With the ``cext`` backend, :meth:`Runtime.run` advances the whole network
in one ``kernels.network_run`` call.  Every test here plays one schedule
twice: once with each ``run(T)`` routed through ``T`` calls of
:meth:`Runtime.step` (the reference), once fused with the per-step path
patched to fail, so a silent fallback cannot pass.  The two end states are
compared with ``np.array_equal``: membranes, currents, refractory
counters, spikes, spike counts, traces, tags, weights, per-connection
synaptic events, ``RunStats`` and the sharded runtime's per-shard and
merged stats.
"""

import contextlib
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels, loihi_default_config
from repro.loihi import (CompartmentPrototype, LoihiChip, Network, Runtime,
                         ShardedRuntime, TraceConfig, TraceState, parse_rule)
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

from conftest import make_blobs

pytestmark = pytest.mark.skipif(
    "cext" not in kernels.available_backends(),
    reason="the fused loop is implemented by the cext backend")

RULES = {"end": [parse_rule("dt = y1"),
                 parse_rule("dw = 2^-2 * y1 * x1 - 2^-3 * t * x1")]}


def _stepped_run(self, steps):
    for _ in range(steps):
        self.step()
    self._collect_syn_events()


@contextlib.contextmanager
def per_step():
    """Every ``run(T)`` is ``T`` x ``step()`` (the reference)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Runtime, "run", _stepped_run)
        yield


@contextlib.contextmanager
def fused(allow_step=False):
    """Every ``run(T)`` is fused; yields the list of fused step counts.

    Unless ``allow_step``, calling the per-step path fails the test.
    """
    calls = []
    real = kernels.network_run

    def spy(steps, *args):
        calls.append(steps)
        return real(steps, *args)

    def no_step(self):
        raise AssertionError("run() fell back to per-step execution")

    with kernels.forced_backend("cext"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "network_run", spy)
        if not allow_step:
            mp.setattr(Runtime, "step", no_step)
            mp.setattr(ShardedRuntime, "step", no_step)
        yield calls


def _stats(stats):
    return np.array(dataclasses.astuple(stats), dtype=np.int64)


def snapshot(network, runtime, prefix=""):
    """Every piece of state the two paths must agree on."""
    state = {}
    for g in network.groups:
        for attr in ("u", "v", "_refrac", "spikes", "spike_count"):
            state[f"{prefix}{g.name}.{attr}"] = np.array(getattr(g, attr))
    for c in network.connections:
        state[f"{prefix}{c.name}.weight"] = c.weight_mant.copy()
        state[f"{prefix}{c.name}.syn_events"] = np.array(c.syn_events)
        if c.plastic:
            state[f"{prefix}{c.name}.tag"] = c.tag.copy()
            state[f"{prefix}{c.name}.pre"] = c.pre_trace.values.copy()
            state[f"{prefix}{c.name}.post"] = c.post_trace.values.copy()
    state[f"{prefix}stats"] = _stats(runtime.stats)
    if isinstance(runtime, ShardedRuntime):
        state[f"{prefix}merged"] = _stats(runtime.merged_shard_stats())
        for i, shard in enumerate(runtime.shards):
            state[f"{prefix}shard{i}"] = _stats(shard.stats)
    return state


def trainer_snapshot(trainer):
    state = snapshot(trainer.model.network, trainer.runtime)
    for width, (model, rt) in sorted(trainer._twins.items()):
        state.update(snapshot(model.network, rt, prefix=f"twin{width}."))
    return state


def assert_identical(ref, got):
    assert ref.keys() == got.keys()
    for key in ref:
        assert ref[key].dtype == got[key].dtype, key
        assert np.array_equal(ref[key], got[key]), key


# ----------------------------------------------------------------------
# EMSTDP networks built through the trainer
# ----------------------------------------------------------------------

DIMS = (12, 10, 8, 4)
T = 8


def _trainer(feedback="dfa", gate_output=False, gate_hidden=True,
             frontend=False):
    cfg = loihi_default_config(seed=3, phase_length=T, feedback=feedback,
                               gate_output=gate_output,
                               gate_hidden=gate_hidden)
    layers = None
    if frontend:
        rng = np.random.default_rng(9)
        layers = [(rng.uniform(-0.6, 0.6, (DIMS[0], DIMS[0])),
                   rng.uniform(-0.1, 0.2, DIMS[0]))]
    model = build_emstdp_network(DIMS, cfg, frontend_layers=layers)
    return LoihiEMSTDPTrainer(model, neurons_per_core=6, batch_replicas=16)


def _drive_trainer(trainer, X, y):
    """Online training (R=1), a 16-wide minibatch twin, batched and
    sequential inference."""
    return {
        "online": trainer.fit_batch(X[:4], y[:4])["predictions"],
        "minibatch": trainer.fit_batch(X[4:20], y[4:20],
                                       update_mode="minibatch")["predictions"],
        "infer_batch": trainer.infer_batch(X),
        "infer": trainer.infer(X[0]),
    }


def _both_legs(make, drive):
    with per_step():
        ref_trainer = make()
        ref_out = drive(ref_trainer)
    with fused() as calls:
        trainer = make()
        out = drive(trainer)
    assert calls, "the fused path never ran"
    for key in ref_out:
        assert np.array_equal(ref_out[key], out[key]), key
    assert_identical(trainer_snapshot(ref_trainer), trainer_snapshot(trainer))
    return trainer


@pytest.mark.parametrize("feedback", ["dfa", "fa"])
@pytest.mark.parametrize("gate_output", [False, True])
@pytest.mark.parametrize("gate_hidden", [False, True])
def test_emstdp_trainer_fused_equals_per_step(feedback, gate_output,
                                              gate_hidden):
    X, y = make_blobs(DIMS[0], DIMS[-1], 22, seed=4)
    trainer = _both_legs(
        lambda: _trainer(feedback, gate_output, gate_hidden),
        lambda t: _drive_trainer(t, X, y))
    assert 16 in trainer._twins  # the R=16 twin really ran
    assert trainer.runtime.stats.spikes > 0


def test_emstdp_frontend_and_class_mask_fused_equals_per_step():
    X, y = make_blobs(DIMS[0], DIMS[-1], 22, seed=6)
    y = np.where(y == 3, 1, y)  # class 3 is masked out below

    def make():
        trainer = _trainer(frontend=True)
        trainer.set_class_mask([0, 1, 2])
        return trainer

    _both_legs(make, lambda t: _drive_trainer(t, X, y))


# ----------------------------------------------------------------------
# Host writes between runs, and interleaved step()/run()
# ----------------------------------------------------------------------

def _host_schedule(trainer, X, y):
    """Every kind of host write between runs, plus explicit steps."""
    model, rt = trainer.model, trainer.runtime
    scales = model.scales
    phase2 = [n for n in model.error_path_names if "aux" not in n]
    target = np.zeros(DIMS[-1])
    target[int(y[0])] = 1.0
    rt.set_bias(model.input_name, scales.rate_to_bias(X[0]))
    rt.set_bias(model.label_name, scales.rate_to_bias(target))
    rt.disable(phase2)
    rt.run(5)
    rt.step()
    rt.step()
    rt.run(3)
    rt.learning_epoch("phase1_end")
    rt.enable(phase2)
    rt.run(4)
    conn = model.plastic_connections[0]
    conn.set_weights(conn.weight_mant[::-1].copy())
    rt.run(3)
    rt.learning_epoch("phase2_end")
    rt.run(2)
    trainer.set_class_mask([0, 2, 3])
    rt.run(4)
    model.network.group(model.output_name).mask[0] = False  # in place
    rt.run(3)
    rt.set_bias(model.input_name, scales.rate_to_bias(X[1]))
    rt.run(2)
    rt.step()
    rt.run(1)
    rt.reset_traces()
    rt.run(2)
    rt.reset_tags()
    rt.reset_membranes(model.forward_names)
    rt.run(3)
    rt.disable([model.output_name])
    rt.run(2)
    rt.enable([model.output_name])
    rt.reset_state(counts=True)
    rt.run(4)
    rt.run(0)
    return {"counts": rt.spike_counts(model.output_name)}


def test_host_writes_between_runs_are_seen():
    X, y = make_blobs(DIMS[0], DIMS[-1], 2, seed=8)
    X = np.clip(X, 0.0, 1.0)
    with per_step():
        ref_trainer = _trainer()
        ref_out = _host_schedule(ref_trainer, X, y)
    with fused(allow_step=True) as calls:
        trainer = _trainer()
        out = _host_schedule(trainer, X, y)
    assert calls == [5, 3, 4, 3, 2, 4, 3, 2, 1, 2, 3, 2, 4]
    assert np.array_equal(ref_out["counts"], out["counts"])
    assert_identical(trainer_snapshot(ref_trainer), trainer_snapshot(trainer))


def test_copied_runtime_binds_its_own_arrays():
    """A deep copy must not inherit the original's bound addresses."""
    X, y = make_blobs(DIMS[0], DIMS[-1], 4, seed=2)
    with fused():
        original = _trainer()
        original.fit_batch(X[:2], y[:2])
        clone = copy.deepcopy(original)
        before = trainer_snapshot(original)
        clone.fit_batch(X[2:], y[2:])
        assert_identical(before, trainer_snapshot(original))
        original.fit_batch(X[2:], y[2:])
        assert_identical(trainer_snapshot(original), trainer_snapshot(clone))


# ----------------------------------------------------------------------
# Sharded runtime: per-shard attribution
# ----------------------------------------------------------------------

def _plastic_net(replicas):
    net = Network("t", replicas=replicas)
    proto = CompartmentPrototype(vth_mant=256, decay_u=4096, decay_v=0)
    a = net.create_group(5, proto, "a")
    b = net.create_group(3, proto, "b")
    c = net.create_group(3, proto, "c")
    net.connect(a, b, np.full((5, 3), 30), weight_scale=64, plastic=True,
                learning_rule="r")
    net.connect(b, c, np.full((3, 3), 60), weight_scale=64)
    return net


def _drive_sharded(replicas):
    net = _plastic_net(replicas)
    rngs = [np.random.default_rng(s) for s in range(replicas)]
    rt = ShardedRuntime(net, net.compile(LoihiChip()), rng=rngs,
                        max_workers=2)
    rt.register_rule("r", RULES)
    rt.set_bias("a", np.random.default_rng(0).integers(
        0, 1 << 14, (replicas, 5)))
    for steps in (16, 7):
        rt.run(steps)
        rt.learning_epoch("end")
    rt.close()
    return net, rt


def test_sharded_runtime_attributes_shard_stats():
    with per_step():
        ref = snapshot(*_drive_sharded(4))
    with fused() as calls:
        net, rt = _drive_sharded(4)
    assert calls == [16, 7]
    assert len(rt.shards) > 1
    assert_identical(ref, snapshot(net, rt))
    merged = rt.merged_shard_stats()
    assert merged.spikes == rt.stats.spikes > 0
    assert merged.syn_events == rt.stats.syn_events > 0
    assert merged.steps == 23
    assert all(shard.stats.steps == 23 for shard in rt.shards)


def _odd_gate(net, soma):
    aux = net.create_group(1, CompartmentPrototype(
        vth_mant=4, non_spiking=True), "aux")
    soma.gate_group = aux
    aux.set_bias(np.array([5]))


def _column_major_weights(net, soma):
    conn = net.connections[0]
    conn.weight_mant = np.asfortranarray(conn.weight_mant)
    return conn, "weight_mant"


def _int32_bias(net, soma):
    soma.bias = soma.bias.astype(np.int32)
    return soma, "bias"


@pytest.mark.parametrize("unfusable", [
    _odd_gate, _column_major_weights, _int32_bias])
def test_unfusable_network_falls_back_to_per_step(unfusable):
    """The fused tables cannot express a gate partner of another size
    (it only exists through broadcasting), nor use in place a state array
    of another dtype or memory order: run() steps instead and leaves the
    host's arrays as they are."""
    def drive():
        net = Network("odd")
        proto = CompartmentPrototype(vth_mant=4)
        soma = net.create_group(3, proto, "soma")
        src = net.create_group(2, proto, "src")
        src.set_bias(np.full(2, proto.vth))
        net.connect(src, soma, np.array([[3, -1, 2], [1, 2, -2]]),
                    weight_scale=proto.vth // 4)
        soma.set_bias(np.full(3, proto.vth // 2))
        host = unfusable(net, soma)
        before = None if host is None else getattr(*host)
        rt = Runtime(net)
        rt.run(6)
        if host is not None:
            assert getattr(*host) is before
        return snapshot(net, rt)

    with per_step():
        ref = drive()
    with fused(allow_step=True) as calls:
        got = drive()
    assert calls == []
    assert_identical(ref, got)


# ----------------------------------------------------------------------
# Property test: random small networks
# ----------------------------------------------------------------------

@st.composite
def network_specs(draw):
    replicas = draw(st.sampled_from([1, 2, 3]))
    n_groups = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, 4)) for _ in range(n_groups)]
    groups = []
    for i, n in enumerate(sizes):
        same_size = [j for j, m in enumerate(sizes) if m == n]
        groups.append({
            "n": n,
            "proto": {
                "vth_mant": draw(st.integers(1, 6)),
                "decay_u": draw(st.sampled_from([0, 1, 700, 4095, 4096])),
                "decay_v": draw(st.sampled_from([0, 1, 300, 4096])),
                "soft_reset": draw(st.booleans()),
                "refractory": draw(st.integers(0, 3)),
                "non_spiking": draw(st.sampled_from([False] * 3 + [True])),
                "floor_at_zero": draw(st.booleans()),
            },
            "gate": draw(st.sampled_from([None] * 2 * len(same_size)
                                         + same_size)),
            "merge": draw(st.sampled_from([None] * 2 * len(same_size)
                                          + same_size)),
            "mask": draw(st.sampled_from(
                ["all", "shared"] + (["per_replica"] if replicas > 1
                                     else []))),
            "enabled": draw(st.sampled_from([True] * 3 + [False])),
        })
    conns = [{
        "src": draw(st.integers(0, n_groups - 1)),
        "dst": draw(st.integers(0, n_groups - 1)),
        "scale": draw(st.integers(1, 8)),
        "plastic": draw(st.booleans()),
        "trace": draw(st.sampled_from([(1, 1.0), (16, 0.7), (127, 0.5)])),
    } for _ in range(draw(st.integers(1, 6)))]
    schedule = draw(st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from(
            ["epoch", "toggle", "bias", "none"])), min_size=1, max_size=5))
    return {"replicas": replicas, "groups": groups, "conns": conns,
            "schedule": schedule, "seed": draw(st.integers(0, 2 ** 16))}


def _build(spec):
    rng = np.random.default_rng(spec["seed"])
    replicas = spec["replicas"]
    net = Network("prop", replicas=replicas)
    groups = []
    for i, g in enumerate(spec["groups"]):
        proto = CompartmentPrototype(**g["proto"])
        group = net.create_group(g["n"], proto, f"g{i}")
        group.set_bias(rng.integers(-proto.vth // 2, 2 * proto.vth,
                                    group.state_shape))
        group.enabled = g["enabled"]
        if g["mask"] == "shared":
            group.mask = rng.random(g["n"]) < 0.7
        elif g["mask"] == "per_replica":
            group.mask = rng.random((replicas, g["n"])) < 0.7
        groups.append(group)
    for group, g in zip(groups, spec["groups"]):
        if g["gate"] is not None:
            group.gate_group = groups[g["gate"]]
        if g["merge"] is not None:
            group.merge_group = groups[g["merge"]]
    for k, c in enumerate(spec["conns"]):
        src, dst = groups[c["src"]], groups[c["dst"]]
        conn = net.connect(src, dst, rng.integers(-127, 128, (src.n, dst.n)),
                           c["scale"], plastic=c["plastic"],
                           learning_rule="r" if c["plastic"] else "",
                           name=f"c{k}")
        if c["plastic"]:
            impulse, decay = c["trace"]
            config = TraceConfig(impulse=impulse, decay=decay)
            conn.pre_trace = TraceState(src.n, config, replicas=replicas)
            conn.post_trace = TraceState(dst.n, config, replicas=replicas)
    rngs = [np.random.default_rng((spec["seed"], r))
            for r in range(replicas)]
    rt = Runtime(net, rng=rngs)
    rt.register_rule("r", RULES)
    return net, rt, rng


def _play(spec):
    net, rt, rng = _build(spec)
    for steps, host_op in spec["schedule"]:
        rt.run(steps)
        group = net.groups[int(rng.integers(len(net.groups)))]
        if host_op == "epoch":
            rt.learning_epoch("end")
        elif host_op == "toggle":
            group.enabled = not group.enabled
        elif host_op == "bias":
            rt.set_bias(group.name, rng.integers(0, group.proto.vth,
                                                 group.state_shape))
    return snapshot(net, rt)


@given(spec=network_specs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_networks_fused_equals_per_step(spec):
    with per_step():
        ref = _play(spec)
    with fused() as calls:
        got = _play(spec)
    assert calls == [s for s, _ in spec["schedule"] if s > 0]
    assert_identical(ref, got)
