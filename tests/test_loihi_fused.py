"""The chip runtime's fused calls against their references, bit for bit.

With the ``cext`` backend, :meth:`Runtime.run` advances the whole network
in one ``kernels.network_run`` call, and :meth:`Runtime.learning_epoch`
applies every plastic connection's rules in one ``kernels.microcode_epoch``
call.  Every test here plays one schedule twice: once through the
reference (each ``run(T)`` as ``T`` calls of :meth:`Runtime.step`, or each
epoch as ``LearningEngine.apply_all`` per connection), once fused with the
reference patched to fail, so a silent fallback cannot pass.  The two end
states are compared with ``np.array_equal``: membranes, spikes, spike
counts, traces, tags, weights, per-connection synaptic events,
``RunStats``, the sharded runtime's per-shard and merged stats and, for
epochs, the state of every stochastic-rounding generator.  The fused
epoch reads uniforms only for rules that can round and moves each stream
past the other rules' blocks, so the epoch tests run it on every kind of
bit generator, some of which it advances and some of which it draws.
"""

import contextlib
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import kernels, loihi_default_config
from repro.loihi import (CompartmentPrototype, LearningEngine, LoihiChip,
                         Network, Runtime, ShardedRuntime, parse_rule)
from repro.loihi import runtime as runtime_module
from repro.loihi.traces import TRACE_MAX
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
        for attr in ("v", "spikes", "spike_count"):
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


def _trainer(feedback="dfa", gate_hidden=True, frontend=False):
    cfg = loihi_default_config(seed=3, phase_length=T, feedback=feedback,
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


# The ids keep a False slot where the retired gate_output axis stood, so
# each case keeps the name it had while that axis existed.
TRAINER_CASES = [pytest.param(feedback, gate_hidden,
                              id=f"{gate_hidden}-False-{feedback}")
                 for feedback in ("dfa", "fa")
                 for gate_hidden in (False, True)]


@pytest.mark.parametrize("feedback, gate_hidden", TRAINER_CASES)
def test_emstdp_trainer_fused_equals_per_step(feedback, gate_hidden):
    X, y = make_blobs(DIMS[0], DIMS[-1], 22, seed=4)
    trainer = _both_legs(
        lambda: _trainer(feedback, gate_hidden),
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
    proto = CompartmentPrototype(vth_mant=256)
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
    rt = ShardedRuntime(net, net.compile(LoihiChip()), rng=rngs)
    rt.register_rule("r", RULES)
    rt.set_bias("a", np.random.default_rng(0).integers(
        0, 1 << 14, (replicas, 5)))
    for steps in (16, 7):
        rt.run(steps)
        rt.learning_epoch("end")
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
        net.connect(src, dst, rng.integers(-127, 128, (src.n, dst.n)),
                    c["scale"], plastic=c["plastic"],
                    learning_rule="r" if c["plastic"] else "",
                    name=f"c{k}")
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


def _group_spec(vth_mant, floor_at_zero):
    return {"n": 4, "proto": {"vth_mant": vth_mant, "non_spiking": False,
                              "floor_at_zero": floor_at_zero},
            "gate": None, "merge": None, "mask": "all", "enabled": True}


#: A schedule long enough to run trace counters into ``TRACE_MAX``, which
#: the drawn schedules (at most 40 steps) never reach.
_SATURATING = {"replicas": 2, "seed": 1,
               "groups": [_group_spec(2, True), _group_spec(3, False)],
               "conns": [{"src": 0, "dst": 1, "scale": 2, "plastic": True}],
               "schedule": [(140, "epoch"), (5, "none")]}


def test_saturating_example_reaches_trace_max():
    net, rt, _ = _build(_SATURATING)
    rt.run(_SATURATING["schedule"][0][0])
    assert (net.connections[0].pre_trace.values == TRACE_MAX).any()


@given(spec=network_specs())
@example(spec=_SATURATING)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_networks_fused_equals_per_step(spec):
    with per_step():
        ref = _play(spec)
    with fused() as calls:
        got = _play(spec)
    assert calls == [s for s, _ in spec["schedule"] if s > 0]
    assert_identical(ref, got)


@pytest.mark.parametrize("width", [1, 7, 33, 100])
@pytest.mark.parametrize("replicas", [1, 3])
def test_wide_destinations_fused_equals_per_step(width, replicas):
    """Delivery sums a replica's active rows in blocks of vector lanes and
    scales each sum once: a destination narrower than one vector, one
    with a tail past whole vectors, one past whole blocks and the paper's
    hidden width, each into plastic and static connections, with a wide
    source feeding back."""
    def play():
        rng = np.random.default_rng(width + 10 * replicas)
        net = Network("wide", replicas=replicas)
        proto = CompartmentPrototype(vth_mant=4)
        src = net.create_group(37, proto, "src")
        dst = net.create_group(width, proto, "dst")
        src.set_bias(rng.integers(0, proto.vth, src.state_shape))
        net.connect(src, dst, rng.integers(-127, 128, (37, width)),
                    weight_scale=3, plastic=True, learning_rule="r")
        net.connect(src, dst, rng.integers(-40, 128, (37, width)),
                    weight_scale=5)
        net.connect(dst, src, rng.integers(-127, 128, (width, 37)),
                    weight_scale=2)
        rt = _runtime(net)
        rt.register_rule("r", RULES)
        for steps in (12, 5):
            rt.run(steps)
            rt.learning_epoch("end")
        return snapshot(net, rt)

    with per_step():
        ref = play()
    with fused() as calls:
        got = play()
    assert calls == [12, 5]
    assert_identical(ref, got)
    assert got["dst.spike_count"].any() and got["src.spike_count"].any()


# ----------------------------------------------------------------------
# Fused learning epochs against LearningEngine.apply_all
# ----------------------------------------------------------------------

def _reference_epoch(self, epoch):
    """The per-(connection, rule) learning epoch: ``apply_all`` on every
    plastic connection with rules for ``epoch``, in connection order."""
    for conn in self.network.connections:
        if conn.plastic and conn.learning_rule:
            rules = self.rulebook.get(conn.learning_rule, {}).get(epoch)
            if rules:
                self.engine.apply_all(rules, conn)
    self.stats.learning_epochs += 1


@contextlib.contextmanager
def reference_epochs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Runtime, "learning_epoch", _reference_epoch)
        yield


@contextlib.contextmanager
def fused_epochs(allow_apply_all=False):
    """Every learning epoch with rules is one ``microcode_epoch`` call;
    yields the replica count of each call.  Unless ``allow_apply_all``,
    calling the reference fails the test; with it, each reference call
    appends ``"apply_all"``."""
    calls = []
    real = kernels.microcode_epoch
    real_apply_all = LearningEngine.apply_all

    def spy(replicas, *args):
        calls.append(replicas)
        return real(replicas, *args)

    def apply_all(self, rules, conn):
        if not allow_apply_all:
            raise AssertionError("learning_epoch fell back to apply_all")
        calls.append("apply_all")
        return real_apply_all(self, rules, conn)

    with kernels.forced_backend("cext"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "microcode_epoch", spy)
        mp.setattr(LearningEngine, "apply_all", apply_all)
        yield calls


def stream_states(*runtimes):
    """The state of every generator the runtimes' engines round with."""
    states = []
    for rt in runtimes:
        for rng in rt.engine.rngs:
            states.append(rng.bit_generator.state)
    return states


def trainer_streams(trainer):
    twins = [rt for _, (_, rt) in sorted(trainer._twins.items())]
    return (stream_states(trainer.runtime, *twins)
            + [trainer._reduce_rng.bit_generator.state])


def _epoch_legs(make, drive):
    """``drive(make())`` with reference epochs, then fused; returns both
    legs' objects and the fused leg's ``microcode_epoch`` calls."""
    with reference_epochs():
        ref = make()
        ref_out = drive(ref)
    with fused_epochs() as calls:
        got = make()
        out = drive(got)
    for key in ref_out:
        assert np.array_equal(ref_out[key], out[key]), key
    return ref, got, calls


def _learn(trainer, X, y):
    """Online samples on the R=1 runtime, minibatch chunks of 16 and 3 on
    two twins, then batched inference."""
    return {
        "online": trainer.fit_batch(X[:3], y[:3])["predictions"],
        "minibatch": trainer.fit_batch(X[3:22], y[3:22],
                                       update_mode="minibatch")["predictions"],
        "infer_batch": trainer.infer_batch(X),
    }


def _assert_trainers_identical(ref, got):
    assert_identical(trainer_snapshot(ref), trainer_snapshot(got))
    assert trainer_streams(ref) == trainer_streams(got)


@pytest.mark.parametrize("feedback, gate_hidden", TRAINER_CASES)
def test_emstdp_trainer_epochs_equal_apply_all(feedback, gate_hidden):
    X, y = make_blobs(DIMS[0], DIMS[-1], 24, seed=5)
    ref, got, calls = _epoch_legs(
        lambda: _trainer(feedback, gate_hidden),
        lambda t: _learn(t, X, y))
    _assert_trainers_identical(ref, got)
    # Two epochs per online sample, two per minibatch chunk.
    assert calls == [1] * 6 + [16, 16, 3, 3]
    assert got.runtime.stats.learning_epochs == len(calls)


def test_emstdp_frontend_and_class_mask_epochs_equal_apply_all():
    X, y = make_blobs(DIMS[0], DIMS[-1], 24, seed=7)
    y = np.where(y == 3, 2, y)  # class 3 is masked out below

    def make():
        trainer = _trainer(frontend=True)
        trainer.set_class_mask([0, 1, 2])
        return trainer

    ref, got, _ = _epoch_legs(make, lambda t: _learn(t, X, y))
    _assert_trainers_identical(ref, got)


def test_copied_runtime_epochs_write_only_its_own_arrays():
    """A deep copy learns into its own weights and tags, from its own
    copies of the generators; the original is untouched."""
    X, y = make_blobs(DIMS[0], DIMS[-1], 6, seed=2)
    with fused_epochs():
        original = _trainer()
        original.fit_batch(X[:2], y[:2])
        clone = copy.deepcopy(original)
        before = trainer_snapshot(original)
        streams = trainer_streams(original)
        clone.fit_batch(X[2:], y[2:])
        clone.fit_batch(X[2:], y[2:], update_mode="minibatch")
        assert_identical(before, trainer_snapshot(original))
        assert trainer_streams(original) == streams
        original.fit_batch(X[2:], y[2:])
        original.fit_batch(X[2:], y[2:], update_mode="minibatch")
    _assert_trainers_identical(original, clone)


def _two_plastic_net(replicas, n_c=4):
    """``a`` drives ``b`` (3 wide) and ``c`` through plastic connections
    with rule names ``r`` and ``s``."""
    net = Network("epochs", replicas=replicas)
    proto = CompartmentPrototype(vth_mant=256)
    a = net.create_group(5, proto, "a")
    b = net.create_group(3, proto, "b")
    c = net.create_group(n_c, proto, "c")
    rng = np.random.default_rng(replicas)
    for dst, rule in ((b, "r"), (c, "s")):
        net.connect(a, dst, rng.integers(-40, 60, (5, dst.n)),
                    weight_scale=64, plastic=True, learning_rule=rule)
    net.connect(b, c, np.full((3, n_c), 20), weight_scale=64)
    a.set_bias(rng.integers(0, 1 << 14, a.state_shape))
    return net


def _runtime(net, seed=0, stochastic_rounding=True):
    rngs = [np.random.default_rng((seed, r)) for r in range(net.replicas)]
    return Runtime(net, rng=rngs, stochastic_rounding=stochastic_rounding)


@pytest.mark.parametrize("replicas", [1, 3])
def test_rules_reregistered_between_epochs(replicas):
    """The fused epoch follows the rulebook as it stands at each epoch:
    re-registered lists, a list edited in place, a connection with no
    rules for the epoch and an epoch nobody registered."""
    def play():
        net = _two_plastic_net(replicas)
        rt = _runtime(net)
        book = [parse_rule("dt = y1"),
                parse_rule("dw = 2^-3 * y1 * x1 - 2^-4 * t * x1")]
        rt.register_rule("r", {"end": book})
        rt.register_rule("s", {"end": [parse_rule("dw = -2^-2 * w")]})
        schedule = [
            lambda: None,
            lambda: rt.register_rule("r", {"end": book[::-1]}),
            lambda: book.append(parse_rule("dt = -2^-1 * t")),
            lambda: rt.register_rule("s", {"other": book}),
            lambda: rt.register_rule("r", {"end": [parse_rule(
                "dw = 2^-1 * (x1 + 1) * (y1 - 2)")]}),
        ]
        for host_write in schedule:
            host_write()
            rt.run(9)
            rt.learning_epoch("end")
        rt.learning_epoch("never")
        return {"state": snapshot(net, rt), "streams": stream_states(rt)}

    ref, got, calls = _epoch_legs(play, lambda out: out["state"])
    assert calls == [replicas] * 5
    assert ref["streams"] == got["streams"]


@pytest.mark.parametrize("replicas", [1, 3])
def test_deterministic_rounding_ties_to_even(replicas):
    """``stochastic_rounding=False`` rounds each exact half to even, as
    ``np.round`` does (C's ``round()`` would take it away from zero), and
    draws from no generator."""
    x1 = np.array([1.0, 3.0, 5.0, 7.0])
    y1 = np.array([1.0, 3.0, 5.0])

    def play():
        net = Network("ties", replicas=replicas)
        proto = CompartmentPrototype(vth_mant=256)
        a = net.create_group(4, proto, "a")
        b = net.create_group(3, proto, "b")
        conn = net.connect(a, b, np.zeros((4, 3)), weight_scale=64,
                           plastic=True, learning_rule="r")
        conn.pre_trace.values[...] = x1
        conn.post_trace.values[...] = y1
        rt = _runtime(net, stochastic_rounding=False)
        rt.register_rule("r", {"end": [parse_rule("dw = 2^-1 * y1 * x1"),
                                       parse_rule("dt = -2^-1 * y1 * x1")]})
        before = stream_states(rt)
        rt.learning_epoch("end")
        assert stream_states(rt) == before
        return {"w": conn.weight_mant, "t": conn.tag}

    ref, got, calls = _epoch_legs(play, lambda out: out)
    assert calls == [replicas]
    halves = np.outer(x1, y1) / 2  # 0.5, 1.5, 2.5, ...: all exact ties
    assert np.array_equal(got["w"], np.broadcast_to(np.round(halves),
                                                    got["w"].shape))
    assert np.array_equal(got["t"], np.broadcast_to(np.round(-halves),
                                                    got["t"].shape))


def _column_major_weights(net):
    conn = net.connections[0]
    conn.weight_mant = np.asfortranarray(conn.weight_mant)
    return conn.weight_mant


def _int32_tag(net):
    conn = net.connections[1]
    conn.tag = conn.tag.astype(np.int32)
    return conn.tag


def _read_only_weights(net):
    conn = net.connections[1]
    conn.weight_mant.flags.writeable = False
    return conn.weight_mant


def _shared_tag(net):
    net.connections[1].tag = net.connections[0].tag
    return net.connections[0].tag


@pytest.mark.parametrize("unfusable", [
    _column_major_weights, _int32_tag, _read_only_weights, _shared_tag])
@pytest.mark.parametrize("replicas", [1, 2])
def test_unfusable_epoch_falls_back_to_apply_all(unfusable, replicas):
    """The fused epoch writes in place, so it takes only C-contiguous
    int64 blocks it owns alone and may write; anything else leaves the
    epoch to ``apply_all``, which replaces the host's array instead (and
    so may hand the next epoch back to the fused call)."""
    def play():
        net = _two_plastic_net(replicas, n_c=3)
        rt = _runtime(net)
        rules = {"end": [parse_rule("dt = y1"),
                         parse_rule("dw = 2^-2 * y1 * x1 - 2^-3 * t * x1")]}
        rt.register_rule("r", rules)
        rt.register_rule("s", rules)
        rt.run(8)
        rt.learning_epoch("end")
        host = unfusable(net)
        kept = host.copy()
        for _ in range(2):
            rt.run(8)
            rt.learning_epoch("end")
        assert np.array_equal(host, kept)  # never written in place
        return {"state": snapshot(net, rt), "streams": stream_states(rt)}

    with reference_epochs():
        ref = play()
    with fused_epochs(allow_apply_all=True) as calls:
        got = play()
    # Fused before the host write, then the reference on both conns.
    assert calls[:3] == [replicas, "apply_all", "apply_all"]
    assert_identical(ref["state"], got["state"])
    assert ref["streams"] == got["streams"]


_FACTORS = ("x0", "x1", "y0", "y1", "t", "w", "(x1+3)", "(y1-2)", "(t-5)",
            "(w+1)", "2", "3")


@st.composite
def rule_lists(draw):
    """1-3 rules, each ``dw`` or ``dt``: 1-3 signed power-of-two terms of
    0-3 factors (traces, spikes, tag, weight, constants)."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        text = ""
        for _ in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from("+-"))
            factors = [f"2^{draw(st.integers(-4, 1))}"] + draw(
                st.lists(st.sampled_from(_FACTORS), max_size=3))
            text += f" {sign} " + " * ".join(factors)
        rules.append(parse_rule(f"d{draw(st.sampled_from('wt'))} ={text}"))
    return rules


_EVERY_FACTOR_KIND = dict(
    rules=[parse_rule("dt = 3 * y0 - 2^-1 * x0 * (y1 - 2)"),
           parse_rule("dw = 2^-3 * t * w * x1 - 2^-2 * (w + 1) + 2^-4")],
    other=[parse_rule("dw = 2 * x1 * y1 - t"), parse_rule("dt = y1")],
    steps=[9, 4], seed=5)


@given(replicas=st.sampled_from([1, 2, 3]), rules=rule_lists(),
       other=rule_lists(), stochastic=st.booleans(),
       steps=st.lists(st.integers(0, 12), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
@example(replicas=2, stochastic=True, **_EVERY_FACTOR_KIND)
@example(replicas=1, stochastic=False, **_EVERY_FACTOR_KIND)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_rules_epochs_equal_apply_all(replicas, rules, other,
                                             stochastic, steps, seed):
    def play():
        net = _two_plastic_net(replicas)
        rt = _runtime(net, seed, stochastic)
        rt.register_rule("r", {"end": rules})
        rt.register_rule("s", {"end": other})
        for n in steps:
            rt.run(n)
            rt.learning_epoch("end")
        return {"state": snapshot(net, rt), "streams": stream_states(rt)}

    ref, got, calls = _epoch_legs(play, lambda out: out["state"])
    assert calls == [replicas] * len(steps)
    assert ref["streams"] == got["streams"]


INTEGER = kernels.MICROCODE_RULE_FIELDS.index("integer")


#: Rounding-stream kinds -> whether the fused epoch moves them past an
#: integer rule's block with ``advance`` (else it draws the block).
STREAMS = {"pcg64": True, "pcg64dxsm": True, "pcg64-float32": False,
           "pcg64-float32x2": False, "mt19937": False, "philox": False}


def _stream(kind, seed):
    bits = {"pcg64dxsm": np.random.PCG64DXSM, "mt19937": np.random.MT19937,
            "philox": np.random.Philox}.get(kind, np.random.PCG64)
    rng = np.random.Generator(bits(seed))
    if kind.startswith("pcg64-float32"):
        # One leaves a 32-bit half buffered; two leave its value behind.
        rng.random(1 + kind.endswith("x2"), dtype=np.float32)
    return rng


def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("kind", STREAMS)
def test_streams_advance_only_where_advancing_equals_drawing(kind):
    """``runtime._advances`` holds exactly where ``advance(n)`` leaves the
    state ``n`` float64 draws leave, for this NumPy's bit generators."""
    drawn, jumped = _stream(kind, 7), _stream(kind, 7)
    assert runtime_module._advances(jumped.bit_generator) is STREAMS[kind]
    drawn.random(1000)
    if hasattr(jumped.bit_generator, "advance"):
        jumped.bit_generator.advance(1000)
        assert _same_state(drawn.bit_generator.state,
                           jumped.bit_generator.state) is STREAMS[kind]
    else:
        assert not STREAMS[kind]


@pytest.mark.parametrize("kind", STREAMS)
@pytest.mark.parametrize("replicas", [1, 4])
def test_epoch_streams_equal_apply_all(kind, replicas):
    """The fused epoch reads uniforms only for rounding rules and moves
    each stream past an integer rule's block, by ``advance`` or by
    drawing it: weights, tags and every stream's state equal
    ``apply_all``'s, whose every rule draws."""
    rules = [parse_rule("dt = y1"),
             parse_rule("dw = 2^-3 * y1 * x1 - 2^-4 * t * x1"),
             parse_rule("dt = 2 * x0 - t"),
             parse_rule("dw = 2^-1 * (w + 1)")]

    def play():
        net = _two_plastic_net(replicas)
        rt = Runtime(net, rng=[_stream(kind, (3, r))
                               for r in range(replicas)])
        rt.register_rule("r", {"end": rules})
        rt.register_rule("s", {"end": rules[::-1]})
        for steps in (9, 4):
            rt.run(steps)
            rt.learning_epoch("end")
        return {"state": snapshot(net, rt), "streams": stream_states(rt)}

    ref, got, calls = _epoch_legs(play, lambda out: out["state"])
    assert calls == [replicas] * 2
    assert _same_state(dict(enumerate(ref["streams"])),
                       dict(enumerate(got["streams"])))


def _epoch_tables(tag, w, draws):
    """A one-connection epoch over ``(2, 3)`` blocks: its tables, program
    and uniforms, as ``Runtime`` builds them.  ``dt = y1`` is flagged
    ``integer`` and reads no uniform, so the epoch reads 6."""
    spikes_src, spikes_dst = np.ones(2, bool), np.ones(3, bool)
    pre = np.array([3, 5], dtype=np.int64)
    post = np.array([2, 4, 6], dtype=np.int64)
    program = kernels.microcode_program([[
        parse_rule("dt = y1"), parse_rule("dw = 2^-1 * t * x1")]])
    conns = np.array([[2, 3, 0, 2]], dtype=np.int64)
    arrays = (spikes_src, pre, spikes_dst, post, tag, w)
    addresses = np.array([[a.ctypes.data for a in arrays]], dtype=np.uintp)
    uniforms = np.full((1, draws), 0.5)
    return conns, addresses, program, uniforms, arrays


@pytest.fixture()
def cext():
    with kernels.forced_backend("cext"):
        yield


def test_microcode_epoch_rejects_malformed_tables(cext):
    tag = np.zeros((2, 3), dtype=np.int64)
    w = np.zeros((2, 3), dtype=np.int64)
    conns, addresses, program, uniforms, keep = _epoch_tables(tag, w, 6)
    assert program.rules[:, INTEGER].tolist() == [1, 0]
    bad_rules = program._replace(rules=program.rules.copy())
    bad_rules.rules[1, 2] = 99  # term slice past the end
    bad_kinds = program._replace(kinds=program.kinds.copy())
    bad_kinds.kinds[0] = 7
    null = addresses.copy()
    null[0, 4] = 0
    wide = conns.copy()
    wide[0, 3] = 3  # a rule slice past the end
    for args, error in [
            ((1, conns.astype(np.int32), addresses, program, uniforms),
             TypeError),
            ((1, conns, addresses[:, :5].copy(), program, uniforms),
             TypeError),
            ((2, conns, addresses, program, uniforms), TypeError),
            ((1, conns, addresses, program, uniforms[:, :5].copy()),
             ValueError),
            ((1, conns, addresses, program, np.full((1, 12), 0.5)),
             ValueError),
            ((1, conns, addresses, bad_rules, uniforms), ValueError),
            ((1, conns, addresses, bad_kinds, uniforms), ValueError),
            ((1, conns, null, program, uniforms), ValueError),
            ((1, wide, addresses, program, uniforms), ValueError)]:
        with pytest.raises(error):
            kernels.microcode_epoch(*args, 127, 255)
        assert not tag.any() and not w.any()
    kernels.microcode_epoch(1, conns, addresses, program, uniforms, 127, 255)
    assert tag.tolist() == [[2, 4, 6]] * 2
    assert w.tolist() == [[3, 6, 9], [5, 10, 15]]
    with kernels.forced_backend("numpy"), pytest.raises(NotImplementedError):
        kernels.microcode_epoch(1, conns, addresses, program, uniforms, 127,
                                255)


def test_microcode_epoch_rejects_a_contradicted_integer_flag(cext):
    """An ``integer`` flag on a rule with a fractional scale or constant
    (or a flag that is not 0 or 1) would add an unrounded ``dz``: the
    kernel refuses the tables before writing anything."""
    tag = np.zeros((2, 3), dtype=np.int64)
    w = np.zeros((2, 3), dtype=np.int64)
    conns, addresses, program, uniforms, keep = _epoch_tables(tag, w, 6)
    fractional_scale = program._replace(rules=program.rules.copy())
    fractional_scale.rules[1, INTEGER] = 1  # dw = 2^-1 * t * x1
    fractional_const = program._replace(consts=program.consts.copy())
    fractional_const.consts[0] = 0.5  # dt = (y1 + 0.5)
    two = program._replace(rules=program.rules.copy())
    two.rules[0, INTEGER] = 2
    for bad in (fractional_scale, fractional_const, two):
        for u in (uniforms, uniforms[:, :0].copy(), None):
            with pytest.raises(ValueError):
                kernels.microcode_epoch(1, conns, addresses, bad, u, 127, 255)
            assert not tag.any() and not w.any()
