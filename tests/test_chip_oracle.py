"""The chip's neuron and trace bits, pinned to frozen general kernels.

The chip once modelled Loihi's general CUBA compartment (a decaying
current ``u``, a leaking membrane, a refractory counter, a soft or hard
reset) and decaying traces, and the EMSTDP builder programmed one corner
of it: no leak (``decay_v = 0``), instant current decay
(``decay_u = 4096``), soft reset, no refractory period, and every trace a
counter (impulse 1, no decay).  The library now models only that corner.
``frozen_cuba_step`` and ``frozen_trace_update`` are the general NumPy
kernels as they were written before, copied verbatim; called with the
builder's constants they are the oracle the library's kernels must match
byte for byte, on every available backend (the frozen trace kernel counts
in float64; the library's int64 registers must equal its values cast
exactly, once they are checked to be integers):

* the kernels themselves, for each of the builder's three compartments
  (signed forward, floored error/label, non-spiking auxiliary) over
  several steps, and a trace counter run into its 127 ceiling;
* FA and DFA trainers with a class mask, driven through online and
  minibatch ``fit_batch`` and ``infer_batch`` on the fused run where the
  backend has one, against a twin that steps every run one timestep at a
  time with the library's kernels replaced by the frozen ones: weights,
  tags, traces, membranes, spike counts, ``RunStats`` and every
  generator's state.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import kernels, loihi_default_config
from repro.data import make_blobs
from repro.loihi import Runtime
from repro.loihi.traces import TRACE_MAX
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

BACKENDS = kernels.available_backends()


# ----------------------------------------------------------------------
# The frozen general kernels
# ----------------------------------------------------------------------

def frozen_cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth,
                     soft_reset, refractory, floor_at_zero, non_spiking):
    # Current decay then accumulation (Eq. 8, forward-Euler, integer).
    np.copyto(u, (u * (4096 - decay_u)) // 4096 + syn)
    ok = refrac == 0
    leaked = (v * (4096 - decay_v)) // 4096
    np.copyto(v, np.where(ok, leaked + u + bias, v))
    if floor_at_zero:
        np.clip(v, 0, None, out=v)
    if non_spiking:
        return np.zeros(v.shape, dtype=bool)
    fired = ok & (v >= vth)
    if soft_reset:
        np.copyto(v, np.where(fired, v - vth, v))
    else:
        np.copyto(v, np.where(fired, 0, v))
    if refractory:
        refrac[fired] = refractory
        refrac[~fired & (refrac > 0)] -= 1
    return fired


def frozen_trace_update(values, spikes, impulse, decay, trace_max):
    if decay != 1.0:
        values *= decay
    bumped = values + np.where(spikes, impulse, 0.0)
    np.copyto(values, np.minimum(bumped, trace_max))


#: The constants the EMSTDP builder programmed into every compartment and
#: trace.
BUILDER_CUBA = dict(decay_u=4096, decay_v=0, soft_reset=True, refractory=0)
BUILDER_TRACE = dict(impulse=1, decay=1.0)

#: The builder's three compartments, as (floor_at_zero, non_spiking).
PROTOTYPES = {"forward": (False, False), "error": (True, False),
              "aux": (True, True)}

VTH = 256 << 6


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _registers(values):
    """The frozen kernel's float64 trace values as the int64 registers
    they must equal: integers, cast exactly."""
    assert (values == np.floor(values)).all()
    return values.astype(np.int64)


# ----------------------------------------------------------------------
# (a) the kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("prototype", sorted(PROTOTYPES))
@pytest.mark.parametrize("shape", [(1,), (7,), (3, 11)])
def test_cuba_step_matches_the_frozen_kernel(backend, prototype, shape):
    """Signed drive around the threshold on an eighth-of-threshold grid:
    spikes, residuals, membranes exactly at the threshold, negative
    membranes and (floored) clamps all occur."""
    floor, non_spiking = PROTOTYPES[prototype]
    rng = np.random.default_rng(23)
    bias = rng.integers(-2, 4, shape) * (VTH // 8)
    syn = rng.integers(-8, 16, (12,) + shape) * (VTH // 8)
    u, refrac = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    v_ref, v = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    negative = False
    with kernels.forced_backend(backend):
        for s in syn:
            want = frozen_cuba_step(u, v_ref, refrac, bias, s, vth=VTH,
                                    floor_at_zero=floor,
                                    non_spiking=non_spiking, **BUILDER_CUBA)
            got = kernels.cuba_step(v, bias, s, VTH, floor, non_spiking)
            assert _same_bytes(got, want)
            assert _same_bytes(v, v_ref)
            negative |= bool((v < 0).any())
    assert negative != floor


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", [(1,), (9,), (4, 11)])
def test_trace_counter_matches_the_frozen_kernel(backend, shape):
    """Dense spikes over 160 steps run every register into 127."""
    rng = np.random.default_rng(29)
    spikes = rng.random((160,) + shape) < 0.9
    values_ref, values = np.zeros(shape), np.zeros(shape, dtype=np.int64)
    with kernels.forced_backend(backend):
        for s in spikes:
            frozen_trace_update(values_ref, s, trace_max=TRACE_MAX,
                                **BUILDER_TRACE)
            kernels.trace_update(values, s, TRACE_MAX)
            assert _same_bytes(values, _registers(values_ref))
    assert (values == TRACE_MAX).all()


# ----------------------------------------------------------------------
# (b) trainers against a per-step twin on the frozen kernels
# ----------------------------------------------------------------------

DIMS = (12, 10, 8, 4)
T = 8


def _adapted_cuba_step(v, bias, syn_input, vth, floor_at_zero, non_spiking):
    # A fresh current and refractory counter every step lose nothing:
    # decay_u = 4096 clears the current, and refractory = 0 never sets a
    # counter.
    return frozen_cuba_step(np.zeros_like(v), v, np.zeros_like(v), bias,
                            syn_input, vth=vth, floor_at_zero=floor_at_zero,
                            non_spiking=non_spiking, **BUILDER_CUBA)


def _adapted_trace_update(values, spikes, trace_max):
    # The frozen kernel counts in float64; the registers are int64.
    counted = values.astype(np.float64)
    frozen_trace_update(counted, spikes, trace_max=trace_max,
                        **BUILDER_TRACE)
    values[...] = _registers(counted)


def _stepped_run(self, steps):
    for _ in range(steps):
        self.step()
    self._collect_syn_events()


def _trainer(feedback):
    cfg = loihi_default_config(seed=5, phase_length=T, feedback=feedback)
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg),
                                 neurons_per_core=6, batch_replicas=16)
    trainer.set_class_mask([0, 1, 3])
    return trainer


def _drive(trainer, X, y):
    return {"online": trainer.fit_batch(X[:4], y[:4])["predictions"],
            "minibatch": trainer.fit_batch(
                X[4:23], y[4:23], update_mode="minibatch")["predictions"],
            "infer_batch": trainer.infer_batch(X)}


def _state(trainer):
    """Every output the two trainers must agree on."""
    runtimes = [("", trainer.model, trainer.runtime)] + [
        (f"twin{width}.", model, rt)
        for width, (model, rt) in sorted(trainer._twins.items())]
    state = {}
    for prefix, model, rt in runtimes:
        for g in model.network.groups:
            state[f"{prefix}{g.name}.v"] = g.v.copy()
            state[f"{prefix}{g.name}.spike_count"] = g.spike_count.copy()
        for c in model.network.connections:
            state[f"{prefix}{c.name}.weight"] = c.weight_mant.copy()
            if c.plastic:
                state[f"{prefix}{c.name}.tag"] = c.tag.copy()
                state[f"{prefix}{c.name}.pre"] = c.pre_trace.values.copy()
                state[f"{prefix}{c.name}.post"] = c.post_trace.values.copy()
        state[f"{prefix}stats"] = np.array(dataclasses.astuple(rt.stats))
        for i, gen in enumerate(rt.engine.rngs):
            state[f"{prefix}rng{i}"] = np.frombuffer(
                repr(gen.bit_generator.state).encode(), dtype=np.uint8)
    state["reduce_rng"] = np.frombuffer(
        repr(trainer._reduce_rng.bit_generator.state).encode(),
        dtype=np.uint8)
    return state


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("feedback", ["dfa", "fa"])
def test_trainer_matches_a_per_step_twin_on_the_frozen_kernels(
        backend, feedback):
    X, y = make_blobs(DIMS[0], DIMS[-1], 24, seed=8)
    y = np.where(y == 2, 3, y)  # class 2 is masked out
    fused_calls = []
    real_run = kernels.network_run

    def counted_run(*args):
        fused_calls.append(args[0])
        return real_run(*args)

    with kernels.forced_backend(backend), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "network_run", counted_run)
        trainer = _trainer(feedback)
        out = _drive(trainer, X, y)
        assert bool(fused_calls) == kernels.backend_provides("network_run")
    frozen_calls = []

    def spied(name, fn):
        def call(*args, **kwargs):
            frozen_calls.append(name)
            return fn(*args, **kwargs)
        return call

    with kernels.forced_backend(backend), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(Runtime, "run", _stepped_run)
        mp.setattr(kernels, "cuba_step", spied("cuba", _adapted_cuba_step))
        mp.setattr(kernels, "trace_update",
                   spied("trace", _adapted_trace_update))
        twin = _trainer(feedback)
        ref = _drive(twin, X, y)
    assert {"cuba", "trace"} <= set(frozen_calls)
    for key in ref:
        assert _same_bytes(out[key], ref[key]), key
    got, want = _state(trainer), _state(twin)
    assert got.keys() == want.keys()
    for key in want:
        assert _same_bytes(got[key], want[key]), key
    assert 16 in trainer._twins and 3 in trainer._twins
    assert trainer.runtime.stats.spikes > 0
