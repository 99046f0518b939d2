"""Fused ``kernels.spike_present`` against the per-step spike engine.

With the ``cext`` backend every spike-dynamics entry point of
:class:`EMSTDPNetwork` runs one presentation of a ``(B, n)`` block in one
``kernels.spike_present`` call; under ``kernels.forced_backend("numpy")``
it steps :class:`IFLayer` / :class:`SignedErrorLayer` one timestep at a
time (the reference).  Every test here runs one schedule both ways — the
fused leg with ``IFLayer.step`` patched to fail, so a silent fallback
cannot pass — and compares the outputs with ``np.array_equal``: phase-1
and phase-2 rates, predictions, and the weights after online and
minibatch training.  The last tests pin the reference's row-order
accumulation to a plain Python loop.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMSTDPConfig, EMSTDPNetwork, kernels
from repro.core.network import accumulate_rows, spike_present_reference
from repro.core.neuron import IFLayer

needs_cext = pytest.mark.skipif(
    "cext" not in kernels.available_backends(),
    reason="the fused presentation is implemented by the cext backend")

DIMS = {1: (6, 4), 2: (6, 7, 4), 3: (6, 7, 5, 4)}


def _no_fallback(self, drive):
    raise AssertionError("a fused leg stepped an IFLayer")


@contextlib.contextmanager
def leg(backend):
    """Run on ``backend``; the fused leg fails if it steps a layer."""
    with kernels.forced_backend(backend), \
            pytest.MonkeyPatch.context() as mp:
        if backend != "numpy":
            mp.setattr(IFLayer, "step", _no_fallback)
        yield


def _train(backend, dims, cfg, X, y, n_online=20):
    """Everything the spike engine computes for one network and stream,
    its initial weights scaled by 1.5 (on their grid) so that layers
    saturate."""
    net = EMSTDPNetwork(dims, cfg)
    net.set_class_mask(range(dims[-1] - 1))  # the last class is disabled
    # Fortran-ordered weights and inputs (and a strided row slice of them)
    # are public-API input the C loop cannot read as they are.
    net.weights = [np.asfortranarray(net.updater.project(1.5 * w))
                   for w in net.weights]
    fortran = np.asfortranarray(X)
    out = {}
    with leg(backend):
        for batch in (1, 3):
            out[f"predict_B{batch}"] = net.predict_batch(X[:batch])
            res = net.fit_batch(X[:batch], y[:batch], update_mode="minibatch")
            out[f"minibatch_B{batch}"] = res["predictions"]
            out.update({f"minibatch_B{batch}_w{i}": w.copy()
                        for i, w in enumerate(net.weights)})
        out["predict_fortran"] = net.predict_batch(fortran)
        res = net.fit_batch(fortran[3:6], y[3:6], update_mode="minibatch")
        out["minibatch_fortran"] = res["predictions"]
        for k in range(n_online):
            res = net.train_sample(X[k], int(y[k]))
            out[f"online{k}_pred"] = np.array(res["prediction"])
            for i, (h, h_hat) in enumerate(zip(res["h"], res["h_hat"])):
                out[f"online{k}_h{i}"] = h
                out[f"online{k}_h_hat{i}"] = h_hat
        out.update({f"w{i}": w for i, w in enumerate(net.weights)})
        out["predict"] = net.predict_batch(X)
        out["output_rates"] = net.output_rates(X[0])
    return out


def _assert_identical(ref, got):
    assert ref.keys() == got.keys()
    for key in ref:
        assert np.array_equal(ref[key], got[key]), key


# The ids keep a False slot where the retired gate_output axis stood, so
# each case keeps the name it had while that axis existed.
CASES = list(itertools.product(("fa", "dfa"), (True, False), (True, False),
                               (1, 2, 3)))
CASE_IDS = ["{}-{}-False-{}-{}".format(*case) for case in CASES]


@needs_cext
@pytest.mark.parametrize("feedback, gate_hidden, bias, layers", CASES,
                         ids=CASE_IDS)
def test_network_fused_equals_per_step(feedback, gate_hidden, bias, layers):
    dims = DIMS[layers]
    cfg = EMSTDPConfig(seed=3, phase_length=12, dynamics="spike",
                       feedback=feedback, gate_hidden=gate_hidden,
                       use_bias_neuron=bias, error_gain=1.5)
    rng = np.random.default_rng(layers)
    X = rng.uniform(0, 1, (24, dims[0]))
    y = rng.integers(0, dims[-1], 24)
    ref = _train("numpy", dims, cfg, X, y)
    got = _train("cext", dims, cfg, X, y)
    _assert_identical(ref, got)
    # The schedule is not vacuous: the error path moved phase 2.
    assert any(not np.array_equal(ref[f"online{k}_h{len(dims) - 1}"],
                                  ref[f"online{k}_h_hat{len(dims) - 1}"])
               for k in range(20))


@needs_cext
def test_two_phase_helper_is_the_batch_of_one():
    """``_spike_two_phase`` (used by the rate/spike equivalence suite) is
    row 0 of the batched presentation, fused or not."""
    cfg = EMSTDPConfig(seed=1, phase_length=16, dynamics="spike",
                       feedback="fa")
    net = EMSTDPNetwork(DIMS[2], cfg)
    x = np.random.default_rng(0).uniform(0, 1, DIMS[2][0])
    with leg("numpy"):
        ref = net._spike_two_phase(x, 2)
    with leg("cext"):
        got = net._spike_two_phase(x, 2)
        batched = net._spike_rates(x[None, :], [2])
    for r, g, b in zip(ref, got, batched):
        for rr, gg, bb in zip(r, g, b):
            assert np.array_equal(rr, gg) and np.array_equal(gg, bb[0])


@needs_cext
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.lists(st.integers(1, 40), min_size=2, max_size=4),
       steps=st.integers(0, 24),
       batch=st.integers(0, 4),
       scale=st.floats(0.05, 4.0),
       with_target=st.booleans(),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       gain=st.floats(0.25, 3.0))
def test_kernel_equals_reference_property(seed, dims, steps, batch, scale,
                                          with_target, flags, gain):
    """Random small stacks, phase lengths and weight scales: the fused
    kernel returns the reference's spike counts, phase by phase."""
    fa, bias, gate_hidden = flags
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-scale, scale, (dims[i] + bias, dims[i + 1]))
               for i in range(len(dims) - 1)]
    feedback = [rng.uniform(-scale, scale,
                            (dims[i + 2] if fa else dims[-1], dims[i + 1]))
                for i in range(len(dims) - 2)]
    mask = rng.random(dims[-1]) < 0.5
    mask[rng.integers(dims[-1])] = True
    drive = np.round(rng.uniform(0, 1, (batch, dims[0])) * 16) / 16
    target = None
    if with_target:  # unmasked: the kernel must mask the error itself
        target = np.zeros((batch, dims[-1]))
        target[np.arange(batch), rng.integers(0, dims[-1], batch)] = 1.0
    kwargs = dict(fa=fa, bias_unit=bias, gate_hidden=gate_hidden,
                  error_gain=gain)
    args = (dims, steps, drive, weights, mask, target, feedback)
    with leg("numpy"):
        ref = spike_present_reference(*args, **kwargs)
    with leg("cext"):
        got = kernels.spike_present(*args, **kwargs)
    for ref_phase, got_phase in zip(ref, got):
        if ref_phase is None:
            assert got_phase is None and target is None
            continue
        for r, g in zip(ref_phase, got_phase):
            assert g.dtype == np.int64 and np.array_equal(r, g)


@needs_cext
def test_kernel_masks_the_error_of_disabled_classes():
    """A target on a disabled class drives its label neuron, but its error
    spikes must reach neither the output nor the DFA broadcast."""
    rng = np.random.default_rng(0)
    dims = (5, 6, 3)
    target = np.zeros((2, 3))
    target[:, 2] = 1.0
    args = (dims, 16, rng.uniform(0, 1, (2, 5)),
            [rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (7, 3))],
            np.array([True, True, False]), target,
            [rng.uniform(-2, 2, (3, 6))])
    with leg("numpy"):
        ref = spike_present_reference(*args, gate_hidden=False)
    with leg("cext"):
        got = kernels.spike_present(*args, gate_hidden=False)
    for r, g in zip(ref[0] + ref[1], got[0] + got[1]):
        assert np.array_equal(r, g)
    unmasked = spike_present_reference(*args[:4], np.ones(3, dtype=bool),
                                       *args[5:], gate_hidden=False)
    assert not np.array_equal(unmasked[1][1], ref[1][1])


@needs_cext
@pytest.mark.parametrize("cols", [1, 5, 37])
@pytest.mark.parametrize("rows, bias, fires", [
    ([1.0, 1e16, -1e16], False, False),     # reversed: 1
    ([1e16, -1e16, 1.0], True, True),       # bias row first: 0
    ([1e16, 1.0, -1e16, 1.0], False, True),  # pairwise or reversed: 0
])
def test_kernel_sums_rows_in_row_order(rows, bias, fires, cols):
    """Inputs fire every step into outputs whose drive depends on the
    order of the sum (1e16 + 1 rounds to 1e16): only the row-order sum,
    bias row last, gives the expected drive of 0 or 1.  Every output
    column has the same weights, and 37 columns cover each part of the
    C row sum: whole blocks of vectors, single vectors and scalars."""
    dims = (len(rows) - bias, cols)
    weights = np.repeat(np.array(rows)[:, None], cols, axis=1)
    args = (dims, 8, np.ones((1, dims[0])), [weights],
            np.ones(cols, dtype=bool))
    with leg("numpy"):
        ref = spike_present_reference(*args, bias_unit=bias)[0][-1]
    with leg("cext"):
        got = kernels.spike_present(*args, bias_unit=bias)[0][-1]
    assert ref.tolist() == got.tolist() == [[8 if fires else 0] * cols]


@needs_cext
@pytest.mark.parametrize("fa", [True, False])
def test_kernel_equals_reference_on_wide_layers(fa):
    """Layers wide enough for every part of the C row sum (whole vector
    blocks, single vectors, scalars), forward and feedback, with an error
    path that moves phase 2: another target gives other hidden counts."""
    rng = np.random.default_rng(11)
    dims = (45, 53, 37, 10)
    weights = [rng.uniform(-0.6, 0.6, (dims[i] + 1, dims[i + 1]))
               for i in range(3)]
    feedback = [rng.uniform(-1, 1, (dims[i + 2] if fa else 10, dims[i + 1]))
                for i in range(2)]
    target = np.eye(10)[rng.integers(0, 10, 3)]
    drive = rng.uniform(0, 1, (3, 45))
    mask = np.ones(10, dtype=bool)
    kwargs = dict(fa=fa, gate_hidden=False)
    with leg("numpy"):
        ref = spike_present_reference(dims, 16, drive, weights, mask, target,
                                      feedback, **kwargs)
        other = spike_present_reference(dims, 16, drive, weights, mask,
                                        np.roll(target, 1, axis=1), feedback,
                                        **kwargs)
    with leg("cext"):
        got = kernels.spike_present(dims, 16, drive, weights, mask, target,
                                    feedback, **kwargs)
    for r, g in zip(ref[0] + ref[1], got[0] + got[1]):
        assert np.array_equal(r, g)
    assert not np.array_equal(ref[1][1], other[1][1])


def _python_rows(spikes, w):
    """The contract spelled out: per sample, active rows in row order."""
    out = np.zeros((len(spikes), w.shape[1]))
    for b, row in enumerate(spikes):
        acc = [0.0] * w.shape[1]
        for i, s in enumerate(row):
            if s > 0:
                acc = [a + float(x) for a, x in zip(acc, w[i])]
            elif s < 0:
                acc = [a - float(x) for a, x in zip(acc, w[i])]
        out[b] = acc
    return out


@pytest.mark.parametrize("signed", [False, True])
def test_accumulate_rows_is_the_python_row_loop(signed):
    rng = np.random.default_rng(7)
    # Mixed magnitudes make the sum order-sensitive.
    w = rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-8, 9, (40, 1))
    values = (-1.0, 0.0, 1.0) if signed else (0.0, 1.0)
    w[0] = -0.0
    spikes = rng.choice(values, size=(5, 40))
    spikes[0] = 0.0  # an all-silent sample sums to +0.0 ...
    spikes[1] = 0.0
    spikes[1, 0] = 1.0  # ... and so does +0.0 + (-0.0)
    got = accumulate_rows(spikes, w)
    assert np.array_equal(got, _python_rows(spikes, w))
    assert not np.signbit(got[:2]).any()
