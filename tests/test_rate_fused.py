"""Fused ``kernels.rate_phase2`` against the NumPy reference.

With the ``cext`` backend the rate engine's phase 2 (every damped pass of
a ``(B, n)`` block) and its Eq. (7) write-back are one
``kernels.rate_phase2`` call; otherwise phase 2 is
:func:`repro.core.network.rate_phase2_reference` and the write-back
``WeightUpdater.apply`` / ``apply_batch``.  Phase 1 runs the same code on
both.  The kernel tests call both on the operands phase 1 gives a network
and compare every output byte (``tobytes``, so signed zeros count); the
network tests train twin networks, the fused leg with the reference
patched to fail so that a silent fallback cannot pass, and compare
weights and rounding-generator states too, also after the arrays the
network binds are replaced and after the network is copied.  The other
tests check the kernel's operand rule and its bound tables.
"""

import contextlib
import copy
import itertools
import pickle

import numpy as np
import pytest

from repro.core import (EMSTDPNetwork, WeightUpdater, full_precision_config,
                        kernels, loihi_default_config)
from repro.core import network as network_mod
from repro.core.encoding import label_indices
from repro.core.network import (PHASE2_ITERATIONS, _RateSolve,
                                rate_phase2_reference)
from repro.data import make_blobs

needs_cext = pytest.mark.skipif(
    "cext" not in kernels.available_backends(),
    reason="the fused phase 2 is implemented by the cext backend")

DIMS = {1: (12, 5), 2: (12, 9, 5), 3: (12, 9, 7, 5)}
CONFIGS = {"fp": full_precision_config, "8bit": loihi_default_config}


def _no_fallback(*args, **kwargs):
    raise AssertionError("a fused leg ran rate_phase2_reference")


@contextlib.contextmanager
def leg(backend):
    """Run on ``backend``; the fused leg fails if it runs the reference."""
    with kernels.forced_backend(backend), \
            pytest.MonkeyPatch.context() as mp:
        if backend != "numpy":
            mp.setattr(network_mod, "rate_phase2_reference", _no_fallback)
        yield


def _inputs(n_in, n_classes, n, seed):
    """Blob samples plus the edge rows: silent, saturated, out of [0, 1]."""
    X, y = make_blobs(n_in, n_classes, n, seed=seed, noise=0.15)
    X[0] = 0.0
    X[1] = 1.0
    X[2] = np.linspace(-0.2, 1.2, n_in)
    return X, y


def _operands(net, X, y):
    """The phase-2 arguments phase 1 gives ``net`` for the block ``X``,
    the weights and feedback as lists (the reference's form)."""
    cfg = net.config
    solve = _RateSolve(net, X)
    h = solve.forward()
    args = (net.dims, cfg.T, PHASE2_ITERATIONS, solve.drive, h[1:],
            net.weights, net.class_mask, label_indices(y, net.n_classes),
            net.feedback_weights)
    kwargs = dict(fa=cfg.feedback == "fa", bias_unit=bool(net._bias),
                  gate_hidden=cfg.gate_hidden, error_gain=cfg.error_gain)
    return args, kwargs


def _bound(args):
    """Reference ``args`` as the kernel takes them: the weights and the
    feedback bound into tables."""
    return (args[:5] + (kernels.array_table(args[5]),) + args[6:8]
            + (kernels.array_table(args[8]),))


def _both_legs(args, kwargs):
    """The reference's and the kernel's result for the same call."""
    with leg("numpy"):
        ref = rate_phase2_reference(*args, **kwargs)
    with leg("cext"):
        got = kernels.rate_phase2(*_bound(args), **kwargs)
    return ref, got


def _assert_same_bytes(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert (g.dtype, g.shape) == (r.dtype, r.shape)
        assert g.flags.c_contiguous
        assert g.tobytes() == r.tobytes()


# The ids keep a False slot where the retired gate_output axis stood, so
# each case keeps the name it had while that axis existed.
CASES = list(itertools.product(("fa", "dfa"), (True, False), (True, False),
                               (1, 2, 3)))
CASE_IDS = ["{}-{}-False-{}-{}".format(*case) for case in CASES]


@needs_cext
@pytest.mark.parametrize("feedback, gate_hidden, bias, layers", CASES,
                         ids=CASE_IDS)
def test_kernel_equals_reference(feedback, gate_hidden, bias, layers):
    """Every pass's rates, for B = 0, 1 and 7 (the first three rows the
    edge rows), T = 64 and 20, full-precision and 8-bit weights scaled
    by 1.5 (on their grid) so that rates saturate, with every class
    enabled and with two masked out."""
    dims = DIMS[layers]
    X, y = _inputs(dims[0], dims[-1], 12, seed=layers)
    moved = 0
    for T, config in itertools.product((64, 20), CONFIGS):
        cfg = CONFIGS[config](seed=3, phase_length=T, feedback=feedback,
                              gate_hidden=gate_hidden, use_bias_neuron=bias)
        net = EMSTDPNetwork(dims, cfg)
        net.weights = [net.updater.project(1.5 * w) for w in net.weights]
        for masked, batch in itertools.product((False, True), (0, 1, 7)):
            if masked:
                net.set_class_mask(range(dims[-1] - 2))
            else:
                net.clear_class_mask()
            args, kwargs = _operands(net, X[:batch], y[:batch])
            ref, got = _both_legs(args, kwargs)
            _assert_same_bytes(ref, got)
            moved += any(not np.array_equal(r, h)
                         for r, h in zip(ref, args[4]))
    assert moved  # the error path moved phase 2


@needs_cext
@pytest.mark.parametrize("fa", [True, False])
@pytest.mark.parametrize("iterations", [0, 1, 8])
def test_kernel_equals_reference_on_wide_layers(fa, iterations):
    """Layers wide enough for every part of the C row sum (whole vector
    blocks, single vectors, scalars), forward and feedback, with weights
    of mixed magnitudes (the row-order tests below pin the order itself);
    zero passes return the phase-1 rates."""
    rng = np.random.default_rng(11)
    dims = (45, 53, 37, 10)
    weights = [rng.standard_normal((dims[i] + 1, dims[i + 1]))
               * 10.0 ** rng.integers(-6, 3, (dims[i] + 1, 1))
               for i in range(3)]
    feedback = [rng.standard_normal((dims[i + 2] if fa else 10, dims[i + 1]))
                * 10.0 ** rng.integers(-6, 3, (dims[i + 2] if fa else 10, 1))
                for i in range(2)]
    T = 20
    drive = np.floor(rng.uniform(0, 1, (3, 53)) * T) / T
    h = [drive, np.floor(rng.uniform(0, 1, (3, 37)) * T) / T,
         np.floor(rng.uniform(0, 1, (3, 10)) * T) / T]
    labels = rng.integers(0, 10, 3)
    args = (dims, T, iterations, drive, h, weights, np.ones(10, dtype=bool),
            labels, feedback)
    ref, got = _both_legs(args, dict(fa=fa, gate_hidden=False,
                                     error_gain=2.0))
    _assert_same_bytes(ref, got)
    if iterations == 0:
        _assert_same_bytes(h, got)
    else:
        assert not np.array_equal(got[0], h[0])


ORDER_CASES = [  # rows, bias row, row-order sum
    ([1.0, 1e16, -1e16], False, 0.0),      # reversed: 1
    ([1e16, -1e16, 1.0], True, 1.0),       # bias row first: 0
    ([1e16, 1.0, -1e16, 1.0], False, 1.0),  # pairwise or reversed: 0
]


@needs_cext
@pytest.mark.parametrize("cols", [1, 5, 37])
@pytest.mark.parametrize("rows, bias, total", ORDER_CASES)
def test_corrected_pass_sums_rows_in_row_order(rows, bias, total, cols):
    """Saturated hidden rates into outputs whose drive depends on the
    order of the sum (1e16 + 1 rounds to 1e16): only the row-order sum,
    bias row last, gives the expected rate of 0 or 1.  With no error
    (``error_gain = 0``) nothing corrects it.  37 columns cover each part
    of the C row sum: whole blocks of vectors, single vectors and
    scalars."""
    k = len(rows) - bias
    dims = (1, k, cols)
    weights = [np.zeros((1 + bias, k)),
               np.repeat(np.array(rows)[:, None], cols, axis=1)]
    args = (dims, 64, 1, np.ones((1, k)), [np.ones((1, k)),
                                           np.zeros((1, cols))],
            weights, np.ones(cols, dtype=bool), np.array([0]),
            [np.zeros((cols, k))])
    ref, got = _both_legs(args, dict(bias_unit=bias, error_gain=0.0))
    _assert_same_bytes(ref, got)
    assert got[1].tolist() == [[total] * cols]


@needs_cext
@pytest.mark.parametrize("cols", [1, 5, 37])
@pytest.mark.parametrize("rows, total", [(rows, total) for rows, bias, total
                                         in ORDER_CASES if not bias])
def test_feedback_product_sums_rows_in_row_order(rows, total, cols):
    """One DFA pass: the label's output is silent and every other output
    saturated, so each output error is +1 or -1 and its damped correction
    +0.5 or -0.5.  The feedback rows are twice the rows with the same
    signs, so each product is exactly its row, and the hidden drive is
    the row-order sum of the rows; a hidden correction of 0.5 shows the
    sum was 1."""
    m = len(rows)
    dims = (1, cols, m)
    signs = np.where(np.arange(m) == 0, 1.0, -1.0)  # label 0
    feedback = np.repeat((2.0 * signs * np.array(rows))[:, None], cols,
                         axis=1)
    args = (dims, 64, 1, np.zeros((1, cols)),
            [np.zeros((1, cols)), (signs < 0)[None].astype(float)],
            [np.zeros((2, cols)), np.zeros((cols + 1, m))],
            np.ones(m, dtype=bool), np.array([0]), [feedback])
    ref, got = _both_legs(args, dict(gate_hidden=False))
    _assert_same_bytes(ref, got)
    assert got[0].tolist() == [[0.5 * total] * cols]


def _train(backend, dims, cfg, X, y):
    """Everything the rate engine computes for one network and stream."""
    net = EMSTDPNetwork(dims, cfg)
    # A Fortran-ordered weight is public-API input the C loop cannot read.
    net.weights = [np.asfortranarray(w) for w in net.weights]
    out = {}
    with leg(backend):
        for name, xs, ys in (("x", X[3], int(y[3])), ("B7", X[:7], y[:7])):
            h, h_hat = net._rate_solve(xs, ys)
            out.update({f"{name}_h_hat{i}": r for i, r in enumerate(h_hat)})
        res = net.fit_batch(X[:8], y[:8], update_mode="minibatch")
        out["minibatch"] = res["predictions"]
        net.set_class_mask(range(dims[-1] - 1))
        res = net.fit_batch(X[8:14], y[8:14], update_mode="online")
        out["online"] = res["predictions"]
        out["stream"] = np.array(net.train_stream(X[14:], y[14:]))
        out.update({f"w{i}": w for i, w in enumerate(net.weights)})
        out["predict"] = net.predict_batch(X)
    return out


@needs_cext
@pytest.mark.parametrize("feedback, config", list(itertools.product(
    ("fa", "dfa"), CONFIGS)))
def test_network_fused_equals_reference(feedback, config):
    """Online and minibatch training and the solves in between have the
    same bytes on the fused and the reference path."""
    dims = DIMS[3]
    X, y = _inputs(dims[0], dims[-1], 40, seed=5)
    cfg = CONFIGS[config](seed=7, feedback=feedback, phase_length=20)
    ref = _train("numpy", dims, cfg, X, y)
    got = _train("cext", dims, cfg, X, y)
    assert ref.keys() == got.keys()
    for key, want in ref.items():
        assert got[key].dtype == want.dtype, key
        assert got[key].tobytes() == want.tobytes(), key


@needs_cext
def test_rejects_malformed_operands_before_the_backend(monkeypatch):
    """A wrong dtype, shape or layout raises ``TypeError`` naming the
    operand, as do weights or feedback not bound into a table, and a
    wrong array count ``ValueError``, before the backend is called."""
    dims = (3, 4, 2)
    good = dict(drive=np.zeros((2, 4)), h=[np.zeros((2, 4)), np.zeros((2, 2))],
                weights=[np.zeros((4, 4)), np.zeros((5, 2))],
                class_mask=np.ones(2, dtype=bool),
                labels=np.zeros(2, dtype=np.int64),
                feedback=[np.zeros((2, 4))])

    def call(bind=kernels.array_table, **changes):
        ops = dict(good, **changes)
        return kernels.rate_phase2(
            dims, 64, 8, ops["drive"], ops["h"], bind(ops["weights"]),
            ops["class_mask"], ops["labels"], bind(ops["feedback"]))

    with kernels.forced_backend("cext"):
        assert [r.shape for r in call()] == [(2, 4), (2, 2)]
        impl = kernels._impl()
        monkeypatch.setattr(impl, "rate_phase2", _no_fallback)
        w0, h0 = good["weights"][0], good["h"][0]
        for changes, match in (
                ({"weights": [np.zeros((3, 4)), good["weights"][1]]},
                 "weights\\[0\\].*shape \\(3, 4\\)"),
                ({"weights": [np.zeros((4, 8))[:, ::2], good["weights"][1]]},
                 "weights\\[0\\].*non-contiguous"),
                ({"weights": [w0.astype(np.float32), good["weights"][1]]},
                 "weights\\[0\\].*float32"),
                ({"weights": [np.zeros((4, 4), order="F"),
                              good["weights"][1]]}, "non-contiguous"),
                ({"h": [h0, np.zeros((2, 3))]}, "h\\[1\\]"),
                ({"h": [h0.astype(np.float32), good["h"][1]]},
                 "h\\[0\\].*float32"),
                ({"feedback": [np.zeros((4, 2))]}, "feedback\\[0\\]"),
                ({"class_mask": np.ones(2)}, "class_mask.*float64"),
                ({"class_mask": np.ones(3, dtype=bool)}, "class_mask"),
                ({"labels": np.zeros(3, dtype=np.int64)}, "labels"),
                ({"labels": np.zeros(4, dtype=np.int64)[::2]},
                 "labels.*non-contiguous"),
                ({"labels": np.zeros(2)}, "labels.*float64"),
                ({"drive": np.zeros(4)}, "drive"),
                ({"drive": [[0.0] * 4] * 2}, "drive.*list"),
                ({"bind": list}, "weights must be an ArrayTable"),
                ({"bind": lambda a: (a if a is good["feedback"]
                                     else kernels.array_table(a))},
                 "feedback must be an ArrayTable")):
            with pytest.raises(TypeError, match=match):
                call(**changes)
        for changes, match in (
                ({"weights": [w0, w0, w0]}, "3 weight arrays for 2 layers"),
                ({"feedback": []}, "0 feedback arrays"),
                ({"h": [h0]}, "1 rate arrays")):
            with pytest.raises(ValueError, match=match):
                call(**changes)


def test_numpy_backend_has_no_fused_phase2():
    with kernels.forced_backend("numpy"):
        assert not kernels.backend_provides("rate_phase2")
        with pytest.raises(NotImplementedError, match="rate_phase2"):
            kernels.rate_phase2((3, 2), 64, 8, np.zeros((1, 2)),
                                [np.zeros((1, 2))],
                                kernels.array_table([np.zeros((4, 2))]),
                                np.ones(2, dtype=bool),
                                np.zeros(1, dtype=np.int64),
                                kernels.array_table([]))


# -- the fused Eq. (7) write-back and the bound weight tables -------------

def _state_bytes(net):
    """Every weight's bytes and the rounding generator's state."""
    return ([w.tobytes() for w in net.weights],
            net.rng.bit_generator.state)


def _replace(net, how, donor):
    """Replace the network's arrays between samples, as a user may."""
    if how == "load_state_dict":
        net.load_state_dict(donor.state_dict())
    elif how == "fortran":
        net.weights = [np.asfortranarray(w) for w in donor.weights]
    elif how == "strided":
        # The same values every other column of a wider block.
        net.weights[-1] = np.repeat(donor.weights[-1], 2, axis=1)[:, ::2]
        net.feedback_weights[0] = np.repeat(donor.feedback_weights[0], 2,
                                            axis=0)[::2]
    elif how == "mask":
        net.set_class_mask(range(net.n_classes - 2))
    else:
        raise AssertionError(how)


def _rebind_schedule(backend, cfg, how):
    """Train online, replace the arrays, train on; every sample's rates,
    the weights and the generator state after each stage."""
    dims = DIMS[3]
    X, y = _inputs(dims[0], dims[-1], 40, seed=9)
    net = EMSTDPNetwork(dims, cfg)
    donor = EMSTDPNetwork(dims, cfg.replace(seed=cfg.seed + 1))
    donor.train_stream(X[20:30], y[20:30])
    out = []
    with leg(backend):
        for k in range(4):
            out.append(net.train_sample(X[k], int(y[k]))["h_hat"])
        out.append(_state_bytes(net))
        _replace(net, how, donor)
        for k in range(4, 8):
            out.append(net.train_sample(X[k], int(y[k]),
                                        lr_scale=0.3)["h_hat"])
        if how == "mask":
            net.clear_class_mask()
        out.append(net.fit_batch(X[8:14], y[8:14], update_mode="minibatch",
                                 lr_scale=0.3)["predictions"])
        out.append(net.train_sample(X[14], int(y[14]))["h_hat"])
        out.append(_state_bytes(net))
    return net, out


def _flat_bytes(value):
    if isinstance(value, np.ndarray):
        return [(value.dtype.str, value.shape, value.tobytes())]
    if isinstance(value, (list, tuple)):
        return [b for v in value for b in _flat_bytes(v)]
    return [value]


@needs_cext
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("how", ["load_state_dict", "fortran", "strided",
                                 "mask"])
def test_tables_rebind_when_arrays_are_replaced(how, config):
    """Replacing the weights between samples (``load_state_dict``, a new
    Fortran-ordered list, a strided weight and feedback matrix) or the
    class mask gives the fused leg the same bytes as the reference: it
    reads the new arrays, not the ones it bound first.  A copied layout
    is copied once: afterwards every array is C-contiguous, bound and
    trained in place."""
    cfg = CONFIGS[config](seed=7, phase_length=20)
    ref_net, ref = _rebind_schedule("numpy", cfg, how)
    net, got = _rebind_schedule("cext", cfg, how)
    assert _flat_bytes(got) == _flat_bytes(ref)
    weights, feedback = net._bound
    for arrays, table in ((net.weights, weights),
                          (net.feedback_weights, feedback)):
        assert all(a is b for a, b in zip(arrays, table.arrays))
        assert all(a.flags.c_contiguous for a in arrays)


def test_array_table_is_sealed_and_copies_bind_their_own_arrays():
    """A table is made only by ``array_table`` and cannot be changed, so
    its addresses are those of its arrays; a copy, a deep copy and an
    unpickled table each hold their arrays' addresses."""
    arrays = [np.arange(6.0).reshape(2, 3), np.ones((4, 1))]
    table = kernels.array_table(arrays)
    with pytest.raises(TypeError, match="array_table"):
        kernels.ArrayTable(table.arrays, table._addresses, table.address)
    with pytest.raises(AttributeError, match="read-only"):
        table.arrays = (np.zeros((2, 3)), arrays[1])
    with pytest.raises(ValueError, match="read-only"):
        table._addresses[0] = 0
    for twin in (table, copy.copy(table), copy.deepcopy(table),
                 pickle.loads(pickle.dumps(table))):
        assert isinstance(twin, kernels.ArrayTable)
        assert [a.tobytes() for a in twin.arrays] == [
            a.tobytes() for a in arrays]
        assert twin._addresses.tolist() == [
            a.ctypes.data for a in twin.arrays]
        assert twin.address == twin._addresses.ctypes.data


@needs_cext
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copied_network_trains_its_own_weights(how, config):
    """A deep copy or an unpickled copy of a trained network binds its
    own weights: training it leaves the original's bytes as they were,
    and it ends where a twin trained without copying ends."""
    dims = DIMS[2]
    X, y = _inputs(dims[0], dims[-1], 18, seed=10)
    cfg = CONFIGS[config](seed=5, phase_length=20)
    with leg("cext"):
        original, twin = EMSTDPNetwork(dims, cfg), EMSTDPNetwork(dims, cfg)
        for net in (original, twin):
            net.fit_batch(X[:6], y[:6], update_mode="online")
        clone = (copy.deepcopy(original) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(original)))
        before = _state_bytes(original)
        for net in (clone, twin):
            net.fit_batch(X[6:12], y[6:12], update_mode="online")
            net.fit_batch(X[12:], y[12:], update_mode="minibatch")
    assert _state_bytes(original) == before
    assert _state_bytes(clone) == _state_bytes(twin)
    assert _state_bytes(clone)[0] != before[0]


@needs_cext
@pytest.mark.parametrize("feedback", ["fa", "dfa"])
@pytest.mark.parametrize("stochastic", [True, False])
def test_write_back_draws_the_reference_uniforms(feedback, stochastic):
    """8-bit weights: after online ``fit_batch``, minibatch ``fit_batch``
    and ``train_stream`` (at a learning-rate scale that is not a power of
    two, so ``eta * (p * d)`` and ``(eta * p) * d`` differ) the weights
    and the rounding generator's state have the reference's bytes."""
    dims = DIMS[2]
    X, y = _inputs(dims[0], dims[-1], 30, seed=4)
    cfg = loihi_default_config(seed=2, feedback=feedback, phase_length=20,
                               stochastic_rounding=stochastic)
    legs = {}
    for backend in ("numpy", "cext"):
        net = EMSTDPNetwork(dims, cfg)
        stages = []
        with leg(backend):
            net.fit_batch(X[:8], y[:8], update_mode="online", lr_scale=0.3)
            stages.append(_state_bytes(net))
            net.fit_batch(X[8:16], y[8:16], update_mode="minibatch",
                          lr_scale=0.3)
            stages.append(_state_bytes(net))
            net.train_stream(X[16:], y[16:], lr_scale=0.3)
            stages.append(_state_bytes(net))
        legs[backend] = stages
    assert legs["cext"] == legs["numpy"]
    moved = [s[1] != legs["numpy"][0][1] for s in legs["numpy"][1:]]
    assert all(moved) == stochastic  # only stochastic rounding draws


@pytest.mark.parametrize("backend", [
    "numpy", pytest.param("cext", marks=needs_cext)])
@pytest.mark.parametrize("config", CONFIGS)
def test_training_updates_the_weights_in_place(backend, config):
    """Every training call writes into the weight arrays the network
    holds: each stays the same object, while a ``state_dict`` taken
    before training keeps its bytes."""
    dims = DIMS[2]
    X, y = _inputs(dims[0], dims[-1], 24, seed=6)
    net = EMSTDPNetwork(dims, CONFIGS[config](seed=1, phase_length=20))
    arrays = list(net.weights)
    snapshot = net.state_dict()
    before = [w.tobytes() for w in snapshot["weights"]]
    with leg(backend):
        net.train_sample(X[0], int(y[0]))
        net.fit_batch(X[1:8], y[1:8], update_mode="online")
        net.fit_batch(X[8:16], y[8:16], update_mode="minibatch")
        net.train_stream(X[16:], y[16:])
    assert all(a is b for a, b in zip(net.weights, arrays))
    assert [w.tobytes() for w in snapshot["weights"]] == before
    assert [w.tobytes() for w in net.weights] != before


@needs_cext
def test_malformed_weight_between_samples_fails_before_the_backend(
        monkeypatch):
    """A bound weight reinterpreted in place (same object, so no rebind),
    a column assigned as the output weights and a wrong-shape feedback
    matrix each raise ``TypeError`` naming the array before the backend
    runs, with nothing trained: no sample counted, no weight written, no
    uniform drawn."""
    dims = DIMS[2]
    X, y = _inputs(dims[0], dims[-1], 4, seed=8)
    cases = (
        (lambda net: setattr(net.weights[0], "dtype", np.int64),
         r"weights\[0\] must be .*float64.*got .* int64"),
        (lambda net: net.weights.__setitem__(
            1, np.zeros((dims[1] + 1, 1))), r"weights\[1\] .*shape \(10, 1\)"),
        (lambda net: net.feedback_weights.__setitem__(
            0, np.zeros((dims[1], dims[-1]))), r"feedback\[0\]"),
    )
    for corrupt, match in cases:
        net = EMSTDPNetwork(dims, loihi_default_config(seed=3,
                                                        phase_length=20))
        with kernels.forced_backend("cext"):
            net.train_sample(X[0], int(y[0]))
            corrupt(net)
            before = _state_bytes(net)
            with monkeypatch.context() as mp:
                mp.setattr(kernels._impl(), "rate_phase2", _no_fallback)
                with pytest.raises(TypeError, match=match):
                    net.train_sample(X[1], int(y[1]))
        assert net.samples_seen == 1
        assert _state_bytes(net) == before


def _reference_write_back(args, kwargs, update):
    """``rate_phase2_reference``, then ``WeightUpdater``'s Eq. (7)
    write-back of its rates into copies of the weights."""
    h, weights = args[4], args[5]
    h_hat = rate_phase2_reference(*args, **kwargs)
    updater = WeightUpdater(update.eta, update.bits, update.clip,
                            stochastic_rounding=update.rng is not None,
                            rng=update.rng)
    pre = [update.pre] + list(h[:-1])
    new = []
    for i, w in enumerate(weights):
        p = pre[i]
        if kwargs.get("bias_unit", True):
            p = np.concatenate([p, np.ones((len(p), 1))], axis=1)
        new.append(updater.apply_batch(w, h_hat[i], h[i], p) if update.mean
                   else updater.apply(w, h_hat[i][0], h[i][0], p[0]))
    return h_hat, new


def _fused_write_back(args, kwargs, update):
    """``kernels.rate_phase2`` with the write-back, into copies."""
    weights = [w.copy() for w in args[5]]
    with leg("cext"):
        h_hat = kernels.rate_phase2(*_bound(args[:5] + (weights,) + args[6:]),
                                    update=update, **kwargs)
    return h_hat, weights


GRIDS = {"none": {}, "nearest": dict(clip=1.5, bits=8),
         "stochastic": dict(clip=1.5, bits=6, rng=True)}


@needs_cext
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("mean", [False, True])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_write_back_equals_weight_updater(grid, mean, bias, layers):
    """The fused write-back has the bytes of ``WeightUpdater.apply`` (one
    blob sample) or ``apply_batch``'s mean (7 samples, the edge rows
    first), with no grid, round to nearest and stochastic rounding (the
    same uniforms drawn: the generators end in one state), at a learning
    rate that is not a power of two (so ``eta * (p * d)`` and ``(eta *
    p) * d`` differ) and with a clip that binds."""
    dims = DIMS[layers]
    X, y = _inputs(dims[0], dims[-1], 7, seed=layers)
    cfg = full_precision_config(seed=4, phase_length=20,
                                use_bias_neuron=bias)
    net = EMSTDPNetwork(dims, cfg)
    net.weights = [net.updater.project(2.0 * w) for w in net.weights]
    rows = slice(0, 7) if mean else slice(3, 4)
    args, kwargs = _operands(net, X[rows], y[rows])
    pre = _RateSolve(net, X[rows]).q0
    legs = []
    for write_back in (_reference_write_back, _fused_write_back):
        options = dict(GRIDS[grid])
        if options.get("rng"):
            options["rng"] = np.random.default_rng(9)
        update = kernels.RateUpdate(pre, 0.3, mean, **options)
        h_hat, weights = write_back(args, kwargs, update)
        legs.append((h_hat, weights, options.get("rng") and
                     options["rng"].bit_generator.state))
    (ref_hat, ref_w, ref_rng), (got_hat, got_w, got_rng) = legs
    _assert_same_bytes(ref_hat, got_hat)
    _assert_same_bytes(ref_w, got_w)
    assert got_rng == ref_rng
    assert any(not np.array_equal(w, w0) for w, w0 in zip(got_w, args[5]))


@needs_cext
@pytest.mark.parametrize("grid", ["none", "nearest", "stochastic"])
def test_write_back_keeps_the_reference_signed_zeros(grid):
    """A weight of -0.0 on a silent input gets ``dw = eta * (0 * d)``:
    -0.0 where the output was pushed down (``d < 0``), +0.0 where it was
    pushed up.  ``w + dw`` is then -0.0 and +0.0; ``np.round`` and no
    grid keep the -0.0, and stochastic rounding's ``floor + (u < frac)``
    turns it into +0.0.  The fused write-back does the same."""
    dims = (1, 1, 2)
    # The hidden neuron is silent and output 0 fires (through the bias
    # row) for a sample of class 1: phase 2 moves output 0 down to 0.5
    # and output 1 up to 0.5.
    weights = [np.zeros((2, 1)), np.array([[-0.0, -0.0], [1.0, 0.0]])]
    args = (dims, 64, 8, np.zeros((1, 1)),
            [np.zeros((1, 1)), np.array([[1.0, 0.0]])], weights,
            np.ones(2, dtype=bool), np.array([1]), [np.zeros((2, 1))])
    kwargs = dict(gate_hidden=False)
    options = dict(GRIDS[grid])
    out = []
    for write_back in (_reference_write_back, _fused_write_back):
        if options.get("rng"):
            options["rng"] = np.random.default_rng(3)
        update = kernels.RateUpdate(np.zeros((1, 1)), 0.3, **options)
        h_hat, new = write_back(args, kwargs, update)
        out.append(new)
        assert h_hat[1].tolist() == [[0.5, 0.5]]
    _assert_same_bytes(*out)
    zeros = out[1][1][0]
    assert zeros.tolist() == [0.0, 0.0]
    assert np.signbit(zeros).tolist() == [grid != "stochastic", False]


@needs_cext
def test_update_rejects_what_it_cannot_apply(monkeypatch):
    """A per-sample update of a block, a mean of no samples, a grid
    without a clip range and an out-of-range label raise ``ValueError``,
    and a misshapen ``pre`` or a read-only weight ``TypeError``, before
    the backend runs or a uniform is drawn."""
    dims = (3, 4, 2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def call(batch, update, labels=None, weights=None):
        weights = weights or [np.zeros((4, 4)), np.zeros((5, 2))]
        return kernels.rate_phase2(
            dims, 64, 8, np.zeros((batch, 4)),
            [np.zeros((batch, 4)), np.zeros((batch, 2))],
            kernels.array_table(weights), np.ones(2, dtype=bool),
            np.zeros(batch, dtype=np.int64) if labels is None else labels,
            kernels.array_table([np.zeros((2, 4))]), update=update)

    with kernels.forced_backend("cext"):
        monkeypatch.setattr(kernels._impl(), "rate_phase2", _no_fallback)
        pre = {b: np.zeros((b, 3)) for b in (0, 1, 2)}
        for batch, update, labels, match in (
                (2, kernels.RateUpdate(pre[2], 0.1), None, "one sample"),
                (0, kernels.RateUpdate(pre[0], 0.1, mean=True), None,
                 "empty batch"),
                (1, kernels.RateUpdate(pre[1], 0.1, bits=8, rng=rng), None,
                 "clip range"),
                (1, kernels.RateUpdate(pre[1], 0.1, clip=1.0, bits=8,
                                       rng=rng),
                 np.array([2]), r"labels must be in \[0, 2\)"),
                (2, None, np.array([0, -1]), r"labels must be in")):
            with pytest.raises(ValueError, match=match):
                call(batch, update, labels)
        with pytest.raises(TypeError, match=r"update\.pre"):
            call(1, kernels.RateUpdate(np.zeros((1, 4)), 0.1))
        frozen = np.zeros((5, 2))
        frozen.flags.writeable = False
        with pytest.raises(TypeError, match=r"weights\[1\] is read-only"):
            call(1, kernels.RateUpdate(pre[1], 0.1, clip=1.0, bits=8,
                                       rng=rng),
                 weights=[np.zeros((4, 4)), frozen])
    assert rng.bit_generator.state == state
