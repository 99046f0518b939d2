"""Fused ``kernels.rate_phase2`` against the NumPy reference.

With the ``cext`` backend the rate engine's phase 2 (every damped pass of
a ``(B, n)`` block) is one ``kernels.rate_phase2`` call; otherwise it is
:func:`repro.core.network.rate_phase2_reference`.  Phase 1 runs the same
code on both.  The kernel tests call both on the operands phase 1 gives a
network and compare every output byte (``tobytes``, so signed zeros
count); the network tests train twin networks, the fused leg with the
reference patched to fail so that a silent fallback cannot pass.  The
last tests check the kernel's operand rule.
"""

import contextlib
import itertools

import numpy as np
import pytest

from repro.core import (EMSTDPNetwork, full_precision_config, kernels,
                        loihi_default_config)
from repro.core import network as network_mod
from repro.core.encoding import encode_labels
from repro.core.network import _RateSolve, rate_phase2_reference
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
    """The phase-2 arguments phase 1 gives ``net`` for the block ``X``."""
    cfg = net.config
    solve = _RateSolve(net, X)
    h = solve.forward()
    target = encode_labels(y, net.n_classes) * solve.mask
    args = (net.dims, cfg.T, cfg.phase2_iterations, solve.drive, h[1:],
            net.weights, net.class_mask, target, net.feedback_weights)
    kwargs = dict(fa=cfg.feedback == "fa", bias_unit=bool(net._bias),
                  gate_hidden=cfg.gate_hidden, gate_output=cfg.gate_output,
                  error_gain=cfg.error_gain,
                  hidden_error_gain=cfg.hidden_error_gain)
    return args, kwargs


def _both_legs(args, kwargs):
    """The reference's and the kernel's result for the same call."""
    with leg("numpy"):
        ref = rate_phase2_reference(*args, **kwargs)
    with leg("cext"):
        got = kernels.rate_phase2(*args, **kwargs)
    return ref, got


def _assert_same_bytes(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert (g.dtype, g.shape) == (r.dtype, r.shape)
        assert g.flags.c_contiguous
        assert g.tobytes() == r.tobytes()


@needs_cext
@pytest.mark.parametrize(
    "feedback, gate_hidden, gate_output, bias, layers",
    list(itertools.product(("fa", "dfa"), (True, False), (False, True),
                           (True, False), (1, 2, 3))))
def test_kernel_equals_reference(feedback, gate_hidden, gate_output, bias,
                                 layers):
    """Every pass's rates, for B = 0, 1 and 7 (the first three rows the
    edge rows), T = 64 and 20, full-precision and 8-bit weights, with
    every class enabled and with two masked out."""
    dims = DIMS[layers]
    X, y = _inputs(dims[0], dims[-1], 12, seed=layers)
    moved = 0
    for T, config in itertools.product((64, 20), CONFIGS):
        cfg = CONFIGS[config](seed=3, phase_length=T, feedback=feedback,
                              gate_hidden=gate_hidden,
                              gate_output=gate_output, use_bias_neuron=bias,
                              init_scale=1.5)
        net = EMSTDPNetwork(dims, cfg)
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
    target = np.eye(10)[rng.integers(0, 10, 3)]
    args = (dims, T, iterations, drive, h, weights, np.ones(10, dtype=bool),
            target, feedback)
    ref, got = _both_legs(args, dict(fa=fa, gate_hidden=False,
                                     error_gain=2.0, hidden_error_gain=0.5))
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
            weights, np.ones(cols, dtype=bool), np.zeros((1, cols)),
            [np.zeros((cols, k))])
    ref, got = _both_legs(args, dict(bias_unit=bias, error_gain=0.0))
    _assert_same_bytes(ref, got)
    assert got[1].tolist() == [[total] * cols]


@needs_cext
@pytest.mark.parametrize("cols", [1, 5, 37])
@pytest.mark.parametrize("rows, total", [(rows, total) for rows, bias, total
                                         in ORDER_CASES if not bias])
def test_feedback_product_sums_rows_in_row_order(rows, total, cols):
    """One DFA pass: every output error is 1, so its damped correction is
    0.5, and the hidden drive is the row-order sum of twice the feedback
    rows; a hidden correction of 0.5 shows the sum was 1."""
    m = len(rows)
    dims = (1, cols, m)
    feedback = np.repeat(2.0 * np.array(rows)[:, None], cols, axis=1)
    args = (dims, 64, 1, np.zeros((1, cols)), [np.zeros((1, cols)),
                                               np.zeros((1, m))],
            [np.zeros((2, cols)), np.zeros((cols + 1, m))],
            np.ones(m, dtype=bool), np.ones((1, m)), [feedback])
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
            h, h_hat = net._rate_two_phase(xs, ys)
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
    operand, and a wrong array count ``ValueError``, before the backend
    is called."""
    dims = (3, 4, 2)
    good = dict(drive=np.zeros((2, 4)), h=[np.zeros((2, 4)), np.zeros((2, 2))],
                weights=[np.zeros((4, 4)), np.zeros((5, 2))],
                class_mask=np.ones(2, dtype=bool), target=np.zeros((2, 2)),
                feedback=[np.zeros((2, 4))])

    def call(**changes):
        ops = dict(good, **changes)
        return kernels.rate_phase2(
            dims, 64, 8, ops["drive"], ops["h"], ops["weights"],
            ops["class_mask"], ops["target"], ops["feedback"])

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
                ({"target": np.zeros((3, 2))}, "target"),
                ({"target": np.zeros((2, 4))[:, ::2]},
                 "target.*non-contiguous"),
                ({"drive": np.zeros(4)}, "drive"),
                ({"drive": [[0.0] * 4] * 2}, "drive.*list")):
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
                                [np.zeros((1, 2))], [np.zeros((4, 2))],
                                np.ones(2, dtype=bool), np.zeros((1, 2)))
