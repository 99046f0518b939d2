"""Compiled kernel speedups: the four hot loops vs the NumPy reference.

Not a paper figure — the engineering benchmark behind ``repro.core.kernels``
(the backend-selected compiled inner loops).  Measures the best available
compiled backend (numba if installed, else the C extension) against the
pure-NumPy reference on representative sizes:

* IF membrane step at the batched-trainer shape (32 replicas x 1024
  neurons) and the chip's compartment step at (32, 256);
* Eq. (7) ``dW`` at the paper's MNIST MLP hidden layer (784 x 512) and the
  ordered batch reduction at B = 32;
* trace counter update at (32, 256) and the microcode sum-of-products at
  (512, 64).

Acceptance gate (full run): the compiled IF step and both dW kernels must
be >= 3x the NumPy reference.  Every run first re-asserts bit-identity on
the benchmark inputs before timing anything — a fast kernel that drifts
the math by one ulp is a wrong kernel, so there is no point measuring it.

``bench_kernels_smoke`` is the <60s CI variant: fewer repetitions and a
relaxed >= 1.5x gate (shared CI runners jitter too much for the full
bar), same bit-identity assertions.
"""

import time

import numpy as np
import pytest

from repro.core import kernels
from repro.loihi.microcode import parse_rule

from _bench_utils import write_bench_json

RULE = parse_rule("dw = 2^-7 * y1 * x1 - 2^-8 * t * x1")

#: Kernels whose full-run speedup is gated (the ISSUE's acceptance bar).
GATED = ("if_step", "delta_w", "delta_w_batch")


def _best_of(fn, repeats, inner=10):
    fn()  # warm-up (first call may touch lazy caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _cases(rng):
    """name -> zero-arg callable constructing fresh state and running once."""
    shape = (32, 1024)
    drive = rng.uniform(0.0, 1.0, shape)

    def case_if_step():
        v = np.zeros(shape)
        return lambda: kernels.if_step(v, drive)

    cshape = (32, 256)
    syn = rng.integers(0, 9000, cshape)

    def case_cuba_step():
        v = np.zeros(cshape, dtype=np.int64)
        bias = np.zeros(cshape, dtype=np.int64)
        return lambda: kernels.cuba_step(v, bias, syn, 256 << 6, True, False)

    spikes = rng.random(cshape) < 0.3

    def case_trace_update():
        values = np.zeros(cshape, dtype=np.int64)
        return lambda: kernels.trace_update(values, spikes, 127)

    n_pre, n_post = 784, 512
    h_hat = rng.random(n_post)
    h = rng.random(n_post)
    pre = rng.random(n_pre)

    def case_delta_w():
        return lambda: kernels.delta_w(h_hat, h, pre, 0.125)

    B, bn_pre, bn_post = 32, 512, 64
    bh_hat = rng.random((B, bn_post))
    bh = rng.random((B, bn_post))
    bpre = rng.random((B, bn_pre))

    def case_delta_w_batch():
        return lambda: kernels.delta_w_batch(bh_hat, bh, bpre, 0.125)

    S, D = 512, 64
    x0 = rng.integers(0, 2, S)
    x1 = rng.integers(0, 128, S)
    y0 = rng.integers(0, 2, D)
    y1 = rng.integers(0, 128, D)
    tag = rng.integers(-255, 256, (S, D))
    w = rng.integers(-127, 128, (S, D))

    def case_sum_of_products():
        return lambda: kernels.sum_of_products(RULE, x0, x1, y0, y1, tag, w)

    return {
        "if_step": (case_if_step, shape),
        "cuba_step": (case_cuba_step, cshape),
        "trace_update": (case_trace_update, cshape),
        "delta_w": (case_delta_w, (n_pre, n_post)),
        "delta_w_batch": (case_delta_w_batch, (B, bn_pre, bn_post)),
        "sum_of_products": (case_sum_of_products, (S, D)),
    }


def _assert_bit_identical(compiled, make):
    """The compiled backend reproduces NumPy's bits on the bench inputs."""
    def run(backend):
        with kernels.forced_backend(backend):
            fn = make()
            out = [np.asarray(fn()) for _ in range(3)]
        return out
    for ref, got in zip(run("numpy"), run(compiled)):
        assert ref.dtype == got.dtype and np.array_equal(ref, got), \
            f"{compiled} drifted from the NumPy reference on bench inputs"


def _run(variant, repeats, min_speedup):
    compiled = [b for b in kernels.available_backends() if b != "numpy"]
    if not compiled:
        pytest.skip("no compiled kernel backend available (numba or a C "
                    "compiler required)")
    backend = compiled[0]  # available_backends() follows preference order

    rng = np.random.default_rng(42)
    rows = {}
    for name, (make, shape) in _cases(rng).items():
        _assert_bit_identical(backend, make)
        with kernels.forced_backend("numpy"):
            t_numpy = _best_of(make(), repeats)
        with kernels.forced_backend(backend):
            t_compiled = _best_of(make(), repeats)
        rows[name] = {
            "shape": list(shape),
            "numpy_us": round(t_numpy * 1e6, 2),
            "compiled_us": round(t_compiled * 1e6, 2),
            "speedup": round(t_numpy / t_compiled, 2),
        }
        print(f"{name:18s} {str(shape):18s} numpy {t_numpy*1e6:8.1f}us  "
              f"{backend} {t_compiled*1e6:8.1f}us  "
              f"{t_numpy/t_compiled:5.1f}x")

    write_bench_json("kernels", {
        "variant": variant,
        "backend": backend,
        "available_backends": list(kernels.available_backends()),
        "min_speedup_gate": min_speedup,
        "gated_kernels": list(GATED),
        "kernels": rows,
    })
    for name in GATED:
        assert rows[name]["speedup"] >= min_speedup, \
            (f"{name}: compiled backend {backend!r} is only "
             f"{rows[name]['speedup']}x the NumPy reference "
             f"(gate: >= {min_speedup}x)")


def bench_kernels():
    """Full run: >= 3x gate on the IF step and both dW kernels."""
    _run(variant=None, repeats=30, min_speedup=3.0)


def bench_kernels_smoke():
    """CI smoke variant: same assertions, relaxed gate, <60s."""
    _run(variant="smoke", repeats=5, min_speedup=1.5)
