"""Observability overhead gate: instrumentation must stay under 3%.

Not a paper figure — the engineering benchmark behind ``repro.obs``.  The
observability layer is on by default (sampled kernel profiling, labeled
metrics on the serving path), so its cost is paid by every training run
and every served request.  This benchmark measures that cost directly by
timing the same workload twice:

* **on** — the default configuration: kernel profiling at the default
  sampling stride (time 1 call in 64, count all), metrics registry
  enabled.  No trace sink is bound, matching the default (tracing only
  writes when a run directory or ``REPRO_OBS_TRACE_FILE`` binds one, and
  span boundaries sit far above the per-call hot path anyway);
* **off** — ``kernel_profiler.sample = 0`` (the wrapper collapses to a
  single branch) and ``metrics.enabled = False``.

Two workload classes, because the overhead lands in different places:

* **kernels** — the wrapped hot loops at training shapes (the IF membrane
  step on 64 x 4096 state, Eq. (7) batched ``dW`` at B = 32).  Per-call
  bookkeeping is a dict upsert; at these shapes the array math dominates;
* **serving** — sequential ``predict`` against an in-process
  :class:`InferenceService` (spike backend, cache off, ``max_batch=1`` so
  dispatch is immediate).  Per-request cost is a few counter increments
  and one histogram observation.

Acceptance gate (full run): every workload's overhead is < 3%.
``bench_obs_overhead_smoke`` is the <60s CI variant: fewer repetitions
and a relaxed < 10% gate (shared CI runners jitter more than the
overhead being measured), same workloads.
"""

import time

import numpy as np

from repro import obs
from repro.core import EMSTDPNetwork, full_precision_config, kernels
from repro.serve import InferenceService, ModelRegistry

from _bench_utils import make_blobs, write_bench_json

#: Default profiling stride the "on" configuration pins (decoupled from the
#: ambient ``REPRO_OBS_KERNEL_SAMPLE`` so the bench measures the shipped
#: default, not whatever the environment happens to override).
DEFAULT_SAMPLE = 64


class _obs_config:
    """Pin the observability switches for one timed configuration."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def __enter__(self):
        self._sample = obs.kernel_profiler.sample
        self._metrics = obs.metrics.enabled
        obs.kernel_profiler.sample = DEFAULT_SAMPLE if self.enabled else 0
        obs.metrics.enabled = self.enabled
        return self

    def __exit__(self, *exc):
        obs.kernel_profiler.sample = self._sample
        obs.metrics.enabled = self._metrics


def _best_of(fn, repeats, inner):
    fn()  # warm-up (first call may touch lazy caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _kernel_cases(rng):
    """name -> zero-arg callable running one wrapped-kernel call.

    Training shapes on purpose: at tiny shapes Python call dispatch (with
    or without the profiler) dwarfs the array math and the ratio measures
    interpreter noise, not instrumentation.
    """
    shape = (64, 4096)
    v = np.zeros(shape)
    drive = rng.uniform(0.0, 1.0, shape)

    B, n_pre, n_post = 32, 512, 64
    bh_hat = rng.random((B, n_post))
    bh = rng.random((B, n_post))
    bpre = rng.random((B, n_pre))

    return {
        "if_step": lambda: kernels.if_step(v, drive),
        "delta_w_batch": lambda: kernels.delta_w_batch(
            bh_hat, bh, bpre, 0.125),
    }


def _serving_seconds_per_request(n_requests, rounds=3):
    """Best-of-rounds seconds per sequential predict, current obs config."""
    dims = (16, 32, 4)
    net = EMSTDPNetwork(dims, full_precision_config(
        seed=1, dynamics="spike", phase_length=16))
    registry = ModelRegistry()
    registry.register("spike-net", net)
    # Cache off and max_batch=1: every request does real inference and
    # dispatches immediately, so the ratio is not diluted by batcher
    # deadline waits.
    service = InferenceService(registry, max_batch=1, max_wait_ms=5.0,
                               cache_size=0, workers=1)
    xs, _ = make_blobs(dims[0], dims[-1], 64, seed=0)
    try:
        service.predict(xs[0])  # warm-up: lazy batcher + first-call numpy
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for i in range(n_requests):
                service.predict(xs[i % len(xs)], use_cache=False)
            best = min(best, (time.perf_counter() - t0) / n_requests)
    finally:
        service.shutdown()
    return best


def _run(variant, gate, repeats, inner, n_requests):
    rng = np.random.default_rng(7)
    rows = {}

    for name, fn in _kernel_cases(rng).items():
        with _obs_config(enabled=False):
            t_off = _best_of(fn, repeats, inner)
        with _obs_config(enabled=True):
            obs.kernel_profiler.reset()
            t_on = _best_of(fn, repeats, inner)
        rows[name] = {"kind": "kernel",
                      "off_us": round(t_off * 1e6, 2),
                      "on_us": round(t_on * 1e6, 2),
                      "overhead_pct": round((t_on / t_off - 1.0) * 100, 2)}

    with _obs_config(enabled=False):
        t_off = _serving_seconds_per_request(n_requests)
    with _obs_config(enabled=True):
        t_on = _serving_seconds_per_request(n_requests)
    rows["serve_predict"] = {
        "kind": "serving",
        "off_us": round(t_off * 1e6, 2),
        "on_us": round(t_on * 1e6, 2),
        "overhead_pct": round((t_on / t_off - 1.0) * 100, 2)}

    print()
    for name, row in rows.items():
        print(f"{name:16s} off {row['off_us']:9.1f}us  "
              f"on {row['on_us']:9.1f}us  "
              f"overhead {row['overhead_pct']:+6.2f}%")

    write_bench_json("obs_overhead", {
        "variant": variant,
        "gate_pct": gate * 100,
        "kernel_sample": DEFAULT_SAMPLE,
        "workloads": rows,
    })
    for name, row in rows.items():
        assert row["overhead_pct"] < gate * 100, \
            (f"{name}: observability adds {row['overhead_pct']}% at the "
             f"default sampling stride (gate: < {gate * 100:.0f}%)")


def bench_obs_overhead():
    """Full run: < 3% overhead on every workload at default sampling."""
    _run(variant=None, gate=0.03, repeats=30, inner=20, n_requests=200)


def bench_obs_overhead_smoke():
    """CI smoke variant: same workloads, relaxed gate, <60s."""
    _run(variant="smoke", gate=0.10, repeats=8, inner=10, n_requests=60)
