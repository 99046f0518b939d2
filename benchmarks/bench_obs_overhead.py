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
* **serving** — sequential ``predict`` against one in-process
  :class:`InferenceService` (spike backend, cache off, ``max_batch=1``).
  Per-request cost is a few counter increments and one histogram
  observation.

Both configurations time the same objects, one call each per round with
the side that goes first alternating, on one CPU; each keeps its fastest
call.

Acceptance gate (full run): every workload's overhead is < 3%.
``bench_obs_overhead_smoke`` is the <60s CI variant: fewer repetitions
and a relaxed < 10% gate (shared CI runners jitter more than the
overhead being measured), same workloads.
"""

import itertools
import os
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


def _best_of_off_on(fn, rounds):
    """Seconds per ``fn()`` call with observability off and on: ``(off, on)``.

    Each round calls ``fn`` once per configuration (the side that goes
    first alternates) and each side keeps its fastest call, so a slow
    stretch of the host hits both alike.  Timed one after the other, or
    in rounds of many calls, the two sides differ by more than the
    overhead being measured.  This thread, and any thread ``fn`` starts,
    runs on one CPU: on a 2-vCPU VM a wake-up across CPUs adds 100-300 us
    at random.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    best = {False: float("inf"), True: float("inf")}
    try:
        fn()  # warm-up (first call may touch lazy caches or start threads)
        for r in range(rounds):
            for enabled in ((False, True) if r % 2 == 0 else (True, False)):
                with _obs_config(enabled):
                    t0 = time.perf_counter()
                    fn()
                    best[enabled] = min(best[enabled],
                                        time.perf_counter() - t0)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return best[False], best[True]


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


def _serving_case():
    """``(service, fn)``: ``fn()`` runs one sequential predict on it."""
    dims = (16, 32, 4)
    net = EMSTDPNetwork(dims, full_precision_config(
        seed=1, dynamics="spike", phase_length=16))
    registry = ModelRegistry()
    registry.register("spike-net", net)
    # Cache off and max_batch=1: every request does real inference as a
    # batch of its own, so the ratio is per-request cost, not batching.
    service = InferenceService(registry, max_batch=1, cache_size=0,
                               workers=1)
    xs, _ = make_blobs(dims[0], dims[-1], 64, seed=0)
    inputs = itertools.cycle(xs)
    return service, lambda: service.predict(next(inputs), use_cache=False)


def _run(variant, gate, kernel_rounds, serve_rounds):
    rng = np.random.default_rng(7)
    rows = {}

    for name, fn in _kernel_cases(rng).items():
        obs.kernel_profiler.reset()
        t_off, t_on = _best_of_off_on(fn, kernel_rounds)
        rows[name] = {"kind": "kernel",
                      "off_us": round(t_off * 1e6, 2),
                      "on_us": round(t_on * 1e6, 2),
                      "overhead_pct": round((t_on / t_off - 1.0) * 100, 2)}

    service, predict = _serving_case()
    try:
        t_off, t_on = _best_of_off_on(predict, serve_rounds)
    finally:
        service.shutdown()
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
    _run(variant=None, gate=0.03, kernel_rounds=1000, serve_rounds=3000)


def bench_obs_overhead_smoke():
    """CI smoke variant: same workloads, relaxed gate, <60s."""
    _run(variant="smoke", gate=0.10, kernel_rounds=200, serve_rounds=1000)
