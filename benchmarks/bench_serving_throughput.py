"""Serving throughput: micro-batched vs. batch-size-1 request dispatch.

Not a paper figure — the engineering benchmark behind ``repro.serve``.  A
closed-loop load generator (``repro.serve.loadgen``) drives the in-process
:class:`InferenceService` from many client threads; the only variable is
the micro-batcher's ``max_batch``:

* ``max_batch=1`` — every request is dispatched alone (the baseline a
  naive request/response server would give you);
* ``max_batch=16`` — concurrent requests coalesce into one
  ``predict_batch`` call.  ``max_batch`` is set to the client count, so
  one call can take every request that queued while the previous one
  ran.

The served model is the spike-backend :class:`EMSTDPNetwork` (the
prediction cache is disabled so every request does real inference).

The gate is on what the batcher controls: with ``N_CLIENTS`` closed-loop
clients and one worker, the mean dispatched batch of the micro-batched
run must be at least ``N_CLIENTS / 2``: 11.0-14.9 over 10 smoke runs on
a 2-vCPU x86-64 VM with 16 clients, and exactly 1 when every runner call
is capped at one request.  The requests/s ratio of the two runs is
printed and recorded but not gated: it measures how much cheaper a batch
is per sample than single-sample inference, which moves with every
engine change (1.9-2.3x in those runs).

``bench_serving_smoke`` is the <60s CI variant: fewer requests, same
assertions, plus the /metrics shape checks (latency percentiles,
batch-size histogram, cache stats, per-request energy estimate).
"""


from repro.core import EMSTDPNetwork, full_precision_config
from repro.serve import InferenceService, ModelRegistry, run_load, \
    service_predict_fn

from _bench_utils import make_blobs, write_bench_json

DIMS = (64, 128, 10)
PHASE_LENGTH = 32
N_CLIENTS = 16
MAX_BATCH = 16
#: The gate: concurrent requests coalesce into batches of at least half
#: the clients on average.
MIN_MEAN_BATCH = N_CLIENTS / 2


def _make_service(max_batch: int) -> InferenceService:
    net = EMSTDPNetwork(DIMS, full_precision_config(
        seed=1, dynamics="spike", phase_length=PHASE_LENGTH))
    registry = ModelRegistry()
    registry.register("spike-net", net)
    # Cache off: the comparison must measure dispatch, not memoization.
    return InferenceService(registry, max_batch=max_batch, max_wait_ms=10.0,
                            cache_size=0, workers=1)


def _throughput(max_batch: int, n_requests: int):
    xs, _ = make_blobs(DIMS[0], DIMS[-1], 256, seed=0)
    service = _make_service(max_batch)
    try:
        service.predict(xs[0])  # warm-up: lazy batcher + first-call numpy
        report = run_load(service_predict_fn(service), xs,
                          n_requests=n_requests, n_clients=N_CLIENTS)
        metrics = service.metrics()
    finally:
        service.shutdown()
    assert report.errors == 0, f"{report.errors} request(s) failed"
    return report, metrics


def _run(n_requests: int, variant: str):
    print()
    print(f"serving throughput — spike backend, dims {DIMS}, "
          f"T={PHASE_LENGTH}, {N_CLIENTS} closed-loop clients, cache off")
    base, _ = _throughput(max_batch=1, n_requests=max(n_requests // 2, 50))
    micro, metrics = _throughput(max_batch=MAX_BATCH, n_requests=n_requests)
    speedup = micro.throughput_rps / base.throughput_rps
    for label, rep in (("batch-1", base), (f"micro({MAX_BATCH})", micro)):
        print(f"{label:10s} {rep.throughput_rps:8.0f} rps   "
              f"p50 {rep.latency_ms['p50']:6.2f} ms   "
              f"p99 {rep.latency_ms['p99']:6.2f} ms")
    print(f"speedup {speedup:.1f}x   mean dispatched batch "
          f"{metrics['mean_batch_size']:.1f}")
    write_bench_json("serving_throughput", {
        "variant": variant,
        "dims": list(DIMS),
        "phase_length": PHASE_LENGTH,
        "n_clients": N_CLIENTS,
        "max_batch": MAX_BATCH,
        "n_requests": n_requests,
        "batch1_rps": round(base.throughput_rps, 1),
        "micro_rps": round(micro.throughput_rps, 1),
        "speedup": round(speedup, 2),
        "batch1_latency_ms": {k: round(v, 3)
                              for k, v in base.latency_ms.items()},
        "micro_latency_ms": {k: round(v, 3)
                             for k, v in micro.latency_ms.items()},
        "mean_batch_size": round(metrics["mean_batch_size"], 2),
        "energy_mj_per_request": metrics["energy_mj_per_request"],
    })
    return metrics


def _check_metrics_shape(metrics: dict) -> None:
    """The acceptance-criteria /metrics fields, asserted on real traffic."""
    for q in ("p50", "p95", "p99"):
        assert metrics["latency_ms"][q] > 0.0
    hist = metrics["batch_size_histogram"]
    assert hist and sum(hist.values()) == metrics["dispatched_requests"]
    # Micro-batching must actually have coalesced requests.
    assert any(int(size) > 1 for size in hist)
    assert "hit_rate" in metrics["cache"]
    assert metrics["energy_mj_per_request"] > 0.0


def _check_coalesced(metrics: dict) -> None:
    """The gate: the micro-batched run's mean dispatched batch."""
    mean = metrics["mean_batch_size"]
    assert mean >= MIN_MEAN_BATCH, (
        f"mean dispatched batch {mean:.1f} < {MIN_MEAN_BATCH:g} with "
        f"{N_CLIENTS} clients")


def bench_serving_smoke(benchmark):
    """CI gate: requests coalesce (mean batch >= N_CLIENTS / 2) on a small
    request budget."""
    metrics = benchmark.pedantic(
        lambda: _run(n_requests=400, variant="smoke"), rounds=1,
        iterations=1)
    _check_metrics_shape(metrics)
    _check_coalesced(metrics)


def bench_serving_throughput(benchmark):
    """Full measurement (longer run, tighter timing noise)."""
    metrics = benchmark.pedantic(
        lambda: _run(n_requests=2000, variant="full"), rounds=1,
        iterations=1)
    _check_metrics_shape(metrics)
    _check_coalesced(metrics)
