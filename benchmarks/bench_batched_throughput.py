"""Batched engine throughput: samples/sec at batch B vs. batch 1.

Not a paper figure — the engineering benchmark behind the batched
vectorized engine (``EMSTDPNetwork.fit_batch`` / ``predict_batch``).  A
batch-1 call pays the Python dispatch of a whole two-phase presentation
for one sample; a block call pays it once per minibatch, so throughput
should scale roughly with the batch size until the products stop being
overhead-dominated.

Measured here, rate backend, dims (64, 128, 10):

* training:  ``fit_batch(update_mode="minibatch")`` over the same samples
  at batch size 1 vs 32 — the acceptance gate is >= 3x samples/sec.  Both
  sides run the minibatch path, so a faster online loop (``train_sample``,
  the paper's regime) cannot move the ratio; a minibatch path that solved
  its block one sample at a time reads ~1.3x;
* inference: ``predict`` loop vs ``predict_batch`` at batch size 256
  (>= 5x).

``bench_batched_smoke`` is the <60s CI variant: smaller sample budget, same
assertions.
"""

import time


from repro.core import EMSTDPConfig, EMSTDPNetwork

from _bench_utils import make_blobs, write_bench_json

DIMS = (64, 128, 10)
BATCH = 32
#: Training gate: minibatch samples/sec at ``BATCH`` over batch 1.
TRAIN_GATE = 3.0


def _samples_per_sec(fn, n_samples: int) -> float:
    t0 = time.perf_counter()
    fn()
    return n_samples / (time.perf_counter() - t0)


def _train_throughput(n_samples: int, batch: int = BATCH):
    """Minibatch ``fit_batch`` samples/sec at batch 1 and at ``batch``,
    each on a fresh network over the same samples."""
    xs, ys = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=0)

    def minibatch_sps(size: int) -> float:
        net = EMSTDPNetwork(DIMS, EMSTDPConfig(seed=1))

        def run():
            for lo in range(0, n_samples, size):
                net.fit_batch(xs[lo:lo + size], ys[lo:lo + size],
                              update_mode="minibatch")
        return _samples_per_sec(run, n_samples)

    return minibatch_sps(1), minibatch_sps(batch)


def _infer_throughput(n_samples: int, batch: int = 256):
    xs, _ = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=0)
    net = EMSTDPNetwork(DIMS, EMSTDPConfig(seed=1))

    def run_seq():
        for x in xs:
            net.predict(x)
    seq_sps = _samples_per_sec(run_seq, n_samples)

    def run_bat():
        for lo in range(0, n_samples, batch):
            net.predict_batch(xs[lo:lo + batch])
    bat_sps = _samples_per_sec(run_bat, n_samples)
    return seq_sps, bat_sps


def _report(kind, base, seq_sps, bat_sps, batch):
    speedup = bat_sps / seq_sps
    print(f"{kind:9s}  {base} {seq_sps:8.0f} sps   "
          f"batched({batch:3d}) {bat_sps:8.0f} sps   speedup {speedup:5.1f}x")
    return speedup


def _run(n_train: int, n_infer: int, variant: str):
    print()
    print(f"batched-engine throughput — rate backend, dims {DIMS}")
    train_seq, train_bat = _train_throughput(n_train)
    infer_seq, infer_bat = _infer_throughput(n_infer)
    train_speedup = _report("training", "batch 1   ", train_seq, train_bat,
                            BATCH)
    infer_speedup = _report("inference", "sequential", infer_seq, infer_bat,
                            256)
    write_bench_json("batched_throughput", {
        "variant": variant,
        "dims": list(DIMS),
        "train_batch": BATCH,
        "infer_batch": 256,
        "n_train": n_train,
        "n_infer": n_infer,
        "train_batch1_sps": round(train_seq, 1),
        "train_batched_sps": round(train_bat, 1),
        "train_speedup": round(train_speedup, 2),
        "infer_sequential_sps": round(infer_seq, 1),
        "infer_batched_sps": round(infer_bat, 1),
        "infer_speedup": round(infer_speedup, 2),
    })
    return train_speedup, infer_speedup


def bench_batched_smoke(benchmark):
    """CI gate: the acceptance assertions on a small sample budget."""
    train_speedup, infer_speedup = benchmark.pedantic(
        lambda: _run(n_train=512, n_infer=2048, variant="smoke"),
        rounds=1, iterations=1)
    assert train_speedup >= TRAIN_GATE, \
        f"minibatch training at batch {BATCH} is {train_speedup:.1f}x " \
        f"batch 1 (< {TRAIN_GATE:g}x)"
    assert infer_speedup >= 5.0, \
        f"batched inference speedup {infer_speedup:.1f}x < 5x"


def bench_batched_throughput(benchmark):
    """Full measurement (longer run, tighter timing noise)."""
    train_speedup, infer_speedup = benchmark.pedantic(
        lambda: _run(n_train=2048, n_infer=8192, variant="full"),
        rounds=1, iterations=1)
    assert train_speedup >= TRAIN_GATE
    assert infer_speedup >= 5.0
