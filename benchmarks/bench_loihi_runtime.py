"""Chip runtime throughput: per-step reference vs. fused, 1 vs. 32 replicas.

Not a paper figure — the engineering benchmark behind the chip runtime.
Two execution paths advance a network phase (see ``repro.loihi.runtime``):

* the **per-step reference** — ``Runtime.run(T)`` as ``T`` calls of
  ``Runtime.step()``, Python dispatching every group and connection each
  timestep.  This benchmark routes ``run`` through it locally (a context
  manager around the timed legs), not through any product setting;
* the **fused** path — ``Runtime.run(T)`` as one ``kernels.network_run``
  call, which the active ``cext`` backend provides.

Each path is timed sequentially (one replica per call: ``infer`` /
``train_sample`` loops) and batched (``build_emstdp_network(...,
replicas=32)`` through a ``ShardedRuntime``: ``infer_batch`` /
``fit_batch(update_mode="minibatch")``).  DFA feedback, dims (64, 64, 10),
T = 32.  Gates:

* replication on the per-step legs (the batching amortizes per-step
  dispatch; calibrated on those legs): >= 4x inference, >= 2x training;
* fused vs. per-step, inference and training: >= 4x at one replica and
  >= 2x at 32 replicas.

The bit-identity check and the per-step legs with their gates run on
every kernel backend; the fused legs and their gates only where the
active backend provides ``network_run`` (CI pins ``cext``, so a broken
build fails there instead of dropping the fused gates).

The fused replication ratio is recorded without a gate: fusion removes the
dispatch that replication amortized, so the fused cost per sample is
nearly flat in the replica count and the ratio is smaller even though
both legs are faster.  Every run first re-asserts that batched learning is
bit-identical (weights and output spike counts) to sequential per-replica
execution — a fast runtime that drifted from the chip semantics would be
worthless.

``bench_loihi_smoke`` is the <60s CI variant: smaller sample budget, same
assertions.
"""

import contextlib
import time

import numpy as np

from repro.core import kernels, loihi_default_config
from repro.loihi import Runtime
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network

from _bench_utils import make_blobs, write_bench_json

DIMS = (64, 64, 10)
T = 32
REPLICAS = 32


def _config(seed=1):
    return loihi_default_config(seed=seed, phase_length=T, feedback="dfa")


def _trainer(batch_replicas):
    model = build_emstdp_network(DIMS, _config())
    return LoihiEMSTDPTrainer(model, neurons_per_core=32,
                              batch_replicas=batch_replicas)


def _samples_per_sec(fn, n_samples: int) -> float:
    t0 = time.perf_counter()
    fn()
    return n_samples / (time.perf_counter() - t0)


def _assert_bit_identical(replicas: int = 4) -> None:
    """Batched learning == sequential per-replica execution, bit for bit."""
    from repro.onchip.trainer import host_reduce_rng

    cfg = _config()
    xs, ys = make_blobs(DIMS[0], DIMS[-1], replicas, seed=5)
    batched = _trainer(replicas)
    w0 = [c.weight_mant.copy() for c in batched.model.plastic_connections]
    batched.fit_batch(xs, ys, update_mode="minibatch")
    twin_model, twin_rt = batched._twin(replicas)
    counts = twin_rt.spike_counts(twin_model.output_name)
    deltas = [np.zeros_like(w, dtype=np.int64) for w in w0]
    for r in range(replicas):
        seq = LoihiEMSTDPTrainer(
            build_emstdp_network(DIMS, cfg),
            rng=np.random.default_rng((cfg.seed + 1, r)))
        seq.train_sample(xs[r], int(ys[r]))
        seq_counts = seq.runtime.spike_counts(seq.model.output_name)[0]
        assert np.array_equal(seq_counts, counts[r]), \
            f"replica {r}: batched spike counts differ from sequential"
        for i, conn in enumerate(seq.model.plastic_connections):
            deltas[i] += conn.weight_mant - w0[i]
    host = host_reduce_rng(cfg.seed)
    for i, conn in enumerate(batched.model.plastic_connections):
        mean = deltas[i] / replicas
        floor = np.floor(mean)
        add = floor + (host.random(mean.shape) < (mean - floor))
        expect = np.clip(w0[i] + add, -127, 127)
        assert np.array_equal(conn.weight_mant, expect.astype(np.int64)), \
            f"connection {i}: batched mean-of-deltas write-back differs"


@contextlib.contextmanager
def _per_step_runs():
    """Route ``Runtime.run(T)`` through ``T`` x ``Runtime.step()``."""
    fused_run = Runtime.run

    def run(self, steps):
        for _ in range(steps):
            self.step()
        fused_run(self, 0)  # collects the synaptic-event counters

    Runtime.run = run
    try:
        yield
    finally:
        Runtime.run = fused_run


def _infer_throughput(n_samples: int):
    xs, _ = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=0)
    seq = _trainer(batch_replicas=1)      # sequential Runtime stepping
    bat = _trainer(batch_replicas=REPLICAS)
    seq_sps = _samples_per_sec(lambda: [seq.infer(x) for x in xs], n_samples)
    bat_sps = _samples_per_sec(lambda: bat.infer_batch(xs), n_samples)
    return seq_sps, bat_sps


def _train_throughput(n_samples: int):
    xs, ys = make_blobs(DIMS[0], DIMS[-1], n_samples, seed=1)
    seq = _trainer(batch_replicas=1)
    bat = _trainer(batch_replicas=REPLICAS)

    def run_seq():
        for x, y in zip(xs, ys):
            seq.train_sample(x, int(y))

    seq_sps = _samples_per_sec(run_seq, n_samples)
    bat_sps = _samples_per_sec(
        lambda: bat.fit_batch(xs, ys, update_mode="minibatch"), n_samples)
    return seq_sps, bat_sps


def _legs(per_step: bool, n_infer: int, n_train: int) -> dict:
    """Samples/sec of the four legs of one execution path."""
    with _per_step_runs() if per_step else contextlib.nullcontext():
        infer = _infer_throughput(n_infer)
        train = _train_throughput(n_train)
    return {"infer_sequential": infer[0], "infer_batched": infer[1],
            "train_sequential": train[0], "train_batched": train[1]}


def _run(n_train: int, n_infer: int, variant):
    print()
    print(f"chip runtime — DFA, dims {DIMS}, T={T}, {REPLICAS} replicas")
    _assert_bit_identical()
    print("equivalence: batched learning bit-identical to sequential "
          "per-replica execution ✓")
    paths = {"per-step": _legs(True, n_infer, n_train)}
    if kernels.backend_provides("network_run"):
        paths["fused"] = _legs(False, n_infer, n_train)
    else:
        print(f"fused legs skipped: kernel backend "
              f"{kernels.backend_name()!r} has no network_run")
    step = paths["per-step"]
    fused = paths.get("fused")
    payload = {
        "dims": list(DIMS),
        "T": T,
        "replicas": REPLICAS,
        "n_train": n_train,
        "n_infer": n_infer,
        "bit_identical": True,
    }
    print(f"{'':9s}  {'path':8s}  {'1 replica':>10s}  "
          f"{f'{REPLICAS} replicas':>11s}  replication")
    for kind in ("infer", "train"):
        for path, legs in paths.items():
            seq, bat = legs[f"{kind}_sequential"], legs[f"{kind}_batched"]
            print(f"{kind:9s}  {path:8s}  {seq:10.1f}  {bat:11.1f}  "
                  f"{bat / seq:10.2f}x")
        payload.update({
            # The per-step legs keep their historical keys.
            f"{kind}_sequential_sps": round(step[f"{kind}_sequential"], 1),
            f"{kind}_batched_sps": round(step[f"{kind}_batched"], 1),
            f"{kind}_speedup": round(step[f"{kind}_batched"]
                                     / step[f"{kind}_sequential"], 2),
        })
        if fused is None:
            continue
        payload.update({
            f"{kind}_fused_sequential_sps": round(
                fused[f"{kind}_sequential"], 1),
            f"{kind}_fused_batched_sps": round(fused[f"{kind}_batched"], 1),
            f"{kind}_fused_replication": round(
                fused[f"{kind}_batched"] / fused[f"{kind}_sequential"], 2),
            f"{kind}_fused_vs_step_1": round(
                fused[f"{kind}_sequential"] / step[f"{kind}_sequential"], 2),
            f"{kind}_fused_vs_step_{REPLICAS}": round(
                fused[f"{kind}_batched"] / step[f"{kind}_batched"], 2),
        })
        print(f"{kind:9s}  fused vs per-step: "
              f"{payload[f'{kind}_fused_vs_step_1']:.1f}x at 1 replica, "
              f"{payload[f'{kind}_fused_vs_step_{REPLICAS}']:.1f}x at "
              f"{REPLICAS}")
    if variant:
        payload["variant"] = variant
    write_bench_json("loihi_runtime", payload)
    return payload


def _assert_gates(payload):
    infer_speedup = payload["infer_speedup"]
    train_speedup = payload["train_speedup"]
    assert infer_speedup >= 4.0, \
        f"batched inference speedup {infer_speedup:.1f}x < 4x " \
        f"at {REPLICAS} replicas"
    assert train_speedup >= 2.0, \
        f"batched training speedup {train_speedup:.1f}x < 2x " \
        f"at {REPLICAS} replicas"
    for kind in ("infer", "train"):
        if f"{kind}_fused_vs_step_1" not in payload:
            continue  # no fused backend: nothing fused to gate
        one = payload[f"{kind}_fused_vs_step_1"]
        wide = payload[f"{kind}_fused_vs_step_{REPLICAS}"]
        assert one >= 4.0, \
            f"fused {kind} {one:.1f}x < 4x the per-step path at 1 replica"
        assert wide >= 2.0, \
            f"fused {kind} {wide:.1f}x < 2x the per-step path at " \
            f"{REPLICAS} replicas"


def bench_loihi_smoke(benchmark):
    """CI gate: the acceptance assertions on a small sample budget."""
    payload = benchmark.pedantic(
        lambda: _run(n_train=96, n_infer=192, variant="smoke"),
        rounds=1, iterations=1)
    _assert_gates(payload)


def bench_loihi_runtime(benchmark):
    """Full measurement (longer run, tighter timing noise)."""
    payload = benchmark.pedantic(
        lambda: _run(n_train=256, n_infer=512, variant=None),
        rounds=1, iterations=1)
    _assert_gates(payload)
