"""The four benchmark workloads, all at the ``offline_accuracy`` default
shape: 16x16 ``mnist_like`` images, dims (256, 100, 10), T = 64, DFA.

Every workload has the same life cycle, driven by ``run.py``:

``setup(seed, ctx)``
    Timed as ``setup_s``, several times per run.  Returns a state object
    that owns every thread, socket and file the workload opens.
``unit(state, ctx)``
    One fixed amount of measured work, repeated until the run's time is
    used up.  Each repetition starts from the same state (a fresh model
    built from the seed, a cold prediction cache), so every repetition
    of one seed produces the same exact outputs.
``close(state)``
    Releases everything ``setup`` opened.  Always called, also when a
    unit raised.

A unit returns a :class:`UnitResult`: timed chunks of training and
inference work, the outputs that must repeat exactly for a seed, and the
problems its output checks found.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import os
import shutil
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.data
import repro.persist
from repro.core.config import full_precision_config, loihi_default_config
from repro.core.network import EMSTDPNetwork
from repro.data.synth import Dataset
from repro.incremental.protocol import IOLConfig, IncrementalOnlineLearner
from repro.loihi.energy import EnergyModel, RunStats
from repro.models import ConvFrontend, paper_topology
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network
from repro.serve import InferenceHTTPServer, InferenceService, ModelRegistry
from repro.serve.telemetry import percentile

from tracing import REQUEST_ID_HEADER

DATASET = "mnist_like"
SIDE = 16
DIMS = (SIDE * SIDE, 100, 10)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclasses.dataclass
class UnitResult:
    """What one repetition of a workload measured and checked."""

    #: (samples, seconds, start) per timed training chunk.
    train: List[Tuple[int, float, float]] = dataclasses.field(
        default_factory=list)
    #: (samples, seconds, start) per timed inference call.
    infer: List[Tuple[int, float, float]] = dataclasses.field(
        default_factory=list)
    #: perf_counter window of the measured work (checks excluded).
    window: Tuple[float, float] = (0.0, 0.0)
    #: Outputs that must be identical for every run of one seed.
    exact: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Workload-specific values reported beside the end-to-end metrics.
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Client latency in ms per answered request id (serving only).
    request_ms: Dict[str, float] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)


class UnitContext:
    """What the runner lends a set-up or unit: ``tick()``, called
    between timed chunks or between calls inside a long one, lets the
    runner sample host speed (it leaves the probe's own time out of the
    chunk); ``checks()`` runs output checks outside the traced spans."""

    def __init__(self, tracer=None, tick=None):
        self.tracer = tracer
        self.tick = tick if tick is not None else (lambda: None)

    def checks(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


def _timed_chunks(fn, n: int, chunk: int, tick):
    """Call ``fn(lo, hi)`` over ``[0, n)`` in chunks, timing each call."""
    out = []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        tick()
        t0 = perf_counter()
        fn(lo, hi)
        out.append((hi - lo, perf_counter() - t0, t0))
    return out


def _timed_repeats(fn, n_samples: int, repeats: int, tick):
    """Call ``fn()`` ``repeats`` times; return the timings and last output."""
    chunks, out = [], None
    for _ in range(repeats):
        tick()
        t0 = perf_counter()
        out = fn()
        chunks.append((n_samples, perf_counter() - t0, t0))
    return chunks, out


# ---------------------------------------------------------------------------
# ref_spike: the reference spike engine, online training then inference
# ---------------------------------------------------------------------------

class RefSpike:
    name = "ref_spike"
    why = ("reference spike engine: online train_stream then evaluate_batch; "
           "87% of the offline_accuracy seed, no chip or serving code")
    n_train = 100
    train_chunk = 10
    n_test = 200
    eval_repeats = 10

    def setup(self, seed: int, ctx: UnitContext):
        train, test = repro.data.load_dataset(
            DATASET, n_train=self.n_train, n_test=self.n_test, side=SIDE,
            seed=seed)
        return {"seed": seed, "train": train, "test": test,
                "net": self._network(seed)}

    @staticmethod
    def _network(seed: int) -> EMSTDPNetwork:
        return EMSTDPNetwork(DIMS, full_precision_config(seed=seed,
                                                         dynamics="spike"))

    def unit(self, state, ctx: UnitContext) -> UnitResult:
        net = state.pop("net", None) or self._network(state["seed"])
        xs, ys = state["train"].flat(), state["train"].labels
        xte, yte = state["test"].flat(), state["test"].labels
        res = UnitResult()
        t0 = perf_counter()
        res.train = _timed_chunks(
            lambda lo, hi: net.train_stream(xs[lo:hi], ys[lo:hi]),
            self.n_train, self.train_chunk, ctx.tick)
        res.infer, acc = _timed_repeats(lambda: net.evaluate_batch(xte, yte),
                                        self.n_test, self.eval_repeats,
                                        ctx.tick)
        res.window = (t0, perf_counter())
        with ctx.checks():
            if net.samples_seen != self.n_train:
                res.problems.append(
                    f"network saw {net.samples_seen} training samples, "
                    f"{self.n_train} were presented")
            if not all(np.isfinite(w).all() for w in net.weights):
                res.problems.append("non-finite weights after training")
        res.exact = {"test_acc": float(acc)}
        res.attempted = self.n_train + self.eval_repeats * self.n_test
        return res

    def close(self, state) -> None:
        state.clear()


# ---------------------------------------------------------------------------
# chip_flow1: Operation Flow 1 on the simulated chip
# ---------------------------------------------------------------------------

def _stats_delta(after: RunStats, before: RunStats) -> RunStats:
    return RunStats(
        steps=after.steps - before.steps,
        samples=after.samples - before.samples,
        spikes=after.spikes - before.spikes,
        syn_events=after.syn_events - before.syn_events,
        learning_epochs=after.learning_epochs - before.learning_epochs,
        plastic_synapses=after.plastic_synapses)


class ChipFlow1:
    name = "chip_flow1"
    why = ("Operation Flow 1 on the simulated chip: single-replica Runtime "
           "trains, replicated ShardedRuntime infers; plus modeled mJ")
    n_train = 60
    train_chunk = 5
    replicas = 16
    #: A multiple of the replica width, so inference uses one twin width.
    n_test = 192
    eval_repeats = 3
    n_sequential_check = 8

    def setup(self, seed: int, ctx: UnitContext):
        train, test = repro.data.load_dataset(
            DATASET, n_train=self.n_train, n_test=self.n_test, side=SIDE,
            seed=seed)
        return {"seed": seed, "train": train, "test": test,
                "trainer": self._trainer(seed), "fresh": True}

    @staticmethod
    def _trainer(seed: int) -> LoihiEMSTDPTrainer:
        # The offline_accuracy "chip" settings.
        cfg = loihi_default_config(seed=seed, feedback="dfa",
                                   learning_rate=2.0 ** -5, error_gain=2.0)
        return LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg),
                                  neurons_per_core=10,
                                  batch_replicas=ChipFlow1.replicas)

    def unit(self, state, ctx: UnitContext) -> UnitResult:
        if not state["fresh"]:
            state["trainer"].close()
            state["trainer"] = self._trainer(state["seed"])
        state["fresh"] = False
        trainer = state["trainer"]
        xs, ys = state["train"].flat(), state["train"].labels
        xte, yte = state["test"].flat(), state["test"].labels
        res = UnitResult()
        t0 = perf_counter()
        res.train = _timed_chunks(
            lambda lo, hi: trainer.fit_batch(xs[lo:hi], ys[lo:hi]),
            self.n_train, self.train_chunk, ctx.tick)
        train_stats = dataclasses.replace(trainer.runtime.stats)
        # The replicated twin is built on first use; build it before
        # timing inference, which reports the steady rate.
        trainer.infer_batch(xte[:self.replicas])
        before_infer = dataclasses.replace(trainer.runtime.stats)
        res.infer, acc = _timed_repeats(
            lambda: trainer.evaluate_batch(xte, yte), self.n_test,
            self.eval_repeats, ctx.tick)
        res.window = (t0, perf_counter())
        infer_stats = _stats_delta(trainer.runtime.stats, before_infer)
        with ctx.checks():
            n_infer = self.eval_repeats * self.n_test
            for phase, stats, presented in (("training", train_stats,
                                             self.n_train),
                                            ("inference", infer_stats,
                                             n_infer)):
                if stats.samples != presented:
                    res.problems.append(
                        f"RunStats.samples counted {stats.samples} {phase} "
                        f"samples, {presented} were presented")
            # Batched inference must equal the sequential loop exactly.
            rng = np.random.default_rng((state["seed"], 1))
            idx = np.sort(rng.choice(self.n_test, self.n_sequential_check,
                                     replace=False))
            batched = trainer.infer_batch(xte[idx])
            sequential = np.stack([trainer.infer(x) for x in xte[idx]])
            if not np.array_equal(batched, sequential):
                res.problems.append(
                    "batched inference differs from sequential infer on "
                    f"held-out samples {idx.tolist()}")
        res.exact = {"test_acc": float(acc)}
        res.exact.update(self._energy(trainer, train_stats, infer_stats))
        res.attempted = self.n_train + self.eval_repeats * self.n_test
        return res

    @staticmethod
    def _energy(trainer, train_stats: RunStats,
                infer_stats: RunStats) -> Dict[str, float]:
        model = EnergyModel()
        mapping = trainer.mapping
        common = dict(cores_used=mapping.cores_used,
                      max_compartments_per_core=(
                          mapping.max_compartments_sweep_cores),
                      compartments=trainer.model.network.n_compartments())
        out = {
            "chip_train_mj": model.report(train_stats, learning=True,
                                          **common).energy_per_sample_mj,
            "chip_infer_mj": model.report(infer_stats, learning=False,
                                          **common).energy_per_sample_mj,
        }
        for phase, stats in (("train", train_stats), ("infer", infer_stats)):
            out[f"sim.{phase}.spikes_per_sample"] = (
                stats.spikes / stats.samples)
            out[f"sim.{phase}.syn_events_per_sample"] = (
                stats.syn_events / stats.samples)
        out["sim.train.learning_epochs_per_sample"] = (
            train_stats.learning_epochs / train_stats.samples)
        return out

    def close(self, state) -> None:
        trainer = state.pop("trainer", None)
        if trainer is not None:
            trainer.close()
        state.clear()


# ---------------------------------------------------------------------------
# iol_seed: the Fig. 4 incremental protocol on the rate engine
# ---------------------------------------------------------------------------

class IOLSeed:
    name = "iol_seed"
    why = ("Fig. 4 incremental protocol at the incremental_iol defaults: "
           "online rate-engine training, repro.incremental, conv frontend")
    n_train = 900
    n_test = 300
    frontend_epochs = 3
    #: One held-out pass takes well under a millisecond, so each timed
    #: chunk covers several passes.
    eval_repeats = 20
    evals_per_chunk = 10

    def setup(self, seed: int, ctx: UnitContext):
        train, test = repro.data.load_dataset(
            DATASET, n_train=self.n_train, n_test=self.n_test, side=SIDE,
            seed=seed)
        ctx.tick()
        frontend = ConvFrontend(paper_topology(SIDE, 1), seed=seed)
        frontend.pretrain(train.images, train.labels,
                          epochs=self.frontend_epochs)
        ctx.tick()
        ftrain = Dataset(frontend.features(train.images), train.labels)
        ftest = Dataset(frontend.features(test.images), test.labels)
        return {"seed": seed, "train": ftrain, "test": ftest,
                "net": self._network(seed, ftrain)}

    @staticmethod
    def _network(seed: int, ftrain: Dataset) -> EMSTDPNetwork:
        dims = (ftrain.images.shape[1],) + DIMS[1:]
        return EMSTDPNetwork(dims, full_precision_config(seed=seed))

    def unit(self, state, ctx: UnitContext) -> UnitResult:
        seed = state["seed"]
        net = state.pop("net", None) or self._network(seed, state["train"])
        # run() is one ~3 s chunk; let the runner sample host speed
        # between the protocol's training calls inside it.
        train_stream = net.train_stream

        def ticking_train_stream(*args, **kwargs):
            ctx.tick()
            return train_stream(*args, **kwargs)

        net.train_stream = ticking_train_stream
        learner = IncrementalOnlineLearner(net, state["train"], state["test"],
                                           IOLConfig(seed=seed))
        xte, yte = state["test"].flat(), state["test"].labels
        res = UnitResult()
        t0 = perf_counter()
        result = learner.run()
        t1 = perf_counter()
        res.train = [(net.samples_seen, t1 - t0, t0)]
        res.infer, _ = _timed_repeats(
            lambda: [net.evaluate_batch(xte, yte)
                     for _ in range(self.evals_per_chunk)],
            self.evals_per_chunk * self.n_test, self.eval_repeats, ctx.tick)
        res.window = (t0, perf_counter())
        curves = result.curves()
        with ctx.checks():
            if not net.samples_seen:
                res.problems.append("the protocol trained no samples")
            cfg = learner.config
            if len(result.records) != (cfg.n_increments
                                       * cfg.rounds_per_increment):
                res.problems.append(
                    f"protocol ran {len(result.records)} rounds")
        res.exact = {"test_acc": float(curves["after_step2"][-1]),
                     "iol.samples_trained": float(net.samples_seen)}
        res.attempted = net.samples_seen + (
            self.eval_repeats * self.evals_per_chunk * self.n_test)
        return res

    def close(self, state) -> None:
        state.clear()


# ---------------------------------------------------------------------------
# serve_http: the serving stack over persistent HTTP/1.1 connections
# ---------------------------------------------------------------------------

class ServeHTTP:
    """The request stream is the held-out split in a seeded order, each
    input sent once, as the paper's testing protocol presents each test
    image once.  No repeat share is assumed: there is no measured or
    published figure for this traffic, so every request misses the
    cache and goes through the batcher."""

    name = "serve_http"
    why = ("trained rate model served by InferenceService behind "
           "InferenceHTTPServer to nproc closed-loop keep-alive clients; "
           "each held-out input sent once, as in the paper's test protocol")
    n_train = 600
    train_chunk = 50
    n_requests = 1000
    request_timeout_s = 30.0
    load_deadline_s = 120.0
    #: Request rate is set by network timers, so it is not speed-scaled.
    cpu_bound = False

    def __init__(self, workdir: Optional[Path] = None):
        self.workdir = workdir

    def setup(self, seed: int, ctx: UnitContext):
        state = {"seed": seed, "tmp": tempfile.mkdtemp(
            prefix="serve-", dir=self.workdir)}
        try:
            train, test = repro.data.load_dataset(
                DATASET, n_train=self.n_train, n_test=self.n_requests,
                side=SIDE, seed=seed)
            net = EMSTDPNetwork(DIMS, full_precision_config(seed=seed))
            xs, ys = train.flat(), train.labels
            state["setup_train"] = _timed_chunks(
                lambda lo, hi: net.train_stream(xs[lo:hi], ys[lo:hi]),
                self.n_train, self.train_chunk, ctx.tick)
            stem = Path(state["tmp"]) / "emstdp"
            repro.persist.save_checkpoint(net, stem, meta={"seed": seed})
            registry = ModelRegistry()
            entry = registry.load(stem, name="emstdp")
            # The `repro serve` defaults.
            state["service"] = InferenceService(
                registry, max_batch=32, max_wait_ms=5.0, cache_size=1024,
                workers=1)
            state["server"] = InferenceHTTPServer(state["service"],
                                                  port=0).start()
            state["model"] = entry.model
            stream = np.random.default_rng((seed, 7)).permutation(
                self.n_requests)
            inputs = test.flat()[stream]
            state["inputs"], state["labels"] = inputs, test.labels[stream]
        except BaseException:
            self.close(state)
            raise
        return state

    def unit(self, state, ctx: UnitContext) -> UnitResult:
        if "bodies" not in state:
            state["bodies"] = [json.dumps({"input": x.tolist()}).encode()
                               for x in state["inputs"]]
        # Every repetition replays the stream against a cold cache.
        state["service"].cache.invalidate()
        n = self.n_requests
        n_clients = nproc()
        host, port = state["server"].address
        statuses = [0] * n
        payloads: List[Optional[bytes]] = [None] * n
        latency_s = [0.0] * n
        client_errors: List[str] = []
        start = threading.Barrier(n_clients + 1)

        def client(k: int) -> None:
            conn = http.client.HTTPConnection(
                host, port, timeout=self.request_timeout_s)
            try:
                start.wait()
                for j in range(k, n, n_clients):
                    t0 = perf_counter()
                    conn.request("POST", "/predict", body=state["bodies"][j],
                                 headers={"Content-Type": "application/json",
                                          REQUEST_ID_HEADER: str(j)})
                    resp = conn.getresponse()
                    payloads[j] = resp.read()
                    latency_s[j] = perf_counter() - t0
                    statuses[j] = resp.status
            except Exception as exc:  # counted below as failed requests
                client_errors.append(f"client {k}: {type(exc).__name__}: "
                                     f"{exc}")
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(k,),
                                    name=f"perfbench-client-{k}")
                   for k in range(n_clients)]
        for t in threads:
            t.start()
        res = UnitResult()
        try:
            start.wait(timeout=self.request_timeout_s)
        except threading.BrokenBarrierError:
            res.problems.append("load clients failed to start")
        t0 = perf_counter()
        for t in threads:
            t.join(timeout=max(0.0, t0 + self.load_deadline_s
                               - perf_counter()))
        t1 = perf_counter()
        res.window = (t0, t1)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("load clients did not finish")
        res.problems.extend(client_errors)

        ok = [j for j in range(n) if statuses[j] == 200]
        rejected = sum(1 for s in statuses if s == 503)
        responses = {j: json.loads(payloads[j]) for j in ok}
        res.attempted = n
        res.failed = n - len(ok)
        res.infer = [(len(ok), t1 - t0, t0)]
        with ctx.checks():
            expected = state["model"].predict_batch(state["inputs"])
            wrong = [j for j in ok
                     if responses[j]["prediction"] != int(expected[j])]
            if wrong:
                res.problems.append(
                    f"{len(wrong)} served predictions differ from the "
                    f"model's predict_batch (first: request {wrong[0]})")
        lat_ms = sorted(latency_s[j] * 1e3 for j in ok)
        res.exact = {"test_acc": float(np.mean(
            [responses[j]["prediction"] == state["labels"][j] for j in ok]))}
        dispatched = [responses[j] for j in ok
                      if not responses[j]["cached"]]
        res.extra = {
            "serve_rps": len(ok) / (t1 - t0),
            "serve_p50_ms": percentile(lat_ms, 50),
            "serve_p99_ms": percentile(lat_ms, 99),
            "serve.errors": float(res.failed - rejected),
            "serve.rejected": float(rejected),
            "serve.cache.hit_ratio": (len(ok) - len(dispatched)) / n,
            "serve.batcher.queue_ms.p50": percentile(
                sorted(r["queue_ms"] for r in dispatched), 50),
            "serve.batcher.batch_size.mean": (
                float(np.mean([r["batch_size"] for r in dispatched]))
                if dispatched else 0.0),
        }
        res.request_ms = {str(j): latency_s[j] * 1e3 for j in ok}
        return res

    def close(self, state) -> None:
        server = state.pop("server", None)
        service = state.pop("service", None)
        try:
            if server is not None:
                server.stop()
        finally:
            if service is not None:
                service.shutdown()
            tmp = state.pop("tmp", None)
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
            state.clear()


def make_workloads(workdir: Path) -> Dict[str, object]:
    """Workload name -> instance; ``workdir`` holds serving checkpoints."""
    return {w.name: w for w in (RefSpike(), ChipFlow1(), IOLSeed(),
                                ServeHTTP(workdir))}
