"""The serving subsystem: batching, caching, registry, service, HTTP, CLI.

The concurrency-sensitive pieces get explicit coverage: micro-batcher
dispatch when idle vs. coalescing while busy, cache invalidation on model hot-swap,
checkpoint round trips through the registry for all three model families,
and graceful service shutdown with requests still in flight.
"""

import collections
import http.client
import itertools
import json
import os
import signal
import socket
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro
from repro import cli
from repro.baselines import BackpropMLP
from repro.core import EMSTDPNetwork, full_precision_config, loihi_default_config
from repro.data.synth import make_blobs
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network
from repro.persist import CheckpointError, checkpoint_paths, save_checkpoint
from repro.serve import (InferenceHTTPServer, InferenceService, InvalidInput,
                         MicroBatcher, ModelRegistry, Overloaded,
                         PredictionCache, estimate_request_energy_mj,
                         http_predict_fn, model_from_checkpoint, run_load,
                         service_predict_fn)

DIMS = (12, 10, 4)


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _task(seed=3, n=40):
    return make_blobs(DIMS[0], DIMS[-1], n, seed=seed)


def _trained_net(seed=1, n_train=20):
    net = EMSTDPNetwork(DIMS, full_precision_config(
        seed=seed, phase_length=8))
    xs, ys = _task()
    net.train_stream(xs[:n_train], ys[:n_train])
    return net


# ---------------------------------------------------------------------------
# MicroBatcher
# ---------------------------------------------------------------------------

def _echo_runner(calls):
    """Runner returning each row's first element; records batch sizes."""
    def run(X):
        calls.append(len(X))
        return [float(row[0]) for row in X]
    return run


def test_batcher_flush_on_full_does_not_wait_for_deadline():
    calls = []
    batcher = MicroBatcher(_echo_runner(calls), max_batch=4)
    try:
        t0 = time.monotonic()
        futures = [batcher.submit(np.full(3, i)) for i in range(4)]
        results = [f.result(timeout=5) for f in futures]
        elapsed = time.monotonic() - t0
        # Four submits from one thread run before the idle worker gets the
        # interpreter back, so it takes them as one full batch at once.
        assert elapsed < 2.0
        assert [r.value for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert {r.batch_size for r in results} == {4}
        assert calls == [4]
    finally:
        batcher.close()


def test_batcher_idle_dispatches_lone_request_at_once():
    calls = []
    batcher = MicroBatcher(_echo_runner(calls), max_batch=32)
    try:
        t0 = time.monotonic()
        result = batcher.submit(np.full(3, 7.0)).result(timeout=5)
        # No batch-filling wait: an idle worker takes a lone request.
        assert time.monotonic() - t0 < 1.0
        assert (result.value, result.batch_size) == (7.0, 1)
        assert calls == [1]
    finally:
        batcher.close()


def _gated_runner(batches, entered, release):
    """Runner recording each batch's values; every call waits on release."""
    def run(X):
        entered.set()
        release.wait(timeout=5)
        batches.append([float(row[0]) for row in X])
        return batches[-1]
    return run


@pytest.mark.parametrize("n, expected", [
    (3, [[0.0, 1.0, 2.0]]),
    (4, [[0.0, 1.0, 2.0, 3.0]]),
    (10, [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [8.0, 9.0]]),
], ids=["3", "4", "10"])
def test_batcher_coalesces_requests_queued_while_runner_busy(n, expected):
    batches, entered, release = [], threading.Event(), threading.Event()
    batcher = MicroBatcher(_gated_runner(batches, entered, release),
                           max_batch=4)
    try:
        blocker = batcher.submit(np.full(3, -1.0))
        assert entered.wait(timeout=5)  # the only worker is now busy
        futures = [batcher.submit(np.full(3, i)) for i in range(n)]
        assert batcher.pending() == n
        release.set()
        results = [f.result(timeout=5) for f in futures]
        assert blocker.result(timeout=5).batch_size == 1
        # Everything queued meanwhile leaves in submit order: full batches
        # of max_batch, then the rest.
        assert batches == [[-1.0]] + expected
        assert [r.value for r in results] == [float(i) for i in range(n)]
        assert [r.batch_size for r in results] == \
            [len(b) for b in expected for _ in b]
    finally:
        release.set()
        batcher.close()


def test_batcher_skips_a_cancelled_request_and_keeps_serving():
    batches, entered, release = [], threading.Event(), threading.Event()
    batcher = MicroBatcher(_gated_runner(batches, entered, release),
                           max_batch=4)
    try:
        batcher.submit(np.full(3, -1.0))
        assert entered.wait(timeout=5)
        futures = [batcher.submit(np.full(3, i)) for i in range(3)]
        assert futures[1].cancel()  # still queued, so it can be cancelled
        release.set()
        assert [futures[i].result(timeout=5).value for i in (0, 2)] == \
            [0.0, 2.0]
        # The worker survived the cancelled future and serves on.
        assert batcher.submit(np.full(3, 5.0)).result(timeout=5).value == 5.0
        assert batches == [[-1.0], [0.0, 2.0], [5.0]]
    finally:
        release.set()
        batcher.close()


def test_batcher_workers_run_batches_concurrently():
    # Each runner call waits for a second one: with one worker at a time
    # the barrier breaks and both requests fail.
    barrier = threading.Barrier(2, timeout=5)

    def run(X):
        barrier.wait()
        return [float(row[0]) for row in X]

    batcher = MicroBatcher(run, max_batch=1, workers=2)
    try:
        futures = [batcher.submit(np.full(3, i)) for i in range(2)]
        assert [f.result(timeout=10).value for f in futures] == [0.0, 1.0]
    finally:
        barrier.abort()
        batcher.close()


def test_batcher_close_with_two_workers_drains_around_a_stuck_runner():
    entered, release = threading.Event(), threading.Event()

    def run(X):
        if X[0, 0] < 0:
            entered.set()
            release.wait(timeout=10)
        return [float(row[0]) for row in X]

    batcher = MicroBatcher(run, max_batch=2, workers=2)
    stuck = batcher.submit(np.full(3, -1.0))
    assert entered.wait(timeout=5)
    futures = [batcher.submit(np.full(3, i)) for i in range(6)]
    try:
        # One runner is stuck, so a bounded close reports "not drained"...
        assert batcher.close(timeout=0.05) is False
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros(3))
        # ...while the other worker still answers every accepted request.
        assert [f.result(timeout=5).value for f in futures] == \
            [float(i) for i in range(6)]
        assert not stuck.done()
    finally:
        release.set()
    assert batcher.close() is True
    assert stuck.result(timeout=1).value == -1.0


def test_batcher_stress_submits_racing_close_lose_nothing():
    """More workers than cores, a tiny switch interval, and client threads
    submitting until close() refuses them: every accepted request runs
    exactly once and is answered with its own row; nothing else runs."""
    ran, ran_lock = collections.Counter(), threading.Lock()

    def run(X):
        with ran_lock:
            ran.update(float(row[0]) for row in X)
        return [float(row[0]) for row in X]

    batcher = MicroBatcher(run, max_batch=8, workers=4)
    accepted = {}

    def client(k):
        for j in itertools.count(k, 6):
            try:
                accepted[j] = batcher.submit(np.full(2, float(j)))
            except RuntimeError:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client, args=(k,), daemon=True)
                   for k in range(6)]
        for t in clients:
            t.start()
        time.sleep(0.1)
        assert batcher.close(timeout=30) is True
        for t in clients:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert accepted
    results = {j: f.result(timeout=0) for j, f in accepted.items()}
    assert all(r.value == float(j) for j, r in results.items())
    assert all(1 <= r.batch_size <= 8 for r in results.values())
    assert ran == collections.Counter(float(j) for j in accepted)


def test_batcher_never_exceeds_max_batch():
    calls = []
    batcher = MicroBatcher(_echo_runner(calls), max_batch=4)
    try:
        futures = [batcher.submit(np.full(3, i)) for i in range(11)]
        values = [f.result(timeout=5).value for f in futures]
        assert values == [float(i) for i in range(11)]  # order preserved
        assert max(calls) <= 4 and sum(calls) == 11
    finally:
        batcher.close()


def test_batcher_runner_exception_propagates_to_every_request():
    def boom(X):
        raise ValueError("model fell over")
    batcher = MicroBatcher(boom, max_batch=2)
    try:
        futures = [batcher.submit(np.zeros(3)) for _ in range(2)]
        for f in futures:
            with pytest.raises(ValueError, match="fell over"):
                f.result(timeout=5)
    finally:
        batcher.close()


def test_batcher_wrong_shaped_request_fails_alone():
    """With the runner held, six 8-value requests and one 5-value request
    queue up together: the six are answered as one batch and only the odd
    one fails (stacking all seven used to fail every one of them)."""
    batches, entered, release = [], threading.Event(), threading.Event()
    gated = _gated_runner(batches, entered, release)

    def runner(X):
        if X.shape[1] != 8:
            raise ValueError(f"expected 8 inputs, got {X.shape[1]}")
        return gated(X)

    batcher = MicroBatcher(runner, max_batch=8)
    try:
        blocker = batcher.submit(np.full(8, -1.0))
        assert entered.wait(timeout=5)  # the only worker is now busy
        values = [0.0, 1.0, 2.0, None, 3.0, 4.0, 5.0]
        futures = [batcher.submit(np.zeros(5) if v is None
                                  else np.full(8, v)) for v in values]
        assert batcher.pending() == 7
        release.set()
        assert blocker.result(timeout=5).value == -1.0
        outcomes = [f.exception(timeout=5) or f.result() for f in futures]
        assert isinstance(outcomes[3], ValueError)
        assert "got 5" in str(outcomes[3])
        good = outcomes[:3] + outcomes[4:]
        assert [r.value for r in good] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert {r.batch_size for r in good} == {6}
        assert batches == [[-1.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]
    finally:
        release.set()
        batcher.close()


def test_batcher_close_reports_drained():
    calls = []
    batcher = MicroBatcher(_echo_runner(calls), max_batch=2)
    batcher.submit(np.zeros(3)).result(timeout=5)
    assert batcher.close() is True
    assert batcher.close() is True  # idempotent, still drained


def test_batcher_close_timeout_reports_not_drained():
    release = threading.Event()

    def stuck(X):
        release.wait(timeout=10)
        return [float(row[0]) for row in X]

    batcher = MicroBatcher(stuck, max_batch=1)
    future = batcher.submit(np.zeros(3))
    try:
        # The runner is blocked, so a bounded close must say "not drained"
        # instead of silently returning with the request still in flight.
        assert batcher.close(timeout=0.05) is False
    finally:
        release.set()
    assert batcher.close(timeout=5) is True
    assert future.result(timeout=5).value == 0.0


def test_batcher_shutdown_completes_in_flight_requests():
    release = threading.Event()
    calls = []

    def slow(X):
        release.wait(timeout=5)
        calls.append(len(X))
        return [float(row[0]) for row in X]

    batcher = MicroBatcher(slow, max_batch=2)
    futures = [batcher.submit(np.full(3, i)) for i in range(6)]
    while batcher.pending() == len(futures):  # until a batch is in flight
        time.sleep(0.001)
    closer = threading.Thread(target=batcher.close, daemon=True)
    closer.start()
    release.set()
    closer.join(timeout=5)
    assert not closer.is_alive()
    # Graceful: every request submitted before close() got its answer.
    assert [f.result(timeout=1).value for f in futures] == \
        [float(i) for i in range(6)]
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(np.zeros(3))


# ---------------------------------------------------------------------------
# PredictionCache
# ---------------------------------------------------------------------------

def test_cache_lru_eviction_and_stats():
    cache = PredictionCache(capacity=2)
    k = [PredictionCache.key(np.full(3, i), "m", "v1") for i in range(3)]
    cache.put(k[0], 0)
    cache.put(k[1], 1)
    assert cache.get(k[0]) == 0      # refreshes k0's recency
    cache.put(k[2], 2)               # evicts k1, the least recent
    assert cache.get(k[1]) is None
    assert cache.get(k[0]) == 0 and cache.get(k[2]) == 2
    stats = cache.stats()
    assert stats["evictions"] == 1 and stats["size"] == 2
    assert stats["hits"] == 3 and stats["misses"] == 1


def test_cache_key_separates_models_versions_and_inputs():
    x = np.arange(3, dtype=float)
    assert PredictionCache.key(x, "a", "v1") != PredictionCache.key(x, "b", "v1")
    assert PredictionCache.key(x, "a", "v1") != PredictionCache.key(x, "a", "v2")
    assert PredictionCache.key(x, "a", "v1") == PredictionCache.key(x.copy(), "a", "v1")
    assert PredictionCache.key(x, "a", "v1") != PredictionCache.key(x + 1, "a", "v1")


def test_cache_capacity_zero_disables_storage():
    cache = PredictionCache(capacity=0)
    key = PredictionCache.key(np.zeros(3), "m", "v1")
    cache.put(key, 7)
    assert cache.get(key) is None and len(cache) == 0


def test_cache_invalidate_by_model():
    cache = PredictionCache(capacity=8)
    ka = PredictionCache.key(np.zeros(3), "a", "v1")
    kb = PredictionCache.key(np.zeros(3), "b", "v1")
    cache.put(ka, 1)
    cache.put(kb, 2)
    assert cache.invalidate("a") == 1
    assert cache.get(ka) is None and cache.get(kb) == 2


# ---------------------------------------------------------------------------
# ModelRegistry: checkpoint round trips for all three families
# ---------------------------------------------------------------------------

def test_registry_round_trip_emstdp(tmp_path):
    net = _trained_net()
    save_checkpoint(net, tmp_path / "net")
    entry = ModelRegistry().load(tmp_path / "net")
    assert entry.model_class == "EMSTDPNetwork"
    assert entry.model.config.phase_length == 8  # config came from the ckpt
    xs, _ = _task(seed=9)
    np.testing.assert_array_equal(entry.model.predict_batch(xs),
                                  net.predict_batch(xs))


def test_registry_round_trip_backprop(tmp_path):
    model = BackpropMLP(DIMS, lr=0.1, seed=2)
    xs, ys = _task()
    model.train_stream(xs[:20], ys[:20])
    save_checkpoint(model, tmp_path / "mlp")
    entry = ModelRegistry().load(tmp_path / "mlp")
    assert entry.model_class == "BackpropMLP"
    assert entry.model.lr == 0.1
    np.testing.assert_array_equal(entry.model.predict_batch(xs),
                                  model.predict_batch(xs))


def test_registry_round_trip_loihi_trainer(tmp_path):
    cfg = loihi_default_config(seed=4, phase_length=8,
                               learning_rate=2.0 ** -4, error_gain=2.0)
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg))
    xs, ys = _task()
    trainer.train_stream(xs[:8], ys[:8])
    save_checkpoint(trainer, tmp_path / "chip")
    entry = ModelRegistry().load(tmp_path / "chip")
    assert entry.model_class == "LoihiEMSTDPTrainer"
    assert entry.model.model.config.phase_length == 8
    np.testing.assert_array_equal(entry.model.predict_batch(xs[:6]),
                                  trainer.predict_batch(xs[:6]))


def test_registry_rejects_unserveable_checkpoint(tmp_path):
    class Odd:
        def state_dict(self):
            return {"dims": [2, 2]}
    save_checkpoint(Odd(), tmp_path / "odd")
    with pytest.raises(CheckpointError, match="Odd"):
        ModelRegistry().load(tmp_path / "odd")


#: The retired ``EMSTDPConfig`` fields at the one value the code
#: implements, as every checkpoint written before their removal has them.
RETIRED_AT_DEFAULT = {"gate_output": False, "hidden_error_gain": 1.0,
                      "phase2_iterations": 8, "feedback_scale": 1.0,
                      "init_scale": 1.0}


def _trained_chip():
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(
        DIMS, loihi_default_config(seed=4, phase_length=8)))
    xs, ys = _task()
    trainer.train_stream(xs[:8], ys[:8])
    return trainer


#: One checkpointed model of each family whose state carries a config.
CONFIG_MODELS = {"EMSTDPNetwork": _trained_net,
                 "LoihiEMSTDPTrainer": _trained_chip}


def _save_with_config(model, stem, **changes):
    """Checkpoint ``model`` at ``stem``, ``changes`` written into the
    config entry of its manifest."""
    save_checkpoint(model, stem)
    path = checkpoint_paths(stem)[1]
    manifest = json.loads(path.read_text())
    manifest["state"]["config"].update(changes)
    path.write_text(json.dumps(manifest))


def _outputs(model):
    """Inference on held-out blobs, then one more training pass and the
    resulting state: every array the model computes."""
    xs, ys = _task(seed=9)
    out = [model.predict_batch(xs)]
    out.append(model.output_rates_batch(xs) if hasattr(
        model, "output_rates_batch") else model.infer_batch(xs))
    model.train_stream(xs[:4], ys[:4])
    state = model.state_dict()
    for key in sorted(state):
        value = state[key]
        out += value if isinstance(value, list) else [value]
    return [v for v in out if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("cls", CONFIG_MODELS)
def test_checkpoint_with_retired_fields_at_their_value_loads(tmp_path, cls):
    """A config carrying the five retired fields at the value the code
    implements rebuilds the same model as one without them, and it
    predicts and trains byte for byte alike."""
    model = CONFIG_MODELS[cls]()
    save_checkpoint(model, tmp_path / "plain")
    _save_with_config(model, tmp_path / "old", **RETIRED_AT_DEFAULT)
    (plain, manifest), (old, _) = (model_from_checkpoint(tmp_path / stem)
                                   for stem in ("plain", "old"))
    assert manifest["model_class"] == cls
    config = getattr(plain, "model", plain).config
    assert getattr(old, "model", old).config == config
    wanted, got_all = _outputs(plain), _outputs(old)
    assert len(got_all) == len(wanted)
    for want, got in zip(wanted, got_all):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cls", CONFIG_MODELS)
@pytest.mark.parametrize("field,value", [
    ("gate_output", True), ("hidden_error_gain", 0.5),
    ("phase2_iterations", 4)])
def test_checkpoint_with_a_retired_field_off_its_value_is_refused(
        tmp_path, cls, field, value):
    _save_with_config(CONFIG_MODELS[cls](), tmp_path / "ckpt",
                      **{field: value})
    with pytest.raises(CheckpointError,
                       match=f"config field '{field}' to {value!r}; the "
                             f"field is retired at "):
        model_from_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("cls", CONFIG_MODELS)
def test_checkpoint_with_an_unknown_config_field_is_refused(tmp_path, cls):
    """A CheckpointError naming the field, not EMSTDPConfig's TypeError."""
    _save_with_config(CONFIG_MODELS[cls](), tmp_path / "ckpt", momentum=0.9)
    with pytest.raises(CheckpointError,
                       match="unknown config field 'momentum'"):
        model_from_checkpoint(tmp_path / "ckpt")


def test_checkpoint_with_a_config_value_it_refuses_is_refused(tmp_path):
    """EMSTDPConfig's own ValueError comes back as a CheckpointError."""
    _save_with_config(_trained_net(), tmp_path / "ckpt", feedback="bp")
    with pytest.raises(CheckpointError, match="feedback must be one of"):
        model_from_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("change,text", [
    ({"gate_output": True}, "'gate_output'"),
    ({"momentum": 0.9}, "'momentum'"),
], ids=["retired", "unknown"])
def test_cli_serve_refuses_a_config_it_cannot_rebuild(tmp_path, capsys,
                                                      monkeypatch, change,
                                                      text):
    """Exit 2 with an ``error:`` line, before any server starts."""
    def no_server(*args, **kwargs):
        raise AssertionError("the checkpoint loaded")

    monkeypatch.setattr(repro.serve, "InferenceHTTPServer", no_server)
    _save_with_config(_trained_net(), tmp_path / "ckpt", **change)
    assert cli.main(["serve", str(tmp_path / "ckpt"), "--port", "0",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err


def test_registry_load_source_directory_and_bad_source(tmp_path):
    save_checkpoint(_trained_net(seed=1), tmp_path / "a")
    save_checkpoint(_trained_net(seed=2), tmp_path / "b")
    registry = ModelRegistry()
    entries = registry.load_source(tmp_path)
    assert [e.name for e in entries] == ["a", "b"]
    assert registry.resolve().name == "a"  # first loaded is the default
    with pytest.raises(CheckpointError, match="neither"):
        ModelRegistry().load_source(tmp_path / "missing",
                                    store_root=tmp_path / "no-store")


def test_registry_versioning_and_explicit_resolve():
    registry = ModelRegistry()
    v1 = registry.register("net", _trained_net(seed=1))
    v2 = registry.register("net", _trained_net(seed=2))
    assert (v1.version, v2.version) == ("v1", "v2")
    assert registry.resolve("net").version == "v2"       # latest active
    assert registry.resolve("net", "v1") is v1           # pinned lookup
    with pytest.raises(KeyError, match="v9"):
        registry.resolve("net", "v9")
    with pytest.raises(ValueError, match="already has"):
        registry.register("net", _trained_net(), version="v1")


def test_energy_estimate_positive_for_all_families():
    net = EMSTDPNetwork(DIMS, full_precision_config(phase_length=8))
    mlp = BackpropMLP(DIMS)
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(
        DIMS, loihi_default_config(phase_length=8)))
    e_net = estimate_request_energy_mj(net)
    e_mlp = estimate_request_energy_mj(mlp)
    e_chip = estimate_request_energy_mj(trainer)
    assert e_net > 0 and e_mlp > 0 and e_chip > 0
    # A T-step presentation must cost more than a single-step ANN pass.
    assert e_net > e_mlp


# ---------------------------------------------------------------------------
# InferenceService
# ---------------------------------------------------------------------------

def test_service_prediction_matches_model_and_caches():
    net = _trained_net()
    registry = ModelRegistry()
    registry.register("net", net)
    xs, _ = _task(seed=9)
    with InferenceService(registry, max_batch=4, max_wait_ms=2.0) as service:
        first = service.predict(xs[0])
        again = service.predict(xs[0])
        assert first["prediction"] == int(net.predict(xs[0]))
        assert not first["cached"] and first["batch_size"] >= 1
        assert first["energy_mj"] > 0.0
        assert again["cached"] and again["energy_mj"] == 0.0
        assert again["prediction"] == first["prediction"]


def test_service_cache_invalidated_on_hot_swap():
    registry = ModelRegistry()
    registry.register("net", _trained_net(seed=1))
    xs, _ = _task(seed=9)
    with InferenceService(registry, max_batch=2, max_wait_ms=1.0) as service:
        service.predict(xs[0])
        assert service.predict(xs[0])["cached"]
        # Hot-swap: v2 becomes active, v1's cached answers must not leak.
        registry.register("net", _trained_net(seed=2, n_train=40))
        swapped = service.predict(xs[0])
        assert swapped["version"] == "v2"
        assert not swapped["cached"]
        assert len(service.cache) == 1  # only the fresh v2 entry remains
        # Pinning the old version still works (served, not cached-stale).
        pinned = service.predict(xs[0], version="v1")
        assert pinned["version"] == "v1"


def test_service_shutdown_with_in_flight_requests():
    net = _trained_net()
    slow_calls = []
    real = net.predict_batch

    def slow_predict_batch(X):
        time.sleep(0.05)
        slow_calls.append(len(X))
        return real(X)

    net.predict_batch = slow_predict_batch
    registry = ModelRegistry()
    registry.register("net", net)
    service = InferenceService(registry, max_batch=4, max_wait_ms=2.0)
    xs, _ = _task(seed=9)
    results = []
    errors = []

    def client(i):
        try:
            results.append(service.predict(xs[i % len(xs)], use_cache=False))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(8)]
    for t in threads:
        t.start()
    time.sleep(0.01)  # let requests enter the queue
    service.shutdown()
    for t in threads:
        t.join(timeout=5)
    # Every request that was accepted completed; none was dropped.
    assert len(results) + len(errors) == 8
    assert all(isinstance(r["prediction"], int) for r in results)
    assert results, "shutdown answered no in-flight request at all"
    with pytest.raises(RuntimeError, match="shut down"):
        service.predict(xs[0])


def test_service_metrics_shape_and_load_generator():
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    xs, _ = _task(seed=9)
    with InferenceService(registry, max_batch=4, max_wait_ms=2.0,
                          cache_size=64) as service:
        report = run_load(service_predict_fn(service), xs[:6],
                          n_requests=60, n_clients=6)
        assert report.errors == 0 and report.requests == 60
        assert report.throughput_rps > 0
        assert report.cache_hits > 0  # repeats hit the cache
        metrics = service.metrics()
    assert metrics["requests"] == 60
    lat = metrics["latency_ms"]
    assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    hist = metrics["batch_size_histogram"]
    assert sum(hist.values()) == metrics["dispatched_requests"]
    assert metrics["cache"]["hits"] == report.cache_hits
    assert 0.0 < metrics["cache"]["hit_rate"] < 1.0
    assert metrics["energy_mj_total"] > 0.0
    assert metrics["models"][0]["model_class"] == "EMSTDPNetwork"


def test_service_shutdown_surfaces_undrained_batcher():
    release = threading.Event()
    net = _trained_net()
    real = net.predict_batch

    def stuck_predict_batch(X):
        release.wait(timeout=10)
        return real(X)

    net.predict_batch = stuck_predict_batch
    registry = ModelRegistry()
    registry.register("net", net)
    service = InferenceService(registry, max_batch=1, max_wait_ms=0.0)
    xs, _ = _task(seed=9)
    client = threading.Thread(target=lambda: service.predict(xs[0]),
                              daemon=True)
    client.start()
    time.sleep(0.02)  # let the request reach the stuck batcher
    try:
        assert service.shutdown(timeout=0.05) is False
        # The undrained batcher must stay registered for the retry —
        # otherwise the next shutdown would vacuously report success.
        assert service.metrics()["batching"]["active_batchers"] == 1
    finally:
        release.set()
    client.join(timeout=5)
    # An unbounded retry after release performs the real drain.
    assert service.shutdown() is True
    assert service.metrics()["batching"]["active_batchers"] == 0


def test_service_metrics_concurrent_with_predict_load():
    registry = ModelRegistry()
    # Several names: each first prediction inserts a new batcher into the
    # dict that metrics() snapshots concurrently.
    for i in range(4):
        registry.register(f"net{i}", _trained_net(seed=i, n_train=8))
    service = InferenceService(registry, max_batch=4, max_wait_ms=1.0)
    xs, _ = _task(seed=9)
    errors = []
    stop = threading.Event()

    def scraper():
        while not stop.is_set():
            try:
                snap = service.metrics()
                assert snap["batching"]["active_batchers"] >= 0
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)
                return

    scrapers = [threading.Thread(target=scraper, daemon=True)
                for _ in range(3)]
    for t in scrapers:
        t.start()
    try:
        for j in range(12):
            service.predict(xs[j % len(xs)], model=f"net{j % 4}",
                            use_cache=False)
    finally:
        stop.set()
        for t in scrapers:
            t.join(timeout=5)
        service.shutdown()
    assert not errors
    assert service.metrics()["batching"]["active_batchers"] == 0


@pytest.mark.parametrize("argument, flag, value", [
    ("max_batch", "--max-batch", 0),
    ("max_wait_ms", "--max-wait-ms", -1),
    ("workers", "--workers", 0),
])
def test_bad_batching_argument_is_rejected_up_front(tmp_path, capsys,
                                                    argument, flag, value):
    with pytest.raises(ValueError, match=argument):
        InferenceService(ModelRegistry(), **{argument: value})
    # `repro serve` says so and exits 2 before loading anything.
    assert cli.main(["serve", str(tmp_path / "nope"), "--port", "0",
                     flag, str(value), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and argument in err


def test_service_unknown_model_raises_and_counts_error():
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    with InferenceService(registry) as service:
        with pytest.raises(KeyError, match="nope"):
            service.predict(np.zeros(DIMS[0]), model="nope")
        assert service.metrics()["errors"] == 1


def _held_net(dims=DIMS):
    """A network whose ``predict_batch`` waits for ``release`` after
    setting ``entered``; records the size of every batch it runs."""
    net = EMSTDPNetwork(dims, full_precision_config(seed=0, phase_length=8))
    net.entered, net.release, net.batches = (threading.Event(),
                                             threading.Event(), [])
    real = net.predict_batch

    def held(X):
        net.batches.append(len(X))
        net.entered.set()
        assert net.release.wait(10)
        return real(X)

    net.predict_batch = held
    return net


def test_service_bad_input_fails_alone_among_queued_requests():
    """With the runner held, six valid inputs and one of the wrong length
    are sent together: the bad one fails at once, the six are answered as
    one batch (before the check, np.stack failed all seven)."""
    net = _held_net((8, 12, 3))
    registry = ModelRegistry()
    registry.register("net", net)
    xs = np.random.default_rng(0).uniform(0, 1, (7, 8))
    outcomes = {}

    def client(i, x):
        try:
            outcomes[i] = service.predict(x)
        except Exception as exc:
            outcomes[i] = exc

    with InferenceService(registry, max_batch=8, cache_size=0) as service:
        busy = threading.Thread(target=client, args=("busy", xs[6]))
        busy.start()
        assert net.entered.wait(5)
        clients = [threading.Thread(target=client, args=(i, x))
                   for i, x in enumerate(list(xs[:6]) + [np.zeros(5)])]
        for t in clients:
            t.start()
        assert _wait_for(lambda: service.pending() == 6 and 6 in outcomes)
        assert isinstance(outcomes[6], InvalidInput)
        assert "shape (5,)" in str(outcomes[6])
        net.release.set()
        for t in clients + [busy]:
            t.join(timeout=10)
        assert service.metrics()["errors"] == 1
    assert net.batches == [1, 6]
    for i in range(6):
        assert outcomes[i]["prediction"] == int(net.predict(xs[i]))
        assert outcomes[i]["batch_size"] == 6


@pytest.mark.parametrize("bad, match", [
    (np.zeros(DIMS[0] + 1), r"shape \(13,\)"),
    (np.zeros((1, DIMS[0])), r"shape \(1, 12\)"),
    ([0.5] * 3 + [float("nan")] + [0.5] * 8, r"input\[3\] is nan"),
    ([0.5] * 11 + [float("-inf")], r"input\[11\] is -inf"),
    ("0.5", "must be numbers"),
    ([0.5] * 11 + ["x"], "must be numbers"),
    ([True] * DIMS[0], "must be numbers"),
    ([[0.5], [0.5, 0.5]], "not an array"),
])
def test_predict_many_checks_every_input_before_submitting(bad, match):
    net = _held_net()
    registry = ModelRegistry()
    registry.register("net", net)
    xs, _ = _task(seed=9)
    with InferenceService(registry, cache_size=0) as service:
        with pytest.raises(InvalidInput, match=match):
            service.predict_many([xs[0], xs[1], bad, xs[2]])
        with pytest.raises(InvalidInput, match=match):
            service.predict(bad)
        # Nothing of the failed list reached the batcher.
        assert net.batches == [] and service.pending() == 0
        net.release.set()
        assert len(service.predict_many(xs[:3])) == 3


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_server():
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    service = InferenceService(registry, max_batch=4, max_wait_ms=2.0)
    server = InferenceHTTPServer(service, port=0).start()
    yield server
    server.stop()
    service.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def test_http_predict_healthz_metrics(http_server):
    xs, _ = _task(seed=9)
    status, payload = _post(http_server.url + "/predict",
                            {"input": xs[0].tolist()})
    assert status == 200
    assert payload["model"] == "net" and isinstance(payload["prediction"], int)
    status, many = _post(http_server.url + "/predict",
                         {"inputs": [x.tolist() for x in xs[:3]]})
    assert status == 200 and len(many) == 3
    status, health = _get(http_server.url + "/healthz")
    assert status == 200 and health["status"] == "ok"
    status, metrics = _get(http_server.url + "/metrics")
    assert status == 200 and metrics["requests"] == 4
    assert "p99" in metrics["latency_ms"]


def test_http_use_cache_false_forces_inference(http_server):
    xs, _ = _task(seed=9)
    body = {"input": xs[0].tolist()}
    _post(http_server.url + "/predict", body)
    _, cached = _post(http_server.url + "/predict", body)
    assert cached["cached"]  # baseline: repeats hit the cache
    # use_cache=false must reach the model even for a cached input...
    _, fresh = _post(http_server.url + "/predict",
                     {**body, "use_cache": False})
    assert not fresh["cached"] and fresh["batch_size"] >= 1
    assert fresh["energy_mj"] > 0.0
    assert fresh["prediction"] == cached["prediction"]
    # ...for the batched "inputs" form too.
    _, many = _post(http_server.url + "/predict",
                    {"inputs": [xs[0].tolist()] * 2, "use_cache": False})
    assert all(not r["cached"] for r in many)
    # The JSON-string pitfall: bool("false") is True, so a non-boolean
    # use_cache must be rejected rather than silently inverted.
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(http_server.url + "/predict",
              {**body, "use_cache": "false"})
    assert err.value.code == 400


def test_http_keep_alive_survives_error_responses(http_server):
    """One connection: error responses must not desync later requests."""
    xs, _ = _task(seed=9)
    good = json.dumps({"input": xs[0].tolist()}).encode()
    host, port = http_server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        # 404 with an unread body: the server must drain it.
        conn.request("POST", "/nowhere", body=b'{"input": [1, 2, 3]}',
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 404
        resp.read()
        # 400 bad JSON, then a success on the same socket.
        conn.request("POST", "/predict", body=b'{"input": [0.1,',
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        resp.read()
        conn.request("POST", "/predict", body=good,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 200
        payload = json.loads(resp.read())
        assert isinstance(payload["prediction"], int)
    finally:
        conn.close()


@pytest.mark.parametrize("path", ["/predict", "/nowhere"])
def test_http_oversized_body_closes_connection(http_server, path):
    """413 cannot drain (that would read the refused bytes): it closes.

    The limit must hold on *every* POST route — an unknown path must not
    fall through to the 404 drain and read an unbounded body.
    """
    from repro.serve.http import MAX_BODY_BYTES

    host, port = http_server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        # The server answers before the (never sent) body arrives.
        resp = conn.getresponse()
        assert resp.status == 413
        assert resp.getheader("Connection") == "close"
        resp.read()
    finally:
        conn.close()


def test_http_chunked_body_is_rejected_with_close(http_server):
    """No Content-Length means no framing: 411 + Connection: close."""
    host, port = http_server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 411
        assert resp.getheader("Connection") == "close"
        resp.read()
    finally:
        conn.close()


@pytest.mark.parametrize("lengths, status", [
    (lambda n: [f"{n[:1]}_{n[1:]}"], 400),  # int() reads "1_4" as 14
    (lambda n: [f"+{n}"], 400),
    (lambda n: [n, "3"], 400),              # conflicting repeats
    (lambda n: [n, n], 200),                # agreeing repeats are one length
], ids=["underscore", "plus-sign", "conflicting-lines", "equal-lines"])
def test_http_content_length_must_be_digits_and_agree(http_server, lengths,
                                                      status):
    """RFC 9112 §6.3: an invalid or conflicting length is a 400 + close."""
    xs, _ = _task(seed=9)
    body = json.dumps({"input": xs[0].tolist()}).encode()
    host, port = http_server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Type", "application/json")
        for value in lengths(str(len(body))):
            conn.putheader("Content-Length", value)
        conn.endheaders(body)
        resp = conn.getresponse()
        resp.read()
        assert resp.status == status
        assert (resp.getheader("Connection") == "close") == (status == 400)
    finally:
        conn.close()


class _StubService:
    """Answers every route at once, so only the HTTP layer is timed."""

    def predict(self, x, **kwargs):
        return {"prediction": 0}

    def healthz(self):
        return {"status": "ok"}

    def metrics(self):
        return {"requests": 0}


def test_http_keep_alive_responses_do_not_stall():
    """Sequential requests on one connection answer in well under 10 ms.

    With Nagle on, each response's body waits for the client's delayed
    ACK of its head (~40 ms on Linux); a connection per request would not
    show it, so every route is timed on one reused connection.
    """
    server = InferenceHTTPServer(_StubService(), port=0).start()
    conn = http.client.HTTPConnection(*server.address, timeout=10)
    routes = [("POST", "/predict", b'{"input": [0.0]}'),
              ("GET", "/healthz", None), ("GET", "/metrics", None),
              ("GET", "/nowhere", None)]
    try:
        for method, path, body in routes:
            round_trips = []
            for _ in range(25):
                t0 = time.perf_counter()
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                resp.read()
                round_trips.append((time.perf_counter() - t0) * 1e3)
                assert resp.status == (404 if path == "/nowhere" else 200)
            assert np.median(round_trips) < 10.0, (path, round_trips)
    finally:
        conn.close()
        server.stop()


def test_registry_register_without_activate_stages_the_version():
    registry = ModelRegistry()
    staged = registry.register("canary", _trained_net(seed=1),
                               activate=False)
    # The staged version must not serve traffic yet...
    with pytest.raises(KeyError, match="no active version"):
        registry.resolve("canary")
    # ...until it is explicitly activated.
    registry.activate("canary", staged.version)
    assert registry.resolve("canary") is staged


def test_http_error_statuses(http_server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(http_server.url + "/predict", {"wrong": 1})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(http_server.url + "/predict",
              {"input": [0.0] * DIMS[0], "model": "nope"})
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(http_server.url + "/nothing")
    assert err.value.code == 404


@pytest.mark.parametrize("field,value", [
    ("model", ["net"]), ("model", {"a": 1}), ("model", 5),
    ("version", {"a": 1}), ("version", ["v1"]), ("version", True),
], ids=["model-list", "model-object", "model-number", "version-object",
        "version-list", "version-bool"])
def test_http_model_and_version_must_be_strings(http_server, field, value):
    """A ``model`` or ``version`` that is neither absent, null nor a
    string is answered 400 naming the field, not 500."""
    body = {"input": [0.0] * DIMS[0], field: value}
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(http_server.url + "/predict", body)
    assert err.value.code == 400
    assert json.loads(err.value.read())["error"].startswith(
        f'"{field}" must be a JSON string or null')
    status, payload = _post(http_server.url + "/predict",
                            {"input": [0.0] * DIMS[0], "model": None,
                             "version": None})
    assert status == 200 and payload["model"] == "net"


def test_http_non_object_json_body_is_400(http_server):
    for body in ([0.1, 0.2], "hello", 5):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(http_server.url + "/predict", body)
        assert err.value.code == 400


#: Malformed ``/predict`` bodies (``NaN`` and ``Infinity`` are the JSON
#: literals Python's json module reads), each answered 400.
BAD_BODIES = (
    b'{"input": [0.5, 0.5, 0.5]}',
    b'{"input": [0.5, NaN, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}',
    b'{"input": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, '
    b'Infinity]}',
    b'{"input": "0.5"}',
    b'{"inputs": [[0.5, 0.5]]}',
    b'{"inputs": 5}',
)


def test_http_malformed_input_is_400_and_valid_requests_still_answered():
    """Bad requests sent while valid ones are queued behind a held runner
    get 400 at once, on a kept-alive connection; the valid ones are then
    answered 200."""
    net = _held_net()
    registry = ModelRegistry()
    registry.register("net", net)
    service = InferenceService(registry, cache_size=0)
    server = InferenceHTTPServer(service, port=0).start()
    xs, _ = _task(seed=9)
    answers = {}

    def client(i):
        answers[i] = _post(server.url + "/predict", {"input": xs[i].tolist()})

    clients = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    try:
        clients[0].start()
        assert net.entered.wait(5)
        for t in clients[1:]:
            t.start()
        assert _wait_for(lambda: service.pending() == 3)
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for body in BAD_BODIES:
                conn.request("POST", "/predict", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                error = json.loads(resp.read())["error"]
                assert resp.status == 400, (body, error)
        finally:
            conn.close()
        net.release.set()
        for t in clients:
            t.join(timeout=10)
    finally:
        net.release.set()
        server.stop()
        service.shutdown()
    assert sorted(answers) == [0, 1, 2, 3]
    for i, (status, payload) in answers.items():
        assert status == 200
        assert payload["prediction"] == int(net.predict(xs[i]))


def test_predict_many_coalesces_from_a_single_caller():
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    xs, _ = _task(seed=9)
    with InferenceService(registry, max_batch=8, max_wait_ms=50.0,
                          cache_size=0) as service:
        results = service.predict_many(xs[:6], use_cache=False)
    # All six were submitted before any was awaited, so they coalesced
    # instead of leaving as six batches of one.
    assert max(r["batch_size"] for r in results) >= 2


def test_http_predict_fn_round_trip(http_server):
    xs, _ = _task(seed=9)
    fn = http_predict_fn(http_server.url)
    response = fn(xs[0])
    assert isinstance(response["prediction"], int)


# ---------------------------------------------------------------------------
# CLI satellites: --version, help epilog, list ordering
# ---------------------------------------------------------------------------

def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_cli_help_epilog_mentions_serve(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "python -m repro serve" in out
    assert "python -m repro cluster" in out


def test_cli_list_renders_most_recent_first(tmp_path, capsys):
    from repro.experiments import ExperimentSpec, RunStore

    store = RunStore(tmp_path)
    for i, run_id in enumerate(["20260101-000000-aaaaaa",
                                "20260301-000000-cccccc",
                                "20260201-000000-bbbbbb"]):
        spec = ExperimentSpec(name="offline_accuracy", seeds=(0,))
        store.create_run(spec, run_id)
    assert cli.main(["list", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if "2026" in line]
    assert [r.split()[1][:8] for r in rows] == \
        ["20260301", "20260201", "20260101"]


def test_cli_serve_errors_on_missing_checkpoint(tmp_path, capsys):
    assert cli.main(["serve", str(tmp_path / "nope"),
                     "--out", str(tmp_path)]) == 2
    assert "neither" in capsys.readouterr().err


def test_cli_cluster_errors_on_missing_checkpoint(tmp_path, capsys):
    # The worker self-loads and reports the failure as a fatal message;
    # the CLI surfaces it as a clean exit-2 error, not a traceback.
    assert cli.main(["cluster", str(tmp_path / "nope"), "--workers", "1",
                     "--out", str(tmp_path)]) == 2
    assert "failed to start" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# HTTP satellites: socket options, signal-driven drain, 503 shedding,
# process-identifying metrics
# ---------------------------------------------------------------------------

def test_http_server_port0_exposes_distinct_bound_ports(http_server):
    assert http_server.port > 0  # the ephemeral port actually bound
    assert str(http_server.port) in http_server.url
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    with InferenceService(registry, max_batch=4) as service:
        second = InferenceHTTPServer(service, port=0)
        try:
            assert second.port > 0
            assert second.port != http_server.port
        finally:
            second._httpd.server_close()


def test_http_server_reuse_port_allows_shared_bind():
    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("platform has no SO_REUSEPORT")
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    with InferenceService(registry, max_batch=4) as service:
        first = InferenceHTTPServer(service, port=0, reuse_port=True)
        try:
            # A second listener on the *same* port only binds when both
            # sockets carry SO_REUSEPORT — which is the property claimed.
            second = InferenceHTTPServer(service, port=first.port,
                                         reuse_port=True)
            assert second.port == first.port
            second._httpd.server_close()
        finally:
            first._httpd.server_close()


def test_healthz_and_metrics_identify_the_serving_process(http_server):
    _, health = _get(http_server.url + "/healthz")
    assert health["pid"] == os.getpid()
    assert health["uptime_s"] >= 0.0
    _, metrics = _get(http_server.url + "/metrics")
    assert metrics["pid"] == os.getpid()
    assert metrics["uptime_s"] >= 0.0
    assert metrics["active_versions"] == {"net": "v1"}
    assert metrics["pending"] >= 0


def test_serve_until_signal_returns_signum_and_restores_handler():
    registry = ModelRegistry()
    registry.register("net", _trained_net())
    service = InferenceService(registry, max_batch=4, max_wait_ms=2.0)
    server = InferenceHTTPServer(service, port=0)
    previous = signal.getsignal(signal.SIGTERM)
    try:
        threading.Timer(0.3, os.kill,
                        args=(os.getpid(), signal.SIGTERM)).start()
        signum = server.serve_until_signal()
        assert signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous
        # The CLI's contract: after the signal the service drains cleanly.
        assert service.shutdown(timeout=10.0) is True
    finally:
        service.shutdown()


class _SheddingService:
    """Every predict is refused: the admission-control worst case."""

    def predict(self, *a, **k):
        raise Overloaded("tier is full", retry_after_s=2.5)

    predict_many = predict


def test_http_maps_overloaded_to_503_and_loadgen_counts_rejected():
    server = InferenceHTTPServer(_SheddingService(), port=0).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server.url + "/predict", {"input": [0.0] * DIMS[0]})
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] == "3"  # ceil(2.5)
        excinfo.value.read()

        xs, _ = _task()
        report = run_load(http_predict_fn(server.url), xs[:4],
                          n_requests=12, n_clients=3)
        assert report.rejected == 12  # shed, not errored
        assert report.errors == 0
        assert report.requests == 12
    finally:
        server.stop()
