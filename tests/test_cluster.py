"""The multi-process serving tier: routing, supervision, swap, drain.

These tests spawn real worker processes (``multiprocessing`` spawn
context), so they cover the actual failure modes the supervisor exists
for: SIGKILL mid-service (crash), SIGSTOP (wedged process whose pipe
stays open but whose heartbeats stop), and death during a rolling swap.
A module-scoped cluster keeps the spawn cost paid once; tests that kill
workers wait for recovery before handing the cluster to the next test.
"""

import itertools
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import (ClusterError, ClusterService, Supervisor,
                           WorkerHandle, WorkerSpec, backoff_delay,
                           protocol)
from repro.cluster.worker import _Worker
from repro.core import EMSTDPNetwork, full_precision_config
from repro.data.synth import make_blobs
from repro.persist import save_checkpoint
from repro.serve import (InferenceHTTPServer, InvalidInput, Overloaded,
                         http_predict_fn, run_load)

DIMS = (12, 10, 4)


def _wait(predicate, timeout_s: float, interval_s: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Two checkpoint stems of the same model: v1 and a further-trained v2."""
    root = tmp_path_factory.mktemp("cluster-ckpt")
    xs, ys = make_blobs(DIMS[0], DIMS[-1], 40, seed=3)
    net = EMSTDPNetwork(DIMS, full_precision_config(seed=1, phase_length=8))
    net.train_stream(xs[:20], ys[:20])
    stem_a = root / "model_a"
    save_checkpoint(net, stem_a)
    net.train_stream(xs[20:30], ys[20:30])
    stem_b = root / "model_b"
    save_checkpoint(net, stem_b)
    return {"a": str(stem_a), "b": str(stem_b), "xs": xs}


@pytest.fixture(scope="module")
def cluster(checkpoints):
    """A live 2-worker cluster + front end + HTTP server, shared per module.

    Tests that kill workers must leave the cluster recovered (2 live
    workers) before returning it to the pool.
    """
    spec = WorkerSpec(source=checkpoints["a"], heartbeat_s=0.1)
    # heartbeat_timeout must tolerate scheduler starvation: on a 1-core
    # CI machine a busy worker's (or the parent reader's) heartbeat
    # path can silently stall for seconds under the load tests here,
    # and a trigger-happy timeout would "wedge-kill" healthy workers
    # mid-test.  Wedge *detection* gets its own isolated, idle cluster
    # with a tight timeout in its test below.
    supervisor = Supervisor(spec, n_workers=2, heartbeat_timeout_s=30.0,
                            backoff_base_s=0.1, backoff_cap_s=0.5)
    supervisor.start(wait=True)
    service = ClusterService(supervisor, max_inflight_per_worker=16)
    server = InferenceHTTPServer(service, port=0).start()
    yield {"supervisor": supervisor, "service": service, "server": server,
           "xs": checkpoints["xs"], "checkpoints": checkpoints}
    server.stop()
    supervisor.stop()


# ---------------------------------------------------------------------------
# backoff policy (pure function)
# ---------------------------------------------------------------------------

def test_backoff_doubles_per_failure_and_caps():
    assert backoff_delay(0, 0.5, 8.0) == 0.0
    assert backoff_delay(1, 0.5, 8.0) == 0.5
    assert backoff_delay(2, 0.5, 8.0) == 1.0
    assert backoff_delay(3, 0.5, 8.0) == 2.0
    assert backoff_delay(10, 0.5, 8.0) == 8.0  # capped
    assert backoff_delay(1000, 0.5, 8.0) == 8.0  # no overflow blowup


# ---------------------------------------------------------------------------
# wire protocol: every pipe message is built by protocol.message
# ---------------------------------------------------------------------------

class _Pipe:
    """Stands in for a ``Connection``: records what reaches the pipe."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _worker_send(pipe, *args):
    """``_Worker.send``, the worker's one pipe writer, on a fake pipe."""
    worker = SimpleNamespace(conn=pipe, _send_lock=threading.Lock(),
                             _stop=threading.Event())
    _Worker.send(worker, *args)


def _handle(pipe):
    """A ready ``WorkerHandle``'s state on a fake pipe, no process."""
    return SimpleNamespace(conn=pipe, slot=0, pid=1, _state="ready",
                           _lock=threading.Lock(), _pending={},
                           _msg_ids=itertools.count(1))


#: Each way a send site can break the contract, as the site would run it
#: -> (exception, text it must name).  Arity is structural: the senders
#: take (kind, msg_id, payload) as three arguments, so a 2- or 4-element
#: message is a ``TypeError``.  An undeclared constant fails where it is
#: read, before the builder runs.
VIOLATIONS = {
    "two_element": (lambda pipe: _worker_send(pipe, protocol.READY, 0),
                    TypeError, "payload"),
    "four_element": (lambda pipe: _worker_send(
        pipe, protocol.RESPONSE, 1, {"ok": True}, "extra"),
        TypeError, "positional"),
    "unknown_kind_literal": (lambda pipe: _worker_send(
        pipe, "predictt", 1, {}), ValueError, "'predictt'"),
    "undeclared_constant": (lambda pipe: _worker_send(
        pipe, protocol.REBALANCE, 1, {}), AttributeError, "REBALANCE"),
    "missing_required_field": (lambda pipe: _worker_send(
        pipe, protocol.RESPONSE, 1, {"value": 41}),
        ValueError, "'resp' payload is missing required field 'ok'"),
    "undeclared_field": (lambda pipe: WorkerHandle.request(
        _handle(pipe), protocol.SWAP,
        {"source": "ckpt/model", "force": True}),
        ValueError, "'swap' payload has undeclared field 'force'"),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_protocol_violation_raises_before_the_pipe(case):
    send, exc_type, text = VIOLATIONS[case]
    pipe = _Pipe()
    with pytest.raises(exc_type) as excinfo:
        send(pipe)
    assert text in str(excinfo.value)
    assert pipe.sent == []


def test_message_builder_accepts_every_declared_shape():
    assert protocol.message(protocol.READY, 0, {"pid": 1}) == \
        (protocol.READY, 0, {"pid": 1})
    for kind, payload in (
            (protocol.RESPONSE, {"ok": True, "value": 1}),
            (protocol.RESPONSE, {"ok": False, "status": 500,
                                 "error": "boom"}),
            (protocol.PREDICT, {"input": [1.0], "model": None,
                                "use_cache": True}),
            (protocol.PREDICT_MANY, {"inputs": [[1.0]]}),
            (protocol.SWAP, {"source": "s", "store_root": "runs"}),
            (protocol.METRICS, {}), (protocol.DRAIN, {}),
            (protocol.FATAL, {"error": "boom"})):
        assert protocol.message(kind, 7, payload) == (kind, 7, payload)
    with pytest.raises(ValueError, match="'metrics' payload is a list"):
        protocol.message(protocol.METRICS, 1, [])
    # A refused request leaves nothing pending on the handle.
    pipe = _Pipe()
    handle = _handle(pipe)
    WorkerHandle.request(handle, protocol.DRAIN, {})
    with pytest.raises(ValueError, match="undeclared field 'x'"):
        WorkerHandle.request(handle, protocol.DRAIN, {"x": 1})
    assert list(handle._pending) == [1]
    assert pipe.sent == [(protocol.DRAIN, 1, {})]


# ---------------------------------------------------------------------------
# routing + data plane
# ---------------------------------------------------------------------------

def test_predict_routes_to_workers_and_stamps_attribution(cluster):
    service, xs = cluster["service"], cluster["xs"]
    response = service.predict(xs[0])
    assert response["model"] == "model_a"
    assert response["prediction"] in range(DIMS[-1])
    worker_pids = {w["pid"] for w in cluster["supervisor"].describe()}
    assert response["worker"]["pid"] in worker_pids
    assert response["worker"]["pid"] != os.getpid()  # crossed a process

    many = service.predict_many(xs[:6])
    assert len(many) == 6
    # One list request stays on one worker so its items micro-batch there.
    assert len({item["worker"]["slot"] for item in many}) == 1


def test_malformed_input_is_400_through_the_cluster(cluster):
    """A worker's input check comes back as InvalidInput (a string fails
    in the front end already), and the HTTP layer answers 400, as it does
    a ``model`` or ``version`` that is not a string."""
    service, xs = cluster["service"], cluster["xs"]
    with pytest.raises(InvalidInput, match=r"shape \(13,\)"):
        service.predict(np.zeros(DIMS[0] + 1))
    with pytest.raises(InvalidInput, match=r"input\[0\] is nan"):
        service.predict_many([xs[0], np.full(DIMS[0], np.nan)])
    errors = service.metrics()["errors"]
    with pytest.raises(InvalidInput, match="must be numbers"):
        service.predict("0.5")
    assert service.metrics()["errors"] == errors + 1
    nan = ", ".join(["NaN"] + ["0.5"] * (DIMS[0] - 1))
    inf = ", ".join(["0.5"] * (DIMS[0] - 1) + ["Infinity"])
    fine = ", ".join(["0.5"] * DIMS[0])
    url = cluster["server"].url + "/predict"
    for body in ('{"input": [0.5, 0.5]}', '{"input": [%s]}' % nan,
                 '{"input": [%s]}' % inf, '{"input": "0.5"}',
                 '{"input": [%s], "model": ["model_a"]}' % fine,
                 '{"input": [%s], "version": {"a": 1}}' % fine):
        request = urllib.request.Request(
            url, data=body.encode(), method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400, body
        excinfo.value.read()
    assert service.predict(xs[0])["prediction"] in range(DIMS[-1])


def test_unknown_model_is_404_through_the_cluster(cluster):
    """The worker's 404 answer comes back as the in-process KeyError."""
    service, xs = cluster["service"], cluster["xs"]
    with pytest.raises(KeyError, match="'nope'"):
        service.predict(xs[0], model="nope")
    body = json.dumps({"input": [0.5] * DIMS[0], "model": "nope"}).encode()
    request = urllib.request.Request(
        cluster["server"].url + "/predict", data=body, method="POST",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 404
    assert "'nope'" in json.loads(excinfo.value.read())["error"]


def test_model_failure_is_500_through_the_cluster(cluster):
    """Any other exception in the worker's predict answers 500 with its
    type, which the front end raises as a RuntimeError."""
    service, xs = cluster["service"], cluster["xs"]
    with pytest.raises(RuntimeError, match="TypeError: unhashable"):
        service.predict(xs[0], model=["model_a"])
    assert service.predict(xs[0])["model"] == "model_a"


def test_worker_refuses_a_kind_that_is_not_a_request(cluster):
    handle = cluster["supervisor"].live_handles()[0]
    response = handle.request(protocol.READY, {}).result(timeout=10)
    assert response == {"ok": False, "status": 400,
                        "error": "'ready' is not a worker request"}


def test_workers_heartbeat_after_ready(cluster):
    """Heartbeats (every 0.1 s here) keep arriving after a worker's ready
    message: the reader stamps ``last_heartbeat`` past ``ready_at``."""
    handles = cluster["supervisor"].live_handles()
    assert len(handles) == 2
    assert _wait(lambda: all(h.last_heartbeat > h.ready_at
                             for h in handles), timeout_s=10.0)
    assert all("obs" in h.stats for h in handles)


def test_http_round_trip_and_load_spread_over_workers(cluster):
    url = cluster["server"].url
    report = run_load(http_predict_fn(url), cluster["xs"][:10],
                      n_requests=60, n_clients=6)
    assert report.errors == 0 and report.rejected == 0
    assert report.requests == 60
    metrics = cluster["service"].metrics()
    per_worker = [w for w in metrics["workers"]
                  if w.get("metrics", {}).get("requests")]
    # Least-loaded routing under concurrency uses both workers.
    assert len(per_worker) == 2


def test_healthz_reports_quorum_and_metrics_aggregate(cluster):
    service = cluster["service"]
    health = service.healthz()
    assert health["status"] == "ok"
    assert health["workers"] == 2 and health["quorum"] == 2
    assert health["pid"] == os.getpid()

    metrics = cluster["service"].metrics()
    assert metrics["pid"] == os.getpid()
    assert metrics["supervisor"]["live_workers"] == 2
    assert "rejected_503" in metrics and "admission" in metrics
    for worker in metrics["workers"]:
        assert {"slot", "pid", "state", "restarts"} <= set(worker)
        if "metrics" in worker:
            assert "latency_ms" in worker["metrics"]  # per-worker p50/p95/p99
            assert worker["metrics"]["pid"] == worker["pid"]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class _FullHandle:
    slot, pid, inflight = 0, 4242, 99

    def acquire(self, bound):
        return False


class _FullSupervisor:
    """A supervisor whose single worker is permanently at capacity."""

    n_workers, quorum = 1, 1

    def __init__(self):
        self.started_at = time.monotonic()
        self.spec = WorkerSpec(source="stub")

    def live_handles(self):
        return [_FullHandle()]

    def live_count(self):
        return 1

    def restarts_total(self):
        return 0

    def describe(self):
        return []


def test_admission_control_refuses_with_retry_after():
    service = ClusterService(_FullSupervisor(), max_inflight_per_worker=1)
    with pytest.raises(Overloaded) as excinfo:
        service.predict(np.zeros(DIMS[0]))
    assert excinfo.value.retry_after_s > 0
    assert service.metrics()["rejected_503"] == 1


def test_overload_maps_to_http_503_with_retry_after():
    server = InferenceHTTPServer(
        ClusterService(_FullSupervisor(), max_inflight_per_worker=1),
        port=0).start()
    try:
        body = json.dumps({"input": [0.0] * DIMS[0]}).encode()
        request = urllib.request.Request(
            server.url + "/predict", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        excinfo.value.read()
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# supervision: crash, wedge, no silent drops
# ---------------------------------------------------------------------------

def test_killed_worker_restarts_within_backoff_budget(cluster):
    supervisor, service = cluster["supervisor"], cluster["service"]
    victim_pid = supervisor.describe()[0]["pid"]
    restarts_before = supervisor.restarts_total()
    os.kill(victim_pid, signal.SIGKILL)

    assert _wait(lambda: supervisor.live_count() < 2, timeout_s=5.0), \
        "worker death never detected"
    assert service.healthz()["status"] == "degraded"  # quorum=2, live=1

    # Budget: detection + backoff (0.1 s) + spawn + checkpoint self-load.
    assert _wait(lambda: supervisor.live_count() == 2, timeout_s=20.0), \
        "worker not restarted within the backoff budget"
    assert supervisor.restarts_total() == restarts_before + 1
    assert service.healthz()["status"] == "ok"
    replacement = service.predict(cluster["xs"][1], use_cache=False)
    assert replacement["worker"]["pid"] != victim_pid


def test_wedged_worker_is_detected_by_heartbeat_and_replaced(checkpoints):
    # Dedicated idle cluster: with no load running, a missing heartbeat
    # means wedged, so the timeout can be tight without false positives.
    spec = WorkerSpec(source=checkpoints["a"], heartbeat_s=0.1)
    with Supervisor(spec, n_workers=2, heartbeat_timeout_s=1.2,
                    backoff_base_s=0.1, backoff_cap_s=0.5) as supervisor:
        supervisor.start(wait=True)
        victim_pid = supervisor.describe()[1]["pid"]
        os.kill(victim_pid, signal.SIGSTOP)  # alive, pipe open, hb stops
        try:
            assert _wait(lambda: supervisor.live_count() < 2,
                         timeout_s=10.0), \
                "wedged worker never detected (heartbeat timeout 1.2 s)"
        finally:
            # The supervisor SIGKILLs it (SIGTERM cannot reach a stopped
            # process); SIGCONT here is only a safety net for the assert
            # path.
            try:
                os.kill(victim_pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        assert _wait(lambda: supervisor.live_count() == 2, timeout_s=20.0)
        assert supervisor.restarts_total() == 1


def test_no_accepted_request_is_silently_dropped_on_worker_death(cluster):
    supervisor = cluster["supervisor"]
    url = cluster["server"].url
    n_requests = 80
    restarts_before = supervisor.restarts_total()
    report_box = {}

    def load():
        report_box["report"] = run_load(
            http_predict_fn(url, timeout=30.0), cluster["xs"][:10],
            n_requests=n_requests, n_clients=8)

    thread = threading.Thread(target=load, daemon=True)
    thread.start()
    time.sleep(0.15)  # let requests get in flight
    os.kill(supervisor.describe()[0]["pid"], signal.SIGKILL)
    thread.join(timeout=60)
    assert not thread.is_alive(), "load run hung: a request was dropped"

    report = report_box["report"]
    # Every accepted request was answered (success, 5xx, or 503) — the
    # accounting adds up; none vanished into a dead worker's pipe.
    assert report.requests == n_requests
    assert report.requests - report.errors - report.rejected > 0
    # Wait on the restart *counter*, not live_count(): the latter is
    # vacuously 2 in the window before the supervisor notices the death.
    assert _wait(lambda: supervisor.restarts_total() > restarts_before
                 and supervisor.live_count() == 2, timeout_s=20.0)


# ---------------------------------------------------------------------------
# rolling hot-swap
# ---------------------------------------------------------------------------

def test_failed_swap_is_500_and_the_worker_keeps_serving(cluster, tmp_path):
    """A worker that cannot load the swap source answers 500 naming the
    error and keeps its current model (the supervisor then replaces it
    during a rolling swap; here the request goes to the worker alone)."""
    handle = cluster["supervisor"].live_handles()[0]
    response = handle.request(
        protocol.SWAP, {"source": str(tmp_path / "nope")}
    ).result(timeout=30)
    assert response["ok"] is False and response["status"] == 500
    assert response["error"].startswith("CheckpointError: ")
    assert "nope" in response["error"]
    versions = handle.request(protocol.METRICS, {}).result(
        timeout=10)["value"]["active_versions"]
    assert set(versions) == {"model_a"}


def test_rolling_swap_serves_continuously_and_bumps_version(cluster):
    service, supervisor = cluster["service"], cluster["supervisor"]
    url = cluster["server"].url
    before = service.predict(cluster["xs"][0], use_cache=False)
    report_box = {}

    def load():
        report_box["report"] = run_load(
            http_predict_fn(url), cluster["xs"][:10],
            n_requests=120, n_clients=6)

    thread = threading.Thread(target=load, daemon=True)
    thread.start()
    time.sleep(0.05)
    body = json.dumps(
        {"source": cluster["checkpoints"]["b"]}).encode()
    request = urllib.request.Request(
        url + "/admin/swap", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=120) as response:
        result = json.loads(response.read())
    thread.join(timeout=120)
    assert not thread.is_alive()

    assert sorted(result["swapped"] + result["skipped"]) == [0, 1]
    assert result["failed"] == []
    report = report_box["report"]
    # Zero hard errors: the tier never refused a request *by absence* —
    # only admission-control 503s (counted as rejected) are permitted.
    assert report.errors == 0
    assert report.requests == 120

    after = service.predict(cluster["xs"][0], use_cache=False)
    assert after["model"] == before["model"]
    assert after["version"] != before["version"]
    # Every live worker now serves the new version.
    for worker in service.metrics()["workers"]:
        if worker.get("metrics"):
            assert worker["metrics"]["active_versions"] == {
                "model_a": after["version"]}
    # Future restarts self-load the new source.
    assert supervisor.spec.source == cluster["checkpoints"]["b"]


# ---------------------------------------------------------------------------
# drain + startup failure
# ---------------------------------------------------------------------------

def test_drain_answers_inflight_and_reports_drained(checkpoints):
    spec = WorkerSpec(source=checkpoints["a"], heartbeat_s=0.1,
                      max_wait_ms=50.0)
    with Supervisor(spec, n_workers=1, backoff_base_s=0.1) as supervisor:
        supervisor.start(wait=True)
        service = ClusterService(supervisor, max_inflight_per_worker=16)
        futures = []
        pool = [threading.Thread(
            target=lambda i=i: futures.append(
                service.predict(checkpoints["xs"][i], use_cache=False)),
            daemon=True) for i in range(4)]
        # All four must be *accepted* (in flight on the worker) before the
        # drain starts — that is the property under test: accepted
        # requests get answered, not dropped.  The worker answers as soon
        # as it is idle, so it is stopped until all four are in its pipe;
        # it resumes well inside the 5 s heartbeat timeout.
        worker_pid = supervisor.describe()[0]["pid"]
        os.kill(worker_pid, signal.SIGSTOP)
        try:
            for t in pool:
                t.start()
            assert _wait(lambda: service.pending() == 4, timeout_s=3.0)
        finally:
            os.kill(worker_pid, signal.SIGCONT)
        assert service.shutdown(timeout=30.0) is True
        for t in pool:
            t.join(timeout=30)
        assert len(futures) == 4  # queued requests answered, not dropped
        assert supervisor.live_count() == 0


def test_bad_checkpoint_fails_startup_with_worker_error(tmp_path):
    spec = WorkerSpec(source=str(tmp_path / "nope"), heartbeat_s=0.1)
    supervisor = Supervisor(spec, n_workers=1, start_timeout_s=60.0)
    # The worker's fatal message names its error.
    with pytest.raises(ClusterError, match="worker 0 failed to start: "
                                           "CheckpointError: .*nope"):
        supervisor.start(wait=True)
    assert supervisor.live_count() == 0


def test_supervisor_rejects_bad_quorum(checkpoints):
    spec = WorkerSpec(source=checkpoints["a"])
    with pytest.raises(ValueError):
        Supervisor(spec, n_workers=2, quorum=3)
    with pytest.raises(ValueError):
        Supervisor(spec, n_workers=0)
