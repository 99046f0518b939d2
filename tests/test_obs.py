"""The observability layer: metrics registry, tracing, profiling, Prometheus.

The durability-sensitive pieces get explicit coverage: trace-file
integrity after a SIGKILL mid-write (single-write O_APPEND lines),
cross-process span linking in a real multi-worker run, histogram merging
across per-process snapshots, serve-telemetry percentile math under
concurrent recording, and the exposition linter against the invariants a
real Prometheus scrape enforces.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import cli, obs
from repro.core import EMSTDPNetwork, full_precision_config, kernels
from repro.data import make_blobs
from repro.experiments import Runner, get_scenario
from repro.obs import prom
from repro.obs.profile import KernelProfiler
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.trace import (TraceWriter, Tracer, build_span_forest,
                             read_trace, slowest_spans, summarize_kernels,
                             summarize_spans)
from repro.serve import InferenceHTTPServer, InferenceService, ModelRegistry
from repro.serve.telemetry import Telemetry, merge_batch_histograms


def tiny_spec(**overrides):
    return get_scenario("offline_accuracy").build_spec(
        tiny=True).replace(**overrides)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

def test_counters_accumulate_per_label_set():
    reg = MetricsRegistry()
    reg.inc("requests", outcome="hit")
    reg.inc("requests", 2.0, outcome="hit")
    reg.inc("requests", outcome="miss")
    snap = reg.snapshot()
    by_labels = {tuple(sorted(c["labels"].items())): c["value"]
                 for c in snap["counters"]}
    assert by_labels[(("outcome", "hit"),)] == 3.0
    assert by_labels[(("outcome", "miss"),)] == 1.0


def test_gauges_last_write_wins():
    reg = MetricsRegistry()
    reg.set_gauge("depth", 3)
    reg.set_gauge("depth", 7)
    assert reg.snapshot()["gauges"] == [
        {"name": "depth", "labels": {}, "value": 7.0}]


def test_histogram_buckets_sum_to_count():
    reg = MetricsRegistry()
    values = [0.02, 0.3, 5.0, 80.0, 1e6]  # last one overflows to +inf
    for v in values:
        reg.observe("latency_ms", v)
    hist, = reg.snapshot()["histograms"]
    assert sum(hist["bucket_counts"]) == hist["count"] == len(values)
    assert hist["bucket_counts"][-1] == 1  # the +inf overflow bucket
    assert hist["sum"] == pytest.approx(sum(values))
    assert hist["min"] == 0.02 and hist["max"] == 1e6
    assert len(hist["bucket_counts"]) == len(hist["bounds"]) + 1


def test_disabled_registry_writes_nothing():
    reg = MetricsRegistry(enabled=False)
    reg.inc("n")
    reg.set_gauge("g", 1)
    reg.observe("h", 1.0)
    assert reg.snapshot() == {"counters": [], "gauges": [],
                              "histograms": []}


def test_merge_snapshots_sums_and_labels():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("reqs", 3)
    b.inc("reqs", 4)
    a.observe("lat", 0.3)
    b.observe("lat", 0.3)
    b.observe("lat", 9000.0)

    # Same labels: series add (counters and histogram buckets alike).
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"] == [
        {"name": "reqs", "labels": {}, "value": 7.0}]
    hist, = merged["histograms"]
    assert hist["count"] == 3 and sum(hist["bucket_counts"]) == 3
    assert hist["min"] == 0.3 and hist["max"] == 9000.0

    # Per-process extra labels keep attribution: nothing collapses.
    merged = merge_snapshots([a.snapshot(), b.snapshot()],
                             extra_labels=[{"worker": "0"}, {"worker": "1"}])
    assert [c["value"] for c in merged["counters"]] == [3.0, 4.0]
    assert [c["labels"]["worker"] for c in merged["counters"]] == ["0", "1"]


def test_merge_snapshots_incompatible_bounds_kept_apart():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.observe("sizes", 2, buckets=(1, 2, 4))
    b.observe("sizes", 2, buckets=(10, 20))
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    names = sorted(h["name"] for h in merged["histograms"])
    assert names == ["sizes", "sizes_alt"]


def test_merge_snapshots_skips_missing():
    reg = MetricsRegistry()
    reg.inc("n")
    merged = merge_snapshots([None, reg.snapshot(), {}])
    assert merged["counters"][0]["value"] == 1.0


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_span_records_nesting_and_attrs(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.jsonl"
    with tracer.bind(path):
        with tracer.span("outer", experiment="x") as sp:
            sp.set(result=np.float64(0.5))  # numpy scalar must coerce
            with tracer.span("inner", epoch=0):
                tracer.event("tick", n=1)
    records = read_trace(path)
    assert [r["kind"] for r in records] == ["event", "span", "span"]
    event, inner, outer = records
    assert inner["parent_id"] == outer["span_id"]
    assert event["parent_id"] == inner["span_id"]
    assert outer["parent_id"] is None
    assert outer["attrs"] == {"experiment": "x", "result": 0.5}
    assert outer["dur_ms"] >= inner["dur_ms"]
    assert all(r["pid"] == os.getpid() for r in records)


def test_span_without_sink_is_noop(tmp_path):
    tracer = Tracer()
    with tracer.span("anything") as sp:
        assert sp is None
    tracer.event("ignored")
    with tracer.bind(None) as writer:  # None path: bind declines politely
        assert writer is None
        with tracer.span("still-nothing") as sp:
            assert sp is None


def test_span_error_status_propagates(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.jsonl"
    with tracer.bind(path):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
    record, = read_trace(path)
    assert record["status"] == "error"


def test_explicit_parent_links_across_processes(tmp_path):
    # The runner hands the parent span id to the worker as a string; the
    # worker's root span must attach to it even though the worker's own
    # thread-local stack is empty.
    tracer = Tracer()
    path = tmp_path / "trace.jsonl"
    with tracer.bind(path):
        with tracer.span("run") as root:
            parent = root.span_id
        with tracer.span("seed", parent_id=parent):
            pass
    run, seed = {r["name"]: r for r in read_trace(path)}.values()
    roots, children = build_span_forest(read_trace(path))
    assert [r["name"] for r in roots] == ["run"]
    assert [c["name"] for c in children[parent]] == ["seed"]


def test_read_trace_tolerates_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps({"kind": "event", "name": "ok"})
    path.write_bytes((good + "\n" + "not json at all\n"
                      + good + "\n" + '{"kind": "span", "tru').encode())
    records = read_trace(path)
    assert len(records) == 2
    assert all(r["name"] == "ok" for r in records)
    assert read_trace(tmp_path / "missing.jsonl") == []


def test_sigkill_mid_write_leaves_readable_trace(tmp_path):
    """A writer SIGKILLed in a tight write loop never corrupts the file:
    every parsed record is complete, and at most one trailing line tears."""
    path = tmp_path / "trace.jsonl"
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from repro.obs.trace import TraceWriter\n"
        "w = TraceWriter(sys.argv[1])\n"
        "i = 0\n"
        "while True:\n"
        "    w.write({'kind': 'event', 'name': 'spin', 'i': i,\n"
        "             'pad': 'x' * 512})\n"
        "    i += 1\n")
    src = str((os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
              + "/src")
    proc = subprocess.Popen([sys.executable, "-c", script, str(path), src])
    try:
        deadline = time.time() + 20
        while time.time() < deadline:
            if path.exists() and path.stat().st_size > 50_000:
                break
            time.sleep(0.01)
        else:
            pytest.fail("writer subprocess produced no output")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    raw_lines = [l for l in path.read_bytes().split(b"\n") if l]
    records = read_trace(path)
    assert len(records) >= len(raw_lines) - 1  # at most one torn line
    assert [r["i"] for r in records] == list(range(len(records)))


def test_summaries_and_slowest(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.jsonl"
    with tracer.bind(path):
        for _ in range(3):
            with tracer.span("fit_epoch"):
                pass
        with pytest.raises(RuntimeError):
            with tracer.span("evaluate"):
                raise RuntimeError
    records = read_trace(path)
    summary = {s["name"]: s for s in summarize_spans(records)}
    assert summary["fit_epoch"]["count"] == 3
    assert summary["evaluate"]["errors"] == 1
    assert len(slowest_spans(records, top=2)) == 2


def test_summarize_kernels_merges_processes():
    records = [
        {"kind": "kernel_stats", "pid": 1, "kernels": {
            "if_step": {"calls": 100, "timed": 2, "sampled_ms": 1.0}}},
        {"kind": "kernel_stats", "pid": 2, "kernels": {
            "if_step": {"calls": 300, "timed": 2, "sampled_ms": 3.0}}},
    ]
    entry, = summarize_kernels(records)
    assert entry["calls"] == 400 and entry["timed"] == 4
    assert entry["mean_us"] == pytest.approx(1000.0)  # 4ms over 4 samples
    assert entry["est_total_ms"] == pytest.approx(400.0)


# ---------------------------------------------------------------------------
# kernel profiler
# ---------------------------------------------------------------------------

def test_profiler_counts_all_times_sampled():
    prof = KernelProfiler(sample=4)
    calls = []
    fn = prof.wrap("k", lambda x: calls.append(x) or x * 2)
    for i in range(9):
        assert fn(i) == i * 2
    snap = prof.snapshot()["k"]
    assert len(calls) == 9  # wrapping never drops calls
    assert snap["calls"] == 9
    assert snap["timed"] == 2  # calls 4 and 8; call 1 never sampled
    assert snap["sampled_ms"] >= 0.0


def test_profiler_sample_zero_is_passthrough():
    prof = KernelProfiler(sample=0)
    fn = prof.wrap("k", lambda: 1)
    for _ in range(10):
        fn()
    assert prof.snapshot() == {}  # zero-call kernels omitted


def test_profiler_runtime_toggle_affects_wrapped():
    prof = KernelProfiler(sample=1)
    fn = prof.wrap("k", lambda: 1)
    fn()
    prof.sample = 0  # flip after wrapping: the probe must go quiet
    fn()
    assert prof.snapshot()["k"]["calls"] == 1


def test_profiler_delta_isolates_one_unit_of_work():
    prof = KernelProfiler(sample=2)
    fn = prof.wrap("k", lambda: 1)
    for _ in range(4):
        fn()
    baseline = prof.snapshot()
    for _ in range(6):
        fn()
    delta = prof.delta(baseline)["k"]
    assert delta["calls"] == 6 and delta["timed"] == 3
    assert prof.delta(baseline.copy()) != {}
    assert prof.delta(prof.snapshot()) == {}  # nothing new since


def test_public_kernels_are_profiled():
    obs.kernel_profiler.reset()
    v = np.zeros((4, 16))
    refrac = np.zeros((4, 16), dtype=np.int64)
    drive = np.full((4, 16), 0.5)
    before = obs.kernel_profiler.sample
    obs.kernel_profiler.sample = 1
    try:
        for _ in range(3):
            kernels.if_step(v.copy(), refrac.copy(), drive, 1.0)
    finally:
        obs.kernel_profiler.sample = before
        snap = obs.kernel_profiler.snapshot()
        obs.kernel_profiler.reset()
    assert snap["if_step"]["calls"] == 3
    assert snap["if_step"]["timed"] == 3  # stride 1: every call timed


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def test_render_snapshot_counter_suffix_and_lint():
    reg = MetricsRegistry()
    reg.inc("serve_requests", 5, outcome="hit")
    reg.set_gauge("depth", 2)
    reg.observe("latency_ms", 3.0)
    text = prom.render_snapshot(reg.snapshot())
    assert '# TYPE repro_serve_requests_total counter' in text
    assert 'repro_serve_requests_total{outcome="hit"} 5' in text
    assert '# TYPE repro_depth gauge' in text
    assert 'repro_latency_ms_bucket{le="+Inf"} 1' in text
    assert prom.lint(text) == []


def test_sanitize_names_and_labels():
    assert prom.sanitize_name("serve.latency-ms") == "serve_latency_ms"
    assert prom.sanitize_name("9lives") == "_9lives"
    assert prom.sanitize_label("__reserved") == "x__reserved"
    text = prom.render_snapshot({"counters": [
        {"name": "weird.name", "labels": {"bad-label": 'va"l\nue'},
         "value": 1}], "gauges": [], "histograms": []})
    assert prom.lint(text) == []


def test_lint_catches_real_violations():
    assert prom.lint("# TYPE m counter\n# TYPE m counter\nm 1\n")
    assert prom.lint("orphan_sample 1\n")
    assert prom.lint("# TYPE m gauge\nm not-a-number\n")
    bad_buckets = ("# TYPE h histogram\n"
                   'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                   "h_sum 1\nh_count 3\n")
    assert any("cumulative" in p for p in prom.lint(bad_buckets))
    no_inf = ('# TYPE h histogram\nh_bucket{le="1"} 1\n')
    assert any("+Inf" in p for p in prom.lint(no_inf))
    dup = ('# TYPE m counter\nm{a="1"} 1\nm{a="1"} 2\n')
    assert any("duplicate sample" in p for p in prom.lint(dup))
    assert prom.lint('# TYPE m counter\nm{a="1"} 1\nm{a="2"} 2\n') == []
    assert prom.lint("") == []


def test_render_metrics_payload_from_live_service():
    net = EMSTDPNetwork((8, 12, 3), full_precision_config(
        seed=0, phase_length=8))
    registry = ModelRegistry()
    registry.register("net", net)
    service = InferenceService(registry, max_batch=4, max_wait_ms=2.0,
                               cache_size=16)
    try:
        xs, _ = make_blobs(8, 3, 6, seed=0)
        for x in xs:
            service.predict(x)
        service.predict(xs[0])  # cache hit
        payload = service.metrics()
    finally:
        service.shutdown()
    text = prom.render_metrics_payload(payload)
    assert prom.lint(text) == []
    assert "repro_requests_total 7" in text
    assert "repro_latency_ms_p99" in text
    assert "repro_cache_hits_total" in text
    assert 'repro_batch_size_total{size="' in text
    # The embedded obs registry snapshot rides along.
    assert "repro_serve_requests_total{" in text


def test_render_cluster_payload_no_duplicate_obs_series():
    # A cluster front end merges worker registry snapshots into its
    # top-level "obs" (worker-labeled); each worker sub-payload still
    # embeds its own "obs".  Rendering both would emit the same series
    # twice, which a Prometheus scrape rejects — the merged view wins.
    worker_obs = {"counters": [{"name": "serve_requests",
                                "labels": {"outcome": "hit"}, "value": 4}],
                  "gauges": [], "histograms": []}
    payload = {
        "requests": 4,
        "obs": merge_snapshots([worker_obs],
                               extra_labels=[{"worker": "0"}]),
        "workers": [{"slot": 0, "state": "ready", "restarts": 0,
                     "metrics": {"requests": 4, "obs": worker_obs}}],
    }
    text = prom.render_metrics_payload(payload)
    assert prom.lint(text) == []
    assert text.count('repro_serve_requests_total{outcome="hit",'
                      'worker="0"} 4') == 1


def test_http_metrics_prometheus_negotiation():
    net = EMSTDPNetwork((8, 12, 3), full_precision_config(
        seed=0, phase_length=8))
    registry = ModelRegistry()
    registry.register("net", net)
    service = InferenceService(registry, max_batch=4, max_wait_ms=2.0)
    server = InferenceHTTPServer(service, port=0).start()
    try:
        xs, _ = make_blobs(8, 3, 2, seed=0)
        service.predict(xs[0])

        with urllib.request.urlopen(
                f"{server.url}/metrics?format=prometheus", timeout=10) as r:
            assert r.headers["Content-Type"].startswith("text/plain")
            assert prom.lint(r.read().decode()) == []

        req = urllib.request.Request(f"{server.url}/metrics",
                                     headers={"Accept": "text/plain"})
        with urllib.request.urlopen(req, timeout=10) as r:
            assert r.headers["Content-Type"].startswith("text/plain")

        with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
            payload = json.loads(r.read())  # JSON stays the default
            assert "latency_ms" in payload
    finally:
        server.stop()
        service.shutdown()


# ---------------------------------------------------------------------------
# serve telemetry percentile math (satellite)
# ---------------------------------------------------------------------------

def test_percentiles_monotonic_under_concurrent_recording():
    telemetry = Telemetry()
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=1.0, sigma=1.0, size=(8, 250))

    def client(row):
        for latency in samples[row]:
            telemetry.record(float(latency), queue_ms=float(latency) / 4,
                             batch_size=int(latency) % 7 + 1, cached=False,
                             energy_mj=0.01)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    snap = telemetry.snapshot()
    assert snap["requests"] == samples.size  # no lost updates under the lock
    for dist_key in ("latency_ms", "queue_ms"):
        dist = snap[dist_key]
        assert 0.0 <= dist["p50"] <= dist["p95"] <= dist["p99"] \
            <= dist["max"]
        assert dist["mean"] > 0.0
    hist = snap["batch_size_histogram"]
    assert sum(hist.values()) == samples.size
    assert snap["energy_mj_total"] == pytest.approx(0.01 * samples.size)


def test_percentile_interpolation_and_edges():
    from repro.serve.telemetry import percentile
    assert percentile([], 99) == 0.0
    assert percentile([5.0], 50) == 5.0
    values = list(range(101))  # 0..100: pXX == XX exactly
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile(values, 99) == 99.0


def test_merge_batch_histograms_sums_and_sorts():
    merged = merge_batch_histograms([
        {"1": 3, "16": 1}, None, {}, {"2": 5, "1": 4}])
    assert merged == {"1": 7, "2": 5, "16": 1}
    assert list(merged) == ["1", "2", "16"]  # numeric, not lexicographic
    assert merge_batch_histograms([]) == {}


# ---------------------------------------------------------------------------
# runner integration + CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One tiny 2-seed run with process fan-out, traced; shared by the
    CLI and integrity tests below (runs real training, so run it once)."""
    out_root = tmp_path_factory.mktemp("runs")
    spec = tiny_spec(seeds=(0, 1), backends=("rate",), n_train=40, n_test=20)
    result = Runner(out_root=out_root, max_workers=2).run(spec)
    assert result.status == "complete"
    return out_root, result


def test_traced_run_writes_linked_spans(traced_run):
    out_root, result = traced_run
    records = read_trace(result.run_dir / obs.TRACE_FILE_NAME)
    spans = {r["name"]: r for r in records if r.get("kind") == "span"}
    assert {"run", "seed", "fit_epoch", "evaluate",
            "load_dataset"} <= set(spans)
    roots, children = build_span_forest(records)
    assert [r["name"] for r in roots] == ["run"]
    seed_spans = [s for s in children[spans["run"]["span_id"]]
                  if s["name"] == "seed"]
    assert len(seed_spans) == 2
    assert len({s["pid"] for s in seed_spans}) == 2  # two worker processes
    kernel_records = [r for r in records if r.get("kind") == "kernel_stats"]
    assert kernel_records and summarize_kernels(records)
    events = [r for r in records if r.get("kind") == "event"]
    assert {"seed_finished"} <= {e["name"] for e in events}


def test_resolve_trace_path_forms(traced_run, tmp_path):
    out_root, result = traced_run
    expected = result.run_dir / obs.TRACE_FILE_NAME
    assert cli._resolve_trace_path(str(expected), str(out_root)) == expected
    assert cli._resolve_trace_path(str(result.run_dir),
                                   str(out_root)) == expected
    assert cli._resolve_trace_path(result.run_id, str(out_root)) == expected
    with pytest.raises(KeyError, match="not a trace file"):
        cli._resolve_trace_path("no-such-run", str(tmp_path))


def test_cli_trace_summary_and_show(traced_run, capsys):
    out_root, result = traced_run
    assert cli.main(["trace", "summary", result.run_id,
                     "--out", str(out_root)]) == 0
    out = capsys.readouterr().out
    assert "per-span aggregates" in out
    assert "kernel timing" in out
    assert "slowest spans" in out
    assert "2 process(es)" not in out  # parent + 2 workers = 3 pids
    assert cli.main(["trace", "show", result.run_id,
                     "--out", str(out_root)]) == 0
    out = capsys.readouterr().out
    assert "run [experiment=offline_accuracy" in out
    assert "seed [" in out


def test_cli_trace_empty_file_errors(tmp_path, capsys):
    (tmp_path / obs.TRACE_FILE_NAME).write_text("")
    assert cli.main(["trace", "summary", str(tmp_path)]) == 2
    assert "no trace records" in capsys.readouterr().err


def test_trace_disabled_by_env(tmp_path, monkeypatch):
    assert obs.trace_path_for(None) is None
    monkeypatch.setattr(obs, "_TRACE_DEFAULT_ON", False)
    assert obs.trace_path_for(tmp_path) is None
    monkeypatch.setattr(obs, "_TRACE_DEFAULT_ON", True)
    assert obs.trace_path_for(tmp_path) == os.path.join(
        str(tmp_path), obs.TRACE_FILE_NAME)


def test_bench_environment_stamp():
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "benchmarks"))
    try:
        from _bench_utils import environment_stamp
    finally:
        sys.path.pop(0)
    stamp = environment_stamp()
    assert set(stamp) == {"git_sha", "hostname", "cpu_count",
                          "kernel_backend"}
    assert stamp["cpu_count"] >= 1
    assert stamp["kernel_backend"] in ("numpy", "cext")
    assert stamp["git_sha"]  # a sha in a work tree, "unknown" outside
