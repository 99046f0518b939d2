"""Benchmark of the EMSTDP reproduction: four paper workloads, end to end
and per layer.

Run from the root of a checkout (nothing needs installing; the program is
imported from ``src/``)::

    python3 perfbench/run.py --workload ref_spike --seed 1 --seconds 15 \
        --trace 0

Workloads (see ``workloads.py``): ``ref_spike``, ``chip_flow1``,
``iol_seed`` and ``serve_http``.  One invocation runs one workload in this
one process, so ``peak_rss_mb`` is that workload's own peak.  The process
runs with one BLAS thread and keeps its compiled kernels in
``.bench_build/``, which it builds before any timing.

End-to-end metrics: ``setup_s`` (median set-up time), ``train_sps`` and
``infer_sps`` (median rate over timed chunks of training and inference;
on ``serve_http`` the set-up's training of the served model and the
completed requests per second), and ``peak_rss_mb``.  Workload-specific
values (``test_acc``, ``chip_*_mj``, ``serve_*``, ``error_rate``) are
printed by every run and reported with the per-layer metrics: they are 0
or undefined on the other workloads, so they cannot be bounded per
workload.

Times of computation are reported at a reference host speed.  On a
shared machine the same work runs up to twice as fast for minutes at a
time, which moves every raw time alike.  A fixed reference loop
(:class:`HostProbe`) moves with it; it is timed around every set-up and
unit and between timed chunks (before every chunk of a set-up, at most
every 0.25 s in a unit).  Each chunk's time, less the probes taken in
it, is scaled by ``PROBE_REF_S`` over the mean of the probes taken in it
and on either side.  Over ten seeds on a shared 2-vCPU x86-64 VM that
cut the spread (IQR over median) of the four workloads' training rates
from 5-16% to 3-7%.  The raw values are printed too and reported as
``host.*`` per-layer metrics.  The request rate of ``serve_http`` is not
scaled: it is set by network timers, not by CPU speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
measurement, then one more set-up and unit with spans recorded around the
program's layers (``tracing.py``), and prints the per-layer metrics, the
tracing overhead against the untraced pass and the share of the measured
window that no listed layer covers.  Spans are written to
``.bench_build/perfbench/`` when the run ends.

Every run checks the program's outputs (see each workload), that every
output of one seed repeats exactly, within the run and across runs of the
same source tree, and that no thread or process it started outlives it.
A failed check prints ``"correct": false`` and exits with status 1.
Without the program's sources the command exits with status 2 and prints
no result.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "perfbench"

#: Set-up is timed at least SETUP_MIN times and until SETUP_BUDGET_S
#: seconds are spent (at most SETUP_MAX times); ``setup_s`` is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: Reference duration of one :class:`HostProbe` sample (its typical time
#: on a shared 2-vCPU x86-64 VM); times are scaled to that host speed.
PROBE_REF_S = 0.01

#: name -> unit.  Printed with ``--trace 0``; bounded in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "train_sps": "1/s",
    "infer_sps": "1/s",
    "peak_rss_mb": "MB",
}

_KERNELS = ("if_step", "delta_w", "cuba_step", "trace_update",
            "sum_of_products")

#: name -> unit.  Printed with ``--trace 1``.  Layers a workload does not
#: reach read 0.
PER_LAYER = {
    "core.network.train_sample.calls": "count",
    "core.network.train_sample.s": "s",
    "core.network.predict_batch.calls": "count",
    "core.network.predict_batch.s": "s",
    "core.neuron.step.calls": "count",
    "core.neuron.step.self_s": "s",
    "core.learning.apply.calls": "count",
    "core.learning.apply.self_s": "s",
    **{f"core.kernels.{k}.{stat}": unit for k in _KERNELS
       for stat, unit in (("calls", "count"), ("s", "s"),
                          ("us_per_call", "us"))},
    "incremental.run.s": "s",
    "onchip.trainer.train_sample.calls": "count",
    "onchip.trainer.train_sample.s": "s",
    "onchip.trainer.infer_batch.calls": "count",
    "onchip.trainer.infer_batch.s": "s",
    "loihi.runtime.step.calls": "count",
    "loihi.runtime.step.self_s": "s",
    "loihi.runtime.learning_epoch.calls": "count",
    "loihi.runtime.learning_epoch.self_s": "s",
    "loihi.runtime.set_bias.self_s": "s",
    "loihi.runtime.reset.self_s": "s",
    "loihi.synapse.propagate.self_s": "s",
    "loihi.compartment.step.self_s": "s",
    "loihi.traces.update.self_s": "s",
    "loihi.microcode.apply_all.self_s": "s",
    "sim.train.spikes_per_sample": "spikes/sample",
    "sim.train.syn_events_per_sample": "events/sample",
    "sim.train.learning_epochs_per_sample": "epochs/sample",
    "sim.infer.spikes_per_sample": "spikes/sample",
    "sim.infer.syn_events_per_sample": "events/sample",
    "data.load_dataset.s": "s",
    "models.pretrain.s": "s",
    "persist.save.s": "s",
    "persist.load.s": "s",
    "serve.http.overhead_ms.p50": "ms",
    "serve.service.predict.calls": "count",
    "serve.service.predict.p50_ms": "ms",
    "serve.batcher.queue_ms.p50": "ms",
    "serve.batcher.batch_size.mean": "requests",
    "serve.cache.hit_ratio": "fraction",
    "serve.telemetry.record.calls": "count",
    "serve.telemetry.record.self_s": "s",
    "obs.registry.calls": "count",
    "obs.registry.self_s": "s",
    "serve.errors": "count",
    "serve.rejected": "count",
    # Workload-specific end-to-end values, from the untraced units.
    "test_acc": "fraction",
    "error_rate": "fraction",
    "chip_train_mj": "mJ",
    "chip_infer_mj": "mJ",
    "serve_rps": "1/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.uncovered_share": "fraction",
    # Unscaled host times of the untraced units (see HostProbe).
    "host.probe_ms": "ms",
    "host.setup_s_raw": "s",
    "host.train_sps_raw": "1/s",
    "host.infer_sps_raw": "1/s",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def prepare() -> dict:
    """Put ``src/`` on the path, keep the kernel build inside the
    checkout, compile or load the kernels, and stamp the environment."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"{src / 'repro'} not found")
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD_DIR / "repro-kernels")
    # The C compiler and tempfile write their scratch files here too.
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    # On a 2-CPU host OpenBLAS's worker threads make one spike-engine
    # evaluate_batch take 0.05 s or 0.6 s at random; one BLAS thread
    # keeps repeated runs comparable.  Must be set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    adopt_orphans()
    for path in (str(ROOT / "benchmarks"), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np
    from _bench_utils import environment_stamp  # imports repro.core.kernels
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return {**environment_stamp(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1}


def source_digest() -> str:
    """Digest of the program and benchmark sources: runs of one tree must
    agree exactly on every seeded output."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class HostProbe:
    """A fixed reference loop (small BLAS matvec plus numpy reductions,
    the op mix of the engines measured here), sampled around measured
    work to track host speed."""

    loops = 1000
    every_s = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._w = rng.standard_normal((257, 100))
        self._x = rng.random(257)
        #: (end time, seconds) per sample, in time order.
        self.samples: List[tuple] = []

    def sample(self) -> None:
        t0 = perf_counter()
        total = 0.0
        for _ in range(self.loops):
            total += float(self._np.maximum(self._x @ self._w, 0.0).sum())
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def tick(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.samples or (perf_counter() - self.samples[-1][0]
                                >= self.every_s):
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """Factor turning host seconds spent from ``start`` into seconds
        at the reference speed: ``PROBE_REF_S`` over the mean of the
        samples taken during the work, the last one before it and the
        first one after it."""
        ends = [t for t, _ in self.samples]
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_left(ends, start + seconds)
        near = [s for _, s in self.samples[max(i - 1, 0):j + 1]]
        return PROBE_REF_S / statistics.mean(near)

    def net_s(self, start: float, seconds: float) -> float:
        """Host seconds of the work, less the probe samples taken in it."""
        return seconds - sum(s for end, s in self.samples
                             if end - s >= start and end <= start + seconds)

    def reference_s(self, start: float, seconds: float) -> float:
        """Seconds of the work at the reference host speed."""
        return self.net_s(start, seconds) * self.scale(start, seconds)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run units for ``seconds``, optionally trace; close always."""
    from tracing import Tracer
    from workloads import UnitContext

    probe = HostProbe()
    out = {"setup": [], "setup_train": [], "units": [], "traced": None,
           "probe": probe, "cpu_bound": getattr(workload, "cpu_bound", True)}
    state = None
    try:
        while len(out["setup"]) < SETUP_MIN or (
                len(out["setup"]) < SETUP_MAX
                and sum(s for _, s in out["setup"]) < SETUP_BUDGET_S):
            if state is not None:
                workload.close(state)
                state = None
            probe.sample()
            t0 = perf_counter()
            state = workload.setup(seed, UnitContext(tick=probe.sample))
            out["setup"].append((t0, perf_counter() - t0))
            out["setup_train"].extend(state.get("setup_train", []))
        probe.sample()
        begin = perf_counter()
        while not out["units"] or perf_counter() - begin < seconds:
            out["units"].append(workload.unit(
                state, UnitContext(tick=probe.tick)))
            probe.sample()
        if trace:
            workload.close(state)
            state = None
            with Tracer() as tracer:
                state = workload.setup(seed, UnitContext(tracer))
                probe.sample()
                unit = workload.unit(state, UnitContext(tracer))
                probe.sample()
            out["traced"] = (tracer, unit)
    finally:
        if state is not None:
            workload.close(state)
    return out


def results(out: dict) -> Dict[str, float]:
    """Every end-to-end value of the untraced units, by metric name."""
    units, probe = out["units"], out["probe"]
    train = out["setup_train"] or [c for u in units for c in u.train]
    infer = [c for u in units for c in u.infer]

    def rate(n, s, start, scaled=True):
        return n / (probe.reference_s(start, s) if scaled
                    else probe.net_s(start, s))

    values = {
        "setup_s": statistics.median(probe.reference_s(t0, s)
                                     for t0, s in out["setup"]),
        "train_sps": statistics.median(rate(*c) for c in train),
        "infer_sps": statistics.median(rate(*c, scaled=out["cpu_bound"])
                                       for c in infer),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host.probe_ms": statistics.median(
            s for _, s in probe.samples) * 1e3,
        "host.setup_s_raw": statistics.median(probe.net_s(t0, s)
                                              for t0, s in out["setup"]),
        "host.train_sps_raw": statistics.median(
            rate(*c, scaled=False) for c in train),
        "host.infer_sps_raw": statistics.median(
            rate(*c, scaled=False) for c in infer),
        "error_rate": (sum(u.failed for u in units)
                       / max(sum(u.attempted for u in units), 1)),
        **units[0].exact,
    }
    for key in units[0].extra:
        values[key] = statistics.median(u.extra[key] for u in units)
    return values


def per_layer(out: dict, values: Dict[str, float]) -> Dict[str, float]:
    """The traced pass's layer metrics, plus the workload-specific
    end-to-end values of the untraced units."""
    tracer, traced = out["traced"]
    totals = tracer.layer_totals()
    metrics = {name: float(values.get(name, 0.0)) for name in PER_LAYER}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in totals.get(layer, {}):
            metrics[name] = float(totals[layer][stat])
    for k in _KERNELS:
        kernel = totals.get(f"core.kernels.{k}", {})
        if kernel.get("calls"):
            metrics[f"core.kernels.{k}.us_per_call"] = (
                kernel["s"] / kernel["calls"] * 1e6)

    predict_ms = {rec["request"]: (rec["end"] - rec["start"]) * 1e3
                  for rec in tracer.records
                  if rec["name"] == "serve.service.predict"
                  and rec["request"] is not None}
    overhead = [traced.request_ms[rid] - ms for rid, ms in predict_ms.items()
                if rid in traced.request_ms]
    if overhead:
        metrics["serve.service.predict.p50_ms"] = statistics.median(
            predict_ms.values())
        metrics["serve.http.overhead_ms.p50"] = statistics.median(overhead)

    probe, cpu_bound = out["probe"], out["cpu_bound"]

    def work_s(unit):
        """A unit's measured seconds at the reference host speed."""
        return (sum(probe.reference_s(t0, s) for _, s, t0 in unit.train)
                + sum(probe.reference_s(t0, s) if cpu_bound else s
                      for _, s, t0 in unit.infer))

    untraced_s = statistics.median(work_s(u) for u in out["units"])
    lo, hi = traced.window
    metrics["trace.overhead_pct"] = ((work_s(traced) - untraced_s)
                                     / untraced_s * 100)
    metrics["trace.uncovered_share"] = (1.0 - tracer.covered_s(lo, hi)
                                        / (hi - lo))
    return metrics


def exactness_problems(name: str, seed: int, out: dict,
                       record: bool) -> List[str]:
    """Every unit of the run, and every earlier run of this seed on the
    same sources, must produce the same exact outputs.  With ``record``
    the outputs are kept for later runs when none are kept yet."""
    units = list(out["units"])
    if out["traced"] is not None:
        units.append(out["traced"][1])
    problems = []
    first = units[0].exact
    for i, unit in enumerate(units[1:], start=1):
        if unit.exact != first:
            problems.append(f"unit {i} exact outputs {unit.exact} differ "
                            f"from unit 0 {first}")
    store = WORK_DIR / "exact.json"
    key = f"{name}/{seed}/{source_digest()}"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != first:
        problems.append(f"exact outputs {first} differ from an earlier run "
                        f"of the same sources and seed: {known[key]}")
    elif key not in known and record and not problems:
        known[key] = first
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return problems


# ---------------------------------------------------------------------------
# Nothing left running
# ---------------------------------------------------------------------------

#: prctl option that makes orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the subreaper of every process this run starts: when a
    child exits before its own children, they are re-parented to this
    process instead of to init, so :func:`reap_children` finds them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _descendants() -> Dict[int, str]:
    """Every process below this one in the process tree: pid -> state
    letter (``Z`` for an exited process not reaped yet)."""
    children: Dict[int, List[int]] = {}
    state = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
        state[int(entry)] = fields[0]
    found: Dict[int, str] = {}
    below = [os.getpid()]
    while below:
        for pid in children.get(below.pop(), ()):
            found[pid] = state[pid]
            below.append(pid)
    return found


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children left
            return
        if pid == 0:
            return


def reap_children(grace_s: float = 5.0) -> List[str]:
    """Stop every process this run started and reap it.

    Running descendants get SIGTERM, then SIGKILL after ``grace_s``;
    exited ones, and orphans re-parented here, are reaped.  Returns one
    problem per process that was still running.
    """
    problems: List[str] = []
    reported = set()
    begin = time.monotonic()
    while True:
        _reap_exited()
        found = _descendants()
        running = [pid for pid, state in found.items() if state != "Z"]
        for pid in running:
            if pid not in reported:
                reported.add(pid)
                problems.append(f"child process {pid} was still running")
        if not found:
            return problems
        waited = time.monotonic() - begin
        if waited > 2 * grace_s:
            problems.append(f"processes {sorted(found)} could not be stopped")
            return problems
        for pid in running:
            try:
                os.kill(pid, signal.SIGTERM if waited < grace_s
                        else signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def live_threads(grace_s: float = 2.0) -> List[threading.Thread]:
    """Non-daemon threads other than this one still alive after a grace."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = [t for t in threading.enumerate()
                 if t is not threading.current_thread() and not t.daemon
                 and t.is_alive()]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_block(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def main(argv: Optional[List[str]] = None, workloads=None) -> int:
    """Run one workload; ``workloads`` (name -> instance) replaces the
    built-in set, which is how the benchmark's own tests inject faults."""
    args = _parse(argv)
    try:
        stamp = prepare()
    except ProgramMissing as exc:
        print(f"perfbench: no program to measure: {exc}", file=sys.stderr)
        return 2
    if workloads is None:
        from workloads import make_workloads
        workloads = make_workloads(WORK_DIR)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(stamp, sort_keys=True)}")

    problems: List[str] = []
    out = None
    try:
        out = measure(workloads[args.workload], args.seed,
                      max(args.seconds, 0.0), bool(args.trace))
    except Exception:
        traceback.print_exc()
        problems.append("the workload raised")
    if out is not None:
        for unit in out["units"]:
            problems.extend(unit.problems)
        if out["traced"] is not None:
            problems.extend(out["traced"][1].problems)
        problems.extend(exactness_problems(args.workload, args.seed, out,
                                           record=not problems))
    problems.extend(reap_children())
    leftover = live_threads()
    problems.extend(f"thread {t.name!r} was still running" for t in leftover)

    metrics: dict = {}
    attempted = failed = 0
    if out is not None and out["units"]:
        attempted = sum(u.attempted for u in out["units"])
        failed = sum(u.failed for u in out["units"])
        values = results(out)
        unit_of = {**PER_LAYER, **END_TO_END}
        print(f"# {len(out['units'])} units, {len(out['setup'])} set-ups")
        for name in sorted(values):
            unit = unit_of.get(name, "count")
            print(f"# {name} = {values[name]:.6g} {unit}")
        if args.trace and out["traced"] is not None:
            metrics = _metric_block(per_layer(out, values), PER_LAYER)
            _write_spans(args.workload, args.seed, stamp, out["traced"][0])
        elif not args.trace:
            metrics = _metric_block(values, END_TO_END)
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    if leftover:
        # A non-daemon thread would keep the interpreter from exiting.
        os._exit(1)
    return 0 if not problems else 1


def _write_spans(name: str, seed: int, stamp: dict, tracer) -> None:
    path = WORK_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "stamp", **stamp}) + "\n")
        for rec in tracer.records:
            fh.write(json.dumps({"kind": "span", **rec}) + "\n")
        for (span, parent), (calls, s, self_s) in tracer.aggregates().items():
            fh.write(json.dumps({"kind": "aggregate", "name": span,
                                 "parent_name": parent, "calls": calls,
                                 "s": s, "self_s": self_s}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
