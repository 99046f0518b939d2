"""Distributed sweep executor: kill/resume correctness and scaling.

The engineering benchmark behind ``repro.exec``.  Two variants:

* ``bench_sweep_executor_smoke`` — the <60s CI gate.  Launches the tiny
  2x2 ``t_sweep`` (2 seeds per point) on 2 queue workers as a real
  ``python -m repro sweep run`` subprocess, SIGKILLs the whole process
  group mid-run (a crash-stop of planner and workers together), resumes
  with ``--resume`` to completion, and then asserts the executor's
  exactly-once-recording contract: every child run holds exactly one
  ``ok`` record per seed, the resumed parallel metrics are bit-identical
  to a fresh sequential (``workers=1``) run of the same spec, and
  ``sweep pareto`` renders a front over the result.

* ``bench_sweep_executor`` — the full measurement: the same sweep spec
  run with 1 worker vs 4 workers, wall-clock compared.  The scaling gate
  is honest about hardware: on >= 4 CPU cores it asserts **>= 2x speedup
  at 4 workers**; on smaller machines it records the single-core truth
  without asserting a physical impossibility (the committed
  ``BENCH_sweep_executor.json`` carries the machine stamp either way).
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments import get_scenario
from repro.experiments.store import RECORDS_NAME, RunStore, read_jsonl
from repro.sweeps import SweepAxis, SweepRunner, SweepSpec, SweepStore

from _bench_utils import REPO_ROOT, write_bench_json

GATE_WORKERS = 4
GATE_MIN_SPEEDUP = 2.0
GATE_MIN_CORES = 4

#: First-attempt task delay injected into the *subprocess* sweep (never
#: this process), widening the window in which the kill lands mid-task.
KILL_WINDOW_S = 1.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    env["REPRO_EXEC_INJECT_DELAY_S"] = str(KILL_WINDOW_S)
    return env


def _sweep_cmd(*args: str, out: Path) -> list:
    return [sys.executable, "-m", "repro", "sweep", *args,
            "--out", str(out)]


def _ok_records(out: Path) -> int:
    return sum(
        1
        for records in out.glob(f"*/*/{RECORDS_NAME}")
        for rec in read_jsonl(records)
        if rec.get("status") == "ok")


def _point_metrics(store: SweepStore, sweep) -> dict:
    """point_id -> metrics dict, complete points only."""
    return {pid: entry.get("metrics", {})
            for pid, entry in store.summaries(sweep).items()
            if entry.get("status") == "complete"}


def _assert_exactly_once(out: Path, sweep) -> int:
    """Every child run: exactly one ok record per seed; returns seeds."""
    run_store = RunStore(out)
    checked = 0
    for point in sweep.points():
        run = run_store.find(point["run_id"])
        per_seed = {}
        for rec in read_jsonl(run.path / RECORDS_NAME):
            per_seed.setdefault(rec["seed"], []).append(rec["status"])
        assert sorted(per_seed) == sorted(run.manifest["seeds"]), \
            f"point {point['point_id']}: seeds {sorted(per_seed)}"
        for seed, statuses in per_seed.items():
            assert statuses.count("ok") == 1, \
                f"point {point['point_id']} seed {seed}: {statuses}"
            checked += 1
    return checked


def bench_sweep_executor_smoke(tmp_path, benchmark):
    """CI gate: kill a 2-worker sweep mid-run, resume, verify, pareto."""

    def _run() -> dict:
        out = tmp_path / "killed"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            _sweep_cmd("run", "--tiny", "--seeds", "2", "--workers", "2",
                       out=out),
            env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        # Kill once real work has landed but the sweep cannot be done:
        # at least one seed record, with the injected delay still pacing
        # the remaining tasks.
        killed = False
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            if _ok_records(out) >= 1:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.05)
        if not killed:
            output = proc.stdout.read()
            proc.wait(timeout=60.0)
            raise AssertionError(
                f"sweep finished (or died) before the kill "
                f"landed:\n{output}")
        proc.wait(timeout=60.0)

        store = SweepStore(out)
        (sweep,) = store.list_sweeps()
        assert sweep.status != "complete"
        t_resume0 = time.perf_counter()
        resumed = subprocess.run(
            _sweep_cmd("run", "--resume", sweep.sweep_id, "--workers",
                       "2", out=out),
            env=_env(), capture_output=True, text=True, timeout=240.0)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        resume_s = time.perf_counter() - t_resume0

        sweep = store.find(sweep.sweep_id)
        assert sweep.status == "complete"
        seeds_checked = _assert_exactly_once(out, sweep)

        # Bit-identical to sequential: a fresh workers=1 run of the very
        # spec recorded in sweep.json produces the same per-point
        # metrics (wall-clock fields aside).
        spec = SweepSpec.from_dict(sweep.manifest["spec"])
        seq_out = tmp_path / "sequential"
        seq = SweepRunner(out_root=seq_out, max_workers=1).run(spec)
        assert seq.status == "complete"
        seq_sweep = SweepStore(seq_out).find(seq.sweep_id)
        parallel_metrics = _point_metrics(store, sweep)
        sequential_metrics = _point_metrics(SweepStore(seq_out), seq_sweep)
        assert parallel_metrics == sequential_metrics

        pareto = subprocess.run(
            _sweep_cmd("pareto", sweep.sweep_id, out=out),
            env=_env(), capture_output=True, text=True, timeout=60.0)
        assert pareto.returncode == 0, pareto.stdout + pareto.stderr
        assert "pareto front" in pareto.stdout

        return {
            "sweep_id": sweep.sweep_id,
            "points": len(sweep.points()),
            "seeds_checked": seeds_checked,
            "resume_s": round(resume_s, 2),
            "total_s": round(time.perf_counter() - t0, 2),
            "sequential_match": True,
            "pareto_head": pareto.stdout.splitlines()[0],
        }

    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(f"kill/resume smoke: {stats['points']} points, "
          f"{stats['seeds_checked']} seed records exactly-once, "
          f"resume {stats['resume_s']}s, total {stats['total_s']}s, "
          f"parallel == sequential metrics")
    write_bench_json("sweep_executor", {
        "variant": "smoke",
        "workers": 2,
        "cpu_cores": os.cpu_count() or 1,
        "kill": "SIGKILL whole process group mid-sweep",
        **stats,
    })
    assert stats["sequential_match"]


def bench_sweep_executor(tmp_path, benchmark):
    """Full measurement: 1 vs 4 workers, gated >= 2x on >= 4 cores."""
    # Sized so each seed is ~2-3s of real training: worker spawn
    # (~1-1.5s of interpreter + numpy import, paid concurrently) must be
    # small against the compute or the scaling gate measures process
    # startup instead of executor throughput.
    base = get_scenario("offline_accuracy").build_spec(tiny=True).replace(
        backends=("backprop",), n_train=4000, n_test=800,
        seeds=(0, 1, 2, 3))
    spec = SweepSpec(name="executor_scaling", base=base,
                     grid=(SweepAxis("epochs", (2, 4)),),
                     objective="backprop.test_acc")

    def _timed(workers: int):
        out = tmp_path / f"w{workers}"
        t0 = time.perf_counter()
        result = SweepRunner(out_root=out, max_workers=workers).run(spec)
        elapsed = time.perf_counter() - t0
        assert result.status == "complete"
        sweep = SweepStore(out).find(result.sweep_id)
        return elapsed, _point_metrics(SweepStore(out), sweep)

    def _run():
        cores = os.cpu_count() or 1
        t_seq, seq_metrics = _timed(1)
        t_par, par_metrics = _timed(GATE_WORKERS)
        assert par_metrics == seq_metrics  # worker count never changes math
        speedup = t_seq / t_par if t_par else 0.0
        return cores, t_seq, t_par, speedup

    cores, t_seq, t_par, speedup = benchmark.pedantic(
        _run, rounds=1, iterations=1)
    gate_enforced = cores >= GATE_MIN_CORES
    print()
    print(f"sweep executor scaling — 2 points x 4 seeds, "
          f"{cores} CPU core(s)")
    print(f"workers=1 {t_seq:6.1f}s   workers={GATE_WORKERS} "
          f"{t_par:6.1f}s   speedup {speedup:.2f}x — gate "
          f"{'enforced' if gate_enforced else 'recorded only'}")
    write_bench_json("sweep_executor", {
        "variant": "full",
        "points": 2,
        "seeds_per_point": 4,
        "workers": GATE_WORKERS,
        "cpu_cores": cores,
        "sequential_s": round(t_seq, 2),
        "parallel_s": round(t_par, 2),
        "speedup": round(speedup, 2),
        "per_core_efficiency": round(
            speedup / min(GATE_WORKERS, cores), 2),
        "gate": (f">={GATE_MIN_SPEEDUP}x enforced" if gate_enforced
                 else f"recorded only ({cores} cores < {GATE_MIN_CORES})"),
        "metrics_identical_across_worker_counts": True,
    })
    if gate_enforced:
        assert speedup >= GATE_MIN_SPEEDUP, \
            f"executor speedup {speedup:.2f}x < {GATE_MIN_SPEEDUP}x " \
            f"at {GATE_WORKERS} workers"
