"""Tests of the benchmark's own guarantees.

A run must fail, and still close what it opened, when a workload raises
midway; it must fail when a thread or a process it started (directly, or
through a child that has exited) is still alive at the end, and leave no
such process behind; and it must
exit non-zero without printing a result when the checkout holds no
program.  Each case runs the real command in a subprocess with an
injected fake workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAKE = textwrap.dedent("""
    import subprocess, sys, threading
    sys.path.insert(0, {here!r})
    import run
    run.prepare()
    from workloads import UnitResult

    class Fake:
        def __init__(self, mode):
            self.mode = mode

        def setup(self, seed, ctx):
            stop = threading.Event()
            worker = threading.Thread(target=stop.wait, name="fake-worker")
            worker.start()
            state = {{"stop": stop, "worker": worker}}
            if self.mode == "leak_child":
                child = subprocess.Popen(
                    [sys.executable, "-c", "import time; time.sleep(60)"])
                print("CHILD", child.pid, flush=True)
            if self.mode == "leak_grandchild":
                # The shell exits at once; its background job lives on.
                shell = subprocess.run(
                    ["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                    capture_output=True, text=True, check=True)
                print("CHILD", shell.stdout.strip(), flush=True)
            return state

        def unit(self, state, ctx):
            if self.mode == "raise":
                raise RuntimeError("fault injected midway")
            return UnitResult(train=[(1, 0.01, 0.0)], infer=[(1, 0.01, 0.0)],
                              window=(0.0, 0.01), exact={{"test_acc": 1.0}},
                              attempted=2)

        def close(self, state):
            if self.mode != "leak_thread":
                state["stop"].set()
                state["worker"].join()
            print("CLOSED", flush=True)

    mode = sys.argv[1]
    sys.exit(run.main(["--workload", "fake", "--seed", "3", "--seconds", "0",
                       "--trace", "0"], workloads={{"fake": Fake(mode)}}))
""")


def _run_fake(tmp_path: Path, mode: str):
    script = tmp_path / "fake_run.py"
    script.write_text(FAKE.format(here=str(HERE)))
    proc = subprocess.run([sys.executable, str(script), mode],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def test_clean_run_passes_and_reports_every_end_to_end_metric(tmp_path):
    import run

    proc, lines, result = _run_fake(tmp_path, "clean")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "CLOSED" in lines


def test_workload_raising_midway_fails_after_closing(tmp_path):
    proc, lines, result = _run_fake(tmp_path, "raise")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "fault injected midway" in proc.stderr
    assert "CLOSED" in lines
    assert not any("still running" in line for line in lines)


def test_leaked_thread_fails_the_run(tmp_path):
    proc, lines, result = _run_fake(tmp_path, "leak_thread")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert any("'fake-worker' was still running" in line for line in lines)


@pytest.mark.parametrize("mode", ["leak_child", "leak_grandchild"])
def test_leaked_process_fails_the_run_and_is_stopped(tmp_path, mode):
    proc, lines, result = _run_fake(tmp_path, mode)
    assert proc.returncode == 1
    assert result["correct"] is False
    pid = int(next(line for line in lines if line.startswith("CHILD"))
              .split()[1])
    assert any(f"child process {pid} was still running" in line
               for line in lines)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref_spike",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_declares_what_the_command_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    run.prepare()
    from workloads import make_workloads

    workloads = make_workloads(run.WORK_DIR)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.items()}
