"""The experiment orchestration subsystem: runner, store, resume, CLI.

All runs here use CI-tiny specs, usually trimmed further (single backend,
one or two seeds) so the whole module stays fast.
"""

import json

import pytest

import repro
from repro.core import EMSTDPNetwork, full_precision_config
from repro.experiments import (ExperimentSpec, Runner, RunStore, SCENARIOS,
                               get_scenario)
from repro.persist import load_checkpoint
from repro import cli


def tiny_spec(name="offline_accuracy", **overrides):
    return get_scenario(name).build_spec(tiny=True).replace(**overrides)


FAST = dict(backends=("backprop",), n_train=40, n_test=20)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------

def test_spec_json_round_trip():
    spec = tiny_spec(seeds=(3, 4), params={"chip_train_limit": 5})
    again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_spec_rejects_bad_seeds():
    with pytest.raises(ValueError, match="duplicate"):
        tiny_spec(seeds=(1, 1))
    with pytest.raises(ValueError, match="at least one seed"):
        tiny_spec(seeds=())


def test_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown spec fields"):
        ExperimentSpec.from_dict({"name": "x", "bogus": 1})


def test_builtin_scenarios_registered():
    assert {"offline_accuracy", "incremental_iol",
            "energy_tradeoff"} <= set(SCENARIOS)


# ---------------------------------------------------------------------------
# runner + store
# ---------------------------------------------------------------------------

def test_run_store_layout_and_records(tmp_path):
    spec = tiny_spec(seeds=(0, 1), **FAST)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)

    assert result.status == "complete"
    run_dir = result.run_dir
    assert (run_dir / "manifest.json").is_file()
    assert (run_dir / "records.jsonl").is_file()
    assert (run_dir / "checkpoints").is_dir()
    assert run_dir.parent.name == "offline_accuracy"

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["repro_version"] == repro.__version__
    assert ExperimentSpec.from_dict(manifest["spec"]) == spec

    records = result.ok_records()
    assert [r["seed"] for r in records] == [0, 1]
    for rec in records:
        assert rec["repro_version"] == repro.__version__
        assert rec["experiment"] == "offline_accuracy"
        assert set(rec["metrics"]) == {"backprop"}
        assert 0.0 <= rec["metrics"]["backprop"]["test_acc"] <= 1.0
        assert rec["duration_s"] >= 0


def test_runner_saves_loadable_checkpoints(tmp_path):
    spec = tiny_spec(seeds=(0,), backends=("rate",), n_train=40, n_test=20)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    rec = result.ok_records()[0]
    stem = result.run_dir / "checkpoints" / rec["checkpoints"]["rate"]
    state, manifest = load_checkpoint(stem)
    assert manifest["model_class"] == "EMSTDPNetwork"
    assert manifest["meta"]["seed"] == 0
    net = EMSTDPNetwork(tuple(state["dims"]),
                        full_precision_config(phase_length=16))
    load_checkpoint(stem, model=net)  # applies without error


def test_resume_skips_finished_seeds(tmp_path):
    spec = tiny_spec(seeds=(0, 1), **FAST)
    runner = Runner(out_root=tmp_path, max_workers=1)
    result = runner.run(spec)
    run_dir = result.run_dir

    # Simulate a kill after seed 0: drop seed 1's record, mark running.
    records_path = run_dir / "records.jsonl"
    lines = records_path.read_text().splitlines()
    kept = [ln for ln in lines if json.loads(ln)["seed"] == 0]
    records_path.write_text("\n".join(kept) + "\n")
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["status"] = "running"
    manifest_path.write_text(json.dumps(manifest))

    resumed = runner.run(resume=result.run_id)
    assert resumed.status == "complete"
    assert resumed.skipped_seeds == [0]
    final = records_path.read_text().splitlines()
    assert len(final) == 2
    assert final[0] == kept[0]  # finished seed's record untouched
    assert json.loads(final[1])["seed"] == 1


def test_resume_latest_ignores_complete_runs(tmp_path):
    spec = tiny_spec(seeds=(0,), **FAST)
    runner = Runner(out_root=tmp_path, max_workers=1)
    runner.run(spec)
    with pytest.raises(KeyError, match="unfinished"):
        runner.run(spec, resume="latest")


def test_torn_trailing_record_is_ignored(tmp_path):
    spec = tiny_spec(seeds=(0,), **FAST)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    records_path = result.run_dir / "records.jsonl"
    with records_path.open("a") as fh:
        fh.write('{"seed": 1, "status": "ok", "metr')  # torn mid-write
    store = RunStore(tmp_path)
    run = store.find(result.run_id)
    assert set(store.done_seeds(run)) == {0}


def test_failed_seed_marks_run_failed_and_is_retried_on_resume(tmp_path):
    spec = tiny_spec(name="energy_tradeoff", seeds=(0,),
                     params={"n_in": 64, "packings": [0],  # invalid packing
                             "n_samples": 10})
    runner = Runner(out_root=tmp_path, max_workers=1)
    result = runner.run(spec)
    assert result.status == "failed"
    rec = result.records[0]
    assert rec["status"] == "error" and "Traceback" in rec["error"]
    # errored seeds are not "done": a resume re-runs them
    run = RunStore(tmp_path).find(result.run_id)
    assert RunStore(tmp_path).done_seeds(run) == {}


def test_first_ok_raises_with_error_detail_when_all_seeds_fail(tmp_path):
    spec = tiny_spec(name="energy_tradeoff", seeds=(0,),
                     params={"n_in": 64, "packings": [0], "n_samples": 10})
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    with pytest.raises(RuntimeError, match="no finished seeds"):
        result.first_ok()


def test_show_ignores_errors_resolved_by_resume(tmp_path, capsys):
    spec = tiny_spec(seeds=(0,), **FAST)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    # Simulate an earlier failed attempt of seed 0 that a resume fixed:
    # append-only records keep the stale error line *before* the ok line
    # chronologically, but show must not report the seed as failed.
    records_path = result.run_dir / "records.jsonl"
    error_line = json.dumps({"seed": 0, "status": "error", "error": "boom"})
    records_path.write_text(error_line + "\n" + records_path.read_text())
    assert cli.main(["show", result.run_id, "--out", str(tmp_path)]) == 0
    assert "failed" not in capsys.readouterr().out


def test_show_reports_a_seed_that_failed_twice_once(tmp_path, capsys):
    spec = tiny_spec(seeds=(0,), **FAST)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    # Seed 1 failed, and failed again when the run was resumed.
    error_line = json.dumps({"seed": 1, "status": "error", "error": "boom"})
    with (result.run_dir / "records.jsonl").open("a") as fh:
        fh.write(error_line + "\n" + error_line + "\n")
    assert cli.main(["show", result.run_id, "--out", str(tmp_path)]) == 0
    assert "1 seed(s) failed: [1]" in capsys.readouterr().out


def test_process_pool_fan_out(tmp_path):
    spec = tiny_spec(seeds=(0, 1), **FAST)
    result = Runner(out_root=tmp_path, max_workers=2).run(spec)
    assert result.status == "complete"
    assert sorted(r["seed"] for r in result.ok_records()) == [0, 1]


def test_store_find_prefix_and_ambiguity(tmp_path):
    spec = tiny_spec(seeds=(0,), **FAST)
    runner = Runner(out_root=tmp_path, max_workers=1)
    r1 = runner.run(spec)
    r2 = runner.run(spec)
    store = RunStore(tmp_path)
    assert store.find(r1.run_id).run_id == r1.run_id
    with pytest.raises(KeyError, match="no run"):
        store.find("zzz-does-not-exist")
    assert {r.run_id for r in store.list_runs("offline_accuracy")} == \
        {r1.run_id, r2.run_id}


# ---------------------------------------------------------------------------
# scenarios (tiny end-to-end)
# ---------------------------------------------------------------------------

def test_incremental_iol_scenario(tmp_path):
    spec = tiny_spec("incremental_iol", n_train=120, n_test=40)
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    assert result.status == "complete"
    rec = result.ok_records()[0]
    assert rec["metrics"]["n_rounds"] > 0
    assert len(rec["series"]["after_step2"]) == rec["metrics"]["n_rounds"]
    assert "final" in rec["checkpoints"]


def test_energy_tradeoff_scenario(tmp_path):
    spec = tiny_spec("energy_tradeoff")
    result = Runner(out_root=tmp_path, max_workers=1).run(spec)
    rec = result.ok_records()[0]
    assert set(rec["metrics"]) == {"fa", "dfa"}
    for entry in rec["metrics"].values():
        assert entry["energy_per_sample_mj"] > 0
        assert entry["best_packing"] in spec.params["packings"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_list_show_compare(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["run", "offline_accuracy", "--tiny", "--seeds", "2",
                     "--workers", "1", "--out", out]) == 0
    run_id = RunStore(out).list_runs()[-1].run_id
    captured = capsys.readouterr().out
    assert "backend" in captured and run_id in captured

    assert cli.main(["list", "--out", out]) == 0
    assert "2/2" in capsys.readouterr().out

    assert cli.main(["show", run_id, "--out", out]) == 0
    shown = capsys.readouterr().out
    assert "test_acc" in shown and "means over 2 seed(s)" in shown

    assert cli.main(["compare", run_id, run_id, "--out", out]) == 0
    assert "rate.test_acc" in capsys.readouterr().out


def test_cli_show_unknown_run_exits_2(tmp_path, capsys):
    assert cli.main(["show", "nope", "--out", str(tmp_path)]) == 2
    assert "no run" in capsys.readouterr().err


def test_cli_list_empty_store(tmp_path, capsys):
    assert cli.main(["list", "--out", str(tmp_path)]) == 0
    assert "no runs" in capsys.readouterr().out
