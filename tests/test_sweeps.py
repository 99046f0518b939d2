"""The sweep subsystem: spec expansion, runner, resume, aggregation, CLI.

Runner tests use the fast single-backend offline spec (as in
test_experiments.py) so multi-point sweeps stay quick; the sweep-native
scenarios (noise_robustness, timing_precision) get one direct run_seed
test each plus CLI coverage through the tiny t_sweep.
"""

import json
import re

import numpy as np
import pytest

from repro import cli
from repro.analysis.aggregate import (axis_tables, best_point,
                                      default_objective, mean_metrics,
                                      sweep_table)
from repro.data import corrupt_dataset, corrupt_images, load_dataset
from repro.exec import QUEUE_DB_NAME, TaskQueue
from repro.experiments import RunStore, get_scenario
from repro.obs import TRACE_FILE_NAME
from repro.obs.trace import read_trace
from repro.sweeps import (SWEEPS, RandomAxis, SweepAxis, SweepRunner,
                          SweepSpec, SweepStore, apply_overrides, get_sweep)


def fast_base(**overrides):
    """The cheapest real spec: tiny offline_accuracy, backprop only."""
    spec = get_scenario("offline_accuracy").build_spec(tiny=True).replace(
        backends=("backprop",), n_train=40, n_test=20)
    return spec.replace(**overrides) if overrides else spec


def fast_sweep(**overrides):
    kwargs = dict(name="epochs_sweep", base=fast_base(),
                  grid=(SweepAxis("epochs", (1, 2)),),
                  objective="backprop.test_acc")
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# ---------------------------------------------------------------------------
# spec expansion
# ---------------------------------------------------------------------------

def test_grid_expansion_crosses_axes_in_order():
    spec = fast_sweep(grid=(SweepAxis("epochs", (1, 2)),
                            SweepAxis("dataset", ("mnist_like",
                                                  "fashion_like"))))
    points = spec.expand()
    assert [p.point_id for p in points] == ["p000", "p001", "p002", "p003"]
    assert [p.overrides for p in points] == [
        {"epochs": 1, "dataset": "mnist_like"},
        {"epochs": 1, "dataset": "fashion_like"},
        {"epochs": 2, "dataset": "mnist_like"},
        {"epochs": 2, "dataset": "fashion_like"},
    ]
    assert points[3].spec.epochs == 2
    assert points[3].spec.dataset == "fashion_like"
    assert points[0].label == "epochs=1,dataset=mnist_like"


def test_params_axis_merges_into_base_params():
    base = fast_base(params={"keep": 7, "noise_level": 0.0})
    spec = apply_overrides(base, {"params.noise_level": 0.3})
    assert spec.params == {"keep": 7, "noise_level": 0.3}
    assert base.params["noise_level"] == 0.0  # base untouched


def test_scalar_values_for_tuple_fields_become_one_tuples():
    # An axis like --axis hidden=64,128 yields one *scalar* per point;
    # tuple-valued spec fields must wrap it, not iterate it (a bare
    # string backend would otherwise explode into characters).
    spec = apply_overrides(fast_base(), {"hidden": 64})
    assert spec.hidden == (64,)
    spec = apply_overrides(fast_base(), {"backends": "rate"})
    assert spec.backends == ("rate",)
    spec = apply_overrides(fast_base(), {"seeds": 3})
    assert spec.seeds == (3,)
    # A list value (JSON axis values) passes through untouched.
    spec = apply_overrides(fast_base(), {"hidden": [32, 16]})
    assert spec.hidden == (32, 16)


def test_unknown_axis_field_raises():
    with pytest.raises(ValueError, match="neither"):
        apply_overrides(fast_base(), {"bogus_field": 1})
    with pytest.raises(ValueError, match="params"):
        apply_overrides(fast_base(), {"params": {"a": 1}})


def test_axis_value_coercion_to_declared_types():
    from repro.sweeps import coerce_axis_value

    # int fields: strings and integral floats coerce, junk raises
    assert coerce_axis_value("phase_length", "16") == 16
    assert coerce_axis_value("epochs", 2.0) == 2
    assert coerce_axis_value("n_train", 40) == 40
    with pytest.raises(ValueError, match="int"):
        coerce_axis_value("epochs", "two")
    with pytest.raises(ValueError, match="int"):
        coerce_axis_value("epochs", 1.5)
    # bool field
    assert coerce_axis_value("tiny", "true") is True
    assert coerce_axis_value("tiny", "False") is False
    with pytest.raises(ValueError, match="bool"):
        coerce_axis_value("tiny", "maybe")
    # Optional[int]: none passes through, values coerce
    assert coerce_axis_value("phase_length", "none") is None
    assert coerce_axis_value("phase_length", None) is None
    # tuple fields coerce elementwise, scalars stay scalars
    assert coerce_axis_value("hidden", ["16", 8]) == [16, 8]
    assert coerce_axis_value("hidden", "24") == 24
    assert coerce_axis_value("backends", "rate") == "rate"
    # str field rejects non-strings
    with pytest.raises(ValueError, match="string"):
        coerce_axis_value("dataset", 3)
    # params.<key> paths are schemaless and untouched
    assert coerce_axis_value("params.T", "16") == "16"
    # unknown fields fail with the field listing
    with pytest.raises(ValueError, match="neither"):
        coerce_axis_value("bogus", 1)
    with pytest.raises(ValueError, match="params"):
        coerce_axis_value("params", {})


def test_cli_axis_values_reach_specs_with_declared_types(capsys, tmp_path):
    """Regression: `--axis phase_length=16,32` must not poison specs with
    strings (quoted values used to survive as str all the way into runs)."""
    from repro.cli import _parse_axes

    axes = _parse_axes(["phase_length=16,32", 'dataset="mnist_like"',
                        "params.T=8,12"])
    assert axes[0].values == (16, 32)
    assert all(isinstance(v, int) for v in axes[0].values)
    assert axes[1].values == ("mnist_like",)
    assert axes[2].values == (8, 12)  # params via JSON parsing
    # a typoed field fails at parse time with a clear error (the CLI
    # surfaces it as exit code 2 before any point runs)
    with pytest.raises(ValueError, match="neither"):
        _parse_axes(["phse_length=16"])
    assert cli.main(["sweep", "run", "offline_accuracy",
                     "--axis", "epochs=one,two",
                     "--out", str(tmp_path)]) == 2
    assert "wants an int" in capsys.readouterr().err


def test_random_axes_are_deterministic_and_bounded():
    spec = fast_sweep(
        grid=(), n_random=8, rng_seed=5,
        random=(RandomAxis("epochs", 1, 4, integer=True),
                RandomAxis("params.backprop_lr", 1e-3, 1e-1, log=True)))
    points = spec.expand()
    again = spec.expand()
    assert [p.overrides for p in points] == [p.overrides for p in again]
    assert len(points) == 8
    for p in points:
        assert 1 <= p.overrides["epochs"] <= 4
        assert isinstance(p.overrides["epochs"], int)
        assert 1e-3 <= p.overrides["params.backprop_lr"] <= 1e-1
    # A different seed draws different values.
    other = spec.replace(rng_seed=6).expand()
    assert [p.overrides for p in other] != [p.overrides for p in points]


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="at least one axis"):
        fast_sweep(grid=())
    with pytest.raises(ValueError, match="n_random"):
        fast_sweep(random=(RandomAxis("epochs", 1, 3),))
    with pytest.raises(ValueError, match="duplicate"):
        fast_sweep(grid=(SweepAxis("epochs", (1,)),
                         SweepAxis("epochs", (2,))))
    with pytest.raises(ValueError, match="mode"):
        fast_sweep(mode="sideways")
    with pytest.raises(ValueError, match="low > high"):
        RandomAxis("epochs", 5, 1)


def test_sweep_spec_json_round_trip():
    spec = fast_sweep(random=(RandomAxis("params.backprop_lr", 0.01, 0.1,
                                         log=True),), n_random=2)
    again = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert [p.overrides for p in again.expand()] == \
        [p.overrides for p in spec.expand()]


# ---------------------------------------------------------------------------
# sweep runner + store
# ---------------------------------------------------------------------------

def test_sweep_run_layout_links_child_runs(tmp_path):
    runner = SweepRunner(out_root=tmp_path, max_workers=1)
    result = runner.run(fast_sweep())

    assert result.status == "complete"
    assert result.sweep_dir.parent.name == "sweeps"
    manifest = json.loads((result.sweep_dir / "sweep.json").read_text())
    assert manifest["status"] == "complete"
    assert [p["status"] for p in manifest["points"]] == ["complete"] * 2

    # Every point links a real child run in the ordinary run store.
    store = RunStore(tmp_path)
    for point, entry in zip(result.points, manifest["points"]):
        run = store.find(entry["run_id"])
        assert run.experiment == "offline_accuracy"
        assert run.status == "complete"
        assert run.spec().epochs == point.point.overrides["epochs"]

    # summary.jsonl has one line per point with mean metrics.
    lines = [json.loads(ln) for ln in
             (result.sweep_dir / "summary.jsonl").read_text().splitlines()]
    assert [ln["point_id"] for ln in lines] == ["p000", "p001"]
    for line in lines:
        assert line["seeds_ok"] == 1
        assert 0.0 <= line["metrics"]["backprop.test_acc"] <= 1.0


def test_sweep_trace_links_every_task_to_the_sweep_root(tmp_path):
    result = SweepRunner(out_root=tmp_path, max_workers=1).run(
        fast_sweep(base=fast_base(seeds=(0, 1))))
    records = read_trace(result.sweep_dir / TRACE_FILE_NAME)
    spans = [r for r in records if r.get("kind") == "span"]
    (root,) = [s for s in spans if s["name"] == "sweep"]
    assert root["parent_id"] is None

    # One task span per (point, seed), each a child of the sweep root.
    expected = [(p, s) for p in ("p000", "p001") for s in (0, 1)]
    tasks = [s for s in spans if s["name"] == "task"]
    assert sorted((t["attrs"]["point_id"], t["attrs"]["seed"])
                  for t in tasks) == expected
    assert all(t["parent_id"] == root["span_id"] for t in tasks)

    # Each task was enqueued once and finished once, under its point.
    for name in ("task_enqueue", "seed_finished"):
        events = [r for r in records
                  if r.get("kind") == "event" and r["name"] == name]
        assert sorted((e["attrs"]["point_id"], e["attrs"]["seed"])
                      for e in events) == expected, name


@pytest.mark.parametrize("kill", ["mid_flight", "after_last_record",
                                  "after_summary_line"])
def test_sweep_resume_skips_finished_points_and_reuses_runs(tmp_path, kill):
    runner = SweepRunner(out_root=tmp_path, max_workers=1)
    result = runner.run(fast_sweep())
    sweep_dir = result.sweep_dir
    first_run_ids = [p.run_id for p in result.points]

    # Simulate a kill while p001 was being settled or run: sweep.json,
    # the last file a finished point writes, still says running.
    manifest_path = sweep_dir / "sweep.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["status"] = "running"
    manifest["points"][1]["status"] = "running"
    manifest_path.write_text(json.dumps(manifest))
    summary_path = sweep_dir / "summary.jsonl"
    child = RunStore(tmp_path).find(first_run_ids[1])
    records_path = child.path / "records.jsonl"
    if kill != "after_summary_line":
        # p001's summary line is not on disk yet, and its child run was
        # not marked finished ...
        summary_path.write_text(
            summary_path.read_text().splitlines()[0] + "\n")
        child_manifest = dict(child.manifest)
        child_manifest["status"] = "running"
        (child.path / "manifest.json").write_text(json.dumps(child_manifest))
    if kill == "mid_flight":
        # ... nor is its seed record.
        records_path.write_text("")
    records_before = records_path.read_text()

    resumed = SweepRunner(out_root=tmp_path, max_workers=1).run(
        resume=result.sweep_id)
    assert resumed.status == "complete"
    assert resumed.points[0].skipped
    assert resumed.points[1].skipped == (kill == "after_summary_line")
    # The interrupted point resumed into its existing child run.
    assert [p.run_id for p in resumed.points] == first_run_ids
    assert RunStore(tmp_path).find(first_run_ids[1]).status == "complete"
    lines = [json.loads(ln) for ln in summary_path.read_text().splitlines()]
    assert [ln["point_id"] for ln in lines] == ["p000", "p001"]
    manifest = json.loads(manifest_path.read_text())
    assert [p["status"] for p in manifest["points"]] == ["complete"] * 2
    if kill != "mid_flight":
        # Nothing was outstanding: no task enqueued, the record untouched.
        assert TaskQueue(sweep_dir / QUEUE_DB_NAME).counts() == {}
        assert records_path.read_text() == records_before


def test_sweep_resume_reads_one_manifest_per_child_run(tmp_path,
                                                       monkeypatch):
    """A resumed point's child run is read from its own manifest: the
    resume never lists the run store, however many runs it holds, and a
    missing manifest is an error naming its path."""
    result = SweepRunner(out_root=tmp_path, max_workers=1).run(fast_sweep())
    first_run_ids = [p.run_id for p in result.points]
    store = RunStore(tmp_path)
    for i in range(12):
        store.create_run(fast_base(), f"pad-{i:03d}")
    # Kill after p001's last record: its summary line, child run status
    # and sweep.json entry are not written yet.
    sweep_dir = result.sweep_dir
    manifest = json.loads((sweep_dir / "sweep.json").read_text())
    manifest["status"] = "running"
    manifest["points"][1]["status"] = "running"
    (sweep_dir / "sweep.json").write_text(json.dumps(manifest))
    summary_path = sweep_dir / "summary.jsonl"
    summary_path.write_text(summary_path.read_text().splitlines()[0] + "\n")
    child = store.find(first_run_ids[1])
    (child.path / "manifest.json").write_text(
        json.dumps(dict(child.manifest, status="running")))

    def no_listing(self, experiment=None):
        raise AssertionError("resume listed the whole run store")

    monkeypatch.setattr(RunStore, "list_runs", no_listing)
    moved = child.path / "manifest.moved"
    (child.path / "manifest.json").rename(moved)
    with pytest.raises(FileNotFoundError,
                       match=re.escape(str(child.path / "manifest.json"))):
        SweepRunner(out_root=tmp_path, max_workers=1).run(
            resume=result.sweep_id)
    moved.rename(child.path / "manifest.json")
    resumed = SweepRunner(out_root=tmp_path, max_workers=1).run(
        resume=result.sweep_id)
    monkeypatch.undo()

    assert resumed.status == "complete"
    assert [p.skipped for p in resumed.points] == [True, False]
    assert [p.run_id for p in resumed.points] == first_run_ids
    assert store.find(first_run_ids[1]).status == "complete"
    lines = [json.loads(ln) for ln in summary_path.read_text().splitlines()]
    assert [ln["point_id"] for ln in lines] == ["p000", "p001"]
    # Nothing was outstanding: no task enqueued.
    assert TaskQueue(sweep_dir / QUEUE_DB_NAME).counts() == {}


def test_sweep_resume_latest_and_unknown_ids(tmp_path):
    runner = SweepRunner(out_root=tmp_path, max_workers=1)
    with pytest.raises(KeyError, match="no sweep"):
        runner.store.find("nope")
    with pytest.raises(KeyError, match="unfinished"):
        runner.run(resume="latest")
    result = runner.run(fast_sweep())
    # A complete sweep is not resumable as "latest"...
    with pytest.raises(KeyError, match="unfinished"):
        runner.run(resume="latest")
    # ...but resuming it by id is a no-op walk over finished points.
    again = runner.run(resume=result.sweep_id)
    assert all(p.skipped for p in again.points)


def test_failed_point_marks_sweep_failed(tmp_path):
    # packings=[0] makes the energy_tradeoff seed raise.
    base = get_scenario("energy_tradeoff").build_spec(tiny=True)
    spec = SweepSpec(name="bad", base=base,
                     grid=(SweepAxis("params.packings", ([0], [5])),))
    result = SweepRunner(out_root=tmp_path, max_workers=1).run(spec)
    assert result.status == "failed"
    assert [p.status for p in result.points] == ["failed", "complete"]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _summaries():
    return {
        "p000": {"point_id": "p000", "overrides": {"T": 8}, "run_id": "a",
                 "status": "complete", "seeds_ok": 2, "seeds_total": 2,
                 "metrics": {"rate.test_acc": 0.5, "energy": 2.0}},
        "p001": {"point_id": "p001", "overrides": {"T": 16}, "run_id": "b",
                 "status": "complete", "seeds_ok": 2, "seeds_total": 2,
                 "metrics": {"rate.test_acc": 0.8, "energy": 4.0}},
        "p002": {"point_id": "p002", "overrides": {"T": 32}, "run_id": "c",
                 "status": "failed", "seeds_ok": 0, "seeds_total": 2,
                 "metrics": {}},
    }


def test_best_point_modes_and_failed_points_excluded():
    summaries = list(_summaries().values())
    assert best_point(summaries, "rate.test_acc")["point_id"] == "p001"
    assert best_point(summaries, "energy", mode="min")["point_id"] == "p000"
    assert best_point([], "rate.test_acc") is None
    assert best_point([_summaries()["p002"]], "rate.test_acc") is None


def test_default_objective_prefers_test_acc():
    assert default_objective(["energy", "rate.test_acc"]) == "rate.test_acc"
    assert default_objective(["zz", "final_acc"]) == "final_acc"
    assert default_objective(["b", "a"]) == "a"
    assert default_objective([]) == ""


def test_sweep_table_appends_best_row():
    summaries = _summaries()
    points = [{"point_id": pid, "overrides": s["overrides"],
               "status": s["status"]} for pid, s in summaries.items()]
    headers, rows = sweep_table(points, summaries, ["T"], "rate.test_acc")
    assert headers == ["point", "T", "status", "seeds", "rate.test_acc"]
    assert len(rows) == 4  # 3 points + best row
    assert rows[-1][0] == "best:p001" and rows[-1][1] == 16


def test_axis_tables_marginalize_one_axis():
    summaries = [
        {"status": "complete", "overrides": {"T": 8, "ds": "a"},
         "metrics": {"acc": 0.2}},
        {"status": "complete", "overrides": {"T": 8, "ds": "b"},
         "metrics": {"acc": 0.4}},
        {"status": "complete", "overrides": {"T": 16, "ds": "a"},
         "metrics": {"acc": 0.6}},
    ]
    tables = axis_tables(["T", "ds"], summaries, "acc")
    headers, rows = tables["T"]
    assert rows == [[8, 2, pytest.approx(0.3), 0.4],
                    [16, 1, pytest.approx(0.6), 0.6]]
    assert tables["ds"][1][0] == ["a", 2, pytest.approx(0.4), 0.6]


def test_axis_tables_handle_unhashable_axis_values():
    # List-valued axes (multi-element hidden points) must group by
    # content, not crash on dict hashing.
    summaries = [
        {"status": "complete", "overrides": {"hidden": [16]},
         "metrics": {"acc": 0.2}},
        {"status": "complete", "overrides": {"hidden": [16]},
         "metrics": {"acc": 0.4}},
        {"status": "complete", "overrides": {"hidden": [32, 16]},
         "metrics": {"acc": 0.6}},
    ]
    headers, rows = axis_tables(["hidden"], summaries, "acc")["hidden"]
    by_value = {json.dumps(r[0]): r for r in rows}
    assert by_value["[16]"][1:3] == [2, pytest.approx(0.3)]
    assert by_value["[32, 16]"][1] == 1


def test_mean_metrics_flattens_and_averages():
    records = [{"metrics": {"a": {"x": 1.0}, "b": 2.0, "s": "skip"}},
               {"metrics": {"a": {"x": 3.0}}}]
    means = mean_metrics(records)
    assert means == {"a.x": 2.0, "b": 2.0}


# ---------------------------------------------------------------------------
# corruption helpers
# ---------------------------------------------------------------------------

def test_corruption_level_zero_is_identity():
    train, _ = load_dataset("mnist_like", 6, 2, side=8, seed=0)
    out = corrupt_images(train.images, 0.0, rng=1, kind="gaussian")
    np.testing.assert_array_equal(out, train.images)
    assert out is not train.images  # a copy, not an alias


def test_corruption_kinds_shapes_and_ranges():
    rng_images = np.random.default_rng(0).random((5, 8, 8))
    for kind in ("gaussian", "salt_pepper", "occlusion"):
        out = corrupt_images(rng_images, 0.3, rng=2, kind=kind)
        assert out.shape == rng_images.shape
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert not np.array_equal(out, rng_images)
    # Deterministic in the seed.
    a = corrupt_images(rng_images, 0.3, rng=2, kind="salt_pepper")
    b = corrupt_images(rng_images, 0.3, rng=2, kind="salt_pepper")
    np.testing.assert_array_equal(a, b)


def test_corruption_salt_pepper_flips_about_level_fraction():
    images = np.full((4, 16, 16), 0.5)
    out = corrupt_images(images, 0.25, rng=3, kind="salt_pepper")
    flipped = (out != 0.5)
    assert 0.1 < flipped.mean() < 0.4
    assert set(np.unique(out[flipped])) <= {0.0, 1.0}


def test_corruption_occlusion_zeroes_a_patch_per_image():
    images = np.ones((3, 10, 10))
    out = corrupt_images(images, 0.25, rng=4, kind="occlusion")
    for img in out:
        zeros = int((img == 0).sum())
        assert zeros == 25  # sqrt(0.25) * 10 = 5 -> 5x5 patch


def test_corruption_rejects_bad_arguments():
    images = np.zeros((1, 4, 4))
    with pytest.raises(ValueError, match="level"):
        corrupt_images(images, 1.5)
    with pytest.raises(ValueError, match="unknown corruption"):
        corrupt_images(images, 0.1, kind="sharknado")


def test_corrupt_dataset_keeps_labels_and_name():
    train, _ = load_dataset("mnist_like", 6, 2, side=8, seed=0)
    noisy = corrupt_dataset(train, 0.2, seed=1)
    np.testing.assert_array_equal(noisy.labels, train.labels)
    assert noisy.name == train.name and len(noisy) == len(train)


def test_corruption_occlusion_accepts_flat_input():
    """Regression: flat (N, D) input used to crash on images.shape[2]."""
    spatial = np.ones((3, 8, 8))
    flat = spatial.reshape(3, -1)
    # Same rng -> same patches whether the input arrives flat or spatial.
    a = corrupt_images(spatial, 0.25, rng=7, kind="occlusion")
    b = corrupt_images(flat, 0.25, rng=7, kind="occlusion")
    assert b.shape == flat.shape  # output keeps the input's shape
    np.testing.assert_array_equal(a.reshape(3, -1), b)
    # Explicit non-square geometry via image_shape.
    rect = np.ones((2, 4 * 6))
    out = corrupt_images(rect, 0.25, rng=1, kind="occlusion",
                         image_shape=(4, 6))
    assert out.shape == rect.shape and (out == 0).any()


def test_corruption_occlusion_flat_input_error_cases():
    flat = np.ones((2, 12))  # 12 is not a perfect square
    with pytest.raises(ValueError, match="perfect square"):
        corrupt_images(flat, 0.25, rng=1, kind="occlusion")
    with pytest.raises(ValueError, match="pixels"):
        corrupt_images(flat, 0.25, rng=1, kind="occlusion",
                       image_shape=(5, 5))
    with pytest.raises(ValueError, match="image_shape"):
        corrupt_images(flat, 0.25, rng=1, kind="occlusion",
                       image_shape=(12,))


def test_corruption_occlusion_channels_last_covers_all_channels():
    images = np.ones((2, 8, 8, 3))
    out = corrupt_images(images, 0.25, rng=2, kind="occlusion")
    assert out.shape == images.shape
    for img in out:
        covered = np.argwhere((img == 0).any(axis=-1))
        assert len(covered) == 16  # 4x4 patch
        # every covered pixel is zeroed across *all* channels
        assert (img[(img == 0).any(axis=-1)] == 0).all()


def test_corrupt_dataset_flat_images_pass_through_pixelwise_kinds():
    from repro.data.synth import Dataset

    flat = Dataset(np.random.default_rng(0).random((4, 10)),
                   np.zeros(4, dtype=int))
    out = corrupt_dataset(flat, 0.2, seed=1, kind="gaussian")
    assert out.images.shape == flat.images.shape


# ---------------------------------------------------------------------------
# sweep-native scenarios
# ---------------------------------------------------------------------------

def test_noise_robustness_scenario_seed(tmp_path):
    spec = get_scenario("noise_robustness").build_spec(tiny=True).replace(
        n_train=30, n_test=16, params={"noise_level": 0.5,
                                       "noise_kind": "salt_pepper"})
    payload = get_scenario("noise_robustness").run_seed(spec, 0, tmp_path)
    entry = payload["metrics"]["rate"]
    assert {"test_acc", "noisy_acc", "degradation",
            "noise_level"} <= set(entry)
    assert entry["noise_level"] == 0.5
    assert entry["degradation"] == pytest.approx(
        entry["test_acc"] - entry["noisy_acc"])
    assert (tmp_path / payload["checkpoints"]["rate"]).with_suffix(
        ".npz").exists() or (tmp_path / (payload["checkpoints"]["rate"]
                                         + ".npz")).exists()


def test_timing_precision_scenario_energy_scales_with_T(tmp_path):
    scenario = get_scenario("timing_precision")
    spec = scenario.build_spec(tiny=True).replace(n_train=30, n_test=16)
    slow = scenario.run_seed(spec.replace(phase_length=32), 0, None)
    fast = scenario.run_seed(spec.replace(phase_length=8), 0, None)
    assert slow["metrics"]["rate"]["T"] == 32
    assert fast["metrics"]["rate"]["T"] == 8
    # A longer presentation must cost more modeled energy per inference.
    assert slow["metrics"]["rate"]["energy_mj_per_inference"] > \
        fast["metrics"]["rate"]["energy_mj_per_inference"]


def test_builtin_sweeps_registered_and_tiny_grids_are_2x2():
    assert {"noise_robustness", "t_sweep"} <= set(SWEEPS)
    for name in ("noise_robustness", "t_sweep"):
        tiny = get_sweep(name).build_sweep(tiny=True)
        assert len(tiny.expand()) == 4  # the <60s CI smoke grid
        assert len(get_sweep(name).build_sweep().expand()) > 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sweep_run_show_list_compare(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["sweep", "run", "epochs", "--out", out]) == 2
    assert "unknown sweep" in capsys.readouterr().err

    assert cli.main(["sweep", "run", "offline_accuracy", "--out", out]) == 2
    assert "--axis" in capsys.readouterr().err

    assert cli.main(["sweep", "run", "t_sweep", "--tiny", "--workers", "1",
                     "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "best:" in captured and "marginal over phase_length" in captured

    sweep_id = SweepStore(out).latest().sweep_id
    assert cli.main(["sweep", "show", sweep_id[:10], "--out", out]) == 0
    shown = capsys.readouterr().out
    assert "best:" in shown and "4/4" not in shown  # per-point rows, 1 seed

    assert cli.main(["sweep", "list", "--out", out]) == 0
    assert "4/4" in capsys.readouterr().out

    assert cli.main(["sweep", "compare", sweep_id, "--out", out]) == 0
    assert "best point" in capsys.readouterr().out


def test_cli_sweep_adhoc_axis_over_scenario(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["sweep", "run", "timing_precision", "--tiny",
                     "--axis", "phase_length=8,12", "--workers", "1",
                     "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "p000" in captured and "p001" in captured
    manifest = json.loads(
        next((tmp_path / "sweeps").iterdir()).joinpath(
            "sweep.json").read_text())
    assert [p["overrides"]["phase_length"]
            for p in manifest["points"]] == [8, 12]


def test_cli_sweep_bad_axis_exits_cleanly(tmp_path, capsys):
    out = str(tmp_path)
    # Unknown axis field: clean error, not a traceback mid-run.
    assert cli.main(["sweep", "run", "t_sweep", "--tiny",
                     "--axis", "bogus=1,2", "--out", out]) == 2
    assert "neither" in capsys.readouterr().err
    # Invalid axis *value* (duplicate seeds) is caught at expansion too.
    assert cli.main(["sweep", "run", "t_sweep", "--tiny",
                     "--axis", "seeds=[0,0]", "--out", out]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_cli_axis_json_list_values_survive_comma_split(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["sweep", "run", "offline_accuracy", "--tiny",
                     "--axis", "backends=backprop",
                     "--axis", "hidden=[12,8],[16]",
                     "--workers", "1", "--out", out]) == 0
    capsys.readouterr()
    manifest = json.loads(
        next((tmp_path / "sweeps").iterdir()).joinpath(
            "sweep.json").read_text())
    assert [p["overrides"]["hidden"] for p in manifest["points"]] == \
        [[12, 8], [16]]
    child = RunStore(tmp_path).find(manifest["points"][0]["run_id"])
    assert child.spec().hidden == (12, 8)


def test_cli_sweep_resume_without_naming_the_sweep(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["sweep", "run", "timing_precision", "--tiny",
                     "--axis", "phase_length=8,12", "--workers", "1",
                     "--out", out]) == 0
    capsys.readouterr()
    # Doctor the finished sweep back to "interrupted before p001".
    sweep_dir = next((tmp_path / "sweeps").iterdir())
    manifest = json.loads((sweep_dir / "sweep.json").read_text())
    manifest["status"] = "running"
    manifest["points"][1] = {"point_id": "p001",
                             "overrides": manifest["points"][1]["overrides"],
                             "run_id": None, "status": "pending"}
    (sweep_dir / "sweep.json").write_text(json.dumps(manifest))
    summary = (sweep_dir / "summary.jsonl")
    summary.write_text(summary.read_text().splitlines()[0] + "\n")

    # Bare --resume must find it even though the default family name
    # (t_sweep) does not match this ad hoc sweep...
    assert cli.main(["sweep", "run", "--resume", "--out", out]) == 0
    assert "already complete" in capsys.readouterr().out

    # ...and a named resume filters "latest" by that sweep name.
    assert cli.main(["sweep", "run", "t_sweep", "--resume",
                     "--out", out]) == 2
    assert "unfinished" in capsys.readouterr().err


def test_cli_seed_base_applies_without_seeds_count(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["sweep", "run", "timing_precision", "--tiny",
                     "--axis", "phase_length=8,12", "--seed-base", "7",
                     "--workers", "1", "--out", out]) == 0
    capsys.readouterr()
    manifest = json.loads(
        next((tmp_path / "sweeps").iterdir()).joinpath(
            "sweep.json").read_text())
    base_seeds = manifest["spec"]["base"]["seeds"]
    assert base_seeds == [7]  # shifted, same count as the spec default
    # The plain `run` command honors a bare --seed-base the same way.
    assert cli.main(["run", "offline_accuracy", "--tiny", "--seed-base",
                     "3", "--workers", "1", "--out", out]) == 0
    run_dir = next((tmp_path / "offline_accuracy").iterdir())
    run_manifest = json.loads((run_dir / "manifest.json").read_text())
    assert run_manifest["spec"]["seeds"] == [3]


def test_sweeps_subpackage_exported_from_repro():
    import repro

    assert repro.sweeps.SweepRunner is SweepRunner
    assert "sweeps" in repro.__all__


def test_cli_sweep_show_unknown_exits_2(tmp_path, capsys):
    assert cli.main(["sweep", "show", "nope", "--out", str(tmp_path)]) == 2
    assert "no sweep" in capsys.readouterr().err


def test_cli_sweep_help_epilog_mentions_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "python -m repro sweep run" in capsys.readouterr().out
