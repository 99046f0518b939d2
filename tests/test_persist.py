"""Checkpoint round trips: save -> load must be bit-identical.

Covers the three trainable model families the ``repro.persist`` layer
supports — the full-precision :class:`EMSTDPNetwork` (both dynamics
backends), the :class:`BackpropMLP` baseline, and the simulated-chip
:class:`LoihiEMSTDPTrainer` — plus the manifest/versioning contract.
"""

import json
import re
import zipfile

import numpy as np
import pytest

import repro
from repro.baselines import BackpropMLP
from repro.core import EMSTDPNetwork, full_precision_config, loihi_default_config
from repro.data.synth import make_blobs
from repro.onchip import LoihiEMSTDPTrainer, build_emstdp_network
from repro.persist import (CHECKPOINT_FORMAT_VERSION, CheckpointError,
                           checkpoint_paths, load_checkpoint, save_checkpoint)

DIMS = (12, 10, 4)


def _task(seed=3, n=40):
    return make_blobs(DIMS[0], DIMS[-1], n, seed=seed)


def _trained_emstdp(dynamics="rate"):
    net = EMSTDPNetwork(DIMS, full_precision_config(
        seed=1, dynamics=dynamics, phase_length=8))
    xs, ys = _task()
    net.train_stream(xs[:20], ys[:20])
    return net


@pytest.mark.parametrize("dynamics", ["rate", "spike"])
def test_emstdp_round_trip_bit_identical(tmp_path, dynamics):
    net = _trained_emstdp(dynamics)
    xs, _ = _task(seed=9)
    before = [net.predict(x) for x in xs]

    save_checkpoint(net, tmp_path / "net")
    fresh = EMSTDPNetwork(DIMS, full_precision_config(
        seed=77, dynamics=dynamics, phase_length=8))  # different init
    load_checkpoint(tmp_path / "net", model=fresh)

    assert [fresh.predict(x) for x in xs] == before
    for w_a, w_b in zip(net.weights, fresh.weights):
        np.testing.assert_array_equal(w_a, w_b)
    for b_a, b_b in zip(net.feedback_weights, fresh.feedback_weights):
        np.testing.assert_array_equal(b_a, b_b)
    assert fresh.samples_seen == net.samples_seen


def test_backprop_round_trip_bit_identical(tmp_path):
    model = BackpropMLP(DIMS, lr=0.1, seed=2)
    xs, ys = _task()
    model.train_stream(xs[:20], ys[:20])
    logits_before = model._forward_batch(xs)[-1]

    save_checkpoint(model, tmp_path / "mlp")
    fresh = BackpropMLP(DIMS, lr=0.5, seed=99)
    load_checkpoint(tmp_path / "mlp", model=fresh)

    np.testing.assert_array_equal(fresh._forward_batch(xs)[-1],
                                  logits_before)
    assert fresh.lr == 0.1


def test_loihi_trainer_round_trip_bit_identical(tmp_path):
    cfg = loihi_default_config(seed=4, phase_length=8,
                               learning_rate=2.0 ** -4, error_gain=2.0)
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg))
    xs, ys = _task()
    trainer.train_stream(xs[:10], ys[:10])
    rates_before = np.stack([trainer.infer(x) for x in xs[:8]])

    save_checkpoint(trainer, tmp_path / "chip")
    npz_path, _ = checkpoint_paths(tmp_path / "chip")
    with np.load(npz_path) as saved:
        for i, conn in enumerate(trainer.model.plastic_connections):
            assert saved[f"weight_mant.{i}"].shape == (conn.src.n,
                                                       conn.dst.n)
    fresh = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg.replace(seed=55)))
    load_checkpoint(tmp_path / "chip", model=fresh)

    np.testing.assert_array_equal(
        np.stack([fresh.infer(x) for x in xs[:8]]), rates_before)
    assert fresh.samples_trained == trainer.samples_trained


@pytest.mark.parametrize("corrupt", [
    lambda w: np.where(w == w.flat[0], 500, w),
    lambda w: w + 0.7,
    lambda w: np.where(w == w.flat[0], np.nan, w),
    lambda w: w[None],
    lambda w: w[:, :-1],
], ids=["out_of_range", "non_integer", "nan", "replica_axis", "wrong_shape"])
def test_loihi_trainer_rejects_corrupt_mantissas(corrupt):
    """A mantissa block the chip cannot hold, or one that is not a single
    ``(src.n, dst.n)`` block, fails loudly, naming its connection, instead
    of loading as some other weight; valid mantissas round-trip."""
    cfg = loihi_default_config(seed=4, phase_length=8)
    trainer = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg))
    xs, ys = _task()
    trainer.train_stream(xs[:4], ys[:4])
    state = trainer.state_dict()
    fresh = LoihiEMSTDPTrainer(build_emstdp_network(DIMS, cfg))
    fresh.load_state_dict(state)
    for a, b in zip(fresh.model.plastic_connections,
                    trainer.model.plastic_connections):
        np.testing.assert_array_equal(a.weight_mant, b.weight_mant)
    conn = trainer.model.plastic_connections[1]
    state["weight_mant"][1] = corrupt(state["weight_mant"][1].astype(float))
    with pytest.raises(ValueError, match=re.escape(repr(conn.name))):
        fresh.load_state_dict(state)


def test_class_mask_survives_round_trip(tmp_path):
    net = _trained_emstdp()
    net.set_class_mask([0, 2])
    save_checkpoint(net, tmp_path / "masked")
    fresh = EMSTDPNetwork(DIMS, full_precision_config(seed=5,
                                                      phase_length=8))
    load_checkpoint(tmp_path / "masked", model=fresh)
    np.testing.assert_array_equal(fresh.class_mask, net.class_mask)


def test_dotted_stem_keeps_its_name(tmp_path):
    npz_path, json_path = checkpoint_paths(tmp_path / "model-v1.2")
    assert npz_path.name == "model-v1.2.npz"
    assert json_path.name == "model-v1.2.json"
    net = _trained_emstdp()
    save_checkpoint(net, tmp_path / "model-v1.2")
    state, _ = load_checkpoint(tmp_path / "model-v1.2")
    assert tuple(state["dims"]) == DIMS


def test_manifest_contents_and_meta(tmp_path):
    net = _trained_emstdp()
    manifest_path = save_checkpoint(net, tmp_path / "net",
                                    meta={"seed": 7, "experiment": "x"})
    npz_path, json_path = checkpoint_paths(tmp_path / "net")
    assert manifest_path == json_path and npz_path.exists()
    manifest = json.loads(json_path.read_text())
    assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
    assert manifest["repro_version"] == repro.__version__
    assert manifest["model_class"] == "EMSTDPNetwork"
    assert manifest["meta"] == {"seed": 7, "experiment": "x"}


def test_wrong_model_class_rejected(tmp_path):
    save_checkpoint(_trained_emstdp(), tmp_path / "net")
    with pytest.raises(CheckpointError, match="EMSTDPNetwork"):
        load_checkpoint(tmp_path / "net", model=BackpropMLP(DIMS))


def test_dims_mismatch_rejected(tmp_path):
    save_checkpoint(_trained_emstdp(), tmp_path / "net")
    other = EMSTDPNetwork((12, 6, 4), full_precision_config(phase_length=8))
    with pytest.raises(ValueError, match="dims"):
        load_checkpoint(tmp_path / "net", model=other)


def test_future_format_version_rejected(tmp_path):
    save_checkpoint(_trained_emstdp(), tmp_path / "net")
    _, json_path = checkpoint_paths(tmp_path / "net")
    manifest = json.loads(json_path.read_text())
    manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
    json_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="newer"):
        load_checkpoint(tmp_path / "net")


def test_missing_checkpoint_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(tmp_path / "nope")


def test_missing_npz_half_raises_checkpoint_error(tmp_path):
    save_checkpoint(_trained_emstdp(), tmp_path / "net")
    npz_path, _ = checkpoint_paths(tmp_path / "net")
    npz_path.unlink()
    with pytest.raises(CheckpointError, match="no array file"):
        load_checkpoint(tmp_path / "net")


def test_missing_manifest_half_raises_checkpoint_error(tmp_path):
    save_checkpoint(_trained_emstdp(), tmp_path / "net")
    _, json_path = checkpoint_paths(tmp_path / "net")
    json_path.unlink()
    with pytest.raises(CheckpointError, match="no manifest"):
        load_checkpoint(tmp_path / "net")


def test_str_and_path_stems_are_equivalent(tmp_path):
    net = _trained_emstdp()
    save_checkpoint(net, str(tmp_path / "as-str"))  # str stem
    state, _ = load_checkpoint(tmp_path / "as-str")  # Path stem
    assert tuple(state["dims"]) == DIMS
    assert checkpoint_paths(str(tmp_path / "x")) == \
        checkpoint_paths(tmp_path / "x")


def test_stem_with_pair_extension_resolves_to_same_pair(tmp_path):
    net = _trained_emstdp()
    save_checkpoint(net, tmp_path / "net")
    for alias in ("net.npz", "net.json"):
        assert checkpoint_paths(tmp_path / alias) == \
            checkpoint_paths(tmp_path / "net")
        state, _ = load_checkpoint(tmp_path / alias)
        assert tuple(state["dims"]) == DIMS


def test_state_dict_carries_config_for_registry_rebuilds(tmp_path):
    net = _trained_emstdp()
    save_checkpoint(net, tmp_path / "net")
    state, _ = load_checkpoint(tmp_path / "net")
    assert state["config"]["phase_length"] == 8
    assert state["config"]["dynamics"] == "rate"


def test_load_without_model_returns_state(tmp_path):
    net = _trained_emstdp()
    save_checkpoint(net, tmp_path / "net")
    state, manifest = load_checkpoint(tmp_path / "net")
    assert tuple(state["dims"]) == DIMS
    assert len(state["weights"]) == len(net.weights)
    assert manifest["model_class"] == "EMSTDPNetwork"


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _flip_last_byte_of_first_array(npz_path):
    """Flip a byte inside the first member's stored data (not a header),
    so only the zip CRC-32 can notice."""
    with zipfile.ZipFile(npz_path) as zf:
        info = zf.infolist()[0]
    data = bytearray(npz_path.read_bytes())
    head = info.header_offset
    name_len = int.from_bytes(data[head + 26:head + 28], "little")
    extra_len = int.from_bytes(data[head + 28:head + 30], "little")
    data[head + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    npz_path.write_bytes(bytes(data))


def _drop_dims(json_path):
    manifest = json.loads(json_path.read_text())
    del manifest["state"]["dims"]
    json_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt, half", [
    (_truncate, 0),
    (_flip_last_byte_of_first_array, 0),
    (lambda path: path.write_bytes(b""), 0),
    (_truncate, 1),
    (_drop_dims, 1),
], ids=["truncated-npz", "flipped-array-byte", "empty-npz",
        "truncated-manifest", "manifest-without-dims"])
def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path, capsys,
                                                    corrupt, half):
    from repro import cli
    from repro.serve import ModelRegistry

    stem = tmp_path / "net"
    save_checkpoint(_trained_emstdp(), stem)
    bad = checkpoint_paths(stem)[half]
    corrupt(bad)
    fresh = EMSTDPNetwork(DIMS, full_precision_config(phase_length=8))
    with pytest.raises(CheckpointError, match=re.escape(str(bad))):
        load_checkpoint(stem, model=fresh)
    with pytest.raises(CheckpointError, match=re.escape(str(bad))):
        ModelRegistry().load(stem)
    # The CLI reports it as its one-line error, not a traceback.
    assert cli.main(["serve", str(stem), "--port", "0",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
