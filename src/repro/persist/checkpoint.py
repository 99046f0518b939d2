"""Checkpoint save/load: npz arrays + a JSON manifest, versioned.

A checkpoint is a *pair* of files sharing one stem:

``<stem>.npz``
    Every array in the model's ``state_dict`` (lists of arrays are stored
    as ``key.0``, ``key.1``, ... entries), saved uncompressed for fast
    round trips.
``<stem>.json``
    The manifest: checkpoint format version, the ``repro`` package version
    that wrote it, the model class name, all non-array state, and optional
    caller metadata (seed, experiment name, ...).

Any object exposing the ``state_dict`` / ``load_state_dict`` protocol works
— :class:`repro.core.EMSTDPNetwork`, :class:`repro.baselines.BackpropMLP`
and :class:`repro.onchip.LoihiEMSTDPTrainer` all do.  Restoring is strict:
the manifest's model class must match the target object, format versions
from the future are rejected, and dimension mismatches surface as the
model's own ``load_state_dict`` errors.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: Bump when the on-disk layout changes; readers reject newer versions.
CHECKPOINT_FORMAT_VERSION = 1

_ARRAY_LIST = "__array_list__"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


def checkpoint_paths(stem: Union[str, Path]) -> Tuple[Path, Path]:
    """The ``(npz, json)`` file pair behind checkpoint ``stem``.

    ``stem`` may be a ``str`` or a :class:`~pathlib.Path`; a stem that
    already carries one of the pair's extensions (``ckpt/model.npz`` or
    ``ckpt/model.json``) resolves to the same pair as the bare stem, so
    tab-completed file names work everywhere a stem is accepted.  Other
    extensions are appended, not substituted: a stem like
    ``ckpt/model-v1.2`` keeps its dot instead of being truncated the way
    ``Path.with_suffix`` would.
    """
    stem = Path(stem)
    name = stem.name
    if name.endswith((".npz", ".json")):
        name = name.rsplit(".", 1)[0]
    return (stem.parent / (name + ".npz"),
            stem.parent / (name + ".json"))


def save_checkpoint(model, stem: Union[str, Path],
                    meta: Optional[Dict[str, object]] = None) -> Path:
    """Write ``model.state_dict()`` to ``<stem>.npz`` + ``<stem>.json``.

    Returns the manifest path.  ``meta`` is stored verbatim under the
    manifest's ``"meta"`` key (it must be JSON-serializable).
    """
    from .. import __version__

    state = model.state_dict()
    arrays: Dict[str, np.ndarray] = {}
    json_state: Dict[str, object] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            json_state[key] = {_ARRAY_LIST: None}  # scalar array marker
            arrays[key] = value
        elif (isinstance(value, (list, tuple)) and value
              and all(isinstance(v, np.ndarray) for v in value)):
            json_state[key] = {_ARRAY_LIST: len(value)}
            for i, v in enumerate(value):
                arrays[f"{key}.{i}"] = v
        else:
            json_state[key] = _jsonable(key, value)

    npz_path, json_path = checkpoint_paths(stem)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(npz_path, **arrays)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "model_class": type(model).__name__,
        "state": json_state,
        "meta": dict(meta) if meta else {},
    }
    json_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return json_path


def load_checkpoint(stem: Union[str, Path], model=None,
                    ) -> Tuple[Dict[str, object], dict]:
    """Read a checkpoint; returns ``(state_dict, manifest)``.

    When ``model`` is given, the checkpoint is also applied via
    ``model.load_state_dict`` after checking that the manifest's model
    class matches ``type(model).__name__``.  A missing half of the pair —
    whichever of ``<stem>.json`` / ``<stem>.npz`` is absent — raises
    :class:`CheckpointError` naming the missing file, never a raw
    ``FileNotFoundError``; so does a corrupt half (a manifest that is not
    JSON or lacks an entry the model needs, an unreadable array file).
    """
    npz_path, json_path = checkpoint_paths(stem)
    if not json_path.exists():
        if npz_path.exists():
            raise CheckpointError(
                f"array file {npz_path} has no manifest {json_path} "
                f"(checkpoints are .npz/.json pairs)")
        raise CheckpointError(f"no checkpoint manifest at {json_path}")
    if not npz_path.exists():
        raise CheckpointError(f"manifest {json_path} has no array file "
                              f"{npz_path}")
    try:
        manifest = json.loads(json_path.read_text())
    except ValueError as exc:
        raise CheckpointError(
            f"manifest {json_path} is not valid JSON: {exc}") from exc
    fmt = int(manifest.get("format_version", -1))
    if not 0 <= fmt <= CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{fmt} is newer than this build "
            f"(v{CHECKPOINT_FORMAT_VERSION}); upgrade repro to read it")

    state: Dict[str, object] = {}
    try:  # our own handle: np.load leaks its own when the zip is truncated
        with open(npz_path, "rb") as fh, \
                np.load(fh, allow_pickle=False) as arrays:
            for key, value in manifest["state"].items():
                if isinstance(value, dict) and _ARRAY_LIST in value:
                    n = value[_ARRAY_LIST]
                    if n is None:
                        state[key] = arrays[key]
                    else:
                        state[key] = [arrays[f"{key}.{i}"] for i in range(n)]
                else:
                    state[key] = value
    except (OSError, EOFError, ValueError, KeyError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"array file {npz_path} does not match its manifest or is "
            f"corrupt: {type(exc).__name__}: {exc}") from exc

    if model is not None:
        expected = manifest["model_class"]
        if type(model).__name__ != expected:
            raise CheckpointError(
                f"checkpoint holds a {expected}, cannot load into "
                f"{type(model).__name__}")
        try:
            model.load_state_dict(state)
        except KeyError as exc:
            raise CheckpointError(
                f"manifest {json_path} has no state entry {exc.args[0]!r}"
            ) from exc
    return state, manifest


def _jsonable(key: str, value):
    """Plain-JSON view of a non-array state entry (tuples become lists)."""
    try:
        return json.loads(json.dumps(value, default=_coerce))
    except TypeError as exc:  # pragma: no cover - defensive
        raise CheckpointError(
            f"state entry {key!r} is not JSON-serializable: {exc}") from exc


def _coerce(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"unsupported type {type(value).__name__}")
