"""Named, versioned registry of servable models with hot-swap.

The registry maps ``name -> {version -> model}`` plus one *active* version
per name and one default name for the whole registry.  Serving always goes
through :meth:`ModelRegistry.resolve`, so activating a different version
(hot-swap) atomically redirects every subsequent request; subscribers —
the :class:`~repro.serve.service.InferenceService` cache, chiefly — are
notified with ``(name, old_version, new_version)`` so version-keyed state
can be invalidated.

Models come from three sources:

* :meth:`register` — an already-constructed object (anything with
  ``predict_batch``);
* :meth:`load` — a ``repro.persist`` checkpoint stem.  Checkpoints are
  self-describing (the state dict carries ``dims`` and the
  ``EMSTDPConfig``), so the registry rebuilds the exact model family the
  checkpoint was written from: ``EMSTDPNetwork``, ``BackpropMLP``, or
  ``LoihiEMSTDPTrainer`` (rebuilt on a fresh simulated chip, then the
  8-bit mantissas are restored);
* :meth:`load_source` — a stem, a directory of checkpoints, or a run id
  in a ``runs/`` store (loads every checkpoint of that run).
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import obs
from ..core.config import (EMSTDPConfig, full_precision_config,
                           loihi_default_config)
from ..core.network import PHASE2_ITERATIONS, EMSTDPNetwork
from ..persist import CheckpointError, checkpoint_paths, load_checkpoint
from .telemetry import estimate_request_energy_mj

SwapListener = Callable[[str, Optional[str], str], None]


@dataclasses.dataclass(frozen=True)
class ModelEntry:
    """One resolvable (name, version) pair."""

    name: str
    version: str
    model: object
    model_class: str
    dims: Tuple[int, ...]
    source: str
    energy_mj_per_request: float

    @property
    def n_classes(self) -> int:
        return self.dims[-1]


#: Retired ``EMSTDPConfig`` fields, which checkpoints written before
#: their removal carry, each at the one value the code implements.
_RETIRED_CONFIG = {"gate_output": False, "hidden_error_gain": 1.0,
                   "phase2_iterations": PHASE2_ITERATIONS,
                   "feedback_scale": 1.0, "init_scale": 1.0}


def _checkpoint_config(cfg: dict, stem) -> EMSTDPConfig:
    """The config stamped in checkpoint ``stem``, less the retired fields
    at their value; a retired field at another value, a field
    ``EMSTDPConfig`` lacks or a value it refuses raises
    ``CheckpointError`` naming it."""
    fields = {f.name for f in dataclasses.fields(EMSTDPConfig)}
    for key, value in cfg.items():
        if key in _RETIRED_CONFIG and value != _RETIRED_CONFIG[key]:
            raise CheckpointError(
                f"checkpoint {stem} sets config field {key!r} to {value!r}; "
                f"the field is retired at {_RETIRED_CONFIG[key]!r}")
        if key not in _RETIRED_CONFIG and key not in fields:
            raise CheckpointError(
                f"checkpoint {stem} has an unknown config field {key!r}")
    try:
        return EMSTDPConfig(**{k: v for k, v in cfg.items() if k in fields})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {stem} config: {exc}") from exc


def model_from_checkpoint(stem: Union[str, Path]):
    """Reconstruct the checkpointed model object from its stem.

    Returns ``(model, manifest)``.  The model class comes from the
    manifest; its construction parameters come from the state dict
    (``dims``, ``config``/``lr``); a stamped config is read by
    ``_checkpoint_config``.  Checkpoints written before configs were
    stamped into the state fall back to the family's default config, with
    the bias neuron inferred from the stored weight shapes.
    """
    state, manifest = load_checkpoint(stem)
    cls = manifest.get("model_class")
    try:
        dims = tuple(int(d) for d in state["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"manifest {checkpoint_paths(stem)[1]} has no valid state entry "
            f"'dims'") from exc

    cfg_dict = state.get("config")
    if cls == "EMSTDPNetwork":
        if cfg_dict is not None:
            config = _checkpoint_config(cfg_dict, stem)
        else:  # legacy checkpoint: infer what the weight shapes reveal
            has_bias = state["weights"][0].shape[0] == dims[0] + 1
            config = full_precision_config(use_bias_neuron=has_bias)
        model = EMSTDPNetwork(dims, config)
    elif cls == "BackpropMLP":
        from ..baselines.rate_ann import BackpropMLP

        model = BackpropMLP(dims, lr=float(state.get("lr", 0.05)))
    elif cls == "LoihiEMSTDPTrainer":
        from ..onchip import LoihiEMSTDPTrainer, build_emstdp_network

        config = (_checkpoint_config(cfg_dict, stem)
                  if cfg_dict is not None else loihi_default_config())
        # Serve through the batch-parallel replicated runtime: the
        # micro-batcher takes up to its max batch in one predict_batch
        # call, so the replica width matches the default serving batch.
        model = LoihiEMSTDPTrainer(build_emstdp_network(dims, config),
                                   batch_replicas=32)
    else:
        raise CheckpointError(
            f"cannot serve a {cls!r} checkpoint (supported: EMSTDPNetwork, "
            f"BackpropMLP, LoihiEMSTDPTrainer)")
    model.load_state_dict(state)
    return model, manifest


class ModelRegistry:
    """Thread-safe name/version store behind the inference service."""

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: Dict[str, Dict[str, ModelEntry]] = {}
        self._active: Dict[str, str] = {}
        self._default_name: Optional[str] = None
        self._listeners: List[SwapListener] = []

    # -- registration ----------------------------------------------------

    def register(self, name: str, model, version: Optional[str] = None,
                 source: str = "<object>", activate: bool = True) -> ModelEntry:
        """Add ``model`` under ``name``; returns its entry.

        ``version`` defaults to the next ``v<N>`` for that name.  With
        ``activate`` (the default) the new version immediately becomes the
        one ``resolve(name)`` hands out — a hot-swap when the name already
        serves an older version.
        """
        if not hasattr(model, "predict_batch"):
            raise TypeError(
                f"model {type(model).__name__} has no predict_batch; "
                "every served model must expose the batched inference API")
        dims = tuple(int(d) for d in
                     (model.model.dims if hasattr(model, "model")
                      else model.dims))
        with self._lock:
            versions = self._entries.setdefault(name, {})
            if version is None:
                version = f"v{len(versions) + 1}"
            if version in versions:
                raise ValueError(
                    f"model {name!r} already has a version {version!r}")
            entry = ModelEntry(
                name=name, version=version, model=model,
                model_class=type(model).__name__, dims=dims, source=source,
                energy_mj_per_request=estimate_request_energy_mj(model))
            versions[version] = entry
            if self._default_name is None:
                self._default_name = name
            if activate:
                self.activate(name, version)
        return entry

    def load(self, stem: Union[str, Path], name: Optional[str] = None,
             version: Optional[str] = None, activate: bool = True,
             ) -> ModelEntry:
        """Load one checkpoint stem and register it (name defaults to the stem)."""
        with obs.span("model_load", stem=str(stem)):
            model, _ = model_from_checkpoint(stem)
        obs.counter("serve_model_loads")
        npz_path, _ = checkpoint_paths(stem)
        if name is None:
            name = npz_path.name[:-len(".npz")]
        return self.register(name, model, version=version,
                             source=str(npz_path.parent / name),
                             activate=activate)

    def load_source(self, source: Union[str, Path],
                    store_root: Union[str, Path] = "runs",
                    ) -> List[ModelEntry]:
        """Load a checkpoint stem, a directory of checkpoints, or a run id.

        * a stem (with or without ``.npz``/``.json``) loads that checkpoint;
        * a directory loads every ``.npz``/``.json`` pair inside it;
        * anything else is treated as a run id (or unique prefix) in the
          ``store_root`` run store, loading that run's ``checkpoints/``.
        """
        path = Path(source)
        npz_path, json_path = checkpoint_paths(path)
        if npz_path.exists() or json_path.exists():
            return [self.load(path)]
        if path.is_dir():
            entries = self._load_dir(path)
            if not entries:
                raise CheckpointError(f"no checkpoint pairs under {path}")
            return entries
        from ..experiments.store import CHECKPOINT_DIR_NAME, RunStore

        try:
            run = RunStore(store_root).find(str(source))
        except KeyError:
            raise CheckpointError(
                f"{source!r} is neither a checkpoint stem, a directory, nor "
                f"a run id under {store_root}/") from None
        entries = self._load_dir(run.path / CHECKPOINT_DIR_NAME)
        if not entries:
            raise CheckpointError(
                f"run {run.run_id} has no checkpoints to serve")
        return entries

    def _load_dir(self, directory: Path) -> List[ModelEntry]:
        stems = sorted(p.with_suffix("") for p in directory.glob("*.json")
                       if checkpoint_paths(p)[0].exists())
        return [self.load(stem) for stem in stems]

    # -- hot-swap --------------------------------------------------------

    def activate(self, name: str, version: str) -> ModelEntry:
        """Make ``version`` the one ``resolve(name)`` serves (hot-swap)."""
        with self._lock:
            entry = self._entry(name, version)
            old = self._active.get(name)
            self._active[name] = version
            listeners = list(self._listeners)
        if old != version:
            obs.counter("serve_model_swaps", model=name)
            obs.event("model_swap", model=name, old_version=old,
                      new_version=version)
            for listener in listeners:
                listener(name, old, version)
        return entry

    def subscribe(self, listener: SwapListener) -> None:
        """Call ``listener(name, old_version, new_version)`` on every swap."""
        with self._lock:
            self._listeners.append(listener)

    # -- resolution ------------------------------------------------------

    def _entry(self, name: str, version: str) -> ModelEntry:
        versions = self._entries.get(name)
        if not versions:
            raise KeyError(f"no model named {name!r} "
                           f"(registered: {sorted(self._entries)})")
        if version not in versions:
            raise KeyError(f"model {name!r} has no version {version!r} "
                           f"(available: {sorted(versions)})")
        return versions[version]

    def resolve(self, name: Optional[str] = None,
                version: Optional[str] = None) -> ModelEntry:
        """The entry serving ``name`` (default model, active version)."""
        with self._lock:
            if name is None:
                if self._default_name is None:
                    raise KeyError("registry is empty")
                name = self._default_name
            if version is None:
                version = self._active.get(name)
                if version is None:
                    raise KeyError(f"model {name!r} has no active version")
            return self._entry(name, version)

    def active_versions(self) -> Dict[str, str]:
        """``{name: active version}`` for every name that has one."""
        with self._lock:
            return dict(self._active)

    def models(self) -> List[dict]:
        """JSON-ready listing of every registered (name, version)."""
        with self._lock:
            out = []
            for name in sorted(self._entries):
                for version in sorted(self._entries[name]):
                    entry = self._entries[name][version]
                    out.append({
                        "name": name,
                        "version": version,
                        "active": self._active.get(name) == version,
                        "default": name == self._default_name,
                        "model_class": entry.model_class,
                        "dims": list(entry.dims),
                        "source": entry.source,
                        "energy_mj_per_request":
                            entry.energy_mj_per_request,
                    })
            return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())
