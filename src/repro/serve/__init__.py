"""Micro-batching inference service over checkpointed models.

The serving layer puts any trained model family — ``EMSTDPNetwork``,
``BackpropMLP``, or the simulated-chip ``LoihiEMSTDPTrainer`` — behind a
request/response interface built from five pieces:

* :class:`ModelRegistry` — named, versioned model store with hot-swap,
  loading from ``repro.persist`` checkpoint stems or ``runs/`` directories;
* :class:`MicroBatcher` — coalesces concurrent single-sample requests into
  ``predict_batch`` calls (an idle worker takes everything queued);
* :class:`PredictionCache` — LRU keyed by input digest + model version;
* :class:`InferenceService` — the in-process facade tying them together
  with per-request telemetry (latency percentiles, batch-size histogram,
  cache hit rate, modeled Loihi energy per request);
* :class:`InferenceHTTPServer` — an optional stdlib JSON endpoint
  (``/predict``, ``/healthz``, ``/metrics``), no dependencies.

``python -m repro serve <checkpoint>`` wires it all to the CLI;
:mod:`repro.serve.loadgen` is the closed-loop load harness used by
``benchmarks/bench_serving_throughput.py`` and the CI smoke job.
"""

from .batcher import ItemResult, MicroBatcher
from .cache import PredictionCache, input_digest
from .errors import InvalidInput, Overloaded, WorkerDied
from .http import InferenceHTTPServer
from .loadgen import LoadReport, http_predict_fn, run_load, service_predict_fn
from .registry import ModelEntry, ModelRegistry, model_from_checkpoint
from .service import InferenceService
from .telemetry import Telemetry, estimate_request_energy_mj

__all__ = [
    "InferenceHTTPServer", "InferenceService", "InvalidInput", "ItemResult",
    "LoadReport", "MicroBatcher", "ModelEntry", "ModelRegistry", "Overloaded",
    "PredictionCache", "Telemetry", "WorkerDied",
    "estimate_request_energy_mj", "http_predict_fn", "input_digest",
    "model_from_checkpoint", "run_load", "service_predict_fn",
]
