"""Sweep orchestration: experiment surfaces over the run store.

The paper's headline results are sweeps — accuracy/energy vs. a knob, not
single points — and this package turns one frozen
:class:`~repro.experiments.spec.ExperimentSpec` into that surface:

* :class:`SweepSpec` — grid + random axes (spec fields or dotted
  ``params.<key>`` paths) expanded deterministically into points;
* :class:`SweepRunner` — makes each point an ordinary resumable child
  run in the run store, hands every point's pending seeds to the one
  planner under both runners (:func:`repro.exec.run_seed_groups`, one
  seed group per point, one queue and worker fleet for the whole
  sweep), and keeps a ``sweeps/<sweep_id>/`` index linking child run
  ids, resumable mid-sweep;
* :data:`SWEEPS` / :func:`get_sweep` — the registry of built-in sweep
  families (``noise_robustness``, ``t_sweep``);
* cross-point aggregation (best point, per-axis marginals, the JSONL
  summary) lives in :mod:`repro.analysis.aggregate`.

``python -m repro sweep run/show/compare`` is the CLI over all of it.
"""

from .runner import PointResult, SweepResult, SweepRunner
from .scenarios import SWEEPS, SweepFamily, get_sweep, register_sweep
from .spec import (RandomAxis, SweepAxis, SweepPoint, SweepSpec,
                   apply_overrides, coerce_axis_value)
from .store import SweepInfo, SweepStore

__all__ = ["PointResult", "RandomAxis", "SWEEPS", "SweepAxis", "SweepFamily",
           "SweepInfo", "SweepPoint", "SweepResult", "SweepRunner",
           "SweepSpec", "SweepStore", "apply_overrides", "coerce_axis_value",
           "get_sweep", "register_sweep"]
