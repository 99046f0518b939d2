"""The sweep runner: fan a SweepSpec's point × seed product over the executor.

One ``SweepRunner.run(sweep)`` call expands the sweep, ensures every
unfinished point has a child run directory in the ordinary experiment
run store, then hands all of their pending seeds to the one planner
(:func:`~repro.exec.planner.run_seed_groups`, one seed group per point):
they share one SQLite-backed queue in the sweep directory and one
:class:`~repro.exec.pool.WorkerPool`, so points interleave across
workers instead of running point-by-point, and a 100-point × 5-seed
grid saturates the machine.  A point's summary line (mean metrics over
its seeds) is appended to ``summary.jsonl`` the moment its last seed
lands, in whatever order the fleet finishes them; with one worker the
claim order is the enqueue order, so summaries stay in expansion order.

Resume is two-level: ``resume=<sweep_id>`` re-expands the spec from
``sweep.json``, skips every point whose last summary line says
``complete`` (even if the sweep died before ``sweep.json`` said so), and
for a point that was mid-flight re-reads its child run's
``records.jsonl`` so finished seeds are not re-enqueued.  A SIGKILLed
worker's leased task is requeued by the pool, not lost.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, List, Optional

from .. import obs
from ..analysis.aggregate import mean_metrics
from ..exec import SeedGroup, run_seed_groups
from ..experiments.runner import new_run_id
from ..experiments.store import RunInfo, RunStore, final_records
from .spec import SweepPoint, SweepSpec
from .store import SweepInfo, SweepStore


@dataclasses.dataclass
class PointResult:
    """One executed (or skipped) point of a sweep."""

    point: SweepPoint
    run_id: str
    status: str
    summary: dict
    skipped: bool = False


@dataclasses.dataclass
class SweepResult:
    """What ``SweepRunner.run`` hands back: the sweep plus its points."""

    sweep: SweepInfo
    points: List[PointResult]

    @property
    def sweep_id(self) -> str:
        return self.sweep.sweep_id

    @property
    def sweep_dir(self) -> Path:
        return self.sweep.path

    @property
    def status(self) -> str:
        return self.sweep.status


class SweepRunner:
    """Executes :class:`SweepSpec` expansions against a run + sweep store.

    Parameters
    ----------
    out_root:
        Root of the run store; the sweep index lives under
        ``<out_root>/sweeps/`` and child runs in the store proper.
    max_workers:
        Worker-fleet width shared by *all* points' seeds (``1`` runs
        the claim loop inline).  Defaults to
        :func:`repro.exec.default_workers` capped at the task count.
    """

    def __init__(self, out_root="runs", max_workers: Optional[int] = None):
        self.runs = RunStore(out_root)
        self.store = SweepStore(out_root)
        self.max_workers = max_workers

    def run(self, spec: Optional[SweepSpec] = None,
            resume: Optional[str] = None,
            progress: Optional[callable] = None) -> SweepResult:
        """Run ``spec``, or resume an existing sweep.

        ``resume`` is a sweep id (or unique prefix), or ``"latest"`` for
        the newest unfinished sweep (of ``spec.name`` when a spec is
        given).  A resumed sweep takes its spec from ``sweep.json``.
        """
        if resume is not None:
            if resume == "latest":
                sweep = self.store.latest(
                    spec.name if spec is not None else None,
                    unfinished_only=True)
            else:
                sweep = self.store.find(resume)
            spec = sweep.spec()
        else:
            if spec is None:
                raise ValueError("need a sweep spec or a sweep id to resume")
            sweep = self.store.create_sweep(spec, new_run_id())

        points = spec.expand()
        results: Dict[str, PointResult] = {}
        # The sweep trace holds the executor's task spans (enqueue ->
        # claim -> done); each child run writes its own trace.jsonl
        # under its run directory as usual.
        with obs.trace_bound(obs.trace_path_for(sweep.path)):
            with obs.span("sweep", sweep_id=sweep.sweep_id,
                          sweep_name=spec.name, points=len(points)) as root:
                sweep = self._run_points(
                    sweep, points, results,
                    root.span_id if root is not None else None, progress)
        ordered = [results[p.point_id] for p in points]
        failed = any(r.status != "complete" for r in ordered)
        sweep = self.store.update_status(
            sweep, "failed" if failed else "complete")
        return SweepResult(sweep=sweep, points=ordered)

    # -- planning + execution -------------------------------------------

    def _run_points(self, sweep: SweepInfo, points: List[SweepPoint],
                    results: Dict[str, PointResult],
                    queue_parent: Optional[str],
                    progress: Optional[callable]) -> SweepInfo:
        # Skip finished points; give every other point a child run
        # directory, committed to sweep.json *before* any seed executes
        # so a killed sweep finds it again on resume.
        state = {p["point_id"]: p for p in sweep.points()}
        summaries = self.store.summaries(sweep)
        by_id = {point.point_id: point for point in points}
        groups: List[SeedGroup] = []
        for point in points:
            entry = state.get(point.point_id, {})
            summary = summaries.get(point.point_id, {})
            if summary.get("status") == "complete":
                if entry.get("status") != "complete":
                    # Killed between the summary line and sweep.json.
                    sweep = self.store.update_point(
                        sweep, point.point_id, status="complete")
                if progress is not None:
                    progress(f"point {point.point_id} "
                             f"({point.label}): already complete")
                obs.event("sweep_point_skipped", point_id=point.point_id)
                results[point.point_id] = PointResult(
                    point=point, run_id=entry.get("run_id", ""),
                    status="complete", summary=summary, skipped=True)
                continue
            run_id = entry.get("run_id")
            if run_id is None:
                run = self.runs.create_run(point.spec, new_run_id())
                run_id = run.run_id
                sweep = self.store.update_point(sweep, point.point_id,
                                                run_id=run_id,
                                                status="running")
            else:
                # The child's directory follows from the point: read its
                # one manifest, not every run in the store.
                run = self.runs.load_run(point.spec.name, run_id)
                sweep = self.store.update_point(sweep, point.point_id,
                                                status="running")
            if progress is not None:
                progress(f"point {point.point_id} ({point.label}) -> "
                         f"run {run_id}")
            done = self.runs.done_seeds(run)
            if progress is not None and done:
                progress(f"resuming {run_id}: seeds "
                         f"{sorted(done)} already done")
            groups.append(SeedGroup(
                run, [s for s in point.spec.seeds if s not in done],
                point_id=point.point_id))

        # Execute every point's pending seeds on one queue; settle each
        # point the moment its group empties.
        def settle(group: SeedGroup) -> None:
            nonlocal sweep
            sweep = self._finalize_point(sweep, by_id[group.point_id],
                                         group.run, results, progress)

        run_seed_groups(groups, sweep.path, max_workers=self.max_workers,
                        queue_parent=queue_parent, progress=progress,
                        on_settled=settle)
        return sweep

    # -- one point -------------------------------------------------------

    def _finalize_point(self, sweep: SweepInfo, point: SweepPoint,
                        run: RunInfo, results: Dict[str, PointResult],
                        progress: Optional[callable]) -> SweepInfo:
        """Settle a drained point: child run status, summary line, index."""
        finals = final_records(run.path, point.spec.seeds)
        ok = sorted((r for r in finals.values()
                     if r.get("status") == "ok"),
                    key=lambda r: r["seed"])
        status = ("complete"
                  if len(ok) == len(point.spec.seeds) else "failed")
        self.runs.update_status(run, status)
        summary = {
            "point_id": point.point_id,
            "overrides": point.overrides,
            "run_id": run.run_id,
            "status": status,
            "experiment": point.spec.name,
            "seeds_ok": len(ok),
            "seeds_total": len(point.spec.seeds),
            "duration_s": round(sum(r.get("duration_s", 0.0)
                                    for r in finals.values()), 3),
            "metrics": mean_metrics(ok),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        self.store.append_summary(sweep, summary)
        sweep = self.store.update_point(sweep, point.point_id,
                                        status=status)
        obs.counter("sweep_points_finished", sweep=sweep.name,
                    status=status)
        results[point.point_id] = PointResult(
            point=point, run_id=run.run_id, status=status,
            summary=summary)
        if progress is not None:
            progress(f"point {point.point_id} ({point.label}): {status}")
        return sweep
