"""The experiment runner: seed fan-out, persistence, resume.

One ``Runner.run(spec)`` call hands the run's pending seeds to the one
planner under both runners as a single seed group
(:func:`~repro.exec.planner.run_seed_groups`): every pending seed
becomes one ``run_seed`` task on a SQLite-backed queue in the run
directory, and a spawn-based :class:`~repro.exec.pool.WorkerPool` pulls
them under leases (seeds are fully independent: their dataset split,
model init and training stream all derive from the seed).  The *worker*
appends each seed's record to ``records.jsonl`` the moment it finishes,
so a killed run keeps every finished seed and a SIGKILLed worker's
leased task is requeued rather than lost; ``resume`` re-opens the run
directory, reads the manifest's spec and the finished seeds, and only
enqueues what is missing.

The queue file (``queue.db``) is rebuilt from ``records.jsonl`` on
every invocation and left on disk afterwards for inspection — it is
bookkeeping, not state.
"""

from __future__ import annotations

import dataclasses
import time
import uuid
from pathlib import Path
from typing import List, Optional

from .. import obs
from ..exec import SeedGroup, run_seed_groups
from .spec import ExperimentSpec
from .store import RunInfo, RunStore, final_records


def new_run_id() -> str:
    """Sortable, collision-safe run id: ``YYYYmmdd-HHMMSS-<hex6>``."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


@dataclasses.dataclass
class RunResult:
    """What ``Runner.run`` hands back: the run plus its records."""

    run: RunInfo
    records: List[dict]
    skipped_seeds: List[int]

    @property
    def run_id(self) -> str:
        return self.run.run_id

    @property
    def run_dir(self) -> Path:
        return self.run.path

    @property
    def status(self) -> str:
        return self.run.status

    def ok_records(self) -> List[dict]:
        return sorted((r for r in self.records if r.get("status") == "ok"),
                      key=lambda r: r["seed"])

    def error_records(self) -> List[dict]:
        return [r for r in self.records if r.get("status") != "ok"]

    def first_ok(self) -> dict:
        """The lowest-seed finished record; raises if every seed failed."""
        ok = self.ok_records()
        if ok:
            return ok[0]
        detail = ""
        errors = self.error_records()
        if errors:
            detail = (f"; seed {errors[0]['seed']} raised:\n"
                      f"{errors[0].get('error', '')}")
        raise RuntimeError(
            f"run {self.run_id} produced no finished seeds "
            f"(see {self.run_dir / 'records.jsonl'}){detail}")

    def summary(self) -> str:
        """Scenario-rendered results table for the finished seeds."""
        from ..analysis.reporting import format_table
        from .scenarios import get_scenario

        scenario = get_scenario(self.run.experiment)
        headers, rows = scenario.summarize(self.ok_records())
        title = (f"{self.run.experiment} · run {self.run_id} "
                 f"[{self.status}]")
        return format_table(headers, rows, title=title)


class Runner:
    """Plans :class:`ExperimentSpec` seed fan-outs over the executor.

    Parameters
    ----------
    out_root:
        Root of the run store (default ``runs/``).
    max_workers:
        Worker-fleet width; ``1`` runs the claim loop inline in this
        process (used by the examples and handy under debuggers).
        Defaults to :func:`repro.exec.default_workers` capped at the
        pending seed count (``REPRO_MAX_WORKERS`` overrides).
    """

    def __init__(self, out_root="runs", max_workers: Optional[int] = None):
        self.store = RunStore(out_root)
        self.max_workers = max_workers

    def run(self, spec: Optional[ExperimentSpec] = None,
            resume: Optional[str] = None,
            progress: Optional[callable] = None) -> RunResult:
        """Run ``spec``, or resume an existing run.

        ``resume`` is a run id (or unique prefix), or ``"latest"`` for the
        newest unfinished run of ``spec.name``.  A resumed run takes its
        spec from the manifest — the caller's ``spec`` is only used to
        select the experiment when ``resume="latest"``.
        """
        if resume is not None:
            if resume == "latest":
                if spec is None:
                    raise ValueError(
                        'resume="latest" needs a spec to name the '
                        "experiment")
                run = self.store.latest(spec.name, unfinished_only=True)
            else:
                run = self.store.find(resume)
            spec = run.spec()
        else:
            if spec is None:
                raise ValueError("need a spec or a run id to resume")
            run = self.store.create_run(spec, new_run_id())

        done = self.store.done_seeds(run)
        pending = [s for s in spec.seeds if s not in done]
        skipped = [s for s in spec.seeds if s in done]
        if progress is not None and skipped:
            progress(f"resuming {run.run_id}: seeds {skipped} already done")

        with obs.trace_bound(obs.trace_path_for(run.path)):
            with obs.span("run", experiment=spec.name, run_id=run.run_id,
                          seeds=len(spec.seeds),
                          pending=len(pending)) as root:
                run_seed_groups(
                    [SeedGroup(run, pending)], run.path,
                    max_workers=self.max_workers,
                    queue_parent=root.span_id if root is not None else None,
                    progress=progress)
                finals = final_records(run.path, spec.seeds)
                failed = any(
                    finals.get(int(s), {}).get("status") != "ok"
                    for s in spec.seeds)
                status = "failed" if failed else "complete"
                if root is not None:
                    root.set(status=status)
        records = ([done[s] for s in spec.seeds if s in done]
                   + [finals[int(s)] for s in pending
                      if int(s) in finals])
        run = self.store.update_status(run, status)
        return RunResult(run=run, records=records, skipped_seeds=skipped)
