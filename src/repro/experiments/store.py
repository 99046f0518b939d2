"""The on-disk run store: ``runs/<experiment>/<run_id>/``.

Layout of one run directory::

    runs/offline_accuracy/20260729-103015-ab12cd/
        manifest.json     # spec + status + versions (written first)
        records.jsonl     # one line per finished seed, appended atomically
        checkpoints/      # <stem>.npz + <stem>.json per saved model

``manifest.json`` is the source of truth for resuming: it embeds the full
:class:`~repro.experiments.spec.ExperimentSpec`, so ``--resume`` never
depends on the original command line.  ``records.jsonl`` is append-only;
a seed counts as done once its ``status: "ok"`` line is on disk, which is
what makes a killed run resumable without re-running finished seeds.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from .spec import ExperimentSpec

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
CHECKPOINT_DIR_NAME = "checkpoints"

#: Bump when the run-directory layout changes.
STORE_FORMAT_VERSION = 1


# -- helpers shared with the sweep store (repro.sweeps.store) --------------

def append_jsonl(path: Path, record: dict) -> None:
    """Append one record as a single ``O_APPEND`` write.

    POSIX guarantees a single ``write(2)`` on an ``O_APPEND`` fd lands
    atomically at the end of the file, so concurrent executor workers
    can append to one ``records.jsonl`` without interleaving lines.
    The byte format matches the historical buffered append exactly.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)

def read_jsonl(path: Path) -> List[dict]:
    """Parsed JSONL lines (skips blanks and a torn trailing line).

    A process killed mid-append can leave a torn last line; every
    complete record before it is still valid.
    """
    out: List[dict] = []
    if not path.is_file():
        return out
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def final_records(run_dir: Path, seeds=None) -> Dict[int, dict]:
    """seed -> the record that counts for it in ``records.jsonl``.

    The one rule for which record of a seed counts: its last ``ok``
    record (a failed attempt that a resume or a requeue retried leaves
    an error line before the retry's ok line), else its last record of
    any status.  ``seeds`` selects and orders the result (default: every
    seed on disk); seeds with no record are absent.
    """
    counted: Dict[int, dict] = {}
    for rec in read_jsonl(Path(run_dir) / RECORDS_NAME):
        if rec.get("seed") is None:
            continue
        seed = int(rec["seed"])
        if rec.get("status") == "ok" \
                or counted.get(seed, {}).get("status") != "ok":
            counted[seed] = rec
    if seeds is None:
        return counted
    return {int(s): counted[int(s)] for s in seeds if int(s) in counted}


def resolve_id(items, ident: str, id_of, what: str, where):
    """Locate one item by exact id or unique id prefix.

    ``id_of`` extracts an item's id; ``what`` names the item kind in the
    ``KeyError`` messages (``"run"``, ``"sweep"``).
    """
    matches = [it for it in items
               if id_of(it) == ident or id_of(it).startswith(ident)]
    exact = [it for it in matches if id_of(it) == ident]
    if exact:
        return exact[0]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"no {what} {ident!r} under {where}")
    raise KeyError(f"{what} id prefix {ident!r} is ambiguous: "
                   f"{[id_of(it) for it in matches]}")


def pick_latest(items, status_of, label: str, where,
                unfinished_only: bool = False):
    """The last item in store order, optionally skipping complete ones.

    ``label`` describes the collection in the ``KeyError`` message (e.g.
    ``"runs of 'offline_accuracy'"``, ``"sweeps"``).
    """
    if unfinished_only:
        items = [it for it in items if status_of(it) != "complete"]
    if not items:
        kind = "unfinished " if unfinished_only else ""
        raise KeyError(f"no {kind}{label} under {where}")
    return items[-1]


@dataclasses.dataclass(frozen=True)
class RunInfo:
    """A located run: its directory plus the parsed manifest."""

    experiment: str
    run_id: str
    path: Path
    manifest: dict

    @property
    def status(self) -> str:
        return self.manifest.get("status", "unknown")

    def spec(self) -> ExperimentSpec:
        return ExperimentSpec.from_dict(self.manifest["spec"])


class RunStore:
    """Reads and writes the ``runs/`` directory tree."""

    def __init__(self, root="runs"):
        self.root = Path(root)

    # -- paths -----------------------------------------------------------

    def run_dir(self, experiment: str, run_id: str) -> Path:
        return self.root / experiment / run_id

    # -- writing ---------------------------------------------------------

    def create_run(self, spec: ExperimentSpec, run_id: str) -> RunInfo:
        from .. import __version__

        path = self.run_dir(spec.name, run_id)
        if path.exists():
            raise FileExistsError(f"run directory {path} already exists")
        (path / CHECKPOINT_DIR_NAME).mkdir(parents=True)
        manifest = {
            "store_format_version": STORE_FORMAT_VERSION,
            "repro_version": __version__,
            "experiment": spec.name,
            "run_id": run_id,
            "spec": spec.to_dict(),
            "status": "running",
            "seeds": list(spec.seeds),
        }
        self._write_manifest(path, manifest)
        (path / RECORDS_NAME).touch()
        return RunInfo(spec.name, run_id, path, manifest)

    def update_status(self, run: RunInfo, status: str) -> RunInfo:
        manifest = dict(run.manifest)
        manifest["status"] = status
        self._write_manifest(run.path, manifest)
        return RunInfo(run.experiment, run.run_id, run.path, manifest)

    @staticmethod
    def _write_manifest(path: Path, manifest: dict) -> None:
        tmp = path / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        tmp.replace(path / MANIFEST_NAME)

    # -- reading ---------------------------------------------------------

    def load_run(self, experiment: str, run_id: str) -> RunInfo:
        """The run at :meth:`run_dir`, read from its manifest alone."""
        path = self.run_dir(experiment, run_id)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no run manifest at {manifest_path}")
        return RunInfo(experiment, run_id, path,
                       json.loads(manifest_path.read_text()))

    def list_runs(self, experiment: Optional[str] = None) -> List[RunInfo]:
        """All runs (newest directory name last), optionally filtered."""
        runs: List[RunInfo] = []
        if not self.root.is_dir():
            return runs
        for exp_dir in sorted(self.root.iterdir()):
            if not exp_dir.is_dir():
                continue
            if experiment is not None and exp_dir.name != experiment:
                continue
            for run_dir in sorted(exp_dir.iterdir()):
                if (run_dir / MANIFEST_NAME).is_file():
                    runs.append(self.load_run(exp_dir.name, run_dir.name))
        return runs

    def find(self, run_id: str) -> RunInfo:
        """Locate a run by id (or unique id prefix) across experiments."""
        return resolve_id(self.list_runs(), run_id,
                          lambda r: r.run_id, "run", self.root)

    def latest(self, experiment: str,
               unfinished_only: bool = False) -> RunInfo:
        return pick_latest(self.list_runs(experiment), lambda r: r.status,
                           f"runs of {experiment!r}", self.root,
                           unfinished_only=unfinished_only)

    def done_seeds(self, run: RunInfo) -> Dict[int, dict]:
        """seed -> record for every seed whose counted record is ``ok``."""
        return {seed: rec for seed, rec in final_records(run.path).items()
                if rec.get("status") == "ok"}
