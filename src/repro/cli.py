"""``python -m repro`` — run, list, show, compare, sweep, and serve.

Subcommands::

    run <scenario> [--tiny] [--seeds N] [--seed-base B] [--resume [RUN_ID]]
        Execute a scenario's spec over N seeds (work-queue worker fleet,
        ``REPRO_MAX_WORKERS`` overrides the width) and print its results
        table.  ``--resume`` without an id picks the newest unfinished
        run of the scenario; finished seeds are skipped.
    list
        Table of every run in the store (status, seeds done, version),
        most recent first.
    show <run_id>
        The per-seed results table of one run (id prefixes work).
    compare <run_id> [<run_id> ...]
        Mean numeric metrics of several runs side by side.
    sweep run [<sweep>] [--tiny] [--axis F=V1,V2 ...] [--resume [SWEEP_ID]]
        Expand a sweep (a built-in family like ``t_sweep`` /
        ``noise_robustness``, or any scenario given ``--axis`` grids) and
        interleave the full point x seed product across one worker
        fleet; mid-sweep kills (even SIGKILLed workers) resume at both
        the point and the seed level.
    sweep show <sweep_id> [--strict]
        Cross-point table with a best-point row, plus per-axis marginals.
        Failed points render as FAILED; ``--strict`` exits 1 on any.
    sweep compare <sweep_id> [<sweep_id> ...] [--strict]
        Best points of several sweeps side by side.
    sweep pareto <sweep_id> [--axis METRIC[:max|min] ...]
        Non-dominated front over the sweep's complete points (default
        axes: accuracy max, energy min, latency/duration min), with
        per-axis dominance counts.
    sweep list
        Table of every sweep in the store, most recent first.
    serve <checkpoint> [--port P] [--max-batch N] [--max-wait-ms F]
        Micro-batching JSON inference endpoint over a checkpoint stem, a
        directory of checkpoints, or a run id (serves every checkpoint of
        that run).  Routes: POST /predict, GET /healthz, GET /metrics.
        SIGTERM/SIGINT drain the micro-batchers before exiting.
    cluster <checkpoint> --workers N [--port P] [--max-inflight M]
        Supervised multi-process serving tier: a front-end router over N
        self-loading model-worker processes, with heartbeat supervision,
        exponential-backoff restarts, bounded-queue admission control
        (503 + Retry-After), quorum /healthz, aggregated /metrics, and
        POST /admin/swap for rolling hot-swap.
    trace summary <run_id|sweep_id|path>
        Aggregate a run's trace.jsonl: per-span-name totals, merged
        per-kernel timing across worker processes, top-N slowest spans.
    trace show <run_id|sweep_id|path>
        The full span tree of a trace, with events, durations and pids.
    check [paths] [--rule REPNNN] [--json] [--baseline FILE]
        Repo-native static analyzer (``repro.checks``): determinism,
        kernel boundaries, lock discipline, metric naming.  Exit 1 on
        any non-baselined finding.

All table output renders through :mod:`repro.analysis.reporting`, the same
dependency-free formatter the benchmarks use.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import __version__
from .analysis.aggregate import (axis_tables, best_point, mean_metrics,
                                 resolve_objective, sweep_table)
from .analysis.reporting import format_table
from .experiments import Runner, RunStore, get_scenario
from .experiments.scenarios import SCENARIOS
from .experiments.store import final_records

EPILOG = """examples:
  python -m repro run offline_accuracy --tiny --seeds 2
  python -m repro list
  python -m repro show <run_id>
  python -m repro sweep run t_sweep --tiny       # 2x2 CI-sized grid
  python -m repro sweep run noise_robustness     # corruption x dataset
  python -m repro sweep run offline_accuracy --axis epochs=1,2
  python -m repro sweep show <sweep_id>
  python -m repro sweep pareto <sweep_id>        # accuracy/energy/latency front
  python -m repro sweep pareto <sweep_id> --axis test_acc:max --axis duration_s:min
  python -m repro serve <run_id>                 # serve a run's checkpoints
  python -m repro serve ckpt/model --port 8100   # serve one checkpoint stem
  python -m repro cluster ckpt/model --workers 4 # supervised worker pool
  python -m repro trace summary <run_id>         # span + kernel timing
  python -m repro trace show <run_id>            # full span tree
  python -m repro check                          # lint src benchmarks examples
  python -m repro check src --rule REP003 --json # one rule, CI artifact form
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EMSTDP experiment orchestration and serving "
                    f"(scenarios: {', '.join(sorted(SCENARIOS))})",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario over a seed fan-out")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--tiny", action="store_true",
                     help="CI-sized variant of the spec (<30 s)")
    run.add_argument("--seeds", type=int, default=None, metavar="N",
                     help="number of independent seeds (default: the "
                          "spec's own seed list)")
    run.add_argument("--seed-base", type=int, default=0, metavar="B",
                     help="first seed of the fan-out (default 0)")
    run.add_argument("--epochs", type=int, default=None,
                     help="override the spec's training epochs")
    run.add_argument("--workers", type=int, default=None, metavar="W",
                     help="process-pool width (1 = run inline)")
    run.add_argument("--out", default="runs",
                     help="run-store root directory (default: runs/)")
    run.add_argument("--resume", nargs="?", const="latest", default=None,
                     metavar="RUN_ID",
                     help="resume a killed run instead of starting a new "
                          "one (no id = newest unfinished run of this "
                          "scenario); finished seeds are not re-run")

    lst = sub.add_parser("list", help="list all runs in the store")
    lst.add_argument("--out", default="runs")
    lst.add_argument("--experiment", default=None,
                     help="only runs of this scenario")

    show = sub.add_parser("show", help="render one run's results table")
    show.add_argument("run_id", help="run id or unique prefix")
    show.add_argument("--out", default="runs")

    cmp_ = sub.add_parser("compare",
                          help="mean metrics of several runs side by side")
    cmp_.add_argument("run_ids", nargs="+", metavar="run_id")
    cmp_.add_argument("--out", default="runs")

    sweep = sub.add_parser(
        "sweep", help="run and inspect multi-point parameter sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    srun = sweep_sub.add_parser(
        "run", help="expand a sweep and run every point as a child run")
    srun.add_argument("sweep", nargs="?", default=None,
                      help="built-in sweep family (default: t_sweep) or "
                           "any scenario name combined with --axis; with "
                           "--resume it only filters which 'latest' sweep "
                           "to pick")
    srun.add_argument("--tiny", action="store_true",
                      help="CI-sized 2x2 grid variant (<60 s)")
    srun.add_argument("--axis", action="append", default=[],
                      metavar="FIELD=V1,V2",
                      help="add or override one grid axis; FIELD is a spec "
                           "field (phase_length, dataset, epochs, ...) or "
                           "a params.<key> path; repeatable")
    srun.add_argument("--seeds", type=int, default=None, metavar="N",
                      help="seeds per point (default: the base spec's)")
    srun.add_argument("--seed-base", type=int, default=0, metavar="B")
    srun.add_argument("--workers", type=int, default=None, metavar="W",
                      help="worker-fleet width shared by all points' "
                           "seeds (1 = inline; default: "
                           "REPRO_MAX_WORKERS or the CPU count)")
    srun.add_argument("--out", default="runs")
    srun.add_argument("--resume", nargs="?", const="latest", default=None,
                      metavar="SWEEP_ID",
                      help="resume a killed sweep (no id = newest "
                           "unfinished); finished points and finished "
                           "seeds of the interrupted point are skipped")

    sshow = sweep_sub.add_parser(
        "show", help="cross-point table with best-point row + marginals")
    sshow.add_argument("sweep_id", help="sweep id or unique prefix")
    sshow.add_argument("--out", default="runs")
    sshow.add_argument("--strict", action="store_true",
                       help="exit 1 when the sweep has any failed point")

    scmp = sweep_sub.add_parser(
        "compare", help="best points of several sweeps side by side")
    scmp.add_argument("sweep_ids", nargs="+", metavar="sweep_id")
    scmp.add_argument("--out", default="runs")
    scmp.add_argument("--strict", action="store_true",
                      help="exit 1 when any sweep has a failed point")

    spareto = sweep_sub.add_parser(
        "pareto", help="non-dominated accuracy/energy/latency front over "
                       "a sweep's complete points")
    spareto.add_argument("sweep_id", help="sweep id or unique prefix")
    spareto.add_argument("--axis", action="append", default=[],
                         metavar="METRIC[:max|min]", dest="axes",
                         help="objective axis (repeatable; default: the "
                              "accuracy-like objective max, first "
                              "energy-like metric min, first latency-like "
                              "metric or duration_s min)")
    spareto.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full front report as JSON")
    spareto.add_argument("--out", default="runs")

    slst = sweep_sub.add_parser("list", help="list all sweeps in the store")
    slst.add_argument("--out", default="runs")

    serve = sub.add_parser(
        "serve", help="micro-batching JSON inference endpoint over "
                      "checkpointed models")
    serve.add_argument("checkpoint",
                       help="checkpoint stem, directory of checkpoints, or "
                            "run id (serves every checkpoint of the run)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="listen port (0 = ephemeral; default 8100)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="most requests one micro-batch takes (default 32)")
    serve.add_argument("--max-wait-ms", type=float, default=5.0, metavar="F",
                       help="bound on holding a request back to fill a batch; "
                            "always met, none is held (default 5 ms)")
    serve.add_argument("--cache-size", type=int, default=1024, metavar="N",
                       help="LRU prediction-cache capacity (0 disables)")
    serve.add_argument("--workers", type=int, default=1, metavar="W",
                       help="batch-execution worker threads (default 1)")
    serve.add_argument("--out", default="runs",
                       help="run-store root used to resolve run ids")

    cluster = sub.add_parser(
        "cluster", help="supervised multi-process serving tier (front-end "
                        "router + N model-worker processes)")
    cluster.add_argument("checkpoint",
                         help="checkpoint stem, directory of checkpoints, "
                              "or run id — every worker self-loads it")
    cluster.add_argument("--workers", type=int, default=None, metavar="N",
                         help="model-worker processes (default: "
                              "REPRO_MAX_WORKERS, or up to 2)")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=8100,
                         help="front-end listen port (0 = ephemeral; "
                              "default 8100)")
    cluster.add_argument("--max-batch", type=int, default=16, metavar="N",
                         help="most requests one per-worker micro-batch "
                              "takes (default 16)")
    cluster.add_argument("--max-wait-ms", type=float, default=5.0,
                         metavar="F",
                         help="bound on holding a request back to fill a "
                              "batch; always met, none is held (default 5 ms)")
    cluster.add_argument("--cache-size", type=int, default=1024, metavar="N",
                         help="per-worker LRU prediction-cache capacity")
    cluster.add_argument("--max-inflight", type=int, default=32, metavar="M",
                         help="admission control: in-flight requests one "
                              "worker may hold before the front end "
                              "answers 503 (default 32)")
    cluster.add_argument("--quorum", type=int, default=None, metavar="Q",
                         help="live workers needed for /healthz to report "
                              "ok (default: majority)")
    cluster.add_argument("--heartbeat-timeout-s", type=float, default=5.0,
                         metavar="T",
                         help="heartbeat silence that marks a worker "
                              "wedged (default 5 s)")
    cluster.add_argument("--backoff-base-s", type=float, default=0.5,
                         metavar="B",
                         help="restart backoff base; doubles per "
                              "consecutive failure (default 0.5 s)")
    cluster.add_argument("--out", default="runs",
                         help="run-store root used to resolve run ids")

    check = sub.add_parser(
        "check", help="repo-native static analyzer (determinism, locks, "
                      "kernel boundary, metric naming)")
    check.add_argument("paths", nargs="*", metavar="path",
                       help="files or directories to analyze (default: "
                            "src benchmarks examples under the repo root)")
    check.add_argument("--rule", action="append", default=[],
                       metavar="REPNNN", dest="rules",
                       help="run only this rule (repeatable; also the "
                            "only way to run hidden advisory rules like "
                            "REP000)")
    check.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the full result as one JSON document "
                            "(the CI artifact format)")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline file of grandfathered findings "
                            "(default: .repro-checks-baseline.json at "
                            "the repo root)")
    check.add_argument("--write-baseline", action="store_true",
                       help="re-write the baseline from the current "
                            "findings instead of failing on them")
    check.add_argument("--verbose", action="store_true",
                       help="also list baselined findings in the report")
    check.add_argument("--list-rules", action="store_true",
                       help="describe every registered rule and exit")

    trace = sub.add_parser(
        "trace", help="inspect a run's trace.jsonl (spans, kernels)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tsum = trace_sub.add_parser(
        "summary", help="per-span aggregates + merged kernel timing + "
                        "top-N slowest spans")
    tsum.add_argument("target",
                      help="run id, sweep id, run directory, or trace file")
    tsum.add_argument("--top", type=int, default=10, metavar="N",
                      help="slowest individual spans to list (default 10)")
    tsum.add_argument("--out", default="runs")
    tshow = trace_sub.add_parser(
        "show", help="render the full span tree with events")
    tshow.add_argument("target",
                       help="run id, sweep id, run directory, or trace file")
    tshow.add_argument("--out", default="runs")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    scenario = get_scenario(args.scenario)
    spec = scenario.build_spec(tiny=args.tiny)
    if args.resume is not None:
        if args.resume != "latest":
            run = RunStore(args.out).find(args.resume)
            if run.experiment != args.scenario:
                print(f"error: run {run.run_id} is a {run.experiment} run, "
                      f"not {args.scenario}", file=sys.stderr)
                return 2
        if args.tiny or args.seeds is not None or args.epochs is not None \
                or args.seed_base:
            print("note: --resume takes the spec from the run's manifest; "
                  "--tiny/--seeds/--seed-base/--epochs are ignored",
                  file=sys.stderr)
    if args.seeds is not None or args.seed_base:
        n_seeds = args.seeds if args.seeds is not None else len(spec.seeds)
        spec = spec.replace(
            seeds=tuple(range(args.seed_base, args.seed_base + n_seeds)))
    if args.epochs is not None:
        spec = spec.replace(epochs=args.epochs)
    runner = Runner(out_root=args.out, max_workers=args.workers)
    result = runner.run(spec, resume=args.resume, progress=print)
    print()
    print(result.summary())
    print(f"\nrun directory: {result.run_dir}")
    return 0 if result.status == "complete" else 1


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def _cmd_list(args) -> int:
    store = RunStore(args.out)
    runs = store.list_runs(args.experiment)
    if not runs:
        print(f"no runs under {store.root}/ "
              f"(start one with: python -m repro run <scenario>)")
        return 0
    # Run ids start with a YYYYmmdd-HHMMSS stamp, so lexicographic order is
    # chronological; sorted() is stable, so same-second runs keep the
    # store's (experiment, directory) order.
    runs = sorted(runs, key=lambda run: run.run_id, reverse=True)
    rows = []
    for run in runs:
        total = len(run.manifest.get("seeds", []))
        done = len(store.done_seeds(run))
        rows.append([run.experiment, run.run_id, run.status,
                     f"{done}/{total}",
                     run.manifest.get("repro_version", "?")])
    print(format_table(
        ["experiment", "run_id", "status", "seeds", "version"], rows))
    return 0


# ---------------------------------------------------------------------------
# show
# ---------------------------------------------------------------------------

def _cmd_show(args) -> int:
    store = RunStore(args.out)
    run = store.find(args.run_id)
    # records.jsonl is append-only: a seed retried on --resume has one
    # line per attempt, and only the line final_records picks counts.
    finals = final_records(run.path)
    records = sorted((r for r in finals.values() if r.get("status") == "ok"),
                     key=lambda r: r["seed"])
    scenario = get_scenario(run.experiment)
    headers, rows = scenario.summarize(records)
    print(format_table(headers, rows,
                       title=f"{run.experiment} · run {run.run_id} "
                             f"[{run.status}] · repro "
                             f"{run.manifest.get('repro_version', '?')}"))
    means = mean_metrics(records)
    if means:
        print()
        print(format_table(["metric", "mean"],
                           [[k, v] for k, v in sorted(means.items())],
                           title=f"means over {len(records)} seed(s)"))
    errors = [r for r in finals.values() if r.get("status") != "ok"]
    if errors:
        print(f"\n{len(errors)} seed(s) failed: "
              f"{sorted(r['seed'] for r in errors)} "
              f"(resume with: python -m repro run {run.experiment} "
              f"--resume {run.run_id})")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args) -> int:
    store = RunStore(args.out)
    runs = [store.find(rid) for rid in args.run_ids]
    means = []
    for run in runs:
        ok = [r for r in final_records(run.path).values()
              if r.get("status") == "ok"]
        means.append(mean_metrics(ok))
    columns = sorted(set().union(*means)) if means else []
    rows = []
    for run, m in zip(runs, means):
        rows.append([f"{run.experiment}/{run.run_id}"] +
                    [m.get(c, "") for c in columns])
    print(format_table(["run"] + columns, rows,
                       title="mean metrics per run"))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    if args.sweep_command == "run":
        return _cmd_sweep_run(args)
    if args.sweep_command == "show":
        return _cmd_sweep_show(args)
    if args.sweep_command == "compare":
        return _cmd_sweep_compare(args)
    if args.sweep_command == "pareto":
        return _cmd_sweep_pareto(args)
    if args.sweep_command == "list":
        return _cmd_sweep_list(args)
    raise AssertionError(f"unhandled sweep command {args.sweep_command!r}")


def _parse_axis_value(text: str) -> object:
    """One ``--axis`` value: JSON if it parses, bare string if not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _split_axis_values(text: str) -> List[str]:
    """Split on top-level commas only, so JSON list values survive
    (``hidden=[16,8],[32,16]`` is two values, not four fragments)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _parse_axes(axis_args: List[str]):
    from .sweeps import SweepAxis, coerce_axis_value

    axes = []
    for arg in axis_args:
        field, _, values = arg.partition("=")
        if not field or not values:
            raise ValueError(
                f"--axis wants FIELD=V1,V2,..., got {arg!r}")
        # Coerce each value to the spec field's declared type right here,
        # so `--axis phase_length=16,32` never reaches a spec as strings
        # and a typoed field name fails before any point runs.
        axes.append(SweepAxis(field, tuple(
            coerce_axis_value(field, _parse_axis_value(v))
            for v in _split_axis_values(values))))
    return axes


def _build_sweep_spec(args):
    """Resolve the ``sweep run`` target: built-in family or ad hoc axes."""
    from .sweeps import SWEEPS, SweepSpec, get_sweep

    name = args.sweep if args.sweep is not None else "t_sweep"
    extra = _parse_axes(args.axis)
    if name in SWEEPS:
        spec = get_sweep(name).build_sweep(tiny=args.tiny)
        if extra:
            overridden = {a.field for a in extra}
            spec = spec.replace(grid=tuple(
                a for a in spec.grid
                if a.field not in overridden) + tuple(extra))
    elif name in SCENARIOS:
        if not extra:
            raise ValueError(
                f"{name!r} is a scenario, not a sweep family; give "
                "it at least one --axis FIELD=V1,V2 to sweep over "
                f"(built-in sweeps: {sorted(SWEEPS)})")
        base = get_scenario(name).build_spec(tiny=args.tiny)
        spec = SweepSpec(name=name, base=base, grid=tuple(extra))
    else:
        raise KeyError(
            f"unknown sweep or scenario {name!r}; sweeps: "
            f"{sorted(SWEEPS)}, scenarios: {sorted(SCENARIOS)}")
    if args.seeds is not None or args.seed_base:
        n_seeds = (args.seeds if args.seeds is not None
                   else len(spec.base.seeds))
        spec = spec.replace(base=spec.base.replace(seeds=tuple(
            range(args.seed_base, args.seed_base + n_seeds))))
    return spec


def _cmd_sweep_run(args) -> int:
    from .sweeps import SweepRunner

    runner = SweepRunner(out_root=args.out, max_workers=args.workers)
    if args.resume is not None:
        # The spec comes from sweep.json; a positional name (if any) only
        # narrows which "latest" sweep gets picked.
        if args.tiny or args.axis or args.seeds is not None \
                or args.seed_base:
            print("note: --resume takes the sweep spec from sweep.json; "
                  "--tiny/--axis/--seeds/--seed-base are ignored",
                  file=sys.stderr)
        resume = args.resume
        if resume == "latest" and args.sweep is not None:
            resume = runner.store.latest(
                args.sweep, unfinished_only=True).sweep_id
        result = runner.run(resume=resume, progress=print)
    else:
        try:
            spec = _build_sweep_spec(args)
            # Expand eagerly: a bad axis field or value surfaces here as
            # a clean error instead of a traceback mid-run.
            n_points = len(spec.expand())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"sweep {spec.name}: {n_points} point(s) x "
              f"{len(spec.base.seeds)} seed(s)")
        result = runner.run(spec, progress=print)
    print()
    print(_render_sweep(runner.store, runner.store.find(result.sweep_id)))
    print(f"\nsweep directory: {result.sweep_dir}")
    return 0 if result.status == "complete" else 1


def _render_sweep(store, sweep) -> str:
    """The cross-point table (with best row) plus per-axis marginals."""
    spec = sweep.spec()
    summaries = store.summaries(sweep)
    headers, rows = sweep_table(sweep.points(), summaries,
                                spec.axis_fields(), spec.objective,
                                spec.mode)
    parts = [format_table(
        headers, rows,
        title=f"sweep {spec.name} · {sweep.sweep_id} [{sweep.status}] · "
              f"scenario {spec.base.name}")]
    for field, (ax_headers, ax_rows) in axis_tables(
            spec.axis_fields(), list(summaries.values()),
            spec.objective, spec.mode).items():
        parts.append("")
        parts.append(format_table(ax_headers, ax_rows,
                                  title=f"marginal over {field}"))
    return "\n".join(parts)


def _failed_points(sweep) -> List[str]:
    return [p["point_id"] for p in sweep.points()
            if p.get("status") == "failed"]


def _cmd_sweep_show(args) -> int:
    from .sweeps import SweepStore

    store = SweepStore(args.out)
    sweep = store.find(args.sweep_id)
    print(_render_sweep(store, sweep))
    pending = [p["point_id"] for p in sweep.points()
               if p.get("status") != "complete"]
    if sweep.status != "complete" and pending:
        print(f"\n{len(pending)} point(s) unfinished: {pending} "
              f"(resume with: python -m repro sweep run --resume "
              f"{sweep.sweep_id})")
    failed = _failed_points(sweep)
    if failed:
        print(f"\n{len(failed)} point(s) FAILED: {failed} "
              "(excluded from best-point/marginals/pareto)")
        if args.strict:
            return 1
    return 0


def _cmd_sweep_compare(args) -> int:
    from .sweeps import SweepStore

    store = SweepStore(args.out)
    rows = []
    any_failed = False
    for sweep_id in args.sweep_ids:
        sweep = store.find(sweep_id)
        any_failed = any_failed or bool(_failed_points(sweep))
        spec = sweep.spec()
        summaries = list(store.summaries(sweep).values())
        done = sum(1 for s in summaries if s.get("status") == "complete")
        objective = resolve_objective(summaries, spec.objective)
        best = best_point(summaries, objective, spec.mode)
        rows.append([
            spec.name, sweep.sweep_id, sweep.status,
            f"{done}/{len(sweep.points())}", objective,
            best["point_id"] if best else "-",
            best["metrics"][objective] if best else "",
            best["overrides"] if best else "",
        ])
    print(format_table(
        ["sweep", "sweep_id", "status", "points", "objective",
         "best point", "best value", "best overrides"], rows,
        title="sweeps side by side"))
    return 1 if (args.strict and any_failed) else 0


def _cmd_sweep_pareto(args) -> int:
    from .analysis.pareto import ParetoAxis, pareto_front, pareto_table
    from .sweeps import SweepStore

    store = SweepStore(args.out)
    sweep = store.find(args.sweep_id)
    summaries = list(store.summaries(sweep).values())
    axes = [ParetoAxis.parse(a) for a in args.axes] or None
    result = pareto_front(summaries, axes)
    if not result["points"]:
        print(f"error: sweep {sweep.sweep_id} has no complete points "
              "with the requested metrics "
              f"(axes: {[a['metric'] for a in result['axes']] or args.axes})",
              file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    axis_desc = ", ".join(f"{a['metric']}:{a['mode']}"
                          for a in result["axes"])
    headers, rows = pareto_table(result)
    print(format_table(
        headers, rows,
        title=f"pareto front · sweep {sweep.sweep_id} [{sweep.status}] · "
              f"{len(result['front'])}/{len(result['points'])} point(s) "
              f"on front · axes: {axis_desc}"))
    if result["skipped"]:
        skipped = [f"{s['point_id']} ({s['reason']})"
                   for s in result["skipped"]]
        print(f"\n{len(skipped)} point(s) excluded: {', '.join(skipped)}")
    return 0


def _cmd_sweep_list(args) -> int:
    from .sweeps import SweepStore

    store = SweepStore(args.out)
    sweeps = store.list_sweeps()
    if not sweeps:
        print(f"no sweeps under {store.root}/ "
              f"(start one with: python -m repro sweep run t_sweep --tiny)")
        return 0
    rows = []
    for sweep in sorted(sweeps, key=lambda s: s.sweep_id, reverse=True):
        points = sweep.points()
        done = sum(1 for p in points if p.get("status") == "complete")
        rows.append([sweep.name, sweep.sweep_id, sweep.status,
                     f"{done}/{len(points)}",
                     sweep.manifest.get("repro_version", "?")])
    print(format_table(
        ["sweep", "sweep_id", "status", "points", "version"], rows))
    return 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _cmd_serve(args) -> int:
    from .persist import CheckpointError
    from .serve import InferenceHTTPServer, InferenceService, ModelRegistry

    registry = ModelRegistry()
    try:  # before any load: a bad batching flag costs no checkpoint read
        service = InferenceService(
            registry, max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            cache_size=args.cache_size, workers=args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        entries = registry.load_source(args.checkpoint, store_root=args.out)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = InferenceHTTPServer(service, host=args.host, port=args.port)
    print(format_table(
        ["name", "class", "dims", "energy (mJ/req)"],
        [[e.name, e.model_class, "x".join(map(str, e.dims)),
          round(e.energy_mj_per_request, 3)] for e in entries],
        title=f"serving {len(entries)} model(s) at {server.url}"))
    default = registry.resolve()
    print(f"\ndefault model: {default.name} ({default.version})")
    print(f"  curl -X POST {server.url}/predict "
          "-d '{\"input\": [...], \"model\": \"<name>\"}'")
    print(f"  curl {server.url}/healthz\n  curl {server.url}/metrics")
    print("Ctrl-C (or SIGTERM) drains and stops")
    drained = False
    signum = None
    try:
        signum = server.serve_until_signal()
    finally:
        # Drain before exiting: in-flight micro-batches finish, and the
        # operator learns whether the drain completed (exit 0) or timed
        # out with requests still queued (exit 1).
        drained = service.shutdown(timeout=30.0)
        snap = service.metrics()
        print(f"\nreceived {_signal_name(signum)}: drained={drained}")
        print(f"served {snap['requests']} request(s), "
              f"cache hit rate {snap['cache']['hit_rate']:.2f}")
        if not drained:
            print("warning: shutdown timed out with requests still in "
                  "flight", file=sys.stderr)
    return 1 if not drained else 0


def _signal_name(signum) -> str:
    import signal as _signal
    try:
        return _signal.Signals(signum).name
    except (ValueError, TypeError):
        return str(signum)


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _cmd_cluster(args) -> int:
    from .cluster import ClusterError, ClusterService, Supervisor, WorkerSpec
    from .exec import default_workers
    from .serve import InferenceHTTPServer

    if args.workers is None:
        args.workers = default_workers(cap=2)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    spec = WorkerSpec(
        source=args.checkpoint, store_root=args.out,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        cache_size=args.cache_size)
    supervisor = Supervisor(
        spec, n_workers=args.workers, quorum=args.quorum,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
        backoff_base_s=args.backoff_base_s)
    print(f"starting {args.workers} worker(s) on {args.checkpoint} ...")
    try:
        supervisor.start(wait=True)
    except ClusterError as exc:
        # Workers self-load; a bad checkpoint surfaces here as the first
        # worker's fatal error rather than as a parent-side double load.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = ClusterService(supervisor,
                             max_inflight_per_worker=args.max_inflight)
    server = InferenceHTTPServer(service, host=args.host, port=args.port)
    print(format_table(
        ["slot", "pid", "state"],
        [[w["slot"], w["pid"], w["state"]] for w in supervisor.describe()],
        title=f"cluster of {args.workers} worker(s) at {server.url} "
              f"(quorum {supervisor.quorum})"))
    print(f"\n  curl -X POST {server.url}/predict -d '{{\"input\": [...]}}'")
    print(f"  curl {server.url}/healthz\n  curl {server.url}/metrics")
    print(f"  curl -X POST {server.url}/admin/swap "
          "-d '{\"source\": \"<checkpoint>\"}'   # rolling hot-swap")
    print("Ctrl-C (or SIGTERM) drains every worker and stops")
    drained = False
    signum = None
    try:
        signum = server.serve_until_signal()
    finally:
        drained = service.shutdown(timeout=30.0)
        print(f"\nreceived {_signal_name(signum)}: drained={drained}")
        # Final metrics snapshot: front-end state only (the workers are
        # draining or gone), printed instead of discarded so the last
        # scrape's story survives the processes.
        final = service.final_snapshot()
        print(format_table(
            ["metric", "value"],
            [[k, v] for k, v in final.items()],
            title="final cluster snapshot"))
        if not drained:
            print("warning: drain timed out with requests still in flight",
                  file=sys.stderr)
    return 1 if not drained else 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    from pathlib import Path

    from . import checks

    if args.list_rules:
        print(format_table(
            ["rule", "severity", "default", "title"],
            [[r.id, r.severity, "no (hidden)" if r.hidden else "yes",
              r.title] for r in checks.all_rules()],
            title="repro.checks rules "
                  "(suppress one line with '# repro: ignore[RULE]')"))
        return 0
    root = checks.find_repo_root(Path.cwd())
    paths = args.paths or [p for p in ("src", "benchmarks", "examples")
                           if (root / p).is_dir()]
    try:
        rules = checks.get_rules(args.rules or None)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline_path = (Path(args.baseline) if args.baseline
                     else root / checks.BASELINE_NAME)
    try:
        entries = ([] if args.write_baseline
                   else checks.load_baseline(baseline_path))
        result = checks.run_checks(paths, rules=rules, baseline=entries,
                                   root=root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        checks.save_baseline(baseline_path, result.findings)
        print(f"baseline: {len(result.findings)} finding(s) written to "
              f"{baseline_path}")
        return 0
    if args.as_json:
        print(checks.render_json(result))
    else:
        print(checks.render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def _cmd_trace(args) -> int:
    if args.trace_command == "summary":
        return _cmd_trace_summary(args)
    if args.trace_command == "show":
        return _cmd_trace_show(args)
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _resolve_trace_path(target: str, out: str):
    """A trace file from a path, run directory, run id, or sweep id."""
    from pathlib import Path

    from .obs import TRACE_FILE_NAME

    path = Path(target)
    if path.is_file():
        return path
    if path.is_dir():
        return path / TRACE_FILE_NAME
    try:
        return RunStore(out).find(target).path / TRACE_FILE_NAME
    except KeyError:
        pass
    from .sweeps import SweepStore
    try:
        return SweepStore(out).find(target).path / TRACE_FILE_NAME
    except KeyError:
        pass
    raise KeyError(
        f"{target!r} is not a trace file, a run directory, a run id, or "
        f"a sweep id (store root: {out}/)")


def _load_trace(args):
    from . import obs

    path = _resolve_trace_path(args.target, args.out)
    records = obs.read_trace(path)
    if not records:
        print(f"error: no trace records in {path} "
              "(was the run executed with REPRO_OBS_TRACE=0?)",
              file=sys.stderr)
        return path, None
    return path, records


def _span_label(span: dict) -> str:
    attrs = span.get("attrs", {})
    keys = ("experiment", "run_id", "seed", "backend", "epoch", "dataset",
            "point_id", "worker", "status")
    detail = " ".join(f"{k}={attrs[k]}" for k in keys if k in attrs)
    return f"{span['name']}{' [' + detail + ']' if detail else ''}"


def _cmd_trace_show(args) -> int:
    from . import obs

    path, records = _load_trace(args)
    if records is None:
        return 2
    roots, children = obs.build_span_forest(records)
    events_by_parent: dict = {}
    for rec in records:
        if rec.get("kind") == "event":
            events_by_parent.setdefault(rec.get("parent_id"),
                                        []).append(rec)
    print(f"trace {path} · {len(records)} record(s)")

    def render(span: dict, depth: int) -> None:
        pad = "  " * depth
        status = "" if span.get("status") == "ok" else " !ERROR"
        print(f"{pad}{_span_label(span)}  {span.get('dur_ms', 0):.1f}ms "
              f"pid={span.get('pid')}{status}")
        for ev in sorted(events_by_parent.get(span["span_id"], []),
                         key=lambda e: e.get("ts", 0.0)):
            print(f"{pad}  * {ev['name']} {ev.get('attrs', {})}")
        for child in children.get(span["span_id"], []):
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    kernels = obs.summarize_kernels(records)
    if kernels:
        print()
        print(format_table(
            ["kernel", "calls", "timed", "mean_us", "est_total_ms"],
            [[k["name"], k["calls"], k["timed"], k["mean_us"],
              k["est_total_ms"]] for k in kernels],
            title="kernel timing (sampled, merged across processes)"))
    return 0


def _cmd_trace_summary(args) -> int:
    from . import obs

    path, records = _load_trace(args)
    if records is None:
        return 2
    spans = obs.summarize_spans(records)
    pids = sorted({r.get("pid") for r in records if r.get("pid")})
    print(f"trace {path} · {len(records)} record(s) · "
          f"{len(pids)} process(es): {pids}")
    if spans:
        print()
        print(format_table(
            ["span", "count", "errors", "total_ms", "mean_ms", "max_ms",
             "queue_ms"],
            [[s["name"], s["count"], s["errors"], s["total_ms"],
              s["mean_ms"], s["max_ms"],
              "-" if s.get("queue_wait_ms") is None
              else s["queue_wait_ms"]] for s in spans],
            title="per-span aggregates (queue_ms = mean enqueue->claim "
                  "wait)"))
    kernels = obs.summarize_kernels(records)
    if kernels:
        print()
        print(format_table(
            ["kernel", "calls", "timed", "mean_us", "est_total_ms"],
            [[k["name"], k["calls"], k["timed"], k["mean_us"],
              k["est_total_ms"]] for k in kernels],
            title="kernel timing (sampled, merged across processes)"))
    slowest = obs.slowest_spans(records, top=args.top)
    if slowest:
        print()
        print(format_table(
            ["span", "dur_ms", "pid", "status"],
            [[_span_label(s), s.get("dur_ms", 0), s.get("pid"),
              s.get("status")] for s in slowest],
            title=f"top {len(slowest)} slowest spans"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
