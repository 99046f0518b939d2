"""Pareto-front extraction over sweep point summaries.

The paper's headline artifacts are accuracy / energy / latency
*frontiers*, not single best points: a point belongs in a figure when no
other point is at least as good on every axis and strictly better on
one.  :func:`pareto_front` computes exactly that non-dominated front
over a sweep's ``summary.jsonl`` lines, with per-axis dominance counts
so the table explains *why* a point is on or off the front.

Axes are ``(metric, mode)`` pairs (:class:`ParetoAxis`); metrics are
flat keys into a summary's ``metrics`` dict, plus the pseudo-metric
``duration_s`` which reads the summary's top-level wall-clock field
(the latency fallback when no scenario metric names one).  Failed or
still-running points never enter the computation.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from .aggregate import resolve_objective

#: Summary top-level fields usable as pseudo-metrics.
_TOP_LEVEL_METRICS = ("duration_s",)


@dataclasses.dataclass(frozen=True)
class ParetoAxis:
    """One objective axis: a metric key and its optimization direction."""

    metric: str
    mode: str = "max"  # "max" (higher is better) or "min"

    def __post_init__(self):
        if self.mode not in ("max", "min"):
            raise ValueError(f"axis mode must be 'max' or 'min', "
                             f"got {self.mode!r}")

    @classmethod
    def parse(cls, text: str) -> "ParetoAxis":
        """``"metric"`` / ``"metric:min"`` / ``"metric:max"``."""
        metric, sep, mode = text.rpartition(":")
        if not sep or mode not in ("max", "min"):
            return cls(metric=text.strip(), mode="max")
        return cls(metric=metric.strip(), mode=mode)


def axis_value(summary: dict, metric: str) -> Optional[float]:
    """The axis value of one point summary, or ``None`` when absent."""
    value = summary.get("metrics", {}).get(metric)
    if value is None and metric in _TOP_LEVEL_METRICS:
        value = summary.get(metric)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def resolve_axes(summaries: Sequence[dict],
                 axes: Optional[Sequence[ParetoAxis]] = None,
                 ) -> List[ParetoAxis]:
    """Concrete axes for a set of summaries.

    Explicit ``axes`` pass through.  The default mirrors the paper's
    frontier: the accuracy-like objective (maximized), the first
    energy-like metric (minimized), and the first latency-like metric —
    falling back to the per-point wall clock ``duration_s`` — minimized.
    Axes whose metric no point carries are dropped.
    """
    if axes:
        resolved = list(axes)
    else:
        keys = set()
        for summary in summaries:
            keys.update(summary.get("metrics", {}))
        resolved = []
        accuracy = resolve_objective(summaries)
        if accuracy:
            resolved.append(ParetoAxis(accuracy, "max"))
        energy = [k for k in sorted(keys) if "energy" in k.lower()]
        if energy:
            resolved.append(ParetoAxis(energy[0], "min"))
        latency = [k for k in sorted(keys) if "latency" in k.lower()]
        if latency:
            resolved.append(ParetoAxis(latency[0], "min"))
        else:
            resolved.append(ParetoAxis("duration_s", "min"))
    return [ax for ax in resolved
            if any(axis_value(s, ax.metric) is not None
                   for s in summaries)]


def _oriented(value: float, mode: str) -> float:
    """Map a value so that *larger is always better*."""
    return value if mode == "max" else -value


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether oriented vector ``a`` Pareto-dominates ``b``."""
    return all(x >= y for x, y in zip(a, b)) \
        and any(x > y for x, y in zip(a, b))


def pareto_front(summaries: Sequence[dict],
                 axes: Optional[Sequence[ParetoAxis]] = None) -> dict:
    """The non-dominated front over complete point summaries.

    Returns a plain-dict report::

        {
          "axes": [{"metric", "mode"}, ...],
          "points": [{"point_id", "run_id", "overrides", "values",
                      "dominates", "dominated_by", "per_axis_beats",
                      "on_front"}, ...],   # complete points, input order
          "front": [point_id, ...],        # non-dominated, input order
          "skipped": [{"point_id", "reason"}, ...],
        }

    ``dominates`` / ``dominated_by`` count full Pareto dominance;
    ``per_axis_beats`` counts, per axis, how many other scored points
    this one strictly beats — the per-axis view that explains a point's
    position without re-reading raw values.
    """
    axes = resolve_axes(summaries, axes)
    skipped: List[dict] = []
    scored: List[Tuple[dict, List[float]]] = []
    for summary in summaries:
        pid = summary.get("point_id", "?")
        if summary.get("status") != "complete":
            skipped.append({"point_id": pid,
                            "reason": summary.get("status", "unknown")})
            continue
        values = [axis_value(summary, ax.metric) for ax in axes]
        if not axes or any(v is None for v in values):
            skipped.append({"point_id": pid, "reason": "missing_metric"})
            continue
        scored.append((summary, values))

    oriented = [[_oriented(v, ax.mode) for v, ax in zip(values, axes)]
                for _, values in scored]
    points: List[dict] = []
    front: List[str] = []
    for i, (summary, values) in enumerate(scored):
        dominates = sum(1 for j in range(len(scored))
                        if j != i and _dominates(oriented[i], oriented[j]))
        dominated_by = sum(
            1 for j in range(len(scored))
            if j != i and _dominates(oriented[j], oriented[i]))
        per_axis = {
            ax.metric: sum(1 for j in range(len(scored))
                           if j != i and oriented[i][k] > oriented[j][k])
            for k, ax in enumerate(axes)
        }
        on_front = dominated_by == 0
        pid = summary.get("point_id", "?")
        points.append({
            "point_id": pid,
            "run_id": summary.get("run_id"),
            "overrides": summary.get("overrides", {}),
            "values": {ax.metric: v for ax, v in zip(axes, values)},
            "dominates": dominates,
            "dominated_by": dominated_by,
            "per_axis_beats": per_axis,
            "on_front": on_front,
        })
        if on_front:
            front.append(pid)
    return {
        "axes": [{"metric": ax.metric, "mode": ax.mode} for ax in axes],
        "points": points,
        "front": front,
        "skipped": skipped,
    }


def pareto_table(result: dict) -> Tuple[List[str], List[List[object]]]:
    """Render a :func:`pareto_front` report as (headers, rows).

    Front members first (best first axis leading), then the dominated
    points in the same order.
    """
    axes = result["axes"]
    headers = (["point", "front"]
               + [f"{ax['metric']} ({ax['mode']})" for ax in axes]
               + ["dominates", "dominated_by"])

    def sort_key(point):
        if not axes:
            return (not point["on_front"],)
        first = axes[0]
        value = point["values"][first["metric"]]
        return (not point["on_front"],
                -value if first["mode"] == "max" else value)

    rows = []
    for point in sorted(result["points"], key=sort_key):
        rows.append([point["point_id"],
                     "*" if point["on_front"] else ""]
                    + [point["values"][ax["metric"]] for ax in axes]
                    + [point["dominates"], point["dominated_by"]])
    return headers, rows
