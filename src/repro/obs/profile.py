"""Sampled per-kernel call timing with a near-zero fast path.

The compiled kernels in :mod:`repro.core.kernels` run millions of times
per training run at microsecond scale; timing every call with two
``perf_counter`` reads would cost a measurable fraction of the work
itself.  :class:`KernelProfiler` therefore *counts* every call with a
plain dict upsert and *times* only every ``sample``-th one, so the
steady-state cost of the wrapper is one attribute read, one dict upsert,
and one modulo — priced by ``benchmarks/bench_obs_overhead.py`` against a
< 3% gate.

``REPRO_OBS_KERNEL_SAMPLE`` picks the sampling stride (default 64);
``0`` disables the probes entirely (the wrapper collapses to a single
``if`` plus the real call).  The first call of each kernel is never the
sampled one — it pays one-time costs (lazy symbol binding, first-touch
page faults) that would skew ``est_total_ms``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional


class _KernelStat:
    __slots__ = ("calls", "timed", "sampled_s")

    def __init__(self):
        self.calls = 0
        self.timed = 0
        self.sampled_s = 0.0


class KernelProfiler:
    """Wraps hot functions; counts all calls, times one in ``sample``."""

    def __init__(self, sample: int = 64):
        self.sample = max(0, int(sample))
        self._stats: Dict[str, _KernelStat] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped with the sampling probe.

        The wrapper closes over the stat record and the profiler so the
        hot path never does a registry lookup; ``self.sample`` is read
        per call, which keeps runtime toggling (tests, the overhead
        bench) effective on already-wrapped kernels.
        """
        stat = self._stats.setdefault(name, _KernelStat())
        profiler = self

        def wrapped(*args, **kwargs):
            sample = profiler.sample
            if not sample:
                return fn(*args, **kwargs)
            stat.calls += 1
            if stat.calls % sample:  # call 1 never sampled: warm-up
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            stat.sampled_s += time.perf_counter() - t0
            stat.timed += 1
            return out

        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = fn.__doc__
        wrapped.__wrapped__ = fn
        return wrapped

    def reset(self) -> None:
        for stat in self._stats.values():
            stat.calls = 0
            stat.timed = 0
            stat.sampled_s = 0.0

    def snapshot(self) -> Dict[str, dict]:
        """Current per-kernel totals (kernels with zero calls omitted)."""
        out: Dict[str, dict] = {}
        for name, stat in self._stats.items():
            if not stat.calls:
                continue
            sampled_ms = stat.sampled_s * 1e3
            mean_us = (sampled_ms / stat.timed * 1e3) if stat.timed else 0.0
            out[name] = {
                "calls": stat.calls,
                "timed": stat.timed,
                "sampled_ms": round(sampled_ms, 3),
                "mean_us": round(mean_us, 2),
                "est_total_ms": round(mean_us * stat.calls / 1e3, 3),
            }
        return out

    def delta(self, baseline: Optional[Dict[str, dict]]) -> Dict[str, dict]:
        """Snapshot minus ``baseline`` — what one traced unit of work did.

        Seed workers record only their own kernel activity this way even
        when they run inline in a process whose counters already carry
        history from earlier seeds.
        """
        current = self.snapshot()
        if not baseline:
            return current
        out: Dict[str, dict] = {}
        for name, stats in current.items():
            base = baseline.get(name)
            calls = stats["calls"] - (base["calls"] if base else 0)
            timed = stats["timed"] - (base["timed"] if base else 0)
            sampled_ms = stats["sampled_ms"] - (base["sampled_ms"]
                                                if base else 0.0)
            if calls <= 0:
                continue
            mean_us = (sampled_ms / timed * 1e3) if timed > 0 else 0.0
            out[name] = {
                "calls": calls,
                "timed": max(0, timed),
                "sampled_ms": round(max(0.0, sampled_ms), 3),
                "mean_us": round(max(0.0, mean_us), 2),
                "est_total_ms": round(max(0.0, mean_us) * calls / 1e3, 3),
            }
        return out
