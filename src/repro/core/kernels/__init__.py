"""Backend-selected compiled kernels for the per-timestep inner loops.

Every number in ``BENCH_*.json`` bottoms out in the same hot loops: the
IF membrane update (:mod:`repro.core.neuron` and the chip compartments in
:mod:`repro.loihi.compartment`), trace decay/accumulation
(:mod:`repro.loihi.traces`), the EMSTDP ``dW`` accumulation (Eq. 7 /
Eq. 12 in :mod:`repro.core.learning`), the microcode sum-of-products
(:mod:`repro.loihi.microcode`) and, fused over whole phases, the chip
runtime's timestep loop (:func:`network_run`).  This package routes them
through one of two interchangeable backends:

``cext``
    The loops as C, compiled once with the system compiler and loaded via
    ctypes (no third-party dependency beyond a C compiler).  Also provides
    :func:`network_run`, which advances a flattened chip network ``T``
    steps in one call.
``numpy``
    The pure-NumPy reference implementation — always available.  It has
    no fused :func:`network_run`: the chip runtime steps such networks one
    timestep at a time, which is the reference the fused loop is pinned
    to.

Selection happens once at import: the first available backend in the order
above wins, with a single ``RuntimeWarning`` if only NumPy is left.  The
``REPRO_KERNEL_BACKEND`` environment variable overrides autodetection
(values: ``cext``, ``numpy``); an unknown value raises ``ValueError``, a
known-but-unavailable one raises ``ImportError`` — an explicit request must
never silently degrade.

The backends are pinned bit-identical to each other — exact
``np.array_equal``, never ``allclose`` — by ``tests/test_kernels.py`` and
the golden fixtures in ``tests/golden/``, because the EMSTDP learning rule
is the paper's core contribution: a fast kernel that drifts the math by one
ulp is a wrong kernel.  ``tests/test_loihi_fused.py`` pins
:func:`network_run` to the per-step runtime the same way.
``benchmarks/bench_kernels.py`` gates the speedup.
"""

from __future__ import annotations

import contextlib
import functools
import os
import warnings
from typing import Optional, Tuple

import numpy as np

from ._layout import (NETWORK_CONN_ARRAYS, NETWORK_CONN_FIELDS,
                      NETWORK_CONN_TRACE_FIELDS, NETWORK_GROUP_ARRAYS,
                      NETWORK_GROUP_FIELDS)

__all__ = [
    "available_backends", "backend_name", "backend_provides", "cuba_step",
    "delta_w", "delta_w_batch", "delta_w_loihi", "forced_backend",
    "if_step", "network_run", "select_backend", "sum_of_products",
    "trace_update",
]

#: Autodetection preference order.
BACKENDS = ("cext", "numpy")

#: Environment variable overriding backend autodetection.
ENV_VAR = "REPRO_KERNEL_BACKEND"


def _import_cext():
    from . import _cext
    return _cext


def _import_numpy():
    from . import _numpy
    return _numpy


#: name -> loader.  Kept as a module-level dict so tests can monkeypatch a
#: loader to raise ImportError and exercise the degradation chain.
_LOADERS = {
    "cext": _import_cext,
    "numpy": _import_numpy,
}

_active_name: Optional[str] = None
_active_impl = None


def select_backend(name: Optional[str] = None) -> str:
    """Select the kernel backend; ``None`` autodetects.

    Explicit names fail loudly: ``ValueError`` for an unknown name,
    ``ImportError`` when the requested backend cannot be loaded.
    Autodetection walks :data:`BACKENDS` in order and warns once if it has
    to degrade all the way to pure NumPy.
    """
    global _active_name, _active_impl
    if name is not None:
        key = str(name).strip().lower()
        if key not in _LOADERS:
            raise ValueError(
                f"unknown kernel backend {name!r} (from ${ENV_VAR} or "
                f"select_backend): valid values are "
                f"{', '.join(repr(b) for b in BACKENDS)}")
        try:
            impl = _LOADERS[key]()
        except ImportError as exc:
            raise ImportError(
                f"kernel backend {key!r} was requested explicitly but is "
                f"not available: {exc}") from exc
        _active_name, _active_impl = key, impl
        return key
    failures = []
    for key in BACKENDS:
        try:
            impl = _LOADERS[key]()
        except ImportError as exc:
            failures.append(f"{key}: {exc}")
            continue
        if key == "numpy" and failures:
            warnings.warn(
                "no compiled kernel backend is available ("
                + "; ".join(failures)
                + "); falling back to pure-NumPy kernels.  Results are "
                "bit-identical but the per-timestep inner loops run "
                "slower.", RuntimeWarning, stacklevel=2)
        _active_name, _active_impl = key, impl
        return key
    raise ImportError(  # pragma: no cover - the numpy backend always loads
        "no kernel backend could be loaded: " + "; ".join(failures))


def backend_name() -> str:
    """Name of the active backend (``cext`` or ``numpy``)."""
    return _active_name


def backend_provides(kernel: str) -> bool:
    """Whether the active backend implements ``kernel`` natively.

    Every backend implements the per-step kernels; only compiled ones
    provide the fused :func:`network_run`, so callers ask before choosing
    between one fused call and a per-step loop.
    """
    return hasattr(_active_impl, kernel)


def available_backends() -> Tuple[str, ...]:
    """Backends that load successfully on this machine."""
    out = []
    for key in BACKENDS:
        try:
            _LOADERS[key]()
        except ImportError:
            continue
        out.append(key)
    return tuple(out)


@contextlib.contextmanager
def forced_backend(name: str):
    """Temporarily force a backend (used by tests and benchmarks)."""
    previous = _active_name
    select_backend(name)
    try:
        yield
    finally:
        select_backend(previous)


# ----------------------------------------------------------------------
# Input normalization
#
# Backends operate on flat C-contiguous arrays.  State arrays (membrane,
# refractory counters, traces) are updated in place: contiguous arrays are
# handed to the backend directly, non-contiguous views go through a
# copy/compute/copy-back round trip so callers holding odd views still see
# the update.
# ----------------------------------------------------------------------

_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _state(a: np.ndarray, dtypes) -> tuple:
    """Flat contiguous view of an in-place state array + write-back hook."""
    if not isinstance(a, np.ndarray) or a.dtype not in dtypes:
        raise TypeError(
            f"state array must be a numpy array with dtype in "
            f"{[str(d) for d in dtypes]}, got {getattr(a, 'dtype', type(a))}")
    if a.flags.c_contiguous:
        return a.reshape(-1), None
    flat = np.ascontiguousarray(a).reshape(-1)
    return flat, lambda: np.copyto(a, flat.reshape(a.shape))


def _input(a, dtype, shape) -> np.ndarray:
    """Flat contiguous read-only operand, broadcast to ``shape``."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != shape:
        a = np.broadcast_to(a, shape)
    return np.ascontiguousarray(a).reshape(-1)


def _impl():
    return _active_impl


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------

def if_step(v: np.ndarray, refrac: np.ndarray, drive, threshold: float,
            soft_reset: bool = True, refractory: int = 0) -> np.ndarray:
    """One IF timestep: integrate ``drive``, spike, soft/hard reset.

    ``v`` (float32/float64) and ``refrac`` (int64) are updated in place;
    returns the boolean spike array with ``v``'s shape.
    """
    vf, v_back = _state(v, _FLOAT_DTYPES)
    rf, r_back = _state(refrac, (np.dtype(np.int64),))
    if refrac.shape != v.shape:
        raise ValueError(
            f"refrac shape {refrac.shape} != membrane shape {v.shape}")
    df = _input(drive, v.dtype, v.shape)
    spikes = _impl().if_step(vf, rf, df, float(threshold), bool(soft_reset),
                             int(refractory))
    for back in (v_back, r_back):
        if back is not None:
            back()
    return spikes.reshape(v.shape)


def cuba_step(u: np.ndarray, v: np.ndarray, refrac: np.ndarray,
              bias: np.ndarray, syn_input, decay_u: int, decay_v: int,
              vth: int, soft_reset: bool = True, refractory: int = 0,
              floor_at_zero: bool = True,
              non_spiking: bool = False) -> np.ndarray:
    """One CUBA LIF timestep on Loihi's integer state (Eq. 8).

    ``u``, ``v`` and ``refrac`` (all int64) are updated in place; returns
    the boolean fired array.  ``decay_*`` use the 12-bit convention where
    4096 clears the state every step.
    """
    i64 = (np.dtype(np.int64),)
    uf, u_back = _state(u, i64)
    vf, v_back = _state(v, i64)
    rf, r_back = _state(refrac, i64)
    if u.shape != v.shape or refrac.shape != v.shape:
        raise ValueError("u, v and refrac must share one shape")
    bf = _input(bias, np.int64, v.shape)
    sf = _input(syn_input, np.int64, v.shape)
    fired = _impl().cuba_step(uf, vf, rf, bf, sf, int(decay_u), int(decay_v),
                              int(vth), bool(soft_reset), int(refractory),
                              bool(floor_at_zero), bool(non_spiking))
    for back in (u_back, v_back, r_back):
        if back is not None:
            back()
    return fired.reshape(v.shape)


def trace_update(values: np.ndarray, spikes, impulse: float, decay: float,
                 trace_max: float) -> None:
    """One trace timestep: decay, add ``impulse`` where spiked, saturate.

    ``values`` (float32/float64) is updated in place.
    """
    vf, v_back = _state(values, _FLOAT_DTYPES)
    sf = _input(spikes, bool, values.shape)
    _impl().trace_update(vf, sf, float(impulse), float(decay),
                         float(trace_max))
    if v_back is not None:
        v_back()


def _dw_operands(*arrays):
    """Common dtype (float32 only if everything already is) + flat copies."""
    arrays = [np.asarray(a) for a in arrays]
    dtype = np.result_type(*arrays)
    if dtype not in _FLOAT_DTYPES:
        dtype = np.dtype(np.float64)
    return dtype, arrays


def delta_w(h_hat_post, h_post, h_pre, eta: float) -> np.ndarray:
    """Eq. (7): ``dW[i, j] = eta * (h_hat[j] - h[j]) * h_pre[i]``.

    Inputs are raveled (matching ``np.outer``); returns
    ``(h_pre.size, h_hat.size)``.
    """
    dtype, (h_hat, h, pre) = _dw_operands(h_hat_post, h_post, h_pre)
    if h_hat.size != h.size:
        raise ValueError(
            f"h_hat has {h_hat.size} entries, h has {h.size}")
    h_hat = _input(h_hat, dtype, h_hat.shape)
    h = _input(h, dtype, h.shape)
    pre = _input(pre, dtype, pre.shape)
    return _impl().delta_w(h_hat, h, pre, float(eta))


def delta_w_batch(h_hat_post, h_post, h_pre, eta: float,
                  mean: bool = True) -> np.ndarray:
    """Batched Eq. (7), accumulated in batch order then scaled.

    ``h_hat_post`` / ``h_post`` are ``(B, n_post)``, ``h_pre`` is
    ``(B, n_pre)``; returns ``(n_pre, n_post)``.  The reduction order is
    part of the kernel contract (sample 0 first), which is what lets a
    compiled loop be bit-identical to the NumPy reference — a BLAS GEMM's
    blocked summation order would not be.
    """
    dtype, (h_hat, h, pre) = _dw_operands(h_hat_post, h_post, h_pre)
    if h_hat.ndim != 2 or pre.ndim != 2 or h_hat.shape != h.shape \
            or h_hat.shape[0] != pre.shape[0]:
        raise ValueError(
            f"expected (B, n_post) and (B, n_pre) stacks, got "
            f"{h_hat.shape}, {h.shape} and {pre.shape}")
    if mean and h_hat.shape[0] == 0:
        raise ValueError("cannot mean-reduce an empty batch")
    flat = [np.ascontiguousarray(a, dtype=dtype) for a in (h_hat, h, pre)]
    return _impl().delta_w_batch(*flat, float(eta), bool(mean))


def delta_w_loihi(h_hat_post, z_post, pre_trace, eta: float) -> np.ndarray:
    """Eq. (12): ``dW = (2*eta*h_hat - eta*Z) (x) pre`` (inputs raveled)."""
    dtype, (h_hat, z, pre) = _dw_operands(h_hat_post, z_post, pre_trace)
    if h_hat.size != z.size:
        raise ValueError(f"h_hat has {h_hat.size} entries, Z has {z.size}")
    h_hat = _input(h_hat, dtype, h_hat.shape)
    z = _input(z, dtype, z.shape)
    pre = _input(pre, dtype, pre.shape)
    return _impl().delta_w_loihi(h_hat, z, pre, float(eta))


# -- microcode sum-of-products -----------------------------------------

#: Factor-variable encoding shared by all backends: (kind, index) where
#: kind 0 = presynaptic, 1 = postsynaptic, 2 = synaptic, 3 = bare constant.
_VAR_CODES = {
    "x0": (0, 0), "x1": (0, 1),
    "y0": (1, 0), "y1": (1, 1),
    "t": (2, 0), "w": (2, 1),
    None: (3, 0),
}


@functools.lru_cache(maxsize=256)
def _flatten_rule(rule) -> tuple:
    """Flatten a parsed :class:`SumOfProducts` rule into plain arrays."""
    scales, offs, kinds, idxs, consts = [], [0], [], [], []
    for term in rule.terms:
        scales.append(float(term.sign) * 2.0 ** term.scale_exp)
        for factor in term.factors:
            kind, idx = _VAR_CODES[factor.var]
            kinds.append(kind)
            idxs.append(idx)
            consts.append(float(factor.const))
        offs.append(len(kinds))
    return (np.array(scales, dtype=np.float64),
            np.array(offs, dtype=np.int32),
            np.array(kinds, dtype=np.int32),
            np.array(idxs, dtype=np.int32),
            np.array(consts, dtype=np.float64))


def sum_of_products(rule, x0, x1, y0, y1, tag, w) -> np.ndarray:
    """Evaluate a microcode rule ``z += sum_i S_i * prod_j (V_ij + C_ij)``.

    ``x0``/``x1`` are presynaptic ``(S,)`` (or replicated ``(R, S)``),
    ``y0``/``y1`` postsynaptic ``(D,)`` / ``(R, D)``, ``tag``/``w``
    synaptic ``(S, D)`` / ``(R, S, D)``.  Returns the float64 ``dz`` block
    with the synaptic shape.  Trace/tag magnitudes are hardware-bounded
    (7-to-9-bit), so the int -> float64 conversions are exact and the
    result is bit-identical across backends.
    """
    tag = np.asarray(tag)
    replicated = tag.ndim == 3
    if replicated:
        n_rep, n_src, n_dst = tag.shape
    elif tag.ndim == 2:
        n_rep, (n_src, n_dst) = 1, tag.shape
    else:
        raise ValueError(f"synaptic block must be 2-D or 3-D, got {tag.ndim}-D")
    pre_shape = (n_rep, n_src) if replicated else (n_src,)
    post_shape = (n_rep, n_dst) if replicated else (n_dst,)
    pre_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), pre_shape)
         for a in (x0, x1)]).reshape(2, n_rep, n_src)
    post_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), post_shape)
         for a in (y0, y1)]).reshape(2, n_rep, n_dst)
    syn_shape = tag.shape
    syn_stack = np.ascontiguousarray(
        [np.broadcast_to(np.asarray(a, dtype=np.float64), syn_shape)
         for a in (tag, w)]).reshape(2, n_rep, n_src, n_dst)
    dz = _impl().sop_eval(*_flatten_rule(rule), pre_stack, post_stack,
                          syn_stack, n_rep, n_src, n_dst)
    return dz.reshape(syn_shape)


# -- fused chip-network run ---------------------------------------------

def _table(name: str, a, dtype, fields) -> None:
    if not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != 2 \
            or a.shape[1] != len(fields) or not a.flags.c_contiguous:
        raise TypeError(
            f"{name} must be a C-contiguous {np.dtype(dtype)} array of "
            f"shape (rows, {len(fields)}), got "
            f"{getattr(a, 'dtype', type(a))} {getattr(a, 'shape', '')}")


def network_run(steps: int, replicas: int, groups: np.ndarray,
                group_arrays: np.ndarray, conns: np.ndarray,
                conn_traces: np.ndarray, conn_arrays: np.ndarray,
                group_spikes: np.ndarray, conn_events: np.ndarray,
                trace_max: float) -> None:
    """Advance a flattened chip network ``steps`` timesteps in one call.

    The network arrives as the tables laid out by ``NETWORK_*`` (one row
    per group or connection, in declaration order); the address tables
    (``np.uintp``) point at the state arrays, which are updated in place.
    Every step reproduces :meth:`repro.loihi.runtime.Runtime.step` bit for
    bit:

    1. **deliver** — each connection in order adds
       ``spikes @ weight * weight_scale`` (int64) from its source's
       previous-step spikes into its destination's input, and counts
       ``active sources x dst.n`` synaptic events when the source fired;
    2. **integrate** — each group in order runs :func:`cuba_step`
       semantics; a disabled group holds its state and emits no spikes, a
       non-spiking one integrates and emits none; otherwise the spikes are
       ANDed with ``gate.v > 0``, ORed with the merge group's spikes as
       currently stored and ANDed with the mask, then counted;
    3. **trace** — each plastic connection updates its pre trace, then its
       post trace, with :func:`trace_update` semantics.

    Spike totals accumulate per group into ``group_spikes`` and synaptic
    events per connection into ``conn_events`` (both int64).  The caller
    owns the pointed-to arrays and must keep them alive and correctly
    shaped for the call.  Table dtypes and shapes are checked here; sizes,
    group indices, mask strides and null addresses are checked by the
    backend before the first dereference, raising ``ValueError``.  Raises
    ``NotImplementedError`` when the active backend has no fused loop (see
    :func:`backend_provides`).
    """
    if not backend_provides("network_run"):
        raise NotImplementedError(
            f"kernel backend {_active_name!r} has no fused network_run; "
            f"step the network one timestep at a time instead")
    _table("groups", groups, np.int64, NETWORK_GROUP_FIELDS)
    _table("group_arrays", group_arrays, np.uintp, NETWORK_GROUP_ARRAYS)
    _table("conns", conns, np.int64, NETWORK_CONN_FIELDS)
    _table("conn_traces", conn_traces, np.float64,
           NETWORK_CONN_TRACE_FIELDS)
    _table("conn_arrays", conn_arrays, np.uintp, NETWORK_CONN_ARRAYS)
    if len(group_arrays) != len(groups) or len(conn_traces) != len(conns) \
            or len(conn_arrays) != len(conns):
        raise ValueError("network tables disagree on row counts")
    for name, out, rows in (("group_spikes", group_spikes, len(groups)),
                            ("conn_events", conn_events, len(conns))):
        if not isinstance(out, np.ndarray) or out.dtype != np.int64 \
                or out.shape != (rows,) or not out.flags.c_contiguous:
            raise TypeError(f"{name} must be a contiguous int64 ({rows},) "
                            f"array")
    _impl().network_run(int(steps), int(replicas), groups, group_arrays,
                        conns, conn_traces, conn_arrays, group_spikes,
                        conn_events, float(trace_max))


# Backend bootstrap: the env override wins over autodetection; unknown
# values are rejected here, at import, with the ValueError from
# select_backend.
select_backend(os.environ.get(ENV_VAR) or None)

# Observability: wrap the public kernels with the sampled call-timing
# probe.  repro.obs is stdlib-only, so importing it here cannot cycle
# back into this module.  REPRO_OBS_KERNEL_SAMPLE=0 reduces each wrapper
# to a single `if` before the real call.
from ... import obs as _obs  # noqa: E402

if_step = _obs.kernel_profiler.wrap("if_step", if_step)
cuba_step = _obs.kernel_profiler.wrap("cuba_step", cuba_step)
trace_update = _obs.kernel_profiler.wrap("trace_update", trace_update)
delta_w = _obs.kernel_profiler.wrap("delta_w", delta_w)
delta_w_batch = _obs.kernel_profiler.wrap("delta_w_batch", delta_w_batch)
delta_w_loihi = _obs.kernel_profiler.wrap("delta_w_loihi", delta_w_loihi)
sum_of_products = _obs.kernel_profiler.wrap("sum_of_products",
                                            sum_of_products)
network_run = _obs.kernel_profiler.wrap("network_run", network_run)
