"""Backend-selected compiled kernels for the per-timestep inner loops.

Every number in ``BENCH_*.json`` bottoms out in the same hot loops: the
IF neuron step (:mod:`repro.core.neuron`), the chip's integrate-and-fire
compartment step (:mod:`repro.loihi.compartment`), the trace counters
(:mod:`repro.loihi.traces`), the EMSTDP ``dW`` accumulation (Eq. 7 in
:mod:`repro.core.learning`), the microcode sum-of-products
(:mod:`repro.loihi.microcode`) and, fused over whole phases, the chip
runtime's timestep loop (:func:`network_run`), its learning epochs
(:func:`microcode_epoch`), the reference spike engine's two-phase
presentation (:func:`spike_present`) and the rate engine's phase 2
(:func:`rate_phase2`).  This package routes them through one of two
interchangeable backends:

``cext``
    The loops as C, compiled once with the system compiler and loaded via
    ctypes (no third-party dependency beyond a C compiler).  Also provides
    the fused loops: :func:`network_run`, which advances a flattened chip
    network ``T`` steps in one call, :func:`microcode_epoch`, which
    applies every plastic connection's learning rules in one call,
    :func:`spike_present`, which runs one EMSTDP presentation of a
    ``(B, n_in)`` block in one call, and :func:`rate_phase2`, which runs
    every damped phase-2 pass of a rate training solve of a ``(B, n)``
    block and, given a :class:`RateUpdate`, the Eq. (7) write-back into
    the weights in place, in one call (phase 1, the inference pass, stays
    on BLAS).
``numpy``
    The pure-NumPy reference implementation — always available.  It has
    no fused loop: the chip runtime and the spike engine step their
    layers one timestep at a time, the chip's learning engine applies
    one rule to one connection at a time, and the rate engine runs its
    phase-2 passes in NumPy and its write-back through
    ``WeightUpdater``, which is the reference each fused loop is pinned
    to.

The kernels take exactly what the engines pass: floating-point state is
float64 only, and each array operand must already be a C-contiguous array
of the kernel's dtype and shape.  Anything else — a strided view, another
dtype, another shape, a list — raises ``TypeError`` naming the operand
before any backend sees it or any state changes; nothing is copied, cast
or broadcast on the way in.  Callers that take outside input
(``IFLayer.step``, ``TraceState.update``, ...) build that array
themselves.  The one exception is :func:`sum_of_products`, which stacks
the learning engine's integer registers into float64 blocks itself.
:func:`rate_phase2` takes its weight and feedback matrices as
:class:`ArrayTable` bindings (:func:`array_table`), whose data addresses
are read once; it still checks every array in them on every call.

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
:func:`network_run` to the per-step runtime and :func:`microcode_epoch` to
``LearningEngine.apply_all`` the same way,
``tests/test_spike_fused.py`` pins :func:`spike_present` to the per-step
spike engine, and ``tests/test_rate_fused.py`` pins :func:`rate_phase2`
to ``network.rate_phase2_reference`` byte for byte.
``benchmarks/bench_kernels.py`` gates the speedup.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import warnings
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..quantize import quant_step
from ._layout import (MICROCODE_CONN_ARRAYS, MICROCODE_CONN_FIELDS,
                      MICROCODE_RULE_FIELDS, NETWORK_CONN_ARRAYS,
                      NETWORK_CONN_FIELDS, NETWORK_GROUP_ARRAYS,
                      NETWORK_GROUP_FIELDS)

__all__ = [
    "ArrayTable", "MicrocodeProgram", "RateUpdate", "array_table",
    "available_backends", "backend_name", "backend_provides", "cuba_step",
    "delta_w", "delta_w_batch", "forced_backend", "if_step",
    "microcode_epoch", "microcode_program", "network_run", "rate_phase2",
    "select_backend", "spike_present", "sum_of_products", "trace_update",
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
    provide the fused :func:`network_run`, :func:`microcode_epoch`,
    :func:`spike_present` and :func:`rate_phase2`, so callers ask before
    choosing between one fused call and a per-step loop.
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


def _impl():
    return _active_impl


# ----------------------------------------------------------------------
# Operand checks
# ----------------------------------------------------------------------

_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)


def _operand(name: str, a, dtype, shape=None) -> None:
    """Reject an array a kernel cannot read or update in place safely.

    Anything but a C-contiguous ``dtype`` array of ``shape`` raises
    ``TypeError`` naming it, before any backend sees it; a conforming
    array passes through as it is.  ``shape=None`` matches any shape, and
    a ``None`` entry any length.
    """
    if isinstance(a, np.ndarray) and a.dtype == dtype \
            and a.flags.c_contiguous:
        # A whole-tuple compare first: every operand of a hot call has a
        # fully known shape but one.
        if shape is None or a.shape == shape or (a.ndim == len(shape) and all(
                want is None or got == want
                for got, want in zip(a.shape, shape))):
            return
    want = "any shape"
    if shape is not None:
        want = ", ".join("rows" if n is None else str(n) for n in shape)
        want = f"shape ({want}{',' * (len(shape) == 1)})"
    got = type(a)
    if isinstance(a, np.ndarray):
        layout = "C-contiguous" if a.flags.c_contiguous else "non-contiguous"
        got = f"a {layout} {a.dtype} array of shape {a.shape}"
    raise TypeError(f"{name} must be a C-contiguous {np.dtype(dtype)} array "
                    f"of {want}, got {got}")


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------

def if_step(v: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """One timestep of the paper's IF neuron (Eqs. 1-2), threshold 1.

    Adds ``drive`` to the membrane ``v``, spikes where ``v >= 1 - 1e-9``,
    subtracts 1 from the neurons that spiked (soft reset) and floors ``v``
    at 0.  ``v`` (float64, any shape) is updated in place and ``drive``
    must match it; returns the boolean spike array with ``v``'s shape.
    """
    _operand("v", v, _F64)
    _operand("drive", drive, _F64, v.shape)
    return _impl().if_step(v, drive)


def cuba_step(v: np.ndarray, bias: np.ndarray, syn_input: np.ndarray,
              vth: int, floor_at_zero: bool,
              non_spiking: bool) -> np.ndarray:
    """One timestep of the chip's integrate-and-fire compartment (Eq. 8
    with no leak and instant current decay, as EMSTDP programs it).

    Adds ``syn_input`` and ``bias`` to the membrane ``v``, floors it at 0
    with ``floor_at_zero``, spikes where ``v >= vth`` and subtracts ``vth``
    where spiked; a ``non_spiking`` compartment only integrates.  ``v`` is
    updated in place; it, ``bias`` and ``syn_input`` are int64 arrays of
    one shape.  Returns the boolean fired array.
    """
    _operand("v", v, _I64)
    _operand("bias", bias, _I64, v.shape)
    _operand("syn_input", syn_input, _I64, v.shape)
    return _impl().cuba_step(v, bias, syn_input, int(vth),
                             bool(floor_at_zero), bool(non_spiking))


def trace_update(values: np.ndarray, spikes: np.ndarray,
                 trace_max: int) -> None:
    """One trace-counter timestep: add 1 where spiked, saturate at
    ``trace_max``.

    ``values`` (the int64 registers) is updated in place; ``spikes`` is a
    bool array of its shape.
    """
    _operand("values", values, _I64)
    _operand("spikes", spikes, np.bool_, values.shape)
    _impl().trace_update(values, spikes, int(trace_max))


def delta_w(h_hat_post: np.ndarray, h_post: np.ndarray, h_pre: np.ndarray,
            eta: float) -> np.ndarray:
    """Eq. (7): ``dW[i, j] = eta * (h_hat[j] - h[j]) * h_pre[i]``.

    Takes float64 vectors ``(n_post,)``, ``(n_post,)`` and ``(n_pre,)``;
    returns ``(n_pre, n_post)``.
    """
    _operand("h_hat_post", h_hat_post, _F64, (None,))
    _operand("h_post", h_post, _F64, h_hat_post.shape)
    _operand("h_pre", h_pre, _F64, (None,))
    return _impl().delta_w(h_hat_post, h_post, h_pre, float(eta))


def delta_w_batch(h_hat_post: np.ndarray, h_post: np.ndarray,
                  h_pre: np.ndarray, eta: float,
                  mean: bool = True) -> np.ndarray:
    """Batched Eq. (7), accumulated in batch order then scaled.

    ``h_hat_post`` / ``h_post`` are float64 ``(B, n_post)``, ``h_pre`` is
    ``(B, n_pre)``; returns ``(n_pre, n_post)``.  The reduction order is
    part of the kernel contract (sample 0 first), which is what lets a
    compiled loop be bit-identical to the NumPy reference — a BLAS GEMM's
    blocked summation order would not be.
    """
    _operand("h_hat_post", h_hat_post, _F64, (None, None))
    _operand("h_post", h_post, _F64, h_hat_post.shape)
    _operand("h_pre", h_pre, _F64, (len(h_hat_post), None))
    if mean and len(h_hat_post) == 0:
        raise ValueError("cannot mean-reduce an empty batch")
    return _impl().delta_w_batch(h_hat_post, h_post, h_pre, float(eta),
                                 bool(mean))


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

def network_run(steps: int, replicas: int, groups: np.ndarray,
                group_arrays: np.ndarray, conns: np.ndarray,
                conn_arrays: np.ndarray, group_spikes: np.ndarray,
                conn_events: np.ndarray, trace_max: int) -> None:
    """Advance a flattened chip network ``steps`` timesteps in one call.

    The network arrives as the tables laid out by ``NETWORK_*`` (one row
    per group or connection, in declaration order); the address tables
    (``np.uintp``) point at the state arrays, which are updated in place.
    Every step reproduces :meth:`repro.loihi.runtime.Runtime.step` bit for
    bit:

    1. **deliver** — each connection in order adds
       ``(spikes @ weight) * weight_scale`` (int64) from its source's
       previous-step spikes into its destination's input, and counts
       ``active sources x dst.n`` synaptic events when the source fired.
       Per replica, the active rows are listed once and summed in blocks
       of columns, then scaled once per destination element: integer
       sums are exact in any order, so this is the per-step result;
    2. **integrate** — each group in order runs :func:`cuba_step`
       semantics; a disabled group holds its state and emits no spikes, a
       non-spiking one integrates and emits none; otherwise the spikes are
       ANDed with ``gate.v > 0``, ORed with the merge group's spikes as
       currently stored and ANDed with the mask, then counted;
    3. **trace** — each plastic connection counts its int64 pre trace
       registers, then its post ones, with :func:`trace_update` semantics.

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
    _operand("groups", groups, np.int64, (None, len(NETWORK_GROUP_FIELDS)))
    _operand("group_arrays", group_arrays, np.uintp,
             (None, len(NETWORK_GROUP_ARRAYS)))
    _operand("conns", conns, np.int64, (None, len(NETWORK_CONN_FIELDS)))
    _operand("conn_arrays", conn_arrays, np.uintp,
             (None, len(NETWORK_CONN_ARRAYS)))
    if len(group_arrays) != len(groups) or len(conn_arrays) != len(conns):
        raise ValueError("network tables disagree on row counts")
    _operand("group_spikes", group_spikes, np.int64, (len(groups),))
    _operand("conn_events", conn_events, np.int64, (len(conns),))
    _impl().network_run(int(steps), int(replicas), groups, group_arrays,
                        conns, conn_arrays, group_spikes, conn_events,
                        int(trace_max))


# -- fused learning epoch -----------------------------------------------

_MR = {name: i for i, name in enumerate(MICROCODE_RULE_FIELDS)}


class MicrocodeProgram(NamedTuple):
    """Rule lists flattened by :func:`microcode_program`."""

    #: ``(n_lists, 2)`` int64: list ``k``'s ``[rule_lo, rule_hi)`` slice
    #: of :attr:`rules`.
    spans: np.ndarray
    #: ``(n_rules, len(MICROCODE_RULE_FIELDS))`` int64 rule table.
    rules: np.ndarray
    #: The :func:`sum_of_products` encoding of every rule, concatenated:
    #: float64 ``scales`` and int32 ``offs`` per term (``offs`` indexes
    #: the concatenated factor arrays and has one closing entry), int32
    #: ``kinds`` and ``idxs`` and float64 ``consts`` per factor.
    scales: np.ndarray
    offs: np.ndarray
    kinds: np.ndarray
    idxs: np.ndarray
    consts: np.ndarray


def microcode_program(rule_lists: Sequence[Sequence]) -> MicrocodeProgram:
    """Flatten one rule list per connection for :func:`microcode_epoch`,
    rules in list order and, within a list, in program order.

    A rule whose term scales (``2^k``, ``k >= 0``) and factor constants
    are all integers is flagged ``integer``: on integer registers its
    ``dz`` is an integer, which no rounding changes, so the epoch adds it
    without a uniform."""
    spans, rules = [], []
    parts = ([], [], [], [], [])  # scales, offs, kinds, idxs, consts
    n_terms = n_factors = 0
    for rule_list in rule_lists:
        lo = len(rules)
        for rule in rule_list:
            scales, offs, kinds, idxs, consts = _flatten_rule(rule)
            row = [0] * len(_MR)
            row[_MR["target"]] = int(rule.target == "t")
            row[_MR["term_lo"]] = n_terms
            row[_MR["term_hi"]] = n_terms + len(scales)
            row[_MR["integer"]] = int(all(
                np.all(np.floor(a) == a) for a in (scales, consts)))
            rules.append(row)
            for part, a in zip(parts, (scales, offs[:-1] + n_factors, kinds,
                                       idxs, consts)):
                part.append(a)
            n_terms += len(scales)
            n_factors += len(kinds)
        spans.append((lo, len(rules)))
    parts[1].append(np.array([n_factors], dtype=np.int32))
    scales, offs, kinds, idxs, consts = (
        np.concatenate(part) if part else np.zeros(0, dtype)
        for part, dtype in zip(parts, (np.float64, np.int32, np.int32,
                                       np.int32, np.float64)))
    return MicrocodeProgram(
        np.array(spans, dtype=np.int64).reshape(-1, 2),
        np.array(rules, dtype=np.int64).reshape(-1, len(_MR)),
        scales, offs, kinds, idxs, consts)


def microcode_epoch(replicas: int, conns: np.ndarray, conn_arrays: np.ndarray,
                    program: MicrocodeProgram, uniforms: Optional[np.ndarray],
                    weight_max: int, tag_max: int) -> None:
    """Apply one learning epoch's rules to every listed connection in one
    call, with the exact semantics of
    :meth:`repro.loihi.microcode.LearningEngine.apply_all` per connection.

    Connection ``k`` (row ``k`` of the ``MICROCODE_CONN_FIELDS`` and
    ``MICROCODE_CONN_ARRAYS`` tables) runs rules ``rule_lo`` to
    ``rule_hi`` of ``program`` in order, connections in table order.
    Each rule is :func:`sum_of_products` of the operands as they stand
    (spikes as ``x0``/``y0``, the trace registers as ``x1``/``y1``),
    rounded and added to its target (weight or tag), which is clamped to
    ``±weight_max`` or ``±tag_max`` and written in place.  With
    ``uniforms``, a ``(replicas, draws)`` float64 block holding one row
    per replica's stochastic-rounding stream, a rule consumes the next
    ``n_src * n_dst`` uniforms of each row and rounds ``dz`` down, or up
    where the uniform is below its fraction; without, it rounds to nearest
    with ties to even, as ``np.round``.  A rule flagged ``integer`` by
    :func:`microcode_program` adds its ``dz`` as it is and consumes no
    uniform (its fraction is 0: ``u < 0`` never holds, and ``np.round``
    keeps an integer), so ``draws`` must be the sum over connections of
    the unflagged rules times ``n_src * n_dst``.  The reference draws a
    block for every rule; a caller that wants its streams to end where
    the reference's do moves them past each flagged rule's block itself.

    The caller owns the pointed-to arrays (C-contiguous, of the dtypes
    and ``R * n`` / ``R * n_src * n_dst`` sizes ``MICROCODE_CONN_ARRAYS``
    gives) and must keep them alive for the call.  Table and program
    dtypes and shapes are checked here; sizes, slices, factor codes, an
    ``integer`` flag that a non-integer scale or constant of its rule
    contradicts, the draw count and null addresses by the backend before
    the first dereference, raising ``ValueError``.  Raises
    ``NotImplementedError`` when the active backend has no fused loop
    (see :func:`backend_provides`).
    """
    if not backend_provides("microcode_epoch"):
        raise NotImplementedError(
            f"kernel backend {_active_name!r} has no fused microcode_epoch; "
            f"apply the rules one connection at a time instead")
    _operand("conns", conns, np.int64, (None, len(MICROCODE_CONN_FIELDS)))
    _operand("conn_arrays", conn_arrays, np.uintp,
             (len(conns), len(MICROCODE_CONN_ARRAYS)))
    _operand("program.rules", program.rules, np.int64, (None, len(_MR)))
    _operand("program.scales", program.scales, np.float64, (None,))
    _operand("program.offs", program.offs, np.int32,
             (len(program.scales) + 1,))
    _operand("program.kinds", program.kinds, np.int32, (None,))
    _operand("program.idxs", program.idxs, np.int32, (len(program.kinds),))
    _operand("program.consts", program.consts, np.float64,
             (len(program.kinds),))
    if uniforms is not None:
        _operand("uniforms", uniforms, np.float64, (int(replicas), None))
    _impl().microcode_epoch(int(replicas), conns, conn_arrays, program.rules,
                            program.scales, program.offs, program.kinds,
                            program.idxs, program.consts, uniforms,
                            int(weight_max), int(tag_max))


# -- fused EMSTDP presentation ------------------------------------------

def spike_present(dims, steps: int, drive: np.ndarray, weights,
                  class_mask: np.ndarray, target: Optional[np.ndarray] = None,
                  feedback=(), *, fa: bool = False, bias_unit: bool = True,
                  gate_hidden: bool = True, error_gain: float = 1.0):
    """One EMSTDP spike-domain presentation of a ``(B, n_in)`` block.

    Runs ``steps`` timesteps of phase 1 (the inference pass) and, given a
    ``target``, ``steps`` more of phase 2 in the same call, with the exact
    semantics of :func:`repro.core.network.spike_present_reference`, the
    per-step NumPy path it is pinned to:

    * every population is an IF layer with threshold 1 and soft reset,
      stepped with :func:`if_step` semantics; ``drive`` is the input
      layer's per-step bias;
    * every weighted input — ``[spikes, 1] @ W`` forward (the ``1`` only
      with ``bias_unit``), ``pending_out @ D`` for DFA, ``e_above @ B``
      for FA — is the sum of the active rows of the matrix in row order,
      starting from +0.0, a signed spike adding or subtracting its row.
      The order is part of the contract: it is what a C loop and the
      NumPy reference can both reproduce, where a BLAS GEMV's is not;
    * phase 2 keeps the forward membranes.  Each timestep steps the
      forward stack, each layer's input plus the previous step's signed
      spikes of its error pair (the output pair's masked by
      ``class_mask``); a label layer driven by ``target``; the output
      error pair, driven by ``error_gain * (label - masked output)``;
      and one error pair per hidden layer, driven by the error spikes
      through ``feedback[i]``: the layer above's with ``fa`` (shape
      ``(dims[i+2], dims[i+1])``), the output's without (shape
      ``(dims[-1], dims[i+1])``).  ``gate_hidden`` shuts the hidden error
      spikes of neurons silent in phase 1.

    Returns ``(phase1, phase2)``: per layer, the ``(B, dims[k])`` int64
    spike counts of each phase (``phase2`` is ``None`` without a target).
    Every array is checked against ``dims`` before its address reaches
    the backend: one that is not a C-contiguous array of the right dtype
    and shape raises ``TypeError``; a wrong number of weight or feedback
    matrices raises ``ValueError``.  Raises ``NotImplementedError`` when
    the active backend has no fused loop (see :func:`backend_provides`).
    """
    if not backend_provides("spike_present"):
        raise NotImplementedError(
            f"kernel backend {_active_name!r} has no fused spike_present; "
            f"step the layers one timestep at a time instead")
    dims = tuple(int(n) for n in dims)
    n_layers = len(dims) - 1
    if n_layers < 1 or min(dims) < 1 or int(steps) < 0:
        raise ValueError(f"need dims of >= 2 positive sizes and steps >= 0, "
                         f"got {dims} and {steps}")
    _operand("drive", drive, _F64, (None, dims[0]))
    batch = len(drive)
    if len(weights) != n_layers:
        raise ValueError(f"{len(weights)} weight matrices for {n_layers} "
                         f"layers")
    for i, w in enumerate(weights):
        _operand(f"weights[{i}]", w, _F64,
                 (dims[i] + bool(bias_unit), dims[i + 1]))
    _operand("class_mask", class_mask, np.bool_, (dims[-1],))
    two_phase = target is not None
    if two_phase:
        _operand("target", target, _F64, (batch, dims[-1]))
        if len(feedback) != n_layers - 1:
            raise ValueError(f"{len(feedback)} feedback matrices for "
                             f"{n_layers - 1} hidden layers")
        for i, b in enumerate(feedback):
            _operand(f"feedback[{i}]", b, _F64,
                     (dims[i + 2] if fa else dims[-1], dims[i + 1]))
    weight_addr = np.array([w.ctypes.data for w in weights], dtype=np.uintp)
    feedback_addr = np.array([b.ctypes.data for b in feedback]
                             if two_phase else [], dtype=np.uintp)
    counts = np.empty((1 + two_phase, batch, sum(dims)), dtype=np.int64)
    _impl().spike_present(np.array(dims, dtype=np.int64), int(steps), drive,
                          weight_addr, feedback_addr, class_mask, target,
                          bool(fa), bool(bias_unit), bool(gate_hidden),
                          float(error_gain), counts[0],
                          counts[1] if two_phase else None)
    edges = np.cumsum((0,) + dims)
    phases = [[c[:, lo:hi] for lo, hi in zip(edges, edges[1:])]
              for c in counts]
    return phases[0], (phases[1] if two_phase else None)


# -- fused rate-engine phase 2 ------------------------------------------

def _address(a: np.ndarray) -> int:
    """Data address of an array.

    ``a.ctypes.data`` builds numpy's ctypes helper object on every read
    (~1.7 us); lending the buffer to a one-byte ctypes object reads the
    same address in ~0.5 us.  A read-only or empty array cannot lend its
    buffer so and takes the slow read.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _address_table(arrays) -> Tuple[np.ndarray, int]:
    """An ``np.uintp`` table of the data addresses of ``arrays`` and the
    table's own address."""
    addresses = np.array([_address(a) for a in arrays], dtype=np.uintp)
    return addresses, _address(addresses)


class ArrayTable:
    """Arrays whose data addresses were read once, for repeated
    :func:`rate_phase2` calls; made only by :func:`array_table`.

    A table cannot be built from parts or changed, so its addresses are
    always those of its arrays.  A copy or an unpickled table binds its
    copied arrays again: another buffer's, or another process's,
    addresses mean nothing to it.
    """

    __slots__ = ("arrays", "_addresses", "address")

    #: The arrays themselves; :func:`rate_phase2` checks each on every call.
    arrays: Tuple[np.ndarray, ...]
    #: The address of the ``np.uintp`` table of their data addresses.
    address: int

    def __new__(cls, *args, **kwargs):
        raise TypeError("an ArrayTable is made by kernels.array_table(arrays)")

    def __setattr__(self, name, value):
        raise AttributeError("an ArrayTable is read-only")

    def __reduce__(self):
        return array_table, (self.arrays,)


def array_table(arrays) -> ArrayTable:
    """Read the data addresses of ``arrays`` once, for repeated
    :func:`rate_phase2` calls (as ``weights`` or ``feedback``).

    Only the addresses are reused: the kernel still checks each array's
    dtype, shape and layout on every call.  The table holds a reference to
    every array, so none is freed, and ``ndarray.resize`` refuses to move
    one, while the table lives.  Bind a new table after replacing an
    array.
    """
    arrays = tuple(arrays)
    for i, a in enumerate(arrays):
        if not isinstance(a, np.ndarray):
            raise TypeError(f"arrays[{i}] must be an array, got {type(a)}")
    table = object.__new__(ArrayTable)
    addresses, address = _address_table(arrays)
    addresses.flags.writeable = False
    for name, value in (("arrays", arrays), ("_addresses", addresses),
                        ("address", address)):
        object.__setattr__(table, name, value)
    return table


class RateUpdate(NamedTuple):
    """The Eq. (7) write-back :func:`rate_phase2` runs after its passes,
    with the semantics of :class:`repro.core.learning.WeightUpdater`."""

    #: ``(B, dims[0])`` float64: the input layer's rates, layer 0's
    #: presynaptic rates.
    pre: np.ndarray
    #: The learning rate (any ``lr_scale`` already applied).
    eta: float
    #: ``False``: one sample's update, ``WeightUpdater.apply`` (``B`` must
    #: be 1); ``True``: the batch-ordered mean of ``apply_batch``.
    mean: bool = False
    #: ``quantize_weights``' clip range, its grid's bits and, for
    #: stochastic rounding, its generator (``None``: round to nearest).
    clip: Optional[float] = None
    bits: Optional[int] = None
    rng: Optional[np.random.Generator] = None


@functools.lru_cache(maxsize=64)
def _rate_layout(dims: Tuple[int, ...], batch: int):
    """``dims`` as a read-only int64 array (which the cache keeps alive)
    and its address, the result's size and each layer's ``(lo, hi,
    shape)`` in it, made once per shape."""
    dims_c = np.array(dims, dtype=np.int64)
    dims_c.flags.writeable = False
    edges = np.cumsum((0,) + dims[1:]) * batch
    parts = tuple((int(lo), int(hi), (batch, n))
                  for lo, hi, n in zip(edges, edges[1:], dims[1:]))
    return dims_c, dims_c.ctypes.data, int(edges[-1]), parts


def _labels_in_range(labels: np.ndarray, n: int) -> bool:
    if len(labels) == 1:
        return 0 <= labels[0] < n
    return not len(labels) or (labels.min() >= 0 and labels.max() < n)


#: Rounding codes of the compiled write-back: no grid, nearest, stochastic.
_ROUND_NONE, _ROUND_NEAREST, _ROUND_STOCHASTIC = range(3)


def rate_phase2(dims, T: float, iterations: int, drive: np.ndarray, h,
                weights: ArrayTable, class_mask: np.ndarray,
                labels: np.ndarray, feedback: ArrayTable, *, fa: bool = False,
                bias_unit: bool = True, gate_hidden: bool = True,
                error_gain: float = 1.0, update: Optional[RateUpdate] = None):
    """The rate engine's phase 2 for a ``(B, n)`` block in one call, and
    optionally its Eq. (7) write-back.

    Runs ``iterations`` damped fixed-point passes with the exact
    semantics of :func:`repro.core.network.rate_phase2_reference`, the
    NumPy path it is pinned to, and returns the phase-2 rates of layers
    1..L as ``(B, dims[k])`` float64 arrays.  ``h`` holds the phase-1
    rates of layers 1..L and ``drive`` the first layer's pre-correction
    rates, ``rate_activation([q0, 1] @ W0)``, which phase 1 computed.
    ``labels`` holds the ``(B,)`` int64 class indices; a sample's target
    is ``encode_labels(labels) * class_mask``.  Each pass:

    * drives the output error pair with
      ``error_gain * (target - h_hat[L])``; each channel's rate is
      ``quantize_rate(clip(±d, 0, 1), T)``, and their difference times
      the class mask is damped into the output's correction,
      ``c + 0.5 * (new - c)``;
    * drives each hidden error pair with a correction through
      ``feedback[i]``: the layer above's with ``fa``
      (top layer first; shape ``(dims[i+2], dims[i+1])``), the output's
      without (shape ``(dims[-1], dims[i+1])``), gated with
      ``gate_hidden`` and damped the same way;
    * runs the corrected forward pass: layer 1 is
      ``quantize_rate(clip(drive + c, 0, 1), T)``, each later layer the
      same of ``rate_activation([r, 1] @ W) + c`` (the ``1`` only with
      ``bias_unit``), and the output is masked.

    Every product is the sum of the rows of its matrix over the nonzero
    inputs, each row times its input, in row order from +0.0 with the
    bias unit's row last — the spike path's rule, which a C loop and the
    NumPy reference both reproduce where a BLAS product's order is not
    defined.

    Given an ``update``, the weights are then updated in place with the
    IEEE operations of ``WeightUpdater.apply`` (per sample, ``B = 1``)
    or ``apply_batch(..., reduction="mean")``: ``delta_w`` /
    ``delta_w_batch`` of the phase-1 and phase-2 rates, the presynaptic
    rates being ``update.pre`` for layer 0 and ``h`` above it (with the
    bias unit's 1), then ``w + dw`` and ``quantize_weights``.  Its
    stochastic rounding draws ``rng.random`` once per weight matrix, in
    layer order, ``w.size`` uniforms each, as ``quantize_weights`` does,
    after every operand is checked.

    ``weights`` and ``feedback`` are :class:`ArrayTable` bindings
    (:func:`array_table`) of the weight and feedback matrices.  Every
    array is checked against ``dims`` on every call, before its address
    reaches the backend: one that is not a C-contiguous array of the
    right dtype and shape, or a read-only weight given an update, raises
    ``TypeError``, as does a ``weights`` or ``feedback`` that is not a
    table; a wrong number of rate, weight or feedback arrays, a label out
    of range or an update that does not fit the block raises
    ``ValueError``.  Raises ``NotImplementedError`` when the active
    backend has no fused loop (see :func:`backend_provides`).
    """
    if not backend_provides("rate_phase2"):
        raise NotImplementedError(
            f"kernel backend {_active_name!r} has no fused rate_phase2; "
            f"use repro.core.network.rate_phase2_reference instead")
    dims = tuple(map(int, dims))
    n_layers = len(dims) - 1
    if n_layers < 1 or min(dims) < 1 or int(iterations) < 0 \
            or not float(T) > 0:
        raise ValueError(f"need dims of >= 2 positive sizes, T > 0 and "
                         f"iterations >= 0, got {dims}, {T} and {iterations}")
    _operand("drive", drive, _F64, (None, dims[1]))
    batch = len(drive)
    for name, table in (("weights", weights), ("feedback", feedback)):
        if not isinstance(table, ArrayTable):
            raise TypeError(f"{name} must be an ArrayTable "
                            f"(kernels.array_table), got {type(table)}")
    for name, arrays, count in (
            ("rate", h, n_layers), ("weight", weights.arrays, n_layers),
            ("feedback", feedback.arrays, n_layers - 1)):
        if len(arrays) != count:
            raise ValueError(f"{len(arrays)} {name} arrays for {n_layers} "
                             f"layers")
    for k, r in enumerate(h):
        _operand(f"h[{k}]", r, _F64, (batch, dims[k + 1]))
    for i, w in enumerate(weights.arrays):
        _operand(f"weights[{i}]", w, _F64,
                 (dims[i] + bool(bias_unit), dims[i + 1]))
    _operand("class_mask", class_mask, np.bool_, (dims[-1],))
    _operand("labels", labels, _I64, (batch,))
    if not _labels_in_range(labels, dims[-1]):
        raise ValueError(f"labels must be in [0, {dims[-1]}), got "
                         f"{labels.min()} to {labels.max()}")
    for i, b in enumerate(feedback.arrays):
        _operand(f"feedback[{i}]", b, _F64,
                 (dims[i + 2] if fa else dims[-1], dims[i + 1]))
    mode, pre, rounding, step, levels, uniforms = 0, None, 0, 1.0, 0.0, None
    clip = float("inf")
    if update is not None:
        _operand("update.pre", update.pre, _F64, (batch, dims[0]))
        if update.mean and not batch:
            raise ValueError("cannot mean-reduce an empty batch")
        if not update.mean and batch != 1:
            raise ValueError(f"a per-sample update takes one sample, got "
                             f"a block of {batch}")
        for i, w in enumerate(weights.arrays):
            if not w.flags.writeable:
                raise TypeError(f"weights[{i}] is read-only; the update "
                                f"writes into it")
        if update.bits is not None:
            if update.clip is None:
                raise ValueError("quantization requires a clip range")
            step = quant_step(update.bits, update.clip)
            levels = float(2 ** (update.bits - 1) - 1)
            rounding = (_ROUND_NEAREST if update.rng is None
                        else _ROUND_STOCHASTIC)
        if update.clip is not None:
            clip = float(update.clip)
        mode, pre = 1 + bool(update.mean), _address(update.pre)
        if rounding == _ROUND_STOCHASTIC:
            sizes = np.cumsum([0] + [w.size for w in weights.arrays])
            uniforms = np.empty(sizes[-1])
            for lo, hi in zip(sizes, sizes[1:]):
                update.rng.random(out=uniforms[lo:hi])
    rates, rates_addr = _address_table(h)  # ``rates`` lives through the call
    _, dims_addr, size, parts = _rate_layout(dims, batch)
    out = np.empty(size)
    _impl().rate_phase2(
        n_layers, dims_addr, float(T), int(iterations), batch,
        _address(drive), rates_addr, weights.address, feedback.address,
        _address(class_mask), _address(labels), int(bool(bias_unit)),
        int(bool(fa)), int(bool(gate_hidden)), float(error_gain),
        _address(out), mode, pre,
        float(update.eta) if update is not None else 0.0, clip, rounding,
        step, levels, None if uniforms is None else _address(uniforms))
    return [out[lo:hi].reshape(shape) for lo, hi, shape in parts]


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
sum_of_products = _obs.kernel_profiler.wrap("sum_of_products",
                                            sum_of_products)
network_run = _obs.kernel_profiler.wrap("network_run", network_run)
microcode_epoch = _obs.kernel_profiler.wrap("microcode_epoch",
                                            microcode_epoch)
spike_present = _obs.kernel_profiler.wrap("spike_present", spike_present)
rate_phase2 = _obs.kernel_profiler.wrap("rate_phase2", rate_phase2)
