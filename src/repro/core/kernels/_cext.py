"""``cext`` kernel backend: C kernels compiled once and loaded via ctypes.

On first import the embedded C source (:mod:`._csrc`) is compiled with the
system C compiler into a shared library cached under
``$REPRO_KERNEL_CACHE`` (default ``$XDG_CACHE_HOME/repro-kernels``, falling
back to ``~/.cache/repro-kernels``).  The cache key hashes the source, the
compiler, the flags and the host CPU (``-march=native`` builds for the
build host's instruction set, and a library loaded on an older CPU would
die of SIGILL, which no ``ImportError`` fallback can catch), so changing
any of them rebuilds.  An import whose library is already cached, for
either flag set, loads it without starting the compiler.  Concurrent
builders (e.g. several worker processes importing at once) race benignly:
the ``.c`` and the ``.so`` are each written to a temporary file and moved
into place with an atomic ``os.replace``, and the ``.c`` of a rejected
flag set is removed.

Every floating-point kernel is float64 only; :mod:`repro.core.kernels`
checks each operand before it reaches this module.

Any failure — no compiler, compilation error, unloadable library — raises
``ImportError`` so the selection chain in :mod:`repro.core.kernels` can
fall through to the next backend.

Calls release the GIL while the C loop runs (plain ctypes semantics), so
other Python threads, such as a server's request handlers, keep running
during a long fused call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ._csrc import SOURCE, SOURCE_VERSION

#: No value-changing optimizations: ``-ffp-contract=off`` forbids FMA
#: contraction, which would round differently from the NumPy reference and
#: break bit-identity (see tests/test_kernels.py).  ``-fno-trapping-math``
#: only licenses transformations that may change *FP exception flags*
#: (which nothing here inspects), never computed values; without it gcc
#: refuses to if-convert the speculative ``v - threshold`` in the spike
#: blend and the hot loops stay scalar.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math",
          "-fno-trapping-math")

#: Preferred extra flags, dropped if the compiler rejects them.
#: ``-march=native`` widens the vector unit (the baseline x86-64 SSE2
#: target cannot vectorize the float-compare-to-uint8 spike stores at
#: all); lane-wise SIMD performs the same IEEE operations as the scalar
#: loop, and FMA contraction stays forbidden, so results are unchanged.
OPT_FLAGS = ("-march=native",)

#: Libraries linked after the source.  ``floor`` and ``nearbyint`` are
#: calls into libm wherever the target has no rounding instruction (the
#: baseline x86-64 build without ``-march=native``).
LDLIBS = ("-lm",)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-kernels"


def _find_compiler() -> str:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    raise ImportError(
        "no C compiler (cc/gcc/clang or $CC) found for the 'cext' kernel "
        "backend")


#: /proc/cpuinfo keys naming the CPU model and its instruction-set
#: extensions (x86 and ARM spellings).
_CPUINFO_KEYS = ("vendor_id", "model name", "flags", "CPU implementer",
                 "CPU part", "Features")


def _cpu_fingerprint() -> str:
    """Digest of the host CPU's model and instruction-set extensions.

    Read from the first processor block of ``/proc/cpuinfo`` where it
    exists (Linux), plus the machine name everywhere.  (Not
    ``platform.processor()``: on Linux it runs ``uname -p`` in a child
    process on every import.)
    """
    parts = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    if len(parts) > 1:
                        break
                    continue
                if line.split(":", 1)[0].strip() in _CPUINFO_KEYS:
                    parts.append(line.strip())
    except OSError:
        pass
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _lib_path(cc: str, flags, cpu: str) -> Path:
    """Cache path of the library built by ``cc flags`` for CPU ``cpu``."""
    key = "|".join((str(SOURCE_VERSION), cc, " ".join(flags + LDLIBS), cpu,
                    SOURCE))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{digest}.so"


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp_path = tempfile.mkstemp(dir=path.parent, suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _compile(cc: str, builds) -> Path:
    """Build the first ``(flags, lib_path)`` the compiler accepts; return
    its library path.  A rejected attempt leaves no file behind."""
    last_error = None
    for flags, lib_path in builds:
        cache = lib_path.parent
        src_path = lib_path.with_suffix(".c")
        try:
            cache.mkdir(parents=True, exist_ok=True)
            _write_atomic(src_path, SOURCE)
            fd, tmp_path = tempfile.mkstemp(dir=cache, suffix=".so")
            os.close(fd)
            try:
                proc = subprocess.run(
                    [cc, *flags, "-o", tmp_path, str(src_path), *LDLIBS],
                    capture_output=True, text=True)
                if proc.returncode == 0:
                    os.replace(tmp_path, lib_path)
                    return lib_path
                # Another process may have removed it already.
                src_path.unlink(missing_ok=True)
                last_error = (f"kernel C compilation failed ({cc} "
                              f"{' '.join(flags)}): {proc.stderr}")
            finally:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
        except OSError as exc:
            raise ImportError(
                f"could not build the 'cext' kernel backend: {exc}") from exc
    raise ImportError(last_error or "could not build the 'cext' backend")


def _build() -> ctypes.CDLL:
    cc = _find_compiler()
    cpu = _cpu_fingerprint()
    # The optimized flag set first; a compiler that rejects any of
    # OPT_FLAGS (old gcc, non-x86 clang spellings, ...) falls back to the
    # portable baseline.  The cache key hashes the exact flags used, so
    # the two variants never collide.  Every candidate's library is looked
    # for before any compile, so a process whose library is cached starts
    # no compiler, even where the optimized attempt was rejected.
    builds = [(flags, _lib_path(cc, flags, cpu))
              for flags in (CFLAGS + OPT_FLAGS, CFLAGS)]
    lib_path = next((path for _, path in builds if path.exists()), None)
    if lib_path is None:
        lib_path = _compile(cc, builds)
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise ImportError(
            f"could not load compiled kernels from {lib_path}: {exc}"
        ) from exc


_lib = _build()

_c_double = ctypes.c_double
_c_int = ctypes.c_int
_c_int64 = ctypes.c_int64
_c_ssize = ctypes.c_ssize_t
_ptr = ctypes.c_void_p

for _name, _argtypes in {
    "if_step_f64": [_ptr, _ptr, _ptr, _c_ssize],
    "cuba_step_i64": [_ptr, _ptr, _ptr, _c_int64, _c_int, _c_int, _ptr,
                      _c_ssize],
    "trace_update_i64": [_ptr, _ptr, _c_int64, _c_ssize],
    "delta_w_f64": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize, _c_ssize],
    "delta_w_batch_f64": [_ptr, _ptr, _ptr, _c_double, _c_int, _ptr,
                          _c_ssize, _c_ssize, _c_ssize],
    "sop_eval_f64": [_ptr, _ptr, _ptr, _ptr, _ptr, _c_ssize, _ptr, _ptr,
                     _ptr, _ptr, _c_ssize, _c_ssize, _c_ssize],
    "network_run_i64": [_c_int64, _c_int64, _c_ssize, _ptr, _ptr, _ptr,
                        _c_ssize, _ptr, _ptr, _ptr, _c_int64],
    "spike_present_f64": [_c_ssize, _ptr, _c_int64, _c_ssize, _ptr, _ptr,
                          _ptr, _ptr, _ptr, _c_int, _c_int, _c_int,
                          _c_double, _ptr, _ptr],
    "microcode_epoch_i64": [_c_int64, _c_ssize, _ptr, _ptr, _c_ssize, _ptr,
                            _c_ssize, _ptr, _ptr, _c_ssize, _ptr, _ptr, _ptr,
                            _ptr, _c_ssize, _c_int64, _c_int64],
    "rate_phase2_f64": [_c_ssize, _ptr, _c_double, _c_int64, _c_ssize, _ptr,
                        _ptr, _ptr, _ptr, _ptr, _ptr, _c_int, _c_int, _c_int,
                        _c_double, _ptr, _c_int, _ptr, _c_double, _c_double,
                        _c_int, _c_double, _c_double, _ptr],
}.items():
    _fn = getattr(_lib, _name)
    _fn.argtypes = _argtypes
    _fn.restype = (_c_int if _name in ("network_run_i64", "spike_present_f64",
                                       "microcode_epoch_i64",
                                       "rate_phase2_f64")
                   else None)


# -- backend interface (operands checked by the package) --------------------

def if_step(v, drive):
    spikes = np.empty(v.shape, dtype=bool)
    _lib.if_step_f64(v.ctypes.data, drive.ctypes.data, spikes.ctypes.data,
                     v.size)
    return spikes


def cuba_step(v, bias, syn, vth, floor_at_zero, non_spiking):
    fired = np.empty(v.shape, dtype=bool)
    _lib.cuba_step_i64(v.ctypes.data, bias.ctypes.data, syn.ctypes.data, vth,
                       int(floor_at_zero), int(non_spiking),
                       fired.ctypes.data, v.size)
    return fired


def trace_update(values, spikes, trace_max):
    _lib.trace_update_i64(values.ctypes.data, spikes.ctypes.data, trace_max,
                          values.size)


def delta_w(h_hat, h, pre, eta):
    dw = np.empty((pre.size, h_hat.size))
    _lib.delta_w_f64(h_hat.ctypes.data, h.ctypes.data, pre.ctypes.data, eta,
                     dw.ctypes.data, pre.size, h_hat.size)
    return dw


def delta_w_batch(h_hat, h, pre, eta, mean):
    nb, nj = h_hat.shape
    ni = pre.shape[1]
    dw = np.empty((ni, nj))
    _lib.delta_w_batch_f64(h_hat.ctypes.data, h.ctypes.data, pre.ctypes.data,
                           eta, int(mean), dw.ctypes.data, nb, ni, nj)
    return dw


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    dz = np.empty((n_rep, n_src, n_dst), dtype=np.float64)
    _lib.sop_eval_f64(
        scales.ctypes.data, offs.ctypes.data, kinds.ctypes.data,
        idxs.ctypes.data, consts.ctypes.data, len(scales),
        pre_stack.ctypes.data, post_stack.ctypes.data, syn_stack.ctypes.data,
        dz.ctypes.data, n_rep, n_src, n_dst)
    return dz


def network_run(steps, replicas, groups, group_arrays, conns, conn_arrays,
                group_spikes, conn_events, trace_max):
    status = _lib.network_run_i64(
        steps, replicas, len(groups), groups.ctypes.data,
        group_arrays.ctypes.data, group_spikes.ctypes.data, len(conns),
        conns.ctypes.data, conn_arrays.ctypes.data, conn_events.ctypes.data,
        trace_max)
    if status == -2:
        raise ValueError("network tables hold an out-of-range size, group "
                         "index or mask stride, or a null address")
    if status:
        raise MemoryError("network_run could not allocate its scratch "
                          "buffers")


def spike_present(dims, steps, drive, weights, feedback, class_mask, target,
                  fa, bias_unit, gate_hidden, error_gain, counts1, counts2):
    status = _lib.spike_present_f64(
        len(dims) - 1, dims.ctypes.data, steps, len(drive), drive.ctypes.data,
        weights.ctypes.data, feedback.ctypes.data, class_mask.ctypes.data,
        None if target is None else target.ctypes.data, int(bias_unit),
        int(fa), int(gate_hidden), error_gain, counts1.ctypes.data,
        None if counts2 is None else counts2.ctypes.data)
    if status == -2:
        raise ValueError("spike_present got a non-positive size or a null "
                         "address")
    if status:
        raise MemoryError("spike_present could not allocate its scratch "
                          "buffers")


def microcode_epoch(replicas, conns, conn_arrays, rules, scales, offs, kinds,
                    idxs, consts, uniforms, weight_max, tag_max):
    status = _lib.microcode_epoch_i64(
        replicas, len(conns), conns.ctypes.data, conn_arrays.ctypes.data,
        len(rules), rules.ctypes.data, len(scales), scales.ctypes.data,
        offs.ctypes.data, len(kinds), kinds.ctypes.data, idxs.ctypes.data,
        consts.ctypes.data, None if uniforms is None else uniforms.ctypes.data,
        0 if uniforms is None else uniforms.shape[1], weight_max, tag_max)
    if status == -2:
        raise ValueError("microcode tables hold an out-of-range size, slice, "
                         "factor code or draw count, or a null address")
    if status:
        raise MemoryError("microcode_epoch could not allocate its scratch "
                          "buffers")


def rate_phase2(n_layers, dims, T, iterations, batch, drive, h, weights,
                feedback, class_mask, labels, bias_unit, fa, gate_hidden,
                error_gain, out, update, pre, eta, clip, rounding, step,
                levels, uniforms):
    """Every pointer argument arrives as an address (an int) or ``None``:
    the package reads the addresses of its bound tables once."""
    status = _lib.rate_phase2_f64(
        n_layers, dims, T, iterations, batch, drive, h, weights, feedback,
        class_mask, labels, bias_unit, fa, gate_hidden, error_gain, out,
        update, pre, eta, clip, rounding, step, levels, uniforms)
    if status == -2:
        raise ValueError("rate_phase2 got a non-positive size, a label out "
                         "of range, a bad update mode or a null address")
    if status:
        raise MemoryError("rate_phase2 could not allocate its scratch "
                          "buffers")
