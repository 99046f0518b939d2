"""``cext`` kernel backend: C kernels compiled once and loaded via ctypes.

On first import the embedded C source (:mod:`._csrc`) is compiled with the
system C compiler into a shared library cached under
``$REPRO_KERNEL_CACHE`` (default ``$XDG_CACHE_HOME/repro-kernels``, falling
back to ``~/.cache/repro-kernels``).  The cache key hashes the source, the
compiler, the flags and the host CPU (``-march=native`` builds for the
build host's instruction set, and a library loaded on an older CPU would
die of SIGILL, which no ``ImportError`` fallback can catch), so changing
any of them rebuilds.  Concurrent builders (e.g. several worker processes
importing at once) race benignly: the ``.c`` and the ``.so`` are each
written to a temporary file and moved into place with an atomic
``os.replace``.

Any failure — no compiler, compilation error, unloadable library — raises
``ImportError`` so the selection chain in :mod:`repro.core.kernels` can
fall through to the next backend.

Calls release the GIL while the C loop runs (plain ctypes semantics), which
lets the sharded Loihi runtime's thread pool overlap per-step shard work
for real.
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
    key = "|".join((str(SOURCE_VERSION), cc, " ".join(flags), cpu, SOURCE))
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


def _build() -> ctypes.CDLL:
    cc = _find_compiler()
    cpu = _cpu_fingerprint()
    # Try the optimized flag set first; a compiler that rejects any of
    # OPT_FLAGS (old gcc, non-x86 clang spellings, ...) falls back to the
    # portable baseline.  The cache key hashes the exact flags used, so
    # the two variants never collide.
    last_error = None
    for flags in (CFLAGS + OPT_FLAGS, CFLAGS):
        lib_path = _lib_path(cc, flags, cpu)
        cache = lib_path.parent
        if not lib_path.exists():
            try:
                cache.mkdir(parents=True, exist_ok=True)
                src_path = lib_path.with_suffix(".c")
                _write_atomic(src_path, SOURCE)
                fd, tmp_path = tempfile.mkstemp(dir=cache, suffix=".so")
                os.close(fd)
                try:
                    proc = subprocess.run(
                        [cc, *flags, "-o", tmp_path, str(src_path)],
                        capture_output=True, text=True)
                    if proc.returncode != 0:
                        last_error = (
                            f"kernel C compilation failed ({cc} "
                            f"{' '.join(flags)}): {proc.stderr}")
                        continue
                    os.replace(tmp_path, lib_path)
                finally:
                    if os.path.exists(tmp_path):
                        os.unlink(tmp_path)
            except OSError as exc:
                raise ImportError(
                    f"could not build the 'cext' kernel backend: {exc}"
                ) from exc
        try:
            return ctypes.CDLL(str(lib_path))
        except OSError as exc:
            raise ImportError(
                f"could not load compiled kernels from {lib_path}: {exc}"
            ) from exc
    raise ImportError(last_error or "could not build the 'cext' backend")


_lib = _build()

_c_double = ctypes.c_double
_c_int = ctypes.c_int
_c_int64 = ctypes.c_int64
_c_ssize = ctypes.c_ssize_t
_ptr = ctypes.c_void_p

for _name, _argtypes in {
    "if_step_f64": [_ptr, _ptr, _ptr, _c_double, _c_int, _c_int64, _ptr,
                    _c_ssize],
    "if_step_f32": [_ptr, _ptr, _ptr, _c_double, _c_int, _c_int64, _ptr,
                    _c_ssize],
    "cuba_step_i64": [_ptr, _ptr, _ptr, _ptr, _ptr, _c_int64, _c_int64,
                      _c_int64, _c_int, _c_int64, _c_int, _c_int, _ptr,
                      _c_ssize],
    "trace_update_f64": [_ptr, _ptr, _c_double, _c_double, _c_double,
                         _c_ssize],
    "trace_update_f32": [_ptr, _ptr, _c_double, _c_double, _c_double,
                         _c_ssize],
    "delta_w_f64": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize, _c_ssize],
    "delta_w_f32": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize, _c_ssize],
    "delta_w_batch_f64": [_ptr, _ptr, _ptr, _c_double, _c_int, _ptr,
                          _c_ssize, _c_ssize, _c_ssize],
    "delta_w_batch_f32": [_ptr, _ptr, _ptr, _c_double, _c_int, _ptr,
                          _c_ssize, _c_ssize, _c_ssize],
    "delta_w_loihi_f64": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize,
                          _c_ssize],
    "delta_w_loihi_f32": [_ptr, _ptr, _ptr, _c_double, _ptr, _c_ssize,
                          _c_ssize],
    "sop_eval_f64": [_ptr, _ptr, _ptr, _ptr, _ptr, _c_ssize, _ptr, _ptr,
                     _ptr, _ptr, _c_ssize, _c_ssize, _c_ssize],
    "network_run_i64": [_c_int64, _c_int64, _c_ssize, _ptr, _ptr, _ptr,
                        _c_ssize, _ptr, _ptr, _ptr, _ptr, _c_double],
}.items():
    _fn = getattr(_lib, _name)
    _fn.argtypes = _argtypes
    _fn.restype = _c_int if _name == "network_run_i64" else None


def _p(a: np.ndarray):
    return a.ctypes.data_as(_ptr)


def _float_fn(stem: str, dtype):
    return getattr(_lib, f"{stem}_f64" if dtype == np.float64
                   else f"{stem}_f32")


# -- backend interface (flat arrays; normalization done by the package) ----

def if_step(v, refrac, drive, threshold, soft_reset, refractory):
    spikes = np.empty(v.size, dtype=bool)
    _float_fn("if_step", v.dtype)(
        _p(v), _p(refrac), _p(drive), threshold, int(soft_reset),
        refractory, _p(spikes), v.size)
    return spikes


def cuba_step(u, v, refrac, bias, syn, decay_u, decay_v, vth, soft_reset,
              refractory, floor_at_zero, non_spiking):
    fired = np.empty(v.size, dtype=bool)
    _lib.cuba_step_i64(
        _p(u), _p(v), _p(refrac), _p(bias), _p(syn), decay_u, decay_v, vth,
        int(soft_reset), refractory, int(floor_at_zero), int(non_spiking),
        _p(fired), v.size)
    return fired


def trace_update(values, spikes, impulse, decay, trace_max):
    _float_fn("trace_update", values.dtype)(
        _p(values), _p(spikes), impulse, decay, trace_max, values.size)


def delta_w(h_hat, h, pre, eta):
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _float_fn("delta_w", h_hat.dtype)(
        _p(h_hat), _p(h), _p(pre), eta, _p(dw), pre.size, h_hat.size)
    return dw


def delta_w_batch(h_hat, h, pre, eta, mean):
    nb, nj = h_hat.shape
    ni = pre.shape[1]
    dw = np.empty((ni, nj), dtype=h_hat.dtype)
    _float_fn("delta_w_batch", h_hat.dtype)(
        _p(h_hat), _p(h), _p(pre), eta, int(mean), _p(dw), nb, ni, nj)
    return dw


def delta_w_loihi(h_hat, z, pre, eta):
    dw = np.empty((pre.size, h_hat.size), dtype=h_hat.dtype)
    _float_fn("delta_w_loihi", h_hat.dtype)(
        _p(h_hat), _p(z), _p(pre), eta, _p(dw), pre.size, h_hat.size)
    return dw


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    dz = np.empty((n_rep, n_src, n_dst), dtype=np.float64)
    _lib.sop_eval_f64(
        _p(scales), _p(offs), _p(kinds), _p(idxs), _p(consts), len(scales),
        _p(pre_stack), _p(post_stack), _p(syn_stack), _p(dz),
        n_rep, n_src, n_dst)
    return dz


def network_run(steps, replicas, groups, group_arrays, conns, conn_traces,
                conn_arrays, group_spikes, conn_events, trace_max):
    status = _lib.network_run_i64(
        steps, replicas, len(groups), groups.ctypes.data,
        group_arrays.ctypes.data, group_spikes.ctypes.data, len(conns),
        conns.ctypes.data, conn_traces.ctypes.data, conn_arrays.ctypes.data,
        conn_events.ctypes.data, trace_max)
    if status == -2:
        raise ValueError("network tables hold an out-of-range size, group "
                         "index or mask stride, or a null address")
    if status:
        raise MemoryError("network_run could not allocate its scratch "
                          "buffers")
