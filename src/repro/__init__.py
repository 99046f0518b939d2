"""repro — reproduction of "In-Hardware Learning of Multilayer Spiking
Neural Networks on a Neuromorphic Processor" (DAC 2021).

Subpackages
-----------
``repro.core``
    The EMSTDP algorithm (full-precision reference implementation).
``repro.loihi``
    A Loihi-like core-based neuromorphic chip simulator: CUBA compartments,
    8-bit synapses, trace counters, a sum-of-products microcode learning
    engine, core mapping, and an energy model.
``repro.onchip``
    EMSTDP built on top of the chip simulator under hardware constraints.
``repro.models``
    Offline CNN substrate for pretraining the convolutional frontend and the
    topology spec parser.
``repro.data``
    Synthetic stand-ins for MNIST / Fashion-MNIST / CIFAR-10 / MSTAR.
``repro.incremental``
    The two-step incremental online learning protocol of Section IV-B.
``repro.baselines``
    Analytic CPU/GPU cost models and a true-backprop ANN reference.
``repro.analysis``
    Metrics, trade-off sweeps and table formatting for the benchmarks.
``repro.persist``
    Versioned checkpoint save/load (npz arrays + JSON manifest) for every
    trainable model.
``repro.experiments``
    Config-driven experiment orchestration: declarative specs, a seed
    fan-out runner, and a ``runs/`` store; drives ``python -m repro``.
``repro.sweeps``
    Sweep orchestration over the experiment runner: grid/random axes,
    resumable multi-point execution, a ``runs/sweeps/`` index; drives
    ``python -m repro sweep``.
``repro.serve``
    Micro-batching inference service: model registry with hot-swap,
    prediction cache, HTTP endpoint, telemetry, and a load-test harness;
    drives ``python -m repro serve``.
``repro.obs``
    Zero-dependency observability: labeled metrics, durable JSONL span
    traces next to run artifacts, sampled kernel profiling, and Prometheus
    text exposition; drives ``python -m repro trace``.
"""

import os


def _pin_blas_threads() -> None:
    """Run NumPy's bundled OpenBLAS on one thread unless the environment
    sets a count (``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``).

    OpenBLAS starts one thread per CPU, but processes are this package's
    unit of parallelism (experiment, sweep and cluster workers), so more
    BLAS threads only oversubscribe the cores: on a 2-vCPU host, rate
    ``predict_batch`` at (64, 128, 10) and B = 256 takes ~31 us per
    sample with two threads and ~2.3 us with one.  Warns and carries on
    when the library or its thread-count symbol is not there (a NumPy
    built on another BLAS).
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") \
            or os.environ.get("OMP_NUM_THREADS"):
        return
    import ctypes
    import glob
    import warnings

    import numpy

    libs = sorted(glob.glob(os.path.join(
        os.path.dirname(numpy.__file__) + ".libs", "libscipy_openblas64_*")))
    try:
        set_threads = ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        warnings.warn(
            "repro could not pin BLAS to one thread: NumPy's bundled "
            "OpenBLAS (scipy_openblas_set_num_threads64_) was not found; "
            "set OPENBLAS_NUM_THREADS=1 to keep BLAS threads from "
            "oversubscribing the cores", RuntimeWarning, stacklevel=2)
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


_pin_blas_threads()

try:  # installed package: single source of truth is the distribution metadata
    from importlib.metadata import version as _dist_version

    __version__ = _dist_version("emstdp-repro")
except Exception:  # running from a source tree (PYTHONPATH=src)
    __version__ = "1.0.0"

from . import (analysis, baselines, core, data, experiments, incremental,
               loihi, models, obs, onchip, persist, serve, sweeps)
from .seeding import as_rng

__all__ = ["analysis", "baselines", "core", "data", "experiments",
           "incremental", "loihi", "models", "obs", "onchip", "persist",
           "serve", "sweeps", "as_rng", "__version__"]
