"""Importing ``repro`` runs NumPy's bundled OpenBLAS on one thread, unless
the environment sets a thread count itself."""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
LIBS = sorted(glob.glob(os.path.join(
    os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*")))


def _has_thread_symbols() -> bool:
    try:
        lib = ctypes.CDLL(LIBS[0])
        lib.scipy_openblas_get_num_threads64_
        lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return False
    return True


pytestmark = pytest.mark.skipif(
    not _has_thread_symbols(),
    reason="NumPy's bundled OpenBLAS thread-count symbols are absent")

#: Prints OpenBLAS's thread count, after ``import repro`` when argv[2] is 1.
PROBE = """
import ctypes, sys
import numpy
get_threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
get_threads.argtypes, get_threads.restype = [], ctypes.c_int
if sys.argv[2] == "1":
    import repro
print(get_threads())
"""


def threads(import_repro: bool, **env_vars) -> int:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_vars, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, LIBS[0], str(int(import_repro))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "could not pin BLAS" not in proc.stderr
    return int(proc.stdout.strip())


def test_import_pins_one_thread():
    assert threads(True) == 1


def test_thread_count_set_by_the_user_is_kept():
    if threads(False, OPENBLAS_NUM_THREADS="2") != 2:
        pytest.skip("OpenBLAS caps the thread count at this host's one CPU")
    assert threads(True, OPENBLAS_NUM_THREADS="2") == 2
    assert threads(True, OMP_NUM_THREADS="2") == 2
