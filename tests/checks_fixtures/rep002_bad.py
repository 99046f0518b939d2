"""REP002 fixture: backend imports + a kernel reimplementation (5)."""
from repro.core.kernels import _numpy
from repro.core.kernels._numpy import delta_w_dense
from .kernels import _cext

import repro.core.kernels._csrc


def delta_w(h_hat, h, pre, eta):
    # A reimplementation of the public kernel signature: never re-pinned
    # against the golden fixtures, so it *will* drift.
    return eta * (h_hat - h)[None, :] * pre[:, None]
