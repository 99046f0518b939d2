"""REP002 fixture: the public API, used the supported ways."""
from repro.core import kernels
from repro.core.kernels import delta_w, if_step, kernel_backend


def public_calls(v, drive):
    kernels.if_step(v, drive)
    return if_step(v, drive)


def public_update(h_hat, h, pre):
    with kernels.forced_backend("numpy"):
        return delta_w(h_hat, h, pre, 0.125)


def introspection():
    return kernel_backend()
