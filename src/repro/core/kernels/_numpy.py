"""Pure-NumPy kernel backend — the bit-exact reference implementation.

Every other backend is pinned to this one by ``tests/test_kernels.py``
(exact ``array_equal``, never ``allclose``).  All operations are elementwise
IEEE-754 (or exact integer) arithmetic in a defined per-element order, so a
compiled loop performing the same operations reproduces the results bit for
bit.  Reductions are therefore written with an explicit order: the batched
Eq. (7) kernel accumulates per-sample outer products in batch order rather
than delegating to a BLAS GEMM, whose blocked summation order is
unspecified and unreproducible from a plain loop.

Every floating-point kernel is float64 only, and every operand arrives
checked: a C-contiguous array of the kernel's dtype and shape.
"""

from __future__ import annotations

import numpy as np


def if_step(v, drive):
    v += drive
    # The epsilon margin keeps grid-exact drives (e.g. 0.3 over 100 steps)
    # from losing a spike to float accumulation error.
    spikes = v >= 1.0 - 1e-9
    np.subtract(v, 1.0, out=v, where=spikes)
    np.clip(v, 0, None, out=v)
    return spikes


def cuba_step(v, bias, syn, vth, floor_at_zero, non_spiking):
    v += syn
    v += bias
    if floor_at_zero:
        np.clip(v, 0, None, out=v)
    if non_spiking:
        return np.zeros(v.shape, dtype=bool)
    fired = v >= vth
    np.subtract(v, vth, out=v, where=fired)
    return fired


def trace_update(values, spikes, trace_max):
    values += spikes
    np.minimum(values, trace_max, out=values)


def delta_w(h_hat, h, pre, eta):
    diff = h_hat - h
    return eta * (pre[:, None] * diff[None, :])


def delta_w_batch(h_hat, h, pre, eta, mean):
    nb = h_hat.shape[0]
    diff = h_hat - h
    acc = np.zeros((pre.shape[1], h_hat.shape[1]))
    for b in range(nb):
        acc += pre[b][:, None] * diff[b][None, :]
    dw = eta * acc
    if mean:
        dw = dw / nb
    return dw


def sop_eval(scales, offs, kinds, idxs, consts, pre_stack, post_stack,
             syn_stack, n_rep, n_src, n_dst):
    pre = pre_stack.reshape(-1, n_rep, n_src)
    post = post_stack.reshape(-1, n_rep, n_dst)
    syn = syn_stack.reshape(-1, n_rep, n_src, n_dst)
    dz = np.zeros((n_rep, n_src, n_dst), dtype=np.float64)
    for t in range(len(scales)):
        value = np.float64(scales[t])
        for f in range(offs[t], offs[t + 1]):
            kind = kinds[f]
            if kind == 0:
                base = pre[idxs[f]][:, :, None]
            elif kind == 1:
                base = post[idxs[f]][:, None, :]
            elif kind == 2:
                base = syn[idxs[f]]
            else:
                base = np.float64(0.0)
            value = value * (base + consts[f])
        dz = dz + value
    return dz
