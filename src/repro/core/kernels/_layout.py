"""Table layout of :func:`repro.core.kernels.network_run`.

One definition for both sides of the call: the package re-exports these
tuples (the runtime derives its column indices from them) and
:mod:`._csrc` generates the C loop's column enums from them, so the two
cannot disagree.
"""

#: Columns of :func:`network_run`'s int64 group table.  ``gate`` and
#: ``merge`` are group indices (-1 for none); ``mask_stride`` is 0 for one
#: ``(n,)`` mask shared by every replica, ``n`` for an ``(R, n)`` mask.
NETWORK_GROUP_FIELDS = (
    "n", "decay_u", "decay_v", "vth", "soft_reset", "refractory",
    "floor_at_zero", "non_spiking", "gate", "merge", "enabled",
    "mask_stride")

#: Columns of the group address table: int64 ``u``, ``v``, ``refrac``,
#: ``bias`` and ``spike_count``, bool ``spikes`` (all ``R * n``, C order)
#: and the bool ``mask``.
NETWORK_GROUP_ARRAYS = (
    "u", "v", "refrac", "bias", "spikes", "spike_count", "mask")

#: Columns of the int64 connection table.  ``per_replica`` marks an
#: ``(R, S, D)`` weight block; otherwise one ``(S, D)`` block serves every
#: replica.
NETWORK_CONN_FIELDS = ("src", "dst", "weight_scale", "per_replica",
                       "plastic")

#: Columns of the float64 connection trace table (plastic connections).
NETWORK_CONN_TRACE_FIELDS = ("pre_impulse", "pre_decay", "post_impulse",
                             "post_decay")

#: Columns of the connection address table: int64 weights and the float64
#: pre/post trace values (ignored for static connections).
NETWORK_CONN_ARRAYS = ("weight", "pre_trace", "post_trace")
