"""Table layouts of :func:`repro.core.kernels.network_run` and
:func:`repro.core.kernels.microcode_epoch`.

One definition for both sides of each call: the package re-exports these
tuples (the runtime derives its column indices from them) and
:mod:`._csrc` generates the C loops' column enums from them, so the two
cannot disagree.  Every address points at a C-contiguous array holding
one row or block per network replica, ``R = 1`` included; only a static
connection's weights and a shared mask are one block for all replicas.
"""

#: Columns of :func:`network_run`'s int64 group table.  ``gate`` and
#: ``merge`` are group indices (-1 for none); ``mask_stride`` is 0 for one
#: ``(n,)`` mask shared by every replica, ``n`` for an ``(R, n)`` mask.
NETWORK_GROUP_FIELDS = (
    "n", "vth", "floor_at_zero", "non_spiking", "gate", "merge", "enabled",
    "mask_stride")

#: Columns of the group address table: int64 ``v``, ``bias`` and
#: ``spike_count``, bool ``spikes`` (all ``R * n``, C order) and the bool
#: ``mask``.
NETWORK_GROUP_ARRAYS = ("v", "bias", "spikes", "spike_count", "mask")

#: Columns of the int64 connection table.  A ``plastic`` connection holds
#: one ``(S, D)`` weight block per replica, ``(R, S, D)``, and counts
#: traces; a static one's single ``(S, D)`` block serves every replica.
NETWORK_CONN_FIELDS = ("src", "dst", "weight_scale", "plastic")

#: Columns of the connection address table: int64 weights and the int64
#: pre/post trace registers (ignored for static connections).
NETWORK_CONN_ARRAYS = ("weight", "pre_trace", "post_trace")

#: Columns of :func:`microcode_epoch`'s int64 connection table: the
#: synaptic block's size and the connection's ``[rule_lo, rule_hi)`` slice
#: of the rule table.
MICROCODE_CONN_FIELDS = ("n_src", "n_dst", "rule_lo", "rule_hi")

#: Columns of its address table, one row per connection: the bool source
#: and destination spikes (``x0``, ``y0``) and int64 pre and post trace
#: registers (``x1``, ``y1``), all ``R * n``; the int64 tag and weight
#: blocks (``R * S * D``), written in place.
MICROCODE_CONN_ARRAYS = ("src_spikes", "pre_trace", "dst_spikes",
                         "post_trace", "tag", "weight")

#: Columns of its int64 rule table: the target (0 = ``w``, 1 = ``t``),
#: the rule's ``[term_lo, term_hi)`` slice of the term arrays and
#: ``integer``, 1 when every term scale and factor constant of the rule is
#: an integer, so its ``dz`` is one and rounding it draws no uniform.
MICROCODE_RULE_FIELDS = ("target", "term_lo", "term_hi", "integer")
