"""Timestep execution engine for a declared network.

Semantics (matching a digital neuromorphic chip's barrier-synchronized
update):

1. every connection delivers the spikes its source emitted on the
   *previous* step (one-step conduction delay);
2. every compartment group integrates and fires, in declaration order —
   so an auxiliary gate compartment declared before its soma gates the
   same step's output;
3. plastic connections update their trace counters;
4. the learning engine runs only at host-triggered *learning epochs*
   (the phase boundaries of Operation Flow 1), never inside the loop.

The runtime also owns the counters (:class:`~repro.loihi.energy.RunStats`)
that the energy model turns into Table II / Fig. 3 rows.

A network of ``R`` replicas (``R = 1`` for a lone network) keeps one row
per replica in every state array, ``(R, n)``, and one block per replica
in every plastic weight and tag, ``(R, S, D)``; a static weight block is
one ``(S, D)`` shared by every replica.

Two execution paths implement these semantics.  :meth:`Runtime.step` is
the per-step reference: Python walks the groups and connections and calls
one kernel per group and trace.  :meth:`Runtime.run` advances a whole
phase; when the active kernel backend provides the fused
:func:`~repro.core.kernels.network_run` (``cext``), it is one C call over
a flattened copy of the network (:class:`_NetworkPlan`), built once per
runtime and re-bound to the host's arrays before every call.  Under the
``numpy`` backend ``run`` loops over ``step``.  Delivery is int64: the
loop sums each replica's active weight rows and scales the sum once per
destination element, where ``ConnectionGroup.propagate`` multiplies a
spike vector by the weights and scales the product, and integer sums are
exact in any order.  It reuses the per-step compartment and trace
kernels, so the two paths are bit-identical — ``tests/test_loihi_fused.py``
pins weights, spikes, counts, traces, tags and stats with ``array_equal``.

:meth:`Runtime.learning_epoch` likewise applies every plastic
connection's rule list in one :func:`~repro.core.kernels.microcode_epoch`
call under ``cext`` (:class:`_EpochPlan`, one per epoch name); under
``numpy`` it calls :meth:`~repro.loihi.microcode.LearningEngine.apply_all`
per connection, the reference the same tests pin it to, weights, tags and
generator states alike.  The reference draws one uniform per synapse for
every rule.  The fused epoch draws, in NumPy beforehand, only those of
rules that can round: a rule whose scales and constants are all integers
(the tag rule ``dt = y1``) has an integer ``dz``, which no uniform
changes, and the plan moves each stream past that rule's block instead —
with ``advance`` for a PCG64 or PCG64DXSM stream holding no buffered
32-bit half, by drawing the block for any other — so every stream ends in
the reference's state.  The fused epoch writes weights and tags in place,
so the next run's bind stays on its identity fast path.  The rest of the
host work between runs (programming biases, masks and enable flags,
resets) stays in Python: it happens a few times per sample, not every
step.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core import kernels
from ..seeding import as_rng
from .compartment import CompartmentGroup
from .energy import RunStats
from .mapping import Mapping, shard_groups
from .microcode import LearningEngine, SumOfProducts
from .sdk import Network
from .synapse import TAG_MAX, WEIGHT_MANT_MAX
from .traces import TRACE_MAX


def _replica_engine(network: Network, rng, stochastic_rounding: bool,
                    ) -> LearningEngine:
    """Build the learning engine on one rounding stream per replica.

    ``rng`` is a sequence of ``network.replicas`` generators, replica
    ``r`` rounding with ``rng[r]``; a lone generator (or seed) is a
    sequence of one.
    """
    streams = list(rng) if isinstance(rng, (list, tuple)) else [as_rng(rng)]
    if len(streams) != network.replicas:
        raise ValueError(f"got {len(streams)} rng streams for "
                         f"{network.replicas} replicas")
    return LearningEngine(rngs=streams,
                          stochastic_rounding=stochastic_rounding)


def _conforms(a, dtype, shapes) -> bool:
    """Whether the fused loop can use ``a`` in place: a C-contiguous
    ``dtype`` array of one of ``shapes``."""
    return (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.shape in shapes and a.flags.c_contiguous)


#: ``kernels.NETWORK_GROUP_ARRAYS`` column -> dtype of the
#: CompartmentGroup attribute of that name.
_GROUP_ARRAYS = {"v": np.int64, "bias": np.int64, "spikes": bool,
                 "spike_count": np.int64, "mask": bool}

#: CompartmentPrototype attributes copied into the group table.
_PROTO_FIELDS = ("vth", "floor_at_zero", "non_spiking")


def _columns(names) -> dict:
    return {name: i for i, name in enumerate(names)}


_G = _columns(kernels.NETWORK_GROUP_FIELDS)
_C = _columns(kernels.NETWORK_CONN_FIELDS)
_CA = _columns(kernels.NETWORK_CONN_ARRAYS)
_MC = _columns(kernels.MICROCODE_CONN_FIELDS)
_MR = _columns(kernels.MICROCODE_RULE_FIELDS)

#: Bit generators that step once per 64-bit output, which one float64
#: draw takes, and can jump ahead in O(log n).
_ADVANCING = (np.random.PCG64, np.random.PCG64DXSM)


def _advances(bit_generator) -> bool:
    """Whether ``bit_generator.advance(n)`` leaves the state that ``n``
    float64 draws leave.

    Only a :data:`_ADVANCING` type qualifies, and only with no 32-bit half
    buffered (a float32 or 32-bit integer draw leaves one, and its value
    stays in the state after the buffer is used): advancing clears the
    buffer where drawing keeps it.  Philox counts its advance in blocks of
    four outputs, and MT19937 and SFC64 cannot advance.
    """
    if type(bit_generator) not in _ADVANCING:
        return False
    state = bit_generator.state
    return state["has_uint32"] == 0 and state["uinteger"] == 0


class _NetworkPlan:
    """A network flattened into the tables of ``kernels.network_run``.

    Group sizes and connection endpoints are fixed when the plan is built.
    :meth:`bind` re-reads everything the host may change between runs —
    enable flags, prototypes, gate/merge links, weight scales and the state
    arrays, which ``set_bias``, ``set_weights``, ``set_class_mask`` and
    ``LearningEngine.apply_all`` replace with new objects (a fused learning
    epoch writes in place).  An
    address is re-derived only when the object behind it changed, so a
    steady-state bind costs one identity check per array.
    """

    def __init__(self, network: Network):
        self.group_objs = list(network.groups)
        self.conn_objs = list(network.connections)
        self.replicas = network.replicas
        self.index = {id(g): i for i, g in enumerate(self.group_objs)}
        n_g, n_c = len(self.group_objs), len(self.conn_objs)
        self.groups = np.zeros((n_g, len(_G)), dtype=np.int64)
        self.group_arrays = np.zeros((n_g, len(_GROUP_ARRAYS)),
                                     dtype=np.uintp)
        self.conns = np.zeros((n_c, len(_C)), dtype=np.int64)
        self.conn_arrays = np.zeros((n_c, len(_CA)), dtype=np.uintp)
        self.group_spikes = np.zeros(n_g, dtype=np.int64)
        self.conn_events = np.zeros(n_c, dtype=np.int64)
        self.groups[:, _G["gate"]] = self.groups[:, _G["merge"]] = -1
        for i, g in enumerate(self.group_objs):
            self.groups[i, _G["n"]] = g.n
        for k, conn in enumerate(self.conn_objs):
            self.conns[k, _C["src"]] = self.index[id(conn.src)]
            self.conns[k, _C["dst"]] = self.index[id(conn.dst)]
            self.conns[k, _C["plastic"]] = conn.plastic
        #: name -> the object each table entry was last derived from.
        self._group_seen = [{} for _ in self.group_objs]
        self._conn_seen = [{} for _ in self.conn_objs]

    def matches(self, network: Network) -> bool:
        return (len(network.groups) == len(self.group_objs)
                and len(network.connections) == len(self.conn_objs))

    def bind(self) -> bool:
        """Refresh the tables from the host's objects.

        Returns False, leaving the network to the per-step path, when a
        gate or merge partner lies outside the network or differs in size,
        a mask is neither ``(n,)`` nor the state shape (the per-step path
        broadcasts these; the tables cannot express them), or a state
        array is not a C-contiguous array of the kernel's dtype and the
        state shape (the loop writes the host's arrays in place and never
        replaces them).
        """
        for i, g in enumerate(self.group_objs):
            seen = self._group_seen[i]
            row = self.groups[i]
            if g.proto is not seen.get("proto"):
                seen["proto"] = g.proto
                for field in _PROTO_FIELDS:
                    row[_G[field]] = getattr(g.proto, field)
            for field, other in (("gate", g.gate_group),
                                 ("merge", g.merge_group)):
                if other is seen.get(field):
                    continue
                if other is not None:
                    if id(other) not in self.index or other.n != g.n:
                        return False
                    row[_G[field]] = self.index[id(other)]
                else:
                    row[_G[field]] = -1
                seen[field] = other
            if g.enabled is not seen.get("enabled"):
                seen["enabled"] = g.enabled
                row[_G["enabled"]] = bool(g.enabled)
            for j, name in enumerate(kernels.NETWORK_GROUP_ARRAYS):
                a = getattr(g, name)
                if a is seen.get(name):
                    continue
                shapes = ((g.n,), g.state_shape) if name == "mask" \
                    else (g.state_shape,)
                if not _conforms(a, _GROUP_ARRAYS[name], shapes):
                    return False
                if name == "mask":
                    row[_G["mask_stride"]] = g.n if a.ndim == 2 else 0
                seen[name] = a
                self.group_arrays[i, j] = a.ctypes.data
        return all(self._bind_conn(k, conn)
                   for k, conn in enumerate(self.conn_objs))

    def _bind_conn(self, k: int, conn) -> bool:
        seen = self._conn_seen[k]
        if conn.weight_scale != seen.get("weight_scale"):
            seen["weight_scale"] = conn.weight_scale
            self.conns[k, _C["weight_scale"]] = conn.weight_scale
        w = conn.weight_mant
        if w is not seen.get("weight"):
            block = ((self.replicas,) if conn.plastic else ()) \
                + (conn.src.n, conn.dst.n)
            if not _conforms(w, np.int64, (block,)):
                return False
            seen["weight"] = w
            self.conn_arrays[k, _CA["weight"]] = w.ctypes.data
        if not conn.plastic:
            return True
        for side, trace, group in (("pre", conn.pre_trace, conn.src),
                                   ("post", conn.post_trace, conn.dst)):
            values = trace.values
            if values is not seen.get(f"{side}_trace"):
                if not _conforms(values, np.int64, (group.state_shape,)):
                    return False
                seen[f"{side}_trace"] = values
                self.conn_arrays[k, _CA[f"{side}_trace"]] = \
                    values.ctypes.data
        return True

    def run(self, steps: int) -> None:
        """One ``network_run`` call; per-connection events land on the
        connections, per-group spike totals stay in :attr:`group_spikes`."""
        self.group_spikes.fill(0)
        self.conn_events.fill(0)
        kernels.network_run(steps, self.replicas, self.groups,
                            self.group_arrays, self.conns, self.conn_arrays,
                            self.group_spikes, self.conn_events, TRACE_MAX)
        for conn, events in zip(self.conn_objs, self.conn_events.tolist()):
            conn.syn_events += events


class _EpochPlan:
    """One learning epoch flattened into the tables of
    ``kernels.microcode_epoch``: its (connection, rule list) pairs, in
    connection order.

    :meth:`bind` re-derives a connection's addresses only when one of its
    arrays is a new object (``set_weights`` replaces the weights; the fused
    epoch itself writes in place), so a steady-state bind costs one
    identity check per connection.
    """

    def __init__(self, work, replicas: int):
        self.key = self._key(work)
        self.conn_objs = [conn for conn, _ in work]
        self.replicas = replicas
        self.program = kernels.microcode_program([rules for _, rules in work])
        self.conns = np.zeros((len(work), len(_MC)), dtype=np.int64)
        self.conns[:, _MC["n_src"]] = [c.src.n for c in self.conn_objs]
        self.conns[:, _MC["n_dst"]] = [c.dst.n for c in self.conn_objs]
        self.conns[:, _MC["rule_lo"]] = self.program.spans[:, 0]
        self.conns[:, _MC["rule_hi"]] = self.program.spans[:, 1]
        #: The reference's draws from each stream, one ``(rounds, n)``
        #: block per rule in epoch order: the kernel reads a rounding
        #: rule's ``n = n_src * n_dst`` uniforms, never an ``integer``
        #: rule's.
        self.blocks = [(not integer, conn.n_synapses)
                       for (lo, hi), conn in zip(self.program.spans.tolist(),
                                                 self.conn_objs)
                       for integer in self.program.rules[lo:hi,
                                                         _MR["integer"]]]
        #: The uniforms the kernel reads, one row per replica's stream.
        self.uniforms = np.empty(
            (replicas, sum(n for rounds, n in self.blocks if rounds)))
        self.conn_arrays = np.zeros(
            (len(work), len(kernels.MICROCODE_CONN_ARRAYS)), dtype=np.uintp)
        self._seen = [()] * len(work)

    @staticmethod
    def _key(work) -> tuple:
        # Holds the connections and rules, so their ids cannot be reused;
        # rules compare by identity first, then by value.
        return tuple((conn, *rules) for conn, rules in work)

    def matches(self, work) -> bool:
        return self.key == self._key(work)

    def bind(self) -> bool:
        """Refresh the address table from the connections' arrays.

        Returns False, leaving the epoch to ``LearningEngine.apply_all``,
        when an operand is not a C-contiguous array of the kernel's dtype
        and state or synaptic shape, or a tag or weight block, which the
        kernel writes in place where the reference replaces it, is
        read-only, a view, or held by two connections.
        """
        changed = False
        for k, conn in enumerate(self.conn_objs):
            arrays = (conn.src.spikes, conn.pre_trace.values,  # x0, x1
                      conn.dst.spikes, conn.post_trace.values,  # y0, y1
                      conn.tag, conn.weight_mant)
            if tuple(map(id, arrays)) == tuple(map(id, self._seen[k])) \
                    and conn.tag.flags.writeable \
                    and conn.weight_mant.flags.writeable:
                continue
            src, dst = conn.src.state_shape, conn.dst.state_shape
            syn = (self.replicas, conn.src.n, conn.dst.n)
            specs = ((bool, src), (np.int64, src), (bool, dst),
                     (np.int64, dst), (np.int64, syn), (np.int64, syn))
            if not all(_conforms(a, dtype, (shape,))
                       for a, (dtype, shape) in zip(arrays, specs)):
                return False
            if not all(a.flags.owndata and a.flags.writeable
                       for a in arrays[-2:]):
                return False
            self._seen[k] = arrays
            self.conn_arrays[k] = [a.ctypes.data for a in arrays]
            changed = True
        if changed:
            written = [id(a) for arrays in self._seen for a in arrays[-2:]]
            if len(set(written)) != len(written):
                self._seen = [()] * len(self.conn_objs)
                return False
        return True

    def run(self, streams, stochastic: bool) -> None:
        """One ``microcode_epoch`` call, rounding with each stream's row
        of :attr:`uniforms` (replica order) when ``stochastic``."""
        if stochastic:
            for row, rng in zip(self.uniforms, streams):
                self._draw(rng, row)
        kernels.microcode_epoch(self.replicas, self.conns, self.conn_arrays,
                                self.program,
                                self.uniforms if stochastic else None,
                                WEIGHT_MANT_MAX, TAG_MAX)

    def _draw(self, rng, row) -> None:
        """Fill ``row`` with one ``random(out=)`` per rounding block and
        move ``rng`` past each ``integer`` block, so it ends where the
        reference's draws leave it: by ``advance`` where
        :func:`_advances` allows, else by drawing the block."""
        jump = rng.bit_generator.advance \
            if _advances(rng.bit_generator) else None
        lo = 0
        for rounds, n in self.blocks:
            if rounds:
                rng.random(out=row[lo:lo + n])
                lo += n
            elif jump is not None:
                jump(n)
            else:
                rng.random(n)


class Runtime:
    """Steps a network and orchestrates learning epochs.

    One :meth:`step` advances every replica of the network
    (``Network(replicas=R)``).  ``rng`` is a sequence of ``R`` generators
    pinning each replica's stochastic-rounding stream; a lone generator
    is a sequence of one.
    """

    def __init__(self, network: Network,
                 rng: Optional[np.random.Generator] = None,
                 stochastic_rounding: bool = True):
        self.network = network
        self.engine = _replica_engine(network, rng, stochastic_rounding)
        #: rule book: learning_rule name -> {epoch name -> [rules]}
        self.rulebook: Dict[str, Dict[str, List[SumOfProducts]]] = {}
        self.stats = RunStats()
        self.stats.plastic_synapses = network.n_plastic_synapses()
        self._syn_events_seen = 0
        self._plan: Optional[_NetworkPlan] = None
        #: epoch name -> its flattened plan.
        self._epochs: Dict[str, _EpochPlan] = {}

    def __getstate__(self) -> dict:
        # The plans hold raw addresses of this object's arrays; a copy or
        # an unpickled runtime must build its own.
        state = self.__dict__.copy()
        state["_plan"] = None
        state["_epochs"] = {}
        return state

    # -- learning-rule registry ---------------------------------------------

    def register_rule(self, name: str,
                      epochs: Dict[str, List[SumOfProducts]]) -> None:
        """Associate microcode rule lists with named learning epochs."""
        self.rulebook[name] = epochs

    # -- host controls ---------------------------------------------------------

    def set_bias(self, group_name: str, bias: np.ndarray) -> None:
        """Host->chip write programming per-compartment biases."""
        self.network.group(group_name).set_bias(bias)

    def enable(self, group_names: Iterable[str]) -> None:
        for name in group_names:
            self.network.group(name).enabled = True

    def disable(self, group_names: Iterable[str]) -> None:
        for name in group_names:
            self.network.group(name).enabled = False

    # -- execution ---------------------------------------------------------------

    def step(self) -> None:
        """One barrier-synchronized timestep."""
        currents: Dict[str, np.ndarray] = {
            g.name: np.zeros(g.state_shape, dtype=np.int64)
            for g in self.network.groups}
        for conn in self.network.connections:
            if conn.src.spikes.any():
                currents[conn.dst.name] += conn.propagate(conn.src.spikes)
        n_spikes = 0
        for group in self.network.groups:
            fired = group.step(currents[group.name])
            n_spikes += int(fired.sum())
        for conn in self.network.connections:
            if conn.plastic:
                conn.update_traces(conn.src.spikes, conn.dst.spikes)
        self.stats.steps += 1
        self.stats.spikes += n_spikes

    def run(self, steps: int) -> None:
        """Advance ``steps`` timesteps: one fused kernel call when the
        active backend provides ``network_run``, else ``steps`` calls of
        :meth:`step` (the two are bit-identical)."""
        if steps <= 0 or not kernels.backend_provides("network_run") \
                or self._run_fused(int(steps)) is None:
            for _ in range(steps):
                self.step()
        self._collect_syn_events()

    def _run_fused(self, steps: int) -> Optional[_NetworkPlan]:
        """Run through the flattened plan; None (nothing run) if the
        network cannot be expressed in its tables."""
        plan = self._plan
        if plan is None or not plan.matches(self.network):
            plan = self._plan = _NetworkPlan(self.network)
        if not plan.bind():
            return None
        plan.run(steps)
        self.stats.steps += steps
        self.stats.spikes += int(plan.group_spikes.sum())
        return plan

    def _collect_syn_events(self) -> None:
        total = sum(c.syn_events for c in self.network.connections)
        self.stats.syn_events += total - self._syn_events_seen
        self._syn_events_seen = total

    def learning_epoch(self, epoch: str) -> None:
        """Run the learning engine for one named epoch on all plastic
        connections that registered rules for it: one fused
        ``microcode_epoch`` call when the active backend provides it, else
        :meth:`LearningEngine.apply_all` per connection (the two are
        bit-identical)."""
        work = []
        for conn in self.network.connections:
            if conn.plastic and conn.learning_rule:
                rules = self.rulebook.get(conn.learning_rule, {}).get(epoch)
                if rules:
                    work.append((conn, rules))
        if work and not (kernels.backend_provides("microcode_epoch")
                         and self._epoch_fused(epoch, work)):
            for conn, rules in work:
                self.engine.apply_all(rules, conn)
        self.stats.learning_epochs += 1

    def _epoch_fused(self, epoch: str, work) -> bool:
        """Apply ``work`` through the epoch's flattened plan; False
        (nothing applied) if the operands cannot be expressed in its
        tables.

        The reference draws its uniforms per connection, per rule, one
        ``(src.n, dst.n)`` block from each replica's stream.  The plan
        draws a stream's rounding blocks into one buffer, which gives the
        same values, and moves the stream past its ``integer`` blocks
        (their uniforms cannot change a bit), which leaves it in the same
        state.
        """
        plan = self._epochs.get(epoch)
        if plan is None or not plan.matches(work):
            plan = self._epochs[epoch] = _EpochPlan(work,
                                                    self.network.replicas)
        if not plan.bind():
            return False
        plan.run(self.engine.rngs, self.engine.stochastic_rounding)
        return True

    # -- state management ----------------------------------------------------------

    def reset_traces(self) -> None:
        for conn in self.network.connections:
            conn.reset_traces()

    def reset_tags(self) -> None:
        for conn in self.network.connections:
            conn.reset_tag()

    def reset_membranes(self, group_names: Iterable[str]) -> None:
        """Phase-boundary reset of selected groups' integrator state."""
        for name in group_names:
            self.network.group(name).reset_membrane()

    def reset_state(self, counts: bool = True) -> None:
        """Reset network state between samples (Operation Flow 1)."""
        for group in self.network.groups:
            group.reset_state()
            if counts:
                group.reset_counts()

    def spike_counts(self, group_name: str) -> np.ndarray:
        """The group's ``(R, n)`` spike counters, copied."""
        return self.network.group(group_name).spike_count.copy()

    def mark_sample(self, n: int = 1) -> None:
        self.stats.samples += n


class _Shard:
    """One partition of the network: the groups of a set of cores.

    ``groups`` preserve network declaration order (gate/merge reads between
    groups of one shard rely on it); ``conns_in`` are the connections whose
    destination lives in this shard — current delivery and trace updates
    happen where the synapses physically are.
    """

    def __init__(self, groups: List[CompartmentGroup],
                 conns_in: List) -> None:
        self.groups = groups
        self.conns_in = conns_in
        self.stats = RunStats()
        self._syn_events_seen = 0

    def gather_currents(self) -> Dict[str, np.ndarray]:
        currents = {g.name: np.zeros(g.state_shape, dtype=np.int64)
                    for g in self.groups}
        for conn in self.conns_in:
            if conn.src.spikes.any():
                currents[conn.dst.name] += conn.propagate(conn.src.spikes)
        return currents

    def step_groups(self, currents: Dict[str, np.ndarray]) -> int:
        n_spikes = 0
        for group in self.groups:
            fired = group.step(currents[group.name])
            n_spikes += int(fired.sum())
        self.stats.spikes += n_spikes
        return n_spikes

    def update_traces(self) -> None:
        for conn in self.conns_in:
            if conn.plastic:
                conn.update_traces(conn.src.spikes, conn.dst.spikes)

    def collect_syn_events(self) -> None:
        total = sum(c.syn_events for c in self.conns_in)
        self.stats.syn_events += total - self._syn_events_seen
        self._syn_events_seen = total


class ShardedRuntime(Runtime):
    """A :class:`Runtime` that executes the chip's cores as shards.

    The compiled :class:`~repro.loihi.mapping.Mapping` says which groups
    share physical cores; :func:`~repro.loihi.mapping.shard_groups`
    partitions the groups into core-disjoint shards (gate/merge-coupled
    groups — always colocated on hardware — are kept together).  Each
    barrier-synchronized :meth:`step` then runs in three phases, each over
    every shard before the next begins, as the chip's cores compute
    between barriers:

    1. **deliver** — every shard accumulates the currents of its inbound
       connections from the *previous* step's spikes (read-only);
    2. **integrate** — every shard steps its groups in declaration order
       (writes stay inside the shard);
    3. **trace** — every shard updates its inbound plastic traces from the
       freshly written spikes.

    Learning epochs run over connections in order: the engine's
    stochastic-rounding streams are consumed in connection order, and that
    order is part of the bit-identical contract with the plain runtime.

    :meth:`run` with a fused backend is one ``network_run`` call over the
    whole network (the barrier semantics are the same), after which each
    shard is credited with the spikes of its groups and the synaptic
    events of its inbound connections.

    Per-shard counters live in ``shard.stats`` and are merged into the
    global :class:`RunStats` (see :meth:`merged_shard_stats`).
    """

    def __init__(self, network: Network, mapping: Mapping,
                 rng: Optional[np.random.Generator] = None,
                 stochastic_rounding: bool = True):
        super().__init__(network, rng=rng,
                         stochastic_rounding=stochastic_rounding)
        edges = []
        for g in network.groups:
            if g.gate_group is not None:
                edges.append((g.name, g.gate_group.name))
            if g.merge_group is not None:
                edges.append((g.name, g.merge_group.name))
        order = {g.name: i for i, g in enumerate(network.groups)}
        mapped = set(mapping.placements)
        name_shards = shard_groups(mapping, extra_edges=edges)
        unmapped = [g.name for g in network.groups if g.name not in mapped]
        if unmapped:  # defensive: groups added after compile get own shard
            name_shards.append(unmapped)
        self.shards: List[_Shard] = []
        shard_of: Dict[str, int] = {}
        for names in name_shards:
            groups = sorted((network.group(n) for n in names),
                            key=lambda g: order[g.name])
            for g in groups:
                shard_of[g.name] = len(self.shards)
            self.shards.append(_Shard(groups, []))
        for conn in network.connections:
            self.shards[shard_of[conn.dst.name]].conns_in.append(conn)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        currents = [shard.gather_currents() for shard in self.shards]
        n_spikes = sum(shard.step_groups(c)
                       for shard, c in zip(self.shards, currents))
        for shard in self.shards:
            shard.update_traces()
            shard.stats.steps += 1
        self.stats.steps += 1
        self.stats.spikes += n_spikes

    def _run_fused(self, steps: int) -> Optional[_NetworkPlan]:
        plan = super()._run_fused(steps)
        if plan is not None:
            for shard in self.shards:
                shard.stats.steps += steps
                shard.stats.spikes += sum(
                    int(plan.group_spikes[plan.index[id(g)]])
                    for g in shard.groups)
        return plan

    def _collect_syn_events(self) -> None:
        for shard in self.shards:
            shard.collect_syn_events()
        super()._collect_syn_events()

    def merged_shard_stats(self) -> RunStats:
        """Per-shard counters folded into one :class:`RunStats`.

        Spikes and synaptic events are genuinely partitioned across shards,
        so their merge must reproduce the global counters; steps are a
        whole-chip barrier count and samples/epochs are host-side events,
        so those are taken from the global stats.
        """
        merged = RunStats()
        for shard in self.shards:
            merged.spikes += shard.stats.spikes
            merged.syn_events += shard.stats.syn_events
        merged.steps = self.stats.steps
        merged.samples = self.stats.samples
        merged.learning_epochs = self.stats.learning_epochs
        merged.plastic_synapses = self.stats.plastic_synapses
        return merged
