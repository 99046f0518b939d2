"""NxSDK-like network builder.

The paper's Operation Flow 1 starts with "Create Network N in Intel Loihi's
SDK"; this module is our equivalent: declare compartment groups and
connections, then :meth:`Network.compile` maps them onto a chip and returns
the :class:`~repro.loihi.mapping.Mapping` used by the runtime and the
energy model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .chip import ChipSpec, LoihiChip
from .compartment import CompartmentGroup, CompartmentPrototype
from .mapping import Mapper, Mapping
from .synapse import ConnectionGroup


def _block(conn: ConnectionGroup) -> np.ndarray:
    """The ``(src.n, dst.n)`` weights of one replica (a plastic block is
    ``(R, src.n, dst.n)``): the replicas copy the same synapses."""
    return conn.weight_mant[0] if conn.plastic else conn.weight_mant


class Network:
    """A declared (not yet placed) network of groups and connections."""

    def __init__(self, name: str = "network", replicas: int = 1):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.name = name
        #: Independent network copies stepped in one vectorized pass; every
        #: group and connection created through this network inherits it.
        self.replicas = int(replicas)
        self.groups: List[CompartmentGroup] = []
        self.connections: List[ConnectionGroup] = []
        self._group_names: Dict[str, CompartmentGroup] = {}

    # -- declaration --------------------------------------------------------

    def create_group(self, n: int, proto: CompartmentPrototype, name: str,
                     packing: Optional[str] = None,
                     colocate: Optional[str] = None) -> CompartmentGroup:
        """Add a compartment group.

        ``packing`` is the mapping hint: ``None`` (resource-derived) or
        ``"sweep"`` (participates in the Fig. 3 neurons-per-core sweep).  ``colocate`` names a same-sized
        host group whose cores this group shares — the auxiliary/dendrite
        compartments of multi-compartment neurons.
        """
        if name in self._group_names:
            raise ValueError(f"duplicate group name {name!r}")
        if colocate is not None and colocate not in self._group_names:
            raise ValueError(f"colocate target {colocate!r} does not exist")
        group = CompartmentGroup(n, proto, name=name,
                                 replicas=self.replicas)
        group.packing = packing
        group.colocate = colocate
        self.groups.append(group)
        self._group_names[name] = group
        return group

    def connect(self, src: CompartmentGroup, dst: CompartmentGroup,
                weight_mant: np.ndarray, weight_scale: int,
                plastic: bool = False, learning_rule: str = "",
                name: str = "") -> ConnectionGroup:
        """Add a dense synaptic block from ``src`` to ``dst``."""
        if src.name not in self._group_names or dst.name not in self._group_names:
            raise ValueError("both endpoints must belong to this network")
        conn = ConnectionGroup(src, dst, weight_mant, weight_scale,
                               plastic=plastic, learning_rule=learning_rule,
                               name=name or f"{src.name}->{dst.name}")
        self.connections.append(conn)
        return conn

    def group(self, name: str) -> CompartmentGroup:
        return self._group_names[name]

    # -- resource queries ----------------------------------------------------

    def fanin(self, group: CompartmentGroup) -> int:
        """Max synaptic fan-in of any neuron in ``group``."""
        total = 0
        for conn in self.connections:
            if conn.dst is group:
                total += int(np.max(np.count_nonzero(_block(conn), axis=0),
                                    initial=0))
        return total

    def fanout(self, group: CompartmentGroup) -> int:
        """Max synaptic fan-out of any neuron in ``group``."""
        total = 0
        for conn in self.connections:
            if conn.src is group:
                total += int(np.max(np.count_nonzero(_block(conn), axis=1),
                                    initial=0))
        return total

    def n_compartments(self) -> int:
        return sum(g.n for g in self.groups)

    def n_synapses(self) -> int:
        return sum(c.n_synapses for c in self.connections)

    def n_plastic_synapses(self) -> int:
        return sum(c.n_synapses for c in self.connections if c.plastic)

    # -- compilation -----------------------------------------------------------

    def compile(self, chip: Optional[LoihiChip] = None,
                neurons_per_core: Optional[int] = None) -> Mapping:
        """Place every group onto chip cores (Operation Flow 1's mapping).

        Builds each layer's adjacency (fan-in/fan-out per neuron), derives
        the neurons-per-core budget and assigns neurons to cores a layer at
        a time.
        """
        if chip is None:
            chip = LoihiChip(ChipSpec())
        mapper = Mapper(neurons_per_core=neurons_per_core)
        requests = [
            (g.name, g.n, self.fanin(g), self.fanout(g),
             getattr(g, "packing", None), getattr(g, "colocate", None))
            for g in self.groups
        ]
        return mapper.map_groups(chip, requests)
