"""A Loihi-like digital neuromorphic chip simulator.

The substrate the paper runs on: integrate-and-fire compartments (Loihi's
CUBA neuron as EMSTDP configures it), multi-compartment AND gating, 8-bit
synapses with tags and trace counters, a sum-of-products microcode
learning engine, a 128-core resource model with layer-at-a-time mapping,
and a calibrated timing/power/energy model.
"""

from .chip import ChipSpec, LoihiChip
from .compartment import CompartmentGroup, CompartmentPrototype, MANT_SHIFT
from .core import CoreResourceError, CoreSpec, NeuroCore
from .energy import (EnergyModel, EnergyModelParams, EnergyReport, RunStats)
from .mapping import (GroupPlacement, Mapper, Mapping,
                      optimal_neurons_per_core, shard_groups)
from .microcode import (Factor, LearningEngine, ProductTerm, SumOfProducts,
                        emstdp_rules, parse_rule, phase1_tag_rules)
from .runtime import Runtime, ShardedRuntime
from .sdk import Network
from .synapse import ConnectionGroup, TAG_MAX, WEIGHT_MANT_MAX
from .traces import TraceState

__all__ = [
    "ChipSpec", "CompartmentGroup", "CompartmentPrototype", "ConnectionGroup",
    "CoreResourceError", "CoreSpec", "EnergyModel", "EnergyModelParams",
    "EnergyReport", "Factor", "GroupPlacement", "LearningEngine", "LoihiChip",
    "MANT_SHIFT", "Mapper", "Mapping", "Network", "NeuroCore", "ProductTerm",
    "RunStats", "Runtime", "ShardedRuntime", "SumOfProducts", "TAG_MAX",
    "TraceState", "WEIGHT_MANT_MAX", "emstdp_rules",
    "optimal_neurons_per_core", "parse_rule", "phase1_tag_rules",
    "shard_groups",
]
