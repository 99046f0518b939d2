"""EMSTDP: spike-based backpropagation with local update rules.

Public API of the algorithmic core — the full-precision reference that the
on-chip implementation in :mod:`repro.onchip` is validated against.
"""

from .config import (EMSTDPConfig, full_precision_config,
                     loihi_default_config, validate_dims)
from .encoding import (as_labeled_batch, as_sample_batch, bias_encode,
                       bias_io_events, encode_label, encode_labels,
                       quantize_to_bins, rate_encode_spikes,
                       spike_train_io_events)
from .feedback import (feedback_neuron_count, feedback_synapse_count,
                       make_dfa_weights, make_fa_weights)
from .learning import (WeightUpdater, delta_w_loihi_form, delta_w_reference,
                       delta_w_reference_batch)
from .loss import (l2_rate_loss, margin, predict_class, predict_classes,
                   signed_error_rates)
from .network import EMSTDPNetwork
from .neuron import IFLayer, SignedErrorLayer, quantize_rate, rate_activation
from .quantize import (from_fixed_point, quant_step, quantization_snr_db,
                       quantize_weights, to_fixed_point)

__all__ = [
    "EMSTDPConfig", "EMSTDPNetwork", "IFLayer", "SignedErrorLayer",
    "as_labeled_batch", "as_sample_batch",
    "WeightUpdater", "bias_encode", "bias_io_events", "delta_w_loihi_form",
    "delta_w_reference", "delta_w_reference_batch", "encode_label",
    "encode_labels", "feedback_neuron_count",
    "feedback_synapse_count", "from_fixed_point", "full_precision_config",
    "l2_rate_loss", "loihi_default_config", "make_dfa_weights",
    "make_fa_weights", "margin", "predict_class", "predict_classes",
    "quant_step",
    "quantization_snr_db", "quantize_rate", "quantize_to_bins",
    "quantize_weights", "rate_activation", "rate_encode_spikes",
    "signed_error_rates", "spike_train_io_events", "to_fixed_point",
    "validate_dims",
]
