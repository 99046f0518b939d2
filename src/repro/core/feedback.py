"""Fixed random feedback weights: feedback alignment (FA) and direct
feedback alignment (DFA).

Keeping the feedback path's weights equal to the transposed forward weights
would require synchronizing two constantly changing copies (Section II-A);
EMSTDP instead uses *fixed random* feedback matrices.  FA mirrors the layer
structure (error flows down one layer at a time), while DFA broadcasts the
output-layer error straight to every hidden layer, eliminating the hidden
error neurons and shrinking the feedback weight memory (Section III-A).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def make_fa_weights(dims: Sequence[int],
                    rng: np.random.Generator) -> List[np.ndarray]:
    """Random feedback matrices for FA.

    ``dims = (n_in, n_1, ..., n_L)``.  Returns ``B[i]`` of shape
    ``(dims[i+2], dims[i+1])`` mapping error spikes of layer ``i+2`` onto the
    error neurons of layer ``i+1``, for ``i = 0 .. L-2`` — i.e. one matrix
    per *hidden* layer, standing in for ``W^T`` in Eq. (5).

    Weights are uniform, zero-mean (the paper samples from a uniform
    distribution), with std ``1 / sqrt(fan_in)``.
    """
    dims = tuple(int(d) for d in dims)
    mats = []
    for i in range(len(dims) - 2):
        fan_in = dims[i + 2]
        limit = np.sqrt(3.0 / fan_in)
        mats.append(rng.uniform(-limit, limit, size=(dims[i + 2], dims[i + 1])))
    return mats

def make_dfa_weights(dims: Sequence[int],
                     rng: np.random.Generator) -> List[np.ndarray]:
    """Random feedback matrices for DFA.

    Returns ``D[i]`` of shape ``(n_out, dims[i+1])`` connecting the output
    error neurons directly to hidden layer ``i+1``, for ``i = 0 .. L-2``.
    Because ``n_out`` is usually much smaller than the hidden widths these
    matrices are far smaller than FA's, which is where the paper's core/
    synapse savings come from.
    """
    dims = tuple(int(d) for d in dims)
    n_out = dims[-1]
    mats = []
    for i in range(len(dims) - 2):
        limit = np.sqrt(3.0 / n_out)
        mats.append(rng.uniform(-limit, limit, size=(n_out, dims[i + 1])))
    return mats


def feedback_synapse_count(dims: Sequence[int], mode: str) -> int:
    """Number of feedback-path synapses for a given wiring mode.

    Used by the resource accounting behind Fig. 3: DFA needs
    ``n_out * sum(hidden)`` synapses versus FA's chained
    ``sum(n_{i+1} * n_i)`` plus the one-to-one correction links.
    """
    dims = tuple(int(d) for d in dims)
    hidden = dims[1:-1]
    n_out = dims[-1]
    if mode == "dfa":
        return int(n_out * sum(hidden)) + 2 * n_out  # + output correction pairs
    if mode == "fa":
        chain = sum(dims[i + 2] * dims[i + 1] for i in range(len(dims) - 2))
        one_to_one = 2 * sum(hidden) + 2 * n_out
        return int(chain + one_to_one)
    raise ValueError(f"unknown feedback mode {mode!r}")


def feedback_neuron_count(dims: Sequence[int], mode: str) -> int:
    """Number of dedicated error neurons (per signed channel pair).

    FA keeps a positive+negative error neuron per forward neuron in every
    trainable layer; DFA only needs them at the output.
    """
    dims = tuple(int(d) for d in dims)
    n_out = dims[-1]
    if mode == "dfa":
        return 2 * n_out
    if mode == "fa":
        return 2 * (sum(dims[1:-1]) + n_out)
    raise ValueError(f"unknown feedback mode {mode!r}")
