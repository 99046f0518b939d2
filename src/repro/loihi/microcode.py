"""Microcode learning engine: sum-of-products synaptic plasticity.

Loihi's programmable learning engine constrains every adaptation rule to the
functional form of Eq. (9):

    z := z + sum_i  S_i * prod_j (V_ij + C_ij)

where ``z`` is a synaptic variable (weight ``w``, tag ``t``, delay), the
``V_ij`` are locally available quantities (spike traces, synaptic
variables) and ``S_i``/``C_ij`` are microcode constants — with scale factors
restricted to signed powers of two.

This module provides a tiny rule language mirroring that form, e.g.::

    dw = 2^-8 * y1 * x1 - 2^-9 * t * x1     # Eq. (12) of the paper
    dt = y1                                  # tag accumulates spike counts

Available variables:

====== =====================================================
``x0``  presynaptic spike indicator at the learning epoch
``x1``  presynaptic trace counter (phase spike count)
``y0``  postsynaptic spike indicator
``y1``  postsynaptic trace counter
``t``   per-synapse tag
``w``   current weight mantissa
====== =====================================================

Scale factors must be written as ``2^k`` (signed integer ``k``), matching
the hardware's shift-based arithmetic.  Fractional results are resolved by
stochastic rounding (Loihi supports rounding modes on the learning engine);
deterministic round-to-nearest is available for reproducible unit tests.

Every variable is an integer register with a leading replica axis
(``(R, n)`` spikes and traces, ``(R, S, D)`` tags and weights; ``R = 1``
for a lone network), and each replica rounds with its own stream.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Sequence

import numpy as np

from ..core import kernels
from ..seeding import as_rng
from .synapse import ConnectionGroup, TAG_MAX, WEIGHT_MANT_MAX

_VARIABLES = ("x0", "x1", "y0", "y1", "t", "w")


@dataclasses.dataclass(frozen=True)
class Factor:
    """One ``(V + C)`` factor; ``var is None`` means a bare constant."""

    var: Optional[str]
    const: int = 0

    def __post_init__(self):
        if self.var is not None and self.var not in _VARIABLES:
            raise ValueError(f"unknown learning variable {self.var!r}")


@dataclasses.dataclass(frozen=True)
class ProductTerm:
    """One ``S * prod(V + C)`` term; ``scale_exp`` encodes ``S = sign * 2^k``."""

    sign: int
    scale_exp: int
    factors: tuple

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


@dataclasses.dataclass(frozen=True)
class SumOfProducts:
    """A complete rule: the target variable and its product terms."""

    target: str  # "w" or "t"
    terms: tuple
    text: str = ""

    def __post_init__(self):
        if self.target not in ("w", "t"):
            raise ValueError("rule target must be 'w' (dw) or 't' (dt)")


_SCALE_RE = re.compile(r"^2\^(-?\d+)$")
_PAREN_RE = re.compile(r"^\((x0|x1|y0|y1|t|w)\s*([+-])\s*(\d+)\)$")
_INT_RE = re.compile(r"^-?\d+$")


def _split_top_level(text: str, separators: str) -> List[str]:
    """Split on separators occurring outside parentheses, keeping them."""
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and ch in separators and not current.endswith("^"):
            parts.append(current)
            parts.append(ch)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(current)
    return parts


def parse_rule(text: str) -> SumOfProducts:
    """Parse a rule string like ``"dw = 2^-8 * y1 * x1 - 2^-9 * t * x1"``."""
    if "=" not in text:
        raise ValueError(f"rule must contain '=': {text!r}")
    lhs, rhs = text.split("=", 1)
    lhs = lhs.strip()
    if lhs not in ("dw", "dt"):
        raise ValueError(f"rule target must be 'dw' or 'dt', got {lhs!r}")
    target = lhs[1]

    pieces = _split_top_level(rhs.replace(" ", ""), "+-")
    terms: List[ProductTerm] = []
    sign = 1
    for piece in pieces:
        if piece == "+":
            sign = 1
            continue
        if piece == "-":
            sign = -1
            continue
        if not piece:
            continue
        scale_exp = 0
        factors: List[Factor] = []
        for factor_text in piece.split("*"):
            m = _SCALE_RE.match(factor_text)
            if m:
                scale_exp += int(m.group(1))
                continue
            if factor_text in _VARIABLES:
                factors.append(Factor(factor_text))
                continue
            m = _PAREN_RE.match(factor_text)
            if m:
                var, op, const = m.groups()
                factors.append(Factor(var, int(const) if op == "+" else -int(const)))
                continue
            if _INT_RE.match(factor_text):
                value = int(factor_text)
                if value < 0:
                    sign = -sign
                    value = -value
                # Fold bare integer constants into a (None + C) factor.
                factors.append(Factor(None, value))
                continue
            raise ValueError(f"cannot parse factor {factor_text!r} in {text!r}")
        terms.append(ProductTerm(sign, scale_exp, tuple(factors)))
        sign = 1
    if not terms:
        raise ValueError(f"rule has no terms: {text!r}")
    return SumOfProducts(target, tuple(terms), text=text)


class LearningEngine:
    """Evaluates sum-of-products rules on plastic connections.

    The engine is invoked at *learning epochs* — in EMSTDP, at the end of
    each phase (Operation Flow 1) — never inside the per-timestep loop,
    mirroring how the hardware batches plasticity processing.
    """

    def __init__(self, rngs: Optional[Sequence[np.random.Generator]] = None,
                 stochastic_rounding: bool = True):
        #: Per-replica stochastic-rounding streams (``None``: one fresh
        #: stream, for one replica).  Replica ``r`` always rounds with
        #: ``rngs[r]`` drawing a ``(src.n, dst.n)`` block — exactly the
        #: draw a single-replica engine built on ``rngs[r]`` would make,
        #: which is what keeps batched learning bit-identical to
        #: sequential per-replica execution.
        self.rngs = [as_rng(None)] if rngs is None else list(rngs)
        self.stochastic_rounding = bool(stochastic_rounding)

    def evaluate(self, rule: SumOfProducts, conn: ConnectionGroup) -> np.ndarray:
        """The raw (float) ``dz`` block for a rule on a connection.

        Shape ``(replicas, src.n, dst.n)``.  The sum-of-products itself
        runs in the selected kernel backend.
        """
        if not conn.plastic:
            raise ValueError(f"connection {conn.name!r} is not plastic")
        return kernels.sum_of_products(
            rule,
            conn.src.spikes.astype(np.int64), conn.pre_trace.values,
            conn.dst.spikes.astype(np.int64), conn.post_trace.values,
            conn.tag, conn.weight_mant)

    def _round(self, dz: np.ndarray) -> np.ndarray:
        if not self.stochastic_rounding:
            return np.round(dz).astype(np.int64)
        if len(self.rngs) != len(dz):
            raise ValueError(
                f"engine has {len(self.rngs)} replica rng streams, "
                f"connection has {len(dz)} replicas")
        floor = np.floor(dz)
        frac = dz - floor
        draw = np.stack([rng.random(dz.shape[1:]) for rng in self.rngs])
        return (floor + (draw < frac)).astype(np.int64)

    def apply(self, rule: SumOfProducts, conn: ConnectionGroup) -> None:
        """Evaluate ``rule`` and commit the change with hardware clamping."""
        dz = self._round(self.evaluate(rule, conn))
        if rule.target == "w":
            conn.weight_mant = np.clip(conn.weight_mant + dz,
                                       -WEIGHT_MANT_MAX, WEIGHT_MANT_MAX)
        else:
            conn.tag = np.clip(conn.tag + dz, -TAG_MAX, TAG_MAX)

    def apply_all(self, rules: Sequence[SumOfProducts],
                  conn: ConnectionGroup) -> None:
        """Apply an ordered rule list (Loihi evaluates dt before dw usage
        only in program order; EMSTDP relies on updating the tag first)."""
        for rule in rules:
            self.apply(rule, conn)


def emstdp_rules(eta_exp: int) -> List[SumOfProducts]:
    """The paper's Eq. (12) as microcode, parameterized by ``eta = 2^eta_exp``.

    Applied at the end of phase 2, *after* the tag rule below has folded the
    phase-1 count into ``t`` (making ``t = Z = h + h_hat``)::

        dt = y1                      (t: h -> h + h_hat = Z)
        dw = 2^(eta_exp+1) * y1 * x1 - 2^eta_exp * t * x1
    """
    return [
        parse_rule("dt = y1"),
        parse_rule(f"dw = 2^{eta_exp + 1} * y1 * x1 - 2^{eta_exp} * t * x1"),
    ]


def phase1_tag_rules() -> List[SumOfProducts]:
    """Applied at the end of phase 1: stash ``h`` in the tag (``dt = y1``)."""
    return [parse_rule("dt = y1")]
