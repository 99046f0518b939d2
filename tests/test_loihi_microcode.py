"""Unit tests for the sum-of-products microcode learning engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loihi import (CompartmentPrototype, ConnectionGroup,
                         LearningEngine, emstdp_rules, parse_rule,
                         phase1_tag_rules)
from repro.loihi.compartment import CompartmentGroup


def make_conn(n_pre=3, n_post=2, w0=0):
    src = CompartmentGroup(n_pre, CompartmentPrototype(), name="src")
    dst = CompartmentGroup(n_post, CompartmentPrototype(), name="dst")
    w = np.full((n_pre, n_post), w0, dtype=np.int64)
    return ConnectionGroup(src, dst, w, weight_scale=64, plastic=True,
                           learning_rule="r")


class TestParser:
    def test_simple_rule(self):
        rule = parse_rule("dw = y1 * x1")
        assert rule.target == "w"
        assert len(rule.terms) == 1
        assert rule.terms[0].sign == 1
        assert [f.var for f in rule.terms[0].factors] == ["y1", "x1"]

    def test_scales_are_powers_of_two(self):
        rule = parse_rule("dw = 2^-3 * y1 * x1 - 2^2 * t * x1")
        assert rule.terms[0].scale_exp == -3
        assert rule.terms[1].scale_exp == 2
        assert rule.terms[1].sign == -1

    def test_negative_exponent_not_split(self):
        rule = parse_rule("dw = 2^-8 * y1 - 2^-9 * t")
        assert len(rule.terms) == 2

    def test_paren_constant_factor(self):
        rule = parse_rule("dt = (y1 - 2) * x1")
        f = rule.terms[0].factors[0]
        assert f.var == "y1" and f.const == -2

    def test_tag_rule(self):
        rule = parse_rule("dt = y1")
        assert rule.target == "t"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rule("dw = q9 * x1")
        with pytest.raises(ValueError):
            parse_rule("w = x1")
        with pytest.raises(ValueError):
            parse_rule("dw x1")
        with pytest.raises(ValueError):
            parse_rule("dw = ")
        with pytest.raises(ValueError):
            parse_rule("dw = (x1 + 1")

    def test_combined_scale_factors(self):
        rule = parse_rule("dw = 2^-2 * 2^-3 * x1")
        assert rule.terms[0].scale_exp == -5


class TestEngine:
    def test_tag_accumulates_post_trace(self):
        conn = make_conn()
        conn.post_trace.values[:] = [5, 7]
        eng = LearningEngine(stochastic_rounding=False)
        eng.apply(parse_rule("dt = y1"), conn)
        assert conn.tag[0, 0].tolist() == [5, 7]

    def test_emstdp_rule_matches_eq7(self):
        """dt=y1 at T then [dt=y1, dw] at 2T realizes eta*(hhat-h)*pre."""
        conn = make_conn(n_pre=2, n_post=2)
        eng = LearningEngine(stochastic_rounding=False)
        # phase 1: h = [10, 20]
        conn.post_trace.values[:] = [10, 20]
        eng.apply_all(phase1_tag_rules(), conn)
        conn.reset_traces()
        # phase 2: hhat = [30, 10], pre = [16, 8]
        conn.post_trace.values[:] = [30, 10]
        conn.pre_trace.values[:] = [16, 8]
        eng.apply_all(emstdp_rules(-4), conn)
        # dw = 2^-4 * (hhat - h) (x) pre = (1/16) * [20, -10] (x) [16, 8]
        expected = np.round(np.outer([16, 8], [20, -10]) / 16.0)
        assert np.array_equal(conn.weight_mant[0], expected.astype(int))

    def test_weight_clamped_to_int8(self):
        conn = make_conn(w0=120)
        conn.post_trace.values[:] = 64
        conn.pre_trace.values[:] = 64
        eng = LearningEngine(stochastic_rounding=False)
        eng.apply(parse_rule("dw = y1 * x1"), conn)
        assert (conn.weight_mant == 127).all()

    def test_tag_clamped(self):
        conn = make_conn()
        eng = LearningEngine(stochastic_rounding=False)
        conn.post_trace.values[:] = 127
        for _ in range(5):
            eng.apply(parse_rule("dt = y1 * 4"), conn)
        assert (conn.tag <= 255).all()

    def test_weight_decay_term(self):
        """Eq. (9) admits w itself as a factor: weight decay is legal."""
        conn = make_conn(w0=64)
        eng = LearningEngine(stochastic_rounding=False)
        eng.apply(parse_rule("dw = -2^-2 * w"), conn)
        assert (conn.weight_mant == 48).all()

    def test_non_plastic_rejected(self):
        src = CompartmentGroup(1, CompartmentPrototype(), name="s")
        dst = CompartmentGroup(1, CompartmentPrototype(), name="d")
        conn = ConnectionGroup(src, dst, np.zeros((1, 1)), 64, plastic=False)
        eng = LearningEngine()
        with pytest.raises(ValueError):
            eng.apply(parse_rule("dw = x1"), conn)

    def test_stochastic_rounding_unbiased(self):
        rng = np.random.default_rng(0)
        eng = LearningEngine(rngs=[rng], stochastic_rounding=True)
        conn = make_conn(n_pre=100, n_post=100)
        conn.post_trace.values[:] = 1
        conn.pre_trace.values[:] = 1
        eng.apply(parse_rule("dw = 2^-2 * y1 * x1"), conn)  # dz = 0.25
        assert abs(conn.weight_mant.mean() - 0.25) < 0.02

    @given(h=st.integers(0, 64), hhat=st.integers(0, 64),
           pre=st.integers(0, 64))
    @settings(max_examples=40, deadline=None)
    def test_loihi_form_equals_reference_form(self, h, hhat, pre):
        """2*eta*hhat*pre - eta*(h+hhat)*pre == eta*(hhat-h)*pre, on chip."""
        conn = make_conn(n_pre=1, n_post=1)
        eng = LearningEngine(stochastic_rounding=False)
        conn.post_trace.values[:] = h
        eng.apply_all(phase1_tag_rules(), conn)
        conn.reset_traces()
        conn.post_trace.values[:] = hhat
        conn.pre_trace.values[:] = pre
        eng.apply_all(emstdp_rules(-6), conn)
        expected = int(np.round((hhat - h) * pre / 64.0))
        assert abs(int(conn.weight_mant[0, 0, 0]) - expected) <= 1
