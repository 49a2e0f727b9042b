"""Composite block construction, parameter economy, and structural checks."""

import numpy as np
import pytest

from helpers import param_count
from revunet.blocks import make_block, mbconv_block, standard_block
from revunet.engine import Conv, MemoryLedger, Tape, walk
from revunet.ops import group_size_for
from revunet.rng import rng_for

TABLE_WIDTHS = (30, 60, 120, 180, 240, 480)


def mbconv_formula(c, t):
    # expand tc*c + gn 2tc + depthwise 27tc + gn 2tc + project c*tc + gn 2c
    return 2 * t * c * c + 27 * t * c + 4 * t * c + 2 * c


def standard_formula(c):
    # conv 27c^2 + gn 2c
    return 27 * c * c + 2 * c


class TestParamCount:
    def test_reference_values(self):
        assert param_count(mbconv_block("b", 30, 2, np.float64)) == 5520
        assert param_count(standard_block("b", 30, np.float64)) == 24360
        assert param_count(mbconv_block("b", 1, 1, np.float64)) == 35

    @pytest.mark.parametrize("c", (2, 8, 16, 30, 60, 120))
    @pytest.mark.parametrize("t", (1, 2, 8))
    def test_mbconv_enumeration_matches_formula(self, c, t):
        assert param_count(mbconv_block("b", c, t, np.float64)) == mbconv_formula(c, t)

    @pytest.mark.parametrize("c", (2, 8, 16, 30, 60, 480))
    def test_standard_enumeration_matches_formula(self, c):
        assert param_count(standard_block("b", c, np.float64)) == standard_formula(c)

    def test_mbconv_cheaper_at_every_published_width(self):
        for c in TABLE_WIDTHS:
            mb = param_count(mbconv_block("b", c, 2, np.float64))
            std = param_count(standard_block("b", c, np.float64))
            assert mb < std, (c, mb, std)


class TestStructure:
    def test_mbconv_stage_order(self):
        blk = mbconv_block("b", 4, 2, np.float64)
        assert [n.op for n in blk.nodes] == [
            "pointwise", "groupnorm", "depthwise", "groupnorm", "pointwise", "groupnorm"]
        assert [n.name for n in blk.nodes] == [
            "b.expand", "b.gn1", "b.dw", "b.gn2", "b.project", "b.gn3"]
        # gn1 and gn2 carry the block's two ReLUs; the projection stays linear
        assert [n.relu for n in blk.nodes if n.op == "groupnorm"] == [True, True, False]

    def test_standard_stage_order(self):
        blk = standard_block("b", 4, np.float64)
        assert [n.op for n in blk.nodes] == ["conv", "groupnorm"]
        assert blk.nodes[1].relu

    def test_no_conv_biases(self):
        for blk, n_convs in ((mbconv_block("b", 4, 2, np.float64), 3),
                             (standard_block("b", 4, np.float64), 1)):
            convs = [leaf for leaf in walk(blk) if isinstance(leaf, Conv)]
            assert len(convs) == n_convs
            for leaf in convs:
                assert leaf.b is None

    def test_zero_parameters_give_zero_map(self):
        for blk in (mbconv_block("b", 4, 2, np.float64),
                    standard_block("b", 4, np.float64)):
            x = rng_for(0, "zero-map").standard_normal((1, 4, 3, 3, 3))
            out = blk.forward(x, None)
            assert np.array_equal(out, np.zeros_like(out))

    def test_expanded_width_visible_in_ledger(self):
        blk = mbconv_block("b", 4, 3, np.float64)
        led = MemoryLedger()
        x = np.zeros((1, 4, 2, 2, 2))
        blk.forward(x, Tape(led))
        elems = led.element_map()
        assert elems[("b.expand", "input")] == 4 * 8
        assert elems[("b.gn1", "xhat")] == 12 * 8  # expand ratio 3 widens to 12
        assert elems[("b.gn3", "xhat")] == 4 * 8   # projection returns to 4

    def test_make_block_validation(self):
        with pytest.raises(ValueError):
            make_block("swish", "b", 4, 2, np.float64)
        with pytest.raises(ValueError):
            mbconv_block("b", 4, 0, np.float64)

    def test_preserves_shape_and_channels(self):
        gen = rng_for(0, "shape")
        for blk in (mbconv_block("b", 6, 2, np.float64),
                    standard_block("b", 6, np.float64)):
            for leaf in walk(blk):
                leaf.init_params(gen)
            x = gen.standard_normal((1, 6, 4, 4, 4))
            assert blk.forward(x, None).shape == x.shape


class TestGroupNormShiftInvariance:
    def test_invariance_to_per_group_constant_shift(self):
        from revunet.ops import group_norm
        gen = rng_for(0, "gn-shift")
        x = gen.standard_normal((1, 20, 3, 3, 3))
        gamma, beta = gen.standard_normal(20), gen.standard_normal(20)
        gs = group_size_for(20)
        shift = np.repeat(gen.standard_normal(20 // gs), gs).reshape(1, 20, 1, 1, 1)
        base, _, _ = group_norm(x, gamma, beta, gs, False)
        moved, _, _ = group_norm(x + shift, gamma, beta, gs, False)
        assert np.abs(base - moved).max() <= 1e-12

    def test_block_tail_invariant_after_expansion(self):
        # a per-group constant added to the expand output is erased by gn1,
        # so everything downstream of the expansion is shift-invariant
        gen = rng_for(0, "gn-tail")
        blk = mbconv_block("b", 10, 2, np.float64)
        for leaf in walk(blk):
            leaf.init_params(gen)
        x = gen.standard_normal((1, 10, 3, 3, 3))
        h = blk.nodes[0].forward(x, None)  # expand output, 20 channels
        gs = group_size_for(20)
        shift = np.repeat(gen.standard_normal(20 // gs), gs).reshape(1, 20, 1, 1, 1)

        def tail(v):
            for node in blk.nodes[1:]:
                v = node.forward(v, None)
            return v

        assert np.abs(tail(h) - tail(h + shift)).max() <= 1e-11
