"""Composite blocks: the inverted-bottleneck block and the plain conv block.

Both map c channels to c channels at unchanged spatial size, so either can
serve as the F or G half of a reversible block. The inverted bottleneck
(expand pointwise -> GN -> ReLU -> depthwise -> GN -> ReLU -> project
pointwise -> GN, no activation after the projection) carries no conv
biases: every conv is followed by a group norm whose beta subsumes them.
Each GN -> ReLU pair is one GroupNorm node with relu=True.
"""

from .engine import Conv, GroupNorm, Sequential


def mbconv_block(name, c, expand_ratio, dtype):
    """Inverted residual bottleneck with linear (activation-free) projection."""
    if expand_ratio < 1:
        raise ValueError("expand ratio must be a positive integer")
    tc = expand_ratio * c
    return Sequential(name, [
        Conv(name + ".expand", c, tc, 1, dtype),
        GroupNorm(name + ".gn1", tc, dtype, relu=True),
        Conv(name + ".dw", tc, tc, 3, dtype, depthwise=True),
        GroupNorm(name + ".gn2", tc, dtype, relu=True),
        Conv(name + ".project", tc, c, 1, dtype),
        GroupNorm(name + ".gn3", c, dtype),
    ])


def standard_block(name, c, dtype):
    """Plain 3x3x3 conv -> group norm -> ReLU."""
    return Sequential(name, [
        Conv(name + ".conv", c, c, 3, dtype),
        GroupNorm(name + ".gn", c, dtype, relu=True),
    ])


def make_block(kind, name, c, expand_ratio, dtype):
    if kind == "mbconv":
        return mbconv_block(name, c, expand_ratio, dtype)
    if kind == "standard":
        return standard_block(name, c, dtype)
    raise ValueError("unknown block kind %r" % (kind,))

