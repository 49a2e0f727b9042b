"""Composite blocks: the inverted-bottleneck block and the plain conv block.

Both map c channels to c channels at unchanged spatial size, so either can
serve as the F or G half of a reversible block. The inverted bottleneck
(expand pointwise -> GN -> ReLU -> depthwise -> GN -> ReLU -> project
pointwise -> GN, no activation after the projection) carries no conv
biases: every conv is followed by a group norm whose beta subsumes them.
"""

from .engine import Conv, GroupNorm, ReLU, Sequential, walk


def mbconv_block(name, c, expand_ratio, dtype):
    """Inverted residual bottleneck with linear (activation-free) projection."""
    if expand_ratio < 1:
        raise ValueError("expand ratio must be a positive integer")
    tc = expand_ratio * c
    return Sequential(name, [
        Conv(name + ".expand", c, tc, 1, dtype),
        GroupNorm(name + ".gn1", tc, dtype),
        ReLU(name + ".relu1"),
        Conv(name + ".dw", tc, tc, 3, dtype, depthwise=True),
        GroupNorm(name + ".gn2", tc, dtype),
        ReLU(name + ".relu2"),
        Conv(name + ".project", tc, c, 1, dtype),
        GroupNorm(name + ".gn3", c, dtype),
    ])


def standard_block(name, c, dtype):
    """Plain 3x3x3 conv -> group norm -> ReLU."""
    return Sequential(name, [
        Conv(name + ".conv", c, c, 3, dtype),
        GroupNorm(name + ".gn", c, dtype),
        ReLU(name + ".relu"),
    ])


def make_block(kind, name, c, expand_ratio, dtype):
    if kind == "mbconv":
        return mbconv_block(name, c, expand_ratio, dtype)
    if kind == "standard":
        return standard_block(name, c, dtype)
    raise ValueError("unknown block kind %r" % (kind,))


def param_count(block):
    """Exact scalar-parameter count by enumerating the constructed arrays."""
    return sum(int(arr.size) for node in walk(block) for _, arr in node.param_items())
