"""Naive reference implementations used as independent oracles.

Everything here is written as plain nested loops or direct formula
evaluation, deliberately ignoring speed, so the fast vectorized ops in
``ops.py`` can be checked against a second, structurally different
route. The verification CLI and the test suite both lean on this
module; nothing in the execution engine itself does.
"""

import numpy as np


def conv3d_loops(x, w, b=None):
    """Direct 7-nested-loop standard convolution, stride 1, zero 'same' padding."""
    n, ci, d, h, wd = x.shape
    co, ci_k, kd, kh, kw = w.shape
    assert ci == ci_k
    r = kd // 2
    out = np.zeros((n, co, d, h, wd), dtype=x.dtype)
    for ni in range(n):
        for o in range(co):
            for z in range(d):
                for y in range(h):
                    for xx in range(wd):
                        acc = x.dtype.type(0)
                        for i in range(ci):
                            for dz in range(kd):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        sz, sy, sx = z + dz - r, y + dy - r, xx + dx - r
                                        if 0 <= sz < d and 0 <= sy < h and 0 <= sx < wd:
                                            acc += w[o, i, dz, dy, dx] * x[ni, i, sz, sy, sx]
                        out[ni, o, z, y, xx] = acc + (b[o] if b is not None else 0)
    return out


def depthwise_conv3d_loops(x, w):
    """Per-channel spatial convolution via loops; w has shape (c, 1, kd, kh, kw)."""
    n, c, d, h, wd = x.shape
    kd = w.shape[2]
    r = kd // 2
    out = np.zeros_like(x)
    for ni in range(n):
        for ch in range(c):
            for z in range(d):
                for y in range(h):
                    for xx in range(wd):
                        acc = x.dtype.type(0)
                        for dz in range(kd):
                            for dy in range(kd):
                                for dx in range(kd):
                                    sz, sy, sx = z + dz - r, y + dy - r, xx + dx - r
                                    if 0 <= sz < d and 0 <= sy < h and 0 <= sx < wd:
                                        acc += w[ch, 0, dz, dy, dx] * x[ni, ch, sz, sy, sx]
                        out[ni, ch, z, y, xx] = acc
    return out


def maxpool3d_loops(x):
    """2x2x2 max pooling by scanning every window."""
    n, c, d, h, w = x.shape
    out = np.zeros((n, c, d // 2, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ch in range(c):
            for z in range(d // 2):
                for y in range(h // 2):
                    for xx in range(w // 2):
                        out[ni, ch, z, y, xx] = x[
                            ni, ch, 2 * z:2 * z + 2, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2
                        ].max()
    return out


def group_norm_stats(x, group_size):
    """Per-(sample, group) mean and variance, recomputed independently."""
    n, c = x.shape[:2]
    groups = c // group_size
    means = np.zeros((n, groups))
    variances = np.zeros((n, groups))
    for ni in range(n):
        for g in range(groups):
            block = x[ni, g * group_size:(g + 1) * group_size]
            means[ni, g] = block.mean()
            variances[ni, g] = block.var()
    return means, variances


def trilinear_upsample_points(x):
    """Scale-2 trilinear upsampling evaluated point by point (align_corners=False)."""
    n, c, d, h, w = x.shape
    out = np.zeros((n, c, 2 * d, 2 * h, 2 * w), dtype=x.dtype)

    def taps(i, size):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        lo_c = min(max(lo, 0), size - 1)
        hi_c = min(max(lo + 1, 0), size - 1)
        return (lo_c, 1.0 - frac), (hi_c, frac)

    for ni in range(n):
        for ch in range(c):
            for z in range(2 * d):
                for y in range(2 * h):
                    for xx in range(2 * w):
                        acc = 0.0
                        for iz, wz in taps(z, d):
                            for iy, wy in taps(y, h):
                                for ix, wx in taps(xx, w):
                                    acc += wz * wy * wx * float(x[ni, ch, iz, iy, ix])
                        out[ni, ch, z, y, xx] = acc
    return out

