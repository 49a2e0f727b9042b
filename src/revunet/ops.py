"""Vectorized numpy primitives with hand-written backward passes.

All spatial ops take rank-5 (n, c, d, h, w) tensors, stride 1, and zero
"same" padding for convolutions. Kernel layouts follow one convention:
(out_ch, in_ch, k, k, k) standard, (out_ch, in_ch, 1, 1, 1) pointwise,
(ch, 1, k, k, k) depthwise. Each forward returns whatever its backward
needs beyond the caller-held inputs; the engine decides which of those
arrays count as retained activation storage.

The k x k x k convolutions share one layout: the input is zero-padded once
and flattened, with neighbouring rows and planes sharing their padding, so
each tap's window over the whole (d, h + r, w + r) grid is one contiguous
slice, and results are cropped from that grid. Forward and input gradient
add one product per tap in offset-major (dz, dy, dx) order, so they equal
a per-offset loop over strided windows bitwise wherever BLAS rounds a
matmul column the same at any matrix width (elementwise depthwise products
always). The input gradient is the same correlation over padded dy with
mirrored taps. The weight gradient is reduced over the padded grid, whose
extra columns are zero, so it matches such a loop only to rounding. Every
accumulation order is fixed, so repeated runs are bitwise identical.
"""

import numpy as np

from .tensor import ShapeError


def group_size_for(c):
    """Channels per normalization group: 10 when divisible, else one group."""
    return 10 if c % 10 == 0 else c


def _check_kernel(x, w):
    if w.ndim != 5 or w.shape[2] != w.shape[3] or w.shape[2] != w.shape[4]:
        raise ShapeError("kernel must be rank-5 with cubic spatial dims, got %r" % (w.shape,))
    if w.shape[2] % 2 == 0:
        raise ShapeError("kernel size must be odd, got %d" % w.shape[2])


def _windows(a, k):
    """The k**3 tap windows of ``a`` over the shifted grid, in (dz, dy, dx) order.

    ``a`` is zero-padded once into a flat (n, c, T) array whose rows and
    planes share their padding: the grid is (d, hp, wp) = (d, h + r, w + r).
    Tap (dz, dy, dx) of every grid voxel is then the contiguous (n, c, L)
    slice at offset (dz * hp + dy) * wp + dx, L = d * hp * wp. The zero tail
    keeps the last window in bounds.
    """
    n, c, d, h, w = a.shape
    r = k // 2
    hp, wp = h + r, w + r
    L = d * hp * wp
    af = np.zeros((n, c, L + 2 * r * (hp * wp + wp + 1)), dtype=a.dtype)
    af[:, :, :(d + r) * hp * wp].reshape(n, c, d + r, hp, wp)[:, :, r:, r:, r:] = a
    return [af[:, :, off:off + L]
            for off in ((dz * hp + dy) * wp + dx
                        for dz in range(k) for dy in range(k) for dx in range(k))]


def _accumulate(windows, term):
    """Sum ``term(i, windows[i], buf)`` over the taps in order, into one grid array."""
    out = term(0, windows[0], None)
    tmp = None
    for i in range(1, len(windows)):
        tmp = term(i, windows[i], tmp)
        out += tmp
    return out


def _crop(grid, shape, k):
    """The contiguous (n, c, d, h, w) result held in an (n, c, L) grid array."""
    d, h, w = shape
    r = k // 2
    return np.ascontiguousarray(grid.reshape(grid.shape[:2] + (d, h + r, w + r))[:, :, :, :h, :w])


def conv3d(x, w, b=None):
    """Standard 3D convolution, stride 1, zero 'same' padding."""
    _check_kernel(x, w)
    ci = x.shape[1]
    co, ci_k, k = w.shape[:3]
    if ci_k != ci:
        raise ShapeError("conv3d channel mismatch: input %d, kernel %d" % (ci, ci_k))
    wt = w.reshape(co, ci, -1)
    out = _accumulate(_windows(x, k), lambda i, win, buf: np.matmul(wt[:, :, i], win, out=buf))
    if b is not None:
        out += b.reshape(1, co, 1)
    return _crop(out, x.shape[2:], k)


def conv3d_bwd(x, w, dy, has_bias):
    co, ci, k = w.shape[:3]
    wt = w.reshape(co, ci, -1)
    dyw = _windows(dy, k)
    # the centre window is dy on the grid, zero in the columns the crop drops
    dyg = dyw[len(dyw) // 2]
    dw = np.stack([np.matmul(dyg, win.transpose(0, 2, 1)).sum(axis=0)
                   for win in _windows(x, k)], axis=-1)
    # the adjoint is the same correlation over padded dy, with mirrored taps
    dx = _accumulate(dyw[::-1], lambda i, win, buf: np.matmul(wt[:, :, i].T, win, out=buf))
    db = dy.sum(axis=(0, 2, 3, 4)) if has_bias else None
    return _crop(dx, x.shape[2:], k), dw.reshape(w.shape), db


def pointwise_conv3d(x, w, b=None):
    """1x1x1 convolution: one channel-mixing matmul at every voxel."""
    n, ci = x.shape[:2]
    co = w.shape[0]
    if w.shape[1] != ci:
        raise ShapeError("pointwise channel mismatch: input %d, kernel %d" % (ci, w.shape[1]))
    out = np.matmul(w[:, :, 0, 0, 0], x.reshape(n, ci, -1)).reshape((n, co) + x.shape[2:])
    if b is not None:
        out = out + b.reshape(1, co, 1, 1, 1)
    return out


def pointwise_conv3d_bwd(x, w, dy, has_bias):
    n, ci = x.shape[:2]
    co = w.shape[0]
    dyf = dy.reshape(n, co, -1)
    dw = np.zeros_like(w)
    dw[:, :, 0, 0, 0] = np.tensordot(dyf, x.reshape(n, ci, -1), axes=([0, 2], [0, 2]))
    dx = np.matmul(w[:, :, 0, 0, 0].T, dyf).reshape(x.shape)
    db = dy.sum(axis=(0, 2, 3, 4)) if has_bias else None
    return dx, dw, db


def depthwise_conv3d(x, w):
    """Per-channel spatial convolution; channel i of the output sees only channel i."""
    _check_kernel(x, w)
    c, k = x.shape[1], w.shape[2]
    if w.shape[0] != c or w.shape[1] != 1:
        raise ShapeError("depthwise kernel mismatch: input %d channels, kernel %r"
                         % (c, w.shape[:2]))
    wt = w.reshape(c, -1, 1)
    out = _accumulate(_windows(x, k), lambda i, win, buf: np.multiply(wt[:, i], win, out=buf))
    return _crop(out, x.shape[2:], k)


def depthwise_conv3d_bwd(x, w, dy):
    c, k = x.shape[1], w.shape[2]
    wt = w.reshape(c, -1, 1)
    dyw = _windows(dy, k)
    dyg = dyw[len(dyw) // 2][..., None]
    dw = np.stack([np.matmul(win[:, :, None], dyg)[:, :, 0, 0].sum(axis=0)
                   for win in _windows(x, k)], axis=-1)
    dx = _accumulate(dyw[::-1], lambda i, win, buf: np.multiply(wt[:, i], win, out=buf))
    return _crop(dx, x.shape[2:], k), dw.reshape(w.shape)


def group_norm(x, gamma, beta, group_size, eps=1e-5):
    """Normalize each (sample, channel group) over group channels and space.

    Returns (out, xhat, rstd); the backward pass needs only xhat and rstd
    beyond the affine parameters.
    """
    n, c = x.shape[:2]
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c % group_size != 0:
        raise ShapeError("channels %d not divisible by group size %d" % (c, group_size))
    g = c // group_size
    xg = x.reshape((n, g, group_size) + x.shape[2:])
    mean = xg.mean(axis=(2, 3, 4, 5), keepdims=True)
    var = xg.var(axis=(2, 3, 4, 5), keepdims=True)
    rstd = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = ((xg - mean) * rstd).reshape(x.shape)
    out = gamma.reshape(1, c, 1, 1, 1) * xhat + beta.reshape(1, c, 1, 1, 1)
    return out, xhat, rstd


def group_norm_bwd(xhat, rstd, gamma, dy, group_size):
    n, c = dy.shape[:2]
    g = c // group_size
    inner = (n, g, group_size) + dy.shape[2:]
    dxhat = (dy * gamma.reshape(1, c, 1, 1, 1)).reshape(inner)
    xh = xhat.reshape(inner)
    m1 = dxhat.mean(axis=(2, 3, 4, 5), keepdims=True)
    m2 = (dxhat * xh).mean(axis=(2, 3, 4, 5), keepdims=True)
    dx = (rstd * (dxhat - m1 - xh * m2)).reshape(dy.shape)
    dgamma = (dy * xhat).sum(axis=(0, 2, 3, 4))
    dbeta = dy.sum(axis=(0, 2, 3, 4))
    return dx, dgamma, dbeta


def relu(x):
    return np.maximum(x, x.dtype.type(0))


def relu_bwd(x, dy):
    return dy * (x > 0)


def maxpool3d(x):
    """2x2x2 max pooling; returns (output, flat within-window argmax indices).

    Ties take the first maximum in window scan order. Indices are int32 in
    single precision and int64 in double, so their byte cost equals one
    scalar per output voxel at the ambient width.
    """
    n, c, d, h, w = x.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError("maxpool needs even spatial dims, got %r" % (x.shape[2:],))
    win = x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2)
    win = win.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(n, c, d // 2, h // 2, w // 2, 8)
    idx_dtype = np.int32 if x.dtype == np.float32 else np.int64
    idx = win.argmax(axis=-1).astype(idx_dtype)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), idx


def maxpool3d_bwd(idx, in_shape, dy):
    n, c, d, h, w = in_shape
    win = np.zeros((n, c, d // 2, h // 2, w // 2, 8), dtype=dy.dtype)
    np.put_along_axis(win, idx[..., None], dy[..., None], axis=-1)
    win = win.reshape(n, c, d // 2, h // 2, w // 2, 2, 2, 2)
    return np.ascontiguousarray(
        win.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(n, c, d, h, w))


def _upsample_matrix(m, dtype):
    """(2m, m) interpolation weights for scale-2, align-corners=false."""
    mat = np.zeros((2 * m, m), dtype=dtype)
    for i in range(2 * m):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        mat[i, min(max(lo, 0), m - 1)] += 1.0 - frac
        mat[i, min(max(lo + 1, 0), m - 1)] += frac
    return mat


def _apply_axis(x, mat, axis):
    moved = np.moveaxis(x, axis, -1)
    return np.moveaxis(np.matmul(moved, mat.T), -1, axis)


def trilinear_upsample(x):
    """Scale-2 trilinear upsampling (align-corners=false), one axis at a time."""
    out = x
    for axis in (2, 3, 4):
        out = _apply_axis(out, _upsample_matrix(x.shape[axis], x.dtype), axis)
    return np.ascontiguousarray(out)


def trilinear_upsample_bwd(dy, in_shape):
    # linear map, so the VJP is the transpose applied in reverse axis order
    dx = dy
    for axis in (4, 3, 2):
        mat = _upsample_matrix(in_shape[axis], dy.dtype)
        moved = np.moveaxis(dx, axis, -1)
        dx = np.moveaxis(np.matmul(moved, mat), -1, axis)
    return np.ascontiguousarray(dx)
