"""Vectorized numpy primitives with hand-written backward passes.

All spatial ops take rank-5 (n, c, d, h, w) tensors, stride 1, and zero
"same" padding for convolutions. Kernel layouts follow one convention:
(out_ch, in_ch, k, k, k) standard, (out_ch, in_ch, 1, 1, 1) pointwise,
(ch, 1, k, k, k) depthwise. Each forward returns whatever its backward
needs beyond the caller-held inputs; the engine decides which of those
arrays count as retained activation storage.

The k x k x k convolutions share one layout: the input is zero-padded and
flattened, with neighbouring rows and planes sharing their padding, so
each tap's window over a (planes, h + r, w + r) grid is one contiguous
slice. Forward and input gradient run one slab loop, _correlate: the
grid is cut into a list of slabs of whole planes, and each slab takes
all k**3 taps in (dz, dy, dx) order before the next, so a slab's rows
stay in cache instead of k**3 passes over the whole grid. Each slab is
padded on its own: one zeroed buffer, reused for every slab, is refilled
with the slab's input planes and the r planes of halo on either side,
and the slab's grid result is cropped straight into the (n, c, d, h, w)
output. So forward and input gradient allocate their output and one
slab's scratch, and never a padded copy of a whole input or a grid to
crop. A slab is as many planes as fit SLAB_BYTES at the kernel's channel
counts and itemsize, but at least MIN_SLAB voxels; a grid that fits is
one slab, which covers every grid of at most 16^3 for k = 3. The input
gradient is the same correlation over dy with mirrored taps.

The standard conv makes one BLAS ?gemm call per tap, slab and sample,
C = A B + beta C, straight into the slab's grid: beta = 0 for the first
tap and 1 for every later one, so no tap needs a buffer or an add pass.
Only the leading dimensions of B and C depend on how the slab is held,
and they do not change the sums.
The gemm is the one numpy's matmul calls, bound from the OpenBLAS numpy
itself loaded (64-bit ints; importing this module raises ImportError when
neither name resolves), so one BLAS and one thread pool serve both. It
rounds like numpy's matmul followed by an add: its kernel sums a column's
c_in products in a register just as the beta = 0 call inside matmul does,
and its beta = 1 store adds that sum to C with one rounding, as the add
would (alpha = beta = 1 scale nothing). That holds while c_in fits one
OpenBLAS k-block: bitwise at c_in <= 384 in both precisions, while from
512 on gemm adds each block's partial sum into C in turn. numpy's matmul
computes a product with one row or one column as a matrix-vector product
(gemv), which rounds unlike gemm, so a conv with one output channel (for
the input gradient: one input channel), or whose last slab has one
column, takes np.matmul plus an add per tap instead, in the same slab
loop as the depthwise kernels' elementwise multiply.

Within a slab each output element thus adds one product per tap in
offset-major (dz, dy, dx) order, whatever the slab size, so forward and
input gradient equal a per-offset loop of numpy matmuls over strided
windows bitwise wherever numpy's matmul rounds a column the same at any
matrix width (slabs narrow the matrices; elementwise depthwise products
always qualify). One exception: numpy hands an F-contiguous matrix to
gemm transposed, which can take another kernel with other rounding, so
the input gradient of a k = 1 conv, whose loop multiplies by w.T as is,
matches such a loop only to rounding; models run k = 1 convolutions
through pointwise_conv3d.

Both weight gradients read one tap view: a read-only (n, c, k, k, k, L)
strided view of x padded whole, whose [dz, dy, dx] entry is that tap's
window over the whole grid, refused before it is formed unless the last
window ends inside the padded array. One batched np.matmul of the view
against dy's centre window, with dy padded whole too, makes, per sample
and tap, the call a matmul per tap makes, with the same strides: a
(c_out, L) by (L, c_in) product for the standard conv, a 1 x L by L x 1
dot per channel for the depthwise one. So dw equals that per-tap
loop bitwise. Its sums run over the whole padded grid, whose extra
columns are zero, so it matches the offset-major loops only to rounding.
Every accumulation order is fixed, so repeated runs are bitwise identical.

Max pooling reduces each 2x2x2 window by three np.maximum calls over slot
pairs: along w, then h, then d, always with the earlier slot as the
second operand. np.maximum returns its second operand on a tie, so the
output is the first maximum in window scan order bit for bit, signed
zeros included, as an argmax over the window gives it. With NaNs the
index is the first NaN's, but of two NaNs in one window the output keeps
the later one's payload. Argmax indices are built only when asked for,
which a forward without a tape never does.
"""

import ctypes
import functools
import math

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

from .tensor import ShapeError

# added to each group's variance before the square root in group_norm
GN_EPS = 1e-5


def group_size_for(c):
    """Channels per normalization group: 10 when divisible, else one group."""
    return 10 if c % 10 == 0 else c


def _check_kernel(w):
    if w.ndim != 5 or w.shape[2] != w.shape[3] or w.shape[2] != w.shape[4]:
        raise ShapeError("kernel must be rank-5 with cubic spatial dims, got %r" % (w.shape,))
    if w.shape[2] % 2 == 0:
        raise ShapeError("kernel size must be odd, got %d" % w.shape[2])


# Bytes one slab of the tap loop may touch: its input, temporary and output
# rows stay in a core's L2 cache while all k**3 taps are summed into it.
SLAB_BYTES = 1 << 20
# Fewest grid voxels per slab: numpy's ufuncs ran 2-3x slower per element
# over slab rows shorter than about a third of their 8192-element buffer.
MIN_SLAB = 8192


def _windows(a, k):
    """Zero-pad ``a`` once into a flat grid; -> (padded, tap offsets, L, plane).

    The padded array is (n, c, T) and its rows and planes share their
    padding: the grid is (d, hp, wp) = (d, h + r, w + r), L = d * hp * wp
    and plane = hp * wp. Tap (dz, dy, dx) of grid voxels [s0, s1) is the
    contiguous slice [off + s0, off + s1), off = (dz * hp + dy) * wp + dx;
    the offsets are listed in (dz, dy, dx) order. The zero tail keeps the
    last window in bounds.
    """
    n, c, d, h, w = a.shape
    r = k // 2
    hp, wp = h + r, w + r
    plane = hp * wp
    L = d * plane
    af = np.zeros((n, c, L + 2 * r * (plane + wp + 1)), dtype=a.dtype)
    af[:, :, :(d + r) * plane].reshape(n, c, d + r, hp, wp)[:, :, r:, r:, r:] = a
    return af, _offsets(h, w, k), L, plane


def _offsets(h, w, k):
    """Tap offsets, in (dz, dy, dx) order, into the layout _windows gives h x w planes."""
    r = k // 2
    hp, wp = h + r, w + r
    return [(dz * hp + dy) * wp + dx for dz in range(k) for dy in range(k) for dx in range(k)]


def _slab(n, c_in, c_out, itemsize, plane):
    """Grid voxels per slab: the whole planes whose rows fit SLAB_BYTES, at least MIN_SLAB."""
    planes = max(SLAB_BYTES // (n * (c_in + 2 * c_out) * itemsize * plane), -(-MIN_SLAB // plane))
    return planes * plane


def _slabs(n, c_in, c_out, itemsize, plane, L):
    """The [s0, s1) voxel ranges the tap loop takes in turn over a grid of L voxels."""
    step = _slab(n, c_in, c_out, itemsize, plane)
    return [(s0, min(s0 + step, L)) for s0 in range(0, L, step)]


def _tap_windows(a, k):
    """Read-only (n, c, k, k, k, L) view of ``a`` padded by _windows.

    Entry [:, :, dz, dy, dx] is tap (dz, dy, dx)'s window over the whole
    grid: the slice _windows describes, with the same strides.
    """
    af, offsets, L, plane = _windows(a, k)
    # the view reads up to the end of the last tap's window
    if max(offsets) + L > af.shape[-1]:
        raise ValueError("tap windows do not fit the padded grid %r" % (af.shape,))
    item, wp = af.itemsize, a.shape[4] + k // 2
    return np.lib.stride_tricks.as_strided(
        af, af.shape[:2] + (k, k, k, L), af.strides[:2] + (plane * item, wp * item, item, item),
        writeable=False)


def _bind_gemm():
    """cblas ?gemm of the OpenBLAS numpy itself loaded: -> {dtype: (function, scalar type)}."""
    path = _multiarray_umath.__file__
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_cblas_", "cblas_"):
        try:
            sgemm, dgemm = getattr(lib, prefix + "sgemm64_"), getattr(lib, prefix + "dgemm64_")
        except AttributeError:
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for fn, scalar in ((sgemm, ctypes.c_float), (dgemm, ctypes.c_double)):
            # order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
            fn.argtypes = ([ctypes.c_int] * 3 + [i64] * 3
                           + [scalar, ptr, i64, ptr, i64, scalar, ptr, i64])
            fn.restype = None
        return {np.dtype(np.float32): (sgemm, ctypes.c_float),
                np.dtype(np.float64): (dgemm, ctypes.c_double)}
    raise ImportError("revunet.ops needs numpy's own BLAS: neither scipy_cblas_?gemm64_ nor "
                      "cblas_?gemm64_ resolves in %s" % path)


_GEMM = _bind_gemm()
_ROW_MAJOR, _NO_TRANS = ctypes.c_int(101), ctypes.c_int(111)


def _correlate(a, k, offsets, taps, product=None):
    """Sum tap i's products with window i over ``a`` into its (n, c_out, d, h, w) output.

    ``taps`` is (k**3, c_out, c_in). The grid is taken slab by slab, and
    each slab of grid planes [z0, z1) is padded on its own: one zeroed
    buffer, reused for every slab, takes a's planes z0 - r to z1 + r - 1,
    halo included, in _windows' layout, so tap i's window of the slab's
    cols grid voxels is the contiguous slice [offsets[i], offsets[i] +
    cols) of it. The taps are summed into the first cols columns of one
    slab-sized (n, c_out, S) grid, which is then cropped straight into the
    output.

    Without ``product``, each tap and slab is one ?gemm per sample, C =
    A B + beta C straight into the grid: beta is 0 for tap 0 and 1 after
    it, B is the window with ldb the padded slab's row length, and C is
    the grid with ldc its row length. Products numpy's matmul computes by
    gemv, with one row or one column, go through np.matmul instead. With
    ``product``, or on that fallback, each tap's ``product(taps[i],
    window_i)`` goes through one slab-sized buffer and is then added into
    the grid, except tap 0's, which is written there.
    """
    n, c_in, d, h, w = a.shape
    c_out = taps.shape[1]
    r = k // 2
    hp, wp = h + r, w + r
    plane = hp * wp
    slabs = _slabs(n, c_in, c_out, a.itemsize, plane, d * plane)
    step = slabs[0][1]
    pad = np.zeros((n, c_in, step + 2 * r * (plane + wp + 1)), dtype=a.dtype)
    # every window formed from pad must end inside it
    if not (len(taps) == len(offsets) and min(offsets) >= 0
            and max(offsets) + step <= pad.shape[2]):
        raise ValueError("tap windows do not fit the padded %s slab %r" % (pad.dtype, pad.shape))
    grid = np.empty((n, c_out, step), dtype=a.dtype)
    if product is None:
        # ?gemm reads every tap as a (c_out, c_in) matrix of a's dtype
        if not (a.dtype in _GEMM and taps.dtype == a.dtype
                and taps.shape == (len(offsets), c_out, c_in)):
            raise ValueError("%s taps %r do not fit %d tap windows of a %s input with %d channels"
                             % (taps.dtype, taps.shape, len(offsets), a.dtype, c_in))
        if c_out == 1 or slabs[-1][1] - slabs[-1][0] == 1:
            # a tap product with one row, or a slab of one column: numpy's
            # matmul computes those as a matrix-vector product, as in the
            # loop oracle
            product = np.matmul
    if product is None:
        gemm, scalar = _GEMM[a.dtype]
        # this frame holds the contiguous copy until every call below is done
        taps = np.ascontiguousarray(taps)
        item = a.itemsize
        a_ptr, tap_bytes = taps.ctypes.data, c_out * c_in * item
        m, depth, lda, ldb, ldc = (ctypes.c_int64(v) for v in (c_out, c_in, c_in, pad.shape[2], step))
        alpha, betas = scalar(1), (scalar(0), scalar(1))
        # set in place before each call, which costs less than new ctypes objects
        cols, a_arg, b = ctypes.c_int64(), ctypes.c_void_p(), ctypes.c_void_p()
        # (start of sample j's rows in pad, its rows in the grid); a loop, as
        # a comprehension would make cells of the locals it reads on every call
        samples = []
        for j in range(n):
            samples.append((pad.ctypes.data + j * c_in * ldb.value * item,
                            ctypes.c_void_p(grid.ctypes.data + j * c_out * step * item)))
        part = None
    else:
        part = np.empty_like(grid)
    out = None
    for s0, s1 in slabs:
        z0, z1 = s0 // plane, s1 // plane
        lo, hi = max(z0 - r, 0), min(z1 + r, d)
        # plane j of the padded slab holds a's plane z0 - r + j
        planes = pad[:, :, :step + 2 * r * plane].reshape(n, c_in, -1, hp, wp)[:, :, :, r:, r:]
        planes[:, :, lo - z0 + r:hi - z0 + r] = a[:, :, lo:hi]
        if s0:
            # planes past a's last one still hold the previous slab's; the
            # leading ones, before a's first plane, were never written
            planes[:, :, hi - z0 + r:] = 0
        del planes
        if product is None:
            cols.value = s1 - s0
            for i, off in enumerate(offsets):
                a_arg.value, beta = a_ptr + i * tap_bytes, betas[i > 0]
                for b0, c in samples:
                    b.value = b0 + off * item
                    gemm(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, cols, depth,
                         alpha, a_arg, lda, b, ldb, beta, c, ldc)
        else:
            acc, sub = grid[:, :, :s1 - s0], part[:, :, :s1 - s0]
            # out arrays passed by position: cheaper than the keyword per call
            product(taps[0], pad[:, :, offsets[0]:offsets[0] + s1 - s0], acc)
            for tap, off in zip(taps[1:], offsets[1:]):
                np.add(acc, product(tap, pad[:, :, off:off + s1 - s0], sub), acc)
        if out is None:
            if len(slabs) == 1:
                # a grid of one slab frees its padded input and product buffer
                # before the output is allocated, so it holds no more than the
                # whole padded grid did
                pad = part = None
            out = np.empty((n, c_out, d, h, w), dtype=a.dtype)
        out[:, :, z0:z1] = grid[:, :, :s1 - s0].reshape(n, c_out, z1 - z0, hp, wp)[:, :, :, :h, :w]
    return out


def _check_dtypes(*arrays):
    """The conv kernels hand raw pointers to ?gemm: one dtype, float32 or float64."""
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) != 1 or dtypes.pop() not in _GEMM:
        raise TypeError("conv3d needs arrays of one dtype, float32 or float64, got %s"
                        % ", ".join(str(a.dtype) for a in arrays))


def conv3d(x, w, b=None):
    """Standard 3D convolution, stride 1, zero 'same' padding."""
    _check_kernel(w)
    _check_dtypes(x, w)
    ci = x.shape[1]
    co, ci_k, k = w.shape[:3]
    if ci_k != ci:
        raise ShapeError("conv3d channel mismatch: input %d, kernel %d" % (ci, ci_k))
    # taps[i] is tap i's (co, ci) weight matrix
    out = _correlate(x, k, _offsets(*x.shape[3:], k), w.reshape(co, ci, -1).transpose(2, 0, 1))
    if b is not None:
        out += b.reshape(1, co, 1, 1, 1)
    return out


def conv3d_bwd(x, w, dy, has_bias):
    _check_dtypes(x, w, dy)
    co, ci, k = w.shape[:3]
    dyf, offsets, L, _ = _windows(dy, k)
    # the centre window is dy on the grid, zero in the columns the crop drops
    centre = offsets[len(offsets) // 2]
    dyg = dyf[:, :, centre:centre + L]
    wins = _tap_windows(x, k)
    # one (co, L) by (L, ci) product per sample and tap, as a matmul per tap makes
    dw = np.matmul(dyg[:, None, None, None], wins.transpose(0, 2, 3, 4, 5, 1)).sum(axis=0)
    # both padded grids are freed before the input gradient is allocated:
    # this bounds the backward's peak memory
    del wins, dyf, dyg
    # the adjoint is the same correlation over dy, with mirrored taps
    dx = _correlate(dy, k, offsets[::-1], w.reshape(co, ci, -1).transpose(2, 1, 0))
    db = dy.sum(axis=(0, 2, 3, 4)) if has_bias else None
    return dx, np.ascontiguousarray(dw.transpose(3, 4, 0, 1, 2)), db


def pointwise_conv3d(x, w, b=None):
    """1x1x1 convolution: one channel-mixing matmul at every voxel."""
    n, ci = x.shape[:2]
    co = w.shape[0]
    if w.shape[1] != ci:
        raise ShapeError("pointwise channel mismatch: input %d, kernel %d" % (ci, w.shape[1]))
    out = np.matmul(w[:, :, 0, 0, 0], x.reshape(n, ci, -1)).reshape((n, co) + x.shape[2:])
    if b is not None:
        out += b.reshape(1, co, 1, 1, 1)   # into matmul's fresh output, no second copy
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
    _check_kernel(w)
    c, k = x.shape[1], w.shape[2]
    if w.shape[0] != c or w.shape[1] != 1:
        raise ShapeError("depthwise kernel mismatch: input %d channels, kernel %r"
                         % (c, w.shape[:2]))
    taps = w.reshape(c, -1, 1).transpose(1, 0, 2)
    return _correlate(x, k, _offsets(*x.shape[3:], k), taps, np.multiply)


def depthwise_conv3d_bwd(x, w, dy):
    c, k = x.shape[1], w.shape[2]
    taps = w.reshape(c, -1, 1).transpose(1, 0, 2)
    dyf, offsets, L, _ = _windows(dy, k)
    centre = offsets[len(offsets) // 2]
    dyg = dyf[:, :, None, None, None, centre:centre + L, None]
    # one 1 x L by L x 1 dot per sample, channel and tap, as a matmul per tap makes
    wins = _tap_windows(x, k)
    dw = np.matmul(wins[..., None, :], dyg)[..., 0, 0].sum(axis=0)
    del wins, dyf, dyg
    dx = _correlate(dy, k, offsets[::-1], taps, np.multiply)
    return dx, dw.reshape(w.shape)


def _mean(a, axes):
    """``a.mean(axis=axes, keepdims=True)`` bit for bit: the sum and the
    division by an intp count that numpy's mean makes, without its Python
    wrapper."""
    s = np.add.reduce(a, axis=axes, keepdims=True)
    count = math.prod(a.shape[axis] for axis in axes)
    return np.true_divide(s, np.intp(count), out=s, casting="unsafe")


def group_norm(x, gamma, beta, group_size, need_xhat):
    """Normalize each (sample, channel group) over group channels and space.

    Returns (out, xhat, rstd); the backward pass needs only xhat and rstd
    beyond the affine parameters, which share x's dtype. One buffer takes
    x - mean, its square for the variance, x - mean again and the scaling
    by rstd, which makes it xhat. With ``need_xhat`` the output is a second
    array and xhat is returned; without it, xhat is None and the buffer
    is scaled by gamma and shifted by beta in place, so the call allocates
    only its output. Both apply the same ufuncs to the same operands, so
    ``out`` has the same bits either way.
    """
    n, c = x.shape[:2]
    if c % group_size != 0:
        raise ShapeError("channels %d not divisible by group size %d" % (c, group_size))
    g = c // group_size
    axes = (2, 3, 4, 5)
    xg = x.reshape((n, g, group_size) + x.shape[2:])
    mean = _mean(xg, axes)
    # the passes np.var makes, in one buffer, which then takes x - mean
    # again and is scaled into xhat
    buf = np.subtract(xg, mean)
    rstd = 1.0 / np.sqrt(_mean(np.multiply(buf, buf, buf), axes) + x.dtype.type(GN_EPS))
    xhat = np.multiply(np.subtract(xg, mean, buf), rstd, buf).reshape(x.shape)
    del mean   # freed before the output is allocated
    out = np.multiply(gamma.reshape(1, c, 1, 1, 1), xhat, None if need_xhat else xhat)
    out += beta.reshape(1, c, 1, 1, 1)
    return out, xhat if need_xhat else None, rstd


def group_norm_bwd(xhat, rstd, gamma, dy, overwrite_dy=False):
    """Returns (dx, dgamma, dbeta); with overwrite_dy, dy's buffer holds the
    dxhat work array, for a caller that reads dy no more. The group count is
    rstd's second axis."""
    n, c = dy.shape[:2]
    g = rstd.shape[1]
    inner = (n, g, c // g) + dy.shape[2:]
    axes = (2, 3, 4, 5)
    dgamma = (dy * xhat).sum(axis=(0, 2, 3, 4))
    dbeta = dy.sum(axis=(0, 2, 3, 4))
    dxhat = np.multiply(dy, gamma.reshape(1, c, 1, 1, 1),
                        out=dy if overwrite_dy else None).reshape(inner)
    xh = xhat.reshape(inner)
    m1 = _mean(dxhat, axes)
    prod = dxhat * xh
    m2 = _mean(prod, axes)
    # rstd * (dxhat - m1 - xh * m2), evaluated in the two buffers above
    dx = np.subtract(dxhat, m1, out=dxhat)
    dx -= np.multiply(xh, m2, out=prod)
    dx = np.multiply(rstd, dx, out=dx).reshape(dy.shape)
    return dx, dgamma, dbeta


def relu(x, out=None):
    return np.maximum(x, x.dtype.type(0), out=out)


def relu_bwd(x, dy, out=None):
    return np.multiply(dy, x > 0, out=out)


def _slots(a, axis):
    """Views of the even (earlier) and odd (later) slots of ``a`` along ``axis``."""
    lead = (slice(None),) * axis
    return a[lead + (slice(0, None, 2),)], a[lead + (slice(1, None, 2),)]


def maxpool3d(x, need_idx):
    """2x2x2 max pooling; returns (output, flat within-window argmax indices).

    Three np.maximum calls reduce slot pairs along w, then h, then d, each
    with the earlier slot as the second operand. np.maximum returns its
    second operand on a tie, so ties, signed zeros included, keep the first
    maximum in window scan order (index 4 dz + 2 dy + dx), bitwise as an
    argmax over the window would. A NaN propagates and its index is the
    first NaN in scan order; when two NaNs with different payloads share a
    window, the output keeps the later one's payload, so the value is NaN
    but its payload bits may differ from the first NaN's.

    Indices are built only when ``need_idx`` is true, else None: each stage
    marks where the later slot won (the maximum differs from the earlier
    slot, and the earlier slot is not NaN), and a uint8 code carries those
    bits. Indices are int32 in single precision and int64 in double, so
    their byte cost equals one scalar per output voxel at the ambient width.
    """
    d, h, w = x.shape[2:]
    if d % 2 or h % 2 or w % 2:
        raise ShapeError("maxpool needs even spatial dims, got %r" % (x.shape[2:],))
    out, code = x, None
    for axis, bit in ((4, 1), (3, 2), (2, 4)):
        earlier, later = _slots(out, axis)
        out = np.maximum(later, earlier)
        if need_idx:
            won = ((out != earlier) & ~np.isnan(earlier)).view(np.uint8)
            if code is None:
                code = won
            else:
                # code_later | bit where the later slot won, else code_earlier
                code_earlier, code_later = _slots(code, axis)
                code = code_later | np.uint8(bit)
                code ^= code_earlier
                code *= won
                code ^= code_earlier
    if not need_idx:
        return out, None
    return out, code.astype(np.int32 if x.dtype == np.float32 else np.int64)


def maxpool3d_bwd(idx, dy):
    # each window slot j = 4 dz + 2 dy + dx takes dy where it won and zero
    # elsewhere; the input is twice idx spatially (maxpool3d refuses odd dims)
    dx = np.empty(idx.shape[:2] + tuple(2 * s for s in idx.shape[2:]), dtype=dy.dtype)
    zero = dy.dtype.type(0)
    for j in range(8):
        dx[:, :, j >> 2::2, (j >> 1) & 1::2, j & 1::2] = np.where(idx == j, dy, zero)
    return dx


@functools.lru_cache(maxsize=None)
def _upsample_matrix(m, dtype):
    """(2m, m) interpolation weights for scale-2, align-corners=false.

    Built once per (m, dtype) and shared by every later call, so read-only.
    """
    mat = np.zeros((2 * m, m), dtype=dtype)
    for i in range(2 * m):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        frac = src - lo
        mat[i, min(max(lo, 0), m - 1)] += 1.0 - frac
        mat[i, min(max(lo + 1, 0), m - 1)] += frac
    mat.flags.writeable = False
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


def trilinear_upsample_bwd(dy):
    # linear map, so the VJP is the transpose applied in reverse axis order
    dx = dy
    for axis in (4, 3, 2):
        dx = _apply_axis(dx, _upsample_matrix(dy.shape[axis] // 2, dy.dtype).T, axis)
    return np.ascontiguousarray(dx)
