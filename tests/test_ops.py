"""Primitive forward ops and their VJPs against naive oracles and hand values."""

import gc
import tracemalloc

import numpy as np
import pytest

from helpers import finite_difference_grad
from revunet import ops, reference, verify
from revunet.engine import Tape
from revunet.rng import rng_for
from revunet.tensor import ShapeError
from revunet.unet import PRESETS, UNetConfig, build

TOL_ORACLE = 1e-12
TOL_FD = 1e-6


def _gen(*labels):
    return rng_for(0, "test-ops", *labels)


# The offset-major loops the conv kernels used before the shifted-window
# rewrite, kept as a test-only oracle for its forward and input gradient.
def _pad(x, r):
    return np.pad(x, ((0, 0), (0, 0), (r, r), (r, r), (r, r)))


def _loops_conv3d(x, w, b=None):
    n, ci, d, h, wd = x.shape
    co, _, k = w.shape[:3]
    xp = _pad(x, k // 2)
    out = None
    for dz in range(k):
        for dyy in range(k):
            for dx in range(k):
                patch = xp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd]
                term = np.matmul(w[:, :, dz, dyy, dx], patch.reshape(n, ci, -1))
                out = term if out is None else out + term
    out = out.reshape(n, co, d, h, wd)
    if b is not None:
        out = out + b.reshape(1, co, 1, 1, 1)
    return out


def _loops_conv3d_bwd(x, w, dy):
    n, ci, d, h, wd = x.shape
    co, _, k = w.shape[:3]
    r = k // 2
    xp = _pad(x, r)
    dyf = dy.reshape(n, co, -1)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for dz in range(k):
        for dyy in range(k):
            for dx in range(k):
                patch = xp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd]
                dw[:, :, dz, dyy, dx] = np.tensordot(
                    dyf, patch.reshape(n, ci, -1), axes=([0, 2], [0, 2]))
                dxp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd] += np.matmul(
                    w[:, :, dz, dyy, dx].T, dyf).reshape(n, ci, d, h, wd)
    return dxp[:, :, r:r + d, r:r + h, r:r + wd], dw


def _loops_depthwise(x, w):
    n, c, d, h, wd = x.shape
    k = w.shape[2]
    xp = _pad(x, k // 2)
    out = None
    for dz in range(k):
        for dyy in range(k):
            for dx in range(k):
                patch = xp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd]
                term = w[:, 0, dz, dyy, dx].reshape(1, c, 1, 1, 1) * patch
                out = term if out is None else out + term
    return out


def _loops_depthwise_bwd(x, w, dy):
    n, c, d, h, wd = x.shape
    k = w.shape[2]
    r = k // 2
    xp = _pad(x, r)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for dz in range(k):
        for dyy in range(k):
            for dx in range(k):
                patch = xp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd]
                dw[:, 0, dz, dyy, dx] = (dy * patch).sum(axis=(0, 2, 3, 4))
                dxp[:, :, dz:dz + d, dyy:dyy + h, dx:dx + wd] += (
                    w[:, 0, dz, dyy, dx].reshape(1, c, 1, 1, 1) * dy)
    return dxp[:, :, r:r + d, r:r + h, r:r + wd], dw


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


KERNEL_SHAPES = [(1, 1, 1), (2, 2, 2), (4, 4, 4), (5, 6, 7)]
DW_TOL = {np.float32: 1e-6, np.float64: 1e-13}


class TestConv3d:
    def test_identity_kernel(self):
        x = _gen("id").standard_normal((1, 1, 3, 3, 3))
        k = np.ones((1, 1, 1, 1, 1))
        assert np.array_equal(ops.conv3d(x, k), x)

    def test_ones_counting_under_zero_padding(self):
        x = np.ones((1, 1, 3, 3, 3))
        k = np.ones((1, 1, 3, 3, 3))
        out = ops.conv3d(x, k)
        assert out[0, 0, 1, 1, 1] == 27.0  # full neighborhood
        assert out[0, 0, 0, 0, 0] == 8.0   # corner sees a 2x2x2 corner
        assert out[0, 0, 0, 1, 1] == 18.0  # face center sees a 3x3x2 slab

    def test_matches_loop_oracle(self):
        gen = _gen("oracle")
        x = gen.standard_normal((1, 2, 4, 4, 4))
        w = gen.standard_normal((3, 2, 3, 3, 3))
        b = gen.standard_normal(3)
        assert verify._rel(ops.conv3d(x, w, b), reference.conv3d_loops(x, w, b)) <= TOL_ORACLE

    def test_bigger_shape_oracle(self):
        gen = _gen("oracle6")
        x = gen.standard_normal((2, 4, 6, 6, 6))
        w = gen.standard_normal((3, 4, 3, 3, 3))
        assert verify._rel(ops.conv3d(x, w), reference.conv3d_loops(x, w)) <= TOL_ORACLE

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_widths_match_offset_major_loops(self, dtype):
        gen = _gen("widths", str(dtype))
        x = gen.standard_normal((1, 8, 16, 16, 16)).astype(dtype)
        w = gen.standard_normal((8, 8, 3, 3, 3)).astype(dtype)
        dy = gen.standard_normal((1, 8, 16, 16, 16)).astype(dtype)
        assert _same_bits(ops.conv3d(x, w), _loops_conv3d(x, w))
        assert _same_bits(ops.conv3d_bwd(x, w, dy, False)[0], _loops_conv3d_bwd(x, w, dy)[0])

    def test_shape_errors(self):
        x = np.zeros((1, 2, 4, 4, 4))
        with pytest.raises(ShapeError):
            ops.conv3d(x, np.zeros((3, 1, 3, 3, 3)))  # channel mismatch
        with pytest.raises(ShapeError):
            ops.conv3d(x, np.zeros((3, 2, 2, 2, 2)))  # even kernel


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
class TestShiftedWindowKernels:
    """Forward and dx reproduce the offset-major loops bit for bit; dw is
    reduced over the padded grid, so it agrees to rounding."""

    def _data(self, label, dtype, shape, ci, co, k, depthwise=False):
        gen = _gen("shifted", label, str(dtype), str(k), str(shape))
        x = gen.standard_normal((2, ci) + shape).astype(dtype)
        w = gen.standard_normal((co, 1 if depthwise else ci, k, k, k)).astype(dtype)
        dy = gen.standard_normal((2, co) + shape).astype(dtype)
        return x, w, dy

    def test_depthwise(self, dtype, k, shape):
        x, w, dy = self._data("dw", dtype, shape, 3, 3, k, depthwise=True)
        assert _same_bits(ops.depthwise_conv3d(x, w), _loops_depthwise(x, w))
        dx, dw = ops.depthwise_conv3d_bwd(x, w, dy)
        dx_loops, dw_loops = _loops_depthwise_bwd(x, w, dy)
        assert _same_bits(dx, dx_loops)
        assert dw.dtype == dtype and verify._rel(dw, dw_loops) <= DW_TOL[dtype]

    def test_conv3d_single_channel(self, dtype, k, shape):
        # one channel in and out: every per-tap product is exact, whatever
        # BLAS routine computes it, so this pins the tap order, the bias, the
        # crop and the mirrored taps of dx on every shape
        x, w, dy = self._data("conv1", dtype, shape, 1, 1, k)
        b = _gen("bias").standard_normal(1).astype(dtype)
        assert _same_bits(ops.conv3d(x, w, b), _loops_conv3d(x, w, b))
        dx, dw, _ = ops.conv3d_bwd(x, w, dy, True)
        dx_loops, dw_loops = _loops_conv3d_bwd(x, w, dy)
        assert _same_bits(dx, dx_loops)
        assert dw.dtype == dtype and verify._rel(dw, dw_loops) <= DW_TOL[dtype]

    def test_conv3d_channels(self, dtype, k, shape):
        x, w, dy = self._data("conv", dtype, shape, 3, 4, k)
        b = _gen("bias").standard_normal(4).astype(dtype)
        out, loops = ops.conv3d(x, w, b), _loops_conv3d(x, w, b)
        dx, dw, _ = ops.conv3d_bwd(x, w, dy, True)
        dx_loops, dw_loops = _loops_conv3d_bwd(x, w, dy)
        if shape == (1, 1, 1) and k > 1:
            # the loops' per-tap product has one column there, which BLAS
            # computes as a matrix-vector product with its own rounding
            eps = np.finfo(dtype).eps
            assert verify._rel(out, loops) <= 8 * eps
            assert verify._rel(dx, dx_loops) <= 8 * eps
        else:
            assert _same_bits(out, loops)
            assert _same_bits(dx, dx_loops)
        assert dw.dtype == dtype and verify._rel(dw, dw_loops) <= DW_TOL[dtype]


class TestShiftedWindowKernelsAcrossSlabs(TestShiftedWindowKernels):
    """The same checks with one plane per slab, so every kernel with d > 1
    crosses slab edges."""

    @pytest.fixture(autouse=True)
    def _one_plane_slabs(self, monkeypatch):
        monkeypatch.setattr(ops, "SLAB_BYTES", 1)
        monkeypatch.setattr(ops, "MIN_SLAB", 1)


def _slabs(n, c_in, c_out, dtype, shape, k=3):
    """(slab count, voxels in the last slab, voxels per slab) of the tap loop over this grid."""
    d, h, w = shape
    plane = (h + k // 2) * (w + k // 2)
    step = ops._slab(n, c_in, c_out, np.dtype(dtype).itemsize, plane)
    count = -(-d * plane // step)
    return count, d * plane - (count - 1) * step, step


# grids that take several slabs at the default budget, the last one short
MULTI_SLAB = [((1, 8, 20, 33, 35), 8), ((2, 6, 18, 40, 24), 6), ((1, 3, 41, 34, 30), 4)]

# A weight gradient entry sums K = n * d * h * w products in another order
# than the loops do, and the rounding of a K-term sum of terms of either
# sign grows like eps * sqrt(K), so past small grids dw is held to
# DW_SCALE * eps * sqrt(K) instead of DW_TOL: float32 dw at x (1, 3, 40,
# 34, 30) with 4 output channels reads 1.46e-6, 0.061 eps sqrt(K), and the
# largest of the grids here in either precision 0.080 eps sqrt(K).
DW_SCALE = 0.25


def _dw_bound(x):
    return DW_SCALE * np.finfo(x.dtype).eps * np.sqrt(x.shape[0] * np.prod(x.shape[2:]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,co", MULTI_SLAB)
class TestMultiSlabKernels:
    def _data(self, label, dtype, shape, co, depthwise=False):
        gen = _gen("multislab", label, str(dtype), str(shape))
        x = gen.standard_normal(shape).astype(dtype)
        w = gen.standard_normal((co, 1 if depthwise else shape[1], 3, 3, 3)).astype(dtype)
        dy = gen.standard_normal((shape[0], co) + shape[2:]).astype(dtype)
        return x, w, dy

    def _assert_multi_slab(self, n, c_in, c_out, dtype, grid):
        count, last, step = _slabs(n, c_in, c_out, dtype, grid)
        assert count > 1 and 0 < last < step

    def test_depthwise(self, dtype, shape, co):
        x, w, dy = self._data("dw", dtype, shape, shape[1], depthwise=True)
        self._assert_multi_slab(shape[0], shape[1], shape[1], dtype, shape[2:])
        assert _same_bits(ops.depthwise_conv3d(x, w), _loops_depthwise(x, w))
        dx, dw = ops.depthwise_conv3d_bwd(x, w, dy)
        dx_loops, dw_loops = _loops_depthwise_bwd(x, w, dy)
        assert _same_bits(dx, dx_loops)
        assert dw.dtype == dtype and verify._rel(dw, dw_loops) <= _dw_bound(x)

    def test_conv3d(self, dtype, shape, co):
        x, w, dy = self._data("conv", dtype, shape, co)
        self._assert_multi_slab(shape[0], shape[1], co, dtype, shape[2:])
        self._assert_multi_slab(shape[0], co, shape[1], dtype, shape[2:])
        b = _gen("multislab-bias").standard_normal(co).astype(dtype)
        assert _same_bits(ops.conv3d(x, w, b), _loops_conv3d(x, w, b))
        dx, dw, _ = ops.conv3d_bwd(x, w, dy, True)
        dx_loops, dw_loops = _loops_conv3d_bwd(x, w, dy)
        assert _same_bits(dx, dx_loops)
        assert dw.dtype == dtype and verify._rel(dw, dw_loops) <= _dw_bound(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv3d_dw_within_the_scaled_bound_where_dw_tol_is_too_tight(dtype):
    # the grid where float32 dw first read past DW_TOL (1.46e-6)
    x, w, dy = TestMultiSlabKernels()._data("conv", dtype, (1, 3, 40, 34, 30), 4)
    dw = ops.conv3d_bwd(x, w, dy, False)[1]
    assert verify._rel(dw, _loops_conv3d_bwd(x, w, dy)[1]) <= _dw_bound(x)


def test_model_grids_up_to_16_cubed_take_one_slab(monkeypatch):
    # every tap loop a model runs on a grid of at most 16^3, at the widths of
    # the toy presets and of the train and segment benchmark models, then
    # the paper presets' widths (and 4x, an expanded MBConv width) at 16^3
    seen = []
    slabs = ops._slabs

    def spy(n, c_in, c_out, itemsize, plane, L):
        seen.append((n, c_in, c_out, itemsize, plane, L))
        return slabs(n, c_in, c_out, itemsize, plane, L)

    monkeypatch.setattr(ops, "_slabs", spy)
    configs = ["mbconv-base-toy", "baseline-toy",
               UNetConfig(widths=(8, 16, 32), image_size=(16, 16, 16),
                          block_kind="mbconv", expand_ratio=2),
               UNetConfig(widths=(8, 16, 32, 64), image_size=(16, 16, 16),
                          block_kind="standard")]
    for config in configs:
        for precision in ("single", "double"):
            model = build(config, 0, precision)
            x = _gen("one-slab").standard_normal(
                (1, model.config.in_ch, 16, 16, 16)).astype(model.dtype)
            tape = Tape(None)
            logits = model.forward(x, tape)
            model.backward(np.ones_like(logits), tape)
    assert len(seen) > 50
    for n, c_in, c_out, itemsize, plane, L in seen:
        assert ops._slab(n, c_in, c_out, itemsize, plane) >= L
    for c in sorted({c for cfg in PRESETS.values() for w in cfg.widths for c in (w, 4 * w)}):
        assert ops._slab(1, c, c, 8, 17 * 17) >= 16 * 17 * 17


class TestConvBoundary:
    """The checks that run before the conv kernels hand pointers to BLAS."""

    def _data(self, dtype=np.float32):
        gen = _gen("boundary")
        x = gen.standard_normal((1, 3, 4, 5, 6)).astype(dtype)
        w = gen.standard_normal((2, 3, 3, 3, 3)).astype(dtype)
        dy = gen.standard_normal((1, 2, 4, 5, 6)).astype(dtype)
        return x, w, dy

    def test_mixed_precisions_are_refused(self):
        x, w, dy = self._data()
        for args in ((x, w.astype(np.float64)), (x.astype(np.float64), w)):
            with pytest.raises(TypeError):
                ops.conv3d(*args)
        with pytest.raises(TypeError):
            ops.conv3d_bwd(x, w, dy.astype(np.float64), False)
        with pytest.raises(TypeError):
            ops.conv3d_bwd(x.astype(np.float64), w, dy, False)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float16])
    def test_other_dtypes_are_refused(self, dtype):
        x, w, dy = (a.astype(dtype) for a in self._data())
        with pytest.raises(TypeError):
            ops.conv3d(x, w)
        with pytest.raises(TypeError):
            ops.conv3d_bwd(x, w, dy, False)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, dtype):
        x, w, dy = self._data(dtype)
        wide = np.zeros(x.shape[:4] + (2 * x.shape[4],), dtype=dtype)
        wide[..., ::2] = x
        strided = wide[..., ::2]
        assert not strided.flags.c_contiguous
        assert _same_bits(ops.conv3d(strided, w), ops.conv3d(x, w))
        assert _same_bits(ops.conv3d(strided, w), _loops_conv3d(x, w))
        dx, dw, _ = ops.conv3d_bwd(strided, w, dy, False)
        dx_contiguous, dw_contiguous, _ = ops.conv3d_bwd(x, w, dy, False)
        assert _same_bits(dx, dx_contiguous) and _same_bits(dw, dw_contiguous)

    def test_a_window_past_the_padded_grid_is_refused(self):
        x, w, _ = self._data()
        offsets = ops._offsets(5, 6, 3)
        taps = w.reshape(2, 3, -1).transpose(2, 0, 1)
        assert _same_bits(ops._correlate(x, 3, offsets, taps), _loops_conv3d(x, w))
        # the last tap's window ends exactly at the end of the padded slab
        for bad in ([offsets[-1] + 1], [-1]):
            with pytest.raises(ValueError, match="tap windows"):
                ops._correlate(x, 3, offsets[:-1] + bad, taps)
        with pytest.raises(ValueError, match="tap windows"):
            ops._correlate(x, 3, offsets, taps[:-1])
        with pytest.raises(ValueError):
            ops._correlate(x, 3, offsets, taps.astype(np.float64))

    def test_missing_blas_names_numpys_blas(self, monkeypatch):
        class NoSymbols:
            def __init__(self, path):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(ops.ctypes, "CDLL", NoSymbols)
        with pytest.raises(ImportError, match="numpy's own BLAS"):
            ops._bind_gemm()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ci,co", [(3, 1), (16, 1), (64, 1), (1, 3), (1, 16), (1, 64)])
def test_one_output_channel_within_8_eps_of_the_loops(dtype, ci, co):
    # numpy's matmul computes a product with one row as a matrix-vector
    # product (gemv), whose rounding depends on the matrix it is handed:
    # the loops' contiguous patch and the kernel's padded window differ by
    # a few eps, as a single-voxel grid does in test_conv3d_channels
    gen = _gen("gemv", str(dtype), str(ci), str(co))
    x = gen.standard_normal((2, ci, 6, 7, 5)).astype(dtype)
    w = gen.standard_normal((co, ci, 3, 3, 3)).astype(dtype)
    dy = gen.standard_normal((2, co, 6, 7, 5)).astype(dtype)
    eps = np.finfo(dtype).eps
    assert verify._rel(ops.conv3d(x, w), _loops_conv3d(x, w)) <= 8 * eps
    dx = ops.conv3d_bwd(x, w, dy, False)[0]
    assert verify._rel(dx, _loops_conv3d_bwd(x, w, dy)[0]) <= 8 * eps


# what one call may allocate beyond the arrays it is bounded by: numpy's
# ufunc and iterator buffers and the call's Python objects
CALL_SLACK = 64 * 1024


def _traced_peak(fn):
    """(bytes the call allocated at its peak, its result), by tracemalloc."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if started:
            tracemalloc.stop()


def _slab_scratch(n, c_in, c_out, itemsize, grid, k=3):
    """Bytes of a tap loop's scratch: one padded input slab with its halo,
    the slab's result grid and one product buffer of the same size, and the
    taps' contiguous copy."""
    d, h, w = grid
    r = k // 2
    plane = (h + r) * (w + r)
    step = ops._slabs(n, c_in, c_out, itemsize, plane, d * plane)[0][1]
    halo = 2 * r * (plane + w + r + 1)
    return itemsize * (n * c_in * (step + halo) + 2 * n * c_out * step + k ** 3 * c_in * c_out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 8, 40, 40, 40), (2, 4, 24, 40, 36)])
class TestOneCallMemory:
    """Each kernel allocates its output and one slab's scratch: no padded
    copy of a whole input next to its output, and no grid to crop from.
    These grids take several slabs, so the scratch is about 1 MB."""

    def _data(self, dtype, shape, co, depthwise=False):
        gen = _gen("memory", str(dtype), str(shape))
        x = gen.standard_normal(shape).astype(dtype)
        w = gen.standard_normal((co, 1 if depthwise else shape[1], 3, 3, 3)).astype(dtype)
        dy = gen.standard_normal((shape[0], co) + shape[2:]).astype(dtype)
        return x, w, dy

    @pytest.mark.parametrize("co", [2, 8])
    def test_conv3d(self, dtype, shape, co):
        x, w, _ = self._data(dtype, shape, co)
        n, ci = shape[:2]
        scratch = _slab_scratch(n, ci, co, x.itemsize, shape[2:])
        peak, out = _traced_peak(lambda: ops.conv3d(x, w))
        assert peak <= out.nbytes + scratch + CALL_SLACK, (peak, out.nbytes, scratch)

    def test_depthwise_conv3d(self, dtype, shape):
        x, w, _ = self._data(dtype, shape, shape[1], depthwise=True)
        n, c = shape[:2]
        peak, out = _traced_peak(lambda: ops.depthwise_conv3d(x, w))
        assert peak <= out.nbytes + _slab_scratch(n, c, c, x.itemsize, shape[2:]) + CALL_SLACK

    def _assert_backward_phases(self, peak, x, w, dy, dx):
        # the weight gradient holds padded x and padded dy, and its per-sample
        # products next to their sum; both grids are freed before the input
        # gradient, which holds dx, one slab's scratch, dw and its copy
        padded = ops._windows(x, 3)[0].nbytes + ops._windows(dy, 3)[0].nbytes
        dw_phase = padded + (x.shape[0] + 1) * w.nbytes
        dx_phase = dx.nbytes + _slab_scratch(x.shape[0], dy.shape[1], x.shape[1], x.itemsize,
                                             x.shape[2:]) + 2 * w.nbytes
        assert peak <= max(dw_phase, dx_phase) + CALL_SLACK, (peak, dw_phase, dx_phase)

    @pytest.mark.parametrize("co", [2, 8])
    def test_conv3d_input_gradient(self, dtype, shape, co):
        x, w, dy = self._data(dtype, shape, co)
        peak, (dx, _, _) = _traced_peak(lambda: ops.conv3d_bwd(x, w, dy, False))
        self._assert_backward_phases(peak, x, w, dy, dx)

    def test_depthwise_conv3d_input_gradient(self, dtype, shape):
        x, w, _ = self._data(dtype, shape, shape[1], depthwise=True)
        dy = _gen("memory-dy", str(dtype)).standard_normal(shape).astype(dtype)
        peak, (dx, _) = _traced_peak(lambda: ops.depthwise_conv3d_bwd(x, w, dy))
        self._assert_backward_phases(peak, x, w, dy, dx)

    def test_group_norm_without_xhat(self, dtype, shape):
        x, _, _ = self._data(dtype, shape, shape[1])
        c = shape[1]
        gamma, beta = np.ones(c, dtype=dtype), np.zeros(c, dtype=dtype)
        peak, (out, _, _) = _traced_peak(lambda: ops.group_norm(x, gamma, beta, c // 2, False))
        assert peak <= out.nbytes + CALL_SLACK, (peak, out.nbytes)


class TestPointwise:
    def test_identity_matrix_kernel(self):
        x = _gen("pw").standard_normal((1, 3, 2, 2, 2))
        k = np.eye(3).reshape(3, 3, 1, 1, 1)
        assert np.array_equal(ops.pointwise_conv3d(x, k), x)

    def test_channel_sum(self):
        x = _gen("sum").standard_normal((1, 2, 2, 2, 2))
        k = np.ones((1, 2, 1, 1, 1))
        out = ops.pointwise_conv3d(x, k)
        assert np.allclose(out[0, 0], x[0, 0] + x[0, 1], atol=1e-15)

    def test_equals_conv3d_bitwise(self):
        gen = _gen("bit")
        x = gen.standard_normal((1, 4, 3, 3, 3))
        k = gen.standard_normal((2, 4, 1, 1, 1))
        b = gen.standard_normal(2)
        assert np.array_equal(ops.pointwise_conv3d(x, k, b), ops.conv3d(x, k, b))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.pointwise_conv3d(np.zeros((1, 3, 2, 2, 2)), np.zeros((2, 4, 1, 1, 1)))


class TestDepthwise:
    def test_identity_kernels(self):
        x = _gen("dw").standard_normal((1, 3, 3, 3, 3))
        k = np.zeros((3, 1, 3, 3, 3))
        k[:, 0, 1, 1, 1] = 1.0
        assert np.array_equal(ops.depthwise_conv3d(x, k), x)

    def test_channel_isolation(self):
        gen = _gen("iso")
        x = gen.standard_normal((1, 3, 4, 4, 4))
        k = np.zeros((3, 1, 3, 3, 3))
        k[0] = gen.standard_normal((1, 3, 3, 3))
        out = ops.depthwise_conv3d(x, k)
        assert np.any(out[0, 0] != 0)
        assert np.array_equal(out[0, 1:], np.zeros_like(out[0, 1:]))

    def test_matches_loop_oracle(self):
        gen = _gen("dwo")
        x = gen.standard_normal((2, 3, 4, 4, 4))
        w = gen.standard_normal((3, 1, 3, 3, 3))
        assert verify._rel(ops.depthwise_conv3d(x, w),
                           reference.depthwise_conv3d_loops(x, w)) <= TOL_ORACLE

    def test_kernel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.depthwise_conv3d(np.zeros((1, 3, 2, 2, 2)), np.zeros((2, 1, 3, 3, 3)))

    def test_negative_zeros_as_in_the_loops(self):
        # the first tap's product starts the sum; adding it to +0 would lose the sign
        x = np.zeros((1, 2, 3, 3, 3))
        w = -np.ones((2, 1, 3, 3, 3))
        out = ops.depthwise_conv3d(x, w)
        assert _same_bits(out, _loops_depthwise(x, w)) and np.signbit(out).all()


def _per_tap_depthwise_dw(x, w, dy):
    # the weight gradient as one matmul per tap, each a 1 x L by L x 1 dot
    k = w.shape[2]
    dyf, offsets, L, _ = ops._windows(dy, k)
    centre = offsets[len(offsets) // 2]
    dyg = dyf[:, :, centre:centre + L, None]
    xf = ops._windows(x, k)[0]
    return np.stack([np.matmul(xf[:, :, None, off:off + L], dyg)[:, :, 0, 0].sum(axis=0)
                     for off in offsets], axis=-1).reshape(w.shape)


def _per_tap_conv3d_dw(x, w, dy):
    # the weight gradient as one (co, L) by (L, ci) matmul per tap
    k = w.shape[2]
    dyf, offsets, L, _ = ops._windows(dy, k)
    centre = offsets[len(offsets) // 2]
    dyg = dyf[:, :, centre:centre + L]
    xf = ops._windows(x, k)[0]
    return np.stack([np.matmul(dyg, xf[:, :, off:off + L].transpose(0, 2, 1)).sum(axis=0)
                     for off in offsets], axis=-1).reshape(w.shape)


class TestDepthwiseWeightGradient:
    """Both weight gradients read every tap's window through one strided
    view of padded x, and equal a matmul per tap bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(3, 5, 7), (1, 1, 1), (5, 3, 9), (9, 9, 9)])
    def test_equals_the_per_tap_loop_bitwise(self, dtype, n, k, shape):
        gen = _gen("dw-grad", str(dtype), str(n), str(k), str(shape))
        x = gen.standard_normal((n, 3) + shape).astype(dtype)
        w = gen.standard_normal((3, 1, k, k, k)).astype(dtype)
        dy = gen.standard_normal((n, 3) + shape).astype(dtype)
        assert _same_bits(ops.depthwise_conv3d_bwd(x, w, dy)[1], _per_tap_depthwise_dw(x, w, dy))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(3, 5, 7), (1, 1, 1), (5, 3, 9), (9, 9, 9)])
    def test_conv3d_equals_the_per_tap_loop_bitwise(self, dtype, n, k, shape):
        gen = _gen("conv-grad", str(dtype), str(n), str(k), str(shape))
        x = gen.standard_normal((n, 3) + shape).astype(dtype)
        w = gen.standard_normal((4, 3, k, k, k)).astype(dtype)
        dy = gen.standard_normal((n, 4) + shape).astype(dtype)
        assert _same_bits(ops.conv3d_bwd(x, w, dy, False)[1], _per_tap_conv3d_dw(x, w, dy))

    def _shorten_padded(self, monkeypatch, target):
        # target's padded grid ends one element before its last tap window does
        windows = ops._windows

        def short(a, k):
            af, offsets, L, plane = windows(a, k)
            if a is target:
                af = af[:, :, :offsets[-1] + L - 1]
            return af, offsets, L, plane

        monkeypatch.setattr(ops, "_windows", short)

    def test_a_window_past_the_padded_grid_is_refused(self, monkeypatch):
        gen = _gen("dw-guard")
        x, dy = gen.standard_normal((2, 1, 3, 4, 5, 6))
        w = gen.standard_normal((3, 1, 3, 3, 3))
        self._shorten_padded(monkeypatch, x)
        with pytest.raises(ValueError, match="tap windows"):
            ops.depthwise_conv3d_bwd(x, w, dy)

    def test_conv3d_a_window_past_the_padded_grid_is_refused(self, monkeypatch):
        gen = _gen("conv-guard")
        x = gen.standard_normal((1, 3, 4, 5, 6))
        w = gen.standard_normal((2, 3, 3, 3, 3))
        dy = gen.standard_normal((1, 2, 4, 5, 6))
        self._shorten_padded(monkeypatch, x)
        with pytest.raises(ValueError, match="tap windows"):
            ops.conv3d_bwd(x, w, dy, False)


class TestSeparability:
    def test_factorized_equals_standard_double(self):
        gen = _gen("sep")
        for trial in range(5):
            x = gen.standard_normal((1, 3, 4, 4, 4))
            p = gen.standard_normal((4, 3, 1, 1, 1))
            d = gen.standard_normal((3, 1, 3, 3, 3))
            composed = ops.pointwise_conv3d(ops.depthwise_conv3d(x, d), p)
            fused = p[:, :, 0, 0, 0][:, :, None, None, None] * d[None, :, 0]
            assert verify._rel(composed, ops.conv3d(x, fused)) <= 1e-12

    def test_factorized_equals_standard_single(self):
        gen = _gen("sep32")
        x = gen.standard_normal((1, 3, 4, 4, 4)).astype(np.float32)
        p = gen.standard_normal((4, 3, 1, 1, 1)).astype(np.float32)
        d = gen.standard_normal((3, 1, 3, 3, 3)).astype(np.float32)
        composed = ops.pointwise_conv3d(ops.depthwise_conv3d(x, d), p)
        fused = p[:, :, 0, 0, 0][:, :, None, None, None] * d[None, :, 0]
        assert verify._rel(composed, ops.conv3d(x, fused)) <= 1e-6


def _np_var_group_norm(x, gamma, beta, group_size, eps=1e-5):
    """Group norm and its VJP written with np.var, as a bitwise reference."""
    n, c = x.shape[:2]
    xg = x.reshape((n, c // group_size, group_size) + x.shape[2:])
    mean = xg.mean(axis=(2, 3, 4, 5), keepdims=True)
    var = xg.var(axis=(2, 3, 4, 5), keepdims=True)
    rstd = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = ((xg - mean) * rstd).reshape(x.shape)
    out = gamma.reshape(1, c, 1, 1, 1) * xhat + beta.reshape(1, c, 1, 1, 1)
    return out, xhat, rstd


def _np_var_group_norm_bwd(xhat, rstd, gamma, dy, group_size):
    n, c = dy.shape[:2]
    inner = (n, c // group_size, group_size) + dy.shape[2:]
    dxhat = (dy * gamma.reshape(1, c, 1, 1, 1)).reshape(inner)
    xh = xhat.reshape(inner)
    m1 = dxhat.mean(axis=(2, 3, 4, 5), keepdims=True)
    m2 = (dxhat * xh).mean(axis=(2, 3, 4, 5), keepdims=True)
    dx = (rstd * (dxhat - m1 - xh * m2)).reshape(dy.shape)
    return dx, (dy * xhat).sum(axis=(0, 2, 3, 4)), dy.sum(axis=(0, 2, 3, 4))


class TestGroupNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,group_size", [
        ((1, 4, 5, 6, 7), 4), ((2, 8, 4, 4, 4), 8), ((1, 16, 8, 8, 8), 16),
        ((1, 32, 6, 6, 6), 32), ((1, 30, 5, 5, 5), 10), ((2, 20, 3, 4, 5), 10)])
    def test_matches_np_var_formulation_bitwise(self, dtype, shape, group_size):
        gen = _gen("gn-var", str(dtype), str(shape))
        x = (gen.standard_normal(shape) * 7.0 + 3.0).astype(dtype)
        gamma = gen.standard_normal(shape[1]).astype(dtype)
        beta = gen.standard_normal(shape[1]).astype(dtype)
        dy = gen.standard_normal(shape).astype(dtype)
        fast, ref = ops.group_norm(x, gamma, beta, group_size, True), _np_var_group_norm(
            x, gamma, beta, group_size)
        assert all(_same_bits(a, b) for a, b in zip(fast, ref))
        # without xhat the buffer that would be xhat becomes the output: same bits
        out, no_xhat, rstd = ops.group_norm(x, gamma, beta, group_size, False)
        assert no_xhat is None and _same_bits(out, ref[0]) and _same_bits(rstd, ref[2])
        back = ops.group_norm_bwd(fast[1], fast[2], gamma, dy)
        ref_back = _np_var_group_norm_bwd(ref[1], ref[2], gamma, dy, group_size)
        assert all(_same_bits(a, b) for a, b in zip(back, ref_back))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 4, 8, 8, 8), (1, 3, 10, 4, 4, 4),
                                       (2, 2, 8, 5, 6, 7), (1, 1, 16, 16, 16, 16)])
    def test_mean_equals_ndarray_mean_bitwise(self, dtype, shape):
        a = (_gen("gn-mean", str(dtype), str(shape)).standard_normal(shape) * 5.0 + 2.0).astype(dtype)
        axes = (2, 3, 4, 5)
        assert _same_bits(ops._mean(a, axes), a.mean(axis=axes, keepdims=True))

    def test_constant_input_zero_output(self):
        x = np.full((1, 4, 2, 2, 2), 3.7)
        out, _, _ = ops.group_norm(x, np.ones(4), np.zeros(4), 2, False)
        assert np.array_equal(out, np.zeros_like(out))

    def test_gamma_zero_beta_seven(self):
        x = _gen("gn7").standard_normal((1, 4, 2, 2, 2))
        out, _, _ = ops.group_norm(x, np.zeros(4), np.full(4, 7.0), 2, False)
        assert np.array_equal(out, np.full_like(out, 7.0))

    def test_statistics_pre_affine(self):
        x = _gen("gns").standard_normal((1, 4, 2, 2, 2))
        _, xhat, _ = ops.group_norm(x, np.ones(4), np.zeros(4), 2, True)
        means, variances = reference.group_norm_stats(xhat, group_size=2)
        assert np.abs(means).max() <= 1e-6
        assert np.abs(variances - 1.0).max() <= 1e-4

    def test_errors(self):
        x = np.zeros((1, 4, 2, 2, 2))
        with pytest.raises(ShapeError):
            ops.group_norm(x, np.ones(4), np.zeros(4), 3, False)

    def test_group_size_rule(self):
        assert ops.group_size_for(30) == 10
        assert ops.group_size_for(480) == 10
        assert ops.group_size_for(16) == 16  # not a multiple of 10: one group
        assert ops.group_size_for(1) == 1


class TestRelu:
    def test_values(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 1, 3)
        assert np.array_equal(ops.relu(x).ravel(), [0.0, 0.0, 2.0])

    def test_idempotent_and_nonneg_passthrough(self):
        x = _gen("relu").standard_normal((1, 2, 3, 3, 3))
        once = ops.relu(x)
        assert np.array_equal(ops.relu(once), once)
        assert np.array_equal(ops.relu(np.abs(x)), np.abs(x))

    def test_vjp_hand_values(self):
        x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 1, 2)
        dy = np.array([5.0, 5.0]).reshape(1, 1, 1, 1, 2)
        assert np.array_equal(ops.relu_bwd(x, dy).ravel(), [0.0, 5.0])


# The transpose/argmax/take_along_axis forward and put_along_axis backward
# max pooling used before the staged-maximum rewrite, kept as a test-only
# oracle: first maximum in window scan order, first NaN if any.
def _argmax_maxpool3d(x):
    n, c, d, h, w = x.shape
    win = x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2)
    win = win.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(n, c, d // 2, h // 2, w // 2, 8)
    idx = win.argmax(axis=-1).astype(np.int32 if x.dtype == np.float32 else np.int64)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), idx


def _put_along_maxpool3d_bwd(idx, in_shape, dy):
    n, c, d, h, w = in_shape
    win = np.zeros((n, c, d // 2, h // 2, w // 2, 8), dtype=dy.dtype)
    np.put_along_axis(win, idx[..., None], dy[..., None], axis=-1)
    win = win.reshape(n, c, d // 2, h // 2, w // 2, 2, 2, 2)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(n, c, d, h, w))


POOL_SHAPES = [(2, 3, 4, 6, 2), (2, 4, 8, 2, 6), (1, 8, 64, 64, 64)]


def _pool_input(kind, dtype, shape):
    gen = _gen("pool", kind, str(dtype), str(shape))
    if kind == "normal":
        return gen.standard_normal(shape).astype(dtype)
    if kind == "all-equal":
        return np.full(shape, 1.5, dtype=dtype)
    if kind == "signed-zeros":
        # integers at most 0 with random zero signs: most windows tie at a
        # maximum of zero, many between +0 and -0
        x = gen.integers(-2, 1, shape).astype(dtype)
        x[(x == 0) & (gen.random(shape) < 0.5)] = -0.0
        return x
    if kind == "non-contiguous":
        n, c, d, h, w = shape
        x = gen.standard_normal((n, 2 * c, h, d, w)).astype(dtype)[:, ::2].transpose(0, 1, 3, 2, 4)
        assert x.shape == shape and not x.flags.c_contiguous
        return x
    assert kind == "nan"
    x = gen.standard_normal(shape).astype(dtype)
    x[gen.random(shape) < 0.2] = np.nan
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", POOL_SHAPES)
@pytest.mark.parametrize("kind", ["normal", "all-equal", "signed-zeros", "non-contiguous", "nan"])
def test_maxpool_matches_argmax_oracle_bitwise(kind, shape, dtype):
    x = _pool_input(kind, dtype, shape)
    out_oracle, idx_oracle = _argmax_maxpool3d(x)
    out, idx = ops.maxpool3d(x, True)
    bare, no_idx = ops.maxpool3d(x, False)
    assert no_idx is None
    if kind == "nan":
        # indices pick the first NaN; values are NaN wherever the oracle's
        # are, but a window with two NaN payloads keeps the later one's
        assert np.isnan(out).any() and out.dtype == dtype
        assert np.array_equal(out, out_oracle, equal_nan=True)
        assert np.array_equal(bare, out, equal_nan=True)
    else:
        assert _same_bits(out, out_oracle) and _same_bits(bare, out)
    assert _same_bits(idx, idx_oracle)
    dy = _gen("pool-dy", kind, str(dtype), str(shape)).standard_normal(out.shape).astype(dtype)
    assert _same_bits(ops.maxpool3d_bwd(idx, dy),
                      _put_along_maxpool3d_bwd(idx_oracle, x.shape, dy))


def test_maxpool_two_nan_payloads_stay_nan():
    # both NaNs win nothing against each other: the index is the first, the
    # value stays NaN though np.maximum keeps the later one's payload
    bits = np.zeros(8, dtype=np.uint64)
    bits[2], bits[5] = 0x7FF8000000000001, 0x7FF8000000000002
    x = bits.view(np.float64).reshape(1, 1, 2, 2, 2)
    out, idx = ops.maxpool3d(x, True)
    assert np.isnan(out).all() and idx.ravel()[0] == 2 == _argmax_maxpool3d(x)[1].ravel()[0]


class TestMaxPool:
    def test_single_window(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 1, 2, 2, 2)
        out, idx = ops.maxpool3d(x, True)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.ravel()[0] == 7.0
        assert idx.ravel()[0] == 7

    def test_constant_and_tie_breaking(self):
        x = np.ones((1, 1, 2, 2, 2))
        out, idx = ops.maxpool3d(x, True)
        assert np.array_equal(out, np.ones((1, 1, 1, 1, 1)))
        assert idx.ravel()[0] == 0  # first maximum wins on ties

    def test_matches_window_scan_oracle(self):
        x = _gen("mp").standard_normal((1, 2, 4, 4, 4))
        out, _ = ops.maxpool3d(x, False)
        assert np.array_equal(out, reference.maxpool3d_loops(x))

    def test_index_dtype_tracks_precision(self):
        x32 = _gen("mp32").standard_normal((1, 1, 2, 2, 2)).astype(np.float32)
        _, idx32 = ops.maxpool3d(x32, True)
        _, idx64 = ops.maxpool3d(x32.astype(np.float64), True)
        assert idx32.dtype == np.int32 and idx64.dtype == np.int64

    def test_vjp_routes_to_argmax_only(self):
        gen = _gen("mpv")
        x = 0.1 * gen.permutation(np.arange(64, dtype=np.float64)).reshape(1, 1, 4, 4, 4)
        out, idx = ops.maxpool3d(x, True)
        dy = np.ones_like(out)
        dx = ops.maxpool3d_bwd(idx, dy)
        assert dx.sum() == dy.size
        assert set(np.unique(dx)) == {0.0, 1.0}
        assert np.all(dx[x == out.repeat(2, 2).repeat(2, 3).repeat(2, 4)] == 1.0)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            ops.maxpool3d(np.zeros((1, 1, 3, 4, 4)), False)


class TestUpsample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_interpolation_weights_are_shared_read_only(self, dtype):
        mat = ops._upsample_matrix(5, np.dtype(dtype))
        assert mat.shape == (10, 5) and mat.dtype == dtype and not mat.flags.writeable
        assert ops._upsample_matrix(5, np.dtype(dtype)) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_constant(self):
        x = np.full((1, 2, 2, 2, 2), 1.5)
        out = ops.trilinear_upsample(x)
        assert out.shape == (1, 2, 4, 4, 4)
        assert np.allclose(out, 1.5, atol=1e-15)

    def test_two_point_axis_samples(self):
        x = np.array([0.0, 1.0]).reshape(1, 1, 1, 1, 2)
        out = ops.trilinear_upsample(x)
        assert out.shape == (1, 1, 2, 2, 4)
        assert np.allclose(out[0, 0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_matches_point_formula_oracle(self):
        x = _gen("up").standard_normal((1, 2, 2, 3, 4))
        assert verify._rel(ops.trilinear_upsample(x),
                           reference.trilinear_upsample_points(x)) <= TOL_ORACLE

    def test_linearity(self):
        gen = _gen("lin")
        x = gen.standard_normal((1, 2, 3, 3, 3))
        y = gen.standard_normal((1, 2, 3, 3, 3))
        lhs = ops.trilinear_upsample(2.5 * x - 1.25 * y)
        rhs = 2.5 * ops.trilinear_upsample(x) - 1.25 * ops.trilinear_upsample(y)
        assert verify._rel(lhs, rhs) <= 1e-12


class TestFiniteDifferences:
    def test_every_primitive_vjp(self):
        assert (verify.FD_TOL, verify.FD_COORDS) == (TOL_FD, 120)
        checks = verify.fd_primitive_suite(0)
        failed = [c for c in checks if not c["pass"]]
        assert not failed, failed
        assert all(c["tol"] == TOL_FD for c in checks)

    def _relu_check(self, near_kink, analytic_shift=0.0):
        # coordinates within FD_STEP of the ReLU kink have no valid difference
        gen = _gen("kink")
        x = gen.uniform(0.2, 1.0, 40) * np.where(gen.uniform(size=40) < 0.5, -1.0, 1.0)
        x[:near_kink] = 0.2 * verify.FD_STEP
        analytic = (x > 0).astype(np.float64)
        analytic[-1] += analytic_shift
        return verify._fd_check("fd.kink", lambda: float(np.maximum(x, 0.0).sum()), [x],
                                [analytic], TOL_FD, gen, count=40)

    def test_kink_probes_are_counted_not_failed(self):
        entry = self._relu_check(near_kink=3)
        assert entry["pass"] and entry["kinks"] == 3 and entry["coords"] == 37
        assert entry["max_err"] <= 1e-9

    def test_more_than_a_tenth_kinks_fails(self):
        entry = self._relu_check(near_kink=5)
        assert entry["kinks"] == 5 and not entry["pass"]

    def test_wrong_gradient_is_not_taken_for_a_kink(self):
        entry = self._relu_check(near_kink=0, analytic_shift=1e-3)
        assert entry["kinks"] == 0 and not entry["pass"]

    def test_conv_small_case(self):
        gen = _gen("fd33")
        x = gen.standard_normal((1, 2, 3, 3, 3))
        w = gen.standard_normal((2, 2, 3, 3, 3)) * 0.5
        r = gen.standard_normal((1, 2, 3, 3, 3))
        dx, dw, _ = ops.conv3d_bwd(x, w, r, False)
        fd_x = finite_difference_grad(
            lambda a: float((ops.conv3d(a, w) * r).sum()), x)
        fd_w = finite_difference_grad(
            lambda a: float((ops.conv3d(x, a) * r).sum()), w)
        assert verify._rel(dx, fd_x) <= TOL_FD
        assert verify._rel(dw, fd_w) <= TOL_FD
