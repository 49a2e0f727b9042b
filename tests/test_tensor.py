"""Rank-5 tensor utilities and the RVT1 file format."""

import tracemalloc

import numpy as np
import pytest

from revunet.tensor import (
    _HEADER,
    MAGIC,
    FormatError,
    ShapeError,
    channel_halves,
    check_tensor5,
    ew_add,
    ew_sub,
    precision_of,
    tensor_read,
    tensor_write,
)


def _rand(shape, dtype, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _traced_peak(fn):
    """Peak bytes traced while fn runs, above what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestFileFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bitwise(self, tmp_path, dtype):
        t = _rand((2, 3, 4, 5, 6), dtype)
        t[0, 0, 0, 0, 0] = -0.0  # sign of zero must survive
        path = tmp_path / "t.rvt"
        tensor_write(t, path)
        back = tensor_read(path)
        assert back.dtype == t.dtype
        assert back.shape == t.shape
        assert np.array_equal(back.view(np.uint8), t.view(np.uint8))

    def test_read_returns_writable_copy(self, tmp_path):
        t = _rand((1, 1, 2, 2, 2), np.float32)
        tensor_write(t, tmp_path / "t.rvt")
        back = tensor_read(tmp_path / "t.rvt")
        back[0, 0, 0, 0, 0] = 5.0  # must not raise

    def test_header_layout(self, tmp_path):
        t = np.zeros((1, 2, 3, 4, 5), dtype=np.float64)
        tensor_write(t, tmp_path / "t.rvt")
        raw = (tmp_path / "t.rvt").read_bytes()
        assert raw[:4] == b"RVT1"
        assert raw[4] == 1  # double tag
        assert raw[5] == 5  # rank
        dims = np.frombuffer(raw[6:46], dtype="<u8")
        assert list(dims) == [1, 2, 3, 4, 5]
        assert len(raw) == 46 + t.size * 8

    def test_bad_magic(self, tmp_path):
        t = np.zeros((1, 1, 1, 1, 1), dtype=np.float32)
        tensor_write(t, tmp_path / "t.rvt")
        raw = bytearray((tmp_path / "t.rvt").read_bytes())
        raw[:4] = b"NOPE"
        (tmp_path / "bad.rvt").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tensor_read(tmp_path / "bad.rvt")

    def test_truncated_payload(self, tmp_path):
        t = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        tensor_write(t, tmp_path / "t.rvt")
        raw = (tmp_path / "t.rvt").read_bytes()
        (tmp_path / "cut.rvt").write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            tensor_read(tmp_path / "cut.rvt")

    def test_short_header(self, tmp_path):
        (tmp_path / "tiny.rvt").write_bytes(b"RVT1\x00")
        with pytest.raises(FormatError):
            tensor_read(tmp_path / "tiny.rvt")

    def test_bad_rank_and_tag(self, tmp_path):
        t = np.zeros((1, 1, 1, 1, 1), dtype=np.float32)
        tensor_write(t, tmp_path / "t.rvt")
        raw = bytearray((tmp_path / "t.rvt").read_bytes())
        raw[5] = 4
        (tmp_path / "rank.rvt").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tensor_read(tmp_path / "rank.rvt")
        raw[5] = 5
        raw[4] = 9
        (tmp_path / "tag.rvt").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            tensor_read(tmp_path / "tag.rvt")

    def test_bad_magic_refused_before_payload_is_read(self, tmp_path):
        t = _rand((1, 4, 64, 64, 64), np.float32)
        tensor_write(t, tmp_path / "t.rvt")
        raw = bytearray((tmp_path / "t.rvt").read_bytes())
        raw[:4] = b"NOPE"
        (tmp_path / "bad.rvt").write_bytes(bytes(raw))
        del raw

        def read():
            with pytest.raises(FormatError, match="bad magic"):
                tensor_read(tmp_path / "bad.rvt")

        assert _traced_peak(read) < 64 * 1024  # the file holds 4.2 MB

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_copies_payload_once(self, tmp_path, dtype):
        t = _rand((1, 4, 32, 32, 32), dtype)
        tensor_write(t, tmp_path / "t.rvt")
        out = []
        peak = _traced_peak(lambda: out.append(tensor_read(tmp_path / "t.rvt")))
        assert np.array_equal(out[0], t)
        assert peak <= 1.1 * t.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_refuses_non_finite(self, tmp_path, bad, dtype):
        t = _rand((1, 2, 3, 4, 5), dtype)
        t[0, 1, 2, 3, 4] = bad
        tag = 0 if dtype == np.float32 else 1
        (tmp_path / "t.rvt").write_bytes(_HEADER.pack(MAGIC, tag, 5, *t.shape) + t.tobytes())
        with pytest.raises(FormatError, match="NaN or Inf"):
            tensor_read(tmp_path / "t.rvt")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite(self, tmp_path, bad):
        t = _rand((1, 1, 2, 2, 2), np.float64)
        t[0, 0, 1, 1, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            tensor_write(t, tmp_path / "t.rvt")
        assert not (tmp_path / "t.rvt").exists()

    def test_write_rejects_bad_rank(self, tmp_path):
        with pytest.raises(ShapeError):
            tensor_write(np.zeros((2, 2), dtype=np.float32), tmp_path / "x.rvt")


class TestShapeAlgebra:
    def test_check_tensor5(self):
        ok = check_tensor5(np.zeros((1, 2, 3, 4, 5), dtype=np.float32))
        assert ok.flags["C_CONTIGUOUS"]
        with pytest.raises(ShapeError):
            check_tensor5(np.zeros((1, 2, 3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            check_tensor5(np.zeros((1, 2, 3, 4, 5), dtype=np.int32))

    def test_precision_of(self):
        assert precision_of(np.zeros(1, dtype=np.float32)) == "single"
        assert precision_of(np.zeros(1, dtype=np.float64)) == "double"
        with pytest.raises(ShapeError):
            precision_of(np.zeros(1, dtype=np.int64))

    def test_halves_are_views(self):
        t = _rand((2, 6, 3, 3, 3), np.float64)
        a, b = channel_halves(t)
        assert a.base is t and b.base is t
        assert np.array_equal(np.concatenate([a, b], axis=1), t)

    def test_split_odd_channels(self):
        with pytest.raises(ShapeError):
            channel_halves(np.zeros((1, 3, 2, 2, 2), dtype=np.float32))

    def test_elementwise(self):
        a = _rand((1, 2, 2, 2, 2), np.float64, 1)
        b = _rand((1, 2, 2, 2, 2), np.float64, 2)
        assert np.array_equal(ew_add(a, b), a + b)
        assert np.array_equal(ew_sub(a, b), a - b)
        out = np.empty_like(a)
        assert ew_add(a, b, out=out) is out and np.array_equal(out, a + b)
        assert ew_sub(a, b, out=out) is out and np.array_equal(out, a - b)
        with pytest.raises(ShapeError):
            ew_add(a, np.zeros((1, 2, 2, 2, 4)))
        with pytest.raises(ShapeError):
            ew_sub(a, np.zeros((1, 2, 2, 2, 4)))
