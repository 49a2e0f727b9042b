"""Rank-5 tensor utilities and the RVT1 binary tensor file format.

Every value flowing through the engine is a dense rank-5 numpy array with
axes (batch, channel, depth, height, width), C-contiguous so the width
axis has unit stride. Arrays are treated as immutable once handed to an
op; nothing in this package mutates an input array in place.

RVT1 file layout (little-endian throughout):

    bytes 0..3   magic "RVT1"
    byte  4      precision tag: 0 = single (f32), 1 = double (f64)
    byte  5      rank, must be 5
    bytes 6..45  five u64 dims (n, c, d, h, w)
    bytes 46..   raw scalars, row-major, w fastest, all finite
"""

import os
import struct

import numpy as np

MAGIC = b"RVT1"
_HEADER = struct.Struct("<4sBB5Q")

DTYPES = {"single": np.dtype("<f4"), "double": np.dtype("<f8")}
_PREC_TAG = {"single": 0, "double": 1}
_TAG_PREC = {0: "single", 1: "double"}


class ShapeError(ValueError):
    """Raised when tensor shapes or channel counts are incompatible."""


class FormatError(ValueError):
    """Raised when an RVT1 file is malformed or truncated."""


def precision_of(t: np.ndarray) -> str:
    if t.dtype == np.float32:
        return "single"
    if t.dtype == np.float64:
        return "double"
    raise ShapeError(f"unsupported dtype {t.dtype}, expected float32 or float64")


def check_tensor5(t: np.ndarray) -> np.ndarray:
    """Validate the rank-5 contract and return a contiguous view."""
    if t.ndim != 5:
        raise ShapeError(f"expected rank-5 tensor, got rank {t.ndim}")
    if min(t.shape) < 1:
        raise ShapeError(f"all dims must be >= 1, got {t.shape}")
    precision_of(t)
    return np.ascontiguousarray(t)


def channel_halves(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the channel halves [0, c/2) and [c/2, c)."""
    c = t.shape[1]
    if c % 2 != 0:
        raise ShapeError(f"channel halves need an even channel count, got {c}")
    half = c // 2
    return t[:, :half], t[:, half:]


def ew_add(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a + b, written into ``out`` when given (an array the caller allocated)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.add(a, b, out=out)


def ew_sub(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a - b, written into ``out`` when given (an array the caller allocated)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.subtract(a, b, out=out)


def _finite(t: np.ndarray) -> bool:
    # min and max propagate NaN and reach +-Inf, and unlike np.isfinite
    # they allocate no mask as large as the tensor
    return bool(np.isfinite(t.min()) and np.isfinite(t.max()))


def tensor_write(t: np.ndarray, path) -> None:
    """Write a rank-5 tensor to an RVT1 file; round-trips bitwise."""
    t = check_tensor5(t)
    if not _finite(t):
        raise ValueError("refusing to write a tensor with NaN or Inf scalars")
    prec = precision_of(t)
    header = _HEADER.pack(MAGIC, _PREC_TAG[prec], 5, *t.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(t, dtype=DTYPES[prec]).tobytes())


def _read_header(fh):
    """Check an open RVT1 file's header, and the payload size it declares
    against the file size, reading no payload byte: -> (dtype, dims)."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError(f"file too short for RVT1 header: {len(head)} bytes")
    magic, tag, rank, *dims = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if tag not in _TAG_PREC:
        raise FormatError(f"unknown precision tag {tag}")
    if rank != 5:
        raise FormatError(f"rank must be 5, got {rank}")
    dtype = DTYPES[_TAG_PREC[tag]]
    count = 1
    for d in dims:
        if d < 1:
            raise FormatError(f"dims must be >= 1, got {tuple(dims)}")
        count *= d
    payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if payload != count * dtype.itemsize:
        raise FormatError(
            f"payload holds {payload // dtype.itemsize} scalars, header declares {count}"
        )
    return dtype, tuple(dims)


def tensor_shape(path) -> tuple:
    """The shape an RVT1 file's header declares, checked as tensor_read
    checks it, without reading the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh)[1]


def tensor_read(path) -> np.ndarray:
    """Read an RVT1 file back into a rank-5 array.

    The header, and the payload size it declares against the file size, are
    checked before any payload byte is read; the payload is then read once,
    straight into the returned array. NaN or Inf scalars are refused.
    """
    with open(path, "rb") as fh:
        dtype, dims = _read_header(fh)
        data = np.empty(dims, dtype=dtype)
        if fh.readinto(data) != data.nbytes:
            raise FormatError("file shrank while its payload was read")
    if not _finite(data):
        raise FormatError("payload holds NaN or Inf scalars")
    return data
