"""tools/digest.py still runs against the package it digests."""

import importlib.util
import os

from revunet import memplan, ops

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "digest.py")


def _load():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_digest_covers_every_entry():
    out = _load().digest()
    assert len(out) == 47
    assert "segment/segment-conv" in out
    assert sorted(k for k in out if k.startswith("rev/")) == [
        "rev/mbconv/reversible", "rev/mbconv/store-all",
        "rev/standard/reversible", "rev/standard/store-all"]
    assert sum(k.startswith("model/") for k in out) == 12
    assert sum(k.startswith("gradcheck/0/corrupt/") for k in out) == 7
    assert sorted(k for k in out if k.startswith("fd-network/")) == ["fd-network/105",
                                                                     "fd-network/88"]
    assert sorted(k for k in out if k.startswith("kernel/")) == [
        "kernel/conv3d-1ch/double", "kernel/conv3d-1ch/single",
        "kernel/conv3d/double", "kernel/conv3d/single",
        "kernel/depthwise/double", "kernel/depthwise/single"]
    assert sorted(k for k in out if k.startswith("budget/")) == sorted(
        "budget/%s/%s" % (preset, axis)
        for preset in ("mbconv-base", "mbconv-wider") for axis in memplan.AXES)
    assert all(len(v) == 64 and set(v) <= set("0123456789abcdef") for v in out.values())


def test_kernel_entries_take_several_slabs():
    # the forward walks the grid with x's c_in channels padded and c_out in
    # its result; the backward pads dy's c_out and x's c_in channels and
    # sums dx's c_in. Every walk must cross slab edges and end in a short
    # slab; the one-channel entry is not asked to
    digest = _load()
    n, d, h, w = digest.KERNEL_GRID
    plane = (h + 1) * (w + 1)
    for c_in, c_out in (digest.KERNEL_CHANNELS[kind] for kind in ("conv3d", "depthwise")):
        for itemsize in (4, 8):
            for a, b in ((c_in, c_out), (c_out + c_in, c_in)):
                slabs = ops._slabs(n, a, b, itemsize, plane, d * plane)
                assert len(slabs) > 1
                assert slabs[-1][1] - slabs[-1][0] < slabs[0][1] - slabs[0][0]
