"""tools/digest.py still runs against the package it digests."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "digest.py")


def test_digest_covers_every_entry():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    out = digest.digest()
    assert len(out) == 30
    assert sum(k.startswith("model/") for k in out) == 12
    assert sum(k.startswith("gradcheck/0/corrupt/") for k in out) == 7
    assert sorted(k for k in out if k.startswith("fd-network/")) == ["fd-network/105",
                                                                     "fd-network/88"]
    assert all(len(v) == 64 and set(v) <= set("0123456789abcdef") for v in out.values())
