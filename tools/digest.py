"""Print SHA-256 digests of what a checkout computes, as one JSON object.

    python tools/digest.py ROOT > digest.json

ROOT is a source checkout; its `src/` goes first on the import path. Run
the script on two checkouts and compare the outputs byte for byte: a
refactor that claims unchanged behaviour must leave every entry equal.

The entries cover, for `build(c, 7, p, s)` with `mbconv-base-toy`,
`baseline-toy` and `verify.TOY2` in both precisions and both strategies,
the forward output without a tape (the inference path) and with one, the
input gradient, every parameter and parameter gradient, and
`ledger.report()` after forward and after backward; the records and
final parameters of a 4-step `training.train` under each strategy; the
`metrics.jsonl` of holdout runs that stop on steps, on
epochs, and on epochs with steps also given; the JSON of
`gradcheck_report("mbconv-base", s)` for s in {0, 5, 30}; the JSON of
`fd_network_suite(s, samples=60)` for s in {88, 105}, whose kink
replacements draw extra probes; the JSON of `gradcheck_report("mbconv-base",
0, corrupt=op)` for every op of `verify._CORRUPT_TARGETS`; the JSON of
`claims_report("single")`; for each axis, the JSON of `budget_search` on
`mbconv-base` and on `mbconv-wider` at BUDGET_FACTORS times the preset's
reversible estimate; and, in both precisions, the forward, input
gradient and weight gradient of `ops.conv3d` (with its bias) and of
`ops.depthwise_conv3d` on KERNEL_GRID, which the tap loop walks in several
slabs, the last one short, and of a one-channel `ops.conv3d`, whose forward
and input gradient take numpy's matrix-vector products; and, for the standard-block SEGMENT_CONFIG model
in single precision, its forward output without a tape on a 64^3 input
and the label file of a `revunet segment` run on a SEGMENT_SIZE^3 phantom,
which is padded up to the grid; and, for a single-precision `RevBlock` of
two mbconv or two standard blocks under each strategy, on a REV_SHAPE
input whose batch of 2 makes each channel half a non-contiguous view, the
forward output with a tape and without one, the ledger after forward,
`inverse`, the input gradient and every parameter gradient. It drives the
package only through `build`, `Tape(ledger)`, `parameters()`,
`make_block`, `RevBlock`, `walk`, `training.train`,
`gradcheck_report`, `fd_network_suite`, `_CORRUPT_TARGETS`,
`claims_report`, `estimate`, `budget_search`, the four `ops` conv kernels,
the model's forward, backward and `save`, `make_phantom`, `tensor_write`
and `cli.main`, which earlier commits share, so the same script runs on
both sides of a change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

STRATEGIES = ("store-all", "reversible")
PRECISIONS = ("single", "double")
GRADCHECK_SEEDS = (0, 5, 30)
KINK_SEEDS = (88, 105)
# (n, d, h, w) and channels of the kernel entries: conv3d and depthwise take
# several slabs at either precision; conv3d-1ch, one channel in and out, runs
# forward and input gradient through np.matmul's matrix-vector products
KERNEL_GRID = (2, 20, 33, 35)
KERNEL_CHANNELS = {"conv3d": (4, 5), "conv3d-1ch": (1, 1), "depthwise": (6, 6)}
BUDGET_PRESETS = ("mbconv-base", "mbconv-wider")
# spelled out rather than read from memplan.AXES, which older checkouts lack
BUDGET_AXES = ("volume", "channels", "depth")
# budgets as multiples of the reversible estimate: the base itself, between
# grid steps, the claims' store-all ratio, and one that grows every axis
BUDGET_FACTORS = (1.0, 1.5, 2.48, 10)
# the whole-volume inference entry: the config, and a phantom size that pads
SEGMENT_CONFIG = dict(widths=(8, 16, 32, 64), image_size=(64, 64, 64), block_kind="standard")
SEGMENT_SIZE = 60
# the rev block entries: n = 2, so a channel half is not contiguous
REV_SHAPE = (2, 8, 6, 7, 5)


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def array(self, label, arr):
        arr = np.ascontiguousarray(arr)
        self.text("%s %s %r" % (label, arr.dtype.str, arr.shape))
        self.h.update(arr.tobytes())

    def text(self, s):
        self.h.update(s.encode() + b"\n")

    def json(self, doc):
        self.text(json.dumps(doc, sort_keys=True))

    def hex(self):
        return self.h.hexdigest()


def _model_entry(unet, engine, config, precision, strategy):
    d = _Digest()
    model = unet.build(config, 7, precision, strategy)
    cfg = unet.resolve_config(config)
    gen = np.random.default_rng(11)
    x = gen.standard_normal((1, cfg.in_ch) + tuple(cfg.image_size)).astype(model.dtype)
    dlogits = gen.standard_normal((1, cfg.num_classes) + tuple(cfg.image_size)).astype(model.dtype)
    d.array("logits, no tape", model.forward(x, None))
    ledger = engine.MemoryLedger()
    tape = engine.Tape(ledger)
    d.array("logits", model.forward(x, tape))
    d.json(ledger.report())
    model.zero_grads()
    d.array("dx", model.backward(dlogits, tape))
    d.json(ledger.report())
    for name, leaf, attr, arr in model.parameters():
        d.array(name, arr)
        d.array(name + ".grad", leaf.grads[attr])
    return d.hex()


def _pairs(phantoms, n):
    return [(p.volume, p.labels)
            for p in (phantoms.make_phantom(100 + i, (16, 16, 16)) for i in range(n))]


def _train_entry(training, phantoms, strategy):
    d = _Digest()
    model, records = training.train("mbconv-base-toy", _pairs(phantoms, 2), seed=3,
                                     steps=4, strategy=strategy)
    d.json(records)
    for name, _, _, arr in model.parameters():
        d.array(name, arr)
    return d.hex()


def _metrics_entry(training, phantoms, unet, **stop):
    pairs = _pairs(phantoms, 3)
    toy = unet.UNetConfig(widths=(4, 8), image_size=(16, 16, 16),
                          block_kind="mbconv", expand_ratio=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.jsonl")
        training.train(toy, pairs[:2], seed=5, holdout=pairs[2:], metrics_path=path, **stop)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def _kernel_entry(ops, kind, precision):
    d = _Digest()
    dtype = np.float32 if precision == "single" else np.float64
    n, grid = KERNEL_GRID[0], KERNEL_GRID[1:]
    c_in, c_out = KERNEL_CHANNELS[kind]
    gen = np.random.default_rng(13)
    x = gen.standard_normal((n, c_in) + grid).astype(dtype)
    w = gen.standard_normal((c_out, 1 if kind == "depthwise" else c_in, 3, 3, 3)).astype(dtype)
    dy = gen.standard_normal((n, c_out) + grid).astype(dtype)
    if kind == "depthwise":
        d.array("out", ops.depthwise_conv3d(x, w))
        grads = ops.depthwise_conv3d_bwd(x, w, dy)
    else:
        b = gen.standard_normal(c_out).astype(dtype)
        d.array("out", ops.conv3d(x, w, b))
        grads = ops.conv3d_bwd(x, w, dy, True)
    for label, arr in zip(("dx", "dw", "db"), grads):
        d.array(label, arr)
    return d.hex()


def _segment_entry(unet, phantoms, tensor, cli):
    d = _Digest()
    config = unet.UNetConfig(**SEGMENT_CONFIG)
    model = unet.build(config, 7, "single")
    gen = np.random.default_rng(11)
    x = gen.standard_normal((1, config.in_ch) + config.image_size).astype(model.dtype)
    d.array("logits, no tape", model.forward(x, None))
    with tempfile.TemporaryDirectory() as tmp:
        model.save(os.path.join(tmp, "model"))
        volume, out = os.path.join(tmp, "volume.rvt"), os.path.join(tmp, "labels.rvt")
        tensor.tensor_write(phantoms.make_phantom(7, SEGMENT_SIZE).volume, volume)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["segment", "--model", os.path.join(tmp, "model"),
                             "--volume", volume, "--out", out])
        d.text("exit %d" % code)
        with open(out, "rb") as f:
            d.h.update(f.read())
    return d.hex()


def _rev_entry(engine, blocks, kind, strategy):
    d = _Digest()
    half = REV_SHAPE[1] // 2
    f, g = (blocks.make_block(kind, "rev." + h, half, 2 if kind == "mbconv" else None,
                              np.float32) for h in "fg")
    blk = engine.RevBlock("rev", f, g)
    gen = np.random.default_rng(17)
    for leaf in engine.walk(blk):
        leaf.init_params(gen)
    x = gen.standard_normal(REV_SHAPE).astype(np.float32)
    dy = gen.standard_normal(REV_SHAPE).astype(np.float32)
    tape = engine.Tape(engine.MemoryLedger())
    tape.strategy = strategy
    y = blk.forward(x, tape)
    d.array("y", y)
    d.json(tape.ledger.report())
    d.array("y, no tape", blk.forward(x, None))
    d.array("inverse", blk.inverse(y))
    d.array("dx", blk.backward(dy, tape))
    for leaf in engine.walk(blk):
        for attr in sorted(leaf.grads):
            d.array("%s.%s.grad" % (leaf.name, attr), leaf.grads[attr])
    return d.hex()


def _budget_entry(memplan, preset, axis):
    base = memplan.estimate(preset, "reversible")["retained_bytes"]
    return _json_entry([memplan.budget_search(preset, int(f * base), axis)
                        for f in BUDGET_FACTORS])


def _json_entry(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digest():
    from revunet import blocks, cli, engine, memplan, ops, phantoms, tensor, training, unet, verify

    out = {}
    for config, label in (("mbconv-base-toy", "mbconv-base-toy"),
                          ("baseline-toy", "baseline-toy"), (verify.TOY2, "TOY2")):
        for precision in PRECISIONS:
            for strategy in STRATEGIES:
                out["model/%s/%s/%s" % (label, precision, strategy)] = _model_entry(
                    unet, engine, config, precision, strategy)
    for strategy in STRATEGIES:
        out["train/%s" % strategy] = _train_entry(training, phantoms, strategy)
    for label, stop in (("steps", {"steps": 3}), ("epochs", {"epochs": 2}),
                        ("both", {"steps": 3, "epochs": 1})):
        out["metrics/%s" % label] = _metrics_entry(training, phantoms, unet, **stop)
    for seed in GRADCHECK_SEEDS:
        out["gradcheck/%d" % seed] = _json_entry(verify.gradcheck_report("mbconv-base", seed))
    for seed in KINK_SEEDS:
        out["fd-network/%d" % seed] = _json_entry(verify.fd_network_suite(seed, samples=60))
    for op in sorted(verify._CORRUPT_TARGETS):
        out["gradcheck/0/corrupt/%s" % op] = _json_entry(
            verify.gradcheck_report("mbconv-base", 0, corrupt=op))
    out["claims/single"] = _json_entry(memplan.claims_report("single"))
    for preset in BUDGET_PRESETS:
        for axis in BUDGET_AXES:
            out["budget/%s/%s" % (preset, axis)] = _budget_entry(memplan, preset, axis)
    for kind in KERNEL_CHANNELS:
        for precision in PRECISIONS:
            out["kernel/%s/%s" % (kind, precision)] = _kernel_entry(ops, kind, precision)
    out["segment/segment-conv"] = _segment_entry(unet, phantoms, tensor, cli)
    for kind in ("mbconv", "standard"):
        for strategy in STRATEGIES:
            out["rev/%s/%s" % (kind, strategy)] = _rev_entry(engine, blocks, kind, strategy)
    return out


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/digest.py ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    print(json.dumps(digest(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
