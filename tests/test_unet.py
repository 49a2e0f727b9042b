"""Architecture assembly: configs, presets, forward/backward, padding, save/load."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from revunet import verify
from revunet.engine import Tape
from revunet.rng import rng_for
from revunet.tensor import ShapeError, tensor_write
from revunet.unet import (
    PRESETS,
    TOY_ANALOG,
    Model,
    UNetConfig,
    build,
    crop_to_record,
    pad_to_grid,
    resolve_config,
)


def _toy():
    return UNetConfig(widths=(4, 8), image_size=(8, 8, 8),
                      block_kind="mbconv", expand_ratio=2)


def _mbconv_names(prefix):
    return [prefix + s for s in (".expand.w", ".gn1.gamma", ".gn1.beta", ".dw.w", ".gn2.gamma",
                                 ".gn2.beta", ".project.w", ".gn3.gamma", ".gn3.beta")]


def _standard_names(prefix):
    return [prefix + s for s in (".conv.w", ".gn.gamma", ".gn.beta")]


def _three_level_order(block_names):
    """Encoders top down, then decoders bottom up, then the head."""
    def enc(i):
        p = "enc%d" % i
        return [p + ".raise.w", p + ".raise.b"] + block_names(p + ".rev.f") + block_names(p + ".rev.g")

    def dec(i):
        p = "dec%d" % i
        return [p + ".reduce.w", p + ".reduce.b"] + _standard_names(p)

    return enc(0) + enc(1) + enc(2) + dec(1) + dec(0) + ["head.w", "head.b"]


class TestConfig:
    def test_validate_accepts_presets(self):
        for name, cfg in PRESETS.items():
            cfg.validate()

    def test_levels_and_grid(self):
        cfg = PRESETS["mbconv-base"]
        assert cfg.levels == 5
        assert cfg.grid == 16

    @pytest.mark.parametrize("kwargs", [
        dict(widths=(5, 8)),                       # odd width
        dict(widths=(8, 4)),                       # not strictly increasing
        dict(widths=(8,)),                         # fewer than 2 levels
        dict(widths=(4, 8), image_size=(9, 8, 8)),  # not divisible by grid
        dict(widths=(4, 8), block_kind="magic"),
        dict(widths=(4, 8), block_kind="mbconv", expand_ratio=None),
        dict(widths=(4, 8), block_kind="mbconv", expand_ratio=0),
        dict(widths=(4, 8), block_kind="standard", expand_ratio=2),
    ])
    def test_validate_rejects(self, kwargs):
        kwargs.setdefault("image_size", (8, 8, 8))
        kwargs.setdefault("block_kind", "mbconv")
        if kwargs["block_kind"] == "mbconv":
            kwargs.setdefault("expand_ratio", 2)
        with pytest.raises(ValueError):
            UNetConfig(**kwargs).validate()

    @pytest.mark.parametrize("change", [
        {"widths": 5}, {"widths": "48"}, {"image_size": 8},
        {"widths": [-4, 8]}, {"widths": [0, 8]}, {"widths": ["4", "8"]},
        {"widths": [4.0, 8]}, {"widths": [True, 8]},
        {"image_size": [0, 8, 8]}, {"image_size": [-8, 8, 8]}, {"image_size": [8.0, 8, 8]},
        {"in_ch": 0}, {"in_ch": True}, {"num_classes": -1}, {"num_classes": 4.0},
        {"expand_ratio": True}, {"expand_ratio": 2.0},
    ])
    def test_counts_that_are_not_positive_ints_are_refused(self, change):
        doc = {"widths": [4, 8], "image_size": [8, 8, 8], "expand_ratio": 2}
        UNetConfig.from_dict(doc).validate()
        with pytest.raises(ValueError):
            UNetConfig.from_dict(dict(doc, **change)).validate()

    @pytest.mark.parametrize("doc", [[4, 8], "mbconv", 8, None])
    def test_documents_that_are_not_objects_are_refused(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            UNetConfig.from_dict(doc)

    @pytest.mark.parametrize("extra", [{"num_clases": 9}, {"name": "toy"}, {"Widths": [4, 8]}])
    def test_unknown_keys_are_refused_by_name(self, extra):
        doc = dict(_toy().to_dict(), **extra)
        (key,) = extra
        with pytest.raises(ValueError, match=repr(key)):
            UNetConfig.from_dict(doc)

    def test_numpy_int_counts_are_accepted(self):
        cfg = UNetConfig(widths=tuple(np.array([4, 8])), image_size=(8, 8, np.int64(8)),
                         block_kind="mbconv", expand_ratio=np.int32(2))
        cfg.validate()

    def test_dict_roundtrip(self):
        cfg = _toy()
        assert UNetConfig.from_dict(cfg.to_dict()) == cfg

    def test_resolve_config(self, tmp_path):
        assert resolve_config("mbconv-base") is PRESETS["mbconv-base"]
        cfg = _toy()
        assert resolve_config(cfg) is cfg
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert resolve_config(str(path)) == cfg
        with pytest.raises(ValueError):
            resolve_config("no-such-preset")

    def test_toy_analog_covers_desk_presets(self):
        desk = {n for n in PRESETS if not n.endswith("-toy")}
        assert set(TOY_ANALOG) == desk
        for toy in TOY_ANALOG.values():
            assert max(PRESETS[toy].widths) <= 16
            assert max(PRESETS[toy].image_size) <= 16


class TestModel:
    def test_forward_shape(self):
        model = build(_toy(), seed=0)
        x = rng_for(0, "x").standard_normal((1, 4, 8, 8, 8))
        assert model.forward(x, None).shape == (1, 4, 8, 8, 8)

    def test_build_deterministic(self):
        a = build(_toy(), seed=5)
        b = build(_toy(), seed=5)
        c = build(_toy(), seed=6)
        names = [n for n, _, _, _ in a.parameters()]
        assert names == [n for n, _, _, _ in b.parameters()]
        for (_, _, _, pa), (_, _, _, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)
        assert any(not np.array_equal(pa, pc) for (_, _, _, pa), (_, _, _, pc)
                   in zip(a.parameters(), c.parameters()))

    def test_uninitialized_model_maps_to_zero(self):
        model = Model(_toy(), precision="double")
        x = rng_for(0, "x0").standard_normal((1, 4, 8, 8, 8))
        assert np.array_equal(model.forward(x, None), np.zeros((1, 4, 8, 8, 8)))

    def test_forward_identical_across_strategies(self):
        model = build(_toy(), seed=1)
        x = rng_for(1, "x").standard_normal((1, 4, 8, 8, 8))
        model.strategy = "store-all"
        a = model.forward(x, Tape())
        model.strategy = "reversible"
        b = model.forward(x, Tape())
        assert np.array_equal(a, b)

    def test_input_validation(self):
        model = build(_toy(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 4, 8, 8, 8)), None)  # batch != 1
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 8, 8, 8)), None)  # wrong channels
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 4, 7, 8, 8)), None)  # not grid-divisible
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 4, 8, 8, 8), dtype=np.float32), None)

    def test_parameter_names_unique_and_structured(self):
        model = build(PRESETS["mbconv-base-toy"], seed=0)
        names = [n for n, _, _, _ in model.parameters()]
        assert len(names) == len(set(names))
        assert "enc0.raise.w" in names
        assert "enc0.rev.f.expand.w" in names
        assert "dec0.conv.w" in names
        assert "head.b" in names

    @pytest.mark.parametrize("kind", ["mbconv", "standard"])
    def test_parameter_order_is_pinned(self, kind):
        # saved models, Adam moments and init draws all follow this order
        config = UNetConfig(widths=(2, 4, 8), image_size=(4, 4, 4), block_kind=kind,
                            expand_ratio=2 if kind == "mbconv" else None)
        names = [n for n, _, _, _ in build(config, seed=0).parameters()]
        block_names = _mbconv_names if kind == "mbconv" else _standard_names
        assert names == _three_level_order(block_names)

    def test_backward_accumulates_on_every_parameter(self):
        model = build(_toy(), seed=2)
        from revunet.engine import Tape
        x = rng_for(2, "x").standard_normal((1, 4, 8, 8, 8))
        tape = Tape(None)
        model.forward(x, tape)
        model.zero_grads()
        model.backward(rng_for(2, "dy").standard_normal((1, 4, 8, 8, 8)), tape)
        for name, leaf, attr, _ in model.parameters():
            assert np.any(leaf.grads[attr] != 0), name


class TestInferenceMemory:
    # segment-conv's benchmark config; one level-0 activation is 8 x 64^3 float32
    SEGMENT = UNetConfig(widths=(8, 16, 32, 64), image_size=(64, 64, 64), block_kind="standard")
    ACTIVATION = 8 * 64 ** 3 * 4
    # measured 3.00 activations (numpy 2.4, Python 3.11), in the group norms
    # of enc0.rev's F and G: the rev block's input (1) and output (1), and
    # the conv output and the group norm's one buffer (0.5 each). dec0.up
    # reads 2.63 and enc0.rev's convs 2.60: each kernel holds its output and
    # one slab's scratch. The bound keeps 0.25 of headroom. A group norm
    # that kept its centred input next to their square read 3.50, and convs
    # that padded the whole input and cropped a grid 3.05.
    PEAK_ACTIVATIONS = 3.25
    # the mbconv-base preset's widths at a desk volume; one level-0
    # activation is 30 x 64 x 64 x 48 float32
    MBCONV = dataclasses.replace(PRESETS["mbconv-base"], image_size=(64, 64, 48))
    # measured 4.18 activations, in enc0.rev's depthwise convs, and 4.00 in
    # its group norms; whole-input padding and three-buffer group norms read
    # 5.16 and 5.00 there
    MBCONV_PEAK_ACTIVATIONS = 4.5

    def _peak(self, config):
        model = build(config, seed=0, precision="single")
        x = rng_for(0, "x").standard_normal((1, 4) + config.image_size).astype(np.float32)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.forward(x, None)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    def test_tapeless_forward_peak(self):
        peak = self._peak(self.SEGMENT)
        assert peak <= self.PEAK_ACTIVATIONS * self.ACTIVATION, peak / self.ACTIVATION

    def test_mbconv_tapeless_forward_peak(self):
        activation = 30 * 64 * 64 * 48 * 4
        peak = self._peak(self.MBCONV)
        assert peak <= self.MBCONV_PEAK_ACTIVATIONS * activation, peak / activation


def _wrap(node, before=None, after=None):
    """Shadow one node's forward with an instance attribute that calls
    `before()` ahead of the class's forward and `after(output)` behind it."""
    def forward(x, tape):
        if before is not None:
            before()
        y = type(node).forward(node, x, tape)
        if after is not None:
            after(y)
        return y
    node.forward = forward


class TestHandOver:
    CONFIG = UNetConfig(widths=(4, 8, 16), image_size=(8, 8, 8),
                        block_kind="mbconv", expand_ratio=2)

    def test_each_level_frees_its_input_once_the_raise_conv_has_read_it(self):
        model = build(self.CONFIG, seed=0)
        inputs, dead = [], []   # weak references only, so the forward holds the last strong one
        for level in model.top.levels():
            _wrap(level.rev, before=lambda: dead.append(inputs[-1]() is None))
            if level.pool is not None:
                _wrap(level.pool, after=lambda y: inputs.append(weakref.ref(y)))

        def volume():
            x = rng_for(0, "x").standard_normal((1, 4) + self.CONFIG.image_size)
            inputs.append(weakref.ref(x))
            return x

        model.forward(volume(), None)
        # enc0.rev: the volume; enc1.rev and enc2.rev: the pooled inputs
        assert dead == [True, True, True]

    def test_a_caller_that_keeps_its_input_keeps_it_intact(self):
        model = build(self.CONFIG, seed=0)
        x = rng_for(0, "x").standard_normal((1, 4) + self.CONFIG.image_size)
        kept = x.copy()
        first = model.forward(x, None)
        assert np.array_equal(x, kept)
        assert np.array_equal(model.forward(x, None), first)


_FORWARD_CONFIGS = pytest.mark.parametrize(
    "config", ["mbconv-base-toy", "baseline-toy", verify.TOY2],
    ids=["mbconv-base-toy", "baseline-toy", "TOY2"])


class TestTapelessForward:
    @pytest.mark.parametrize("strategy", ["store-all", "reversible"])
    @pytest.mark.parametrize("precision", ["single", "double"])
    @_FORWARD_CONFIGS
    def test_tapeless_and_taped_logits_are_bitwise_equal(self, config, precision, strategy):
        # every forward runs one decoder order, so a tape changes what is
        # saved and nothing that is computed
        model = build(config, seed=7, precision=precision, strategy=strategy)
        cfg = model.config
        x = rng_for(7, "x").standard_normal((1, cfg.in_ch) + cfg.image_size).astype(model.dtype)
        a = model.forward(x, None)
        b = model.forward(x, Tape())
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no-tape"])
    @pytest.mark.parametrize("strategy", ["store-all", "reversible"])
    @_FORWARD_CONFIGS
    def test_leaves_run_in_walk_order(self, config, strategy, taped):
        model = build(config, seed=7, strategy=strategy)
        cfg = model.config
        x = rng_for(7, "x").standard_normal((1, cfg.in_ch) + cfg.image_size)
        ran = []

        def recording(leaf):
            def forward(x, tape):
                ran.append(leaf.name)
                return type(leaf).forward(leaf, x, tape)
            return forward

        # an instance attribute shadows the class's forward, as in verify._reuse_unchanged
        for leaf in model.leaves():
            leaf.forward = recording(leaf)
        model.forward(x, Tape() if taped else None)
        assert ran == [leaf.name for leaf in model.leaves()]


class TestPadding:
    def test_native_scan_size_pads_to_grid(self):
        vol = np.zeros((1, 4, 240, 240, 155), dtype=np.float32)
        padded, record = pad_to_grid(vol, levels=5)
        assert padded.shape == (1, 4, 240, 240, 160)  # 240 = 15*16 stays
        assert record["pad"] == [[0, 0], [0, 0], [2, 3]]  # extra voxel goes high

    def test_roundtrip_restores_exactly(self):
        vol = rng_for(0, "pad").standard_normal((1, 2, 5, 9, 12)).astype(np.float32)
        padded, record = pad_to_grid(vol, levels=3)
        assert all(s % 4 == 0 for s in padded.shape[2:])
        assert np.array_equal(crop_to_record(padded, record), vol)

    def test_padding_is_zero(self):
        vol = np.ones((1, 1, 3, 4, 4), dtype=np.float32)
        padded, _ = pad_to_grid(vol, levels=3)
        assert padded.sum() == vol.sum()

    def test_already_aligned_unchanged(self):
        vol = np.ones((1, 1, 8, 8, 8), dtype=np.float32)
        padded, record = pad_to_grid(vol, levels=2)
        assert padded.shape == vol.shape
        assert record["pad"] == [[0, 0], [0, 0], [0, 0]]


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        model = build(_toy(), seed=7, precision="single")
        model.save(tmp_path / "m")
        back = Model.load(tmp_path / "m")
        assert back.config == model.config
        assert back.precision == "single"
        for (na, _, _, pa), (nb, _, _, pb) in zip(model.parameters(), back.parameters()):
            assert na == nb
            assert np.array_equal(pa, pb)
        x = rng_for(7, "x").standard_normal((1, 4, 8, 8, 8)).astype(np.float32)
        assert np.array_equal(model.forward(x, None), back.forward(x, None))

    def test_numpy_int_counts_save_as_plain_ints(self, tmp_path):
        cfg = UNetConfig(widths=tuple(np.array([4, 8])), image_size=(8, 8, np.int64(8)),
                         block_kind="mbconv", expand_ratio=np.int32(2))
        build(cfg, seed=1, precision="single").save(tmp_path / "numpy")
        build(_toy(), seed=1, precision="single").save(tmp_path / "plain")
        assert ((tmp_path / "numpy" / "config.json").read_bytes()
                == (tmp_path / "plain" / "config.json").read_bytes())
        back = Model.load(tmp_path / "numpy")
        assert back.config == cfg
        assert all(type(v) is int for v in back.config.widths + back.config.image_size)

    def test_missing_parameter_rejected(self, tmp_path):
        model = build(_toy(), seed=0)
        model.save(tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["params"] = manifest["params"][1:]
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            Model.load(tmp_path / "m")

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    def test_file_outside_model_dir_rejected(self, tmp_path, escape):
        model = build(_toy(), seed=0)
        model.save(tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        entry = manifest["params"][0]
        # a valid parameter file, so only the path check can refuse it
        outside = tmp_path / "outside.rvt"
        outside.write_bytes((tmp_path / "m" / entry["file"]).read_bytes())
        entry["file"] = "params/../../outside.rvt" if escape == "relative" else str(outside)
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="outside the model directory"):
            Model.load(tmp_path / "m")

    @pytest.mark.parametrize("name, shape", [
        ("enc0.rev.f.expand.w", (2, 4, 1, 1, 1)),   # saved as (4, 2, 1, 1, 1)
        ("enc0.rev.f.expand.w", (4, 1, 2, 1, 1)),
        ("enc0.rev.f.expand.w", (8, 1, 1, 1, 1)),
        ("enc0.rev.f.gn1.gamma", (1, 4, 1, 1, 1)),  # saved as (4, 1, 1, 1, 1)
    ])
    def test_parameter_file_of_another_shape_rejected(self, tmp_path, name, shape):
        # the element count matches; only the shape is wrong
        build(_toy(), seed=0, precision="single").save(tmp_path / "m")
        data = np.arange(8, dtype=np.float32)[:int(np.prod(shape))].reshape(shape)
        tensor_write(data, str(tmp_path / "m" / "params" / (name + ".rvt")))
        with pytest.raises(ShapeError, match=name):
            Model.load(tmp_path / "m")

    def test_unknown_parameter_rejected(self, tmp_path):
        model = build(_toy(), seed=0)
        model.save(tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        extra = dict(manifest["params"][0])
        extra["name"] = "ghost.w"
        manifest["params"].append(extra)
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            Model.load(tmp_path / "m")

    def test_parameter_listed_twice_rejected(self, tmp_path):
        # the second entry names another parameter's file of the same shape,
        # so only the repeated name can refuse it
        build("mbconv-base-toy", seed=0, precision="single").save(tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["params"].append({"name": "enc0.raise.w",
                                   "file": "params/enc1.rev.f.project.w.rvt"})
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="more than once.*enc0.raise.w"):
            Model.load(tmp_path / "m")
