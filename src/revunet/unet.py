"""Full architecture assembly, presets, and model serialization.

The network is a chain of nested Level nodes followed by a head. Level i
runs its encoder (pointwise channel-raise to widths[i], then a reversible
block whose F and G halves are blocks of width widths[i]/2). Above the
bottom level it then 2x2x2 max-pools into level i+1, which it holds as
`down`, and runs its decoder on what comes back: trilinear upsample,
pointwise reduce widths[i+1] -> widths[i], additive skip from its own
encoder, then a standard conv block. Head: pointwise to num_classes.
Forward, backward and the leaf (parameter) order all follow this one
nesting. Batch size is fixed at 1 (group norm makes this viable).

A forward without a tape (inference) reduces before it upsamples in each
decoder, so the reduce runs on the coarse grid and the upsample moves
widths[i] channels, not widths[i+1]. Tape-less and taped logits therefore
agree to rounding, not bit for bit
(tests/test_unet.py::TestTapelessForward::test_tapeless_and_taped_logits_agree_to_rounding).
Every forward hands its input over: no frame holds it after enc0.raise
has read it, nor a pooled input after the next level's raise, so without
a tape both are freed there unless the caller keeps a reference. Each op
of it allocates only its output and at most one conv slab's scratch (see
ops). On the `segment-conv` config the tape-less forward peaks at 3.00
level-0 activations, in enc0.rev's group norms; at the mbconv-base
widths on a 64x64x48 volume it peaks at 4.18, in enc0.rev's depthwise
convs.

A model serializes to a directory: config.json, manifest.json, and one
RVT1 file per parameter (natural shapes padded to rank 5 with trailing
ones).
"""

import dataclasses
import json
import os

import numpy as np

from .blocks import make_block, standard_block
from .engine import STRATEGIES, Conv, EngineError, MaxPool2, Node, RevBlock, Upsample2, walk
from .rng import rng_for
from .tensor import (DTYPES, ShapeError, check_tensor5, ew_add, precision_of, tensor_read,
                     tensor_write)


def _positive_int(v):
    """A config count: an int (numpy's included) above zero, never a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0


def _plain(v):
    """A numpy integer as the Python int json can write; anything else as is."""
    return int(v) if isinstance(v, np.integer) else v


# the fields a config file holds as JSON lists and a config holds as tuples
_LIST_FIELDS = ("widths", "image_size")


@dataclasses.dataclass(frozen=True)
class UNetConfig:
    widths: tuple
    image_size: tuple
    block_kind: str = "mbconv"
    expand_ratio: int = None
    in_ch: int = 4
    num_classes: int = 4

    @property
    def levels(self):
        return len(self.widths)

    @property
    def grid(self):
        return 2 ** (self.levels - 1)

    def validate(self):
        if self.block_kind not in ("standard", "mbconv"):
            raise ValueError("block_kind must be 'standard' or 'mbconv'")
        for name in _LIST_FIELDS:
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) and all(map(_positive_int, values))):
                raise ValueError("%s must be a list of positive integers, got %r" % (name, values))
        for name in ("in_ch", "num_classes"):
            if not _positive_int(getattr(self, name)):
                raise ValueError("%s must be a positive integer, got %r"
                                 % (name, getattr(self, name)))
        if self.block_kind == "mbconv":
            if not _positive_int(self.expand_ratio):
                raise ValueError("mbconv config needs a positive integer expand_ratio")
        elif self.expand_ratio is not None:
            raise ValueError("standard config must not set expand_ratio")
        if len(self.widths) < 2:
            raise ValueError("need at least two levels")
        for w in self.widths:
            if w % 2:
                raise ValueError("widths must be even (reversible blocks split channels)")
        if any(a >= b for a, b in zip(self.widths, self.widths[1:])):
            raise ValueError("widths must be strictly increasing")
        if len(self.image_size) != 3:
            raise ValueError("image_size must be (d, h, w)")
        for s in self.image_size:
            if s % self.grid:
                raise ValueError("image size %r not divisible by the pooling grid %d"
                                 % (tuple(self.image_size), self.grid))

    def to_dict(self):
        """The JSON form: lists for the tuple fields, numpy integers as plain ints."""
        return {k: [_plain(x) for x in v] if k in _LIST_FIELDS else _plain(v)
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object, got %s" % type(d).__name__)
        unknown = sorted(set(d) - {field.name for field in dataclasses.fields(cls)})
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(map(repr, unknown)))
        for name in _LIST_FIELDS:
            if not isinstance(d[name], list):
                raise ValueError("%s must be a list of positive integers, got %r" % (name, d[name]))
        # keys left out take the field defaults
        return cls(**{k: tuple(v) if k in _LIST_FIELDS else v for k, v in d.items()})


PRESETS = {
    "baseline": UNetConfig(widths=(60, 120, 180, 240, 480),
                           image_size=(256, 256, 160), block_kind="standard"),
    "mbconv-base": UNetConfig(widths=(30, 60, 120, 180, 240),
                              image_size=(256, 256, 160), block_kind="mbconv", expand_ratio=2),
    "mbconv-deeper": UNetConfig(widths=(30, 60, 120, 180, 240, 480),
                                image_size=(128, 128, 128), block_kind="mbconv", expand_ratio=2),
    "mbconv-wider": UNetConfig(widths=(30, 60, 120, 180, 240),
                               image_size=(128, 128, 128), block_kind="mbconv", expand_ratio=8),
    # desk-scale analogs; the deeper analog keeps 5 levels because a 6-level
    # grid needs 32-divisible inputs, beyond the <=16^3 toy budget
    "baseline-toy": UNetConfig(widths=(2, 4, 6, 8, 16),
                               image_size=(16, 16, 16), block_kind="standard"),
    "mbconv-base-toy": UNetConfig(widths=(2, 4, 8, 12, 16),
                                  image_size=(16, 16, 16), block_kind="mbconv", expand_ratio=2),
    "mbconv-deeper-toy": UNetConfig(widths=(2, 4, 8, 12, 16),
                                    image_size=(16, 16, 16), block_kind="mbconv", expand_ratio=2),
    "mbconv-wider-toy": UNetConfig(widths=(2, 4, 8, 12, 16),
                                   image_size=(16, 16, 16), block_kind="mbconv", expand_ratio=8),
}

TOY_ANALOG = {
    "baseline": "baseline-toy",
    "mbconv-base": "mbconv-base-toy",
    "mbconv-deeper": "mbconv-deeper-toy",
    "mbconv-wider": "mbconv-wider-toy",
}


def resolve_config(source):
    """Accept a preset name, a JSON file path, or a ready UNetConfig."""
    if isinstance(source, UNetConfig):
        return source
    if source in PRESETS:
        return PRESETS[source]
    if os.path.exists(source):
        with open(source) as f:
            return UNetConfig.from_dict(json.load(f))
    raise ValueError("unknown preset or missing config file: %r" % (source,))


class Level(Node):
    """Encoder level i, every level below it, and decoder level i.

    raise_ -> rev gives h. Above the bottom level, h is pooled and handed to
    `down` (level i+1); what comes back is upsampled, reduced, added to h as
    the skip and run through the decoder block. The bottom level stops at h.
    Without a tape the reduce comes before the upsample (see the module
    docstring), and the input is freed once raise_ has read it unless the
    caller keeps its own reference.
    """

    op = "level"

    def __init__(self, i, config, dtype, down=None):
        super().__init__("level%d" % i)
        c = config.widths[i]
        prev = config.in_ch if i == 0 else config.widths[i - 1]
        self.raise_ = Conv("enc%d.raise" % i, prev, c, 1, dtype, bias=True)
        self.rev = RevBlock(
            "enc%d.rev" % i,
            make_block(config.block_kind, "enc%d.rev.f" % i, c // 2, config.expand_ratio, dtype),
            make_block(config.block_kind, "enc%d.rev.g" % i, c // 2, config.expand_ratio, dtype))
        self.down = down
        self.pool = self.up = self.reduce = self.block = None
        if down is not None:
            self.pool = MaxPool2("pool%d" % i)
            self.up = Upsample2("dec%d.up" % i)
            self.reduce = Conv("dec%d.reduce" % i, config.widths[i + 1], c, 1, dtype, bias=True)
            self.block = standard_block("dec%d" % i, c, dtype)

    def children(self):
        nodes = (self.raise_, self.rev, self.pool, self.down, self.up, self.reduce, self.block)
        return [n for n in nodes if n is not None]

    def levels(self):
        """This level and every level below it, top down."""
        level = self
        while level is not None:
            yield level
            level = level.down

    # intermediates go straight into the next call, never into locals, so
    # each is freed as soon as it has been read: the skip h is held only by
    # _with_skip's frame, which ends once the add has read it. The input is
    # handed over as well: boxed in a one-element list and popped at the
    # raise conv, so no frame of the forward holds it past that read
    def forward(self, x, tape):
        x = [x]
        if self.down is None:
            return self._encode(x, tape)
        return self.block.forward(self._with_skip(self._encode(x, tape), tape), tape)

    def _encode(self, box, tape):
        return self.rev.forward(self.raise_.forward(box.pop(), tape), tape)

    def _with_skip(self, h, tape):
        """The decoder block's input: the levels below run on pooled h, then
        upsample, reduce and the skip add of h itself. Without a tape the
        reduce runs first, on the coarse grid: both ops are linear, and each
        upsample row sums to 1, so they commute up to rounding."""
        if tape is None:
            return ew_add(self.up.forward(self.reduce.forward(
                self.down.forward(self.pool.forward(h, None), None), None), None), h)
        return ew_add(self.reduce.forward(self.up.forward(
            self.down.forward(self.pool.forward(h, tape), tape), tape), tape), h)

    def backward(self, dy, tape):
        if self.down is not None:
            dy = self.block.backward(dy, tape)   # additive skip: grad fans out unchanged
            dlow = self.down.backward(self.up.backward(self.reduce.backward(dy, tape), tape), tape)
            dy = ew_add(self.pool.backward(dlow, tape), dy)
        return self.raise_.backward(self.rev.backward(dy, tape), tape)


class Model:
    def __init__(self, config, precision="double", strategy="reversible"):
        config.validate()
        if precision not in DTYPES:
            raise ValueError("precision must be 'single' or 'double'")
        self.config = config
        self.precision = precision
        self.strategy = strategy
        self.param_version = 0
        dtype = self.dtype
        # built bottom-up so each level holds the one below it
        self.top = None
        for i in reversed(range(config.levels)):
            self.top = Level(i, config, dtype, self.top)
        self.head = Conv("head", config.widths[0], config.num_classes, 1, dtype, bias=True)

    @property
    def strategy(self):
        """What the next forward keeps for backward; one of STRATEGIES."""
        return self._strategy

    @strategy.setter
    def strategy(self, value):
        if value not in STRATEGIES:
            raise ValueError("unknown strategy %r" % (value,))
        self._strategy = value

    @property
    def dtype(self):
        return DTYPES[self.precision].type

    def bump_version(self):
        self.param_version += 1

    def leaves(self):
        yield from walk(self.top)
        yield self.head

    def parameters(self):
        for leaf in self.leaves():
            for attr, arr in leaf.param_items():
                yield leaf.name + "." + attr, leaf, attr, arr

    def init_params(self, seed):
        gen = rng_for(seed, "init")
        for leaf in self.leaves():
            leaf.init_params(gen)
        return self

    def zero_grads(self):
        for leaf in self.leaves():
            leaf.zero_grads()

    def _check_input(self, x):
        check_tensor5(x)
        if x.shape[0] != 1:
            raise ShapeError("batch size is fixed at 1, got %d" % x.shape[0])
        if x.shape[1] != self.config.in_ch:
            raise ShapeError("expected %d input channels, got %d"
                             % (self.config.in_ch, x.shape[1]))
        for s in x.shape[2:]:
            if s % self.config.grid:
                raise ShapeError("spatial size %r not divisible by pooling grid %d"
                                 % (x.shape[2:], self.config.grid))
        if x.dtype != self.dtype:
            raise ValueError("input dtype %s does not match model precision %s"
                             % (x.dtype, self.precision))

    def forward(self, x, tape=None):
        self._check_input(x)
        if tape is not None:
            tape.version = self.param_version
            tape.strategy = self.strategy
        x = [x]   # handed over: see Level.forward
        return self.head.forward(self.top.forward(x.pop(), tape), tape)

    def backward(self, dlogits, tape):
        """Backpropagate through the forward that filled `tape`. Raises EngineError,
        under either strategy, if the parameters changed since that forward."""
        if tape.version != self.param_version:
            raise EngineError("parameters changed between forward and backward; "
                              "the saved contexts belong to the old parameters")
        return self.top.backward(self.head.backward(dlogits, tape), tape)

    def save(self, path):
        os.makedirs(os.path.join(path, "params"), exist_ok=True)
        with open(os.path.join(path, "config.json"), "w") as f:
            json.dump({"schema_version": 1, "precision": self.precision,
                       "config": self.config.to_dict()}, f, indent=2)
        manifest = []
        for name, _, _, arr in self.parameters():
            padded = arr.reshape(_stored_shape(arr))
            tensor_write(np.ascontiguousarray(padded), os.path.join(path, "params", name + ".rvt"))
            manifest.append({"name": name, "shape": list(arr.shape), "file": "params/" + name + ".rvt"})
        with open(os.path.join(path, "manifest.json"), "w") as f:
            json.dump({"schema_version": 1, "precision": self.precision,
                       "params": manifest}, f, indent=2)

    @classmethod
    def load(cls, path):
        """Load a saved model directory, refusing manifest paths that leave it.

        The directory is trusted as a whole: the path check is textual, so a
        symlink inside it is followed wherever it points.
        """
        with open(os.path.join(path, "config.json")) as f:
            doc = json.load(f)
        if not (isinstance(doc, dict) and isinstance(doc.get("precision"), str)):
            raise ValueError("config.json must hold a JSON object with a precision string")
        model = cls(UNetConfig.from_dict(doc["config"]), doc["precision"])
        with open(os.path.join(path, "manifest.json")) as f:
            manifest = json.load(f)
        params = manifest.get("params") if isinstance(manifest, dict) else None
        if not (isinstance(params, list) and all(
                isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("file"), str) for entry in params)):
            raise ValueError("manifest.json must hold a JSON object whose params are "
                             "objects with a name and a file string")
        by_name = {entry["name"]: entry for entry in params}
        if len(by_name) != len(params):
            names = [entry["name"] for entry in params]
            raise ValueError("manifest lists parameters more than once: %s"
                             % sorted({name for name in names if names.count(name) > 1}))
        for name, leaf, attr, arr in model.parameters():
            entry = by_name.pop(name, None)
            if entry is None:
                raise ValueError("parameter %s missing from manifest" % name)
            stored = tensor_read(os.path.join(path, _inside(entry["file"])))
            if precision_of(stored) != model.precision:
                raise ValueError("parameter %s precision %s does not match model %s"
                                 % (name, precision_of(stored), model.precision))
            if stored.shape != _stored_shape(arr):
                raise ShapeError("parameter %s has shape %r, expected %r"
                                 % (name, stored.shape, _stored_shape(arr)))
            arr[...] = stored.reshape(arr.shape)
        if by_name:
            raise ValueError("manifest lists unknown parameters: %s" % sorted(by_name))
        return model


def _stored_shape(arr):
    """The rank-5 shape a parameter is saved in: its own, then trailing ones."""
    return arr.shape + (1,) * (5 - arr.ndim)


def _inside(rel):
    """A manifest file path, refused unless it stays inside the model directory."""
    norm = os.path.normpath(rel)
    if os.path.isabs(norm) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
        raise ValueError("manifest file %r is outside the model directory" % (rel,))
    return norm


def build(config, seed, precision="double", strategy="reversible"):
    """Construct and deterministically initialize a model."""
    return Model(resolve_config(config), precision, strategy).init_params(seed)


def pad_to_grid(volume, levels):
    """Zero-pad spatial dims up to the pooling grid; extra voxel goes high on ties.

    Returns (padded, crop_record); crop_to_record inverts the padding exactly.
    """
    g = 2 ** (levels - 1)
    pads = []
    for size in volume.shape[2:]:
        target = -(-size // g) * g
        extra = target - size
        lo = extra // 2
        pads.append([lo, extra - lo])
    padded = np.pad(volume, ((0, 0), (0, 0)) + tuple((p[0], p[1]) for p in pads))
    return padded, {"pad": pads}


def crop_to_record(volume, record):
    slices = [slice(None), slice(None)]
    for (lo, hi), size in zip(record["pad"], volume.shape[2:]):
        slices.append(slice(lo, size - hi))
    return np.ascontiguousarray(volume[tuple(slices)])
