"""Synthetic phantoms, the augmentation suite, and ensemble model selection.

A phantom is a 4-channel volume with three nested ellipsoidal regions
(class 3 inside class-2 support inside class-1 support, background 0) and
class-dependent intensity signatures per channel, standing in for a
multi-modality exam.

Augmentation semantics, in composition order: in-plane rotation about
the slice axis d, isotropic scale, per-axis flips, global intensity
multiply, elastic warp. Every parameter set, identity included, is
realized as one resample pass (trilinear for image channels, nearest for
labels, zero fill outside the domain). Lattice coordinates are sampled
exactly, so identity and flip-only sets come out bitwise equal to a copy
and to np.flip. augment() itself accepts any parameter values - range
enforcement lives in the sampler - so tests can drive it at lattice-exact
angles like 90 degrees.
"""

import dataclasses
import json
import os

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .rng import rng_for
from .tensor import tensor_read, tensor_write

NUM_CLASSES = 4
NUM_CHANNELS = 4

ROTATION_LIMIT_DEG = 20.0
SCALE_LIMIT = 0.10
INTENSITY_LIMIT = 0.10
DEFAULT_ELASTIC_ALPHA = 6.0
ELASTIC_SIGMA = 8.0

# rows: channel, cols: class; spread out so classes are separable from
# intensities alone, which keeps the desk-scale training benchmark honest
_CLASS_MEANS = np.array([
    [0.08, 0.45, 0.65, 0.90],
    [0.10, 0.70, 0.35, 0.85],
    [0.07, 0.30, 0.80, 0.55],
    [0.10, 0.55, 0.30, 0.95],
], dtype=np.float64)
_NOISE_AMPLITUDE = 0.03


@dataclasses.dataclass
class Phantom:
    volume: np.ndarray     # (1, 4, d, h, w), intensities in [0, 1]
    labels: np.ndarray     # (d, h, w), integer classes {0..3}


@dataclasses.dataclass(frozen=True)
class AugmentParams:
    rotation_deg: float = 0.0
    scale: float = 1.0
    flips: tuple = (False, False, False)
    intensity: float = 1.0
    elastic_alpha: float = 0.0


def sample_augment_params(gen):
    """Draw one augmentation parameter set, every value inside its bound."""
    return AugmentParams(
        rotation_deg=float(gen.uniform(-ROTATION_LIMIT_DEG, ROTATION_LIMIT_DEG)),
        scale=float(gen.uniform(1.0 - SCALE_LIMIT, 1.0 + SCALE_LIMIT)),
        flips=tuple(bool(gen.integers(2)) for _ in range(3)),
        intensity=float(gen.uniform(1.0 - INTENSITY_LIMIT, 1.0 + INTENSITY_LIMIT)),
        elastic_alpha=DEFAULT_ELASTIC_ALPHA,
    )


def _normalize_size(size):
    dims = (size, size, size) if np.isscalar(size) else tuple(size)
    if len(dims) != 3:
        raise ValueError("size must be a scalar or (d, h, w)")
    if min(dims) < 16:
        raise ValueError("phantom needs at least 16 voxels per side to fit nested regions")
    return dims


def _ellipsoid(dims, center, radii):
    zz = np.arange(dims[0], dtype=np.float64).reshape(-1, 1, 1)
    yy = np.arange(dims[1], dtype=np.float64).reshape(1, -1, 1)
    xx = np.arange(dims[2], dtype=np.float64).reshape(1, 1, -1)
    return (((zz - center[0]) / radii[0]) ** 2
            + ((yy - center[1]) / radii[1]) ** 2
            + ((xx - center[2]) / radii[2]) ** 2) <= 1.0


def _draw_labels(gen, dims):
    dims_arr = np.array(dims, dtype=np.float64)
    c1 = dims_arr / 2.0 + gen.uniform(-0.06, 0.06, 3) * dims_arr
    r1 = gen.uniform(0.26, 0.36, 3) * dims_arr
    r2 = r1 * gen.uniform(0.55, 0.75)
    c2 = c1 + gen.uniform(-0.2, 0.2, 3) * r2
    r3 = r2 * gen.uniform(0.45, 0.65)
    c3 = c2 + gen.uniform(-0.2, 0.2, 3) * r3
    m1 = _ellipsoid(dims, c1, r1)
    m2 = np.logical_and(_ellipsoid(dims, c2, r2), m1)   # nesting by intersection
    m3 = np.logical_and(_ellipsoid(dims, c3, r3), m2)
    labels = np.zeros(dims, dtype=np.int32)
    labels[m1] = 1
    labels[m2] = 2
    labels[m3] = 3
    return labels


def make_phantom(seed, size):
    """Deterministic phantom; retries sub-seeds until every class is present."""
    dims = _normalize_size(size)
    for attempt in range(64):
        gen = rng_for(seed, "phantom", attempt)
        labels = _draw_labels(gen, dims)
        counts = np.bincount(labels.reshape(-1), minlength=NUM_CLASSES)
        if counts.min() > 0:
            break
    else:
        raise RuntimeError("could not draw a phantom with all classes after 64 attempts")
    vol = _CLASS_MEANS[:, labels]
    vol = vol + gen.uniform(-_NOISE_AMPLITUDE, _NOISE_AMPLITUDE, (NUM_CHANNELS,) + dims)
    vol = np.clip(vol, 0.0, 1.0).astype(np.float32)[None]
    return Phantom(volume=vol, labels=labels)


def augment(phantom, params, seed=None):
    vol, lab = phantom.volume, phantom.labels
    if vol.ndim != 5 or vol.shape[0] != 1 or vol.shape[2:] != lab.shape:
        raise ValueError("phantom volume %r does not match labels %r"
                         % (vol.shape, lab.shape))
    dims = lab.shape
    # meshgrid's arrays own their data, so they are moved in place
    p = list(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij"))
    if params.elastic_alpha != 0.0:
        if seed is None:
            raise ValueError("elastic warp needs a seed for its displacement field")
        gen = rng_for(seed, "elastic")
        for ax in range(3):
            field = gaussian_filter(gen.uniform(-1.0, 1.0, dims), ELASTIC_SIGMA)
            p[ax] += params.elastic_alpha * field
    for ax, flip in enumerate(params.flips):
        if flip:
            p[ax] = (dims[ax] - 1) - p[ax]
    center = (np.array(dims, dtype=np.float64) - 1.0) / 2.0
    theta = np.deg2rad(params.rotation_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    s = params.scale
    pd = p[0] - center[0]
    ph = p[1] - center[1]
    pw = p[2] - center[2]
    # pull-back through the inverse of (rotate by theta in the h,w plane,
    # then scale isotropically about the volume center)
    coords = np.stack([
        pd / s + center[0],
        (cos_t * ph + sin_t * pw) / s + center[1],
        (-sin_t * ph + cos_t * pw) / s + center[2],
    ])
    # snap near-lattice coordinates: at angles like 90 degrees, rounding in
    # cos/sin leaves boundary coordinates a few ulp outside the domain, and
    # mode="constant" would zero-fill those voxels instead of copying them
    lattice = np.round(coords)
    near = np.abs(coords - lattice) < 1e-9
    coords[near] = lattice[near]
    out_vol = np.stack([
        map_coordinates(vol[0, ch], coords, order=1, mode="constant", cval=0.0)
        for ch in range(vol.shape[1])
    ])[None]
    out_lab = map_coordinates(lab, coords, order=0, mode="constant", cval=0)
    out_vol = np.clip(out_vol * out_vol.dtype.type(params.intensity), 0, 1)
    return Phantom(out_vol, out_lab)


def histogram(volume, bins=64):
    """Counts over 64 equal bins on [0, 1] of every positive-valued voxel."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    v = np.asarray(volume)
    vals = np.clip(v[v > 0], 0.0, 1.0)
    return np.histogram(vals, bins=bins, range=(0.0, 1.0))[0]


def chi2_distance(h, g):
    """Symmetric chi-squared distance on unit-normalized histograms."""
    h = np.asarray(h, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if h.shape != g.shape:
        raise ValueError("histogram bin counts differ: %r vs %r" % (h.shape, g.shape))
    if h.sum() > 0:
        h = h / h.sum()
    if g.sum() > 0:
        g = g / g.sum()
    denom = h + g
    mask = denom > 0
    return float(0.5 * ((h[mask] - g[mask]) ** 2 / denom[mask]).sum())


def ensemble_scores(per_model_train_dice, train_histograms, test_volume, reading="literal"):
    dice = np.asarray(per_model_train_dice, dtype=np.float64)
    if dice.ndim != 2 or dice.shape[0] < 1:
        raise ValueError("need a (models x train-images) dice matrix with at least one model")
    if not np.all(np.isfinite(dice)):
        raise ValueError("dice matrix must be finite")
    if len(train_histograms) != dice.shape[1]:
        raise ValueError("got %d histograms for %d train images"
                         % (len(train_histograms), dice.shape[1]))
    if len({np.shape(h) for h in train_histograms}) != 1 or np.ndim(train_histograms[0]) != 1:
        raise ValueError("train_histograms must be a list of equal-length histograms")
    test_hist = histogram(test_volume, len(train_histograms[0]))  # refuses fewer than 2 bins
    dist = np.array([chi2_distance(test_hist, h) for h in train_histograms])
    if reading == "literal":
        return (dice @ dist).tolist()
    if reading == "inverted":
        return (dice @ (1.0 - dist)).tolist()
    raise ValueError("reading must be 'literal' or 'inverted'")


def select_from_scores(scores, reading):
    """Pick a model for the test volume from its ensemble_scores.

    literal reading: argmin of sum_j chi2(test, train_j) * dice[m, j] - the
    published "lowest weighted sum" wording taken at face value. inverted
    reading: argmax with similarity weights (1 - chi2). Ties break to the
    lowest index.
    """
    if reading == "literal":
        return int(np.argmin(scores))
    return int(np.argmax(scores))


def write_corpus(path, count, size, seed):
    """Generate `count` phantoms deterministically and store them as RVT1 pairs."""
    if count < 1:
        raise ValueError("a corpus needs at least 1 phantom, got count %d" % count)
    dims = _normalize_size(size)
    os.makedirs(path, exist_ok=True)
    child_seeds = [int(x) for x in rng_for(seed, "corpus").integers(2 ** 31, size=count)]
    items = []
    for i, child in enumerate(child_seeds):
        ph = make_phantom(child, dims)
        vol_name = "phantom_%03d.vol.rvt" % i
        lab_name = "phantom_%03d.lab.rvt" % i
        tensor_write(ph.volume, os.path.join(path, vol_name))
        write_labels(os.path.join(path, lab_name), ph.labels)
        items.append({"volume": vol_name, "labels": lab_name, "seed": child})
    index = {"schema_version": 1, "count": count, "size": list(dims),
             "seed": seed, "items": items}
    with open(os.path.join(path, "index.json"), "w") as f:
        json.dump(index, f, indent=2)
    return index


def write_labels(path, labels):
    """Store a (d, h, w) integer label map as an RVT1 float32 (1, 1, d, h, w) tensor."""
    tensor_write(labels.astype(np.float32).reshape((1, 1) + labels.shape), path)


def read_labels(path, classes=NUM_CLASSES):
    """Read an RVT1 label map of shape (1, 1, d, h, w) -> (d, h, w) int32.

    Every value must be an integer class in [0, classes); anything else is
    refused with ValueError rather than truncated or wrapped.
    """
    data = tensor_read(path)
    if data.shape[:2] != (1, 1):
        raise ValueError("label map %s must be (1, 1, d, h, w), got %r" % (path, data.shape))
    lab = data[0, 0]
    if lab.min() < 0 or lab.max() >= classes:
        raise ValueError("label map %s holds values outside the classes [0, %d)" % (path, classes))
    labels = lab.astype(np.int32)
    if not np.array_equal(labels, lab):
        raise ValueError("label map %s holds values that are not integers" % path)
    return labels


def read_corpus(path, classes=NUM_CLASSES):
    """Load a stored corpus; returns (list of (volume, labels), index doc)."""
    with open(os.path.join(path, "index.json")) as f:
        index = json.load(f)
    items = index.get("items") if isinstance(index, dict) else None
    if not (isinstance(items, list) and all(
            isinstance(item, dict) and isinstance(item.get("volume"), str)
            and isinstance(item.get("labels"), str) for item in items)):
        raise ValueError("corpus index.json must hold a JSON object whose items are "
                         "objects with a volume and a labels string")
    pairs = []
    for item in items:
        vol = tensor_read(os.path.join(path, item["volume"]))
        pairs.append((vol, read_labels(os.path.join(path, item["labels"]), classes)))
    return pairs, index
