"""Closed-form activation-memory model and the budget search.

estimate() recomputes, from the config alone, exactly what the runtime
MemoryLedger will register under the engine's saved-context rules (see
engine.py's table); for any executable config the two agree element for
element. budget_search() answers "how far can one axis of AXES grow
before the estimate exceeds a byte budget" with one search for every axis:
_grown() says how a config grows, one retained(config) <= budget test
decides, and _largest() finds the edge. claims_report() runs the
reversible vs store-all comparison the headline claims are about.

Accounting scope: tensors saved for the backward pass only. Parameters
and optimizer moments are excluded from "activation memory" and reported
separately. Batch size is 1 throughout.
"""

import dataclasses
import math

from .engine import STRATEGIES
from .ops import group_size_for
from .tensor import DTYPES
from .unet import resolve_config

ACCOUNTING_RULES = [
    "convolutions (standard, pointwise, depthwise) save their input",
    "group norm saves the normalized tensor and one inverse-std scalar per group",
    "relu is fused into the group norm it follows and saves nothing: backward "
    "rebuilds its input from the normalized tensor",
    "maxpool saves argmax indices, one integer (at scalar width) per output voxel",
    "trilinear upsample and the elementwise adds save nothing (linear ops)",
    "store-all mode: reversible blocks save nothing beyond their sub-blocks' contexts",
    "reversible mode: sub-blocks save nothing; each reversible block saves only its output",
    "the loss is terminal and saves nothing; parameters are never activations",
]


def _spatial_sizes(config):
    d, h, w = config.image_size
    return [(d >> i) * (h >> i) * (w >> i) for i in range(config.levels)]


def _entries(config, strategy):
    """(node, reason, op, elements) in execution order, batch size 1."""
    widths = config.widths
    levels = config.levels
    t = config.expand_ratio
    s = _spatial_sizes(config)
    out = []
    for i, c in enumerate(widths):
        prev = config.in_ch if i == 0 else widths[i - 1]
        out.append(("enc%d.raise" % i, "input", "pointwise", prev * s[i]))
        half = c // 2
        if strategy == "store-all":
            for fg in ("f", "g"):
                p = "enc%d.rev.%s" % (i, fg)
                if config.block_kind == "mbconv":
                    tc = t * half
                    out.extend([
                        (p + ".expand", "input", "pointwise", half * s[i]),
                        (p + ".gn1", "xhat", "groupnorm", tc * s[i]),
                        (p + ".gn1", "rstd", "groupnorm", tc // group_size_for(tc)),
                        (p + ".dw", "input", "depthwise", tc * s[i]),
                        (p + ".gn2", "xhat", "groupnorm", tc * s[i]),
                        (p + ".gn2", "rstd", "groupnorm", tc // group_size_for(tc)),
                        (p + ".project", "input", "pointwise", tc * s[i]),
                        (p + ".gn3", "xhat", "groupnorm", half * s[i]),
                        (p + ".gn3", "rstd", "groupnorm", half // group_size_for(half)),
                    ])
                else:
                    out.extend([
                        (p + ".conv", "input", "conv", half * s[i]),
                        (p + ".gn", "xhat", "groupnorm", half * s[i]),
                        (p + ".gn", "rstd", "groupnorm", half // group_size_for(half)),
                    ])
        else:
            out.append(("enc%d.rev" % i, "out", "rev", c * s[i]))
        if i < levels - 1:
            out.append(("pool%d" % i, "idx", "maxpool", c * s[i + 1]))
    for i in reversed(range(levels - 1)):
        out.extend([
            ("dec%d.reduce" % i, "input", "pointwise", widths[i + 1] * s[i]),
            ("dec%d.conv" % i, "input", "conv", widths[i] * s[i]),
            ("dec%d.gn" % i, "xhat", "groupnorm", widths[i] * s[i]),
            ("dec%d.gn" % i, "rstd", "groupnorm", widths[i] // group_size_for(widths[i])),
        ])
    out.append(("head", "input", "pointwise", widths[0] * s[0]))
    return out


def param_elements(config):
    """Closed-form scalar-parameter count of the full model."""
    widths = config.widths
    t = config.expand_ratio
    total = 0
    for i, c in enumerate(widths):
        prev = config.in_ch if i == 0 else widths[i - 1]
        total += c * prev + c
        half = c // 2
        if config.block_kind == "mbconv":
            total += 2 * (2 * t * half * half + 27 * t * half + 4 * t * half + 2 * half)
        else:
            total += 2 * (27 * half * half + 2 * half)
    for i in range(config.levels - 1):
        total += widths[i] * widths[i + 1] + widths[i]
        total += 27 * widths[i] * widths[i] + 2 * widths[i]
    total += config.num_classes * widths[0] + config.num_classes
    return total


def estimate(config, strategy, precision="single"):
    config = resolve_config(config)
    config.validate()
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % (strategy,))
    width = DTYPES[precision].itemsize
    rows = _entries(config, strategy)
    entries = [{"node": n, "reason": r, "op": op,
                "elements": e, "bytes": e * width} for n, r, op, e in rows]
    total = sum(e["elements"] for e in entries)
    by_stage = {}
    for e in entries:
        stage = e["node"].split(".")[0]
        by_stage[stage] = by_stage.get(stage, 0) + e["elements"]
    params = param_elements(config)
    return {
        "schema_version": 1,
        "strategy": strategy,
        "precision": precision,
        "entries": entries,
        "retained_elements": total,
        "retained_bytes": total * width,
        # registration is monotone during the forward pass, so the peak
        # equals the end-of-forward retention
        "peak_elements": total,
        "peak_bytes": total * width,
        "by_stage": by_stage,
        "param_elements": params,
        "param_bytes": params * width,
        "activations_plus_params_bytes": (total + params) * width,
    }


def element_map(est):
    """{(node, reason): elements} — comparison form shared with the ledger."""
    return {(e["node"], e["reason"]): e["elements"] for e in est["entries"]}


AXES = ("volume", "depth", "channels")


def _grown(config, axis, k):
    """config grown by k on one axis: widths times k, k added levels each
    twice the last width, or every side times k rounded down to the pooling grid."""
    if axis == "channels":
        return dataclasses.replace(config, widths=tuple(w * k for w in config.widths))
    if axis == "depth":
        added = tuple(config.widths[-1] * 2 ** i for i in range(1, k + 1))
        return dataclasses.replace(config, widths=tuple(config.widths) + added)
    g = config.grid
    return dataclasses.replace(
        config, image_size=tuple((int(k * side) // g) * g for side in config.image_size))


def _largest(feasible, k):
    """Largest integer >= k passing a monotone test that k passes: doubling, then bisection."""
    step = 1
    while feasible(k + step):
        k += step
        step *= 2
    hi = k + step
    while hi - k > 1:
        mid = (k + hi) // 2
        if feasible(mid):
            k = mid
        else:
            hi = mid
    return k


def budget_search(config, budget_bytes, axis, strategy="reversible", precision="single"):
    """Largest growth on one axis whose estimate fits the byte budget."""
    config = resolve_config(config)

    def retained(c):
        return estimate(c, strategy, precision)["retained_bytes"]

    def fits(k):
        return retained(_grown(config, axis, k)) <= budget_bytes

    if budget_bytes < retained(config):
        raise ValueError("base config already exceeds the budget")
    if axis == "volume":
        g = config.grid
        # the grid changes only where one side crosses a multiple of g, at
        # m = k * g / side; take each side's largest such m that fits (sides
        # are multiples of g, so k = side // g is m = 1), then the largest of those
        k = max(_largest(lambda n: fits(n * g / side), side // g) * g / side
                for side in config.image_size)
        chosen = _grown(config, axis, k)
        result = {"base_image_size": list(config.image_size),
                  "image_size": list(chosen.image_size),
                  "per_side_multiplier": k,
                  "voxel_multiplier": math.prod(chosen.image_size) / math.prod(config.image_size)}
    elif axis == "channels":
        k = _largest(fits, 1)
        chosen = _grown(config, axis, k)
        result = {"base_widths": list(config.widths), "widths": list(chosen.widths),
                  "width_multiplier": k}
    elif axis == "depth":
        # an added level only adds ledger entries and a coarser grid, so fits
        # is monotone; each level doubles the grid, which the sides must divide
        k = _largest(lambda n: not any(s % (config.grid << n) for s in config.image_size)
                     and fits(n), 0)
        chosen = _grown(config, axis, k)
        result = {"base_levels": config.levels, "levels": chosen.levels,
                  "widths": list(chosen.widths), "added_levels": k}
    else:
        raise ValueError("axis must be volume, channels, or depth")
    result.update(axis=axis, estimate_bytes=retained(chosen), budget_bytes=int(budget_bytes),
                  strategy=strategy, precision=precision)
    return result


CLAIM_PRESETS = ("mbconv-base", "mbconv-deeper", "mbconv-wider")
# the published channel claim is about the shipped expand-ratio-2 models;
# the wider preset is itself the widened demonstration, so it is excluded
# from the channels aggregate
CHANNEL_CLAIM_PRESETS = ("mbconv-base", "mbconv-deeper")

FOURTEEN_GB = 14 * 10 ** 9


def claims_report(precision="single"):
    """Reversible vs store-all feasibility ratios vs the headline claims.

    The budget yardstick for each preset is its own store-all activation
    footprint; the search then asks how far the reversible strategy can
    push each axis inside that same footprint.
    """
    per_preset = {}
    for name in CLAIM_PRESETS:
        config = resolve_config(name)
        store = estimate(config, "store-all", precision)
        rev = estimate(config, "reversible", precision)
        budget = store["retained_bytes"]
        per_preset[name] = {
            "store_all_bytes": store["retained_bytes"],
            "reversible_bytes": rev["retained_bytes"],
            "store_over_reversible": store["retained_bytes"] / rev["retained_bytes"],
            "volume_ratio_continuous": budget / rev["retained_bytes"],
            **{axis: budget_search(config, budget, axis, "reversible", precision)
               for axis in AXES},
        }
    base = resolve_config("mbconv-base")
    deeper = resolve_config("mbconv-deeper")
    base_at_deeper_size = dataclasses.replace(base, image_size=deeper.image_size)
    mb_base_rev = estimate("mbconv-base", "reversible", precision)
    report = {
        "schema_version": 1,
        "precision": precision,
        "accounting_rules": ACCOUNTING_RULES,
        "headline_targets": {"volume_ratio": 3.0, "channel_ratio": 2.0, "depth_percent": 25.0},
        "presets": per_preset,
        "family": {
            "volume_multiplier_max": max(
                per_preset[p]["volume"]["voxel_multiplier"] for p in CLAIM_PRESETS),
            "volume_ratio_continuous_max": max(
                per_preset[p]["volume_ratio_continuous"] for p in CLAIM_PRESETS),
            "channel_multiplier_min": min(
                per_preset[p]["channels"]["width_multiplier"] for p in CHANNEL_CLAIM_PRESETS),
            "channel_multiplier_max": max(
                per_preset[p]["channels"]["width_multiplier"] for p in CHANNEL_CLAIM_PRESETS),
        },
        "depth_claim": {
            # deeper preset vs base preset, the two published depth points
            "levels": {"base": base.levels, "deeper": deeper.levels,
                       "percent_more": 100.0 * (deeper.levels - base.levels) / base.levels},
            "pool_stages": {"base": base.levels - 1, "deeper": deeper.levels - 1,
                            "percent_more": 100.0 * ((deeper.levels - 1) - (base.levels - 1))
                                            / (base.levels - 1)},
            "deeper_reversible_fits_base_store_all_budget_at_same_volume":
                estimate(deeper, "reversible", precision)["retained_bytes"]
                <= estimate(base_at_deeper_size, "store-all", precision)["retained_bytes"],
        },
        "budget_14gb": {
            "budget_bytes": FOURTEEN_GB,
            "mbconv_base_reversible_activation_bytes": mb_base_rev["retained_bytes"],
            "mbconv_base_reversible_activations_plus_params_bytes":
                mb_base_rev["activations_plus_params_bytes"],
            "activations_fit": mb_base_rev["retained_bytes"] <= FOURTEEN_GB,
            "activations_plus_params_fit":
                mb_base_rev["activations_plus_params_bytes"] <= FOURTEEN_GB,
        },
    }
    return report


_SUFFIXES = {
    "KB": 10 ** 3, "MB": 10 ** 6, "GB": 10 ** 9, "TB": 10 ** 12,
    "KIB": 2 ** 10, "MIB": 2 ** 20, "GIB": 2 ** 30, "TIB": 2 ** 40,
}


def parse_budget(text):
    """'14GB' -> 14e9 bytes; decimal KB/MB/GB/TB, binary KiB/MiB/GiB/TiB, or raw bytes."""
    s = str(text).strip().upper()
    for suffix, mult in sorted(_SUFFIXES.items(), key=lambda kv: -len(kv[0])):
        if s.endswith(suffix):
            try:
                value = float(s[:-len(suffix)]) * mult
            except ValueError:
                raise ValueError("bad budget value %r" % (text,))
            if not 0 < value < float("inf"):
                raise ValueError("budget must be positive and finite")
            return int(value)
    try:
        value = int(s)
    except ValueError:
        raise ValueError("bad budget value %r" % (text,))
    if value <= 0:
        raise ValueError("budget must be positive")
    return value
