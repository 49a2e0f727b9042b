"""Verification suites: round-trips, naive-oracle comparisons, finite
differences, and store-all vs reversible gradient equivalence.

Arrays compare by _rel, max|a - b| / max(max|a|, max|b|, floor); a
finite-difference probe compares two floats by the same rule with
FD_FLOOR, which keeps coordinates whose true gradient is below
measurement noise from dominating. _entry alone turns a suite's errors
into a check: their np.max, which a NaN error wins, against one of the
*_TOL constants below. Every suite is deterministic given its seed.

fd_network_suite re-runs only what a probe changes. Each probe moves one
parameter scalar, so most leaf nodes see the same input and parameters
as in the unperturbed forward. On entry, _reuse_unchanged runs one
forward without a tape and records, per leaf, its input, the bytes of its
parameters and its output. Until it exits, a leaf forward without a tape
returns that recorded output when its input and every parameter array
are byte-equal to the recorded ones (so -0 differs from +0 and NaN
payloads count); any other leaf forward runs as usual. The ops are
deterministic, so a recorded output is bitwise what running the leaf
again would give, and every perturbed forward equals a full one bit for
bit: the report does not change. A leaf handed a tape never reads the
records, so every saved context is computed afresh; under the reversible
strategy F and G run without one even in a taped forward, and may reuse
records, which holds the same bits. No node keeps any of them once the
context has exited.
"""

import contextlib
import math

import numpy as np

from . import ops, reference
from .engine import Tape
from .rng import rng_for
from .training import soft_dice_loss
from .unet import PRESETS, TOY_ANALOG, UNetConfig, build, resolve_config

TOY_PRESETS = tuple(name for name in sorted(PRESETS) if name.endswith("-toy"))

# the 2-level instance used for network-scale gradient checks
TOY2 = UNetConfig(widths=(4, 8), image_size=(8, 8, 8), block_kind="mbconv", expand_ratio=2)

FD_STEP = 1e-5
FD_FLOOR = 1e-3
ORACLE_TOL = 1e-12
FD_TOL = 1e-6
FD_COORDS = 120
FD_NETWORK_TOL = 1e-5
EQUIV_TOL = 1e-10
# round-trip tolerance by precision; single is the measured worst case
# 2.9e-6 across the toy presets, frozen with margin
ROUNDTRIP_TOL = {"double": 1e-10, "single": 1e-5}
# largest share of finite-difference probes that may straddle a kink
KINK_SHARE = 0.1
# gradcheck_report: models inverted per report, parameters probed in fd.network
ROUNDTRIP_SEEDS = 5
NETWORK_SAMPLES = 60


def _entry(name, errors, tol, valid=True):
    """A check from its errors, a sequence or one value: the worst, and a
    pass when it is within tol and the measurement was valid; a NaN is the
    worst and fails."""
    err, tol = float(np.max(errors, initial=0.0)), float(tol)
    return {"check": name, "max_err": err, "tol": tol, "pass": err <= tol and valid}


def _rel(a, b, floor=1e-30):
    """Max-norm relative error; immune to cancellation at single coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), floor)
    return float(np.abs(a - b).max()) / scale


def _rel_scalar(a, b):
    """_rel's rule for two floats, with FD_FLOOR as the floor."""
    return abs(a - b) / max(abs(a), abs(b), FD_FLOOR)


def roundtrip_suite(config_spec, seeds, precision="double"):
    """Invert every reversible block of the model on random data, worst case."""
    config = resolve_config(config_spec)
    errors = []
    for seed in seeds:
        model = build(config, seed, precision)
        gen = rng_for(seed, "roundtrip-input")
        h = gen.standard_normal((1, config.in_ch) + tuple(config.image_size),
                                dtype=model.dtype)
        for lvl in model.top.levels():
            a = lvl.raise_.forward(h, None)
            y = lvl.rev.forward(a, None)
            errors.append(float(np.abs(lvl.rev.inverse(y) - a).max()))
            h = lvl.pool.forward(y, None) if lvl.pool is not None else y
    name = config_spec if isinstance(config_spec, str) else "custom"
    return _entry("roundtrip.%s" % name, errors, ROUNDTRIP_TOL[precision])


def oracle_suite(seed):
    """Compare every vectorized forward against its naive reference."""
    gen = rng_for(seed, "oracle")
    checks = []

    x = gen.standard_normal((1, 2, 4, 4, 4))
    w = gen.standard_normal((3, 2, 3, 3, 3))
    b = gen.standard_normal(3)
    checks.append(_entry("oracle.conv3d",
                         _rel(ops.conv3d(x, w, b), reference.conv3d_loops(x, w, b)), ORACLE_TOL))

    wp = gen.standard_normal((3, 2, 1, 1, 1))
    fast = ops.pointwise_conv3d(x, wp, b)
    checks.append(_entry("oracle.pointwise",
                         _rel(fast, reference.conv3d_loops(x, wp, b)), ORACLE_TOL))
    bitwise = np.array_equal(fast, ops.conv3d(x, wp, b))
    checks.append(_entry("oracle.pointwise_equals_conv3d_bitwise",
                         0.0 if bitwise else 1.0, 0.0))

    xd = gen.standard_normal((1, 3, 4, 4, 4))
    wd = gen.standard_normal((3, 1, 3, 3, 3))
    checks.append(_entry("oracle.depthwise",
                         _rel(ops.depthwise_conv3d(xd, wd),
                              reference.depthwise_conv3d_loops(xd, wd)), ORACLE_TOL))

    xm = gen.standard_normal((1, 2, 4, 4, 4))
    pooled, _ = ops.maxpool3d(xm, False)
    exact = np.array_equal(pooled, reference.maxpool3d_loops(xm))
    checks.append(_entry("oracle.maxpool", 0.0 if exact else 1.0, 0.0))

    xg = gen.standard_normal((1, 4, 3, 3, 3))
    gamma = gen.standard_normal(4)
    beta = gen.standard_normal(4)
    out, xhat, _ = ops.group_norm(xg, gamma, beta, 2, True)
    means, variances = reference.group_norm_stats(xhat, group_size=2)
    checks.append(_entry("oracle.groupnorm_mean", np.abs(means).max(), 1e-6))
    checks.append(_entry("oracle.groupnorm_var", np.abs(variances - 1.0).max(), 1e-4))
    m0, v0 = reference.group_norm_stats(xg, group_size=2)
    direct = ((xg.reshape(1, 2, 2, 3, 3, 3)
               - m0.reshape(1, 2, 1, 1, 1, 1))
              / np.sqrt(v0.reshape(1, 2, 1, 1, 1, 1) + 1e-5)).reshape(xg.shape)
    direct = gamma.reshape(1, 4, 1, 1, 1) * direct + beta.reshape(1, 4, 1, 1, 1)
    checks.append(_entry("oracle.groupnorm_out", _rel(out, direct), ORACLE_TOL))

    xu = gen.standard_normal((1, 2, 2, 3, 4))
    checks.append(_entry("oracle.upsample",
                         _rel(ops.trilinear_upsample(xu),
                              reference.trilinear_upsample_points(xu)), ORACLE_TOL))

    sep_p = gen.standard_normal((3, 2, 1, 1, 1))
    sep_d = gen.standard_normal((2, 1, 3, 3, 3))
    composed = ops.pointwise_conv3d(ops.depthwise_conv3d(x, sep_d), sep_p)
    fused = sep_p[:, :, 0, 0, 0][:, :, None, None, None] * sep_d[None, :, 0]
    checks.append(_entry("oracle.separability",
                         _rel(composed, ops.conv3d(x, fused)), ORACLE_TOL))
    return checks


def _fd_check(name, f, arrays, analytic, tol, gen, count):
    """Central differences vs analytic at `count` coordinates drawn from gen.

    A coordinate whose central difference misses while its forward and
    backward one-sided differences disagree has no valid difference
    quotient: the step straddles a kink (a ReLU or max-pool switch), or
    rounding noise exceeds the tolerance. Neither depends on the analytic
    gradient. Such a coordinate is counted in ``kinks`` and replaced by
    another draw from gen; the check fails if more than KINK_SHARE of the
    requested probes are kinks.
    """
    starts = np.cumsum([0] + [a.size for a in arrays])
    picked = [int(k) for k in gen.choice(starts[-1], size=min(count, starts[-1]), replace=False)]
    queue = list(picked)
    f0 = f()
    errors, kinks = [], 0
    while queue:
        k = queue.pop(0)
        i = int(np.searchsorted(starts, k, side="right")) - 1
        arr, j = arrays[i], k - starts[i]
        orig = arr.flat[j]
        arr.flat[j] = orig + FD_STEP
        hi = f()
        arr.flat[j] = orig - FD_STEP
        lo = f()
        arr.flat[j] = orig
        err = _rel_scalar(float(analytic[i].flat[j]), (hi - lo) / (2.0 * FD_STEP))
        if err > tol and _rel_scalar((hi - f0) / FD_STEP, (f0 - lo) / FD_STEP) > tol:
            kinks += 1
            rest = np.setdiff1d(np.arange(starts[-1]), picked)
            if kinks <= KINK_SHARE * count and rest.size:
                picked.append(int(gen.choice(rest)))
                queue.append(picked[-1])
            continue
        errors.append(err)
    entry = _entry(name, errors, tol, valid=kinks <= KINK_SHARE * count)
    entry["coords"] = len(picked) - kinks
    entry["kinks"] = kinks
    return entry


def fd_primitive_suite(seed):
    """Central-difference check of every primitive VJP in isolation (double)."""
    gen = rng_for(seed, "fd")
    checks = []

    def run(name, arrays, forward, backward):
        r = gen.standard_normal(forward().shape)

        def scalar():
            return float((forward() * r).sum())

        analytic = backward(r)
        if not isinstance(analytic, (list, tuple)):
            analytic = [analytic]
        checks.append(_fd_check("fd." + name, scalar, arrays, analytic, FD_TOL, gen, FD_COORDS))

    x = gen.standard_normal((1, 2, 5, 5, 5))
    w = gen.standard_normal((3, 2, 3, 3, 3)) * 0.5
    b = gen.standard_normal(3)
    run("conv3d", [x, w, b],
        lambda: ops.conv3d(x, w, b),
        lambda r: ops.conv3d_bwd(x, w, r, True))

    wp = gen.standard_normal((3, 2, 1, 1, 1))
    run("pointwise", [x, wp, b],
        lambda: ops.pointwise_conv3d(x, wp, b),
        lambda r: ops.pointwise_conv3d_bwd(x, wp, r, True))

    xd = gen.standard_normal((1, 3, 4, 4, 4))
    wd = gen.standard_normal((3, 1, 3, 3, 3)) * 0.5
    run("depthwise", [xd, wd],
        lambda: ops.depthwise_conv3d(xd, wd),
        lambda r: ops.depthwise_conv3d_bwd(xd, wd, r))

    xg = gen.standard_normal((1, 4, 4, 4, 4))
    gamma = gen.standard_normal(4) + 1.5
    beta = gen.standard_normal(4)
    run("groupnorm", [xg, gamma, beta],
        lambda: ops.group_norm(xg, gamma, beta, 2, False)[0],
        lambda r: ops.group_norm_bwd(*ops.group_norm(xg, gamma, beta, 2, True)[1:], gamma, r))

    # keep inputs away from the kink so central differences are valid
    xr = (gen.uniform(0.2, 1.0, (1, 2, 5, 5, 5))
          * np.where(gen.uniform(size=(1, 2, 5, 5, 5)) < 0.5, -1.0, 1.0))
    run("relu", [xr], lambda: ops.relu(xr), lambda r: ops.relu_bwd(xr, r))

    # distinct values with a wide margin: a 1e-5 nudge can never flip an argmax
    xm = (0.1 * gen.permutation(np.arange(128, dtype=np.float64))).reshape(1, 2, 4, 4, 4)
    run("maxpool", [xm],
        lambda: ops.maxpool3d(xm, False)[0],
        lambda r: ops.maxpool3d_bwd(ops.maxpool3d(xm, True)[1], r))

    xu = gen.standard_normal((1, 2, 4, 4, 4))
    run("upsample", [xu],
        lambda: ops.trilinear_upsample(xu),
        lambda r: ops.trilinear_upsample_bwd(r))

    logits = gen.standard_normal((1, 3, 4, 4, 4))
    labels = gen.integers(0, 3, size=(1, 4, 4, 4))
    analytic = [soft_dice_loss(logits, labels)[1]]
    checks.append(_fd_check("fd.soft_dice_loss", lambda: soft_dice_loss(logits, labels)[0],
                            [logits], analytic, FD_TOL, gen, FD_COORDS))
    return checks


def fd_network_suite(seed, samples=220):
    """Central differences over randomly sampled parameters of TOY2."""
    model = build(TOY2, seed, "double")
    gen = rng_for(seed, "fd-net")
    x = gen.standard_normal((1, TOY2.in_ch) + TOY2.image_size)
    probe = gen.standard_normal((1, TOY2.num_classes) + TOY2.image_size)

    tape = Tape(None)
    model.forward(x, tape)
    model.zero_grads()
    model.backward(probe, tape)
    params = [(leaf, attr, arr) for _, leaf, attr, arr in model.parameters()]
    analytic = [leaf.grads[attr].copy() for leaf, attr, _ in params]
    arrays = [arr for _, _, arr in params]

    def scalar():
        return float((model.forward(x, None) * probe).sum())

    with _reuse_unchanged(model, x):
        return _fd_check("fd.network", scalar, arrays, analytic, FD_NETWORK_TOL, gen, samples)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def _reuse_unchanged(model, x):
    """Leaf forwards without a tape reuse the output of a baseline forward of
    ``model`` on ``x`` while their input and parameters are byte-equal to it.

    Each leaf gets a ``forward`` instance attribute for the duration, which
    shadows its class's method and is deleted on exit. The recorded inputs
    and outputs are held by reference and read-only until exit, so an input
    that is a recorded one by identity has not changed; any other input is
    compared by bytes. Arrays this marks read-only are writable again after.
    """
    records = {}
    frozen = []

    def freeze(a):
        if a.flags.writeable:
            a.flags.writeable = False
            frozen.append(a)
        return a

    def reuse(leaf):
        def forward(x, tape):
            if tape is None:
                params = [arr.tobytes() for _, arr in leaf.param_items()]
                seen = records.get(leaf)
                if seen is None:
                    y = type(leaf).forward(leaf, freeze(x), tape)
                    records[leaf] = (x, params, freeze(y))
                    return y
                x0, params0, y0 = seen
                if params == params0 and (x is x0 or _same_bytes(x, x0)):
                    return y0
            return type(leaf).forward(leaf, x, tape)
        return forward

    leaves = list(model.leaves())
    try:
        for leaf in leaves:
            leaf.forward = reuse(leaf)
        model.forward(x, None)
        yield
    finally:
        for leaf in leaves:
            vars(leaf).pop("forward", None)
        # owners before views: a view can be writable only over a writable base
        for a in sorted(frozen, key=lambda a: a.base is not None):
            a.flags.writeable = True


def strategy_equivalence_suite(seed):
    """Store-all vs reversible on TOY2 (double): identical forwards, matching gradients."""
    model = build(TOY2, seed, "double")
    gen = rng_for(seed, "equiv")
    x = gen.standard_normal((1, TOY2.in_ch) + TOY2.image_size)
    dlogits = gen.standard_normal((1, TOY2.num_classes) + TOY2.image_size)

    def run(strategy):
        model.strategy = strategy
        tape = Tape(None)
        logits = model.forward(x, tape)
        model.zero_grads()
        model.backward(dlogits, tape)
        grads = {name: leaf.grads[attr].copy()
                 for name, leaf, attr, _ in model.parameters()}
        return logits, grads

    logits_store, grads_store = run("store-all")
    logits_rev, grads_rev = run("reversible")
    forward_same = np.array_equal(logits_store, logits_rev)
    errors = [_rel(grads_store[name], grads_rev[name], floor=1e-12) for name in grads_store]
    return [
        _entry("equiv.forward_bitwise", 0.0 if forward_same else 1.0, 0.0),
        _entry("equiv.gradients", errors, EQUIV_TOL),
    ]


_CORRUPT_TARGETS = {
    "conv3d": "conv3d_bwd",
    "pointwise": "pointwise_conv3d_bwd",
    "depthwise": "depthwise_conv3d_bwd",
    "groupnorm": "group_norm_bwd",
    "relu": "relu_bwd",
    "maxpool": "maxpool3d_bwd",
    "upsample": "trilinear_upsample_bwd",
}


@contextlib.contextmanager
def corrupted_vjp(op_name):
    """Fault-injection hook: perturb one op's input-gradient during the suites."""
    if op_name not in _CORRUPT_TARGETS:
        raise ValueError("unknown op %r; choose from %s"
                         % (op_name, sorted(_CORRUPT_TARGETS)))
    attr = _CORRUPT_TARGETS[op_name]
    original = getattr(ops, attr)

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] + 1e-3,) + out[1:]
        return out + 1e-3

    setattr(ops, attr, wrapped)
    try:
        yield
    finally:
        setattr(ops, attr, original)


def gradcheck_report(config_spec, seed, corrupt=None):
    """Round-trip + oracle + finite-difference suites on a toy instance."""
    name = config_spec if isinstance(config_spec, str) else "custom"
    toy = TOY_ANALOG.get(name, config_spec)
    ctx = corrupted_vjp(corrupt) if corrupt else contextlib.nullcontext()
    with ctx:
        checks = [roundtrip_suite(toy, seeds=[seed + k for k in range(ROUNDTRIP_SEEDS)])]
        checks.extend(oracle_suite(seed))
        checks.extend(fd_primitive_suite(seed))
        checks.append(fd_network_suite(seed, samples=NETWORK_SAMPLES))
        checks.extend(strategy_equivalence_suite(seed))
    # a check can fail on its kink count inside tolerance, so a failing
    # report names the worst of its failing checks; a NaN error is the worst
    failing = [c for c in checks if not c["pass"]]
    worst = max(failing or checks, key=lambda c: math.inf if math.isnan(c["max_err"])
                else c["max_err"] / max(c["tol"], 1e-30))
    return {
        "schema_version": 1,
        "config": name,
        "resolved": toy if isinstance(toy, str) else "custom",
        "seed": seed,
        "corrupt": corrupt,
        "checks": checks,
        "worst": worst["check"],
        "pass": not failing,
    }
