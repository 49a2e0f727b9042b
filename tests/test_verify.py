"""fd_network_suite's reuse of unchanged leaf outputs, and fault injection."""

import collections
import contextlib
import inspect

import numpy as np
import pytest

from revunet import ops, verify
from revunet.engine import MemoryLedger, RevBlock, Tape
from revunet.rng import rng_for
from revunet.unet import build

TOY2 = verify.TOY2


def _model_and_input(precision, seed=3):
    model = build(TOY2, seed, precision)
    x = rng_for(seed, "test-reuse").standard_normal(
        (1, TOY2.in_ch) + TOY2.image_size).astype(model.dtype)
    return model, x


def _count_ops(monkeypatch):
    """Count calls of every public function in revunet.ops, by name."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(ops).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == ops.__name__:
            monkeypatch.setattr(ops, name, counting(name, fn))
    return calls


def _nodes(node):
    yield node
    for child in node.children():
        yield from _nodes(child)


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("precision", ["single", "double"])
def test_a_perturbed_forward_equals_a_full_forward_bitwise(precision):
    model, x = _model_and_input(precision)
    twin, _ = _model_and_input(precision)
    gen = rng_for(3, "test-reuse", precision)
    probed = set()
    with verify._reuse_unchanged(model, x):
        assert _bits(model.forward(x, None)) == _bits(twin.forward(x, None))
        for (name, leaf, _, arr), (_, _, _, other) in zip(model.parameters(), twin.parameters()):
            j = int(gen.integers(arr.size))
            orig = arr.flat[j]
            arr.flat[j] = other.flat[j] = orig * arr.dtype.type(1.5) + arr.dtype.type(0.25)
            assert _bits(model.forward(x, None)) == _bits(twin.forward(x, None)), name
            arr.flat[j] = other.flat[j] = orig
            probed.add(leaf.name)
        # with every parameter restored the baseline comes back
        assert _bits(model.forward(x, None)) == _bits(twin.forward(x, None))
    assert probed == {leaf.name for leaf in model.leaves() if leaf.param_items()}


def test_perturbing_the_head_reruns_only_the_head(monkeypatch):
    model, x = _model_and_input("double")
    calls = _count_ops(monkeypatch)
    with verify._reuse_unchanged(model, x):
        calls.clear()
        model.forward(x, None)
        assert calls == {}
        model.head.w.flat[0] += 1e-5
        model.forward(x, None)
        assert calls == {"pointwise_conv3d": 1}


def test_a_signed_zero_counts_as_a_change(monkeypatch):
    model, x = _model_and_input("double")
    x[0, 0, 0, 0, 0] = 0.0
    flipped = x.copy()
    flipped[0, 0, 0, 0, 0] = -0.0
    gn = next(leaf for leaf in model.leaves() if leaf.op == "groupnorm")
    assert gn.beta[0] == 0 and not np.signbit(gn.beta[0])
    calls = _count_ops(monkeypatch)
    with verify._reuse_unchanged(model, x):
        calls.clear()
        model.forward(flipped, None)
        assert calls["pointwise_conv3d"] >= 1
        calls.clear()
        gn.beta[0] = -0.0
        model.forward(x, None)
        assert calls["group_norm"] >= 1


def _taped_pass(model, x, dlogits):
    ledger = MemoryLedger()
    tape = Tape(ledger)
    logits = model.forward(x, tape)
    saved = ledger.report()
    model.zero_grads()
    dx = model.backward(dlogits, tape)
    grads = [_bits(leaf.grads[attr]) for _, leaf, attr, _ in model.parameters()]
    return _bits(logits), saved, _bits(dx), grads


@pytest.mark.parametrize("strategy", ["store-all", "reversible"])
def test_a_leaf_given_a_tape_never_reads_the_records(monkeypatch, strategy):
    # under reversible, F and G run without a tape in the forward and may
    # reuse records; every leaf that is handed a tape runs and saves
    model, x = _model_and_input("double")
    model.strategy = strategy
    dlogits = rng_for(3, "test-reuse", "dlogits").standard_normal(
        (1, TOY2.num_classes) + TOY2.image_size)
    calls = _count_ops(monkeypatch)
    want = _taped_pass(model, x, dlogits)
    full = dict(calls)
    with verify._reuse_unchanged(model, x):
        calls.clear()
        got = _taped_pass(model, x, dlogits)
        if strategy == "store-all":
            assert dict(calls) == full
    assert got == want


@pytest.mark.parametrize("fail", [False, True])
def test_no_node_keeps_cache_state_after_exit(fail):
    model, x = _model_and_input("double")
    before = {id(node): set(vars(node)) for node in _nodes(model.top)}
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with verify._reuse_unchanged(model, x):
            assert all("forward" in vars(leaf) for leaf in model.leaves())
            assert not x.flags.writeable
            if fail:
                raise RuntimeError("probe failed")
    nodes = list(_nodes(model.top)) + [model.head]
    assert [n.name for n in nodes if "forward" in vars(n)] == []
    assert {id(node): set(vars(node)) for node in _nodes(model.top)} == before
    assert x.flags.writeable


@pytest.mark.parametrize("op", sorted(verify._CORRUPT_TARGETS))
def test_a_corrupted_vjp_fails_its_own_check_and_the_network_check(op):
    report = verify.gradcheck_report("mbconv-base", 0, corrupt=op)
    status = {c["check"]: c["pass"] for c in report["checks"]}
    assert report["pass"] is False
    assert status["fd." + op] is False
    assert status["fd.network"] is False
    assert status[report["worst"]] is False


@pytest.mark.parametrize("seed", [88, 105])
def test_a_report_failing_on_kinks_alone_names_the_failing_check(seed):
    # fd.network fails on its kink count while its error is inside tolerance,
    # so the largest error ratio belongs to a check that passed
    report = verify.gradcheck_report("mbconv-base", seed)
    ratio = {c["check"]: c["max_err"] / max(c["tol"], 1e-30) for c in report["checks"]}
    assert [c["check"] for c in report["checks"] if not c["pass"]] == ["fd.network"]
    assert max(ratio, key=ratio.get) != "fd.network"
    assert report["worst"] == "fd.network"


def test_a_passing_report_names_the_largest_error_ratio():
    report = verify.gradcheck_report("mbconv-base", 0)
    assert report["pass"]
    ratio = {c["check"]: c["max_err"] / max(c["tol"], 1e-30) for c in report["checks"]}
    assert report["worst"] == max(ratio, key=ratio.get)


def test_entry_takes_the_worst_error_and_a_nan_fails():
    assert verify._entry("c", [1e-9, 3e-9, 2e-9], 1e-8) == {
        "check": "c", "max_err": 3e-9, "tol": 1e-8, "pass": True}
    assert verify._entry("c", [], 0.0)["pass"] is True
    for errors in ([1e-9, np.nan, 2e-9], [np.inf], np.nan):
        entry = verify._entry("c", errors, 1e-8)
        assert entry["pass"] is False and not entry["max_err"] <= 1e-8


def _nan_relu_bwd(monkeypatch):
    original = ops.relu_bwd

    def relu_bwd(x, dy, out=None):
        dx = original(x, dy, out=out)
        dx[...] = np.nan
        return dx

    monkeypatch.setattr(ops, "relu_bwd", relu_bwd)


def test_an_all_nan_relu_gradient_fails_its_check_and_the_network_check(monkeypatch):
    _nan_relu_bwd(monkeypatch)
    relu = {c["check"]: c for c in verify.fd_primitive_suite(0)}["fd.relu"]
    network = verify.fd_network_suite(0, samples=20)
    for check in (relu, network):
        assert check["pass"] is False and np.isnan(check["max_err"]), check


def test_a_failing_report_names_a_nan_check_over_a_finite_failure(monkeypatch):
    # the corrupted conv3d VJP fails fd.conv3d by a finite error, far above
    # its tolerance; the NaN relu gradient must still be named the worst
    _nan_relu_bwd(monkeypatch)
    report = verify.gradcheck_report("mbconv-base", 0, corrupt="conv3d")
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["fd.conv3d"]["pass"] is False and np.isfinite(checks["fd.conv3d"]["max_err"])
    assert report["pass"] is False and np.isnan(checks[report["worst"]]["max_err"])


def test_a_nan_inverse_fails_the_round_trip(monkeypatch):
    monkeypatch.setattr(RevBlock, "inverse", lambda self, y: np.full_like(y, np.nan))
    check = verify.roundtrip_suite("mbconv-base-toy", seeds=[0])
    assert check["pass"] is False and np.isnan(check["max_err"]), check


def test_one_nan_depthwise_weight_gradient_fails_equivalence(monkeypatch):
    original = ops.depthwise_conv3d_bwd

    def depthwise_conv3d_bwd(x, w, dy):
        dx, dw = original(x, w, dy)
        dw.flat[0] = np.nan
        return dx, dw

    monkeypatch.setattr(ops, "depthwise_conv3d_bwd", depthwise_conv3d_bwd)
    checks = {c["check"]: c for c in verify.strategy_equivalence_suite(0)}
    assert checks["equiv.forward_bitwise"]["pass"] is True
    assert checks["equiv.gradients"]["pass"] is False
    assert np.isnan(checks["equiv.gradients"]["max_err"])
