"""Execution engine: ledger accounting, tape, reversible blocks, strategies."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from revunet import ops, verify
from revunet.blocks import make_block
from revunet.engine import (
    Conv,
    EngineError,
    GroupNorm,
    MemoryLedger,
    Node,
    STRATEGIES,
    RevBlock,
    Sequential,
    Tape,
    walk,
)
from revunet.rng import rng_for
from revunet.training import Adam
from revunet.unet import build


class _Zero(Node):
    op = "zero"

    def forward(self, x, tape):
        return np.zeros_like(x)

    def backward(self, dy, tape):
        return np.zeros_like(dy)


class _Identity(Node):
    op = "identity"

    def forward(self, x, tape):
        return x

    def backward(self, dy, tape):
        return dy


class _Spy(Node):
    """Runs a block and keeps every input its forward and backward are handed."""

    op = "spy"

    def __init__(self, block):
        super().__init__(block.name)
        self.block = block
        self.inputs = []
        self.dys = []

    def children(self):
        return [self.block]

    def forward(self, x, tape):
        self.inputs.append(x)
        return self.block.forward(x, tape)

    def backward(self, dy, tape):
        self.dys.append(dy)
        return self.block.backward(dy, tape)


def _x(shape, seed=0, dtype=np.float64):
    return rng_for(seed, "engine-x").standard_normal(shape).astype(dtype)


def _rev(kind, c, dtype):
    """A rev block of two `kind` blocks on c/2 channels each, deterministically initialized."""
    f = make_block(kind, "blk.f", c // 2, 2 if kind == "mbconv" else None, dtype)
    g = make_block(kind, "blk.g", c // 2, 2 if kind == "mbconv" else None, dtype)
    blk = RevBlock("blk", f, g)
    gen = rng_for(0, "mb-init")
    for leaf in walk(blk):
        leaf.init_params(gen)
    return blk


def _copies(t):
    half = t.shape[1] // 2
    return t[:, :half].copy(), t[:, half:].copy()


# The coupling with every half a copy and every result a concatenation, in
# plain numpy: the oracle the view-splitting RevBlock must match bitwise.
def _copying_forward(blk, x, tape):
    x1, x2 = _copies(x)
    inner = tape if tape is not None and tape.strategy == "store-all" else None
    y1 = x1 + blk.f.forward(x2, inner)
    y = np.concatenate([y1, x2 + blk.g.forward(y1, inner)], axis=1)
    if tape is not None and inner is None:
        tape.save(blk.name, "out", blk.op, y)
    return y


def _copying_inverse(blk, y):
    y1, y2 = _copies(y)
    x2 = y2 - blk.g.forward(y1, None)
    return np.concatenate([y1 - blk.f.forward(x2, None), x2], axis=1)


def _copying_backward(blk, dy, tape):
    dy1, dy2 = _copies(dy)
    if tape.strategy == "store-all":
        dy1_total = dy1 + blk.g.backward(dy2, tape)
        return np.concatenate([dy1_total, dy2 + blk.f.backward(dy1_total, tape)], axis=1)
    y1, y2 = _copies(tape.take(blk.name, "out"))
    scratch = Tape()
    x2 = y2 - blk.g.forward(y1, scratch)
    dy1_total = dy1 + blk.g.backward(dy2, scratch)
    blk.f.forward(x2, scratch)
    return np.concatenate([dy1_total, dy2 + blk.f.backward(dy1_total, scratch)], axis=1)


class TestMemoryLedger:
    def test_register_and_peak(self):
        led = MemoryLedger()
        a = np.zeros((1, 2, 2, 2, 2))
        b = np.zeros((1, 1, 2, 2, 2))
        led.register("n1", "input", "op", a)
        led.register("n2", "input", "op", b)
        assert led.retained_elements == a.size + b.size
        led.release("n1", "input")
        assert led.retained_elements == b.size
        assert led.peak_elements == a.size + b.size  # peak survives release

    def test_same_array_under_two_keys_counts_twice(self):
        # the estimate lists one row per (node, reason), so the ledger does too
        led = MemoryLedger()
        a = np.zeros(10)
        led.register("n1", "input", "op", a)
        led.register("n2", "input", "op", a)
        assert led.retained_elements == 20
        assert led.element_map() == {("n1", "input"): 10, ("n2", "input"): 10}

    def test_duplicate_key_is_hard_error(self):
        led = MemoryLedger()
        led.register("n1", "input", "op", np.zeros(3))
        with pytest.raises(EngineError):
            led.register("n1", "input", "op", np.zeros(4))

    def test_release_unknown_is_noop(self):
        led = MemoryLedger()
        led.release("ghost", "input")
        assert led.retained_elements == 0

    def test_report_document(self):
        led = MemoryLedger()
        arr = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        led.register("n1", "input", "pointwise", arr)
        doc = led.report()
        assert doc["schema_version"] == 1
        assert doc["entries"] == [{"node": "n1", "reason": "input", "op": "pointwise",
                                   "elements": 8, "bytes": 32}]
        assert doc["retained_elements"] == 8
        assert doc["peak_elements"] == 8

    def test_bytes_track_dtype(self):
        led = MemoryLedger()
        led.register("a", "input", "op", np.zeros(4, dtype=np.float32))
        led.register("b", "input", "op", np.zeros(4, dtype=np.float64))
        assert led.retained_bytes == 4 * 4 + 4 * 8


class TestTape:
    def test_save_take_releases_ledger(self):
        led = MemoryLedger()
        tape = Tape(led)
        arr = np.zeros(5)
        tape.save("n", "input", "op", arr)
        assert led.retained_elements == 5
        assert tape.take("n", "input") is arr
        assert led.retained_elements == 0

    def test_ledgerless_tape(self):
        tape = Tape(None)
        tape.save("n", "input", "op", np.zeros(5))
        assert tape.take("n", "input").size == 5


class TestRevBlock:
    def test_zero_coupling_identity(self):
        blk = RevBlock("blk", _Zero("f"), _Zero("g"))
        x = _x((1, 4, 3, 3, 3))
        tape = Tape(None)
        y = blk.forward(x, tape)
        assert np.array_equal(y, x)
        assert np.array_equal(blk.inverse(y), x)
        dy = _x((1, 4, 3, 3, 3), seed=1)
        assert np.array_equal(blk.backward(dy, tape), dy)

    def test_identity_coupling_hand_values(self):
        blk = RevBlock("blk", _Identity("f"), _Identity("g"))
        x = np.concatenate([np.full((1, 1, 1, 1, 1), 1.0),
                            np.full((1, 1, 1, 1, 1), 2.0)], axis=1)
        tape = Tape(None)
        y = blk.forward(x, tape)
        assert y[0, 0, 0, 0, 0] == 3.0  # y1 = x1 + F(x2) = 1 + 2
        assert y[0, 1, 0, 0, 0] == 5.0  # y2 = x2 + G(y1) = 2 + 3
        back = blk.inverse(y)
        assert back[0, 1, 0, 0, 0] == 2.0  # x2 = y2 - G(y1) = 5 - 3
        assert back[0, 0, 0, 0, 0] == 1.0  # x1 = y1 - F(x2) = 3 - 2
        a, b = 5.0, 7.0
        dy = np.concatenate([np.full((1, 1, 1, 1, 1), a),
                             np.full((1, 1, 1, 1, 1), b)], axis=1)
        dx = blk.backward(dy, tape)
        assert dx[0, 0, 0, 0, 0] == a + b        # dy1 + pass-through of dy2
        assert dx[0, 1, 0, 0, 0] == a + 2 * b    # dy2 + pass-through of dy1_total

    def test_odd_channels_rejected(self):
        blk = RevBlock("blk", _Zero("f"), _Zero("g"))
        with pytest.raises(ValueError):
            blk.forward(np.zeros((1, 3, 2, 2, 2)), Tape(None))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build(verify.TOY2, seed=0, strategy="magic")

    def test_unknown_strategy_rejected_on_assignment(self):
        model = build(verify.TOY2, seed=0)
        with pytest.raises(ValueError):
            model.strategy = "magic"
        assert model.strategy == "reversible"

    def test_ledger_diff_between_strategies(self):
        x = _x((1, 8, 4, 4, 4))

        led_rev = MemoryLedger()
        blk = _rev("mbconv", 8, np.float64)
        y = blk.forward(x, Tape(led_rev))
        # only the block output is retained; nothing from inside F or G
        assert set(led_rev.element_map()) == {("blk", "out")}
        assert led_rev.retained_elements == y.size

        led_all = MemoryLedger()
        tape = Tape(led_all)
        tape.strategy = "store-all"
        blk.forward(x, tape)
        keys = set(led_all.element_map())
        assert ("blk", "out") not in keys
        assert ("blk.f.expand", "input") in keys
        assert ("blk.f.dw", "input") in keys
        assert ("blk.g.gn1", "xhat") in keys
        assert led_all.retained_elements > led_rev.retained_elements

    @pytest.mark.parametrize("strategy, shares", [(None, True), ("reversible", True),
                                                  ("store-all", False)])
    def test_f_reads_a_view_unless_a_tape_saves_it(self, strategy, shares):
        # a half-view saved on a tape would pin the whole input under a half-size entry
        blk = _rev("mbconv", 8, np.float64)
        blk.f = _Spy(blk.f)
        tape = None
        if strategy is not None:
            tape = Tape(MemoryLedger())
            tape.strategy = strategy
        x = _x((1, 8, 4, 4, 4))
        blk.forward(x, tape)
        assert np.shares_memory(blk.f.inputs[0], x) == shares

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_backward_reads_views_and_writes_one_array(self, strategy):
        blk = _rev("mbconv", 8, np.float64)
        blk.g = _Spy(blk.g)
        tape = Tape(MemoryLedger())
        tape.strategy = strategy
        y = blk.forward(_x((1, 8, 4, 4, 4)), tape)
        dy = _x((1, 8, 4, 4, 4), seed=1)
        dx = blk.backward(dy, tape)
        assert np.shares_memory(blk.g.dys[0], dy)
        assert not np.shares_memory(dx, dy) and not np.shares_memory(dx, y)

    # in block-input activations, measured with numpy 2.4: mbconv 7.51,
    # standard 3.14. A fused GN -> ReLU backward that masks dy into a new
    # array, not into the rebuilt ReLU input, reads 7.79 and 3.16; unfused
    # nodes, each ReLU saving its input, read 9.01 and 3.51
    REV_BACKWARD_PEAK_ACTIVATIONS = {"mbconv": 7.76, "standard": 3.39}

    @pytest.mark.parametrize("kind", ["mbconv", "standard"])
    def test_reversible_backward_peak(self, kind):
        blk = _rev(kind, 8, np.float32)
        x = _x((1, 8, 32, 32, 32), dtype=np.float32)
        tape = Tape(MemoryLedger())
        blk.forward(x, tape)
        dy = _x(x.shape, seed=1, dtype=np.float32)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            blk.backward(dy, tape)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= self.REV_BACKWARD_PEAK_ACTIVATIONS[kind] * x.nbytes, peak / x.nbytes

    @pytest.mark.parametrize("kind", ["mbconv", "standard"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_views_match_the_copying_path_bitwise(self, kind, strategy, n):
        # with n = 2 a channel half is not contiguous
        x = _x((n, 8, 4, 4, 4), dtype=np.float32)
        dy = _x((n, 8, 4, 4, 4), seed=1, dtype=np.float32)

        def run(forward, inverse, backward):
            blk = _rev(kind, 8, np.float32)
            tape = Tape(MemoryLedger())
            tape.strategy = strategy
            y = forward(blk, x, tape)
            out = [y, forward(blk, x, None), inverse(blk, y), backward(blk, dy, tape)]
            return out + [leaf.grads[attr] for leaf in walk(blk) for attr in leaf.grads]

        views = run(RevBlock.forward, RevBlock.inverse, RevBlock.backward)
        copies = run(_copying_forward, _copying_inverse, _copying_backward)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(views, copies))

    def test_roundtrip_with_random_mbconv(self):
        blk = _rev("mbconv", 8, np.float64)
        x = _x((1, 8, 4, 4, 4))
        y = blk.forward(x, None)
        assert np.abs(blk.inverse(y) - x).max() <= 1e-12

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_version_drift_guard(self, strategy):
        model = build("mbconv-base-toy", seed=0, precision="double",
                      strategy=strategy)
        x = _x((1, 4, 16, 16, 16))
        tape = Tape(None)
        model.forward(x, tape)
        model.bump_version()  # optimizer stepped between forward and backward
        model.zero_grads()
        with pytest.raises(EngineError):
            model.backward(_x((1, 4, 16, 16, 16), seed=1), tape)

    def test_dropped_model_is_freed_without_cycle_collection(self):
        # the version counter is a plain int on the model; no node refers back to it
        gc.disable()
        try:
            model = build("mbconv-base-toy", seed=0, precision="double")
            model.bump_version()
            assert model.param_version == 1
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()


class TestAccounting:
    def test_single_pointwise_retains_its_input(self):
        node = Conv("pw", 3, 2, 1, np.float64, bias=True)
        led = MemoryLedger()
        x = _x((1, 3, 4, 4, 4))
        node.forward(x, Tape(led))
        assert led.retained_elements == x.size

    def test_depthwise_conv_refuses_bias(self):
        with pytest.raises(ValueError):
            Conv("dw", 4, 4, 3, np.float64, depthwise=True, bias=True)

    def test_two_block_chain_peak_subadditive(self):
        a = Conv("a", 2, 2, 1, np.float64, bias=True)
        b = Conv("b", 2, 2, 1, np.float64, bias=True)
        x = _x((1, 2, 4, 4, 4))

        led_a, led_b = MemoryLedger(), MemoryLedger()
        ya = a.forward(x, Tape(led_a))
        b.forward(ya, Tape(led_b))

        led_chain = MemoryLedger()
        Sequential("chain", [a, b]).forward(x, Tape(led_chain))
        assert led_chain.peak_elements <= led_a.peak_elements + led_b.peak_elements

    def test_reversible_strictly_smaller_for_every_toy_preset(self):
        for preset in verify.TOY_PRESETS:
            counts = {}
            for strategy in ("reversible", "store-all"):
                model = build(preset, seed=0, precision="double", strategy=strategy)
                led = MemoryLedger()
                x = _x((1, 4, 16, 16, 16))
                model.forward(x, Tape(led))
                counts[strategy] = led.retained_elements
            assert counts["reversible"] < counts["store-all"], preset


class TestGroupNormReLU:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_node_equals_the_unfused_composition_bitwise(self, dtype):
        gen = rng_for(0, "gn-relu")
        c = 20
        gs = ops.group_size_for(c)
        x = gen.standard_normal((2, c, 3, 4, 5)).astype(dtype)
        gamma = gen.standard_normal(c).astype(dtype)
        beta = gen.standard_normal(c).astype(dtype)
        # xhat does not depend on beta: choose beta on half the channels so
        # that one pre-activation there is exactly 0, and give it a negative dy
        xhat = ops.group_norm(x, gamma, beta, gs, True)[1]
        zeros = (0, slice(0, c, 2), 1, 2, 3)
        beta[zeros[1]] = -(gamma[zeros[1]] * xhat[zeros])
        dy = gen.standard_normal(x.shape).astype(dtype)
        dy[zeros] = -np.abs(dy[zeros])

        out, xhat, rstd = ops.group_norm(x, gamma, beta, gs, True)
        y = ops.relu(out)
        dpre = ops.relu_bwd(out, dy)
        dx, dgamma, dbeta = ops.group_norm_bwd(xhat, rstd, gamma, dpre)
        assert np.all(out[zeros] == 0)
        assert np.all(np.signbit(dpre[zeros]) & (dpre[zeros] == 0))

        node = GroupNorm("n", c, dtype, relu=True)
        node.gamma[...] = gamma
        node.beta[...] = beta
        tape = Tape(MemoryLedger())
        fused_y = node.forward(x, tape)
        assert tape.ledger.element_map() == {("n", "xhat"): x.size, ("n", "rstd"): rstd.size}
        assert {e["op"] for e in tape.ledger.report()["entries"]} == {"groupnorm"}
        held = dy.copy()
        fused_dx = node.backward(dy, tape)
        assert dy.tobytes() == held.tobytes()  # the incoming gradient is left as it was
        for got, want in ((fused_y, y), (node.forward(x, None), y), (fused_dx, dx),
                          (node.grads["gamma"], 0 + dgamma), (node.grads["beta"], 0 + dbeta)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRoundtrip:
    def test_double_all_toy_presets(self):
        assert verify.ROUNDTRIP_TOL["double"] == 1e-10
        for preset in verify.TOY_PRESETS:
            check = verify.roundtrip_suite(preset, seeds=range(5), precision="double")
            assert check["pass"] and check["tol"] == 1e-10, check

    def test_single_tolerance_frozen(self):
        assert verify.ROUNDTRIP_TOL["single"] == 1e-5
        for preset in verify.TOY_PRESETS:
            check = verify.roundtrip_suite(preset, seeds=range(5), precision="single")
            assert check["pass"] and check["tol"] == 1e-5, check


class TestGradients:
    def test_strategy_equivalence(self):
        for check in verify.strategy_equivalence_suite(0):
            assert check["pass"], check

    @pytest.mark.parametrize("fwd,bwd", [("reversible", "store-all"),
                                         ("store-all", "reversible")])
    def test_strategy_switch_between_forward_and_backward(self, fwd, bwd):
        # backward follows the strategy the tape was filled under
        x, dlogits = _x((1, 4, 8, 8, 8), seed=4), _x((1, 4, 8, 8, 8), seed=5)

        def run(switch):
            model = build(verify.TOY2, seed=3, precision="double", strategy=fwd)
            led = MemoryLedger()
            tape = Tape(led)
            model.forward(x, tape)
            assert tape.strategy == fwd
            if switch:
                model.strategy = bwd
            model.zero_grads()
            dx = model.backward(dlogits, tape)
            assert led.retained_elements == 0
            return [dx] + [leaf.grads[attr] for _, leaf, attr, _ in model.parameters()]

        assert all(np.array_equal(a, b) for a, b in zip(run(False), run(True)))

    def test_strategy_assigned_after_construction_trains(self):
        # two Adam steps under store-all, chosen at build time or assigned later
        x, dlogits = _x((1, 4, 8, 8, 8), seed=4), _x((1, 4, 8, 8, 8), seed=5)

        def run(assign):
            model = build(verify.TOY2, seed=3, precision="double",
                          strategy="reversible" if assign else "store-all")
            if assign:
                model.strategy = "store-all"
            opt = Adam(model)
            for _ in range(2):
                led = MemoryLedger()
                tape = Tape(led)
                model.forward(x, tape)
                # store-all keeps F's and G's contexts, never a rev block output
                assert not any(kind == "out" for _, kind in led.element_map())
                model.zero_grads()
                model.backward(dlogits, tape)
                opt.step(1e-3)
            return [arr for _, _, _, arr in model.parameters()]

        assert all(np.array_equal(a, b) for a, b in zip(run(False), run(True)))

    def test_rerun_bitwise_identical_gradients(self):
        def run():
            model = build(verify.TOY2, seed=3, precision="double",
                          strategy="reversible")
            x = _x((1, 4, 8, 8, 8), seed=4)
            tape = Tape(None)
            model.forward(x, tape)
            model.zero_grads()
            model.backward(_x((1, 4, 8, 8, 8), seed=5), tape)
            return {name: leaf.grads[attr].copy()
                    for name, leaf, attr, _ in model.parameters()}

        g1, g2 = run(), run()
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)
