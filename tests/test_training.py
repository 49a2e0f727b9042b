"""Schedule, loss, metric, optimizer, and the deterministic training loop."""

import json

import numpy as np
import pytest

from helpers import finite_difference_grad
from revunet import memplan
from revunet.phantoms import make_phantom
from revunet.rng import rng_for
from revunet.training import (
    ADAM_EPS,
    BASE_LR,
    DROP_EPOCHS,
    DROP_FACTOR,
    TOTAL_EPOCHS,
    Adam,
    TrainingError,
    class_labels,
    dice_score,
    evaluate,
    lr_at,
    per_class_dice,
    soft_dice_loss,
    softmax_channels,
    train,
)
from revunet.unet import UNetConfig, build

TOY = UNetConfig(widths=(4, 8), image_size=(16, 16, 16),
                 block_kind="mbconv", expand_ratio=2)


def _pairs(n, size=16, base_seed=100):
    return [(p.volume, p.labels)
            for p in (make_phantom(base_seed + i, (size,) * 3) for i in range(n))]


class TestSchedule:
    def test_published_values(self):
        assert (BASE_LR, DROP_FACTOR, DROP_EPOCHS, TOTAL_EPOCHS) == (1e-4, 5.0, (250, 400), 500)
        assert lr_at(0) == 1e-4
        assert lr_at(249) == 1e-4
        assert lr_at(250) == 2e-5
        assert lr_at(399) == 2e-5
        # two successive float divisions land one ulp off the literal 4e-6
        assert lr_at(400) == pytest.approx(4e-6, rel=1e-14)
        assert lr_at(499) == pytest.approx(4e-6, rel=1e-14)

    def test_non_increasing(self):
        rates = [lr_at(e) for e in range(500)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(-1)
        with pytest.raises(ValueError):
            lr_at(500)

    def test_base_override_scales(self):
        assert lr_at(0, 3e-3) == 3e-3
        assert lr_at(250, 3e-3) == 3e-3 / 5


class TestSoftDiceLoss:
    def test_uniform_logits_closed_form(self):
        # uniform logits => p = 0.5 everywhere; 2 classes, balanced 2^3 labels:
        # per-class smoothed dice = (2*0.5*4 + 1) / (0.5*8 + 4 + 1) = 5/9
        logits = np.zeros((1, 2, 2, 2, 2))
        labels = np.zeros((1, 2, 2, 2), dtype=np.int64)
        labels[0, 1] = 1  # 4 voxels of each class
        loss, _ = soft_dice_loss(logits, labels)
        assert abs(loss - (1.0 - 5.0 / 9.0)) <= 1e-12

    def test_perfect_prediction_limit(self):
        gen = rng_for(0, "perfect")
        labels = gen.integers(0, 3, size=(1, 4, 4, 4))
        logits = np.full((1, 3, 4, 4, 4), -40.0)
        for c in range(3):
            logits[0, c][labels[0] == c] = 40.0
        loss, _ = soft_dice_loss(logits, labels)
        assert 0.0 <= loss <= 1e-3

    def test_loss_bounds(self):
        gen = rng_for(0, "bounds")
        logits = gen.standard_normal((1, 4, 4, 4, 4))
        labels = gen.integers(0, 4, size=(1, 4, 4, 4))
        loss, _ = soft_dice_loss(logits, labels)
        assert 0.0 <= loss <= 1.0 + 1e-9

    def test_gradient_matches_finite_differences(self):
        from revunet import verify
        gen = rng_for(0, "fd-loss")
        logits = gen.standard_normal((1, 3, 3, 3, 3))
        labels = gen.integers(0, 3, size=(1, 3, 3, 3))
        _, dlogits = soft_dice_loss(logits, labels)
        fd = finite_difference_grad(
            lambda a: soft_dice_loss(a, labels)[0], logits)
        assert verify._rel(dlogits, fd) <= 1e-6

    def test_label_out_of_range(self):
        logits = np.zeros((1, 2, 2, 2, 2))
        labels = np.full((1, 2, 2, 2), 2, dtype=np.int64)
        with pytest.raises(ValueError):
            soft_dice_loss(logits, labels)

    def test_softmax_rows_sum_to_one(self):
        gen = rng_for(0, "sm")
        p = softmax_channels(gen.standard_normal((1, 5, 2, 2, 2)) * 30)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert p.min() >= 0


class TestDiceScore:
    def test_hand_counts(self):
        a = np.zeros(8, dtype=np.int64)
        b = np.zeros(8, dtype=np.int64)
        assert dice_score(a, b, 0) == 1.0          # identical masks
        assert dice_score(a, np.ones(8), 0) == 0.0  # disjoint masks
        pred = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        true = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        assert dice_score(pred, true, 1) == 0.5    # |A|=|B|=4, 2 overlap
        assert dice_score(pred, true, 2) == 1.0    # both empty

    def test_per_class_vector(self):
        pred = np.array([0, 1, 2])
        true = np.array([0, 1, 1])
        assert per_class_dice(pred, true, 3) == [1.0, 2 / 3, 0.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_class_labels_equal_argmax_bytes(dtype):
    gen = np.random.default_rng(7)
    shape = (2, 4, 5, 6, 7)
    cases = {"random": gen.standard_normal(shape),
             # few distinct values: ties between any classes, first ones included
             "tied": gen.integers(-1, 2, shape).astype(float),
             "signed zeros": np.where(gen.random(shape) < 0.5, -0.0, 0.0),
             "all equal": np.ones(shape)}
    nan = gen.standard_normal(shape)
    nan[gen.random(shape) < 0.3] = np.nan
    cases["nan"] = nan
    # two NaNs with other payloads, and a NaN after the maximum: the first NaN wins
    payloads = np.zeros(shape)
    payloads[:, 1] = np.float64(np.nan)
    payloads[:, 2] = -np.float64(np.nan)
    payloads[:, 3] = np.inf
    cases["nan payloads"] = payloads
    mixed = np.zeros(shape)
    mixed[:, 0], mixed[:, 1], mixed[:, 2], mixed[:, 3] = -np.inf, 3.0, np.nan, 3.0
    cases["nan after max"] = mixed
    for name, logits in cases.items():
        logits = logits.astype(dtype)
        labels = class_labels(logits)
        expected = np.argmax(logits, axis=1)
        assert labels.dtype == expected.dtype, name
        assert labels.tobytes() == expected.tobytes(), name
    # a strided input and more classes than fit in four bits
    wide = gen.standard_normal((1, 40, 3, 4, 5)).astype(dtype)[:, ::2]
    assert class_labels(wide).tobytes() == np.argmax(wide, axis=1).tobytes()


class TestAdam:
    def test_zero_grads_leave_params(self):
        model = build(TOY, seed=0)
        before = {n: a.copy() for n, _, _, a in model.parameters()}
        opt = Adam(model)
        model.zero_grads()
        opt.step(lr=1e-3)
        assert all(np.array_equal(before[n], a) for n, _, _, a in model.parameters())

    def test_zero_lr_leaves_params(self):
        model = build(TOY, seed=0)
        before = {n: a.copy() for n, _, _, a in model.parameters()}
        opt = Adam(model)
        for _, leaf, attr, _ in model.parameters():
            leaf.grads[attr][...] = 1.0
        opt.step(lr=0.0)
        assert all(np.array_equal(before[n], a) for n, _, _, a in model.parameters())

    def test_first_step_scalar_reference(self):
        # with constant grad g: mhat = g, vhat = g^2, step = -lr*g/(|g|+eps)
        model = build(TOY, seed=0)
        before = {n: a.copy() for n, _, _, a in model.parameters()}
        g, lr = 0.25, 1e-2
        opt = Adam(model)
        for _, leaf, attr, _ in model.parameters():
            leaf.grads[attr][...] = g
        opt.step(lr=lr)
        assert ADAM_EPS == 1e-8
        expect = -lr * g / (abs(g) + 1e-8)
        for n, _, _, a in model.parameters():
            delta = a - before[n]
            assert np.allclose(delta, expect, rtol=1e-10, atol=1e-15), n

    def test_step_bumps_model_version(self):
        model = build(TOY, seed=0)
        opt = Adam(model)
        model.zero_grads()
        v0 = model.param_version
        opt.step(lr=1e-3)
        assert model.param_version == v0 + 1

    def test_nonfinite_grad_halts(self):
        model = build(TOY, seed=0)
        opt = Adam(model)
        model.zero_grads()
        first = next(iter(model.parameters()))
        first[1].grads[first[2]][...] = np.nan
        with pytest.raises(TrainingError):
            opt.step(lr=1e-3)


class TestTrainLoop:
    def test_epochs_zero_returns_initialized_model(self):
        pairs = _pairs(2)
        model, records = train(TOY, pairs, seed=9, epochs=0)
        fresh = build(TOY, seed=9, precision="single")
        for (_, _, _, a), (_, _, _, b) in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(a, b)
        # no holdout, no steps taken: the log is just the summary line
        assert [r["kind"] for r in records] == ["summary"]
        assert records[0]["steps"] == 0

    def test_two_runs_bitwise_identical(self, tmp_path):
        pairs = _pairs(3)
        out = []
        for run in range(2):
            path = tmp_path / ("m%d.jsonl" % run)
            model, records = train(TOY, pairs[:2], seed=4, holdout=pairs[2:],
                                   steps=4, base_lr=1e-3,
                                   metrics_path=path)
            out.append((model, records, path.read_bytes()))
        assert out[0][1] == out[1][1]
        assert out[0][2] == out[1][2]  # metrics file is byte-identical
        for (_, _, _, a), (_, _, _, b) in zip(out[0][0].parameters(),
                                              out[1][0].parameters()):
            assert np.array_equal(a, b)

    def test_metrics_file_contents(self, tmp_path):
        pairs = _pairs(2)
        path = tmp_path / "metrics.jsonl"
        _, records = train(TOY, pairs[:1], seed=0, holdout=pairs[1:],
                           steps=2, base_lr=1e-3,
                           metrics_path=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == records
        steps = [r for r in lines if r["kind"] == "step"]
        evals = [r for r in lines if r["kind"] == "eval"]
        assert {"epoch", "step", "loss", "lr", "peak_ledger_bytes"} <= set(steps[0])
        assert {"epoch", "step", "dice", "mean_dice"} <= set(evals[0])
        assert len(evals[0]["dice"]) == TOY.num_classes

    def test_step_ledger_peak_matches_estimate(self):
        pairs = _pairs(1)
        for strategy in ("reversible", "store-all"):
            _, records = train(TOY, pairs, seed=0, steps=1, strategy=strategy,
                               base_lr=1e-3)
            step = next(r for r in records if r["kind"] == "step")
            est = memplan.estimate(TOY, strategy, "single")
            assert step["peak_ledger_bytes"] == est["peak_bytes"]

    def test_loss_decreases_on_fixed_sample(self):
        pairs = _pairs(2)
        _, records = train(TOY, pairs, seed=0, steps=20, augment_data=False,
                           base_lr=3e-3)
        losses = [r["loss"] for r in records if r["kind"] == "step"]
        assert losses[-1] < losses[0]

    def test_validation_errors(self):
        pairs = _pairs(1)
        with pytest.raises(ValueError):
            train(TOY, [], seed=0, steps=1)
        with pytest.raises(ValueError):
            train(TOY, pairs, seed=0)  # neither epochs nor steps
        with pytest.raises(ValueError):
            train(TOY, pairs, seed=0, epochs=501)  # beyond the schedule

    def test_evaluate_perfect_on_identical_labels(self):
        import types
        model = build(TOY, seed=0, precision="single")
        vol, lab = _pairs(1)[0]
        logits = np.full((1, TOY.num_classes) + lab.shape, -10.0, dtype=np.float32)
        for c in range(TOY.num_classes):
            logits[0, c][lab == c] = 10.0
        oracle = types.SimpleNamespace(config=model.config, dtype=model.dtype,
                                       forward=lambda v, t: logits)
        assert evaluate(oracle, [(vol, lab)]) == [1.0] * TOY.num_classes
