"""Loss, metrics, optimizer, learning-rate schedule, and the training loop.

The loss is soft Dice over softmax probabilities with smoothing 1, with a
hand-derived gradient. The optimizer is bias-corrected Adam. Both are
stated assumptions: the published procedure names only the learning-rate
schedule (1e-4, divided by 5 at epochs 250 and 400, 500 epochs total).
"""

import dataclasses
import json

import numpy as np

from .engine import MemoryLedger, Tape
from .phantoms import Phantom, augment, sample_augment_params
from .rng import rng_for
from .unet import build


class TrainingError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class LrSchedule:
    base_lr: float = 1e-4
    drop_factor: float = 5.0
    drop_epochs: tuple = (250, 400)
    total_epochs: int = 500


def lr_at(schedule, epoch):
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError("epoch %d outside [0, %d)" % (epoch, schedule.total_epochs))
    lr = schedule.base_lr
    for drop in schedule.drop_epochs:
        if epoch >= drop:
            lr /= schedule.drop_factor
    return lr


def softmax_channels(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_dice_loss(logits, labels, smoothing=1.0):
    """Mean soft Dice complement over classes; returns (loss, dlogits).

    labels: integer class map (n, d, h, w). Per class c with probabilities
    p_c and indicator y_c: dice_c = (2*sum(p_c*y_c)+s) / (sum p_c + sum y_c + s),
    loss = 1 - mean_c dice_c.
    """
    n, k = logits.shape[:2]
    if labels.shape != (n,) + logits.shape[2:]:
        raise ValueError("labels shape %r does not match logits %r"
                         % (labels.shape, logits.shape))
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels outside [0, %d)" % k)
    p = softmax_channels(logits)
    dp = np.zeros_like(p)
    loss = 1.0
    for c in range(k):
        y = (labels == c).astype(logits.dtype)[:, None]
        pc = p[:, c:c + 1]
        inter = float((pc * y).sum())
        denom = float(pc.sum()) + float(y.sum()) + smoothing
        dice = (2.0 * inter + smoothing) / denom
        loss -= dice / k
        # d(loss)/d(p_c) from the quotient rule, folded around the dice value
        dp[:, c:c + 1] = -(2.0 * y - logits.dtype.type(dice)) / logits.dtype.type(denom * k)
    # softmax VJP
    dlogits = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    return float(loss), dlogits


def dice_score(pred_labels, true_labels, cls):
    """Hard-label overlap 2|A&B|/(|A|+|B|); 1.0 when both masks are empty."""
    a = pred_labels == cls
    b = true_labels == cls
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def per_class_dice(pred_labels, true_labels, num_classes):
    return [dice_score(pred_labels, true_labels, c) for c in range(num_classes)]


class Adam:
    def __init__(self, model, beta1=0.9, beta2=0.999, eps=1e-8):
        self.model = model
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.moments = {name: (np.zeros_like(arr), np.zeros_like(arr))
                        for name, _, _, arr in model.parameters()}

    def step(self, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, leaf, attr, arr in self.model.parameters():
            g = leaf.grads[attr]
            if not np.all(np.isfinite(g)):
                raise TrainingError("non-finite gradient in %s at step %d" % (name, self.t))
            m, v = self.moments[name]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            arr -= lr * mhat / (np.sqrt(vhat) + self.eps)
        self.model.bump_version()


def evaluate(model, pairs):
    """Per-class Dice averaged over (volume, labels) pairs, no augmentation."""
    k = model.config.num_classes
    sums = np.zeros(k)
    for vol, lab in pairs:
        logits = model.forward(vol.astype(model.dtype), None)
        pred = np.argmax(logits[0], axis=0)
        sums += per_class_dice(pred, lab, k)
    per_class = (sums / max(len(pairs), 1)).tolist()
    return per_class


def train(config, data, *, seed, holdout=(), epochs=None, steps=None,
          precision="single", strategy="reversible", schedule=None,
          augment_data=True, metrics_path=None):
    """Batch-size-1 training loop; returns (model, metrics records).

    data / holdout: lists of (volume (1,c,d,h,w), labels (d,h,w)) pairs.
    Stops after `epochs` epochs or `steps` optimizer steps, whichever
    comes first. Fully reproducible from (config, data, seed).
    """
    if not data:
        raise ValueError("no training data")
    if epochs is None and steps is None:
        raise ValueError("give epochs and/or steps")
    if (steps is not None and steps < 1) or (epochs is not None and epochs < 0):
        raise ValueError("need steps >= 1 and epochs >= 0, got %r and %r" % (steps, epochs))
    schedule = schedule or LrSchedule()
    if not 0 < schedule.base_lr < np.inf:
        raise ValueError("base_lr must be positive and finite, got %r" % (schedule.base_lr,))
    if epochs is not None and epochs > schedule.total_epochs:
        raise ValueError("epochs %d exceed the schedule's total %d"
                         % (epochs, schedule.total_epochs))
    model = build(config, seed, precision, strategy)
    opt = Adam(model)
    records = []

    def emit_eval(epoch, step):
        per_class = evaluate(model, holdout)
        records.append({"schema_version": 1, "kind": "eval", "epoch": epoch, "step": step,
                        "dice": per_class, "mean_dice": sum(per_class) / len(per_class)})

    if holdout:
        emit_eval(0, 0)

    step = 0
    epoch = 0
    max_epochs = epochs if epochs is not None else schedule.total_epochs
    done = False
    while epoch < max_epochs and not done:
        order = rng_for(seed, "order", epoch).permutation(len(data))
        for idx in order:
            vol, lab = data[int(idx)]
            if augment_data:
                params = sample_augment_params(rng_for(seed, "aug", epoch, int(idx)))
                warp_seed = int(rng_for(seed, "elastic-seed", epoch, int(idx)).integers(2 ** 31))
                warped = augment(Phantom(vol, lab), params, warp_seed)
                vol, lab = warped.volume, warped.labels
            lr = lr_at(schedule, epoch)
            ledger = MemoryLedger()
            tape = Tape(ledger)
            logits = model.forward(vol.astype(model.dtype), tape)
            loss, dlogits = soft_dice_loss(logits, lab[None])
            model.zero_grads()
            model.backward(dlogits, tape)
            opt.step(lr)
            step += 1
            records.append({"schema_version": 1, "kind": "step", "epoch": epoch, "step": step,
                            "loss": loss, "lr": lr, "peak_ledger_bytes": int(ledger.peak_bytes)})
            if steps is not None and step >= steps:
                done = True
                break
        if holdout and not done:
            emit_eval(epoch, step)
        epoch += 1

    if holdout and records[-1]["kind"] != "eval":
        emit_eval(max(epoch - 1, 0), step)
    # wall-clock timing deliberately stays out of the metrics log so that
    # identical runs produce byte-identical files
    records.append({"schema_version": 1, "kind": "summary", "steps": step, "epochs": epoch})

    if metrics_path is not None:
        with open(metrics_path, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    return model, records
