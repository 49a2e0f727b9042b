"""Loss, metrics, optimizer, learning-rate schedule, and the training loop.

The loss is soft Dice over softmax probabilities, with a hand-derived
gradient; the optimizer is bias-corrected Adam. Both are stated
assumptions: the published procedure names only the learning-rate schedule
(1e-4, divided by 5 at epochs 250 and 400, 500 epochs total), which is
fixed here; train(base_lr=...) sets only its base rate.
"""

import json

import numpy as np

from .engine import MemoryLedger, Tape
from .phantoms import Phantom, augment, sample_augment_params
from .rng import rng_for
from .unet import build

BASE_LR = 1e-4
DROP_FACTOR = 5.0
DROP_EPOCHS = (250, 400)
TOTAL_EPOCHS = 500
DICE_SMOOTHING = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    pass


def lr_at(epoch, base_lr=BASE_LR):
    if not 0 <= epoch < TOTAL_EPOCHS:
        raise ValueError("epoch %d outside [0, %d)" % (epoch, TOTAL_EPOCHS))
    lr = base_lr
    for drop in DROP_EPOCHS:
        if epoch >= drop:
            lr /= DROP_FACTOR
    return lr


def softmax_channels(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def soft_dice_loss(logits, labels):
    """Mean soft Dice complement over classes; returns (loss, dlogits).

    labels: integer class map (n, d, h, w). Per class c with probabilities
    p_c and indicator y_c: dice_c = (2*sum(p_c*y_c)+s) / (sum p_c + sum y_c + s)
    with s = DICE_SMOOTHING, loss = 1 - mean_c dice_c.
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
        denom = float(pc.sum()) + float(y.sum()) + DICE_SMOOTHING
        dice = (2.0 * inter + DICE_SMOOTHING) / denom
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


def class_labels(logits):
    """``np.argmax(logits, axis=1)``, bytes and dtype included, by a pairwise compare chain.

    Classes are taken in order against the running maximum: a later class
    wins only where the maximum changes value (NaN differs from
    everything) and the earlier maximum is not NaN. So ties, signed zeros
    included, keep the first class, and the first NaN wins as in
    np.argmax. A few elementwise passes per class beat argmax's reduction
    over a short axis strided by the whole grid.
    """
    best = logits[:, 0]
    classes = logits.shape[1]
    code = np.zeros(best.shape, dtype=np.min_scalar_type(classes - 1))
    for c in range(1, classes):
        top = np.maximum(logits[:, c], best)
        won = top != best
        won &= best == best
        # classes come in increasing order, so c tops any earlier code
        np.maximum(code, won.view(np.uint8) * code.dtype.type(c), out=code)
        best = top
    return code.astype(np.intp)


class Adam:
    def __init__(self, model):
        self.model = model
        self.t = 0
        self.moments = {name: (np.zeros_like(arr), np.zeros_like(arr))
                        for name, _, _, arr in model.parameters()}

    def step(self, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, leaf, attr, arr in self.model.parameters():
            g = leaf.grads[attr]
            if not np.all(np.isfinite(g)):
                raise TrainingError("non-finite gradient in %s at step %d" % (name, self.t))
            m, v = self.moments[name]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            arr -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        self.model.bump_version()


def evaluate(model, pairs):
    """Per-class Dice averaged over (volume, labels) pairs, no augmentation."""
    k = model.config.num_classes
    sums = np.zeros(k)
    for vol, lab in pairs:
        logits = model.forward(vol.astype(model.dtype), None)
        sums += per_class_dice(class_labels(logits)[0], lab, k)
    per_class = (sums / max(len(pairs), 1)).tolist()
    return per_class


def train(config, data, *, seed, holdout=(), epochs=None, steps=None,
          precision="single", strategy="reversible", base_lr=BASE_LR,
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
    if not 0 < base_lr < np.inf:
        raise ValueError("base_lr must be positive and finite, got %r" % (base_lr,))
    if epochs is not None and epochs > TOTAL_EPOCHS:
        raise ValueError("epochs %d exceed the schedule's total %d" % (epochs, TOTAL_EPOCHS))
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
    max_epochs = epochs if epochs is not None else TOTAL_EPOCHS
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
            lr = lr_at(epoch, base_lr)
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
