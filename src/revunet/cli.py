"""Command-line surface: gradient verification, memory planning, phantom
corpora, training, segmentation, and ensemble selection.

Every report is JSON with a schema_version field and goes to stdout;
human-readable progress goes to stderr. Exit codes: 0 success, 1
verification or numerical failure, 2 usage/config error, 141 stdout closed
by its reader (as for SIGPIPE). Commands that draw randomness require an
explicit --seed; nothing is seeded ambiently.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import memplan, phantoms, verify
from .engine import STRATEGIES, EngineError
from .tensor import DTYPES, ShapeError, tensor_read
from .training import BASE_LR, TrainingError, class_labels, per_class_dice, train
from .unet import Model, crop_to_record, pad_to_grid, resolve_config


def _finite(doc):
    """``doc`` with every NaN or infinite float replaced by None, which JSON writes as null."""
    if isinstance(doc, dict):
        return {key: _finite(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(value) for value in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def _emit(doc, out=None):
    # strict JSON: a check whose error is not finite says so by its pass: false
    text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    print(text)


def _status(msg):
    print(msg, file=sys.stderr)


def cmd_gradcheck(args):
    report = verify.gradcheck_report(args.config, args.seed, corrupt=args.corrupt_op)
    for check in report["checks"]:
        _status("%s  %-36s max_err=%.3e  tol=%.0e"
                % ("PASS" if check["pass"] else "FAIL", check["check"],
                   check["max_err"], check["tol"]))
    if not report["pass"]:
        _status("worst offender: %s" % report["worst"])
    _emit(report, args.out)
    return 0 if report["pass"] else 1


MEMPLAN_CONFIG = "mbconv-base"
MEMPLAN_STRATEGY = "reversible"


def cmd_memplan(args):
    searching = args.budget is not None or args.axis is not None
    modes = [flag for flag, given in (("--claims", args.claims), ("--budget/--axis", searching),
                                      ("--compare", args.compare)) if given]
    if len(modes) > 1:
        raise ValueError("%s cannot be combined" % " and ".join(modes))
    if args.claims and (args.config is not None or args.strategy is not None):
        raise ValueError("--claims covers every preset and strategy; "
                         "it takes no --config or --strategy")
    if args.compare and args.strategy is not None:
        raise ValueError("--compare reports both strategies; it takes no --strategy")
    if args.claims:
        report = memplan.claims_report(args.precision)
        _status("volume multiplier (family max): %.4f"
                % report["family"]["volume_multiplier_max"])
        _status("channel multiplier (family): %d..%d"
                % (report["family"]["channel_multiplier_min"],
                   report["family"]["channel_multiplier_max"]))
        _emit(report, args.out)
        return 0
    config = resolve_config(MEMPLAN_CONFIG if args.config is None else args.config)
    strategy = args.strategy or MEMPLAN_STRATEGY
    if args.budget is not None and args.axis is None:
        raise ValueError("--budget requires --axis")
    if args.axis is not None and args.budget is None:
        raise ValueError("--axis requires --budget")
    if args.budget is not None:
        budget = memplan.parse_budget(args.budget)
        found = memplan.budget_search(config, budget, args.axis,
                                      strategy=strategy, precision=args.precision)
        report = {"schema_version": 1, "budget_bytes": budget,
                  "strategy": strategy, "precision": args.precision,
                  "search": found}
        _emit(report, args.out)
        return 0
    if args.compare:
        both = {s: memplan.estimate(config, s, args.precision) for s in STRATEGIES}
        rows = [(s, both[s]["retained_bytes"]) for s in STRATEGIES]
        for s, retained in rows:
            _status("%-10s retained %d bytes" % (s, retained))
        report = {"schema_version": 1, "precision": args.precision,
                  "store_all": both["store-all"], "reversible": both["reversible"],
                  "store_over_reversible": both["store-all"]["retained_bytes"]
                  / both["reversible"]["retained_bytes"]}
        _emit(report, args.out)
        return 0
    _emit(memplan.estimate(config, strategy, args.precision), args.out)
    return 0


def cmd_phantoms(args):
    index = phantoms.write_corpus(args.out, args.count, args.size, args.seed)
    _status("wrote %d phantoms of size %s to %s"
            % (index["count"], "x".join(map(str, index["size"])), args.out))
    _emit(index)
    return 0


def cmd_train(args):
    if (args.steps is None) == (args.epochs is None):
        raise ValueError("give exactly one of --steps or --epochs")
    config = resolve_config(args.config)
    pairs, _ = phantoms.read_corpus(args.data, config.num_classes)
    if not 0 <= args.holdout < len(pairs):
        raise ValueError("holdout %d must be in [0, %d), the corpus size"
                         % (args.holdout, len(pairs)))
    split = len(pairs) - args.holdout
    train_pairs, holdout_pairs = pairs[:split], pairs[split:]
    os.makedirs(args.out, exist_ok=True)
    started = time.time()
    model, records = train(
        config, train_pairs, seed=args.seed, holdout=holdout_pairs,
        epochs=args.epochs, steps=args.steps, precision=args.precision,
        strategy=args.strategy, base_lr=args.base_lr,
        augment_data=not args.no_augment,
        metrics_path=os.path.join(args.out, "metrics.jsonl"))
    wall = time.time() - started
    model.save(os.path.join(args.out, "model"))
    evals = [r for r in records if r["kind"] == "eval"]
    steps = [r for r in records if r["kind"] == "step"]
    report = {
        "schema_version": 1,
        "config": config.to_dict(),
        "seed": args.seed,
        "precision": args.precision,
        "strategy": args.strategy,
        "train_pairs": len(train_pairs),
        "holdout_pairs": len(holdout_pairs),
        "steps": len(steps),
        "final_eval": evals[-1] if evals else None,
        "peak_ledger_bytes": max((r["peak_ledger_bytes"] for r in steps), default=0),
        "wall_seconds": wall,
        "out": args.out,
    }
    if evals:
        _status("final holdout mean dice: %.4f" % evals[-1]["mean_dice"])
    _emit(report)
    return 0


def cmd_segment(args):
    model = Model.load(args.model)
    volume = tensor_read(args.volume)
    if volume.shape[1] != model.config.in_ch:
        raise ShapeError("volume has %d channels, model expects %d"
                         % (volume.shape[1], model.config.in_ch))
    truth = None
    if args.labels:
        # checked before the model runs, so bad labels leave no output file
        truth = phantoms.read_labels(args.labels, model.config.num_classes)
        if truth.shape != volume.shape[2:]:
            raise ShapeError("reference labels %r do not match volume %r"
                             % (truth.shape, volume.shape[2:]))
    input_size = list(volume.shape[2:])
    padded, record = pad_to_grid(volume.astype(model.dtype, copy=False), model.config.levels)
    del volume   # the padded copy is all the forward reads
    padded_size = list(padded.shape[2:])
    padded = [padded]   # handed over, so the forward frees it after its first conv
    logits = crop_to_record(model.forward(padded.pop(), None), record)
    labels = class_labels(logits)[0]
    phantoms.write_labels(args.out, labels)
    report = {
        "schema_version": 1,
        "model": args.model,
        "volume": args.volume,
        "out": args.out,
        "input_size": input_size,
        "padded_size": padded_size,
        "class_voxels": [int((labels == c).sum())
                         for c in range(model.config.num_classes)],
    }
    if truth is not None:
        per_class = per_class_dice(labels, truth, model.config.num_classes)
        report["dice"] = per_class
        report["mean_dice"] = sum(per_class) / len(per_class)
        _status("mean dice vs reference: %.4f" % report["mean_dice"])
    _emit(report)
    return 0


def _numbers(v):
    """A JSON list of numbers."""
    return isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)


def cmd_ensemble_select(args):
    with open(args.stats) as f:
        stats = json.load(f)
    if not isinstance(stats, dict):
        raise ValueError("stats file must hold a JSON object")
    models = stats["models"]
    if not (isinstance(models, list) and all(isinstance(m, dict) for m in models)):
        raise ValueError("stats models must be a list of JSON objects")
    if not all(_numbers(m.get("train_dice")) for m in models):
        raise ValueError("stats models must each hold a train_dice list of numbers")
    histograms = stats["train_histograms"]
    if not (isinstance(histograms, list) and all(map(_numbers, histograms))):
        raise ValueError("stats train_histograms must be a list of lists of numbers")
    dice = np.array([m["train_dice"] for m in models], dtype=np.float64)
    volume = tensor_read(args.volume)
    scores = phantoms.ensemble_scores(dice, histograms, volume, reading=args.reading)
    chosen = phantoms.select_from_scores(scores, args.reading)
    report = {
        "schema_version": 1,
        "reading": args.reading,
        "scores": [float(s) for s in scores],
        "selected_index": int(chosen),
        "selected_name": models[chosen].get("name", str(chosen)),
    }
    _status("selected model %d (%s)" % (chosen, report["selected_name"]))
    _emit(report, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revunet",
        description="Reversible 3D U-Net micro-engine: verification, memory "
                    "planning, and desk-scale training on synthetic phantoms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, precision=None, strategy=False):
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="explicit seed; required, no ambient randomness")
        if precision is not None:
            p.add_argument("--precision", choices=tuple(DTYPES), default=precision)
        if strategy:
            p.add_argument("--strategy", choices=STRATEGIES, default="reversible")

    p = sub.add_parser("gradcheck", help="round-trip, oracle, and finite-difference suites")
    p.add_argument("--config", default="mbconv-base",
                   help="preset name or config JSON for the round-trip suite, the only "
                        "one that uses it; paper-scale presets run their toy analog")
    common(p, seed=True)
    p.add_argument("--corrupt-op", default=None,
                   help="test hook: perturb the named op's VJP to force a failure")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_gradcheck)

    # --config and --strategy default to None so that cmd_memplan can refuse
    # them where they would be ignored; the help names the real defaults
    p = sub.add_parser("memplan", help="activation-memory estimates and budget search")
    p.add_argument("--config", default=None, help="default %s" % MEMPLAN_CONFIG)
    common(p, precision="single")
    p.add_argument("--strategy", choices=STRATEGIES, default=None,
                   help="default %s" % MEMPLAN_STRATEGY)
    p.add_argument("--budget", default=None,
                   help="byte budget, e.g. 14GB (decimal) or 2GiB (binary)")
    p.add_argument("--axis", choices=memplan.AXES, default=None)
    p.add_argument("--compare", action="store_true",
                   help="store-all vs reversible side by side")
    p.add_argument("--claims", action="store_true",
                   help="full claim-check report across the preset family")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_memplan)

    p = sub.add_parser("phantoms", help="generate a deterministic phantom corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--size", type=int, default=32, help="cube side length")
    common(p, seed=True)
    p.set_defaults(func=cmd_phantoms)

    p = sub.add_parser("train", help="train on a phantom corpus")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default="mbconv-base-toy")
    common(p, seed=True, precision="single", strategy=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--holdout", type=int, default=0,
                   help="hold out the last N corpus items for evaluation")
    p.add_argument("--base-lr", type=float, default=BASE_LR,
                   help="the schedule's base learning rate")
    p.add_argument("--no-augment", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="run a saved model on an RVT1 volume")
    p.add_argument("--model", required=True, help="saved model directory")
    p.add_argument("--volume", required=True, help="input RVT1 volume")
    p.add_argument("--out", required=True, help="output RVT1 label map")
    p.add_argument("--labels", default=None,
                   help="optional reference labels; adds Dice to the report")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("ensemble-select",
                       help="pick a model by Dice weighted against histogram distance")
    p.add_argument("--stats", required=True,
                   help="JSON with models[].train_dice and train_histograms")
    p.add_argument("--volume", required=True, help="query RVT1 volume")
    p.add_argument("--reading", choices=("literal", "inverted"), default="literal")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ensemble_select)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit stays quiet, and exit as a writer stopped by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (TrainingError, EngineError) as exc:
        _status("failure: %s" % exc)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _status("error: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
