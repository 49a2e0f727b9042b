"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Each test prints a single summary line with the achieved numbers; the
pytest -v PASSED/FAILED line per test is the per-criterion verdict.
"""

import os
import time

import numpy as np
import pytest

from helpers import ensemble_select, param_count
from revunet import blocks, memplan, verify
from revunet.engine import MemoryLedger, Tape
from revunet.phantoms import (
    AugmentParams,
    INTENSITY_LIMIT,
    ROTATION_LIMIT_DEG,
    SCALE_LIMIT,
    augment,
    chi2_distance,
    histogram,
    make_phantom,
    sample_augment_params,
)
from revunet.rng import rng_for
from revunet.training import train
from revunet.unet import PRESETS, TOY_ANALOG, UNetConfig, build

TOY_PRESETS = sorted(n for n in PRESETS if n.endswith("-toy"))


def _line(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_reversible_blocks_invert_exactly():
    worst = 0.0
    for name in TOY_PRESETS:
        entry = verify.roundtrip_suite(name, seeds=range(50), precision="double")
        assert entry["pass"] and entry["tol"] == 1e-10, entry
        worst = max(worst, entry["max_err"])
    _line(1, "inverse round-trip over %d toy presets x 50 seeds, worst "
             "|err|_inf %.3e <= 1e-10" % (len(TOY_PRESETS), worst))


def test_criterion_02_reversible_gradients_equal_store_all():
    assert verify.EQUIV_TOL == 1e-10
    entries = verify.strategy_equivalence_suite(seed=0)
    assert all(e["pass"] for e in entries), entries
    assert next(e for e in entries if e["check"] == "equiv.gradients")["tol"] == 1e-10
    worst = max(e["max_err"] for e in entries)
    _line(2, "reversible vs store-all gradients on the 2-level toy, worst "
             "rel err %.3e <= 1e-10 (forward bitwise equal)" % worst)


def test_criterion_03_finite_differences_match_analytic_gradients():
    assert (verify.FD_TOL, verify.FD_COORDS, verify.FD_NETWORK_TOL) == (1e-6, 120, 1e-5)
    prim = verify.fd_primitive_suite(seed=0)
    assert all(e["pass"] for e in prim), [e for e in prim if not e["pass"]]
    assert all(e["tol"] == 1e-6 for e in prim)
    net = verify.fd_network_suite(seed=0, samples=220)
    assert net["pass"], net
    assert net["tol"] == 1e-5
    assert net["coords"] >= 200
    _line(3, "per-op FD worst %.3e <= 1e-6 (%d ops, 120 coords each); "
             "network FD worst %.3e <= 1e-5 over %d sampled parameters"
          % (max(e["max_err"] for e in prim), len(prim),
             net["max_err"], net["coords"]))


def test_criterion_04_separable_convolution_routes_agree():
    assert verify.ORACLE_TOL == 1e-12
    suite = verify.oracle_suite(seed=0)
    entry = next(e for e in suite if e["check"] == "oracle.separability")
    assert entry["pass"], entry
    assert entry["tol"] == 1e-12
    _line(4, "depthwise-then-pointwise vs factorized standard conv, max rel "
             "err %.3e <= 1e-12 on random rank-1 kernels" % entry["max_err"])


def test_criterion_05_memory_estimate_matches_runtime_ledger_exactly():
    configs = []
    for kind, t in (("standard", None), ("mbconv", 1), ("mbconv", 2), ("mbconv", 8)):
        for widths in ((2, 4), (4, 8), (2, 4, 8)):
            for size in ((8, 8, 8), (8, 8, 16)):
                configs.append(UNetConfig(widths=widths, image_size=size,
                                          block_kind=kind, expand_ratio=t))
    assert len(configs) >= 20
    checked = 0
    for config in configs:
        for strategy in ("store-all", "reversible"):
            est = memplan.estimate(config, strategy, "single")
            model = build(config, seed=0, precision="single", strategy=strategy)
            ledger = MemoryLedger()
            x = rng_for(0, "acc5", str(config)).standard_normal(
                (1, config.in_ch) + config.image_size).astype(np.float32)
            model.forward(x, Tape(ledger))
            assert memplan.element_map(est) == ledger.element_map(), (config, strategy)
            rows = [[(e["node"], e["reason"], e["op"], e["elements"]) for e in doc["entries"]]
                    for doc in (ledger.report(), est)]
            assert rows[0] == rows[1], (config, strategy)
            checked += 1
    _line(5, "closed-form estimate equals the runtime ledger element-for-"
             "element on %d configs x both strategies (%d comparisons)"
          % (len(configs), checked))


def test_criterion_06_headline_memory_claims_hold_analytically():
    report = memplan.claims_report()
    fam = report["family"]
    assert fam["volume_multiplier_max"] >= 3.0
    assert 1.7 <= fam["channel_multiplier_min"] <= 2.3
    assert 1.7 <= fam["channel_multiplier_max"] <= 2.3
    depth = report["depth_claim"]
    gate = report["budget_14gb"]
    assert gate["activations_fit"] and gate["activations_plus_params_fit"]
    _line(6, "volume axis up to %.2fx (>= 3x); channel multiplier %d..%d "
             "(within 15%% of 2x); depth +%.0f%% levels / +%.0f%% pool stages "
             "(both interpretations, no gate); flagship reversible "
             "activations %.2f GB (+params %.2f GB) fit 14 GB"
          % (fam["volume_multiplier_max"],
             fam["channel_multiplier_min"], fam["channel_multiplier_max"],
             depth["levels"]["percent_more"], depth["pool_stages"]["percent_more"],
             gate["mbconv_base_reversible_activation_bytes"] / 1e9,
             gate["mbconv_base_reversible_activations_plus_params_bytes"] / 1e9))


def test_criterion_07_mbconv_blocks_use_fewer_parameters():
    t = 2
    rows = []
    for c in (30, 60, 120, 180, 240, 480):
        mb = param_count(blocks.make_block("mbconv", "m", c, t, np.float64))
        std = param_count(blocks.make_block("standard", "s", c, None, np.float64))
        assert mb == 2 * t * c * c + 27 * t * c + 4 * t * c + 2 * c
        assert std == 27 * c * c + 2 * c
        assert mb < std, c
        rows.append((c, mb, std))
    _line(7, "mbconv(t=2) vs standard parameters per block: " +
          ", ".join("C=%d: %d < %d" % r for r in rows))


def test_criterion_08_training_smoke_reaches_dice_and_reproduces():
    config = UNetConfig(widths=(8, 16), image_size=(32, 32, 32),
                        block_kind="mbconv", expand_ratio=2)
    pairs = [(p.volume, p.labels) for p in (make_phantom(s, 32) for s in range(25))]
    started = time.time()
    _, records = train(config, pairs[:20], seed=0, holdout=pairs[20:],
                       steps=200, base_lr=3e-3)
    wall = time.time() - started
    final = [r for r in records if r["kind"] == "eval"][-1]
    assert final["mean_dice"] >= 0.8, final
    assert wall <= 600.0
    # bitwise reproducibility: a fresh 40-step run must replay the exact
    # prefix of the 200-step log (losses, lrs, evals; summaries differ)
    _, rerun = train(config, pairs[:20], seed=0, holdout=pairs[20:],
                     steps=40, base_lr=3e-3)
    prefix = [r for r in rerun if r["kind"] != "summary"]
    assert records[:len(prefix)] == prefix
    _line(8, "holdout mean Dice %.4f >= 0.8 after 200 steps in %.0f s "
             "(<= 600 s); 40-step rerun replays the log bitwise"
          % (final["mean_dice"], wall))


def test_criterion_09_augmentation_invariants_and_sampler_bounds():
    ph = make_phantom(0, 16)
    out = augment(ph, AugmentParams())
    assert np.array_equal(out.volume, ph.volume)
    assert np.array_equal(out.labels, ph.labels)
    flip = AugmentParams(flips=(True, True, False))
    twice = augment(augment(ph, flip), flip)
    assert np.array_equal(twice.volume, ph.volume)
    assert np.array_equal(twice.labels, ph.labels)
    warped = augment(ph, AugmentParams(rotation_deg=17.0, scale=1.07,
                                       elastic_alpha=6.0), seed=5)
    assert set(np.unique(warped.labels)) <= {0, 1, 2, 3}
    for i in range(1000):
        p = sample_augment_params(rng_for(1, "acc9", i))
        assert abs(p.rotation_deg) <= ROTATION_LIMIT_DEG
        assert abs(p.scale - 1.0) <= SCALE_LIMIT + 1e-12
        assert abs(p.intensity - 1.0) <= INTENSITY_LIMIT + 1e-12
    _line(9, "identity augmentation bitwise no-op; double flip is the "
             "identity; warped labels stay in {0..3}; 1000 sampled parameter "
             "sets inside +-20 deg / +-10% scale / +-10% intensity")


def test_criterion_10_ensemble_selector_matches_brute_force():
    dice = [[0.9, 0.9], [0.5, 0.5]]
    hists = [[10, 0, 0, 0], [0, 0, 0, 10]]
    vol = np.full((4, 4, 4), 0.95)
    test_hist = histogram(vol, bins=4)
    dists = [chi2_distance(test_hist, h) for h in hists]
    literal_scores = [sum(dice[m][j] * dists[j] for j in range(2)) for m in range(2)]
    inverted_scores = [sum(dice[m][j] * (1 - dists[j]) for j in range(2))
                       for m in range(2)]
    expect_literal = int(np.argmin(literal_scores))
    expect_inverted = int(np.argmax(inverted_scores))
    assert expect_literal == 1 and expect_inverted == 0  # derived by hand
    assert ensemble_select(dice, hists, vol, reading="literal") \
        == expect_literal
    assert ensemble_select(dice, hists, vol, reading="inverted") \
        == expect_inverted
    assert ensemble_select(dice[:1], hists, vol, reading="literal") == 0
    _line(10, "literal reading selects index %d, inverted selects index %d, "
              "both equal to the brute-force weighted sums; single model -> 0"
          % (expect_literal, expect_inverted))


def test_criterion_11_published_scores_documented_as_context_only():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        text = f.read()
    for number in ("0.7513", "0.7501", "0.7317", "0.7184"):
        assert number in text, number
    assert "not reproduction targets" in text
    _line(11, "README lists the published converged/50-epoch Dice scores "
              "and marks them as context, not reproduction targets")
