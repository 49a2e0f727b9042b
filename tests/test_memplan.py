"""Closed-form memory model vs the runtime ledger, budget search, claims."""

import dataclasses

import numpy as np
import pytest

from revunet import memplan, verify
from revunet.engine import MemoryLedger, Tape
from revunet.memplan import (
    budget_search,
    claims_report,
    element_map,
    estimate,
    param_elements,
    parse_budget,
)
from revunet.rng import rng_for
from revunet.unet import PRESETS, UNetConfig, build

# exact saved-element counts for the flagship preset at 256x256x160, frozen
# after cross-checking the closed form against the runtime ledger and an
# independent hand recount of every stage
BASE_REVERSIBLE_ELEMENTS = 2_531_799_079
BASE_STORE_ALL_ELEMENTS = 6_286_397_793


def _rows(entries):
    """Ordered (node, reason, op, elements) rows of a ledger or estimate report."""
    return [(e["node"], e["reason"], e["op"], e["elements"]) for e in entries]


def _grid_configs():
    cases = []
    for kind, t in (("standard", None), ("mbconv", 1), ("mbconv", 2), ("mbconv", 8)):
        for widths in ((2, 4), (4, 8), (2, 4, 8)):
            for size in ((8, 8, 8), (8, 8, 16)):
                cases.append(UNetConfig(widths=widths, image_size=size,
                                        block_kind=kind, expand_ratio=t))
    return cases


class TestEstimateMatchesLedger:
    @pytest.mark.parametrize("strategy", ["store-all", "reversible"])
    def test_exact_entry_for_entry_over_config_grid(self, strategy):
        configs = _grid_configs()
        assert len(configs) >= 20
        toys = [PRESETS[name] for name in verify.TOY_PRESETS] + [verify.TOY2]
        for config in configs + toys:
            est = estimate(config, strategy, "single")
            model = build(config, seed=0, precision="single", strategy=strategy)
            ledger = MemoryLedger()
            x = rng_for(0, "mem", str(config)).standard_normal(
                (1, config.in_ch) + config.image_size).astype(np.float32)
            model.forward(x, Tape(ledger))
            assert element_map(est) == ledger.element_map(), (config, strategy)
            assert _rows(ledger.report()["entries"]) == _rows(est["entries"]), (config, strategy)
            assert est["peak_bytes"] == ledger.peak_bytes, (config, strategy)

    def test_precision_only_scales_bytes(self):
        config = _grid_configs()[0]
        for strategy in ("store-all", "reversible"):
            single = estimate(config, strategy, "single")
            double = estimate(config, strategy, "double")
            assert element_map(single) == element_map(double)
            assert single["retained_bytes"] == single["retained_elements"] * 4
            assert double["retained_bytes"] == double["retained_elements"] * 8


class TestFlagshipAnchors:
    def test_reversible_element_count(self):
        est = estimate("mbconv-base", "reversible", "single")
        assert est["retained_elements"] == BASE_REVERSIBLE_ELEMENTS
        assert est["retained_bytes"] == BASE_REVERSIBLE_ELEMENTS * 4
        assert est["peak_elements"] == est["retained_elements"]
        assert estimate("mbconv-base", "reversible", "double")["retained_bytes"] \
            == BASE_REVERSIBLE_ELEMENTS * 8

    def test_store_all_element_count(self):
        est = estimate("mbconv-base", "store-all", "single")
        assert est["retained_elements"] == BASE_STORE_ALL_ELEMENTS
        assert est["retained_bytes"] == BASE_STORE_ALL_ELEMENTS * 4

    def test_ratio(self):
        ratio = BASE_STORE_ALL_ELEMENTS / BASE_REVERSIBLE_ELEMENTS
        assert ratio == pytest.approx(2.4830, abs=1e-4)

    def test_reversible_smaller_for_every_preset(self):
        for name in PRESETS:
            rev = estimate(name, "reversible", "single")["retained_elements"]
            store = estimate(name, "store-all", "single")["retained_elements"]
            assert rev < store, name

    def test_param_elements_matches_built_model(self):
        for name, config in PRESETS.items():
            if not name.endswith("-toy"):
                continue
            model = build(config, seed=0)
            total = sum(a.size for _, _, _, a in model.parameters())
            assert param_elements(config) == total, name


class TestBudgetSearch:
    def test_budget_equal_to_base_returns_base_on_every_axis(self):
        base_bytes = estimate("mbconv-base", "reversible", "single")["retained_bytes"]
        vol = budget_search("mbconv-base", base_bytes, "volume")
        assert vol["image_size"] == vol["base_image_size"]
        assert vol["voxel_multiplier"] == 1.0
        ch = budget_search("mbconv-base", base_bytes, "channels")
        assert ch["width_multiplier"] == 1 and ch["widths"] == ch["base_widths"]
        dp = budget_search("mbconv-base", base_bytes, "depth")
        assert dp["added_levels"] == 0 and dp["levels"] == dp["base_levels"]

    def test_results_are_feasible_and_maximal(self):
        config = PRESETS["mbconv-base"]
        budget = estimate(config, "store-all", "single")["retained_bytes"]
        for axis in ("volume", "channels", "depth"):
            result = budget_search(config, budget, axis)
            assert result["estimate_bytes"] <= budget, axis
        ch = budget_search(config, budget, "channels")
        k = ch["width_multiplier"]
        wider = UNetConfig(widths=tuple(w * (k + 1) for w in config.widths),
                           image_size=config.image_size,
                           block_kind=config.block_kind,
                           expand_ratio=config.expand_ratio)
        assert estimate(wider, "reversible", "single")["retained_bytes"] > budget
        dp = budget_search(config, budget, "depth")
        deeper_widths = tuple(dp["widths"]) + (dp["widths"][-1] * 2,)
        deeper = UNetConfig(widths=deeper_widths, image_size=config.image_size,
                            block_kind=config.block_kind,
                            expand_ratio=config.expand_ratio)
        grid_ok = all(s % deeper.grid == 0 for s in config.image_size)
        assert (not grid_ok) or estimate(deeper, "reversible", "single")[
            "retained_bytes"] > budget

    def test_volume_result_stays_on_the_pooling_grid(self):
        config = PRESETS["mbconv-base"]
        budget = estimate(config, "store-all", "single")["retained_bytes"]
        result = budget_search(config, budget, "volume")
        assert all(s % config.grid == 0 for s in result["image_size"])
        assert result["voxel_multiplier"] == pytest.approx(2.4578, abs=1e-3)

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.48, 10.0])
    def test_search_matches_a_linear_scan(self, factor):
        config = PRESETS["mbconv-base"]
        budget = int(estimate(config, "reversible", "single")["retained_bytes"] * factor)

        def fits(c):
            return estimate(c, "reversible", "single")["retained_bytes"] <= budget

        k = 1
        while fits(dataclasses.replace(config, widths=tuple(w * (k + 1) for w in config.widths))):
            k += 1
        assert budget_search(config, budget, "channels")["width_multiplier"] == k
        # every multiplier at which some side crosses a multiple of the grid
        g = config.grid
        steps = {j * g / s for s in config.image_size for j in range(s // g, 4 * s // g)}

        def dims(m):
            return [int(m * s) // g * g for s in config.image_size]

        best = max(m for m in steps if fits(dataclasses.replace(config, image_size=dims(m))))
        result = budget_search(config, budget, "volume")
        assert result["per_side_multiplier"] == best and result["image_size"] == dims(best)

    # the linear-scan budgets above, plus ones between the toy's 0..5 added levels
    @pytest.mark.parametrize("factor", [1.0, 1.17, 1.19, 1.198, 1.1995, 1.5, 2.48, 10.0])
    @pytest.mark.parametrize("config", [
        PRESETS["mbconv-base"],   # room for one more level on its 160-voxel side
        UNetConfig(widths=(4, 8), image_size=(64, 64, 64), expand_ratio=2),  # room for five
    ], ids=["mbconv-base", "toy-64"])
    def test_depth_search_matches_a_linear_scan(self, config, factor):
        budget = int(estimate(config, "reversible", "single")["retained_bytes"] * factor)
        widths = config.widths
        while True:
            deeper = dataclasses.replace(config, widths=widths + (widths[-1] * 2,))
            if any(s % deeper.grid for s in config.image_size) or \
                    estimate(deeper, "reversible", "single")["retained_bytes"] > budget:
                break
            widths = deeper.widths
        result = budget_search(config, budget, "depth")
        assert tuple(result["widths"]) == widths
        assert result["added_levels"] == len(widths) - config.levels

    @pytest.mark.parametrize("axis,keys", [
        ("volume", {"base_image_size", "image_size", "per_side_multiplier", "voxel_multiplier"}),
        ("channels", {"base_widths", "widths", "width_multiplier"}),
        ("depth", {"base_levels", "levels", "widths", "added_levels"}),
    ])
    def test_each_axis_reports_its_own_keys(self, axis, keys):
        base_bytes = estimate("mbconv-base", "reversible", "single")["retained_bytes"]
        result = budget_search("mbconv-base", 2 * base_bytes, axis)
        shared = {"axis", "estimate_bytes", "budget_bytes", "strategy", "precision"}
        assert set(result) == keys | shared
        assert result["axis"] == axis

    def test_below_base_budget_is_an_error(self):
        with pytest.raises(ValueError):
            budget_search("mbconv-base", 1000, "volume")

    def test_unknown_axis(self):
        base_bytes = estimate("mbconv-base", "reversible", "single")["retained_bytes"]
        with pytest.raises(ValueError):
            budget_search("mbconv-base", base_bytes, "diagonal")


@pytest.fixture(scope="module")
def report():
    return claims_report()


class TestClaimsReport:
    def test_volume_claim(self, report):
        fam = report["family"]
        assert fam["volume_multiplier_max"] >= 3.0
        assert fam["volume_multiplier_max"] == pytest.approx(5.3594, abs=1e-3)
        wider = report["presets"]["mbconv-wider"]
        assert wider["volume_ratio_continuous"] == pytest.approx(6.4376, abs=1e-3)

    def test_channel_claim(self, report):
        fam = report["family"]
        assert fam["channel_multiplier_min"] == fam["channel_multiplier_max"] == 2
        assert 1.7 <= fam["channel_multiplier_min"] <= 2.3

    def test_depth_claim(self, report):
        depth = report["depth_claim"]
        assert depth["levels"]["percent_more"] == 20.0
        assert depth["pool_stages"]["percent_more"] == 25.0
        assert depth["deeper_reversible_fits_base_store_all_budget_at_same_volume"]

    def test_14gb_budget(self, report):
        gate = report["budget_14gb"]
        assert gate["mbconv_base_reversible_activation_bytes"] \
            == BASE_REVERSIBLE_ELEMENTS * 4
        assert gate["activations_fit"] and gate["activations_plus_params_fit"]

    def test_base_ratio_in_report(self, report):
        base = report["presets"]["mbconv-base"]
        assert base["store_over_reversible"] \
            == BASE_STORE_ALL_ELEMENTS / BASE_REVERSIBLE_ELEMENTS


class TestParseBudget:
    def test_decimal_and_binary_suffixes(self):
        assert parse_budget("14GB") == 14_000_000_000
        assert parse_budget("1.5GB") == 1_500_000_000
        assert parse_budget("2GiB") == 2_147_483_648
        assert parse_budget("3kb") == 3_000
        assert parse_budget("2MiB") == 2 * 2 ** 20
        assert parse_budget("1TB") == 10 ** 12
        assert parse_budget("123456") == 123456
        assert parse_budget(" 7 MB ".strip()) == 7_000_000

    def test_bad_inputs(self):
        for bad in ("14XB", "-5GB", "0", "GB", "1.5", "", "infGB", "nanGB", "1e300TB"):
            with pytest.raises(ValueError):
                parse_budget(bad)
