"""Phantom generation, augmentation semantics, histograms, ensemble selection."""

import os

import numpy as np
import pytest

from helpers import ensemble_select
from revunet.phantoms import (
    AugmentParams,
    ELASTIC_SIGMA,
    INTENSITY_LIMIT,
    NUM_CLASSES,
    Phantom,
    ROTATION_LIMIT_DEG,
    SCALE_LIMIT,
    augment,
    chi2_distance,
    ensemble_scores,
    histogram,
    make_phantom,
    read_corpus,
    read_labels,
    sample_augment_params,
    write_corpus,
    write_labels,
)
from revunet.rng import rng_for
from revunet.tensor import tensor_read, tensor_write


class TestMakePhantom:
    def test_shapes_dtypes_and_range(self):
        ph = make_phantom(0, 16)
        assert ph.volume.shape == (1, 4, 16, 16, 16)
        assert ph.volume.dtype == np.float32
        assert ph.labels.shape == (16, 16, 16)
        assert ph.labels.dtype == np.int32
        assert 0.0 <= ph.volume.min() and ph.volume.max() <= 1.0

    def test_deterministic(self):
        a = make_phantom(7, (16, 16, 32))
        b = make_phantom(7, (16, 16, 32))
        assert np.array_equal(a.volume, b.volume)
        assert np.array_equal(a.labels, b.labels)
        c = make_phantom(8, (16, 16, 32))
        assert not np.array_equal(a.labels, c.labels) or not np.array_equal(a.volume, c.volume)

    def test_every_class_present_and_nested(self):
        for seed in range(100):
            lab = make_phantom(seed, 16).labels
            counts = np.bincount(lab.reshape(-1), minlength=NUM_CLASSES)
            assert counts.min() > 0, seed
            # the three foreground regions are nested sets, innermost last
            m1 = lab >= 1
            m2 = lab >= 2
            m3 = lab == 3
            assert np.all(m3 <= m2) and np.all(m2 <= m1), seed
            assert m1.sum() > m2.sum() > m3.sum() > 0, seed

    def test_background_fraction_band(self):
        # frozen band around the observed range 0.83..0.92 at this size
        for seed in range(60):
            lab = make_phantom(seed, 32).labels
            frac = float((lab == 0).mean())
            assert 0.70 <= frac <= 0.97, (seed, frac)

    def test_rejects_tiny_volumes(self):
        with pytest.raises(ValueError):
            make_phantom(0, 8)
        with pytest.raises(ValueError):
            make_phantom(0, (16, 16))


# a cube and an odd-sized box whose axes all differ
SIZES = (16, (17, 16, 21))


class TestAugment:
    def test_identity_is_bitwise_noop_on_fresh_arrays(self):
        for size in SIZES:
            ph = make_phantom(1, size)
            out = augment(ph, AugmentParams())
            assert np.array_equal(out.volume, ph.volume)
            assert np.array_equal(out.labels, ph.labels)
            assert out.volume is not ph.volume and out.labels is not ph.labels
            out.labels[...] = 0
            assert ph.labels.max() == 3  # original untouched

    def test_flips_are_involutions(self):
        ph = make_phantom(2, 16)
        p = AugmentParams(flips=(True, False, True))
        twice = augment(augment(ph, p), p)
        assert np.array_equal(twice.volume, ph.volume)
        assert np.array_equal(twice.labels, ph.labels)

    def test_flip_path_matches_numpy_flip(self):
        for size in SIZES:
            ph = make_phantom(3, size)
            out = augment(ph, AugmentParams(flips=(True, True, False)))
            assert np.array_equal(out.volume, np.flip(ph.volume, axis=(2, 3)))
            assert np.array_equal(out.labels, np.flip(ph.labels, axis=(0, 1)))

    def test_intensity_scales_and_clips(self):
        for size in SIZES:
            ph = make_phantom(4, size)
            out = augment(ph, AugmentParams(intensity=1.1))
            expect = np.clip(ph.volume * np.float32(1.1), 0, 1)
            assert np.array_equal(out.volume, expect)
            assert np.array_equal(out.labels, ph.labels)
            assert out.volume.max() <= 1.0

    def test_quarter_turn_matches_rot90(self):
        # 90 degrees maps the even cubic lattice onto itself exactly, so the
        # nearest-neighbour label resample must agree with a pure index rotation
        ph = make_phantom(5, 16)
        out = augment(ph, AugmentParams(rotation_deg=90.0))
        assert np.array_equal(out.labels, np.rot90(ph.labels, k=1, axes=(1, 2)))
        assert np.array_equal(out.volume, np.rot90(ph.volume, k=1, axes=(3, 4)))

    def test_resample_path_keeps_label_alphabet_and_range(self):
        ph = make_phantom(6, 16)
        out = augment(ph, AugmentParams(rotation_deg=13.0, scale=0.93,
                                        intensity=1.08, elastic_alpha=6.0), seed=11)
        assert out.volume.shape == ph.volume.shape
        assert out.labels.shape == ph.labels.shape
        assert set(np.unique(out.labels)) <= set(range(NUM_CLASSES))
        assert 0.0 <= out.volume.min() and out.volume.max() <= 1.0

    def test_elastic_warp_is_seed_deterministic(self):
        ph = make_phantom(6, 16)
        p = AugmentParams(rotation_deg=5.0, elastic_alpha=6.0)
        a = augment(ph, p, seed=42)
        b = augment(ph, p, seed=42)
        assert np.array_equal(a.volume, b.volume)
        assert np.array_equal(a.labels, b.labels)
        c = augment(ph, p, seed=43)
        assert not np.array_equal(a.volume, c.volume)

    def test_elastic_warp_without_seed_is_an_error(self):
        ph = make_phantom(6, 16)
        with pytest.raises(ValueError):
            augment(ph, AugmentParams(elastic_alpha=6.0))

    def test_mismatched_volume_and_labels(self):
        ph = make_phantom(6, 16)
        with pytest.raises(ValueError):
            augment(Phantom(ph.volume, ph.labels[:-2]), AugmentParams())

    def test_sampled_params_respect_bounds(self):
        for i in range(1000):
            p = sample_augment_params(rng_for(0, "bounds", i))
            assert abs(p.rotation_deg) <= ROTATION_LIMIT_DEG
            assert 1.0 - SCALE_LIMIT <= p.scale <= 1.0 + SCALE_LIMIT
            assert 1.0 - INTENSITY_LIMIT <= p.intensity <= 1.0 + INTENSITY_LIMIT
            assert len(p.flips) == 3 and all(isinstance(f, bool) for f in p.flips)
            assert p.elastic_alpha == 6.0 and ELASTIC_SIGMA == 8.0


class TestHistogram:
    def test_counts_positive_voxels_only(self):
        vol = np.array([0.0, -0.5, 0.25, 1.0, 0.999])
        h = histogram(vol)
        assert h.sum() == 3          # zero and negative voxels are excluded
        assert h[16] == 1            # 0.25 lands in bin 16 of 64
        assert h[63] == 2            # 1.0 and 0.999 share the closed top bin
        assert h.shape == (64,)

    def test_all_zero_volume_gives_empty_histogram(self):
        h = histogram(np.zeros((4, 4, 4)))
        assert h.sum() == 0

    def test_custom_bin_count(self):
        h = histogram(np.array([0.1, 0.3, 0.6, 0.9]), bins=4)
        assert h.tolist() == [1, 1, 1, 1]

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            histogram(np.ones(4), bins=1)


class TestChi2:
    def test_identical_is_zero(self):
        h = np.array([3, 1, 4, 1, 5])
        assert chi2_distance(h, h) == 0.0

    def test_disjoint_is_one(self):
        assert chi2_distance([1, 0], [0, 1]) == 1.0
        assert chi2_distance([10, 0, 0], [0, 5, 5]) == 1.0

    def test_against_empty_histogram(self):
        # normalized h against all-zero g: 0.5 * sum(h^2 / h) = 0.5
        assert chi2_distance([2, 2], [0, 0]) == 0.5
        assert chi2_distance([0, 0], [0, 0]) == 0.0

    def test_symmetric_and_bounded(self):
        gen = rng_for(0, "chi2")
        for _ in range(50):
            h = gen.integers(0, 20, size=8)
            g = gen.integers(0, 20, size=8)
            d = chi2_distance(h, g)
            assert d == chi2_distance(g, h)
            assert 0.0 <= d <= 1.0

    def test_normalization_makes_scale_irrelevant(self):
        h, g = [1, 2, 3], [4, 0, 1]
        assert chi2_distance(h, g) == pytest.approx(
            chi2_distance(np.array(h) * 7, np.array(g) * 3), abs=1e-15)

    def test_bin_mismatch(self):
        with pytest.raises(ValueError):
            chi2_distance([1, 2], [1, 2, 3])


class TestEnsembleSelect:
    # two train images with opposite one-bin histograms; the test volume sits
    # in the top bin, so it is distance 1 from train image 0 and 0 from image 1
    DICE = [[0.9, 0.9], [0.5, 0.5]]
    HISTS = [[10, 0, 0, 0], [0, 0, 0, 10]]
    VOL = np.full((4, 4, 4), 0.95)

    def test_discriminating_scenario(self):
        assert ensemble_select(self.DICE, self.HISTS, self.VOL, reading="literal") == 1
        assert ensemble_select(self.DICE, self.HISTS, self.VOL, reading="inverted") == 0

    def test_scores_match_hand_computation(self):
        lit = ensemble_scores(self.DICE, self.HISTS, self.VOL, reading="literal")
        inv = ensemble_scores(self.DICE, self.HISTS, self.VOL, reading="inverted")
        test_hist = histogram(self.VOL, bins=4)
        dists = [chi2_distance(test_hist, h) for h in self.HISTS]
        assert dists == [1.0, 0.0]
        for m in range(2):
            assert lit[m] == pytest.approx(
                sum(self.DICE[m][j] * dists[j] for j in range(2)), abs=1e-15)
            assert inv[m] == pytest.approx(
                sum(self.DICE[m][j] * (1 - dists[j]) for j in range(2)), abs=1e-15)

    def test_single_model_always_selected(self):
        for reading in ("literal", "inverted"):
            assert ensemble_select(self.DICE[:1], self.HISTS, self.VOL, reading=reading) == 0

    def test_equal_distances_reduce_to_dice_ordering(self):
        # identical train histograms: every distance is the same constant, so
        # the literal argmin lands on the *lowest* total dice - the face-value
        # wording rewards bad models once distances stop discriminating
        hists = [[5, 5, 0, 0], [5, 5, 0, 0]]
        vol = np.full((4, 4, 4), 0.3)
        assert ensemble_select(self.DICE, hists, vol, reading="literal") == 1
        assert ensemble_select(self.DICE, hists, vol, reading="inverted") == 0

    def test_ties_break_to_lowest_index(self):
        dice = [[0.7, 0.7], [0.7, 0.7]]
        for reading in ("literal", "inverted"):
            assert ensemble_select(dice, self.HISTS, self.VOL, reading=reading) == 0

    def test_histogram_count_scale_invariance(self):
        scaled = (np.array(self.HISTS) * 5).tolist()
        for reading in ("literal", "inverted"):
            assert (ensemble_scores(self.DICE, self.HISTS, self.VOL, reading)
                    == ensemble_scores(self.DICE, scaled, self.VOL, reading))

    def test_validation(self):
        with pytest.raises(ValueError):
            ensemble_scores([0.9, 0.5], self.HISTS, self.VOL)  # not a matrix
        with pytest.raises(ValueError):
            ensemble_scores([[0.9, np.nan], [0.5, 0.5]], self.HISTS, self.VOL)
        with pytest.raises(ValueError):
            ensemble_scores(self.DICE, self.HISTS[:1], self.VOL)
        with pytest.raises(ValueError):
            ensemble_scores(self.DICE, self.HISTS, self.VOL, reading="bogus")

    @pytest.mark.parametrize("hists, message", [
        ([[10, 0, 0, 0], [0, 0, 10]], "equal-length"),          # ragged
        ([[0, 0, 10], [10, 0, 0, 0]], "equal-length"),
        ([[10, 0, 0, 0], [[0, 0], [0, 10]]], "equal-length"),   # one histogram is 2-d
        ([[[0, 0], [0, 10]]] * 2, "equal-length"),
        ([1, 2], "equal-length"),                               # not histograms at all
        ([[10], [0]], "at least 2 bins"),
        ([[], []], "at least 2 bins"),
    ], ids=["ragged", "ragged-short-first", "nested", "all-2d", "scalars", "one-bin", "no-bins"])
    def test_histograms_must_share_a_length_of_at_least_two_bins(self, hists, message):
        for reading in ("literal", "inverted"):
            with pytest.raises(ValueError, match=message):
                ensemble_scores(self.DICE, hists, self.VOL, reading)

    def test_bin_count_comes_from_the_train_histograms(self):
        # the same volume scored against 2-bin and 8-bin train histograms
        for bins in (2, 8):
            hists = [histogram(np.full(4, 0.1), bins), histogram(np.full(4, 0.9), bins)]
            assert ensemble_select(self.DICE, hists, self.VOL, reading="literal") == 1


class TestCorpus:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "corpus")
        index = write_corpus(path, 3, 16, seed=5)
        assert index["schema_version"] == 1
        assert index["count"] == 3 and index["size"] == [16, 16, 16]
        assert len(index["items"]) == 3
        pairs, read_index = read_corpus(path)
        assert read_index == index
        assert len(pairs) == 3
        for (vol, lab), item in zip(pairs, index["items"]):
            ph = make_phantom(item["seed"], 16)
            assert np.array_equal(vol, ph.volume)
            assert np.array_equal(lab, ph.labels)
            assert lab.dtype == np.int32

    def test_write_twice_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_corpus(a, 2, 16, seed=9)
        write_corpus(b, 2, 16, seed=9)
        for name in sorted(os.listdir(a)):
            with open(os.path.join(a, name), "rb") as fa, \
                 open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


class TestReadLabels:
    def _write(self, tmp_path, labels, dtype=np.float32):
        path = str(tmp_path / "l.rvt")
        tensor_write(np.asarray(labels, dtype=dtype), path)
        return path

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_class_reads_back_as_int32(self, tmp_path, dtype):
        labels = np.arange(24).reshape(1, 1, 2, 3, 4) % NUM_CLASSES
        labels[0, 0, 0, 0, 0] = -0.0
        lab = read_labels(self._write(tmp_path, labels, dtype))
        assert lab.dtype == np.int32 and np.array_equal(lab, labels[0, 0])

    @pytest.mark.parametrize("bad", [NUM_CLASSES, -1, 3e9, 2.5, 1e-3, -0.5])
    def test_values_outside_the_classes_are_refused(self, tmp_path, bad):
        labels = np.zeros((1, 1, 2, 3, 4))
        labels[0, 0, 1, 2, 3] = bad
        with pytest.raises(ValueError, match="label map"):
            read_labels(self._write(tmp_path, labels))

    @pytest.mark.parametrize("dtype", [np.int32, np.intp, np.uint8])
    def test_write_labels_round_trips_as_float32_rank5(self, tmp_path, dtype):
        labels = (np.arange(60).reshape(3, 4, 5) % NUM_CLASSES).astype(dtype)
        path = str(tmp_path / "w.rvt")
        write_labels(path, labels)
        assert tensor_read(path).dtype == np.float32 and tensor_read(path).shape == (1, 1, 3, 4, 5)
        assert np.array_equal(read_labels(path), labels)
        # the bytes segment and write_corpus stored before write_labels existed
        tensor_write(labels.astype(np.float32).reshape((1, 1, 3, 4, 5)), str(tmp_path / "o.rvt"))
        assert (tmp_path / "w.rvt").read_bytes() == (tmp_path / "o.rvt").read_bytes()

    def test_classes_bound_the_values(self, tmp_path):
        path = self._write(tmp_path, np.full((1, 1, 2, 2, 2), 5.0))
        assert (read_labels(path, classes=6) == 5).all()
        with pytest.raises(ValueError):
            read_labels(path, classes=5)

    @pytest.mark.parametrize("shape", [(1, 2, 2, 2, 2), (2, 1, 2, 2, 2)])
    def test_more_than_one_map_is_refused(self, tmp_path, shape):
        with pytest.raises(ValueError, match=r"\(1, 1, d, h, w\)"):
            read_labels(self._write(tmp_path, np.zeros(shape)))
