"""End-to-end command-line behavior: reports, files, and exit codes."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import ensemble_select
from revunet import cli, memplan, phantoms
from revunet.phantoms import read_corpus, write_corpus
from revunet.tensor import _HEADER, MAGIC, tensor_read, tensor_write
from revunet.unet import UNetConfig, build, crop_to_record, pad_to_grid

MBCONV_BASE_REV_ELEMENTS = 1_813_565_479


def _write_non_finite(path, shape, bad):
    """An RVT1 single-precision volume of ones with one NaN or Inf scalar."""
    t = np.ones(shape, dtype="<f4")
    t.flat[t.size // 2] = bad
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, 0, 5, *shape) + t.tobytes())


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("corpus"))
    index = write_corpus(path, 5, 16, seed=3)
    return path, index


class TestParsing:
    def test_missing_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["gradcheck"])
        assert e.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["transmogrify"])
        assert e.value.code == 2


class TestGradcheck:
    def test_clean_run(self, capsys, tmp_path):
        out_file = str(tmp_path / "report.json")
        code, report, err = run_json(
            capsys, ["gradcheck", "--config", "mbconv-base", "--seed", "0",
                     "--out", out_file])
        assert code == 0
        assert report["pass"] is True
        assert report["schema_version"] == 1
        assert report["config"] == "mbconv-base"
        assert report["checks"] and all(c["pass"] for c in report["checks"])
        assert "PASS" in err and "FAIL" not in err
        assert json.load(open(out_file)) == report
        # a finite report is written as json.dumps writes it
        with open(out_file) as f:
            assert f.read() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_corrupted_vjp_fails_with_code_1(self, capsys):
        code, report, err = run_json(
            capsys, ["gradcheck", "--config", "mbconv-base", "--seed", "0",
                     "--corrupt-op", "relu"])
        assert code == 1
        assert report["pass"] is False
        assert any(not c["pass"] for c in report["checks"])
        assert "FAIL" in err

    def test_a_nan_error_is_written_as_null(self, capsys, monkeypatch):
        def nan_relu_bwd(x, dy, out=None):
            return np.full(np.broadcast(x, dy).shape, np.nan)

        def refuse(token):
            raise ValueError("not JSON: %s" % token)

        monkeypatch.setattr(cli.verify.ops, "relu_bwd", nan_relu_bwd)
        code, out, _ = run(capsys, ["gradcheck", "--config", "mbconv-base", "--seed", "0"])
        report = json.loads(out, parse_constant=refuse)
        assert code == 1 and report["pass"] is False
        failed = [c for c in report["checks"] if not c["pass"]]
        assert failed and any(c["max_err"] is None for c in failed)

    def test_worst_offender_is_a_failing_check(self, capsys):
        # seed -1 fails only fd.network, on its kink count
        code, report, err = run_json(capsys, ["gradcheck", "--seed", "-1"])
        assert code == 1
        failed = [line.split()[1] for line in err.splitlines() if line.startswith("FAIL ")]
        assert failed == ["fd.network"]
        assert report["worst"] == "fd.network"
        assert err.splitlines()[-1] == "worst offender: fd.network"

    def test_unknown_preset(self, capsys):
        code, _, _ = run(capsys, ["gradcheck", "--config", "nope", "--seed", "0"])
        assert code == 2


class TestMemplan:
    def test_estimate_report(self, capsys):
        code, report, _ = run_json(capsys, ["memplan", "--config", "mbconv-base"])
        assert code == 0
        assert report["strategy"] == "reversible"
        assert report["retained_elements"] == MBCONV_BASE_REV_ELEMENTS

    def test_compare_report(self, capsys):
        code, report, err = run_json(
            capsys, ["memplan", "--config", "mbconv-base", "--compare"])
        assert code == 0
        assert report["store_over_reversible"] == pytest.approx(3.0703, abs=1e-4)
        assert "store-all" in err and "reversible" in err

    def test_budget_search_report(self, capsys):
        code, report, _ = run_json(
            capsys, ["memplan", "--config", "mbconv-base",
                     "--budget", "14GB", "--axis", "volume"])
        assert code == 0
        assert report["budget_bytes"] == 14_000_000_000
        assert report["search"]["estimate_bytes"] <= 14_000_000_000
        assert report["search"]["axis"] == "volume"

    def test_axis_choices_are_the_searchable_axes(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["memplan", "--help"])
        assert "--axis {%s}" % ",".join(memplan.AXES) in capsys.readouterr().out

    def test_claims_report(self, capsys):
        code, report, _ = run_json(capsys, ["memplan", "--claims"])
        assert code == 0
        assert report["family"]["volume_multiplier_max"] >= 3.0
        assert report["budget_14gb"]["activations_plus_params_fit"] is True

    @pytest.mark.parametrize("budget", ["14XB", "infGB"])
    def test_bad_budget(self, capsys, budget):
        code, _, _ = run(capsys, ["memplan", "--budget", budget, "--axis", "volume"])
        assert code == 2

    @pytest.mark.parametrize("axis", ["channels", "volume"])
    def test_huge_budget_answers_promptly(self, axis):
        # the search doubles, then bisects, so its work grows with the log of the budget
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from revunet import cli; sys.exit(cli.main())",
             "memplan", "--budget", "1e30GB", "--axis", axis],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5)
        assert proc.returncode in (0, 2), proc.stderr
        if proc.returncode == 0:
            report = json.loads(proc.stdout)
            assert 0 < report["search"]["estimate_bytes"] <= report["budget_bytes"]

    @pytest.mark.parametrize("argv", [
        ["--claims"], ["--config", "mbconv-base"],
        ["--budget", "14GB", "--axis", "channels"],   # small enough to sit in the buffer
    ], ids=["claims", "estimate", "budget"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        # the read end is closed before the child starts, so every write to
        # stdout fails with EPIPE; a buffered small report fails only when flushed
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from revunet import cli; sys.exit(cli.main())",
                 "memplan"] + argv,
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert "error:" not in proc.stderr and "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_defaults_are_the_flagship_reversible_estimate(self, capsys):
        code, report, _ = run_json(capsys, ["memplan"])
        assert code == 0
        assert report["strategy"] == "reversible"
        assert report["retained_elements"] == MBCONV_BASE_REV_ELEMENTS

    @pytest.mark.parametrize("argv", [
        ["--claims", "--axis", "volume"],
        ["--compare", "--budget", "100GB", "--axis", "volume"],
        ["--claims", "--budget", "14GB", "--axis", "volume"],
        ["--claims", "--compare"],
        ["--claims", "--config", "mbconv-base"],
        ["--claims", "--strategy", "reversible"],
        ["--compare", "--strategy", "store-all"],
    ])
    def test_options_the_mode_would_ignore_are_refused(self, capsys, argv):
        # each of these used to run one mode, ignore the rest and exit 0
        code, out, err = run(capsys, ["memplan"] + argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_budget_without_axis(self, capsys):
        code, _, _ = run(capsys, ["memplan", "--budget", "14GB"])
        assert code == 2

    def test_axis_without_budget(self, capsys):
        code, out, err = run(capsys, ["memplan", "--axis", "volume"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--axis requires --budget" in err

    def test_invalid_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"widths": [3, 6], "image_size": [8, 8, 8],
                                   "block_kind": "mbconv", "expand_ratio": 2}))
        code, _, _ = run(capsys, ["memplan", "--config", str(bad)])
        assert code == 2


    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"widths": 5, "image_size": [16, 16, 16], "expand_ratio": 2},
        {"widths": ["4", "8"], "image_size": [16, 16, 16], "expand_ratio": 2},
        {"widths": [-4, 8], "image_size": [16, 16, 16], "expand_ratio": 2},
        {"widths": [4, 8], "image_size": [0, 16, 16], "expand_ratio": 2},
        {"widths": [4, 8], "image_size": [16.0, 16, 16], "expand_ratio": 2},
        {"widths": [4, 8], "image_size": [16, 16, 16], "expand_ratio": 2, "in_ch": True},
    ])
    def test_config_counts_must_be_positive_ints(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for extra in ([], ["--compare"], ["--budget", "1GB", "--axis", "volume"]):
            code, out, err = run(capsys, ["memplan", "--config", str(bad)] + extra)
            assert code == 2 and out == "" and err.startswith("error: ")

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        # a misspelt num_classes used to fall back to the default of 4 and exit 0
        doc = {"widths": [4, 8], "image_size": [16, 16, 16], "expand_ratio": 2, "num_clases": 9}
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        for extra in ([], ["--compare"], ["--budget", "1GB", "--axis", "volume"]):
            code, out, err = run(capsys, ["memplan", "--config", str(bad)] + extra)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "'num_clases'" in err

    def test_missing_required_config_keys_are_named(self, capsys, tmp_path):
        # a bare KeyError used to name only the first missing key
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"block_kind": "mbconv", "expand_ratio": 2}))
        code, out, err = run(capsys, ["memplan", "--config", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'widths'" in err and "'image_size'" in err


class TestPhantoms:
    def test_writes_valid_corpus(self, capsys, tmp_path):
        out = str(tmp_path / "c")
        code, index, err = run_json(
            capsys, ["phantoms", "--out", out, "--count", "2", "--size", "16",
                     "--seed", "1"])
        assert code == 0
        assert index["count"] == 2
        assert "wrote 2 phantoms" in err
        pairs, disk_index = read_corpus(out)
        assert disk_index == index
        assert len(pairs) == 2
        assert pairs[0][0].shape == (1, 4, 16, 16, 16)

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_refused_before_writing(self, capsys, tmp_path, count):
        out = tmp_path / "c"
        code, stdout, err = run(capsys, ["phantoms", "--out", str(out), "--count", count,
                                         "--size", "16", "--seed", "1"])
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and "at least 1 phantom" in err
        assert not out.exists()


class TestTrainAndSegment:
    def test_train_segment_chain(self, capsys, corpus, tmp_path):
        corpus_dir, index = corpus
        out = str(tmp_path / "run")
        code, report, err = run_json(
            capsys, ["train", "--data", corpus_dir, "--out", out, "--seed", "0",
                     "--steps", "4", "--holdout", "1", "--base-lr", "1e-3"])
        assert code == 0
        assert report["train_pairs"] == 4 and report["holdout_pairs"] == 1
        assert report["steps"] == 4
        assert report["final_eval"]["kind"] == "eval"
        est = memplan.estimate("mbconv-base-toy", "reversible", "single")
        assert report["peak_ledger_bytes"] == est["peak_bytes"]
        assert report["wall_seconds"] > 0
        assert "final holdout mean dice" in err
        metrics = os.path.join(out, "metrics.jsonl")
        assert os.path.exists(metrics)
        assert len(open(metrics).read().splitlines()) >= 4
        model_dir = os.path.join(out, "model")
        assert os.path.exists(os.path.join(model_dir, "manifest.json"))

        # segment the held-out item (the corpus tail) with the saved model;
        # a single-item holdout makes the report comparable to final_eval
        item = index["items"][-1]
        vol = os.path.join(corpus_dir, item["volume"])
        lab = os.path.join(corpus_dir, item["labels"])
        seg1 = str(tmp_path / "seg1.rvt")
        code, seg_report, _ = run_json(
            capsys, ["segment", "--model", model_dir, "--volume", vol,
                     "--out", seg1, "--labels", lab])
        assert code == 0
        assert seg_report["mean_dice"] == pytest.approx(
            report["final_eval"]["mean_dice"], abs=1e-9)
        assert sum(seg_report["class_voxels"]) == 16 ** 3
        assert seg_report["input_size"] == [16, 16, 16]
        labels_out = tensor_read(seg1)
        assert labels_out.shape == (1, 1, 16, 16, 16)
        assert set(np.unique(labels_out)) <= {0.0, 1.0, 2.0, 3.0}

        seg2 = str(tmp_path / "seg2.rvt")
        code, _, _ = run_json(
            capsys, ["segment", "--model", model_dir, "--volume", vol,
                     "--out", seg2])
        assert code == 0
        assert open(seg1, "rb").read() == open(seg2, "rb").read()

        # volume whose channel count does not match the model
        bad_vol = str(tmp_path / "bad.rvt")
        tensor_write(np.zeros((1, 3, 16, 16, 16), dtype=np.float32), bad_vol)
        code, _, _ = run(capsys, ["segment", "--model", model_dir,
                                  "--volume", bad_vol, "--out",
                                  str(tmp_path / "x.rvt")])
        assert code == 2

    def test_segment_pads_to_the_grid_and_crops_back(self, capsys, tmp_path):
        # mbconv-base-toy pools 4 times: 13 -> 16, 16 stays, 9 -> 16
        model_dir = str(tmp_path / "m")
        model = build("mbconv-base-toy", seed=0, precision="single")
        model.save(model_dir)
        volume = np.random.default_rng(0).standard_normal((1, 4, 13, 16, 9)).astype(np.float32)
        vol, seg = str(tmp_path / "v.rvt"), str(tmp_path / "seg.rvt")
        tensor_write(volume, vol)
        code, report, _ = run_json(capsys, ["segment", "--model", model_dir,
                                            "--volume", vol, "--out", seg])
        assert code == 0
        assert report["input_size"] == [13, 16, 9] and report["padded_size"] == [16, 16, 16]
        padded, record = pad_to_grid(volume, model.config.levels)
        expected = crop_to_record(model.forward(padded, None), record).argmax(axis=1)
        assert np.array_equal(tensor_read(seg)[0, 0], expected[0].astype(np.float32))

    def test_segment_frees_the_volume_after_the_first_conv(self, capsys, tmp_path):
        # segment-conv's benchmark config; one level-0 activation is 8 x 64^3
        # float32. The padded volume (0.5) is freed once enc0.raise has read
        # it, so the whole command peaks at the forward's 3.00 plus what
        # loading the model and reading the volume leave live (3.12 measured,
        # numpy 2.4, Python 3.11); three-buffer group norms read 3.62, and
        # holding the volume through the forward and upsampling before the
        # reduce 4.87
        config = UNetConfig(widths=(8, 16, 32, 64), image_size=(64, 64, 64),
                            block_kind="standard")
        activation = 8 * 64 ** 3 * 4
        model_dir = str(tmp_path / "m")
        build(config, seed=0, precision="single").save(model_dir)
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.random.default_rng(0).standard_normal((1, 4, 64, 64, 64))
                     .astype(np.float32), vol)
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = cli.main(["segment", "--model", model_dir, "--volume", vol,
                             "--out", str(tmp_path / "seg.rvt")])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 3.35 * activation, peak / activation

    def test_both_steps_and_epochs(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["train", "--data", "missing", "--out", str(tmp_path / "o"),
                     "--seed", "0", "--steps", "1", "--epochs", "1"])
        assert code == 2
        assert "exactly one" in err

    def test_neither_steps_nor_epochs(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, ["train", "--data", "missing", "--out", str(tmp_path / "o"),
                     "--seed", "0"])
        assert code == 2

    def test_holdout_swallows_corpus(self, capsys, corpus, tmp_path):
        corpus_dir, _ = corpus
        code, _, err = run(
            capsys, ["train", "--data", corpus_dir, "--out", str(tmp_path / "o"),
                     "--seed", "0", "--steps", "1", "--holdout", "5"])
        assert code == 2
        assert "holdout" in err

    @pytest.mark.parametrize("argv", [
        ["--steps", "0"], ["--steps", "-3"], ["--epochs", "-1"],
        ["--steps", "1", "--holdout", "-1"], ["--steps", "1", "--base-lr", "0"],
        ["--steps", "1", "--base-lr", "-0.01"], ["--steps", "1", "--base-lr", "nan"],
    ], ids=["steps-0", "steps-neg", "epochs-neg", "holdout-neg", "lr-0", "lr-neg", "lr-nan"])
    def test_bad_count_or_rate_is_usage_error(self, capsys, corpus, tmp_path, argv):
        corpus_dir, _ = corpus
        code, out, _ = run(capsys, ["train", "--data", corpus_dir, "--out", str(tmp_path / "o"),
                                    "--seed", "0"] + argv)
        assert code == 2
        assert out == ""
        assert not os.path.exists(tmp_path / "o" / "metrics.jsonl")  # refused before training

    def test_missing_model_is_usage_error(self, capsys, tmp_path):
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        code, _, _ = run(capsys, ["segment", "--model", str(tmp_path / "no"),
                                  "--volume", vol, "--out", str(tmp_path / "o.rvt")])
        assert code == 2


    def test_non_finite_segment_volume_is_usage_error(self, capsys, tmp_path):
        model_dir = str(tmp_path / "m")
        build("mbconv-base-toy", seed=0, precision="single").save(model_dir)
        vol = str(tmp_path / "v.rvt")
        _write_non_finite(vol, (1, 4, 16, 16, 16), np.nan)
        code, _, err = run(capsys, ["segment", "--model", model_dir,
                                    "--volume", vol, "--out", str(tmp_path / "o.rvt")])
        assert code == 2
        assert "NaN or Inf" in err
        assert not os.path.exists(tmp_path / "o.rvt")

    def test_non_finite_corpus_volume_is_usage_error(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        index = write_corpus(corpus_dir, 2, 16, seed=3)
        _write_non_finite(os.path.join(corpus_dir, index["items"][1]["volume"]),
                          (1, 4, 16, 16, 16), np.inf)
        out = tmp_path / "run"
        code, _, err = run(capsys, ["train", "--data", corpus_dir, "--out", str(out),
                                    "--seed", "0", "--steps", "1"])
        assert code == 2
        assert "NaN or Inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("labels", [
        np.full((1, 1, 16, 16, 16), 9.0),    # a class the model does not have
        np.full((1, 1, 16, 16, 16), -1.0),
        np.full((1, 1, 16, 16, 16), 3e9),
        np.full((1, 1, 16, 16, 16), 2.5),    # not an integer
        np.zeros((1, 2, 16, 16, 16)),        # two channels
        np.zeros((2, 1, 16, 16, 16)),
        np.zeros((1, 1, 16, 16, 8)),         # another grid than the volume's
    ])
    def test_bad_reference_labels_are_usage_errors(self, capsys, tmp_path, labels):
        model_dir = str(tmp_path / "m")
        build("mbconv-base-toy", seed=0, precision="single").save(model_dir)
        vol, lab = str(tmp_path / "v.rvt"), str(tmp_path / "l.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        tensor_write(labels.astype(np.float32), lab)
        code, out, err = run(capsys, ["segment", "--model", model_dir, "--volume", vol,
                                      "--out", str(tmp_path / "o.rvt"), "--labels", lab])
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not os.path.exists(tmp_path / "o.rvt")

    def test_non_integer_corpus_labels_are_usage_errors(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        index = write_corpus(corpus_dir, 2, 16, seed=3)
        lab = os.path.join(corpus_dir, index["items"][1]["labels"])
        tensor_write(tensor_read(lab) + np.float32(0.5), lab)
        out = tmp_path / "run"
        code, _, err = run(capsys, ["train", "--data", corpus_dir, "--out", str(out),
                                    "--seed", "0", "--steps", "1"])
        assert code == 2 and "not integers" in err
        assert not out.exists()

    def test_transposed_parameter_file_is_usage_error(self, capsys, tmp_path):
        model_dir = tmp_path / "m"
        build("mbconv-base-toy", seed=0, precision="single").save(model_dir)
        param = str(model_dir / "params" / "enc1.raise.w.rvt")
        assert tensor_read(param).shape == (4, 2, 1, 1, 1)
        # the same 8 elements, transposed: a count check alone would load it
        tensor_write(np.ascontiguousarray(tensor_read(param).transpose(1, 0, 2, 3, 4)), param)
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        code, out, err = run(capsys, ["segment", "--model", str(model_dir), "--volume", vol,
                                      "--out", str(tmp_path / "o.rvt")])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "enc1.raise.w" in err
        assert not os.path.exists(tmp_path / "o.rvt")

    def test_manifest_escaping_model_dir_is_usage_error(self, capsys, tmp_path):
        model_dir = tmp_path / "m"
        build("mbconv-base-toy", seed=0, precision="single").save(model_dir)
        manifest = json.loads((model_dir / "manifest.json").read_text())
        entry = manifest["params"][0]
        outside = tmp_path / "outside.rvt"
        outside.write_bytes((model_dir / entry["file"]).read_bytes())
        entry["file"] = "../outside.rvt"
        (model_dir / "manifest.json").write_text(json.dumps(manifest))
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        code, _, err = run(capsys, ["segment", "--model", str(model_dir),
                                    "--volume", vol, "--out", str(tmp_path / "o.rvt")])
        assert code == 2
        assert "outside the model directory" in err
        assert not os.path.exists(tmp_path / "o.rvt")

    def test_config_larger_than_its_parameter_files_is_usage_error(self, tmp_path):
        # one huge width once made Model(...) allocate ~25 TiB before any
        # parameter file was read; the child's address space is capped, so
        # such an allocation fails there with a MemoryError
        model_dir = tmp_path / "m"
        build("baseline-toy", seed=0, precision="single").save(model_dir)
        doc = json.loads((model_dir / "config.json").read_text())
        doc["config"]["widths"] = [2, 4, 6, 8, 1000000]
        (model_dir / "config.json").write_text(json.dumps(doc))
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        child = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31)); "
                 "from revunet import cli; sys.exit(cli.main())")
        proc = subprocess.run(
            [sys.executable, "-c", child, "segment", "--model", str(model_dir), "--volume", vol,
             "--out", str(tmp_path / "o.rvt")],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not os.path.exists(tmp_path / "o.rvt")

    @pytest.mark.parametrize("corrupt", [
        lambda config, manifest: (config, dict(manifest, params={
            e["name"]: e for e in manifest["params"]})),
        lambda config, manifest: (config, dict(manifest, params=manifest["params"][1:]
                                               + [manifest["params"][0]["name"]])),
        lambda config, manifest: (config, dict(manifest, params=[
            dict(manifest["params"][0], file=7)] + manifest["params"][1:])),
        lambda config, manifest: (config, [manifest]),
        lambda config, manifest: ([config], manifest),
        lambda config, manifest: (config, dict(manifest, params=manifest["params"]
                                               + manifest["params"][:1])),
    ], ids=["params-object", "params-string", "integer-file", "manifest-list", "config-list",
            "params-repeated"])
    def test_malformed_model_documents_are_usage_errors(self, capsys, tmp_path, corrupt):
        model_dir = tmp_path / "m"
        build("mbconv-base-toy", seed=0, precision="single").save(model_dir)
        docs = corrupt(*(json.loads((model_dir / name).read_text())
                         for name in ("config.json", "manifest.json")))
        for name, doc in zip(("config.json", "manifest.json"), docs):
            (model_dir / name).write_text(json.dumps(doc))
        vol = str(tmp_path / "v.rvt")
        tensor_write(np.zeros((1, 4, 16, 16, 16), dtype=np.float32), vol)
        code, out, err = run(capsys, ["segment", "--model", str(model_dir),
                                      "--volume", vol, "--out", str(tmp_path / "o.rvt")])
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not os.path.exists(tmp_path / "o.rvt")

    @pytest.mark.parametrize("corrupt", [
        lambda index: index["items"],
        lambda index: dict(index, items={str(i): item for i, item in enumerate(index["items"])}),
        lambda index: dict(index, items=[index["items"][0]["volume"]] + index["items"][1:]),
        lambda index: dict(index, items=[dict(index["items"][0], volume=3)]
                           + index["items"][1:]),
    ], ids=["index-list", "items-object", "items-string", "integer-volume"])
    def test_malformed_corpus_index_is_usage_error(self, capsys, tmp_path, corrupt):
        corpus_dir = tmp_path / "corpus"
        index = write_corpus(str(corpus_dir), 2, 16, seed=3)
        (corpus_dir / "index.json").write_text(json.dumps(corrupt(index)))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, ["train", "--data", str(corpus_dir), "--out", str(out),
                                         "--seed", "0", "--steps", "1"])
        assert code == 2 and stdout == "" and err.startswith("error: ")
        assert not out.exists()


class TestEnsembleSelect:
    def _write_inputs(self, tmp_path, n_models=2):
        stats = {
            "models": [{"name": "good", "train_dice": [0.9, 0.9]},
                       {"name": "weak", "train_dice": [0.5, 0.5]}][:n_models],
            "train_histograms": [[10, 0, 0, 0], [0, 0, 0, 10]],
        }
        stats_path = str(tmp_path / "stats.json")
        with open(stats_path, "w") as f:
            json.dump(stats, f)
        vol_path = str(tmp_path / "query.rvt")
        tensor_write(np.full((1, 1, 4, 4, 4), 0.95, dtype=np.float32), vol_path)
        return stats_path, vol_path

    def test_both_readings(self, capsys, tmp_path):
        stats_path, vol_path = self._write_inputs(tmp_path)
        out = str(tmp_path / "sel.json")
        code, report, err = run_json(
            capsys, ["ensemble-select", "--stats", stats_path,
                     "--volume", vol_path, "--reading", "literal", "--out", out])
        assert code == 0
        assert report["selected_index"] == 1
        assert report["selected_name"] == "weak"
        assert len(report["scores"]) == 2
        assert "selected model 1" in err
        assert json.load(open(out)) == report

        code, report, _ = run_json(
            capsys, ["ensemble-select", "--stats", stats_path,
                     "--volume", vol_path, "--reading", "inverted"])
        assert code == 0
        assert report["selected_index"] == 0
        assert report["selected_name"] == "good"

    @pytest.mark.parametrize("reading", ["literal", "inverted"])
    def test_scores_the_query_once(self, capsys, tmp_path, monkeypatch, reading):
        stats_path, vol_path = self._write_inputs(tmp_path)
        stats = json.load(open(stats_path))
        dice = [m["train_dice"] for m in stats["models"]]
        volume = tensor_read(vol_path)
        scores = phantoms.ensemble_scores(dice, stats["train_histograms"], volume, reading)
        chosen = ensemble_select(dice, stats["train_histograms"], volume, reading)
        expected = {"schema_version": 1, "reading": reading, "scores": scores,
                    "selected_index": chosen, "selected_name": stats["models"][chosen]["name"]}
        calls = []
        histogram = phantoms.histogram
        monkeypatch.setattr(phantoms, "histogram", lambda *a: calls.append(1) or histogram(*a))
        out = tmp_path / "sel.json"
        code, _, _ = run(capsys, ["ensemble-select", "--stats", stats_path, "--volume", vol_path,
                                  "--reading", reading, "--out", str(out)])
        assert code == 0 and len(calls) == 1
        assert out.read_bytes() == (json.dumps(expected, indent=2, sort_keys=True) + "\n").encode()

    def test_single_model(self, capsys, tmp_path):
        stats_path, vol_path = self._write_inputs(tmp_path, n_models=1)
        code, report, _ = run_json(
            capsys, ["ensemble-select", "--stats", stats_path, "--volume", vol_path])
        assert code == 0
        assert report["selected_index"] == 0

    def test_non_finite_volume_is_usage_error(self, capsys, tmp_path):
        stats_path, vol_path = self._write_inputs(tmp_path)
        _write_non_finite(vol_path, (1, 1, 4, 4, 4), np.nan)
        code, out, err = run(capsys, ["ensemble-select", "--stats", stats_path,
                                      "--volume", vol_path])
        assert code == 2
        assert "NaN or Inf" in err
        assert out == ""

    @pytest.mark.parametrize("doc", [
        {"models": [{"name": "good", "train_dice": []}], "train_histograms": []},
        [{"name": "good", "train_dice": [0.9]}],
        {"models": [{"name": "good", "train_dice": [0.9, 0.9]}],
         "train_histograms": [[10, 0, 0, 0], [0, 0, 10]]},
        {"models": [{"name": "good", "train_dice": [0.9, 0.9]}],
         "train_histograms": [[10], [0]]},
        {"models": [{"name": "good", "train_dice": [0.9, 0.9]}], "train_histograms": 2},
        {"models": [{"name": "good", "train_dice": {"a": 0.9}}],
         "train_histograms": [[10, 0, 0, 0]]},
    ], ids=["no-histograms", "top-level-list", "ragged-histograms", "one-bin-histograms",
            "integer-histograms", "object-train-dice"])
    def test_bad_stats_layout_is_usage_error(self, capsys, tmp_path, doc):
        _, vol_path = self._write_inputs(tmp_path)
        stats_path = tmp_path / "bad.json"
        stats_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["ensemble-select", "--stats", str(stats_path),
                                    "--volume", vol_path])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("models", [[[0.9, 0.9]], {"a": 1}],
                             ids=["list-entry", "object"])
    def test_models_not_a_list_of_objects_is_usage_error(self, capsys, tmp_path, models):
        # refused before the volume is read: the volume path does not exist
        stats_path = tmp_path / "bad.json"
        stats_path.write_text(json.dumps({"models": models,
                                          "train_histograms": [[10, 0, 0, 0]]}))
        code, out, err = run(capsys, ["ensemble-select", "--stats", str(stats_path),
                                      "--volume", str(tmp_path / "no.rvt")])
        assert code == 2
        assert err == "error: stats models must be a list of JSON objects\n"
        assert out == ""

    def test_missing_stats(self, capsys, tmp_path):
        _, vol_path = self._write_inputs(tmp_path)
        code, _, _ = run(capsys, ["ensemble-select", "--stats",
                                  str(tmp_path / "no.json"), "--volume", vol_path])
        assert code == 2
