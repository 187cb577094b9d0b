import argparse
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import struct
import types

import numpy as np
import pytest

import jetforge
from jetforge import bench, cli, data, detect, executor, fixtures, frontend, quant, tensorio
from jetforge import graph as g

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def tiny_files(tmp_path_factory, tiny_detector):
    """cfg + darknet weights + calibration scenes + eval set on disk."""
    root = tmp_path_factory.mktemp("tinymodel")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(fixtures.tiny_cfg())
    weights_path = root / "tiny.weights"
    weights_path.write_bytes(frontend.save_weights(tiny_detector))

    calib_dir = root / "calib"
    calib_dir.mkdir()
    rng = np.random.default_rng(21)
    for i, tensor in enumerate(fixtures.calibration_images(60, seed=21)):
        tensorio.save_image(calib_dir / f"cal_{i:03d}.ppm",
                            tensor[0].transpose(1, 2, 0))

    eval_dir = root / "eval"
    manifest = fixtures.write_scene_dataset(eval_dir, 10, seed=33)
    manifest_path = eval_dir / "manifest.jsonl"
    data.save_manifest(manifest_path, manifest, {"purpose": "cli-tests"})
    return {"root": root, "cfg": cfg_path, "weights": weights_path,
            "calib": calib_dir, "eval_dir": eval_dir, "manifest": manifest_path}


def run(args):
    return cli.main([str(a) for a in args])


def test_convert_roundtrip(tiny_files, tmp_path, capsys):
    out = tmp_path / "tiny.uir"
    assert run(["convert", "--cfg", tiny_files["cfg"], "--weights",
                tiny_files["weights"], "-o", out]) == 0
    printed = capsys.readouterr().out
    assert "activations[leaky]" in printed and "conv MACs" in printed
    loaded = g.load_container(out)
    assert g.validate(loaded) == []
    # converting again (same inputs, elsewhere) is byte-identical
    other = tmp_path / "elsewhere"
    other.mkdir()
    out2 = other / "tiny.uir"
    run(["convert", "--cfg", tiny_files["cfg"], "--weights",
         tiny_files["weights"], "-o", out2])
    assert out.read_bytes() == out2.read_bytes()


def test_convert_missing_weights_exits_2(tiny_files, tmp_path, capsys):
    code = run(["convert", "--cfg", tiny_files["cfg"], "--weights",
                tmp_path / "nope.weights", "-o", tmp_path / "x.uir"])
    assert code == 2
    assert "nope.weights" in capsys.readouterr().err


@pytest.mark.parametrize("stray", [1, 2, 3])
def test_weights_with_stray_bytes_exit_1(stray, tiny_files, tmp_path, capsys):
    cfg = frontend.parse_cfg(tiny_files["cfg"].read_text())
    weights = tmp_path / "stray.weights"
    weights.write_bytes(tiny_files["weights"].read_bytes() + b"\x00" * stray)
    with pytest.raises(frontend.TrailingBytes):
        frontend.load_weights(weights.read_bytes(), cfg)
    out = tmp_path / "x.uir"
    assert run(["convert", "--cfg", tiny_files["cfg"], "--weights", weights, "-o", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "stray bytes" in err[0]
    assert not out.exists()


def test_invalid_cfg_exits_1(tiny_files, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad_route = ("[net]\nwidth=608\nheight=352\n[convolutional]\nfilters=1\n"
                 "size=1\nstride=1\nactivation=linear\n[route]\nlayers=-9\n")
    bad_mask = fixtures.tiny_cfg().replace("mask=1", "mask=5")  # the cfg has 2 anchors
    for text, error in ((bad_route, "reference -9 out of range"),
                        (bad_mask, "line 48: [yolo] attrs: anchor_indices: [5] outside the model's "
                                   "2 anchors")):
        bad.write_text(text)
        code = run(["convert", "--cfg", bad, "--weights", tiny_files["weights"],
                    "-o", tmp_path / "x.uir"])
        assert code == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "x.uir").exists()



# one section of each kind, every key that SECTIONS reads set to a value that converts
_CFG = [("net", {"width": "32", "height": "32", "channels": "3"}),
        ("convolutional", {"batch_normalize": "1", "filters": "8", "size": "3", "stride": "1",
                           "pad": "1", "padding": "0", "activation": "leaky"}),
        ("shortcut", {"from": "-1", "activation": "linear"}),
        ("maxpool", {"size": "2", "stride": "2"}),
        ("upsample", {"stride": "2"}),
        ("route", {"layers": "-1,-3"}),
        ("convolutional", {"filters": "11", "size": "1", "stride": "1", "activation": "linear"}),
        ("yolo", {"mask": "0", "anchors": "4,4, 8,8", "classes": "6"})]
# the value just below each bound a key feeds, and what the error names: the
# key, or the node attribute for a bound of graph's node rules
_BELOW_BOUND = {("net", "width"): ("0", "width"), ("net", "height"): ("0", "height"),
                ("net", "channels"): ("0", "channels"),
                ("convolutional", "batch_normalize"): ("-1", "batch_normalize"),
                ("convolutional", "filters"): ("0", "out_ch"),
                ("convolutional", "size"): ("0", "kernel"),
                ("convolutional", "stride"): ("0", "stride"),
                ("convolutional", "pad"): ("-1", "pad"),
                ("convolutional", "padding"): ("-1", "padding"),
                ("upsample", "stride"): ("1", "factor"),
                ("maxpool", "size"): ("0", "kernel"), ("maxpool", "stride"): ("0", "stride"),
                ("route", "layers"): ("", "layers"),
                ("yolo", "mask"): ("-1", "anchor_indices"), ("yolo", "anchors"): ("0,4", "anchors"),
                ("yolo", "classes"): ("0", "num_classes")}
# one-value edits that used to end in a traceback, to blame the weights file
# or, for the shortcut's activation, to be run as linear; -> what the error names
_EDITS = {("convolutional", "stride", "0"): "stride",
          ("convolutional", "filters", "abc"): "filters", ("net", "width", "6x"): "width",
          ("maxpool", "size", "0"): "kernel", ("maxpool", "stride", "0"): "stride",
          ("route", "layers", ""): "layers", ("route", "layers", "x"): "layers",
          ("yolo", "anchors", "a,4"): "anchors", ("convolutional", "pad", "x"): "pad",
          ("convolutional", "filters", "-4"): "out_ch", ("convolutional", "size", "0"): "kernel",
          ("net", "channels", "0"): "channels", ("yolo", "classes", "0"): "num_classes",
          ("shortcut", "activation", "leaky"): "activation"}


def _cfg_text(edit=()) -> tuple[str, int]:
    """_CFG as cfg text with `edit` (section, key, value) applied to the
    first section of its name, and the line of that section's header."""
    lines, at = [], 0
    for name, options in _CFG:
        if edit and edit[0] == name and not at:
            at, options = len(lines) + 1, {**options, edit[1]: edit[2]}
        lines += [f"[{name}]"] + [f"{k}={v}" for k, v in options.items()] + [""]
    return "\n".join(lines), at


def _cfg_options() -> set:
    return {(name, key) for name, table in frontend.SECTIONS.items()
            for key, option in table.items() if type(option) is frontend.Option}


# (section, key, value) -> what the error names: every option with a text
# that does not convert, every bound, every edit
_CFG_CASES = {**{(name, key, "x"): key for name, key in sorted(_cfg_options())},
              **{(name, key, value): named
                 for (name, key), (value, named) in _BELOW_BOUND.items()},
              **_EDITS}


@pytest.fixture(scope="module")
def cfg_weights(tmp_path_factory):
    """Darknet weights for the unedited _CFG."""
    path = tmp_path_factory.mktemp("cfg") / "all.weights"
    path.write_bytes(fixtures.random_weights(frontend.parse_cfg(_cfg_text()[0]), seed=0))
    return path


def test_the_cfg_cases_cover_every_option_and_the_unedited_cfg_converts(cfg_weights, tmp_path):
    assert {(name, key) for name, options in _CFG for key in options} == _cfg_options()
    assert set(_BELOW_BOUND) <= _cfg_options()
    cfg, out = tmp_path / "all.cfg", tmp_path / "all.uir"
    cfg.write_text(_cfg_text()[0])
    assert run(["convert", "--cfg", cfg, "--weights", cfg_weights, "-o", out]) == cli.EXIT_OK


@pytest.mark.parametrize("edit,named", list(_CFG_CASES.items()),
                         ids=[f"{s}-{k}={v}" for s, k, v in _CFG_CASES])
def test_cfg_value_that_does_not_convert_or_breaks_a_bound_exits_1_naming_line_and_key(
        edit, named, cfg_weights, tmp_path, capsys):
    text, line = _cfg_text(edit)
    cfg, out = tmp_path / "bad.cfg", tmp_path / "bad.uir"
    cfg.write_text(text)
    assert run(["convert", "--cfg", cfg, "--weights", cfg_weights, "-o", out]) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {line}: [{edit[0]}] "), err
    assert re.search(rf"(\] |attrs: ){named}\b", err[0]), err
    assert not out.exists()


@pytest.fixture(scope="session")
def tiny_container(tiny_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("containers") / "tiny.uir"
    assert run(["convert", "--cfg", tiny_files["cfg"], "--weights",
                tiny_files["weights"], "-o", out]) == 0
    return out


def test_optimize_and_report(tiny_container, tmp_path, capsys):
    out = tmp_path / "opt.uir"
    report = tmp_path / "report.json"
    assert run(["optimize", "-m", tiny_container, "--passes",
                "fuse-conv-bn,decompose-leaky,fold-scale", "-o", out,
                "--report", report]) == 0
    doc = json.loads(report.read_text())
    names = [r["name"] for r in doc["reports"]]
    assert names == ["fuse-conv-bn", "decompose-leaky", "fold-scale"]
    assert all(r["mac_delta"] == 0 for r in doc["reports"])
    loaded = g.load_container(out)
    assert g.validate(loaded) == []


def test_optimize_relu_swap_warns(tiny_container, tmp_path, capsys):
    assert run(["optimize", "-m", tiny_container, "--passes", "relu-swap",
                "-o", tmp_path / "relu.uir"]) == 0
    assert "retraining" in capsys.readouterr().out


def test_optimize_unknown_pass(tiny_container, tmp_path, capsys):
    assert run(["optimize", "-m", tiny_container, "--passes", "prune-it-all",
                "-o", tmp_path / "x.uir"]) == 1


@pytest.fixture(scope="session")
def optimized_container(tiny_container, tmp_path_factory):
    out = tmp_path_factory.mktemp("containers") / "opt.uir"
    assert run(["optimize", "-m", tiny_container, "--passes",
                "fuse-conv-bn,decompose-leaky,fold-scale", "-o", out]) == 0
    return out


@pytest.fixture(scope="session")
def ranges_file(optimized_container, tiny_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("ranges") / "ranges.json"
    assert run(["calibrate", "-m", optimized_container, "--images",
                tiny_files["calib"], "--count", "60", "--seed", "3",
                "-o", out]) == 0
    return out


def test_calibrate_writes_ranges_with_meta(ranges_file):
    doc = json.loads(ranges_file.read_text())
    assert doc["meta"]["seed"] == 3
    assert doc["meta"]["bin_count"] == 2048
    assert len(doc["tensors"]) > 20
    for entry in doc["tensors"].values():
        assert entry["lo"] < entry["hi"]


def test_calibrate_deterministic_given_seed(optimized_container, tiny_files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["calibrate", "-m", optimized_container, "--images",
                    tiny_files["calib"], "--count", "20", "--seed", "9",
                    "-o", out]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("flag,value,field", [("--bins", "1", "bin_count")])
def test_calibrate_invalid_config_exits_invalid_without_output(
        optimized_container, tiny_files, tmp_path, capsys, flag, value, field):
    out = tmp_path / "ranges.json"
    code = run(["calibrate", "-m", optimized_container, "--images", tiny_files["calib"],
                "--seed", "1", flag, value, "-o", out])
    assert code == cli.EXIT_INVALID
    assert f"{field} must be an integer >=" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_without_output_exits_2_before_calibrating(
        optimized_container, tiny_files, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("calibrate_graph ran before the -o/--output check")
    monkeypatch.setattr(cli.quant, "calibrate_graph", never)
    with pytest.raises(SystemExit) as exc:
        run(["calibrate", "-m", optimized_container, "--images", tiny_files["calib"],
             "--count", "10"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "the following arguments are required: -o/--output" in capsys.readouterr().err


def test_an_image_directory_is_listed_by_every_input_extension_which_its_error_names(
        optimized_container, tmp_path, capsys):
    """The error used to name ppm/pgm/raw alone, though .f32, .bin and
    .tensor files are listed too."""
    images, out = tmp_path / "images", tmp_path / "ranges.json"
    images.mkdir()
    (images / "notes.txt").write_text("not an input\n")
    assert run(["calibrate", "-m", optimized_container, "--images", images,
                "-o", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: no images (.ppm, .pgm, .f32, .raw, .bin, .tensor) in {images}\n")
    assert not out.exists()
    for ext in tensorio.INPUT_EXTENSIONS:
        (images / f"x{ext.upper()}").touch()
    assert cli._list_images(images) == sorted(
        str(images / f"x{ext.upper()}") for ext in tensorio.INPUT_EXTENSIONS)


def test_quantize_without_output_exits_2(optimized_container, ranges_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["quantize", "-m", optimized_container, "--ranges", ranges_file])
    assert exc.value.code == cli.EXIT_USAGE
    assert "the following arguments are required: -o/--output" in capsys.readouterr().err


def test_quantize_ranges_missing_a_tensor_exits_1(optimized_container, ranges_file,
                                                   tmp_path, capsys):
    qparams, meta = quant.load_ranges(ranges_file)
    dropped = g.load_container(optimized_container).nodes[-1].output
    del qparams[dropped]
    partial = tmp_path / "partial.json"
    quant.save_ranges(partial, qparams, meta)
    out = tmp_path / "i8.uir"
    code = run(["quantize", "-m", optimized_container, "--ranges", partial, "-o", out])
    assert code == cli.EXIT_INVALID
    assert f"ranges file misses tensors: {dropped}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_quantize_checks_ranges_cover_every_tensor(tiny_files, tmp_path,
                                                            monkeypatch, capsys):
    calibrate = quant.calibrate_graph

    def partial(graph, images, config):
        qparams = calibrate(graph, images[:2], config)
        del qparams[graph.nodes[-1].output]
        return qparams
    monkeypatch.setattr(cli.quant, "calibrate_graph", partial)
    out_dir = tmp_path / "out"
    code = run(["pipeline", "--cfg", tiny_files["cfg"], "--weights", tiny_files["weights"],
                "--calib-dir", tiny_files["calib"], "--out-dir", out_dir, "--count", "2"])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "stage 'quantize'" in err and "ranges file misses tensors" in err
    assert not (out_dir / "model_i8.uir").exists()


@pytest.fixture(scope="session")
def quantized_container(optimized_container, ranges_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("containers") / "tiny_i8.uir"
    assert run(["quantize", "-m", optimized_container, "--ranges", ranges_file,
                "-o", out]) == 0
    return out


def test_quantized_container_has_qparams(quantized_container):
    loaded = g.load_container(quantized_container)
    assert loaded.qparams and "input" in loaded.qparams


def test_detect_command_writes_jsonl(quantized_container, tiny_files, tmp_path):
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    out = tmp_path / "dets.jsonl"
    assert run(["detect", "-m", quantized_container, "-i", image,
                "--mode", "i8", "--conf", "0.25", "-o", out]) == 0
    recs = detect.read_detections_jsonl(out)
    for r in recs:
        assert set(r) == {"image", "class", "confidence", "bbox"}


def test_eval_command(quantized_container, tiny_files, tmp_path, capsys):
    dets_path = tmp_path / "dets.jsonl"
    images = sorted(tiny_files["eval_dir"].glob("*.ppm"))
    assert run(["detect", "-m", quantized_container, "-i", *images,
                "--mode", "i8", "--conf", "0.005", "-o", dets_path]) == 0
    report_path = tmp_path / "report.json"
    assert run(["eval", "--dets", dets_path, "--manifest", tiny_files["manifest"],
                "-o", report_path]) == 0
    out = capsys.readouterr().out
    assert "mAP@0.5" in out
    doc = json.loads(report_path.read_text())
    assert doc["map50"] >= 0.98


def test_eval_with_two_manifest_records_for_one_image_exits_1(tmp_path, capsys):
    manifest = tmp_path / "twice.jsonl"
    manifest.write_text("".join(
        json.dumps({"image": "a.ppm", "width": 64, "height": 64,
                    "boxes": [{"bbox": box, "label": "car"}]}) + "\n"
        for box in ([0, 0, 10, 10], [30, 30, 10, 10])))
    dets = tmp_path / "dets.jsonl"
    detect.write_detections_jsonl(
        dets, {"a.ppm": [{"class": 0, "confidence": 0.9, "bbox": [0, 0, 10, 10]}]}, {})
    report = tmp_path / "report.json"
    assert run(["eval", "--dets", dets, "--manifest", manifest, "-o", report]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: image 'a.ppm' has more than one record\n")
    assert not report.exists()


def _container_without_tool(path):
    """(manifest without its `tool` echo, weight blob) of a .uir file."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16:16 + mlen])
    del manifest["tool"]
    return manifest, raw[16 + mlen:]


def test_pipeline_artifacts_equal_the_subcommands(tiny_files, tiny_container,
                                                  optimized_container, ranges_file,
                                                  quantized_container, tmp_path):
    out_dir = tmp_path / "pipe"
    assert run(["pipeline", "--cfg", tiny_files["cfg"], "--weights", tiny_files["weights"],
                "--calib-dir", tiny_files["calib"], "--out-dir", out_dir,
                "--eval-manifest", tiny_files["manifest"],
                "--eval-images", tiny_files["eval_dir"],
                "--count", "60", "--seed", "3", "--iters", "1", "--warmup", "0"]) == 0
    for name, container in (("model.uir", tiny_container), ("model_opt.uir", optimized_container),
                            ("model_i8.uir", quantized_container)):
        assert _container_without_tool(out_dir / name) == _container_without_tool(container), name

    def without_echo(path):
        doc = json.loads(path.read_text())
        doc["meta"] = {k: v for k, v in doc["meta"].items() if k not in ("tool", "config")}
        return doc
    assert without_echo(out_dir / "ranges.json") == without_echo(ranges_file)

    images = sorted(tiny_files["eval_dir"].glob("*.ppm"))
    for mode, model in (("f32", tiny_container), ("i8", quantized_container)):
        dets = tmp_path / f"dets_{mode}.jsonl"
        report = tmp_path / f"eval_{mode}.json"
        assert run(["detect", "-m", model, "-i", *images, "--mode", mode,
                    "--conf", "0.005", "-o", dets]) == 0
        assert run(["eval", "--dets", dets, "--manifest", tiny_files["manifest"],
                    "-o", report]) == 0
        piped = (out_dir / f"dets_{mode}.jsonl").read_text().splitlines()
        assert piped[1:] == dets.read_text().splitlines()[1:], mode
        assert len(piped) > 1
        assert without_echo(out_dir / f"eval_{mode}.json") == without_echo(report), mode


def test_bench_zero_iters_rejected(tiny_container, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "-m", tiny_container, "--iters", "0", "-o", tmp_path / "b.csv"])
    assert exc.value.code == 2
    assert "argument --iters: invalid positive_int value: '0'" in capsys.readouterr().err


def test_bench_i8_requires_ranges(tiny_container, tmp_path):
    assert run(["bench", "-m", tiny_container, "--mode", "i8", "--iters", "2",
                "--warmup", "0", "-o", tmp_path / "b.csv"]) == 1


def test_bench_fused_has_fewer_nodes(tiny_container, tmp_path):
    fused_model = tmp_path / "fused.uir"
    assert run(["optimize", "-m", tiny_container, "--passes", "fuse-conv-bn",
                "-o", fused_model]) == 0
    a, b = tmp_path / "base.csv", tmp_path / "fused.csv"
    assert run(["bench", "-m", tiny_container, "--iters", "3", "--warmup", "1",
                "--variant", "baseline", "-o", a]) == 0
    assert run(["bench", "-m", fused_model, "--iters", "3", "--warmup", "1",
                "--variant", "fused", "-o", b]) == 0
    base_row = bench.read_csv(a)[0]
    fused_row = bench.read_csv(b)[0]
    # structure columns are deterministic; latency columns may vary
    assert int(fused_row["nodes"]) < int(base_row["nodes"])
    assert int(fused_row["macs"]) == int(base_row["macs"])


def test_dataset_merge_and_anchors(tmp_path, capsys):
    manifest_path = tmp_path / "joint.jsonl"
    assert run(["dataset", "merge",
                "--coco", os.path.join(FIXTURES, "coco_fixture.json"),
                "--visdrone", os.path.join(FIXTURES, "visdrone"),
                "--default-size", "200x160",
                "-o", manifest_path]) == 0
    printed = capsys.readouterr().out
    assert '"negative_images": 4' in printed
    anchors_path = tmp_path / "anchors.json"
    assert run(["dataset", "anchors", "--manifest", manifest_path, "-k", "4",
                "--seed", "2", "-o", anchors_path]) == 0
    doc = json.loads(anchors_path.read_text())
    assert len(doc["anchors"]) == 4
    assert doc["mean_iou"] > 0.4


def test_config_file_supplies_defaults(tiny_container, tmp_path):
    ini = tmp_path / "jetforge.ini"
    ini.write_text("[bench]\niters = 2\nwarmup = 0\nvariant = from-config\n")
    out = tmp_path / "b.csv"
    assert run(["--config", ini, "bench", "-m", tiny_container, "-o", out]) == 0
    row = bench.read_csv(out)[0]
    assert row["variant"] == "from-config"


def test_bench_csv_records_the_gemm_parts(tiny_container, tmp_path, monkeypatch):
    monkeypatch.setattr(executor, "gemm_parts", lambda: 3)
    out = tmp_path / "b.csv"
    assert run(["bench", "-m", tiny_container, "--iters", "2", "--warmup", "0", "-o", out]) == 0
    meta = [line for line in out.read_text().splitlines() if line.startswith("# ")]
    assert "# gemm_parts=3" in meta
    assert bench.read_csv(out)[0]["variant"] == "model"


def test_cli_flag_overrides_config(tiny_container, tmp_path):
    ini = tmp_path / "jetforge.ini"
    ini.write_text("[bench]\niters = 2\nwarmup = 0\nvariant = from-config\n")
    out = tmp_path / "b.csv"
    assert run(["--config", ini, "bench", "-m", tiny_container,
                "--variant", "from-flag", "-o", out]) == 0
    assert bench.read_csv(out)[0]["variant"] == "from-flag"


def test_env_seed_fallback(optimized_container, tiny_files, tmp_path, monkeypatch):
    monkeypatch.setenv("JETFORGE_SEED", "77")
    out = tmp_path / "r.json"
    assert run(["calibrate", "-m", optimized_container, "--images",
                tiny_files["calib"], "--count", "10", "-o", out]) == 0
    assert json.loads(out.read_text())["meta"]["seed"] == 77


def test_pipeline_end_to_end(tiny_files, tmp_path):
    out_dir = tmp_path / "run1"
    args = ["pipeline", "--cfg", tiny_files["cfg"], "--weights", tiny_files["weights"],
            "--calib-dir", tiny_files["calib"], "--out-dir", out_dir,
            "--eval-manifest", tiny_files["manifest"],
            "--eval-images", tiny_files["eval_dir"],
            "--count", "40", "--iters", "2", "--warmup", "0", "--seed", "5"]
    assert run(args) == 0
    names = {"model.uir", "model_opt.uir", "ranges.json", "model_i8.uir",
             "bench.csv", "dets_f32.jsonl", "eval_f32.json", "dets_i8.jsonl",
             "eval_i8.json", "pipeline_manifest.json"}
    assert names.issubset({p.name for p in out_dir.iterdir()})

    manifest = json.loads((out_dir / "pipeline_manifest.json").read_text())
    assert set(manifest["files"]) == names - {"pipeline_manifest.json", "bench.csv"}
    assert manifest["timings"] == ["bench.csv"]

    f32 = json.loads((out_dir / "eval_f32.json").read_text())
    i8 = json.loads((out_dir / "eval_i8.json").read_text())
    assert i8["map50"] >= f32["map50"] - 0.02

    # second run: an identical manifest; the bench CSV differs in its latency columns only
    out_dir2 = tmp_path / "run2"
    args[args.index(out_dir)] = out_dir2
    assert run(args) == 0
    assert ((out_dir2 / "pipeline_manifest.json").read_bytes()
            == (out_dir / "pipeline_manifest.json").read_bytes())
    a, b = ([(r["nodes"], r["macs"], r["variant"]) for r in bench.read_csv(d / "bench.csv")]
            for d in (out_dir, out_dir2))
    assert a == b


def test_pipeline_missing_calib_aborts_at_calibrate(tiny_files, tmp_path, capsys):
    code = run(["pipeline", "--cfg", tiny_files["cfg"], "--weights",
                tiny_files["weights"], "--calib-dir", tmp_path / "missing",
                "--out-dir", tmp_path / "out"])
    assert code != 0
    assert "calibrate" in capsys.readouterr().err


def test_pipeline_eval_refuses_a_model_without_the_unified_classes(tmp_path, monkeypatch,
                                                                     capsys, tiny_files):
    cfg_text = fixtures.tiny_cfg().replace("classes=6", "classes=3").replace(
        "filters=11", "filters=8")
    cfg = tmp_path / "three.cfg"
    cfg.write_text(cfg_text)
    weights = tmp_path / "three.weights"
    weights.write_bytes(fixtures.random_weights(frontend.parse_cfg(cfg_text), seed=4))

    def never(*args, **kwargs):
        raise AssertionError("detection ran on a model eval cannot score")
    monkeypatch.setattr(cli.detect, "detect_image", never)
    out_dir = tmp_path / "out"
    code = run(["pipeline", "--cfg", cfg, "--weights", weights,
                "--calib-dir", tiny_files["calib"], "--out-dir", out_dir,
                "--eval-manifest", tiny_files["manifest"],
                "--eval-images", tiny_files["eval_dir"],
                "--count", "2", "--iters", "1", "--warmup", "0"])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "pipeline aborted at stage 'eval'" in err
    assert str(data.CLASS_NAMES) in err and "['class0', 'class1', 'class2']" in err
    assert not list(out_dir.glob("dets_*")) and not list(out_dir.glob("eval_*"))


def _paths(tmp_path, tiny_files, tiny_container, optimized_container):
    """The inputs of the failure cases: the tiny model's files, a directory,
    a regular file, and three text files that hold bytes that are not UTF-8."""
    p = types.SimpleNamespace(**tiny_files, model=tiny_container, opt=optimized_container,
                              dir=tmp_path / "a_dir", file=tmp_path / "a_file",
                              out=tmp_path / "out", bad_cfg=tmp_path / "bad.cfg",
                              bad_ini=tmp_path / "bad.ini", visdrone=tmp_path / "visdrone")
    p.dir.mkdir()
    p.visdrone.mkdir()
    p.file.write_text("a file\n")
    p.bad_txt = p.visdrone / "0001.txt"
    for path in (p.bad_cfg, p.bad_ini, p.bad_txt):
        path.write_bytes(b"\xff\xfe[net]\n")
    return p


def _convert_argv(p, cfg=None, output=None):
    return ["convert", "--cfg", cfg or p.cfg, "--weights", p.weights, "-o", output or p.out]


def _pipeline_argv(p, calib_dir=None, out_dir=None):
    return ["pipeline", "--cfg", p.cfg, "--weights", p.weights, "--calib-dir",
            calib_dir or p.calib, "--out-dir", out_dir or p.out, "--count", "2",
            "--iters", "1", "--warmup", "0"]


# case: (exit code, p -> (argv, what the one error line names))
_FAILURES = {
    "convert-output-is-a-directory": (2, lambda p: (_convert_argv(p, output=p.dir), p.dir)),
    "detect-image-is-a-directory": (2, lambda p: (["detect", "-m", p.model, "-i", p.dir], p.dir)),
    "eval-dets-is-a-directory": (2, lambda p: (
        ["eval", "--dets", p.dir, "--manifest", p.manifest], p.dir)),
    "dataset-merge-coco-is-a-directory": (2, lambda p: (
        ["dataset", "merge", "--coco", p.dir, "-o", p.out], p.dir)),
    "calibrate-images-is-a-file": (2, lambda p: (
        ["calibrate", "-m", p.opt, "--images", p.file, "-o", p.out], p.file)),
    "pipeline-out-dir-is-a-file": (2, lambda p: (_pipeline_argv(p, out_dir=p.file), p.file)),
    "pipeline-calib-dir-is-a-file": (2, lambda p: (_pipeline_argv(p, calib_dir=p.file), p.file)),
    "config-is-a-directory": (2, lambda p: (
        ["--config", p.dir, *_convert_argv(p)], f"config file {p.dir}")),
    "config-not-utf8": (2, lambda p: (
        ["--config", p.bad_ini, *_convert_argv(p)], f"config file {p.bad_ini}")),
    "cfg-not-utf8": (1, lambda p: (_convert_argv(p, cfg=p.bad_cfg), f"{p.bad_cfg}: not UTF-8: ")),
    "visdrone-annotation-not-utf8": (1, lambda p: (
        ["dataset", "merge", "--visdrone", p.visdrone, "--default-size", "64x64", "-o", p.out],
        f"{p.bad_txt}: not UTF-8: ")),
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_a_path_the_command_cannot_use_exits_with_one_line_naming_it(
        case, tmp_path, tiny_files, tiny_container, optimized_container, capsys):
    code, make = _FAILURES[case]
    argv, named = make(_paths(tmp_path, tiny_files, tiny_container, optimized_container))
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(named) in err and "Traceback" not in err


def test_pipeline_lets_a_bug_in_a_stage_propagate(tiny_files, tmp_path, monkeypatch):
    def bug(*args, **kwargs):
        raise TypeError("a bug in calibration")
    monkeypatch.setattr(cli.quant, "calibrate_graph", bug)
    p = types.SimpleNamespace(**tiny_files, out=tmp_path / "out")
    with pytest.raises(TypeError, match="a bug in calibration"):
        run(_pipeline_argv(p))


def test_every_error_of_the_package_derives_from_jetforge_error():
    errors = []
    for info in pkgutil.iter_modules(jetforge.__path__):
        module = importlib.import_module(f"jetforge.{info.name}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, Exception) and cls.__module__ == module.__name__]
    assert {cls.__name__ for cls in errors} >= {
        "ArtifactError", "FrontendError", "GraphError", "PassError", "QuantError", "DataError",
        "EvalError", "DetectError", "BenchError", "ExecutionError", "ImageFormatError",
        "CliError"}
    assert [cls for cls in errors if not issubclass(cls, jetforge.Error)] == []


# every option a subcommand cannot run without, as (config section, first flag)
_REQUIRED = [
    ("convert", "--cfg"), ("convert", "--weights"), ("convert", "-o"),
    ("optimize", "-m"), ("detect", "-m"), ("detect", "-i"), ("bench", "-m"),
    ("calibrate", "-m"), ("calibrate", "--images"), ("calibrate", "-o"),
    ("quantize", "-m"), ("quantize", "--ranges"), ("quantize", "-o"),
    ("eval", "--dets"), ("eval", "--manifest"),
    ("dataset-merge", "-o"), ("dataset-anchors", "--manifest"),
    ("pipeline", "--cfg"), ("pipeline", "--weights"), ("pipeline", "--calib-dir"),
    ("pipeline", "--out-dir")]


def _subparser(section) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    for name in section.split("-"):
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


def _option(section, flag) -> argparse.Action:
    return next(a for a in _subparser(section)._actions if flag in a.option_strings)


def _runs(p, ranges):
    """section -> (its words, its required options as flag -> value, the
    rest of a run that succeeds and writes p.out)."""
    image = sorted(p.eval_dir.glob("*.ppm"))[0]
    coco = os.path.join(FIXTURES, "coco_fixture.json")
    dets, boxes = p.dir / "dets.jsonl", p.dir / "coco.jsonl"
    detect.write_detections_jsonl(dets, {}, {})
    data.save_manifest(boxes, data.merge([data.ingest_coco(coco)]), {})
    return {
        "convert": (["convert"], {"--cfg": p.cfg, "--weights": p.weights, "-o": p.out}, []),
        "optimize": (["optimize"], {"-m": p.model}, ["-o", p.out]),
        "detect": (["detect"], {"-m": p.model, "-i": image}, ["-o", p.out]),
        "bench": (["bench"], {"-m": p.model}, ["--iters", "1", "--warmup", "0", "-o", p.out]),
        "calibrate": (["calibrate"], {"-m": p.opt, "--images": p.calib, "-o": p.out},
                      ["--count", "2"]),
        "quantize": (["quantize"], {"-m": p.opt, "--ranges": ranges, "-o": p.out}, []),
        "eval": (["eval"], {"--dets": dets, "--manifest": p.manifest}, ["-o", p.out]),
        "dataset-merge": (["dataset", "merge"], {"-o": p.out}, ["--coco", coco]),
        "dataset-anchors": (["dataset", "anchors"], {"--manifest": boxes},
                            ["-k", "2", "-o", p.out]),
        "pipeline": (["pipeline"], {"--cfg": p.cfg, "--weights": p.weights,
                                    "--calib-dir": p.calib, "--out-dir": p.out},
                     ["--count", "2", "--iters", "1", "--warmup", "0"]),
    }


def _argv(words, required, rest, without):
    return [*words, *(w for flag, value in required.items() if flag != without
                      for w in (flag, value)), *rest]


def test_the_required_options_are_the_ones_the_parser_declares():
    declared = {(section, a.option_strings[0]) for section in {s for s, _ in _REQUIRED}
                for a in _subparser(section)._actions if a.required and a.option_strings}
    assert declared == set(_REQUIRED)


@pytest.mark.parametrize("section,flag", _REQUIRED, ids=[f"{s}{f}" for s, f in _REQUIRED])
def test_a_required_option_left_out_exits_2_naming_its_flag_before_any_file_is_touched(
        section, flag, tmp_path, tiny_files, tiny_container, optimized_container, ranges_file,
        capsys):
    p = _paths(tmp_path, tiny_files, tiny_container, optimized_container)
    words, required, rest = _runs(p, ranges_file)[section]
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        run(_argv(words, required, rest, without=flag))
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    flags = "/".join(_option(section, flag).option_strings)
    assert err.splitlines()[-1].endswith(f"error: the following arguments are required: {flags}")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and not p.out.exists()


@pytest.mark.parametrize("section,flag", [c for c in _REQUIRED if c != ("detect", "-i")],
                         ids=[f"{s}{f}" for s, f in _REQUIRED if (s, f) != ("detect", "-i")])
def test_a_required_option_set_in_the_config_file_needs_no_flag(
        section, flag, tmp_path, tiny_files, tiny_container, optimized_container, ranges_file):
    p = _paths(tmp_path, tiny_files, tiny_container, optimized_container)
    words, required, rest = _runs(p, ranges_file)[section]
    ini = _ini(tmp_path, f"[{section}]\n{_option(section, flag).dest} = {required[flag]}\n")
    assert run(["--config", ini, *_argv(words, required, rest, without=flag)]) == 0
    assert p.out.exists()


def test_quantize_with_a_missing_ranges_file_exits_2_with_the_system_line(
        optimized_container, tmp_path, capsys):
    missing, out = tmp_path / "absent.json", tmp_path / "q.uir"
    assert run(["quantize", "-m", optimized_container, "--ranges", missing,
                "-o", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not out.exists()


def test_detect_conf_is_never_taken_for_config(tiny_container, tiny_files, tmp_path):
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    ini = _ini(tmp_path, "[detect]\nconf = 0.5\n")
    out = tmp_path / "dets.jsonl"
    for config in ([], ["--config", ini]):
        assert run([*config, "detect", "-m", tiny_container, "-i", image,
                    "--conf", "0.25", "-o", out]) == 0
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["config"]["conf"] == 0.25


def test_convert_invalid_graph_lists_every_diagnostic(tiny_files, tmp_path, monkeypatch,
                                                     capsys):
    diags = [g.Diagnostic("conv0", "first problem"), g.Diagnostic("conv1", "second problem")]
    monkeypatch.setattr(g, "validate", lambda graph: diags)
    out = tmp_path / "x.uir"
    code = run(["convert", "--cfg", tiny_files["cfg"], "--weights", tiny_files["weights"],
                "-o", out])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "conv0: first problem" in err and "conv1: second problem" in err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "jetforge" in capsys.readouterr().out


def test_module_entrypoint():
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "jetforge.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "jetforge" in proc.stdout


def _ini(tmp_path, text):
    ini = tmp_path / "jetforge.ini"
    ini.write_text(text)
    return ini


@pytest.mark.parametrize("line,message", [
    ("count = many", "[calibrate] count: invalid positive_int value: 'many'"),
    ("seed = 1.5", "[calibrate] seed: invalid non_negative_int value: '1.5'")],
    ids=["count", "seed"])
def test_config_value_of_the_wrong_type_exits_2_without_output(
        optimized_container, tiny_files, tmp_path, capsys, line, message):
    out = tmp_path / "ranges.json"
    ini = _ini(tmp_path, f"[calibrate]\n{line}\n")
    code = run(["--config", ini, "calibrate", "-m", optimized_container,
                "--images", tiny_files["calib"], "-o", out])
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_value_outside_the_choices_exits_2(tiny_container, tiny_files, tmp_path,
                                                  capsys):
    dets = tmp_path / "dets.jsonl"
    detect.write_detections_jsonl(dets, {}, {})
    ini = _ini(tmp_path, "[eval]\nignore_eval = of\n[detect]\nmode = i9\n")
    assert run(["--config", ini, "eval", "--dets", dets,
                "--manifest", tiny_files["manifest"]]) == cli.EXIT_USAGE
    assert "[eval] ignore_eval: invalid choice 'of'" in capsys.readouterr().err
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    assert run(["--config", ini, "detect", "-m", tiny_container, "-i", image]) == cli.EXIT_USAGE
    assert "[detect] mode: invalid choice 'i9'" in capsys.readouterr().err


def test_config_key_that_is_no_option_exits_2_listing_the_keys(tiny_container, tmp_path,
                                                               capsys):
    out = tmp_path / "opt.uir"
    ini = _ini(tmp_path, "[optimize]\npasses = fuse-conv-bn,decompose-leaky\n")
    assert run(["--config", ini, "optimize", "-m", tiny_container, "-o", out]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "[optimize] passes is not an option" in err and "pass_names" in err
    assert not out.exists()


def test_env_seed_that_is_not_an_int_exits_2(optimized_container, tiny_files, tmp_path,
                                             monkeypatch):
    out = tmp_path / "r.json"
    for value in ("abc", "-1"):  # not an integer; an integer below 0
        monkeypatch.setenv("JETFORGE_SEED", value)
        with pytest.raises(SystemExit) as exc:
            run(["calibrate", "-m", optimized_container, "--images", tiny_files["calib"],
                 "--count", "10", "-o", out])
        assert exc.value.code == cli.EXIT_USAGE
    assert not out.exists()


def test_config_seed_beats_env_seed(optimized_container, tiny_files, tmp_path, monkeypatch):
    monkeypatch.setenv("JETFORGE_SEED", "77")
    ini = _ini(tmp_path, "[calibrate]\nseed = 5\n")
    out = tmp_path / "r.json"
    assert run(["--config", ini, "calibrate", "-m", optimized_container, "--images",
                tiny_files["calib"], "--count", "10", "-o", out]) == 0
    assert json.loads(out.read_text())["meta"]["seed"] == 5


def test_detect_i8_requires_ranges(tiny_container, tiny_files, tmp_path, capsys):
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    out = tmp_path / "dets.jsonl"
    assert run(["detect", "-m", tiny_container, "-i", image, "--mode", "i8",
                "-o", out]) == cli.EXIT_INVALID
    assert "i8 mode needs a quantized container" in capsys.readouterr().err
    assert not out.exists()


def test_detect_with_an_overflowing_box_size_exits_1_with_one_line(tiny_container, tiny_files,
                                                                    tmp_path, capsys):
    gr = g.load_container(tiny_container)
    bias = gr.weights[("conv5", "bias")].copy()
    bias[2], bias[4], bias[5] = 800.0, 30.0, 30.0  # tw, objectness, class 0 of the one anchor
    gr.weights[("conv5", "bias")] = bias
    model = tmp_path / "overflow.uir"
    g.save_container(gr, model)
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    assert run(["detect", "-m", model, "-i", image, "-o", tmp_path / "dets.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box size of anchor 0 at cell (row 0, col 0) overflows")
    assert err.count("\n") == 1


def _edit_weights(container, path, edit) -> None:
    """A copy of `container` at `path` whose manifest's weight entries
    `edit(entries)` changes in place; it returns the indexes of entries to
    drop, whose floats leave the blob with them."""
    data = open(container, "rb").read()
    (length,) = struct.unpack_from("<Q", data, 8)
    manifest = json.loads(data[16:16 + length])
    entries, blob = manifest["weights"], data[16 + length:]
    offsets = np.cumsum([0] + [4 * e["len"] for e in entries])
    dropped = edit(entries)
    blob = b"".join(blob[offsets[i]:offsets[i + 1]] for i in range(len(entries))
                    if i not in dropped)
    manifest["weights"] = [e for i, e in enumerate(entries) if i not in dropped]
    text = json.dumps(manifest).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(text)) + text + blob)


def _entry(entries, layer, role) -> int:
    return next(i for i, e in enumerate(entries) if (e["layer"], e["role"]) == (layer, role))


def _shift_kernel_lengths(entries):
    entries[_entry(entries, "conv0", "kernel")]["len"] -= 1  # the blob size is unchanged
    entries[_entry(entries, "conv1", "kernel")]["len"] += 1
    return set()


@pytest.mark.parametrize("case,message", [
    ("kernel-lengths-shifted", "conv0: role 'kernel' has 215 values, expected 216"),
    ("kernel-missing", "conv1: missing weights for role 'kernel'"),
    ("bias-missing", "conv0: missing weights for role 'bias'")])
def test_detect_with_weights_that_disagree_with_their_nodes_exits_1_with_one_line(
        case, message, tiny_container, optimized_container, tiny_files, tmp_path, capsys):
    """The blob holds the floats the manifest lists, but a weight is
    missing or of the wrong length for its node: the loader refuses it with
    validate's first fault, before any node runs."""
    model = tmp_path / "bad.uir"
    if case == "kernel-lengths-shifted":
        _edit_weights(tiny_container, model, _shift_kernel_lengths)
    elif case == "kernel-missing":
        _edit_weights(tiny_container, model, lambda e: {_entry(e, "conv1", "kernel")})
    else:  # the optimized conv0 carries the folded batchnorm as its bias
        _edit_weights(optimized_container, model, lambda e: {_entry(e, "conv0", "bias")})
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    out = tmp_path / "dets.jsonl"
    assert run(["detect", "-m", model, "-i", image, "-o", out]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"error: {model}: {message}\n"
    assert not out.exists()


def test_detect_with_a_tensor_produced_twice_exits_1_naming_the_node_and_the_tensor(
        tiny_container, tiny_files, tmp_path, capsys):
    """The loader's validate refuses the second producer of a tensor
    before any node runs."""
    data = tiny_container.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 8)
    manifest = json.loads(data[16:16 + length])
    nodes = manifest["nodes"]
    assert [n["id"] for n in nodes[4:6]] == ["bn1", "act1"]
    nodes[4]["output"], nodes[5]["inputs"] = "act0", ["act0"]
    text = json.dumps(manifest).encode()
    model = tmp_path / "twice.uir"
    model.write_bytes(data[:8] + struct.pack("<Q", len(text)) + text + data[16 + length:])
    image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
    out = tmp_path / "dets.jsonl"
    assert run(["detect", "-m", model, "-i", image, "-o", out]) == cli.EXIT_INVALID
    assert (capsys.readouterr().err
            == f"error: {model}: bn1: tensor 'act0' produced more than once\n")
    assert not out.exists()


def test_optimize_validates_once_and_lists_every_diagnostic(tiny_container, tmp_path,
                                                            monkeypatch, capsys):
    calls = []
    validate = g.validate

    def counted(graph):
        calls.append(graph)
        return validate(graph)
    monkeypatch.setattr(g, "validate", counted)
    assert run(["optimize", "-m", tiny_container, "-o", tmp_path / "ok.uir"]) == 0
    assert len(calls) == 2  # the loader's, then save_container's of the optimized graph

    diags = [g.Diagnostic("conv0", "first problem"), g.Diagnostic("conv1", "second problem")]
    loaded = g.load_container(tiny_container)
    monkeypatch.setattr(g, "load_container", lambda path: loaded)  # the loader validates too
    monkeypatch.setattr(g, "validate", lambda graph: diags)
    out = tmp_path / "x.uir"
    assert run(["optimize", "-m", tiny_container, "-o", out]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "conv0: first problem" in err and "conv1: second problem" in err
    assert not out.exists()


def test_config_file_without_a_section_header_exits_2(tiny_container, tmp_path, capsys):
    ini = _ini(tmp_path, "iters = 2\n")
    assert run(["--config", ini, "bench", "-m", tiny_container]) == cli.EXIT_USAGE
    assert "config file" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "ranges-without-tensors", "ranges-tensor-without-zero-point", "dets-line-not-json",
    "dets-bbox-of-three-numbers", "dets-class-not-an-integer",
    "manifest-line-without-width", "manifest-box-without-label", "container-manifest-not-json",
    "container-node-without-attrs", "container-weight-repeated",
    "container-weight-layer-not-a-string", "container-input-shape-of-two",
    "container-input-id-not-a-string", "container-node-stride-zero",
    "container-anchors-not-pairs", "container-node-kind-unknown", "container-weight-layer-unknown",
    "container-weight-role-undeclared", "container-node-without-inputs", "category-map-not-json",
    "category-map-unknown-name", "coco-image-without-file-name"])
def test_malformed_artifact_exits_1_naming_the_file_and_line(
        case, optimized_container, ranges_file, tiny_files, tmp_path, capsys):
    bad, out, line, field = tmp_path / "bad", tmp_path / "out", None, ""
    quantize = ["quantize", "-m", optimized_container, "--ranges", bad, "-o", out]
    if case == "ranges-without-tensors":
        bad.write_text("{}\n")
        argv = quantize
    elif case == "ranges-tensor-without-zero-point":
        doc = json.loads(ranges_file.read_text())
        del doc["tensors"]["input"]["zero_point"]
        bad.write_text(json.dumps(doc))
        argv = quantize
    elif case == "dets-line-not-json":
        bad.write_text("not json\n")
        argv, line = ["eval", "--dets", bad, "--manifest", tiny_files["manifest"], "-o", out], 1
    elif case in ("dets-bbox-of-three-numbers", "dets-class-not-an-integer"):
        image = json.loads(tiny_files["manifest"].read_text().splitlines()[1])["image"]
        det = {"image": image, "class": 0, "confidence": 0.9, "bbox": [1, 2, 8, 8]}
        det.update({"bbox": [1, 2, 8]} if case == "dets-bbox-of-three-numbers" else {"class": "car"})
        bad.write_text(json.dumps({"_meta": {}}) + "\n" + json.dumps(det) + "\n")
        argv, line = ["eval", "--dets", bad, "--manifest", tiny_files["manifest"], "-o", out], 2
    elif case == "manifest-line-without-width":
        lines = tiny_files["manifest"].read_text().splitlines()
        rec = json.loads(lines[2])
        del rec["width"]
        bad.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
        argv, line = ["dataset", "anchors", "--manifest", bad, "-o", out], 3
    elif case == "manifest-box-without-label":
        lines = tiny_files["manifest"].read_text().splitlines()
        i = next(i for i, text in enumerate(lines) if json.loads(text).get("boxes"))
        rec = json.loads(lines[i])
        del rec["boxes"][0]["label"]
        bad.write_text("\n".join(lines[:i] + [json.dumps(rec)] + lines[i + 1:]) + "\n")
        argv, line = ["dataset", "anchors", "--manifest", bad, "-o", out], i + 1
    elif case == "container-manifest-not-json":
        bad.write_bytes(g.FORMAT_MAGIC + struct.pack("<IQ", g.FORMAT_VERSION, 5) + b"{abcd")
        image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
        argv = ["detect", "-m", bad, "-i", image, "-o", out]
    elif case.startswith("container-"):
        data = open(optimized_container, "rb").read()
        (length,) = struct.unpack_from("<Q", data, 8)
        manifest = json.loads(data[16:16 + length])
        weights, extra = manifest["weights"], b""
        if case == "container-node-without-attrs":
            del manifest["nodes"][0]["attrs"]
        elif case == "container-weight-repeated":
            weights[1].update(layer=weights[0]["layer"], role=weights[0]["role"])
            field = "weights: 1: layer, role: "
        elif case == "container-weight-layer-not-a-string":
            weights[0]["layer"], field = [1], "weights: 0: layer: "
        elif case == "container-input-shape-of-two":
            manifest["input"]["shape"], field = [1, 3], "input: shape: "
        elif case == "container-node-stride-zero":
            manifest["nodes"][0]["attrs"]["stride"], field = 0, "conv0: attrs: stride: "
        elif case == "container-anchors-not-pairs":
            manifest["metadata"]["anchors"], field = [[1]], "metadata: anchors: "
        elif case == "container-node-kind-unknown":
            manifest["nodes"][1]["kind"], field = "foo", f"{manifest['nodes'][1]['id']}: kind: "
        elif case == "container-node-without-inputs":
            manifest["nodes"][1]["inputs"], field = [], f"{manifest['nodes'][1]['id']}: inputs: "
        elif case in ("container-weight-layer-unknown", "container-weight-role-undeclared"):
            # one more float in the blob, so only the entry itself is at fault
            key = ("ghost", "kernel") if case.endswith("unknown") else ("conv0", "scale_factors")
            weights.append({"layer": key[0], "role": key[1], "len": 1})
            extra, field = bytes(4), f"{key[0]}: weights for role '{key[1]}', which no node "
        else:
            manifest["input"]["id"], field = 5, "input: id: "
        blob = json.dumps(manifest).encode()
        bad.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + length:] + extra)
        image = sorted(tiny_files["eval_dir"].glob("*.ppm"))[0]
        argv = ["detect", "-m", bad, "-i", image, "-o", out]
    elif case == "coco-image-without-file-name":
        doc = json.loads(open(os.path.join(FIXTURES, "coco_fixture.json")).read())
        del doc["images"][1]["file_name"]
        bad.write_text(json.dumps(doc))
        argv = ["dataset", "merge", "--coco", bad, "-o", out]
    else:
        if case == "category-map-not-json":
            bad.write_text("{not json")
        else:
            bad.write_text(json.dumps({"9": {"unified": "van"}}))
        argv = ["dataset", "merge", "--visdrone", os.path.join(FIXTURES, "visdrone"),
                "--default-size", "200x160", "--category-map", bad, "-o", out]
    assert run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    where = bad if line is None else f"{bad}:{line}"
    assert len(err) == 1 and err[0].startswith(f"error: {where}: {field}")
    assert not out.exists()



@pytest.mark.parametrize("command", ["detect", "calibrate"])
@pytest.mark.parametrize("name,payload", [
    ("truncated.ppm", b"P6\n4 4\n255\n" + bytes(47)),
    ("maxval.ppm", b"P6\n4 4\n65535\n" + bytes(96)),
    ("ascii.ppm", b"P3\n1 1\n255\n0 0 0\n"),
    ("short.f32", struct.pack("<II", 1, 3)),
    ("size-not-a-number.ppm", b"P6\nabc 64\n255\n")],
    ids=["truncated-payload", "maxval-65535", "magic-p3", "raw-short-header",
         "size-not-a-number"])
def test_malformed_image_exits_1_naming_the_file(command, name, payload, tiny_container,
                                                 tmp_path, capsys):
    images, out = tmp_path / "images", tmp_path / "out"
    images.mkdir()
    bad = images / name
    bad.write_bytes(payload)
    if command == "detect":
        argv = ["detect", "-m", tiny_container, "-i", bad, "-o", out]
    else:
        argv = ["calibrate", "-m", tiny_container, "--images", images, "-o", out]
    assert run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not out.exists()


def test_pnm_header_larger_than_the_file_exits_1_with_one_line(tiny_container, tmp_path,
                                                              capsys):
    huge = tmp_path / "huge.ppm"
    huge.write_bytes(b"P6\n99999 99999\n255\n\x00")  # 20 bytes
    assert run(["detect", "-m", tiny_container, "-i", huge]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {huge}: payload holds 1 bytes, header implies {99999 * 99999 * 3}\n")


@pytest.mark.parametrize("command", ["detect", "calibrate"])
@pytest.mark.parametrize("shape,message", [
    ((2, 3, 64, 96), "raw tensor with n=2, expected one image (n=1)"),
    ((1, 1, 64, 96), "input with c=1 channels, the model takes c=3")],
    ids=["batch-of-two", "one-channel"])
def test_raw_tensor_the_model_cannot_take_exits_1_naming_the_file(command, shape, message,
                                                                  tiny_container, tmp_path,
                                                                  capsys):
    """Detect used to score only the first image of a batch, and a wrong
    channel count failed in the executor without naming the file."""
    images, out = tmp_path / "images", tmp_path / "out"
    images.mkdir()
    bad = images / "x.f32"
    tensorio.save_raw_tensor(bad, np.zeros(shape, dtype=np.float32))
    if command == "detect":
        argv = ["detect", "-m", tiny_container, "-i", bad, "-o", out]
    else:
        argv = ["calibrate", "-m", tiny_container, "--images", images, "-o", out]
    assert run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["confidence", "bbox"])
def test_non_finite_detection_exits_1_in_either_line_order(field, value, tiny_files, tmp_path,
                                                           capsys):
    image = json.loads(tiny_files["manifest"].read_text().splitlines()[1])["image"]
    good = json.dumps({"image": image, "class": 1, "confidence": 0.9, "bbox": [1, 2, 8, 8]})
    bad = good.replace("0.9", value) if field == "confidence" else good.replace("8]", value + "]")
    assert bad != good and value in bad
    for lines, line in (([good, bad], 3), ([bad, good], 2)):
        dets, out = tmp_path / "dets.jsonl", tmp_path / "report.json"
        dets.write_text("\n".join([json.dumps({"_meta": {}})] + lines) + "\n")
        argv = ["eval", "--dets", dets, "--manifest", tiny_files["manifest"], "-o", out]
        assert run(argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dets}:{line}: {field}: expected ")
        assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "dataset-anchors"])
@pytest.mark.parametrize("edit,field", [
    (lambda rec: rec["boxes"][0].update(bbox=[1, 2, 3]), "boxes: 0: bbox"),
    (lambda rec: rec.update(width="100"), "width"),
    (lambda rec: rec["boxes"][0].update(label="plane"), "boxes: 0: label")],
    ids=["bbox-of-three-numbers", "width-a-string", "label-plane"])
def test_manifest_value_of_the_wrong_kind_exits_1_naming_line_and_field(
        command, edit, field, tiny_files, tmp_path, capsys):
    """Each used to end in a traceback or, for the unknown label, to leave
    the box out of scoring and clustering."""
    lines = tiny_files["manifest"].read_text().splitlines()
    i = next(i for i, text in enumerate(lines) if json.loads(text).get("boxes"))
    rec = json.loads(lines[i])
    edit(rec)
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out.json"
    bad.write_text("\n".join(lines[:i] + [json.dumps(rec)] + lines[i + 1:]) + "\n")
    if command == "eval":
        det = {"image": rec["image"], "class": 0, "confidence": 0.9, "bbox": [1, 2, 8, 8]}
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps({"_meta": {}}) + "\n" + json.dumps(det) + "\n")
        argv = ["eval", "--dets", dets, "--manifest", bad, "-o", out]
    else:
        argv = ["dataset", "anchors", "--manifest", bad, "-o", out]
    assert run(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}:{i + 1}: {field}: expected ")
    assert not out.exists()


def test_default_size_that_is_not_wxh_exits_2(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    argv = ["dataset", "merge", "--visdrone", os.path.join(FIXTURES, "visdrone"), "-o", out]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--default-size", "200"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "argument --default-size" in capsys.readouterr().err
    ini = _ini(tmp_path, "[dataset-merge]\ndefault_size = 200\n")
    assert run(["--config", ini] + argv) == cli.EXIT_USAGE
    assert "[dataset-merge] default_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,key,value", [
    ("dataset-anchors", "-k", "k", "0"), ("dataset-anchors", "-k", "k", "-2"),
    ("detect", "--conf", "conf", "-0.1"), ("detect", "--conf", "conf", "1.5"),
    ("detect", "--nms", "nms", "-0.5"), ("detect", "--nms", "nms", "nan"),
    ("eval", "--iou", "iou", "1.5"), ("eval", "--iou", "iou", "-1"),
    ("dataset-anchors", "--seed", "seed", "-1"),
    ("dataset-anchors", "--net-w", "net_w", "0"), ("dataset-anchors", "--net-h", "net_h", "-64"),
    ("calibrate", "--count", "count", "0"), ("calibrate", "--seed", "seed", "-1"),
    ("calibrate", "--bins", "bins", "0"), ("calibrate", "--levels", "levels", "0"),
    ("bench", "--iters", "iters", "0"), ("bench", "--warmup", "warmup", "-1"),
    ("pipeline", "--count", "count", "0"), ("pipeline", "--iters", "iters", "0"),
    ("pipeline", "--warmup", "warmup", "-1"), ("pipeline", "--seed", "seed", "-1")])
def test_a_count_below_one_or_a_threshold_outside_0_1_exits_2_as_flag_and_config_value(
        command, flag, key, value, tmp_path, capsys):
    """Each used to give a wrong result silently (one anchor for k < 1, one
    box per class for a negative NMS threshold, no true positive for an IoU
    threshold above 1) or fail late (a negative seed in numpy's sampler, no
    bench iteration after four files were written, "no boxes to cluster"
    for a net size below 1). The value is refused before any file is read."""
    out, missing = tmp_path / "out", tmp_path / "missing"
    argv = {"dataset-anchors": ["dataset", "anchors", "--manifest", missing],
            "detect": ["detect", "-m", missing, "-i", missing],
            "eval": ["eval", "--dets", missing, "--manifest", missing],
            "calibrate": ["calibrate", "-m", missing, "--images", missing],
            "bench": ["bench", "-m", missing],
            "pipeline": ["pipeline", "--cfg", missing, "--weights", missing]}[command]
    argv += ["--out-dir" if command == "pipeline" else "-o", out]
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag, value])
    assert exc.value.code == cli.EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err
    ini = _ini(tmp_path, f"[{command}]\n{key} = {value}\n")
    assert run(["--config", ini] + argv) == cli.EXIT_USAGE
    assert f"[{command}] {key}: invalid" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_with_no_bench_iteration_exits_2_and_writes_nothing(tiny_files, tmp_path,
                                                                     capsys):
    out_dir = tmp_path / "out"
    argv = ["pipeline", "--cfg", tiny_files["cfg"], "--weights", tiny_files["weights"],
            "--calib-dir", tiny_files["calib"], "--out-dir", out_dir, "--count", "4"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--iters", "0"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "argument --iters" in capsys.readouterr().err
    assert run(["--config", _ini(tmp_path, "[pipeline]\niters = 0\n")] + argv) == cli.EXIT_USAGE
    assert "[pipeline] iters: invalid" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("size", [0, 5, (3 << 20) + 5])
def test_sha256_in_chunks_matches_the_one_shot_digest(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
