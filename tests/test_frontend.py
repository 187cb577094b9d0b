import dataclasses
import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import fixtures, frontend, passes
from jetforge import graph as g

TINY_CFG = """
[net]
width=64
height=32
channels=3

[convolutional]
batch_normalize=1
filters=4
size=3
stride=2
pad=1
activation=leaky

[convolutional]
filters=2
size=1
stride=1
activation=linear
"""


def test_net_section_sets_input_shape():
    gr = frontend.parse_cfg("[net]\nwidth=608\nheight=352\nchannels=3\n"
                            "[convolutional]\nfilters=1\nsize=1\nstride=1\nactivation=linear\n")
    assert gr.input_shape == g.TensorShape(1, 3, 352, 608)


def test_yolov3_has_72_leaky_activations(yolov3_graph):
    leaky = [n for n in yolov3_graph.nodes
             if n.kind == g.ACTIVATION and n.attrs["act"] == g.LEAKY]
    assert len(leaky) == 72
    stats = frontend.model_stats(yolov3_graph)
    assert stats.activation_counts["leaky"] == 72


def test_generated_cfgs_parse_and_validate():
    for name, text in (("yolov3", fixtures.yolov3_cfg()), ("tiny", fixtures.tiny_cfg())):
        assert g.validate(frontend.parse_cfg(text)) == [], name


def test_yolov3_structure_counts(yolov3_graph):
    counts = {}
    for n in yolov3_graph.nodes:
        counts[n.kind] = counts.get(n.kind, 0) + 1
    assert counts[g.CONV] == 75
    assert counts[g.BATCHNORM] == 72
    assert counts[g.ADD] == 23
    assert counts[g.CONCAT] == 2
    assert counts[g.UPSAMPLE] == 2
    assert counts[g.YOLO_HEAD] == 3
    assert g.validate(yolov3_graph) == []


def test_shortcut_relative_indexing():
    # 12 sections; the [shortcut] sits at darknet layer index 10 with from=-3,
    # so it must add the outputs of layers 9 and 7
    convs = "\n".join(
        f"[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\nactivation=leaky\n"
        for _ in range(10))
    cfg = f"[net]\nwidth=32\nheight=32\nchannels=3\n{convs}\n[shortcut]\nfrom=-3\n"
    gr = frontend.parse_cfg(cfg)
    add = [n for n in gr.nodes if n.kind == g.ADD][0]
    assert add.inputs == ["act9", "act7"]


def test_route_single_rewires_and_multi_concats():
    cfg = """
[net]
width=32
height=32
channels=3

[convolutional]
filters=4
size=3
stride=1
pad=1
activation=leaky

[convolutional]
filters=6
size=3
stride=1
pad=1
activation=leaky

[route]
layers=-2

[convolutional]
filters=2
size=1
stride=1
activation=linear

[route]
layers=-1,1
"""
    gr = frontend.parse_cfg(cfg)
    concat = [n for n in gr.nodes if n.kind == g.CONCAT][0]
    # route -1 is conv3's output, route 1 is darknet layer 1 (act1)
    assert concat.inputs == ["conv3", "act1"]
    conv3 = gr.node_by_id("conv3")
    assert conv3.inputs == ["act0"]  # single-layer route re-wired to layer 0


def test_parse_errors():
    with pytest.raises(frontend.CfgSyntaxError):
        frontend.parse_cfg("[net]\nwidth=32\nwidth=64\nheight=32\n")  # duplicate key
    with pytest.raises(frontend.UnknownSection):
        frontend.parse_cfg("[net]\nwidth=32\nheight=32\n[definitely_not_a_layer]\nx=1\n")
    with pytest.raises(frontend.BadReference):
        frontend.parse_cfg("[net]\nwidth=32\nheight=32\n[convolutional]\nfilters=1\n"
                           "size=1\nstride=1\nactivation=linear\n[route]\nlayers=-5\n")
    with pytest.raises(frontend.UnsupportedOption):
        frontend.parse_cfg("[net]\nwidth=32\nheight=32\n[convolutional]\nfilters=1\n"
                           "size=1\nstride=1\nactivation=mish\n")


def test_yolo_mask_outside_the_anchors_rejected():
    """The tiny detector's cfg has 2 anchors; its first head's mask is on line 48."""
    for mask in ("5", "-1"):
        with pytest.raises(frontend.CfgSyntaxError) as exc:
            frontend.parse_cfg(fixtures.tiny_cfg().replace("mask=1", f"mask={mask}"))
        assert exc.value.line_no == 48
        message = f"[yolo] attrs: anchor_indices: [{mask}] outside the model's 2 anchors"
        assert message in str(exc.value)


_SMALL_CFG = ("[net]\nwidth=32\nheight=32\n"
              "[convolutional]\nfilters=11\nsize=1\nstride=1\nactivation=linear\n"
              "[yolo]\nmask=0\nanchors=4,4, 8,8\nclasses=6\n")


@pytest.mark.parametrize("key,value,line", [
    ("width", "9_6", 1), ("width", "\u0669\u0666", 1), ("filters", "1_1", 4),
    ("filters", "\u0661\u0661", 4), ("mask", "0_0", 9), ("mask", "\u0660", 9),
    ("anchors", "4_0,4, 8,8", 9), ("anchors", "4,4, 8,\u0668", 9), ("anchors", "4,4, 8,inf", 9)],
    ids=repr)
def test_cfg_numbers_are_ascii_decimal_text(key, value, line):
    """int() and float() take digit separators and other scripts' digits."""
    assert frontend.parse_cfg(_SMALL_CFG).input_shape.w == 32
    text, count = re.subn(rf"^{key}=.*$", f"{key}={value}", _SMALL_CFG, flags=re.M)
    assert count == 1
    with pytest.raises(frontend.CfgSyntaxError) as exc:
        frontend.parse_cfg(text)
    assert exc.value.line_no == line
    assert f"] {key}: expected " in str(exc.value) and repr(value) in str(exc.value)


def test_unknown_keys_warn_not_fail():
    with pytest.warns(UserWarning):
        gr = frontend.parse_cfg("[net]\nwidth=32\nheight=32\nwormhole=9\n"
                                "[convolutional]\nfilters=1\nsize=1\nstride=1\nactivation=linear\n")
    assert gr.input_shape.w == 32



def test_skipped_keys_warn_with_their_section_line_and_key():
    cfg = fixtures.tiny_cfg().replace("num=2", "num=2\njitter=.3\nrandom=1\nwormhole=9", 1)
    with pytest.warns(UserWarning) as record:
        frontend.parse_cfg(cfg.replace("channels=3", "channels=3\nrandom=1\nwormhole=9"))
    assert [str(w.message) for w in record] == [
        "[net] line 1: ignoring unknown key 'wormhole'",
        "[yolo] line 50: ignoring training-only key 'jitter'",
        "[yolo] line 50: ignoring training-only key 'random'",
        "[yolo] line 50: ignoring unknown key 'wormhole'"]


def test_training_keys_ignored_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frontend.parse_cfg("[net]\nwidth=32\nheight=32\nlearning_rate=0.004\nburn_in=1000\n"
                           "[convolutional]\nfilters=1\nsize=1\nstride=1\nactivation=linear\n")



@pytest.mark.parametrize("name,text,digest", [
    ("yolov3-160x96", fixtures.yolov3_cfg(160, 96),
     "09ba18132c1708c30503f7af584e41c097f6fedba46c6dd23cab198e36bddcdc"),
    ("yolov3", fixtures.yolov3_cfg(),
     "198be71370f5410dfc7768656f0822aa8a02f50e8d586db452e264f7e8f0798a"),
    ("tiny", fixtures.tiny_cfg(),
     "454e8882305b5838f5312133c9212994da1db6baab1dc6e66bdac723647e42e9")])
def test_parse_output_digest(name, text, digest):
    """The graph manifest parse_cfg gives for each generated cfg, pinned by
    its sha256; the cfgs parse without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = g.graph_manifest(frontend.parse_cfg(text))
    assert hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest() == digest


# sha256 of (infer_shapes, model_stats) for each generated cfg as parsed and
# after the three passes
SHAPES_AND_STATS_DIGESTS = {
    ("tiny", "parsed"):
        "9df72a196b17f157e95d7b148016f8af379b3740df1d9aa660bd5afa4c123f73",
    ("tiny", "passes"):
        "f91882e914ee40b1925b8374696929305d40ddb3001062457fc48ff1b4d423ef",
    ("yolov3-160x96", "parsed"):
        "d9f863f0c85f9232e508facc29c92e4acadd53589767e6d8d612ccc9c02aa4d5",
    ("yolov3-160x96", "passes"):
        "eda8b0ad50c213236f782444a8e0bd120107e59bc5e7dbeb2c7424a00fcd4afd",
    ("yolov3-608x352", "parsed"):
        "602b2bb9946bc3a59d97171fcf9b78bfa5e6148fe41d2c7fd8eb62e44eb4a789",
    ("yolov3-608x352", "passes"):
        "9a2fd6a78bed665cc3b590bfb777e507db60c96c5609a65bb8621053322babdf",
}


def _shapes_and_stats_digest(gr) -> str:
    record = {"shapes": {t: list(s) for t, s in g.infer_shapes(gr).items()},
              "stats": dataclasses.asdict(frontend.model_stats(gr))}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def test_shapes_and_stats_digest(tiny_detector, yolov3_weighted):
    """Every tensor's shape and the node counts, activation counts,
    parameters and per-layer MACs, pinned for each generated cfg as parsed
    and after the three passes. yolov3's weights do not depend on the input
    size, so both sizes fold the same arrays."""
    yolov3_small = frontend.parse_cfg(fixtures.yolov3_cfg(160, 96))
    yolov3_small.weights = dict(yolov3_weighted.weights)
    got = {}
    for name, gr in (("tiny", tiny_detector), ("yolov3-160x96", yolov3_small),
                     ("yolov3-608x352", yolov3_weighted)):
        got[name, "parsed"] = _shapes_and_stats_digest(gr)
        folded, _ = passes.apply_passes(gr, ["fuse-conv-bn", "decompose-leaky", "fold-scale"])
        got[name, "passes"] = _shapes_and_stats_digest(folded)
    assert got == SHAPES_AND_STATS_DIGESTS


def _header(major=0, minor=2, revision=0, seen=0):
    return struct.pack("<iii", major, minor, revision) + struct.pack("<q", seen)


def test_load_weights_exact_layout():
    # conv(bn), out=2, in=1, k=1: beta[2] gamma[2] mean[2] var[2] kernel[2]
    cfg = ("[net]\nwidth=32\nheight=32\nchannels=1\n"
           "[convolutional]\nbatch_normalize=1\nfilters=2\nsize=1\nstride=1\nactivation=leaky\n")
    gr = frontend.parse_cfg(cfg)
    payload = np.arange(10, dtype="<f4")
    data = _header() + payload.tobytes()
    loaded = frontend.load_weights(data, gr)
    assert np.array_equal(loaded.weights[("bn0", "bn_beta")][:], [0.0, 1.0])
    assert np.array_equal(loaded.weights[("bn0", "bn_gamma")][:], [2.0, 3.0])
    assert np.array_equal(loaded.weights[("bn0", "bn_mean")][:], [4.0, 5.0])
    assert np.array_equal(loaded.weights[("bn0", "bn_var")][:], [6.0, 7.0])
    assert np.array_equal(loaded.weights[("conv0", "kernel")][:], [8.0, 9.0])


def test_load_weights_truncated_and_trailing():
    cfg = ("[net]\nwidth=32\nheight=32\nchannels=1\n"
           "[convolutional]\nbatch_normalize=1\nfilters=2\nsize=1\nstride=1\nactivation=leaky\n")
    gr = frontend.parse_cfg(cfg)
    payload = np.arange(10, dtype="<f4").tobytes()
    with pytest.raises(frontend.Truncated):
        frontend.load_weights(_header() + payload[:-4], gr)
    with pytest.raises(frontend.TrailingBytes):
        frontend.load_weights(_header() + payload + b"\x00\x00\x00\x00", gr)
    with pytest.raises(frontend.HeaderInvalid):
        frontend.load_weights(struct.pack("<iii", -1, 0, 0) + b"\x00" * 8 + payload, gr)


def test_loaded_weights_are_read_only_views_that_the_passes_and_saving_take(
        tmp_path, tiny_detector):
    """Each weight load_weights binds is a view of the darknet bytes, so a
    write to it raises instead of silently invalidating a compiled program;
    the passes and save_container run on such weights and give the bytes
    they give on owned arrays."""
    data = frontend.save_weights(tiny_detector)
    skeleton = tiny_detector.copy()
    skeleton.weights = {}
    loaded = frontend.load_weights(data, skeleton)
    raw = np.frombuffer(data, dtype=np.uint8)
    for key, arr in loaded.weights.items():
        assert arr.dtype == np.float32 and not arr.flags.writeable, key
        assert np.shares_memory(arr, raw) and np.array_equal(arr, tiny_detector.weights[key]), key
    with pytest.raises(ValueError, match="read-only"):
        loaded.weights[("conv0", "kernel")][0] = 1.0
    names = ["fuse-conv-bn", "decompose-leaky", "fold-scale"]
    saved = []
    for i, gr in enumerate((loaded, tiny_detector)):
        folded, _ = passes.apply_passes(gr, names)
        g.save_container(folded, tmp_path / f"{i}.uir")
        reloaded = g.load_container(tmp_path / f"{i}.uir")
        saved.append({k: a.tobytes() for k, a in reloaded.weights.items()})
    assert saved[0] == saved[1]


def test_weights_header_seen_width():
    header, offset = frontend.parse_weights_header(
        struct.pack("<iii", 0, 1, 0) + struct.pack("<i", 7) + b"junk")
    assert header.seen == 7 and offset == 16
    header, offset = frontend.parse_weights_header(
        struct.pack("<iii", 0, 2, 0) + struct.pack("<q", 9) + b"junk")
    assert header.seen == 9 and offset == 20


def test_weights_roundtrip_through_container(tmp_path, tiny_detector):
    path = tmp_path / "tiny.uir"
    g.save_container(tiny_detector, path)
    loaded = g.load_container(path)
    for key, arr in tiny_detector.weights.items():
        assert np.array_equal(loaded.weights[key], arr), key


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, 3]),
                          st.booleans()), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_load_weights_consumes_exactly(layer_specs, rnd):
    """Random tiny cfgs with matching synthetic weights load cleanly; any
    byte added or removed is rejected."""
    body = []
    for filters, size, bn in layer_specs:
        lines = ["[convolutional]"]
        if bn:
            lines.append("batch_normalize=1")
        lines += [f"filters={filters}", f"size={size}", "stride=1", "pad=1",
                  "activation=leaky"]
        body.append("\n".join(lines))
    cfg = "[net]\nwidth=32\nheight=32\nchannels=2\n" + "\n\n".join(body) + "\n"
    gr = frontend.parse_cfg(cfg)
    data = fixtures.random_weights(gr, seed=rnd.randrange(1000))
    loaded = frontend.load_weights(data, gr)
    assert g.validate(loaded) == []
    with pytest.raises(frontend.Truncated):
        frontend.load_weights(data[:-4], gr)
    with pytest.raises((frontend.TrailingBytes, frontend.Truncated)):
        frontend.load_weights(data + b"\x00\x00\x00\x00", gr)


def test_model_stats_macs_and_params():
    cfg = ("[net]\nwidth=32\nheight=32\nchannels=2\n"
           "[convolutional]\nfilters=4\nsize=1\nstride=1\nactivation=leaky\n")
    gr = frontend.parse_cfg(cfg)
    # 1x1 conv, 2 -> 4 channels on 32x32: out_h * out_w * out_ch * in_ch * k * k
    stats = frontend.model_stats(gr)
    assert stats.per_layer_macs["conv0"] == 32 * 32 * 4 * 2
    assert stats.activation_counts == {"leaky": 1}

    cfg_bn = ("[net]\nwidth=32\nheight=32\nchannels=1\n"
              "[convolutional]\nbatch_normalize=1\nfilters=2\nsize=1\nstride=1\nactivation=leaky\n")
    stats_bn = frontend.model_stats(frontend.parse_cfg(cfg_bn))
    assert stats_bn.parameter_count == 2 + 8  # kernel 2*1*1*1, bn 4*2


def test_model_stats_conv_example_8x8():
    conv = g.conv_node("c", ["input"], "c", out_ch=4, kernel=1, stride=1, pad=0,
                       has_bias=False)
    gr = g.Graph(nodes=[conv], input_shape=g.TensorShape(1, 2, 8, 8))
    stats = frontend.model_stats(gr)
    assert stats.per_layer_macs["c"] == 512
    assert stats.total_macs == 512
